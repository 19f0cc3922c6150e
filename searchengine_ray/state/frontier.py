"""Frontier pool implementations.

The pool holds pending (seq, url_norm, host, wave, priority) rows between
waves.  Two implementations with identical slice semantics (the conformance
suite runs the engine with both):

- ``InMemoryFrontierPool``: the driver-side pandas frame — right for small
  crawls and the inline conformance path.
- ``PartitionedFrontierPool``: immutable sorted runs under a spill
  directory — the 10^10-URL shape promised by the crawl module docstring
  (pipelines/crawl.py "Scale notes").  Each ``add`` writes ONE run, an
  uncompressed Arrow IPC file sorted by (host, priority DESC, seq ASC);
  the driver keeps only each run's host → [start, end) index and a
  per-(run, host) cursor.  ``slice_wave`` memory-maps the live runs and
  reads only each host's next ``depth`` rows after its cursor, so a
  wave's I/O is O(wave + hosts × live runs), not O(pool), and no file is
  ever rewritten: the rows a wave takes from a host are a prefix of that
  host's untaken rows in every run, so taking them only moves cursors.

Ordering contract (must match ``crawl_oracle``): a wave slice is the pool
sorted by (priority DESC, seq ASC), per-host ``head(per_host_budget)``, then
``head(cap)`` — seq is unique, so the order is deterministic for any
storage layout.  A host's first ``depth`` untaken rows of every run hold
its whole share of a slice, because each run is sorted by the same key
within the host.
"""

from __future__ import annotations

import bisect
import os

import numpy as np
import pandas as pd
import pyarrow as pa

from searchengine_ray.sources import storage

POOL_COLUMNS = ["seq", "url_norm", "host", "wave", "priority"]
_POOL_SCHEMA = pa.schema([("seq", pa.int64()), ("url_norm", pa.string()),
                          ("host", pa.string()), ("wave", pa.int32()),
                          ("priority", pa.float64())])
_RUN_SORT = [("host", "ascending"), ("priority", "descending"),
             ("seq", "ascending")]
# compaction: more live runs than MAX_RUNS merges all but the KEEP_RUNS
# largest (by untaken rows) into one run, so the runs a wave reads stay
# bounded and a run mostly taken is rewritten only as its live rows
MAX_RUNS = 8
KEEP_RUNS = 3
COMPACT_HOSTS = 4096  # hosts per record batch of a compacted run
CURSORS = "cursors.arrow"  # a run-layout snapshot's cursor table


def empty_pool_frame() -> pd.DataFrame:
    return pd.DataFrame(
        {"seq": pd.Series([], dtype=np.int64),
         "url_norm": pd.Series([], dtype=str),
         "host": pd.Series([], dtype=str),
         "wave": pd.Series([], dtype=np.int32),
         "priority": pd.Series([], dtype=np.float64)}
    )


def _slice_frame(pool: pd.DataFrame, per_host_budget: int | None,
                 cap: int | None) -> pd.DataFrame:
    """The canonical slice order on an in-memory frame (see module doc):
    the rows of ``pool`` (index labels kept) sorted by (priority DESC, seq
    ASC), each host's first ``per_host_budget``, then the first ``cap``,
    by one lexsort and a per-host rank in numpy."""
    # seq is unique, so this order is total; NaN priorities sort last, as
    # in pandas' sort_values
    order = np.lexsort((pool["seq"].to_numpy(),
                        -pool["priority"].to_numpy(dtype=np.float64)))
    if per_host_budget is not None:
        codes = pd.factorize(pool["host"].to_numpy()[order])[0]
        by_host = np.argsort(codes, kind="stable")  # slice order within host
        starts = np.zeros(codes.max(initial=-1) + 2, dtype=np.int64)
        np.cumsum(np.bincount(codes), out=starts[1:])
        rank = np.empty(len(order), dtype=np.int64)
        rank[by_host] = np.arange(len(order)) - starts[codes[by_host]]
        order = order[rank < per_host_budget]
    if cap is not None:
        order = order[:max(0, cap)]
    return pool.iloc[order]


def _add_dataset(pool, ds, batch_size: int = 65536) -> None:
    """Stream a Dataset of pool rows into ``pool`` — the driver holds one
    batch at a time, never the dataset."""
    for batch in ds.iter_batches(batch_size=batch_size, batch_format="pandas"):
        pool.add(batch)


class InMemoryFrontierPool:
    """Driver-side pandas pool (the original engine shape)."""

    def __init__(self) -> None:
        self.pool = empty_pool_frame()

    def __len__(self) -> int:
        return len(self.pool)

    def add_dataset(self, ds) -> None:
        _add_dataset(self, ds)

    def add(self, df: pd.DataFrame) -> None:
        if not len(df):
            return
        self.pool = pd.concat([self.pool, df[POOL_COLUMNS]], ignore_index=True)

    def slice_wave(self, per_host_budget: int | None, cap: int | None,
                   peek_next: bool = False):
        take = _slice_frame(self.pool, per_host_budget, cap)
        self.pool = self.pool[~self.pool["seq"].isin(take["seq"])]
        take = take.reset_index(drop=True)
        if not peek_next:
            return take
        # prediction of the NEXT wave's slice from the current backlog (the
        # speculative-fetch feed) — computed in the same pass, no extra read
        nxt_cap = cap - len(take) if cap is not None else None
        peek = _slice_frame(self.pool, per_host_budget, nxt_cap)
        return take, peek.reset_index(drop=True)

    def snapshot_to(self, path: str) -> None:
        storage.write_table_atomic(
            pa.Table.from_pandas(self.pool, preserve_index=False), path)


def _ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The row indices of the ranges [starts[i], ends[i]), concatenated."""
    lens = np.maximum(ends - starts, 0)
    offsets = np.cumsum(lens) - lens
    return (np.arange(int(lens.sum()), dtype=np.int64)
            + np.repeat(starts - offsets, lens))


def _read_ipc(path: str) -> pa.Table:
    """An Arrow IPC file as a zero-copy table over its memory map."""
    return pa.ipc.open_file(pa.memory_map(path)).read_all()


class _Run:
    """One immutable run file and its in-memory index: the rows of
    ``hosts[i]`` are [start[i], end[i]), sorted by (priority DESC, seq
    ASC); the rows before ``pos[i]`` are taken."""

    def __init__(self, path: str) -> None:
        import pyarrow.compute as pc

        self.path = path
        self.table = _read_ipc(path)
        hosts, ends, off = [], [], 0
        for chunk in self.table.column("host").chunks:
            ree = pc.run_end_encode(chunk)
            names = ree.values.to_pylist()
            stops = ree.run_ends.to_numpy().astype(np.int64) + off
            if names and hosts and hosts[-1] == names[0]:  # straddles chunks
                hosts.pop()
                ends.pop()
            hosts.extend(names)
            ends.extend(stops.tolist())
            off += len(chunk)
        self.hosts = hosts
        self.end = np.asarray(ends, dtype=np.int64)
        self.start = np.concatenate(([0], self.end))[:-1].astype(np.int64)
        self.pos = self.start.copy()
        self.live = self.table.num_rows

    def rows(self, depth: int | None = None, lo: int = 0,
             hi: int | None = None) -> np.ndarray:
        """Untaken row indices of host segments [lo, hi): all of them, or
        each segment's next ``depth``."""
        pos, end = self.pos[lo:hi], self.end[lo:hi]
        if depth is not None:
            end = np.minimum(end, pos + max(0, depth))
        return _ranges(pos, end)

    def advance(self, rows: np.ndarray) -> None:
        """Mark ``rows`` taken: they are a prefix of each segment's
        untaken rows, so only the cursors move."""
        seg = np.searchsorted(self.end, rows, side="right")
        self.pos += np.bincount(seg, minlength=len(self.pos))
        self.live -= len(rows)

    def skip(self, taken: dict[str, int]) -> None:
        """Restore a snapshot's cursors: ``taken`` rows per host."""
        idx = {h: i for i, h in enumerate(self.hosts)}
        for h, n in taken.items():
            self.pos[idx[h]] += n
            self.live -= n


class PartitionedFrontierPool:
    """Spill pool of immutable sorted runs with per-(run, host) cursors.

    Layout: ``<spill_dir>/run-<k>.arrow``.  ``add`` writes one run;
    ``slice_wave`` reads each live host's next rows of every run and moves
    cursors; a run whose rows are all taken is deleted, and more than
    ``MAX_RUNS`` live runs are compacted.  The spill dir is scratch: the
    recovery point is the per-wave checkpoint snapshot (hardlinked runs +
    one cursor table), and a fresh pool clears the dir."""

    def __init__(self, spill_dir: str) -> None:
        import shutil

        self.dir = spill_dir
        self._runs: list[_Run] = []
        self._run_seq = 0
        self.rows_read = 0  # rows the last slice_wave read from the runs
        os.makedirs(spill_dir, exist_ok=True)
        for f in os.listdir(spill_dir):  # a fresh engine owns a fresh pool
            p = os.path.join(spill_dir, f)
            if f.startswith("part="):  # the earlier partitioned layout
                shutil.rmtree(p)
            elif f.startswith("run-"):
                os.remove(p)

    # ------------------------------------------------------------- internals
    def _write_run(self, tables) -> None:
        path = os.path.join(self.dir, f"run-{self._run_seq:08d}.arrow")
        self._run_seq += 1
        with pa.OSFile(path, "wb") as sink, \
                pa.ipc.new_file(sink, _POOL_SCHEMA) as writer:
            for t in tables:
                writer.write_table(t)
        self._runs.append(_Run(path))

    def _drop(self, runs: list[_Run]) -> None:
        gone = {id(r) for r in runs}
        self._runs = [r for r in self._runs if id(r) not in gone]
        for r in runs:
            os.remove(r.path)

    def _compact(self) -> None:
        """Merge the live rows of all but the ``KEEP_RUNS`` largest runs
        into one run, host range by host range: the driver holds one
        range's rows at a time, and the taken prefixes are dropped."""
        merge = sorted(self._runs, key=lambda r: r.live)[:-KEEP_RUNS]
        hosts = sorted(set().union(*(
            (h for h, p, e in zip(r.hosts, r.pos, r.end) if p < e)
            for r in merge)))

        def ranges():
            for i in range(0, len(hosts), COMPACT_HOSTS):
                lo, hi = hosts[i], hosts[min(i + COMPACT_HOSTS, len(hosts)) - 1]
                parts = [r.table.take(r.rows(
                    lo=bisect.bisect_left(r.hosts, lo),
                    hi=bisect.bisect_right(r.hosts, hi))) for r in merge]
                yield pa.concat_tables(parts).sort_by(_RUN_SORT)

        self._write_run(ranges())
        self._drop(merge)

    # ------------------------------------------------------------------- api
    def __len__(self) -> int:
        return sum(r.live for r in self._runs)

    def add(self, df: pd.DataFrame) -> None:
        if not len(df):
            return
        tbl = pa.Table.from_arrays(
            [pa.array(df[f.name].to_numpy(), f.type) for f in _POOL_SCHEMA],
            schema=_POOL_SCHEMA)
        self._write_run([tbl.sort_by(_RUN_SORT)])
        if len(self._runs) > MAX_RUNS:
            self._compact()

    def add_dataset(self, ds) -> None:
        _add_dataset(self, ds)

    def slice_wave(self, per_host_budget: int | None, cap: int | None,
                   peek_next: bool = False):
        # each host's share of this slice (and, under peek_next, of the
        # next one) lies in its first `depth` untaken rows of every run
        depth = (None if per_host_budget is None
                 else 2 * per_host_budget if peek_next else per_host_budget)
        if cap is not None:
            depth = cap if depth is None else min(depth, cap)
        heads, run_ids, row_ids = [], [], []
        for i, run in enumerate(self._runs):
            rows = run.rows(depth)
            if len(rows):
                heads.append(run.table.take(rows))
                run_ids.append(np.full(len(rows), i, dtype=np.int64))
                row_ids.append(rows)
        self.rows_read = sum(len(r) for r in row_ids)
        if not heads:
            empty = empty_pool_frame()
            return (empty, empty) if peek_next else empty
        merged = pa.concat_tables(heads).to_pandas()
        take = _slice_frame(merged, per_host_budget, cap)
        taken = take.index.to_numpy()  # positions in `merged`
        run_ids, row_ids = np.concatenate(run_ids), np.concatenate(row_ids)
        for i in np.unique(run_ids[taken]):
            self._runs[i].advance(row_ids[taken][run_ids[taken] == i])
        self._drop([r for r in self._runs if r.live == 0])
        take = take.reset_index(drop=True)
        if not peek_next:
            return take
        rest = merged.drop(index=taken)
        nxt_cap = cap - len(take) if cap is not None else None
        peek = _slice_frame(rest, per_host_budget, nxt_cap)
        return take, peek.reset_index(drop=True)

    def snapshot_to(self, path: str) -> None:
        # runs are immutable, so a snapshot HARDLINKS each live run — O(runs),
        # not O(pool bytes), and the links survive later run removals — and
        # writes one cursor table of the (run, host) pairs with taken rows
        import shutil

        def write(tmp: str) -> None:
            os.makedirs(tmp)
            names, hosts, taken = [], [], []
            for r in self._runs:
                name = os.path.basename(r.path)
                try:
                    os.link(r.path, os.path.join(tmp, name))
                except OSError:  # cross-device fallback
                    shutil.copy2(r.path, os.path.join(tmp, name))
                moved = np.flatnonzero(r.pos > r.start)
                names += [name] * len(moved)
                hosts += [r.hosts[i] for i in moved]
                taken.append(r.pos[moved] - r.start[moved])
            cursors = pa.table({
                "run": pa.array(names, pa.string()),
                "host": pa.array(hosts, pa.string()),
                "taken": pa.array(np.concatenate(taken) if taken
                                  else np.zeros(0, np.int64), pa.int64())})
            with pa.OSFile(os.path.join(tmp, CURSORS), "wb") as sink, \
                    pa.ipc.new_file(sink, cursors.schema) as writer:
                writer.write_table(cursors)

        storage.replace_dir(path, write)


def snapshot_tables(path: str):
    """Yield a checkpoint snapshot's tables one at a time: the single
    table of an in-memory pool, the untaken rows of each hardlinked run of
    a spill pool, or each fragment of the earlier per-partition layout
    (``part=<pid>/frag-*.parquet``)."""
    import pyarrow.parquet as pq

    if storage.exists(path):  # single-table layout (in-memory snapshots)
        yield storage.read_table(path)
        return
    if os.path.exists(cursor_path := os.path.join(path, CURSORS)):
        cur = _read_ipc(cursor_path).to_pydict()
        taken: dict[str, dict[str, int]] = {}
        for name, host, n in zip(cur["run"], cur["host"], cur["taken"]):
            taken.setdefault(name, {})[host] = n
        for name in sorted(os.listdir(path)):
            if name.startswith("run-"):
                run = _Run(os.path.join(path, name))
                run.skip(taken.get(name, {}))
                yield run.table.take(run.rows())
        return
    pid = 0
    while os.path.isdir(part := os.path.join(path, f"part={pid}")):
        for f in sorted(os.listdir(part)):
            if f.endswith(".parquet"):
                yield pq.read_table(os.path.join(part, f))
        pid += 1
    if pid == 0:
        raise FileNotFoundError(f"no frontier snapshot at {path}")


def prune_snapshots(frontier_dir: str, oldest: int) -> None:
    """Remove the committed snapshots ``<frontier_dir>/wave=N`` (either
    layout) of every wave N < ``oldest``; tmp leftovers are not snapshots
    and stay for the next write of their wave to clear."""
    import re
    import shutil

    for name in os.listdir(frontier_dir):
        m = re.fullmatch(r"wave=(\d+)(\.parquet|\.lance)?", name)
        if m and int(m.group(1)) < oldest:
            path = os.path.join(frontier_dir, name)
            if os.path.isdir(path):
                shutil.rmtree(path)
            else:
                os.remove(path)
