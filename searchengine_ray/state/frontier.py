"""Frontier pool implementations.

The pool holds pending (seq, url_norm, host, wave, priority) rows between
waves.  Two implementations with identical slice semantics (the conformance
suite runs the engine with both):

- ``InMemoryFrontierPool``: the driver-side pandas frame — right for small
  crawls and the inline conformance path.
- ``PartitionedFrontierPool``: host-hash-partitioned parquet fragments under
  a spill directory — the 10^10-URL shape promised by the crawl module
  docstring (pipelines/crawl.py "Scale notes").  The driver never holds the
  pool: ``add`` appends fragments for only the touched partitions,
  ``slice_wave`` streams one partition at a time (transient memory =
  pool/num_partitions, not pool), and the returned wave slice is bounded by
  the per-host budget × live hosts (the wave itself, by definition).

Ordering contract (must match ``crawl_oracle``): a wave slice is the pool
sorted by (priority DESC, seq ASC), per-host ``head(per_host_budget)``, then
``head(cap)`` — seq is unique, so the order is deterministic for any
partitioning.  Hosts never straddle partitions (crc32(host) % P), so the
per-host budget is partition-local.
"""

from __future__ import annotations

import os
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa

from searchengine_ray.sources import storage

POOL_COLUMNS = ["seq", "url_norm", "host", "wave", "priority"]
_POOL_DTYPES = {"seq": np.int64, "wave": np.int32, "priority": np.float64}


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
    """The canonical slice order on an in-memory frame (see module doc)."""
    pool = pool.sort_values(["priority", "seq"], ascending=[False, True],
                            kind="stable")
    take = (pool.groupby("host", sort=False).head(per_host_budget)
            if per_host_budget is not None else pool)
    if cap is not None:
        take = take.head(max(0, cap))
    return take


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


class PartitionedFrontierPool:
    """Host-hash-partitioned parquet-backed pool.

    Layout: ``<spill_dir>/part=<pid>/frag-<k>.parquet`` — ``add`` appends a
    fragment per touched partition; ``slice_wave`` compacts each touched
    partition to a single remaining-rows fragment.  Fragment writes are
    tmp+rename (a torn write leaves the previous state intact), and the
    authoritative recovery point is the per-wave checkpoint snapshot, not
    the spill dir."""

    def __init__(self, spill_dir: str, num_partitions: int = 16) -> None:
        self.dir = spill_dir
        self.num_partitions = num_partitions
        self._counts = [0] * num_partitions
        self._frag_seq = 0
        os.makedirs(spill_dir, exist_ok=True)
        for pid in range(num_partitions):
            d = self._part_dir(pid)
            os.makedirs(d, exist_ok=True)
            for f in os.listdir(d):  # a fresh engine owns a fresh pool
                if f.endswith(".parquet") or f.endswith(".tmp"):
                    os.remove(os.path.join(d, f))

    # ------------------------------------------------------------- internals
    def _part_dir(self, pid: int) -> str:
        return os.path.join(self.dir, f"part={pid}")

    def _fragments(self, pid: int) -> list[str]:
        d = self._part_dir(pid)
        return sorted(os.path.join(d, f) for f in os.listdir(d)
                      if f.endswith(".parquet"))

    def _partition_ids(self, hosts: pd.Series) -> np.ndarray:
        p = self.num_partitions
        # hosts repeat heavily within a wave — hash each distinct host once
        uniq = {h: zlib.crc32(h.encode("utf-8")) % p for h in hosts.unique()}
        return hosts.map(uniq).to_numpy(dtype=np.int64)

    def _write_fragment(self, pid: int, df: pd.DataFrame) -> None:
        import pyarrow.parquet as pq

        path = os.path.join(self._part_dir(pid),
                            f"frag-{self._frag_seq:08d}.parquet")
        self._frag_seq += 1
        tmp = path + ".tmp"
        pq.write_table(pa.Table.from_pandas(df, preserve_index=False), tmp)
        os.replace(tmp, path)

    def _read_partition(self, pid: int) -> pd.DataFrame:
        import pyarrow.parquet as pq

        frags = self._fragments(pid)
        if not frags:
            return empty_pool_frame()
        frames = [pq.read_table(f).to_pandas() for f in frags]
        return (pd.concat(frames, ignore_index=True)
                if len(frames) > 1 else frames[0])

    def _replace_partition(self, pid: int, df: pd.DataFrame) -> None:
        old = self._fragments(pid)
        if len(df):
            self._write_fragment(pid, df)
        for f in old:
            os.remove(f)
        self._counts[pid] = len(df)

    # ------------------------------------------------------------------- api
    def __len__(self) -> int:
        return int(sum(self._counts))

    def add(self, df: pd.DataFrame) -> None:
        if not len(df):
            return
        df = df[POOL_COLUMNS]
        pids = self._partition_ids(df["host"])
        for pid, g in df.groupby(pids, sort=False):
            self._write_fragment(int(pid), g)
            self._counts[int(pid)] += len(g)

    def add_dataset(self, ds) -> None:
        _add_dataset(self, ds)

    def slice_wave(self, per_host_budget: int | None, cap: int | None,
                   peek_next: bool = False):
        takes = []
        for pid in range(self.num_partitions):
            if self._counts[pid] == 0:
                continue
            g = self._read_partition(pid)
            # one pass yields both the wave slice and the next-wave
            # prediction (speculative-fetch feed): take up to 2× the
            # per-host budget.  Only the local heads are kept, so a touched
            # partition is read again below to remove the taken rows —
            # that second read keeps transient memory at pool/P
            depth = (2 * per_host_budget if peek_next and per_host_budget
                     else per_host_budget)
            local = _slice_frame(g, depth, None)
            if len(local):
                local = local.copy()
                local["_pid"] = pid
                takes.append(local)
            del g
        empty = empty_pool_frame()
        if not takes:
            return (empty, empty) if peek_next else empty
        merged = pd.concat(takes, ignore_index=True)
        take = _slice_frame(merged, per_host_budget, cap)
        # remove the taken rows from their partitions (touched ones only)
        for pid, tg in take.groupby("_pid", sort=False):
            remaining = self._read_partition(int(pid))
            remaining = remaining[~remaining["seq"].isin(tg["seq"])]
            self._replace_partition(int(pid), remaining)
        take = take.drop(columns=["_pid"]).reset_index(drop=True)
        if not peek_next:
            return take
        rest = merged[~merged["seq"].isin(take["seq"])]
        nxt_cap = cap - len(take) if cap is not None else None
        peek = _slice_frame(rest, per_host_budget, nxt_cap)
        return take, peek.drop(columns=["_pid"]).reset_index(drop=True)

    def snapshot_to(self, path: str) -> None:
        # fragments are immutable once written (rewrites create new files),
        # so a snapshot is a HARDLINK per fragment — O(#files), not O(pool
        # bytes), and the links survive later fragment removals.  tmp+rename
        # per partition keeps the snapshot atomic.
        import shutil

        for pid in range(self.num_partitions):
            dest = os.path.join(path, f"part={pid}")
            tmp = dest + ".tmp"
            if os.path.exists(tmp):
                shutil.rmtree(tmp)
            os.makedirs(tmp)
            for f in self._fragments(pid):
                target = os.path.join(tmp, os.path.basename(f))
                try:
                    os.link(f, target)
                except OSError:  # cross-device fallback
                    shutil.copy2(f, target)
            if os.path.exists(dest):
                shutil.rmtree(dest)
            os.replace(tmp, dest)


def snapshot_tables(path: str):
    """Yield a checkpoint snapshot's tables one at a time: the single
    table of an in-memory pool, or each hardlinked fragment of a spill
    pool's per-partition directories."""
    import pyarrow.parquet as pq

    if storage.exists(path):  # single-table layout (in-memory snapshots)
        yield storage.read_table(path)
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
