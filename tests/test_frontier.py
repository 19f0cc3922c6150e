"""Frontier pool equivalence: the spill pool (sorted runs with per-host
cursors) must make exactly the same wave slices, in the same order, as the
in-memory pool, and read only each host's next rows per wave."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from searchengine_ray.state import frontier
from searchengine_ray.state.frontier import (
    InMemoryFrontierPool,
    PartitionedFrontierPool,
    snapshot_tables,
)


def _frame(rng, n, start_seq, n_hosts=7):
    hosts = rng.choice([f"h{i}.test" for i in range(n_hosts)], size=n)
    return pd.DataFrame({
        "seq": np.arange(start_seq, start_seq + n, dtype=np.int64),
        "url_norm": [f"https://{h}/p/{start_seq + i}" for i, h in enumerate(hosts)],
        "host": hosts,
        "wave": np.full(n, start_seq % 5, dtype=np.int32),
        "priority": rng.choice([0.0, 1.0, 2.0], size=n),
    })


def _restored(snap, spill_dir):
    """Both pool types refilled from the snapshot at ``snap`` (what
    ``CrawlEngine._restore_gates`` does)."""
    mem, spill = InMemoryFrontierPool(), PartitionedFrontierPool(spill_dir)
    for tbl in snapshot_tables(snap):
        mem.add(tbl.to_pandas())
        spill.add(tbl.to_pandas())
    return mem, spill


@pytest.mark.parametrize("budget,cap", [
    (None, None), (2, None), (3, 10), (None, 5), (1, 3),
])
def test_pool_slice_equivalence(tmp_path, budget, cap):
    rng = np.random.RandomState(7)
    mem = InMemoryFrontierPool()
    spill = PartitionedFrontierPool(str(tmp_path / "pool"))
    seq = 0
    for round_ in range(5):
        df = _frame(rng, 37, seq)
        seq += 37
        mem.add(df)
        spill.add(df)
        wa = mem.slice_wave(budget, cap)
        wb = spill.slice_wave(budget, cap)
        pd.testing.assert_frame_equal(wa, wb)
        assert len(mem) == len(spill)
    # drain both fully — identical order to the end
    while len(mem):
        wa = mem.slice_wave(budget, None)
        wb = spill.slice_wave(budget, None)
        pd.testing.assert_frame_equal(wa, wb)
    assert len(spill) == 0


@pytest.mark.parametrize("budget,cap", [
    (None, None), (2, None), (3, 10), (None, 5), (1, 3), (4, 40),
])
def test_pool_slice_equivalence_peek_next(tmp_path, budget, cap):
    """The speculation feed: the wave slice AND the next-wave prediction
    equal the in-memory pool's, and the prediction takes nothing."""
    rng = np.random.RandomState(11)
    mem = InMemoryFrontierPool()
    spill = PartitionedFrontierPool(str(tmp_path / "pool"))
    seq = 0
    for round_ in range(6):
        df = _frame(rng, 41, seq)
        seq += 41
        mem.add(df)
        spill.add(df)
        (ta, pa_), (tb, pb) = (mem.slice_wave(budget, cap, peek_next=True),
                               spill.slice_wave(budget, cap, peek_next=True))
        pd.testing.assert_frame_equal(ta, tb)
        pd.testing.assert_frame_equal(pa_, pb)
        assert len(mem) == len(spill)
    while len(mem):
        (ta, pa_), (tb, pb) = (mem.slice_wave(budget, None, peek_next=True),
                               spill.slice_wave(budget, None, peek_next=True))
        pd.testing.assert_frame_equal(ta, tb)
        pd.testing.assert_frame_equal(pa_, pb)
    assert len(spill) == 0


def test_pool_interleaving_matches_in_memory(tmp_path):
    """A seeded interleaving of add, slice (with and without the peek),
    snapshot and restore, with priority ties and enough adds to compact
    the runs: every slice equals the in-memory pool's."""
    rng = np.random.RandomState(2024)
    mem = InMemoryFrontierPool()
    spill = PartitionedFrontierPool(str(tmp_path / "pool0"))
    seq = n_restores = max_runs = 0
    for step in range(160):
        op = rng.choice(["add", "add", "slice", "snapshot"], p=[.3, .2, .4, .1])
        if op == "add":
            n = int(rng.randint(1, 60))
            df = _frame(rng, n, seq, n_hosts=int(rng.randint(1, 12)))
            seq += n
            mem.add(df)
            spill.add(df)
        elif op == "slice":
            budget = [None, 1, 2, 5][rng.randint(4)]
            cap = [None, 0, 3, 25][rng.randint(4)]
            if rng.rand() < 0.5:
                (ta, pa_), (tb, pb) = (mem.slice_wave(budget, cap, True),
                                       spill.slice_wave(budget, cap, True))
                pd.testing.assert_frame_equal(pa_, pb)
            else:
                ta, tb = (mem.slice_wave(budget, cap),
                          spill.slice_wave(budget, cap))
            pd.testing.assert_frame_equal(ta, tb)
        else:
            snap = str(tmp_path / f"snap{step}")
            spill.snapshot_to(snap)
            mem_copy, spill = _restored(snap, str(tmp_path / f"pool{step}"))
            pd.testing.assert_frame_equal(
                mem_copy.slice_wave(None, None).sort_values("seq")
                .reset_index(drop=True),
                mem.pool.sort_values("seq").reset_index(drop=True))
            n_restores += 1
        max_runs = max(max_runs, len(spill._runs))
        assert len(mem) == len(spill)
        assert len(spill._runs) <= frontier.MAX_RUNS
    assert n_restores >= 5 and max_runs == frontier.MAX_RUNS
    while len(mem):
        pd.testing.assert_frame_equal(mem.slice_wave(3, None),
                                      spill.slice_wave(3, None))
    assert len(spill) == 0 and not os.listdir(spill.dir)


def test_spill_slice_reads_only_host_heads(tmp_path):
    """Rows read per slice stay within hosts × depth × live runs + cap —
    bounded by the hosts, not the pool (100k rows, 2,000 hosts)."""
    rng = np.random.RandomState(5)
    n, n_hosts, budget, cap = 100_000, 2000, 8, 300
    hosts = np.array([f"host{i:04d}.test" for i in range(n_hosts)])
    pool = pd.DataFrame({
        "seq": np.arange(n, dtype=np.int64),
        "url_norm": [f"u{i}" for i in range(n)],
        "host": hosts[rng.randint(n_hosts, size=n)],
        "wave": np.zeros(n, dtype=np.int32),
        "priority": rng.randint(3, size=n).astype(np.float64),
    })
    mem = InMemoryFrontierPool()
    spill = PartitionedFrontierPool(str(tmp_path / "pool"))
    for k in range(2):
        chunk = pool.iloc[k * n // 2:(k + 1) * n // 2]
        mem.add(chunk)
        spill.add(chunk)
    for peek in (False, True, False, True):
        depth = 2 * budget if peek else budget
        live_runs = len(spill._runs)
        live_hosts = len({h for r in spill._runs
                          for h, p, e in zip(r.hosts, r.pos, r.end) if p < e})
        got = spill.slice_wave(budget, cap, peek_next=peek)
        want = mem.slice_wave(budget, cap, peek_next=peek)
        for a, b in zip(want if peek else [want], got if peek else [got]):
            pd.testing.assert_frame_equal(a, b)
        assert 0 < spill.rows_read <= live_hosts * depth * live_runs + cap
        assert spill.rows_read < len(spill)


def test_spill_pool_holds_only_run_index(tmp_path):
    """The driver holds each run's host index and cursors, never row data:
    the runs are memory-mapped (no Arrow allocation survives ``add``), and
    a slice only moves cursors — no run file is rewritten."""
    spill = PartitionedFrontierPool(str(tmp_path / "pool"))
    rng = np.random.RandomState(1)
    allocated = pa.total_allocated_bytes()
    spill.add(_frame(rng, 200, 0))
    spill.add(_frame(rng, 100, 200))
    assert pa.total_allocated_bytes() - allocated < 4096
    assert len(spill) == 300
    assert not any(isinstance(v, pd.DataFrame) for v in vars(spill).values())
    for run in spill._runs:
        assert run.hosts == sorted(set(run.table.column("host").to_pylist()))
    files = {f: os.stat(os.path.join(spill.dir, f)).st_ino
             for f in os.listdir(spill.dir)}
    assert len(files) == 2
    w = spill.slice_wave(5, 12)
    assert len(w) == 12
    assert len(spill) == 288
    assert {f: os.stat(os.path.join(spill.dir, f)).st_ino
            for f in os.listdir(spill.dir)} == files


def test_snapshot_roundtrip_across_pool_types(tmp_path):
    rng = np.random.RandomState(3)
    df = _frame(rng, 64, 0)

    mem = InMemoryFrontierPool()
    mem.add(df)
    mem.snapshot_to(str(tmp_path / "snap_mem"))

    spill = PartitionedFrontierPool(str(tmp_path / "pool"))
    spill.add(df)
    spill.snapshot_to(str(tmp_path / "snap_spill"))

    # each snapshot layout restores into EITHER pool type
    for snap in ("snap_mem", "snap_spill"):
        for make in (InMemoryFrontierPool,
                     lambda: PartitionedFrontierPool(str(tmp_path / f"r_{snap}"))):
            pool = make()
            for tbl in snapshot_tables(str(tmp_path / snap)):
                pool.add(tbl.to_pandas())
            assert len(pool) == 64
            out = pool.slice_wave(None, None).sort_values("seq").reset_index(drop=True)
            pd.testing.assert_frame_equal(
                out, df.sort_values("seq").reset_index(drop=True))


def test_snapshot_keeps_only_untaken_rows(tmp_path):
    """A run-layout snapshot is the hardlinked runs plus a cursor table:
    ``snapshot_tables`` yields exactly the rows no slice has taken, and a
    run taken after the snapshot keeps the snapshot's view."""
    rng = np.random.RandomState(9)
    mem = InMemoryFrontierPool()
    spill = PartitionedFrontierPool(str(tmp_path / "pool"))
    for k in range(3):
        df = _frame(rng, 50, 50 * k)
        mem.add(df)
        spill.add(df)
    mem.slice_wave(2, None)
    spill.slice_wave(2, None)
    snap = str(tmp_path / "snap")
    spill.snapshot_to(snap)
    assert sorted(os.listdir(snap)) == sorted(
        [os.path.basename(r.path) for r in spill._runs] + [frontier.CURSORS])
    want = mem.pool.sort_values("seq").reset_index(drop=True)
    spill.slice_wave(None, None)  # drains the pool and deletes its runs
    assert not os.listdir(spill.dir)
    got = pd.concat([t.to_pandas() for t in snapshot_tables(snap)])
    pd.testing.assert_frame_equal(got.sort_values("seq").reset_index(drop=True),
                                  want)
