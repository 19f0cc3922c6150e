"""Frontier pool equivalence: the partitioned parquet spill pool must make
exactly the same wave slices, in the same order, as the in-memory pool."""

import numpy as np
import pandas as pd
import pytest

from searchengine_ray.state.frontier import (
    InMemoryFrontierPool,
    PartitionedFrontierPool,
    snapshot_tables,
)


def _frame(rng, n, start_seq):
    hosts = rng.choice([f"h{i}.test" for i in range(7)], size=n)
    return pd.DataFrame({
        "seq": np.arange(start_seq, start_seq + n, dtype=np.int64),
        "url_norm": [f"https://{h}/p/{start_seq + i}" for i, h in enumerate(hosts)],
        "host": hosts,
        "wave": np.full(n, start_seq % 5, dtype=np.int32),
        "priority": rng.choice([0.0, 1.0, 2.0], size=n),
    })


@pytest.mark.parametrize("budget,cap", [
    (None, None), (2, None), (3, 10), (None, 5), (1, 3),
])
def test_pool_slice_equivalence(tmp_path, budget, cap):
    rng = np.random.RandomState(7)
    mem = InMemoryFrontierPool()
    spill = PartitionedFrontierPool(str(tmp_path / "pool"), num_partitions=4)
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


def test_snapshot_roundtrip_across_pool_types(tmp_path):
    rng = np.random.RandomState(3)
    df = _frame(rng, 64, 0)

    mem = InMemoryFrontierPool()
    mem.add(df)
    mem.snapshot_to(str(tmp_path / "snap_mem"))

    spill = PartitionedFrontierPool(str(tmp_path / "pool"), num_partitions=3)
    spill.add(df)
    spill.snapshot_to(str(tmp_path / "snap_spill"))

    # each snapshot layout restores into EITHER pool type
    for snap in ("snap_mem", "snap_spill"):
        for make in (InMemoryFrontierPool,
                     lambda: PartitionedFrontierPool(
                         str(tmp_path / f"r_{snap}"), num_partitions=5)):
            pool = make()
            for tbl in snapshot_tables(str(tmp_path / snap)):
                pool.add(tbl.to_pandas())
            assert len(pool) == 64
            out = pool.slice_wave(None, None).sort_values("seq").reset_index(drop=True)
            pd.testing.assert_frame_equal(
                out, df.sort_values("seq").reset_index(drop=True))


def test_spill_pool_driver_holds_one_partition(tmp_path):
    """The spill pool's add path touches only fragment files; nothing keeps
    row data on the pool object itself."""
    spill = PartitionedFrontierPool(str(tmp_path / "pool"), num_partitions=4)
    rng = np.random.RandomState(1)
    spill.add(_frame(rng, 200, 0))
    assert len(spill) == 200
    # no DataFrame attribute holds the pool
    assert not any(isinstance(v, pd.DataFrame) for v in vars(spill).values())
    w = spill.slice_wave(5, 12)
    assert len(w) == 12
    assert len(spill) == 188
