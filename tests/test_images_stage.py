"""Multimodal stage plumbing: decode/resize/feature actor-pool stages over
the image payload table."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from searchengine_ray.functions.imagecodec import decode, encode
from searchengine_ray.functions.phash import phash64
from searchengine_ray.stages.images import (
    DecodeImages,
    ImageFeatures,
    ResizeImages,
)


def _image_table(n=8, seed=1):
    rng = np.random.RandomState(seed)
    rows = {"image_id": [], "bytes": [], "w": [], "h": [], "fmt": [], "phash": []}
    for i in range(n):
        px = rng.randint(0, 256, size=(16 + i, 12 + i, 3), dtype=np.uint8)
        fmt = "png" if i % 2 == 0 else "jpeg"
        data = encode(px, fmt)
        rows["image_id"].append(f"img{i}")
        rows["bytes"].append(data)
        rows["w"].append(12 + i)
        rows["h"].append(16 + i)
        rows["fmt"].append(fmt)
        rows["phash"].append(phash64(decode(data, fmt)))
    return pa.table({
        "image_id": pa.array(rows["image_id"]),
        "bytes": pa.array(rows["bytes"], pa.binary()),
        "w": pa.array(rows["w"], pa.int32()),
        "h": pa.array(rows["h"], pa.int32()),
        "fmt": pa.array(rows["fmt"]),
        "phash": pa.array(rows["phash"], pa.int64()),
    })


def test_decode_stage(ray_session):
    ds = rd.from_arrow(_image_table())
    out = ds.map_batches(DecodeImages, batch_format="pyarrow",
                         concurrency=2).to_pandas()
    assert out["decode_ok"].all()
    row = out.iloc[0]
    assert len(row["pixels"]) == row["w"] * row["h"] * 3


def test_decode_stage_bad_bytes(ray_session):
    t = _image_table(2)
    bad = t.set_column(t.schema.get_field_index("bytes"), "bytes",
                       pa.array([b"garbage", t["bytes"][1].as_py()], pa.binary()))
    out = rd.from_arrow(bad).map_batches(DecodeImages, batch_format="pyarrow",
                                         concurrency=1).to_pandas()
    assert out["decode_ok"].tolist() == [False, True]


def test_resize_stage(ray_session):
    ds = rd.from_arrow(_image_table())
    out = ds.map_batches(ResizeImages, fn_constructor_kwargs={"edge": 8},
                         batch_format="pyarrow", concurrency=2).to_pandas()
    for _, r in out.iterrows():
        px = decode(r["bytes"], r["fmt"])
        assert px.shape == (8, 8, 3)
        assert r["w"] == 8 and r["h"] == 8
        assert phash64(px) == r["phash"]  # metadata refreshed consistently


def test_feature_stage(ray_session):
    ds = rd.from_arrow(_image_table())
    out = ds.map_batches(ImageFeatures, batch_format="pyarrow",
                         concurrency=2).to_pandas()
    assert all(len(f) == 8 for f in out["features"])  # 3 mean + 3 std + 2 grad
    assert (out["phash_recomputed"] == out["phash"]).all()


def test_aspect_bucket_batches(ray_session):
    """Packing contract: nearest-log-aspect assignment (brute force),
    every batch below a bucket's n//B bound has exactly B members and
    full=True, the remainder batch is partial with full=False, and the
    packing is deterministic under repartitioning (value-based rank)."""
    import pandas as pd

    from searchengine_ray.stages.images import (DEFAULT_ASPECT_PALETTE,
                                                aspect_bucket_batches)

    rng = np.random.default_rng(11)
    n, B = 173, 8
    df = pd.DataFrame({
        "image_id": [f"img{i:04d}" for i in range(n)],
        "w": rng.integers(24, 65, n).astype(np.int32),
        "h": rng.integers(24, 65, n).astype(np.int32)})

    out = aspect_bucket_batches(
        rd.from_pandas(df).repartition(4), batch_size=B,
        salt="t").to_pandas().sort_values("image_id").reset_index(drop=True)
    assert len(out) == n

    # brute-force nearest-aspect assignment
    bw = np.array([p[0] for p in DEFAULT_ASPECT_PALETTE], np.int64)
    bh = np.array([p[1] for p in DEFAULT_ASPECT_PALETTE], np.int64)
    w = df["w"].to_numpy(np.int64)
    h = df["h"].to_numpy(np.int64)
    key = np.round(np.abs(np.log(
        (w[:, None] * bh[None, :]).astype(np.float64)
        / (h[:, None] * bw[None, :]))), 6)
    exp_b = np.argmin(key, axis=1)
    assert (out["bucket_w"].to_numpy() == bw[exp_b]).all()
    assert (out["bucket_h"].to_numpy() == bh[exp_b]).all()

    # batch-size / full-flag contract per bucket
    for (bwv, bhv), g in out.groupby(["bucket_w", "bucket_h"]):
        sizes = g.groupby("batch_idx").size()
        nb = len(g)
        assert set(sizes.index) == set(range((nb + B - 1) // B))
        for bi, s in sizes.items():
            if bi < nb // B:
                assert s == B
                assert g.loc[g["batch_idx"] == bi, "full"].all()
            else:
                assert s == nb % B
                assert not g.loc[g["batch_idx"] == bi, "full"].any()

    # deterministic under a different partitioning
    out2 = aspect_bucket_batches(
        rd.from_pandas(df).repartition(9), batch_size=B,
        salt="t").to_pandas().sort_values("image_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(out, out2)

    # a new salt is a new epoch permutation: some image changes batch
    out3 = aspect_bucket_batches(
        rd.from_pandas(df).repartition(4), batch_size=B,
        salt="t2").to_pandas().sort_values("image_id").reset_index(drop=True)
    assert (out3["batch_idx"].to_numpy() != out["batch_idx"].to_numpy()).any()
