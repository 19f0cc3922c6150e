"""Multimodal batch stages over opaque binary payload columns.

The payload table carries images as ``bytes: binary`` with typed metadata
``(w, h, fmt)`` (BASELINE.json:input_hint).  Each stage is an actor-pool
``map_batches`` callable: per-actor setup in ``__init__``, vectorized work
per batch, Arrow in/out so the binary buffers never round-trip through
pandas object dtype.

- ``DecodeImages``: bytes → decoded pixel tensors (via the pure-Python
  codec; swap PIL in `functions/imagecodec` when available).
- ``ResizeImages``: deterministic area resample to a target edge,
  re-encoded to the requested format.
- ``ImageFeatures``: small numeric feature vector per image (mean/std per
  channel, edge energy, phash) — the feature-extract stage shape for a
  training-data pipeline.

Audio and video have their own stages: ``stages/audio`` (WAV/PCM16 over
``functions/audiocodec``) and ``stages/video`` (MPNG over
``functions/videocontainer``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from searchengine_ray.functions.imagecodec import decode, encode
from searchengine_ray.functions.phash import phash64


class DecodeImages:
    """(bytes, fmt) → fixed-size float32 pixel tensors + validity mask.

    Output adds ``pixels: list<float>`` (flattened h×w×3, row-major) —
    tensors stay Arrow-native; decode errors yield ``decode_ok=False``
    rows instead of failing the batch (reference behavior: malformed docs
    are dropped, index_construction.py:87-88)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch["bytes"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        pixels, ok = [], []
        for blob, fmt in zip(blobs, fmts):
            try:
                px = decode(blob, fmt)
                pixels.append(px.astype(np.float32).ravel().tolist())
                ok.append(True)
            except Exception:
                pixels.append([])
                ok.append(False)
        return (batch.append_column("pixels", pa.array(pixels, pa.list_(pa.float32())))
                .append_column("decode_ok", pa.array(ok, pa.bool_())))


class ResizeImages:
    """Deterministic resample of every image to ``edge×edge``; re-encodes
    with the row's own ``fmt`` and refreshes (bytes, w, h, phash)."""

    def __init__(self, edge: int = 32):
        self.edge = edge

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch["bytes"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        out_bytes, out_ph = [], []
        e = self.edge
        for blob, fmt in zip(blobs, fmts):
            px = decode(blob, fmt)
            h, w = px.shape[:2]
            ys = (np.arange(e) * h) // e
            xs = (np.arange(e) * w) // e
            small = px[np.ix_(ys, xs)]
            data = encode(small, fmt)
            out_bytes.append(data)
            out_ph.append(phash64(decode(data, fmt)))
        n = batch.num_rows
        cols = {name: batch[name] for name in batch.column_names}
        cols["bytes"] = pa.array(out_bytes, pa.binary())
        cols["w"] = pa.array([e] * n, pa.int32())
        cols["h"] = pa.array([e] * n, pa.int32())
        cols["phash"] = pa.array(out_ph, pa.int64())
        return pa.table(cols)


class ImageFeatures:
    """Per-image numeric features: channel means/stds, gradient (edge)
    energy, recomputed phash."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch["bytes"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        feats, phs = [], []
        for blob, fmt in zip(blobs, fmts):
            px = decode(blob, fmt).astype(np.float64)
            gray = px @ np.array([0.299, 0.587, 0.114])
            gx = np.abs(np.diff(gray, axis=1)).mean() if gray.shape[1] > 1 else 0.0
            gy = np.abs(np.diff(gray, axis=0)).mean() if gray.shape[0] > 1 else 0.0
            feats.append(
                px.mean(axis=(0, 1)).tolist() + px.std(axis=(0, 1)).tolist()
                + [float(gx), float(gy)]
            )
            phs.append(phash64(px.astype(np.uint8)))
        return (batch.append_column("features", pa.array(feats, pa.list_(pa.float64())))
                .append_column("phash_recomputed", pa.array(phs, pa.int64())))


class ValidateImages:
    """Per-row INVARIANT gate vs generator ground truth (the input-hint
    contract): decoded pixels must equal the original exactly for lossless
    formats and reach PSNR ≥ ``min_psnr_db`` for lossy ones; the caption
    must match exactly.  Emits (w0, h0, decode_ok, pixels_ok, caption_ok)
    alongside the input columns.

    Actor-pool shape: the golden table loads ONCE per actor in
    ``__init__``.  At test scale it is a per-actor dict; at 100 TB the
    same comparison runs as a co-shuffled join on image_id instead of a
    replica (the validate kernel is unchanged)."""

    LOSSLESS = {"png"}

    def __init__(self, golden_path: str, min_psnr_db: float = 40.0):
        import pyarrow.parquet as pq

        self.min_psnr = min_psnr_db
        t = pq.read_table(golden_path)
        self.golden = {
            i: (p, w, h, c)
            for i, p, w, h, c in zip(t["image_id"].to_pylist(),
                                     t["pixels"].to_pylist(),
                                     t["w"].to_pylist(), t["h"].to_pylist(),
                                     t["caption"].to_pylist())
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["image_id"].to_pylist()
        blobs = batch["bytes"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        caps = batch["caption"].to_pylist()
        d_ok, p_ok, c_ok, w0, h0 = [], [], [], [], []
        for i, blob, fmt, cap in zip(ids, blobs, fmts, caps):
            raw, w, h, gold_cap = self.golden[i]
            w0.append(w)
            h0.append(h)
            c_ok.append(cap == gold_cap)
            orig = np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)
            try:
                px = decode(blob, fmt)
                d_ok.append(px.shape == orig.shape)
            except Exception:
                d_ok.append(False)
                p_ok.append(False)
                continue
            if px.shape != orig.shape:
                p_ok.append(False)
            elif fmt in self.LOSSLESS:
                p_ok.append(bool(np.array_equal(px, orig)))
            else:
                mse = float(np.mean((px.astype(np.float64)
                                     - orig.astype(np.float64)) ** 2))
                psnr = float("inf") if mse == 0 else \
                    10.0 * np.log10(255.0 ** 2 / mse)
                p_ok.append(psnr >= self.min_psnr)
        return (batch
                .append_column("w0", pa.array(w0, pa.int32()))
                .append_column("h0", pa.array(h0, pa.int32()))
                .append_column("decode_ok", pa.array(d_ok, pa.bool_()))
                .append_column("pixels_ok", pa.array(p_ok, pa.bool_()))
                .append_column("caption_ok", pa.array(c_ok, pa.bool_())))


DEFAULT_ASPECT_PALETTE = (
    (256, 256), (320, 256), (256, 320), (384, 256),
    (256, 384), (448, 192), (192, 448),
)


def aspect_bucket_batches(
    ds,
    palette=DEFAULT_ASPECT_PALETTE,
    batch_size: int = 16,
    salt: str = "bucket0",
    id_col: str = "image_id",
    w_col: str = "w",
    h_col: str = "h",
):
    """SDXL-style aspect-ratio bucketing + deterministic batch packing —
    the dataset-assembly step a multi-resolution image trainer runs:
    every image joins the palette bucket whose aspect ratio is nearest in
    log space (key rounded to 6 decimals so numpy-vs-DuckDB ``ln`` ulps
    cannot flip the argmin; ties break on palette index), then each
    bucket's images pack into fixed-size training batches in a
    deterministic seeded hash order (new ``salt`` = new epoch packing,
    stable under re-runs and re-partitioning — ``random_shuffle`` is
    neither).

    Scale shape: assignment is MAP-ONLY (n×k vectorized log-ratio matrix,
    k = len(palette)); the within-bucket rank is value-based like
    ``global_shuffle`` — per-(bucket, hash-prefix) counts from one
    ``pre_aggregate`` (k×256 rows, driver-tiny at any corpus size),
    exclusive prefix sums broadcast, ONE co-shuffle on the BALANCED
    (bucket, prefix) pair — never on the bucket alone, whose k groups
    would each land whole on one worker — and a single vectorized
    sort+cumcount kernel per shuffle bucket.  ``full`` marks batches with
    exactly ``batch_size`` members (the trailing remainder batch is the
    one a drop_last loader skips).

    Output: (id_col, bucket_w: int64, bucket_h: int64, batch_idx: int64,
    full: bool).
    """
    import pandas as pd

    from searchengine_ray.stages.relational import (bucketed_apply,
                                                    pre_aggregate)
    from searchengine_ray.stages.sampling import hash_hex

    bw = np.array([p[0] for p in palette], dtype=np.int64)
    bh = np.array([p[1] for p in palette], dtype=np.int64)

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        w = df[w_col].to_numpy(np.int64)
        h = df[h_col].to_numpy(np.int64)
        # |ln((w*bh)/(h*bw))| — identical operation order to the SQL
        # mirror round(abs(ln(CAST(w*bh AS DOUBLE)/(h*bw))), 6)
        key = np.round(np.abs(np.log(
            (w[:, None] * bh[None, :]).astype(np.float64)
            / (h[:, None] * bw[None, :]))), 6)
        b = np.argmin(key, axis=1)  # first min = smallest palette index
        k = hash_hex(df[id_col].tolist(), salt)
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            "_b": b.astype(np.int64),
            "_k": k,
            "_g": np.fromiter((s[:2] for s in k), "<U2", count=len(k))})

    # two consumers (prefix counts + rank pass): materialize the keyed
    # projection once (id + bucket + 14 hash chars per row)
    keyed = ds.map_batches(assign, batch_format="pandas").materialize()

    per_g = pre_aggregate(keyed.select_columns(["_b", "_g"]), ["_b", "_g"],
                          {"n": (None, "count")}).to_pandas()
    per_g = per_g.sort_values(["_b", "_g"])  # lexicographic = key order
    n_arr = per_g["n"].to_numpy(np.int64)
    off_in_bucket = np.zeros(len(per_g), dtype=np.int64)
    bucket_sizes = {}
    for b_val, grp_idx in per_g.groupby("_b", sort=True).indices.items():
        cnt = n_arr[grp_idx]
        off_in_bucket[grp_idx] = np.concatenate(
            ([0], np.cumsum(cnt[:-1])))
        bucket_sizes[int(b_val)] = int(cnt.sum())
    off = dict(zip(zip(per_g["_b"].astype(int), per_g["_g"]),
                   off_in_bucket))

    n_full = {b: s // batch_size for b, s in bucket_sizes.items()}

    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["_b", "_g", "_k", id_col], kind="mergesort")
        r = g.groupby(["_b", "_g"], sort=False).cumcount().to_numpy(np.int64)
        base = np.fromiter(
            (off[(int(b), gg)] for b, gg in zip(g["_b"], g["_g"])),
            dtype=np.int64, count=len(g))
        rank = base + r
        b = g["_b"].to_numpy(np.int64)
        batch_idx = rank // batch_size
        full_bound = np.fromiter((n_full[int(x)] for x in b),
                                 dtype=np.int64, count=len(g))
        return pd.DataFrame({
            id_col: g[id_col].to_numpy(),
            "bucket_w": bw[b],
            "bucket_h": bh[b],
            "batch_idx": batch_idx,
            "full": batch_idx < full_bound})

    return bucketed_apply(keyed, ["_b", "_g"], rank_bucket)
