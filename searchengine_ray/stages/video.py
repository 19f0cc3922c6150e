"""Video batch stages over MPNG payload columns.

Stages for the container this environment CAN decode (MPNG =
length-prefixed real PNG frames, ``functions/videocontainer``).  The multimodal discipline is the
same as the image/audio stages: payloads stay binary, per-frame kernels
are numpy, malformed payloads flag instead of failing the batch.

Video near-dup uses FRAME-LEVEL matching (the published shape: frame
perceptual hashes → LSH banding → count matching frame pairs per video
pair).  A single per-video majority-vote signature was measured first and
rejected: temporal trims and noisy re-encodes overlapped the independent
background (hamming 10-15 vs background min 12 on the planted corpus),
while frame-level match counts separate cleanly — trims keep their
surviving frames byte-identical, so they match at full strength.
"""

from __future__ import annotations

import pyarrow as pa

from searchengine_ray.functions.imagecodec import decode_png
from searchengine_ray.functions.phash import phash64
from searchengine_ray.functions.videocontainer import (
    VideoFormatError, demux_frames, demux_info)


class SampleFramePhashes:
    """(bytes) → one row per sampled frame: (video_id, frame_idx, phash).

    Real demux (length-prefix skip for non-sampled frames — no decode, no
    copy) + real PNG decode + perceptual hash per sampled frame.  The
    explode shape a frame-level index or dedup pass consumes."""

    def __init__(self, every_n: int = 1):
        self.every_n = every_n

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["video_id"].to_pylist()
        blobs = batch["bytes"].to_pylist()
        o_id, o_idx, o_ph = [], [], []
        for vid, blob in zip(ids, blobs):
            try:
                frames = demux_frames(blob, self.every_n)
            except VideoFormatError:
                continue  # malformed payloads drop, like malformed docs
            for idx, png in frames:
                o_id.append(vid)
                o_idx.append(idx)
                o_ph.append(phash64(decode_png(png)))
        return pa.table({
            "video_id": pa.array(o_id, pa.string()),
            "frame_idx": pa.array(o_idx, pa.int32()),
            "phash": pa.array(o_ph, pa.int64()),
        })


class ValidateVideo:
    """Per-row INVARIANT gate vs generator ground truth: PNG frames are
    lossless, so the demuxed+decoded frame pixels concatenated must equal
    the generator's raw frames byte-exactly, and the container header
    must match the metadata columns.  Emits (decode_ok, pixels_exact,
    meta_match, duration_s).

    Golden loads once per actor in ``__init__``; at scale the comparison
    becomes a co-shuffled join on video_id (kernel unchanged)."""

    def __init__(self, golden_path: str):
        import pyarrow.parquet as pq

        t = pq.read_table(golden_path)
        self.golden = {
            i: (p, w, h, n, f)
            for i, p, w, h, n, f in zip(t["video_id"].to_pylist(),
                                        t["pixels"].to_pylist(),
                                        t["w"].to_pylist(),
                                        t["h"].to_pylist(),
                                        t["n_frames"].to_pylist(),
                                        t["fps"].to_pylist())
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["video_id"].to_pylist()
        blobs = batch["bytes"].to_pylist()
        meta = {c: batch[c].to_pylist() for c in ("w", "h", "n_frames", "fps")}
        d_ok, px_ok, m_ok, dur = [], [], [], []
        for k, (vid, blob) in enumerate(zip(ids, blobs)):
            g_px, g_w, g_h, g_n, g_fps = self.golden[vid]
            try:
                w, h, n, fps = demux_info(blob)
                frames = demux_frames(blob)
                raw = b"".join(decode_png(png).tobytes()
                               for _, png in frames)
                d_ok.append(True)
                px_ok.append(raw == g_px)
                m_ok.append((w, h, n, fps)
                            == (g_w, g_h, g_n, g_fps)
                            == (meta["w"][k], meta["h"][k],
                                meta["n_frames"][k], meta["fps"][k]))
                dur.append(n / fps if fps > 0 else 0.0)
            except VideoFormatError:
                d_ok.append(False); px_ok.append(False)
                m_ok.append(False); dur.append(0.0)
        return (batch
                .append_column("decode_ok", pa.array(d_ok, pa.bool_()))
                .append_column("pixels_exact", pa.array(px_ok, pa.bool_()))
                .append_column("meta_match", pa.array(m_ok, pa.bool_()))
                .append_column("duration_s", pa.array(dur, pa.float64())))
