"""MPNG — a minimal motion-PNG container (the MJPEG shape, real PNG
frames).

MJPEG is literally concatenated JPEG frames with a thin envelope; MPNG is
the same idea over this repo's real PNG codec (`functions/imagecodec`):

    b'MPNG' | u16 version | u16 w | u16 h | u32 n_frames | f64 fps
    then per frame: u32 length | PNG bytes

Everything little-endian.  Frames are self-contained PNGs, so a demuxed
frame decodes with any standard PNG tool; the container itself carries
the typed metadata a video ingest keys on (dimensions, frame count,
fps).  Compressed inter-frame codecs (h264...) are out of scope until a
decoder ships in the environment.
"""

from __future__ import annotations

import struct

import numpy as np

MAGIC = b"MPNG"
VERSION = 1
_HDR = struct.Struct("<4sHHHId")


class VideoFormatError(ValueError):
    """Raised when a payload is not a decodable MPNG container."""


def mux_frames(frames: list[np.ndarray], fps: float) -> bytes:
    """h×w×3 uint8 frames → MPNG bytes (each frame PNG-encoded)."""
    from searchengine_ray.functions.imagecodec import encode_png

    if not frames:
        raise VideoFormatError("a video needs at least one frame")
    h, w = frames[0].shape[:2]
    parts = [_HDR.pack(MAGIC, VERSION, w, h, len(frames), float(fps))]
    for f in frames:
        if f.shape != (h, w, 3) or f.dtype != np.uint8:
            raise VideoFormatError(
                f"every frame must be uint8 ({h},{w},3); got "
                f"{f.dtype} {f.shape}")
        png = encode_png(f)
        parts.append(struct.pack("<I", len(png)))
        parts.append(png)
    return b"".join(parts)


def demux_info(blob: bytes) -> tuple[int, int, int, float]:
    """Header-only parse → (w, h, n_frames, fps).  O(1), no frame I/O."""
    if len(blob) < _HDR.size or blob[:4] != MAGIC:
        raise VideoFormatError("not an MPNG payload")
    magic, ver, w, h, n, fps = _HDR.unpack_from(blob, 0)
    if ver != VERSION:
        raise VideoFormatError(f"unsupported MPNG version {ver}")
    return w, h, n, fps


def demux_frames(blob: bytes, every_n: int = 1) -> list[tuple[int, bytes]]:
    """Container → [(frame_idx, png_bytes)] for every ``every_n``-th
    frame.  Non-sampled frames are SKIPPED by length prefix (no decode,
    no copy) — the point of stride sampling at scale."""
    w, h, n, fps = demux_info(blob)
    out = []
    pos = _HDR.size
    for idx in range(n):
        if pos + 4 > len(blob):
            raise VideoFormatError(f"truncated at frame {idx}")
        (ln,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        if pos + ln > len(blob):
            raise VideoFormatError(f"truncated frame body at {idx}")
        if idx % every_n == 0:
            out.append((idx, blob[pos:pos + ln]))
        pos += ln
    return out
