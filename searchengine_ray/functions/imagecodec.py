"""Pure-Python image codecs for the image+caption payload table.

The graft's payload rows are ``(image_id, bytes, w, h, fmt, caption, phash)``
(BASELINE.json:input_hint).  No image library (PIL/opencv) ships in this
environment, so this module provides:

- a REAL, spec-conformant PNG encoder/decoder (stdlib ``zlib`` + ``struct``)
  for ``fmt='png'`` — lossless round-trip, 8-bit RGB, filter types 0-4
  supported on decode;
- a REAL DCT-quantization lossy codec for ``fmt='jpeg'`` — the JPEG
  transform pipeline in numpy: RGB → BT.601 YCbCr, 8×8 orthonormal DCT-II
  per block, quantization with the standard ITU T.81 Annex-K tables scaled
  by an IJG-style quality factor (default 98), zlib as the entropy stage.
  The container tag is ``DJPG`` (it is not an interchange JPEG bitstream —
  no zigzag/Huffman — so the bytes can never be mistaken for real JPEG),
  but the LOSS MODEL is the real one: frequency-domain quantization error,
  so the PSNR ≥ 40 dB per-row invariant (BASELINE.json:input_hint) tests a
  genuine lossy transform.  Swap ``encode_jpeg``/``decode_jpeg`` for a real
  codec when PIL is available; every caller goes through
  ``encode``/``decode`` below.

All functions operate on ``numpy.uint8`` arrays of shape (h, w, 3).
"""

from __future__ import annotations

import struct
import threading
import zlib

import numpy as np

_PNG_SIG = b"\x89PNG\r\n\x1a\n"
DJPG_MAGIC = b"DJPG"
FAKE_JPEG_MAGIC = DJPG_MAGIC  # backwards-compat alias for older callers
# Default IJG-style quality.  98 keeps PSNR ≥ 43 dB even on white-noise
# payloads (the PSNR ≥ 40 dB invariant must hold per row, and the synthetic
# corpus's blocky/noisy images are the lossy worst case).
_JPEG_QUALITY = 98


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def encode_png(pixels: np.ndarray) -> bytes:
    """8-bit RGB PNG, filter type 0 per scanline, single IDAT."""
    h, w, c = pixels.shape
    assert c == 3 and pixels.dtype == np.uint8
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)  # 8-bit, color type 2
    raw = np.empty((h, 1 + w * 3), dtype=np.uint8)
    raw[:, 0] = 0  # filter type 0
    raw[:, 1:] = pixels.reshape(h, w * 3)
    idat = zlib.compress(raw.tobytes(), 6)
    return _PNG_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


def _unfilter(raw: np.ndarray, h: int, stride: int, bpp: int) -> np.ndarray:
    """Undo PNG scanline filters (types 0-4)."""
    rows = raw.reshape(h, 1 + stride)
    if not rows[:, 0].any():
        # every scanline is filter type 0 (all PNGs ``encode_png`` writes):
        # the pixels are the rows minus their filter byte
        return np.ascontiguousarray(rows[:, 1:])
    out = np.zeros((h, stride), dtype=np.uint8)
    for y in range(h):
        ft = rows[y, 0]
        line = rows[y, 1:].astype(np.int32)
        prev = out[y - 1].astype(np.int32) if y > 0 else np.zeros(stride, np.int32)
        if ft == 0:
            out[y] = line
        elif ft == 2:  # Up
            out[y] = (line + prev) & 0xFF
        else:  # Sub(1) / Average(3) / Paeth(4) need left-to-right recurrence
            cur = np.zeros(stride, dtype=np.int32)
            for x in range(stride):
                a = cur[x - bpp] if x >= bpp else 0
                b = prev[x]
                if ft == 1:
                    cur[x] = (line[x] + a) & 0xFF
                elif ft == 3:
                    cur[x] = (line[x] + ((a + b) >> 1)) & 0xFF
                elif ft == 4:
                    cc = prev[x - bpp] if x >= bpp else 0
                    p = a + b - cc
                    pa, pb, pc = abs(p - a), abs(p - b), abs(p - cc)
                    pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else cc)
                    cur[x] = (line[x] + pred) & 0xFF
                else:
                    raise ValueError(f"bad PNG filter type {ft}")
            out[y] = cur
    return out


def decode_png(data: bytes) -> np.ndarray:
    if data[:8] != _PNG_SIG:
        raise ValueError("not a PNG")
    pos, w = 8, None
    idat = b""
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag = data[pos + 4 : pos + 8]
        payload = data[pos + 8 : pos + 8 + length]
        if tag == b"IHDR":
            w, h, depth, ctype = struct.unpack(">IIBB", payload[:10])
            if depth != 8 or ctype != 2:
                raise NotImplementedError("only 8-bit RGB PNG supported")
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
        pos += 12 + length
    raw = np.frombuffer(zlib.decompress(idat), dtype=np.uint8)
    return _unfilter(raw, h, w * 3, 3).reshape(h, w, 3)


# Standard JPEG quantization tables (ITU T.81 Annex K — public spec).
_Q_LUMA = np.array([
    [16, 11, 10, 16, 24, 40, 51, 61],
    [12, 12, 14, 19, 26, 58, 60, 55],
    [14, 13, 16, 24, 40, 57, 69, 56],
    [14, 17, 22, 29, 51, 87, 80, 62],
    [18, 22, 37, 56, 68, 109, 103, 77],
    [24, 35, 55, 64, 81, 104, 113, 92],
    [49, 64, 78, 87, 103, 121, 120, 101],
    [72, 92, 95, 98, 112, 100, 103, 99]], dtype=np.float64)
_Q_CHROMA = np.array([
    [17, 18, 24, 47, 99, 99, 99, 99],
    [18, 21, 26, 66, 99, 99, 99, 99],
    [24, 26, 56, 99, 99, 99, 99, 99],
    [47, 66, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99]], dtype=np.float64)


def _dct8_matrix() -> np.ndarray:
    k = np.arange(8).reshape(-1, 1)
    i = np.arange(8).reshape(1, -1)
    m = np.cos(np.pi * (2 * i + 1) * k / 16.0)
    m[0] *= 1.0 / np.sqrt(2.0)
    return m * 0.5  # orthonormal


_DCT8 = _dct8_matrix()


def _quant_tables(quality: int) -> tuple[np.ndarray, np.ndarray]:
    """IJG quality scaling (libjpeg jcparam.c formulation — public)."""
    q = int(np.clip(quality, 1, 100))
    s = 5000 // q if q < 50 else 200 - 2 * q
    tl = np.clip(np.floor((_Q_LUMA * s + 50) / 100), 1, 255)
    tc = np.clip(np.floor((_Q_CHROMA * s + 50) / 100), 1, 255)
    return tl, tc


def _rgb_to_ycbcr(px: np.ndarray) -> np.ndarray:
    r, g, b = px[..., 0], px[..., 1], px[..., 2]
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
    cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
    return np.stack([y, cb, cr], axis=-1)


def _dct2_blocks(plane: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``m @ B @ m.T`` for every 8×8 block B of ``plane`` — expressed as two
    full-plane GEMMs (one per axis), not per-block matmuls: ~100× faster
    than looping blocks for realistic image sizes."""
    hh, ww = plane.shape
    a = plane.reshape(hh // 8, 8, ww).transpose(1, 0, 2).reshape(8, -1)
    a = (m @ a).reshape(8, hh // 8, ww).transpose(1, 0, 2).reshape(hh, ww)
    b = a.T.reshape(ww // 8, 8, hh).transpose(1, 0, 2).reshape(8, -1)
    b = (m @ b).reshape(8, ww // 8, hh).transpose(1, 0, 2).reshape(ww, hh)
    return b.T


def _tile_table(tbl: np.ndarray, hh: int, ww: int) -> np.ndarray:
    return np.tile(tbl, (hh // 8, ww // 8))


def encode_jpeg(pixels: np.ndarray, quality: int = _JPEG_QUALITY) -> bytes:
    """DCT-quantization lossy encode (see module docstring)."""
    h, w, c = pixels.shape
    assert c == 3 and pixels.dtype == np.uint8
    tl, tc = _quant_tables(quality)
    ph, pw = -h % 8, -w % 8  # pad to 8×8 blocks, edge-replicate
    px = np.pad(pixels.astype(np.float64), ((0, ph), (0, pw), (0, 0)), "edge")
    ycc = _rgb_to_ycbcr(px)
    hh, ww = ycc.shape[:2]
    planes = []
    for ci in range(3):
        coef = _dct2_blocks(ycc[..., ci] - 128.0, _DCT8)
        tbl = _tile_table(tl if ci == 0 else tc, hh, ww)
        planes.append(np.round(coef / tbl).astype(np.int16))
    payload = np.concatenate([p.ravel() for p in planes]).tobytes()
    # level 2: the quantized coefficient planes are zero-heavy, so low
    # levels already capture most of the ratio at ~5× the throughput
    return (DJPG_MAGIC + struct.pack(">IIB", w, h, quality)
            + zlib.compress(payload, 2))


# decode_jpeg's quantization tables tiled over the largest plane decoded so
# far, per quality: the tiling has period 8, so a plane's table is the
# top-left [:hh, :ww] view.  Read-only; a concurrent regrow is harmless.
_TILED: dict[int, tuple[np.ndarray, np.ndarray]] = {}
# decode_jpeg's per-thread float64 workspaces, grown on demand
_WS = threading.local()


def _tiled_tables(quality: int, hh: int, ww: int) -> tuple[np.ndarray, np.ndarray]:
    t = _TILED.get(quality)
    if t is None or t[0].shape[0] < hh or t[0].shape[1] < ww:
        rh, rw = (hh, ww) if t is None else (max(hh, t[0].shape[0]),
                                             max(ww, t[0].shape[1]))
        t = tuple(_tile_table(tbl, rh, rw) for tbl in _quant_tables(quality))
        for tbl in t:
            tbl.setflags(write=False)
        _TILED[quality] = t
    return t[0][:hh, :ww], t[1][:hh, :ww]


def _workspace(name: str, n: int) -> np.ndarray:
    buf = getattr(_WS, name, None)
    if buf is None or buf.size < n:
        buf = np.empty(n, dtype=np.float64)
        setattr(_WS, name, buf)
    return buf[:n]


def decode_jpeg(data: bytes) -> np.ndarray:
    """Inverse of ``encode_jpeg``.  Bit-identical to dequantize →
    ``_dct2_blocks(·, _DCT8.T)`` + 128 per channel → YCbCr → RGB (BT.601) →
    round/clip (pinned by tests/test_imagecodec.py): the same two GEMMs per
    channel on the same operands, every element through the same float
    operations in the same order, but written into per-thread workspaces
    (no temporary per step), with the tiled tables cached and the color
    conversion run on the cropped h × w pixels only."""
    if data[:4] != DJPG_MAGIC:
        raise ValueError("not a DJPG payload")
    w, h, quality = struct.unpack(">IIB", data[4:13])
    hh, ww = h + (-h % 8), w + (-w % 8)
    coef = np.frombuffer(zlib.decompress(data[13:]),
                         dtype=np.int16).reshape(3, hh, ww)
    tables = _tiled_tables(quality, hh, ww)
    n = hh * ww
    # _dct2_blocks' intermediate layouts: rows of 8-row block bands (a, b),
    # then columns of 8-column block bands (c, d)
    a = _workspace("a", n).reshape(8, hh // 8, ww)
    b = _workspace("b", n).reshape(8, hh // 8 * ww)
    c = _workspace("c", n).reshape(8, ww // 8, hh // 8, 8)
    d = _workspace("d", n).reshape(8, ww // 8 * hh)
    planes = _workspace("planes", 3 * n).reshape(3, hh, ww // 8, 8)
    m = _DCT8.T  # inverse: B = M.T @ coef @ M
    for ci in range(3):
        tbl = tables[0 if ci == 0 else 1]
        np.multiply(coef[ci].reshape(hh // 8, 8, ww).transpose(1, 0, 2),
                    tbl.reshape(hh // 8, 8, ww).transpose(1, 0, 2), out=a)
        np.matmul(m, a.reshape(8, -1), out=b)
        np.copyto(c, b.reshape(8, hh // 8, ww // 8, 8).transpose(3, 2, 1, 0))
        np.matmul(m, c.reshape(8, -1), out=d)
        np.add(d.reshape(8, ww // 8, hh).transpose(2, 1, 0), 128.0,
               out=planes[ci])
    y, cb_, cr_ = planes.reshape(3, hh, ww)[:, :h, :w]
    cb = _workspace("cb", h * w).reshape(h, w)
    cr = _workspace("cr", h * w).reshape(h, w)
    t = _workspace("t", h * w).reshape(h, w)
    rgb = _workspace("rgb", 3 * h * w).reshape(h, w, 3)
    np.subtract(cb_, 128.0, out=cb)
    np.subtract(cr_, 128.0, out=cr)
    np.multiply(cr, 1.402, out=t)
    np.add(y, t, out=rgb[..., 0])
    np.multiply(cb, 0.344136, out=t)
    np.subtract(y, t, out=rgb[..., 1])
    np.multiply(cr, 0.714136, out=t)
    np.subtract(rgb[..., 1], t, out=rgb[..., 1])
    np.multiply(cb, 1.772, out=t)
    np.add(y, t, out=rgb[..., 2])
    np.round(rgb, out=rgb)
    np.clip(rgb, 0, 255, out=rgb)
    return rgb.astype(np.uint8)


def encode(pixels: np.ndarray, fmt: str) -> bytes:
    if fmt == "png":
        return encode_png(pixels)
    if fmt == "jpeg":
        return encode_jpeg(pixels)
    raise NotImplementedError(f"fmt={fmt!r}")


def decode(data: bytes, fmt: str) -> np.ndarray:
    if fmt == "png":
        return decode_png(data)
    if fmt == "jpeg":
        return decode_jpeg(data)
    raise NotImplementedError(f"fmt={fmt!r}")


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB; inf for identical images."""
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(255.0**2 / mse)
