"""Image codec round-trip + per-row invariants (BASELINE.json:input_hint:
decoded-pixel allclose, PSNR ≥ 40 dB for lossy, phash stability)."""

import numpy as np
import pytest

from searchengine_ray.functions.imagecodec import (
    decode,
    decode_png,
    encode,
    encode_png,
    psnr,
)
from searchengine_ray.functions.phash import (
    hamming64,
    hamming64_vec,
    phash64,
    phash_bands,
)


def _img(seed, w=32, h=24):
    rng = np.random.RandomState(seed)
    # smooth-ish image: random low-res grid upsampled (more realistic than
    # white noise for phash)
    base = rng.randint(0, 255, size=(4, 4, 3), dtype=np.uint8)
    return np.repeat(np.repeat(base, h // 4 + 1, 0), w // 4 + 1, 1)[:h, :w]


def test_png_roundtrip_exact():
    img = _img(1)
    data = encode_png(img)
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    out = decode_png(data)
    np.testing.assert_array_equal(img, out)


def test_png_noise_roundtrip():
    rng = np.random.RandomState(3)
    img = rng.randint(0, 256, size=(17, 13, 3), dtype=np.uint8)
    np.testing.assert_array_equal(img, decode_png(encode_png(img)))


def _png_filtered(pixels: np.ndarray, filters: list[int]) -> bytes:
    """Test-side PNG encoder applying scanline filter ``filters[y]`` to row
    y, per the PNG spec (ISO/IEC 15948 §9.2): each filtered byte is the
    original minus a predictor from a = left (bpp back), b = up, c = up-left,
    modulo 256."""
    import struct
    import zlib

    h, w, _ = pixels.shape
    bpp, orig = 3, pixels.reshape(h, w * 3).astype(np.int32)
    out = bytearray()
    for y in range(h):
        ft = filters[y]
        out.append(ft)
        for x in range(w * 3):
            a = orig[y, x - bpp] if x >= bpp else 0
            b = orig[y - 1, x] if y > 0 else 0
            c = orig[y - 1, x - bpp] if (y > 0 and x >= bpp) else 0
            if ft == 0:
                pred = 0
            elif ft == 1:
                pred = a
            elif ft == 2:
                pred = b
            elif ft == 3:
                pred = (a + b) // 2
            else:
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
            out.append((orig[y, x] - pred) % 256)

    def chunk(tag, payload):
        return (struct.pack(">I", len(payload)) + tag + payload
                + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(bytes(out))) + chunk(b"IEND", b""))


@pytest.mark.parametrize("filters", [[1], [2], [3], [4], [0, 1, 2, 3, 4],
                                     [4, 0, 0, 3, 0, 2]],
                         ids=["sub", "up", "average", "paeth", "mixed",
                              "mostly-none"])
@pytest.mark.parametrize("levels", [256, 5], ids=["noise", "few-levels"])
def test_png_decodes_every_filter_type(filters, levels):
    """PNGs from other encoders use filter types 1-4 (the decoder's
    per-row path).  Few-level images make predictor ties (Paeth) common."""
    rng = np.random.RandomState(len(filters))
    img = (rng.randint(0, levels, size=(12, 10, 3)) * (255 // (levels - 1))
           ).astype(np.uint8)
    rows = (filters * img.shape[0])[:img.shape[0]]
    assert any(rows)
    data = _png_filtered(img, rows)
    np.testing.assert_array_equal(decode_png(data), img)
    np.testing.assert_array_equal(decode(data, "png"), img)


def test_png_unfiltered_fast_path_output():
    """All-type-0 scanlines: the fast path returns a writable, C-contiguous
    uint8 image equal to the input, as the per-row path did."""
    img = np.random.RandomState(4).randint(0, 256, size=(6, 5, 3), dtype=np.uint8)
    for data in (encode_png(img), _png_filtered(img, [0] * 6)):
        out = decode_png(data)
        np.testing.assert_array_equal(out, img)
        assert out.dtype == np.uint8 and out.flags.c_contiguous
        assert out.flags.writeable


def test_fake_jpeg_lossy_psnr_ge_40():
    img = _img(2)
    data = encode(img, "jpeg")
    out = decode(data, "jpeg")
    assert out.shape == img.shape
    p = psnr(img, out)
    assert p >= 40.0, p


def test_dct_codec_is_genuinely_lossy():
    """The PSNR invariant must be non-vacuous: the lossy codec really loses
    information (frequency-domain quantization), yet stays ≥ 40 dB even on
    white noise — the worst case for a DCT codec."""
    rng = np.random.RandomState(11)
    noise = rng.randint(0, 256, size=(40, 56, 3), dtype=np.uint8)
    out = decode(encode(noise, "jpeg"), "jpeg")
    assert not np.array_equal(noise, out)
    p = psnr(noise, out)
    assert 40.0 <= p < 60.0, p


def test_psnr_identical_inf():
    img = _img(4)
    assert psnr(img, img) == float("inf")


def test_phash_stability_across_encode_decode():
    img = _img(5)
    h1 = phash64(img)
    # lossless round-trip: identical hash
    assert phash64(decode(encode(img, "png"), "png")) == h1
    # lossy round-trip: small hamming distance
    h2 = phash64(decode(encode(img, "jpeg"), "jpeg"))
    assert hamming64(h1, h2) <= 4


def test_phash_bit_order_matches_shift_construction():
    """``phash64`` packs the 64 median-threshold bits first-coefficient-
    most-significant into a signed int64: pinned against the bit-by-bit
    shift construction on random and structured images."""
    from searchengine_ray.functions import phash as ph

    def by_shifts(px):
        gray = px.astype(np.float64) @ np.array([0.299, 0.587, 0.114])
        flat = (ph._DCT @ ph._resample(gray) @ ph._DCT.T)[:8, :8].flatten()
        h = 0
        for b in flat > np.median(flat[1:]):
            h = (h << 1) | int(b)
        return h - (1 << 64) if h >= (1 << 63) else h

    rng = np.random.RandomState(3)
    imgs = [rng.randint(0, 256, size=(rng.randint(96, 161),
                                      rng.randint(96, 161), 3), dtype=np.uint8)
            for _ in range(20)]
    for s in range(20):
        px = np.zeros((64, 64, 3), dtype=np.uint8)
        px[:, : 8 + 2 * s] = 200 + s
        imgs.append(px)
    imgs.append(np.zeros((64, 64, 3), dtype=np.uint8))  # hash 0
    hashes = [ph.phash64(px) for px in imgs]
    assert hashes == [by_shifts(px) for px in imgs]
    assert min(hashes) < 0 == hashes[-1]


def test_phash_discriminates():
    d = hamming64(phash64(_img(6)), phash64(_img(7)))
    assert d > 8


def test_hamming_vec_matches_scalar():
    hs = np.array([phash64(_img(s)) for s in range(8)], dtype=np.int64)
    v = int(hs[0])
    vec = hamming64_vec(hs, v)
    for i in range(8):
        assert vec[i] == hamming64(int(hs[i]), v)


def test_phash_bands_pigeonhole():
    # hamming ≤ 4 with 5 bands ⇒ at least one identical band
    a = phash64(_img(8))
    b = a ^ 0b1011  # 3 bits flipped
    assert hamming64(a, b) <= 4
    ba, bb = dict(phash_bands(a)), dict(phash_bands(b))
    assert any(ba[i] == bb[i] for i in range(5))


def test_unknown_fmt_raises():
    with pytest.raises(NotImplementedError):
        encode(_img(9), "webp")


# --- dihedral-canonical phash ------------------------------------------------


def test_dihedral_min_phash_exactly_invariant():
    from searchengine_ray.functions.phash import (
        dihedral_min_phash, dihedral_orbit, phash64)

    rng = np.random.RandomState(7)
    for shape in ((48, 64, 3), (33, 33, 3), (64, 48, 3)):
        px = (rng.rand(*shape) * 255).astype(np.uint8)
        base = dihedral_min_phash(px)
        for t in dihedral_orbit(px):
            assert dihedral_min_phash(np.ascontiguousarray(t)) == base
    # necessity: plain phash64 is NOT rotation invariant on a structured
    # image (left half bright, right half dark)
    px = np.zeros((40, 60, 3), dtype=np.uint8)
    px[:, :30] = 220
    assert phash64(np.rot90(px)) != phash64(px)
    assert dihedral_min_phash(np.rot90(px)) == dihedral_min_phash(px)


def test_dihedral_min_phash_survives_lossless_roundtrip():
    from searchengine_ray.functions.imagecodec import decode, encode
    from searchengine_ray.functions.phash import dihedral_min_phash

    rng = np.random.RandomState(9)
    px = (rng.rand(32, 48, 3) * 255).astype(np.uint8)
    rot = np.ascontiguousarray(np.rot90(px))
    # PNG is lossless: a re-encoded rotated copy hashes identically
    back = decode(encode(rot, "png"), "png")
    assert dihedral_min_phash(back) == dihedral_min_phash(px)


def _decode_jpeg_reference(data: bytes) -> np.ndarray:
    """The straightforward DJPG decode ``decode_jpeg`` must equal bit for
    bit: per channel dequantize with the tiled table, inverse DCT as two
    full-plane GEMMs, + 128; then the full-plane BT.601 color conversion,
    round, clip and crop."""
    import struct
    import zlib

    from searchengine_ray.functions.imagecodec import (
        _DCT8, _dct2_blocks, _quant_tables, _tile_table)

    w, h, quality = struct.unpack(">IIB", data[4:13])
    tl, tc = _quant_tables(quality)
    hh, ww = h + (-h % 8), w + (-w % 8)
    arr = np.frombuffer(zlib.decompress(data[13:]), dtype=np.int16)
    arr = arr.reshape(3, hh, ww).astype(np.float64)
    chans = [_dct2_blocks(arr[ci] * _tile_table(tl if ci == 0 else tc, hh, ww),
                          _DCT8.T) + 128.0 for ci in range(3)]
    ycc = np.stack(chans, axis=-1)
    y, cb, cr = ycc[..., 0], ycc[..., 1] - 128.0, ycc[..., 2] - 128.0
    rgb = np.stack([y + 1.402 * cr, y - 0.344136 * cb - 0.714136 * cr,
                    y + 1.772 * cb], axis=-1)
    return np.clip(np.round(rgb), 0, 255).astype(np.uint8)[:h, :w]


def _djpg_payloads() -> list[bytes]:
    from searchengine_ray.functions.imagecodec import encode_jpeg
    from searchengine_ray.sources.fixtures import make_store

    out = []
    for seed, (lo, hi) in ((0, (1, 40)), (1, (96, 160)), (2, (8, 64))):
        st = make_store(n_pages=60, seed=seed, img_min=lo, img_max=hi)
        out += [r["bytes"] for r in st.pages.values()
                if r["fmt"] == "jpeg" and r["bytes"]]
    rng = np.random.default_rng(11)
    for _ in range(60):
        h, w = rng.integers(1, 200, 2)
        out.append(encode_jpeg(rng.integers(0, 256, (h, w, 3), dtype=np.uint8)))
    return out


def test_decode_jpeg_bit_identical_to_reference():
    """decode_jpeg's workspace formulation equals the reference decode
    bit for bit, on fixture payloads of several size ranges and on noise
    images of 1-199 px edges (every padding remainder), also when two
    threads decode at once (per-thread workspaces)."""
    from concurrent.futures import ThreadPoolExecutor

    from searchengine_ray.functions.imagecodec import decode_jpeg

    payloads = _djpg_payloads()
    want = [_decode_jpeg_reference(p) for p in payloads]
    assert len(payloads) > 100
    for p, ref in zip(payloads, want):
        got = decode_jpeg(p)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        np.testing.assert_array_equal(got, ref)

    def run(order):
        return [(i, decode_jpeg(payloads[i])) for i in order]

    idx = list(range(len(payloads)))
    with ThreadPoolExecutor(2) as pool:
        results = list(pool.map(run, [idx * 3, idx[::-1] * 3]))
    for res in results:
        for i, got in res:
            np.testing.assert_array_equal(got, want[i])
