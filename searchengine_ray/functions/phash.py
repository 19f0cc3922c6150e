"""64-bit DCT perceptual hash (phash) + Hamming utilities.

The graft replaces the reference's n-gram content fingerprints
(reference ngrams.py:28-66) with a perceptual hash column
``phash: int64`` over the decoded image pixels (BASELINE.json:input_hint).
Standard pHash construction (public algorithm, e.g. the pHash.org /
imagehash formulation): grayscale → area-resample to 32×32 → 2-D DCT-II →
keep the top-left 8×8 low-frequency block → threshold each coefficient
against the median (DC term excluded from the median) → 64 bits.

Pure numpy; the DCT is an orthonormal 32×32 matrix multiply, deterministic
across platforms.
"""

from __future__ import annotations

import numpy as np

_N = 32  # resample edge
_K = 8  # low-frequency block edge


def _dct_matrix(n: int) -> np.ndarray:
    k = np.arange(n).reshape(-1, 1)
    i = np.arange(n).reshape(1, -1)
    m = np.cos(np.pi * (2 * i + 1) * k / (2 * n))
    m[0] *= 1.0 / np.sqrt(2.0)
    return m * np.sqrt(2.0 / n)


_DCT = _dct_matrix(_N)


def _resample(gray: np.ndarray, n: int = _N) -> np.ndarray:
    """Deterministic area-style resample to n×n via index binning."""
    h, w = gray.shape
    ys = (np.arange(n) * h) // n
    xs = (np.arange(n) * w) // n
    return gray[np.ix_(ys, xs)]


def phash64(pixels: np.ndarray) -> int:
    """pixels (h, w, 3) uint8 → signed 64-bit perceptual hash."""
    gray = pixels.astype(np.float64) @ np.array([0.299, 0.587, 0.114])
    small = _resample(gray).astype(np.float64)
    coeffs = _DCT @ small @ _DCT.T
    block = coeffs[:_K, :_K].copy()
    flat = block.flatten()
    med = np.median(flat[1:])  # exclude DC
    # the 64 bits, first coefficient most significant, as one signed int64
    return int(np.packbits(flat > med).view(">i8")[0])


def hamming64(a: int, b: int) -> int:
    return ((a ^ b) & 0xFFFFFFFFFFFFFFFF).bit_count()


def hamming64_vec(arr: np.ndarray, v: int) -> np.ndarray:
    """Vectorized Hamming distance of an int64 array vs one value."""
    x = (arr.astype(np.int64) ^ np.int64(v)).astype(np.uint64)
    return _popcount64(x)


def hamming64_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise Hamming distance between two int64 arrays."""
    x = (a.astype(np.int64) ^ b.astype(np.int64)).astype(np.uint64)
    return _popcount64(x)


def _popcount64(x: np.ndarray) -> np.ndarray:
    c = np.zeros(x.shape, dtype=np.int64)
    for shift in range(0, 64, 8):
        c += _POP8[(x >> np.uint64(shift)) & np.uint64(0xFF)]
    return c


_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


# LSH banding for near-dup pruning: split 64 bits into (t+1) bands; by the
# pigeonhole principle two hashes with hamming distance ≤ t agree on at
# least one band — EXACT candidate generation, no false negatives
# (SURVEY.md §7 hard part 2: the banded groupby replaces the reference's
# O(N²) global scan with provably equal accept/reject decisions).
def phash_bands(h: int, num_bands: int = 5) -> list[tuple[int, int]]:
    """(band_id, band_value) pairs for LSH bucketing."""
    u = h & 0xFFFFFFFFFFFFFFFF
    width = 64 // num_bands
    out = []
    for b in range(num_bands):
        lo = b * width
        hi = 64 if b == num_bands - 1 else lo + width
        out.append((b, (u >> lo) & ((1 << (hi - lo)) - 1)))
    return out


def dihedral_orbit(pixels: np.ndarray) -> list[np.ndarray]:
    """The 8 dihedral transforms (4 rotations × optional mirror) of an
    (h, w, 3) array — all LOSSLESS pixel permutations, so the orbit SET
    of any rotated/mirrored copy equals the original's orbit exactly."""
    out = []
    p = pixels
    for _ in range(4):
        out.append(p)
        out.append(p[:, ::-1])
        p = np.rot90(p)
    return out


def dihedral_min_phash(pixels: np.ndarray) -> int:
    """Canonical rotation/flip-invariant perceptual hash: min of
    ``phash64`` over the dihedral orbit.  Exactly invariant — a rot90 /
    fliplr copy yields the identical orbit, hence the identical min
    (pinned by test); plain ``phash64`` has no such guarantee."""
    return min(phash64(t) for t in dihedral_orbit(pixels))
