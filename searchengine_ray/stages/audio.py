"""Audio batch stages over opaque WAV payload columns.

The corpus (``sources/audio_table``) carries genuine RIFF/WAVE PCM16 payloads
and these stages decode and featurize them with the pure-numpy codec
(``functions/audiocodec``).  Same multimodal discipline as the image
stages: binary payloads stay Arrow-native (the decoded PCM travels as an
int16-LE ``binary`` column, not a Python list), per-clip kernels are
numpy, and malformed payloads yield ``decode_ok=False`` rows instead of
failing the batch (reference drops malformed docs,
index_construction.py:87-88).

``fingerprint64`` is the audio analog of the image phash: a 64-bit
energy-delta sign fingerprint (the shape used by published audio
fingerprinting systems — per-segment energy, bit = sign of the adjacent
delta).  Exact duplicates hash identically; ±2-LSB-noise near-dups land
within a small Hamming radius; independent clips are ~32 bits apart.
Pairs then come from the generic pigeonhole machinery
(``stages/dedup.hash_neardup_pairs``) with exact recall at the
threshold.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from searchengine_ray.functions.audiocodec import WavFormatError, decode_wav

FP_TIME = 17   # time segments → 16 deltas
FP_BANDS = 4   # spectral bands per segment; 16 × 4 = 64 bits


def fingerprint64(samples: np.ndarray) -> int:
    """64-bit time×frequency energy-delta fingerprint of a mono clip —
    the published audio-fingerprint shape (Haitsma-Kalker / chromaprint
    family): per-(time-segment, spectral-band) energies, bit = sign of
    the delta along the time axis.

    17 equal time segments (tail trimmed) × 4 geometric frequency bands
    of each segment's rfft power → a 17×4 energy matrix; the 16×4 delta
    signs pack little-endian into an int64.  Band energies are large
    sums, so low-amplitude additive noise (±2 LSB) rarely flips a bit,
    while independent clips differ in ~half the bits."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim > 1:
        x = x.mean(axis=1)
    seg = len(x) // FP_TIME
    if seg < 2 * FP_BANDS:
        return 0
    frames = x[: seg * FP_TIME].reshape(FP_TIME, seg)
    power = np.abs(np.fft.rfft(frames, axis=1)) ** 2  # (FP_TIME, seg//2+1)
    nfreq = power.shape[1] - 1
    # geometric band edges over bins [1, nfreq] (skip DC)
    edges = np.unique(np.geomspace(1, nfreq + 1, FP_BANDS + 1)
                      .astype(np.int64))
    while len(edges) < FP_BANDS + 1:  # tiny clips: pad edges linearly
        edges = np.unique(np.append(edges, edges[-1] + 1))
    e = np.add.reduceat(power[:, 1:], edges[:-1] - 1, axis=1)[:, :FP_BANDS]
    bits = (e[1:] > e[:-1]).astype(np.uint64).ravel()
    return int((bits << np.arange(bits.size, dtype=np.uint64)).sum()
               .astype(np.int64))


class DecodeWav:
    """(bytes) → raw PCM + validity: appends ``pcm: binary`` (int16-LE
    mono frames; multi-channel payloads are mean-downmixed),
    ``decoded_sr: int32``, ``decoded_n: int32``, ``decode_ok: bool``.

    Stateless per batch — use as an instance (not a class) in
    ``map_batches`` so Ray fuses it as a task stage (CLAUDE.md gotcha:
    callable classes respawn actor pools per call)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch["bytes"].to_pylist()
        pcm, srs, ns, ok = [], [], [], []
        for blob in blobs:
            try:
                x, sr = decode_wav(blob)
                if x.ndim > 1:
                    x = x.mean(axis=1).astype(np.int16)
                pcm.append(x.astype("<i2", copy=False).tobytes())
                srs.append(sr)
                ns.append(len(x))
                ok.append(True)
            except WavFormatError:
                pcm.append(b"")
                srs.append(0)
                ns.append(0)
                ok.append(False)
        return (batch
                .append_column("pcm", pa.array(pcm, pa.binary()))
                .append_column("decoded_sr", pa.array(srs, pa.int32()))
                .append_column("decoded_n", pa.array(ns, pa.int32()))
                .append_column("decode_ok", pa.array(ok, pa.bool_())))


class ValidateAudio:
    """Per-row INVARIANT gate vs generator ground truth: PCM16 is
    lossless, so the decoded frames must equal the generator's original
    int16 samples BYTE-EXACTLY, and the container's sample rate must
    match the metadata column.  Emits (decode_ok, pcm_exact, sr_match)
    alongside the input columns plus the decoded ``pcm``/``decoded_sr``
    (so downstream feature stages need no second decode).

    Actor-pool shape: the golden table loads ONCE per actor in
    ``__init__``.  At conformance scale it is a per-actor dict; at 100 TB
    the same comparison runs as a co-shuffled join on audio_id instead of
    a replica (the validate kernel is unchanged) — same note as
    ``stages/images.ValidateImages``."""

    def __init__(self, golden_path: str):
        import pyarrow.parquet as pq

        t = pq.read_table(golden_path)
        self.golden = {
            i: (s, r)
            for i, s, r in zip(t["audio_id"].to_pylist(),
                               t["samples"].to_pylist(),
                               t["sr"].to_pylist())
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        decoded = DecodeWav()(batch)
        ids = decoded["audio_id"].to_pylist()
        pcm = decoded["pcm"].to_pylist()
        srs = decoded["decoded_sr"].to_pylist()
        meta_sr = decoded["sr"].to_pylist()
        exact, sr_ok = [], []
        for i, p, dsr, msr in zip(ids, pcm, srs, meta_sr):
            gold_samples, gold_sr = self.golden[i]
            exact.append(p == gold_samples)
            sr_ok.append(dsr == gold_sr == msr)
        return (decoded
                .append_column("pcm_exact", pa.array(exact, pa.bool_()))
                .append_column("sr_match", pa.array(sr_ok, pa.bool_())))


class AudioFeatures:
    """Decoded PCM → per-clip numeric features + fingerprint.

    Appends ``duration_s, rms, zcr, spectral_centroid_hz: float64`` and
    ``afp: int64`` (the 64-bit fingerprint).  Per-clip kernels are numpy
    (reshape-sum energies, sign-change count, one rfft); rows iterate in
    Python because clip lengths vary — each iteration is a vectorized
    kernel over thousands of samples, so the loop is not the hot path."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        pcms = batch["pcm"].to_pylist()
        srs = batch["decoded_sr"].to_pylist()
        dur, rms, zcr, cent, fps = [], [], [], [], []
        for blob, sr in zip(pcms, srs):
            x = np.frombuffer(blob, dtype="<i2").astype(np.float64) / 32768.0
            if len(x) == 0 or sr <= 0:
                dur.append(0.0); rms.append(0.0); zcr.append(0.0)
                cent.append(0.0); fps.append(0)
                continue
            dur.append(len(x) / sr)
            rms.append(float(np.sqrt(np.mean(x * x))))
            zcr.append(float(np.mean(np.signbit(x[1:]) != np.signbit(x[:-1]))))
            spec = np.abs(np.fft.rfft(x))
            freqs = np.fft.rfftfreq(len(x), d=1.0 / sr)
            denom = spec.sum()
            cent.append(float((freqs * spec).sum() / denom) if denom > 0
                        else 0.0)
            fps.append(fingerprint64(np.frombuffer(blob, dtype="<i2")))
        return (batch
                .append_column("duration_s", pa.array(dur, pa.float64()))
                .append_column("rms", pa.array(rms, pa.float64()))
                .append_column("zcr", pa.array(zcr, pa.float64()))
                .append_column("spectral_centroid_hz",
                               pa.array(cent, pa.float64()))
                .append_column("afp", pa.array(fps, pa.int64())))
