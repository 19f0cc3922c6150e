"""Real RIFF/WAVE PCM16 codec — pure numpy + struct, no external deps.

Unlike the image path (where the env lacks PIL and the codec is a
documented stand-in), WAV is fully implementable from the public RIFF
spec: a 44-byte canonical header plus little-endian PCM frames.  Files
produced here open in any standard audio tool, and the decoder walks the
chunk list properly (skipping LIST/fact/etc.) so third-party WAVs with
extra chunks decode too.

Scope: PCM16 (format tag 1, bits 16), mono or interleaved multi-channel.
That is the shape a large-scale audio ingest normalizes to before
feature extraction; compressed codecs (mp3/opus) are out of scope until
a decoder ships in the environment.

Reference analog: the reference engine has no audio path at all — this is
part of the multimodal extension tier (VERDICT round-1 brief: audio as an
opaque binary column with typed metadata + a decode stage).
"""

from __future__ import annotations

import struct

import numpy as np


class WavFormatError(ValueError):
    """Raised when a payload is not decodable PCM16 RIFF/WAVE."""


def encode_wav(samples: np.ndarray, sample_rate: int) -> bytes:
    """PCM16 mono/multi-channel → RIFF/WAVE bytes.

    ``samples`` is int16, shape (n,) mono or (n, channels) interleaved on
    write.  Header is the canonical 44-byte fmt+data layout."""
    x = np.asarray(samples)
    if x.dtype != np.int16:
        raise WavFormatError(f"samples must be int16, got {x.dtype}")
    if x.ndim == 1:
        channels = 1
    elif x.ndim == 2:
        channels = x.shape[1]
    else:
        raise WavFormatError(f"samples must be 1-D or 2-D, got {x.ndim}-D")
    # interleaved little-endian frames
    data = np.ascontiguousarray(x, dtype="<i2").tobytes()
    byte_rate = sample_rate * channels * 2
    block_align = channels * 2
    hdr = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(data), b"WAVE",
        b"fmt ", 16, 1, channels, sample_rate, byte_rate, block_align, 16,
        b"data", len(data),
    )
    return hdr + data


def decode_wav(blob: bytes) -> tuple[np.ndarray, int]:
    """RIFF/WAVE bytes → (int16 array, sample_rate).

    Mono returns shape (n,); multi-channel returns (n, channels).
    Walks the chunk list (even-padded per spec) so files carrying LIST /
    fact / cue chunks between fmt and data still decode.  Raises
    ``WavFormatError`` on anything that is not PCM16."""
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise WavFormatError("not a RIFF/WAVE payload")
    pos = 12
    fmt = None
    data = None
    n = len(blob)
    while pos + 8 <= n:
        cid = blob[pos:pos + 4]
        (size,) = struct.unpack_from("<I", blob, pos + 4)
        body = blob[pos + 8:pos + 8 + size]
        if cid == b"fmt ":
            if size < 16:
                raise WavFormatError("fmt chunk too short")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif cid == b"data":
            data = body
            if fmt is not None:
                break  # common fast path: fmt precedes data
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt is None or data is None:
        raise WavFormatError("missing fmt or data chunk")
    tag, channels, rate, _byte_rate, _block_align, bits = fmt
    if tag != 1 or bits != 16:
        raise WavFormatError(f"unsupported format: tag={tag} bits={bits}")
    if channels < 1:
        raise WavFormatError("channels must be >= 1")
    frames = np.frombuffer(data[:len(data) - (len(data) % (2 * channels))],
                           dtype="<i2")
    if channels > 1:
        frames = frames.reshape(-1, channels)
    return frames.astype(np.int16, copy=False), rate
