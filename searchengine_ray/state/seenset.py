"""Compact exact URL-seen set: LSM-style sorted byte-digest segments.

A Python set of 64-char sha256 hex strings costs ~170 B per URL (str object
+ set slot + hash).  At 10^10 URLs over a few gate shards that is the next
actor to OOM after the content-probe replica (the same discipline as
``stages/content_probe._Segment``: one numpy block, binary-search probes,
instead of millions of small Python objects).  This structure stores each
hash as its raw digest bytes in numpy ``S<k>`` arrays:

- an *active* Python set absorbs inserts (O(1) amortized);
- at ``flush_at`` entries the active set flushes to one SORTED immutable
  numpy segment (``np.searchsorted``-probeable, 32 B/URL);
- segments merge when the chain exceeds ``compact_at`` (amortized
  O(N log N), bounded probe fan-out);
- the result-time dump reads every digest as ONE sorted array
  (``sorted_array``), which the gate host hexes a chunk at a time straight
  into Arrow buffers — no Python object per URL.

Exactness: probes compare the FULL digest (no truncation); the host gate
probes this set for every candidate, with no filter in front of it.  A
miss costs one binary search per segment, of which there are at most
``compact_at``.
"""

from __future__ import annotations

import numpy as np


class SeenSet:
    """Exact membership set over fixed-width byte digests."""

    def __init__(self, digest_size: int = 32, flush_at: int = 1 << 16,
                 compact_at: int = 8):
        self.digest_size = digest_size
        self._dt = np.dtype(f"S{digest_size}")
        self.active: set[bytes] = set()
        self.segments: list[np.ndarray] = []
        self._seg_len = 0
        self.flush_at = flush_at
        self.compact_at = compact_at

    def __len__(self) -> int:
        return len(self.active) + self._seg_len

    def add(self, digest: bytes) -> None:
        """Insert a digest the caller has already verified absent (the gate
        probes before admitting, so no dedup pass is needed here)."""
        self.active.add(digest)
        if len(self.active) >= self.flush_at:
            self._flush()

    def _flush(self) -> None:
        if not self.active:
            return
        arr = np.frombuffer(b"".join(sorted(self.active)), dtype=self._dt)
        self._seg_len += arr.size
        self.segments.append(arr)
        self.active = set()
        if len(self.segments) > self.compact_at:
            self.segments = [np.sort(np.concatenate(self.segments))]

    def __contains__(self, digest: bytes) -> bool:
        if digest in self.active:
            return True
        if self.segments:
            key = np.frombuffer(digest, dtype=self._dt)[0]
            for seg in self.segments:
                i = int(seg.searchsorted(key))
                if i < seg.size and seg[i] == key:
                    return True
        return False

    def sorted_array(self) -> np.ndarray:
        """All digests as ONE ascending ``S<k>`` array (byte order ≡
        hex-string order for lowercase hex, so dumps stay identically
        sorted) — no Python object per digest.  Read it through its buffer
        (``tobytes``/``view(np.uint8)``), never ``.tolist()``: numpy
        S-dtype strips trailing NUL bytes on conversion, corrupting ~1/256
        of raw digests."""
        self._flush()
        if not self.segments:
            return np.empty(0, dtype=self._dt)
        return (np.sort(np.concatenate(self.segments))
                if len(self.segments) > 1 else self.segments[0])

    def nbytes(self) -> int:
        """Approximate resident bytes (segments exact; active set estimated
        at the measured ~100 B/bytes-object overhead)."""
        return int(sum(s.nbytes for s in self.segments)
                   + len(self.active) * (self.digest_size + 100))
