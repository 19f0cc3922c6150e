"""Cuckoo filter — approximate set membership with deletion support.

Public construction (Fan et al. 2014, "Cuckoo Filter: Practically Better
Than Bloom"): buckets of ``bucket_size`` 16-bit fingerprints; each key has
two candidate buckets ``i1 = H(key)`` and ``i2 = i1 ^ H(fingerprint)``;
inserts displace (cuckoo-kick) up to ``max_kicks`` times.

Role in the engine (north-star: "sharded cuckoo-filter URL-seen set held in
long-lived actor-pool stages"): each seen-set shard actor keeps a cuckoo
filter as the fast path — ``contains() == False`` proves a URL is NEW with
no false negatives, so only "maybe seen" keys touch the exact backing set.
The exact set keeps conformance bit-exact; the filter bounds its lookups.

numpy-backed and deterministic; it pickles whole (the gate handoff ships
the driver-held filters to the gate-host processes).
"""

from __future__ import annotations

import numpy as np

_EMPTY = 0  # fingerprints are forced nonzero


class CuckooFilter:
    def __init__(self, capacity: int = 1 << 16, bucket_size: int = 4, max_kicks: int = 500):
        nbuckets = 1
        while nbuckets * bucket_size < capacity:
            nbuckets <<= 1
        self.nbuckets = nbuckets
        self.bucket_size = bucket_size
        self.max_kicks = max_kicks
        self.table = np.zeros((nbuckets, bucket_size), dtype=np.uint16)
        self.count = 0
        self._kick_state = 0x9E3779B97F4A7C15  # deterministic eviction choice

    # -- hashing ------------------------------------------------------------
    @staticmethod
    def _h64(key: int) -> int:
        x = key & 0xFFFFFFFFFFFFFFFF
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
        x = (x ^ (x >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
        return x ^ (x >> 31)

    def _fingerprint(self, key: int) -> int:
        fp = self._h64(key) & 0xFFFF
        return fp if fp != _EMPTY else 1

    def _i1(self, key: int) -> int:
        return (self._h64(key) >> 16) & (self.nbuckets - 1)

    def _alt(self, i: int, fp: int) -> int:
        return (i ^ self._h64(fp)) & (self.nbuckets - 1)

    # -- ops ----------------------------------------------------------------
    def contains(self, key: int) -> bool:
        fp = self._fingerprint(key)
        i1 = self._i1(key)
        if (self.table[i1] == fp).any():
            return True
        i2 = self._alt(i1, fp)
        return bool((self.table[i2] == fp).any())

    def add(self, key: int) -> bool:
        """Insert; returns False when the filter is full (caller should
        resize/flush — the seen-shard actor grows a new filter)."""
        fp = self._fingerprint(key)
        i1 = self._i1(key)
        i2 = self._alt(i1, fp)
        for i in (i1, i2):
            slot = np.where(self.table[i] == _EMPTY)[0]
            if slot.size:
                self.table[i, slot[0]] = fp
                self.count += 1
                return True
        # cuckoo kick
        i = i1
        for _ in range(self.max_kicks):
            self._kick_state = (self._kick_state * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
            j = self._kick_state % self.bucket_size
            fp, self.table[i, j] = int(self.table[i, j]), fp
            i = self._alt(i, fp)
            slot = np.where(self.table[i] == _EMPTY)[0]
            if slot.size:
                self.table[i, slot[0]] = fp
                self.count += 1
                return True
        return False

    def remove(self, key: int) -> bool:
        fp = self._fingerprint(key)
        for i in (self._i1(key), self._alt(self._i1(key), fp)):
            slot = np.where(self.table[i] == fp)[0]
            if slot.size:
                self.table[i, slot[0]] = _EMPTY
                self.count -= 1
                return True
        return False

    def __setstate__(self, state: dict) -> None:
        # Ray unpickles numpy arrays zero-copy over read-only buffers; the
        # table is written in place, so an unpickled filter owns a copy
        self.__dict__.update(state)
        if not self.table.flags.writeable:
            self.table = self.table.copy()
