"""Long-lived gate state — the crawl's cross-wave mutable state.

Two actors and one plain core replace the reference's lock-guarded module
globals (SURVEY.md §2.3):

- ``HostGateCore`` (T5/D3/D4): URL-seen set + per-host trap detector for one
  logical shard of ``hash(host) % num_shards``, hosted with other shards'
  cores in a ``HostGateShard`` (one call serves them all).  The class is
  plain; ``HostGateActor`` is its actor form, one gate-host process each.
  The crawl engine holds a driver-side ``HostGateShard`` per host until the
  host process answers, then ships its cores over with ``install``: a
  gate-host process starts with no cores and never builds gate state of
  its own (pipelines/crawl.py ``CrawlEngine._handoff``).
  URL similarity is 0 across hosts (link_similarity.py:106-112), so
  host-sharding is EXACTLY the reference's global seen-set semantics.
  Every candidate probes the exact seen set (``SeenSet``) with no filter
  in front of it: a filter screening "definitely new" URLs cost more per
  URL than the probe it spared (SCALE.md §2).
- ``ContentProbeShard`` (T4/D5, tier mode): one row-shard of the accepted
  page content store (caption shingles + image phash).  A new page is
  rejected when (a) caption-shingle Jaccard vs ANY accepted page exceeds
  ``max_similarity`` (ngrams.py:88-101) or (b) image phash within
  ``max_hamming`` of ANY accepted image.  The content store has ONE store
  of record: these shards, or (replica mode) the engine's broadcast chain
  of per-wave deltas that every process indexes locally
  (stages/content_probe.get_store_index).  Verdicts are the store probe +
  the exact sequential resolve (stages/content_probe.resolve_wave):
  candidates via shared shingles (Jaccard > 0 ⇒ ≥1 shared shingle — no
  O(N²) scan) and pigeonhole phash bands (hamming ≤ t ⇒ ≥1 equal band of
  t+1) — provably the reference's accept/reject set, in the same order
  (SURVEY.md §7 hard part 2).

The gate keeps no checkpoint of its own.  Its state is a SET of admitted
URLs (seen digests, trap buckets), and every admitted URL is in the
checkpoint's crawl order or its frontier snapshot, exactly once; resume
replays those URLs through ``restore_replay`` in any order
(pipelines/crawl.py ``_restore``).  Resume is bit-identical because every
decision is content-derived and ordered by the deterministic FIFO ``seq``
(SURVEY.md §7 hard part 6).  The result-time seen-set export is streaming:
``dump_seen_to`` writes each shard's seen set actor-side (the driver
handles only paths and counts), hexing the ``SeenSet``'s sorted digest
buffer one chunk at a time into Arrow buffers.  Gate-host code builds Arrow
arrays from buffers: ``pa.array``/``pa.table`` on Python lists or numpy
arrays imports pandas into the process (~0.35 s per gate host, measured),
and ``tests/test_seenset.py`` pins that a gate host never loads it.
"""

from __future__ import annotations

import binascii
from collections import defaultdict
from collections.abc import Iterable

import numpy as np
import ray

from searchengine_ray.functions.linksim import TrapIndex
from searchengine_ray.functions.phash import hamming64, phash_bands
from searchengine_ray.state.seenset import SeenSet

# digests per Arrow chunk of the seen-set dump: a chunk's int32 string
# offsets reach 64 × 2^20 (far from 2^31), and one chunk is exactly
# parquet's default row group, so the file is byte-identical to a
# single-array write of the same hashes
DUMP_CHUNK = 1 << 20


class HostGateCore:
    """Seen-set + trap gate for the hosts hashing to one logical shard.

    The trap check uses ``TrapIndex`` — exact sub-quadratic equivalent of
    the reference's all-pairs scan (the reference corpus's 58%-skew host
    would otherwise make this gate O(N²) on one shard).

    Memory discipline (the 10^10 design point): the exact seen set is a
    ``SeenSet`` of raw 32-byte digests in sorted numpy segments (~32 B/URL
    amortized, binary-search probes) — never a Python set of hex strings;
    URL strings are not retained at all (the TrapIndex holds only path
    structure, with duplicate last-segment charsets collapsed)."""

    def __init__(self, shard_id: int, url_similarity_threshold: float = 0.85):
        self.shard_id = shard_id
        self.threshold = url_similarity_threshold
        self.seen = SeenSet(digest_size=32)
        self.trap_index = TrapIndex(url_similarity_threshold)
        # per-partition dedup-rate lineage (north-star metric): cumulative
        # decision counts for this shard's slice of the URL space
        self.decisions = {"accept": 0, "dup": 0, "trap": 0, "seed": 0}

    def seed(self, rows: list[tuple[str, str, str]]) -> list[bool]:
        """Seed URLs enter dedup but bypass the trap gate (they never pass
        through the scraper in the reference flow)."""
        out = []
        for _host, url_norm, url_hash in rows:
            digest = bytes.fromhex(url_hash)
            if digest in self.seen:
                out.append(False)
                continue
            self._admit(url_norm, digest)
            self.decisions["seed"] += 1
            out.append(True)
        return out

    def process(self, rows: list[tuple[str, str, str]]) -> list[str]:
        """Gate candidate links IN ORDER.  rows: (host, url_norm, url_hash),
        pre-sorted by discovery order.  Returns one decision per row:
        'accept' | 'dup' | 'trap'."""
        out = []
        dec = self.decisions
        for host, url_norm, url_hash in rows:
            digest = bytes.fromhex(url_hash)
            if digest in self.seen:
                dec["dup"] += 1
                out.append("dup")
                continue
            if self.trap_index.is_trap(url_norm):
                dec["trap"] += 1
                out.append("trap")
                continue
            self._admit(url_norm, digest)
            dec["accept"] += 1
            out.append("accept")
        return out

    def _admit(self, url_norm: str, digest: bytes) -> None:
        self.seen.add(digest)
        self.trap_index.add(url_norm)

    def memory_stats(self) -> dict:
        """Per-structure resident-byte estimates — the per-partition lineage
        for the bounded-state invariant (recorded by scripts/run_crawl_job)."""
        n_cand = sum(self.decisions[k] for k in ("accept", "dup", "trap"))
        return {
            "shard_id": self.shard_id,
            "seen_count": len(self.seen),
            "seen_bytes": self.seen.nbytes(),
            "seen_segments": len(self.seen.segments),
            "trap_groups": len(self.trap_index.groups),
            # per-partition dedup-rate lineage (north-star metric)
            "decisions": dict(self.decisions),
            "dedup_rate": (round((self.decisions["dup"] + self.decisions["trap"])
                                 / n_cand, 6) if n_cand else 0.0),
        }

    def dump_seen_to(self, path: str) -> int:
        """Write this shard's seen URL hashes as ONE sorted table at
        ``path`` (Lance/parquet via the storage seam) — executed actor-side,
        so the driver never receives the set (the streaming replacement for
        the old full-dump RPC).  The ``url_hash: string`` column is built
        from the ``SeenSet``'s sorted digest buffer, ``DUMP_CHUNK`` digests
        at a time: one hexlify per chunk wrapped with fixed-width offsets —
        no Python object per URL, and no ``pa.array`` on a list (that
        imports pandas into the gate host, ~0.35 s).  Returns the row
        count."""
        import pyarrow as pa

        from searchengine_ray.sources import storage

        digests = self.seen.sorted_array()
        width = 2 * self.seen.digest_size
        chunks = []
        for i in range(0, digests.size, DUMP_CHUNK):
            part = digests[i:i + DUMP_CHUNK]
            offsets = np.arange(0, width * (part.size + 1), width, dtype=np.int32)
            chunks.append(pa.StringArray.from_buffers(
                part.size, pa.py_buffer(offsets),
                pa.py_buffer(binascii.hexlify(part.view(np.uint8)))))
        storage.write_table_atomic(pa.Table.from_arrays(
            [pa.chunked_array(chunks, pa.string())], names=["url_hash"]), path)
        return int(digests.size)

    def restore_replay(self, rows: list, decisions: dict | None = None) -> int:
        """Admit checkpointed URLs (host, url_norm, url_hash) through the
        same ``_admit`` path.  The seen set and trap index depend only on
        WHICH URLs were admitted, so rows replay in any order.
        ``decisions``: the cumulative counter snapshot to resume from.
        Returns the seen count after the replay."""
        for _host, url_norm, url_hash in rows:
            self._admit(url_norm, bytes.fromhex(url_hash))
        if decisions is not None:
            self.decisions = dict(decisions)
        return len(self.seen)


class HostGateShard:
    """Gate host: the ``HostGateCore`` of each logical shard placed on one
    gate-host process (``HostGateActor``) or, until that process answers,
    on the driver.  Every method takes [(logical shard, payload)] batches
    and replies one entry per batch, in batch order.  A gate-host process
    starts with no cores: the driver-held host builds them and ``install``
    hands them over."""

    def __init__(self, shard_ids: Iterable[int] = (),
                 url_similarity_threshold: float = 0.85):
        self.cores = {i: HostGateCore(i, url_similarity_threshold)
                      for i in shard_ids}

    def install(self, cores: dict) -> None:
        """Take over the driver-held host's cores {logical shard: core}."""
        self.cores = cores

    def seed(self, batches: list) -> list[list[bool]]:
        return [self.cores[s].seed(rows) for s, rows in batches]

    def process(self, batches: list) -> list[list[str]]:
        return [self.cores[s].process(rows) for s, rows in batches]

    def restore_replay(self, batches: list) -> list[int]:
        return [self.cores[s].restore_replay(rows, decisions)
                for s, (rows, decisions) in batches]

    def dump_seen_to(self, batches: list) -> list[int]:
        return [self.cores[s].dump_seen_to(path) for s, path in batches]

    def memory_stats(self, batches: list) -> list[dict]:
        return [self.cores[s].memory_stats() for s, _ in batches]


# the gate-host process; its timeline events keep the class name
# (``HostGateShard.<method>``)
HostGateActor = ray.remote(num_cpus=0.5)(HostGateShard)


class WaveGate:
    """Sequential content near-dup gate over ONE wave's rows — dict-backed,
    TRANSIENT, bounded by the wave and never the corpus.  The reference's
    sequential loop semantics (ngrams.py:88-101) for the intra-wave part:
    an inverted shingle index + phash-band buckets keep each decision
    O(candidates).  The cross-wave store of record is the numpy-segment
    ``StoreIndex`` (broadcast replica or probe tier), probed before the
    wave resolves; the wave resolvers (stages/content_probe.resolve_wave /
    resolve_wave_split) replay only their (typically tiny) interacting
    subsets through this class."""

    def __init__(self, max_similarity: float = 0.65, max_hamming: int = 4):
        self.max_similarity = max_similarity
        self.max_hamming = max_hamming
        self.num_bands = max_hamming + 1
        self.page_shingles: dict[int, frozenset[int]] = {}
        self.shingle_index: dict[int, list[int]] = defaultdict(list)
        self.page_phash: dict[int, int] = {}
        # band bucket → list of phashes (as python ints); numpy-vectorized
        # scan per probe — existence of a close hash is all the gate needs
        self.phash_bands: dict[tuple[int, int], list[int]] = defaultdict(list)

    def text_dup(self, sset: frozenset[int]) -> bool:
        if not sset:
            return False
        cand: set[int] = set()
        for sh in sset:
            cand.update(self.shingle_index.get(sh, ()))
        for page in cand:
            prev = self.page_shingles[page]
            inter = len(sset & prev)
            union = len(sset | prev)
            if union and inter / union > self.max_similarity:
                return True
        return False

    def image_dup(self, ph: int) -> bool:
        from searchengine_ray.functions.phash import hamming64_vec

        t = self.max_hamming
        for band in phash_bands(ph, self.num_bands):
            bucket = self.phash_bands.get(band)
            if not bucket:
                continue
            if len(bucket) <= 16:
                if any(hamming64(ph, q) <= t for q in bucket):
                    return True
            else:
                arr = np.fromiter(bucket, dtype=np.int64, count=len(bucket))
                if (hamming64_vec(arr, ph) <= t).any():
                    return True
        return False

    def admit(self, seq: int, sset: frozenset[int], ph: int) -> None:
        self.page_shingles[seq] = sset
        for sh in sset:
            self.shingle_index[sh].append(seq)
        self.page_phash[seq] = ph
        for band in phash_bands(ph, self.num_bands):
            self.phash_bands[band].append(ph)


@ray.remote(num_cpus=0.25)
class ContentProbeShard:
    """One shard of the content-store probe TIER — the 10^10-scale
    replacement for the per-worker broadcast ``StoreIndex`` replica
    (VERDICT r2 'What's missing' #1; SCALE.md sharded-probe design).

    Sharding is by store ROW (``seq % num_shards``): each shard holds a
    complete ``StoreIndex`` over its 1/N slice of accepted pages, so a
    probe against one shard is EXACT for that slice (jaccard shared-counts
    never straddle shards — the alternative, sharding by shingle value,
    would force cross-shard partial-count sums per candidate pair).  A
    batch's fingerprints are sent to every shard and the per-shard flags OR
    together; probe payload is the WAVE's fingerprints (small) × N, while
    resident state per shard is O(corpus/N) — the trade that scales."""

    def __init__(self, shard_id: int, num_shards: int, max_hamming: int):
        from searchengine_ray.stages.content_probe import StoreIndex

        self.shard_id = shard_id
        self.num_shards = num_shards
        self.index = StoreIndex(max_hamming)

    def add_table(self, tbl) -> int:
        """Ingest accepted-page fingerprints (caller pre-routes rows with
        seq % num_shards == shard_id)."""
        self.index.add_table(tbl)
        return tbl.num_rows

    def add_table_sliced(self, tbl) -> int:
        """Ingest only this shard's rows (seq % num_shards == shard_id)
        from an UNROUTED block — the distributed-admit path, where no
        single process ever holds the wave's delta (blocks are shipped by
        ref; each shard filters its slice plasma-side)."""
        import pyarrow as pa

        shards = np.asarray(
            tbl["seq"].to_numpy(zero_copy_only=False)) % self.num_shards
        m = shards == self.shard_id
        if not m.any():
            return 0
        sub = tbl.filter(pa.array(m))
        self.index.add_table(sub)
        return sub.num_rows

    def probe(self, flat, offsets, phashes, max_sim: float):
        """(text_dup, image_dup) flags vs this shard's slice for a batch of
        candidates given as concatenated shingle hashes + offsets + phashes
        (the ``probe_batch`` wire format)."""
        return (self.index.text_dup_batch(flat, offsets, max_sim),
                self.index.image_dup_batch(phashes))

    def accepted_count(self) -> int:
        return sum(s.n for s in self.index.segments)

    def memory_stats(self) -> dict:
        return {"shard_id": self.shard_id,
                "accepted": self.accepted_count(),
                "index_bytes": self.index.nbytes(),
                "segments": len(self.index.segments)}
