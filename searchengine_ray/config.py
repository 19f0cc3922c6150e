"""Crawl configuration (the Ray-native analog of reference config.ini /
utils/config.py:4-19).

Reference knobs → fields:
- SEEDURL         → ``seed_urls``
- POLITENESS      → ``politeness_delay`` (seconds between fetches to one host)
- SAVE            → ``checkpoint_dir`` (Lance/parquet checkpoints, §S8)
- THREADCOUNT     → subsumed by ``fetch_concurrency`` (actor-pool size)
plus the gate thresholds (link_similarity.py:12, ngrams.py:11,14) and the
graft's phash near-dup threshold.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable
from dataclasses import asdict, dataclass, field


@dataclass
class CrawlConfig:
    seed_urls: list[str] = field(default_factory=list)
    allowed_domains: tuple[str, ...] | None = None

    # user-extension surface (reference §2.10: pluggable scraper/is_valid,
    # README.md:58-114 + frontier policy):
    # - priority_fn(url, host, depth) -> float: frontier ordering — each
    #   wave processes pending URLs by (priority DESC, discovery seq);
    #   None = pure FIFO (the reference default posture)
    # - extra_link_filter(url) -> bool: additional is_valid rules
    #   (README.md:113-114 "Additional rules should be added to is_valid")
    # Both must be picklable; both are part of crawl semantics but can't be
    # hashed — resuming a checkpoint with DIFFERENT callables is undefined
    # (the manifest records whether each was set).
    priority_fn: Callable[[str, str, int], float] | None = None
    extra_link_filter: Callable[[str], bool] | None = None

    # politeness / scheduling
    politeness_delay: float = 0.0  # seconds per host between fetches
    per_host_wave_budget: int | None = None  # None = full BFS wave
    max_waves: int | None = None
    max_pages: int | None = None

    # gates (reference thresholds)
    url_similarity_threshold: float = 0.85  # link_similarity.py:12
    content_max_similarity: float = 0.65  # ngrams.py:11
    ngram_size: int = 3  # ngrams.py:14
    phash_max_hamming: int = 4  # graft near-dup threshold (FIXTURES.md F1)
    use_robots: bool = True

    # execution
    inline_wave_threshold: int = 64  # waves ≤ this run driver-inline (same kernels)
    num_gate_shards: int = 8
    # the ONE content store of record: None = the broadcast chain of
    # per-wave deltas, indexed as a StoreIndex replica by every fetch
    # worker and by the driver (inline waves) — lowest latency, O(corpus)
    # memory per process, fine to ~10^7 pages; N = shard the
    # accepted-fingerprint index across N probe actors at O(corpus/N) each,
    # probed by batch RPC from the fetch tasks and the driver (the 10^10
    # shape).  Pure execution knob — decisions are identical.
    content_probe_shards: int | None = None
    # wave size above which the content-gate resolve runs DISTRIBUTED
    # (shared-shingle / shared-band co-shuffle partner graph + pull of only
    # the interacting pages) instead of concatenating the wave's
    # fingerprints on the driver.  ~3 extra all-to-alls per wave — pure
    # overhead below the threshold, the only shape that works above it.
    driver_fp_threshold: int = 100_000
    # politeness_delay == 0 also turns on wave pipelining: the PREDICTED
    # next wave (the frontier backlog's next slice) is fetched+validated
    # speculatively while the current wave's later stages run.  Fetch is
    # pure (no store probe, no gate state), so decisions are identical.
    # Under politeness the fetch runs in a pacing actor pool instead
    # (fetch_concurrency actors, per-host clocks) and nothing speculates.
    fetch_concurrency: int = 8
    fetch_batch_size: int = 256
    # per-wave checkpoints (crawl_order, frontier, content deltas, metrics,
    # manifest).  With one, the crawl order lives only on disk — the
    # driver heap stays flat across waves; without, it is held in memory.
    checkpoint_dir: str | None = None
    # link-candidate volume that picks the host-gate route.  A wave whose
    # content resolve ran on the driver and whose accepted pages carry ≤
    # this many link candidates (counted on the driver, which already holds
    # them; and every inline wave) gates them from the driver with one RPC
    # per gate host — no Ray Data job, no shuffle.  Above it (or after a
    # distributed resolve, so driver_fp_threshold=0 forces it too), the
    # candidates are gated in a groupby(host) shuffle, and frontier(w+1)
    # seq assignment + pool append run DISTRIBUTED (per-parent prefix-sum
    # rank + streamed add) once the accepted links exceed it too: ~3 extra
    # all-to-all stages per wave — pure overhead for small waves, the only
    # shape that works for giant ones.  0 forces the shuffle route.  It
    # also bounds the URLs the driver-held gate holds before the gate-host
    # processes answer (CrawlEngine._gate_call): 0 waits for them at once
    driver_link_threshold: int = 200_000
    # frontier pool storage: None = driver-side pandas (small crawls);
    # a directory = spill pool of immutable sorted Arrow runs with
    # per-(run, host) cursors (the 10^10-URL shape — a wave reads each
    # host's next rows of every live run, never the pool, and the driver
    # holds the runs' host index, O(hosts × live runs))
    frontier_spill_dir: str | None = None
    # CPU reservation per STATE actor: the gate hosts (one per 4 cluster
    # CPUs, each serving several logical gate shards) and the probe tier if
    # any.  None = the class defaults (0.5 / 0.25, so a multi-node
    # scheduler spreads them).  Small shared sessions that create engines
    # back-to-back (the test fixture, driver dryrun) should pass 0: the
    # raylet can leak a dead actor's reservation (observed live) and strand
    # Ray Data's 1-CPU tasks, hanging the next engine's wave.  Pure
    # execution knob — decisions are identical.
    state_actor_num_cpus: float | None = None

    def config_hash(self) -> str:
        """Identity of the semantic knobs — a checkpoint is only resumable
        under the same semantics."""
        d = asdict(self)
        # excluded: execution knobs and stop conditions — ``max_waves`` is
        # "when this invocation stops" (≈ a kill), not per-wave semantics;
        # ``max_pages`` stays in: it truncates wave slices deterministically.
        for k in ("num_gate_shards", "fetch_concurrency", "fetch_batch_size",
                  "checkpoint_dir", "max_waves", "politeness_delay",
                  "inline_wave_threshold", "frontier_spill_dir",
                  "driver_link_threshold",
                  "content_probe_shards",
                  "driver_fp_threshold", "state_actor_num_cpus"):
            d.pop(k)
        # callables aren't hashable: record presence only (see field docs)
        d["priority_fn"] = self.priority_fn is not None
        d["extra_link_filter"] = self.extra_link_filter is not None
        return hashlib.sha256(json.dumps(d, sort_keys=True, default=str).encode()).hexdigest()[:16]
