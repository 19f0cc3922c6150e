#!/usr/bin/env python
"""Crawl job entry point — submit with ``ray job submit`` (or run directly;
Ray auto-initialises in local mode).

    ray job submit --working-dir . -- \
        python scripts/run_crawl_job.py --checkpoint-dir /tmp/crawl1 \
            --pages 2000 --budget 50
    # kill it mid-run, then resume bit-identically:
    ray job submit --working-dir . -- \
        python scripts/run_crawl_job.py --checkpoint-dir /tmp/crawl1 --resume

The sandbox has no cluster, so the synthetic/procedural page universe
stands in for HTTP; on a real deployment the Fetcher backend is an HTTP
client actor pool with the same politeness clocks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--checkpoint-dir", default=None,
                    help="enable per-wave incremental checkpoints (required "
                         "for --resume); the crawl order then lives only "
                         "on disk, not in driver memory")
    ap.add_argument("--resume", action="store_true")
    ap.add_argument("--pages", type=int, default=2000)
    ap.add_argument("--procedural", action="store_true",
                    help="URL-derived page universe instead of the fixture graph")
    ap.add_argument("--budget", type=int, default=None,
                    help="per-host per-wave politeness budget")
    ap.add_argument("--politeness-delay", type=float, default=0.0)
    ap.add_argument("--max-waves", type=int, default=None)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--frontier-spill-dir", default=None,
                    help="spill frontier pool dir (sorted Arrow runs)")
    ap.add_argument("--probe-shards", type=int, default=None,
                    help="shard the content-store probe across N actors "
                         "(O(corpus/N) each) instead of the per-worker "
                         "broadcast replica")
    ap.add_argument("--driver-fp-threshold", type=int, default=None,
                    help="wave size above which the content resolve runs "
                         "fully distributed (default: config default)")
    args = ap.parse_args()
    if args.resume and not args.checkpoint_dir:
        ap.error("--resume needs --checkpoint-dir")

    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from searchengine_ray.config import CrawlConfig
    from searchengine_ray.pipelines.crawl import CrawlEngine
    from searchengine_ray.sources.fixtures import (
        ProceduralSpec,
        ProceduralStore,
        make_store,
    )

    if args.procedural:
        store = ProceduralStore(ProceduralSpec(n_pages=args.pages, seed=args.seed))
    else:
        store = make_store(n_pages=args.pages, seed=args.seed)
    config = CrawlConfig(
        seed_urls=list(store.seeds), allowed_domains=("test",),
        per_host_wave_budget=args.budget,
        politeness_delay=args.politeness_delay,
        max_waves=args.max_waves,
        checkpoint_dir=args.checkpoint_dir,
        frontier_spill_dir=args.frontier_spill_dir,
        content_probe_shards=args.probe_shards,
    )
    if args.driver_fp_threshold is not None:
        config.driver_fp_threshold = args.driver_fp_threshold
    if args.resume:
        eng = CrawlEngine.resume(store, config)
        print(f"resumed at wave {eng.wave}, {eng.pages_fetched} pages fetched",
              file=sys.stderr)
    else:
        eng = CrawlEngine(store, config)
    res = eng.run()
    # streaming consumption: counts come from the metrics / per-shard
    # counters — the O(crawl) eager views are never materialized here
    n_fetched = int(sum(m["fetched"] for m in eng.metrics))
    n_accepted = int(sum(m["page_decisions"].get("accept", 0)
                         for m in eng.metrics))
    # per-partition state lineage: one entry per logical gate shard + per
    # probe shard (the bounded-actor-state invariant evidence, actor-side
    # measurements)
    gate_mem = eng.gate_memory_stats()
    probe_mem = (ray.get([s.memory_stats.remote() for s in eng.probe_tier])
                 if eng.probe_tier is not None else None)
    # replica mode: the driver's copy of the content store (what each
    # fetch worker holds too); tier mode keeps nothing on the driver
    replica_mem = None
    if eng.probe_tier is None:
        from searchengine_ray.stages.content_probe import get_store_index

        idx = get_store_index(tuple(eng._store_delta_refs),
                              config.phash_max_hamming)
        replica_mem = {"index_bytes": idx.nbytes(),
                       "segments": len(idx.segments)}
    print(json.dumps({
        "pages_fetched": n_fetched,
        "accepted": n_accepted,
        "url_seen": int(res.url_seen_count),
        "waves": int(eng.wave),
        "gate_hosts": len(eng.gate_hosts),
        "gate_shard_memory": gate_mem,
        "probe_shard_memory": probe_mem,
        "content_replica_memory": replica_mem,
        "seen_segments": [m["seen_segments"] for m in gate_mem],
        "per_wave": [{k: m.get(k) for k in ("wave", "fetched", "pages_per_sec",
                                            "driver_rss_mb",
                                            "driver_private_mb")}
                     for m in eng.metrics],
    }))
    eng.shutdown()
    ray.shutdown()


if __name__ == "__main__":
    main()
