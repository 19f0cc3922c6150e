#!/usr/bin/env python3
"""Shows that every output check of the benchmark bites.

    python3 perfbench/selftest.py

Runs small real crawls (plain, stopped + resumed) and a small
index build + search, checks that each check ACCEPTS the real output, then
feeds each check a perturbed copy and requires a failure:

- two swapped crawl-order rows;
- one dropped URL-seen hash;
- one resumed wave that differs from the uninterrupted crawl;
- one altered top-k result.

Exits 0 when every check accepts the real output and rejects every
perturbation.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

import numpy as np


def _expect(results: list, label: str, errors: list[str], want_fail: bool) -> None:
    ok = bool(errors) == want_fail
    verdict = "rejects" if errors else "accepts"
    results.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {label}: check {verdict}"
          + (f" ({errors[0][:120]})" if errors else ""))


def swap_rows(order, wave: int):
    """Swap the url/seq of the first two rows of ``wave``."""
    df = order.sort_values(["wave", "rank"]).reset_index(drop=True)
    i, j = df.index[df["wave"] == wave][:2]
    for col in ("seq", "url_norm"):
        df.loc[[i, j], col] = df.loc[[j, i], col].to_numpy()
    return df


def main() -> int:
    import run

    sys.path.insert(0, run.ROOT)
    os.environ["PYTHONPATH"] = run.ROOT
    os.makedirs(run.SCRATCH, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=run.SCRATCH)
    os.environ["TMPDIR"] = tempfile.tempdir = scratch
    import checks
    import workloads

    results: list[bool] = []
    session = run.start_ray(run.nproc())
    try:
        import tracing

        tracing.quiet_ray_data_logs(None)
        from searchengine_ray.pipelines.crawl import CrawlEngine
        from searchengine_ray.pipelines.crawl_oracle import crawl_oracle
        from searchengine_ray.sources.fixtures import make_store

        # --- plain crawl: order + seen ---------------------------------
        store = make_store(n_pages=120, n_hosts=4, seed=3, fanout=8)
        cfg = workloads._crawl_config(store, 1, num_gate_shards=2,
                                      inline_wave_threshold=16)
        oracle = crawl_oracle(store, cfg)
        want = checks.expected_order_from_oracle(oracle.crawl_order)
        res, _ = workloads._timed_crawl(lambda: CrawlEngine(store, cfg))
        got, seen = res.crawl_order, res.url_seen
        _expect(results, "crawl order, real output",
                checks.check_crawl_order(got, want), False)
        _expect(results, "crawl order, two rows swapped",
                checks.check_crawl_order(swap_rows(got, 1), want), True)
        _expect(results, "url-seen set, real output",
                checks.check_seen(seen, set(oracle.url_seen)), False)
        dropped = set(seen)
        dropped.discard(sorted(dropped)[0])
        _expect(results, "url-seen set, one hash dropped",
                checks.check_seen(dropped, set(oracle.url_seen)), True)

        # --- stopped + resumed crawl -------------------------------------
        bstore = make_store(n_pages=120, n_hosts=4, seed=5, fanout=8)
        bcfg = workloads._crawl_config(
            bstore, 1, num_gate_shards=2, per_host_wave_budget=4,
            checkpoint_dir=os.path.join(scratch, "ck"),
            frontier_spill_dir=os.path.join(scratch, "spill"))
        bwant = checks.expected_order_from_oracle(crawl_oracle(bstore, bcfg).crawl_order)
        stop = int(bwant["wave"].max() + 1) // 2
        from dataclasses import replace

        workloads._timed_crawl(lambda: CrawlEngine(bstore, replace(bcfg, max_waves=stop)))
        bres, _ = workloads._timed_crawl(lambda: CrawlEngine.resume(bstore, bcfg))
        border = bres.crawl_order
        _expect(results, "resumed waves, real output",
                checks.check_resumed_waves(border, bwant, stop), False)
        bad = border.copy()
        row = bad.index[bad["wave"] == stop][0]
        bad.loc[row, "decision"] = "text_dup" if bad.loc[row, "decision"] == "accept" else "accept"
        _expect(results, f"resumed waves, wave {stop} altered",
                checks.check_resumed_waves(bad, bwant, stop), True)

        # --- index build + merge + search vs DuckDB ---------------------
        import duckdb

        from searchengine_ray.pipelines.index_pipeline import search_index

        ix = workloads.IndexSearch(11, 1, scratch)
        docs = workloads.load_documents(400)
        base, delta, final = ix._write_inputs(docs, np.random.default_rng(11), "ix")
        out = os.path.join(scratch, "ix", "index")
        ix._build_merge(base, delta, out)
        con = duckdb.connect()
        con.register("corpus", final)
        con.execute(workloads.REFERENCE_POSTINGS_SQL)
        query = next(q for q in workloads.make_queries(11, 40, *workloads.vocabulary(docs))
                     if len(workloads.reference_topk(con, q, 5)) >= 2)
        ref = workloads.reference_topk(con, query, 5)
        con.close()
        got = search_index(out, query, k=5)
        _expect(results, f"top-k {query!r}, real output",
                checks.check_topk(got, ref, query), False)
        altered = got.iloc[[1, 0, *range(2, len(got))]].reset_index(drop=True)
        _expect(results, "top-k, two results swapped",
                checks.check_topk(altered, ref, query), True)
        rescored = got.copy()
        rescored.loc[rescored.index[0], "score"] += 1e-3
        _expect(results, "top-k, one score altered",
                checks.check_topk(rescored, ref, query), True)
    finally:
        run.stop_ray(session)
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{sum(results)}/{len(results)} self-test expectations met")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
