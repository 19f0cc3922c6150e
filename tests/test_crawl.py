"""Crawl engine conformance: the Ray wave engine must reproduce the
single-threaded oracle's crawl ordering and final URL-seen set on the same
seed list and politeness budget (BASELINE.json:north_rule), and resume
bit-identically from a mid-crawl checkpoint."""

import os
import shutil

import pandas as pd
import pytest

from searchengine_ray.config import CrawlConfig
from searchengine_ray.pipelines.crawl_oracle import crawl_oracle
from searchengine_ray.sources.fixtures import make_store


@pytest.fixture(scope="module")
def store():
    return make_store(n_pages=80, seed=42)


def _config(store, **kw):
    defaults = dict(
        seed_urls=list(store.seeds),
        allowed_domains=("test",),
        num_gate_shards=4,
        fetch_concurrency=2,
        # 0-CPU state actors: the 4-CPU suite session creates engines
        # back-to-back; a raylet reservation leak on actor death (observed)
        # otherwise strands enough CPU that from_pandas' 1-CPU metadata
        # task deadlocks the next engine's wave.  Pure execution knob.
        state_actor_num_cpus=0,
    )
    defaults.update(kw)
    return CrawlConfig(**defaults)


@pytest.fixture(params=[0, 256], ids=["distributed", "inline"])
def inline_threshold(request):
    """Run conformance on BOTH execution paths: threshold=0 forces the
    distributed Ray Data path for every wave; 256 takes the inline
    small-wave fast path for these fixture sizes."""
    return request.param


def _run_engine(store, config):
    from searchengine_ray.pipelines.crawl import CrawlEngine

    eng = CrawlEngine(store, config)
    try:
        return eng.run()
    finally:
        eng.shutdown()


def _assert_match(result, oracle):
    got = result.crawl_order[["seq", "url_norm", "wave", "status", "decision"]]
    want = pd.DataFrame(oracle.crawl_order).rename(columns={"url": "url_norm"})[
        ["seq", "url_norm", "wave", "status", "decision"]
    ]
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True).astype({"seq": "int64", "wave": "int64",
                                           "status": "int64"}),
        want.astype({"seq": "int64", "wave": "int64", "status": "int64"}),
    )
    assert result.url_seen == oracle.url_seen
    assert result.accepted_pages == [
        e["url"] for e in oracle.crawl_order if e["decision"] == "accept"
    ]


def test_oracle_sanity(store):
    config = _config(store)
    o = crawl_oracle(store, config)
    decisions = {e["decision"] for e in o.crawl_order}
    assert "accept" in decisions
    # planted structures must actually fire
    whys = {d["why"] for d in o.link_decisions}
    assert {"dup", "trap", "accept"} <= whys, whys
    page_decisions = [e["decision"] for e in o.crawl_order]
    assert "text_dup" in page_decisions, set(page_decisions)
    assert "image_dup" in page_decisions, set(page_decisions)
    # trap family: at most the first date page is ever fetched
    trap_fetches = [e for e in o.crawl_order if "/events/day/" in e["url"]]
    assert len(trap_fetches) <= 1
    # robots: no /private/ page fetched
    assert not any("/private/" in e["url"] for e in o.crawl_order)
    # seq are dense FIFO ranks
    seqs = sorted(e["seq"] for e in o.crawl_order)
    assert seqs == list(range(len(seqs)))


def test_engine_matches_oracle_bfs(ray_session, store, inline_threshold):
    config = _config(store, inline_wave_threshold=inline_threshold)
    res = _run_engine(store, config)
    _assert_match(res, crawl_oracle(store, config))
    # every wave records one span per stage; stage_sec keeps its three
    # buckets over them (the frontier append is in none)
    for m in res.metrics:
        sp = m["spans"]
        assert list(sp) == ["slice", "fetch_validate", "resolve", "order",
                            "sink", "links", "append", "metric"]
        assert m["stage_sec"] == {
            "fetch_validate": round(sp["fetch_validate"], 3),
            "content_gate": round(sp["resolve"] + sp["order"], 3),
            "links_gate": round(sp["sink"] + sp["links"], 3)}


def test_replica_engines_on_different_stores_inline(ray_session, store):
    """Two replica-mode engines on DIFFERENT stores in one process, every
    wave inline: each inline wave probes the driver's own StoreIndex
    replica, a per-process memo over the engine's delta chain
    (content_probe.get_store_index).  The engines alternate waves, so the
    memo sees the other crawl's chain before every wave and must rebuild
    instead of probing the other crawl's pages or missing its own."""
    from searchengine_ray.pipelines.crawl import CrawlEngine

    stores = [store, make_store(n_pages=80, seed=7)]
    engines = [CrawlEngine(s, _config(s, inline_wave_threshold=256))
               for s in stores]
    try:
        running = list(engines)
        while running:
            running = [e for e in running if e.run_wave()]
        for eng, s in zip(engines, stores):
            _assert_match(eng.result(), crawl_oracle(s, eng.config))
    finally:
        for eng in engines:
            eng.shutdown()


def test_engine_matches_oracle_budgeted(ray_session, store, inline_threshold):
    config = _config(store, per_host_wave_budget=3,
                     inline_wave_threshold=inline_threshold)
    res = _run_engine(store, config)
    _assert_match(res, crawl_oracle(store, config))


def _research_first(url, host, depth):
    """User priority function: crawl /research/ pages before others."""
    return 1.0 if "/research/" in url else 0.0


def _no_blog(url):
    """User extra is_valid rule (README.md:113-114): skip /blog/ URLs."""
    return "/blog/" not in url


def test_engine_matches_oracle_priority_queue(ray_session, store, inline_threshold):
    """Priority-queue scheduling (priority DESC, seq) must match the
    oracle's, including its effect on gate ordering and discovery seqs."""
    config = _config(store, priority_fn=_research_first, per_host_wave_budget=4,
                     inline_wave_threshold=inline_threshold)
    res = _run_engine(store, config)
    oracle = crawl_oracle(store, config)
    _assert_match(res, oracle)
    # the priority actually reorders: among wave-1+ fetches, research pages
    # of a host come before its other pages discovered at the same time
    got = res.crawl_order
    later = got[got["wave"] >= 1]
    assert any("/research/" in u for u in later["url_norm"].head(8)), \
        later["url_norm"].head(8).tolist()


def test_engine_matches_oracle_probe_tier(ray_session, store, inline_threshold):
    """The sharded content-probe tier (content_probe_shards=N) must produce
    the exact oracle crawl on both execution paths — the tier replaces the
    broadcast replica AND the monolithic gate actor, decisions unchanged."""
    config = _config(store, content_probe_shards=3,
                     inline_wave_threshold=inline_threshold)
    res = _run_engine(store, config)
    _assert_match(res, crawl_oracle(store, config))


def test_engine_matches_oracle_probe_tier_budgeted_priority(ray_session, store):
    config = _config(store, content_probe_shards=2, per_host_wave_budget=4,
                     priority_fn=_research_first, inline_wave_threshold=0)
    res = _run_engine(store, config)
    _assert_match(res, crawl_oracle(store, config))


def test_checkpoint_resume_probe_tier(ray_session, store, tmp_path):
    """Checkpoints are mode-independent: a run checkpointed under the tier
    resumes bit-identically under the tier AND under the replica mode
    (content deltas replay into whichever store exists)."""
    from searchengine_ray.pipelines.crawl import CrawlEngine

    full = _run_engine(store, _config(store, content_probe_shards=3))
    ckpt = str(tmp_path / "ckpt_tier")
    eng = CrawlEngine(store, _config(store, checkpoint_dir=ckpt, max_waves=2,
                                     content_probe_shards=3))
    eng.run()
    eng.shutdown()
    for shards in (3, None):
        eng2 = CrawlEngine.resume(store, _config(
            store, checkpoint_dir=ckpt, content_probe_shards=shards))
        res2 = eng2.run()
        eng2.shutdown()
        pd.testing.assert_frame_equal(
            full.crawl_order.reset_index(drop=True),
            res2.crawl_order.reset_index(drop=True), obj=f"shards={shards}")
        assert full.url_seen == res2.url_seen


def test_engine_matches_oracle_distributed_resolve(ray_session, store):
    """driver_fp_threshold=0 forces the GIANT-wave content resolve
    (distributed partner graph + interacting-only pull + split replay) on
    every distributed wave — decisions must stay oracle-exact, in both
    store modes (broadcast replica and probe tier)."""
    for shards in (None, 3):
        config = _config(store, inline_wave_threshold=0,
                         driver_fp_threshold=0, content_probe_shards=shards)
        res = _run_engine(store, config)
        _assert_match(res, crawl_oracle(store, config))
        # the driver link route needs the driver resolve: links run the
        # groupby(host) gate too
        assert {m["link_route"]["route"] for m in res.metrics} == {"distributed"}


def test_engine_matches_oracle_distributed_resolve_budgeted(ray_session, store):
    config = _config(store, inline_wave_threshold=0, driver_fp_threshold=0,
                     per_host_wave_budget=3)
    res = _run_engine(store, config)
    _assert_match(res, crawl_oracle(store, config))


def test_driver_resolve_reads_materialized_blocks(ray_session, store,
                                                  monkeypatch):
    """A distributed wave resolved on the driver reads its columns from the
    materialized wave's blocks: no ``select_columns`` projection job — in
    both store modes, still oracle-exact."""
    import sys

    import ray.data as rd

    callers = []
    select_columns = rd.Dataset.select_columns

    def spy(self, *args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return select_columns(self, *args, **kwargs)

    monkeypatch.setattr(rd.Dataset, "select_columns", spy)
    for shards in (None, 2):
        config = _config(store, inline_wave_threshold=0,
                         content_probe_shards=shards)
        res = _run_engine(store, config)
        _assert_match(res, crawl_oracle(store, config))
        assert {m["resolve_route"]["route"] for m in res.metrics} == {"driver"}
        assert not any(m["inline"] for m in res.metrics)
    assert "_resolve_wave_driver" not in callers, callers


def test_distributed_wave_rows_equal_inline(ray_session, monkeypatch):
    """A distributed wave's validated rows (the fetch tasks' and the
    keep+flag tasks' blocks) equal the inline route's on the same wave,
    fetched afresh on the driver and flagged by the same store probe:
    every column, ``cands`` and both store flags included, by seq.  A
    budgeted crawl of a store with many near-duplicates, so speculation
    serves rows and some of them are store duplicates; both store modes;
    and an ``extra_link_filter`` from this module, which the tasks get by
    value."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from searchengine_ray.pipelines import crawl as crawl_mod

    dup_store = make_store(n_pages=80, seed=42, frac_near_dup_caption=0.25,
                           frac_near_dup_image=0.25)
    orig = crawl_mod.CrawlEngine._fetch_validate_distributed
    seen = []

    def checked(self, wave_df):
        covered = self._take_speculated(wave_df)[2]
        blocks, n_spec, n_tasks = orig(self, wave_df)
        got = pa.concat_tables(ray.get(blocks))
        spec, self._spec = self._spec, []  # inline: fetch every row anew
        try:
            want, _, _ = self._fetch_validate_inline(wave_df)
        finally:
            self._spec = spec
        want = crawl_mod._with_store_flags(want, self._store_probe())
        by_seq = [("seq", "ascending")]
        assert got.sort_by(by_seq).equals(want.sort_by(by_seq))
        assert got.num_rows == len(wave_df)
        served = crawl_mod._keep_rows(got, covered)
        seen.append((n_spec, n_tasks, tuple(
            pc.sum(served[c]).as_py() or 0
            for c in ("store_text_dup", "store_image_dup"))))
        return blocks, n_spec, n_tasks

    monkeypatch.setattr(crawl_mod.CrawlEngine, "_fetch_validate_distributed",
                        checked)
    for shards in (None, 2):
        seen.clear()
        config = _config(dup_store, inline_wave_threshold=0,
                         per_host_wave_budget=2, extra_link_filter=_no_blog,
                         content_probe_shards=shards)
        res = _run_engine(dup_store, config)
        _assert_match(res, crawl_oracle(dup_store, config))
        assert len(seen) == len(res.metrics)
        assert [m["fetch_tasks"] for m in res.metrics] == [t for _, t, _ in seen]
        assert all(t > 0 for _, t, _ in seen)
        assert sum(n for n, _, _ in seen) > 0  # speculation served rows
        # ... and some of them were flagged as text and as image duplicates
        assert all(sum(f[i] for _, _, f in seen) > 0 for i in (0, 1))


def test_distributed_fetch_runs_no_all_to_all(ray_session, store, monkeypatch):
    """Distributed waves fetch in plain Ray tasks: no ``repartition``
    exchange and no ``union`` with the speculative rows — on a budgeted
    crawl (speculation serves rows) whose resolve and link gate run on
    the driver, no Dataset is built at all."""
    import sys

    import ray.data as rd

    callers = []

    def spy(name):
        method = getattr(rd.Dataset, name)

        def wrapped(self, *args, **kwargs):
            callers.append((name, sys._getframe(1).f_code.co_name))
            return method(self, *args, **kwargs)
        return wrapped

    for name in ("repartition", "union"):
        monkeypatch.setattr(rd.Dataset, name, spy(name))
    config = _config(store, inline_wave_threshold=0, per_host_wave_budget=3)
    res = _run_engine(store, config)
    _assert_match(res, crawl_oracle(store, config))
    assert not any(m["inline"] for m in res.metrics)
    assert sum(m["spec_rows"] for m in res.metrics) > 0
    assert callers == []


def test_checkpoint_resume_distributed_resolve(ray_session, store, tmp_path):
    """The giant-wave delta (content_delta_dir, distributed parquet write)
    must replay into a resumed engine bit-identically — resuming into
    either store mode."""
    from searchengine_ray.pipelines.crawl import CrawlEngine

    full = _run_engine(store, _config(store))
    ckpt = str(tmp_path / "ckpt_dres")
    eng = CrawlEngine(store, _config(store, checkpoint_dir=ckpt, max_waves=3,
                                     inline_wave_threshold=0,
                                     driver_fp_threshold=0))
    eng.run()
    eng.shutdown()
    for kw in ({}, {"content_probe_shards": 2},
               {"inline_wave_threshold": 0, "driver_fp_threshold": 0}):
        eng2 = CrawlEngine.resume(store, _config(store, checkpoint_dir=ckpt, **kw))
        res2 = eng2.run()
        eng2.shutdown()
        pd.testing.assert_frame_equal(
            full.crawl_order.reset_index(drop=True),
            res2.crawl_order.reset_index(drop=True), obj=str(kw))
        assert full.url_seen == res2.url_seen


def test_engine_matches_oracle_speculative_fetch(ray_session, store, inline_threshold):
    """Wave pipelining (speculative next-wave fetch, on without politeness)
    must not change any decision: fetch is pure, probes/gates still run in
    the wave proper.  A budgeted crawl leaves a backlog, so speculation
    serves rows."""
    config = _config(store, per_host_wave_budget=3,
                     inline_wave_threshold=inline_threshold)
    res = _run_engine(store, config)
    _assert_match(res, crawl_oracle(store, config))
    assert sum(m["spec_rows"] for m in res.metrics) > 0


def test_shutdown_cancels_unconsumed_speculation(ray_session, store):
    """A crawl stopped by max_waves leaves the next wave's speculative
    fetches outstanding; shutdown cancels them, so none is left holding a
    CPU that the next engine on a small session needs."""
    import ray

    from searchengine_ray.pipelines.crawl import CrawlEngine

    eng = CrawlEngine(store, _config(store, per_host_wave_budget=3, max_waves=2))
    try:
        eng.run()
        refs = [ref for ref, _seqs in eng._spec]
        assert refs
    finally:
        eng.shutdown()
    _, pending = ray.wait(refs, num_returns=len(refs), timeout=0)
    assert not pending


def test_engine_matches_oracle_speculative_spill_priority(ray_session, store, tmp_path):
    """Speculation over the spill pool + priority queue + probe
    tier — the full 10^10-shape stack at fixture scale."""
    config = _config(store, per_host_wave_budget=4,
                     priority_fn=_research_first, content_probe_shards=2,
                     frontier_spill_dir=str(tmp_path / "spec_pool"),
                     inline_wave_threshold=0)
    res = _run_engine(store, config)
    _assert_match(res, crawl_oracle(store, config))


def test_engine_matches_oracle_extra_link_filter(ray_session, store):
    # the filter lives in this test module, which Ray workers cannot
    # import: the distributed fetch tasks and speculative fetches (budgeted
    # crawl) must still run it
    for kw in ({}, {"inline_wave_threshold": 0, "per_host_wave_budget": 3}):
        config = _config(store, extra_link_filter=_no_blog, **kw)
        res = _run_engine(store, config)
        _assert_match(res, crawl_oracle(store, config))
        assert not any("/blog/" in u for u in res.crawl_order["url_norm"])
    # and without the filter, blog pages ARE crawled (the filter is load-bearing)
    base = _run_engine(store, _config(store))
    assert any("/blog/" in u for u in base.crawl_order["url_norm"])


def test_engine_matches_oracle_max_pages(ray_session, store):
    config = _config(store, max_pages=25)
    res = _run_engine(store, config)
    oracle = crawl_oracle(store, config)
    _assert_match(res, oracle)
    assert len(res.crawl_order) == 25


def test_checkpoint_resume_bit_identical(ray_session, store, tmp_path):
    from searchengine_ray.pipelines.crawl import CrawlEngine

    ckpt = str(tmp_path / "ckpt")
    full_cfg = _config(store, checkpoint_dir=None)
    full = _run_engine(store, full_cfg)

    # run 2 waves, "kill", resume from checkpoint, finish
    part_cfg = _config(store, checkpoint_dir=ckpt, max_waves=2)
    eng = CrawlEngine(store, part_cfg)
    eng.run()
    eng.shutdown()

    resumed_cfg = _config(store, checkpoint_dir=ckpt)
    eng2 = CrawlEngine.resume(store, resumed_cfg)
    res2 = eng2.run()
    eng2.shutdown()

    pd.testing.assert_frame_equal(
        full.crawl_order.reset_index(drop=True),
        res2.crawl_order.reset_index(drop=True),
    )
    assert full.url_seen == res2.url_seen

    # a torn wave must not corrupt resume: manifest is written last, so
    # deleting post-manifest artifacts of the NEXT wave is a no-op here —
    # just verify the manifest guards config drift
    bad_cfg = _config(store, checkpoint_dir=ckpt, content_max_similarity=0.5)
    with pytest.raises(ValueError):
        CrawlEngine.resume(store, bad_cfg)
    # shard-count drift is also guarded (seen-set dumps are shard-local)
    bad_shards = _config(store, checkpoint_dir=ckpt, num_gate_shards=8)
    with pytest.raises(ValueError, match="shard"):
        CrawlEngine.resume(store, bad_shards)


def test_engine_matches_oracle_distributed_append(ray_session, store, tmp_path):
    """Force the fully distributed frontier append (prefix-sum seq
    assignment + streamed pool add) on every wave — ordering must still be
    bit-identical to the oracle, with and without a priority_fn."""
    for kw in ({}, {"priority_fn": _research_first, "per_host_wave_budget": 4}):
        config = _config(store, inline_wave_threshold=0,
                         driver_link_threshold=0,
                         frontier_spill_dir=str(tmp_path / "fp_da"),
                         **kw)
        res = _run_engine(store, config)
        _assert_match(res, crawl_oracle(store, config))


def _outlinks(store, config, url) -> set[str]:
    from searchengine_ray.utils.urls import (is_valid, join_url, normalize,
                                             urldefrag_str)

    resolved = (normalize(urldefrag_str(join_url(url, raw)))
                for raw in store.pages[url]["links"])
    return {u for u in resolved if is_valid(u, config.allowed_domains)}


def test_link_routes_agree(ray_session, store):
    """Distributed waves gate their accepted pages' link candidates from the
    driver (the default) or, forced by driver_link_threshold=0, in the
    groupby(host) shuffle: identical crawl order, seen set and per-wave
    link counts.  The store has URLs whose only discovering parents are
    content-rejected, so both routes must drop rejected pages' candidates
    before any candidate dedup."""
    base = _config(store, inline_wave_threshold=0)
    oracle = crawl_oracle(store, base)
    by_decision = {"accept": set(), "rejected": set()}
    for e in oracle.crawl_order:
        if e["decision"] in ("accept", "text_dup", "image_dup"):
            key = "accept" if e["decision"] == "accept" else "rejected"
            by_decision[key] |= _outlinks(store, base, e["url"])
    assert by_decision["rejected"] - by_decision["accept"]

    results = {}
    for route, kw in (("driver", {}), ("distributed", {"driver_link_threshold": 0})):
        res = _run_engine(store, _config(store, inline_wave_threshold=0, **kw))
        _assert_match(res, oracle)
        assert {m["link_route"]["route"] for m in res.metrics} == {route}
        results[route] = res
    drv, dist = results["driver"], results["distributed"]
    pd.testing.assert_frame_equal(drv.crawl_order, dist.crawl_order)
    assert drv.url_seen == dist.url_seen
    for key in ("link_candidates", "link_decisions"):
        assert [m[key] for m in drv.metrics] == [m[key] for m in dist.metrics]


@pytest.mark.parametrize("extra_filter", [None, _no_blog], ids=["unset", "set"])
def test_explode_links_matches_memo_free_loop(extra_filter, monkeypatch):
    """One engine's link memo serves every batch of its crawl: each
    distinct (page scheme, absolute link) resolves once across the
    batches, relative links once per occurrence, and the rows equal a
    per-occurrence resolve + is_valid + extra filter + robots check of
    every link (the oracle's robots rule: the URL's path starts with one
    of its host's disallowed prefixes)."""
    from urllib.parse import urlsplit

    import pyarrow as pa

    from searchengine_ray.pipelines import crawl
    from searchengine_ray.utils.urls import (get_urlhash, is_valid, join_url,
                                             normalize, urldefrag_str)

    raws = [
        "c", "../up", "./here", "../../x/./y/..", "sub/", "?q=1", "#top", "",
        "blog/rel", "http:rel", "https:rel/x", "http:../dot",
        "//host1.test/p", "//host1.test/a/../b/",
        "http://host0.test/a/#frag", "http://host0.test/dir/",
        "http://HOST0.Test/Path/", "HTTP://host0.test/Up", "http://host0.test/q?",
        "http://host0.test/p;", "http://host0.test/a/../b/./c",
        "http://host2.test/./q/../r/", "https://host2.test/x/../y",
        "https://host1.test/blog/post", "?u=http://host0.test/a",
        "http:///nohost", "mailto:x@host0.test", "ftp://host0.test/f",
        "http://off.example/x", "http://host0.test/doc.pdf",
        "http://host1.test/private/x", "https://host1.test/privateer",
        "http://host2.test", "http://host2.test/",
    ]
    pages = ["http://host0.test/a/b/page", "https://host0.test/a/b/page",
             "http://host1.test/dir/", "https://host1.test", "http://host2.test/x/y/z",
             "https://host2.test/blog/", "http://host0.test/empty"]
    links = [raws[i:] + raws[:i] + raws[::3] for i in range(len(pages) - 1)] + [[]]
    allowed = ("test",)
    robots = {"host1.test": ["/private/"], "host2.test": ["/"],
              "host0.test": ["/b", "/Path"]}
    # three batches of one crawl, both page schemes in each of the first two
    cuts = [(0, 2), (2, 4), (4, len(pages))]

    want = []
    for row, (page, lst) in enumerate(zip(pages, links)):
        for idx, raw in enumerate(lst):
            u = normalize(urldefrag_str(join_url(page, raw)))
            if not is_valid(u, allowed) or (extra_filter is not None
                                            and not extra_filter(u)):
                continue
            host = u.split("/")[2]
            path = "/" + u.split("/", 3)[3] if u.count("/") >= 3 else "/"
            if any(path.startswith(p) for p in robots.get(host, ())):
                continue
            want.append((row, idx, u, get_urlhash(u), host))

    resolves = []

    def counting_join(base, link):
        resolves.append(link)
        return join_url(base, link)

    monkeypatch.setattr(crawl, "join_url", counting_join)
    memo = crawl._LinkMemo(allowed, extra_filter, robots)
    cols = ["row", "link_idx", "url_norm", "url_hash", "host"]
    got = []
    for a, b in cuts:
        t = crawl._explode_links(
            pa.table({"url_norm": pages[a:b], "links": links[a:b]}), memo)
        got += [(r + a, *rest) for r, *rest in zip(*(t[c].to_pylist() for c in cols))]
    assert got == want
    # every drop reason fires in the corpus
    kept = {(r, i) for r, i, *_ in want}
    robot_drops = [(r, i) for r, lst in enumerate(links) for i, raw in enumerate(lst)
                   if (r, i) not in kept and is_valid(
                       normalize(urldefrag_str(join_url(pages[r], raw))), allowed)
                   and "blog" not in raw]
    assert robot_drops
    # each distinct (scheme, absolute link) resolved once for all batches;
    # relative links once per occurrence
    def netloc_bearing(raw):
        parts = urlsplit(raw)
        return "://" in raw and bool(parts.scheme and parts.netloc)

    absolute = {(p.split(":")[0], raw) for p, lst in zip(pages, links)
                for raw in lst if netloc_bearing(raw)}
    relative = sum(not netloc_bearing(raw) for lst in links for raw in lst)
    assert len(resolves) == len(absolute) + relative
    # a second crawl pass over the same pages resolves no absolute link
    resolves.clear()
    for a, b in cuts:
        crawl._explode_links(pa.table({"url_norm": pages[a:b], "links": links[a:b]}),
                             memo)
    assert len(resolves) == relative
    # the corpus exercises dot segments kept in absolute links, and links
    # that resolve differently from http and https pages
    assert any("/../" in u or "/./" in u for _, _, u, _, _ in want)
    by_scheme = {(pages[r].split(":")[0], links[r][i]): u for r, i, u, _, _ in want}
    assert any(u != by_scheme.get(("https", raw)) for (sch, raw), u in by_scheme.items()
               if sch == "http" and "://" in raw)


def _dedup_candidates_pandas(df):
    """The pandas form of ``_dedup_candidates`` the numpy one replaced:
    the reference it is pinned against."""
    import numpy as np

    key = ["url_hash", "url_norm"]
    if "occurrences" not in df:
        df = df.assign(occurrences=np.ones(len(df), dtype=np.int64))
    if df.empty:
        return df
    df = df.sort_values(["parent_rank", "link_idx"], kind="stable")
    occ = df.groupby(key, sort=False)["occurrences"].sum().reset_index()
    firsts = (df.drop_duplicates(key, keep="first")
              .drop(columns=["occurrences"]).merge(occ, on=key))
    firsts["occurrences"] = firsts["occurrences"].astype(np.int64)
    return firsts.sort_values(["parent_rank", "link_idx"], kind="stable")


@pytest.mark.parametrize("seed", range(6))
def test_dedup_candidates_matches_pandas(seed):
    """The numpy ``_dedup_candidates`` (lexsort, factorize, bincount)
    equals the pandas groupby form on seeded fuzz frames: shuffled rows,
    http/https siblings sharing one ``url_hash`` and, as the giant-wave
    gate's batch-local pre-dedup leaves them, pre-counted
    ``occurrences``."""
    import numpy as np

    from searchengine_ray.pipelines.crawl import _dedup_candidates
    from searchengine_ray.utils.urls import get_urlhash

    rng = np.random.RandomState(seed)
    n = int(rng.randint(1, 400))
    paths = [f"host{rng.randint(0, 4)}.test/p{rng.randint(0, 30)}"
             for _ in range(n)]
    urls = [("http://" if rng.rand() < 0.5 else "https://") + p for p in paths]
    ranks = rng.randint(0, 40, size=n)
    df = pd.DataFrame({
        "parent_rank": ranks.astype(np.int64),
        "parent_seq": (ranks + 100).astype(np.int64),
        "link_idx": np.zeros(n, dtype=np.int32),
        "url_norm": urls,
        "url_hash": [get_urlhash(u) for u in urls],
        "host": [u.split("/")[2] for u in urls],
    })
    # (parent_rank, link_idx) is unique, as it is for real candidates
    df["link_idx"] = df.groupby("parent_rank").cumcount().astype(np.int32)
    df = df.sample(frac=1.0, random_state=seed).reset_index(drop=True)
    assert df.groupby("url_hash")["url_norm"].nunique().max() == 2
    frames = [df]
    if seed % 2:
        frames.append(df.assign(occurrences=rng.randint(1, 5, size=n).astype(np.int64)))
    frames.append(df.iloc[:0])
    for frame in frames:
        got = _dedup_candidates(frame)
        want = _dedup_candidates_pandas(frame)
        pd.testing.assert_frame_equal(got.reset_index(drop=True),
                                      want.reset_index(drop=True))


def test_engine_matches_oracle_spill_pool(ray_session, store, tmp_path):
    """The spill frontier pool (sorted runs + per-host cursors) must
    reproduce the oracle exactly (slice semantics identical to the
    in-memory pool)."""
    config = _config(store, per_host_wave_budget=3,
                     frontier_spill_dir=str(tmp_path / "fpool"))
    res = _run_engine(store, config)
    _assert_match(res, crawl_oracle(store, config))


def test_engine_matches_oracle_spill_pool_priority(ray_session, store, tmp_path):
    config = _config(store, priority_fn=_research_first, per_host_wave_budget=4,
                     frontier_spill_dir=str(tmp_path / "fpool_prio"))
    res = _run_engine(store, config)
    _assert_match(res, crawl_oracle(store, config))


def test_checkpoint_resume_spill_pool(ray_session, store, tmp_path):
    """Checkpoint written by the spill pool resumes bit-identically — into a
    spill pool AND into the in-memory pool (the snapshot layout is
    pool-independent)."""
    from searchengine_ray.pipelines.crawl import CrawlEngine

    full = _run_engine(store, _config(store))
    ckpt = str(tmp_path / "ckpt_spill")
    eng = CrawlEngine(store, _config(
        store, checkpoint_dir=ckpt, max_waves=2,
        frontier_spill_dir=str(tmp_path / "sp1")))
    eng.run()
    eng.shutdown()

    for kw in ({"frontier_spill_dir": str(tmp_path / "sp2")}, {}):
        eng2 = CrawlEngine.resume(store, _config(store, checkpoint_dir=ckpt, **kw))
        res2 = eng2.run()
        eng2.shutdown()
        pd.testing.assert_frame_equal(
            full.crawl_order.reset_index(drop=True),
            res2.crawl_order.reset_index(drop=True))
        assert full.url_seen == res2.url_seen


def test_resume_with_priority_queue(ray_session, store, tmp_path):
    """Priority scheduling must survive checkpoint/resume (the pool's
    priority column round-trips; the seq order stays bit-identical)."""
    from searchengine_ray.pipelines.crawl import CrawlEngine

    ckpt = str(tmp_path / "ckpt_prio")
    cfg_kw = dict(priority_fn=_research_first, per_host_wave_budget=4)
    full = _run_engine(store, _config(store, **cfg_kw))

    eng = CrawlEngine(store, _config(store, checkpoint_dir=ckpt, max_waves=3, **cfg_kw))
    eng.run()
    eng.shutdown()
    eng2 = CrawlEngine.resume(store, _config(store, checkpoint_dir=ckpt, **cfg_kw))
    res2 = eng2.run()
    eng2.shutdown()
    pd.testing.assert_frame_equal(full.crawl_order.reset_index(drop=True),
                                  res2.crawl_order.reset_index(drop=True))


def test_pages_table_readback(ray_session, store, tmp_path):
    """The persisted pages table must contain exactly the accepted pages
    with valid payloads (image_id content-addressing, phash integrity)."""
    import glob
    from hashlib import sha256 as _sha

    import pyarrow.parquet as pq

    from searchengine_ray.functions.imagecodec import decode as _dec
    from searchengine_ray.functions.phash import phash64 as _ph
    from searchengine_ray.pipelines.crawl import CrawlEngine

    ckpt = str(tmp_path / "ckpt_pages")
    eng = CrawlEngine(store, _config(store, checkpoint_dir=ckpt))
    res = eng.run()
    eng.shutdown()

    files = sorted(glob.glob(os.path.join(ckpt, "pages", "wave=*", "*.parquet")))
    tables = [pq.read_table(f) for f in files if os.path.getsize(f) > 0]
    import pyarrow as pa2

    pages = pa2.concat_tables(tables)
    assert sorted(pages["url_norm"].to_pylist()) == sorted(res.accepted_pages)
    for i in range(min(20, pages.num_rows)):
        blob = pages["bytes"][i].as_py()
        fmt = pages["fmt"][i].as_py()
        assert pages["image_id"][i].as_py() == _sha(blob).hexdigest()
        px = _dec(blob, fmt)
        assert _ph(px) == pages["phash"][i].as_py()
        assert px.shape[1] == pages["w"][i].as_py()


def test_larger_store_conformance(ray_session):
    """400-page universe: trap families, near-dups and skew at 5× the base
    fixture — the oracle is brute-force, the engine is not."""
    big = make_store(n_pages=400, seed=11)
    config = CrawlConfig(seed_urls=list(big.seeds), allowed_domains=("test",),
                         num_gate_shards=4, fetch_concurrency=4,
                         per_host_wave_budget=25, state_actor_num_cpus=0)
    res = _run_engine(big, config)
    _assert_match(res, crawl_oracle(big, config))


def test_messy_seed_variants(ray_session, store):
    """Seeds that are hash-duplicates of each other (scheme/slash/fragment
    variants) collapse to one frontier entry, exactly as the oracle's."""
    u = store.seeds[0]
    messy = [u, u + "/", u.replace("https://", "http://"), u + "#frag",
             store.seeds[1]]
    config = _config(store, max_waves=2)
    config.seed_urls = messy
    res = _run_engine(store, config)
    oracle = crawl_oracle(store, config)
    _assert_match(res, oracle)
    assert (res.crawl_order["wave"] == 0).sum() == 2  # two distinct seeds


@pytest.mark.parametrize("fuzz_seed,knobs", [
    (101, dict(n_pages=150, n_hosts=3, fanout=8, frac_near_dup_caption=0.3,
               frac_near_dup_image=0.2, frac_dead=0.2, trap_len=12)),
    (202, dict(n_pages=200, n_hosts=10, fanout=2, frac_near_dup_caption=0.02,
               frac_near_dup_image=0.02, frac_dead=0.02)),
    (303, dict(n_pages=120, n_hosts=2, fanout=6, frac_near_dup_caption=0.5,
               frac_near_dup_image=0.0, frac_dead=0.0)),
])
def test_conformance_fuzz(ray_session, fuzz_seed, knobs):
    """Randomized universes with extreme dup/trap/dead fractions — engine
    vs oracle on ordering + URL-seen set, budgeted and unbudgeted."""
    fuzz_store = make_store(seed=fuzz_seed, **knobs)
    for budget, pf, lf in ((None, None, None), (7, None, None),
                           (5, _research_first, _no_blog)):
        config = CrawlConfig(seed_urls=list(fuzz_store.seeds),
                             allowed_domains=("test",), num_gate_shards=3,
                             fetch_concurrency=2, per_host_wave_budget=budget,
                             priority_fn=pf, extra_link_filter=lf,
                             state_actor_num_cpus=0)
        res = _run_engine(fuzz_store, config)
        _assert_match(res, crawl_oracle(fuzz_store, config))


def test_crawl_report_one_row_per_wave(ray_session, store, tmp_path):
    """tools/crawl_report.py renders a checkpoint's metrics/wave=*.json as
    one row per wave: routes, stage spans, decisions and driver RSS."""
    import subprocess
    import sys

    ckpt = str(tmp_path / "ckpt_report")
    _run_engine(store, _config(store, checkpoint_dir=ckpt, max_waves=3))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, os.path.join(root, "tools", "crawl_report.py"), ckpt],
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    header, *rows = out.stdout.strip().splitlines()
    cols = header.split()
    for c in ("wave", "fetched", "inline", "resolve_route", "link_route",
              "slice_s", "fetch_validate_s", "resolve_s", "links_s",
              "spec_rows", "fetch_tasks", "page_accept", "link_accept",
              "gate_dedup_rate",
              "gate_at", "handoff_rows", "driver_rss_mb"):
        assert c in cols, (c, cols)
    assert [r.split()[0] for r in rows] == ["0", "1", "2"]
    assert all(len(r.split()) == len(cols) for r in rows)


def test_resume_survives_torn_wave(ray_session, store, tmp_path):
    """A crash mid-wave leaves partial post-manifest artifacts; resume must
    ignore them and still reproduce the full run bit-identically."""
    import numpy as np
    import pyarrow as pq_pa
    import pyarrow.parquet as pq

    from searchengine_ray.pipelines.crawl import CrawlEngine

    ckpt = str(tmp_path / "ckpt")
    full = _run_engine(store, _config(store))

    eng = CrawlEngine(store, _config(store, checkpoint_dir=ckpt, max_waves=2))
    eng.run()
    eng.shutdown()

    # simulate the torn wave the manifest never acknowledged: garbage in
    # wave-3 artifact locations
    torn_pages = os.path.join(ckpt, "pages", "wave=2.tmp")
    os.makedirs(torn_pages, exist_ok=True)
    with open(os.path.join(torn_pages, "part-0.parquet"), "wb") as f:
        f.write(b"not parquet")
    pq.write_table(
        pq_pa.table({"seq": pq_pa.array(np.array([999], dtype=np.int64))}),
        os.path.join(ckpt, "crawl_order", "wave=2.parquet.tmp"),
    )

    eng2 = CrawlEngine.resume(store, _config(store, checkpoint_dir=ckpt))
    res2 = eng2.run()
    eng2.shutdown()
    pd.testing.assert_frame_equal(
        full.crawl_order.reset_index(drop=True),
        res2.crawl_order.reset_index(drop=True),
    )
    assert full.url_seen == res2.url_seen


def test_resume_at_every_boundary(ray_session, store, tmp_path):
    """Kill-and-resume at several wave boundaries; every resumed run must
    equal the uninterrupted crawl bit-for-bit."""
    from searchengine_ray.pipelines.crawl import CrawlEngine

    full = _run_engine(store, _config(store))
    for cut in (1, 3, 5):
        ckpt = str(tmp_path / f"ckpt_{cut}")
        eng = CrawlEngine(store, _config(store, checkpoint_dir=ckpt, max_waves=cut))
        eng.run()
        eng.shutdown()
        eng2 = CrawlEngine.resume(store, _config(store, checkpoint_dir=ckpt))
        res2 = eng2.run()
        eng2.shutdown()
        pd.testing.assert_frame_equal(
            full.crawl_order.reset_index(drop=True),
            res2.crawl_order.reset_index(drop=True), obj=f"cut={cut}")
        assert full.url_seen == res2.url_seen, cut


def test_politeness_pacing(ray_session, store):
    """With one fetch actor and a delay, same-host fetches must be spaced."""
    import time

    from searchengine_ray.pipelines.crawl import CrawlEngine

    config = _config(store, politeness_delay=0.05, fetch_concurrency=1,
                     max_waves=2)
    t0 = time.monotonic()
    eng = CrawlEngine(store, config)
    eng.run()
    fetched = sum(m["fetched"] for m in eng.metrics)
    elapsed = time.monotonic() - t0
    eng.shutdown()
    # at least (n-1) spacing intervals for the dominant host must have passed
    assert elapsed >= 0.05 * 2, (elapsed, fetched)


def test_procedural_store_matches_oracle(ray_session):
    """The procedural (URL-derived) fetch backend must produce the same
    crawl as the oracle run over the materialized page dict."""
    from searchengine_ray.pipelines.crawl import CrawlEngine
    from searchengine_ray.sources.fixtures import (
        ProceduralSpec,
        ProceduralStore,
        SyntheticStore,
        procedural_page,
    )

    spec = ProceduralSpec(n_pages=300, n_hosts=4, chunk=32, img_edge=24, seed=9)
    pstore = ProceduralStore(spec)
    config = CrawlConfig(seed_urls=list(pstore.seeds), allowed_domains=("test",),
                         num_gate_shards=4, fetch_concurrency=2,
                         state_actor_num_cpus=0)
    eng = CrawlEngine(pstore, config)
    try:
        res = eng.run()
    finally:
        eng.shutdown()

    mat = SyntheticStore()
    for i in range(spec.n_pages):
        url = spec.url(i)
        mat.pages[url] = procedural_page(spec, url)
    mat.seeds = list(pstore.seeds)
    oracle = crawl_oracle(mat, config)
    _assert_match(res, oracle)
    assert len(res.crawl_order) == spec.n_pages  # hub topology reaches all


def test_politeness_actor_path_matches_oracle(ray_session, store):
    """politeness_delay > 0 switches fetch to the pacing actor pool; the
    crawl must still match the oracle exactly (pacing never reorders)."""
    config = _config(store, politeness_delay=0.002, fetch_concurrency=2,
                     inline_wave_threshold=0, max_waves=3)
    res = _run_engine(store, config)
    oracle = crawl_oracle(store, _config(store, max_waves=3))
    _assert_match(res, oracle)


def test_no_speculation_under_politeness(ray_session, store, monkeypatch,
                                         inline_threshold):
    """Speculative fetches would bypass the per-host pacing clocks, so a
    crawl with politeness_delay > 0 launches none — on a budgeted crawl,
    whose backlog speculation serves without politeness (above) — and
    still matches the oracle."""
    from searchengine_ray.pipelines import crawl as crawl_mod

    class NoSpeculation:
        @staticmethod
        def remote(*args, **kwargs):
            raise AssertionError("speculative fetch launched under politeness")

    # speculation submits the fetch task every distributed wave shares,
    # which the paced route never runs
    monkeypatch.setattr(crawl_mod, "_fetch_validate_task", NoSpeculation)
    monkeypatch.setattr(crawl_mod.CrawlEngine, "_launch_speculation",
                        NoSpeculation.remote)
    config = _config(store, politeness_delay=0.002, per_host_wave_budget=3,
                     inline_wave_threshold=inline_threshold, max_waves=3)
    res = _run_engine(store, config)
    _assert_match(res, crawl_oracle(store, config))
    assert [m["spec_rows"] for m in res.metrics] == [0, 0, 0]


def test_fixture_payload_invariants(store):
    """FIXTURES.md F1: decode round-trip vs originals, PSNR≥40 for lossy,
    caption + phash stability."""
    import numpy as np

    from searchengine_ray.functions.imagecodec import decode, psnr
    from searchengine_ray.functions.phash import phash64

    for url, rec in list(store.pages.items())[:40]:
        px = decode(rec["bytes"], rec["fmt"])
        orig = store.originals[url]
        assert px.shape == orig.shape
        if rec["fmt"] == "png":
            np.testing.assert_array_equal(px, orig)
        else:
            assert psnr(orig, px) >= 40.0
        assert phash64(px) == rec["phash"]
        assert isinstance(rec["caption"], str) and rec["caption"]


def test_resume_restores_decision_counters(ray_session, store, tmp_path):
    """The per-partition dedup-rate lineage (gate decision counters) must
    survive a checkpoint/resume: a resumed crawl's final counters equal a
    straight-through run's — not a since-resume view (each wave metric
    records the cumulative counters; resume restores the last one)."""
    from searchengine_ray.pipelines.crawl import CrawlEngine

    def counters(eng):
        return [s["decisions"] for s in eng.gate_memory_stats()]

    eng_full = CrawlEngine(store, _config(store))
    eng_full.run()
    full_dec = counters(eng_full)
    eng_full.shutdown()
    assert sum(d["accept"] + d["dup"] + d["trap"] for d in full_dec) > 0

    ckpt = str(tmp_path / "ckpt_dec")
    eng = CrawlEngine(store, _config(store, checkpoint_dir=ckpt, max_waves=2))
    eng.run()
    eng.shutdown()
    eng2 = CrawlEngine.resume(store, _config(store, checkpoint_dir=ckpt))
    eng2.run()
    res_dec = counters(eng2)
    eng2.shutdown()
    assert res_dec == full_dec


def test_shutdown_returns_state_actor_cpu_reservation(ray_session, store):
    """shutdown must WAIT until the raylet's available CPU actually rises
    by the engine's state-actor reservation (actor death and resource
    release are separate events; a leak here deadlocks 1-CPU Ray Data
    tasks on small sessions — the r4 suite-hang root cause).  Uses the
    DEFAULT (non-zero) reservations, unlike every other test here."""
    import time as _time

    import ray as _ray

    from searchengine_ray.pipelines.crawl import CrawlEngine

    # one engine's default reservation (0.5 per gate host; the 4-CPU
    # fixture gets one host for its 4 logical shards) fits the fixture;
    # quiesce first so the baseline is stable
    deadline = _time.monotonic() + 30
    while (_ray.available_resources().get("CPU", 0.0) < 3.9
           and _time.monotonic() < deadline):
        _time.sleep(0.2)
    before = _ray.available_resources().get("CPU", 0.0)
    cfg = _config(store, max_waves=1)
    cfg = type(cfg)(**{**cfg.__dict__, "state_actor_num_cpus": None})
    eng = CrawlEngine(store, cfg)
    assert len(eng.gate_hosts) == 1
    assert eng._actor_cpu_reserved == 0.5
    eng.run()
    eng.shutdown()
    after = _ray.available_resources().get("CPU", 0.0)
    assert after >= before - 0.01, (before, after)


def test_gate_host_count_rule():
    """One gate-host process per 4 cluster CPUs, at most one per logical
    shard: the bench's 8 processes at 32 CPUs, one on small hosts."""
    from searchengine_ray.pipelines.crawl import _gate_host_count

    for cpus, shards, hosts in [(1, 8, 1), (4, 8, 1), (8, 8, 2), (32, 8, 8),
                                (64, 4, 4)]:
        assert _gate_host_count(cpus, shards) == hosts, (cpus, shards)


@pytest.mark.parametrize("hosts_before,hosts_after", [(1, 4), (4, 1)])
def test_resume_under_other_gate_placement(ray_session, store, tmp_path,
                                           monkeypatch, hosts_before,
                                           hosts_after):
    """The logical shard, not the process, is the checkpoint unit: a crawl
    checkpointed with H gate hosts resumes under a different H and still
    matches the oracle, with the same per-shard url_seen tables."""
    from searchengine_ray.pipelines import crawl as crawl_mod
    from searchengine_ray.sources import storage

    def run(n_hosts, resume=False, **kw):
        monkeypatch.setattr(crawl_mod, "_gate_host_count",
                            lambda cpus, shards: n_hosts)
        cfg = _config(store, **kw)
        eng = (crawl_mod.CrawlEngine.resume if resume
               else crawl_mod.CrawlEngine)(store, cfg)
        assert len(eng.gate_hosts) == n_hosts
        try:
            return eng.run()
        finally:
            eng.shutdown()

    ckpt = str(tmp_path / "ckpt")
    run(hosts_before, checkpoint_dir=ckpt, max_waves=2)
    res = run(hosts_after, resume=True, checkpoint_dir=ckpt)
    _assert_match(res, crawl_oracle(store, _config(store)))
    straight = run(hosts_before)
    assert res.shard_seen_counts == straight.shard_seen_counts
    assert [storage.read_table(os.path.join(res.seen_dir, f"shard={i}")).num_rows
            for i in range(4)] == res.shard_seen_counts


@pytest.mark.parametrize("threshold", [None, 0], ids=["default", "distributed"])
def test_engines_with_different_robots_rules(ray_session, store, threshold):
    """Robots rules are engine data broadcast per engine: two engines in
    one session on stores with different rules, alternating waves, each
    match their own oracle on both wave routes (a per-worker broadcast
    memo must never serve one engine's rules to the other)."""
    from searchengine_ray.pipelines.crawl import CrawlEngine

    other = make_store(n_pages=80, seed=42)
    other.robots = {"host0.test": ["/research/"]}
    stores = [store, other]
    kw = {} if threshold is None else {"inline_wave_threshold": threshold}
    oracles = [crawl_oracle(s, _config(s, **kw)) for s in stores]
    assert oracles[0].crawl_order != oracles[1].crawl_order
    engines = [CrawlEngine(s, _config(s, **kw)) for s in stores]
    try:
        running = list(engines)
        while running:
            running = [e for e in running if e.run_wave()]
        for eng, oracle in zip(engines, oracles):
            _assert_match(eng.result(), oracle)
    finally:
        for eng in engines:
            eng.shutdown()


def test_engines_with_different_link_rules_share_one_worker(tmp_path):
    """The fetch tasks' link memo is per engine: two engines over ONE store
    with different ``allowed_domains``, ``extra_link_filter`` and
    ``use_robots``, alternating distributed waves in a 1-CPU session (so
    their fetch tasks share one worker process, whose cache then holds
    both engines' memos), each match their own oracle.  A memo keyed on
    the page and link alone would serve one engine's verdicts to the
    other."""
    import subprocess
    import sys
    import textwrap

    script = textwrap.dedent("""
        import ray
        from searchengine_ray.config import CrawlConfig
        from searchengine_ray.pipelines import crawl
        from searchengine_ray.pipelines.crawl_oracle import crawl_oracle
        from searchengine_ray.sources.fixtures import make_store

        def no_blog(url):
            return "/blog/" not in url

        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 logging_level="ERROR")
        ray.data.DataContext.get_current().enable_progress_bars = False
        store = make_store(n_pages=80, seed=42)
        common = dict(seed_urls=list(store.seeds), num_gate_shards=2,
                      fetch_concurrency=1, inline_wave_threshold=0,
                      state_actor_num_cpus=0)
        configs = [
            CrawlConfig(allowed_domains=("test",), use_robots=True, **common),
            CrawlConfig(allowed_domains=("host0.test", "host1.test",
                                         "host3.test"),
                        extra_link_filter=no_blog, use_robots=False, **common)]
        oracles = [crawl_oracle(store, c) for c in configs]
        assert oracles[0].crawl_order != oracles[1].crawl_order
        assert any("/private/" in e["url"] for e in oracles[1].crawl_order)
        engines = [crawl.CrawlEngine(store, c) for c in configs]
        try:
            running = list(engines)
            while running:
                running = [e for e in running if e.run_wave()]
            for eng, oracle in zip(engines, oracles):
                res = eng.result()
                got = res.crawl_order
                want = [(e["seq"], e["url"], e["decision"])
                        for e in oracle.crawl_order]
                assert list(zip(got["seq"], got["url_norm"],
                                got["decision"])) == want
                assert res.url_seen == oracle.url_seen

            @ray.remote
            def link_memos():
                return sorted(k for k in crawl._BROADCAST_CACHE
                              if k.startswith("links:"))

            assert ray.get(link_memos.remote()) == sorted(
                e._link_spec[0] for e in engines)
        finally:
            for eng in engines:
                eng.shutdown()
            ray.shutdown()
        print("ok")
    """)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run([sys.executable, "-c", script], cwd=root,
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-4000:]
    assert out.stdout.strip().splitlines()[-1] == "ok"


def test_config_hash_pinned():
    """A checkpoint resumes only under its manifest's config_hash, so the
    hash of the semantic knobs must not move when execution knobs are added
    or deleted: checkpoints written by earlier engines keep resuming."""
    assert CrawlConfig().config_hash() == "987a701b3aecf8dc"
    assert CrawlConfig(seed_urls=["https://a.test/"], allowed_domains=("test",),
                       per_host_wave_budget=8, max_pages=300
                       ).config_hash() == "26b27fed94b78568"


def test_shutdown_kills_unanswered_gate_host(ray_session, store, tmp_path,
                                             monkeypatch):
    """With no CPU reserved for state actors there is no baseline to wait
    for, so shutdown does not wait for a gate host that never answered: it
    returns at once, the actor is DEAD and its process is gone."""
    import time

    import ray

    from searchengine_ray.pipelines import crawl
    from searchengine_ray.state.gates import HostGateShard

    pid_file = str(tmp_path / "host.pid")

    class NeverAnswers(HostGateShard):
        def __init__(self):
            with open(pid_file + ".tmp", "w") as f:
                f.write(str(os.getpid()))
            os.replace(pid_file + ".tmp", pid_file)
            time.sleep(600)

    monkeypatch.setattr(crawl, "HostGateActor", ray.remote(NeverAnswers))
    eng = crawl.CrawlEngine(store, _config(store))
    assert len(eng.gate_hosts) == 1
    deadline = time.monotonic() + 60
    while not os.path.exists(pid_file):
        assert time.monotonic() < deadline, "gate host never started"
        time.sleep(0.05)
    with open(pid_file) as f:
        pid = int(f.read())
    actor_id = eng.gate_hosts[0]._actor_id.hex()
    t0 = time.monotonic()
    eng.shutdown()
    assert time.monotonic() - t0 < 3.0

    def gone() -> bool:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        return False

    deadline = time.monotonic() + 20
    while not (gone() and ray._private.state.actors(actor_id)["State"] == "DEAD"):
        assert time.monotonic() < deadline, "gate host still running"
        time.sleep(0.1)


@pytest.mark.parametrize("actor", ["gate", "probe", "gate_before_handoff"])
def test_state_actor_loss_fails_loudly_and_resumes(ray_session, store, tmp_path,
                                                   monkeypatch, actor):
    """Losing one state actor (a gate host, or a probe shard in tier mode)
    must fail the next wave loudly — never carry on with an empty shard,
    which would re-admit seen URLs — and the last committed checkpoint must
    then resume to the uninterrupted crawl.  The gate host is killed after
    its handoff (forced at wave 0 through the test hook) or before it: a
    host not handed over yet holds no state, and its loss raises at the
    forced handoff."""
    import ray

    from searchengine_ray.pipelines.crawl import CrawlEngine

    kw = {"content_probe_shards": 2} if actor == "probe" else {}
    full = _run_engine(store, _config(store, **kw))
    ckpt = str(tmp_path / "ckpt")
    before = actor == "gate_before_handoff"
    _handoff_at(monkeypatch, None if before else 0)
    eng = CrawlEngine(store, _config(store, checkpoint_dir=ckpt, **kw))
    try:
        assert eng.run_wave() and eng.run_wave()
        assert bool(eng._gate_local) == before
        ray.kill(eng.probe_tier[0] if actor == "probe" else eng.gate_hosts[0])
        with pytest.raises(ray.exceptions.RayActorError):
            eng._handoff_all() if before else eng.run_wave()
    finally:
        eng.shutdown()
    eng2 = CrawlEngine.resume(store, _config(store, checkpoint_dir=ckpt, **kw))
    try:
        res = eng2.run()
    finally:
        eng2.shutdown()
    pd.testing.assert_frame_equal(full.crawl_order.reset_index(drop=True),
                                  res.crawl_order.reset_index(drop=True))
    assert full.url_seen == res.url_seen


def _handoff_at(monkeypatch, k):
    """The handoff test hook: the gate-host processes count as answering
    from wave ``k`` on, never when ``k`` is None (only a forced handoff
    then reaches them)."""
    from searchengine_ray.pipelines.crawl import CrawlEngine

    monkeypatch.setattr(CrawlEngine, "_host_ready",
                        lambda self, h: k is not None and self.wave >= k)


def _seed_count(config) -> int:
    from searchengine_ray.utils.urls import get_urlhash, normalize, urldefrag_str

    return len({get_urlhash(normalize(urldefrag_str(u))) for u in config.seed_urls})


@pytest.mark.parametrize("kw", [
    {},
    {"inline_wave_threshold": 0},
    {"spill": True},
    {"priority_fn": _research_first, "per_host_wave_budget": 4},
], ids=["inline", "distributed", "spill", "priority_budget"])
def test_handoff_at_every_wave_boundary(ray_session, store, tmp_path,
                                        monkeypatch, kw):
    """Until the gate-host processes answer, driver-held copies of the
    hosts gate, and the wave loop then hands their admits over with
    ``restore_replay``: the crawl equals the oracle with the handoff at
    every wave boundary and with none (the crawl, result()'s seen-set dump
    included, ends on the driver).  Each wave records where its host gate
    ran, and the handoff wave the rows it replayed: every URL admitted
    before it."""
    from dataclasses import replace

    kw = dict(kw)
    spill = kw.pop("spill", False)
    config = _config(store, **kw)
    oracle = crawl_oracle(store, config)
    n = max(e["wave"] for e in oracle.crawl_order) + 1
    for k in [*range(n), None]:
        _handoff_at(monkeypatch, k)
        if spill:
            config = replace(config, frontier_spill_dir=str(tmp_path / f"pool_{k}"))
        res = _run_engine(store, config)
        _assert_match(res, oracle)
        at = n if k is None else k
        assert [m["gate_at"] for m in res.metrics] == \
            ["driver"] * at + ["hosts"] * (n - at), k
        handed = {m["wave"]: m["handoff_rows"] for m in res.metrics
                  if "handoff_rows" in m}
        assert handed == ({} if k is None else {k: sum(
            res.metrics[k - 1]["shard_seen_counts"]) if k else _seed_count(config)})


def test_resume_hands_off_mid_run(ray_session, store, tmp_path, monkeypatch):
    """A resume whose checkpoint holds at most ``driver_link_threshold``
    admits rebuilds the gates on the driver; the handoff then lands mid-run
    and carries the rebuilt rows, the new admits and the decision counters:
    bit-identical to the uninterrupted crawl."""
    from searchengine_ray.pipelines.crawl import CrawlEngine

    full = _run_engine(store, _config(store))
    ckpt = str(tmp_path / "ckpt")
    _handoff_at(monkeypatch, None)
    _run_engine(store, _config(store, checkpoint_dir=ckpt, max_waves=2))
    _handoff_at(monkeypatch, 4)
    eng = CrawlEngine.resume(store, _config(store, checkpoint_dir=ckpt))
    try:
        assert eng._gate_local
        res = eng.run()
    finally:
        eng.shutdown()
    pd.testing.assert_frame_equal(full.crawl_order.reset_index(drop=True),
                                  res.crawl_order.reset_index(drop=True))
    assert full.url_seen == res.url_seen
    ms = res.metrics
    assert [m["gate_at"] for m in ms] == ["driver"] * 2 + ["hosts"] * (len(ms) - 2)
    assert ms[2]["wave"] == 4
    assert ms[2]["handoff_rows"] == sum(ms[1]["shard_seen_counts"])
    assert ms[-1]["shard_decisions"] == full.metrics[-1]["shard_decisions"]


@pytest.mark.parametrize("kw", [
    {"driver_link_threshold": 0},
    {"driver_link_threshold": 0, "inline_wave_threshold": 0},
    {"inline_wave_threshold": 0, "driver_fp_threshold": 0},
], ids=["zero_bound", "zero_bound_giant_links", "giant_links"])
def test_forced_handoff(ray_session, store, monkeypatch, kw):
    """With the hook never firing, a handoff is still forced: at once when
    ``driver_link_threshold`` is 0 (the driver may hold no gate rows — the
    seed waits for the hosts), and before the first giant-wave
    ``groupby(host)`` gate, whose tasks call the host processes."""
    from searchengine_ray.pipelines.crawl import CrawlEngine

    _handoff_at(monkeypatch, None)
    config = _config(store, **kw)
    eng = CrawlEngine(store, config)
    try:
        assert bool(eng._gate_local) == (kw.get("driver_link_threshold") != 0)
        res = eng.run()
    finally:
        eng.shutdown()
    _assert_match(res, crawl_oracle(store, config))
    assert {m["gate_at"] for m in res.metrics} == {"hosts"}
    assert res.metrics[0]["handoff_rows"] == (
        0 if kw.get("driver_link_threshold") == 0 else _seed_count(config))
    if kw.get("inline_wave_threshold") == 0:
        assert {m["link_route"]["route"] for m in res.metrics} == {"distributed"}


def test_handoff_ships_the_driver_held_state(ray_session, store, monkeypatch):
    """The handoff ships the driver-held host's cores to its process, which
    builds no gate state of its own: with the handoff forced at wave 1,
    each process's per-shard ``memory_stats`` (seen count, bytes and
    segments, trap groups and decision counters) equals the driver-held
    host's taken just before the handoff, and the crawl equals the
    oracle."""
    import ray

    from searchengine_ray.pipelines.crawl import CrawlEngine

    _handoff_at(monkeypatch, 1)
    handoff = CrawlEngine._handoff
    handed = []

    def spy(self, h):
        shards = [(s, None) for s in self._gate_local[h].cores]
        before = self._gate_local[h].memory_stats(shards)
        handoff(self, h)
        handed.append((before, ray.get(
            self.gate_hosts[h].memory_stats.remote(shards))))

    monkeypatch.setattr(CrawlEngine, "_handoff", spy)
    config = _config(store)
    res = _run_engine(store, config)
    _assert_match(res, crawl_oracle(store, config))
    assert sorted(st["shard_id"] for before, _ in handed for st in before) == \
        list(range(config.num_gate_shards))
    assert sum(st["seen_count"] for before, _ in handed for st in before) == \
        sum(res.metrics[0]["shard_seen_counts"])
    for before, after in handed:
        assert after == before


def test_result_owns_its_temporary_seen_set(ray_session, store):
    """Without a checkpoint the seen set is dumped into a temporary
    directory that lives exactly as long as its ``CrawlResult``."""
    import gc

    config = _config(store)
    oracle = crawl_oracle(store, config)
    res = _run_engine(store, config)
    seen_dir = res.seen_dir
    assert res.url_seen == oracle.url_seen
    assert res.seen_hashes_dataset().count() == len(oracle.url_seen)
    del res
    gc.collect()
    assert not os.path.exists(seen_dir)


def test_resume_over_driver_bound_waits_for_hosts(ray_session, store, tmp_path,
                                                  monkeypatch):
    """A checkpoint holding more admits than ``driver_link_threshold`` is
    rebuilt in the host processes, never on the driver: resume waits for
    them first, and stays bit-identical."""
    from searchengine_ray.pipelines.crawl import CrawlEngine
    from searchengine_ray.sources import storage

    full = _run_engine(store, _config(store))
    ckpt = str(tmp_path / "ckpt")
    _handoff_at(monkeypatch, None)
    _run_engine(store, _config(store, checkpoint_dir=ckpt, max_waves=2))
    admitted = sum(storage.read_json(os.path.join(
        ckpt, "metrics", "wave=1.json"))["shard_seen_counts"])
    eng = CrawlEngine.resume(store, _config(
        store, checkpoint_dir=ckpt, driver_link_threshold=admitted - 1))
    try:
        assert not eng._gate_local
        res = eng.run()
    finally:
        eng.shutdown()
    pd.testing.assert_frame_equal(full.crawl_order.reset_index(drop=True),
                                  res.crawl_order.reset_index(drop=True))
    assert full.url_seen == res.url_seen
    assert {m["gate_at"] for m in res.metrics} == {"hosts"}


def test_checkpoint_keeps_two_frontier_snapshots(ray_session, store, tmp_path):
    """Once wave w commits, the frontier snapshots before wave=w are
    superseded and removed: the checkpoint keeps frontier/wave=w+1, which
    resume reads, and wave=w, which a manifest rolled back one wave reads
    (test_resume_ignores_complete_files_beyond_manifest).  The final
    checkpoint still resumes to the full crawl."""
    from searchengine_ray.pipelines.crawl import CrawlEngine

    config = _config(store, per_host_wave_budget=3,
                     checkpoint_dir=str(tmp_path / "ckpt"),
                     frontier_spill_dir=str(tmp_path / "pool"))
    fdir = os.path.join(config.checkpoint_dir, "frontier")
    eng = CrawlEngine(store, config)
    try:
        while eng.run_wave():
            w = eng.wave - 1
            assert set(os.listdir(fdir)) == {
                f"wave={v}" for v in (w, w + 1) if v > 0}, w
        assert w > 3
        full = eng.result()
    finally:
        eng.shutdown()
    _assert_match(full, crawl_oracle(store, config))
    eng2 = CrawlEngine.resume(store, _config(
        store, per_host_wave_budget=3, checkpoint_dir=config.checkpoint_dir))
    try:
        assert not eng2.run_wave()  # the committed crawl was complete
    finally:
        eng2.shutdown()


def _checkpoint_admits(ckpt: str, w: int) -> tuple[set, set]:
    """(order URLs of waves 0..w, frontier/wave=w+1 snapshot URLs) of a
    checkpoint committed at wave ``w``."""
    from searchengine_ray.sources import storage
    from searchengine_ray.state.frontier import snapshot_tables

    order = set()
    for wv in range(w + 1):
        order |= set(storage.read_table(
            os.path.join(ckpt, "crawl_order", f"wave={wv}"))["url_norm"].to_pylist())
    pending = set()
    for tbl in snapshot_tables(os.path.join(ckpt, "frontier", f"wave={w + 1}")):
        pending |= set(tbl["url_norm"].to_pylist())
    return order, pending


@pytest.mark.parametrize("kw", [
    {},
    {"inline_wave_threshold": 0, "spill": True},
    {"inline_wave_threshold": 0, "driver_link_threshold": 0, "spill": True},
    {"priority_fn": _research_first, "per_host_wave_budget": 4},
    {"max_pages": 25, "per_host_wave_budget": 3, "spill": True},
], ids=["inline", "distributed_spill", "distributed_append_spill",
        "priority_budget", "max_pages"])
def test_admitted_set_is_order_plus_frontier(ray_session, store, tmp_path, kw):
    """What resume rebuilds the host gates from: at every wave boundary the
    gates' seen set is exactly the hashes of the committed crawl order's
    URLs plus the frontier snapshot's, and no URL is in both."""
    from searchengine_ray.pipelines.crawl import CrawlEngine
    from searchengine_ray.sources import storage
    from searchengine_ray.utils.urls import get_urlhash

    kw = dict(kw)
    if kw.pop("spill", False):
        kw.update(frontier_spill_dir=str(tmp_path / "pool"))
    ckpt = str(tmp_path / "ckpt")
    eng = CrawlEngine(store, _config(store, checkpoint_dir=ckpt, **kw))
    try:
        while eng.run_wave():
            w = eng.wave - 1
            order, pending = _checkpoint_admits(ckpt, w)
            assert not order & pending, w
            seen_dir = str(tmp_path / f"seen_{w}")
            eng._gate_all("dump_seen_to", [os.path.join(seen_dir, f"shard={i}")
                                           for i in range(4)])
            seen = set()
            for i in range(4):
                seen |= set(storage.read_table(os.path.join(
                    seen_dir, f"shard={i}"))["url_hash"].to_pylist())
            assert seen == {get_urlhash(u) for u in order | pending}, w
        assert w >= 2
    finally:
        eng.shutdown()


def test_resume_format2_checkpoint(ray_session, store, tmp_path):
    """A format-2 checkpoint (per-wave host-gate admit deltas, written by
    an earlier engine on this store, stopped after wave 1, pages/ dropped)
    resumes bit-identically: its crawl order and frontier rebuild the
    gates, and its last delta file restores the decision counters."""
    from searchengine_ray.pipelines.crawl import CrawlEngine
    from searchengine_ray.sources import storage

    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                       "checkpoint_format2")
    ckpt = str(tmp_path / "ckpt")
    shutil.copytree(src, ckpt)
    assert storage.read_json(os.path.join(ckpt, "manifest.json"))["format"] == 2

    eng_full = CrawlEngine(store, _config(store))
    full = eng_full.run()
    full_dec = [s["decisions"] for s in eng_full.gate_memory_stats()]
    eng_full.shutdown()

    eng = CrawlEngine.resume(store, _config(store, checkpoint_dir=ckpt))
    try:
        res = eng.run()
        res_dec = [s["decisions"] for s in eng.gate_memory_stats()]
    finally:
        eng.shutdown()
    pd.testing.assert_frame_equal(full.crawl_order.reset_index(drop=True),
                                  res.crawl_order.reset_index(drop=True))
    assert full.url_seen == res.url_seen
    assert res_dec == full_dec
    assert storage.read_json(os.path.join(ckpt, "manifest.json"))["format"] == 3


@pytest.mark.parametrize("spill", [True, False], ids=["spill", "in_memory"])
def test_resume_partitioned_spill_checkpoint(ray_session, store, tmp_path,
                                             spill):
    """A checkpoint whose frontier snapshots use the earlier spill layout
    (``part=<pid>/frag-*.parquet``, written by an earlier engine on this
    store with per_host_wave_budget=2 and 3 partitions, stopped after wave
    2, pages/ dropped) resumes into either pool to the oracle's crawl
    order and URL-seen set."""
    from searchengine_ray.pipelines.crawl import CrawlEngine

    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                       "checkpoint_spill_parts")
    ckpt = str(tmp_path / "ckpt")
    shutil.copytree(src, ckpt)
    assert os.path.isdir(os.path.join(ckpt, "frontier", "wave=3", "part=0"))
    kw = {"frontier_spill_dir": str(tmp_path / "pool")} if spill else {}
    config = _config(store, per_host_wave_budget=2, checkpoint_dir=ckpt, **kw)
    eng = CrawlEngine.resume(store, config)
    try:
        assert eng.wave == 3
        res = eng.run()
    finally:
        eng.shutdown()
    _assert_match(res, crawl_oracle(store, config))


def test_resume_ignores_complete_files_beyond_manifest(ray_session, store,
                                                       tmp_path):
    """A crash between a wave's artifacts and its manifest leaves a
    complete crawl_order/wave=w+1 and frontier/wave=w+2: the rebuild reads
    only up to the manifest's wave and resume stays bit-identical."""
    from searchengine_ray.pipelines.crawl import CrawlEngine

    full = _run_engine(store, _config(store))
    ckpt = str(tmp_path / "ckpt")
    eng = CrawlEngine(store, _config(store, checkpoint_dir=ckpt,
                                     frontier_spill_dir=str(tmp_path / "pool")))
    try:
        assert eng.run_wave() and eng.run_wave()
        shutil.copy(os.path.join(ckpt, "manifest.json"), str(tmp_path / "m.json"))
        assert eng.run_wave()
    finally:
        eng.shutdown()
    shutil.copy(str(tmp_path / "m.json"), os.path.join(ckpt, "manifest.json"))
    for beyond in (("crawl_order", "wave=2.parquet"), ("frontier", "wave=3")):
        assert os.path.exists(os.path.join(ckpt, *beyond)), beyond

    eng2 = CrawlEngine.resume(store, _config(store, checkpoint_dir=ckpt))
    try:
        res = eng2.run()
    finally:
        eng2.shutdown()
    pd.testing.assert_frame_equal(full.crawl_order.reset_index(drop=True),
                                  res.crawl_order.reset_index(drop=True))
    assert full.url_seen == res.url_seen


@pytest.mark.parametrize("missing", ["crawl_order", "frontier_fragment"])
def test_resume_fails_loudly_on_missing_admits(ray_session, store, tmp_path,
                                               missing):
    """A checkpoint missing an admitted-URL file (a crawl_order wave before
    the manifest's, or one frontier run) would rebuild smaller seen
    sets and quietly re-admit URLs: resume must refuse it instead."""
    import glob

    from searchengine_ray.pipelines.crawl import CrawlEngine

    ckpt = str(tmp_path / "ckpt")
    _run_engine(store, _config(store, checkpoint_dir=ckpt, max_waves=3,
                               frontier_spill_dir=str(tmp_path / "pool")))
    if missing == "crawl_order":
        os.remove(os.path.join(ckpt, "crawl_order", "wave=1.parquet"))
    else:
        frags = sorted(glob.glob(os.path.join(ckpt, "frontier", "wave=3",
                                              "run-*.arrow")))
        assert frags
        os.remove(frags[0])
    with pytest.raises(ValueError, match="checkpoint rebuild of gate shard"):
        CrawlEngine.resume(store, _config(store, checkpoint_dir=ckpt))
