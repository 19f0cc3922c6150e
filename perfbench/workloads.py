"""The benchmark workloads.

Each workload has a ``setup`` that builds the seeded inputs and the
reference outputs, an untimed ``warm_up`` and a ``cycle`` — one unit of
measured work whose outputs are checked against the reference.  A cycle
returns a ``Cycle`` record; ``run.py`` turns cycles into metrics.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

import checks

# input sizes, chosen so one run of every workload fits the run budget on a
# one-core host (see README.md)
WAVES_PAGES = 400
BUDGET_PAGES = 300
BUDGET_PER_HOST = 8
RESUMES_PER_CYCLE = 2
NEW_FRAC = 0.1  # share of the corpus that arrives in the merge delta
INDEX_QUERIES = 6  # seeded queries, asked round-robin
QUERIES_PER_BUILD = 3  # queries between two index builds
TOP_K = 5
WARM_PAGES = 30
WARM_DOCS = 200


@dataclass
class Cycle:
    wall_s: float | None  # a cycle_s sample, or None when the cycle is one query
    items: int  # pages fetched / queries answered
    items_wall_s: float  # wall the items were produced in
    op_ms: list[float]  # latencies of the workload's unit operation
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)
    wave_metrics: list[dict] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    traced: bool = False  # set by the runner
    window: tuple[float, float] = (0.0, 0.0)  # perf_counter span, set by the runner


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# what a checkpoint consists of; the page payload sink (pages/) and the
# url_seen/ dump written by result() share the directory but are not state
CHECKPOINT_PARTS = ("crawl_order", "frontier", "state", "metrics", "manifest.json")


def _checkpoint_bytes(ck_dir: str) -> int:
    total = 0
    for part in CHECKPOINT_PARTS:
        path = os.path.join(ck_dir, part)
        if os.path.isfile(path):
            total += os.path.getsize(path)
        for dirpath, _dirs, files in os.walk(path):
            total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def _crawl_config(store, ncpu: int, **kw):
    from searchengine_ray.config import CrawlConfig

    # the bench.py crawl configuration with 4 gate shards instead of 8 (each
    # shard is an actor process to start per engine; 4 keeps a run inside
    # the run budget on a one-core host) and 0-CPU state actors because
    # engines are created back to back in one small session
    base = dict(seed_urls=list(store.seeds), allowed_domains=("test",),
                num_gate_shards=4, fetch_concurrency=max(4, ncpu // 2),
                fetch_batch_size=64, state_actor_num_cpus=0)
    base.update(kw)
    return CrawlConfig(**base)


def _timed_crawl(make_engine):
    """(result, seconds from the engine's construction to the returned
    result()); shutdown runs after the clock stops."""
    t0 = time.perf_counter()
    engine = make_engine()
    try:
        res = engine.run()
        return res, time.perf_counter() - t0
    finally:
        engine.shutdown()


def _crawl_errors(res, want: pd.DataFrame, want_seen: set[str]) -> list[str]:
    errs = checks.check_crawl_order(res.crawl_order, want)
    errs += checks.check_seen(res.url_seen, want_seen)
    return errs


class CrawlWorkload:
    """Shared warm-up and single-crawl cycle of the crawl workloads; the
    subclasses' ``setup`` sets ``store``, ``cfg`` and the expected output."""

    min_cycles = 1

    def __init__(self, seed: int, ncpu: int, workdir: str):
        self.seed, self.ncpu, self.workdir = seed, ncpu, workdir

    def warm_up(self) -> None:
        """A crawl of the workload's own store and configuration cut at
        ``WARM_PAGES`` fetches: same code paths and payload sizes, with a
        low inline threshold so that a distributed wave runs too."""
        from dataclasses import replace

        from searchengine_ray.pipelines.crawl import CrawlEngine

        warm = os.path.join(self.workdir, "warm")
        cfg = replace(self.cfg, max_pages=WARM_PAGES, inline_wave_threshold=4)
        if cfg.checkpoint_dir:
            cfg = replace(cfg, checkpoint_dir=_fresh_dir(os.path.join(warm, "ck")),
                          frontier_spill_dir=_fresh_dir(os.path.join(warm, "spill")))
        res, _ = _timed_crawl(lambda: CrawlEngine(self.store, cfg))
        shutil.rmtree(res.seen_dir, ignore_errors=True)
        shutil.rmtree(warm, ignore_errors=True)

    def page_sample(self) -> list[dict]:
        """Page records the kernel microbenchmarks run on."""
        return [p for p in self.store.pages.values() if p["status"] == 200][:64]

    def cycle(self) -> Cycle:
        from searchengine_ray.pipelines.crawl import CrawlEngine

        res, wall = _timed_crawl(lambda: CrawlEngine(self.store, self.cfg))
        pages = sum(m["fetched"] for m in res.metrics)
        errors = _crawl_errors(res, self.want, self.want_seen)
        shutil.rmtree(res.seen_dir, ignore_errors=True)
        return Cycle(wall_s=wall, items=pages, items_wall_s=wall,
                     op_ms=[1e3 * wall], attempted=1, failed=int(bool(errors)),
                     errors=errors, wave_metrics=list(res.metrics))


class CrawlWaves(CrawlWorkload):
    name = "crawl_waves"

    def setup(self) -> None:
        from searchengine_ray.pipelines.crawl_oracle import crawl_oracle
        from searchengine_ray.sources.fixtures import make_store

        self.store = make_store(n_pages=WAVES_PAGES, n_hosts=16, seed=self.seed,
                                fanout=40, img_min=96, img_max=160)
        self.cfg = _crawl_config(self.store, self.ncpu)
        oracle = crawl_oracle(self.store, self.cfg)
        self.want = checks.expected_order_from_oracle(oracle.crawl_order)
        self.want_seen = set(oracle.url_seen)


class CrawlBudgetResume(CrawlWorkload):
    """Politeness-budgeted crawl with checkpoint + spill pool, stopped half
    way, restarted with ``CrawlEngine.resume`` ``RESUMES_PER_CYCLE`` times
    (one ``resume_s`` sample each) and run to the end by the last one."""

    name = "crawl_budget_resume"

    def setup(self) -> None:
        from searchengine_ray.pipelines.crawl_oracle import crawl_oracle
        from searchengine_ray.sources.fixtures import make_store

        self.store = make_store(n_pages=BUDGET_PAGES, n_hosts=16, seed=self.seed,
                                fanout=8, img_min=96, img_max=160)
        self.ck = os.path.join(self.workdir, "checkpoint")
        self.spill = os.path.join(self.workdir, "spill")
        self.cfg = _crawl_config(self.store, self.ncpu,
                                 per_host_wave_budget=BUDGET_PER_HOST,
                                 checkpoint_dir=self.ck,
                                 frontier_spill_dir=self.spill)
        oracle = crawl_oracle(self.store, self.cfg)
        self.want = checks.expected_order_from_oracle(oracle.crawl_order)
        self.want_seen = set(oracle.url_seen)
        n_waves = int(self.want["wave"].max()) + 1
        self.stop_wave = max(1, n_waves // 2)

    def cycle(self) -> Cycle:
        from dataclasses import replace

        from searchengine_ray.pipelines.crawl import CrawlEngine

        _fresh_dir(self.ck)
        _fresh_dir(self.spill)
        t0 = time.perf_counter()
        first, first_wall = _timed_crawl(lambda: CrawlEngine(
            self.store, replace(self.cfg, max_waves=self.stop_wave)))
        resume_s = []
        # restarts that stop right after resume() (restore only reads the
        # checkpoint), then one that runs the crawl to the end
        for i in range(RESUMES_PER_CYCLE):
            t1 = time.perf_counter()
            engine = CrawlEngine.resume(self.store, self.cfg)
            resume_s.append(time.perf_counter() - t1)
            try:
                if i == RESUMES_PER_CYCLE - 1:
                    res = engine.run()
                    t3 = time.perf_counter()
            finally:
                engine.shutdown()
        t_end = time.perf_counter()
        metrics = list(first.metrics) + list(res.metrics)
        pages = sum(m["fetched"] for m in metrics)
        stopped = self.want[self.want["wave"] < self.stop_wave]
        errors = checks.check_crawl_order(first.crawl_order, stopped,
                                          "stopped crawl order")
        errors += _crawl_errors(res, self.want, self.want_seen)
        errors += checks.check_resumed_waves(res.crawl_order, self.want,
                                             self.stop_wave)
        return Cycle(wall_s=t_end - t0, items=pages,
                     items_wall_s=first_wall + (t3 - t1),
                     op_ms=[1e3 * r for r in resume_s],
                     attempted=1 + RESUMES_PER_CYCLE,
                     failed=int(bool(errors)), errors=errors,
                     wave_metrics=metrics,
                     extra={"checkpoint_bytes": _checkpoint_bytes(self.ck)})


# ---- index_search --------------------------------------------------------

# doc_id + text of the repository's sf0.1 ``documents`` test table (5,000
# docs, 10–100 words each drawn from a 30-word vocabulary, plus a rare
# ``dup`` token); only the delta and the queries are seeded
DOCUMENTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                         "documents.parquet")
RARE_DF = 0.1  # a token in fewer than this share of the docs is "rare"


def load_documents(n: int | None = None) -> pd.DataFrame:
    import pyarrow.parquet as pq

    docs = pq.read_table(DOCUMENTS).to_pandas()
    if n is not None:
        docs = docs.head(n)
    docs["url"] = [f"https://docs.test/d/{i}" for i in docs["doc_id"]]
    return docs


def vocabulary(docs: pd.DataFrame) -> tuple[list[str], list[str]]:
    """(common, rare) tokens of ``docs``, each sorted; rare = in fewer than
    ``RARE_DF`` of the docs."""
    df = docs["text"].str.lower().str.split().map(set).explode().value_counts()
    rare = df < RARE_DF * len(docs)
    return sorted(df.index[~rare]), sorted(df.index[rare])


# query slots: (form, term kinds), "c" = a common token, "r" = a rare one.
# Forms are fixed and only the words are seeded, so every seed issues
# queries of the same shape and selectivity.
QUERY_SLOTS = [
    ("{} {}", "cc"),
    ("{} AND {} OR {}", "ccr"),
    ("{} OR {}", "cc"),
    ("{} AND {}", "cr"),
    ("{} {} {}", "ccc"),
    ("{} OR {} {}", "rcc"),
]


def make_queries(seed: int, n: int, common: list[str], rare: list[str]) -> list[str]:
    rng = np.random.default_rng(seed + 1)
    words = {"c": common, "r": rare}

    def term(kind):
        return words[kind][int(rng.integers(len(words[kind])))]

    return [form.format(*(term(k) for k in kinds))
            for form, kinds in (QUERY_SLOTS[i % len(QUERY_SLOTS)] for i in range(n))]


def parse_groups(query: str) -> list[list[str]]:
    """OR-of-AND groups: whitespace terms, ``AND`` skipped, ``OR`` splits,
    lowercased — written out here so the reference shares no code with the
    program's query parser."""
    groups, cur = [], []
    for tok in query.split():
        if tok == "AND":
            continue
        if tok == "OR":
            groups.append(cur)
            cur = []
        else:
            cur.append(tok.lower())
    groups.append(cur)
    return [g for g in groups if g]


REFERENCE_POSTINGS_SQL = """
CREATE TABLE postings AS
WITH toks AS (
  SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS token
  FROM corpus),
t AS (SELECT * FROM toks WHERE token <> ''),
dl AS (SELECT doc_id, count(*) AS n FROM t GROUP BY doc_id),
tc AS (SELECT doc_id, token, count(*) AS cnt FROM t GROUP BY doc_id, token),
df AS (SELECT token, count(DISTINCT doc_id) AS df FROM t GROUP BY token),
nd AS (SELECT count(DISTINCT doc_id) AS n FROM t)
SELECT tc.doc_id, tc.token,
       (CAST(tc.cnt AS DOUBLE) / dl.n) * ln(CAST(nd.n AS DOUBLE) / df.df) AS tf_idf
FROM tc JOIN dl USING (doc_id) JOIN df USING (token), nd
"""


def reference_topk(con, query: str, k: int) -> pd.DataFrame:
    groups = parse_groups(query)
    terms = sorted({t for g in groups for t in g})
    if not terms:
        return pd.DataFrame({"doc_id": [], "score": [], "url": []})
    has = ", ".join(f"max(CASE WHEN token = '{t}' THEN 1 ELSE 0 END) AS h{i}"
                    for i, t in enumerate(terms))
    where = " OR ".join(
        "(" + " AND ".join(f"h{terms.index(t)} = 1" for t in g) + ")" for g in groups)
    in_list = ", ".join(f"'{t}'" for t in terms)
    sql = f"""
    WITH q AS (SELECT doc_id, {has}, round(sum(tf_idf), 6) AS score
               FROM postings WHERE token IN ({in_list}) GROUP BY doc_id)
    SELECT q.doc_id, q.score, corpus.url FROM q JOIN corpus USING (doc_id)
    WHERE {where} ORDER BY q.score DESC, q.doc_id LIMIT {k}"""
    return con.execute(sql).df()


class IndexSearch:
    """Build → merge, then one closed-loop search client over the persisted
    index.  A cycle either rebuilds and merges the index from scratch (every
    ``QUERIES_PER_BUILD + 1``-th cycle, starting with the first) or asks one
    query, taken round-robin from the seeded list."""

    name = "index_search"
    # two builds, and every seeded query asked at least once
    min_cycles = INDEX_QUERIES + INDEX_QUERIES // QUERIES_PER_BUILD

    def __init__(self, seed: int, ncpu: int, workdir: str):
        self.seed, self.ncpu, self.workdir = seed, ncpu, workdir

    def _write_inputs(self, docs: pd.DataFrame, rng,
                      subdir: str) -> tuple[str, str, pd.DataFrame]:
        """Split ``docs`` into a base corpus and a delta (``NEW_FRAC`` new
        docs + half as many changed docs with three seeded words appended);
        returns (base path, delta path, final merged corpus)."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        n = len(docs)
        order = rng.permutation(docs["doc_id"].to_numpy())
        n_new = int(n * NEW_FRAC)
        new_ids = set(order[:n_new].tolist())
        changed_ids = set(order[n_new:n_new + n_new // 2].tolist())
        is_new = docs["doc_id"].isin(new_ids)
        base = docs[~is_new]
        changed = docs[docs["doc_id"].isin(changed_ids)].copy()
        common, rare = vocabulary(docs)
        words = np.array(common + rare)[rng.integers(0, len(common) + len(rare),
                                                     (len(changed), 3))]
        changed["text"] = changed["text"] + [" " + " ".join(w) for w in words]
        delta = pd.concat([docs[is_new], changed], ignore_index=True)
        final = pd.concat([base[~base["doc_id"].isin(changed_ids)], delta],
                          ignore_index=True).sort_values("doc_id")
        d = _fresh_dir(os.path.join(self.workdir, subdir))
        paths = []
        for name, df in (("base", base), ("delta", delta)):
            p = os.path.join(d, f"{name}.parquet")
            pq.write_table(pa.Table.from_pandas(df, preserve_index=False), p)
            paths.append(p)
        return paths[0], paths[1], final.reset_index(drop=True)

    @staticmethod
    def _build(base_path: str, out: str) -> None:
        import ray.data as rd

        from searchengine_ray.pipelines.index_pipeline import build_postings, write_index

        shutil.rmtree(out, ignore_errors=True)
        docs = rd.read_parquet(base_path)
        write_index(build_postings(docs, mode="simple"), out, docs=docs)

    def _build_merge(self, base_path: str, delta_path: str, out: str) -> tuple[float, float]:
        import ray.data as rd

        from searchengine_ray.pipelines.index_pipeline import merge_index

        t0 = time.perf_counter()
        self._build(base_path, out)
        t1 = time.perf_counter()
        merge_index(out, rd.read_parquet(delta_path), mode="simple", url_col="url")
        return t1 - t0, time.perf_counter() - t1

    def warm_up(self) -> None:
        from searchengine_ray.pipelines.index_pipeline import search_index

        base, delta, _ = self._write_inputs(load_documents(WARM_DOCS),
                                            np.random.default_rng(7), "warm")
        out = os.path.join(self.workdir, "warm", "index")
        self._build_merge(base, delta, out)
        search_index(out, "spark AND merge OR dup", k=TOP_K)

    def setup(self) -> None:
        import duckdb

        docs = load_documents()
        rng = np.random.default_rng(self.seed)
        self.base, self.delta, final = self._write_inputs(docs, rng, "inputs")
        self.queries = make_queries(self.seed, INDEX_QUERIES, *vocabulary(docs))
        con = duckdb.connect()
        con.register("corpus", final)
        con.execute(REFERENCE_POSTINGS_SQL)
        self.reference = {q: reference_topk(con, q, TOP_K) for q in self.queries}
        con.close()
        self.out = os.path.join(self.workdir, "index")
        self.cycles = self.asked = 0

    def page_sample(self) -> list[dict]:
        from searchengine_ray.sources.fixtures import ProceduralSpec, procedural_page

        spec = ProceduralSpec(n_pages=64, chunk=16, img_edge=96, seed=self.seed)
        return [procedural_page(spec, spec.url(i)) for i in range(64)]

    def cycle(self) -> Cycle:
        from searchengine_ray.pipelines.index_pipeline import search_index

        self.cycles += 1
        if (self.cycles - 1) % (QUERIES_PER_BUILD + 1) == 0:
            build_s, merge_s = self._build_merge(self.base, self.delta, self.out)
            return Cycle(wall_s=build_s + merge_s, items=0, items_wall_s=0.0,
                         op_ms=[], attempted=2, failed=0,
                         extra={"index_build_s": build_s, "index_merge_s": merge_s})
        q = self.queries[self.asked % len(self.queries)]
        self.asked += 1
        t = time.perf_counter()
        got = search_index(self.out, q, k=TOP_K)
        lat = time.perf_counter() - t
        errors = checks.check_topk(got, self.reference[q], q)
        return Cycle(wall_s=None, items=1, items_wall_s=lat, op_ms=[1e3 * lat],
                     attempted=1, failed=int(bool(errors)), errors=errors)


WORKLOADS = {w.name: w for w in (CrawlWaves, CrawlBudgetResume, IndexSearch)}
