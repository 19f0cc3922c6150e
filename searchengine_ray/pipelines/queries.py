"""Driver-contract query pipelines over the /root/testdata parquet tables.

Each ``q_*`` function takes ``sf_dir`` and returns a Dataset / DataFrame.
The matching DuckDB oracle SQL lives in ``ORACLE_SQL`` — column names and
value rounding are kept identical on both sides (the driver hashes values
after sorting columns by name).

Scale notes per query are in the docstrings; shared idioms:
- reads prune columns (``read_parquet(columns=...)``);
- grouped aggregates pre-combine per batch (``pre_aggregate``);
- dimension joins broadcast the small side;
- top-k = per-batch local top-k, global merge of k·num_batches rows.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from searchengine_ray.stages import dedup as dedup_stage
from searchengine_ray.stages import knn as knn_stage
from searchengine_ray.stages import text as text_stage
from searchengine_ray.stages.canonicalize import canonicalize_batch
from searchengine_ray.stages.relational import broadcast_join, pre_aggregate
from searchengine_ray.stages.sessions import sessionize_counts, tumbling_window_agg


def _pq(sf_dir: str, table: str, **kw):
    return rd.read_parquet(f"{sf_dir}/{table}.parquet", **kw)


# DuckDB's round() rule (half-away-from-zero) for every round-6 value an
# SQL-gated query emits — np.round's half-even disagrees on dyadic
# boundaries (measured: cusum 387.3640625 at sf0.01).  Canonical home is
# utils.rounding so non-pipeline stages can share it without importing this
# module.
from searchengine_ray.utils.rounding import round6_half_away  # noqa: E402


# --- 1. pricing summary (A1-style grouped agg with map-side combine) -------

def q_pricing_summary(sf_dir: str):
    ds = _pq(sf_dir, "lineitem",
             columns=["l_returnflag", "l_linestatus", "l_quantity",
                      "l_extendedprice", "l_discount"])

    def add_disc(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        disc = pc.multiply(batch["l_extendedprice"],
                           pc.subtract(pa.scalar(1.0), batch["l_discount"]))
        return batch.append_column("disc_price", disc)

    ds = ds.map_batches(add_disc, batch_format="pyarrow")
    agg = pre_aggregate(
        ds, ["l_returnflag", "l_linestatus"],
        {"sum_qty": ("l_quantity", "sum"),
         "sum_base_price": ("l_extendedprice", "sum"),
         "sum_disc_price": ("disc_price", "sum"),
         "count_order": (None, "count")},
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        # round(2): money sums over ~1e5 rows accumulate ~1e-6 float noise in
        # a different order than the oracle's sequential sum — 2-decimal
        # rounding keeps the comparison deterministic
        df["avg_qty"] = (df["sum_qty"] / df["count_order"]).round(6)
        for c in ("sum_qty", "sum_base_price", "sum_disc_price"):
            df[c] = df[c].round(2)
        return df

    return agg.map_batches(finish, batch_format="pandas")


SQL_PRICING = """
SELECT l_returnflag, l_linestatus,
       round(sum(l_quantity), 2)                        AS sum_qty,
       round(sum(l_extendedprice), 2)                   AS sum_base_price,
       round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
       count(*)                                          AS count_order,
       round(sum(l_quantity) / count(*), 6)              AS avg_qty
FROM lineitem
GROUP BY l_returnflag, l_linestatus
"""


# --- 2. top-k orders (O2/O3 sort+limit) ------------------------------------

def q_top_orders(sf_dir: str):
    """Global top-k: per-batch local top-k, one coalesced intermediate
    reduce, then an O(k × fanin) driver merge — no global sort of the full
    table and no k×num_blocks driver pull (``global_topk``)."""
    from searchengine_ray.stages.relational import global_topk

    ds = _pq(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    return global_topk(ds, ["o_totalprice", "o_orderkey"], [False, True], 10)


SQL_TOP_ORDERS = """
SELECT o_orderkey, o_totalprice FROM orders
ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
"""


# --- 3. customers per region (J2 broadcast join chain) ---------------------

def q_customers_per_region(sf_dir: str):
    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_regionkey"]).to_pandas()
    region = pq.read_table(f"{sf_dir}/region.parquet").to_pandas()
    dim = nation.merge(region, left_on="n_regionkey", right_on="r_regionkey")[
        ["n_nationkey", "r_name"]].rename(columns={"n_nationkey": "c_nationkey"})
    cust = _pq(sf_dir, "customer", columns=["c_custkey", "c_nationkey", "c_acctbal"])
    joined = broadcast_join(cust, dim, on="c_nationkey")
    out = pre_aggregate(joined, ["r_name"],
                        {"n_customers": (None, "count"),
                         "sum_acctbal": ("c_acctbal", "sum")})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["sum_acctbal"] = df["sum_acctbal"].round(4)
        return df

    return out.map_batches(finish, batch_format="pandas")


SQL_CUSTOMERS_PER_REGION = """
SELECT r_name, count(*) AS n_customers, round(sum(c_acctbal), 4) AS sum_acctbal
FROM customer JOIN nation ON c_nationkey = n_nationkey
              JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name
"""


# --- 3b. large-large hash join: revenue per order priority ------------------

def q_revenue_per_priority(sf_dir: str):
    """lineitem ⋈ orders via the explicit partitioned hash join (both sides
    'large' — no broadcast), then pre-aggregated rollup."""
    from searchengine_ray.stages.relational import hash_join

    li = _pq(sf_dir, "lineitem",
             columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def add_rev(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        rev = pc.multiply(batch["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), batch["l_discount"]))
        return batch.append_column("revenue", rev).select(["l_orderkey", "revenue"])

    li = li.map_batches(add_rev, batch_format="pyarrow")
    orders = _pq(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["l_orderkey", "o_orderpriority"])

    orders = orders.map_batches(rename, batch_format="pyarrow")
    joined = hash_join(li, orders, on="l_orderkey", num_buckets=32)
    out = pre_aggregate(joined, ["o_orderpriority"],
                        {"revenue": ("revenue", "sum"), "n_items": (None, "count")})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["revenue"] = df["revenue"].round(2)
        return df

    return out.map_batches(finish, batch_format="pandas")


SQL_REVENUE_PER_PRIORITY = """
SELECT o_orderpriority,
       round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue,
       count(*) AS n_items
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY o_orderpriority
"""


# --- 3c. per-group top-k (window function analog) ----------------------------

def q_top_events_per_user(sf_dir: str):
    """Top-2 events by value per user — one vectorized sort + grouped head
    per hash bucket (no per-user Python at 10^9 users)."""
    from searchengine_ray.stages.relational import bucketed_apply

    ds = _pq(sf_dir, "events", columns=["event_id", "user_id", "value"])

    def top2_per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return (g.sort_values(["user_id", "value", "event_id"],
                              ascending=[True, False, True], kind="mergesort")
                .groupby("user_id", sort=False).head(2)
                [["event_id", "user_id", "value"]])

    return bucketed_apply(ds, ["user_id"], top2_per_bucket)


SQL_TOP_EVENTS_PER_USER = """
SELECT event_id, user_id, value FROM (
  SELECT event_id, user_id, value,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY value DESC, event_id) AS rn
  FROM events) WHERE rn <= 2
"""


# --- 3d. distinct users per event type ---------------------------------------

def q_distinct_users_by_type(sf_dir: str):
    """count(DISTINCT) via per-batch set partials → merged distinct count."""
    ds = _pq(sf_dir, "events", columns=["event_type", "user_id"])
    dedup = pre_aggregate(ds, ["event_type", "user_id"], {"_n": (None, "count")})
    return pre_aggregate(dedup, ["event_type"], {"n_users": (None, "count")})


SQL_DISTINCT_USERS = """
SELECT event_type, count(DISTINCT user_id) AS n_users
FROM events GROUP BY event_type
"""


def q_distinct_users_hll(sf_dir: str):
    """Approximate count(DISTINCT) via the mergeable HyperLogLog sketch —
    the scale path when distinct keys per group are unbounded (the exact
    operator above shuffles one row per distinct (group, key); this one
    shuffles ≤ 2^p register rows per group, period).  No SQL oracle — the
    estimate is approximate by construction; the 1.04/√m error bound is
    pytest-gated in tests/test_sketches.py on uniform, skewed and
    multi-group inputs, and this entry additionally cross-checks against
    the exact count at sf scale in tests."""
    from searchengine_ray.stages.sketches import hll_distinct_aggregate

    ds = _pq(sf_dir, "events", columns=["event_type", "user_id"])
    out = hll_distinct_aggregate(ds, ["event_type"], "user_id", p=12,
                                 out_col="n_users_approx")
    pdf = out.to_pandas()  # one row per event type
    return pdf.sort_values("event_type").reset_index(drop=True)


# --- 3e. as-of join: each event's most recent prior order --------------------

def q_events_last_order(sf_dir: str):
    """For every event, the latest order (by o_orderdate ≤ ts) of the
    customer with c_custkey = user_id — the as-of/range-join operator."""
    from searchengine_ray.stages.sessions import asof_join

    ev = _pq(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    orders = _pq(sf_dir, "orders",
                 columns=["o_custkey", "o_orderdate", "o_totalprice"])

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["user_id", "o_orderdate", "o_totalprice"])

    orders = orders.map_batches(rename, batch_format="pyarrow")
    joined = asof_join(ev, orders, key="user_id", left_ts="ts",
                       right_ts="o_orderdate", value_cols=["o_totalprice"])

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "event_id": df["event_id"].astype("int64"),
            "user_id": df["user_id"].astype("int64"),
            # coalesce: NaN equality is engine-dependent in value hashing
            "last_order_price": df["o_totalprice"].round(2).fillna(-1.0),
        })
        return out

    return joined.map_batches(finish, batch_format="pandas")


SQL_EVENTS_LAST_ORDER = """
SELECT event_id, user_id,
       coalesce(round(o_totalprice, 2), -1.0) AS last_order_price
FROM events ASOF LEFT JOIN orders
  ON user_id = o_custkey AND ts >= o_orderdate
"""


# --- 4. events by type ------------------------------------------------------

def q_events_by_type(sf_dir: str):
    ds = _pq(sf_dir, "events", columns=["event_type", "value"])
    out = pre_aggregate(ds, ["event_type"],
                        {"n": (None, "count"), "sum_value": ("value", "sum")})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["sum_value"] = df["sum_value"].round(4)
        return df

    return out.map_batches(finish, batch_format="pandas")


SQL_EVENTS_BY_TYPE = """
SELECT event_type, count(*) AS n, round(sum(value), 4) AS sum_value
FROM events GROUP BY event_type
"""


# --- 4b. parts by brand (column-pruned groupby over part) --------------------

def q_parts_by_brand(sf_dir: str):
    ds = _pq(sf_dir, "part", columns=["p_brand", "p_retailprice", "p_size"])
    out = pre_aggregate(ds, ["p_brand"],
                        {"n_parts": (None, "count"),
                         "sum_price": ("p_retailprice", "sum"),
                         "max_size": ("p_size", "max")})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["sum_price"] = df["sum_price"].round(2)
        df["max_size"] = df["max_size"].astype(np.int32)
        return df

    return out.map_batches(finish, batch_format="pandas")


SQL_PARTS_BY_BRAND = """
SELECT p_brand, count(*) AS n_parts, round(sum(p_retailprice), 2) AS sum_price,
       max(p_size) AS max_size
FROM part GROUP BY p_brand
"""


# --- 4c. JSON property extraction from events.props --------------------------

def q_props_k_stats(sf_dir: str):
    """Parse the JSON ``props`` column and aggregate its ``k`` field per
    event type — the semi-structured-column capability."""
    import json

    ds = _pq(sf_dir, "events", columns=["event_type", "props"])

    def parse(df: pd.DataFrame) -> pd.DataFrame:
        ks = np.fromiter((json.loads(p)["k"] for p in df["props"]),
                         dtype=np.int64, count=len(df))
        return pd.DataFrame({"event_type": df["event_type"], "k": ks})

    parsed = ds.map_batches(parse, batch_format="pandas")
    return pre_aggregate(parsed, ["event_type"],
                         {"sum_k": ("k", "sum"), "max_k": ("k", "max")})


SQL_PROPS_K_STATS = """
SELECT event_type,
       -- DuckDB sum(BIGINT) yields HUGEINT (→ float64 in pandas); cast back
       -- so the oracle dtype matches the engine's int64 (driver hashes the
       -- representation, not just the value)
       CAST(sum(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k,
       max(CAST(json_extract(props, '$.k') AS BIGINT)) AS max_k
FROM events GROUP BY event_type
"""


# --- 5. per-user daily tumbling window -------------------------------------

def q_events_user_daily(sf_dir: str):
    ds = _pq(sf_dir, "events", columns=["user_id", "ts", "value"])
    out = tumbling_window_agg(ds)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["sum_value"] = df["sum_value"].round(4)
        return df

    return out.map_batches(finish, batch_format="pandas")


SQL_EVENTS_USER_DAILY = """
SELECT user_id, strftime(date_trunc('day', ts), '%Y-%m-%d') AS day,
       count(*) AS n_events, round(sum(value), 4) AS sum_value
FROM events GROUP BY user_id, day
"""


# --- 6. sessionization (30-min gap) ----------------------------------------

def q_sessionize(sf_dir: str):
    ds = _pq(sf_dir, "events", columns=["user_id", "ts"])
    return sessionize_counts(ds, gap_minutes=30)


SQL_SESSIONIZE = """
WITH flagged AS (
  SELECT user_id,
         CASE WHEN lag(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
                   OR ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                      > INTERVAL 30 MINUTE
              THEN 1 ELSE 0 END AS new_s
  FROM events)
SELECT user_id, CAST(sum(new_s) AS BIGINT) AS n_sessions
FROM flagged GROUP BY user_id
"""


# --- 7. exact dedup of documents (D3) --------------------------------------

def q_dedup_exact(sf_dir: str):
    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    out = dedup_stage.dedup_exact(ds)
    return out.select_columns(["doc_id"])


SQL_DEDUP_EXACT = """
SELECT min(doc_id) AS doc_id FROM documents GROUP BY text
"""


# --- 8. token document frequency (A1) --------------------------------------

def q_token_df(sf_dir: str):
    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    tc = text_stage.doc_term_counts(ds, mode="simple")
    return text_stage.token_document_frequency(tc)


SQL_TOKEN_DF = """
SELECT token, count(DISTINCT doc_id) AS df
FROM (SELECT doc_id,
             unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS token
      FROM documents)
WHERE token <> '' GROUP BY token
"""


# --- 9. tf-idf top-100 postings (A3/O2/O3) ---------------------------------

def q_tfidf_top(sf_dir: str):
    from searchengine_ray.stages.relational import global_topk

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    postings = text_stage.tfidf_postings(ds, mode="simple", round_to=6)
    return global_topk(postings.select_columns(["doc_id", "token", "tf_idf"]),
                       ["tf_idf", "doc_id", "token"], [False, True, True], 100)


SQL_TFIDF_TOP = """
WITH toks AS (
  SELECT doc_id,
         unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS token
  FROM documents),
toks2 AS (SELECT * FROM toks WHERE token <> ''),
doc_len AS (SELECT doc_id, count(*) AS n FROM toks2 GROUP BY doc_id),
tc AS (SELECT doc_id, token, count(*) AS cnt FROM toks2 GROUP BY doc_id, token),
dfreq AS (SELECT token, count(DISTINCT doc_id) AS df FROM toks2 GROUP BY token),
n_docs AS (SELECT count(*) AS n FROM documents)
SELECT tc.doc_id, tc.token,
       round((CAST(tc.cnt AS DOUBLE) / doc_len.n)
             * ln(CAST(n_docs.n AS DOUBLE) / dfreq.df), 6) AS tf_idf
FROM tc JOIN doc_len USING (doc_id) JOIN dfreq USING (token), n_docs
ORDER BY tf_idf DESC, tc.doc_id, tc.token LIMIT 100
"""


# --- 9b. corpus-wide most-frequent tokens (heavy hitters, exact) -------------

def q_token_topk_freq(sf_dir: str):
    """Top-20 most frequent tokens corpus-wide: map-side combined counts
    (``pre_aggregate``) → two-level global top-k.  The exact form of a
    heavy-hitters pass (vocabulary pruning / stopword discovery in a
    training pipeline); ties break on token asc in both engine and SQL."""
    from searchengine_ray.stages.relational import global_topk

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    tc = text_stage.doc_term_counts(ds, mode="simple")

    def project(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"token": df["token"],
                             "cnt": df["cnt"].astype(np.int64)})

    counts = pre_aggregate(tc.map_batches(project, batch_format="pandas"),
                           ["token"], {"n": ("cnt", "sum")})
    return global_topk(counts, ["n", "token"], [False, True], 20)


SQL_TOKEN_TOPK_FREQ = """
SELECT token, count(*) AS n
FROM (SELECT unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS token
      FROM documents)
WHERE token <> ''
GROUP BY token
ORDER BY n DESC, token LIMIT 20
"""


# --- 9b2. Count-Min point-frequency estimates (stages/sketches.py) ----------

_CMS_SCRATCH = "/tmp/graft_scratch/cms_estimates"
# the sketch shape the engine builds and the ε-bound the oracle gates it
# with: est − exact ≤ ⌈_CMS_MARGIN_E·e·N/_CMS_WIDTH⌉ (written once, so the
# two sides cannot drift apart)
_CMS_DEPTH = 4
_CMS_WIDTH = 2048
_CMS_MARGIN_E = 4


def q_token_freq_cms(sf_dir: str):
    """Count-Min frequency estimates for the exact top-20 tokens — the
    unbounded-cardinality sibling of token_topk_freq (when the exact
    per-key aggregate can't exist anywhere, the d×w integer sketch
    answers point lookups with est ≥ true, est ≤ true + N·e/w whp).
    Build = one corpus pass emitting only nonzero counters + one
    ``pre_aggregate``; integer merges make the sketch bit-deterministic
    under repartitioning.

    SQL-gated via the sketch's OWN guarantee (an approximate operator
    gated without faking exactness): the emitted rows carry exact AND
    estimate, so the oracle recomputes the exact top-20 independently,
    joins the ENGINE-PERSISTED estimates, and keeps a row only when
    est ≥ exact (the deterministic one-sided guarantee — an undercount
    always fails) AND est − exact ≤ ⌈4e·N/w⌉.  The margin is 4× the
    textbook whp bound ON PURPOSE: e·N/w holds per token only with
    probability ≈ 1 − e⁻ᵈ, so a hard gate at that constant could
    false-fail a correct sketch at a scale/hashing not already
    certified; at 4e the per-token failure odds drop to ≈(1/4e)ᵈ ≈ 7e-5
    (still ≤ 0.54% of N — a meaningful gate).  The tight e·N/w bound
    stays distributionally pytest-gated in tests/test_sketches.py, and
    a disagreement on the exact column still hash-fails outright."""
    from searchengine_ray.stages.relational import global_topk
    from searchengine_ray.stages.sketches import (count_min_build,
                                                  count_min_query)

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    tc = text_stage.doc_term_counts(ds, mode="simple")

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"token": df["token"],
                             "cnt": df["cnt"].astype(np.int64)})

    toks = tc.map_batches(explode, batch_format="pandas").materialize()
    sk = count_min_build(toks, "token", depth=_CMS_DEPTH, width=_CMS_WIDTH,
                         weight_col="cnt")
    counts = pre_aggregate(toks, ["token"], {"n": ("cnt", "sum")})
    top = global_topk(counts, ["n", "token"], [False, True], 20)
    est = count_min_query(sk, top["token"])
    out = pd.DataFrame({"token": top["token"],
                        "n_exact": top["n"].astype(np.int64),
                        "n_est": est.astype(np.int64)})
    import shutil

    import pyarrow.parquet as papq
    shutil.rmtree(_CMS_SCRATCH, ignore_errors=True)
    os.makedirs(_CMS_SCRATCH, exist_ok=True)
    papq.write_table(pa.Table.from_pandas(out[["token", "n_est"]]),
                     os.path.join(_CMS_SCRATCH, "estimates.parquet"))
    return out


SQL_TOKEN_FREQ_CMS = f"""
WITH toks AS (
  SELECT unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS token
  FROM documents),
t2 AS (SELECT token FROM toks WHERE token <> ''),
tot AS (SELECT count(*) AS nn FROM t2),
top AS (SELECT token, count(*) AS n FROM t2 GROUP BY token
        ORDER BY n DESC, token LIMIT 20),
est AS (SELECT token, n_est
        FROM read_parquet('{_CMS_SCRATCH}/*.parquet'))
SELECT t.token, t.n AS n_exact, e.n_est
FROM top t JOIN est e USING (token), tot
WHERE e.n_est >= t.n
  AND e.n_est - t.n
      <= CAST(ceil({_CMS_MARGIN_E} * {math.e!r} * tot.nn / {_CMS_WIDTH})
              AS BIGINT)
"""


# --- 9c. heavy-hitter tokens (MG sketch candidates + exact recount) ----------

def q_heavy_tokens(sf_dir: str):
    """Tokens comprising > 0.5% of all token occurrences — the two-pass
    exact heavy-hitters operator (``stages/sketches.heavy_hitters_exact``):
    Misra-Gries candidate sketch (driver sees < 2/threshold candidate keys,
    never the vocabulary) + broadcast-semi exact recount.  SQL-gated
    against the exact HAVING query."""
    from searchengine_ray.stages.sketches import heavy_hitters_exact

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    tc = text_stage.doc_term_counts(ds, mode="simple")

    def project(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"token": df["token"],
                             "cnt": df["cnt"].astype(np.int64)})

    proj = tc.map_batches(project, batch_format="pandas").materialize()
    return heavy_hitters_exact(proj, "token", weight_col="cnt",
                               threshold_frac=0.005)


SQL_HEAVY_TOKENS = """
WITH toks AS (
  SELECT unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS token
  FROM documents),
toks2 AS (SELECT token FROM toks WHERE token <> ''),
tot AS (SELECT count(*) AS c FROM toks2)
SELECT token, count(*) AS n
FROM toks2, tot GROUP BY token, c HAVING count(*) > 0.005 * c
"""


# --- 10. language counts ----------------------------------------------------

def q_lang_count(sf_dir: str):
    ds = _pq(sf_dir, "documents", columns=["lang"])
    return pre_aggregate(ds, ["lang"], {"n": (None, "count")})


SQL_LANG_COUNT = "SELECT lang, count(*) AS n FROM documents GROUP BY lang"


# --- 11. whitespace token counts per doc ------------------------------------

def q_token_counts(sf_dir: str):
    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"],
            "n_ws_tokens": [np.int64(len((t or "").split(" "))) for t in df["text"]],
        })

    return ds.map_batches(fn, batch_format="pandas")


SQL_TOKEN_COUNTS = """
SELECT doc_id, CAST(len(string_split(text, ' ')) AS BIGINT) AS n_ws_tokens
FROM documents
"""


# --- 12. brute-force cosine top-k (similarity search baseline) --------------

def q_knn_bruteforce(sf_dir: str):
    import pyarrow.parquet as pq

    ds = _pq(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    # query vector: single-row predicate-pushdown parquet read (row-group
    # pruning), not a full-table filter
    qt = pq.read_table(f"{sf_dir}/embeddings.parquet",
                       columns=["vec_id", "embedding"],
                       filters=[("vec_id", "==", 0)])
    q = qt["embedding"].to_pylist()[0]
    # over-fetch (k=50), round, re-rank on (rounded cosine, vec_id): the final
    # top-10 SET then matches the oracle even on rounded-value boundary ties
    out = knn_stage.knn_bruteforce(ds, np.asarray(q), k=50, exclude_ids={0})
    out["cosine"] = out["cosine"].round(6)
    return (out.sort_values(["cosine", "vec_id"], ascending=[False, True])
            .head(10).reset_index(drop=True))


SQL_KNN = """
WITH q AS (SELECT embedding AS qe FROM embeddings WHERE vec_id = 0)
SELECT vec_id,
       round(list_cosine_similarity(CAST(embedding AS DOUBLE[]),
                                    CAST(qe AS DOUBLE[])), 6) AS cosine
FROM embeddings, q WHERE vec_id <> 0
ORDER BY cosine DESC, vec_id LIMIT 10
"""


# --- 12b. batched multi-query exact KNN --------------------------------------

def q_knn_multi(sf_dir: str):
    """Three query vectors answered in ONE corpus pass (n×d @ d×3 per
    batch) — the batched-inference shape.  Over-fetch → round → re-rank per
    query so the top-10 SET matches the oracle on rounded boundary ties."""
    import pyarrow.parquet as pq

    qt = pq.read_table(f"{sf_dir}/embeddings.parquet",
                       columns=["vec_id", "embedding"],
                       filters=[("vec_id", "in", [0, 1, 2])])
    queries = pd.DataFrame({"query_id": qt["vec_id"].to_numpy(),
                            "vec": qt["embedding"].to_pylist()})
    ds = _pq(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = knn_stage.knn_bruteforce_multi(ds, queries, k=50)
    out["cosine"] = out["cosine"].round(6)
    return (out.sort_values(["query_id", "cosine", "vec_id"],
                            ascending=[True, False, True], kind="mergesort")
            .groupby("query_id", sort=False).head(10)
            .reset_index(drop=True))


SQL_KNN_MULTI = """
WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings
           WHERE vec_id IN (0, 1, 2)),
s AS (SELECT qid, vec_id,
             round(list_cosine_similarity(CAST(embedding AS DOUBLE[]),
                                          CAST(qe AS DOUBLE[])), 6) AS cosine
      FROM embeddings, q WHERE vec_id <> qid)
SELECT qid AS query_id, vec_id, cosine FROM s
QUALIFY row_number() OVER (PARTITION BY qid
                           ORDER BY cosine DESC, vec_id) <= 10
"""


# --- 12c. MMR diverse re-ranking (stages/knn.mmr_select) --------------------

_MMR_SCRATCH = "/tmp/graft_scratch/mmr_sims"


def q_mmr_rerank(sf_dir: str):
    """Diversity re-ranking after dense retrieval: top-50 cosine
    candidates per query (one corpus pass via the batched matmul), then
    the Carbonell–Goldstein MMR greedy (λ=0.7) picks 10 — relevance
    minus max-similarity-to-already-selected.  Corpus-scaled work stays
    in the retriever; candidate vectors come back through ONE
    id-filtered parquet pushdown read (O(Q×C) rows) and the greedy is
    bounded driver arithmetic — the ``rrf_fuse`` contract.

    SQL-gated by UNROLLING the greedy (the pattern graph_communities
    uses for its LPA rounds): the engine persists its relevance vector
    and candidate pairwise sims (O(Q×C²) rows, C = 50), and the oracle
    replays the k = 10 selection steps as generated chained argmax CTEs
    over those ENGINE-PERSISTED doubles — parquet float64 round-trips
    exactly, multiplication/subtraction/max are deterministic IEEE ops,
    so both sides argmax over bit-identical scores and ties resolve to
    the smallest vec_id on both.  The independent sequential reference
    + planted-duplicate diversity test in tests/test_knn.py still pin
    the semantics."""
    import shutil

    import pyarrow.parquet as papq

    qt = papq.read_table(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"],
                         filters=[("vec_id", "in", [0, 1, 2])])
    queries = pd.DataFrame({"query_id": qt["vec_id"].to_numpy(),
                            "vec": qt["embedding"].to_pylist()})
    ds = _pq(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cand = knn_stage.knn_bruteforce_multi(ds, queries, k=50)
    cand_ids = np.unique(cand["vec_id"].to_numpy(np.int64))
    vt = papq.read_table(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"],
                         filters=[("vec_id", "in", cand_ids.tolist())])
    vid = vt["vec_id"].to_numpy()
    vmat = np.stack([np.asarray(e, dtype=np.float64)
                     for e in vt["embedding"].to_pylist()])
    pos = {int(v): i for i, v in enumerate(vid)}
    outs, rel_rows, sim_rows = [], [], []
    for _, qrow in queries.iterrows():
        qid = int(qrow["query_id"])
        c = cand[cand["query_id"] == qid]
        cids = c["vec_id"].to_numpy(np.int64)
        mat = vmat[[pos[int(i)] for i in cids]]
        ids, rel, simmat = knn_stage.mmr_matrices(
            np.asarray(qrow["vec"], np.float64), cids, mat)
        C = len(ids)
        rel_rows.append(pd.DataFrame({
            "query_id": np.full(C, qid, np.int64),
            "vec_id": ids, "rel": rel}))
        aa, bb = np.meshgrid(ids, ids, indexing="ij")
        sim_rows.append(pd.DataFrame({
            "query_id": np.full(C * C, qid, np.int64),
            "a": aa.ravel(), "b": bb.ravel(), "s": simmat.ravel()}))
        sel = knn_stage.mmr_greedy(ids, rel, simmat, k=10, lam=0.7)
        sel.insert(0, "query_id", np.int64(qid))
        outs.append(sel)
    shutil.rmtree(_MMR_SCRATCH, ignore_errors=True)
    os.makedirs(_MMR_SCRATCH, exist_ok=True)
    papq.write_table(pa.Table.from_pandas(pd.concat(rel_rows)),
                     os.path.join(_MMR_SCRATCH, "rel.parquet"))
    papq.write_table(pa.Table.from_pandas(pd.concat(sim_rows)),
                     os.path.join(_MMR_SCRATCH, "sim.parquet"))
    return pd.concat(outs, ignore_index=True)


def _mmr_unrolled_sql(k: int = 10, lam: float = 0.7) -> str:
    """Generate the k-step MMR greedy as chained argmax CTEs over the
    engine-persisted rel/sim scratch tables (graph_communities' generated
    LPA-round pattern).  The penalty constant is interpolated as the
    PRECOMPUTED Python double `repr(1.0 - lam)` and CAST to DOUBLE:
    writing `(1.0 - 0.7)` in SQL makes DuckDB subtract in DECIMAL space
    (exact 0.3 → double 1 ulp BELOW numpy's 1.0 - 0.7), which measurably
    shifts ~half the step scores by an ulp — enough to flip a rounded
    6-decimal score or a near-tie argmax at a boundary."""
    parts = [f"""
WITH rel AS MATERIALIZED (SELECT query_id, vec_id, rel
             FROM read_parquet('{_MMR_SCRATCH}/rel.parquet')),
sim AS MATERIALIZED (SELECT query_id, a, b, s
        FROM read_parquet('{_MMR_SCRATCH}/sim.parquet')),
pick1 AS MATERIALIZED (SELECT query_id, vec_id, {lam!r} * rel AS score,
                 CAST(0 AS BIGINT) AS "rank" FROM rel
          QUALIFY row_number() OVER (PARTITION BY query_id
                                     ORDER BY {lam!r} * rel DESC, vec_id) = 1),
sel1 AS MATERIALIZED (SELECT query_id, vec_id FROM pick1)"""]
    for t in range(2, k + 1):
        parts.append(f""",
sc{t} AS MATERIALIZED (SELECT c.query_id, c.vec_id,
                 {lam!r} * c.rel
                   - CAST({(1.0 - lam)!r} AS DOUBLE) * max(p.s) AS score
          FROM rel c
          JOIN sim p ON p.query_id = c.query_id AND p.a = c.vec_id
          JOIN sel{t - 1} ch ON ch.query_id = p.query_id
                            AND ch.vec_id = p.b
          WHERE NOT EXISTS (SELECT 1 FROM sel{t - 1} x
                            WHERE x.query_id = c.query_id
                              AND x.vec_id = c.vec_id)
          GROUP BY c.query_id, c.vec_id, c.rel),
pick{t} AS MATERIALIZED (SELECT query_id, vec_id, score,
                   CAST({t - 1} AS BIGINT) AS "rank" FROM sc{t}
            QUALIFY row_number() OVER (PARTITION BY query_id
                                       ORDER BY score DESC, vec_id) = 1),
sel{t} AS MATERIALIZED (SELECT query_id, vec_id FROM sel{t - 1}
           UNION ALL SELECT query_id, vec_id FROM pick{t})""")
    picks = " UNION ALL ".join(f"SELECT * FROM pick{t}"
                               for t in range(1, k + 1))
    parts.append(f"""
SELECT query_id, "rank", vec_id, round(score, 6) AS mmr_score
FROM ({picks})""")
    return "".join(parts)


SQL_MMR_RERANK = _mmr_unrolled_sql()


# --- 13. URL canonicalize/hash over synthesized doc URLs (M6-M8) ------------

def q_url_canon(sf_dir: str):
    ds = _pq(sf_dir, "documents", columns=["doc_id", "source"])

    def make_url(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        src = batch["source"].to_pylist()
        urls = [f"https://{s}.example.com/docs/{i}/" for s, i in zip(src, ids)]
        return batch.append_column("url", pa.array(urls, pa.string()))

    ds = ds.map_batches(make_url, batch_format="pyarrow")
    ds = ds.map_batches(canonicalize_batch, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "url_norm", "url_hash", "host"])


SQL_URL_CANON = """
SELECT doc_id,
       'https://' || source || '.example.com/docs/' || CAST(doc_id AS VARCHAR)
           AS url_norm,
       sha256(source || '.example.com' || '//docs/' ||
              CAST(doc_id AS VARCHAR) || '///') AS url_hash,
       source || '.example.com' AS host
FROM documents
"""


# --- 13b. boolean OR-of-AND search (reference query path, D1/D2/J1/O2/O3) ---

SEARCH_QUERY = "fast AND merge OR join"


def q_boolean_search(sf_dir: str):
    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    postings = text_stage.tfidf_postings(ds, mode="simple", round_to=6)
    from searchengine_ray.pipelines.search import boolean_search

    return boolean_search(postings, SEARCH_QUERY, k=5)


SQL_BOOLEAN_SEARCH = """
WITH toks AS (
  SELECT doc_id,
         unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS token
  FROM documents),
toks2 AS (SELECT * FROM toks WHERE token <> ''),
doc_len AS (SELECT doc_id, count(*) AS n FROM toks2 GROUP BY doc_id),
tc AS (SELECT doc_id, token, count(*) AS cnt FROM toks2 GROUP BY doc_id, token),
dfreq AS (SELECT token, count(DISTINCT doc_id) AS df FROM toks2 GROUP BY token),
n_docs AS (SELECT count(*) AS n FROM documents),
p AS (SELECT tc.doc_id, tc.token,
             round((CAST(tc.cnt AS DOUBLE) / doc_len.n)
                   * ln(CAST(n_docs.n AS DOUBLE) / dfreq.df), 6) AS tf_idf
      FROM tc JOIN doc_len USING (doc_id) JOIN dfreq USING (token), n_docs
      WHERE tc.token IN ('fast', 'merge', 'join')),
q AS (SELECT doc_id,
             max(CASE WHEN token = 'fast'  THEN 1 ELSE 0 END) AS has_fast,
             max(CASE WHEN token = 'merge' THEN 1 ELSE 0 END) AS has_merge,
             max(CASE WHEN token = 'join'  THEN 1 ELSE 0 END) AS has_join,
             round(sum(tf_idf), 6) AS score
      FROM p GROUP BY doc_id)
SELECT doc_id, score FROM q
WHERE (has_fast = 1 AND has_merge = 1) OR has_join = 1
ORDER BY score DESC, doc_id LIMIT 5
"""


# --- 13c. crawl flagship (rows-only: deterministic synthetic web graph) -----

def q_crawl_bfs(sf_dir: str):
    """Full BFS crawl of the deterministic fixture graph — the north-rule
    pipeline (frontier waves, seen-set shards, trap/near-dup gates).  The
    result is the crawl_order table; conformance vs the sequential oracle is
    asserted by tests/test_crawl.py."""
    from searchengine_ray.config import CrawlConfig
    from searchengine_ray.pipelines.crawl import CrawlEngine
    from searchengine_ray.sources.fixtures import make_store

    store = make_store(n_pages=100, seed=42)
    config = CrawlConfig(seed_urls=list(store.seeds), allowed_domains=("test",),
                         num_gate_shards=4, fetch_concurrency=4,
                         # tiny fixture crawl, often run in a shared session
                         # (dryrun/suite) right after other engines — 0-CPU
                         # state actors so a leaked reservation can't starve
                         # the wave's Ray Data tasks
                         state_actor_num_cpus=0)
    eng = CrawlEngine(store, config)
    try:
        res = eng.run()
    finally:
        eng.shutdown()
    return res.crawl_order


# --- 13d. index analytics (A4/A5 + S4/S5 writer path) ------------------------

def q_index_stats(sf_dir: str):
    """Build + persist the token-sorted index, then report its analytics
    (reference index_construction.py:246-250) — exercises the full S4-S6
    writer path; counts are SQL-checkable."""
    import tempfile

    from searchengine_ray.pipelines.index_pipeline import build_postings, write_index

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    postings = build_postings(ds, mode="simple")
    with tempfile.TemporaryDirectory(prefix="sr_idx_") as out:
        summary = write_index(postings, out)
    return pd.DataFrame([{k: np.int64(summary[k])
                          for k in ("n_postings", "n_unique_tokens")}])


SQL_INDEX_STATS = """
WITH toks AS (
  SELECT doc_id,
         unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS token
  FROM documents),
toks2 AS (SELECT DISTINCT doc_id, token FROM toks WHERE token <> '')
SELECT count(*) AS n_postings, count(DISTINCT token) AS n_unique_tokens
FROM toks2
"""


# --- 14. quality / langid features (SQL-checked) -----------------------------

def q_text_features(sf_dir: str):
    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(text_stage.TextFeatures, batch_format="pandas",
                         batch_size=1024, concurrency=(1, 4))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype(np.int64),
            "lang_pred": df["lang_pred"],
            "n_words": df["n_words"].astype(np.int64),
            "mean_word_len": df["mean_word_len"].round(6),
            "punct_ratio": df["punct_ratio"].round(6),
            "stopword_ratio": df["stopword_ratio"].round(6),
            "n_tokens_bpeish": df["n_tokens_bpeish"].astype(np.int64),
        })

    return out.map_batches(finish, batch_format="pandas")


# Oracle for the full feature row (every feature is deterministic string
# math, so the whole projection is SQL-expressible; the CJK branch of
# detect_language is vacuous on this ASCII corpus and the stopword-voting
# tie-break mirrors the engine's first-max-wins order en→de→fr→es).
SQL_TEXT_FEATURES = r"""
WITH base AS (
  SELECT doc_id, text,
         list_filter(string_split(text, ' '), w -> w <> '') AS words,
         regexp_extract_all(lower(substring(text, 1, 4000)), '[a-z'']+') AS w4k
  FROM documents),
feat AS (
  SELECT doc_id, text, words,
         len(words) AS n_words,
         len(list_filter(w4k, w -> w IN ('the','and','of','to','a','in','is','that','it','for'))) AS h_en,
         len(list_filter(w4k, w -> w IN ('der','die','das','und','ist','nicht','ein','mit','zu','den'))) AS h_de,
         len(list_filter(w4k, w -> w IN ('le','la','les','et','est','un','une','des','pour','que'))) AS h_fr,
         len(list_filter(w4k, w -> w IN ('el','la','los','las','y','es','un','una','por','que'))) AS h_es
  FROM base)
SELECT doc_id,
       CASE WHEN greatest(h_en, h_de, h_fr, h_es) = 0 THEN 'unknown'
            WHEN h_en = greatest(h_en, h_de, h_fr, h_es) THEN 'en'
            WHEN h_de = greatest(h_en, h_de, h_fr, h_es) THEN 'de'
            WHEN h_fr = greatest(h_en, h_de, h_fr, h_es) THEN 'fr'
            ELSE 'es' END AS lang_pred,
       CAST(n_words AS BIGINT) AS n_words,
       round(CASE WHEN n_words = 0 THEN 0.0
                  ELSE CAST(len(regexp_replace(text, '\s', '', 'g')) AS DOUBLE)
                       / n_words END, 6) AS mean_word_len,
       round(CASE WHEN len(text) = 0 THEN 0.0
                  ELSE CAST(len(regexp_extract_all(text, '[^\w\s]')) AS DOUBLE)
                       / len(text) END, 6) AS punct_ratio,
       round(CASE WHEN n_words = 0 THEN 0.0
                  ELSE CAST(len(list_filter(words,
                       w -> lower(w) IN ('the','and','of','to','a','in','is','that','it','for')))
                       AS DOUBLE) / n_words END, 6) AS stopword_ratio,
       CAST(len(regexp_extract_all(text, '[A-Za-z]{1,8}|[0-9]{1,3}|[^\sA-Za-z0-9]'))
            AS BIGINT) AS n_tokens_bpeish
FROM feat
"""


# --- 15. minhash LSH near-dup + exact verify (SQL-checked) -------------------

def q_minhash_pairs(sf_dir: str):
    """LSH candidates + distributed exact-Jaccard verify.  The verified
    output is checked against the exact all-pairs SQL (SQL_MINHASH_PAIRS) —
    i.e. the LSH stage must have perfect recall at this threshold on this
    corpus.  128 perms in 32 bands of r=4: P(miss) ≈ (1-J⁴)³² < 1e-3 for
    J > 0.67 and < 4e-7 for J ≥ 0.78 — and the run is deterministic (fixed
    seed), so a recall check that passes on a corpus stays passing."""
    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    cand = dedup_stage.minhash_lsh_candidates(ds, dedup=False)
    return dedup_stage.verify_jaccard_pairs(ds, cand, threshold=0.65)


# --- 15a2. incremental near-dup vs a persisted band store -------------------

_BAND_STORE_DIR = "/tmp/graft_scratch/band_store"


def q_incremental_neardup(sf_dir: str):
    """Daily-increment dedup: persist the base corpus's LSH band store
    once (doc_id%10 != 0), then near-dup a delta (doc_id%10 == 0)
    against it — the delta is signed, the base is NOT re-signed, and
    exact-jaccard verification re-tokenizes ONLY candidate-involved docs
    (one semi-join).  Output: every verified pair touching the delta.
    The oracle computes exact all-pairs jaccard over the merged corpus
    in SQL and keeps pairs with ≥ 1 delta member — so the incremental
    path must find exactly what a full recompute would."""
    import shutil

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    base = ds.map_batches(lambda df: df[df["doc_id"] % 10 != 0],
                          batch_format="pandas")
    delta = ds.map_batches(lambda df: df[df["doc_id"] % 10 == 0],
                           batch_format="pandas")
    shutil.rmtree(_BAND_STORE_DIR, ignore_errors=True)
    dedup_stage.build_band_store(base, _BAND_STORE_DIR)
    return dedup_stage.incremental_neardup_pairs(
        _BAND_STORE_DIR, base, delta, threshold=0.65)


# --- 15a3. PPJoin prefix-filtered exact set-similarity join ------------------

def q_ppjoin_pairs(sf_dir: str):
    """EXACT Jaccard-threshold self-join via global-df prefix filtering
    (PPJoin family) — no LSH recall parameter, no df cap dropping hot
    shingles.  Same output contract (and the same exact all-pairs SQL
    oracle) as ``minhash_pairs``: any pruning-bound defect in the prefix
    or length filters loses a pair and breaks the hash."""
    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    return dedup_stage.ppjoin_jaccard_pairs(ds, threshold=0.65)


# --- 15a4. edit-distance title join (Ed-Join; character-level family) -------

def q_title_edit_neardup(sf_dir: str):
    """Fuzzy title matching (record linkage): EXACT Levenshtein <= 4
    self-join over 32-char title prefixes via global-rarity q-gram prefix
    filtering (Ed-Join) + a pair-vectorized DP verify.  Character-level
    complement to the token-set dedup families; the all-pairs DuckDB
    ``levenshtein`` oracle pins every pruning bound."""
    from searchengine_ray.stages.editdist import edit_distance_pairs

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    return edit_distance_pairs(ds, max_dist=4, q=3, prefix_chars=32)


SQL_TITLE_EDIT_NEARDUP = """
WITH t AS (SELECT doc_id, substr(text, 1, 32) AS title FROM documents)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       CAST(levenshtein(a.title, b.title) AS BIGINT) AS dist
FROM t a JOIN t b ON a.doc_id < b.doc_id
WHERE abs(length(a.title) - length(b.title)) <= 4
  AND levenshtein(a.title, b.title) <= 4
"""


# --- 14c. record linkage best-match (stages/editdist.py) --------------------

def q_record_linkage(sf_dir: str):
    """Entity resolution: a deterministically dirtied title feed linked
    back to the clean registry — block on the first 4 title chars (the
    dirt model perturbs only the tail, so blocking is sound and the
    oracle mirrors the same block join), score with the exact banded
    Levenshtein kernel, keep each query's minimum-distance registry row
    (ties → smallest id) at dist ≤ 4.  One tagged-union co-shuffle on
    the block key; see ``stages/editdist.linkage_best_match``."""
    from searchengine_ray.stages.editdist import linkage_best_match

    docs = _pq(sf_dir, "documents", columns=["doc_id", "text"])

    def clean(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"reg_id": df["doc_id"].to_numpy(np.int64),
                             "r_text": df["text"].str.slice(0, 32)})

    def dirty(df: pd.DataFrame) -> pd.DataFrame:
        t = df["text"].str.slice(0, 32)
        m = df["doc_id"].to_numpy(np.int64) % 3
        qt = t.copy()
        qt[m == 0] = t[m == 0].str.slice(0, -1)   # last char dropped
        qt[m == 1] = t[m == 1] + "x"              # char appended
        return pd.DataFrame({"query_id": df["doc_id"].to_numpy(np.int64),
                             "q_text": qt})

    registry = docs.map_batches(clean, batch_format="pandas")
    queries = docs.map_batches(dirty, batch_format="pandas")
    return linkage_best_match(queries, registry, max_dist=4, block_chars=4)


SQL_RECORD_LINKAGE = """
WITH c AS (SELECT doc_id AS cid, substr(text, 1, 32) AS ct FROM documents),
q AS (SELECT doc_id AS qid,
             CASE WHEN doc_id % 3 = 0 THEN substr(t, 1, length(t) - 1)
                  WHEN doc_id % 3 = 1 THEN t || 'x'
                  ELSE t END AS qt
      FROM (SELECT doc_id, substr(text, 1, 32) AS t FROM documents)),
cand AS (SELECT q.qid, c.cid,
                CAST(levenshtein(q.qt, c.ct) AS BIGINT) AS dist
         FROM q JOIN c ON substr(q.qt, 1, 4) = substr(c.ct, 1, 4)
         WHERE levenshtein(q.qt, c.ct) <= 4)
SELECT qid AS query_id, cid AS match_id, dist
FROM (SELECT *, row_number() OVER (PARTITION BY qid
                                   ORDER BY dist, cid) AS rn FROM cand)
WHERE rn = 1
"""


# --- 15b. exact n-gram Jaccard pairs (distributed form of reference D5) -----

def q_ngram_jaccard(sf_dir: str):
    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    return dedup_stage.ngram_jaccard_pairs(ds, threshold=0.65)


# Shared CTE prefix: distinct non-overlapping 3-gram shingles per doc (the
# engine's shingle_hashes semantics — reference ngrams.py:28-66).
_SQL_SHINGLES = """
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     t -> t <> '') AS ts
  FROM documents),
sh AS (
  SELECT DISTINCT doc_id,
         unnest(list_transform(range(0, len(ts), 3),
                               i -> array_to_string(ts[i+1:i+3], ''))) AS s
  FROM toks WHERE len(ts) > 0)
"""

# Capped variant (mirrors stages/dedup.DEFAULT_MAX_SHINGLE_DF = 64): shingles
# with document frequency > 64 are dropped from pair generation AND from the
# set sizes, exactly as the engine does.
SQL_NGRAM_JACCARD = _SQL_SHINGLES + """,
ok AS (SELECT s FROM sh GROUP BY s HAVING count(*) <= 64),
sh2 AS (SELECT sh.doc_id, sh.s FROM sh JOIN ok USING (s)),
sizes AS (SELECT doc_id, count(*) AS n FROM sh2 GROUP BY doc_id),
pairs AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS shared
  FROM sh2 a JOIN sh2 b ON a.s = b.s AND a.doc_id < b.doc_id
  GROUP BY a.doc_id, b.doc_id)
SELECT doc_a, doc_b,
       round(CAST(shared AS DOUBLE) / (sa.n + sb.n - shared), 6) AS jaccard
FROM pairs
JOIN sizes sa ON sa.doc_id = doc_a
JOIN sizes sb ON sb.doc_id = doc_b
WHERE CAST(shared AS DOUBLE) / (sa.n + sb.n - shared) > 0.65
"""

def q_ngram_containment(sf_dir: str):
    """Asymmetric-overlap dedup: pairs where the smaller shingle set is
    mostly contained in the larger (quote-inclusion / boilerplate-wrapper
    detection — the case symmetric Jaccard misses).  Same distributed
    counting core as ngram_jaccard; only the final expression differs."""
    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    return dedup_stage.ngram_containment_pairs(ds, threshold=0.8)


SQL_NGRAM_CONTAINMENT = _SQL_SHINGLES + """,
ok AS (SELECT s FROM sh GROUP BY s HAVING count(*) <= 64),
sh2 AS (SELECT sh.doc_id, sh.s FROM sh JOIN ok USING (s)),
sizes AS (SELECT doc_id, count(*) AS n FROM sh2 GROUP BY doc_id),
pairs AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS shared
  FROM sh2 a JOIN sh2 b ON a.s = b.s AND a.doc_id < b.doc_id
  GROUP BY a.doc_id, b.doc_id)
SELECT doc_a, doc_b,
       round(CAST(shared AS DOUBLE) / least(sa.n, sb.n), 6) AS containment
FROM pairs
JOIN sizes sa ON sa.doc_id = doc_a
JOIN sizes sb ON sb.doc_id = doc_b
WHERE CAST(shared AS DOUBLE) / least(sa.n, sb.n) > 0.8
"""


# Uncapped exact all-pairs jaccard: the oracle for the MinHash+LSH+verify
# path — verified LSH output must equal the exact result (full shingle sets,
# no df cap) at the same threshold.
SQL_MINHASH_PAIRS = _SQL_SHINGLES + """,
sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
pairs AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS shared
  FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
  GROUP BY a.doc_id, b.doc_id)
SELECT doc_a, doc_b,
       round(CAST(shared AS DOUBLE) / (sa.n + sb.n - shared), 6) AS jaccard
FROM pairs
JOIN sizes sa ON sa.doc_id = doc_a
JOIN sizes sb ON sb.doc_id = doc_b
WHERE CAST(shared AS DOUBLE) / (sa.n + sb.n - shared) > 0.65
"""

SQL_INCREMENTAL_NEARDUP = _SQL_SHINGLES + """,
sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
pairs AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS shared
  FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
  GROUP BY a.doc_id, b.doc_id)
SELECT doc_a, doc_b,
       round(CAST(shared AS DOUBLE) / (sa.n + sb.n - shared), 6) AS jaccard
FROM pairs
JOIN sizes sa ON sa.doc_id = doc_a
JOIN sizes sb ON sb.doc_id = doc_b
WHERE CAST(shared AS DOUBLE) / (sa.n + sb.n - shared) > 0.65
  AND (doc_a % 10 = 0 OR doc_b % 10 = 0)
"""


# --- 16. simhash near-dup pairs (SQL-checked via scratch signature table) ----

# the engine materializes its simhash column here; the oracle SQL computes
# the PAIR semantics (bit_count(xor) <= t over all pairs) from the same
# table, so the banded pipeline's candidate generation + verify is
# oracle-gated while the 64-bit majority-vote hash itself stays engine-side
# (pinned separately by the brute-force pytest oracle and golden tests)
_SIMHASH_SCRATCH = "/tmp/graft_scratch/simhash_docs"


def q_simhash_pairs(sf_dir: str):
    """SimHash near-dup pairs (hamming ≤ 3).  The signature column is
    written once to the scratch table (read by the oracle SQL), then the
    pairs come from the vectorized banded operator over that table —
    identical machinery to ``image_phash_neardup``."""
    import shutil

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    hashed = dedup_stage.add_simhash(ds).select_columns(["doc_id", "simhash"])
    shutil.rmtree(_SIMHASH_SCRATCH, ignore_errors=True)
    hashed.write_parquet(_SIMHASH_SCRATCH)
    sigs = rd.read_parquet(_SIMHASH_SCRATCH)
    out = dedup_stage.hash_neardup_pairs(sigs, hash_col="simhash",
                                         id_col="doc_id", max_hamming=3)

    def rename(df: pd.DataFrame) -> pd.DataFrame:
        return df.rename(columns={"id_a": "doc_a", "id_b": "doc_b"})

    return out.map_batches(rename, batch_format="pandas")


SQL_SIMHASH_PAIRS = f"""
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT) AS hamming
FROM read_parquet('{_SIMHASH_SCRATCH}/*.parquet') a
JOIN read_parquet('{_SIMHASH_SCRATCH}/*.parquet') b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.simhash, b.simhash)) <= 3
"""


# --- 16a. winnowing-fingerprint copy detection (scratch-table SQL gate) ------

# the engine materializes its distinct (doc_id, fp) winnowing fingerprints
# here (UNCAPPED); the oracle SQL re-derives the pair semantics — hot-fp
# df cap, shared-count threshold, overlap = shared/min(|A|,|B|) — from the
# same table, so the distributed set-overlap pipeline is oracle-gated
# while the rolling-hash values stay engine-side (pinned separately
# bit-identical to the per-doc reference kernel by pytest)
_FP_SCRATCH = "/tmp/graft_scratch/fingerprint_docs"
_FP_MIN_SHARED = 4
_FP_DF_CAP = 64


def q_fingerprint_neardup(sf_dir: str):
    """Winnowing-fingerprint copy detection (MOSS family): doc pairs
    sharing ≥ 4 distinct content-defined 64-byte-window fingerprints —
    the insertion/deletion-tolerant verbatim-copy measure sampled at
    ~1/8 the exploded volume of full shingling.  Distinct fingerprints
    are written once to the scratch table (read by the oracle SQL); the
    pairs come from the same distributed set-overlap core as
    ``ngram_jaccard``."""
    import shutil

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    fps = dedup_stage.explode_fingerprints(ds)

    def to_scratch(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": df["doc_id"].to_numpy(),
                             "fp": df["sh"].to_numpy()})

    shutil.rmtree(_FP_SCRATCH, ignore_errors=True)
    fps.map_batches(to_scratch, batch_format="pandas").write_parquet(
        _FP_SCRATCH)
    return dedup_stage.fingerprint_overlap_pairs(
        ds, min_shared=_FP_MIN_SHARED, max_fp_df=_FP_DF_CAP)


SQL_FINGERPRINT_NEARDUP = f"""
WITH fps AS (SELECT doc_id, fp
             FROM read_parquet('{_FP_SCRATCH}/*.parquet')),
hot AS (SELECT fp FROM fps GROUP BY fp HAVING count(*) > {_FP_DF_CAP}),
capped AS (SELECT * FROM fps WHERE fp NOT IN (SELECT fp FROM hot)),
sizes AS (SELECT doc_id, count(*) AS n FROM capped GROUP BY doc_id)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       CAST(count(*) AS BIGINT) AS shared,
       round(count(*) / least(min(sa.n), min(sb.n)), 6) AS overlap
FROM capped a
JOIN capped b ON a.fp = b.fp AND a.doc_id < b.doc_id
JOIN sizes sa ON sa.doc_id = a.doc_id
JOIN sizes sb ON sb.doc_id = b.doc_id
GROUP BY a.doc_id, b.doc_id
HAVING count(*) >= {_FP_MIN_SHARED}
"""


# --- 16b. multimodal image stages (SQL-checked per-row invariant gate) -------

def q_image_pipeline(sf_dir: str):
    """validate → resize → feature-extract actor-pool stages over the
    image+caption corpus table, gated on the input-hint PER-ROW INVARIANT:
    decoded pixels equal the generator's originals exactly for lossless
    formats and reach PSNR ≥ 40 dB for the lossy codec; captions match
    exactly.  The oracle reads the generator-ground-truth golden table and
    expects every flag TRUE with intact metadata — a hash match therefore
    proves the engine decoded every row correctly (non-circular: the
    golden pixels predate the codec), resized to the requested edge, and
    kept the feature stage's phash self-consistent."""
    from searchengine_ray.sources.image_table import (
        ensure_golden_table, ensure_image_table)
    from searchengine_ray.stages.images import (
        ImageFeatures, ResizeImages, ValidateImages)

    corpus = ensure_image_table()
    golden = ensure_golden_table()
    ds = rd.read_parquet(corpus)
    # autoscaling (1, 2) pools: three chained actor stages with FIXED
    # 2-actor pools demand 6 whole CPUs before any can run — a deadlock on
    # a 4-CPU test session; min=1 lets the streaming executor place them
    out = ds.map_batches(ValidateImages,
                         fn_constructor_kwargs={"golden_path": golden},
                         batch_format="pyarrow", batch_size=64,
                         concurrency=(1, 2))
    out = out.map_batches(ResizeImages, fn_constructor_kwargs={"edge": 16},
                          batch_format="pyarrow", batch_size=64,
                          concurrency=(1, 2))
    out = out.map_batches(ImageFeatures, batch_format="pyarrow",
                          batch_size=64, concurrency=(1, 2))

    def finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return pa.table({
            "image_id": t["image_id"],
            "fmt": t["fmt"],
            "w": t["w0"], "h": t["h0"],
            "decode_ok": t["decode_ok"],
            "pixels_ok": t["pixels_ok"],
            "caption_ok": t["caption_ok"],
            "resized_edge": pc.cast(t["w"], pa.int64()),
            "phash_consistent": pc.equal(t["phash_recomputed"], t["phash"]),
        })

    return out.map_batches(finish, batch_format="pyarrow")


# --- 16c. near-dup cluster resolution (pairs → components → survivors) -------

def q_neardup_clusters(sf_dir: str):
    """Distributed connected components over the n-gram-jaccard pair graph:
    (doc_id, cluster_id) for every doc in any near-dup pair, cluster_id =
    min member id.  Min-label propagation + pointer jumping — O(log n)
    rounds of two small all-to-alls each; nothing doc-scaled on the driver
    (stages/clusters.py).  The oracle is a DuckDB recursive CTE computing
    the transitive closure of the SAME pair SQL."""
    from searchengine_ray.stages.clusters import connected_components

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    pairs = dedup_stage.ngram_jaccard_pairs(ds, threshold=0.65)
    comps = connected_components(pairs)

    def rename(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": df["node"].astype(np.int64),
                             "cluster_id": df["cluster_id"].astype(np.int64)})

    return comps.map_batches(rename, batch_format="pandas")


# the recursive closure rides on the same capped pair CTEs as
# SQL_NGRAM_JACCARD (WITH RECURSIVE prefixes the whole CTE list; only
# `r` recurses)
_SQL_JPAIRS_BODY = (SQL_NGRAM_JACCARD.replace("\nWITH ", "", 1)
                    .split("SELECT doc_a,")[0].rstrip())

SQL_NEARDUP_CLUSTERS = ("WITH RECURSIVE " + _SQL_JPAIRS_BODY + """,
jp AS (
  SELECT doc_a, doc_b FROM pairs
  JOIN sizes sa ON sa.doc_id = doc_a
  JOIN sizes sb ON sb.doc_id = doc_b
  WHERE CAST(shared AS DOUBLE) / (sa.n + sb.n - shared) > 0.65),
edges AS (SELECT doc_a AS u, doc_b AS v FROM jp
          UNION ALL SELECT doc_b, doc_a FROM jp),
r(node, lab) AS (
  SELECT u, u FROM edges
  UNION
  SELECT e.v, r.lab FROM edges e JOIN r ON r.node = e.u)
SELECT node AS doc_id, min(lab) AS cluster_id FROM r GROUP BY node
""")


def q_neardup_survivors(sf_dir: str):
    """Keep-best survivor per near-dup cluster over the FULL corpus
    (singletons survive as their own cluster): longest doc wins, ties to
    the smallest doc_id — the operator a training-data dedup pass actually
    consumes.  attach = one co-shuffled left join (components are
    duplicate-scale, never broadcast); survivors = one vectorized
    sort + drop_duplicates + size merge per cluster bucket."""
    from searchengine_ray.stages.clusters import (
        cluster_survivors, connected_components)

    docs = _pq(sf_dir, "documents", columns=["doc_id", "text", "n_chars"])
    pairs = dedup_stage.ngram_jaccard_pairs(docs, threshold=0.65)
    comps = connected_components(pairs)
    surv = cluster_survivors(docs.select_columns(["doc_id", "n_chars"]),
                             comps, "doc_id", better=[("n_chars", False)])

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype(np.int64),
            "cluster_id": df["cluster_id"].astype(np.int64),
            "n_chars": df["n_chars"].astype(np.int64),
            "n_members": df["n_members"].astype(np.int64)})

    return surv.map_batches(finish, batch_format="pandas")


SQL_NEARDUP_SURVIVORS = ("WITH RECURSIVE " + _SQL_JPAIRS_BODY + """,
jp AS (
  SELECT doc_a, doc_b FROM pairs
  JOIN sizes sa ON sa.doc_id = doc_a
  JOIN sizes sb ON sb.doc_id = doc_b
  WHERE CAST(shared AS DOUBLE) / (sa.n + sb.n - shared) > 0.65),
edges AS (SELECT doc_a AS u, doc_b AS v FROM jp
          UNION ALL SELECT doc_b, doc_a FROM jp),
r(node, lab) AS (
  SELECT u, u FROM edges
  UNION
  SELECT e.v, r.lab FROM edges e JOIN r ON r.node = e.u),
comp AS (SELECT node, min(lab) AS cluster_id FROM r GROUP BY node),
lab AS (
  SELECT d.doc_id, coalesce(c.cluster_id, d.doc_id) AS cluster_id, d.n_chars
  FROM documents d LEFT JOIN comp c ON d.doc_id = c.node)
SELECT doc_id, cluster_id, n_chars,
       CAST(n_members AS BIGINT) AS n_members
FROM (SELECT doc_id, cluster_id, n_chars,
             count(*) OVER (PARTITION BY cluster_id) AS n_members,
             row_number() OVER (PARTITION BY cluster_id
                                ORDER BY n_chars DESC, doc_id) AS rn
      FROM lab)
WHERE rn = 1
""")


# --- 17. embedding near-dup pairs (rows-only check) --------------------------

def q_embedding_neardup(sf_dir: str):
    ds = _pq(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = dedup_stage.embedding_neardup_pairs(ds, threshold=0.95)
    pdf = out.to_pandas()  # pair-scale result, small by construction
    if pdf.empty:
        # a fully-empty distributed result loses its block schema; pin it
        return pd.DataFrame({"doc_a": pd.Series([], dtype=np.int64),
                             "doc_b": pd.Series([], dtype=np.int64),
                             "cosine": pd.Series([], dtype=np.float64)})
    pdf["cosine"] = pdf["cosine"].round(6)
    return pdf.reset_index(drop=True)


SQL_EMBEDDING_NEARDUP = """
SELECT a.vec_id AS doc_a, b.vec_id AS doc_b,
       round(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                    CAST(b.embedding AS DOUBLE[])), 6) AS cosine
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                             CAST(b.embedding AS DOUBLE[])) >= 0.95
"""


# --- 18. relational extensions: anti-join, rollup, keep-best dedup,
# running window, exact group quantiles ------------------------------------

def q_customers_no_urgent(sf_dir: str):
    """Distributed ANTI-join: customers with no URGENT order.  Both sides
    are fact-scale, so neither broadcasts: the right side reduces map-side
    to per-batch distinct keys, both sides co-shuffle ONCE on the key hash,
    and each bucket task applies a vectorized ``is_in`` anti mask
    (``hash_semi_anti_join`` — one all-to-all total, vs the 3 the old
    pre_aggregate → left hash_join → null-mask chain paid)."""
    from searchengine_ray.stages.relational import hash_semi_anti_join

    cust = _pq(sf_dir, "customer",
               columns=["c_custkey", "c_name", "c_acctbal"])
    orders = _pq(sf_dir, "orders", columns=["o_custkey", "o_orderpriority"])

    def urgent_keys(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        m = pc.equal(t["o_orderpriority"], pa.scalar("1-URGENT"))
        return pa.table({"c_custkey": t.filter(m)["o_custkey"]})

    urgent = orders.map_batches(urgent_keys, batch_format="pyarrow")
    kept = hash_semi_anti_join(cust, urgent, on="c_custkey", anti=True)

    def finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return t.set_column(
            t.column_names.index("c_acctbal"), "c_acctbal",
            pc.round(t["c_acctbal"], ndigits=2))

    return kept.map_batches(finish, batch_format="pyarrow")


SQL_CUSTOMERS_NO_URGENT = """
SELECT c_custkey, c_name, round(c_acctbal, 2) AS c_acctbal
FROM customer
WHERE c_custkey NOT IN (
    SELECT o_custkey FROM orders WHERE o_orderpriority = '1-URGENT')
"""


def q_orders_rollup(sf_dir: str):
    """Grouping-sets / ROLLUP over (status, priority): one distributed
    pre-aggregate at the finest level, then the coarser levels derive from
    that (tiny) aggregate on the driver — no second pass over the fact
    table.  NULL grouping keys are encoded as 'ALL' on both sides."""
    ds = _pq(sf_dir, "orders",
             columns=["o_orderstatus", "o_orderpriority", "o_totalprice"])
    fine = pre_aggregate(
        ds, ["o_orderstatus", "o_orderpriority"],
        {"n_orders": (None, "count"), "sum_price": ("o_totalprice", "sum")},
    ).to_pandas()
    lvl1 = (fine.groupby("o_orderstatus", as_index=False)
            .agg(n_orders=("n_orders", "sum"), sum_price=("sum_price", "sum")))
    lvl1["o_orderpriority"] = "ALL"
    lvl0 = pd.DataFrame({
        "o_orderstatus": ["ALL"], "o_orderpriority": ["ALL"],
        "n_orders": [fine["n_orders"].sum()],
        "sum_price": [fine["sum_price"].sum()],
    })
    out = pd.concat([fine, lvl1, lvl0], ignore_index=True)
    out["n_orders"] = out["n_orders"].astype(np.int64)
    out["sum_price"] = out["sum_price"].round(2)
    return out[["o_orderstatus", "o_orderpriority", "n_orders", "sum_price"]]


SQL_ORDERS_ROLLUP = """
SELECT coalesce(o_orderstatus, 'ALL')   AS o_orderstatus,
       coalesce(o_orderpriority, 'ALL') AS o_orderpriority,
       count(*)                         AS n_orders,
       round(sum(o_totalprice), 2)      AS sum_price
FROM orders
GROUP BY ROLLUP(o_orderstatus, o_orderpriority)
"""


def q_docs_cube(sf_dir: str):
    """Full CUBE over (lang, source) — the grouping-set ROLLUP misses:
    all FOUR levels incl. the cross margin (ALL, source).  Same scale
    shape as ``orders_rollup``: ONE distributed pre-aggregate at the
    finest level, every coarser level derives from that O(groups) table
    on the driver — the fact table is read once, no second pass, no
    per-level shuffle."""
    ds = _pq(sf_dir, "documents", columns=["lang", "source", "n_chars"])
    fine = pre_aggregate(
        ds, ["lang", "source"],
        {"n_docs": (None, "count"), "sum_chars": ("n_chars", "sum")},
    ).to_pandas()

    def margin(keys: list[str]) -> pd.DataFrame:
        if keys:
            m = (fine.groupby(keys, as_index=False)
                 .agg(n_docs=("n_docs", "sum"),
                      sum_chars=("sum_chars", "sum")))
        else:
            m = pd.DataFrame({"n_docs": [fine["n_docs"].sum()],
                              "sum_chars": [fine["sum_chars"].sum()]})
        for k in ("lang", "source"):
            if k not in keys:
                m[k] = "ALL"
        return m

    out = pd.concat([fine, margin(["lang"]), margin(["source"]),
                     margin([])], ignore_index=True)
    out["n_docs"] = out["n_docs"].astype(np.int64)
    out["sum_chars"] = out["sum_chars"].astype(np.int64)
    return out[["lang", "source", "n_docs", "sum_chars"]]


SQL_DOCS_CUBE = """
SELECT coalesce(lang, 'ALL')   AS lang,
       coalesce(source, 'ALL') AS source,
       count(*)                AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS sum_chars
FROM documents
GROUP BY CUBE(lang, source)
"""


def q_dedup_keep_best(sf_dir: str):
    """Keep-BEST dedup (vs dedup_exact's keep-first): per (lang, source)
    key keep the longest document, ties to the smallest doc_id — the
    training-pipeline pattern of keeping the highest-quality member of a
    duplicate cluster.  One vectorized sort + drop_duplicates per hash
    bucket (``bucketed_apply``), no per-group Python."""
    from searchengine_ray.stages.relational import bucketed_apply

    ds = _pq(sf_dir, "documents",
             columns=["doc_id", "lang", "source", "n_chars"])

    def keep_best(g: pd.DataFrame) -> pd.DataFrame:
        return (g.sort_values(["n_chars", "doc_id"], ascending=[False, True],
                              kind="mergesort")
                .drop_duplicates(["lang", "source"], keep="first"))

    return bucketed_apply(ds, ["lang", "source"], keep_best)


SQL_DEDUP_KEEP_BEST = """
SELECT doc_id, lang, source, n_chars FROM documents
QUALIFY row_number() OVER (
    PARTITION BY lang, source ORDER BY n_chars DESC, doc_id) = 1
"""


def q_user_running_total(sf_dir: str):
    """Running (cumulative) per-user total ordered by (ts, event_id) — the
    streaming-window shape: users co-shuffle whole into hash buckets, then
    ONE sort + grouped cumsum kernel per bucket."""
    from searchengine_ray.stages.relational import bucketed_apply

    ds = _pq(sf_dir, "events", columns=["event_id", "ts", "user_id", "value"])

    def running(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        g["running_value"] = (
            g.groupby("user_id", sort=False)["value"].cumsum().round(6))
        return g[["event_id", "user_id", "running_value"]]

    return bucketed_apply(ds, ["user_id"], running)


SQL_USER_RUNNING_TOTAL = """
SELECT event_id, user_id,
       round(sum(value) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW), 6)
           AS running_value
FROM events
"""


def q_event_value_quantiles(sf_dir: str):
    """EXACT per-group quantiles (median / p90, linear interpolation — the
    quantile_cont contract).  Exactness requires each group's values
    co-located once: groups co-shuffle whole (few groups ⇒ per-group numpy
    percentile inside the bucket).  The corpus-scale path for many/hot
    groups is the mergeable quantile sketch (``stages/sketches.py``,
    ``event_value_quantiles_sketch``); this operator is the exact form."""
    from searchengine_ray.stages.relational import bucketed_map_groups

    ds = _pq(sf_dir, "events", columns=["event_type", "value"])

    def quants(g: pd.DataFrame) -> pd.DataFrame:
        v = g["value"].to_numpy(dtype=np.float64)
        return pd.DataFrame({
            "event_type": [g["event_type"].iloc[0]],
            "median_value": [round(float(np.percentile(v, 50)), 6)],
            "p90_value": [round(float(np.percentile(v, 90)), 6)],
        })

    return bucketed_map_groups(ds, ["event_type"], quants)


SQL_EVENT_VALUE_QUANTILES = """
SELECT event_type,
       round(median(value), 6)           AS median_value,
       round(quantile_cont(value, 0.9), 6) AS p90_value
FROM events GROUP BY event_type
"""


def q_event_value_quantiles_sketch(sf_dir: str):
    """The corpus-scale form of ``event_value_quantiles``: mergeable
    quantile sketches (``stages/sketches.py``) — the fact table reduces
    map-side to ≤k centroid rows per (batch, group) and only centroids
    shuffle, vs the exact operator co-locating every raw value of a group.
    Approximate (rank error ≤ ~1/k) so there is no value-exact SQL gate;
    the accuracy bound is pytest-gated against exact percentiles
    (tests/test_sketches.py) on skewed/tied/bimodal inputs and on this
    table."""
    from searchengine_ray.stages.sketches import quantile_sketch_aggregate

    ds = _pq(sf_dir, "events", columns=["event_type", "value"])
    out = quantile_sketch_aggregate(
        ds, ["event_type"], "value",
        {"median_value": 0.5, "p90_value": 0.9}, k=256)

    def tidy(df: pd.DataFrame) -> pd.DataFrame:
        df["median_value"] = df["median_value"].round(6)
        df["p90_value"] = df["p90_value"].round(6)
        return df[["event_type", "median_value", "p90_value"]]

    return out.map_batches(tidy, batch_format="pandas")


def q_events_sliding_1h(sf_dir: str):
    """Sliding RANGE window: per event, the count and value-sum of the same
    user's events in the preceding hour (peers at the same ts included —
    RANGE ... CURRENT ROW semantics).

    Shape: users co-shuffle whole (``bucketed_apply``); inside each bucket
    ONE vectorized kernel serves every user at once
    (``stages/sessions.sliding_window_kernel`` — composite-key double
    searchsorted, with an overflow-safe per-user-block fallback).  No
    per-row Python — the 10^9-event form of a streaming sliding window."""
    from searchengine_ray.stages.relational import bucketed_apply
    from searchengine_ray.stages.sessions import sliding_window_kernel

    WIN_US = 3_600_000_000  # 1 hour in microseconds

    ds = _pq(sf_dir, "events", columns=["event_id", "ts", "user_id", "value"])
    return bucketed_apply(ds, ["user_id"],
                          lambda g: sliding_window_kernel(g, WIN_US))


SQL_EVENTS_SLIDING_1H = """
SELECT event_id, user_id,
       CAST(count(*) OVER w AS BIGINT)   AS cnt_1h,
       round(sum(value) OVER w, 6)       AS sum_value_1h
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts
             RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)
"""


def q_knn_ivf(sf_dir: str):
    """IVF ANN, gated EXACTLY: with ``nprobe == num_centroids`` the probe
    set covers every inverted list, so the full centroid-build → per-batch
    assignment → probe-filter → local-top-k machinery must reproduce the
    brute-force answer bit-for-bit — the same SQL oracle as
    ``knn_bruteforce`` gates it.  The approximate scale path
    (``nprobe < num_centroids``: only the closest lists are scanned) is the
    production configuration and is recall-tested in tests/test_knn.py."""
    import pyarrow.parquet as pq

    ds = _pq(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qt = pq.read_table(f"{sf_dir}/embeddings.parquet",
                       columns=["vec_id", "embedding"],
                       filters=[("vec_id", "==", 0)])
    q = np.asarray(qt["embedding"].to_pylist()[0])
    out = knn_stage.knn_ivf(ds, q, k=50, num_centroids=8, nprobe=8,
                            exclude_ids={0})
    out["cosine"] = out["cosine"].round(6)
    return (out.sort_values(["cosine", "vec_id"], ascending=[False, True])
            .head(10).reset_index(drop=True))


def q_knn_ivf_insert(sf_dir: str):
    """Incremental IVF index maintenance, gated EXACTLY: build the
    persisted hive-partitioned layout on 90% of the corpus, fold the
    remaining 10% in via ``ivf_insert`` (FAISS add(): frozen centroids,
    append-only list files — O(delta) work), then probe at nprobe =
    num_centroids so the answer must equal brute force over the FULL
    corpus — the same SQL oracle as ``knn_bruteforce``.  A from-scratch
    rebuild never happens; if the insert mis-assigned a single vector or
    clobbered an existing list file, the exact gate breaks."""
    import tempfile

    import pyarrow.parquet as pq

    ds = _pq(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    base = ds.map_batches(lambda df: df[df["vec_id"] % 10 != 0],
                          batch_format="pandas")
    delta = ds.map_batches(lambda df: df[df["vec_id"] % 10 == 0],
                           batch_format="pandas")
    qt = pq.read_table(f"{sf_dir}/embeddings.parquet",
                       columns=["vec_id", "embedding"],
                       filters=[("vec_id", "==", 0)])
    q = np.asarray(qt["embedding"].to_pylist()[0])

    path = tempfile.mkdtemp(prefix="graft_ivf_insert_")
    knn_stage.build_ivf_index(base, path, num_centroids=8)
    knn_stage.ivf_insert(path, delta)
    out = knn_stage.ivf_probe(path, q, k=50, nprobe=8, exclude_ids={0})
    out["cosine"] = out["cosine"].round(6)
    return (out.sort_values(["cosine", "vec_id"], ascending=[False, True])
            .head(10).reset_index(drop=True))


# --- 19. image-corpus queries over the input-hint table ---------------------

def _image_table_ds(columns=None):
    from searchengine_ray.sources.image_table import ensure_image_table

    return rd.read_parquet(ensure_image_table(), columns=columns)


def q_image_phash_neardup(sf_dir: str):
    """Banded phash near-dup pairs (hamming ≤ 4) over the image+caption
    corpus table — the corpus form of the crawl's image near-dup gate
    (pigeonhole 5-band LSH + exact hamming verify), SQL-gated against the
    all-pairs ``bit_count(xor(phash, phash))`` oracle.  Reads prune to
    (image_id, phash): the binary payload never leaves storage."""
    ds = _image_table_ds(columns=["image_id", "phash"])
    out = dedup_stage.hash_neardup_pairs(ds, hash_col="phash",
                                         id_col="image_id", max_hamming=4)

    def rename(df: pd.DataFrame) -> pd.DataFrame:
        return df.rename(columns={"id_a": "image_a", "id_b": "image_b"})

    return out.map_batches(rename, batch_format="pandas")


# the engine materializes its canonical dihedral-min phash here; the
# oracle computes the PAIR semantics from the same table (the
# simhash/phash scratch pattern) — the hash's rotation invariance is
# pytest-pinned (tests/test_imagecodec.py)
_ROT_SCRATCH = "/tmp/graft_scratch/rot_phash"


def q_image_rot_neardup(sf_dir: str):
    """Rotation/flip-robust image near-dup: canonical dihedral-min phash
    (min of phash64 over the 8 lossless rot/flip transforms — EXACTLY
    invariant, so a rotated copy hashes identically) banded + verified
    like ``image_phash_neardup``.  Planted transformed copies (one per
    image_id with hash%5==0, a deterministic non-identity transform)
    bind the invariance in data: plain phash misses every such pair
    (pinned by test); the canonical hash pairs them at hamming 0.
    Decode runs once per image; the copy transforms the decoded pixels
    directly (rot90/fliplr are exact)."""
    import shutil
    from hashlib import sha256 as _sha

    from searchengine_ray.functions.imagecodec import decode
    from searchengine_ray.functions.phash import (
        dihedral_min_phash, dihedral_orbit)

    ds = _image_table_ds(columns=["image_id", "bytes", "fmt"])

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        ids, hs = [], []
        for iid, blob, fmt in zip(df["image_id"], df["bytes"], df["fmt"]):
            px = decode(bytes(blob), fmt)
            ids.append(iid)
            hs.append(dihedral_min_phash(px))
            hv = int.from_bytes(_sha(iid.encode()).digest()[:8], "big")
            if hv % 5 == 0:  # planted non-identity transformed copy
                t = dihedral_orbit(px)[1 + hv % 7]
                ids.append(iid + "#rot")
                hs.append(dihedral_min_phash(np.ascontiguousarray(t)))
        return pd.DataFrame({"image_id": ids,
                             "chash": np.array(hs, dtype=np.int64)})

    hashed = ds.map_batches(canon, batch_format="pandas")
    shutil.rmtree(_ROT_SCRATCH, ignore_errors=True)
    hashed.write_parquet(_ROT_SCRATCH)
    out = dedup_stage.hash_neardup_pairs(
        rd.read_parquet(_ROT_SCRATCH), hash_col="chash",
        id_col="image_id", max_hamming=4)

    def rename(df: pd.DataFrame) -> pd.DataFrame:
        return df.rename(columns={"id_a": "image_a", "id_b": "image_b"})

    return out.map_batches(rename, batch_format="pandas")


SQL_IMAGE_ROT_NEARDUP = f"""
SELECT a.image_id AS image_a, b.image_id AS image_b,
       CAST(bit_count(xor(CAST(a.chash AS BIGINT),
                          CAST(b.chash AS BIGINT))) AS BIGINT) AS hamming
FROM read_parquet('{_ROT_SCRATCH}/*.parquet') a
JOIN read_parquet('{_ROT_SCRATCH}/*.parquet') b
  ON a.image_id < b.image_id
WHERE bit_count(xor(CAST(a.chash AS BIGINT), CAST(b.chash AS BIGINT))) <= 4
"""


def q_image_stats(sf_dir: str):
    """Per-format corpus stats (count, total pixel area, total caption
    tokens) — integer-exact aggregates, columns pruned so image bytes are
    never read."""
    ds = _image_table_ds(columns=["fmt", "w", "h", "caption"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "fmt": df["fmt"],
            "pixels": df["w"].astype(np.int64) * df["h"].astype(np.int64),
            "n_tokens": df["caption"].str.split(" ").str.len().astype(np.int64),
        })

    return pre_aggregate(
        ds.map_batches(prep, batch_format="pandas"), ["fmt"],
        {"n_images": (None, "count"), "sum_pixels": ("pixels", "sum"),
         "sum_caption_tokens": ("n_tokens", "sum")})


# --- 20c. caption-image alignment gate (LAION-style filtering) ---------------

_ALIGN_INPUT = "/tmp/graft_scratch/caption_align_input"
_ALIGN_SCRATCH = "/tmp/graft_scratch/caption_align"
_ALIGN_RE = r"palette (\d+) (\d+) (\d+)$"


def q_caption_alignment(sf_dir: str):
    """CLIP-style caption-image alignment filter, stood in by a color-
    palette claim (no vision-language model ships in this env; the
    Ray-side contract — actor-pool decode, map-only parse/compare, zero
    shuffles — is the real one).  Fixture prep (driver-side, like every
    ``ensure_*`` fixture): each caption gains the generator-truth palette
    words of ITS image ('palette r g b', bucket = channel mean // 32 over
    the PRE-encode golden pixels); a deterministic 10% of rows get the
    NEXT row's palette planted instead — the misaligned pairs a
    LAION-style gate must catch.  The engine decodes the CORPUS bytes
    (post-codec) in the ``ImageFeatures`` pool, quantizes the same
    profile, parses the claim out of the caption text and flags
    disagreement; (caption_aug, actual buckets) are materialized once to
    the scratch table and the oracle SQL re-parses the claim with regexp
    and recomputes the verdict from the same bytes — gating the
    parse/compare/plant semantics (decode fidelity itself is pinned by
    the image_pipeline golden gate).  Lossy formats may legitimately flip
    a boundary bucket — such rows flag identically on both sides."""
    import shutil

    import pyarrow.parquet as _pqio

    from searchengine_ray.sources.image_table import (ensure_golden_table,
                                                      ensure_image_table)
    from searchengine_ray.stages.images import ImageFeatures

    corpus = _pqio.read_table(ensure_image_table(),
                              columns=["image_id", "bytes", "fmt",
                                       "caption"])
    gp = _pqio.read_table(ensure_golden_table(),
                          columns=["pixels", "w", "h"]).to_pandas()
    claims = np.empty((len(gp), 3), np.int64)
    for i, (pxb, w, h) in enumerate(zip(gp["pixels"], gp["w"], gp["h"])):
        arr = np.frombuffer(pxb, np.uint8).reshape(int(h), int(w), 3)
        claims[i] = arr.reshape(-1, 3).mean(axis=0).astype(np.int64) // 32
    n = len(claims)
    idx = np.arange(n)
    src = np.where(idx % 10 == 7, (idx + 1) % n, idx)  # planted swaps
    cl = claims[src]
    cap_aug = [f"{c} palette {a} {b} {d}"
               for c, (a, b, d) in zip(corpus["caption"].to_pylist(), cl)]
    inp = pa.table({"image_id": corpus["image_id"],
                    "bytes": corpus["bytes"], "fmt": corpus["fmt"],
                    "caption_aug": pa.array(cap_aug, pa.string())})
    shutil.rmtree(_ALIGN_INPUT, ignore_errors=True)
    os.makedirs(_ALIGN_INPUT, exist_ok=True)
    _pqio.write_table(inp, f"{_ALIGN_INPUT}/input.parquet")

    ds = rd.read_parquet(_ALIGN_INPUT)
    feats = ds.map_batches(ImageFeatures(), batch_format="pyarrow",
                           batch_size=64)

    def to_scratch(t: pa.Table) -> pa.Table:
        f = np.array(t["features"].to_pylist(), np.float64)[:, :3]
        ab = f.astype(np.int64) // 32  # same truncate-then-bucket as claim
        return pa.table({"image_id": t["image_id"],
                         "caption_aug": t["caption_aug"],
                         "ab1": pa.array(ab[:, 0], pa.int64()),
                         "ab2": pa.array(ab[:, 1], pa.int64()),
                         "ab3": pa.array(ab[:, 2], pa.int64())})

    shutil.rmtree(_ALIGN_SCRATCH, ignore_errors=True)
    feats.map_batches(to_scratch,
                      batch_format="pyarrow").write_parquet(_ALIGN_SCRATCH)

    sc = rd.read_parquet(_ALIGN_SCRATCH)

    def verdict(df: pd.DataFrame) -> pd.DataFrame:
        cb = df["caption_aug"].str.extract(_ALIGN_RE).astype(np.int64)
        aligned = ((cb[0].to_numpy() == df["ab1"].to_numpy())
                   & (cb[1].to_numpy() == df["ab2"].to_numpy())
                   & (cb[2].to_numpy() == df["ab3"].to_numpy()))
        return pd.DataFrame({"image_id": df["image_id"],
                             "aligned": aligned})

    return sc.map_batches(verdict, batch_format="pandas")


SQL_CAPTION_ALIGNMENT = f"""
SELECT image_id,
       (CAST(regexp_extract(caption_aug, 'palette (\\d+) (\\d+) (\\d+)$', 1)
             AS BIGINT) = ab1
        AND CAST(regexp_extract(caption_aug, 'palette (\\d+) (\\d+) (\\d+)$', 2)
                 AS BIGINT) = ab2
        AND CAST(regexp_extract(caption_aug, 'palette (\\d+) (\\d+) (\\d+)$', 3)
                 AS BIGINT) = ab3) AS aligned
FROM read_parquet('{_ALIGN_SCRATCH}/*.parquet')
ORDER BY image_id
"""


# the oracle reads the SAME canonical corpus file the pipeline reads —
# regenerated deterministically on demand (sources/image_table.py)
from searchengine_ray.sources.image_table import (  # noqa: E402
    CANONICAL_PATH as _IMG_PATH, GOLDEN_PATH as _GOLDEN_PATH)

SQL_IMAGE_PIPELINE = f"""
SELECT image_id, fmt, w, h,
       TRUE AS decode_ok, TRUE AS pixels_ok, TRUE AS caption_ok,
       CAST(16 AS BIGINT) AS resized_edge, TRUE AS phash_consistent
FROM read_parquet('{_GOLDEN_PATH}')
"""

SQL_IMAGE_PHASH_NEARDUP = f"""
SELECT a.image_id AS image_a, b.image_id AS image_b,
       CAST(bit_count(xor(a.phash, b.phash)) AS BIGINT) AS hamming
FROM read_parquet('{_IMG_PATH}') a
JOIN read_parquet('{_IMG_PATH}') b ON a.image_id < b.image_id
WHERE bit_count(xor(a.phash, b.phash)) <= 4
"""

SQL_IMAGE_STATS = f"""
SELECT fmt, count(*) AS n_images,
       CAST(sum(CAST(w AS BIGINT) * h) AS BIGINT)          AS sum_pixels,
       CAST(sum(len(string_split(caption, ' '))) AS BIGINT) AS sum_caption_tokens
FROM read_parquet('{_IMG_PATH}')
GROUP BY fmt
"""


def q_image_aspect_buckets(sf_dir: str):
    """SDXL-style aspect-ratio bucketing + deterministic batch packing
    (``stages/images.aspect_bucket_batches``): nearest palette bucket in
    rounded log-aspect space (ties → palette index), then fixed-size
    training batches in seeded hash order.  Map-only assignment; the
    within-bucket rank is the value-based global_shuffle machinery on the
    BALANCED (bucket, hash-prefix) pair — the bucket key alone has only
    k groups and would pin whole buckets to single workers."""
    from searchengine_ray.stages.images import aspect_bucket_batches

    ds = _image_table_ds(columns=["image_id", "w", "h"])
    return aspect_bucket_batches(ds, batch_size=16, salt="bucket0")


_PALETTE_SQL = ", ".join(
    f"({i}, {w}, {h})" for i, (w, h) in enumerate(
        [(256, 256), (320, 256), (256, 320), (384, 256),
         (256, 384), (448, 192), (192, 448)]))

SQL_IMAGE_ASPECT_BUCKETS = f"""
WITH palette(idx, bw, bh) AS (VALUES {_PALETTE_SQL}),
assign AS (
  SELECT image_id, idx, bw, bh,
         row_number() OVER (
           PARTITION BY image_id
           ORDER BY round(abs(ln(CAST(w*bh AS DOUBLE)/(h*bw))), 6), idx)
           AS rn
  FROM read_parquet('{_IMG_PATH}') CROSS JOIN palette),
ranked AS (
  SELECT image_id, bw, bh,
         row_number() OVER (
           PARTITION BY idx
           ORDER BY substr(sha256(image_id || ':bucket0'), 1, 12),
                    image_id) - 1 AS rank,
         count(*) OVER (PARTITION BY idx) AS n
  FROM assign WHERE rn = 1)
SELECT image_id,
       CAST(bw AS BIGINT) AS bucket_w,
       CAST(bh AS BIGINT) AS bucket_h,
       CAST(rank // 16 AS BIGINT) AS batch_idx,
       (rank // 16) < (n // 16) AS full
FROM ranked
"""


def q_image_multimodal_neardup(sf_dir: str):
    """Multimodal near-dup pairs over the image+caption corpus: a pair is
    flagged per CHANNEL — phash hamming ≤ 4 (pixels) and/or caption 3-gram
    jaccard > 0.65 (text) — the cluster input a joint image-text dedup
    pass consumes.  Both channels are the banded/bucketed distributed
    operators (no all-pairs scan); the channel union is one max-merge
    pre-aggregate on the pair key.  Column pruning per channel: the phash
    leg never reads captions and vice versa; bytes never leave storage."""
    ph = dedup_stage.hash_neardup_pairs(
        _image_table_ds(columns=["image_id", "phash"]),
        hash_col="phash", id_col="image_id", max_hamming=4)
    cap = dedup_stage.ngram_jaccard_pairs(
        _image_table_ds(columns=["image_id", "caption"]),
        threshold=0.65, text_col="caption", id_col="image_id")

    def tag_ph(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "image_a": df["id_a"], "image_b": df["id_b"],
            "phash_dup": np.ones(len(df), dtype=np.int64),
            "caption_dup": np.zeros(len(df), dtype=np.int64)})

    def tag_cap(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "image_a": df["doc_a"], "image_b": df["doc_b"],
            "phash_dup": np.zeros(len(df), dtype=np.int64),
            "caption_dup": np.ones(len(df), dtype=np.int64)})

    u = (ph.map_batches(tag_ph, batch_format="pandas")
         .union(cap.map_batches(tag_cap, batch_format="pandas")))
    return pre_aggregate(u, ["image_a", "image_b"],
                         {"phash_dup": ("phash_dup", "max"),
                          "caption_dup": ("caption_dup", "max")})


SQL_IMAGE_MULTIMODAL_NEARDUP = f"""
WITH imgs AS (SELECT image_id, caption, phash FROM read_parquet('{_IMG_PATH}')),
toks AS (
  SELECT image_id,
         list_filter(regexp_split_to_array(lower(caption), '[^a-z0-9]+'),
                     t -> t <> '') AS ts
  FROM imgs),
sh AS (
  SELECT DISTINCT image_id,
         unnest(list_transform(range(0, len(ts), 3),
                               i -> array_to_string(ts[i+1:i+3], ''))) AS s
  FROM toks WHERE len(ts) > 0),
ok AS (SELECT s FROM sh GROUP BY s HAVING count(*) <= 64),
sh2 AS (SELECT sh.image_id, sh.s FROM sh JOIN ok USING (s)),
sizes AS (SELECT image_id, count(*) AS n FROM sh2 GROUP BY image_id),
cpairs AS (
  SELECT a.image_id AS image_a, b.image_id AS image_b, count(*) AS shared
  FROM sh2 a JOIN sh2 b ON a.s = b.s AND a.image_id < b.image_id
  GROUP BY 1, 2),
cap AS (
  SELECT image_a, image_b
  FROM cpairs
  JOIN sizes sa ON sa.image_id = image_a
  JOIN sizes sb ON sb.image_id = image_b
  WHERE CAST(shared AS DOUBLE) / (sa.n + sb.n - shared) > 0.65),
ph AS (
  SELECT a.image_id AS image_a, b.image_id AS image_b
  FROM imgs a JOIN imgs b ON a.image_id < b.image_id
  WHERE bit_count(xor(a.phash, b.phash)) <= 4)
SELECT coalesce(c.image_a, p.image_a) AS image_a,
       coalesce(c.image_b, p.image_b) AS image_b,
       CAST(p.image_a IS NOT NULL AS BIGINT) AS phash_dup,
       CAST(c.image_a IS NOT NULL AS BIGINT) AS caption_dup
FROM cap c FULL OUTER JOIN ph p
  ON c.image_a = p.image_a AND c.image_b = p.image_b
"""


def q_image_multimodal_clusters(sf_dir: str):
    """Cluster resolution over the MULTIMODAL pair union (string image
    ids): phash ∪ caption channels → connected components → (image_id,
    cluster_id).  The oracle recursively closes the same channel-union
    pair SQL."""
    from searchengine_ray.stages.clusters import connected_components

    pairs = q_image_multimodal_neardup(sf_dir)
    comps = connected_components(pairs, id_a="image_a", id_b="image_b")

    def rename(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"image_id": df["node"],
                             "cluster_id": df["cluster_id"]})

    return comps.map_batches(rename, batch_format="pandas")


_SQL_MM_BODY = (SQL_IMAGE_MULTIMODAL_NEARDUP.replace("\nWITH ", "", 1)
                .split("SELECT coalesce")[0].rstrip())

SQL_IMAGE_MM_CLUSTERS = ("WITH RECURSIVE " + _SQL_MM_BODY + """,
mm AS (SELECT image_a, image_b FROM cap
       UNION SELECT image_a, image_b FROM ph),
edges AS (SELECT image_a AS u, image_b AS v FROM mm
          UNION ALL SELECT image_b, image_a FROM mm),
r(node, lab) AS (
  SELECT u, u FROM edges
  UNION
  SELECT e.v, r.lab FROM edges e JOIN r ON r.node = e.u)
SELECT node AS image_id, min(lab) AS cluster_id FROM r GROUP BY node
""")


# --- 19d. audio-corpus queries (real RIFF/WAVE PCM16 payloads) ---------------
# The audio analog of the image input-hint table: opaque binary payloads +
# typed metadata, REAL decodable WAV files (functions/audiocodec — pure
# numpy/struct, unlike the image codec no env package is missing here).

def _audio_table_ds(columns=None):
    from searchengine_ray.sources.audio_table import ensure_audio_table

    return rd.read_parquet(ensure_audio_table(), columns=columns)


def q_audio_stats(sf_dir: str):
    """Per-sample-rate corpus stats (clip count, total samples, total
    transcript tokens) — integer-exact aggregates; column pruning keeps
    the WAV payloads in storage."""
    ds = _audio_table_ds(columns=["sr", "n_samples", "transcript"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "sr": df["sr"].astype(np.int32),
            "n_samples": df["n_samples"].astype(np.int64),
            "n_tokens": df["transcript"].str.split(" ").str.len()
                                        .astype(np.int64),
        })

    return pre_aggregate(
        ds.map_batches(prep, batch_format="pandas"), ["sr"],
        {"n_clips": (None, "count"), "sum_samples": ("n_samples", "sum"),
         "sum_transcript_tokens": ("n_tokens", "sum")})


_AUDIO_FP_SCRATCH = "/tmp/graft_scratch/audio_fp"


def q_audio_fingerprint_neardup(sf_dir: str):
    """Audio near-dup pairs: decode every WAV payload, compute the 64-bit
    time×frequency energy-delta fingerprint (stages/audio.fingerprint64 —
    the Haitsma-Kalker/chromaprint family), and band with the same
    pigeonhole machinery as ``image_phash_neardup`` (hamming ≤ 4, exact
    recall).  The fingerprint column is materialized to the scratch table
    the oracle SQL reads, so the pair semantics are oracle-gated while the
    DSP stays engine-side (pinned by the planted-dup pytest: exact dups →
    hamming 0, ±2-LSB near-dups ≤ 1, independent clips ≥ 20)."""
    import shutil

    from searchengine_ray.stages.audio import DecodeWav, fingerprint64

    ds = _audio_table_ds(columns=["audio_id", "bytes"])

    def to_fp(batch: pa.Table) -> pa.Table:
        decoded = DecodeWav()(batch)
        fps = [fingerprint64(np.frombuffer(p, dtype="<i2"))
               for p in decoded["pcm"].to_pylist()]
        return pa.table({"audio_id": decoded["audio_id"],
                         "afp": pa.array(fps, pa.int64())})

    shutil.rmtree(_AUDIO_FP_SCRATCH, ignore_errors=True)
    ds.map_batches(to_fp, batch_format="pyarrow").write_parquet(
        _AUDIO_FP_SCRATCH)
    sigs = rd.read_parquet(_AUDIO_FP_SCRATCH)
    out = dedup_stage.hash_neardup_pairs(sigs, hash_col="afp",
                                         id_col="audio_id", max_hamming=4)

    def rename(df: pd.DataFrame) -> pd.DataFrame:
        return df.rename(columns={"id_a": "audio_a", "id_b": "audio_b"})

    return out.map_batches(rename, batch_format="pandas")


def q_audio_pipeline(sf_dir: str):
    """decode → validate → feature-extract actor-pool stages over the
    audio corpus, gated on the PER-ROW INVARIANT: PCM16 is lossless, so
    the decoded frames must equal the generator's pre-encode samples
    byte-exactly and the container sample rate must match the metadata.
    The oracle reads the generator golden table and expects every flag
    TRUE plus the exact duration — a hash match proves the engine decoded
    every payload correctly (non-circular: the golden samples predate the
    codec)."""
    from searchengine_ray.sources.audio_table import (
        ensure_audio_table, ensure_golden_table)
    from searchengine_ray.stages.audio import AudioFeatures, ValidateAudio

    corpus = ensure_audio_table()
    golden = ensure_golden_table()
    ds = rd.read_parquet(corpus)
    # autoscaling (1, 2) pool — fixed pools deadlock small test sessions
    out = ds.map_batches(ValidateAudio,
                         fn_constructor_kwargs={"golden_path": golden},
                         batch_format="pyarrow", batch_size=64,
                         concurrency=(1, 2))
    out = out.map_batches(AudioFeatures(), batch_format="pyarrow",
                          batch_size=64)

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "audio_id": t["audio_id"],
            "sr": t["sr"],
            "n_samples": t["n_samples"],
            "duration_s": t["duration_s"],
            "decode_ok": t["decode_ok"],
            "pcm_exact": t["pcm_exact"],
            "sr_match": t["sr_match"],
        })

    return out.map_batches(finish, batch_format="pyarrow")


from searchengine_ray.sources.audio_table import (  # noqa: E402
    CANONICAL_PATH as _AUDIO_PATH, GOLDEN_PATH as _AUDIO_GOLDEN_PATH)

SQL_AUDIO_STATS = f"""
SELECT sr, count(*) AS n_clips,
       CAST(sum(CAST(n_samples AS BIGINT)) AS BIGINT) AS sum_samples,
       CAST(sum(len(string_split(transcript, ' '))) AS BIGINT)
           AS sum_transcript_tokens
FROM read_parquet('{_AUDIO_PATH}')
GROUP BY sr
"""

SQL_AUDIO_FP_NEARDUP = f"""
SELECT a.audio_id AS audio_a, b.audio_id AS audio_b,
       CAST(bit_count(xor(a.afp, b.afp)) AS BIGINT) AS hamming
FROM read_parquet('{_AUDIO_FP_SCRATCH}/*.parquet') a
JOIN read_parquet('{_AUDIO_FP_SCRATCH}/*.parquet') b
  ON a.audio_id < b.audio_id
WHERE bit_count(xor(a.afp, b.afp)) <= 4
"""

# golden `samples` is int16-LE frames: n_samples = octet_length/2 — the
# oracle re-derives the metadata the engine reads from the corpus columns,
# cross-validating generator consistency on top of the TRUE-flag gate
SQL_AUDIO_PIPELINE = f"""
SELECT g.audio_id,
       g.sr,
       CAST(octet_length(g.samples) / 2 AS INTEGER) AS n_samples,
       CAST(octet_length(g.samples) / 2 AS DOUBLE) / g.sr AS duration_s,
       TRUE AS decode_ok, TRUE AS pcm_exact, TRUE AS sr_match
FROM read_parquet('{_AUDIO_GOLDEN_PATH}') g
"""


# --- 19e. video-corpus queries (real MPNG = length-prefixed PNG frames) -----

def _video_table_ds(columns=None):
    from searchengine_ray.sources.video_table import ensure_video_table

    return rd.read_parquet(ensure_video_table(), columns=columns)


def q_video_stats(sf_dir: str):
    """Per-fps corpus stats (video count, total frames, total title
    tokens) — integer-exact aggregates; payload bytes stay in storage."""
    ds = _video_table_ds(columns=["fps", "n_frames", "title"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "fps": df["fps"].astype(np.float64),
            "n_frames": df["n_frames"].astype(np.int64),
            "n_tokens": df["title"].str.split(" ").str.len().astype(np.int64),
        })

    return pre_aggregate(
        ds.map_batches(prep, batch_format="pandas"), ["fps"],
        {"n_videos": (None, "count"), "sum_frames": ("n_frames", "sum"),
         "sum_title_tokens": ("n_tokens", "sum")})


_VIDEO_FRAME_SCRATCH = "/tmp/graft_scratch/video_frames"
_VIDEO_FRAME_HAMMING = 4
_VIDEO_MIN_SHARED = 8


def _video_frame_pairs():
    """Shared frame-matching stage for the video near-dup family:
    materialize the per-frame phash table to scratch (read by the SQL
    oracles too), band-match frames at hamming ≤ 4 (pigeonhole — exact
    recall), and return cross-video matches with parsed
    (video_a, idx_a, video_b, idx_b), oriented id_a < id_b."""
    import shutil

    from searchengine_ray.stages.video import SampleFramePhashes

    ds = _video_table_ds(columns=["video_id", "bytes"])
    frames = ds.map_batches(SampleFramePhashes(every_n=1),
                            batch_format="pyarrow", batch_size=32)
    shutil.rmtree(_VIDEO_FRAME_SCRATCH, ignore_errors=True)
    frames.write_parquet(_VIDEO_FRAME_SCRATCH)
    fr = rd.read_parquet(_VIDEO_FRAME_SCRATCH)

    def fid(df: pd.DataFrame) -> pd.DataFrame:
        # frame id = video_id + '#' + idx: '#' never appears in video ids
        # and sorts below every id character, so cross-video fid order ==
        # video-id order even for prefix ids (orientation stays stable
        # through the split below).  NUL would be the obvious separator
        # but pandas hash_pandas_object historically mishandled NUL
        # strings (see relational._hash_bucket) — printable is safer.
        return pd.DataFrame({
            "fid": df["video_id"] + "#" + df["frame_idx"].astype(str),
            "phash": df["phash"],
        })

    pairs = dedup_stage.hash_neardup_pairs(
        fr.map_batches(fid, batch_format="pandas"),
        hash_col="phash", id_col="fid",
        max_hamming=_VIDEO_FRAME_HAMMING)

    def split_ids(df: pd.DataFrame) -> pd.DataFrame:
        sa = df["id_a"].str.rsplit("#", n=1)
        sb = df["id_b"].str.rsplit("#", n=1)
        out = pd.DataFrame({
            "video_a": sa.str[0],
            "idx_a": sa.str[1].astype(np.int64),
            "video_b": sb.str[0],
            "idx_b": sb.str[1].astype(np.int64)})
        return out[out["video_a"] != out["video_b"]]

    return pairs.map_batches(split_ids, batch_format="pandas")


def q_video_neardup(sf_dir: str):
    """Frame-level video near-dup (the published shape: per-frame
    perceptual hashes → LSH banding → count matching frame pairs per
    video pair).  Demux is real (length-prefix skip), PNG decode is real,
    phash per sampled frame; the frame table is materialized to scratch
    for the oracle, frame pairs come from the generic pigeonhole banding
    (exact recall at hamming ≤ 4), and ONE count pre-aggregate per video
    pair applies the ≥ 8-shared-frames threshold.  Robust where a single
    per-video signature is not: temporal trims keep their surviving
    frames byte-identical, so they match at full strength (measured —
    see stages/video.py docstring)."""
    cross = _video_frame_pairs()
    agg = pre_aggregate(cross, ["video_a", "video_b"],
                        {"shared": (None, "count")})

    def thresh(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["shared"] >= _VIDEO_MIN_SHARED]

    return agg.map_batches(thresh, batch_format="pandas")


def q_video_aligned_neardup(sf_dir: str):
    """Temporal-alignment video near-dup: matched frame pairs vote on
    their offset (idx_b − idx_a); a pair's alignment score is the best
    single offset's match count (ties → smallest offset).  This is the
    temporal-verification step a video-dedup pipeline runs after frame
    matching: a true excerpt/clip puts every match at ONE constant
    offset (the planted tail-clips sit at s ≥ 2), while coincidental
    frame collisions scatter across offsets and never clear the
    threshold.  Shape: the frame-pair stage is shared with
    ``video_neardup``; one count pre-aggregate per (pair, offset), then
    keep-best per pair as a single vectorized sort+drop_duplicates per
    bucket (no per-pair Python)."""
    from searchengine_ray.stages.relational import bucketed_apply

    cross = _video_frame_pairs()

    def off(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "video_a": df["video_a"], "video_b": df["video_b"],
            "best_offset": df["idx_b"] - df["idx_a"]})

    per_off = pre_aggregate(
        cross.map_batches(off, batch_format="pandas"),
        ["video_a", "video_b", "best_offset"],
        {"aligned": (None, "count")})

    def best(g: pd.DataFrame) -> pd.DataFrame:
        return (g.sort_values(["video_a", "video_b", "aligned",
                               "best_offset"],
                              ascending=[True, True, False, True],
                              kind="mergesort")
                .drop_duplicates(["video_a", "video_b"], keep="first"))

    out = bucketed_apply(per_off, ["video_a", "video_b"], best)

    def thresh(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["aligned"] >= _VIDEO_MIN_SHARED]

    return out.map_batches(thresh, batch_format="pandas").select_columns(
        ["video_a", "video_b", "best_offset", "aligned"])


def q_video_pipeline(sf_dir: str):
    """demux → decode → validate over the video corpus, gated on the
    PER-ROW INVARIANT: PNG frames are lossless, so the decoded frame
    pixels concatenated must equal the generator's raw frames
    byte-exactly, and the container header must match the metadata
    columns.  The oracle reads the golden table and expects every flag
    TRUE plus the exact duration."""
    from searchengine_ray.sources.video_table import (
        ensure_golden_table, ensure_video_table)
    from searchengine_ray.stages.video import ValidateVideo

    corpus = ensure_video_table()
    golden = ensure_golden_table()
    ds = rd.read_parquet(corpus)
    out = ds.map_batches(ValidateVideo,
                         fn_constructor_kwargs={"golden_path": golden},
                         batch_format="pyarrow", batch_size=32,
                         concurrency=(1, 2))

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "video_id": t["video_id"],
            "n_frames": t["n_frames"],
            "fps": t["fps"],
            "duration_s": t["duration_s"],
            "decode_ok": t["decode_ok"],
            "pixels_exact": t["pixels_exact"],
            "meta_match": t["meta_match"],
        })

    return out.map_batches(finish, batch_format="pyarrow")


from searchengine_ray.sources.video_table import (  # noqa: E402
    CANONICAL_PATH as _VIDEO_PATH, GOLDEN_PATH as _VIDEO_GOLDEN_PATH)

SQL_VIDEO_STATS = f"""
SELECT fps, count(*) AS n_videos,
       CAST(sum(CAST(n_frames AS BIGINT)) AS BIGINT) AS sum_frames,
       CAST(sum(len(string_split(title, ' '))) AS BIGINT)
           AS sum_title_tokens
FROM read_parquet('{_VIDEO_PATH}')
GROUP BY fps
"""

SQL_VIDEO_NEARDUP = f"""
SELECT a.video_id AS video_a, b.video_id AS video_b,
       CAST(count(*) AS BIGINT) AS shared
FROM read_parquet('{_VIDEO_FRAME_SCRATCH}/*.parquet') a
JOIN read_parquet('{_VIDEO_FRAME_SCRATCH}/*.parquet') b
  ON a.video_id < b.video_id
 AND bit_count(xor(a.phash, b.phash)) <= {_VIDEO_FRAME_HAMMING}
GROUP BY 1, 2
HAVING count(*) >= {_VIDEO_MIN_SHARED}
"""

SQL_VIDEO_ALIGNED_NEARDUP = f"""
SELECT video_a, video_b, best_offset, aligned
FROM (
  SELECT video_a, video_b, best_offset, aligned,
         row_number() OVER (PARTITION BY video_a, video_b
                            ORDER BY aligned DESC, best_offset) AS rn
  FROM (
    SELECT a.video_id AS video_a, b.video_id AS video_b,
           CAST(b.frame_idx AS BIGINT) - a.frame_idx AS best_offset,
           CAST(count(*) AS BIGINT) AS aligned
    FROM read_parquet('{_VIDEO_FRAME_SCRATCH}/*.parquet') a
    JOIN read_parquet('{_VIDEO_FRAME_SCRATCH}/*.parquet') b
      ON a.video_id < b.video_id
     AND bit_count(xor(a.phash, b.phash)) <= {_VIDEO_FRAME_HAMMING}
    GROUP BY 1, 2, 3))
WHERE rn = 1 AND aligned >= {_VIDEO_MIN_SHARED}
"""

SQL_VIDEO_PIPELINE = f"""
SELECT g.video_id, g.n_frames, g.fps,
       CAST(g.n_frames AS DOUBLE) / g.fps AS duration_s,
       TRUE AS decode_ok, TRUE AS pixels_exact, TRUE AS meta_match
FROM read_parquet('{_VIDEO_GOLDEN_PATH}') g
"""


# --- 23. dataset assembly: split / stratified sample / mix / pack -----------
# (stages/sampling.py — deterministic hash-based, so every operator is
# SQL-oracle-checkable; thresholds are baked from the SAME frac_to_hex the
# engine uses, so engine and oracle can never drift)

from searchengine_ray.stages import sampling  # noqa: E402

_T_TRAIN = sampling.frac_to_hex(0.8)
_T_VAL = sampling.frac_to_hex(0.9)   # cumulative: train 0.8, val 0.1
_MIX_RATES = {f"src{i}": [1.0, 0.5, 0.25, 0.125][i % 4] for i in range(20)}


def q_split_assign(sf_dir: str):
    """Deterministic train/val/test split (0.8/0.1/0.1) by doc_id hash —
    map-only, zero shuffle, stable under corpus growth."""
    ds = _pq(sf_dir, "documents", columns=["doc_id"])
    return sampling.hash_split(ds, "doc_id", "split42",
                               [("train", 0.8), ("val", 0.1), ("test", 0.1)])


SQL_SPLIT_ASSIGN = f"""
SELECT doc_id,
       CASE WHEN hx < '{_T_TRAIN}' THEN 'train'
            WHEN hx < '{_T_VAL}' THEN 'val'
            ELSE 'test' END AS split
FROM (SELECT doc_id,
             substr(sha256(CAST(doc_id AS VARCHAR) || ':split42'), 1, 12) AS hx
      FROM documents)
"""


def q_grouped_split(sf_dir: str):
    """Group-leakage-safe split: hash on the SOURCE, not the document, so
    every doc of one site lands in the same split (near-duplicate pages
    within a site can't straddle train/test — the leakage GroupShuffleSplit
    exists to prevent).  Map-only; output one (source, split) row per
    source with its doc count — a source appearing under two splits would
    produce two rows and fail the gate structurally."""
    ds = _pq(sf_dir, "documents", columns=["doc_id", "source"])
    assigned = sampling.hash_split(ds, "source", "gsplit42",
                                   [("train", 0.8), ("val", 0.1),
                                    ("test", 0.1)])
    return pre_aggregate(assigned, ["source", "split"],
                         {"n_docs": (None, "count")})


_GT_TRAIN = sampling.frac_to_hex(0.8)
_GT_VAL = sampling.frac_to_hex(0.9)

SQL_GROUPED_SPLIT = f"""
SELECT source,
       CASE WHEN hx < '{_GT_TRAIN}' THEN 'train'
            WHEN hx < '{_GT_VAL}' THEN 'val'
            ELSE 'test' END AS split,
       count(*) AS n_docs
FROM (SELECT source,
             substr(sha256(source || ':gsplit42'), 1, 12) AS hx
      FROM documents)
GROUP BY source, split
"""


def q_token_drift(sf_dir: str):
    """Distribution-drift monitor with per-token attribution: KL(train‖test)
    terms over the top-300 shared-vocabulary tokens of the two hash
    splits.  Token counts per (split, token) reduce through
    ``pre_aggregate``; the vocabulary cap comes from the two-level
    ``global_topk`` (total desc, token tiebreak — deterministic on both
    sides); the driver holds only the O(K) capped table.  Probabilities
    are add-one-smoothed integer ratios, so engine and SQL compute
    IDENTICAL doubles (single division of exact ints) — rounding is for
    the hash, not for agreement."""
    from searchengine_ray.stages.relational import global_topk
    from searchengine_ray.stages.sampling import frac_to_hex, hash_hex
    from searchengine_ray.stages.text import simple_tokens

    K = 300
    t_train, t_val = frac_to_hex(0.8), frac_to_hex(0.9)
    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        hx = hash_hex(df["doc_id"].to_numpy(), "split42")
        split = np.where(hx < t_train, "train",
                         np.where(hx < t_val, "val", "test"))
        sp_out, tok_out = [], []
        for sp, text in zip(split, df["text"]):
            if sp == "val":
                continue
            toks = simple_tokens(text or "")
            sp_out.extend([sp] * len(toks))
            tok_out.extend(toks)
        return pd.DataFrame({"split": np.array(sp_out, dtype=object),
                             "token": np.array(tok_out, dtype=object)})

    tc = pre_aggregate(ds.map_batches(explode, batch_format="pandas"),
                       ["split", "token"], {"n": (None, "count")})
    tc = tc.materialize()  # consumed twice (top-K and the capped filter)
    totals = pre_aggregate(tc, ["token"], {"tot": ("n", "sum")})
    top = global_topk(totals, ["tot", "token"], [False, True], K)
    top_set = set(top["token"])

    from searchengine_ray.stages.relational import broadcast_semi_filter
    capped = broadcast_semi_filter(tc, top_set, "token").to_pandas()

    piv = (capped.pivot_table(index="token", columns="split", values="n",
                              aggfunc="sum", fill_value=0)
           .reindex(sorted(top_set), fill_value=0))
    ntr = piv.get("train", pd.Series(0, index=piv.index)).to_numpy(np.int64)
    nte = piv.get("test", pd.Series(0, index=piv.index)).to_numpy(np.int64)
    p_tr = (ntr + 1.0) / (float(ntr.sum()) + K)
    p_te = (nte + 1.0) / (float(nte.sum()) + K)
    return pd.DataFrame({
        "token": piv.index.to_numpy(dtype=object),
        "p_train": np.round(p_tr, 8),
        "p_test": np.round(p_te, 8),
        "kl_term": np.round(p_tr * np.log(p_tr / p_te), 8)})


SQL_TOKEN_DRIFT = f"""
WITH sp AS (
  SELECT doc_id,
         CASE WHEN hx < '{{t1}}' THEN 'train'
              WHEN hx < '{{t2}}' THEN 'val'
              ELSE 'test' END AS split
  FROM (SELECT doc_id,
               substr(sha256(CAST(doc_id AS VARCHAR) || ':split42'), 1, 12)
                 AS hx
        FROM documents)),
toks AS (
  SELECT doc_id,
         unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS token
  FROM documents),
tc AS (SELECT split, token, count(*) AS n
       FROM toks JOIN sp USING (doc_id)
       WHERE token <> '' AND split IN ('train', 'test')
       GROUP BY split, token),
top AS (SELECT token FROM (
          SELECT token, sum(n) AS tot FROM tc GROUP BY token
          ORDER BY tot DESC, token LIMIT 300)),
f AS (SELECT token,
             sum(CASE WHEN split = 'train' THEN n ELSE 0 END) AS ntr,
             sum(CASE WHEN split = 'test' THEN n ELSE 0 END) AS nte
      FROM tc JOIN top USING (token) GROUP BY token),
tot AS (SELECT sum(ntr) AS str_, sum(nte) AS ste FROM f)
SELECT token,
       round((ntr + 1.0) / (str_ + 300), 8) AS p_train,
       round((nte + 1.0) / (ste + 300), 8) AS p_test,
       round(((ntr + 1.0) / (str_ + 300))
             * ln(((ntr + 1.0) / (str_ + 300))
                  / ((nte + 1.0) / (ste + 300))), 8) AS kl_term
FROM f, tot
""".replace("{t1}", _T_TRAIN).replace("{t2}", _T_VAL)


def q_stratified_sample(sf_dir: str):
    """5 docs per language, uniform without replacement (k smallest id
    hashes per group) — one co-shuffle on the group key."""
    ds = _pq(sf_dir, "documents", columns=["lang", "doc_id"])
    out = sampling.stratified_sample(ds, "lang", "doc_id", k=5, salt="strat42")
    return out.select_columns(["lang", "doc_id"])


SQL_STRATIFIED_SAMPLE = """
SELECT lang, doc_id
FROM (SELECT lang, doc_id,
             substr(sha256(CAST(doc_id AS VARCHAR) || ':strat42'), 1, 12) AS hx
      FROM documents)
QUALIFY row_number() OVER (PARTITION BY lang ORDER BY hx, doc_id) <= 5
"""


def q_weighted_mix(sf_dir: str):
    """Domain mixing: per-source keep rates (1.0 / 0.5 / 0.25 / 0.125 by
    source index mod 4), deterministic in doc_id — map-only."""
    ds = _pq(sf_dir, "documents", columns=["doc_id", "source"])
    return sampling.weighted_mix(ds, "doc_id", "source", _MIX_RATES, "mix42")


_MIX_CASE = " ".join(
    f"WHEN '{s}' THEN '{sampling.frac_to_hex(r)}'" for s, r in
    sorted(_MIX_RATES.items()))

SQL_WEIGHTED_MIX = f"""
SELECT doc_id, source
FROM (SELECT doc_id, source,
             substr(sha256(CAST(doc_id AS VARCHAR) || ':mix42'), 1, 12) AS hx
      FROM documents)
WHERE hx < CASE source {_MIX_CASE} ELSE '' END
"""


# factors chosen to exercise every path: ≥2 full copies + fraction,
# exactly one, fraction-only downsample (base 0), one copy + fraction
_EPOCH_FACTORS = {f"src{i}": [2.45, 1.0, 0.3, 1.75][i % 4] for i in range(20)}
_EPOCH_SALT = "epochs7"


def q_epoch_mix(sf_dir: str):
    """LLaMA-style multi-epoch source upsampling: each doc appears
    floor(f) times plus one hash-deterministic extra with probability
    frac(f), f per source — the training-mix recipe Bernoulli keep-rates
    cannot express (they top out at one copy).  Map-only np.repeat
    explode; rows carry epoch = 0..copies-1."""
    ds = _pq(sf_dir, "documents", columns=["doc_id", "source"])
    return sampling.epoch_mix(ds, "doc_id", "source", _EPOCH_FACTORS,
                              _EPOCH_SALT)


_EPOCH_BASE_CASE = " ".join(
    f"WHEN '{s}' THEN {int(np.floor(f))}" for s, f in
    sorted(_EPOCH_FACTORS.items()))
_EPOCH_FR_CASE = " ".join(
    f"WHEN '{s}' THEN '{sampling.frac_to_hex(f - np.floor(f))}'"
    for s, f in sorted(_EPOCH_FACTORS.items()))

SQL_EPOCH_MIX = f"""
SELECT doc_id, source, unnest(range(reps)) AS epoch
FROM (SELECT doc_id, source,
             CASE source {_EPOCH_BASE_CASE} ELSE 1 END
             + CASE WHEN substr(sha256(CAST(doc_id AS VARCHAR)
                                       || ':{_EPOCH_SALT}'), 1, 12)
                         < CASE source {_EPOCH_FR_CASE} ELSE '' END
                    THEN 1 ELSE 0 END AS reps
      FROM documents)
"""


def q_weighted_sample(sf_dir: str):
    """Exact-k WEIGHTED sample without replacement (Efraimidis-Spirakis;
    the streaming-weighted-sampling shape from the retrieved paper list):
    key(doc) = ln(U)/w with U = (h48+1)/2^48 from the house sha256 and
    w = n_chars; the sample is the global top-k keys.  Distinct from
    ``weighted_mix`` (Bernoulli keep-rates, no size guarantee) and
    ``stratified_sample`` (uniform per group): exactly k rows, inclusion
    probability ∝ weight, deterministic in (doc_id, salt) so re-runs and
    resumes agree.  Map-only keying + ``global_topk`` (local top-k →
    coalesced reduce → O(k) driver merge) — the corpus never shuffles.
    Keys round to 6 decimals on BOTH sides (ties broken by doc_id), so
    libm ulp differences between numpy and DuckDB can't flip the
    selection."""
    from searchengine_ray.stages.relational import global_topk
    from searchengine_ray.stages.sampling import hash_hex

    ds = _pq(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["n_chars"].to_numpy() > 0]
        hx = hash_hex(df["doc_id"].tolist(), "wsamp")
        h48 = np.fromiter((int(h, 16) for h in hx), np.int64,
                          count=len(hx))
        u = (h48.astype(np.float64) + 1.0) / float(1 << 48)
        key = np.round(np.log(u) / df["n_chars"].to_numpy(np.float64), 6)
        return pd.DataFrame({"doc_id": df["doc_id"].to_numpy(np.int64),
                             "key": key})

    return global_topk(ds.map_batches(keyed, batch_format="pandas"),
                       ["key", "doc_id"], [False, True], 100)


SQL_WEIGHTED_SAMPLE = """
SELECT doc_id,
       round(ln((CAST('0x' || substr(sha256(CAST(doc_id AS VARCHAR)
                                            || ':wsamp'), 1, 12) AS BIGINT)
                 + 1.0) / 281474976710656.0) / n_chars, 6) AS key
FROM documents
WHERE n_chars > 0
ORDER BY key DESC, doc_id LIMIT 100
"""


def q_join_sample(sf_dir: str):
    """Weighted sample OVER A JOIN without materializing the join (the
    EDBT'23 streaming-weighted-sampling-over-joins shape): sample k=20
    orders with probability ∝ their total lineitem quantity, then emit
    ONLY the sampled orders' join rows.  The join never runs in full:
    per-key weights come from one ``pre_aggregate`` over lineitem (the
    only all-to-all, O(orders) rows), the E-S top-k runs on that
    aggregate (``global_topk``), and the k winning keys broadcast back as
    map-only filters over both join sides — at 100 TB the full
    orders⋈lineitem output never exists anywhere.  Weights cast to int64
    (l_quantity is integral) so Ray partial sums and the SQL sum agree
    bit-exactly; the E-S key quantizes like ``weighted_sample``."""
    from searchengine_ray.stages.relational import (broadcast_semi_filter,
                                                    global_topk,
                                                    pre_aggregate)
    from searchengine_ray.stages.sampling import hash_hex

    li = _pq(sf_dir, "lineitem",
             columns=["l_orderkey", "l_linenumber", "l_quantity"])

    def iq(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_orderkey": df["l_orderkey"].to_numpy(np.int64),
            "wt": df["l_quantity"].to_numpy(np.float64).astype(np.int64)})

    w = pre_aggregate(li.map_batches(iq, batch_format="pandas"),
                      ["l_orderkey"], {"wt": ("wt", "sum")})

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["wt"].to_numpy() > 0]
        hx = hash_hex(df["l_orderkey"].tolist(), "jsamp")
        h48 = np.fromiter((int(h, 16) for h in hx), np.int64,
                          count=len(hx))
        u = (h48.astype(np.float64) + 1.0) / float(1 << 48)
        key = np.round(np.log(u) / df["wt"].to_numpy(np.float64), 6)
        return pd.DataFrame({"l_orderkey": df["l_orderkey"].to_numpy(np.int64),
                             "key": key})

    top = global_topk(w.map_batches(keyed, batch_format="pandas"),
                      ["key", "l_orderkey"], [False, True], 20)
    keys = set(top["l_orderkey"])
    key_by_order = dict(zip(top["l_orderkey"], top["key"]))
    orders = _pq(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    o_small = (broadcast_semi_filter(orders, keys, "o_orderkey")
               .to_pandas())  # exactly k rows — driver-bounded
    price = dict(zip(o_small["o_orderkey"], o_small["o_totalprice"]))

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        ok = df["l_orderkey"].to_numpy(np.int64)
        return pd.DataFrame({
            "o_orderkey": ok,
            "o_totalprice": df["l_orderkey"].map(price).to_numpy(np.float64),
            "l_linenumber": df["l_linenumber"].to_numpy(np.int64),
            "l_quantity": df["l_quantity"].to_numpy(np.float64),
            "key": df["l_orderkey"].map(key_by_order).to_numpy(np.float64)})

    sampled_li = broadcast_semi_filter(li, keys, "l_orderkey")
    return sampled_li.map_batches(attach, batch_format="pandas")


SQL_JOIN_SAMPLE = """
WITH w AS (SELECT l_orderkey, sum(CAST(l_quantity AS BIGINT)) AS wt
           FROM lineitem GROUP BY l_orderkey),
s AS (SELECT l_orderkey,
             round(ln((CAST('0x' || substr(sha256(CAST(l_orderkey AS VARCHAR)
                                                  || ':jsamp'), 1, 12)
                            AS BIGINT) + 1.0) / 281474976710656.0)
                   / wt, 6) AS key
      FROM w WHERE wt > 0
      ORDER BY key DESC, l_orderkey LIMIT 20)
SELECT o.o_orderkey, o.o_totalprice,
       CAST(l.l_linenumber AS BIGINT) AS l_linenumber, l.l_quantity, s.key
FROM s
JOIN orders o ON o.o_orderkey = s.l_orderkey
JOIN lineitem l ON l.l_orderkey = s.l_orderkey
"""


def q_pack_sequences(sf_dir: str):
    """Concat-then-chunk sequence packing: per source in doc_id order,
    chunk_id = prev running n_chars // 4096 — the pretraining pack layout.
    One co-shuffle; a single grouped-cumsum kernel per bucket."""
    ds = _pq(sf_dir, "documents", columns=["doc_id", "source", "n_chars"])
    out = sampling.pack_sequences(ds, "source", "doc_id", "n_chars",
                                  capacity=4096)
    return out.select_columns(["doc_id", "source", "chunk_id"])


SQL_PACK_SEQUENCES = """
SELECT doc_id, source,
       (CAST(sum(n_chars) OVER (PARTITION BY source ORDER BY doc_id
                                ROWS UNBOUNDED PRECEDING) AS BIGINT)
        - n_chars) // 4096 AS chunk_id
FROM documents
"""


# --- 24. SemDeDup semantic dedup (SQL-checked via scratch assignment table) --

# the engine materializes its k-means cluster assignment here; the oracle
# SQL computes the PAIR semantics (within-cluster all-pairs cosine ≥ t)
# from the same table — so the per-cluster Gram-matrix pipeline is
# oracle-gated while the clustering itself stays engine-side (pinned
# separately by tests/test_kmeans.py: planted-blob recovery, assignment
# ≡ driver recompute, pairs ≡ brute-force within-cluster oracle)
_SEMDEDUP_SCRATCH = "/tmp/graft_scratch/semdedup_assign"
_SEMDEDUP_T = 0.4


def q_semantic_dedup(sf_dir: str):
    """SemDeDup-style semantic near-dup pairs: k-means over the embedding
    corpus (full-corpus Lloyd's, driver sees only k×(d+1) scalars per
    iteration), then within-cluster all-pairs cosine ≥ t — O(n²/k) work,
    clusters independently parallel, never an all-pairs scan.  The
    assignment is written once to the scratch table (read by the oracle
    SQL), pairs come from the per-cluster Gram kernel over that same
    assignment."""
    import shutil

    from searchengine_ray.stages import kmeans

    ds = _pq(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cent = kmeans.kmeans_fit(ds, num_clusters=8, iters=4, seed=5)
    assigned = kmeans.kmeans_assign(ds, cent)
    shutil.rmtree(_SEMDEDUP_SCRATCH, ignore_errors=True)
    (assigned.select_columns(["vec_id", "cluster_id"])
     .write_parquet(_SEMDEDUP_SCRATCH))
    out = kmeans.semantic_dedup_pairs(assigned, threshold=_SEMDEDUP_T)
    pdf = out.to_pandas()  # pair-scale result, small by construction
    if pdf.empty:
        return pd.DataFrame({"doc_a": pd.Series([], dtype=np.int64),
                             "doc_b": pd.Series([], dtype=np.int64),
                             "cosine": pd.Series([], dtype=np.float64)})
    return (pdf.rename(columns={"id_a": "doc_a", "id_b": "doc_b"})
            .reset_index(drop=True))


SQL_SEMANTIC_DEDUP = f"""
SELECT a.vec_id AS doc_a, b.vec_id AS doc_b,
       round(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                    CAST(b.embedding AS DOUBLE[])), 6) AS cosine
FROM embeddings a
JOIN embeddings b ON a.vec_id < b.vec_id
JOIN read_parquet('{_SEMDEDUP_SCRATCH}/*.parquet') ca ON ca.vec_id = a.vec_id
JOIN read_parquet('{_SEMDEDUP_SCRATCH}/*.parquet') cb ON cb.vec_id = b.vec_id
WHERE ca.cluster_id = cb.cluster_id
  AND list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                             CAST(b.embedding AS DOUBLE[])) >= {_SEMDEDUP_T}
"""


_SEMDEDUP_SURV_SCRATCH = "/tmp/graft_scratch/semdedup_surv_assign"


def q_semantic_survivors(sf_dir: str):
    """End-to-end SemDeDup: k-means → within-cluster cosine pairs →
    connected components → ONE survivor per semantic-duplicate group
    (smallest vec_id; singletons survive as themselves) over the full
    embeddings corpus.  Same machinery as ``q_neardup_survivors``; the
    oracle recursively closes the within-cluster pair SQL over the
    engine's own scratch assignment."""
    import shutil

    from searchengine_ray.stages import kmeans
    from searchengine_ray.stages.clusters import (
        cluster_survivors, connected_components)

    ds = _pq(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cent = kmeans.kmeans_fit(ds, num_clusters=8, iters=4, seed=5)
    assigned = kmeans.kmeans_assign(ds, cent)
    shutil.rmtree(_SEMDEDUP_SURV_SCRATCH, ignore_errors=True)
    (assigned.select_columns(["vec_id", "cluster_id"])
     .write_parquet(_SEMDEDUP_SURV_SCRATCH))
    pairs = kmeans.semantic_dedup_pairs(assigned, threshold=_SEMDEDUP_T)
    comps = connected_components(pairs, id_a="id_a", id_b="id_b")
    surv = cluster_survivors(ds.select_columns(["vec_id"]), comps,
                             "vec_id", better=[])

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "vec_id": df["vec_id"].astype(np.int64),
            "cluster_id": df["cluster_id"].astype(np.int64),
            "n_members": df["n_members"].astype(np.int64)})

    return surv.map_batches(finish, batch_format="pandas")


SQL_SEMANTIC_SURVIVORS = f"""
WITH RECURSIVE
sp AS (
  SELECT a.vec_id AS u, b.vec_id AS v
  FROM embeddings a
  JOIN embeddings b ON a.vec_id < b.vec_id
  JOIN read_parquet('{_SEMDEDUP_SURV_SCRATCH}/*.parquet') ca
       ON ca.vec_id = a.vec_id
  JOIN read_parquet('{_SEMDEDUP_SURV_SCRATCH}/*.parquet') cb
       ON cb.vec_id = b.vec_id
  WHERE ca.cluster_id = cb.cluster_id
    AND list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                               CAST(b.embedding AS DOUBLE[])) >= {_SEMDEDUP_T}),
edges AS (SELECT u, v FROM sp UNION ALL SELECT v, u FROM sp),
r(node, lab) AS (
  SELECT u, u FROM edges
  UNION
  SELECT e.v, r.lab FROM edges e JOIN r ON r.node = e.u),
comp AS (SELECT node, min(lab) AS cluster_id FROM r GROUP BY node),
lab AS (
  SELECT e.vec_id, coalesce(c.cluster_id, e.vec_id) AS cluster_id
  FROM embeddings e LEFT JOIN comp c ON e.vec_id = c.node)
SELECT vec_id, cluster_id, CAST(n_members AS BIGINT) AS n_members
FROM (SELECT vec_id, cluster_id,
             count(*) OVER (PARTITION BY cluster_id) AS n_members,
             row_number() OVER (PARTITION BY cluster_id
                                ORDER BY vec_id) AS rn
      FROM lab)
WHERE rn = 1
"""


# --- 24b. oracle-gated k-means assignment (scratch centroid table) ----------

# `semantic_dedup` gates only PAIR semantics over an opaque assignment;
# this query gates the CLUSTERING itself: the engine persists its fitted
# centroid table and the DuckDB oracle recomputes every row's nearest
# centroid from it via list_distance — so a wrong centroid update, a
# broken early stop, or an assignment kernel defect all flip rows.
_KMEANS_CENT_SCRATCH = "/tmp/graft_scratch/kmeans_centroids"


def q_kmeans_clusters(sf_dir: str):
    """Full-corpus deterministic k-means (topic bucketing / curation
    clustering): min-id init (no sample), Lloyd's to an assignment fixed
    point (order-independent wrapping-int64 signature early stop; the
    driver sees k×(d+3) scalars per iteration), centroids persisted to
    the scratch table the oracle reads.  The emitted winner ranks on
    (round(euclidean, 6), cluster) — numpy argmin's first-min and SQL's
    ``ORDER BY dist, cluster`` compute the identical row even where the
    matmul-identity kernel and list_distance differ in ulps."""
    import shutil

    import pyarrow.parquet as papq

    from searchengine_ray.stages import kmeans

    ds = _pq(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cent, _info = kmeans.kmeans_fit_traced(ds, num_clusters=8)
    shutil.rmtree(_KMEANS_CENT_SCRATCH, ignore_errors=True)
    os.makedirs(_KMEANS_CENT_SCRATCH, exist_ok=True)
    papq.write_table(
        pa.table({"cluster": pa.array(range(cent.shape[0]), pa.int64()),
                  "centroid": pa.array([[float(v) for v in c] for c in cent],
                                       pa.list_(pa.float64()))}),
        os.path.join(_KMEANS_CENT_SCRATCH, "centroids.parquet"))
    return kmeans.kmeans_assign_ranked(ds, cent)


SQL_KMEANS_CLUSTERS = f"""
WITH d AS (
  SELECT e.vec_id, c.cluster,
         round(list_distance(CAST(e.embedding AS DOUBLE[]),
                             CAST(c.centroid AS DOUBLE[])), 6) AS dist
  FROM embeddings e
  CROSS JOIN read_parquet('{_KMEANS_CENT_SCRATCH}/*.parquet') c),
r AS (SELECT vec_id, cluster, dist,
             row_number() OVER (PARTITION BY vec_id
                                ORDER BY dist, cluster) AS rn
      FROM d)
SELECT vec_id, cluster, dist FROM r WHERE rn = 1
"""


# --- 24c. cluster-balanced diversity sampling (kmeans × stratified) ---------

_KM_SAMPLE_SCRATCH = "/tmp/graft_scratch/kmeans_sample_centroids"
_KM_SAMPLE_K = 12
_KM_SAMPLE_SALT = "csamp1"


def q_cluster_sample(sf_dir: str):
    """Diversity-balanced sampling (the DataComp/SemDeDup curation shape):
    k-means topic buckets over the embedding corpus, then an exact
    12-per-cluster deterministic hash-order sample — balanced coverage of
    the embedding space instead of the raw density.  Composes the
    oracle-gated assignment (centroids persisted for the SQL) with the
    stratified sampler's one co-shuffle; the oracle recomputes BOTH
    stages (list_distance argmin CTE + QUALIFY row_number per cluster)."""
    import shutil

    import pyarrow.parquet as papq

    from searchengine_ray.stages import kmeans

    ds = _pq(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cent, _info = kmeans.kmeans_fit_traced(ds, num_clusters=8)
    shutil.rmtree(_KM_SAMPLE_SCRATCH, ignore_errors=True)
    os.makedirs(_KM_SAMPLE_SCRATCH, exist_ok=True)
    papq.write_table(
        pa.table({"cluster": pa.array(range(cent.shape[0]), pa.int64()),
                  "centroid": pa.array([[float(v) for v in c] for c in cent],
                                       pa.list_(pa.float64()))}),
        os.path.join(_KM_SAMPLE_SCRATCH, "centroids.parquet"))
    assigned = (kmeans.kmeans_assign_ranked(ds, cent)
                .select_columns(["vec_id", "cluster"]))
    out = sampling.stratified_sample(assigned, "cluster", "vec_id",
                                     _KM_SAMPLE_K, _KM_SAMPLE_SALT)

    def fmt(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "vec_id": df["vec_id"].to_numpy(np.int64),
            "cluster": df["cluster"].to_numpy(np.int64)})

    return out.map_batches(fmt, batch_format="pandas")


SQL_CLUSTER_SAMPLE = f"""
WITH d AS (
  SELECT e.vec_id, c.cluster,
         round(list_distance(CAST(e.embedding AS DOUBLE[]),
                             CAST(c.centroid AS DOUBLE[])), 6) AS dist
  FROM embeddings e
  CROSS JOIN read_parquet('{_KM_SAMPLE_SCRATCH}/*.parquet') c),
a AS (SELECT vec_id, cluster
      FROM (SELECT vec_id, cluster,
                   row_number() OVER (PARTITION BY vec_id
                                      ORDER BY dist, cluster) AS rn
            FROM d)
      WHERE rn = 1)
SELECT vec_id, cluster
FROM (SELECT vec_id, cluster,
             substr(sha256(CAST(vec_id AS VARCHAR)
                           || ':{_KM_SAMPLE_SALT}'), 1, 12) AS hx
      FROM a)
QUALIFY row_number() OVER (PARTITION BY cluster
                           ORDER BY hx, vec_id) <= {_KM_SAMPLE_K}
"""


# --- 24d. distributed PCA projection (scratch component table) --------------

# The covariance comes from ONE corpus pass (d×(d+2) driver scalars,
# never a sample — stages/pca.py); the fitted basis is persisted to the
# scratch table and the DuckDB oracle recomputes every row's projection
# from it via list_inner_product, so a wrong moment sum, a broken
# eigendecomposition ordering, or a projection kernel defect all flip
# rows.  The engine subtracts the SAME precomputed μ·v scalar the oracle
# reads, so only sub-ulp inner-product association separates the two
# sides (absorbed by round-6).
_PCA_SCRATCH = "/tmp/graft_scratch/pca_components"
_PCA_M = 8


def q_pca_project(sf_dir: str):
    """Top-8 principal-component projection of the embedding corpus
    (the dimensionality-reduction step of embedding curation): exact
    full-corpus covariance from one pass, driver-side eigh, map-only
    projection; components + μ·v persisted for the oracle."""
    import shutil

    import pyarrow.parquet as papq

    from searchengine_ray.stages import pca

    ds = _pq(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    mean, comp, _evals, _n = pca.pca_fit(ds, n_components=_PCA_M)
    mu_dot = mean @ comp.T
    shutil.rmtree(_PCA_SCRATCH, ignore_errors=True)
    os.makedirs(_PCA_SCRATCH, exist_ok=True)
    papq.write_table(
        pa.table({"comp": pa.array(range(comp.shape[0]), pa.int64()),
                  "component": pa.array([[float(v) for v in c] for c in comp],
                                        pa.list_(pa.float64())),
                  "mu_dot": pa.array([float(v) for v in mu_dot],
                                     pa.float64())}),
        os.path.join(_PCA_SCRATCH, "components.parquet"))
    return pca.pca_project(ds, mean, comp)


SQL_PCA_PROJECT = f"""
WITH proj AS (
  SELECT e.vec_id, c.comp,
         round(list_inner_product(CAST(e.embedding AS DOUBLE[]),
                                  CAST(c.component AS DOUBLE[]))
               - c.mu_dot, 6) AS p
  FROM embeddings e
  CROSS JOIN read_parquet('{_PCA_SCRATCH}/*.parquet') c)
SELECT vec_id,
       {', '.join(f'max(CASE WHEN comp = {r} THEN p END) AS p{r}'
                  for r in range(_PCA_M))}
FROM proj GROUP BY vec_id
"""


# --- 25c. DSIR importance-resampling selection (stages/dsir.py) -------------

_DSIR_B = 512
_DSIR_SALT = "dsir1"
_DSIR_K = 100


def q_dsir_select(sf_dir: str):
    """DSIR (Xie et al. 2023): select the 100 docs whose hashed-n-gram
    distribution best matches the English slice — unigram+bigram buckets,
    add-one-smoothed target/raw LMs fit in ONE pre-aggregated corpus
    pass, the O(B) log-ratio table broadcast, scoring map-only, top-k by
    (rounded score, doc_id) via the two-level merge.  Every log-ratio is
    ln of an exact-integer ratio (the PMI discipline) so engine and SQL
    round the same doubles."""
    from searchengine_ray.stages import dsir

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def mask(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(np.int64),
            "text": df["text"],
            "is_target": (df["lang"] == "en").to_numpy()})

    out = dsir.dsir_select(ds.map_batches(mask, batch_format="pandas"),
                           "is_target", k=_DSIR_K, salt=_DSIR_SALT,
                           n_buckets=_DSIR_B)
    return pd.DataFrame({"doc_id": out["doc_id"].to_numpy(np.int64),
                         "score": out["score"].to_numpy(np.float64)})


SQL_DSIR_SELECT = f"""
WITH toks AS (
  SELECT doc_id, lang,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     t -> t <> '') AS ts
  FROM documents),
p AS (SELECT doc_id, lang, unnest(ts) AS tok,
             unnest(range(0, len(ts))) AS pos
      FROM toks WHERE len(ts) > 0),
grams AS (
  SELECT doc_id, lang, tok AS g FROM p
  UNION ALL
  SELECT a.doc_id, a.lang, a.tok || ' ' || b.tok AS g
  FROM p a JOIN p b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1),
hb AS (SELECT doc_id, lang,
              CAST('0x' || substr(sha256(g || ':{_DSIR_SALT}'), 1, 12)
                   AS BIGINT) % {_DSIR_B} AS b
       FROM grams),
tt AS (SELECT count(*) + {_DSIR_B} AS v FROM hb WHERE lang = 'en'),
qt AS (SELECT count(*) + {_DSIR_B} AS v FROM hb),
tc AS (SELECT b, count(*) AS c FROM hb WHERE lang = 'en' GROUP BY b),
qc AS (SELECT b, count(*) AS c FROM hb GROUP BY b),
docb AS (SELECT doc_id, b, count(*) AS c FROM hb GROUP BY doc_id, b),
scored AS (
  SELECT d.doc_id,
         sum(d.c * ln(CAST((coalesce(t.c, 0) + 1) * qt.v AS DOUBLE)
                      / CAST((q.c + 1) * tt.v AS DOUBLE))) AS s
  FROM docb d
  JOIN qc q USING (b)
  LEFT JOIN tc t USING (b), tt, qt
  GROUP BY d.doc_id),
r AS (SELECT d.doc_id, round(coalesce(s.s, 0), 6) AS score,
             row_number() OVER (ORDER BY round(coalesce(s.s, 0), 6) DESC,
                                d.doc_id) AS rn
      FROM documents d LEFT JOIN scored s USING (doc_id))
SELECT doc_id, score FROM r WHERE rn <= {_DSIR_K}
"""


# --- 26. benchmark decontamination (stages/decontam.py) --------------------


def q_decontaminate(sf_dir: str):
    """GPT-3-style benchmark decontamination: flag every TRAIN-split doc
    that shares any overlapping 4-token gram with the TEST split (the
    benchmark stand-in — at 100 TB the benchmark side is an eval suite,
    small by nature).  Benchmark grams collect once → ``ray.put`` → the
    train side is a map-only vectorized searchsorted probe, zero shuffle."""
    from searchengine_ray.stages import decontam

    docs = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    split_ds = sampling.hash_split(
        docs, "doc_id", "split42",
        [("train", 0.8), ("val", 0.1), ("test", 0.1)])

    def only(name):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            return df[df["split"] == name].drop(columns=["split"])
        return f

    bench = split_ds.map_batches(only("test"), batch_format="pandas")
    train = split_ds.map_batches(only("train"), batch_format="pandas")
    ref = decontam.collect_bench_grams(bench, gram_k=4)
    return decontam.decontaminate(train, ref, gram_k=4)


SQL_DECONTAMINATE = f"""
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     t -> t <> '') AS ts
  FROM documents),
grams AS (
  SELECT DISTINCT doc_id,
         unnest(list_transform(range(0, len(ts) - 3),
                               i -> array_to_string(ts[i+1:i+4], ' '))) AS g
  FROM toks WHERE len(ts) >= 4),
split AS (
  SELECT doc_id,
         CASE WHEN hx < '{_T_TRAIN}' THEN 'train'
              WHEN hx < '{_T_VAL}' THEN 'val'
              ELSE 'test' END AS split
  FROM (SELECT doc_id,
               substr(sha256(CAST(doc_id AS VARCHAR) || ':split42'), 1, 12) AS hx
        FROM documents)),
bench AS (
  SELECT DISTINCT g FROM grams JOIN split USING (doc_id)
  WHERE split = 'test'),
hits AS (
  SELECT grams.doc_id, count(*) AS n_shared
  FROM grams JOIN bench USING (g) GROUP BY grams.doc_id)
SELECT s.doc_id,
       CAST(coalesce(h.n_shared, 0) AS BIGINT) AS n_shared,
       h.n_shared IS NOT NULL AS contaminated
FROM split s LEFT JOIN hits h USING (doc_id)
WHERE s.split = 'train'
"""


def q_fuzzy_decontaminate(sf_dir: str):
    """Fuzzy decontamination: MinHash-LSH near-dup pairs between the train
    split and the test split (the paraphrased-benchmark-leak case the exact
    gram filter misses).  The benchmark's banded index broadcasts once; the
    train side is map-only — one vectorized signing pass + searchsorted
    band probe per batch, exact jaccard verify on the pair-scaled
    candidates.  Zero shuffles; recall at the 0.65 gate is the
    oracle-proven 32×r=4 banding of ``minhash_pairs``."""
    from searchengine_ray.stages import decontam

    docs = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    split_ds = sampling.hash_split(
        docs, "doc_id", "split42",
        [("train", 0.8), ("val", 0.1), ("test", 0.1)])

    def only(name):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            return df[df["split"] == name].drop(columns=["split"])
        return f

    bench = split_ds.map_batches(only("test"), batch_format="pandas")
    train = split_ds.map_batches(only("train"), batch_format="pandas")
    ref = decontam.build_bench_index(bench)
    return decontam.minhash_cross_neardup(train, ref, threshold=0.65)


SQL_FUZZY_DECONTAMINATE = _SQL_SHINGLES + f""",
split AS (
  SELECT doc_id,
         CASE WHEN hx < '{_T_TRAIN}' THEN 'train'
              WHEN hx < '{_T_VAL}' THEN 'val'
              ELSE 'test' END AS split
  FROM (SELECT doc_id,
               substr(sha256(CAST(doc_id AS VARCHAR) || ':split42'), 1, 12) AS hx
        FROM documents)),
sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
pairs AS (
  SELECT a.doc_id AS tr, b.doc_id AS be, count(*) AS shared
  FROM sh a JOIN split sa ON sa.doc_id = a.doc_id AND sa.split = 'train'
  JOIN sh b ON a.s = b.s
  JOIN split sb ON sb.doc_id = b.doc_id AND sb.split = 'test'
  GROUP BY a.doc_id, b.doc_id)
SELECT tr AS doc_id, be AS bench_id,
       round(CAST(shared AS DOUBLE) / (sa.n + sb.n - shared), 6) AS jaccard
FROM pairs
JOIN sizes sa ON sa.doc_id = tr
JOIN sizes sb ON sb.doc_id = be
WHERE CAST(shared AS DOUBLE) / (sa.n + sb.n - shared) > 0.65
"""


# --- 26b. composed training-corpus pipeline ---------------------------------


def q_training_corpus(sf_dir: str):
    """The end-to-end dataset-prep chain a training pipeline actually runs,
    composed from the individual operators (each separately oracle-gated):
    exact dedup → train/test split → benchmark decontamination (drop
    contaminated) → length-quality gate at the exact global p25 → sequence
    packing per language.  Every stage is map-only or one co-shuffle; the
    quantile threshold is 2-3 extra streaming passes — nothing here
    materializes the corpus."""
    from searchengine_ray.stages import decontam
    from searchengine_ray.stages.sketches import exact_global_quantile

    docs = _pq(sf_dir, "documents",
               columns=["doc_id", "text", "lang", "n_chars"])
    deduped = dedup_stage.dedup_exact(docs)
    # materialize the two REUSED intermediates: Ray re-executes shared
    # lazy sub-plans per consumer, and this chain consumes split_ds twice
    # (bench + train) and `clean` 3-4 times (quantile passes + the gate) —
    # measured 8.6 → 2.4 s at sf0.1.  At cluster scale the same role is
    # played by writing the cleaned corpus to parquet (resumable) and
    # streaming the passes from storage; object-store materialize is the
    # single-node equivalent (spillable, never driver-resident).
    split_ds = sampling.hash_split(
        deduped, "doc_id", "split42",
        [("train", 0.8), ("val", 0.1), ("test", 0.1)]).materialize()

    def only(name):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            return df[df["split"] == name].drop(columns=["split"])
        return f

    bench = split_ds.map_batches(only("test"), batch_format="pandas")
    train = split_ds.map_batches(only("train"), batch_format="pandas")
    ref = decontam.collect_bench_grams(bench, gram_k=4)
    flagged = decontam.decontaminate(train, ref, gram_k=4, passthrough=True)

    def clean_rows(df: pd.DataFrame) -> pd.DataFrame:
        return df.loc[~df["contaminated"],
                      ["doc_id", "lang", "n_chars"]]

    clean = flagged.map_batches(clean_rows,
                                batch_format="pandas").materialize()
    thr = exact_global_quantile(clean, "n_chars", 0.25)

    def length_gate(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["n_chars"].to_numpy(np.float64) >= thr]

    kept = clean.map_batches(length_gate, batch_format="pandas")
    packed = sampling.pack_sequences(kept, "lang", "doc_id", "n_chars",
                                     capacity=4096)
    return packed.select_columns(["doc_id", "lang", "n_chars", "chunk_id"])


SQL_TRAINING_CORPUS = f"""
WITH dedup AS (
  SELECT doc_id, text, lang, n_chars
  FROM (SELECT doc_id, text, lang, n_chars,
               row_number() OVER (PARTITION BY text ORDER BY doc_id) AS rn
        FROM documents)
  WHERE rn = 1),
split AS (
  SELECT doc_id,
         CASE WHEN hx < '{_T_TRAIN}' THEN 'train'
              WHEN hx < '{_T_VAL}' THEN 'val'
              ELSE 'test' END AS split
  FROM (SELECT doc_id,
               substr(sha256(CAST(doc_id AS VARCHAR) || ':split42'), 1, 12) AS hx
        FROM dedup)),
toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     t -> t <> '') AS ts
  FROM dedup),
grams AS (
  SELECT DISTINCT doc_id,
         unnest(list_transform(range(0, len(ts) - 3),
                               i -> array_to_string(ts[i+1:i+4], ' '))) AS g
  FROM toks WHERE len(ts) >= 4),
bench AS (
  SELECT DISTINCT g FROM grams JOIN split USING (doc_id)
  WHERE split = 'test'),
hits AS (SELECT DISTINCT grams.doc_id FROM grams JOIN bench USING (g)),
clean AS (
  SELECT d.doc_id, d.lang, d.n_chars
  FROM dedup d JOIN split s USING (doc_id)
  LEFT JOIN hits h USING (doc_id)
  WHERE s.split = 'train' AND h.doc_id IS NULL),
kept AS (
  SELECT * FROM clean
  WHERE n_chars >= (SELECT quantile_cont(n_chars, 0.25) FROM clean))
SELECT doc_id, lang, n_chars,
       (CAST(sum(n_chars) OVER (PARTITION BY lang ORDER BY doc_id
                                ROWS UNBOUNDED PRECEDING) AS BIGINT)
        - n_chars) // 4096 AS chunk_id
FROM kept
"""


# --- 27. regex redaction (functions/redact.py) ------------------------------

# the synthetic corpus has no emails/phones (DEFAULT_PII_PATTERNS are pinned
# by tests/test_redact.py on crafted strings); the gated query masks a
# corpus-relevant entity shape with the same machinery.  RE2 on both sides.
_REDACT_PATTERNS = [("entity", r"\bcustomer [a-z]+"),
                    ("metric", r"\b(?:fast|slow) (?:query|scan)\b")]


def q_redact_entities(sf_dir: str):
    """PII-scrub-shaped redaction: mask entity patterns, count matches —
    map-only Arrow RE2 kernels, zero shuffle, zero Python per row."""
    from searchengine_ray.functions.redact import redact

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    out = redact(ds, text_col="text", patterns=_REDACT_PATTERNS)
    return out.select_columns(["doc_id", "clean", "n_redacted"])


SQL_REDACT_ENTITIES = r"""
WITH s1 AS (
  SELECT doc_id,
         len(regexp_extract_all(text, '\bcustomer [a-z]+')) AS n1,
         regexp_replace(text, '\bcustomer [a-z]+', '<ENTITY>', 'g') AS t1
  FROM documents)
SELECT doc_id,
       regexp_replace(t1, '\b(?:fast|slow) (?:query|scan)\b',
                      '<METRIC>', 'g') AS clean,
       CAST(n1 + len(regexp_extract_all(t1, '\b(?:fast|slow) (?:query|scan)\b'))
            AS BIGINT) AS n_redacted
FROM s1
"""


# --- 28. global-quantile threshold filter (stages/sketches.py exact path) --


def q_quantile_filter(sf_dir: str):
    """Percentile-threshold filtering (the "keep rows above the global p75"
    quality-gate shape): the threshold comes from
    ``exact_global_quantile`` — iterative distributed histogram refinement,
    O(bins) driver rows per pass, 2-3 streaming passes at any scale, never a
    global sort or a driver materialization — then one map-only filter."""
    from searchengine_ray.stages.sketches import exact_global_quantile

    ds = _pq(sf_dir, "events", columns=["event_id", "value"])
    thr = exact_global_quantile(ds, "value", 0.75)

    def keep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return batch.filter(pc.greater_equal(batch["value"],
                                             pa.scalar(thr)))

    return ds.map_batches(keep, batch_format="pyarrow")


SQL_QUANTILE_FILTER = """
SELECT event_id, value FROM events
WHERE value >= (SELECT quantile_cont(value, 0.75) FROM events)
"""


# --- 29. repetition / duplicated-text scoring (stages/repetition.py) --------


def q_repetition_stats(sf_dir: str):
    """WITHIN-doc repetition signals (Gopher repetition rules, Rae et al.
    2021 §A1.1, token form): top-token share, top-2-gram share, duplicate-
    2-gram share.  Map-only — zero shuffles at any corpus size."""
    from searchengine_ray.stages.repetition import repetition_stats

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    return repetition_stats(ds)


SQL_REPETITION_STATS = """
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     t -> t <> '') AS ts
  FROM documents),
n AS (SELECT doc_id, len(ts) AS n_tokens FROM toks),
t1 AS (SELECT doc_id, unnest(ts) AS tok FROM toks WHERE len(ts) > 0),
tc AS (SELECT doc_id, tok, count(*) AS c FROM t1 GROUP BY doc_id, tok),
top1 AS (SELECT doc_id, max(c) AS mc FROM tc GROUP BY doc_id),
bg AS (SELECT doc_id,
              unnest(list_transform(range(1, len(ts)),
                                    i -> ts[i] || ' ' || ts[i+1])) AS b
       FROM toks WHERE len(ts) >= 2),
bc AS (SELECT doc_id, b, count(*) AS c FROM bg GROUP BY doc_id, b),
bstat AS (SELECT doc_id, max(c) AS mbc, CAST(sum(c) AS BIGINT) AS tot,
                 count(*) AS dist
          FROM bc GROUP BY doc_id)
SELECT n.doc_id, n.n_tokens,
       round(CASE WHEN n.n_tokens > 0
                  THEN CAST(top1.mc AS DOUBLE) / n.n_tokens
                  ELSE 0 END, 6) AS top_token_frac,
       round(CASE WHEN n.n_tokens >= 2
                  THEN CAST(bstat.mbc AS DOUBLE) / bstat.tot
                  ELSE 0 END, 6) AS top_2gram_frac,
       round(CASE WHEN n.n_tokens >= 2
                  THEN 1.0 - CAST(bstat.dist AS DOUBLE) / bstat.tot
                  ELSE 0 END, 6) AS dup_2gram_frac
FROM n
LEFT JOIN top1 USING (doc_id)
LEFT JOIN bstat USING (doc_id)
"""


def q_dup_window_stats(sf_dir: str):
    """CROSS-doc duplicated-substring fraction per doc (the Lee et al.
    2021 exact-substring-dedup signal): share of sliding 8-token window
    positions whose window text occurs in ≥ 2 distinct documents.  Two
    all-to-alls over per-batch-combined (hash, doc, count) partials."""
    from searchengine_ray.stages.repetition import dup_window_stats

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    return dup_window_stats(ds, k=8)


SQL_DUP_WINDOW_STATS = """
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     t -> t <> '') AS ts
  FROM documents),
w AS (SELECT doc_id,
             unnest(list_transform(range(1, len(ts) - 6),
                                   i -> array_to_string(ts[i:i+7], ' '))) AS s
      FROM toks WHERE len(ts) >= 8),
dfreq AS (SELECT s, count(DISTINCT doc_id) AS nd FROM w GROUP BY s)
SELECT w.doc_id,
       count(*) AS n_windows,
       CAST(count(*) FILTER (WHERE dfreq.nd >= 2) AS BIGINT) AS n_dup_windows,
       round(CAST(count(*) FILTER (WHERE dfreq.nd >= 2) AS DOUBLE)
             / count(*), 6) AS dup_frac
FROM w JOIN dfreq USING (s)
GROUP BY w.doc_id
"""


def q_remove_dup_spans(sf_dir: str):
    """Exact-substring DEDUP as a cleaning operator (Lee et al. 2021
    ExactSubstr, token-window form): cut every token covered by an
    8-token window occurring ≥ 2 times anywhere in the corpus, emit the
    cleaned text + removal counts.  ``dup_window_stats`` is the signal;
    this is the op that produces the training corpus."""
    from searchengine_ray.stages.repetition import remove_dup_spans

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    return remove_dup_spans(ds, k=8)


SQL_REMOVE_DUP_SPANS = """
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     t -> t <> '') AS ts
  FROM documents),
pos AS (SELECT doc_id, unnest(range(1, len(ts) + 1)) AS p, unnest(ts) AS tok
        FROM toks WHERE len(ts) > 0),
w AS (SELECT doc_id,
             unnest(range(1, len(ts) - 6)) AS p,
             unnest(list_transform(range(1, len(ts) - 6),
                                   i -> array_to_string(ts[i:i+7], ' '))) AS s
      FROM toks WHERE len(ts) >= 8),
freq AS (SELECT s FROM w GROUP BY s HAVING count(*) >= 2),
dupw AS (SELECT w.doc_id, w.p FROM w JOIN freq USING (s)),
cov AS (SELECT DISTINCT t.doc_id, t.p
        FROM pos t JOIN dupw d
          ON t.doc_id = d.doc_id AND t.p >= d.p AND t.p < d.p + 8)
SELECT t.doc_id,
       CAST(len(t.ts) AS BIGINT) AS n_tokens,
       CAST(count(c.p) AS BIGINT) AS n_removed,
       coalesce(string_agg(CASE WHEN c.p IS NULL THEN p2.tok END,
                           ' ' ORDER BY p2.p), '') AS clean_text
FROM toks t
LEFT JOIN pos p2 USING (doc_id)
LEFT JOIN cov c ON c.doc_id = p2.doc_id AND c.p = p2.p
GROUP BY t.doc_id, len(t.ts)
"""


def q_index_merge(sf_dir: str):
    """Incremental index merge, gated by REBUILD EQUIVALENCE: build the
    index on doc_id%10!=0, then fold in a delta (new docs %10==0 +
    changed docs %10==5 with appended text) via
    ``index_pipeline.merge_index`` — old postings rescale tf×idf' without
    re-tokenizing.  The oracle computes the postings of the final merged
    corpus from scratch in SQL; the merge must equal the rebuild.
    (no doc map is written, so n_docs here = docs with ≥1 token —
    merge_index's corpus count without a doc map; this corpus has no empty
    docs so it equals count(*).)"""
    import tempfile

    from searchengine_ray.pipelines.index_pipeline import (
        build_postings, load_postings, merge_index, write_index)

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    base = ds.map_batches(lambda df: df[df["doc_id"] % 10 != 0],
                          batch_format="pandas")

    def derive_delta(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        new = df[ids % 10 == 0]
        changed = df[ids % 10 == 5].copy()
        changed["text"] = changed["text"] + " merged update"
        return pd.concat([new, changed], ignore_index=True)

    delta = ds.map_batches(derive_delta, batch_format="pandas")

    scratch = tempfile.mkdtemp(prefix="graft_index_merge_")
    write_index(build_postings(base, mode="simple"), scratch)
    merge_index(scratch, delta, mode="simple")

    def project(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype(np.int64),
            "token": df["token"],
            "tf": df["tf"].round(6),
            "tf_idf": df["tf_idf"].round(6)})

    return load_postings(scratch).map_batches(project,
                                              batch_format="pandas")


SQL_INDEX_MERGE = """
WITH corpus AS (
  SELECT doc_id,
         CASE WHEN doc_id % 10 = 5 THEN text || ' merged update'
              ELSE text END AS text
  FROM documents),
toks AS (SELECT doc_id,
                unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+'))
                  AS token
         FROM corpus),
toks2 AS (SELECT * FROM toks WHERE token <> ''),
doc_len AS (SELECT doc_id, count(*) AS n FROM toks2 GROUP BY doc_id),
tc AS (SELECT doc_id, token, count(*) AS cnt FROM toks2
       GROUP BY doc_id, token),
dfreq AS (SELECT token, count(DISTINCT doc_id) AS df FROM toks2
          GROUP BY token),
n_docs AS (SELECT count(DISTINCT doc_id) AS n FROM toks2)
SELECT tc.doc_id, tc.token,
       round(CAST(tc.cnt AS DOUBLE) / doc_len.n, 6) AS tf,
       round((CAST(tc.cnt AS DOUBLE) / doc_len.n)
             * ln(CAST(n_docs.n AS DOUBLE) / dfreq.df), 6) AS tf_idf
FROM tc JOIN doc_len USING (doc_id) JOIN dfreq USING (token), n_docs
"""


def q_corpus_refresh(sf_dir: str):
    """Composed incremental corpus refresh — the full loop an incremental
    crawl runs between yesterday and today: ``snapshot_diff`` (what
    changed) → delta construction (added/changed take today's text;
    REMOVED ids become empty-text replacement rows, merge_index's
    removal contract) → ``merge_index`` folds the delta into the
    persisted index without re-tokenizing the unchanged corpus.

    Derivation: old = doc_id%7!=0 (ids %7==0 are new today); new =
    doc_id%7!=3 (ids %7==3 were deleted), with %7==5 texts appended
    ' refreshed'.  Gate: REBUILD EQUIVALENCE — the refreshed index must
    equal a from-scratch SQL build of today's corpus, so removed docs'
    postings are gone AND every surviving posting's tf_idf reflects the
    shifted global df/n_docs.

    Scale shape: the diff output is O(changes) by the incremental
    contract — the driver pull below is bounded exactly like
    merge_index's own delta-id broadcast (max_delta_ids); everything
    corpus-scaled stays in the diff co-shuffle and the merge's single
    postings-scale write sort."""
    import tempfile

    import ray

    from searchengine_ray.pipelines.index_pipeline import (
        build_postings, load_postings, merge_index, write_index)
    from searchengine_ray.stages.dedup import snapshot_diff

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    old = ds.map_batches(lambda df: df[df["doc_id"] % 7 != 0],
                         batch_format="pandas")

    def derive_new(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        keep = ids % 7 != 3
        return pd.DataFrame({
            "doc_id": ids[keep],
            "text": np.where(ids[keep] % 7 == 5,
                             df["text"].to_numpy()[keep] + " refreshed",
                             df["text"].to_numpy()[keep])})

    new = ds.map_batches(derive_new, batch_format="pandas")

    # O(changes) by the incremental contract — same bound merge_index
    # itself enforces on the delta-id broadcast (max_delta_ids)
    diff = snapshot_diff(old, new).to_pandas()
    upd = np.sort(diff.loc[diff["status"] != "removed",
                           "doc_id"].to_numpy(np.int64))
    removed = np.sort(diff.loc[diff["status"] == "removed",
                               "doc_id"].to_numpy(np.int64))
    upd_ref = ray.put(upd)

    def pick_updated(df: pd.DataFrame) -> pd.DataFrame:
        ids = ray.get(upd_ref)  # sorted; plasma-local after first touch
        return df[np.isin(df["doc_id"].to_numpy(np.int64), ids)]

    removal_rows = rd.from_pandas(pd.DataFrame({
        "doc_id": removed,
        "text": np.full(len(removed), "", dtype=object)}))
    delta = new.map_batches(pick_updated,
                            batch_format="pandas").union(removal_rows)

    scratch = tempfile.mkdtemp(prefix="graft_corpus_refresh_")
    write_index(build_postings(old, mode="simple"), scratch)
    merge_index(scratch, delta, mode="simple")

    def project(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype(np.int64),
            "token": df["token"],
            "tf": df["tf"].round(6),
            "tf_idf": df["tf_idf"].round(6)})

    return load_postings(scratch).map_batches(project,
                                              batch_format="pandas")


SQL_CORPUS_REFRESH = """
WITH corpus AS (
  SELECT doc_id,
         CASE WHEN doc_id % 7 = 5 THEN text || ' refreshed'
              ELSE text END AS text
  FROM documents WHERE doc_id % 7 <> 3),
toks AS (SELECT doc_id,
                unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+'))
                  AS token
         FROM corpus),
toks2 AS (SELECT * FROM toks WHERE token <> ''),
doc_len AS (SELECT doc_id, count(*) AS n FROM toks2 GROUP BY doc_id),
tc AS (SELECT doc_id, token, count(*) AS cnt FROM toks2
       GROUP BY doc_id, token),
dfreq AS (SELECT token, count(DISTINCT doc_id) AS df FROM toks2
          GROUP BY token),
n_docs AS (SELECT count(DISTINCT doc_id) AS n FROM toks2)
SELECT tc.doc_id, tc.token,
       round(CAST(tc.cnt AS DOUBLE) / doc_len.n, 6) AS tf,
       round((CAST(tc.cnt AS DOUBLE) / doc_len.n)
             * ln(CAST(n_docs.n AS DOUBLE) / dfreq.df), 6) AS tf_idf
FROM tc JOIN doc_len USING (doc_id) JOIN dfreq USING (token), n_docs
"""


def q_lm_perplexity(sf_dir: str):
    """CCNet-style quality scoring (Wenzek et al. 2020): train an
    add-one-smoothed bigram LM on a small reference split (doc_id % 5 == 0
    — the bounded 'Wikipedia' side of the CCNet design), broadcast it
    once, score every corpus doc map-only with vectorized searchsorted
    count probes.  Output: per-doc negative mean bigram log-likelihood
    (log-perplexity) — the signal CCNet buckets the crawl by."""
    from searchengine_ray.stages.lm import lm_perplexity, train_bigram_lm

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    train = ds.map_batches(lambda df: df[df["doc_id"] % 5 == 0],
                           batch_format="pandas")
    model = train_bigram_lm(train)
    return lm_perplexity(ds, model)


SQL_LM_PERPLEXITY = """
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     t -> t <> '') AS ts
  FROM documents),
train AS (SELECT * FROM toks WHERE doc_id % 5 = 0),
uni AS (SELECT tok, count(*) AS c
        FROM (SELECT unnest(ts) AS tok FROM train) GROUP BY tok),
bg AS (SELECT prev, cur, count(*) AS c
       FROM (SELECT unnest(ts[1:len(ts)-1]) AS prev,
                    unnest(ts[2:len(ts)]) AS cur
             FROM train WHERE len(ts) >= 2)
       GROUP BY prev, cur),
v AS (SELECT count(*) + 1 AS vsz FROM uni),
sbg AS (SELECT doc_id,
               unnest(ts[1:len(ts)-1]) AS prev,
               unnest(ts[2:len(ts)]) AS cur
        FROM toks WHERE len(ts) >= 2)
SELECT s.doc_id,
       CAST(count(*) AS BIGINT) AS n_bigrams,
       round(-avg(ln((coalesce(bg.c, 0) + 1.0)
                     / (coalesce(uni.c, 0) + v.vsz))), 6) AS logppl
FROM sbg s
LEFT JOIN bg ON s.prev = bg.prev AND s.cur = bg.cur
LEFT JOIN uni ON s.prev = uni.tok
CROSS JOIN v
GROUP BY s.doc_id
"""


def q_lm_quality_buckets(sf_dir: str):
    """The CCNet OUTPUT step (Wenzek et al. 2020 §4.3): bucket the corpus
    into head/middle/tail by the corpus-wide log-perplexity TERCILES.
    Composes ``lm_perplexity`` (map-only scoring) with two
    ``exact_global_quantile`` passes (O(bins) driver state each); the
    bucket assignment itself is map-only against two broadcast scalars.
    Threshold comparisons are fp-safe: an interpolated tercile either
    equals a data value exactly (frac=0 / tie plateau) or lies strictly
    between two adjacent data values, so no doc sits on the boundary."""
    from searchengine_ray.stages.lm import lm_perplexity, train_bigram_lm
    from searchengine_ray.stages.sketches import exact_global_quantile

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    train = ds.map_batches(lambda df: df[df["doc_id"] % 5 == 0],
                           batch_format="pandas")
    model = train_bigram_lm(train)
    scored = lm_perplexity(ds, model).materialize()  # consumed 3×
    t1 = exact_global_quantile(scored, "logppl", 1 / 3)
    t2 = exact_global_quantile(scored, "logppl", 2 / 3)

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        v = df["logppl"].to_numpy(np.float64)
        b = np.where(v <= t1, "head",
                     np.where(v <= t2, "middle", "tail"))
        return pd.DataFrame({"doc_id": df["doc_id"].astype(np.int64),
                             "logppl": v, "bucket": b})

    return scored.map_batches(bucket, batch_format="pandas")


SQL_LM_QUALITY_BUCKETS = """
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     t -> t <> '') AS ts
  FROM documents),
train AS (SELECT * FROM toks WHERE doc_id % 5 = 0),
uni AS (SELECT tok, count(*) AS c
        FROM (SELECT unnest(ts) AS tok FROM train) GROUP BY tok),
bg AS (SELECT prev, cur, count(*) AS c
       FROM (SELECT unnest(ts[1:len(ts)-1]) AS prev,
                    unnest(ts[2:len(ts)]) AS cur
             FROM train WHERE len(ts) >= 2)
       GROUP BY prev, cur),
v AS (SELECT count(*) + 1 AS vsz FROM uni),
sbg AS (SELECT doc_id,
               unnest(ts[1:len(ts)-1]) AS prev,
               unnest(ts[2:len(ts)]) AS cur
        FROM toks WHERE len(ts) >= 2),
scored AS (
  SELECT s.doc_id,
         round(-avg(ln((coalesce(bg.c, 0) + 1.0)
                       / (coalesce(uni.c, 0) + v.vsz))), 6) AS logppl
  FROM sbg s
  LEFT JOIN bg ON s.prev = bg.prev AND s.cur = bg.cur
  LEFT JOIN uni ON s.prev = uni.tok
  CROSS JOIN v
  GROUP BY s.doc_id),
th AS (SELECT quantile_cont(logppl, 1.0/3) AS t1,
              quantile_cont(logppl, 2.0/3) AS t2 FROM scored)
SELECT doc_id, logppl,
       CASE WHEN logppl <= th.t1 THEN 'head'
            WHEN logppl <= th.t2 THEN 'middle'
            ELSE 'tail' END AS bucket
FROM scored, th
"""


def q_event_value_bands(sf_dir: str):
    """Range-containment dimension join (the IP-geo / price-band lookup):
    attach each event's value band from a small half-open interval table
    via `relational.broadcast_interval_join` — one broadcast + one
    vectorized searchsorted per batch, zero shuffles.  The top band stops
    at 400, so higher-valued events fall outside every interval and the
    inner join drops them (mirrored by the SQL inner range join)."""
    from searchengine_ray.stages.relational import broadcast_interval_join

    bands = pd.DataFrame({
        "lo": [0.0, 5.0, 50.0, 200.0],
        "hi": [5.0, 50.0, 200.0, 400.0],
        "band": ["nano", "small", "mid", "large"]})
    ds = _pq(sf_dir, "events", columns=["event_id", "value"])
    return broadcast_interval_join(ds, bands, "value", how="inner")


SQL_EVENT_VALUE_BANDS = """
WITH bands(lo, hi, band) AS (VALUES
  (0.0, 5.0, 'nano'), (5.0, 50.0, 'small'),
  (50.0, 200.0, 'mid'), (200.0, 400.0, 'large'))
SELECT e.event_id, e.value, b.band
FROM events e JOIN bands b ON e.value >= b.lo AND e.value < b.hi
"""


def q_domain_quality_filter(sf_dir: str):
    """Domain-level aggregate gate (the RefinedWeb/C4 move: score the
    DOMAIN, drop all its docs): per-source mean token count + doc count
    via one ``pre_aggregate`` (the verdict table is O(domains) — tiny),
    predicate on the driver, surviving domains broadcast back as a
    ``broadcast_semi_filter`` — the big side never shuffles.  Avg
    comparisons are fp-exact (integer token sums / int counts)."""
    from searchengine_ray.stages.relational import (broadcast_semi_filter,
                                                    pre_aggregate)
    from searchengine_ray.stages.text import simple_tokens

    ds = _pq(sf_dir, "documents", columns=["doc_id", "source", "text"])

    def toks(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "source": df["source"],
            "n_tokens": np.fromiter(
                (len(simple_tokens(t or "")) for t in df["text"]),
                dtype=np.int64, count=len(df))})

    agg = pre_aggregate(ds.map_batches(toks, batch_format="pandas"),
                        ["source"],
                        {"n_docs": (None, "count"),
                         "tok_sum": ("n_tokens", "sum")}).to_pandas()
    ok = agg[(agg["tok_sum"] / agg["n_docs"] >= 52.0)
             & (agg["n_docs"] >= 10)]
    keep = set(ok["source"])
    out = broadcast_semi_filter(ds.select_columns(["doc_id", "source"]),
                                keep, "source")
    return out.map_batches(
        lambda df: pd.DataFrame({"doc_id": df["doc_id"].astype(np.int64),
                                 "source": df["source"]}),
        batch_format="pandas")


SQL_DOMAIN_QUALITY_FILTER = """
WITH per_doc AS (
  SELECT doc_id, source,
         len(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                         t -> t <> '')) AS n_tokens
  FROM documents),
verdict AS (
  SELECT source
  FROM per_doc
  GROUP BY source
  HAVING CAST(sum(n_tokens) AS DOUBLE) / count(*) >= 52.0
     AND count(*) >= 10)
SELECT d.doc_id, d.source
FROM documents d JOIN verdict USING (source)
"""


# --- 29a. per-source boilerplate removal (stages/boilerplate.py) -------------

_B_HEADER = " home nav about contact search login help"
_B_MID = " promo banner subscribe newsletter deal offer click"
_B_RARE = " rare notice special announce once seldom never"


def _boiler_augmented(sf_dir: str):
    """``documents`` with deterministic per-source site furniture planted
    (the fixture for the boilerplate detector): every doc gets an 8-token
    per-source header line; ~60% also a promo line (crosses the
    ≥-half-the-source threshold); ~20% a rare line (stays below).  The
    60/20 split keys on a multiplicative mix of doc_id, NOT doc_id%k —
    the testdata assigns source = doc_id % n_sources, so any plain
    modulus plant is perfectly correlated with source (measured: the
    'rare' line hit df=100% inside some sources).  Pure vectorized map;
    the oracle SQL mirrors the concatenation with ``concat_ws``."""
    ds = _pq(sf_dir, "documents", columns=["doc_id", "source", "text"])

    def aug(df: pd.DataFrame) -> pd.DataFrame:
        src = df["source"].astype(str)
        did = df["doc_id"].to_numpy(np.int64)
        mix = (did * 2654435761) % 100  # Knuth mult; < 2^63 for any doc_id
        t = src + _B_HEADER
        m = mix < 60
        r = mix >= 80
        t = t.where(~m, t + " " + src + _B_MID)
        t = t.where(~r, t + " " + src + _B_RARE)
        return pd.DataFrame({"doc_id": did, "source": df["source"],
                             "text": t + " " + df["text"].astype(str)})

    return ds.map_batches(aug, batch_format="pandas")


def q_remove_boilerplate(sf_dir: str):
    """Per-source boilerplate strip (RefinedWeb/CCNet site-furniture
    removal): detect the lines appearing in ≥ half of a source's docs
    (one map + ONE pre-aggregate all-to-all; the qualifying set is
    provably ≤ ~2·lines/doc per source), broadcast the key set, strip
    map-only.  Documents never shuffle; the corpus is read twice (detect
    pass, strip pass) — by design, the detect output is O(sources), not
    a materialization of the input.  Output: per doc, line counts before
    and after + the exact cleaned-text length."""
    import ray

    from searchengine_ray.stages.boilerplate import (detect_boilerplate,
                                                     remove_boilerplate)

    aug = _boiler_augmented(sf_dir)
    keys = detect_boilerplate(aug)
    out = remove_boilerplate(aug, ray.put(keys))
    return out.sort("doc_id")


# Mirrors the engine exactly: same planted concatenation, same fixed
# 8-token line segmentation from position 0 (list slicing), same integer
# threshold 2*df >= docs_in_source AND df >= 2, and clean_n_chars =
# len(kept lines joined by ' ') via string_agg ordered by line position.
SQL_REMOVE_BOILERPLATE = """
WITH aug AS (
  SELECT doc_id, source,
         concat_ws(' ',
           source || ' home nav about contact search login help',
           CASE WHEN (doc_id * 2654435761) % 100 < 60
                THEN source || ' promo banner subscribe newsletter deal offer click' END,
           CASE WHEN (doc_id * 2654435761) % 100 >= 80
                THEN source || ' rare notice special announce once seldom never' END,
           text) AS t
  FROM documents),
tok AS (SELECT doc_id, source, string_split(t, ' ') AS l FROM aug),
lines AS (
  SELECT doc_id, source, r.i AS line_id,
         array_to_string(l[(r.i*8+1):(r.i*8+8)], ' ') AS line
  FROM tok, LATERAL (
    SELECT unnest(range(CAST(ceil(len(l)/8.0) AS BIGINT)))) AS r(i)),
totals AS (SELECT source, count(*) AS d FROM documents GROUP BY source),
freq AS (SELECT source, line, count(DISTINCT doc_id) AS df
         FROM lines GROUP BY source, line),
boiler AS (SELECT f.source, f.line
           FROM freq f JOIN totals USING (source)
           WHERE 2 * f.df >= d AND f.df >= 2),
kept AS (SELECT l.doc_id, l.line_id, l.line,
                (b.line IS NOT NULL) AS is_boiler
         FROM lines l LEFT JOIN boiler b
           ON l.source = b.source AND l.line = b.line)
SELECT doc_id,
       count(*) AS n_lines,
       coalesce(count(*) FILTER (WHERE NOT is_boiler), 0) AS n_kept,
       coalesce(length(string_agg(line, ' ' ORDER BY line_id)
                       FILTER (WHERE NOT is_boiler)), 0) AS clean_n_chars
FROM kept GROUP BY doc_id ORDER BY doc_id
"""


# --- 29b. seeded deterministic global shuffle (epoch ordering) ---------------


def q_global_shuffle(sf_dir: str):
    """Deterministic seeded global shuffle — the training-data epoch
    ordering op: ``pos(doc) = global rank of sha256(doc_id:salt)`` (ties
    by doc_id).  NOT ``ds.random_shuffle()`` (non-deterministic, not
    resumable) and NOT a global ``sort`` (range-partition exchange +
    driver-side block bookkeeping): the rank is VALUE-BASED — per
    hash-PREFIX-group counts from one ``pre_aggregate`` (256 rows —
    driver-tiny at any corpus size), exclusive prefix sum broadcast, then
    ONE co-shuffle by prefix group with a single vectorized sort+cumcount
    kernel per bucket.  Stable under re-runs and re-partitioning; new salt
    = new epoch permutation.  Same shape as the crawl's distributed FIFO
    seq assignment (crawl.py `_append_frontier_distributed`)."""
    from searchengine_ray.stages.relational import (bucketed_apply,
                                                    pre_aggregate)
    from searchengine_ray.stages.sampling import hash_hex

    ds = _pq(sf_dir, "documents", columns=["doc_id"])

    def key(df: pd.DataFrame) -> pd.DataFrame:
        k = hash_hex(df["doc_id"].tolist(), "epoch0")
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(np.int64), "k": k,
            "g": np.fromiter((s[:2] for s in k), "<U2", count=len(k))})

    # two consumers (group counts + rank pass) — materialize the keyed
    # projection once (doc_id + 14 hash chars/row), not the input table
    keyed = ds.map_batches(key, batch_format="pandas").materialize()
    per_g = pre_aggregate(keyed.select_columns(["g"]), ["g"],
                          {"n": (None, "count")}).to_pandas()
    per_g = per_g.sort_values("g")  # lexicographic group order = key order
    offsets = np.zeros(len(per_g), dtype=np.int64)
    np.cumsum(per_g["n"].to_numpy()[:-1], out=offsets[1:])
    off = dict(zip(per_g["g"], offsets))

    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["g", "k", "doc_id"], kind="mergesort")
        r = g.groupby("g", sort=False).cumcount().to_numpy(np.int64)
        base = g["g"].map(off).to_numpy(np.int64)
        return pd.DataFrame({"doc_id": g["doc_id"].to_numpy(np.int64),
                             "pos": base + r})

    return bucketed_apply(keyed, ["g"], rank_bucket)


SQL_GLOBAL_SHUFFLE = """
SELECT doc_id,
       row_number() OVER (
         ORDER BY substr(sha256(CAST(doc_id AS VARCHAR) || ':epoch0'), 1, 12),
                  doc_id) - 1 AS pos
FROM documents
"""


# --- 30. BM25 ranked retrieval (pipelines/search.bm25_search) ---------------


def q_bm25_search(sf_dir: str):
    """BM25 top-10 for the shared query terms — ranked retrieval with
    length normalization + saturating tf (the probabilistic upgrade of the
    reference's tf-idf-sum scoring, retrieve_query.py:134-142)."""
    from searchengine_ray.pipelines.search import bm25_search

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    return bm25_search(ds, ["fast", "merge", "join"], k=10)


# Lucene-form BM25 (k1=1.2, b=0.75): idf = ln(1 + (N-df+0.5)/(df+0.5)),
# avgdl over token-bearing docs; per-term scores round to 6 before the
# per-doc sum (exactly as the engine does).
SQL_BM25_SEARCH = """
WITH toks AS (
  SELECT doc_id,
         unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS token
  FROM documents),
toks2 AS (SELECT * FROM toks WHERE token <> ''),
doc_len AS (SELECT doc_id, count(*) AS n FROM toks2 GROUP BY doc_id),
stats AS (SELECT avg(n) AS avgdl FROM doc_len),
n_docs AS (SELECT count(*) AS n FROM documents),
tc AS (SELECT doc_id, token, count(*) AS cnt FROM toks2
       WHERE token IN ('fast', 'merge', 'join') GROUP BY doc_id, token),
dfreq AS (SELECT token, count(*) AS df FROM tc GROUP BY token),
p AS (SELECT tc.doc_id,
             round(ln(1.0 + (n_docs.n - dfreq.df + 0.5) / (dfreq.df + 0.5))
                   * (tc.cnt * 2.2)
                   / (tc.cnt + 1.2 * (0.25 + 0.75 * doc_len.n / stats.avgdl)),
                   6) AS sc
      FROM tc JOIN dfreq USING (token) JOIN doc_len USING (doc_id),
           n_docs, stats)
SELECT doc_id, round(sum(sc), 6) AS score
FROM p GROUP BY doc_id
ORDER BY score DESC, doc_id LIMIT 10
"""


# --- 30a2. BM25 served FROM the compressed persisted index -------------------

def q_bm25_compressed(sf_dir: str):
    """The same BM25 top-10 as ``bm25_search`` — but served from the
    PERSISTED compressed index instead of re-scanning the corpus: build
    the (token, block) gap+tf+norm varint layout once
    (``encode_postings_tf``, chunk_size=64 so multi-block lists are
    actually exercised at test scale), then the probe reads ONLY the
    query terms' rows via parquet filter pushdown, decodes map-only and
    scores.  Gated by the SAME SQL oracle as ``bm25_search`` — a wrong
    gap restart, tf byte or inline norm anywhere in the codec changes a
    score and breaks the hash.  This is the retrieval story the codec
    exists for: query cost is O(probed postings), never O(corpus)."""
    import tempfile

    import pyarrow.dataset as pads

    from searchengine_ray.pipelines.search import BM25_B, BM25_K1
    from searchengine_ray.stages.postings_codec import (
        decode_postings_tf, encode_postings_tf)
    from searchengine_ray.stages.relational import global_topk

    terms = ["fast", "merge", "join"]
    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    n_total = ds.count()
    tc = text_stage.doc_term_counts(ds, mode="simple").materialize()

    scratch = tempfile.mkdtemp(prefix="graft_bm25_idx_")
    encode_postings_tf(tc, chunk_size=64).write_parquet(scratch)

    # corpus stats sidecar: avgdl over token-bearing docs (per-batch
    # scalar partials — the driver sees one row per batch)
    dl = pre_aggregate(tc, ["doc_id"], {"doc_len": ("doc_len", "max")})
    st = dl.map_batches(
        lambda df: pd.DataFrame({"n": [len(df)],
                                 "s": [int(df["doc_len"].sum())]}),
        batch_format="pandas").to_pandas().sum()
    avgdl = float(st["s"]) / float(st["n"])

    # probe: only the query terms' blob rows leave storage
    idx = rd.read_parquet(scratch, filter=pads.field("token").isin(terms))
    posts = decode_postings_tf(idx).materialize()
    dfreq = pre_aggregate(posts, ["token"],
                          {"df": (None, "count")}).to_pandas()
    idf = {t: float(np.log(1.0 + (n_total - d + 0.5) / (d + 0.5)))
           for t, d in zip(dfreq["token"], dfreq["df"])}

    def score_rows(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64),
                                 "sc": pd.Series([], dtype=np.float64)})
        iv = df["token"].map(idf).to_numpy(dtype=np.float64)
        cnt = df["cnt"].to_numpy(dtype=np.float64)
        dln = df["doc_len"].to_numpy(dtype=np.float64)
        sc = iv * (cnt * (BM25_K1 + 1.0)) \
            / (cnt + BM25_K1 * (1.0 - BM25_B + BM25_B * dln / avgdl))
        return pd.DataFrame({"doc_id": df["doc_id"].to_numpy(np.int64),
                             "sc": np.round(sc, 6)})

    scored = pre_aggregate(
        posts.map_batches(score_rows, batch_format="pandas"),
        ["doc_id"], {"score": ("sc", "sum")})
    out = global_topk(scored.map_batches(
        lambda df: df.assign(score=df["score"].round(6)),
        batch_format="pandas"), ["score", "doc_id"], [False, True], 10)
    out["doc_id"] = out["doc_id"].astype(np.int64)
    return out.reset_index(drop=True)


# --- 30b. hybrid retrieval: BM25 + dense kNN fused by RRF -------------------


def q_hybrid_search(sf_dir: str):
    """Hybrid sparse+dense retrieval with reciprocal-rank fusion (Cormack
    et al. 2009) — the modern two-tower search shape the reference's
    tf-idf-only path (retrieve_query.py:134-142) has no answer to: BM25
    top-100 over the raw corpus fused with cosine-kNN top-100 against the
    doc-0 embedding (vec_id ≡ doc_id in the corpus), rrf = Σ 1/(60+rank).

    Both retrievers are the existing corpus-scaled operators (three
    streaming passes for BM25, one two-level top-k pass for kNN); fusion is
    O(candidates) driver arithmetic on the two bounded top-100 lists.  The
    dense list over-fetches 3× then re-ranks on (rounded cosine, id) so the
    candidate SET matches the oracle on rounded-value boundary ties (the
    q_knn_bruteforce discipline)."""
    import pyarrow.parquet as pq

    from searchengine_ray.pipelines.search import bm25_search, rrf_fuse

    docs = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    sparse = bm25_search(docs, ["fast", "merge", "join"], k=100)

    emb = _pq(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qt = pq.read_table(f"{sf_dir}/embeddings.parquet",
                       columns=["vec_id", "embedding"],
                       filters=[("vec_id", "==", 0)])
    qv = np.asarray(qt["embedding"].to_pylist()[0], dtype=np.float64)
    dense = knn_stage.knn_bruteforce(emb, qv, k=300)
    dense["cosine"] = dense["cosine"].round(6)
    dense = (dense.sort_values(["cosine", "vec_id"], ascending=[False, True])
             .head(100).rename(columns={"vec_id": "doc_id"}))
    return rrf_fuse({"sparse": sparse, "dense": dense}, k=10)


# The two candidate CTEs are the bm25_search and knn SQL mirrors verbatim
# (rounded score / cosine, id tiebreak, top-100); rrf and the rank-0
# sentinel mirror rrf_fuse exactly.
SQL_HYBRID_SEARCH = """
WITH toks AS (
  SELECT doc_id,
         unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS token
  FROM documents),
toks2 AS (SELECT * FROM toks WHERE token <> ''),
doc_len AS (SELECT doc_id, count(*) AS n FROM toks2 GROUP BY doc_id),
stats AS (SELECT avg(n) AS avgdl FROM doc_len),
n_docs AS (SELECT count(*) AS n FROM documents),
tc AS (SELECT doc_id, token, count(*) AS cnt FROM toks2
       WHERE token IN ('fast', 'merge', 'join') GROUP BY doc_id, token),
dfreq AS (SELECT token, count(*) AS df FROM tc GROUP BY token),
p AS (SELECT tc.doc_id,
             round(ln(1.0 + (n_docs.n - dfreq.df + 0.5) / (dfreq.df + 0.5))
                   * (tc.cnt * 2.2)
                   / (tc.cnt + 1.2 * (0.25 + 0.75 * doc_len.n / stats.avgdl)),
                   6) AS sc
      FROM tc JOIN dfreq USING (token) JOIN doc_len USING (doc_id),
           n_docs, stats),
bm AS (SELECT doc_id, round(sum(sc), 6) AS score FROM p GROUP BY doc_id),
sr AS (SELECT doc_id, row_number() OVER (ORDER BY score DESC, doc_id) AS r
       FROM bm QUALIFY r <= 100),
q AS (SELECT embedding AS qe FROM embeddings WHERE vec_id = 0),
dn AS (SELECT vec_id AS doc_id,
              round(list_cosine_similarity(CAST(embedding AS DOUBLE[]),
                                           CAST(qe AS DOUBLE[])), 6) AS cos
       FROM embeddings, q),
dr AS (SELECT doc_id, row_number() OVER (ORDER BY cos DESC, doc_id) AS r
       FROM dn QUALIFY r <= 100)
SELECT coalesce(sr.doc_id, dr.doc_id) AS doc_id,
       coalesce(sr.r, 0) AS sparse_rank,
       coalesce(dr.r, 0) AS dense_rank,
       round(coalesce(1.0 / (60 + sr.r), 0)
             + coalesce(1.0 / (60 + dr.r), 0), 6) AS rrf
FROM sr FULL OUTER JOIN dr ON sr.doc_id = dr.doc_id
ORDER BY rrf DESC, doc_id LIMIT 10
"""


# --- 31. product-quantized ANN (stages/knn.py PQ / ADC path) ----------------


def q_knn_pq(sf_dir: str):
    """PQ-compressed ANN, exactness-gated: codebooks train on a capped
    sample, the corpus encodes to m=8 uint8 codes/vector (32× smaller than
    64×float32), the ADC scan + exact re-rank answers the same three
    queries as ``knn_multi``.  Gated at ``refine=None`` (re-rank all rows ⇒
    output must equal the brute-force oracle exactly — the ``knn_ivf
    nprobe=nlist`` discipline); the approximate small-``refine`` recall is
    pytest-gated (tests/test_knn.py)."""
    import pyarrow.parquet as pq

    qt = pq.read_table(f"{sf_dir}/embeddings.parquet",
                       columns=["vec_id", "embedding"],
                       filters=[("vec_id", "in", [0, 1, 2])])
    queries = pd.DataFrame({"query_id": qt["vec_id"].to_numpy(),
                            "vec": qt["embedding"].to_pylist()})
    ds = _pq(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    books = knn_stage.train_pq(ds, m=8, ksub=64)
    out = knn_stage.knn_pq_multi(ds, queries, books, k=50, refine=None)
    out["cosine"] = out["cosine"].round(6)
    return (out.sort_values(["query_id", "cosine", "vec_id"],
                            ascending=[True, False, True], kind="mergesort")
            .groupby("query_id", sort=False).head(10)
            .reset_index(drop=True))


# --- 31b. IVF-PQ composed index (stages/knn.py) ------------------------------


def q_knn_ivfpq(sf_dir: str):
    """PQ codes inside the persisted inverted-list layout: probe reads only
    the probed list directories and, for the ADC scan, only the uint8 code
    columns.  Exactness-gated at nprobe=nlist + refine=None (the same
    discipline as ``knn_ivf`` and ``knn_pq``); partial-probe recall is
    pytest-gated."""
    import tempfile

    import pyarrow.parquet as pq

    qt = pq.read_table(f"{sf_dir}/embeddings.parquet",
                       columns=["vec_id", "embedding"],
                       filters=[("vec_id", "in", [0, 1, 2])])
    queries = pd.DataFrame({"query_id": qt["vec_id"].to_numpy(),
                            "vec": qt["embedding"].to_pylist()})
    ds = _pq(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    with tempfile.TemporaryDirectory(prefix="sr_ivfpq_") as path:
        knn_stage.build_ivfpq_index(ds, path, num_centroids=16, m=8, ksub=64)
        out = knn_stage.ivfpq_probe(path, queries, k=50, nprobe=16,
                                    refine=None)
    out["cosine"] = out["cosine"].round(6)
    return (out.sort_values(["query_id", "cosine", "vec_id"],
                            ascending=[True, False, True], kind="mergesort")
            .groupby("query_id", sort=False).head(10)
            .reset_index(drop=True))


# --- 31c. PageRank over a deterministic link graph (stages/graph.py) --------


def q_pagerank(sf_dir: str):
    """3-iteration damped PageRank over a closed deterministic graph derived
    from doc ids (dst = (src·31 + j) mod N, j ∈ 1..3, self-loops dropped —
    31 is coprime to every sf's N, so each j-slice is a permutation and the
    graph stays closed: every node keeps out- and in-edges).  Per iteration:
    ONE hash_join co-shuffle + ONE pre_aggregate — the canonical iterative
    graph shape; the rank vector never leaves the cluster.  The oracle
    unrolls the same three iterations as nested CTEs."""
    from searchengine_ray.stages.graph import pagerank

    ds = _pq(sf_dir, "documents", columns=["doc_id"])
    n = ds.count()

    def explode_edges(df: pd.DataFrame) -> pd.DataFrame:
        src = np.repeat(df["doc_id"].to_numpy(np.int64), 3)
        j = np.tile(np.array([1, 2, 3], dtype=np.int64), len(df))
        dst = (src * 31 + j) % n
        keep = src != dst
        return pd.DataFrame({"src": src[keep], "dst": dst[keep]})

    edges = ds.map_batches(explode_edges, batch_format="pandas")
    return pagerank(edges, num_nodes=n, iters=3, damping=0.85)


# --- 31d. multi-source BFS hop distances (stages/graph.py) -------------------


def q_graph_bfs(sf_dir: str):
    """Hop distance from a seed set (crawl-depth labeling / link-distance
    features) over the same closed deterministic doc graph as
    ``pagerank``: seeds = doc_id % 97 == 0, 3 hops of frontier expansion
    — each round one map pass + one distinct ``pre_aggregate`` on the
    broadcast route (the O(V)-driver pagerank discipline; the
    distributed route is pinned identical by pytest).  The oracle
    unrolls the three levels and takes min(hop) per node — exactly
    first-reach BFS."""
    from searchengine_ray.stages.graph import multi_source_bfs

    ds = _pq(sf_dir, "documents", columns=["doc_id"])
    n = ds.count()

    def explode_edges(df: pd.DataFrame) -> pd.DataFrame:
        src = np.repeat(df["doc_id"].to_numpy(np.int64), 3)
        j = np.tile(np.array([1, 2, 3], dtype=np.int64), len(df))
        dst = (src * 31 + j) % n
        keep = src != dst
        return pd.DataFrame({"src": src[keep], "dst": dst[keep]})

    edges = ds.map_batches(explode_edges, batch_format="pandas")
    seeds = np.arange(0, n, 97, dtype=np.int64)
    return multi_source_bfs(edges, seeds, max_hops=3)


def q_graph_communities(sf_dir: str):
    """Community detection by deterministic synchronous label
    propagation (3 rounds, mode of in-neighbor labels, ties to the
    smallest label) over the deterministic doc graph — per round one
    broadcast label vector + one count ``pre_aggregate`` + one
    keep-best co-shuffle; the driver holds O(V) labels, never the O(E)
    count table.  See ``stages/graph.label_propagation``."""
    from searchengine_ray.stages.graph import label_propagation

    ds = _pq(sf_dir, "documents", columns=["doc_id"])
    n = ds.count()

    def explode_edges(df: pd.DataFrame) -> pd.DataFrame:
        src = np.repeat(df["doc_id"].to_numpy(np.int64), 3)
        j = np.tile(np.array([1, 2, 3], dtype=np.int64), len(df))
        dst = (src * 31 + j) % n
        keep = src != dst
        return pd.DataFrame({"src": src[keep], "dst": dst[keep]})

    edges = ds.map_batches(explode_edges, batch_format="pandas")
    return label_propagation(edges, num_nodes=n, rounds=3)


def _lpa_round(i: int) -> str:
    p = i - 1
    return f"""
c{i} AS (SELECT e.dst AS node, l{p}.lab, count(*) AS c
         FROM e JOIN l{p} ON l{p}.node = e.src GROUP BY e.dst, l{p}.lab),
u{i} AS (SELECT node, lab
         FROM (SELECT node, lab, row_number() OVER (
                   PARTITION BY node ORDER BY c DESC, lab) AS rn FROM c{i})
         WHERE rn = 1),
l{i} AS (SELECT l{p}.node, coalesce(u{i}.lab, l{p}.lab) AS lab
         FROM l{p} LEFT JOIN u{i} ON u{i}.node = l{p}.node)"""


SQL_GRAPH_COMMUNITIES = f"""
WITH n AS (SELECT count(*) AS n FROM documents),
e AS (SELECT doc_id AS src, (doc_id * 31 + j.j) % n.n AS dst
      FROM documents, n, (VALUES (1), (2), (3)) AS j(j)
      WHERE doc_id <> (doc_id * 31 + j.j) % n.n),
l0 AS (SELECT doc_id AS node, doc_id AS lab FROM documents),
{','.join(_lpa_round(i) for i in (1, 2, 3))}
SELECT node, lab AS community FROM l3
"""


def q_graph_features(sf_dir: str):
    """Two rounds of neighbor-mean message passing over the deterministic
    doc graph (GNN-style graph feature engineering): f1 = mean of
    in-neighbors' n_chars, f2 = mean of in-neighbors' f1 — per round one
    edge map pass + one (sum, count) ``pre_aggregate`` on the broadcast
    route (O(V) driver, the pagerank discipline; distributed route
    pinned identical by pytest)."""
    from searchengine_ray.stages.graph import neighborhood_aggregate

    docs = _pq(sf_dir, "documents", columns=["doc_id", "n_chars"])
    n = docs.count()

    def explode_edges(df: pd.DataFrame) -> pd.DataFrame:
        src = np.repeat(df["doc_id"].to_numpy(np.int64), 3)
        j = np.tile(np.array([1, 2, 3], dtype=np.int64), len(df))
        dst = (src * 31 + j) % n
        keep = src != dst
        return pd.DataFrame({"src": src[keep], "dst": dst[keep]})

    edges = docs.map_batches(explode_edges, batch_format="pandas")
    feats = docs.map_batches(
        lambda df: pd.DataFrame({
            "node": df["doc_id"].to_numpy(np.int64),
            "f": df["n_chars"].to_numpy(np.float64)}),
        batch_format="pandas")
    return neighborhood_aggregate(edges, feats, rounds=2)


SQL_GRAPH_FEATURES = """
WITH n AS (SELECT count(*) AS n FROM documents),
e AS (SELECT doc_id AS src, (doc_id * 31 + j.j) % n.n AS dst
      FROM documents, n, (VALUES (1), (2), (3)) AS j(j)
      WHERE doc_id <> (doc_id * 31 + j.j) % n.n),
f0 AS (SELECT doc_id AS node, CAST(n_chars AS DOUBLE) AS f FROM documents),
h1 AS (SELECT e.dst AS node, sum(f0.f) / count(*) AS f
       FROM e JOIN f0 ON f0.node = e.src GROUP BY e.dst),
h2 AS (SELECT e.dst AS node, sum(h1.f) / count(*) AS f
       FROM e JOIN h1 ON h1.node = e.src GROUP BY e.dst)
SELECT h1.node, round(h1.f, 6) AS f1, round(h2.f, 6) AS f2
FROM h1 JOIN h2 ON h2.node = h1.node
"""


SQL_GRAPH_BFS = """
WITH n AS (SELECT count(*) AS n FROM documents),
e AS (SELECT doc_id AS src, (doc_id * 31 + j.j) % n.n AS dst
      FROM documents, n, (VALUES (1), (2), (3)) AS j(j)
      WHERE doc_id <> (doc_id * 31 + j.j) % n.n),
h0 AS (SELECT doc_id AS node FROM documents WHERE doc_id % 97 = 0),
h1 AS (SELECT DISTINCT e.dst AS node FROM e JOIN h0 ON e.src = h0.node),
h2 AS (SELECT DISTINCT e.dst AS node FROM e JOIN h1 ON e.src = h1.node),
h3 AS (SELECT DISTINCT e.dst AS node FROM e JOIN h2 ON e.src = h2.node),
lv AS (SELECT node, 0 AS hop FROM h0
       UNION ALL SELECT node, 1 FROM h1
       UNION ALL SELECT node, 2 FROM h2
       UNION ALL SELECT node, 3 FROM h3)
SELECT node, CAST(min(hop) AS BIGINT) AS hop FROM lv GROUP BY node
"""


def q_decayed_engagement(sf_dir: str):
    """Time-decayed per-user engagement score — the feature-engineering
    staple (recency-weighted activity): score(u) = Σ value·exp(-age/τ)
    with τ = 7 days, age measured from the corpus max timestamp.  The
    decay term is per-row (map-only); the sum is ONE ``pre_aggregate``.
    Exactly additive, so Ray's partial combines are the whole story —
    no window, no sort.  Final scores round to 6 decimals so numpy-vs-
    DuckDB libm exp/sum ulps cannot flip the hash (sums are O(1e3) with
    O(1e2) terms; float error ~1e-13 vs the 5e-7 rounding margin)."""
    from searchengine_ray.stages.relational import pre_aggregate

    TAU_US = 7 * 86400 * 1_000_000  # 7 days in microseconds
    ds = _pq(sf_dir, "events", columns=["user_id", "ts", "value"])
    tmax = ds.max("ts")  # pandas Timestamp (μs)
    tmax_us = int(pd.Timestamp(tmax).value // 1000)  # ns → μs

    def term(df: pd.DataFrame) -> pd.DataFrame:
        age = tmax_us - df["ts"].astype("int64").to_numpy()
        w = df["value"].to_numpy(np.float64) * np.exp(-age / TAU_US)
        return pd.DataFrame({"user_id": df["user_id"].to_numpy(np.int64),
                             "w": w})

    agg = pre_aggregate(ds.map_batches(term, batch_format="pandas"),
                        ["user_id"], {"score": ("w", "sum")})
    return agg.map_batches(
        lambda df: pd.DataFrame({"user_id": df["user_id"],
                                 "score": np.round(df["score"], 6)}),
        batch_format="pandas")


# The persisted materialized-view scratch the refresh reads INSTEAD of
# re-scanning the base log — the incremental-maintenance contract.
_MV_SCRATCH = "/tmp/graft_scratch/mv_user_agg"


_EVOLVE_SCRATCH = "/tmp/graft_scratch/evolved_segments"


def q_schema_evolution(sf_dir: str):
    """Schema-on-read over two writer generations: v1 segments carry
    (doc_id, lang, n_chars), v2 segments added ``source`` and DROPPED
    ``n_chars`` — the reader declares the target schema and every
    segment conforms by name with typed defaults (n_chars → −1,
    source → 'unknown'), then one aggregate proves the unified read.
    Per-segment column pruning reads only what exists there; conform is
    map-only, the union shuffles nothing.  See ``sources/evolve.py``."""
    import shutil

    from searchengine_ray.sources.evolve import read_evolved

    ds = _pq(sf_dir, "documents",
             columns=["doc_id", "lang", "source", "n_chars"])
    shutil.rmtree(_EVOLVE_SCRATCH, ignore_errors=True)

    def v1(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["doc_id"] % 2 == 0]
        return d[["doc_id", "lang", "n_chars"]]

    def v2(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["doc_id"] % 2 == 1]
        return d[["doc_id", "lang", "source"]]

    ds.map_batches(v1, batch_format="pandas").write_parquet(
        f"{_EVOLVE_SCRATCH}/v1")
    ds.map_batches(v2, batch_format="pandas").write_parquet(
        f"{_EVOLVE_SCRATCH}/v2")

    unified = read_evolved(
        [f"{_EVOLVE_SCRATCH}/v1", f"{_EVOLVE_SCRATCH}/v2"],
        {"doc_id": (np.int64, 0), "lang": (None, ""),
         "n_chars": (np.int64, -1), "source": (None, "unknown")})
    agg = pre_aggregate(unified, ["lang", "source"],
                        {"n_docs": (None, "count"),
                         "sum_chars": ("n_chars", "sum")})

    def fix(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "lang": df["lang"], "source": df["source"],
            "n_docs": df["n_docs"].to_numpy(np.int64),
            "sum_chars": df["sum_chars"].to_numpy(np.int64)})

    return agg.map_batches(fix, batch_format="pandas")


SQL_SCHEMA_EVOLUTION = """
WITH unified AS (
  SELECT doc_id, lang, n_chars, 'unknown' AS source
  FROM documents WHERE doc_id % 2 = 0
  UNION ALL
  SELECT doc_id, lang, -1 AS n_chars, source
  FROM documents WHERE doc_id % 2 = 1)
SELECT lang, source, count(*) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS sum_chars
FROM unified GROUP BY lang, source
"""


def q_label_centroids(sf_dir: str):
    """Grouped VECTOR aggregation — per-label mean embedding (class
    centroids / prototype vectors for few-shot heads and centroid
    classifiers): each batch reduces to k_batch × d partial sums via d
    vectorized bincounts (the k-means moment kernel keyed by the LABEL
    column instead of the assignment), ONE ``pre_aggregate`` on
    (label, dim) is the only exchange, output long-form (label, dim,
    mean) so the oracle can unnest-mirror it."""
    from searchengine_ray.stages.kmeans import _emb_matrix_ws, _ws

    ds = _pq(sf_dir, "embeddings", columns=["label", "embedding"])
    first = ds.take_batch(1, batch_format="pyarrow")
    d = len(first["embedding"][0])

    def moments(t: pa.Table) -> pd.DataFrame:
        if not t.num_rows:
            return pd.DataFrame({"label": pd.Series([], dtype=np.int64),
                                 "dim": pd.Series([], dtype=np.int64),
                                 "s": pd.Series([], dtype=np.float64)})
        emb = _emb_matrix_ws(t["embedding"], "lc_emb")
        lab = t["label"].to_numpy().astype(np.int64, copy=False)
        uniq, inv = np.unique(lab, return_inverse=True)
        k = uniq.size
        sums = _ws("lc_sums", (k, d + 1))
        for j in range(d):
            sums[:, j] = np.bincount(inv, weights=emb[:, j], minlength=k)
        sums[:, d] = np.bincount(inv, minlength=k)
        return pd.DataFrame({
            "label": np.repeat(uniq, d + 1),
            "dim": np.tile(np.arange(d + 1, dtype=np.int64), k),
            "s": sums.ravel().copy()})

    agg = pre_aggregate(ds.map_batches(moments, batch_format="pyarrow"),
                        ["label", "dim"], {"s": ("s", "sum")}).to_pandas()
    wide = agg.pivot(index="label", columns="dim", values="s")
    n = wide[d].to_numpy(np.float64)
    rows = []
    for j in range(d):
        rows.append(pd.DataFrame({
            "label": wide.index.to_numpy(np.int64),
            "dim": np.int64(j),
            "mean": np.round(wide[j].to_numpy(np.float64) / n, 6)}))
    return pd.concat(rows, ignore_index=True)


SQL_LABEL_CENTROIDS = """
WITH u AS (SELECT label,
                  unnest(CAST(embedding AS DOUBLE[])) AS x,
                  unnest(range(0, len(embedding))) AS dim
           FROM embeddings)
SELECT CAST(label AS BIGINT) AS label, dim,
       round(sum(x) / count(*), 6) AS mean
FROM u GROUP BY label, dim
"""


def q_cusum_changepoint(sf_dir: str):
    """Per-user CUSUM change-point statistic (Page 1954 — the drift
    detector behind data-quality and metric-shift monitoring): S_i =
    running sum of (value − user mean) under (ts, event_id) order; the
    emitted statistic is the CUSUM range max(S) − min(S), which is ~0
    for stationary streams and grows linearly after a level shift.

    Shape: user means via ONE ``pre_aggregate`` (O(users), broadcast
    back); then ONE user co-shuffle whose bucket kernel is a composite
    sort + a single pandas grouped cumsum + grouped min/max — no
    per-user Python.  Round-6 absorbs windowed-sum association ulps."""
    import ray

    from searchengine_ray.stages.relational import (bucketed_apply,
                                                    pre_aggregate)

    ds = _pq(sf_dir, "events",
             columns=["event_id", "user_id", "ts", "value"])
    means = pre_aggregate(ds, ["user_id"],
                          {"s": ("value", "sum"),
                           "n": (None, "count")}).to_pandas()
    mu = (means.assign(mu=means["s"] / means["n"])
          .set_index("user_id")["mu"])
    mu_ref = ray.put(mu)

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({
                "user_id": pd.Series([], dtype=np.int64),
                "n_events": pd.Series([], dtype=np.int64),
                "cusum_range": pd.Series([], dtype=np.float64)})
        m = ray.get(mu_ref)
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        d = (g["value"].to_numpy(np.float64)
             - m.reindex(g["user_id"]).to_numpy(np.float64))
        s = pd.Series(d).groupby(
            g["user_id"].to_numpy(np.int64)).cumsum().to_numpy()
        agg = (pd.DataFrame({"u": g["user_id"].to_numpy(np.int64), "s": s})
               .groupby("u")["s"].agg(["max", "min", "size"]))
        rng = agg["max"].to_numpy() - agg["min"].to_numpy()
        # DuckDB round() is half-AWAY-from-zero; np.round is half-even, and
        # the range statistic can land exactly on a dyadic .5e-6 boundary
        # (measured: 387.3640625 at sf0.01 user 146) — shared helper
        return pd.DataFrame({
            "user_id": agg.index.to_numpy(np.int64),
            "n_events": agg["size"].to_numpy(np.int64),
            "cusum_range": round6_half_away(rng)})

    return bucketed_apply(ds, ["user_id"], kernel)


SQL_CUSUM_CHANGEPOINT = """
WITH mu AS (SELECT user_id, sum(value) / count(*) AS m
            FROM events GROUP BY user_id),
s AS (SELECT e.user_id,
             sum(e.value - mu.m) OVER (PARTITION BY e.user_id
                                       ORDER BY e.ts, e.event_id
                                       ROWS UNBOUNDED PRECEDING) AS cs
      FROM events e JOIN mu ON mu.user_id = e.user_id)
SELECT user_id, CAST(count(*) AS BIGINT) AS n_events,
       round(max(cs) - min(cs), 6) AS cusum_range
FROM s GROUP BY user_id
"""


def q_ab_experiment(sf_dir: str):
    """A/B experiment readout (the analytics op behind every launch
    decision): arms = user_id % 2, per event_type the Welch t statistic
    of value between arms from the five ALGEBRAIC moments
    (n, Σx, Σx²) per (type, arm) — ONE ``pre_aggregate`` is the only
    corpus exchange (O(types × 2) driver rows), the t-formula is driver
    arithmetic in the exact operation order the oracle mirrors
    (m = s/n; var = (ss − s·s/n)/(n−1); t = (m₁−m₀)/√(v₁/n₁+v₀/n₀)),
    rounded 6 so partial-sum association noise (~1e-10) cannot flip the
    hash."""
    ds = _pq(sf_dir, "events", columns=["user_id", "event_type", "value"])

    def arm(df: pd.DataFrame) -> pd.DataFrame:
        v = df["value"].to_numpy(np.float64)
        return pd.DataFrame({"event_type": df["event_type"],
                             "arm": df["user_id"].to_numpy(np.int64) % 2,
                             "v": v, "v2": v * v})

    agg = pre_aggregate(ds.map_batches(arm, batch_format="pandas"),
                        ["event_type", "arm"],
                        {"n": (None, "count"), "s": ("v", "sum"),
                         "ss": ("v2", "sum")}).to_pandas()
    a = agg[agg["arm"] == 0].set_index("event_type")
    b = agg[agg["arm"] == 1].set_index("event_type")
    types = sorted(set(a.index) & set(b.index))
    rows = []
    for t in types:
        na, nb = float(a.loc[t, "n"]), float(b.loc[t, "n"])
        ma, mb = a.loc[t, "s"] / na, b.loc[t, "s"] / nb
        va = (a.loc[t, "ss"] - a.loc[t, "s"] * a.loc[t, "s"] / na) / (na - 1)
        vb = (b.loc[t, "ss"] - b.loc[t, "s"] * b.loc[t, "s"] / nb) / (nb - 1)
        tstat = (mb - ma) / np.sqrt(va / na + vb / nb)
        # half-away rule (shared helper): mean_diff/t_stat are signed and can
        # in principle land on a dyadic .5e-6 boundary where Python round()
        # (half-even) and the oracle's DuckDB round() (half-away) diverge
        rows.append((t, int(na), int(nb),
                     float(round6_half_away(mb - ma)),
                     float(round6_half_away(float(tstat)))))
    return pd.DataFrame(rows, columns=["event_type", "n_a", "n_b",
                                       "mean_diff", "t_stat"])


SQL_AB_EXPERIMENT = """
WITH m AS (SELECT event_type, user_id % 2 AS arm, count(*) AS n,
                  sum(value) AS s, sum(value * value) AS ss
           FROM events GROUP BY event_type, arm)
SELECT a.event_type, CAST(a.n AS BIGINT) AS n_a, CAST(b.n AS BIGINT) AS n_b,
       round(b.s / b.n - a.s / a.n, 6) AS mean_diff,
       round((b.s / b.n - a.s / a.n) /
             sqrt(((a.ss - a.s * a.s / a.n) / (a.n - 1)) / a.n
                  + ((b.ss - b.s * b.s / b.n) / (b.n - 1)) / b.n),
             6) AS t_stat
FROM m a JOIN m b ON a.event_type = b.event_type
WHERE a.arm = 0 AND b.arm = 1
"""


def q_target_encode(sf_dir: str):
    """Leakage-safe out-of-fold target encoding (the CatBoost/Kaggle
    feature-engineering staple): each row's category encodes as the mean
    target of the OTHER folds — te(c, k) = (S_c − S_{c,k})/(N_c −
    N_{c,k}) with fold = event_id % 5 — so a row never sees its own
    fold's target (the leakage the naive global mean commits).

    Scale shape: ONE ``pre_aggregate`` on (category, fold) is the only
    corpus exchange (O(cats × folds) driver rows); out-of-fold means
    derive on the driver and broadcast; the attach is MAP-ONLY.
    Categories confined to a single fold are dropped (no leakage-free
    encoding exists) — mirrored by the oracle's positive-denominator
    filter."""
    import ray

    ds = _pq(sf_dir, "events", columns=["event_id", "event_type", "value"])

    def with_fold(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": df["event_id"].to_numpy(np.int64),
            "event_type": df["event_type"],
            "fold": df["event_id"].to_numpy(np.int64) % 5,
            "value": df["value"].to_numpy(np.float64)})

    folded = ds.map_batches(with_fold, batch_format="pandas").materialize()
    cf = pre_aggregate(folded, ["event_type", "fold"],
                       {"s": ("value", "sum"),
                        "n": (None, "count")}).to_pandas()
    tot = cf.groupby("event_type", as_index=False).agg(
        ts=("s", "sum"), tn=("n", "sum"))
    cf = cf.merge(tot, on="event_type")
    cf["oof_n"] = cf["tn"] - cf["n"]
    cf = cf[cf["oof_n"] > 0]
    cf["te"] = np.round((cf["ts"] - cf["s"]) / cf["oof_n"], 6)
    lut = cf.set_index(["event_type", "fold"])["te"]
    lut_ref = ray.put(lut)

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        t = ray.get(lut_ref)
        idx = pd.MultiIndex.from_arrays([df["event_type"], df["fold"]])
        te = t.reindex(idx).to_numpy(np.float64)
        keep = ~np.isnan(te)
        return pd.DataFrame({
            "event_id": df["event_id"].to_numpy(np.int64)[keep],
            "event_type": df["event_type"].to_numpy()[keep],
            "fold": df["fold"].to_numpy(np.int64)[keep],
            "te": te[keep]})

    return folded.map_batches(attach, batch_format="pandas")


SQL_TARGET_ENCODE = """
WITH f AS (SELECT event_id, event_type, event_id % 5 AS fold, value
           FROM events),
cf AS (SELECT event_type, fold, sum(value) AS s, count(*) AS n
       FROM f GROUP BY event_type, fold),
tot AS (SELECT event_type, sum(s) AS ts, sum(n) AS tn
        FROM cf GROUP BY event_type),
te AS (SELECT cf.event_type, cf.fold,
              round((tot.ts - cf.s) / (tot.tn - cf.n), 6) AS te
       FROM cf JOIN tot ON tot.event_type = cf.event_type
       WHERE tot.tn - cf.n > 0)
SELECT f.event_id, f.event_type, f.fold, te.te
FROM f JOIN te ON te.event_type = f.event_type AND te.fold = f.fold
"""


_TS_CODEC_SCRATCH = "/tmp/graft_scratch/ts_blocks"


def q_ts_codec(sf_dir: str):
    """Delta-of-delta timestamp compression (the Gorilla/Prometheus TSDB
    layout): every user's event timestamps encode into one zigzag-varint
    ΔΔ blob (ONE key co-shuffle, vectorized byte-plane kernel per
    bucket), persist to parquet, then the aggregates are computed FROM
    the decoded bytes — the compact/zorder end-to-end proof: one wrong
    zigzag bit, header, or cumsum restart flips min/max/sum against the
    oracle's direct read of the raw table."""
    import shutil

    from searchengine_ray.stages.tseries import (decode_ts_blocks,
                                                 encode_ts_blocks)

    ds = _pq(sf_dir, "events", columns=["user_id", "ts"])

    def to_us(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": df["user_id"].to_numpy(np.int64),
            "ts_us": df["ts"].astype("datetime64[us]").astype("int64")})

    blocks = encode_ts_blocks(ds.map_batches(to_us, batch_format="pandas"))
    shutil.rmtree(_TS_CODEC_SCRATCH, ignore_errors=True)
    blocks.write_parquet(_TS_CODEC_SCRATCH)
    decoded = decode_ts_blocks(rd.read_parquet(_TS_CODEC_SCRATCH))
    agg = pre_aggregate(decoded, ["key"],
                        {"n_events": (None, "count"),
                         "min_ts": ("ts_us", "min"),
                         "max_ts": ("ts_us", "max"),
                         "sum_ts": ("ts_us", "sum")})

    def fix(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "key": df["key"].to_numpy(np.int64),
            "n_events": df["n_events"].to_numpy(np.int64),
            "min_ts": df["min_ts"].to_numpy(np.int64),
            "max_ts": df["max_ts"].to_numpy(np.int64),
            "sum_ts": df["sum_ts"].to_numpy(np.int64)})

    return agg.map_batches(fix, batch_format="pandas")


SQL_TS_CODEC = """
SELECT user_id AS key, count(*) AS n_events,
       min(epoch_us(ts)) AS min_ts, max(epoch_us(ts)) AS max_ts,
       CAST(sum(epoch_us(ts)) AS BIGINT) AS sum_ts
FROM events GROUP BY user_id
"""


def q_mv_refresh(sf_dir: str):
    """Incremental materialized-view refresh (the lakehouse aggregate-
    maintenance op): a persisted per-user aggregate MV folds in a delta
    WITHOUT re-reading the base log — possible exactly because count/sum
    are MERGEABLE aggregates (the pre_aggregate partial algebra applied
    across job runs instead of across batches).  Here the base MV
    (events with event_id % 7 ≠ 0, "yesterday's job") persists to
    scratch; the refresh reads ONLY the O(users) MV + the delta slice,
    aggregates the delta, and merges with one O(users) ``pre_aggregate``
    over the union.  The oracle recomputes from the FULL log — equality
    IS the mergeability proof.  Sums round to 2 (the pricing_summary
    association-noise discipline)."""
    import shutil

    ds = _pq(sf_dir, "events", columns=["event_id", "user_id", "value"])

    def base_slice(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["event_id"] % 7 != 0]

    def delta_slice(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["event_id"] % 7 == 0]

    base_agg = pre_aggregate(
        ds.map_batches(base_slice, batch_format="pandas"),
        ["user_id"], {"n_events": (None, "count"),
                      "sum_value": ("value", "sum")})
    shutil.rmtree(_MV_SCRATCH, ignore_errors=True)
    base_agg.map_batches(
        lambda df: pd.DataFrame({
            "user_id": df["user_id"].to_numpy(np.int64),
            "n_events": df["n_events"].to_numpy(np.int64),
            "sum_value": df["sum_value"].to_numpy(np.float64)}),
        batch_format="pandas").write_parquet(_MV_SCRATCH)

    # --- the refresh: O(users) MV + delta only; base events never re-read
    mv = rd.read_parquet(_MV_SCRATCH)
    delta_agg = pre_aggregate(
        ds.map_batches(delta_slice, batch_format="pandas"),
        ["user_id"], {"n_events": (None, "count"),
                      "sum_value": ("value", "sum")})

    def norm(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": df["user_id"].to_numpy(np.int64),
            "n_events": df["n_events"].to_numpy(np.int64),
            "sum_value": df["sum_value"].to_numpy(np.float64)})

    merged = pre_aggregate(
        mv.map_batches(norm, batch_format="pandas")
        .union(delta_agg.map_batches(norm, batch_format="pandas")),
        ["user_id"], {"n_events": ("n_events", "sum"),
                      "sum_value": ("sum_value", "sum")})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": df["user_id"].to_numpy(np.int64),
            "n_events": df["n_events"].to_numpy(np.int64),
            "sum_value": np.round(df["sum_value"].to_numpy(np.float64), 2)})

    return merged.map_batches(finish, batch_format="pandas")


SQL_MV_REFRESH = """
SELECT user_id, count(*) AS n_events, round(sum(value), 2) AS sum_value
FROM events GROUP BY user_id
"""


def q_locf_impute(sf_dir: str):
    """Forward-fill (LOCF) imputation over a deterministically holed
    value stream (every 5th event NULLed): per user under (ts, event_id)
    order each hole takes the latest prior observation, leading holes
    take 0 — ONE co-shuffle, one vectorized grouped ffill per bucket
    (``stages/sessions.locf_impute``).  Values pass through unchanged so
    no rounding margin exists to tune."""
    from searchengine_ray.stages.sessions import locf_impute

    ds = _pq(sf_dir, "events",
             columns=["event_id", "user_id", "ts", "value"])

    def hole(df: pd.DataFrame) -> pd.DataFrame:
        v = df["value"].to_numpy(np.float64).copy()
        v[df["event_id"].to_numpy(np.int64) % 5 == 0] = np.nan
        return pd.DataFrame({"event_id": df["event_id"].to_numpy(np.int64),
                             "user_id": df["user_id"].to_numpy(np.int64),
                             "ts": df["ts"], "v": v})

    return locf_impute(ds.map_batches(hole, batch_format="pandas"))


SQL_LOCF_IMPUTE = """
WITH base AS (
  SELECT event_id, user_id, ts,
         CASE WHEN event_id % 5 = 0 THEN NULL ELSE value END AS v
  FROM events)
SELECT event_id, user_id,
       coalesce(last_value(v IGNORE NULLS) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
           ROWS UNBOUNDED PRECEDING), 0.0) AS v_filled
FROM base
"""


def q_dp_counts(sf_dir: str):
    """Laplace-mechanism noisy per-language counts (ε = 1, sensitivity 1
    for COUNT): the differential-privacy release shape — one
    ``pre_aggregate``, O(groups) driver noise arithmetic, only the noisy
    value leaves.  Noise is the exact inverse-CDF Laplace transform of a
    sha256-derived uniform so the oracle recomputes the identical
    release (see ``stages/privacy.laplace_noisy_counts`` for the
    deterministic-seeding caveat)."""
    from searchengine_ray.stages.privacy import laplace_noisy_counts

    ds = _pq(sf_dir, "documents", columns=["lang"])
    return laplace_noisy_counts(ds, "lang", salt="dp1", scale=1.0)


SQL_DP_COUNTS = """
WITH c AS (SELECT lang, count(*) AS n FROM documents GROUP BY lang),
u AS (SELECT lang, n,
             (CAST('0x' || substr(sha256(lang || ':dp1'), 1, 12) AS BIGINT)
              + 0.5) / 281474976710656.0 AS u
      FROM c)
SELECT lang,
       round(n + CASE WHEN u < 0.5 THEN 1.0 * ln(2.0 * u)
                      ELSE -1.0 * ln(2.0 * (1.0 - u)) END, 6) AS noisy_n
FROM u
"""


def q_data_quality(sf_dir: str):
    """Declarative expectation suite over the event log (the Deequ /
    Great-Expectations gate a pipeline runs BEFORE processing 100 TB):
    six checks verdict in one streaming scalar pass + one
    ``pre_aggregate`` for the uniqueness check — see
    ``stages/expectations``.  The value ≤ 100 check FAILS by design
    (events run hotter), proving verdicts bind rather than
    rubber-stamp."""
    from searchengine_ray.stages.expectations import data_quality_checks

    ds = _pq(sf_dir, "events",
             columns=["event_id", "user_id", "event_type", "value"])
    return data_quality_checks(ds, [
        ("rows_present", "row_count_ge", None, 1),
        ("user_id_not_null", "not_null", "user_id", None),
        ("event_id_unique", "unique", "event_id", None),
        ("value_non_negative", "min_ge", "value", 0.0),
        ("value_le_100", "max_le", "value", 100.0),
        ("event_type_in_set", "in_set", "event_type",
         ["click", "error", "purchase", "signup", "view"]),
    ])


SQL_DATA_QUALITY = """
WITH s AS (
  SELECT count(*) AS n,
         CAST(sum(CASE WHEN user_id IS NULL THEN 1 ELSE 0 END) AS DOUBLE)
           AS nulls,
         count(*) - count(DISTINCT event_id) AS dup_surplus,
         min(value) AS vmin, max(value) AS vmax,
         CAST(sum(CASE WHEN event_type NOT IN
                 ('click','error','purchase','signup','view')
                 THEN 1 ELSE 0 END) AS DOUBLE) AS bad_type
  FROM events)
SELECT 'rows_present' AS "check", CAST(n AS DOUBLE) AS metric,
       n >= 1 AS passed FROM s
UNION ALL SELECT 'user_id_not_null', nulls, nulls = 0 FROM s
UNION ALL SELECT 'event_id_unique', CAST(dup_surplus AS DOUBLE),
       dup_surplus = 0 FROM s
UNION ALL SELECT 'value_non_negative', vmin, vmin >= 0.0 FROM s
UNION ALL SELECT 'value_le_100', vmax, vmax <= 100.0 FROM s
UNION ALL SELECT 'event_type_in_set', bad_type, bad_type = 0 FROM s
"""


def q_mad_outliers(sf_dir: str):
    """Median-absolute-deviation outliers per event type — the ROBUST
    sibling of ``zscore_outliers`` (moments break under the very
    outliers they hunt; medians don't): flag rows where
    |v − med| / (1.4826·MAD) > 1.8, the scaled-MAD rule.

    Shape: ONE group co-shuffle (``bucketed_apply``) computes median,
    MAD and flags in a single kernel per bucket — groups co-locate
    whole, both order statistics come from vectorized pandas groupby
    medians, nothing leaves except flagged rows.  The threshold applies
    to the ROUNDED score on both sides so the 1.8 boundary cannot
    flip."""
    from searchengine_ray.stages.relational import bucketed_apply

    ds = _pq(sf_dir, "events", columns=["event_id", "event_type", "value"])

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({
                "event_id": pd.Series([], dtype=np.int64),
                "event_type": pd.Series([], dtype=str),
                "mad_z": pd.Series([], dtype=np.float64)})
        med = g.groupby("event_type")["value"].transform("median")
        dev = (g["value"] - med).abs()
        mad = dev.groupby(g["event_type"]).transform("median")
        # MAD = 0 guard (a group where > 50% of values are identical): the
        # unguarded division gives inf/nan and the DuckDB side's /0
        # semantics are version-dependent — both sides drop mad <= 0 rows
        madv = mad.to_numpy(np.float64)
        devv = dev.to_numpy(np.float64)
        pos = madv > 0
        z = np.zeros(len(g), dtype=np.float64)
        # half-away (shared helper): the oracle's DuckDB round() — a
        # dyadic .5e-6 score would flip np.round's half-even on BOTH the
        # emitted value and the 1.8 threshold test
        z[pos] = round6_half_away(devv[pos] / (1.4826 * madv[pos]))
        keep = pos & (z > 1.8)
        return pd.DataFrame({
            "event_id": g["event_id"].to_numpy(np.int64)[keep],
            "event_type": g["event_type"].to_numpy()[keep],
            "mad_z": z[keep]})

    return bucketed_apply(ds, ["event_type"], kernel)


SQL_MAD_OUTLIERS = """
WITH med AS (SELECT event_type, median(value) AS m
             FROM events GROUP BY event_type),
mad AS (SELECT e.event_type, median(abs(e.value - med.m)) AS d
        FROM events e JOIN med USING (event_type) GROUP BY e.event_type)
SELECT e.event_id, e.event_type,
       round(abs(e.value - med.m) / (1.4826 * mad.d), 6) AS mad_z
FROM events e JOIN med USING (event_type) JOIN mad USING (event_type)
WHERE mad.d > 0
  AND round(abs(e.value - med.m) / (1.4826 * mad.d), 6) > 1.8
"""


def q_winsorize(sf_dir: str):
    """Percentile winsorization (robust-statistics preprocessing): event
    values clip to the exact global [p05, p95] — two
    ``exact_global_quantile`` passes (O(bins) driver rows per refinement
    pass, never a sort) then a map-only clip against the two broadcast
    scalars.  Quantiles are exact order statistics so both sides clip at
    the identical boundary; clipped values pass through unchanged (no
    rounding margin)."""
    from searchengine_ray.stages.sketches import exact_global_quantile

    ds = _pq(sf_dir, "events", columns=["event_id", "value"]).materialize()
    lo = exact_global_quantile(ds, "value", 0.05)
    hi = exact_global_quantile(ds, "value", 0.95)

    def clip(df: pd.DataFrame) -> pd.DataFrame:
        v = df["value"].to_numpy(np.float64)
        return pd.DataFrame({
            "event_id": df["event_id"].to_numpy(np.int64),
            "v_clip": np.clip(v, lo, hi)})

    return ds.map_batches(clip, batch_format="pandas")


SQL_WINSORIZE = """
WITH q AS (SELECT quantile_cont(value, 0.05) AS lo,
                  quantile_cont(value, 0.95) AS hi FROM events)
SELECT event_id, least(greatest(value, q.lo), q.hi) AS v_clip
FROM events, q
"""


def q_throttle_dedup(sf_dir: str):
    """Sliding-window dedup / rate limiting (the recrawl-policy shape —
    drop a key's event if the SAME key fired within the last 2 hours):
    keep rows where ts − previous-kept... — note the subtlety: the
    industry-standard formulation (and the one a LAG window can express)
    compares to the previous EVENT, not the previous KEPT event; this
    operator implements that LAG form exactly.  ONE key co-shuffle, per
    bucket a composite sort + one shifted same-key compare (the
    ``item_transitions`` kernel shape) — no per-key Python."""
    from searchengine_ray.stages.relational import bucketed_apply

    W_US = 2 * 3600 * 1_000_000
    ds = _pq(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({
                "event_id": pd.Series([], dtype=np.int64),
                "user_id": pd.Series([], dtype=np.int64)})
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        u = g["user_id"].to_numpy(np.int64)
        t = g["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        prev_same = np.zeros(len(g), dtype=bool)
        prev_same[1:] = u[1:] == u[:-1]
        gap = np.empty(len(g), dtype=np.int64)
        gap[0] = W_US + 1
        gap[1:] = t[1:] - t[:-1]
        keep = ~prev_same | (gap > W_US)
        return pd.DataFrame({
            "event_id": g["event_id"].to_numpy(np.int64)[keep],
            "user_id": u[keep]})

    return bucketed_apply(ds, ["user_id"], kernel)


SQL_THROTTLE_DEDUP = """
SELECT event_id, user_id
FROM (SELECT event_id, user_id,
             epoch_us(ts) - lag(epoch_us(ts)) OVER (
                 PARTITION BY user_id ORDER BY ts, event_id) AS gap
      FROM events)
WHERE gap IS NULL OR gap > 7200000000
"""


def q_quantile_normalize(sf_dir: str):
    """Percent-rank quantile normalization of the event value column —
    the rank-gauss/quantile-transform feature preprocessing: a GLOBAL
    value order without a global sort (range buckets from two scalars,
    O(B) driver prefix sums, one co-shuffle; see
    ``stages/profile.value_rank_normalize``).  The (int rank)/(n−1)
    division is one correctly-rounded double op so engine and SQL
    percent_rank agree bit-for-bit."""
    from searchengine_ray.stages.profile import value_rank_normalize

    ds = _pq(sf_dir, "events", columns=["event_id", "value"])
    return value_rank_normalize(ds, "value", "event_id")


SQL_QUANTILE_NORMALIZE = """
SELECT event_id, value,
       percent_rank() OVER (ORDER BY value, event_id) AS pct
FROM events
"""


def q_retention_cohorts(sf_dir: str):
    """Weekly cohort retention matrix over the event log: users cohorted
    by first active epoch-week, distinct-counted per (cohort, offset) —
    see ``stages/sessions.retention_cohorts`` for the three-
    pre_aggregate + one-join scale shape (shuffle volume = user-weeks,
    never events)."""
    from searchengine_ray.stages.sessions import retention_cohorts

    ds = _pq(sf_dir, "events", columns=["user_id", "ts"])
    return retention_cohorts(ds)


SQL_RETENTION_COHORTS = """
WITH w AS (SELECT user_id, epoch_us(ts) // 604800000000 AS week FROM events),
uw AS (SELECT DISTINCT user_id, week FROM w),
f AS (SELECT user_id, min(week) AS cohort_week FROM w GROUP BY user_id)
SELECT f.cohort_week, uw.week - f.cohort_week AS week_offset,
       CAST(count(*) AS BIGINT) AS n_users
FROM uw JOIN f ON uw.user_id = f.user_id
GROUP BY f.cohort_week, week_offset
"""


SQL_DECAYED_ENGAGEMENT = """
WITH t AS (SELECT max(epoch_us(ts)) AS tmax FROM events)
SELECT user_id,
       round(sum(value * exp(-(t.tmax - epoch_us(ts))
                             / 604800000000.0)), 6) AS score
FROM events, t
GROUP BY user_id
"""


def q_covisit_pairs(sf_dir: str):
    """Item co-occurrence graph construction (co-click / co-purchase /
    co-citation — the recommender-side workhorse): pairs of items
    touched by the same user, counted over distinct users, thresholded.
    The per-user DISTINCT item set is capped at the 20 smallest item ids
    (a deterministic stand-in for the recency/affinity cap every real
    co-visit job applies — without a cap one power user with 10^5 items
    contributes 10^10 pairs).  Shape: ONE co-shuffle by user
    (``bucketed_apply``: distinct → rank-cap → pair explode vectorized
    over distinct per-user degrees, the triangle-count (m,k)-matrix
    kernel), then ONE ``pre_aggregate`` by pair; the threshold filters
    map-side after the combine.  Items come from the JSON ``props.k``
    field (the semi-structured parse shared with ``props_k_stats``)."""
    import json

    from searchengine_ray.stages.relational import (bucketed_apply,
                                                    pre_aggregate)

    CAP, MIN_USERS = 20, 5  # >=5 binds non-vacuously at sf0.001 AND sf0.01
    ds = _pq(sf_dir, "events", columns=["user_id", "props"])

    def parse(df: pd.DataFrame) -> pd.DataFrame:
        ks = np.fromiter((json.loads(p)["k"] for p in df["props"]),
                         dtype=np.int64, count=len(df))
        return pd.DataFrame({"user_id": df["user_id"].to_numpy(np.int64),
                             "item": ks}).drop_duplicates()

    ui = ds.map_batches(parse, batch_format="pandas")

    def explode_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "item"]).sort_values(
            ["user_id", "item"], kind="mergesort")
        rn = g.groupby("user_id", sort=False).cumcount()
        g = g[rn < CAP]
        u = g["user_id"].to_numpy(np.int64)
        it = g["item"].to_numpy(np.int64)
        _, start, cnt = np.unique(u, return_index=True, return_counts=True)
        outs_a, outs_b = [], []
        for k in np.unique(cnt):
            if k < 2:
                continue
            rows = start[cnt == k]
            m = it[rows[:, None] + np.arange(k)]  # (m, k), ascending rows
            iu, ju = np.triu_indices(k, 1)
            outs_a.append(m[:, iu].ravel())
            outs_b.append(m[:, ju].ravel())
        if not outs_a:
            return pd.DataFrame({"item_a": np.array([], np.int64),
                                 "item_b": np.array([], np.int64)})
        return pd.DataFrame({"item_a": np.concatenate(outs_a),
                             "item_b": np.concatenate(outs_b)})

    pairs = bucketed_apply(ui, ["user_id"], explode_pairs)
    agg = pre_aggregate(pairs, ["item_a", "item_b"],
                        {"n_users": (None, "count")})
    return agg.map_batches(
        lambda df: df[df["n_users"].to_numpy() >= MIN_USERS],
        batch_format="pandas")


SQL_COVISIT_PAIRS = """-- MIN_USERS=5 mirrors q_covisit_pairs
WITH ui AS (SELECT DISTINCT user_id,
                   CAST(json_extract(props, '$.k') AS BIGINT) AS item
            FROM events),
capped AS (SELECT user_id, item FROM (
             SELECT user_id, item,
                    row_number() OVER (PARTITION BY user_id
                                       ORDER BY item) AS rn
             FROM ui)
           WHERE rn <= 20),
pairs AS (SELECT a.item AS item_a, b.item AS item_b,
                 CAST(count(*) AS BIGINT) AS n_users
          FROM capped a
          JOIN capped b ON a.user_id = b.user_id AND a.item < b.item
          GROUP BY a.item, b.item)
SELECT item_a, item_b, n_users FROM pairs WHERE n_users >= 5
"""


def q_bloom_join(sf_dir: str):
    """Bloom-pruned selective join: ~2% of orders qualify (urgent +
    orderkey%10), so shuffling the whole lineitem side through the join
    exchange is ~50× wasted bandwidth — a 1 Mbit Bloom filter of the
    qualifying keys broadcasts once and drops non-matching lineitems
    MAP-SIDE before the shuffle (``state/bloom.py``).  False positives
    leak through the filter and die in the exact ``hash_join``, so the
    result is exactly the plain join (the SQL proves it; the pruning
    ratio is pytest-pinned)."""
    from searchengine_ray.stages.relational import hash_join, pre_aggregate
    from searchengine_ray.state.bloom import bloom_prefilter, build_bloom

    orders = _pq(sf_dir, "orders",
                 columns=["o_orderkey", "o_orderpriority", "o_totalprice"])

    def sel(df: pd.DataFrame) -> pd.DataFrame:
        keys = df["o_orderkey"].to_numpy(np.int64)
        m = ((df["o_orderpriority"] == "1-URGENT").to_numpy()
             & (keys % 10 == 0))
        return pd.DataFrame({
            "o_orderkey": keys[m],
            "o_totalprice": df["o_totalprice"].to_numpy(np.float64)[m]})

    right = orders.map_batches(sel, batch_format="pandas").materialize()
    bloom = build_bloom(right, "o_orderkey", m_bits=1 << 20, k=5)

    li = _pq(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice"])

    def rename(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "o_orderkey": df["l_orderkey"].to_numpy(np.int64),
            "l_extendedprice": df["l_extendedprice"].to_numpy(np.float64)})

    pruned = bloom_prefilter(li.map_batches(rename, batch_format="pandas"),
                             bloom, "o_orderkey")
    joined = hash_join(pruned, right, "o_orderkey")
    agg = pre_aggregate(joined, ["o_orderkey"],
                        {"n_items": (None, "count"),
                         "sum_price": ("l_extendedprice", "sum"),
                         "o_total": ("o_totalprice", "max")})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["sum_price"] = df["sum_price"].round(4)
        return df

    return agg.map_batches(finish, batch_format="pandas")


SQL_BLOOM_JOIN = """
WITH r AS (SELECT o_orderkey, o_totalprice FROM orders
           WHERE o_orderpriority = '1-URGENT' AND o_orderkey % 10 = 0)
SELECT o_orderkey, count(*) AS n_items,
       round(sum(l_extendedprice), 4) AS sum_price,
       max(o_totalprice) AS o_total
FROM lineitem JOIN r ON l_orderkey = o_orderkey
GROUP BY o_orderkey
"""


# --- k-anonymity suppression (stages/privacy.py) ----------------------------

_KANON = 14


def q_k_anonymize(sf_dir: str):
    """k-anonymity suppression over the (user_id, event_type)
    quasi-identifier: only rows whose combination occurs ≥ 14 times
    survive — one pre_aggregate for the group counts, qualifying set
    broadcast (size-routed to a co-shuffle above the bound), corpus
    filters map-only."""
    from searchengine_ray.stages.privacy import k_anonymity_suppress

    ds = _pq(sf_dir, "events", columns=["event_id", "user_id",
                                       "event_type"])
    out = k_anonymity_suppress(ds, ["user_id", "event_type"], _KANON)

    def fmt(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": df["event_id"].to_numpy(np.int64),
            "user_id": df["user_id"].to_numpy(np.int64),
            "event_type": df["event_type"]})

    return out.map_batches(fmt, batch_format="pandas")


SQL_K_ANONYMIZE = f"""
SELECT event_id, user_id, event_type
FROM (SELECT event_id, user_id, event_type,
             count(*) OVER (PARTITION BY user_id, event_type) AS n
      FROM events)
WHERE n >= {_KANON}
"""


# --- NDJSON quarantine ingest (sources/jsonl.py; scratch corpus) ------------

_JSONL_SCRATCH = "/tmp/graft_scratch/jsonl_corpus"
_JSONL_N = 4000
_JSONL_TYPES = ["click", "view", "purchase", "scroll", "hover"]


def _jsonl_corpus() -> str:
    """Deterministic dirty NDJSON corpus: 88% valid (with an optional
    field absent on a slice), 12% malformed across all four error
    categories.  Idempotent; written once per process."""
    import json as _json

    marker = os.path.join(_JSONL_SCRATCH, "_done")
    if os.path.exists(marker):
        return _JSONL_SCRATCH
    import shutil

    shutil.rmtree(_JSONL_SCRATCH, ignore_errors=True)
    os.makedirs(_JSONL_SCRATCH, exist_ok=True)
    files = [[] for _ in range(4)]
    for i in range(_JSONL_N):
        m = (i * 2654435761) % 100
        t = _JSONL_TYPES[i % 5]
        if m < 88:
            rec = {"event_id": i, "event_type": t}
            if i % 7:
                rec["value"] = (i % 997) / 8
            line = _json.dumps(rec)
        elif m < 92:
            line = '{"event_id": ' + str(i)           # syntax
        elif m < 95:
            line = f'[1, 2, {i}]'                     # not_object
        elif m < 98:
            line = _json.dumps({"event_id": f"e{i}",  # bad_type
                                "event_type": t})
        else:
            line = _json.dumps({"event_type": t,      # missing_field
                                "value": 1.0})
        files[i % 4].append(line)
    for j, lines in enumerate(files):
        with open(os.path.join(_JSONL_SCRATCH, f"part{j}.jsonl"), "w") as f:
            f.write("\n".join(lines) + "\n")
    open(marker, "w").close()
    return _JSONL_SCRATCH


def q_jsonl_ingest(sf_dir: str):
    """NDJSON ingest with malformed-row quarantine (the reference's
    doc-reader malformed-drop contract, S2, generalized to a dirty
    source): Arrow C++ fast path per clean batch, per-line isolation on
    dirty ones, valid ∪ quarantine an exact partition of the input.
    Output: per-event-type counts + value sums over VALID rows, plus one
    row per quarantine error category."""
    from searchengine_ray.sources.jsonl import jsonl_ingest

    path = _jsonl_corpus()
    spec = [("event_id", "int", True), ("event_type", "str", True),
            ("value", "float", False)]
    valid, quar = jsonl_ingest(
        [os.path.join(path, f"part{j}.jsonl") for j in range(4)], spec)
    va = pre_aggregate(valid, ["event_type"],
                       {"n": ("event_id", "count"),
                        "value_sum": ("value", "sum")}).to_pandas()
    qa = pre_aggregate(quar, ["err"],
                       {"n": ("line", "count")}).to_pandas()
    out = pd.concat([
        pd.DataFrame({"bucket": va["event_type"],
                      "n": va["n"].to_numpy(np.int64),
                      "value_sum": np.round(
                          va["value_sum"].to_numpy(np.float64), 6)}),
        pd.DataFrame({"bucket": "_quarantine:" + qa["err"],
                      "n": qa["n"].to_numpy(np.int64),
                      "value_sum": 0.0})], ignore_index=True)
    return out


SQL_JSONL_INGEST = f"""
WITH raw AS (
  SELECT line FROM read_csv('{_JSONL_SCRATCH}/part*.jsonl',
    delim='\x01', header=false, quote='', escape='',
    columns={{'line': 'VARCHAR'}})),
j AS (SELECT line, try_cast(line AS JSON) AS js FROM raw),
cls AS (
  SELECT line, js,
    CASE
      WHEN js IS NULL THEN 'syntax'
      WHEN json_type(js) <> 'OBJECT' THEN 'not_object'
      WHEN json_extract(js, '$.event_id') IS NULL
           OR json_type(js, '$.event_id') = 'NULL' THEN 'missing_field'
      WHEN json_type(js, '$.event_id') NOT IN ('BIGINT', 'UBIGINT')
           THEN 'bad_type'
      WHEN json_extract(js, '$.event_type') IS NULL
           OR json_type(js, '$.event_type') = 'NULL' THEN 'missing_field'
      WHEN json_type(js, '$.event_type') <> 'VARCHAR' THEN 'bad_type'
      WHEN json_extract(js, '$.value') IS NOT NULL
           AND json_type(js, '$.value')
               NOT IN ('DOUBLE', 'BIGINT', 'UBIGINT', 'NULL')
           THEN 'bad_type'
      ELSE ''
    END AS err
  FROM j)
SELECT js->>'$.event_type' AS bucket, CAST(count(*) AS BIGINT) AS n,
       round(coalesce(sum(CAST(js->>'$.value' AS DOUBLE)), 0), 6)
         AS value_sum
FROM cls WHERE err = '' GROUP BY 1
UNION ALL
SELECT '_quarantine:' || err, CAST(count(*) AS BIGINT),
       CAST(0.0 AS DOUBLE)
FROM cls WHERE err <> '' GROUP BY err
"""


# --- interval overlap join (campaign attribution; scratch interval table) ---

_INTERVAL_SCRATCH = "/tmp/graft_scratch/campaign_intervals"
_N_INTERVALS = 60


def q_interval_join(sf_dir: str):
    """Interval overlap join: every event matched to every campaign
    window whose [start, end) contains its timestamp — the attribution /
    maintenance-window shape with NO equi-key to hash on.  60
    deterministic overlapping windows (hash-placed starts, 1-72 h) are
    synthesized from the event extent and persisted for the oracle; the
    join range-buckets the time axis and FRAGMENTS each interval at
    bucket boundaries so each pair is found exactly once in the single
    co-shuffle (``stages/sessions.interval_join``).  Output: per-interval
    event count + value sum, empty windows kept with zeros."""
    import shutil
    from hashlib import sha256 as _sha

    import pyarrow.parquet as papq

    from searchengine_ray.stages.sessions import (
        fact_extent_us, interval_join)

    ds = _pq(sf_dir, "events", columns=["event_id", "ts", "value"])

    def to_us(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": df["event_id"].to_numpy(np.int64),
            "ts_us": df["ts"].to_numpy("datetime64[us]").astype(np.int64),
            "value": df["value"].to_numpy(np.float64)})

    facts = ds.map_batches(to_us, batch_format="pandas")
    t0, t1 = fact_extent_us(facts)
    span = max(t1 - t0, 1)
    rows = []
    for i in range(_N_INTERVALS):
        h = int.from_bytes(_sha(f"{i}:ivl".encode()).digest()[:8], "big")
        start = t0 + (h % span)
        rows.append((i, start,
                     start + (1 + (h >> 32) % 72) * 3_600_000_000))
    shutil.rmtree(_INTERVAL_SCRATCH, ignore_errors=True)
    os.makedirs(_INTERVAL_SCRATCH, exist_ok=True)
    papq.write_table(
        pa.table({"interval_id": pa.array([r[0] for r in rows], pa.int64()),
                  "start_us": pa.array([r[1] for r in rows], pa.int64()),
                  "end_us": pa.array([r[2] for r in rows], pa.int64())}),
        os.path.join(_INTERVAL_SCRATCH, "intervals.parquet"))
    intervals = rd.read_parquet(_INTERVAL_SCRATCH)
    pairs = interval_join(facts, intervals, (t0, t1), carry_col="value")
    agg = pre_aggregate(pairs, ["interval_id"],
                        {"n_events": ("event_id", "count"),
                         "value_sum": ("value", "sum")}).to_pandas()
    # complete against the full window list (O(K)=60 rows, bounded)
    out = (pd.DataFrame({"interval_id": np.arange(_N_INTERVALS,
                                                  dtype=np.int64)})
           .merge(agg, on="interval_id", how="left"))
    return pd.DataFrame({
        "interval_id": out["interval_id"].to_numpy(np.int64),
        "n_events": out["n_events"].fillna(0).to_numpy(np.int64),
        "value_sum": np.round(out["value_sum"].fillna(0.0)
                              .to_numpy(np.float64), 6)})


SQL_INTERVAL_JOIN = f"""
SELECT i.interval_id,
       CAST(count(e.event_id) AS BIGINT) AS n_events,
       round(coalesce(sum(e.value), 0.0), 6) AS value_sum
FROM read_parquet('{_INTERVAL_SCRATCH}/*.parquet') i
LEFT JOIN events e
  ON epoch_us(e.ts) >= i.start_us AND epoch_us(e.ts) < i.end_us
GROUP BY i.interval_id
"""


def q_stream_join(sf_dir: str):
    """Stream-stream bounded-time join: every (click, purchase) pair of
    the same user with the purchase in (click_ts, click_ts + 1 h] — the
    attribution join whose time bound is what makes streaming state
    finite.  Map-side filter to the two event types (shuffle volume =
    their share of the log), ONE user co-shuffle, searchsorted range +
    repeat/arange pair explode per bucket
    (``stages/sessions.windowed_pair_join``)."""
    from searchengine_ray.stages.sessions import windowed_pair_join

    ds = _pq(sf_dir, "events", columns=["event_id", "user_id", "ts",
                                        "event_type"])

    def pick(tp: str):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            m = (df["event_type"] == tp).to_numpy()
            return pd.DataFrame({
                "user_id": df["user_id"].to_numpy(np.int64)[m],
                "ts_us": df["ts"].to_numpy("datetime64[us]")
                .astype(np.int64)[m],
                "event_id": df["event_id"].to_numpy(np.int64)[m]})
        return fn

    clicks = ds.map_batches(pick("click"), batch_format="pandas")
    purchases = ds.map_batches(pick("purchase"), batch_format="pandas")
    out = windowed_pair_join(clicks, purchases, window_us=3_600_000_000)
    return out.map_batches(
        lambda df: df.rename(columns={"left_id": "click_id",
                                      "right_id": "purchase_id"}),
        batch_format="pandas")


SQL_STREAM_JOIN = """
WITH e AS (SELECT event_id, user_id, event_type, epoch_us(ts) AS us
           FROM events),
c AS (SELECT * FROM e WHERE event_type = 'click'),
p AS (SELECT * FROM e WHERE event_type = 'purchase')
SELECT c.event_id AS click_id, p.event_id AS purchase_id, c.user_id
FROM c JOIN p ON c.user_id = p.user_id
             AND p.us > c.us AND p.us <= c.us + 3600000000
"""


def q_user_trend(sf_dir: str):
    """Per-user value trend (least-squares slope + intercept over time) —
    the ALGEBRAIC-aggregate family beyond sum/min/max: the five moments
    (n, Σx, Σy, Σxy, Σx²) are exactly mergeable, so the whole regression
    is ONE ``pre_aggregate`` pass; slope/intercept are map-side arithmetic
    on the O(users) aggregate.  x is centered to days-since-corpus-min
    (one scalar pre-pass) BEFORE squaring — raw epoch-µs x² at ~1e36
    would drown float64 and make nΣx²−(Σx)² pure cancellation noise.
    The SQL mirrors the identical sum formula (NOT regr_slope, whose
    Welford-style internals differ in ulps beyond the rounding margin);
    remaining sum-order ulps are ~1e-11 relative vs the 5e-7 round-6
    margin (the decayed_engagement discipline)."""
    from searchengine_ray.stages.relational import pre_aggregate

    ds = _pq(sf_dir, "events", columns=["user_id", "ts", "value"])

    def bmin(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"m": pd.Series([], dtype=np.int64)})
        ts = df["ts"].to_numpy("datetime64[us]").astype(np.int64)
        return pd.DataFrame({"m": [int(ts.min())]})

    t0 = int(ds.map_batches(bmin, batch_format="pandas")
             .to_pandas()["m"].min())

    def project(df: pd.DataFrame) -> pd.DataFrame:
        ts = df["ts"].to_numpy("datetime64[us]").astype(np.int64)
        x = (ts - t0) / 86400e6
        y = df["value"].to_numpy(np.float64)
        return pd.DataFrame({"user_id": df["user_id"].to_numpy(np.int64),
                             "x": x, "y": y, "xy": x * y, "xx": x * x})

    agg = pre_aggregate(ds.map_batches(project, batch_format="pandas"),
                        ["user_id"],
                        {"n": (None, "count"), "sx": ("x", "sum"),
                         "sy": ("y", "sum"), "sxy": ("xy", "sum"),
                         "sxx": ("xx", "sum")})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["n"] >= 2]
        n = df["n"].to_numpy(np.float64)
        sx, sy = df["sx"].to_numpy(), df["sy"].to_numpy()
        sxy, sxx = df["sxy"].to_numpy(), df["sxx"].to_numpy()
        slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
        return pd.DataFrame({
            "user_id": df["user_id"].to_numpy(np.int64),
            "n": df["n"].to_numpy(np.int64),
            "slope": np.round(slope, 6),
            "intercept": np.round((sy - slope * sx) / n, 6)})

    return agg.map_batches(finish, batch_format="pandas")


SQL_USER_TREND = """
WITH t0 AS (SELECT min(epoch_us(ts)) AS m FROM events),
p AS (SELECT user_id,
             (epoch_us(ts) - t0.m) / 86400000000.0 AS x,
             value AS y
      FROM events, t0),
a AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n,
             sum(x) AS sx, sum(y) AS sy,
             sum(x*y) AS sxy, sum(x*x) AS sxx
      FROM p GROUP BY user_id HAVING count(*) >= 2)
SELECT user_id, n,
       round((n*sxy - sx*sy) / (n*sxx - sx*sx), 6) AS slope,
       round((sy - (n*sxy - sx*sy) / (n*sxx - sx*sx) * sx) / n, 6)
         AS intercept
FROM a
"""


def q_skew_join(sf_dir: str):
    """Skew-aware join (``stages/relational.skew_join``): left = events
    with a planted mega-key (users divisible by 3 collapse into user 0 —
    the CASE is mirrored in SQL), right = the distinct-user dim derived
    from the same remap.  ``hot_count=100`` makes the hot path bind at
    every SF (user 0 holds ~⅓ of all events) while most users stay cold —
    so the gate proves BOTH routes and their union.  Left is materialized
    once: skew_join consumes it three times (count pass, cold path, hot
    probe) and Ray re-executes shared lazy sub-plans per consumer."""
    from searchengine_ray.stages.relational import pre_aggregate, skew_join

    ds = _pq(sf_dir, "events", columns=["event_id", "user_id", "value"])

    def remap(df: pd.DataFrame) -> pd.DataFrame:
        u = df["user_id"].to_numpy(np.int64)
        return pd.DataFrame({
            "event_id": df["event_id"].to_numpy(np.int64),
            "user_id": np.where(u % 3 == 0, 0, u),
            "value": df["value"].to_numpy(np.float64)})

    left = ds.map_batches(remap, batch_format="pandas").materialize()
    users = pre_aggregate(left.select_columns(["user_id"]), ["user_id"],
                          {"n": (None, "count")})

    def to_dim(df: pd.DataFrame) -> pd.DataFrame:
        u = df["user_id"].to_numpy(np.int64)
        return pd.DataFrame({"user_id": u, "seg": u % 7})

    right = users.map_batches(to_dim, batch_format="pandas")
    return skew_join(left, right, "user_id", hot_count=100)


SQL_SKEW_JOIN = """
WITH l AS (SELECT event_id,
                  CASE WHEN user_id % 3 = 0 THEN 0 ELSE user_id END
                    AS user_id,
                  value
           FROM events),
r AS (SELECT DISTINCT user_id, user_id % 7 AS seg FROM l)
SELECT l.event_id, l.user_id, l.value, r.seg
FROM l JOIN r USING (user_id)
"""


def q_item_transitions(sf_dir: str):
    """Next-item transition counts (Markov-chain edges over per-user event
    sequences — the session-model training input): items from the shared
    ``props.k`` JSON parse, sequences ordered by (ts, event_id), adjacent
    pairs counted.  ONE user co-shuffle + one vectorized shifted-compare
    kernel per bucket (``stages/sessions.item_transitions``); output is
    item-vocabulary² bounded."""
    import json

    from searchengine_ray.stages.sessions import item_transitions

    ds = _pq(sf_dir, "events", columns=["event_id", "user_id", "ts", "props"])

    def parse(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": df["user_id"].to_numpy(np.int64),
            "ts_us": df["ts"].to_numpy("datetime64[us]").astype(np.int64),
            "event_id": df["event_id"].to_numpy(np.int64),
            "item": np.fromiter((json.loads(p)["k"] for p in df["props"]),
                                dtype=np.int64, count=len(df))})

    return item_transitions(ds.map_batches(parse, batch_format="pandas"))


SQL_ITEM_TRANSITIONS = """
WITH e AS (SELECT user_id, ts, event_id,
                  CAST(json_extract(props, '$.k') AS BIGINT) AS item
           FROM events),
t AS (SELECT item,
             lead(item) OVER (PARTITION BY user_id
                              ORDER BY ts, event_id) AS next_item
      FROM e)
SELECT item, next_item, count(*) AS n
FROM t WHERE next_item IS NOT NULL GROUP BY item, next_item
"""


def q_funnel_stages(sf_dir: str):
    """Ordered-funnel analysis (view → click → purchase, each step within
    a 48 h conversion window of the previous) — the product-analytics
    staple.  Per user: t1 = first view; t2 = first click in (t1, t1+W];
    t3 = first purchase in (t2, t2+W]; stage = how deep the user got.

    Shape: map-side filter to the three funnel types (shuffle volume
    drops to the funnel's share of events), ONE co-shuffle by user
    (``bucketed_apply``), one vectorized kernel per bucket — pandas C
    groupby-mins chained through int64-preserving inner merges (an NaN-
    producing ``.map`` would round μs epochs through float64 and could
    flip the strict ts comparisons that define each step)."""
    from searchengine_ray.stages.relational import bucketed_apply

    W_US = 48 * 3600 * 1_000_000  # 48 h conversion window, μs

    ds = _pq(sf_dir, "events", columns=["user_id", "event_type", "ts"])

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["event_type"].isin(("view", "click", "purchase"))]

    def stages(g: pd.DataFrame) -> pd.DataFrame:
        et = g["event_type"].to_numpy()
        f = pd.DataFrame({"u": g["user_id"].to_numpy(np.int64),
                          "t": g["ts"].astype("int64").to_numpy()})
        t1 = f[et == "view"].groupby("u")["t"].min().rename("t1")
        c = f[et == "click"].merge(t1, left_on="u", right_index=True)
        c = c[(c["t"] > c["t1"]) & (c["t"] - c["t1"] <= W_US)]
        t2 = c.groupby("u")["t"].min().rename("t2")
        p = f[et == "purchase"].merge(t2, left_on="u", right_index=True)
        p = p[(p["t"] > p["t2"]) & (p["t"] - p["t2"] <= W_US)]
        t3 = p.groupby("u")["t"].min()
        users = t1.index.to_numpy(np.int64)
        stage = (1 + np.isin(users, t2.index.to_numpy()).astype(np.int64)
                 + np.isin(users, t3.index.to_numpy()).astype(np.int64))
        return pd.DataFrame({"user_id": users, "stage": stage})

    ev = ds.map_batches(keep, batch_format="pandas")
    return bucketed_apply(ev, ["user_id"], stages)


SQL_FUNNEL_STAGES = """-- W = 48h in μs, mirrors q_funnel_stages
WITH v AS (SELECT user_id, min(ts) AS t1 FROM events
           WHERE event_type='view' GROUP BY user_id),
c AS (SELECT e.user_id, min(e.ts) AS t2 FROM events e
      JOIN v ON e.user_id = v.user_id
      WHERE e.event_type='click' AND e.ts > v.t1
        AND epoch_us(e.ts) - epoch_us(v.t1) <= 172800000000
      GROUP BY e.user_id),
p AS (SELECT e.user_id, min(e.ts) AS t3 FROM events e
      JOIN c ON e.user_id = c.user_id
      WHERE e.event_type='purchase' AND e.ts > c.t2
        AND epoch_us(e.ts) - epoch_us(c.t2) <= 172800000000
      GROUP BY e.user_id)
SELECT v.user_id,
       CAST(1 + CAST(c.user_id IS NOT NULL AS BIGINT)
              + CAST(p.user_id IS NOT NULL AS BIGINT) AS BIGINT) AS stage
FROM v LEFT JOIN c ON v.user_id = c.user_id
       LEFT JOIN p ON v.user_id = p.user_id
"""


def q_rolling_active_users(sf_dir: str):
    """Rolling 7-day distinct active users per calendar day (WAU): exact
    sliding COUNT(DISTINCT) via contribute-then-distinct — shuffle volume
    is 7 × distinct (day, user) pairs, never the event count
    (``stages/sessions.rolling_active_users``)."""
    from searchengine_ray.stages.sessions import rolling_active_users

    ds = _pq(sf_dir, "events", columns=["user_id", "ts"])
    return rolling_active_users(ds, window_days=7)


SQL_ROLLING_ACTIVE_USERS = """
WITH du AS (SELECT DISTINCT CAST(date_trunc('day', ts) AS DATE) AS day,
                            user_id
            FROM events),
mx AS (SELECT max(day) AS m FROM du),
ex AS (SELECT day + CAST(j AS INTEGER) AS rday, user_id
       FROM du, generate_series(0, 6) AS t(j), mx
       WHERE day + CAST(j AS INTEGER) <= mx.m)
SELECT strftime(rday, '%Y-%m-%d') AS day, count(DISTINCT user_id) AS wau
FROM ex GROUP BY rday
"""


def q_triangle_count(sf_dir: str):
    """Exact triangle count over the same closed deterministic doc graph
    pagerank uses — the third graph-analytics operator (pagerank,
    connected components, triangles).  Degree-ordered wedge generation
    bounds the explode by graph arboricity (hubs stop mattering);
    see ``stages/graph.triangle_count`` for the full scale shape."""
    from searchengine_ray.stages.graph import triangle_count

    ds = _pq(sf_dir, "documents", columns=["doc_id"])
    n = ds.count()

    def explode_edges(df: pd.DataFrame) -> pd.DataFrame:
        src = np.repeat(df["doc_id"].to_numpy(np.int64), 3)
        j = np.tile(np.array([1, 2, 3], dtype=np.int64), len(df))
        dst = (src * 31 + j) % n
        keep = src != dst
        return pd.DataFrame({"src": src[keep], "dst": dst[keep]})

    edges = ds.map_batches(explode_edges, batch_format="pandas")
    return pd.DataFrame({"n_triangles": [triangle_count(edges)]})


SQL_TRIANGLE_COUNT = """
WITH n AS (SELECT count(*) AS cnt FROM documents),
e0 AS (
  SELECT DISTINCT least(doc_id, (doc_id * 31 + j.j) % n.cnt) AS u,
                  greatest(doc_id, (doc_id * 31 + j.j) % n.cnt) AS v
  FROM documents, n, (VALUES (1), (2), (3)) AS j(j)
  WHERE doc_id <> (doc_id * 31 + j.j) % n.cnt)
SELECT CAST(count(*) AS BIGINT) AS n_triangles
FROM e0 a JOIN e0 b ON b.u = a.v JOIN e0 c ON c.u = a.u AND c.v = b.v
"""


SQL_PAGERANK = """
WITH n AS (SELECT count(*) AS cnt FROM documents),
e0 AS (SELECT doc_id AS src, (doc_id*31 + j.j) % n.cnt AS dst
       FROM documents CROSS JOIN n
       CROSS JOIN (VALUES (1), (2), (3)) AS j(j)),
e AS (SELECT src, dst FROM e0 WHERE src <> dst),
deg AS (SELECT src, count(*) AS d FROM e GROUP BY src),
r0 AS (SELECT doc_id AS node, 1.0 / n.cnt AS r FROM documents, n),
r1 AS (SELECT e.dst AS node,
              0.15 / n.cnt + 0.85 * sum(r0.r / deg.d) AS r
       FROM e JOIN deg USING (src) JOIN r0 ON r0.node = e.src, n
       GROUP BY e.dst, n.cnt),
r2 AS (SELECT e.dst AS node,
              0.15 / n.cnt + 0.85 * sum(r1.r / deg.d) AS r
       FROM e JOIN deg USING (src) JOIN r1 ON r1.node = e.src, n
       GROUP BY e.dst, n.cnt),
r3 AS (SELECT e.dst AS node,
              0.15 / n.cnt + 0.85 * sum(r2.r / deg.d) AS r
       FROM e JOIN deg USING (src) JOIN r2 ON r2.node = e.src, n
       GROUP BY e.dst, n.cnt)
SELECT node, round(r, 6) AS pagerank FROM r3
"""


# --- 31d. positional phrase search (pipelines/search.phrase_search) ---------


def q_phrase_search(sf_dir: str):
    """Exact-phrase occurrence counts for "fast merge": map-only positional
    explode restricted to the phrase terms, one doc-keyed co-shuffle, one
    vectorized anchor-alignment kernel per bucket."""
    from searchengine_ray.pipelines.search import phrase_search

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    return phrase_search(ds, "fast merge")


# zipped parallel unnest = positions; a match anchors t1 at p, t2 at p+1
SQL_PHRASE_SEARCH = """
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     t -> t <> '') AS ts
  FROM documents),
p AS (SELECT doc_id, unnest(ts) AS tok,
             unnest(range(0, len(ts))) AS pos
      FROM toks WHERE len(ts) > 0),
t1 AS (SELECT doc_id, pos FROM p WHERE tok = 'fast'),
t2 AS (SELECT doc_id, pos FROM p WHERE tok = 'merge')
SELECT t1.doc_id, CAST(count(*) AS BIGINT) AS n_matches
FROM t1 JOIN t2 ON t2.doc_id = t1.doc_id AND t2.pos = t1.pos + 1
GROUP BY t1.doc_id
"""


# --- 31e. corpus snapshot diff (stages/dedup.snapshot_diff) -----------------


def q_snapshot_diff(sf_dir: str):
    """Diff two corpus snapshots (v1 = documents; v2 derived
    deterministically: doc_id%7==0 removed, doc_id%5==0 edited, one new
    doc per doc_id%11==0).  One co-shuffle on the id; each bucket resolves
    with a single vectorized outer merge.  The incremental-crawl consumer
    op: what to (re)process downstream between yesterday and today."""
    from searchengine_ray.stages.dedup import snapshot_diff

    v1 = _pq(sf_dir, "documents", columns=["doc_id", "text"])

    def derive_v2(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        keep = ids % 7 != 0
        base = pd.DataFrame({
            "doc_id": ids[keep],
            "text": np.where(ids[keep] % 5 == 0,
                             df["text"].to_numpy()[keep] + " v2",
                             df["text"].to_numpy()[keep])})
        new_ids = ids[ids % 11 == 0]
        added = pd.DataFrame({
            "doc_id": new_ids + 1_000_000,
            "text": np.array([f"new doc {i}" for i in new_ids], dtype=object)})
        return pd.concat([base, added], ignore_index=True)

    v2 = v1.map_batches(derive_v2, batch_format="pandas")
    return snapshot_diff(v1, v2)


SQL_SNAPSHOT_DIFF = """
WITH v2 AS (
  SELECT doc_id,
         CASE WHEN doc_id % 5 = 0 THEN text || ' v2' ELSE text END AS text
  FROM documents WHERE doc_id % 7 <> 0
  UNION ALL
  SELECT doc_id + 1000000 AS doc_id, 'new doc ' || CAST(doc_id AS VARCHAR)
  FROM documents WHERE doc_id % 11 = 0)
SELECT coalesce(a.doc_id, b.doc_id) AS doc_id,
       CASE WHEN b.doc_id IS NULL THEN 'removed'
            WHEN a.doc_id IS NULL THEN 'added'
            ELSE 'changed' END AS status
FROM documents a FULL OUTER JOIN v2 b ON a.doc_id = b.doc_id
WHERE b.doc_id IS NULL OR a.doc_id IS NULL OR a.text <> b.text
"""


# --- 31e2. CDC upsert merge (stages/relational.upsert_merge) -----------------


def q_upsert_merge(sf_dir: str):
    """Latest-version-wins merge of a change delta into a base snapshot
    (the Delta/Iceberg MERGE shape): base = documents at version 0; delta
    derived deterministically — doc_id%7==0 updated (v1), %13==0
    tombstoned (v2), %21==0 re-updated (v3, so ids divisible by 273 are
    RESURRECTED past their tombstone), %17==0 inserted as new ids.  Size
    routing picks the broadcast-delta path here (delta ≪ base, zero
    shuffles — the base never moves); the co-shuffle route is pinned equal
    by tests/test_upsert.py."""
    from searchengine_ray.stages.relational import upsert_merge

    docs = _pq(sf_dir, "documents", columns=["doc_id", "text"])

    def as_base(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype(np.int64),
            "version": np.zeros(len(df), dtype=np.int64),
            "deleted": np.zeros(len(df), dtype=bool),
            "text": df["text"]})

    def derive_delta(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        txt = pd.Series(df["text"].to_numpy(), dtype=object)

        def rows(mask, id_off, version, text, deleted):
            n = int(mask.sum())
            return pd.DataFrame({
                "doc_id": ids[mask] + id_off,
                "version": np.full(n, version, dtype=np.int64),
                "deleted": np.full(n, deleted, dtype=bool),
                "text": text})

        m7, m13, m21, m17 = (ids % k == 0 for k in (7, 13, 21, 17))
        return pd.concat([
            rows(m7, 0, 1, (txt[m7] + " rev2").to_numpy(), False),
            rows(m13, 0, 2, np.full(int(m13.sum()), "", dtype=object), True),
            rows(m21, 0, 3, (txt[m21] + " rev3").to_numpy(), False),
            rows(m17, 2_000_000, 1,
                 np.array([f"upsert doc {i}" for i in ids[m17]],
                          dtype=object), False),
        ], ignore_index=True)

    base = docs.map_batches(as_base, batch_format="pandas")
    delta = docs.map_batches(derive_delta, batch_format="pandas")
    return upsert_merge(base, delta, id_col="doc_id")


SQL_UPSERT_MERGE = """
WITH base AS (
  SELECT doc_id, CAST(0 AS BIGINT) AS version, FALSE AS deleted, text
  FROM documents),
delta AS (
  SELECT doc_id, CAST(1 AS BIGINT), FALSE, text || ' rev2'
  FROM documents WHERE doc_id % 7 = 0
  UNION ALL
  SELECT doc_id, CAST(2 AS BIGINT), TRUE, '' FROM documents
  WHERE doc_id % 13 = 0
  UNION ALL
  SELECT doc_id, CAST(3 AS BIGINT), FALSE, text || ' rev3'
  FROM documents WHERE doc_id % 21 = 0
  UNION ALL
  SELECT doc_id + 2000000, CAST(1 AS BIGINT), FALSE,
         'upsert doc ' || CAST(doc_id AS VARCHAR)
  FROM documents WHERE doc_id % 17 = 0),
u AS (SELECT * FROM base UNION ALL SELECT * FROM delta),
m AS (SELECT *, row_number() OVER (PARTITION BY doc_id
                                   ORDER BY version DESC) AS rn FROM u)
SELECT doc_id, version, text FROM m WHERE rn = 1 AND NOT deleted
"""


# --- 31e2b. time-travel read over the version log ----------------------------


def q_time_travel(sf_dir: str):
    """Snapshot-as-of read over the upsert version log (the lakehouse
    time-travel feature): the same base + delta as ``upsert_merge`` but
    resolved AS OF version 2 — a map-side ``version ≤ 2`` filter in front
    of the identical latest-wins resolve, so v3 re-updates are invisible
    and v2 tombstones apply (ids divisible by 273, resurrected at v3 in
    the full merge, stay DELETED here).  Filter-then-resolve is the whole
    operator: the log is immutable, the snapshot is a view."""
    from searchengine_ray.stages.relational import upsert_merge

    docs = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    AS_OF = 2

    def as_base(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype(np.int64),
            "version": np.zeros(len(df), dtype=np.int64),
            "deleted": np.zeros(len(df), dtype=bool),
            "text": df["text"]})

    def derive_delta(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        txt = pd.Series(df["text"].to_numpy(), dtype=object)

        def rows(mask, id_off, version, text, deleted):
            n = int(mask.sum())
            return pd.DataFrame({
                "doc_id": ids[mask] + id_off,
                "version": np.full(n, version, dtype=np.int64),
                "deleted": np.full(n, deleted, dtype=bool),
                "text": text})

        m7, m13, m21, m17 = (ids % k == 0 for k in (7, 13, 21, 17))
        full = pd.concat([
            rows(m7, 0, 1, (txt[m7] + " rev2").to_numpy(), False),
            rows(m13, 0, 2, np.full(int(m13.sum()), "", dtype=object), True),
            rows(m21, 0, 3, (txt[m21] + " rev3").to_numpy(), False),
            rows(m17, 2_000_000, 1,
                 np.array([f"upsert doc {i}" for i in ids[m17]],
                          dtype=object), False),
        ], ignore_index=True)
        return full[full["version"] <= AS_OF].reset_index(drop=True)

    base = docs.map_batches(as_base, batch_format="pandas")
    delta = docs.map_batches(derive_delta, batch_format="pandas")
    return upsert_merge(base, delta, id_col="doc_id")


SQL_TIME_TRAVEL = """
WITH base AS (
  SELECT doc_id, CAST(0 AS BIGINT) AS version, FALSE AS deleted, text
  FROM documents),
delta AS (
  SELECT doc_id, CAST(1 AS BIGINT), FALSE, text || ' rev2'
  FROM documents WHERE doc_id % 7 = 0
  UNION ALL
  SELECT doc_id, CAST(2 AS BIGINT), TRUE, '' FROM documents
  WHERE doc_id % 13 = 0
  UNION ALL
  SELECT doc_id + 2000000, CAST(1 AS BIGINT), FALSE,
         'upsert doc ' || CAST(doc_id AS VARCHAR)
  FROM documents WHERE doc_id % 17 = 0),
-- the as-of filter: the v3 branch is simply absent from this delta
u AS (SELECT * FROM base UNION ALL SELECT * FROM delta),
m AS (SELECT *, row_number() OVER (PARTITION BY doc_id
                                   ORDER BY version DESC) AS rn FROM u)
SELECT doc_id, version, text FROM m WHERE rn = 1 AND NOT deleted
"""


# --- 31e3. small-file compaction (sources/compact.py) ------------------------

_COMPACT_DIR = "/tmp/graft_scratch/compact"


def q_compact_small_files(sf_dir: str):
    """Lakehouse OPTIMIZE round-trip: the documents table is written as
    ~48 small per-block files, compacted into ~1 MiB bin-packed files
    (one distributed rewrite task per group, driver holds only the
    listing), and the result aggregates FROM THE COMPACTED BYTES — so the
    gate proves the rewritten files, not the in-memory pipeline (the
    resumable_sink discipline).  File-count reduction, content equality
    and determinism are pinned by tests/test_compact.py."""
    import shutil

    from searchengine_ray.sources.compact import compact_files

    tag = sf_dir.rstrip("/").rsplit("/", 1)[-1]
    in_dir = f"{_COMPACT_DIR}/{tag}/in"
    out_dir = f"{_COMPACT_DIR}/{tag}/out"
    for d in (in_dir, out_dir):
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d, exist_ok=True)

    ds = _pq(sf_dir, "documents", columns=["doc_id", "source", "text"])
    ds.repartition(48).write_parquet(in_dir)
    compact_files(in_dir, out_dir, target_bytes=1 << 20)

    compacted = rd.read_parquet(out_dir)

    def project(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "source": df["source"],
            "doc_id": df["doc_id"].to_numpy(np.int64),
            "len": df["text"].str.len().to_numpy(np.int64)})

    return pre_aggregate(
        compacted.map_batches(project, batch_format="pandas"), ["source"],
        {"n_docs": (None, "count"), "sum_len": ("len", "sum"),
         "min_doc": ("doc_id", "min"), "max_doc": ("doc_id", "max")})


SQL_COMPACT_SMALL_FILES = """
SELECT source, count(*) AS n_docs,
       CAST(sum(length(text)) AS BIGINT) AS sum_len,
       min(doc_id) AS min_doc, max(doc_id) AS max_doc
FROM documents GROUP BY source
"""


# --- 31e4. Z-order layout (sources/layout.py) --------------------------------

_ZORDER_DIR = "/tmp/graft_scratch/zorder"


def q_zorder_layout(sf_dir: str):
    """Z-order clustering round-trip: events rewritten clustered by the
    Morton interleave of (user_id, value) with 2048-row row groups, then
    aggregated FROM THE WRITTEN BYTES — the gate proves the layout
    preserved every row; the 2-D box-pruning win over a single-column
    sort is measured in tests/test_layout.py."""
    import shutil

    from searchengine_ray.sources.layout import zorder_write

    tag = sf_dir.rstrip("/").rsplit("/", 1)[-1]
    out = f"{_ZORDER_DIR}/{tag}"
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out, exist_ok=True)

    ds = _pq(sf_dir, "events",
             columns=["event_id", "user_id", "event_type", "value"])
    zorder_write(ds, out, "user_id", "value", rows_per_group=2048)

    written = rd.read_parquet(out)

    def project(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": df["event_type"],
            "value": df["value"].to_numpy(np.float64),
            "event_id": df["event_id"].to_numpy(np.int64)})

    agg = pre_aggregate(
        written.map_batches(project, batch_format="pandas"),
        ["event_type"],
        {"n": (None, "count"), "sum_value": ("value", "sum"),
         "min_id": ("event_id", "min"), "max_id": ("event_id", "max")})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["sum_value"] = df["sum_value"].round(4)
        return df

    return agg.map_batches(finish, batch_format="pandas")


SQL_ZORDER_LAYOUT = """
SELECT event_type, count(*) AS n, round(sum(value), 4) AS sum_value,
       min(event_id) AS min_id, max(event_id) AS max_id
FROM events GROUP BY event_type
"""


# --- 31f. table profiling (stages/profile.py) --------------------------------


def q_value_histogram(sf_dir: str):
    """20-bin value histogram per event type (the distribution profile
    min/max can't show): global [lo, hi] from a scalar pass, map-side
    binify + per-batch combine, ONE pre-aggregate — shuffle carries
    ≤ groups × bins rows per batch (``stages/profile.grouped_histogram``)."""
    from searchengine_ray.stages.profile import grouped_histogram

    ds = _pq(sf_dir, "events", columns=["event_type", "value"])
    return grouped_histogram(ds, "event_type", "value", bins=20)


SQL_VALUE_HISTOGRAM = """
WITH s AS (SELECT min(value) AS lo, max(value) AS hi FROM events)
SELECT event_type,
       CAST(least(floor((value - lo) * 20.0 / (hi - lo)), 19) AS BIGINT)
         AS bin,
       count(*) AS n
FROM events, s GROUP BY event_type, bin
"""


def q_table_profile(sf_dir: str):
    """Per-column profile of lineitem (rows / nulls / distincts / typed
    min-max): counts and extremes from per-batch scalar partials; exact
    distincts from one (column, value-hash) co-shuffle."""
    from searchengine_ray.stages.profile import table_profile

    cols = ["l_quantity", "l_discount", "l_returnflag", "l_linestatus",
            "l_shipdate"]
    ds = _pq(sf_dir, "lineitem", columns=cols)
    return table_profile(ds, cols)


SQL_TABLE_PROFILE = """
SELECT 'l_quantity' AS column, count(*) AS n_rows,
       count(*) - count(l_quantity) AS n_null,
       count(DISTINCT l_quantity) AS n_distinct,
       CAST(min(l_quantity) AS VARCHAR) AS min_v,
       CAST(max(l_quantity) AS VARCHAR) AS max_v FROM lineitem
UNION ALL
SELECT 'l_discount', count(*), count(*) - count(l_discount),
       count(DISTINCT l_discount),
       CAST(min(l_discount) AS VARCHAR),
       CAST(max(l_discount) AS VARCHAR) FROM lineitem
UNION ALL
SELECT 'l_returnflag', count(*), count(*) - count(l_returnflag),
       count(DISTINCT l_returnflag),
       min(l_returnflag), max(l_returnflag) FROM lineitem
UNION ALL
SELECT 'l_linestatus', count(*), count(*) - count(l_linestatus),
       count(DISTINCT l_linestatus),
       min(l_linestatus), max(l_linestatus) FROM lineitem
UNION ALL
SELECT 'l_shipdate', count(*), count(*) - count(l_shipdate),
       count(DISTINCT l_shipdate),
       CAST(min(l_shipdate) AS VARCHAR),
       CAST(max(l_shipdate) AS VARCHAR) FROM lineitem
"""


# --- 31g. long-document chunking (stages/sampling.chunk_documents) ----------


def q_chunk_documents(sf_dir: str):
    """Overlapping token-window chunking (32-token chunks, 8-token
    overlap) — the long-document → context-window prep step; map-only."""
    from searchengine_ray.stages.sampling import chunk_documents

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    return chunk_documents(ds, chunk_tokens=32, overlap=8)


SQL_CHUNK_DOCUMENTS = """
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     t -> t <> '') AS ts
  FROM documents),
nn AS (SELECT doc_id, ts, len(ts) AS n FROM toks WHERE len(ts) > 0),
starts AS (SELECT doc_id, ts, n,
                  unnest(range(0, greatest(n - 8, 1), 24)) AS start
           FROM nn)
SELECT doc_id,
       start // 24 AS chunk_id,
       least(32, n - start) AS n_tokens,
       array_to_string(ts[start+1 : start+32], ' ') AS chunk
FROM starts
"""


# --- 31g2. vocabulary build + token-id encode (stages/text.py) --------------

def q_vocab_encode(sf_dir: str):
    """Frequency-ranked 256-token vocabulary + corpus id-encode (the
    tokenize-to-ids prep before training): counts through ONE
    ``pre_aggregate``, vocab via the two-level ``global_topk``, token→id
    broadcast once, encode map-only with one sorted-vocab searchsorted
    per batch; OOV → −1, ids rendered as the space-joined string both
    sides agree on.  See ``stages/text.vocab_encode``."""
    from searchengine_ray.stages.text import vocab_encode

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    _vocab, enc = vocab_encode(ds, vocab_size=256)
    return enc


SQL_VOCAB_ENCODE = """
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     t -> t <> '') AS ts
  FROM documents),
cnt AS (SELECT tok, count(*) AS n
        FROM (SELECT unnest(ts) AS tok FROM toks) GROUP BY tok),
v AS (SELECT tok, row_number() OVER (ORDER BY n DESC, tok) - 1 AS tid
      FROM cnt QUALIFY row_number() OVER (ORDER BY n DESC, tok) <= 256),
pos AS (SELECT doc_id, unnest(ts) AS tok,
               unnest(range(1, len(ts) + 1)) AS p
        FROM toks),
enc AS (SELECT pos.doc_id, CAST(count(*) AS BIGINT) AS n_tokens,
               string_agg(CAST(coalesce(v.tid, -1) AS VARCHAR),
                          ' ' ORDER BY pos.p) AS ids
        FROM pos LEFT JOIN v ON v.tok = pos.tok
        GROUP BY pos.doc_id)
SELECT t.doc_id, coalesce(e.n_tokens, 0) AS n_tokens,
       coalesce(e.ids, '') AS ids
FROM toks t LEFT JOIN enc e ON e.doc_id = t.doc_id
"""


# --- 31h. embedding-inference stage (stages/embed.py) -----------------------


def q_doc_embeddings(sf_dir: str):
    """Batched model inference over the corpus (deterministic stand-in
    model — feature hashing + fixed sinusoidal projection; the actor-pool
    plumbing, per-worker weight load and batch matmul are the real
    pattern).  SQL-gated: the whole model is expressible as
    sum-of-ords % 257 buckets and sin() weights."""
    from searchengine_ray.stages.embed import embed_documents

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    return embed_documents(ds)


SQL_DOC_EMBEDDINGS = """
WITH toks AS (
  SELECT doc_id,
         unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS tok
  FROM documents),
toks2 AS (SELECT * FROM toks WHERE tok <> ''),
b AS (SELECT doc_id,
             list_sum(list_transform(string_split(tok, ''),
                                     c -> unicode(c))) % 257 AS bucket
      FROM toks2)
SELECT doc_id, count(*) AS n_tokens,
       round(sum(sin(bucket*31 + 7)), 6) AS emb_0,
       round(sum(sin(bucket*31 + 14)), 6) AS emb_1,
       round(sum(sin(bucket*31 + 21)), 6) AS emb_2,
       round(sum(sin(bucket*31 + 28)), 6) AS emb_3
FROM b GROUP BY doc_id
"""


# --- 31b. resumable partitioned sink (sources/resumable.py) -----------------

_RESUMABLE_SINK_DIR = "/tmp/graft_scratch/resumable_docs"


def q_resumable_sink(sf_dir: str):
    """Partition-atomic sink round-trip: write the documents table as one
    atomic parquet directory per ``source`` (durable _SUCCESS marker per
    partition, manifest written LAST), then aggregate the result FROM
    DISK — so the gate proves the written bytes, not the in-memory
    pipeline.  Resume semantics (finished partitions skipped
    bit-identically after a mid-commit crash) are pinned by
    tests/test_resumable.py."""
    import shutil

    from searchengine_ray.sources.resumable import (
        resumable_read, resumable_write)

    ds = _pq(sf_dir, "documents", columns=["doc_id", "source", "text"])
    shutil.rmtree(_RESUMABLE_SINK_DIR, ignore_errors=True)
    resumable_write(ds, _RESUMABLE_SINK_DIR, "source", order_by=["doc_id"])

    back = resumable_read(_RESUMABLE_SINK_DIR)

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "source": df["source"],
            "n_chars": df["text"].str.len().astype(np.int64),
            "doc_id": df["doc_id"].astype(np.int64)})

    return pre_aggregate(
        back.map_batches(prep, batch_format="pandas"), ["source"],
        {"n_rows": (None, "count"), "sum_chars": ("n_chars", "sum"),
         "min_doc": ("doc_id", "min"), "max_doc": ("doc_id", "max")})


SQL_RESUMABLE_SINK = """
SELECT source,
       CAST(count(*) AS BIGINT) AS n_rows,
       CAST(sum(length(text)) AS BIGINT) AS sum_chars,
       CAST(min(doc_id) AS BIGINT) AS min_doc,
       CAST(max(doc_id) AS BIGINT) AS max_doc
FROM documents
GROUP BY source
"""


# --- 32. BPE tokenizer training + token stats (functions/bpe.py) ------------


def q_bpe_stats(sf_dir: str):
    """Train 64 BPE merges on the corpus (one word-count pre_aggregate; the
    merge loop runs on the vocabulary-bounded distinct-word table), then
    encode map-only and report per-doc (n_words, n_bpe_tokens).  Non-SQL-
    expressible (iterative merge learning) → rows-only; the algorithm is
    pinned by tests/test_bpe_train.py against an independent reference
    implementation and the Sennrich et al. worked example."""
    from searchengine_ray.stages.text import bpe_token_stats, bpe_train

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    merges = bpe_train(ds, num_merges=64)
    return bpe_token_stats(ds, merges)


# --- 39a1. watermark / late-data accounting ------------------------------------

def q_late_data(sf_dir: str):
    """Allowed-lateness accounting (Dataflow model): each event ARRIVES at
    ``ts + ingestion delay`` where the delay is a deterministic per-event
    hash, 0–8 h in 5-min steps (testdata's event_id order IS time order,
    so a synthetic bounded delay is what makes the late path non-vacuous
    at every sf — verified 15-45%% late).  The watermark is the running
    max event time in arrival order; an event is late when its own time
    falls more than 4 h behind it.  Per event-time day: (n_events,
    n_late).  See ``stages/sessions.late_data_stats`` for the distributed
    global prefix-max shape (range buckets → O(B) driver prefix → one
    co-shuffle).  Integer-µs arithmetic throughout — exact oracle parity."""
    import numpy as np
    import pandas as pd

    from searchengine_ray.stages.sessions import late_data_stats

    def arrive(df: pd.DataFrame) -> pd.DataFrame:
        eid = df["event_id"].to_numpy(np.int64)
        ts = df["ts"].astype("datetime64[us]").astype(np.int64)
        delay = (eid * np.int64(2654435761)) % np.int64(97) \
            * np.int64(300_000_000)
        return pd.DataFrame({"event_id": eid, "ak": ts + delay, "ts": df["ts"]})

    ds = (_pq(sf_dir, "events", columns=["event_id", "ts"])
          .map_batches(arrive, batch_format="pandas"))
    return late_data_stats(ds, lateness_us=14_400_000_000,
                           order_col="ak", tiebreak_col="event_id")


SQL_LATE_DATA = """
WITH e AS (SELECT event_id, epoch_us(ts) AS ts_us,
                  epoch_us(ts) + ((event_id * 2654435761) % 97) * 300000000
                      AS ak
           FROM events),
w AS (SELECT ts_us,
             max(ts_us) OVER (ORDER BY ak, event_id
                              ROWS BETWEEN UNBOUNDED PRECEDING
                              AND 1 PRECEDING) AS wm
      FROM e)
SELECT ts_us // 86400000000 AS day,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CASE WHEN wm IS NOT NULL AND ts_us < wm - 14400000000
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_late
FROM w GROUP BY day
"""


# --- 39a2. grouped z-score outlier detection ----------------------------------

def q_zscore_outliers(sf_dir: str):
    """Per-group standardization + outlier emit (the data-cleaning /
    feature-scaling pass): z = (q − mean_g)/std_g over int64-cast
    quantities, keep |z| > 1.6 (binds at every scale: ~8% of rows).
    EXACT oracle parity with no rounding margin: moments are integer
    sums (one ``pre_aggregate`` → O(groups) driver table, broadcast),
    and mean/var/z use only division and sqrt — both correctly-rounded
    IEEE — in the identical operation order as the SQL, so the filter
    boundary cannot flip.  Map-only after the moments pass."""
    import ray

    ds = _pq(sf_dir, "lineitem",
             columns=["l_orderkey", "l_linenumber", "l_returnflag",
                      "l_quantity"])

    def to_int(df: pd.DataFrame) -> pd.DataFrame:
        q = df["l_quantity"].to_numpy(np.float64).astype(np.int64)
        out = pd.DataFrame({"l_orderkey": df["l_orderkey"].to_numpy(np.int64),
                            "l_linenumber":
                                df["l_linenumber"].to_numpy(np.int64),
                            "l_returnflag": df["l_returnflag"].to_numpy(),
                            "q": q, "ssq": q * q})
        return out

    base = ds.map_batches(to_int, batch_format="pandas")
    stats = pre_aggregate(base, ["l_returnflag"],
                          {"n": (None, "count"), "s": ("q", "sum"),
                           "ssq": ("ssq", "sum")}).to_pandas()  # O(groups)
    mean = stats["s"].to_numpy(np.int64).astype(np.float64) \
        / stats["n"].to_numpy(np.int64)
    ex2 = stats["ssq"].to_numpy(np.int64).astype(np.float64) \
        / stats["n"].to_numpy(np.int64)
    std = np.sqrt(ex2 - mean * mean)
    mtbl = {f: (m, sd) for f, m, sd in zip(stats["l_returnflag"], mean, std)}
    mref = ray.put(mtbl)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        t = ray.get(mref)
        m = np.array([t[f][0] for f in df["l_returnflag"]])
        sd = np.array([t[f][1] for f in df["l_returnflag"]])
        z = (df["q"].to_numpy(np.int64).astype(np.float64) - m) / sd
        keep = np.abs(z) > 1.6
        out = df.loc[keep, ["l_orderkey", "l_linenumber", "l_returnflag",
                            "q"]].copy()
        out["z"] = np.round(z[keep], 6)
        return out

    return base.map_batches(score, batch_format="pandas")


SQL_ZSCORE_OUTLIERS = """
WITH l AS (SELECT l_orderkey, l_linenumber,
                  l_returnflag, CAST(l_quantity AS BIGINT) AS q
           FROM lineitem),
st AS (SELECT l_returnflag, count(*) AS n, sum(q) AS s, sum(q*q) AS ssq
       FROM l GROUP BY l_returnflag),
z AS (SELECT l.l_orderkey, l.l_linenumber, l.l_returnflag, l.q,
             (CAST(l.q AS DOUBLE) - CAST(st.s AS DOUBLE)/st.n)
             / sqrt(CAST(st.ssq AS DOUBLE)/st.n
                    - (CAST(st.s AS DOUBLE)/st.n)
                      * (CAST(st.s AS DOUBLE)/st.n)) AS z
      FROM l JOIN st USING (l_returnflag))
SELECT l_orderkey, CAST(l_linenumber AS BIGINT) AS l_linenumber,
       l_returnflag, q, round(z, 6) AS z
FROM z WHERE abs(z) > 1.6
"""


# --- 39a3. time-series gap fill (date spine) -----------------------------------

def q_gap_fill_daily(sf_dir: str):
    """Per-user daily counts densified with explicit zero rows over each
    user's [first, last] activity span — see
    ``stages/sessions.gap_fill_daily`` for the scale shape (events
    reduce to O(user-days) BEFORE the one co-shuffle; the spine kernel
    is a segmented repeat/arange explode + composite-key searchsorted,
    no per-user Python)."""
    from searchengine_ray.stages.sessions import gap_fill_daily

    ds = _pq(sf_dir, "events", columns=["user_id", "ts"])
    return gap_fill_daily(ds)


SQL_GAP_FILL_DAILY = """
WITH d AS (SELECT user_id, epoch_us(ts) // 86400000000 AS day,
                  count(*) AS n_events
           FROM events GROUP BY user_id, day),
spans AS (SELECT user_id, min(day) AS lo, max(day) AS hi FROM d
          GROUP BY user_id),
spine AS (SELECT user_id, unnest(generate_series(lo, hi)) AS day
          FROM spans)
SELECT s.user_id, s.day,
       CAST(coalesce(d.n_events, 0) AS BIGINT) AS n_events
FROM spine s LEFT JOIN d USING (user_id, day)
"""


# --- 39b. temperature-based language re-balancing -----------------------------

def q_temperature_mix(sf_dir: str):
    """Multilingual temperature sampling (XLM-R / mT5, α=0.5): per-lang
    keep rate sqrt(min_n/n_lang) DERIVED from the corpus (one O(langs)
    pre_aggregate), thresholds broadcast, corpus filters map-only.  The
    lang skew in testdata (en ≈ 3× de) makes the rates bind at every
    scale.  See ``stages/sampling.temperature_mix`` for why α=0.5 is the
    exactly-SQL-mirrorable exponent."""
    from searchengine_ray.stages import sampling

    ds = _pq(sf_dir, "documents", columns=["doc_id", "lang"])
    return sampling.temperature_mix(ds, "doc_id", "lang", "temp42")


SQL_TEMPERATURE_MIX = """
WITH c AS (SELECT lang, count(*) AS n FROM documents GROUP BY lang),
m AS (SELECT min(n) AS mn FROM c),
thr AS (SELECT lang,
               CASE WHEN n = m.mn THEN 'g'
                    ELSE lpad(lower(to_hex(CAST(floor(
                           sqrt(CAST(m.mn AS DOUBLE) / n)
                           * 281474976710656) AS BIGINT))), 12, '0')
               END AS t
        FROM c, m)
SELECT d.doc_id, d.lang
FROM documents d JOIN thr USING (lang)
WHERE substr(sha256(CAST(d.doc_id AS VARCHAR) || ':temp42'), 1, 12) < thr.t
"""


# --- 40. anchor-text aggregation over the link graph -------------------------

def anchor_text_weights(docs, n_docs: int, k: int = 300) -> pd.DataFrame:
    """Per-target anchor-token weights over the closed deterministic doc
    graph (same edges as pagerank/triangles: dst = (src·31+j) % n,
    j ∈ {1,2,3}, self-loops dropped).  Anchor text of every outlink =
    the source doc's first two tokens — the signal a web indexer folds
    into the TARGET page's postings (Brin & Page 1998 §2.2; the
    reference extracts links, index_construction.py:125-137, but never
    aggregates anchors).

    Scale shape: everything before the final top-k is map-side — edges,
    out-degree (derivable per row: outdeg = #non-self outlinks) and
    anchors need no join at all, so the only all-to-all is ONE
    ``pre_aggregate`` on (dst, token).  Weights are INTEGER 6//outdeg
    (outdeg ≤ 3 ⇒ exact), so partial-sum order cannot move a ulp."""
    from searchengine_ray.stages.relational import global_topk

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        dsts, toks, ws = [], [], []
        for src, text in zip(df["doc_id"].to_numpy(np.int64), df["text"]):
            cand = [(src * 31 + j) % n_docs for j in (1, 2, 3)]
            cand = [d for d in cand if d != src]
            if not cand:
                continue
            anchors = text_stage.simple_tokens(text or "")[:2]
            if not anchors:
                continue
            w = 6 // len(cand)
            for t in anchors:
                for d in cand:
                    dsts.append(d)
                    toks.append(t)
                    ws.append(w)
        out = pd.DataFrame({"dst": np.asarray(dsts, dtype=np.int64),
                            "token": toks,
                            "w": np.asarray(ws, dtype=np.int64)})
        # per-batch combine before the all-to-all
        return out.groupby(["dst", "token"], sort=False,
                           as_index=False)["w"].sum()

    exploded = docs.map_batches(explode, batch_format="pandas",
                                batch_size=2048)
    agg = pre_aggregate(exploded, ["dst", "token"], {"w": ("w", "sum")})
    return global_topk(agg, ["w", "dst", "token"], [False, True, True], k)


def q_anchor_texts(sf_dir: str):
    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    return anchor_text_weights(ds, ds.count(), k=300)


SQL_ANCHOR_TEXTS = """
WITH n AS (SELECT count(*) AS cnt FROM documents),
e AS (SELECT doc_id AS src, (doc_id*31 + j.j) % n.cnt AS dst
      FROM documents, n, (VALUES (1), (2), (3)) AS j(j)
      WHERE doc_id <> (doc_id*31 + j.j) % n.cnt),
deg AS (SELECT src, count(*) AS d FROM e GROUP BY src),
anch AS (SELECT doc_id AS src,
                unnest(list_filter(regexp_split_to_array(lower(text),
                       '[^a-z0-9]+'), x -> x <> '')[1:2]) AS token
         FROM documents)
SELECT e.dst, anch.token, CAST(sum(6 // deg.d) AS BIGINT) AS w
FROM e JOIN deg USING (src) JOIN anch USING (src)
GROUP BY e.dst, anch.token
ORDER BY w DESC, dst, token LIMIT 300
"""


# --- 41. compressed posting lists (delta+varint) ------------------------------

def q_postings_codec(sf_dir: str):
    """Gap+varint-compressed posting blobs (Lucene VInt / "Managing
    Gigabytes" §3 — the layout the reference's pickled-dict index,
    idxer.py:147-164, never had), gated END TO END: encode (one token
    co-shuffle, vectorized byte-plane kernel) → persist to parquet →
    re-read → DECODE, with every output column recomputed from the
    decoded bytes.  The oracle computes df / sum(doc_id) from the raw
    corpus and the exact per-token byte count from the gap widths
    (CASE ladder on 128^k — covers doc_id < 2^28; the engine kernel
    itself handles 63 bits), so a single wrong byte anywhere in the
    codec flips the hash.  Measured ~8× smaller than 8-byte fixed ids
    at sf0.01."""
    import tempfile

    from searchengine_ray.stages.postings_codec import (
        decode_summary, encode_postings)

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    pairs = text_stage.doc_term_counts(ds, mode="simple").select_columns(
        ["token", "doc_id"])
    scratch = tempfile.mkdtemp(prefix="graft_postings_codec_")
    encode_postings(pairs).write_parquet(scratch)
    return decode_summary(rd.read_parquet(scratch))


SQL_POSTINGS_CODEC = """
WITH toks2 AS (SELECT DISTINCT doc_id, token FROM
    (SELECT doc_id, unnest(regexp_split_to_array(lower(text),
            '[^a-z0-9]+')) AS token FROM documents)
    WHERE token <> ''),
g AS (SELECT token, doc_id,
             doc_id - lag(doc_id) OVER (PARTITION BY token
                                        ORDER BY doc_id) AS gap
      FROM toks2),
g2 AS (SELECT token, doc_id, coalesce(gap, doc_id) AS v FROM g)
SELECT token, CAST(count(*) AS BIGINT) AS df,
       CAST(sum(doc_id) AS BIGINT) AS sum_doc_id,
       CAST(sum(CASE WHEN v < 128 THEN 1 WHEN v < 16384 THEN 2
                     WHEN v < 2097152 THEN 3 WHEN v < 268435456 THEN 4
                     ELSE 5 END) AS BIGINT) AS n_bytes
FROM g2 GROUP BY token
"""


# --- 42. bigram PMI collocations ---------------------------------------------

def q_collocations(sf_dir: str):
    """Top-100 adjacent-pair collocations by PMI (Church & Hanks 1990)
    with n_pair ≥ 5 (threshold binds at every test scale: 16/16/4 pairs
    excluded at sf0.001/0.01/0.1) — the phrase-discovery pass before
    tokenizer training.  See ``stages/collocations.py`` for the scale
    shape (two pre-aggregates + broadcast-or-join unigram attach) and
    the ln-of-integer-ratio numeric contract."""
    from searchengine_ray.stages.collocations import bigram_pmi

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    return bigram_pmi(ds, min_count=5, k=100)


SQL_COLLOCATIONS = """
WITH toks AS (SELECT doc_id,
                     list_filter(regexp_split_to_array(lower(text),
                       '[^a-z0-9]+'), x -> x <> '') AS l
              FROM documents),
ucnt AS (SELECT token, count(*) AS c
         FROM (SELECT unnest(l) AS token FROM toks) GROUP BY token),
bg AS (SELECT unnest(l[1:len(l)-1]) AS a, unnest(l[2:len(l)]) AS b
       FROM toks WHERE len(l) >= 2),
bcnt AS (SELECT a, b, count(*) AS n FROM bg GROUP BY a, b),
nb AS (SELECT count(*) AS n FROM bg)
SELECT a AS tok_a, b AS tok_b, CAST(bcnt.n AS BIGINT) AS n_pair,
       round(ln(CAST(nb.n * bcnt.n AS DOUBLE) / (ca.c * cb.c)), 6) AS pmi
FROM bcnt JOIN ucnt ca ON ca.token = bcnt.a
          JOIN ucnt cb ON cb.token = bcnt.b, nb
WHERE bcnt.n >= 5
ORDER BY pmi DESC, tok_a, tok_b LIMIT 100
"""


# --- 43. long→wide pivot (per-entity feature matrix) -------------------------

_PIVOT_CATS = ["click", "error", "purchase", "signup", "view"]


def q_event_type_pivot(sf_dir: str):
    """Per-user wide feature matrix from the event log — (sum, count) of
    value per event type, zero-filled: the feature-store reshape.  The
    pivot happens MAP-SIDE (one partial row per user per batch, 2×C
    fixed-width columns); the only all-to-all is the O(users)
    ``pre_aggregate`` — see ``stages/relational.pivot_wide``.  Sums
    round to 2 (the ``pricing_summary`` discipline: engine partials and
    the oracle's sequential sum differ only in ~1e-10 association
    noise)."""
    from searchengine_ray.stages.relational import pivot_wide

    ds = _pq(sf_dir, "events", columns=["user_id", "event_type", "value"])
    wide = pivot_wide(ds, "user_id", "event_type", "value", _PIVOT_CATS)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        for c in _PIVOT_CATS:
            df[f"{c}_sum"] = np.round(df[f"{c}_sum"].to_numpy(np.float64), 2)
        return df

    return wide.map_batches(finish, batch_format="pandas")


SQL_EVENT_TYPE_PIVOT = f"""
SELECT user_id,
       {', '.join(
           f"round(sum(CASE WHEN event_type = '{c}' THEN value ELSE 0 END), 2)"
           f" AS {c}_sum, "
           f"CAST(count(CASE WHEN event_type = '{c}' THEN 1 END) AS BIGINT)"
           f" AS {c}_cnt" for c in _PIVOT_CATS)}
FROM events GROUP BY user_id
"""


# --- Gopher document-quality rules (Rae et al. 2021, Table A1 subset) -------

# the Gopher quality filter's stop list (Rae et al. 2021) — the one source for
# the kernel and the SQL oracle
_GOPHER_STOP = ("the", "be", "to", "of", "and", "that", "have", "with")


def q_gopher_rules(sf_dir: str):
    """Composite Gopher document-quality filter (Rae et al. 2021,
    arXiv:2112.11446 Table A1 subset) — the named rule battery every
    LLM-corpus pipeline runs before training: word count in [50, 100000],
    mean word length in [3, 10], bullet-started lines <= 90%, "..."-ended
    lines <= 30%, >= 80% of words contain a letter, >= 2 of the eight
    Gopher stopwords (``_GOPHER_STOP``).  Emits one row per doc with each rule verdict and the AND
    (`keep`).

    Every rule is evaluated in INTEGER arithmetic on both sides
    (3n <= sum_len <= 10n, 10·bullets <= 9·lines, 5·alpha >= 4·words, …)
    so no float comparison can straddle a boundary differently in numpy
    vs DuckDB.  Map-only — zero shuffles at any corpus size; the same
    space-split word convention as text_features (SQL string_split).
    The line rules are structurally exercised but vacuous on this
    single-line corpus — their bite is pinned by the planted-fixture
    pytest (tests/test_gopher_rules.py)."""
    import re as _re

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    alpha_re = _re.compile(r"[a-zA-Z]")

    def rules(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for doc_id, text in zip(df["doc_id"].to_numpy(np.int64),
                                df["text"]):
            words = [w for w in text.split(" ") if w]
            n = len(words)
            sum_len = sum(len(w) for w in words)
            lines = text.split("\n")
            nl = len(lines)
            n_bul = sum(1 for ln in lines
                        if ln.startswith("- ") or ln.startswith("\u2022 "))
            n_ell = sum(1 for ln in lines if ln.endswith("..."))
            n_alpha = sum(1 for w in words if alpha_re.search(w))
            n_stop = sum(1 for w in words if w.lower() in _GOPHER_STOP)
            r_words = 50 <= n <= 100_000
            r_mean = n > 0 and (3 * n <= sum_len <= 10 * n)
            r_bul = 10 * n_bul <= 9 * nl
            r_ell = 10 * n_ell <= 3 * nl
            r_alpha = 5 * n_alpha >= 4 * n
            r_stop = n_stop >= 2
            keep = (r_words and r_mean and r_bul and r_ell
                    and r_alpha and r_stop)
            rows.append((doc_id, n, int(r_words), int(r_mean), int(r_bul),
                         int(r_ell), int(r_alpha), int(r_stop), int(keep)))
        out = pd.DataFrame(rows, columns=[
            "doc_id", "n_words", "r_words", "r_meanlen", "r_bullets",
            "r_ellipsis", "r_alpha", "r_stop", "keep"])
        return out.astype(np.int64)

    return ds.map_batches(rules, batch_format="pandas", batch_size=1024)


SQL_GOPHER_RULES = rf"""
WITH base AS (
  SELECT doc_id,
         list_filter(string_split(text, ' '), w -> w <> '') AS words,
         string_split(text, chr(10)) AS lines
  FROM documents),
m AS (
  SELECT doc_id,
         len(words) AS n,
         COALESCE(list_aggregate(list_transform(words, w -> length(w)),
                                 'sum'), 0) AS sum_len,
         len(lines) AS nl,
         len(list_filter(lines, l -> starts_with(l, '- ')
                                   OR starts_with(l, chr(8226) || ' ')))
             AS n_bul,
         len(list_filter(lines, l -> ends_with(l, '...'))) AS n_ell,
         len(list_filter(words, w -> regexp_matches(w, '[a-zA-Z]')))
             AS n_alpha,
         len(list_filter(words, w -> lower(w) IN
             ({", ".join(f"'{w}'" for w in _GOPHER_STOP)})))
             AS n_stop
  FROM base)
SELECT doc_id, CAST(n AS BIGINT) AS n_words,
       CAST(n BETWEEN 50 AND 100000 AS BIGINT) AS r_words,
       CAST(n > 0 AND 3 * n <= sum_len AND sum_len <= 10 * n AS BIGINT)
           AS r_meanlen,
       CAST(10 * n_bul <= 9 * nl AS BIGINT) AS r_bullets,
       CAST(10 * n_ell <= 3 * nl AS BIGINT) AS r_ellipsis,
       CAST(5 * n_alpha >= 4 * n AS BIGINT) AS r_alpha,
       CAST(n_stop >= 2 AS BIGINT) AS r_stop,
       CAST((n BETWEEN 50 AND 100000)
            AND (n > 0 AND 3 * n <= sum_len AND sum_len <= 10 * n)
            AND 10 * n_bul <= 9 * nl AND 10 * n_ell <= 3 * nl
            AND 5 * n_alpha >= 4 * n AND n_stop >= 2 AS BIGINT) AS keep
FROM m
"""


QUERIES = {
    # ORDER IS THE CERTIFICATION ROTATION: the driver's CORRECTNESS gate
    # checks the first ~50 entries: SQL-gated entries never driver-green in
    # CORRECTNESS_r01..r05 first, then the other SQL-gated ones, and the
    # rows-only entries (no ORACLE_SQL, so never certified) last.
    # ORACLE_SQL below is name-keyed; its order is irrelevant.
    "docs_cube": q_docs_cube,
    "knn_ivf_insert": q_knn_ivf_insert,
    "image_rot_neardup": q_image_rot_neardup,
    "image_multimodal_clusters": q_image_multimodal_clusters,
    "training_corpus": q_training_corpus,
    "redact_entities": q_redact_entities,
    "quantile_filter": q_quantile_filter,
    "repetition_stats": q_repetition_stats,
    "dup_window_stats": q_dup_window_stats,
    "remove_dup_spans": q_remove_dup_spans,
    "lm_perplexity": q_lm_perplexity,
    "corpus_refresh": q_corpus_refresh,
    "image_aspect_buckets": q_image_aspect_buckets,
    "lm_quality_buckets": q_lm_quality_buckets,
    "event_value_bands": q_event_value_bands,
    "domain_quality_filter": q_domain_quality_filter,
    "bm25_compressed": q_bm25_compressed,
    "rolling_active_users": q_rolling_active_users,
    "item_transitions": q_item_transitions,
    "value_histogram": q_value_histogram,
    "skew_join": q_skew_join,
    "user_trend": q_user_trend,
    "stream_join": q_stream_join,
    "interval_join": q_interval_join,
    "jsonl_ingest": q_jsonl_ingest,
    "bloom_join": q_bloom_join,
    "token_drift": q_token_drift,
    "late_data": q_late_data,
    "zscore_outliers": q_zscore_outliers,
    "gap_fill_daily": q_gap_fill_daily,
    "anchor_texts": q_anchor_texts,
    "postings_codec": q_postings_codec,
    "collocations": q_collocations,
    "covisit_pairs": q_covisit_pairs,
    "decayed_engagement": q_decayed_engagement,
    "quantile_normalize": q_quantile_normalize,
    "throttle_dedup": q_throttle_dedup,
    "data_quality": q_data_quality,
    "locf_impute": q_locf_impute,
    "target_encode": q_target_encode,
    "ab_experiment": q_ab_experiment,
    "label_centroids": q_label_centroids,
    "funnel_stages": q_funnel_stages,
    "table_profile": q_table_profile,
    "chunk_documents": q_chunk_documents,
    "doc_embeddings": q_doc_embeddings,
    "vocab_encode": q_vocab_encode,
    "gopher_rules": q_gopher_rules,
    "knn_pq": q_knn_pq,
    "knn_ivfpq": q_knn_ivfpq,
    "graph_communities": q_graph_communities,
    "pagerank": q_pagerank,
    "graph_bfs": q_graph_bfs,
    "graph_features": q_graph_features,
    "triangle_count": q_triangle_count,
    "schema_evolution": q_schema_evolution,
    "mv_refresh": q_mv_refresh,
    "ts_codec": q_ts_codec,
    "winsorize": q_winsorize,
    "mad_outliers": q_mad_outliers,
    "audio_stats": q_audio_stats,
    "audio_fingerprint_neardup": q_audio_fingerprint_neardup,
    "audio_pipeline": q_audio_pipeline,
    "video_stats": q_video_stats,
    "video_neardup": q_video_neardup,
    "video_aligned_neardup": q_video_aligned_neardup,
    "video_pipeline": q_video_pipeline,
    "split_assign": q_split_assign,
    "stratified_sample": q_stratified_sample,
    "weighted_mix": q_weighted_mix,
    "epoch_mix": q_epoch_mix,
    "weighted_sample": q_weighted_sample,
    "join_sample": q_join_sample,
    "pack_sequences": q_pack_sequences,
    "global_shuffle": q_global_shuffle,
    "grouped_split": q_grouped_split,
    "temperature_mix": q_temperature_mix,
    "upsert_merge": q_upsert_merge,
    "compact_small_files": q_compact_small_files,
    "zorder_layout": q_zorder_layout,
    "time_travel": q_time_travel,
    "snapshot_diff": q_snapshot_diff,
    "resumable_sink": q_resumable_sink,
    "token_freq_cms": q_token_freq_cms,
    "mmr_rerank": q_mmr_rerank,
    "decontaminate": q_decontaminate,
    "fuzzy_decontaminate": q_fuzzy_decontaminate,
    "index_merge": q_index_merge,
    "bm25_search": q_bm25_search,
    "hybrid_search": q_hybrid_search,
    "phrase_search": q_phrase_search,
    "k_anonymize": q_k_anonymize,
    "dp_counts": q_dp_counts,
    "remove_boilerplate": q_remove_boilerplate,
    "caption_alignment": q_caption_alignment,
    "retention_cohorts": q_retention_cohorts,
    "cusum_changepoint": q_cusum_changepoint,
    "pricing_summary": q_pricing_summary,
    "top_orders": q_top_orders,
    "customers_per_region": q_customers_per_region,
    "revenue_per_priority": q_revenue_per_priority,
    "top_events_per_user": q_top_events_per_user,
    "distinct_users_by_type": q_distinct_users_by_type,
    "ngram_jaccard": q_ngram_jaccard,
    "ngram_containment": q_ngram_containment,
    "events_last_order": q_events_last_order,
    "parts_by_brand": q_parts_by_brand,
    "props_k_stats": q_props_k_stats,
    "events_by_type": q_events_by_type,
    "event_type_pivot": q_event_type_pivot,
    "events_user_daily": q_events_user_daily,
    "sessionize": q_sessionize,
    "dedup_exact": q_dedup_exact,
    "token_df": q_token_df,
    "token_topk_freq": q_token_topk_freq,
    "heavy_tokens": q_heavy_tokens,
    "tfidf_top": q_tfidf_top,
    "lang_count": q_lang_count,
    "token_counts": q_token_counts,
    "knn_bruteforce": q_knn_bruteforce,
    "knn_multi": q_knn_multi,
    "url_canon": q_url_canon,
    "boolean_search": q_boolean_search,
    "index_stats": q_index_stats,
    "text_features": q_text_features,
    "image_pipeline": q_image_pipeline,
    "minhash_pairs": q_minhash_pairs,
    "ppjoin_pairs": q_ppjoin_pairs,
    "title_edit_neardup": q_title_edit_neardup,
    "record_linkage": q_record_linkage,
    "incremental_neardup": q_incremental_neardup,
    "simhash_pairs": q_simhash_pairs,
    "fingerprint_neardup": q_fingerprint_neardup,
    "neardup_clusters": q_neardup_clusters,
    "neardup_survivors": q_neardup_survivors,
    "embedding_neardup": q_embedding_neardup,
    "semantic_dedup": q_semantic_dedup,
    "semantic_survivors": q_semantic_survivors,
    "kmeans_clusters": q_kmeans_clusters,
    "dsir_select": q_dsir_select,
    "cluster_sample": q_cluster_sample,
    "pca_project": q_pca_project,
    "customers_no_urgent": q_customers_no_urgent,
    "orders_rollup": q_orders_rollup,
    "dedup_keep_best": q_dedup_keep_best,
    "user_running_total": q_user_running_total,
    "event_value_quantiles": q_event_value_quantiles,
    "events_sliding_1h": q_events_sliding_1h,
    "knn_ivf": q_knn_ivf,
    "image_phash_neardup": q_image_phash_neardup,
    "image_stats": q_image_stats,
    "image_multimodal_neardup": q_image_multimodal_neardup,
    "bpe_stats": q_bpe_stats,
    "distinct_users_hll": q_distinct_users_hll,
    "crawl_bfs": q_crawl_bfs,
    "event_value_quantiles_sketch": q_event_value_quantiles_sketch,
}

ORACLE_SQL = {
    "pricing_summary": SQL_PRICING,
    "top_orders": SQL_TOP_ORDERS,
    "customers_per_region": SQL_CUSTOMERS_PER_REGION,
    "revenue_per_priority": SQL_REVENUE_PER_PRIORITY,
    "top_events_per_user": SQL_TOP_EVENTS_PER_USER,
    "distinct_users_by_type": SQL_DISTINCT_USERS,
    "ngram_jaccard": SQL_NGRAM_JACCARD,
    "ngram_containment": SQL_NGRAM_CONTAINMENT,
    "events_last_order": SQL_EVENTS_LAST_ORDER,
    "parts_by_brand": SQL_PARTS_BY_BRAND,
    "props_k_stats": SQL_PROPS_K_STATS,
    "events_by_type": SQL_EVENTS_BY_TYPE,
    "event_type_pivot": SQL_EVENT_TYPE_PIVOT,
    "events_user_daily": SQL_EVENTS_USER_DAILY,
    "sessionize": SQL_SESSIONIZE,
    "dedup_exact": SQL_DEDUP_EXACT,
    "token_df": SQL_TOKEN_DF,
    "token_topk_freq": SQL_TOKEN_TOPK_FREQ,
    # approximate op gated via its OWN guarantee: the oracle recomputes the
    # exact top-20, joins the engine-persisted estimates and keeps rows only
    # inside the one-sided ε-bound (est >= exact, est-exact <= ceil(4e·N/w))
    "token_freq_cms": SQL_TOKEN_FREQ_CMS,
    "heavy_tokens": SQL_HEAVY_TOKENS,
    "tfidf_top": SQL_TFIDF_TOP,
    "lang_count": SQL_LANG_COUNT,
    "token_counts": SQL_TOKEN_COUNTS,
    "knn_bruteforce": SQL_KNN,
    "knn_multi": SQL_KNN_MULTI,
    # iterative greedy gated by unrolling: k=10 generated argmax CTE rounds
    # over the engine-persisted rel/sim doubles (see _mmr_unrolled_sql)
    "mmr_rerank": SQL_MMR_RERANK,
    "url_canon": SQL_URL_CANON,
    "boolean_search": SQL_BOOLEAN_SEARCH,
    "index_stats": SQL_INDEX_STATS,
    "text_features": SQL_TEXT_FEATURES,
    "minhash_pairs": SQL_MINHASH_PAIRS,
    "ppjoin_pairs": SQL_MINHASH_PAIRS,
    "title_edit_neardup": SQL_TITLE_EDIT_NEARDUP,
    "record_linkage": SQL_RECORD_LINKAGE,
    "incremental_neardup": SQL_INCREMENTAL_NEARDUP,
    "embedding_neardup": SQL_EMBEDDING_NEARDUP,
    "semantic_dedup": SQL_SEMANTIC_DEDUP,
    "semantic_survivors": SQL_SEMANTIC_SURVIVORS,
    "kmeans_clusters": SQL_KMEANS_CLUSTERS,
    "dsir_select": SQL_DSIR_SELECT,
    "cluster_sample": SQL_CLUSTER_SAMPLE,
    "pca_project": SQL_PCA_PROJECT,
    "customers_no_urgent": SQL_CUSTOMERS_NO_URGENT,
    "orders_rollup": SQL_ORDERS_ROLLUP,
    "docs_cube": SQL_DOCS_CUBE,
    "dedup_keep_best": SQL_DEDUP_KEEP_BEST,
    "user_running_total": SQL_USER_RUNNING_TOTAL,
    "event_value_quantiles": SQL_EVENT_VALUE_QUANTILES,
    "events_sliding_1h": SQL_EVENTS_SLIDING_1H,
    "knn_ivf": SQL_KNN,
    "knn_ivf_insert": SQL_KNN,
    "simhash_pairs": SQL_SIMHASH_PAIRS,
    "fingerprint_neardup": SQL_FINGERPRINT_NEARDUP,
    "neardup_clusters": SQL_NEARDUP_CLUSTERS,
    "neardup_survivors": SQL_NEARDUP_SURVIVORS,
    "image_pipeline": SQL_IMAGE_PIPELINE,
    "image_phash_neardup": SQL_IMAGE_PHASH_NEARDUP,
    "image_rot_neardup": SQL_IMAGE_ROT_NEARDUP,
    "image_stats": SQL_IMAGE_STATS,
    "image_multimodal_neardup": SQL_IMAGE_MULTIMODAL_NEARDUP,
    "image_multimodal_clusters": SQL_IMAGE_MM_CLUSTERS,
    "caption_alignment": SQL_CAPTION_ALIGNMENT,
    "audio_stats": SQL_AUDIO_STATS,
    "audio_fingerprint_neardup": SQL_AUDIO_FP_NEARDUP,
    "audio_pipeline": SQL_AUDIO_PIPELINE,
    "video_stats": SQL_VIDEO_STATS,
    "video_neardup": SQL_VIDEO_NEARDUP,
    "video_aligned_neardup": SQL_VIDEO_ALIGNED_NEARDUP,
    "video_pipeline": SQL_VIDEO_PIPELINE,
    "split_assign": SQL_SPLIT_ASSIGN,
    "stratified_sample": SQL_STRATIFIED_SAMPLE,
    "weighted_mix": SQL_WEIGHTED_MIX,
    "epoch_mix": SQL_EPOCH_MIX,
    "weighted_sample": SQL_WEIGHTED_SAMPLE,
    "join_sample": SQL_JOIN_SAMPLE,
    "pack_sequences": SQL_PACK_SEQUENCES,
    "decontaminate": SQL_DECONTAMINATE,
    "fuzzy_decontaminate": SQL_FUZZY_DECONTAMINATE,
    "training_corpus": SQL_TRAINING_CORPUS,
    "redact_entities": SQL_REDACT_ENTITIES,
    "quantile_filter": SQL_QUANTILE_FILTER,
    "repetition_stats": SQL_REPETITION_STATS,
    "dup_window_stats": SQL_DUP_WINDOW_STATS,
    "remove_dup_spans": SQL_REMOVE_DUP_SPANS,
    "lm_perplexity": SQL_LM_PERPLEXITY,
    "index_merge": SQL_INDEX_MERGE,
    "corpus_refresh": SQL_CORPUS_REFRESH,
    "image_aspect_buckets": SQL_IMAGE_ASPECT_BUCKETS,
    "lm_quality_buckets": SQL_LM_QUALITY_BUCKETS,
    "event_value_bands": SQL_EVENT_VALUE_BANDS,
    "domain_quality_filter": SQL_DOMAIN_QUALITY_FILTER,
    "remove_boilerplate": SQL_REMOVE_BOILERPLATE,
    "global_shuffle": SQL_GLOBAL_SHUFFLE,
    "bm25_search": SQL_BM25_SEARCH,
    "bm25_compressed": SQL_BM25_SEARCH,
    "hybrid_search": SQL_HYBRID_SEARCH,
    "upsert_merge": SQL_UPSERT_MERGE,
    "rolling_active_users": SQL_ROLLING_ACTIVE_USERS,
    "item_transitions": SQL_ITEM_TRANSITIONS,
    "value_histogram": SQL_VALUE_HISTOGRAM,
    "skew_join": SQL_SKEW_JOIN,
    "user_trend": SQL_USER_TREND,
    "compact_small_files": SQL_COMPACT_SMALL_FILES,
    "stream_join": SQL_STREAM_JOIN,
    "interval_join": SQL_INTERVAL_JOIN,
    "k_anonymize": SQL_K_ANONYMIZE,
    "jsonl_ingest": SQL_JSONL_INGEST,
    "bloom_join": SQL_BLOOM_JOIN,
    "zorder_layout": SQL_ZORDER_LAYOUT,
    "grouped_split": SQL_GROUPED_SPLIT,
    "token_drift": SQL_TOKEN_DRIFT,
    "time_travel": SQL_TIME_TRAVEL,
    "knn_pq": SQL_KNN_MULTI,  # refine=None ⇒ exact, same contract as knn_ivf
    "knn_ivfpq": SQL_KNN_MULTI,  # nprobe=nlist + refine=None ⇒ exact
    "pagerank": SQL_PAGERANK,
    "graph_bfs": SQL_GRAPH_BFS,
    "graph_features": SQL_GRAPH_FEATURES,
    "graph_communities": SQL_GRAPH_COMMUNITIES,
    "triangle_count": SQL_TRIANGLE_COUNT,
    "covisit_pairs": SQL_COVISIT_PAIRS,
    "decayed_engagement": SQL_DECAYED_ENGAGEMENT,
    "retention_cohorts": SQL_RETENTION_COHORTS,
    "quantile_normalize": SQL_QUANTILE_NORMALIZE,
    "winsorize": SQL_WINSORIZE,
    "mad_outliers": SQL_MAD_OUTLIERS,
    "throttle_dedup": SQL_THROTTLE_DEDUP,
    "data_quality": SQL_DATA_QUALITY,
    "dp_counts": SQL_DP_COUNTS,
    "locf_impute": SQL_LOCF_IMPUTE,
    "mv_refresh": SQL_MV_REFRESH,
    "ts_codec": SQL_TS_CODEC,
    "target_encode": SQL_TARGET_ENCODE,
    "ab_experiment": SQL_AB_EXPERIMENT,
    "cusum_changepoint": SQL_CUSUM_CHANGEPOINT,
    "label_centroids": SQL_LABEL_CENTROIDS,
    "schema_evolution": SQL_SCHEMA_EVOLUTION,
    "funnel_stages": SQL_FUNNEL_STAGES,
    "phrase_search": SQL_PHRASE_SEARCH,
    "snapshot_diff": SQL_SNAPSHOT_DIFF,
    "table_profile": SQL_TABLE_PROFILE,
    "resumable_sink": SQL_RESUMABLE_SINK,
    "chunk_documents": SQL_CHUNK_DOCUMENTS,
    "doc_embeddings": SQL_DOC_EMBEDDINGS,
    "vocab_encode": SQL_VOCAB_ENCODE,
    "late_data": SQL_LATE_DATA,
    "zscore_outliers": SQL_ZSCORE_OUTLIERS,
    "gap_fill_daily": SQL_GAP_FILL_DAILY,
    "temperature_mix": SQL_TEMPERATURE_MIX,
    "anchor_texts": SQL_ANCHOR_TEXTS,
    "postings_codec": SQL_POSTINGS_CODEC,
    "collocations": SQL_COLLOCATIONS,
    "gopher_rules": SQL_GOPHER_RULES,
    # crawl_bfs (stateful sequential-gate semantics) is the one remaining
    # non-SQL-expressible entry → rows-only check; its semantics are pinned
    # by the crawl conformance suite (tests/test_crawl.py incl. fuzz)
}
