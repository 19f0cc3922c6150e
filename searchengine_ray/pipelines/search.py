"""Boolean query retrieval over the tf-idf postings table.

Re-expression of the reference query path (retrieve_query.py):
- query parse: OR-of-AND term lists, 'AND' skipped, 'OR' splits, lowercased
  (retrieve_query.py:89-111);
- AND = posting-set intersection keyed by doc_id (D1, :46-54 — note the
  reference seeds the intersection from an empty set, which always yields
  {} — a listed bug; the INTENDED semantics, implemented here, is docs
  containing ALL terms of the group);
- OR  = union of AND-group results (D2, :134-142);
- ranking by tf_idf DESCENDING (the reference sorts ascending at :54,142 —
  also a listed bug; intent per SURVEY.md §7 is descending), doc score =
  sum of tf_idf over the distinct query terms present in the doc;
- top-k = MAX_LINKS_SHOWN = 5 (:14,186-187).

Two routes share one AND/OR/score kernel (``qualify``):
- ``boolean_search`` (Dataset in): the postings probe is a broadcast-semi-
  join of the tiny term list against the postings Dataset (J1) — no
  shuffle of the postings table; the per-doc qualification (J3/D1) is a
  ``doc_id`` co-shuffle over the filtered slice only, and the driver never
  holds the slice;
- ``rank_slice`` (pandas in): the same kernel run once over a term slice
  already in driver memory.  ``index_pipeline.search_index`` takes this
  route when the slice's exact size, Σ df(t) over the query terms, is
  within its driver budget, and ``boolean_search`` above it.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
from ray.data import Dataset

MAX_LINKS_SHOWN = 5  # reference retrieve_query.py:14


def parse_query(query: str) -> list[list[str]]:
    """retrieve_query.py:89-111 semantics."""
    groups: list[list[str]] = []
    cur: list[str] = []
    for tok in query.split():
        if tok == "AND":
            continue
        if tok == "OR":
            groups.append(cur)
            cur = []
        else:
            cur.append(tok.lower())
    groups.append(cur)
    return groups


def empty_result() -> pd.DataFrame:
    """The typed empty (doc_id, score) result."""
    return pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64),
                         "score": pd.Series([], dtype=np.float64)})


def query_masks(groups: list[list[str]]) -> tuple[dict[str, int], np.ndarray]:
    """Query terms → bits, and one bitmask per non-empty AND group."""
    all_terms = sorted({t for g in groups for t in g})
    term_bit = {t: 1 << i for i, t in enumerate(all_terms)}
    group_masks = np.array(
        [np.bitwise_or.reduce([term_bit[t] for t in g]) for g in groups],
        dtype=np.int64)
    return term_bit, group_masks


def qualify(g: pd.DataFrame, term_bit: dict[str, int],
            group_masks: np.ndarray) -> pd.DataFrame:
    """(doc_id, token, tf_idf) rows of the query terms → (doc_id, score) of
    the docs that satisfy the query, in ONE vectorized bitmask pass (query
    terms → bits; distinct rows ⇒ grouped bit-SUM == bit-OR).  Rows of a
    doc must all be in ``g``; the kernel of both ``boolean_search`` buckets
    and the driver route of ``rank_slice``."""
    g = g.drop_duplicates(["doc_id", "token"])
    bits = g["token"].map(term_bit).to_numpy(dtype=np.int64)
    agg = (pd.DataFrame({"doc_id": g["doc_id"].to_numpy(),
                         "bit": bits,
                         "tf": g["tf_idf"].to_numpy(np.float64)})
           .groupby("doc_id", as_index=False)
           .agg(mask=("bit", "sum"), score=("tf", "sum")))
    # each bit appears ≤ once per doc (distinct rows) ⇒ sum == OR
    mask = agg["mask"].to_numpy(dtype=np.int64)
    qual = np.zeros(len(agg), dtype=bool)
    for gm in group_masks:  # D1/D2: AND within group, OR across groups
        qual |= (mask & gm) == gm
    out = agg[qual][["doc_id", "score"]].copy()
    out["score"] = out["score"].round(6)
    return out


def rank_slice(sliced: pd.DataFrame, query: str,
               k: int = MAX_LINKS_SHOWN) -> pd.DataFrame:
    """``boolean_search`` over an in-memory term slice: the same kernel run
    once, top-k by (score desc, doc_id asc).  ``sliced`` must hold exactly
    the postings rows of the query's terms."""
    groups = [g for g in parse_query(query) if g]
    out = qualify(sliced, *query_masks(groups))
    if out.empty:
        return empty_result()
    return (out.sort_values(["score", "doc_id"], ascending=[False, True],
                            kind="mergesort")
            .head(k).reset_index(drop=True))


def boolean_search(
    postings: Dataset, query: str, k: int = MAX_LINKS_SHOWN
) -> pd.DataFrame:
    """Returns (doc_id, score) — top-k docs matching the OR-of-AND query,
    score = sum of tf_idf over distinct query terms in the doc, ranked
    (score desc, doc_id asc).

    Fully distributed: the term probe is a broadcast-semi filter (J1), the
    per-doc AND/OR qualification (J3/D1/D2) co-shuffles the term-sliced
    postings on doc_id and resolves each bucket with ``qualify``, and the
    ranked result reduces through ``global_topk`` — the driver never holds
    the term slice (a stop-word query term at corpus scale would be
    unbounded there)."""
    from searchengine_ray.stages.relational import bucketed_apply, global_topk

    groups = [g for g in parse_query(query) if g]
    if not groups:
        return empty_result()
    term_bit, group_masks = query_masks(groups)

    # J1: broadcast-semi-join of the (tiny) term list against postings
    terms_set = set(term_bit)
    sliced = postings.map_batches(
        lambda df: df[df["token"].isin(terms_set)],
        batch_format="pandas",
    ).select_columns(["doc_id", "token", "tf_idf"])

    scored = bucketed_apply(sliced, ["doc_id"],
                            lambda g: qualify(g, term_bit, group_masks))
    out = global_topk(scored, ["score", "doc_id"], [False, True], k)
    if out.empty or "doc_id" not in out.columns:
        return empty_result()
    return out.reset_index(drop=True)


# --- positional phrase search ------------------------------------------------


def phrase_search(
    docs: Dataset, phrase: str, text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """Exact phrase occurrence counting via positional postings — the
    positional upgrade of the reference's bag-of-words index (its postings
    carry counts only, idxer.py; phrase queries need positions).

    Per batch (map-only): explode (doc, term_idx, pos) rows ONLY for the
    phrase's terms — corpus tokens not in the phrase never leave the task.
    Then one co-shuffle keyed by doc and a single vectorized kernel per
    bucket: an anchor position p matches iff term i sits at p+i for all i,
    i.e. the (doc, pos − term_idx) key collects all L distinct term_idx
    values.  Returns (doc_id, n_matches) for docs with ≥ 1 match.
    Overlapping matches count individually (same as the SQL mirror)."""
    from searchengine_ray.stages.relational import bucketed_apply
    from searchengine_ray.stages.text import simple_tokens

    terms = simple_tokens(phrase)
    if not terms:
        raise ValueError("empty phrase")
    L = len(terms)
    term_idx: dict[str, list[int]] = {}
    for i, t in enumerate(terms):
        term_idx.setdefault(t, []).append(i)

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        ids, tix, anch = [], [], []
        for doc_id, text in zip(df[id_col].to_numpy(), df[text_col]):
            toks = simple_tokens(text or "")
            for p, tok in enumerate(toks):
                for i in term_idx.get(tok, ()):
                    ids.append(doc_id)
                    tix.append(i)
                    anch.append(p - i)  # anchor = would-be phrase start
        return pd.DataFrame({
            "doc_id": np.array(ids, dtype=np.int64),
            "ti": np.array(tix, dtype=np.int64),
            "anchor": np.array(anch, dtype=np.int64)})

    rows = docs.map_batches(explode, batch_format="pandas", batch_size=2048)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64),
                                 "n_matches": pd.Series([], dtype=np.int64)})
        hit = (g[g["anchor"] >= 0]
               .groupby(["doc_id", "anchor"], sort=False)["ti"]
               .nunique())
        full = hit[hit == L].reset_index()
        if not len(full):
            return pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64),
                                 "n_matches": pd.Series([], dtype=np.int64)})
        out = (full.groupby("doc_id", sort=False, as_index=False)
               .agg(n_matches=("anchor", "size")))
        out["n_matches"] = out["n_matches"].astype(np.int64)
        return out

    return bucketed_apply(rows, ["doc_id"], per_bucket)


# --- BM25 ranked retrieval ---------------------------------------------------

BM25_K1 = 1.2
BM25_B = 0.75


def bm25_search(
    docs: Dataset, terms: list[str], k: int = 10,
    k1: float = BM25_K1, b: float = BM25_B,
    text_col: str = "text", id_col: str = "doc_id",
) -> pd.DataFrame:
    """BM25 (Robertson-Spärck Jones probabilistic ranking) top-k over a raw
    document corpus — the ranked-retrieval upgrade of the reference's
    tf-idf-sum scoring (retrieve_query.py:134-142); the reference has no
    length normalization or saturating tf.

    score(d) = Σ_t idf(t) · tf·(k1+1) / (tf + k1·(1 − b + b·|d|/avgdl)),
    idf(t) = ln(1 + (N − df + 0.5)/(df + 0.5))   (the Lucene BM25 form).

    Distribution shape (three streaming passes, like the SQL mirror):
    1. corpus length stats — per-batch scalar partials (one row per batch
       reaches the driver: N, token-bearing docs, Σ|d|);
    2. term slice — map-only explode restricted to the query terms (rows
       only for docs containing ≥ 1 term); df per term reduces through
       ``pre_aggregate`` to ≤ |terms| driver rows;
    3. scoring — map-side BM25 per (doc, term) row against broadcast
       (idf, avgdl), per-doc sum via one ``pre_aggregate``, ranked result
       through the two-level ``global_topk`` merge.
    The driver never holds the term slice (a stop-word term is unbounded
    there); everything doc-scaled stays in tasks."""
    from searchengine_ray.stages.relational import global_topk, pre_aggregate
    from searchengine_ray.stages.text import simple_tokens

    empty = empty_result()
    terms = sorted({t.lower() for t in terms})
    if not terms:
        return empty

    # pass 1: N + avgdl (avg over docs with >= 1 token, as in the SQL doc_len)
    def stats_partial(df: pd.DataFrame) -> pd.DataFrame:
        lens = np.fromiter((len(simple_tokens(t or "")) for t in df[text_col]),
                           dtype=np.int64, count=len(df))
        return pd.DataFrame({"n_docs": [len(df)],
                             "n_tok_docs": [int((lens > 0).sum())],
                             "sum_len": [int(lens.sum())]})

    st = docs.map_batches(stats_partial, batch_format="pandas",
                          batch_size=4096).to_pandas().sum()
    n_total = int(st["n_docs"])
    if not int(st["n_tok_docs"]):
        return empty
    avgdl = float(st["sum_len"]) / float(st["n_tok_docs"])

    # pass 2: (doc_id, token, cnt, doc_len) rows for query terms only
    term_set = set(terms)

    def term_counts(df: pd.DataFrame) -> pd.DataFrame:
        ids, toks, cnts, lens = [], [], [], []
        for doc_id, text in zip(df[id_col].to_numpy(), df[text_col]):
            tokens = simple_tokens(text or "")
            hits: dict[str, int] = {}
            for t in tokens:
                if t in term_set:
                    hits[t] = hits.get(t, 0) + 1
            for t, c in hits.items():
                ids.append(doc_id)
                toks.append(t)
                cnts.append(c)
                lens.append(len(tokens))
        return pd.DataFrame({
            "doc_id": np.array(ids, dtype=np.int64), "token": toks,
            "cnt": np.array(cnts, dtype=np.int64),
            "doc_len": np.array(lens, dtype=np.int64)})

    sliced = docs.map_batches(term_counts, batch_format="pandas",
                              batch_size=4096)
    dfreq = pre_aggregate(sliced, ["token"], {"df": (None, "count")}).to_pandas()
    if dfreq.empty:
        return empty
    idf = {t: float(np.log(1.0 + (n_total - df_ + 0.5) / (df_ + 0.5)))
           for t, df_ in zip(dfreq["token"], dfreq["df"])}

    # pass 3: map-side per-(doc, term) score, per-doc sum, two-level top-k.
    # Per-term scores round to 6 BEFORE the sum (mirrored in SQL) so the
    # grouped sum is insensitive to merge order at the rounding precision.
    def score_rows(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64),
                                 "sc": pd.Series([], dtype=np.float64)})
        iv = df["token"].map(idf).to_numpy(dtype=np.float64)
        cnt = df["cnt"].to_numpy(dtype=np.float64)
        dl = df["doc_len"].to_numpy(dtype=np.float64)
        sc = iv * (cnt * (k1 + 1.0)) / (cnt + k1 * (1.0 - b + b * dl / avgdl))
        return pd.DataFrame({"doc_id": df["doc_id"].to_numpy(),
                             "sc": np.round(sc, 6)})

    scored = pre_aggregate(
        sliced.map_batches(score_rows, batch_format="pandas"),
        ["doc_id"], {"score": ("sc", "sum")})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["score"] = df["score"].round(6)
        return df

    out = global_topk(scored.map_batches(finish, batch_format="pandas"),
                      ["score", "doc_id"], [False, True], k)
    if out.empty or "doc_id" not in out.columns:
        return empty
    out["doc_id"] = out["doc_id"].astype(np.int64)
    return out.reset_index(drop=True)


# --- Hybrid retrieval: reciprocal-rank fusion ---------------------------------

RRF_C = 60  # the k constant of Cormack, Clarke & Büttcher (SIGIR 2009)


def rrf_fuse(ranked: dict[str, pd.DataFrame], k: int = 10, c: int = RRF_C,
             id_col: str = "doc_id") -> pd.DataFrame:
    """Reciprocal-rank fusion of already-ranked candidate lists:
    ``rrf(d) = Σ_lists 1 / (c + rank_list(d))`` (Cormack et al. 2009) — the
    standard way to combine sparse (BM25) and dense (embedding-kNN)
    retrieval without score calibration.

    Driver-side BY DESIGN: every input is a top-k candidate list (the
    O(k)-bounded output of ``bm25_search`` / ``knn_bruteforce``), so fusion
    touches O(Σ|lists|·k) rows regardless of corpus size — the corpus-scaled
    work already happened inside the retrievers.  Each frame must arrive in
    rank order (position = 1-based rank).  A document absent from a list
    contributes 0 to the sum and reports rank 0 (int64 sentinel — mirrors
    SQL ``COALESCE(rank, 0)``).  ``rrf`` rounds to 6 decimals with
    ``id_col`` tiebreak so the top-k set is float-representation-stable.
    Ids must be exact in float64 (< 2^53) — they pass through an outer
    merge; doc ids here are small ints.
    """
    out: pd.DataFrame | None = None
    names = list(ranked)
    for name in names:
        df = ranked[name]
        frame = pd.DataFrame({
            id_col: df[id_col].to_numpy(dtype=np.int64),
            f"{name}_rank": np.arange(1, len(df) + 1, dtype=np.int64)})
        out = frame if out is None else out.merge(frame, on=id_col, how="outer")
    assert out is not None, "rrf_fuse needs at least one ranked list"
    rrf = np.zeros(len(out), dtype=np.float64)
    for name in names:
        col = f"{name}_rank"
        v = out[col].to_numpy(dtype=np.float64)  # NaN where absent
        rrf += np.where(np.isnan(v), 0.0, 1.0 / (c + v))
        out[col] = np.nan_to_num(v, nan=0.0).astype(np.int64)
    out["rrf"] = np.round(rrf, 6)
    out[id_col] = out[id_col].astype(np.int64)
    return (out.sort_values(["rrf", id_col], ascending=[False, True])
            .head(k).reset_index(drop=True))
