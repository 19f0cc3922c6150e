"""End-to-end inverted-index pipeline: build → persist → load → query.

Ray-Data re-expression of the reference indexer entry point
(index_construction.py:146-250) + the spill-variant writers/loader
(S4-S7 of SURVEY.md §2.1):

- build: docs → tokenize (reference semantics incl. tag weighting when an
  HTML column is present) → postings with tf/weight/tf_idf → global sort
  by token (O1, index_construction.py:215-216);
- persist: token-sorted parquet/Lance, partitioned in row groups so a term
  probe reads only matching row groups; plus a doc_id→url map table (S6,
  idxer.py:192-193) and an analytics summary (A4-A6,
  index_construction.py:246-250);
- load: ``load_postings(path, terms)`` pushes the term filter into the
  read (J1 — filter pushdown replaces the unpickle-everything loader at
  retrieve_query.py:18-35);
- query: ``search_index`` sizes the term slice exactly as Σ df(t) over the
  query terms from the persisted ``token_df`` table.  Within
  ``DRIVER_ROWS_LIMIT`` rows the driver reads the slice and ranks it
  itself, with no Ray job; above it (or with no ``token_df``) the query
  runs as the distributed ``boolean_search``, which never brings the slice
  to the driver.

The partial-index spill + merge the reference never finished
(idxer.py:125-164, SURVEY.md §7 bug 7) falls out of Ray's shuffle: the
sort IS the merge.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd
from ray.data import Dataset

from searchengine_ray.functions.html import extract_tag_texts, extract_text
from searchengine_ray.functions.tokenizer import calculate_term_weights, term_frequencies, tokenize_fast
from searchengine_ray.sources import storage
from searchengine_ray.stages import text as text_stage

# Most rows the driver takes into memory: the query term slice
# ``search_index`` ranks in process, and the vocabulary whose idf
# ``merge_index`` broadcasts.
DRIVER_ROWS_LIMIT = 2_000_000


def _postings_block(t: pa.Table, tf_idf) -> pa.Table:
    """(doc_id, token, tf, weight) rows and their ``tf_idf`` as the block
    ``write_index`` sorts.  The map that returns it must run with
    ``batch_format="pyarrow"``: Ray's sort inherits the batch format of
    the map before it, and a pandas one turns every sorted block pandas —
    parquet files with a ``pandas`` metadata key, and a columnless pandas
    block for each empty range partition."""
    return pa.table({"doc_id": t["doc_id"], "token": t["token"],
                     "tf": t["tf"], "weight": t["weight"], "tf_idf": tf_idf})


def build_postings(
    docs: Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    mode: str = "reference",
    html: bool = False,
) -> Dataset:
    """docs → (doc_id, token, tf, weight, tf_idf) postings.

    ``mode='reference'`` uses the full reference tokenizer (apostrophes,
    10k cap, lemmatizer); ``html=True`` treats ``text_col`` as raw HTML:
    text extraction per M1 and additive tag weights per M4
    (helpers.py:31-47) populate ``weight`` (else 1.0)."""
    if not html:
        postings = text_stage.tfidf_postings(docs, mode=mode, round_to=None)

        def add_weight(t: pa.Table) -> pa.Table:
            t = t.append_column("weight", pa.array(np.ones(t.num_rows)))
            return _postings_block(t, t["tf_idf"])

        return postings.map_batches(add_weight, batch_format="pyarrow")

    # HTML path: extract text + tag weights in one pass per doc
    class HtmlTokenize:
        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            ids, toks, tfs, weights, lens = [], [], [], [], []
            for doc_id, raw in zip(df[id_col].to_numpy(), df[text_col]):
                body = extract_text(raw or "")
                tokens = tokenize_fast(body)
                tf = term_frequencies(tokens)
                tw = calculate_term_weights(extract_tag_texts(raw or ""), tf)
                for t, f in tf.items():
                    ids.append(doc_id)
                    toks.append(t)
                    tfs.append(f)
                    weights.append(tw.get(t, 1.0))
                    lens.append(len(tokens))
            return pd.DataFrame({
                "doc_id": np.array(ids, dtype=np.int64), "token": toks,
                "tf": np.array(tfs), "weight": np.array(weights),
            })

    tfw = docs.map_batches(HtmlTokenize, batch_format="pandas",
                           batch_size=512, concurrency=(1, 8)).materialize()
    n_docs = docs.count()
    # df/idf over the (doc, token) rows; idf table broadcast (A1-A3)
    from searchengine_ray.stages.relational import pre_aggregate

    df_tbl = pre_aggregate(tfw, ["token"], {"df": (None, "count")}).to_pandas()
    idf = {t: float(np.log(n_docs / d)) for t, d in zip(df_tbl["token"], df_tbl["df"])}
    import ray

    idf_ref = ray.put(idf)

    def mul(t: pa.Table) -> pa.Table:
        table = ray.get(idf_ref)
        idf_v = np.array([table[x] for x in t["token"].to_pylist()])
        return _postings_block(t, t["tf"].to_numpy() * idf_v)

    return tfw.map_batches(mul, batch_format="pyarrow")


def _parquet_rows(path: str) -> int:
    """Rows of the parquet files in directory ``path``, from their footers."""
    return sum(pq.read_metadata(os.path.join(path, f)).num_rows
               for f in os.listdir(path) if f.endswith(".parquet"))


def _count_ids(path: str, id_col: str, ids: np.ndarray) -> int:
    """How many ``id_col`` values of the parquet files in ``path`` are in
    the sorted array ``ids`` — read one batch at a time, on the driver."""
    import pyarrow.dataset as pads

    return sum(int(np.isin(b.column(0).to_numpy(), ids).sum())
               for b in pads.dataset(path, format="parquet").to_batches(
                   columns=[id_col], use_threads=False))


def write_index(
    postings: Dataset, out_dir: str, docs: Dataset | None = None,
    id_col: str = "doc_id", url_col: str = "url",
) -> dict:
    """Persist the token-sorted index (S5) + doc map (S6) + analytics
    (A4-A6).  Row groups are token-ordered → a term probe touches only the
    row groups whose [min,max] token range covers it.

    The summary's ``n_docs`` is the corpus size idf uses: with a doc map,
    its row count — every document, as ``build_postings`` counts them,
    tokens or not; without one the index knows only the docs with ≥1
    token, and counts those (``n_docs_from`` says which)."""
    os.makedirs(out_dir, exist_ok=True)
    sorted_ds = postings.sort("token")  # O1 global sort (range shuffle)
    idx_dir = os.path.join(out_dir, "postings")
    storage.replace_dir(idx_dir, lambda tmp: sorted_ds.write_parquet(
        tmp, min_rows_per_file=200_000))

    n_docs = None
    if docs is not None and url_col:
        doc_map = docs.select_columns([id_col, url_col])
        dm_dir = os.path.join(out_dir, "doc_map")
        storage.replace_dir(dm_dir, doc_map.write_parquet)
        n_docs = _parquet_rows(dm_dir)

    # analytics (reference index_construction.py:246-250)
    files = [os.path.join(idx_dir, f) for f in os.listdir(idx_dir)]
    n_postings = 0
    size_kb = 0.0
    for f in files:
        md = pq.read_metadata(f)
        n_postings += md.num_rows
        size_kb += os.path.getsize(f) / 1024

    # df side table + corpus doc count, computed from the WRITTEN files
    # (cheap columnar re-read — never re-executes the upstream pipeline).
    # These are what make ``merge_index`` delta-scale: the next merge
    # updates df/n_docs arithmetically instead of re-aggregating the
    # whole postings table.
    from searchengine_ray.stages.relational import pre_aggregate

    def write_df(tmp: str) -> tuple[int, int]:
        # (unique tokens, docs with ≥1 token, or the doc map's count); a
        # corpus that tokenizes to nothing gets a typed empty df table
        if not n_postings:
            os.makedirs(tmp)
            pq.write_table(pa.table({"token": pa.array([], pa.string()),
                                     "df": pa.array([], pa.int64())}),
                           os.path.join(tmp, "empty.parquet"))
            return 0, n_docs or 0
        written = rd.read_parquet(idx_dir, columns=["doc_id", "token"])
        df_ds = pre_aggregate(written, ["token"],
                              {"df": (None, "count")}).materialize()
        n = n_docs
        if n is None:
            n = pre_aggregate(
                rd.read_parquet(idx_dir, columns=["doc_id"]),
                ["doc_id"], {"c": (None, "count")}).count()
        df_ds.write_parquet(tmp)
        return df_ds.count(), n

    n_from = "postings" if n_docs is None else "doc_map"
    n_unique, n_docs = storage.replace_dir(
        os.path.join(out_dir, "token_df"), write_df)

    summary = {
        "n_postings": int(n_postings),
        "n_unique_tokens": int(n_unique),  # A5
        "index_size_kb": round(size_kb, 1),  # A6
        "n_docs": int(n_docs),  # idf's N (merge_index reads it back)
        "n_docs_from": n_from,
    }
    storage.write_json_atomic(summary, os.path.join(out_dir, "summary.json"))
    return summary


def merge_index(
    out_dir: str,
    delta_docs: Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    url_col: str | None = None,
    mode: str = "simple",
    target_dir: str | None = None,
    broadcast_vocab_limit: int = DRIVER_ROWS_LIMIT,
    max_delta_ids: int = 50_000_000,
) -> dict:
    """Incremental index maintenance: merge a DELTA corpus into the
    persisted index WITHOUT re-tokenizing the existing corpus — the
    partial→final merge the reference started and never finished
    (idxer.py:125-164, SURVEY.md §7 bug 7), generalized to the
    incremental-crawl consumer op (pair of ``stages/dedup.snapshot_diff``:
    diff says what changed, this folds it in).

    Semantics: delta docs REPLACE same-id docs (changed pages re-index;
    new pages append).  idf is GLOBAL — n_docs and df(token) both shift —
    so EVERY posting's tf_idf is re-derived as ``tf × idf'``; the old
    side streams read → drop-replaced → rescale and never passes through
    the tokenizer, which is the expensive stage this op exists to skip
    (tokenize/lemmatize dominates the rebuild; the rescale is one
    columnar multiply).  Result ≡ a from-scratch rebuild of the merged
    corpus (that equivalence IS the oracle gate).

    n' follows ``write_index``: with a doc map (``url_col`` given and the
    index has one) it is the merged doc map's row count, every document
    as the rebuild counts it — old count − replaced ids + delta ids, no
    Ray job; without one, the docs with ≥1 token.

    Scale shape: delta ids broadcast once (``ray.put``, capped at
    ``max_delta_ids`` — a delta is incremental by contract); df'/n' come
    from two ``pre_aggregate`` passes over a materialized (doc, token)
    union (materialized because Ray re-executes shared lazy sub-plans per
    consumer); idf' broadcasts below ``broadcast_vocab_limit`` and
    attaches via distributed ``hash_join`` above it (the
    ``tfidf_postings`` discipline).  The write is the same atomic
    tmp+rename ``write_index`` path."""
    import ray

    from searchengine_ray.stages.relational import hash_join, pre_aggregate

    # --- delta term counts (the only tokenizer work in the whole op) -----
    delta_tc = text_stage.doc_term_counts(
        delta_docs, mode=mode, text_col=text_col, id_col=id_col
    ).materialize()

    delta_ids_df = pre_aggregate(
        delta_tc, [id_col], {"c": (None, "count")}).to_pandas()
    if len(delta_ids_df) > max_delta_ids:
        raise ValueError(
            f"delta has {len(delta_ids_df)} distinct ids > max_delta_ids="
            f"{max_delta_ids}: a delta is incremental by contract — "
            f"rebuild instead")
    # docs whose tokenization yields zero tokens still replace their old
    # postings: take ids from the raw delta, not the term counts
    raw_ids = pre_aggregate(delta_docs.select_columns([id_col]), [id_col],
                            {"c": (None, "count")}).to_pandas()
    delta_id_arr = np.sort(raw_ids[id_col].to_numpy(np.int64))
    ids_ref = ray.put(delta_id_arr)

    # --- unified (doc_id, token, tf, weight) postings, tf_idf pending ----
    def old_rows(t: pa.Table) -> pa.Table:
        ids = ray.get(ids_ref)  # sorted; plasma-local after first touch
        keep = ~np.isin(t[id_col].to_numpy(), ids)
        return t.filter(keep).select(["doc_id", "token", "tf", "weight"])

    def delta_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"].cast(pa.int64()), "token": t["token"],
            "tf": t["cnt"].to_numpy() / t["doc_len"].to_numpy(),
            "weight": np.ones(t.num_rows)})

    def postings(finish=lambda t: t) -> Dataset:
        """The old postings minus the replaced docs ∪ the delta's, each
        side ONE map ending in ``finish``: a map fed a 0-row block emits a
        columnless block, so a map after the drop would warn of it."""
        def old_side(t: pa.Table) -> pa.Table:
            return finish(old_rows(t))

        def delta_side(t: pa.Table) -> pa.Table:
            return finish(delta_rows(t))

        return (load_postings(out_dir)
                .map_batches(old_side, batch_format="pyarrow")
                .union(delta_tc.map_batches(delta_side, batch_format="pyarrow")))

    combined = postings()

    # --- global df' and n' over the merged corpus ------------------------
    # FAST PATH (the scale story): the index persists its (token, df) side
    # table and n_docs (write_index), so df'/n' are DELTA-SCALE driver
    # arithmetic — old_df − replaced-doc contributions + delta
    # contributions — and the whole merge performs exactly ONE
    # postings-scale all-to-all (the write sort).  Without it (pre-side-
    # table indexes, or vocabulary above the broadcast limit) fall back to
    # re-aggregating df/n over the combined postings (3 all-to-alls).
    import json

    df_dir = os.path.join(out_dir, "token_df")
    summ_path = os.path.join(out_dir, "summary.json")
    old_summary: dict = {}
    if os.path.exists(summ_path):
        with open(summ_path) as f:
            old_summary = json.load(f)
    fast = (os.path.isdir(df_dir) and "n_docs" in old_summary
            and old_summary.get("n_unique_tokens", 0) <= broadcast_vocab_limit)

    dm_dir = os.path.join(out_dir, "doc_map")
    writes_map = url_col is not None and os.path.isdir(dm_dir)
    removed = None
    if fast:
        def only_replaced(df: pd.DataFrame) -> pd.DataFrame:
            ids = ray.get(ids_ref)
            m = np.isin(df[id_col].to_numpy(np.int64), ids)
            return df[m][[id_col, "token"]]

        # one column-pruned scan; output is replaced-docs-scale (delta
        # contract) so the driver pull is bounded like the delta itself
        removed = (load_postings(out_dir)
                   .map_batches(only_replaced, batch_format="pandas")
                   .to_pandas())
        delta_df = pre_aggregate(delta_tc, ["token"],
                                 {"df": (None, "count")}).to_pandas()
        old_df = pq.read_table(df_dir).to_pandas()
        s = old_df.set_index("token")["df"].astype(np.int64)
        if len(removed):
            s = s.sub(removed.groupby("token").size(), fill_value=0)
        if len(delta_df):
            s = s.add(delta_df.set_index("token")["df"], fill_value=0)
        s = s[s > 0]
    else:
        combined = combined.materialize()  # consumed 3× below
        df_ds = pre_aggregate(combined.select_columns(["doc_id", "token"]),
                              ["token"], {"df": (None, "count")}).materialize()
        n_vocab = df_ds.count()

    # n': the merged corpus's document count, on write_index's basis
    if writes_map:  # every document: the merged doc map's rows
        n_docs = (_parquet_rows(dm_dir)
                  - _count_ids(dm_dir, id_col, delta_id_arr)
                  + len(delta_id_arr))
    elif fast and old_summary.get("n_docs_from", "postings") == "postings":
        n_docs = (int(old_summary["n_docs"])
                  - int(removed[id_col].nunique() if len(removed) else 0)
                  + len(delta_ids_df))
    else:  # docs with ≥1 token, counted over the merged postings
        n_docs = pre_aggregate(combined.select_columns(["doc_id"]),
                               ["doc_id"], {"c": (None, "count")}).count()

    idf: dict | None = None
    if fast:
        idf = {t: float(np.log(n_docs / d)) for t, d in s.items()}
    elif n_vocab <= broadcast_vocab_limit:
        df_tbl = df_ds.to_pandas()
        idf = {t: float(np.log(n_docs / d))
               for t, d in zip(df_tbl["token"], df_tbl["df"])}

    if idf is not None:
        idf_ref = ray.put(idf)

        def rescale(t: pa.Table) -> pa.Table:
            table = ray.get(idf_ref)
            idf_v = np.array([table[x] for x in t["token"].to_pylist()])
            return _postings_block(t, t["tf"].to_numpy() * idf_v)

        merged = (postings(rescale) if fast
                  else combined.map_batches(rescale, batch_format="pyarrow"))
    else:  # web-scale vocabulary: distributed idf attach
        joined = hash_join(combined, df_ds, on="token")

        def rescale_join(t: pa.Table) -> pa.Table:
            idf_v = np.log(n_docs / t["df"].to_numpy().astype(np.float64))
            return _postings_block(t, t["tf"].to_numpy() * idf_v)

        merged = joined.map_batches(rescale_join, batch_format="pyarrow")

    # --- doc map: old minus replaced, plus the delta's ------------------
    # both sides as metadata-free Arrow blocks: one block format, so the
    # union's schema never drifts between pandas- and Arrow-typed blocks
    docs_for_map = None
    if writes_map:
        def map_rows(drop_old: bool):
            def doc_map_rows(t: pa.Table) -> pa.Table:
                if drop_old:
                    t = t.filter(~np.isin(t[id_col].to_numpy(),
                                          ray.get(ids_ref)))
                return t.select([id_col, url_col]).replace_schema_metadata(None)
            return doc_map_rows

        docs_for_map = (
            rd.read_parquet(dm_dir)
            .map_batches(map_rows(True), batch_format="pyarrow")
            .union(delta_docs.map_batches(map_rows(False),
                                          batch_format="pyarrow")))

    out = target_dir or out_dir
    return write_index(merged, out, docs=docs_for_map,
                       id_col=id_col, url_col=url_col or "url")


def load_postings(out_dir: str, terms: list[str] | None = None) -> Dataset:
    """Index loader with term-filter pushdown (S7/J1).  ``terms=None``
    loads everything; else only row groups containing the terms are read."""
    idx_dir = os.path.join(out_dir, "postings")
    if terms is None:
        return rd.read_parquet(idx_dir)
    if not terms:  # empty probe: typed empty set (isin([]) binds as null)
        return rd.read_parquet(idx_dir, filter=pc.field("token") == "")
    expr = pc.field("token").isin(terms)
    return rd.read_parquet(idx_dir, filter=expr)


def _slice_rows(out_dir: str, terms: list[str]) -> int | None:
    """Exact number of postings rows carrying any of ``terms`` — Σ df(t)
    from the ``token_df`` side table — or None for an index without one."""
    df_dir = os.path.join(out_dir, "token_df")
    if not os.path.isdir(df_dir):
        return None
    dft = pq.read_table(df_dir, columns=["df"], filters=[("token", "in", terms)],
                        use_threads=False)
    return int(pc.sum(dft["df"]).as_py() or 0)


def search_index(out_dir: str, query: str, k: int = 5) -> pd.DataFrame:
    """Query path against the persisted index: parse → pushdown probe →
    boolean AND/OR → rank → doc_map dereference of the top-k (reference
    retrieve_query.py flow, bugs fixed per SURVEY.md §7).

    The route is chosen on the term slice's exact size (``_slice_rows``):
    up to ``DRIVER_ROWS_LIMIT`` rows the slice is read straight from the
    token-sorted parquet (row-group pruned) and ranked in this process by
    ``search.rank_slice`` — no Ray job, no task, actor or thread; above it,
    or without a ``token_df`` table, the distributed ``boolean_search``
    answers, and the driver never holds the slice."""
    from searchengine_ray.pipelines.search import (
        boolean_search,
        empty_result,
        parse_query,
        rank_slice,
    )

    terms = sorted({t for g in parse_query(query) for t in g})
    if not terms:
        return empty_result()
    n_rows = _slice_rows(out_dir, terms)
    if n_rows is None or n_rows > DRIVER_ROWS_LIMIT:
        result = boolean_search(load_postings(out_dir, terms), query, k)
    elif n_rows:
        sliced = pq.read_table(
            os.path.join(out_dir, "postings"),
            columns=["doc_id", "token", "tf_idf"],
            filters=[("token", "in", terms)], use_threads=False)
        result = rank_slice(sliced.to_pandas(use_threads=False), query, k)
    else:  # no posting carries a query term (postings/ may hold no file)
        result = empty_result()
    dm_dir = os.path.join(out_dir, "doc_map")
    if os.path.isdir(dm_dir) and len(result):
        dm = pq.read_table(
            dm_dir, filters=[("doc_id", "in", result["doc_id"].tolist())],
            use_threads=False).to_pandas(use_threads=False)
        result = result.merge(dm, on="doc_id", how="left")  # J2 dereference
    return result
