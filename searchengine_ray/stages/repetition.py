"""Repetition / duplicated-text scoring over a document corpus.

Two training-data quality signals (beyond the reference, per the task
brief's LLM-pipeline extensions; the reference's only repetition handling
is the crawl-side near-dup gate, ngrams.py:80-101):

- ``repetition_stats``: WITHIN-doc repetition (Gopher-style repetition
  rules, Rae et al. 2021 §A1.1 — "fraction of characters in the most
  common n-gram / in duplicated n-grams", re-expressed over tokens):
  per doc, the most-frequent-token share, the most-frequent-2-gram share
  and the duplicate-2-gram share.  MAP-ONLY — every signal is a function
  of one document, so the whole operator is one ``map_batches`` pass with
  zero shuffles at any corpus size.

- ``dup_window_stats``: CROSS-doc duplicated-substring fraction (the
  exact-substring-dedup signal of Lee et al. 2021, "Deduplicating
  Training Data Makes Language Models Better", reduced from span merging
  to the per-doc duplicated-window fraction a filter consumes): for every
  sliding k-token window position, does the window text occur in ≥ 2
  distinct documents?  Two all-to-alls, both over (hash, doc, count)
  partials that are already per-batch combined — never over raw window
  explosions: batch → (window_hash, doc, cnt) partials → co-shuffle by
  hash (distinct-doc flag per hash, per-doc partial sums inside the
  bucket) → pre_aggregate by doc.  Driver sees nothing doc- or
  window-scaled.

Both use the SQL-parity tokenizer (``stages/text.simple_tokens``
semantics) so DuckDB oracles can mirror them exactly; window identity is
a vectorized int64 polynomial over stable token hashes — any injective
identity works because both sides group independently and compare
per-doc counts (hash collisions are the usual 2^-64 caveat, same
contract as every hashed family here).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
from ray.data import Dataset

from searchengine_ray.functions.ngrams import stable_hash64
from searchengine_ray.stages.relational import bucketed_apply, pre_aggregate
from searchengine_ray.stages.text import simple_tokens

_MUL = np.int64(1000003)  # wraparound polynomial combine (int64 bits)


def _token_hash_arrays(texts, tokenize=simple_tokens):
    """Per-doc int64 token-hash arrays (positions kept, NOT a set)."""
    out = []
    for t in texts:
        toks = tokenize(t or "")
        out.append(np.fromiter((stable_hash64(w) for w in toks),
                               dtype=np.int64, count=len(toks)))
    return out


def repetition_batch(df: pd.DataFrame, text_col: str = "text",
                     id_col: str = "doc_id") -> pd.DataFrame:
    """Per-doc repetition signals for one batch (vectorized after the
    per-doc tokenize+hash, which is the cost floor shared with every text
    stage here):

    - ``n_tokens``
    - ``top_token_frac``  = max token count / n_tokens        (0 if empty)
    - ``top_2gram_frac``  = max 2-gram count / (n_tokens - 1) (0 if < 2)
    - ``dup_2gram_frac``  = 1 - distinct 2-grams / (n_tokens - 1)

    Counting runs on flat hash arrays with one pandas groupby per batch —
    no per-doc Python beyond tokenization."""
    ids = df[id_col].to_numpy()
    arrs = _token_hash_arrays(df[text_col])
    lens = np.fromiter((a.size for a in arrs), dtype=np.int64,
                       count=len(arrs))
    n_docs = len(arrs)
    top_tok = np.zeros(n_docs, dtype=np.float64)
    top_bg = np.zeros(n_docs, dtype=np.float64)
    dup_bg = np.zeros(n_docs, dtype=np.float64)
    if n_docs and lens.sum():
        flat = np.concatenate([a for a in arrs if a.size] or
                              [np.array([], dtype=np.int64)])
        parents = np.repeat(np.arange(n_docs, dtype=np.int64), lens)
        tok_df = pd.DataFrame({"p": parents, "h": flat})
        counts = tok_df.groupby(["p", "h"], sort=False).size()
        mx = counts.groupby(level=0, sort=False).max()
        top_tok[mx.index.to_numpy()] = (
            mx.to_numpy(dtype=np.float64)
            / lens[mx.index.to_numpy()].astype(np.float64))
        # 2-grams: combine adjacent hashes where both positions belong to
        # the same doc (vectorized wraparound polynomial, no strings built)
        if flat.size >= 2:
            same = parents[:-1] == parents[1:]
            if same.any():
                bg = flat[:-1] * _MUL + flat[1:]
                bdf = pd.DataFrame({"p": parents[:-1][same], "h": bg[same]})
                bc = bdf.groupby(["p", "h"], sort=False).size()
                per_doc = bc.groupby(level=0, sort=False)
                bmx, bdist = per_doc.max(), per_doc.size()
                docs = bmx.index.to_numpy()
                denom = (lens[docs] - 1).astype(np.float64)
                top_bg[docs] = bmx.to_numpy(dtype=np.float64) / denom
                dup_bg[docs] = 1.0 - bdist.to_numpy(np.float64) / denom
    return pd.DataFrame({
        "doc_id": ids.astype(np.int64),
        "n_tokens": lens,
        "top_token_frac": np.round(top_tok, 6),
        "top_2gram_frac": np.round(top_bg, 6),
        "dup_2gram_frac": np.round(dup_bg, 6),
    })


def repetition_stats(ds: Dataset, text_col: str = "text",
                     id_col: str = "doc_id",
                     batch_size: int = 1024) -> Dataset:
    """Within-doc repetition signals — map-only, zero shuffles."""
    def fn(df: pd.DataFrame) -> pd.DataFrame:
        return repetition_batch(df, text_col, id_col)

    return ds.map_batches(fn, batch_format="pandas", batch_size=batch_size)


# --- cross-doc duplicated-window fraction -----------------------------------

DEFAULT_WINDOW_K = 8


# per-worker token→hash cache (Zipf ⇒ high hit rate; module import is
# once per worker process — the minhash/simhash workspace discipline)
_TOKEN_HASH_CACHE: dict[str, int] = {}
_TOKEN_HASH_CAP = 500_000


def _hash_tokens(toks: list[str]) -> np.ndarray:
    cache = _TOKEN_HASH_CACHE
    out = np.empty(len(toks), dtype=np.int64)
    for i, t in enumerate(toks):
        h = cache.get(t)
        if h is None:
            h = stable_hash64(t)
            if len(cache) < _TOKEN_HASH_CAP:
                cache[t] = h
        out[i] = h
    return out


def _batch_windows(texts, ids, k: int):
    """Vectorized sliding-window hashes for one batch.

    Window identity = an int64 wraparound polynomial over the k token
    hashes — injective up to the usual 2^-64 collision caveat, which is
    all the consumers need: oracles group by window TEXT and both sides
    group by window identity independently.  The polynomial is VECTORIZED
    across the whole batch: one flat token-hash array, k shifted-slice
    multiply-adds, a parent mask to kill windows straddling doc
    boundaries — no per-window Python, no per-window blake2b.

    Returns ``(w, p, pos, doc_ids)``: window hashes, per-window index into
    ``doc_ids``, 0-based token position of each window start within its
    doc, and the np.array of doc ids that had ≥ k tokens."""
    z = np.array([], dtype=np.int64)
    tok_arrays, doc_ids, lens = [], [], []
    for doc_id, text in zip(ids, texts):
        toks = simple_tokens(text or "")
        if len(toks) >= k:
            tok_arrays.append(_hash_tokens(toks))
            doc_ids.append(doc_id)
            lens.append(len(toks))
    if not tok_arrays:
        return z, z, z, z
    lens = np.asarray(lens, dtype=np.int64)
    flat = np.concatenate(tok_arrays)
    parents = np.repeat(np.arange(len(tok_arrays), dtype=np.int64), lens)
    m = flat.size - k + 1
    w = np.zeros(m, dtype=np.int64)
    for j in range(k):  # wraparound polynomial, int64 bits
        w = w * _MUL + flat[j:j + m]
    valid = parents[:m] == parents[k - 1:]
    idx = np.flatnonzero(valid)
    w, p = w[idx], parents[idx]
    starts = np.concatenate([np.zeros(1, dtype=np.int64),
                             np.cumsum(lens)[:-1]])
    pos = idx - starts[p]
    return w, p, pos, np.asarray(doc_ids, dtype=np.int64)


def window_hash_counts(texts, ids, k: int) -> pd.DataFrame:
    """One batch → per-(window_hash, doc) POSITION counts (see
    ``_batch_windows`` for the vectorized hashing core)."""
    w, p, _, doc_ids = _batch_windows(texts, ids, k)
    if not w.size:
        return pd.DataFrame({"h": pd.Series([], dtype=np.int64),
                             "doc_id": pd.Series([], dtype=np.int64),
                             "cnt": pd.Series([], dtype=np.int64)})
    df = (pd.DataFrame({"h": w, "p": p})
          .groupby(["p", "h"], sort=False).size().reset_index(name="cnt"))
    return pd.DataFrame({
        "h": df["h"].to_numpy(np.int64),
        "doc_id": doc_ids[df["p"].to_numpy()],
        "cnt": df["cnt"].to_numpy(np.int64)})


def dup_window_stats(ds: Dataset, k: int = DEFAULT_WINDOW_K,
                     text_col: str = "text", id_col: str = "doc_id",
                     batch_size: int = 1024) -> Dataset:
    """Per doc: (n_windows, n_dup_windows, dup_frac) where a window
    position is "dup" iff its window text occurs in ≥ 2 DISTINCT docs.

    Scale shape: stage 1 emits per-batch-combined (h, doc, cnt) partials;
    stage 2 co-shuffles by ``h`` so each hash's full doc set is local to
    one bucket — the multi-doc flag and the per-doc partial sums are one
    vectorized groupby there; stage 3 is a tiny pre_aggregate keyed by
    doc.  Docs with fewer than k tokens have no windows and are absent
    from the output (mirrored by the oracle's ``len(ts) >= k``)."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return window_hash_counts(df[text_col], df[id_col].to_numpy(), k)

    partials = ds.map_batches(partial, batch_format="pandas",
                              batch_size=batch_size)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64),
                                 "dup": pd.Series([], dtype=np.int64),
                                 "tot": pd.Series([], dtype=np.int64)})
        # combine cross-batch partials for the same (h, doc)
        gg = g.groupby(["h", "doc_id"], sort=False, as_index=False)["cnt"].sum()
        nd = gg.groupby("h", sort=False)["doc_id"].transform("size")
        dup = np.where(nd.to_numpy() >= 2, gg["cnt"].to_numpy(), 0)
        out = pd.DataFrame({"doc_id": gg["doc_id"], "dup": dup,
                            "tot": gg["cnt"]})
        return out.groupby("doc_id", sort=False, as_index=False).sum()

    per_doc = bucketed_apply(partials, ["h"], per_bucket)
    agg = pre_aggregate(per_doc, ["doc_id"],
                        {"n_dup_windows": ("dup", "sum"),
                         "n_windows": ("tot", "sum")})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype(np.int64),
            "n_windows": df["n_windows"].astype(np.int64),
            "n_dup_windows": df["n_dup_windows"].astype(np.int64),
            "dup_frac": (df["n_dup_windows"] / df["n_windows"]).round(6),
        })

    return agg.map_batches(finish, batch_format="pandas")


# --- exact duplicated-span REMOVAL (the cleaning op, not just the signal) ----


def remove_dup_spans(ds: Dataset, k: int = DEFAULT_WINDOW_K,
                     text_col: str = "text", id_col: str = "doc_id",
                     min_count: int = 2,
                     batch_size: int = 1024,
                     broadcast_dup_limit: int = 20_000_000) -> Dataset:
    """Exact-substring deduplication, the CLEANING operator (Lee et al.
    2021 §3.1 ExactSubstr, token-window form): cut every token position
    covered by a k-token sliding window whose window text occurs
    ≥ ``min_count`` times in the WHOLE corpus (within- or cross-doc).
    ``dup_window_stats`` is the per-doc signal; this emits the cleaned
    corpus a training pipeline actually consumes.

    Output per doc: ``(doc_id, n_tokens, n_removed, clean_text)`` where
    ``clean_text`` is the surviving tokens joined by single spaces — the
    operator is defined over the SQL-parity token stream
    (``simple_tokens``), the same contract every text op here shares, so
    a DuckDB oracle can mirror it exactly.  Docs with < k tokens have no
    windows and pass through with ``n_removed = 0``.

    Scale shape (the suffix-array step of the paper re-expressed as
    shuffles): stage 1 is a map-only explode to (window_hash, doc, pos)
    rows — O(corpus tokens), the same magnitude as the postings build;
    stage 2 co-shuffles by hash and keeps only positions of duplicated
    windows (output O(dup positions) — the ~few-% tail at web scale).
    The CUT is SIZE-ROUTED (the pagerank/connected-components
    discipline): up to ``broadcast_dup_limit`` dup positions (~16 B
    each) they broadcast once via ``ray.put`` and the cut is MAP-ONLY —
    the doc texts never shuffle; above it, docs co-shuffle with their
    dup positions by doc id (texts move once) and each bucket cuts with
    the same vectorized delta/cumsum coverage mask.  Routes are pinned
    identical by tests.  Nothing is ever corpus-scaled on the driver
    (the broadcast route pulls O(dup positions), which the limit
    bounds)."""
    from searchengine_ray.stages.relational import bucketed_apply

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        w, p, pos, doc_ids = _batch_windows(
            df[text_col], df[id_col].to_numpy(), k)
        return pd.DataFrame({
            "h": w, "doc_id": doc_ids[p] if w.size else w, "pos": pos})

    windows = ds.map_batches(explode, batch_format="pandas",
                             batch_size=batch_size)

    def dup_positions(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64),
                                 "pos": pd.Series([], dtype=np.int64)})
        occ = g.groupby("h", sort=False)["h"].transform("size").to_numpy()
        keep = g[occ >= min_count]
        return keep[["doc_id", "pos"]].reset_index(drop=True)

    dups = bucketed_apply(windows, ["h"], dup_positions).materialize()
    n_dup = dups.count()

    def _cut_rows(ids, texts, get_starts) -> pd.DataFrame:
        out_id, out_n, out_rm, out_txt = [], [], [], []
        for doc_id, text in zip(ids, texts):
            toks = simple_tokens(text or "")
            n = len(toks)
            starts = get_starts(doc_id)
            if starts is None or not len(starts) or n == 0:
                removed, clean = 0, " ".join(toks)
            else:
                # coverage mask: +1 at each dup-window start, -1 past
                # its end; cumsum > 0 = covered (one numpy pass/doc)
                delta = np.zeros(n + 1, dtype=np.int64)
                np.add.at(delta, starts, 1)
                np.add.at(delta, np.minimum(starts + k, n), -1)
                covered = np.cumsum(delta[:-1]) > 0
                removed = int(covered.sum())
                clean = " ".join(
                    t for t, c in zip(toks, covered) if not c)
            out_id.append(doc_id)
            out_n.append(n)
            out_rm.append(removed)
            out_txt.append(clean)
        return pd.DataFrame({
            "doc_id": pd.Series(out_id, dtype=np.int64),
            "n_tokens": pd.Series(out_n, dtype=np.int64),
            "n_removed": pd.Series(out_rm, dtype=np.int64),
            "clean_text": pd.Series(out_txt, dtype=object)})

    if n_dup <= broadcast_dup_limit:
        # broadcast route: dup positions as two sorted numpy arrays (the
        # compact-broadcast house rule, ~16 B/position); cut is MAP-ONLY
        # and the doc texts never shuffle
        import ray

        dup_df = dups.to_pandas()
        order = np.lexsort((dup_df["pos"].to_numpy(np.int64),
                            dup_df["doc_id"].to_numpy(np.int64)))
        doc_arr = dup_df["doc_id"].to_numpy(np.int64)[order]
        pos_arr = dup_df["pos"].to_numpy(np.int64)[order]
        ref = ray.put((doc_arr, pos_arr))

        def cut_map(df: pd.DataFrame) -> pd.DataFrame:
            docs_, pos_ = ray.get(ref)

            def get_starts(doc_id):
                a = np.searchsorted(docs_, doc_id, side="left")
                b = np.searchsorted(docs_, doc_id, side="right")
                return pos_[a:b] if b > a else None

            return _cut_rows(df[id_col].to_numpy(np.int64),
                             df[text_col], get_starts)

        return ds.map_batches(cut_map, batch_format="pandas",
                              batch_size=batch_size)

    # co-shuffle route (dup tail too big to broadcast): a multi-input
    # co-shuffle (the snapshot_diff pattern) — docs carry text, dup rows
    # carry positions; one all-to-all co-locates each doc with all its
    # dup window starts
    def doc_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df[id_col].astype(np.int64),
            "_text": df[text_col].fillna("").astype(str)})

    def cut_bucket(docs: pd.DataFrame, pos: pd.DataFrame) -> pd.DataFrame:
        starts_by_doc = {
            d: grp["pos"].to_numpy(np.int64)
            for d, grp in pos.groupby("doc_id", sort=False)}
        return _cut_rows(docs["doc_id"].to_numpy(), docs["_text"],
                         starts_by_doc.get)

    return bucketed_apply(
        [ds.map_batches(doc_rows, batch_format="pandas"), dups],
        ["doc_id"], cut_bucket)
