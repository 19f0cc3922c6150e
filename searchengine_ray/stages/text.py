"""Text batch stages: tokenize/explode, document frequency, tf-idf postings,
language ID, quality features, token counts, fingerprints.

The tf-idf pipeline re-expresses the reference indexer
(index_construction.py:146-250) as Ray Data shuffles:
tokens → postings ``groupby('token')`` replaces the driver-side global dict +
lock (idxer.py:58,117-119); df/idf (A1-A2: index_construction.py:183-194) is
a pre-aggregated groupby; tf_idf = tf·idf (A3: index_construction.py:200-211)
joins the small idf table broadcast-side.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import ray
from ray.data import Dataset

from searchengine_ray.functions import textstats
from searchengine_ray.functions.ngrams import stable_hash64
from searchengine_ray.functions.tokenizer import tokenize_fast
from searchengine_ray.stages.relational import pre_aggregate

# SQL-parity tokenizer: lowercase, split on non-[a-z0-9] — expressible in
# DuckDB as regexp_split_to_array(lower(text),'[^a-z0-9]+').  The full
# reference tokenizer (apostrophes, 10k cap, lemmatize) is `tokenize_fast`;
# use mode="reference" for it.
_SQL_TOKEN_RE = re.compile(r"[a-z0-9]+")


def simple_tokens(text: str) -> list[str]:
    return _SQL_TOKEN_RE.findall(text.lower())


def _tokens_for_mode(text: str, mode: str) -> list[str]:
    if mode == "simple":
        return simple_tokens(text)
    return tokenize_fast(text)


class DocTermCounts:
    """Per-batch (doc_id, token, cnt, doc_len) explode — the map side of the
    postings build.  Stateless (regexes are module-level; the reference's
    per-worker lemmatizer load, T1, amortizes the same way via module
    import) — so it runs as cheap elastic tasks, not an actor pool that
    respawns per query."""

    def __init__(self, mode: str = "simple", text_col: str = "text", id_col: str = "doc_id"):
        self.mode = mode
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        ids, toks, cnts, lens = [], [], [], []
        for doc_id, text in zip(df[self.id_col].to_numpy(), df[self.text_col]):
            tokens = _tokens_for_mode(text or "", self.mode)
            n = len(tokens)
            counts: dict[str, int] = {}
            for t in tokens:
                counts[t] = counts.get(t, 0) + 1
            for t, c in counts.items():
                ids.append(doc_id)
                toks.append(t)
                cnts.append(c)
                lens.append(n)
        return pd.DataFrame(
            {"doc_id": np.array(ids, dtype=np.int64), "token": toks,
             "cnt": np.array(cnts, dtype=np.int64), "doc_len": np.array(lens, dtype=np.int64)}
        )


def doc_term_counts(
    ds: Dataset, mode: str = "simple", text_col: str = "text", id_col: str = "doc_id",
    batch_size: int = 2048, concurrency=None,
) -> Dataset:
    fn = DocTermCounts(mode=mode, text_col=text_col, id_col=id_col)
    return ds.map_batches(fn, batch_format="pandas", batch_size=batch_size)


class MissingIdfError(ValueError):
    """A term-count row's token has no entry in the idf table: the df table
    the idf came from is stale for this corpus.  Raised instead of letting
    the row's tf_idf become NaN."""


def attach_tfidf(tc: pd.DataFrame, idf: pd.Series) -> pd.DataFrame:
    """(doc_id, token, cnt, doc_len) rows → (doc_id, token, tf, tf_idf)
    against a token→idf Series.  Raises ``MissingIdfError`` naming the
    tokens ``idf`` lacks."""
    tf = tc["cnt"].to_numpy() / tc["doc_len"].to_numpy()
    idf_v = tc["token"].map(idf).to_numpy(np.float64)
    missing = np.isnan(idf_v)
    if missing.any():
        toks = sorted(set(tc["token"].to_numpy()[missing]))
        raise MissingIdfError(
            f"{len(toks)} token(s) have no idf (stale df table): {toks[:20]}")
    return pd.DataFrame({"doc_id": tc["doc_id"], "token": tc["token"],
                         "tf": tf, "tf_idf": tf * idf_v})


def token_document_frequency(term_counts: Dataset) -> Dataset:
    """A1: df(token) = number of docs containing it.  ``term_counts`` already
    has one row per (doc, token), so df = pre-aggregated row count."""
    return pre_aggregate(term_counts, ["token"], {"df": (None, "count")})


def tfidf_postings(docs: Dataset, mode: str = "simple", round_to: int | None = 6,
                   broadcast_vocab_limit: int = 2_000_000) -> Dataset:
    """Full postings table (doc_id, token, tf, tf_idf).

    tf = cnt/doc_len (reference helpers.py:21-27); idf = ln(N/df)
    (index_construction.py:191-194); tf_idf = tf*idf (:204).

    The idf table is vocabulary-sized: up to ``broadcast_vocab_limit``
    tokens it is broadcast (one object-store copy, no shuffle of the
    postings); above that — a web-scale vocabulary (~10^8) does not belong
    on the driver — it stays a Dataset and attaches via a distributed
    ``hash_join`` on token.  Both paths produce identical rows.
    """
    n_docs = docs.count()
    tc = doc_term_counts(docs, mode=mode).materialize()
    df_ds = token_document_frequency(tc).materialize()
    n_vocab = df_ds.count()

    def finish(out: pd.DataFrame) -> pd.DataFrame:
        if round_to is not None:
            out["tf"] = out["tf"].round(round_to)
            out["tf_idf"] = out["tf_idf"].round(round_to)
        return out

    if n_vocab <= broadcast_vocab_limit:
        df_tbl = df_ds.to_pandas()
        if "df" not in df_tbl:  # the corpus tokenizes to nothing
            df_tbl = pd.DataFrame({"token": pd.Series([], dtype=object),
                                   "df": pd.Series([], dtype=np.int64)})
        # token→idf as a Series so the per-batch probe is a vectorized
        # .map (C hash loop) instead of a Python list-comprehension dict
        # lookup; n_docs/d runs the same IEEE double division per element
        # as the scalar form did, so values are bit-identical
        idf = pd.Series(
            np.log(np.float64(n_docs)
                   / df_tbl["df"].to_numpy(np.float64)),
            index=df_tbl["token"])
        idf_ref = ray.put(idf)

        def tfidf_fn(df: pd.DataFrame) -> pd.DataFrame:
            return finish(attach_tfidf(df, ray.get(idf_ref)))  # plasma-local

        return tc.map_batches(tfidf_fn, batch_format="pandas")

    from searchengine_ray.stages.relational import hash_join

    joined = hash_join(tc, df_ds, on="token")

    def tfidf_join_fn(df: pd.DataFrame) -> pd.DataFrame:
        tf = df["cnt"].to_numpy() / df["doc_len"].to_numpy()
        idf_v = np.log(n_docs / df["df"].to_numpy(dtype=np.float64))
        return finish(pd.DataFrame(
            {"doc_id": df["doc_id"].to_numpy(), "token": df["token"].to_numpy(),
             "tf": tf, "tf_idf": tf * idf_v}))

    return joined.map_batches(tfidf_join_fn, batch_format="pandas")


class TextFeatures:
    """Language-ID + quality + token-count features per doc (actor pool —
    regexes/stopword sets built once per actor)."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        feats = [textstats.quality_features(t or "") for t in df[self.text_col]]
        out = df.copy()
        out["lang_pred"] = [textstats.detect_language(t or "") for t in df[self.text_col]]
        for k in ("n_words", "mean_word_len", "punct_ratio", "stopword_ratio"):
            out[k] = [f[k] for f in feats]
        out["n_tokens_bpeish"] = [
            textstats.count_tokens_bpeish(t or "") for t in df[self.text_col]
        ]
        return out


def fingerprint_batch(df: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """Winnowing rolling-hash fingerprints + a whole-doc stable hash.

    Fingerprints via the vectorized batch kernel (cache-blocked modular
    correlation over the batch's concatenated bytes — pinned bit-identical
    to the per-doc ``rolling_fingerprint`` by tests)."""
    out = df.copy()
    out["fingerprints"] = textstats.batch_fingerprints(list(df[text_col]))
    out["content_hash"] = [stable_hash64(t or "") for t in df[text_col]]
    return out


# --- BPE tokenizer training + encoding (functions/bpe.py) --------------------


def bpe_train(ds: Dataset, num_merges: int = 64,
              max_words: int = 2_000_000,
              text_col: str = "text") -> list[tuple[str, str]]:
    """Learn BPE merges from a corpus Dataset.

    Distributed part: ONE word-count ``pre_aggregate`` (map-side combined) —
    the only corpus-scaled work.  The merge loop then runs on the
    DISTINCT-WORD table, which is vocabulary-bounded (~10^6-10^7 rows at
    web scale), pulled to the driver through a deterministic
    (count DESC, word ASC) ``global_topk`` cap of ``max_words`` — the same
    count-capped-driver-pull discipline as ``knn.build_centroids``."""
    from searchengine_ray.functions.bpe import train_bpe_from_counts
    from searchengine_ray.stages.relational import global_topk

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        words: list[str] = []
        for t in df[text_col]:
            words.extend(simple_tokens(t or ""))
        return pd.DataFrame({"word": pd.Series(words, dtype=object)})

    counts = pre_aggregate(
        ds.map_batches(explode, batch_format="pandas", batch_size=2048),
        ["word"], {"cnt": (None, "count")})
    top = global_topk(counts, ["cnt", "word"], [False, True], max_words)
    wc = dict(zip(top["word"], top["cnt"].astype(int)))
    return train_bpe_from_counts(wc, num_merges)


def bpe_token_stats(ds: Dataset, merges: list[tuple[str, str]],
                    text_col: str = "text",
                    id_col: str = "doc_id") -> Dataset:
    """Per-doc (n_words, n_bpe_tokens) under the learned merges — map-only;
    the merge table broadcasts once and each worker's ``BPEEncoder`` caches
    word encodings (Zipf ⇒ high hit rate)."""
    import ray as _ray

    merges_ref = _ray.put(list(merges))

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        from searchengine_ray.functions.bpe import get_encoder
        enc = get_encoder(_ray.get(merges_ref))  # per-process cached
        n_words, n_bpe = [], []
        for t in df[text_col]:
            ws = simple_tokens(t or "")
            n_words.append(len(ws))
            n_bpe.append(len(enc.encode(ws)))
        return pd.DataFrame({
            "doc_id": df[id_col].to_numpy(),
            "n_words": np.array(n_words, dtype=np.int64),
            "n_bpe_tokens": np.array(n_bpe, dtype=np.int64)})

    return ds.map_batches(fn, batch_format="pandas", batch_size=1024)


def vocab_encode(
    ds: Dataset, vocab_size: int = 256, text_col: str = "text",
    id_col: str = "doc_id", batch_size: int = 2048,
) -> "tuple[pd.DataFrame, Dataset]":
    """Frequency-ranked vocabulary build + corpus token-id encode — the
    tokenize-to-ids prep step before model training: token id = dense
    rank under (count desc, token asc), OOV → −1.

    Scale shape: corpus token counts through ONE ``pre_aggregate``; the
    vocabulary is the O(vocab_size) ``global_topk`` (two-level merge,
    never a full vocabulary pull); the token→id table broadcasts once
    via ``ray.put`` and encoding is MAP-ONLY — each batch tokenizes with
    the SQL-parity tokenizer and resolves ids with one sorted-vocab
    searchsorted per batch (no per-token dict probes).  Ids emit as a
    space-joined string (the ``chunk_documents`` list-rendering
    contract, identical on both engine and oracle).

    Returns (vocab DataFrame (token, tid), encoded Dataset (doc_id,
    n_tokens, ids))."""
    import ray

    counts = pre_aggregate(
        doc_term_counts(ds, mode="simple", text_col=text_col,
                        id_col=id_col, batch_size=batch_size)
        .map_batches(lambda df: pd.DataFrame(
            {"token": df["token"], "cnt": df["cnt"].astype(np.int64)}),
            batch_format="pandas"),
        ["token"], {"n": ("cnt", "sum")})
    from searchengine_ray.stages.relational import global_topk

    top = global_topk(counts, ["n", "token"], [False, True], vocab_size)
    vocab = pd.DataFrame({"token": top["token"].to_numpy(),
                          "tid": np.arange(len(top), dtype=np.int64)})
    vtok = vocab["token"].to_numpy()
    order = np.argsort(vtok, kind="stable")
    v_ref = ray.put((vtok[order], vocab["tid"].to_numpy(np.int64)[order]))

    def encode(df: pd.DataFrame) -> pd.DataFrame:
        toks_sorted, tids = ray.get(v_ref)
        out_id, out_n, out_ids = [], [], []
        for did, text in zip(df[id_col].to_numpy(), df[text_col]):
            toks = simple_tokens(text or "")
            if toks:
                t = np.asarray(toks, dtype=object)
                pos = np.searchsorted(toks_sorted, t)
                pos[pos == len(toks_sorted)] = 0
                hit = toks_sorted[pos] == t
                ids = np.where(hit, tids[pos], np.int64(-1))
            else:
                ids = np.array([], dtype=np.int64)
            out_id.append(did)
            out_n.append(len(ids))
            out_ids.append(" ".join(map(str, ids.tolist())))
        return pd.DataFrame({id_col: np.array(out_id, dtype=np.int64),
                             "n_tokens": np.array(out_n, dtype=np.int64),
                             "ids": out_ids})

    return vocab, ds.map_batches(encode, batch_format="pandas",
                                 batch_size=batch_size)
