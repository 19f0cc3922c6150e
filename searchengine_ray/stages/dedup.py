"""Deduplication stages: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

Exact dedup (reference D3 — ``utils/__init__.py:25-30``, ``README.md:166-168``)
is hash-partition + per-group first.  Near-dup families replace the
reference's O(N²) global scan (``ngrams.py:88-101``) with banded-LSH
candidate generation + exact verification (SURVEY.md §7 hard part 2).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
from ray.data import Dataset

from searchengine_ray.functions.minhash import (
    band_digests, batch_signatures, make_coeffs, minhash_signature)
from searchengine_ray.functions.ngrams import shingle_hashes, stable_hash64
from searchengine_ray.stages.text import simple_tokens


def add_content_hash(ds: Dataset, text_col: str = "text", out_col: str = "content_hash") -> Dataset:
    """Stable 64-bit content hash column (vectorized-per-batch)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df[out_col] = np.fromiter(
            (stable_hash64(t or "") for t in df[text_col]), dtype=np.int64, count=len(df)
        )
        return df

    return ds.map_batches(fn, batch_format="pandas")


def dedup_exact(
    ds: Dataset, text_col: str = "text", id_col: str = "doc_id"
) -> Dataset:
    """Keep the min-id row per distinct content.  Order-independent (min id),
    so it needs no sequential state — unlike the reference's arrival-order
    seen set, the keep-set is identical (min doc_id ↔ first arrival for
    monotonically assigned ids).

    Shuffle shape: the content hash is near-unique, so per-group machinery
    (native ``groupby.map_groups`` — or even a per-group Python fn) is the
    many-tiny-groups pathology.  ``bucketed_apply`` runs ONE vectorized
    ``sort + drop_duplicates`` per hash bucket instead."""
    from searchengine_ray.stages.relational import bucketed_apply

    hashed = add_content_hash(ds, text_col=text_col)

    def keep_min_id(g: pd.DataFrame) -> pd.DataFrame:
        return (g.sort_values(id_col, kind="mergesort")
                .drop_duplicates("content_hash", keep="first"))

    return bucketed_apply(hashed, ["content_hash"], keep_min_id)


# ---------------------------------------------------------------------------
# Shared shingle-set machinery (used by both MinHash verify and exact n-gram
# Jaccard — everything distributed, nothing doc-scaled on the driver)
# ---------------------------------------------------------------------------


def explode_shingles(
    ds: Dataset, shingle_n: int = 3,
    text_col: str = "text", id_col: str = "doc_id",
    drop_ref=None,
) -> Dataset:
    """Distinct (doc_id, sh, n) rows — ``shingle_hashes`` yields a set, so
    the explode is distinct by construction.  ``n`` is the doc's shingle-set
    size (repeated per row; 8 bytes) so downstream stages never need a
    per-doc sizes lookup.  ``drop_ref``: optional ``ray.put`` int64 numpy
    array of shingle hashes to EXCLUDE (hot-shingle cap) — sizes then count
    the filtered set, keeping jaccard internally consistent.

    Hot path is array-built: per-doc hash arrays are concatenated once and
    (doc_id, n) columns come from np.repeat/bincount — the only per-row
    Python left is the blake2b shingle hashing itself."""

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        drop = ray.get(drop_ref) if drop_ref is not None else None
        arrs = [
            np.fromiter(sh, dtype=np.int64, count=len(sh))
            for sh in (shingle_hashes(simple_tokens(t or ""), shingle_n)
                       for t in df[text_col])
        ]
        ndocs = len(arrs)
        lens = np.fromiter((a.size for a in arrs), dtype=np.int64, count=ndocs)
        flat = (np.concatenate(arrs) if ndocs and lens.sum()
                else np.array([], dtype=np.int64))
        doc_idx = np.repeat(np.arange(ndocs, dtype=np.int64), lens)
        if drop is not None and drop.size and flat.size:
            keep = ~np.isin(flat, drop)
            flat = flat[keep]
            doc_idx = doc_idx[keep]
            lens = np.bincount(doc_idx, minlength=ndocs).astype(np.int64)
        # ids keep their dtype (int64 doc ids stay int64; string ids — e.g.
        # image_id URLs — pass through so pair output is joinable back)
        doc_ids = df[id_col].to_numpy()
        if doc_ids.dtype.kind in "iu":
            doc_ids = doc_ids.astype(np.int64, copy=False)
        return pd.DataFrame({"doc_id": doc_ids[doc_idx],
                             "sh": flat,
                             "n": lens[doc_idx]})

    return ds.map_batches(explode, batch_format="pandas", batch_size=1024)


def _pair_jaccard_coshuffle(
    cand: Dataset, exploded: Dataset, threshold: float, round_to: int = 6,
) -> Dataset:
    """Exact jaccard for candidate (doc_a, doc_b) pairs in TWO all-to-alls.

    1. union pair-membership rows (2 per pair, tagged side 0/1) with the
       shingle rows, co-shuffle on doc_id: one vectorized merge per bucket
       attaches each member doc's shingles (duplicate candidates collapse
       here — same doc ⇒ same bucket).
    2. co-shuffle those on (pair_a, pair_b): side-0 × side-1 merge on the
       shingle gives |A∩B|, sizes ride along on every row, jaccard is one
       vectorized expression.  A pair sharing zero shingles drops out — it
       could never pass a positive threshold.

    Everything is (int64 × 6) rows; no shingle set, sizes map or pair list
    ever lands on the driver."""
    from searchengine_ray.stages.relational import bucketed_apply

    cols = ["doc_id", "pair_a", "pair_b", "side", "sh", "n"]

    def members(df: pd.DataFrame) -> pd.DataFrame:
        a = df["doc_a"].to_numpy(dtype=np.int64)
        b = df["doc_b"].to_numpy(dtype=np.int64)
        k = len(df)
        z = np.zeros(2 * k, dtype=np.int64)
        return pd.DataFrame({"doc_id": np.concatenate([a, b]),
                             "pair_a": np.tile(a, 2), "pair_b": np.tile(b, 2),
                             "side": np.repeat(np.array([0, 1], np.int64), k),
                             "sh": z, "n": z})[cols]

    def widen_sh(df: pd.DataFrame) -> pd.DataFrame:
        z = np.zeros(len(df), dtype=np.int64)
        return pd.DataFrame({"doc_id": df["doc_id"].to_numpy(dtype=np.int64),
                             "pair_a": z, "pair_b": z,
                             "side": np.full(len(df), -1, dtype=np.int64),
                             "sh": df["sh"].to_numpy(dtype=np.int64),
                             "n": df["n"].to_numpy(dtype=np.int64)})[cols]

    both = (cand.map_batches(members, batch_format="pandas")
            .union(exploded.map_batches(widen_sh, batch_format="pandas")))

    def attach(g: pd.DataFrame) -> pd.DataFrame:
        side = g["side"].to_numpy()
        mem = g[side >= 0].drop_duplicates(["pair_a", "pair_b", "side"])
        shg = g[side < 0]
        out = mem[["doc_id", "pair_a", "pair_b", "side"]].merge(
            shg[["doc_id", "sh", "n"]], on="doc_id")
        return out[["pair_a", "pair_b", "side", "sh", "n"]]

    attached = bucketed_apply(both, ["doc_id"], attach)

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"doc_a": pd.Series([], dtype=np.int64),
                              "doc_b": pd.Series([], dtype=np.int64),
                              "jaccard": pd.Series([], dtype=np.float64)})
        if not len(g):
            return empty
        side = g["side"].to_numpy()
        s0 = g[side == 0]
        s1 = g[side == 1]
        m = s0[["pair_a", "pair_b", "sh"]].merge(
            s1[["pair_a", "pair_b", "sh"]], on=["pair_a", "pair_b", "sh"])
        if not len(m):
            return empty
        cnt = m.groupby(["pair_a", "pair_b"], as_index=False, sort=False).agg(
            shared=("sh", "size"))
        na = s0.drop_duplicates(["pair_a", "pair_b"])[
            ["pair_a", "pair_b", "n"]].rename(columns={"n": "na"})
        nb = s1.drop_duplicates(["pair_a", "pair_b"])[
            ["pair_a", "pair_b", "n"]].rename(columns={"n": "nb"})
        r = cnt.merge(na, on=["pair_a", "pair_b"]).merge(nb, on=["pair_a", "pair_b"])
        jac = r["shared"].to_numpy(np.float64) / (
            r["na"].to_numpy(np.float64) + r["nb"].to_numpy(np.float64)
            - r["shared"].to_numpy(np.float64))
        keep = jac > threshold
        return pd.DataFrame({"doc_a": r["pair_a"].to_numpy()[keep],
                             "doc_b": r["pair_b"].to_numpy()[keep],
                             "jaccard": np.round(jac[keep], round_to)})

    return bucketed_apply(attached, ["pair_a", "pair_b"], resolve)


def _jaccard_from_counts(
    counted: Dataset, threshold: float, round_to: int = 6,
) -> Dataset:
    """(doc_a, doc_b, shared, na, nb) → thresholded jaccard rows in one
    vectorized pass: shared/(|A|+|B|-shared)."""

    def jaccard_batch(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"doc_a": pd.Series([], dtype=np.int64),
                                 "doc_b": pd.Series([], dtype=np.int64),
                                 "jaccard": pd.Series([], dtype=np.float64)})
        na = df["na"].to_numpy(dtype=np.float64)
        nb = df["nb"].to_numpy(dtype=np.float64)
        shared = df["shared"].to_numpy(dtype=np.float64)
        jac = shared / (na + nb - shared)
        keep = jac > threshold
        return pd.DataFrame({"doc_a": df["doc_a"].to_numpy()[keep],
                             "doc_b": df["doc_b"].to_numpy()[keep],
                             "jaccard": np.round(jac[keep], round_to)})

    return counted.map_batches(jaccard_batch, batch_format="pandas")


# ---------------------------------------------------------------------------
# MinHash + LSH near-dup
# ---------------------------------------------------------------------------


class MinHashStage:
    """doc → (signature bands) rows.  Coefficients built once per instance;
    the whole batch is signed in one vectorized pass (``batch_signatures``:
    concatenated shingles → chunked affine matrix → per-doc
    ``minimum.reduceat``) and band digests come from the vectorized FNV
    (``band_digests``) — no per-doc Python beyond tokenization."""

    def __init__(self, num_perm: int = 128, num_bands: int = 32, shingle_n: int = 3,
                 text_col: str = "text", id_col: str = "doc_id"):
        self.a, self.b = make_coeffs(num_perm)
        self.num_bands = num_bands
        self.shingle_n = shingle_n
        self.text_col = text_col
        self.id_col = id_col

    def signature(self, text: str) -> np.ndarray:
        sh = shingle_hashes(simple_tokens(text), self.shingle_n)
        return minhash_signature(np.fromiter(sh, dtype=np.int64, count=len(sh)), self.a, self.b)

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        sh_arrays = [
            np.fromiter(sh, dtype=np.int64, count=len(sh))
            for sh in (shingle_hashes(simple_tokens(t or ""), self.shingle_n)
                       for t in df[self.text_col])
        ]
        sigs = batch_signatures(sh_arrays, self.a, self.b)
        digests = band_digests(sigs, self.num_bands)  # (D, bands)
        n = len(df)
        return pd.DataFrame(
            {"doc_id": np.repeat(df[self.id_col].to_numpy(), self.num_bands),
             "band_id": np.tile(np.arange(self.num_bands, dtype=np.int32), n),
             "band_digest": digests.ravel()}
        )


def minhash_lsh_candidates(
    ds: Dataset, num_perm: int = 128, num_bands: int = 32,
    text_col: str = "text", id_col: str = "doc_id", dedup: bool = True,
) -> Dataset:
    """Candidate near-dup pairs (doc_a < doc_b) sharing ≥1 LSH band bucket.

    shingle → minhash → band → ``groupby(band)`` → per-bucket pairing —
    the all-to-all is over tiny (band, digest, id) rows, never documents.
    ``dedup=False`` skips the cross-band dedup shuffle when the consumer
    collapses duplicates itself (the verify co-shuffle does)."""
    # instance, not callable class: coefficient setup is trivial (two
    # seeded randint arrays), so stateless tasks beat an actor pool that
    # would respawn per call (CLAUDE.md gotcha)
    stage = MinHashStage(num_perm=num_perm, num_bands=num_bands,
                         text_col=text_col, id_col=id_col)
    bands = ds.map_batches(stage, batch_format="pandas", batch_size=1024)

    from searchengine_ray.stages.relational import bucketed_apply

    def pairs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        m = g.merge(g, on=["band_id", "band_digest"], suffixes=("_a", "_b"))
        m = m[m["doc_id_a"] < m["doc_id_b"]]
        return pd.DataFrame({"doc_a": m["doc_id_a"].to_numpy(dtype=np.int64),
                             "doc_b": m["doc_id_b"].to_numpy(dtype=np.int64)})

    cand = bucketed_apply(bands, ["band_id", "band_digest"], pairs_bucket)
    if not dedup:
        return cand
    # dedup pairs discovered in multiple bands
    return bucketed_apply(cand, ["doc_a", "doc_b"],
                          lambda g: g.drop_duplicates(["doc_a", "doc_b"]))


def build_band_store(
    ds: Dataset, store_dir: str, num_perm: int = 128, num_bands: int = 32,
    shingle_n: int = 3, text_col: str = "text", id_col: str = "doc_id",
) -> None:
    """Persist the corpus's LSH band table (doc_id, band_id, band_digest)
    once, so future delta corpora can near-dup against it WITHOUT
    re-signing the base (the dedup-side analog of the persisted index +
    df side tables in ``index_pipeline.merge_index``).  ~num_bands × 20 B
    per doc; deterministic coefficients (``make_coeffs``) make signatures
    reproducible across runs, so store and delta always band-compare."""
    stage = MinHashStage(num_perm=num_perm, num_bands=num_bands,
                         shingle_n=shingle_n, text_col=text_col,
                         id_col=id_col)
    ds.map_batches(stage, batch_format="pandas",
                   batch_size=1024).write_parquet(store_dir)


def incremental_neardup_pairs(
    store_dir: str, base_ds: Dataset, delta_ds: Dataset,
    threshold: float = 0.65, num_perm: int = 128, num_bands: int = 32,
    shingle_n: int = 3, text_col: str = "text", id_col: str = "doc_id",
    broadcast_limit: int = 5_000_000,
) -> Dataset:
    """Near-dup pairs INVOLVING a delta corpus, against a persisted band
    store — the daily-increment shape: at 100 TB you cannot re-sign the
    corpus per increment, and you cannot re-tokenize it for verification
    either.

    Delta-scale savings, in order:
    1. sign ONLY the delta (the base reads back as its stored band rows);
    2. the store is PROBED, not shuffled: the delta's band-digest set
       broadcasts (O(delta × bands) int64s) and base band rows filter
       map-side on the read — only rows that can possibly pair with a
       delta doc reach the candidate all-to-all, so the shuffle is
       O(matches), never O(corpus bands);
    3. candidates = band-bucket pairs touching ≥ 1 delta doc (base-base
       pairs were already known before the increment — not re-derived);
    4. exact-jaccard verify re-tokenizes ONLY candidate-involved docs:
       the candidate id set broadcasts and the corpus filters map-only
       (one semi-join co-shuffle instead, above ``broadcast_limit``).

    Same recall argument as ``minhash_lsh_candidates`` (the store and the
    delta share deterministic coefficients)."""
    import ray.data as rd

    from searchengine_ray.stages.relational import (
        bucketed_apply, hash_semi_anti_join)

    stage = MinHashStage(num_perm=num_perm, num_bands=num_bands,
                         shingle_n=shingle_n, text_col=text_col,
                         id_col=id_col)
    # O(delta × bands) rows; reused for the digest set AND the candidate
    # union — materialize once (shared-lazy-sub-plan gotcha)
    delta_bands = delta_ds.map_batches(
        stage, batch_format="pandas", batch_size=1024).map_batches(
        lambda df: df.assign(is_delta=True),
        batch_format="pandas").materialize()

    # delta digest set: bounded by the DELTA size, the quantity this
    # operator is parameterized to keep small
    dig = np.unique(np.concatenate([
        b["band_digest"].to_numpy(np.int64) for b in delta_bands.iter_batches(
            batch_format="pandas", batch_size=65_536)] or
        [np.array([], dtype=np.int64)]))

    base_bands = rd.read_parquet(store_dir)
    if len(dig) <= broadcast_limit:
        dig_ref = ray.put(dig)

        def probe_store(df: pd.DataFrame) -> pd.DataFrame:
            d = ray.get(dig_ref)
            keep = np.isin(df["band_digest"].to_numpy(np.int64), d)
            out = df[keep]
            return out.assign(is_delta=False)

        base_bands = base_bands.map_batches(probe_store,
                                            batch_format="pandas")
    else:  # delta too wide to broadcast: co-shuffle the full store
        base_bands = base_bands.map_batches(
            lambda df: df.assign(is_delta=False), batch_format="pandas")

    def pairs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        m = g.merge(g, on=["band_id", "band_digest"], suffixes=("_a", "_b"))
        m = m[(m["doc_id_a"] < m["doc_id_b"])
              & (m["is_delta_a"] | m["is_delta_b"])]
        return pd.DataFrame({"doc_a": m["doc_id_a"].to_numpy(dtype=np.int64),
                             "doc_b": m["doc_id_b"].to_numpy(dtype=np.int64)})

    # cand feeds BOTH the id filter and the verify co-shuffle —
    # materialize or Ray re-executes the candidate sub-plan per consumer;
    # O(candidate pairs) blocks
    cand = bucketed_apply(base_bands.union(delta_bands),
                          ["band_id", "band_digest"],
                          pairs_bucket).materialize()

    ids = np.unique(np.concatenate([
        np.concatenate([b["doc_a"].to_numpy(np.int64),
                        b["doc_b"].to_numpy(np.int64)])
        for b in cand.iter_batches(batch_format="pandas",
                                   batch_size=65_536)] or
        [np.array([], dtype=np.int64)]))
    corpus = base_ds.union(delta_ds)
    if len(ids) <= broadcast_limit:
        ids_ref = ray.put(ids)

        def keep_touched(df: pd.DataFrame) -> pd.DataFrame:
            return df[np.isin(df[id_col].to_numpy(np.int64),
                              ray.get(ids_ref))]

        touched = corpus.map_batches(keep_touched, batch_format="pandas")
    else:

        def stack_ids(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({id_col: np.concatenate(
                [df["doc_a"].to_numpy(dtype=np.int64),
                 df["doc_b"].to_numpy(dtype=np.int64)])})

        touched = hash_semi_anti_join(
            corpus, cand.map_batches(stack_ids, batch_format="pandas"),
            on=id_col)
    exploded = explode_shingles(touched, shingle_n, text_col, id_col)
    return _pair_jaccard_coshuffle(cand, exploded, threshold)


def verify_jaccard_pairs(
    ds: Dataset, pairs: Dataset, threshold: float, shingle_n: int = 3,
    text_col: str = "text", id_col: str = "doc_id", round_to: int = 6,
) -> Dataset:
    """Exact-Jaccard verification of candidate pairs — fully distributed.

    Pairs never materialize on the driver — see ``_pair_jaccard_coshuffle``
    for the two-all-to-all co-shuffle that attaches shingles and resolves
    jaccard."""
    exploded = explode_shingles(ds, shingle_n, text_col, id_col)
    return _pair_jaccard_coshuffle(pairs, exploded, threshold, round_to)


DEFAULT_MAX_SHINGLE_DF = 64


def _set_overlap_pair_counts(
    ds: Dataset, explode_fn, max_df: int | None,
) -> Dataset:
    """(doc_a, doc_b, shared, na, nb) for every doc pair sharing ≥1 set
    element — the common core of the set-overlap dedup family (jaccard /
    containment / fingerprint-overlap finishers divide these counts
    differently).  ``explode_fn(ds, drop_ref)`` must yield distinct
    (doc_id, sh, n) rows (n = the doc's capped set size, riding along).

    Any overlapping pair shares ≥1 element, so: explode →
    ``groupby(sh)`` emits co-occurring pairs → ``groupby(pair)`` counts
    shared elements.  No pairwise scan ever touches non-overlapping docs —
    the distributed form of the reference's O(N²) loop (ngrams.py:88-101).

    ``max_df``: an element shared by k docs emits O(k²) pairs, so a
    stop-phrase shingle / boilerplate fingerprint is a blowup.  Elements
    with document frequency > this cap are DROPPED — from pair generation
    AND from the set sizes, so the overlap measures stay internally
    consistent (each oracle SQL applies the same cap).  ``None`` disables
    (exact reference semantics; the MinHash verify path uses uncapped
    sets)."""
    from searchengine_ray.stages.relational import pre_aggregate

    drop_ref = None
    if max_df is not None:
        # pass 1: element document frequencies → the HOT set (few by
        # definition: each has df > cap, so ≤ n_rows/cap of them reach the
        # driver).  pass 2 re-explodes with the hot set excluded, so the
        # per-doc sizes it emits count the CAPPED sets.
        raw = explode_fn(ds, None)
        dfc = pre_aggregate(raw, ["sh"], {"df": (None, "count")})
        hot = dfc.map_batches(
            lambda df: df[df["df"] > max_df][["sh"]],
            batch_format="pandas").to_pandas()
        if len(hot):
            drop_ref = ray.put(np.sort(hot["sh"].to_numpy(dtype=np.int64)))

    exploded = explode_fn(ds, drop_ref)

    from searchengine_ray.stages.relational import bucketed_apply

    def pairs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # one vectorized self-merge per bucket: every shingle group emits
        # its co-occurring (a < b) pairs at once — no per-shingle Python
        m = g.merge(g, on="sh", suffixes=("_a", "_b"))
        m = m[m["doc_id_a"] < m["doc_id_b"]]
        return pd.DataFrame({"doc_a": m["doc_id_a"].to_numpy(),
                             "doc_b": m["doc_id_b"].to_numpy(),
                             "na": m["n_a"].to_numpy(dtype=np.int64),
                             "nb": m["n_b"].to_numpy(dtype=np.int64)})

    pair_rows = bucketed_apply(exploded, ["sh"], pairs_bucket)
    return pre_aggregate(pair_rows, ["doc_a", "doc_b"],
                         {"shared": (None, "count"),
                          "na": ("na", "min"), "nb": ("nb", "min")})


def _ngram_pair_counts(
    ds: Dataset, shingle_n: int = 3,
    text_col: str = "text", id_col: str = "doc_id",
    max_shingle_df: int | None = DEFAULT_MAX_SHINGLE_DF,
) -> Dataset:
    """Shingle-set instantiation of ``_set_overlap_pair_counts``."""
    return _set_overlap_pair_counts(
        ds,
        lambda d, drop_ref: explode_shingles(d, shingle_n, text_col,
                                             id_col, drop_ref=drop_ref),
        max_shingle_df)


def explode_fingerprints(
    ds: Dataset, text_col: str = "text", id_col: str = "doc_id",
    window: int = 64, keep_mod: int = 8, drop_ref=None,
) -> Dataset:
    """Distinct (doc_id, sh, n) rows where ``sh`` is a winnowing
    rolling-hash fingerprint (``textstats.batch_fingerprints`` — the
    vectorized cache-blocked kernel) and ``n`` the doc's distinct-
    fingerprint count after the optional hot-fingerprint drop.  Same
    output contract as ``explode_shingles`` so the set-overlap core
    serves both families."""
    from searchengine_ray.functions.textstats import batch_fingerprints

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        drop = ray.get(drop_ref) if drop_ref is not None else None
        fps = batch_fingerprints(list(df[text_col]), window, keep_mod)
        ndocs = len(fps)
        lens = np.fromiter((len(f) for f in fps), dtype=np.int64,
                           count=ndocs)
        flat = (np.concatenate([np.asarray(f, dtype=np.int64)
                                for f in fps if f])
                if lens.sum() else np.array([], dtype=np.int64))
        doc_idx = np.repeat(np.arange(ndocs, dtype=np.int64), lens)
        # distinct per doc: one lexsort over the batch, consecutive-dup mask
        if flat.size:
            order = np.lexsort((flat, doc_idx))
            flat = flat[order]
            doc_idx = doc_idx[order]
            first = np.empty(flat.size, dtype=bool)
            first[0] = True
            np.not_equal(flat[1:], flat[:-1], out=first[1:])
            first[1:] |= doc_idx[1:] != doc_idx[:-1]
            flat = flat[first]
            doc_idx = doc_idx[first]
        if drop is not None and drop.size and flat.size:
            keep = ~np.isin(flat, drop)
            flat = flat[keep]
            doc_idx = doc_idx[keep]
        lens = np.bincount(doc_idx, minlength=ndocs).astype(np.int64)
        doc_ids = df[id_col].to_numpy()
        if doc_ids.dtype.kind in "iu":
            doc_ids = doc_ids.astype(np.int64, copy=False)
        return pd.DataFrame({"doc_id": doc_ids[doc_idx],
                             "sh": flat,
                             "n": lens[doc_idx]})

    return ds.map_batches(explode, batch_format="pandas", batch_size=1024)


def fingerprint_overlap_pairs(
    ds: Dataset, min_shared: int = 4,
    window: int = 64, keep_mod: int = 8,
    text_col: str = "text", id_col: str = "doc_id", round_to: int = 6,
    max_fp_df: int | None = DEFAULT_MAX_SHINGLE_DF,
) -> Dataset:
    """Winnowing-fingerprint copy detection (the MOSS/Rabin family —
    Schleimer, Wilkerson & Aiken, SIGMOD 2003): docs sharing ≥
    ``min_shared`` distinct content-defined fingerprints, with
    ``overlap`` = shared/min(|A|,|B|).

    Where shingle Jaccard measures whole-set resemblance over EVERY
    token n-gram, winnowing samples ~1/keep_mod of the byte-window
    hashes content-defined, so matching survives insertion/deletion
    shifts at keep_mod× less exploded volume — the copy-detection
    trade-off a 100-TB pass wants.  Same distributed set-overlap core
    as ``ngram_jaccard_pairs`` (hot-element df cap mirrored in the
    oracle SQL); the SQL gate checks the pair semantics over the
    engine-materialized (doc_id, fp) scratch table, like
    ``simhash_pairs``."""
    counted = _set_overlap_pair_counts(
        ds,
        lambda d, drop_ref: explode_fingerprints(
            d, text_col, id_col, window, keep_mod, drop_ref=drop_ref),
        max_fp_df)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({
                "doc_a": pd.Series([], dtype=np.int64),
                "doc_b": pd.Series([], dtype=np.int64),
                "shared": pd.Series([], dtype=np.int64),
                "overlap": pd.Series([], dtype=np.float64)})
        shared = df["shared"].to_numpy(dtype=np.int64)
        keep = shared >= min_shared
        mn = np.minimum(df["na"].to_numpy(dtype=np.float64),
                        df["nb"].to_numpy(dtype=np.float64))[keep]
        return pd.DataFrame({
            "doc_a": df["doc_a"].to_numpy()[keep],
            "doc_b": df["doc_b"].to_numpy()[keep],
            "shared": shared[keep],
            "overlap": np.round(shared[keep] / mn, round_to)})

    return counted.map_batches(finish, batch_format="pandas")


def ngram_jaccard_pairs(
    ds: Dataset, threshold: float = 0.65, shingle_n: int = 3,
    text_col: str = "text", id_col: str = "doc_id", round_to: int = 6,
    max_shingle_df: int | None = DEFAULT_MAX_SHINGLE_DF,
) -> Dataset:
    """All-pairs n-gram Jaccard dedup, distributed — exact under the
    optional hot-shingle df cap (see ``_ngram_pair_counts``); jaccard =
    shared/(|A|+|B|-shared) in one vectorized pass over the counts."""
    counted = _ngram_pair_counts(ds, shingle_n, text_col, id_col,
                                 max_shingle_df)
    return _jaccard_from_counts(counted, threshold, round_to)


def ngram_containment_pairs(
    ds: Dataset, threshold: float = 0.8, shingle_n: int = 3,
    text_col: str = "text", id_col: str = "doc_id", round_to: int = 6,
    max_shingle_df: int | None = DEFAULT_MAX_SHINGLE_DF,
) -> Dataset:
    """All-pairs n-gram CONTAINMENT dedup: max(C(A,B), C(B,A)) =
    shared/min(|A|,|B|) > threshold.

    Containment is the asymmetric overlap measure Jaccard misses: a short
    doc fully quoted inside a much longer one has tiny Jaccard
    (|A∩B|/|A∪B| ≈ |A|/|B|) but containment ≈ 1 — the
    quote-inclusion/boilerplate-wrapper case a training-data dedup pass
    must catch (Broder 1997 distinguishes resemblance from containment
    for exactly this).  Same distributed counting core as
    ``ngram_jaccard_pairs``; only the final vectorized expression
    differs."""
    counted = _ngram_pair_counts(ds, shingle_n, text_col, id_col,
                                 max_shingle_df)

    def containment_batch(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"doc_a": pd.Series([], dtype=np.int64),
                                 "doc_b": pd.Series([], dtype=np.int64),
                                 "containment": pd.Series([], dtype=np.float64)})
        shared = df["shared"].to_numpy(dtype=np.float64)
        mn = np.minimum(df["na"].to_numpy(dtype=np.float64),
                        df["nb"].to_numpy(dtype=np.float64))
        con = shared / mn
        keep = con > threshold
        return pd.DataFrame({"doc_a": df["doc_a"].to_numpy()[keep],
                             "doc_b": df["doc_b"].to_numpy()[keep],
                             "containment": np.round(con[keep], round_to)})

    return counted.map_batches(containment_batch, batch_format="pandas")


def ppjoin_jaccard_pairs(
    ds: Dataset, threshold: float = 0.65, shingle_n: int = 3,
    text_col: str = "text", id_col: str = "doc_id", round_to: int = 6,
) -> Dataset:
    """EXACT all-pairs Jaccard join via global-frequency prefix filtering
    (the PPJoin family — Chaudhuri et al. ICDE'06, Xiao et al. WWW'08) —
    the third point in the set-similarity design space alongside the df-cap
    path (``ngram_jaccard_pairs``: exact under a cap that DROPS hot
    shingles from the sets) and MinHash+LSH (``minhash_lsh_candidates``:
    approximate recall).  Prefix filtering is exact over the FULL sets with
    provably bounded candidate generation and no recall parameter.

    Principle: order every doc's shingles by a single global total order
    (document frequency ascending, shingle hash as tiebreak — rarest
    first).  If J(A,B) > t then |A∩B| ≥ ⌈t·|A|⌉, so by pigeonhole the
    first ``|A| - ⌈t·|A|⌉ + 1`` shingles of A (its *prefix*) and the
    corresponding prefix of B must share an element.  Candidates therefore
    come ONLY from prefix-token co-occurrence — and because the global
    order puts frequent shingles LAST, a stop-phrase shingle shared by k
    docs lands in almost no prefix: the O(k²) blowup the df cap exists to
    kill never happens, without dropping anything from the sets.

    Distributed shape (no driver state, vocabulary never broadcast):
      1. ``explode_shingles`` → distinct (doc_id, sh, n) — materialized
         ONCE (three consumers; Ray re-executes shared lazy sub-plans).
      2. df per shingle via one ``pre_aggregate``; attach df to each row
         by a tagged-union co-shuffle on ``sh`` (the vocab table is
         unbounded at corpus scale — a broadcast would not survive).
      3. co-shuffle on ``doc_id``: one lexsort per bucket ranks each
         doc's shingles in global order, keep rank < prefix length.
      4. co-shuffle prefix rows on ``sh``: per-bucket self-merge emits
         candidate (a<b) pairs, length-filtered (J>t ⇒ t·|A| ≤ |B|).
      5. dedupe candidates (``pre_aggregate``) and verify with the exact
         two-all-to-all ``_pair_jaccard_coshuffle`` over the full sets.

    Output: (doc_a, doc_b, jaccard) — identical contract (and oracle) to
    the verified-MinHash path, but deterministic and parameter-free."""
    from searchengine_ray.stages.relational import bucketed_apply, pre_aggregate

    # prefix length p(n) = n - α(n) + 1 where α = minimal overlap a J>t
    # pair must have: ov > t·n ⇒ ov ≥ floor(t·n - eps) + 1.  The eps guards
    # the float product landing one ulp ABOVE an exact integer t·n (which
    # would shorten the prefix below the pigeonhole bound); erring long by
    # one row costs a few extra candidates, never recall.
    eps = 1e-9

    exploded = explode_shingles(ds, shingle_n, text_col, id_col).materialize()
    dfc = pre_aggregate(exploded, ["sh"], {"df": (None, "count")})

    cols = ["sh", "doc_id", "n", "df", "side"]

    def tag_rows(df: pd.DataFrame) -> pd.DataFrame:
        z = np.zeros(len(df), dtype=np.int64)
        return pd.DataFrame({"sh": df["sh"].to_numpy(dtype=np.int64),
                             "doc_id": df["doc_id"].to_numpy(dtype=np.int64),
                             "n": df["n"].to_numpy(dtype=np.int64),
                             "df": z, "side": z})[cols]

    def tag_df(df: pd.DataFrame) -> pd.DataFrame:
        z = np.zeros(len(df), dtype=np.int64)
        return pd.DataFrame({"sh": df["sh"].to_numpy(dtype=np.int64),
                             "doc_id": z, "n": z,
                             "df": df["df"].to_numpy(dtype=np.int64),
                             "side": np.full(len(df), -1, dtype=np.int64)})[cols]

    both = (exploded.map_batches(tag_rows, batch_format="pandas")
            .union(dfc.map_batches(tag_df, batch_format="pandas")))

    def attach_df(g: pd.DataFrame) -> pd.DataFrame:
        side = g["side"].to_numpy()
        rows = g[side == 0]
        dft = g[side == -1]
        return rows[["doc_id", "sh", "n"]].merge(
            dft[["sh", "df"]], on="sh")[["doc_id", "sh", "n", "df"]]

    withdf = bucketed_apply(both, ["sh"], attach_df)

    def prefix_bucket(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64),
                              "sh": pd.Series([], dtype=np.int64),
                              "n": pd.Series([], dtype=np.int64)})
        if not len(g):
            return empty
        doc = g["doc_id"].to_numpy(dtype=np.int64)
        dfv = g["df"].to_numpy(dtype=np.int64)
        shv = g["sh"].to_numpy(dtype=np.int64)
        nv = g["n"].to_numpy(dtype=np.int64)
        # one lexsort per bucket: primary doc, then the global (df, sh)
        # order within each doc (np.lexsort keys are last-is-primary)
        order = np.lexsort((shv, dfv, doc))
        doc_s, sh_s, n_s = doc[order], shv[order], nv[order]
        new = np.empty(doc_s.size, dtype=bool)
        new[0] = True
        np.not_equal(doc_s[1:], doc_s[:-1], out=new[1:])
        seg_start = np.flatnonzero(new)
        seg_len = np.diff(np.append(seg_start, doc_s.size))
        rank = np.arange(doc_s.size, dtype=np.int64) - np.repeat(seg_start,
                                                                 seg_len)
        plen = n_s - np.floor(threshold * n_s.astype(np.float64)
                              - eps).astype(np.int64)
        keep = rank < plen
        return pd.DataFrame({"doc_id": doc_s[keep], "sh": sh_s[keep],
                             "n": n_s[keep]})

    prefix = bucketed_apply(withdf, ["doc_id"], prefix_bucket)

    def pairs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        m = g.merge(g, on="sh", suffixes=("_a", "_b"))
        m = m[m["doc_id_a"] < m["doc_id_b"]]
        na = m["n_a"].to_numpy(dtype=np.float64)
        nb = m["n_b"].to_numpy(dtype=np.float64)
        # length filter: J>t ⇒ ov > t·max(|A|,|B|) and ov ≤ min(|A|,|B|)
        ok = (nb >= threshold * na - eps) & (na >= threshold * nb - eps)
        m = m[ok]
        return pd.DataFrame({"doc_a": m["doc_id_a"].to_numpy(dtype=np.int64),
                             "doc_b": m["doc_id_b"].to_numpy(dtype=np.int64)})

    pair_rows = bucketed_apply(prefix, ["sh"], pairs_bucket)
    cand = pre_aggregate(pair_rows, ["doc_a", "doc_b"],
                         {"hits": (None, "count")})
    return _pair_jaccard_coshuffle(cand, exploded, threshold, round_to)


# ---------------------------------------------------------------------------
# SimHash near-dup
# ---------------------------------------------------------------------------


def add_simhash(ds: Dataset, text_col: str = "text") -> Dataset:
    from searchengine_ray.functions.simhash import batch_simhash

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        # batch-level token-hash cache (each distinct token blake2b-hashed
        # once per batch), then ONE vectorized bit-voting pass for the whole
        # batch (batch_simhash) — no per-doc numpy loops
        cache: dict[str, int] = {}
        hs_list, ws_list = [], []
        for t in df[text_col]:
            uniq: dict[str, int] = {}
            for tok in simple_tokens(t or ""):
                uniq[tok] = uniq.get(tok, 0) + 1
            hs_list.append(np.fromiter(
                (cache.setdefault(tok, stable_hash64(tok)) for tok in uniq),
                dtype=np.int64, count=len(uniq)))
            ws_list.append(np.fromiter(uniq.values(), dtype=np.float64,
                                       count=len(uniq)))
        df["simhash"] = batch_simhash(hs_list, ws_list)
        return df

    return ds.map_batches(fn, batch_format="pandas", batch_size=1024)


def simhash_neardup_pairs(ds: Dataset, max_hamming: int = 3,
                          text_col: str = "text", id_col: str = "doc_id") -> Dataset:
    """Pairs within Hamming ≤ t via pigeonhole banding ((t+1) bands ⇒ exact
    recall) + per-bucket verification.

    The banding/verify machinery is exactly ``hash_neardup_pairs`` over the
    computed ``simhash`` column — the same (t+1)-band pigeonhole split, one
    numpy shift/mask per band over the whole batch (no per-row Python
    explode).  Output: (doc_a, doc_b, hamming)."""
    hashed = add_simhash(ds, text_col=text_col).select_columns([id_col, "simhash"])
    pairs = hash_neardup_pairs(hashed, hash_col="simhash", id_col=id_col,
                               max_hamming=max_hamming)

    def rename(df: pd.DataFrame) -> pd.DataFrame:
        return df.rename(columns={"id_a": "doc_a", "id_b": "doc_b"})

    return pairs.map_batches(rename, batch_format="pandas")


def hash_neardup_pairs(
    ds: Dataset, hash_col: str, id_col: str, max_hamming: int = 4,
) -> Dataset:
    """Near-dup pairs over an EXISTING 64-bit signature column (e.g. the
    ``phash: int64`` of the input-hint image table) within Hamming ≤ t.

    Same pigeonhole shape as ``simhash_neardup_pairs`` — (t+1) bands ⇒
    exact recall — but the signature is a table column, not computed from
    text, and ids may be any orderable dtype (URLs).  The band explode is
    one numpy shift/mask per band over the whole batch (no per-row Python);
    candidates group per (band_id, band_val) bucket, verify with vectorized
    hamming, and pairs dedupe across bands in a second co-shuffle.
    Output: (id_a, id_b, hamming) — sortable, oracle-comparable against
    ``bit_count(xor(a,b)) <= t`` SQL."""
    from searchengine_ray.functions.phash import hamming64_pairs
    from searchengine_ray.stages.relational import bucketed_apply

    num_bands = max_hamming + 1
    width = 64 // num_bands

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        h = df[hash_col].to_numpy(dtype=np.int64).view(np.uint64)
        ids = df[id_col].to_numpy()
        frames = []
        for b in range(num_bands):
            lo = b * width
            hi = 64 if b == num_bands - 1 else lo + width
            bv = ((h >> np.uint64(lo)) & np.uint64((1 << (hi - lo)) - 1))
            frames.append(pd.DataFrame({
                "id": ids,
                "band_id": np.full(len(df), b, dtype=np.int32),
                "band_val": bv.view(np.int64),
                "sig": h.view(np.int64),
            }))
        return pd.concat(frames, ignore_index=True)

    bands = ds.map_batches(explode, batch_format="pandas")

    # chunk bound for the per-group hamming workspace: m×k ≤ 2M elements
    # (~16 MB uint64) no matter how hot the bucket gets
    _WS_ELEMS = 2_097_152

    def pairs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # Candidates inside a hot (band_id, band_val) group are quadratic
        # — a pandas self-merge MATERIALIZES them all as string-id rows
        # before filtering (measured: 36M candidate rows from 70k frames
        # on the skew-heavy synthetic video corpus).  Instead: sort so
        # groups are contiguous, then per group compute the upper
        # triangle's hamming in bounded numpy chunks and materialize
        # only the survivors.
        g = g.sort_values(["band_id", "band_val"], kind="mergesort",
                          ignore_index=True)
        sig = g["sig"].to_numpy(dtype=np.int64)
        ids = g["id"].to_numpy()
        bid = g["band_id"].to_numpy()
        bval = g["band_val"].to_numpy()
        n = len(g)
        if n:
            brk = np.nonzero((bid[1:] != bid[:-1])
                             | (bval[1:] != bval[:-1]))[0] + 1
            bounds = np.concatenate(([0], brk, [n]))
        else:
            bounds = np.array([0, 0])
        gi_parts, gj_parts, h_parts = [], [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            k = int(e - s)
            if k < 2:
                continue
            ss = sig[s:e]
            step = max(1, min(k - 1, _WS_ELEMS // k))
            cols = np.arange(k)[None, :]
            for c0 in range(0, k - 1, step):
                c1 = min(c0 + step, k - 1)
                ham = hamming64_pairs(ss[c0:c1, None], ss[None, :])
                ok = ((ham <= max_hamming)
                      & (cols > np.arange(c0, c1)[:, None]))
                ri, ci = np.nonzero(ok)
                if len(ri):
                    gi_parts.append(s + c0 + ri)
                    gj_parts.append(s + ci)
                    h_parts.append(ham[ri, ci])
        if not gi_parts:
            return pd.DataFrame({"id_a": g["id"].iloc[:0],
                                 "id_b": g["id"].iloc[:0],
                                 "hamming": pd.Series([], dtype=np.int64)})
        gi = np.concatenate(gi_parts)
        gj = np.concatenate(gj_parts)
        a_ids, b_ids = ids[gi], ids[gj]
        # orient id_a < id_b (the merge-based version kept one direction
        # of the product and dropped equal-id pairs — same here)
        swap = a_ids > b_ids
        out_a = np.where(swap, b_ids, a_ids)
        out_b = np.where(swap, a_ids, b_ids)
        keep = out_a != out_b
        return pd.DataFrame({"id_a": out_a[keep], "id_b": out_b[keep],
                             "hamming": np.concatenate(h_parts)[keep]})

    cand = bucketed_apply(bands, ["band_id", "band_val"], pairs_bucket)
    return bucketed_apply(cand, ["id_a", "id_b"],
                          lambda g: g.drop_duplicates(["id_a", "id_b"]))


# ---------------------------------------------------------------------------
# Embedding-cosine near-dup
# ---------------------------------------------------------------------------


def embedding_neardup_pairs(
    ds: Dataset, threshold: float = 0.95, id_col: str = "vec_id",
    emb_col: str = "embedding", num_bands: int = 48, bits_per_band: int = 16,
    seed: int = 13,
) -> Dataset:
    """Near-dup pairs with cosine ≥ threshold via random-hyperplane LSH
    (sign buckets) + exact cosine verify.

    Scale shape: hyperplanes are drawn ONCE on the driver and ``ray.put``
    (not rebuilt per batch); only (vec_id, band, key) signature rows ride
    the LSH shuffle — never the vectors.  Vectors attach via the same
    two-all-to-all co-shuffle as the jaccard verify (union membership rows
    with the vector rows on vec_id, then resolve per pair), so a vector
    crosses the wire O(pairs), not O(bands), and cross-band duplicate
    candidates collapse en route.  48 bands × 16 bits: a random pair
    (θ≈90°) matches a
    band with P ≈ 0.5¹⁶, so junk candidates ≈ 48·1.5e-5 per pair — while a
    cos ≥ 0.95 pair (θ ≤ 18.2°) matches with P ≈ 0.899¹⁶ ≈ 0.18 per band,
    i.e. P(miss) ≈ (1-0.18)⁴⁸ ≈ 6e-5 — and exactly 0 for identical
    vectors (equal signs in every band)."""
    from searchengine_ray.stages.relational import bucketed_apply

    first = ds.take(1)
    if not first:
        return rd_from_empty_pairs()
    dim = len(first[0][emb_col])
    rng = np.random.RandomState(seed)
    planes = rng.randn(num_bands, dim, bits_per_band)
    planes_ref = ray.put(planes)
    weights = (1 << np.arange(bits_per_band)).astype(np.int64)

    work: dict = {}  # per-worker-process reusable projection buffer

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        emb = np.stack([np.asarray(e, dtype=np.float64) for e in df[emb_col]])
        pl = ray.get(planes_ref)  # plasma-local, zero-copy numpy
        n = len(df)
        buf = work.get("proj")
        if buf is None or buf.shape[0] < n:
            buf = np.empty((n, num_bands, bits_per_band), np.float64)
            work["proj"] = buf
        proj = np.einsum("nd,bdk->nbk", emb, pl, out=buf[:n]) > 0
        keys = (proj.astype(np.int64) * weights).sum(axis=2)  # (N, bands)
        return pd.DataFrame(
            {"vec_id": np.repeat(df[id_col].to_numpy(), num_bands),
             "band_id": np.tile(np.arange(num_bands, dtype=np.int32), n),
             "band_val": keys.ravel()})

    bands = ds.map_batches(explode, batch_format="pandas", batch_size=1024)

    def id_pairs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        m = g.merge(g, on=["band_id", "band_val"], suffixes=("_a", "_b"))
        m = m[m["vec_id_a"] < m["vec_id_b"]]
        return pd.DataFrame({"doc_a": m["vec_id_a"].to_numpy(dtype=np.int64),
                             "doc_b": m["vec_id_b"].to_numpy(dtype=np.int64)})

    cand = bucketed_apply(bands, ["band_id", "band_val"], id_pairs_bucket)

    # --- attach vectors + exact cosine: two co-shuffles, no hash joins ----
    cols = ["doc_id", "pair_a", "pair_b", "side", "vec"]

    def members(df: pd.DataFrame) -> pd.DataFrame:
        a = df["doc_a"].to_numpy(dtype=np.int64)
        b = df["doc_b"].to_numpy(dtype=np.int64)
        k = len(df)
        no_vec = np.empty(0, dtype=np.float64)  # ragged placeholder, not None
        return pd.DataFrame({"doc_id": np.concatenate([a, b]),
                             "pair_a": np.tile(a, 2), "pair_b": np.tile(b, 2),
                             "side": np.repeat(np.array([0, 1], np.int64), k),
                             "vec": [no_vec] * (2 * k)})[cols]

    def vec_rows(df: pd.DataFrame) -> pd.DataFrame:
        z = np.zeros(len(df), dtype=np.int64)
        return pd.DataFrame({
            "doc_id": df[id_col].to_numpy(dtype=np.int64),
            "pair_a": z, "pair_b": z,
            "side": np.full(len(df), -1, dtype=np.int64),
            "vec": [np.asarray(v, dtype=np.float64) for v in df[emb_col]],
        })[cols]

    both = (cand.map_batches(members, batch_format="pandas")
            .union(ds.map_batches(vec_rows, batch_format="pandas")))

    def attach(g: pd.DataFrame) -> pd.DataFrame:
        side = g["side"].to_numpy()
        mem = g[side >= 0].drop_duplicates(["pair_a", "pair_b", "side"])
        vecs = g[side < 0][["doc_id", "vec"]]
        out = mem[["doc_id", "pair_a", "pair_b", "side"]].merge(vecs, on="doc_id")
        return out[["pair_a", "pair_b", "side", "vec"]]

    attached = bucketed_apply(both, ["doc_id"], attach)

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        side = g["side"].to_numpy() if len(g) else np.array([], dtype=np.int64)
        s0 = g[side == 0][["pair_a", "pair_b", "vec"]]
        s1 = g[side == 1][["pair_a", "pair_b", "vec"]]
        m = s0.merge(s1, on=["pair_a", "pair_b"], suffixes=("_a", "_b"))
        if not len(m):
            return pd.DataFrame({"doc_a": pd.Series([], dtype=np.int64),
                                 "doc_b": pd.Series([], dtype=np.int64),
                                 "cosine": pd.Series([], dtype=np.float64)})
        a = np.stack([np.asarray(v, dtype=np.float64) for v in m["vec_a"]])
        b = np.stack([np.asarray(v, dtype=np.float64) for v in m["vec_b"]])
        norms = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
        norms[norms == 0] = 1.0
        sims = (a * b).sum(axis=1) / norms
        keep = sims >= threshold
        return pd.DataFrame({"doc_a": m["pair_a"].to_numpy()[keep],
                             "doc_b": m["pair_b"].to_numpy()[keep],
                             "cosine": sims[keep]})

    return bucketed_apply(attached, ["pair_a", "pair_b"], resolve)


def rd_from_empty_pairs() -> Dataset:
    import ray.data as rd

    return rd.from_pandas(pd.DataFrame({
        "doc_a": pd.Series([], dtype=np.int64),
        "doc_b": pd.Series([], dtype=np.int64),
        "cosine": pd.Series([], dtype=np.float64)}))


# ---------------------------------------------------------------------------
# Corpus snapshot diff (incremental-crawl consumer op)


def snapshot_diff(
    old: "Dataset", new: "Dataset",
    id_col: str = "doc_id", text_col: str = "text",
) -> "Dataset":
    """Diff two corpus snapshots: (id, status) for every id whose presence
    or content changed — ``added`` (new only), ``removed`` (old only),
    ``changed`` (both, different content).  Unchanged rows are dropped.

    Shuffle shape: both sides co-shuffle ONCE on the id (multi-input
    ``bucketed_apply``); each bucket resolves with one vectorized
    merge — no driver materialization, no second pass.  This is the step
    an incremental pipeline runs between yesterday's and today's crawl to
    decide what to (re)process downstream."""
    import numpy as np
    import pandas as pd

    from searchengine_ray.stages.relational import bucketed_apply

    cols = [id_col, text_col]

    def per_bucket(o: pd.DataFrame, n: pd.DataFrame) -> pd.DataFrame:
        m = o.merge(n, on=id_col, how="outer", suffixes=("_o", "_n"),
                    indicator=True)
        status = np.where(
            m["_merge"].to_numpy() == "left_only", "removed",
            np.where(m["_merge"].to_numpy() == "right_only", "added",
                     np.where(m[f"{text_col}_o"].to_numpy()
                              != m[f"{text_col}_n"].to_numpy(),
                              "changed", "unchanged")))
        out = pd.DataFrame({id_col: m[id_col].astype(np.int64),
                            "status": status})
        return out[out["status"] != "unchanged"]

    return bucketed_apply([old.select_columns(cols), new.select_columns(cols)],
                          [id_col], per_bucket)
