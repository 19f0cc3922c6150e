"""Parallel content-gate pre-filter — exact, distributed near-dup decisions.

The reference's content gate is inherently sequential: page i's verdict
depends on which of pages 0..i-1 were accepted (ngrams.py:88-101).  Run
naively, that is an Amdahl wall at giant-wave scale.  This module splits the
decision EXACTLY into:

1. **Store probe (parallel)**: "is page p a near-dup of some page accepted
   BEFORE this wave?"  State is read-only during the wave → evaluated inside
   the fetch/validate map tasks against a broadcast store snapshot.
2. **Intra-wave interaction (driver, cheap)**: page pairs within the wave
   can only be near-dups if they share ≥1 shingle hash (Jaccard > 0 ⇒
   shared shingle) or ≥1 phash band (hamming ≤ t ⇒ shared band of t+1, by
   pigeonhole).  Pages with no store hit and no wave partner are accepted
   outright — their sequential verdict is provably 'accept'.
3. **Sequential replay (driver, tiny)**: only the interacting subset is
   replayed in seq order with exact Jaccard/hamming — identical verdicts to
   the full sequential gate, because every pair that could influence a
   verdict is in the partner graph.

Worst case (every page near-dups every other) degrades to the sequential
cost — same as the reference; typical waves are ~fully parallel.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from searchengine_ray.functions.phash import _popcount64


class _Segment:
    """One delta table as COMPACT numpy arrays (~150 B per page, vs several
    KB for dict/frozenset structures — at 10^6-10^7 accepted pages the
    per-worker replica must stay array-backed or it eats the node):

    - (shingle value → local row) pairs sorted by value (binary-searchable)
    - per-row shingle-set size, per-row phash
    - per phash band: (band value, phash) pairs sorted by band value
    """

    __slots__ = ("n", "sh_vals", "sh_rows", "sizes", "band_vals", "band_ph")

    def __init__(self, tbl: pa.Table, num_bands: int):
        import pyarrow.compute as pc

        sh = tbl["shingles"]
        sh = sh.combine_chunks() if isinstance(sh, pa.ChunkedArray) else sh
        if isinstance(sh, pa.ChunkedArray):  # zero-chunk edge
            sh = sh.chunk(0) if sh.num_chunks else pa.array([], pa.list_(pa.int64()))
        offsets = np.asarray(sh.offsets.to_numpy(zero_copy_only=False), np.int64)
        offsets = offsets - offsets[0]
        flat = np.asarray(pc.list_flatten(sh).to_numpy(zero_copy_only=False), np.int64)
        self.n = tbl.num_rows
        self.sizes = np.diff(offsets).astype(np.int32)
        rows = np.repeat(np.arange(self.n, dtype=np.int32), self.sizes)
        order = np.argsort(flat, kind="stable")
        self.sh_vals = flat[order]
        self.sh_rows = rows[order]
        ph = np.asarray(tbl["phash"].to_numpy(zero_copy_only=False), np.int64)
        ph_u = ph.astype(np.uint64)
        self.band_vals: list[np.ndarray] = []
        self.band_ph: list[np.ndarray] = []
        for bv in _band_values(ph_u, num_bands):
            o = np.argsort(bv, kind="stable")
            self.band_vals.append(bv[o].astype(np.uint64))
            self.band_ph.append(ph_u[o])


def _expand_ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized concatenation of ranges [lo[i], hi[i]): returns (indices,
    which-input-range-each-index-came-from)."""
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return (np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    src = np.repeat(np.arange(lo.size, dtype=np.int64), counts)
    starts = np.zeros(lo.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    idx = np.arange(total, dtype=np.int64) - starts[src] + lo[src]
    return idx, src


class StoreIndex:
    """Probe-side index over the accepted-fingerprint store, built
    incrementally from per-wave delta tables (seq, shingles, phash) — the
    workers never re-ingest the whole store.  State is a list of immutable
    compact segments (one per delta); probes binary-search every segment,
    vectorized across the whole candidate batch."""

    COMPACT_AT = 24  # merge segments when the chain grows past this

    def __init__(self, max_hamming: int, tbl: pa.Table | None = None):
        self.num_bands = max_hamming + 1
        self.max_hamming = max_hamming
        self.segments: list[_Segment] = []
        if tbl is not None:
            self.add_table(tbl)

    def add_table(self, tbl: pa.Table) -> None:
        if tbl.num_rows:
            self.segments.append(_Segment(tbl, self.num_bands))
            if len(self.segments) > self.COMPACT_AT:
                self._compact()

    def _compact(self) -> None:
        """Merge all segments into one (amortized — keeps probe cost
        O(log N) per shingle instead of O(waves · log) on long crawls).
        Row identity within a segment is local-only, so merging just
        re-sorts the concatenated pair arrays with rebased row ids."""
        segs = self.segments
        merged = _Segment.__new__(_Segment)
        bases = np.zeros(len(segs), dtype=np.int64)
        np.cumsum([s.n for s in segs[:-1]], out=bases[1:])
        merged.n = int(sum(s.n for s in segs))
        sh_vals = np.concatenate([s.sh_vals for s in segs])
        sh_rows = np.concatenate([
            s.sh_rows.astype(np.int64) + b for s, b in zip(segs, bases)])
        order = np.argsort(sh_vals, kind="stable")
        merged.sh_vals = sh_vals[order]
        merged.sh_rows = sh_rows[order]
        merged.sizes = np.concatenate([s.sizes for s in segs])
        merged.band_vals = []
        merged.band_ph = []
        for b in range(self.num_bands):
            bv = np.concatenate([s.band_vals[b] for s in segs])
            ph = np.concatenate([s.band_ph[b] for s in segs])
            o = np.argsort(bv, kind="stable")
            merged.band_vals.append(bv[o])
            merged.band_ph.append(ph[o])
        self.segments = [merged]

    # ---- batch probes (the hot path) -------------------------------------
    def text_dup_batch(self, flat: np.ndarray, offsets: np.ndarray,
                       max_sim: float) -> np.ndarray:
        """Per-candidate 'near-dups something in the store' flags.
        ``flat``/``offsets`` = the batch's concatenated distinct shingle
        hashes + row offsets."""
        n = offsets.size - 1
        out = np.zeros(n, dtype=bool)
        if flat.size == 0:
            return out
        cand_sizes = np.diff(offsets)
        row_of_flat = np.repeat(np.arange(n, dtype=np.int64), cand_sizes)
        s = max_sim
        for seg in self.segments:
            lo = np.searchsorted(seg.sh_vals, flat, side="left")
            hi = np.searchsorted(seg.sh_vals, flat, side="right")
            idx, src = _expand_ranges(lo, hi)
            if idx.size == 0:
                continue
            crow = row_of_flat[src]
            srow = seg.sh_rows[idx].astype(np.int64)
            keys = crow * seg.n + srow
            uk, shared = np.unique(keys, return_counts=True)
            ua = uk // seg.n
            ub = (uk % seg.n).astype(np.int64)
            # jaccard = c/(la+lb-c) > s  ⟺  c·(1+s) > s·(la+lb)
            passing = shared * (1.0 + s) > s * (
                cand_sizes[ua] + seg.sizes[ub].astype(np.int64))
            out[ua[passing]] = True
        return out

    def image_dup_batch(self, ph: np.ndarray) -> np.ndarray:
        """Per-candidate 'phash within hamming ≤ t of the store' flags."""
        n = ph.size
        out = np.zeros(n, dtype=bool)
        if n == 0:
            return out
        ph_u = ph.astype(np.uint64)
        cand_bands = _band_values(ph_u, self.num_bands)
        t = self.max_hamming
        for seg in self.segments:
            for b in range(self.num_bands):
                bv = cand_bands[b]
                lo = np.searchsorted(seg.band_vals[b], bv, side="left")
                hi = np.searchsorted(seg.band_vals[b], bv, side="right")
                idx, src = _expand_ranges(lo, hi)
                if idx.size == 0:
                    continue
                close = _popcount64(seg.band_ph[b][idx] ^ ph_u[src]) <= t
                out[src[close]] = True
        return out

    def nbytes(self) -> int:
        """Resident bytes across segments (exact: numpy array payloads)."""
        total = 0
        for s in self.segments:
            total += s.sh_vals.nbytes + s.sh_rows.nbytes + s.sizes.nbytes
            total += sum(a.nbytes for a in s.band_vals)
            total += sum(a.nbytes for a in s.band_ph)
        return int(total)

    # ---- scalar compatibility wrappers -----------------------------------
    def text_dup(self, shingles: frozenset[int], max_sim: float) -> bool:
        arr = np.fromiter(shingles, dtype=np.int64, count=len(shingles))
        return bool(self.text_dup_batch(
            arr, np.array([0, arr.size], dtype=np.int64), max_sim)[0])

    def image_dup(self, ph: int) -> bool:
        return bool(self.image_dup_batch(np.array([ph], dtype=np.int64))[0])


_INDEX_STATE: dict = {"applied": [], "index": None, "max_hamming": None}


def get_store_index(delta_refs, max_hamming: int) -> StoreIndex:
    """Per-process incremental StoreIndex over the wave-delta chain — the
    replica-mode content store as seen by a fetch worker or by the driver
    (inline waves).

    ``delta_refs`` is the ordered tuple of per-wave accepted-fingerprint
    table refs.  A process applies only the deltas it hasn't seen; a chain
    that isn't an extension of the applied prefix (new crawl / resume)
    rebuilds from scratch."""
    import ray

    st = _INDEX_STATE
    hexes = [r.hex() for r in delta_refs]
    if (st["index"] is None or st["max_hamming"] != max_hamming
            or hexes[: len(st["applied"])] != st["applied"]):
        st["index"] = StoreIndex(max_hamming)
        st["applied"] = []
        st["max_hamming"] = max_hamming
    for ref, hx in zip(delta_refs[len(st["applied"]):],
                       hexes[len(st["applied"]):]):
        st["index"].add_table(ray.get(ref))
        st["applied"].append(hx)
    return st["index"]


def drop_store_index() -> None:
    """Free this process's replica (the next ``get_store_index`` rebuilds)."""
    _INDEX_STATE.update(applied=[], index=None, max_hamming=None)


def _flatten_live(shingle_lists, phashes, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(flat shingle hashes, row offsets, phash array) for the live rows —
    the wire/probe format shared by the local replica and the probe tier."""
    lens = np.fromiter((len(shingle_lists[i]) for i in rows),
                       dtype=np.int64, count=rows.size)
    offsets = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    flat = (np.concatenate([np.asarray(shingle_lists[i], dtype=np.int64)
                            for i in rows if len(shingle_lists[i])])
            if int(lens.sum()) else np.array([], dtype=np.int64))
    ph = np.fromiter((phashes[i] for i in rows), dtype=np.int64,
                     count=rows.size)
    return flat, offsets, ph


def probe_batch(
    shingle_lists: list[list[int]],
    phashes: list[int],
    statuses: list[int],
    index: StoreIndex,
    max_sim: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Store-probe flags per row (False for non-200 rows) — one vectorized
    pass over the whole batch per store segment.

    The image flag is computed for every live row (the sequential resolver
    consults it only when the text flag is down, so the extra flags are
    inert — verdict order text-before-image is preserved there)."""
    n = len(phashes)
    text = np.zeros(n, dtype=bool)
    image = np.zeros(n, dtype=bool)
    rows = np.flatnonzero(np.asarray(statuses, dtype=np.int64) == 200)
    if rows.size == 0:
        return text, image
    flat, offsets, ph = _flatten_live(shingle_lists, phashes, rows)
    text[rows] = index.text_dup_batch(flat, offsets, max_sim)
    image[rows] = index.image_dup_batch(ph)
    return text, image


def probe_tier_batch(
    shingle_lists: list[list[int]],
    phashes: list[int],
    statuses: list[int],
    tier: list,
    max_sim: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Store-probe flags via the sharded probe-actor TIER
    (``state.gates.ContentProbeShard``) — same contract as ``probe_batch``,
    but the store index lives across N actors at O(corpus/N) each instead
    of a full per-worker replica.  The batch fingerprints go to every shard
    in parallel RPCs (row-sharded tier ⇒ each shard's answer is exact for
    its slice) and the flags OR together."""
    import ray

    n = len(phashes)
    text = np.zeros(n, dtype=bool)
    image = np.zeros(n, dtype=bool)
    rows = np.flatnonzero(np.asarray(statuses, dtype=np.int64) == 200)
    if rows.size == 0:
        return text, image
    flat, offsets, ph = _flatten_live(shingle_lists, phashes, rows)
    futs = [s.probe.remote(flat, offsets, ph, max_sim) for s in tier]
    for t, im in ray.get(futs):
        text[rows] |= t
        image[rows] |= im
    return text, image


def _band_values(ph_u: np.ndarray, num_bands: int) -> list[np.ndarray]:
    """Vectorized per-band values of a uint64 phash array (matches
    functions.phash.phash_bands bit layout)."""
    width = 64 // num_bands
    out = []
    for b in range(num_bands):
        lo = b * width
        hi = 64 if b == num_bands - 1 else lo + width
        out.append((ph_u >> np.uint64(lo)) & np.uint64((1 << (hi - lo)) - 1))
    return out


def _pairs_from_key(key: np.ndarray, dense_cap: int = 2048):
    """All intra-bucket index pairs (ia < ib) for equal values of ``key``.

    Size-2 buckets (the overwhelming majority under near-uniform keys) are
    extracted fully vectorized; sizes 3..cap loop; buckets beyond the cap
    are returned separately as ``dense`` indices for the caller's exact
    fallback.  Returns (ia, ib, dense_idx)."""
    order = np.argsort(key, kind="stable")
    sv = key[order]
    boundaries = np.flatnonzero(np.concatenate([[True], sv[1:] != sv[:-1], [True]]))
    sizes = np.diff(boundaries)
    ia_all, ib_all, dense = [], [], []
    two = np.flatnonzero(sizes == 2)
    if two.size:
        lo2 = boundaries[two]
        ia_all.append(order[lo2])
        ib_all.append(order[lo2 + 1])
    for g in np.flatnonzero(sizes > 2):
        lo, hi = boundaries[g], boundaries[g + 1]
        idx = order[lo:hi]
        k = idx.size
        if k > dense_cap:
            dense.append(idx)
            continue
        ia_all.append(np.repeat(idx, k))
        ib_all.append(np.tile(idx, k))
    if ia_all:
        ia = np.concatenate(ia_all)
        ib = np.concatenate(ib_all)
        keep = ia < ib
        ia, ib = ia[keep], ib[keep]
    else:
        ia = ib = np.array([], dtype=np.int64)
    dense_idx = np.concatenate(dense) if dense else np.array([], dtype=np.int64)
    return ia, ib, dense_idx


def _segment_any(mask_flat: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-row 'any' over a flattened list column given row offsets."""
    if mask_flat.size == 0:
        return np.zeros(offsets.size - 1, dtype=bool)
    csum = np.concatenate([[0], np.cumsum(mask_flat.astype(np.int64))])
    return (csum[offsets[1:]] - csum[offsets[:-1]]) > 0


def _live_mask_tbl(b: pa.Table):
    import pyarrow.compute as pc

    return pc.and_(pc.equal(b["status"], 200), b["integrity_ok"])


def interacting_seqs_distributed(validated, max_sim: float, max_hamming: int,
                                 dense_cap: int = 2048) -> np.ndarray:
    """Seqs of live wave pages with ≥1 wave-LOCAL interaction — computed
    DISTRIBUTED (the giant-wave replacement for ``resolve_wave``'s driver
    pair scan; VERDICT r2 'What's wrong' #1).

    Same partner relation as ``resolve_wave``: a text pair interacts iff its
    exact Jaccard clears the threshold (shared·(1+s) > s·(la+lb) over FULL
    shingle sets), an image pair iff verified hamming ≤ t; members of
    adversarially dense buckets (> dense_cap rows sharing one shingle value
    / band-pair key) are marked interacting outright instead of enumerating
    k² pairs — identical to the driver resolver's dense fallback.  Shuffle
    shape is the ``ngram_jaccard_pairs`` co-occurrence co-shuffle: only
    (int64) fingerprint rows move, nothing lands on the driver except the
    (typically ~empty) interacting-seq list."""
    from itertools import combinations

    import pandas as pd

    from searchengine_ray.stages.relational import bucketed_apply, pre_aggregate

    num_bands = max_hamming + 2  # band-PAIR keys, as in resolve_wave

    def explode_sh(b: pa.Table) -> "pd.DataFrame":
        import pyarrow.compute as pc

        live = b.filter(_live_mask_tbl(b))
        sh = live["shingles"]
        sh = sh.combine_chunks() if isinstance(sh, pa.ChunkedArray) else sh
        if isinstance(sh, pa.ChunkedArray):
            sh = sh.chunk(0) if sh.num_chunks else pa.array([], pa.list_(pa.int64()))
        offsets = np.asarray(sh.offsets.to_numpy(zero_copy_only=False), np.int64)
        offsets = offsets - offsets[0]
        flat = np.asarray(pc.list_flatten(sh).to_numpy(zero_copy_only=False), np.int64)
        lens = np.diff(offsets)
        seqs = np.asarray(live["seq"].to_numpy(zero_copy_only=False), np.int64)
        return pd.DataFrame({"seq": np.repeat(seqs, lens), "sh": flat,
                             "n": np.repeat(lens, lens)})

    exploded = validated.select_columns(
        ["seq", "status", "integrity_ok", "shingles"]
    ).map_batches(explode_sh, batch_format="pyarrow")

    out_cols = ["doc_a", "doc_b", "na", "nb"]

    def text_pairs(g: "pd.DataFrame") -> "pd.DataFrame":
        cnt = g.groupby("sh", sort=False)["seq"].transform("size")
        dense = g[cnt.to_numpy() > dense_cap]
        rest = g[cnt.to_numpy() <= dense_cap]
        m = rest.merge(rest, on="sh", suffixes=("_a", "_b"))
        m = m[m["seq_a"] < m["seq_b"]]
        pairs = pd.DataFrame({"doc_a": m["seq_a"].to_numpy(dtype=np.int64),
                              "doc_b": m["seq_b"].to_numpy(dtype=np.int64),
                              "na": m["n_a"].to_numpy(dtype=np.int64),
                              "nb": m["n_b"].to_numpy(dtype=np.int64)})
        if len(dense):
            # dense shingle value → every member walks (doc_b = -1 marker)
            d = pd.DataFrame({"doc_a": dense["seq"].to_numpy(dtype=np.int64),
                              "doc_b": np.full(len(dense), -1, np.int64),
                              "na": np.zeros(len(dense), np.int64),
                              "nb": np.zeros(len(dense), np.int64)})
            pairs = pd.concat([pairs, d], ignore_index=True)
        return pairs[out_cols]

    pair_rows = bucketed_apply(exploded, ["sh"], text_pairs)
    counted = pre_aggregate(pair_rows, ["doc_a", "doc_b"],
                            {"shared": (None, "count"),
                             "na": ("na", "min"), "nb": ("nb", "min")})

    s = max_sim

    def passing_seqs(df: "pd.DataFrame") -> "pd.DataFrame":
        direct = df["doc_b"].to_numpy() == -1
        d = df[direct]
        p = df[~direct]
        sh_cnt = p["shared"].to_numpy(dtype=np.float64)
        ok = sh_cnt * (1.0 + s) > s * (p["na"].to_numpy(dtype=np.float64)
                                       + p["nb"].to_numpy(dtype=np.float64))
        seqs = np.concatenate([d["doc_a"].to_numpy(dtype=np.int64),
                               p["doc_a"].to_numpy()[ok],
                               p["doc_b"].to_numpy()[ok]])
        return pd.DataFrame({"seq": np.unique(seqs)})

    text_seqs = counted.map_batches(passing_seqs, batch_format="pandas")

    def explode_bands(b: pa.Table) -> "pd.DataFrame":
        live = b.filter(_live_mask_tbl(b))
        ph = np.asarray(live["phash"].to_numpy(zero_copy_only=False), np.int64)
        ph_u = ph.astype(np.uint64)
        seqs = np.asarray(live["seq"].to_numpy(zero_copy_only=False), np.int64)
        bands = _band_values(ph_u, num_bands)
        width = np.uint64(16)
        frames = []
        for i, (b1, b2) in enumerate(combinations(range(num_bands), 2)):
            key = ((bands[b1] << width) | bands[b2]).astype(np.int64)
            frames.append(pd.DataFrame({
                "seq": seqs, "kb": np.full(seqs.size, i, np.int64),
                "key": key, "ph": ph}))
        return (pd.concat(frames, ignore_index=True) if frames
                else pd.DataFrame({"seq": pd.Series([], dtype=np.int64),
                                   "kb": pd.Series([], dtype=np.int64),
                                   "key": pd.Series([], dtype=np.int64),
                                   "ph": pd.Series([], dtype=np.int64)}))

    banded = validated.select_columns(
        ["seq", "status", "integrity_ok", "phash"]
    ).map_batches(explode_bands, batch_format="pyarrow")

    t = max_hamming

    def image_pairs(g: "pd.DataFrame") -> "pd.DataFrame":
        cnt = g.groupby(["kb", "key"], sort=False)["seq"].transform("size")
        dense = g[cnt.to_numpy() > dense_cap]
        rest = g[cnt.to_numpy() <= dense_cap]
        m = rest.merge(rest, on=["kb", "key"], suffixes=("_a", "_b"))
        m = m[m["seq_a"] < m["seq_b"]]
        seqs = [dense["seq"].to_numpy(dtype=np.int64)]
        if len(m):
            close = _popcount64(
                m["ph_a"].to_numpy(dtype=np.int64).astype(np.uint64)
                ^ m["ph_b"].to_numpy(dtype=np.int64).astype(np.uint64)) <= t
            seqs.append(m["seq_a"].to_numpy(dtype=np.int64)[close])
            seqs.append(m["seq_b"].to_numpy(dtype=np.int64)[close])
        return pd.DataFrame({"seq": np.unique(np.concatenate(seqs))})

    image_seqs = bucketed_apply(banded, ["kb", "key"], image_pairs)

    both = text_seqs.union(image_seqs).to_pandas()
    return np.unique(both["seq"].to_numpy(dtype=np.int64)) if len(both) \
        else np.array([], dtype=np.int64)


def resolve_wave_split(
    live_meta,
    walk_tbl: pa.Table,
    rank_of: dict[int, int],
    max_sim: float,
    max_hamming: int,
) -> dict[int, str]:
    """Exact verdicts for a wave whose interaction graph was computed
    DISTRIBUTED (``interacting_seqs_distributed``): only the interacting
    pages' fingerprints ever reach the driver.

    ``live_meta``: pandas frame (seq, store_text, store_image) for ALL live
    pages — O(wave) scalars.  ``walk_tbl``: (seq, shingles, phash) for the
    interacting subset only.  Non-interacting pages resolve without
    fingerprints: store-flagged → that store verdict (their wave-local
    checks are provably negative — no above-threshold partner — and they
    never admit, so they cannot influence the walk); clean → accept.
    Interacting pages replay sequentially in wave-processing (rank) order —
    the same closure argument as ``resolve_wave``."""
    from searchengine_ray.state.gates import WaveGate

    decision: dict[int, str] = {}
    walk_seqs = set(walk_tbl["seq"].to_pylist()) if walk_tbl is not None else set()
    seqs = live_meta["seq"].to_numpy(dtype=np.int64)
    st = live_meta["store_text"].to_numpy(dtype=bool)
    si = live_meta["store_image"].to_numpy(dtype=bool)
    for i in range(seqs.size):
        sq = int(seqs[i])
        if sq in walk_seqs:
            continue
        if st[i]:
            decision[sq] = "text_dup"
        elif si[i]:
            decision[sq] = "image_dup"
        else:
            decision[sq] = "accept"
    if walk_seqs:
        flags_t = dict(zip(seqs.tolist(), st.tolist()))
        flags_i = dict(zip(seqs.tolist(), si.tolist()))
        w_seqs = walk_tbl["seq"].to_pylist()
        w_sh = walk_tbl["shingles"].to_pylist()
        w_ph = walk_tbl["phash"].to_pylist()
        order = sorted(range(len(w_seqs)), key=lambda i: rank_of[int(w_seqs[i])])
        local = WaveGate(max_sim, max_hamming)
        for i in order:
            sq = int(w_seqs[i])
            sset = frozenset(w_sh[i])
            if flags_t[sq] or local.text_dup(sset):
                decision[sq] = "text_dup"
                continue
            if flags_i[sq] or local.image_dup(int(w_ph[i])):
                decision[sq] = "image_dup"
                continue
            local.admit(sq, sset, int(w_ph[i]))
            decision[sq] = "accept"
    return decision


def resolve_wave(
    live_tbl: pa.Table,
    store_text: np.ndarray,
    store_image: np.ndarray,
    max_sim: float,
    max_hamming: int,
) -> list[str]:
    """Exact sequential resolution given store-probe flags.

    ``live_tbl`` = the wave's LIVE pages (seq, shingles, phash) sorted by
    seq.  The store part of each verdict was computed in parallel; the
    wave-LOCAL part is split vectorized:

    - pages whose shingle sets are disjoint from every other wave page AND
      whose phash is not within hamming ≤ t of any other wave page can
      neither be rejected by the wave-local gate nor influence another
      verdict — auto-accept (unless store-flagged);
    - the interacting remainder (shared shingle, verified hamming-≤t pair,
      or store flag) is closed under the partner relation, so replaying
      ONLY those pages sequentially yields verdicts identical to the full
      sequential gate.

    Candidate pairs are found via vectorized band extraction + sort-groups
    (pigeonhole: hamming ≤ t ⇒ an identical band of t+1) and verified with
    vectorized XOR-popcount — no per-page python in the common path."""
    import pyarrow.compute as pc

    from searchengine_ray.state.gates import WaveGate

    n = live_tbl.num_rows
    if n == 0:
        return []
    num_bands = max_hamming + 1
    ph = np.asarray(live_tbl["phash"].to_numpy(zero_copy_only=False), dtype=np.int64)
    ph_u = ph.astype(np.uint64)
    sh_col = live_tbl["shingles"]
    sh_combined = sh_col.combine_chunks() if isinstance(sh_col, pa.ChunkedArray) else sh_col
    if isinstance(sh_combined, pa.ChunkedArray):
        sh_combined = sh_combined.chunk(0) if sh_combined.num_chunks else pa.array([], pa.list_(pa.int64()))
    offsets = np.asarray(sh_combined.offsets.to_numpy(zero_copy_only=False), dtype=np.int64)
    offsets = offsets - offsets[0]  # sliced arrays carry shifted offsets
    flat = np.asarray(pc.list_flatten(sh_combined).to_numpy(zero_copy_only=False), dtype=np.int64)

    # text-interacting: pairs whose SHARED-shingle count can clear the
    # Jaccard threshold.  jaccard = c/(la+lb-c) > s  ⟺  c > s·(la+lb)/(1+s)
    # — exact, so pairs failing it can neither be rejected nor influence a
    # verdict.  Shared counts come from sorting the flattened shingle
    # column once and counting pair occurrences across value groups.
    text_inter = np.zeros(n, dtype=bool)
    if flat.size:
        row_of_flat = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
        # pair rows by shared shingle value; map flat positions → row ids
        ia_p, ib_p, dense_p = _pairs_from_key(flat)
        if dense_p.size:
            text_inter[row_of_flat[dense_p]] = True  # dense value → exact walk
        if ia_p.size:
            ia = row_of_flat[ia_p]
            ib = row_of_flat[ib_p]
            swap = ia > ib
            ia[swap], ib[swap] = ib[swap], ia[swap]
            same = ia == ib
            ia, ib = ia[~same], ib[~same]
        else:
            ia = ib = np.array([], dtype=np.int64)
        if ia.size:
            keys = ia * n + ib
            uk, shared = np.unique(keys, return_counts=True)
            ua = uk // n
            ub = uk % n
            lens = np.diff(offsets)
            s = max_sim
            passing = shared > s * (lens[ua] + lens[ub]) / (1.0 + s)
            text_inter[ua[passing]] = True
            text_inter[ub[passing]] = True

    # image-interacting: verified hamming-≤t pairs.  Key by PAIRS of bands
    # from a (t+2)-band split: hamming ≤ t flips bits in ≤ t bands, so ≥ 2
    # of t+2 bands are intact ⇒ some band PAIR is intact (pigeonhole) —
    # exact recall like single-band keying, but bucket collision rates drop
    # from n/2^(64/(t+1)) to n/2^(2·64/(t+2)), which keeps pair counts
    # near-linear at 10^5-10^6-row waves where 12.8-bit bands saturate.
    from itertools import combinations

    from searchengine_ray.functions.phash import _popcount64

    image_inter = np.zeros(n, dtype=bool)
    pair_bands = _band_values(ph_u, num_bands + 1)
    width = np.uint64(16)  # > max band width (last band can reach 14 bits)
    for b1, b2 in combinations(range(num_bands + 1), 2):
        key = ((pair_bands[b1] << width) | pair_bands[b2]).astype(np.int64)
        ia, ib, dense_idx = _pairs_from_key(key)
        if dense_idx.size:
            # adversarial dense bucket: route members to the exact walk
            # instead of enumerating k² pairs (still exact, just slower)
            image_inter[dense_idx] = True
        if ia.size == 0:
            continue
        close = _popcount64(ph_u[ia] ^ ph_u[ib]) <= max_hamming
        image_inter[ia[close]] = True
        image_inter[ib[close]] = True

    walk = store_text | store_image | text_inter | image_inter
    out = np.full(n, "", dtype=object)
    out[~walk] = "accept"
    if walk.any():
        idxs = np.flatnonzero(walk)
        shingle_lists = {int(i): sh_combined[int(i)].as_py() for i in idxs}
        local = WaveGate(max_sim, max_hamming)
        for i in idxs:
            i = int(i)
            sset = frozenset(shingle_lists[i])
            if store_text[i] or local.text_dup(sset):
                out[i] = "text_dup"
                continue
            if store_image[i] or local.image_dup(int(ph[i])):
                out[i] = "image_dup"
                continue
            local.admit(i, sset, int(ph[i]))
            out[i] = "accept"
    return out.tolist()
