"""Link-graph analytics: distributed PageRank.

The canonical iterative graph op a web-scale crawl/index pipeline runs over
its link graph (Brin & Page 1998; the reference crawls and indexes but never
ranks — this is part of the §"beyond the reference" set).

Scale shape: the rank vector and the edge list both stay Datasets end to
end.  Per iteration the work is exactly TWO all-to-alls — one
``hash_join`` co-shuffle of (edges ⨝ ranks on src) and one ``pre_aggregate``
sum keyed by dst — so an iteration moves O(edges) rows and the driver sees
only scalars.  Edges pre-join their out-degree ONCE before the loop.

Semantics (mirrored exactly by the SQL oracle): the damped update
``r'(v) = (1-d)/N + d · Σ_{u→v} r(u)/outdeg(u)`` with NO dangling-mass
redistribution — callers whose graphs have dangling or in-edge-less nodes
should close the graph first (the query fixture is closed by
construction); nodes that never appear as ``dst`` drop out of the rank
vector after one iteration, which also silences their later
contributions.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
from ray.data import Dataset

from searchengine_ray.stages.relational import hash_join, pre_aggregate


DEFAULT_BROADCAST_NODES = 2_000_000


def pagerank(edges: Dataset, num_nodes: int, iters: int = 3,
             damping: float = 0.85,
             src_col: str = "src", dst_col: str = "dst",
             broadcast_threshold: int = DEFAULT_BROADCAST_NODES) -> Dataset:
    """Fixed-iteration PageRank over an edge Dataset.

    Requires every node to appear as both a ``src`` (out-degree ≥ 1) and a
    ``dst`` (in-degree ≥ 1) — see module docstring.  Returns
    (node, pagerank) with pagerank rounded to 6.

    SIZE-ROUTED (the connected-components discipline): when the rank
    vector fits comfortably on the driver (``num_nodes ≤
    broadcast_threshold``), each iteration broadcasts it via ``ray.put``
    and runs ONE map pass + ONE ``pre_aggregate`` (driver pull = exactly N
    rows/iter) — the edge-side join disappears.  Above the threshold the
    fully distributed path runs: rank vector stays a Dataset, one
    ``hash_join`` co-shuffle + one ``pre_aggregate`` per iteration.  Both
    paths are pinned identical by tests."""
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    base = (1.0 - damping) / num_nodes
    if num_nodes <= broadcast_threshold:
        return _pagerank_broadcast(edges, num_nodes, iters, damping,
                                   src_col, dst_col)

    # out-degree joins the edges ONCE (one co-shuffle), then MATERIALIZES:
    # the edge side is loop-invariant, and Ray Data does not dedupe shared
    # sub-plans — without this every iteration's join would re-execute the
    # whole edge build (measured 3× the edge work at iters=3).  At cluster
    # scale this is the standard iterative-algorithm shape: the big
    # invariant operand lives in the object store across rounds.
    deg = pre_aggregate(edges, [src_col], {"deg": (None, "count")})
    edges_w = hash_join(edges, deg, on=src_col).materialize()

    # uniform init: ranks derive from the edge list itself (distinct src),
    # so no separate node table ships anywhere
    ranks = pre_aggregate(edges, [src_col], {"_c": (None, "count")})

    def init(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": df[src_col],
                             "r": np.full(len(df), 1.0 / num_nodes)})

    ranks = ranks.map_batches(init, batch_format="pandas")

    for _ in range(iters):
        def as_src(df: pd.DataFrame) -> pd.DataFrame:
            return df.rename(columns={"node": src_col})

        joined = hash_join(edges_w, ranks.map_batches(
            as_src, batch_format="pandas"), on=src_col)

        def contrib(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "node": df[dst_col],
                "c": df["r"].to_numpy(np.float64)
                     / df["deg"].to_numpy(np.float64)})

        agg = pre_aggregate(joined.map_batches(contrib, batch_format="pandas"),
                            ["node"], {"s": ("c", "sum")})

        def update(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "node": df["node"],
                "r": base + damping * df["s"].to_numpy(np.float64)})

        # materialize the N-row rank vector each round (the iterative-
        # algorithm shape: state lives in the object store between rounds).
        # Besides bounding plan depth, this is a CORRECTNESS requirement:
        # leaving 3 iterations lazy chains groupby-inside-groupby plans
        # deep enough that Ray Data 2.49 emits "RefBundle with a different
        # schema" warnings and silently DROPS reduce buckets (measured:
        # 145,079 of 1,000,000 nodes survived at 10M edges; 3/3 clean
        # with per-round materialization, pinned by the 1M-node check in
        # scripts/scale_evidence_r4b.py).
        ranks = agg.map_batches(update,
                                batch_format="pandas").materialize()

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": df["node"].astype(np.int64),
                             "pagerank": df["r"].round(6)})

    return ranks.map_batches(finish, batch_format="pandas")


def _pagerank_broadcast(edges: Dataset, num_nodes: int, iters: int,
                        damping: float, src_col: str,
                        dst_col: str) -> Dataset:
    """Broadcast-rank route: the O(N) rank vector lives on the driver and
    ships to workers via ``ray.put`` each round; edges stream map-only and
    reduce through one ``pre_aggregate`` keyed by dst (driver pull = N
    rows/iter).  Bit-identical update expression to the distributed path."""
    import ray

    base = (1.0 - damping) / num_nodes
    # the edge lineage is consumed once per iteration plus the degree pass
    # — materialize so upstream edge construction runs once, not iters+1×
    edges = edges.materialize()
    deg = pre_aggregate(edges, [src_col],
                        {"deg": (None, "count")}).to_pandas()
    nodes = np.sort(deg[src_col].to_numpy(np.int64))
    degv = deg.set_index(src_col)["deg"].loc[nodes].to_numpy(np.float64)
    r = np.full(nodes.size, 1.0 / num_nodes)

    for _ in range(iters):
        w_ref = ray.put((nodes, r / degv))

        def contrib(df: pd.DataFrame) -> pd.DataFrame:
            nd, w = ray.get(w_ref)
            pos = np.searchsorted(nd, df[src_col].to_numpy(np.int64))
            return pd.DataFrame({"node": df[dst_col], "c": w[pos]})

        agg = pre_aggregate(
            edges.map_batches(contrib, batch_format="pandas"),
            ["node"], {"s": ("c", "sum")}).to_pandas()
        pos = np.searchsorted(nodes, agg["node"].to_numpy(np.int64))
        nxt = np.full(nodes.size, np.nan)
        nxt[pos] = base + damping * agg["s"].to_numpy(np.float64)
        # module contract: every node has in-edges, so no NaN survives; a
        # violated contract fails loudly here instead of silently leaking
        if np.isnan(nxt).any():
            raise ValueError("pagerank: node(s) without in-edges")
        r = nxt

    return _ranks_dataset(nodes, np.round(r, 6))


def _ranks_dataset(nodes: np.ndarray, r: np.ndarray) -> Dataset:
    import ray.data as rd

    return rd.from_pandas(pd.DataFrame({"node": nodes.astype(np.int64),
                                        "pagerank": r}))


def triangle_count(edges: Dataset, src_col: str = "src",
                   dst_col: str = "dst") -> int:
    """Exact triangle count of the UNDIRECTED simple graph under a
    directed edge Dataset (direction ignored, self-loops dropped,
    parallel edges collapsed).

    The degree-ordered distributed algorithm (the MapReduce-era classic):
    orient every undirected edge from its lower-(degree, id) endpoint to
    the higher one, generate wedges only at a triangle's LOWEST-order
    vertex, and close them against the edge set.  Degree ordering bounds
    forward degree by O(sqrt(E)) on any graph (arboricity), so wedge
    volume — the algorithm's cost — is O(E^1.5) worst case instead of
    Σdeg² around hubs; a web graph's celebrity pages stop mattering.

    Scale shape: degrees come from ONE ``pre_aggregate`` (O(V) rows,
    broadcast via ``ray.put`` — the same O(nodes)-driver route the
    pagerank fast path takes and the honest threshold documented there);
    wedge generation is a ``bucketed_apply`` co-shuffle by wedge apex
    with a kernel vectorized over DISTINCT forward-degrees (groups of
    equal size k reshape to an (m, k) matrix; one fancy-index per k —
    no per-group Python); closing is one more ``bucketed_apply``
    co-shuffle of wedge-keys ∪ edge-keys with one ``np.isin`` per
    bucket.  The driver sees O(V) degrees and one count per bucket."""
    import ray

    from searchengine_ray.stages.relational import bucketed_apply

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        s = df[src_col].to_numpy(np.int64)
        d = df[dst_col].to_numpy(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        u = np.minimum(s, d)
        v = np.maximum(s, d)
        return pd.DataFrame({"u": u, "v": v}).drop_duplicates()

    und = bucketed_apply(edges.map_batches(canon, batch_format="pandas"),
                         ["u", "v"],
                         lambda g: g.drop_duplicates(["u", "v"]))
    und = und.materialize()  # reused: degrees, orientation, closing

    def explode_deg(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "node": np.concatenate([df["u"].to_numpy(np.int64),
                                    df["v"].to_numpy(np.int64)])})

    deg = pre_aggregate(und.map_batches(explode_deg, batch_format="pandas"),
                        ["node"], {"deg": (None, "count")}).to_pandas()
    nodes = deg["node"].to_numpy(np.int64)
    order = np.argsort(nodes)
    nodes = nodes[order]
    degv = deg["deg"].to_numpy(np.int64)[order]
    deg_ref = ray.put((nodes, degv))

    def _rank(nd, dv, x):
        pos = np.searchsorted(nd, x)
        # rank = (degree, id) as one sortable int64: degree in the high
        # bits, id (dense position) in the low — ids are < 2^31 here
        return dv[pos] * np.int64(1 << 31) + pos

    def orient(df: pd.DataFrame) -> pd.DataFrame:
        nd, dv = ray.get(deg_ref)
        u = df["u"].to_numpy(np.int64)
        v = df["v"].to_numpy(np.int64)
        ru = _rank(nd, dv, u)
        rv = _rank(nd, dv, v)
        a = np.where(ru <= rv, u, v)  # low order → high order
        b = np.where(ru <= rv, v, u)
        return pd.DataFrame({"a": a, "b": b})

    fwd = und.map_batches(orient, batch_format="pandas")

    KEY = np.int64(1 << 32)  # (min,max) packed — ids < 2^31

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({"key": np.array([], np.int64)})
        g = g.sort_values(["a", "b"], kind="mergesort")
        a = g["a"].to_numpy(np.int64)
        b = g["b"].to_numpy(np.int64)
        # group rows by apex a; process all apexes of equal out-degree k
        # in one (m, k) matrix per distinct k
        _, start, cnt = np.unique(a, return_index=True, return_counts=True)
        keys = []
        for k in np.unique(cnt):
            if k < 2:
                continue
            rows = start[cnt == k]
            m = b[rows[:, None] + np.arange(k)]     # (m, k) neighbors
            iu, ju = np.triu_indices(k, 1)
            p = m[:, iu].ravel()
            q = m[:, ju].ravel()
            keys.append(np.minimum(p, q) * KEY + np.maximum(p, q))
        if not keys:
            return pd.DataFrame({"key": np.array([], np.int64)})
        return pd.DataFrame({"key": np.concatenate(keys)})

    wkeys = bucketed_apply(fwd, ["a"], wedges)

    def edge_keys(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "key": df["u"].to_numpy(np.int64) * KEY
            + df["v"].to_numpy(np.int64),
            "is_edge": np.ones(len(df), np.int8)})

    def wedge_keys(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["is_edge"] = np.zeros(len(df), np.int8)
        return df

    both = (und.map_batches(edge_keys, batch_format="pandas")
            .union(wkeys.map_batches(wedge_keys, batch_format="pandas")))

    def close(g: pd.DataFrame) -> pd.DataFrame:
        ek = g.loc[g["is_edge"] == 1, "key"].to_numpy(np.int64)
        wk = g.loc[g["is_edge"] == 0, "key"].to_numpy(np.int64)
        n = int(np.isin(wk, np.sort(ek)).sum()) if len(ek) and len(wk) else 0
        return pd.DataFrame({"n": [n]})

    parts = bucketed_apply(both, ["key"], close).to_pandas()
    return int(parts["n"].sum())


def multi_source_bfs(edges: Dataset, seeds, max_hops: int,
                     src_col: str = "src", dst_col: str = "dst",
                     broadcast_threshold: int = DEFAULT_BROADCAST_NODES,
                     force_distributed: bool = False) -> Dataset:
    """Multi-source BFS hop distances over a directed edge Dataset — the
    frontier-expansion graph primitive (crawl-depth labeling, seed-set
    influence radius, link-distance features).  Returns (node, hop) for
    every node reachable within ``max_hops``, hop = fewest edges from any
    seed (seeds themselves at hop 0).

    SIZE-ROUTED like ``pagerank``: while the visited set fits the driver
    (``broadcast_threshold`` nodes) each round broadcasts the SORTED
    frontier via ``ray.put`` and runs one map pass + one
    ``pre_aggregate`` distinct over candidate dsts (driver pull =
    O(frontier out-neighborhood) rows); the edge list streams map-only
    every round.  Above the threshold the fully distributed path keeps
    the distance table a Dataset: per round ONE ``hash_join`` co-shuffle
    (frontier ⨝ edges on src), ONE ``pre_aggregate`` distinct, and ONE
    ``hash_semi_anti_join`` against the visited set, with per-round
    ``materialize()`` (the iterative-Dataset contract in CLAUDE.md).
    Both routes are pinned identical by tests.

    Rounds are inherently sequential (hop h+1 needs hop h's frontier) —
    the parallelism is inside each round, proportional to frontier edge
    volume, exactly the BSP frontier model (Pregel; Malewicz et al.
    2010)."""
    import ray
    import ray.data as rd

    from searchengine_ray.stages.relational import (
        hash_join, hash_semi_anti_join, pre_aggregate)

    seeds = np.unique(np.asarray(list(seeds), dtype=np.int64))
    if seeds.size == 0:
        raise ValueError("multi_source_bfs: empty seed set")
    if max_hops < 0:
        raise ValueError("multi_source_bfs: negative max_hops")
    edges = edges.materialize()  # streamed once per round

    if not force_distributed:
        visited = seeds.copy()          # sorted invariant
        hops = np.zeros(seeds.size, np.int64)
        frontier = seeds
        for h in range(1, max_hops + 1):
            if frontier.size == 0 or visited.size > broadcast_threshold:
                break
            f_ref = ray.put(frontier)  # sorted

            def step(df: pd.DataFrame) -> pd.DataFrame:
                f = ray.get(f_ref)  # plasma-local, zero-copy
                src = df[src_col].to_numpy(np.int64)
                pos = np.searchsorted(f, src)
                pos[pos == f.size] = 0
                m = f[pos] == src
                return pd.DataFrame(
                    {"node": df[dst_col].to_numpy(np.int64)[m]}
                ).drop_duplicates()

            cand = pre_aggregate(
                edges.map_batches(step, batch_format="pandas"),
                ["node"], {"_c": (None, "count")}).to_pandas()
            c = cand["node"].to_numpy(np.int64)
            new = np.sort(c[~np.isin(c, visited)])
            if new.size == 0:
                frontier = new
                break
            order = np.argsort(np.concatenate([visited, new]), kind="stable")
            visited = np.concatenate([visited, new])[order]
            hops = np.concatenate([hops, np.full(new.size, h, np.int64)])[order]
            frontier = new
        else:
            frontier = np.array([], dtype=np.int64)
        if frontier.size == 0:
            return rd.from_pandas(pd.DataFrame(
                {"node": visited, "hop": hops}))
        # visited outgrew the driver mid-walk: restart distributed.  The
        # honest fallback — same contract as the pagerank route threshold.
        return multi_source_bfs(edges, seeds, max_hops, src_col, dst_col,
                                broadcast_threshold, force_distributed=True)

    dist = rd.from_pandas(pd.DataFrame(
        {"node": seeds, "hop": np.zeros(seeds.size, np.int64)})).materialize()
    frontier = dist
    for h in range(1, max_hops + 1):
        fr = frontier.map_batches(
            lambda df: pd.DataFrame({src_col: df["node"]}),
            batch_format="pandas")
        joined = hash_join(edges, fr, on=src_col)
        cand = pre_aggregate(
            joined.map_batches(
                lambda df: pd.DataFrame(
                    {"node": df[dst_col].to_numpy(np.int64)}),
                batch_format="pandas"),
            ["node"], {"_c": (None, "count")})
        new = hash_semi_anti_join(
            cand.map_batches(
                lambda df: pd.DataFrame(
                    {"node": df["node"].to_numpy(np.int64)}),
                batch_format="pandas"),
            dist, on="node", anti=True)
        new = new.map_batches(
            lambda df, _h=h: pd.DataFrame(
                {"node": df["node"].to_numpy(np.int64),
                 "hop": np.full(len(df), _h, np.int64)}),
            batch_format="pandas").materialize()
        if new.count() == 0:
            break
        dist = dist.union(new).materialize()
        frontier = new
    return dist


def neighborhood_aggregate(edges: Dataset, feats: Dataset, rounds: int = 2,
                           src_col: str = "src", dst_col: str = "dst",
                           node_col: str = "node", feat_col: str = "f",
                           round_to: int = 6,
                           broadcast_threshold: int = DEFAULT_BROADCAST_NODES,
                           force_distributed: bool = False) -> Dataset:
    """Iterated neighbor-mean feature aggregation — the message-passing
    primitive under GNN feature engineering / label propagation:
    f⁽ʳ⁾(v) = mean over in-neighbors u (edges u→v) of f⁽ʳ⁻¹⁾(u), started
    from a node feature table.  Returns (node, f1..f{rounds}) for nodes
    reachable by in-edges at every round, each column rounded.

    SIZE-ROUTED exactly like ``pagerank``: under the threshold the
    feature vector broadcasts via ``ray.put`` and a round is one edge
    map pass + one ``pre_aggregate`` (sum, count) keyed by dst; above it
    (or forced) each round is one ``hash_join`` co-shuffle + one
    ``pre_aggregate``, with per-round ``materialize()`` (the iterative-
    Dataset contract).  Routes pinned identical by test.  Round-1 means
    are a single correctly-rounded division of an exact partial sum;
    later rounds sum doubles, absorbed by ``round_to``."""
    import ray
    import ray.data as rd

    from searchengine_ray.stages.relational import hash_join, pre_aggregate

    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    edges = edges.materialize()
    n_nodes = feats.count()

    if n_nodes <= broadcast_threshold and not force_distributed:
        fp = feats.to_pandas()
        nodes = fp[node_col].to_numpy(np.int64)
        order = np.argsort(nodes)
        nodes = nodes[order]
        cur = fp[feat_col].to_numpy(np.float64)[order]
        outs: list[pd.DataFrame] = []
        cur_nodes = nodes
        for r in range(rounds):
            ref = ray.put((cur_nodes, cur))

            def contrib(df: pd.DataFrame) -> pd.DataFrame:
                nd, f = ray.get(ref)
                s = df[src_col].to_numpy(np.int64)
                pos = np.searchsorted(nd, s)
                pos[pos == nd.size] = 0
                hit = nd[pos] == s
                return pd.DataFrame({node_col: df[dst_col].to_numpy(
                    np.int64)[hit], "c": f[pos[hit]]})

            agg = (pre_aggregate(
                edges.map_batches(contrib, batch_format="pandas"),
                [node_col], {"s": ("c", "sum"), "n": (None, "count")})
                .to_pandas().sort_values(node_col))
            cur_nodes = agg[node_col].to_numpy(np.int64)
            cur = (agg["s"].to_numpy(np.float64)
                   / agg["n"].to_numpy(np.float64))
            outs.append(pd.DataFrame({
                node_col: cur_nodes,
                f"f{r + 1}": np.round(cur, round_to)}))
        out = outs[-1][[node_col]]
        for r, o in enumerate(outs):
            out = out.merge(o, on=node_col, how="inner")
        return rd.from_pandas(out)

    # distributed route: feature table stays a Dataset
    cur_ds = feats.map_batches(
        lambda df: pd.DataFrame({src_col: df[node_col].to_numpy(np.int64),
                                 "c": df[feat_col].to_numpy(np.float64)}),
        batch_format="pandas").materialize()
    round_tables = []
    for r in range(rounds):
        joined = hash_join(edges, cur_ds, on=src_col)
        agg = pre_aggregate(
            joined.map_batches(
                lambda df: pd.DataFrame(
                    {node_col: df[dst_col].to_numpy(np.int64),
                     "c": df["c"].to_numpy(np.float64)}),
                batch_format="pandas"),
            [node_col], {"s": ("c", "sum"), "n": (None, "count")})
        nxt = agg.map_batches(
            lambda df: pd.DataFrame(
                {node_col: df[node_col].to_numpy(np.int64),
                 "c": df["s"].to_numpy(np.float64)
                 / df["n"].to_numpy(np.float64)}),
            batch_format="pandas").materialize()
        round_tables.append((f"f{r + 1}", nxt))
        cur_ds = nxt.map_batches(
            lambda df: pd.DataFrame({src_col: df[node_col], "c": df["c"]}),
            batch_format="pandas").materialize()
    out = None
    for name, t in round_tables:
        tt = t.map_batches(
            lambda df, _n=name: pd.DataFrame(
                {node_col: df[node_col].to_numpy(np.int64),
                 _n: np.round(df["c"].to_numpy(np.float64), round_to)}),
            batch_format="pandas")
        out = tt if out is None else hash_join(out, tt, on=node_col)
    return out


def label_propagation(edges: Dataset, num_nodes: int, rounds: int = 3,
                      src_col: str = "src", dst_col: str = "dst",
                      broadcast_threshold: int = DEFAULT_BROADCAST_NODES
                      ) -> Dataset:
    """Synchronous label propagation (Raghavan et al. 2007) with a
    DETERMINISTIC update — community detection over the link graph:
    label⁰(v) = v; each round every node takes the most frequent label
    among its in-neighbors, ties to the SMALLEST label (the
    determinism-restoring rule async LPA lacks), run a FIXED number of
    rounds so the oracle can unroll them.  Nodes without in-edges keep
    their label.

    SIZE-ROUTED like pagerank: below ``broadcast_threshold`` the label
    vector broadcasts via ``ray.put`` (O(V) driver), one edge map pass
    emits (dst, src label), one ``pre_aggregate`` counts (dst, label),
    and ONE ``bucketed_apply`` keep-best picks each node's mode — the
    driver never sees the O(E) count table.  Above it the fully
    distributed route runs (``_label_propagation_distributed``): labels
    stay a Dataset, hash_join + anti-join carry-forward per round.  Both
    routes share the deterministic update kernel and are pinned
    identical by tests."""
    import ray

    from searchengine_ray.stages.relational import (bucketed_apply,
                                                    pre_aggregate)

    if num_nodes > broadcast_threshold:
        return _label_propagation_distributed(edges, rounds, src_col,
                                              dst_col)
    edges = edges.materialize()
    import ray.data as rd

    def explode_nodes(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": np.concatenate(
            [df[src_col].to_numpy(np.int64),
             df[dst_col].to_numpy(np.int64)])})

    nd_tbl = pre_aggregate(
        edges.map_batches(explode_nodes, batch_format="pandas"),
        ["node"], {"_c": (None, "count")}).to_pandas()
    nodes = np.sort(nd_tbl["node"].to_numpy(np.int64))  # O(V) ≤ threshold
    labels = nodes.copy()                               # label⁰(v) = v

    for _ in range(rounds):
        ref = ray.put((nodes, labels))

        def tag(df: pd.DataFrame) -> pd.DataFrame:
            nd, lb = ray.get(ref)
            s = df[src_col].to_numpy(np.int64)
            pos = np.searchsorted(nd, s)
            return pd.DataFrame({
                "node": df[dst_col].to_numpy(np.int64),
                "lab": lb[pos]})

        tagged = edges.map_batches(tag, batch_format="pandas")
        cnt = pre_aggregate(tagged, ["node", "lab"],
                            {"c": (None, "count")})

        upd = bucketed_apply(cnt, ["node"], _lpa_keep_best).to_pandas()
        un = upd["node"].to_numpy(np.int64)
        order = np.argsort(un)
        # nodes without in-edges keep their previous label
        pos = np.searchsorted(nodes, un[order])
        labels = labels.copy()
        labels[pos] = upd["lab"].to_numpy(np.int64)[order]
    return rd.from_pandas(pd.DataFrame({"node": nodes, "community": labels}))


def _lpa_keep_best(g: pd.DataFrame) -> pd.DataFrame:
    """Per-node mode with ties to the SMALLEST label — the deterministic
    LPA update shared by both routes (identical integer arithmetic, so the
    routes are pinned equal by tests, not approximately equal)."""
    g = g.sort_values(["node", "c", "lab"], ascending=[True, False, True],
                      kind="mergesort")
    return g.drop_duplicates("node")[["node", "lab"]]


def _label_propagation_distributed(edges: Dataset, rounds: int,
                                   src_col: str, dst_col: str) -> Dataset:
    """Fully distributed LPA: the label table stays a DATASET end-to-end
    (the pagerank distributed-route contract) — nothing O(V) ever lands on
    the driver.

    Per round: ONE ``hash_join`` co-shuffle attaches each edge's source
    label, ONE ``pre_aggregate`` counts (dst, label) — O(distinct pairs)
    ≤ O(E) rows, combined map-side — ONE ``bucketed_apply`` picks each
    node's deterministic mode, and ONE ``hash_semi_anti_join`` carries
    forward the labels of nodes WITHOUT in-edges (the src∪dst init
    invariant: a never-a-dst source must keep its own label).  Loop state
    materializes every round and the loop-invariant edge side ONCE — Ray
    re-executes shared lazy sub-plans per consumer, and deep
    groupby-in-groupby chains drop reduce buckets (the pagerank 14.5%
    row-loss bug; pinned by scripts/scale_evidence_r4b.py)."""
    import ray.data as rd  # noqa: F401  (parity with the broadcast route)

    from searchengine_ray.stages.relational import (bucketed_apply,
                                                    hash_join,
                                                    hash_semi_anti_join,
                                                    pre_aggregate)

    edges = edges.materialize()

    def explode_nodes(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": np.concatenate(
            [df[src_col].to_numpy(np.int64),
             df[dst_col].to_numpy(np.int64)])})

    def init(df: pd.DataFrame) -> pd.DataFrame:
        n = df["node"].to_numpy(np.int64)
        return pd.DataFrame({"node": n, "lab": n.copy()})  # label⁰(v) = v

    labels = (pre_aggregate(
        edges.map_batches(explode_nodes, batch_format="pandas"),
        ["node"], {"_c": (None, "count")})
        .map_batches(init, batch_format="pandas").materialize())

    for _ in range(rounds):
        def as_src(df: pd.DataFrame) -> pd.DataFrame:
            return df.rename(columns={"node": src_col})

        joined = hash_join(edges, labels.map_batches(
            as_src, batch_format="pandas"), on=src_col)

        def tag(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "node": df[dst_col].to_numpy(np.int64),
                "lab": df["lab"].to_numpy(np.int64)})

        cnt = pre_aggregate(joined.map_batches(tag, batch_format="pandas"),
                            ["node", "lab"], {"c": (None, "count")})
        # consumed twice below (anti-join + union): materialize once
        upd = bucketed_apply(cnt, ["node"], _lpa_keep_best).materialize()
        # nodes with no in-edges this round keep their previous label
        keep = hash_semi_anti_join(labels, upd, on="node", anti=True)
        labels = upd.union(keep).materialize()

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": df["node"].to_numpy(np.int64),
                             "community": df["lab"].to_numpy(np.int64)})

    return labels.map_batches(finish, batch_format="pandas")
