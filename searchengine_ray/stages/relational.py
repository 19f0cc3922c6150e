"""Relational helpers: one hash-bucket co-shuffle core, map-side
pre-aggregation and broadcast joins.

The scale idioms (SURVEY.md §4):

- ``_co_shuffle(inputs, keys, kernel)``: the ONE hash-bucket co-shuffle.
  ``pre_aggregate``, ``bucketed_map_groups``, ``bucketed_apply``,
  ``hash_join``, ``hash_semi_anti_join`` and ``sessions.asof_join`` are
  kernels over it; no other code in the package builds a hash-bucket
  groupby.  It owns the invariants every co-shuffle relies on:

  - the bucket hash (``_hash_bucket``): ``hash_pandas_object`` with
    ``categorize=False`` combined on int64 views, so one key value lands
    in one bucket whatever block it sits in;
  - NUL-free string keys: Arrow→pandas string conversion merges values
    that differ only after a NUL byte, so such keys are out of contract
    (documented, not "handled");
  - the zero-fill widen: a multi-input union widens every input to one
    schema, filling the columns an input lacks with zeros for
    fixed-width types (never nulls — an int64 column with nulls turns
    float64 in pandas and rounds values above 2^53);
  - the int8 ``_side`` tag, and a kernel that sees one frame per input
    holding only that input's own columns;
  - one block format per shuffle: pandas frames for one input (what its
    pandas kernel reads), Arrow tables of the one widened schema for
    several — never pandas schema metadata on an Arrow block (a dict
    there makes ``pa.Schema`` unhashable, and Ray then skips its
    same-schema fast path on every block concat).
- ``pre_aggregate``: a bare ``groupby(k).aggregate(...)`` shuffles every row;
  this helper combines inside ``map_batches`` first (one row per key per
  batch) and shuffles only the partials — the reduce-side analog of the
  reference's driver-side merge (``index_construction.py:173-211``) but
  distributed.
- ``broadcast_join``: small dimension tables are ``ray.put`` once and mapped
  in per batch — never a shuffle join (reference J2 pattern,
  ``retrieve_query.py:186-187``).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
from ray.data import Dataset

_PARTIAL_OPS = {"sum", "count", "min", "max"}


def default_num_buckets() -> int:
    """Reduce-side bucket count scaled to the cluster: ~2 buckets per CPU
    (floor 64) so reduce parallelism tracks cluster size instead of a fixed
    constant.  Evaluated lazily at pipeline-build time on the driver."""
    try:
        cpus = int(ray.cluster_resources().get("CPU", 32))
    except Exception:
        cpus = 32
    return max(64, 2 * cpus)


def _hash_bucket(df: pd.DataFrame, keys: Sequence[str], nb: int):
    """int64 bucket ids in [0, nb) from the row hash of ``keys``.

    The combine and the final mod run on int64 views: some numpy builds
    (this sandbox's included) execute uint64 array arithmetic (notably
    ``%`` and array×array multiply) ~50-300× slower than int64.  The top
    bit is masked off before the mod so the value is nonnegative; that
    loses 1 of 64 hash bits, irrelevant for bucketing.

    ``categorize=False`` everywhere hash_pandas_object hashes a KEY: the
    default categorize path hashes NUL-containing strings differently
    from the direct path (it siphashes the full bytes; the direct path
    stops at the first NUL), and pandas picks the path per FRAME — the
    same value hashed in two blocks could land in two buckets, silently
    breaking every co-shuffle (measured: duplicate pairs survived
    dedup).  For NUL-free values both paths agree bit-for-bit, so this
    costs nothing on existing data."""
    h = np.zeros(len(df), dtype=np.int64)
    for k in keys:
        hk = pd.util.hash_pandas_object(df[k], index=False,
                                        categorize=False).to_numpy(
            dtype=np.uint64).view(np.int64)
        h = h * np.int64(1000003) + hk  # wraparound combine, same bits
    return (h & np.int64((1 << 63) - 1)) % nb


def _to_pandas(t: pa.Table) -> pd.DataFrame:
    """An Arrow slice as the frame Ray hands a ``batch_format="pandas"``
    UDF (plain ``to_pandas`` plus Ray's tensor-column cast)."""
    from ray.data.block import BlockAccessor

    return BlockAccessor.for_block(t).to_pandas()


def _filler(typ: pa.DataType, n: int) -> pa.Array:
    """A never-read widen column: zeros for fixed-width types, nulls only
    for variable-width ones (strings, lists — no pandas dtype drift)."""
    if pa.types.is_primitive(typ):
        return pa.Array.from_buffers(
            typ, n, [None, pa.py_buffer(bytes((n * typ.bit_width + 7) // 8))])
    return pa.nulls(n, typ)


def _arrow_schema(ds: Dataset) -> pa.Schema | None:
    """``ds``'s Arrow schema: the one Ray already knows when it is Arrow,
    else read off one block as Arrow (pandas blocks report numpy types)."""
    s = ds.schema(fetch_if_missing=False)
    if s is not None and isinstance(s.base_schema, pa.Schema):
        return s.base_schema
    s = ds.map_batches(lambda t: t, batch_format="pyarrow").schema()
    return s.base_schema if s is not None else None


def _co_shuffle(inputs, keys: Sequence[str], kernel,
                num_buckets: int | None = None) -> Dataset:
    """Co-shuffle ``inputs`` (one Dataset or a sequence of them, all
    carrying ``keys``) so every key lands whole in one of ``num_buckets``
    hash buckets, and run ``kernel`` once per bucket.

    One Dataset: a pandas co-shuffle — the blocks stay the pandas frames
    the input's batches convert to (arbitrary object columns included:
    Arrow would turn equal-shape ndarray cells into tensor columns that
    cannot concat with an all-null block), and ``kernel`` gets the
    bucket's frame.  Several: an Arrow co-shuffle — each input is widened
    to the union schema (a column shared by name takes the promoted type;
    the columns an input lacks are ``_filler``) and tagged with its int8
    ``_side``; ``kernel`` gets one ``pa.Table`` per input holding only that
    input's own columns, in its own order.  Either way the bucket is
    ``_hash_bucket`` of the (widened) keys, one groupby on the bucket
    column co-locates the rows, ``kernel`` returns a ``pd.DataFrame`` or
    ``pa.Table``, and no shuffled block carries pandas schema metadata."""
    import pyarrow.compute as pc

    nb = num_buckets if num_buckets is not None else default_num_buckets()
    keys = list(keys)

    if isinstance(inputs, Dataset):
        def tag(df: pd.DataFrame) -> pd.DataFrame:
            df["_bucket"] = _hash_bucket(df, keys, nb)
            return df

        def per_bucket(g: pd.DataFrame):
            return kernel(g.drop(columns=["_bucket"]))

        fmt, both = "pandas", inputs.map_batches(tag, batch_format="pandas")
    else:
        own: list[list[str]] = []
        union: dict[str, pa.DataType] = {}
        for ds in inputs:
            s = _arrow_schema(ds)
            # an input with no rows at all reports no schema: its side
            # frames are empty and hold just the keys
            own.append(s.names if s is not None else keys)
            for f in s or ():
                prev = union.setdefault(f.name, f.type)
                if prev != f.type:
                    union[f.name] = pa.unify_schemas(
                        [pa.schema([(f.name, prev)]), pa.schema([f])],
                        promote_options="permissive").field(0).type

        def widen(side: int):
            def widen_side(t: pa.Table) -> pa.Table:
                n = t.num_rows
                cols = {}
                for name, typ in union.items():
                    if name not in t.column_names:
                        cols[name] = _filler(typ, n)
                    elif t[name].type == typ or pa.types.is_null(typ):
                        # a null type came from an all-null first block:
                        # keep the real type, Ray's concat promotes it
                        cols[name] = t[name]
                    else:
                        cols[name] = t[name].cast(typ)
                cols["_side"] = pa.array(np.full(n, side, dtype=np.int8))
                cols["_bucket"] = pa.array(_hash_bucket(
                    pa.table({k: cols[k] for k in keys}).to_pandas(),
                    keys, nb))
                return pa.table(cols)
            return widen_side

        def per_bucket(t: pa.Table):
            side = t["_side"]
            return kernel(*(t.filter(pc.equal(side, pa.scalar(i, pa.int8())))
                            .select(cols) for i, cols in enumerate(own)))

        sides = [ds.map_batches(widen(i), batch_format="pyarrow")
                 for i, ds in enumerate(inputs)]
        fmt, both = "pyarrow", sides[0].union(*sides[1:])

    return both.groupby("_bucket").map_groups(per_bucket, batch_format=fmt)


def pre_aggregate(
    ds: Dataset,
    keys: Sequence[str],
    specs: dict[str, tuple[str | None, str]],
    batch_size: int = 65536,
) -> Dataset:
    """Grouped aggregation with map-side combine.

    ``specs``: ``{out_col: (src_col, op)}`` with op ∈ sum|count|min|max
    (count ignores src_col).  Returns a Dataset with columns
    ``[*keys, *specs]``.  Partials are combined per batch (pandas groupby —
    the batch fits in memory by construction), then a small hash shuffle
    merges them: sum/count partials merge with Sum, min with Min, max with
    Max.
    """
    keys = list(keys)
    for out, (_, op) in specs.items():
        if op not in _PARTIAL_OPS:
            raise ValueError(f"unsupported op {op!r} for {out!r}")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        gb = df.groupby(keys, as_index=False, sort=False, observed=True)
        named = {}
        for out, (src, op) in specs.items():
            if op == "count":
                named[out] = pd.NamedAgg(column=keys[0], aggfunc="size")
            else:
                named[out] = pd.NamedAgg(column=src, aggfunc=op)
        return gb.agg(**named)

    partials = ds.map_batches(partial, batch_format="pandas", batch_size=batch_size)

    # Final merge: hash-bucket the (already small) partials and run one
    # vectorized pandas groupby per bucket.  Measured ~16× faster than
    # ``Dataset.groupby(keys).aggregate(...)`` (multi-key, 40k groups:
    # 10.6s → 0.7s at sf0.1) — the shuffle moves the same rows, but the
    # reduce side is one pandas kernel per bucket instead of per-group
    # machinery.
    merge_ops = {out: ("sum" if op in ("sum", "count") else op)
                 for out, (_, op) in specs.items()}

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(keys, as_index=False, sort=False).agg(
            **{o: pd.NamedAgg(column=o, aggfunc=op) for o, op in merge_ops.items()}
        )

    return _co_shuffle(partials, keys, merge)


def broadcast_join(
    ds: Dataset,
    dim: pd.DataFrame,
    on: str | list[str],
    how: str = "left",
    batch_size: int = 65536,
) -> Dataset:
    """Map-side join of ``ds`` against a SMALL dimension DataFrame.

    ``dim`` is put in the object store once; each batch merges against it —
    no shuffle of the big side.  At cluster scale, every task reads the same
    object-store copy (zero-copy within a node, one transfer per node)."""
    ref = ray.put(dim)

    def join_fn(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.merge(ray.get(ref), on=on, how=how)

    return ds.map_batches(join_fn, batch_format="pandas", batch_size=batch_size)


def broadcast_interval_join(
    ds: Dataset,
    intervals: pd.DataFrame,
    value_col: str,
    lo_col: str = "lo",
    hi_col: str = "hi",
    how: str = "inner",
    batch_size: int = 65536,
) -> Dataset:
    """Range-containment dimension lookup: attach the interval row whose
    half-open ``[lo, hi)`` contains ``value_col`` — the IP-geolocation /
    price-band / grade-boundary join shape.

    ``intervals`` is a SMALL NON-OVERLAPPING dimension table (both
    validated here — overlap would make containment ambiguous): the join
    is then one ``ray.put`` broadcast + one vectorized ``searchsorted``
    per batch — map-only, ZERO shuffles at any fact-table size.  The
    shuffle alternative (range-key co-partition) moves the whole fact
    table for a dimension of a few thousand bands; never worth it.
    Payload column names must not collide with fact columns.

    ``how='inner'`` drops facts outside every band and NaN facts;
    ``'left'`` keeps them with null band columns."""
    if how not in ("inner", "left"):
        raise ValueError(f"how must be inner|left, got {how!r}")
    iv = intervals.sort_values(lo_col).reset_index(drop=True)
    los = iv[lo_col].to_numpy(np.float64)
    his = iv[hi_col].to_numpy(np.float64)
    if np.any(his <= los):
        raise ValueError("empty interval: hi must be > lo")
    if los.size > 1 and np.any(los[1:] < his[:-1]):
        raise ValueError("intervals overlap: containment is ambiguous")
    payload = iv.drop(columns=[lo_col, hi_col])
    clash = set(payload.columns) & (set(ds.schema().names) or set())
    if clash:
        raise ValueError(f"payload columns collide with facts: {clash}")
    ref = ray.put((los, his, payload))

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        los_, his_, pay = ray.get(ref)
        v = df[value_col].to_numpy(np.float64)
        idx = np.searchsorted(los_, v, side="right") - 1
        safe = np.clip(idx, 0, len(his_) - 1)
        with np.errstate(invalid="ignore"):
            ok = (idx >= 0) & (v < his_[safe]) & ~np.isnan(v)
        if how == "inner":
            out = df[ok].reset_index(drop=True)
            rows = pay.iloc[idx[ok]].reset_index(drop=True)
            return pd.concat([out, rows], axis=1)
        out = df.reset_index(drop=True)
        rows = pay.iloc[safe].reset_index(drop=True)
        rows = rows.mask(~pd.Series(ok))
        return pd.concat([out, rows], axis=1)

    return ds.map_batches(attach, batch_format="pandas",
                          batch_size=batch_size)


def bucketed_map_groups(
    ds: Dataset,
    keys: Sequence[str],
    fn,
    num_buckets: int | None = None,
    skip_singletons: bool = False,
) -> Dataset:
    """``groupby(keys).map_groups(fn)`` for MANY small groups.

    Ray's native map_groups pays per-group machinery — pathological at
    10^4-10^5 groups (measured 10.5s for 80k LSH-band groups vs 0.6s this
    way).  Here the shuffle key is a hash bucket; inside each bucket a
    pandas groupby drives ``fn`` per group.  ``skip_singletons`` drops
    single-row groups before iterating (right for pair-emitting fns)."""
    keys = list(keys)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if skip_singletons:
            g = g[g.duplicated(subset=keys, keep=False)]
        outs = [fn(grp) for _, grp in g.groupby(keys, sort=False)]
        outs = [o for o in outs if o is not None and len(o)]
        if not outs:
            probe = fn(g.head(0))
            return probe
        return pd.concat(outs, ignore_index=True)

    return _co_shuffle(ds, keys, per_bucket, num_buckets)


def bucketed_apply(
    ds,
    keys: Sequence[str],
    fn,
    num_buckets: int | None = None,
) -> Dataset:
    """Co-shuffle rows so every group of ``keys`` lands whole in one bucket,
    then apply ``fn`` ONCE per bucket (fn sees all the bucket's groups at
    once and must itself be group-aware, e.g. ``drop_duplicates(keys)`` or
    ``sort_values + groupby().head``).

    This is the scale shape for per-key kernels that pandas can express as a
    single vectorized whole-frame op: unlike ``bucketed_map_groups`` there is
    no per-group Python call at all — near-unique keys (exact dedup) or 10^9
    tiny groups (sessionize) cost one pandas kernel per bucket.

    ``ds`` may be a sequence of Datasets sharing ``keys`` (the multi-input
    co-shuffle): ``fn`` then gets one frame per input, each holding only
    that input's columns — an empty frame when the bucket has no rows of
    that input."""
    if isinstance(ds, Dataset):
        return _co_shuffle(ds, keys, fn, num_buckets)
    return _co_shuffle(ds, keys, lambda *ts: fn(*map(_to_pandas, ts)),
                       num_buckets)


def hash_join(
    left: Dataset,
    right: Dataset,
    on: str,
    num_buckets: int | None = None,
    how: str = "inner",
) -> Dataset:
    """Explicit partitioned hash join for two LARGE sides.

    Both sides co-shuffle once on ``hash(key) % B`` (``_co_shuffle``) and
    each bucket task merges its two side frames with pandas — the portable
    pattern when neither side fits in a broadcast.  ``num_buckets``
    defaults to ``default_num_buckets()`` so reduce parallelism scales
    with the cluster.  Skewed keys: raise ``num_buckets`` or salt the hot
    key upstream (or use ``skew_join``).  A right column whose name
    collides with a left column (other than ``on``) is dropped; the output
    is the left columns, then the right's other columns."""
    l_names = left.schema().names
    r_names = right.schema().names
    r_keep = [n for n in r_names if n == on or n not in l_names]
    if len(r_keep) < len(r_names):
        right = right.select_columns(r_keep)

    def join_bucket(lt: pa.Table, rt: pa.Table) -> pd.DataFrame:
        # ArrowDtype conversion keeps int64 EXACT through an input's own
        # nulls (an outer join's output fed back in) — a plain to_pandas
        # would degrade nullable int64 to float64 and silently round
        # values above 2^53 (64-bit hash keys!)
        lg = lt.to_pandas(types_mapper=pd.ArrowDtype)
        rg = rt.to_pandas(types_mapper=pd.ArrowDtype)
        return _to_numpy_dtypes(lg.merge(rg, on=on, how=how))

    return _co_shuffle([left, right], [on], join_bucket, num_buckets)


def hash_semi_anti_join(
    left: Dataset,
    right: Dataset,
    on: str,
    anti: bool = False,
    num_buckets: int | None = None,
) -> Dataset:
    """Distributed SEMI (anti=False) / ANTI (anti=True) join of two LARGE
    sides on one key — ONE all-to-all total.

    Unlike ``hash_join`` the probe side contributes only key PRESENCE, so:
    the right side is reduced map-side to per-batch distinct keys (no
    pre-aggregate shuffle), both sides co-shuffle once on ``hash(key) % B``,
    and each bucket task computes a vectorized ``isin`` mask over the left
    rows.  Output schema == left schema.  This replaces the
    pre_aggregate → hash_join → null-mask chain (3 all-to-alls) with one.

    NULL keys follow NOT EXISTS semantics (pinned by test): a null key
    matches nothing — semi drops null-key left rows, anti KEEPS them, and
    null right keys are ignored.  This diverges from SQL ``NOT IN``, where
    one null in the subquery empties the whole anti result; callers whose
    oracle is NOT IN must guarantee non-null probe keys (the one in-repo
    caller filters on a non-null literal)."""
    import pyarrow.compute as pc

    def distinct_keys(b: pa.Table) -> pa.Table:
        # map-side distinct: only unique keys leave the task
        return pa.table({on: pc.unique(b[on])})

    rkeys = right.select_columns([on]).map_batches(distinct_keys,
                                                   batch_format="pyarrow")

    def filter_bucket(lt: pa.Table, rt: pa.Table) -> pa.Table:
        # NOT EXISTS null semantics: null right keys never match; null left
        # keys match nothing (fill_null(False) → semi drops, anti keeps)
        mask = pc.is_in(lt[on],
                        value_set=pc.unique(rt[on].combine_chunks().drop_null()))
        mask = pc.fill_null(mask, False)
        if anti:
            mask = pc.invert(mask)
        return lt.filter(mask)

    return _co_shuffle([left, rkeys], [on], filter_bucket, num_buckets)


def _to_numpy_dtypes(df: pd.DataFrame) -> pd.DataFrame:
    """ArrowDtype columns → the numpy-backed dtypes the rest of the engine
    uses: int without nulls → int64, int with nulls → float64 (NaN), float →
    float64, string/list/other → object."""
    out = {}
    for c in df.columns:
        s = df[c]
        if not isinstance(s.dtype, pd.ArrowDtype):
            out[c] = s
            continue
        t = s.dtype.pyarrow_dtype
        if pa.types.is_integer(t):
            out[c] = s.astype("int64") if not s.isna().any() else s.astype("float64")
        elif pa.types.is_floating(t):
            out[c] = s.astype("float64")
        elif pa.types.is_boolean(t):
            out[c] = s.astype("bool") if not s.isna().any() else s.astype("object")
        else:
            out[c] = s.astype("object")
    return pd.DataFrame(out, index=df.index)


def global_topk(
    ds: Dataset,
    by: Sequence[str],
    ascending: Sequence[bool],
    k: int,
    fanin: int = 32,
) -> pd.DataFrame:
    """Global top-k with a TWO-LEVEL merge.

    Level 1: every batch prunes to its local top-k.  Level 2: the partials
    coalesce (``repartition`` without shuffle — block moves, no all-to-all)
    into ≤``fanin`` blocks whose tasks prune again.  The driver then merges
    O(k × fanin) rows — at 10^6 input blocks with k=100 a single-level
    merge would pull 10^8 rows to the driver; this pulls ~3200."""
    by = list(by)
    asc = list(ascending)

    def local(df: pd.DataFrame) -> pd.DataFrame:
        if not all(c in df.columns for c in by):  # schemaless empty block
            return df.head(0)
        return df.sort_values(by, ascending=asc, kind="mergesort").head(k)

    parts = (ds.map_batches(local, batch_format="pandas")
             .repartition(fanin)
             .map_batches(local, batch_format="pandas", batch_size=None))
    out = parts.to_pandas()
    if not all(c in out.columns for c in by):  # fully-empty result lost schema
        return out
    return (out.sort_values(by, ascending=asc, kind="mergesort").head(k)
            .reset_index(drop=True))


def broadcast_semi_filter(
    ds: Dataset,
    keys: set,
    col: str,
    keep: bool = True,
    batch_size: int = 65536,
) -> Dataset:
    """Semi (keep=True) / anti (keep=False) join via a broadcast key set."""
    ref = ray.put(keys)

    def filter_fn(df: pd.DataFrame) -> pd.DataFrame:
        mask = df[col].isin(ray.get(ref))
        return df[mask] if keep else df[~mask]

    return ds.map_batches(filter_fn, batch_format="pandas", batch_size=batch_size)


def upsert_merge(
    base: Dataset,
    delta: Dataset,
    id_col: str = "doc_id",
    version_col: str = "version",
    deleted_col: str = "deleted",
    broadcast_limit: int = 2_000_000,
    num_buckets: int | None = None,
) -> Dataset:
    """CDC upsert: merge a change ``delta`` into a ``base`` snapshot —
    latest version per key wins, tombstones (``deleted`` rows) drop the key
    (a later non-deleted version resurrects it).  The incremental-corpus
    maintenance op (Delta/Iceberg MERGE shape): apply a day's re-crawl to a
    100-TB snapshot without rebuilding it.

    Both sides must share the schema (payload columns pass through);
    ``(id, version)`` must be unique across the union — the kernel raises
    on a violation rather than resolving ties nondeterministically.

    SIZE-ROUTED (the pagerank discipline, routes pinned equal by pytest):

    - delta row count ≤ ``broadcast_limit``: the resolved delta (its own
      keep-max/tombstone merge runs driver-side on O(delta) rows) is
      broadcast as an id set; base rows drop touched ids MAP-ONLY and the
      delta survivors append as one extra block.  The base — the 100-TB
      side — never shuffles.
    - larger deltas: both sides union and co-shuffle ONCE on the id
      (``bucketed_apply``); one vectorized sort + drop_duplicates +
      tombstone filter per bucket.
    """
    payload = [c for c in base.schema().names
               if c not in (id_col, version_col, deleted_col)]
    out_cols = [id_col, version_col, *payload]

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        """Keep-max-version + tombstone drop; vectorized whole-frame."""
        if len(g) and g.duplicated([id_col, version_col]).any():
            raise ValueError(
                f"upsert_merge: duplicate ({id_col}, {version_col}) rows")
        g = (g.sort_values([id_col, version_col], kind="mergesort")
             .drop_duplicates(id_col, keep="last"))
        g = g[~g[deleted_col].to_numpy(dtype=bool)]
        return g[out_cols].reset_index(drop=True)

    if delta.count() <= broadcast_limit:
        # Broadcast route, version-aware so it is keep-max like the
        # co-shuffle route (not blind "delta wins"): the delta's per-id
        # winner (max version, tombstones KEPT — a winning tombstone must
        # suppress the base row) resolves driver-side on O(delta) rows;
        # the base contributes only its rows for touched ids (collected
        # via a broadcast semi filter — O(delta) rows, the stated bound).
        dp = delta.to_pandas()
        if len(dp) and dp.duplicated([id_col, version_col]).any():
            raise ValueError(
                f"upsert_merge: duplicate ({id_col}, {version_col}) rows")
        win = (dp.sort_values([id_col, version_col], kind="mergesort")
               .drop_duplicates(id_col, keep="last"))
        wver = dict(zip(win[id_col].tolist(), win[version_col].tolist()))
        bv = broadcast_semi_filter(
            base.select_columns([id_col, version_col]),
            set(wver), id_col, keep=True).to_pandas()
        base_ver = dict(zip(bv[id_col].tolist(), bv[version_col].tolist()))
        if any(base_ver[i] == v for i, v in wver.items() if i in base_ver):
            raise ValueError(
                f"upsert_merge: duplicate ({id_col}, {version_col}) rows")
        # base rows lose iff the delta winner outranks them (map-only drop)
        beaten = {i for i, v in wver.items() if v > base_ver.get(i, -v - 1)}
        kept = broadcast_semi_filter(
            base.map_batches(lambda df: df[out_cols], batch_format="pandas"),
            beaten, id_col, keep=False)
        add = win[(~win[deleted_col].to_numpy(dtype=bool))
                  & win[id_col].isin(beaten).to_numpy()]
        if len(add):
            import ray.data as rd
            return kept.union(rd.from_pandas(
                add[out_cols].reset_index(drop=True)))
        return kept

    both = base.union(delta)
    return bucketed_apply(both, [id_col], resolve, num_buckets)


def skew_join(
    left: Dataset,
    right: Dataset,
    on: str,
    hot_count: int = 100_000,
    num_buckets: int | None = None,
    broadcast_cap: int = 5_000_000,
) -> Dataset:
    """Skew-aware INNER join of two large sides — the hot-key answer to
    the one problem ``hash_join`` documents away ("skewed keys: ... salt
    the hot key upstream"): a power key with 10^8 left rows lands whole in
    ONE reduce bucket of a partitioned hash join, serializing the join on
    a single task while the rest of the cluster idles.

    1. hot-key detect: per-key LEFT counts through ``pre_aggregate``
       (map-side combine ⇒ the count shuffle carries per-batch-distinct
       keys); keys with ≥ ``hot_count`` rows pull to the driver —
       provably ≤ left_rows / hot_count of them.
    2. COLD rows (both sides filtered map-side against the broadcast hot
       set): normal ``hash_join``, now with < hot_count rows per key per
       bucket by construction.
    3. HOT rows: the right side's hot-key rows collect once (bounded —
       few hot keys × the right side's per-key multiplicity; a
       ``broadcast_cap`` overflow raises rather than OOMs the driver) and
       ``ray.put`` once; every left batch then inner-merges MAP-ONLY.
       Hot keys never enter an exchange: their join work spreads across
       all map tasks instead of one reduce bucket.

    Output ≡ ``hash_join(left, right, on)`` (inner; left columns then
    right-minus-collisions, same kernel dtypes) — pinned by tests.  Keys
    must be non-null (the hash_join contract)."""
    if num_buckets is None:
        num_buckets = default_num_buckets()

    counts = pre_aggregate(left.select_columns([on]), [on],
                           {"n": (None, "count")})

    def hot_only(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["n"] >= hot_count][[on]]

    hot = counts.map_batches(hot_only, batch_format="pandas").to_pandas()
    # an all-empty filter result loses its schema (RangeIndex columns)
    hot_keys = (set(hot[on].tolist())
                if len(hot) and on in hot.columns else set())
    if not hot_keys:
        return hash_join(left, right, on, num_buckets=num_buckets)

    cold = hash_join(
        broadcast_semi_filter(left, hot_keys, on, keep=False),
        broadcast_semi_filter(right, hot_keys, on, keep=False),
        on, num_buckets=num_buckets)

    l_names = list(left.schema().names)
    r_names = [on] + [n for n in right.schema().names
                      if n != on and n not in l_names]
    hot_r_raw = broadcast_semi_filter(right, hot_keys, on,
                                      keep=True).to_pandas()
    if not len(hot_r_raw):
        # no right rows for any hot key: inner semantics drop every hot
        # left row, so the hot path contributes nothing
        return cold
    hot_r = hot_r_raw[r_names]
    if len(hot_r) > broadcast_cap:
        raise ValueError(
            f"skew_join: {len(hot_r)} hot right rows exceed broadcast_cap="
            f"{broadcast_cap}; both sides are hot-heavy — raise hot_count "
            "or pre-aggregate the right side")
    hot_ref = ray.put(hot_r)

    def probe(df: pd.DataFrame) -> pd.DataFrame:
        # inner merge against the broadcast hot rows: cold-key left rows
        # fall out here, so no pre-filter pass over the left is needed
        return df[l_names].merge(ray.get(hot_ref), on=on, how="inner")

    hot_out = left.map_batches(probe, batch_format="pandas")
    return cold.union(hot_out)


def pivot_wide(
    ds: Dataset,
    key: str,
    pivot_col: str,
    value_col: str,
    categories: Sequence[str],
    strict: bool = True,
    batch_size: int = 65536,
) -> Dataset:
    """Long→wide pivot: one row per ``key`` with (sum, count) of
    ``value_col`` per declared category of ``pivot_col`` — the
    feature-matrix reshape (per-entity wide features from an event log).

    Scale shape: the pivot happens MAP-SIDE — each batch reduces to one
    partial row per key with 2×C numeric columns (one pandas
    groupby-unstack kernel, no per-row Python), and the only all-to-all
    is the O(distinct keys) ``pre_aggregate`` over those fixed-width
    partials.  A naive long aggregate on (key, category) followed by a
    widening shuffle would move the same rows TWICE and emit a
    categories-dependent schema per bucket; declaring ``categories`` up
    front keeps the output schema fixed at any scale (the lakehouse
    contract) and bounds the partial width.

    ``strict=True`` raises on a category value outside the declared set
    (data-quality guard); ``strict=False`` ignores such rows.  Output
    columns: ``key``, then ``{c}_sum`` (float64) and ``{c}_cnt`` (int64)
    per category, zero-filled for keys with no rows in a category.
    """
    cats = list(categories)
    if len(set(cats)) != len(cats):
        raise ValueError("pivot_wide: duplicate categories")
    sum_cols = {c: f"{c}_sum" for c in cats}
    cnt_cols = {c: f"{c}_cnt" for c in cats}
    out_cols = [v for c in cats for v in (sum_cols[c], cnt_cols[c])]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        seen = df[pivot_col].unique()
        extra = [v for v in seen if v not in sum_cols]
        if extra:
            if strict:
                raise ValueError(
                    f"pivot_wide: undeclared {pivot_col} values {extra!r}; "
                    f"declare them in categories= or pass strict=False")
            df = df[df[pivot_col].isin(list(sum_cols))]
        if not len(df):
            e: dict = {key: pd.Series([], dtype=np.int64)}
            e.update({sum_cols[c]: pd.Series([], dtype=np.float64)
                      for c in cats})
            e.update({cnt_cols[c]: pd.Series([], dtype=np.int64)
                      for c in cats})
            return pd.DataFrame(e)[[key, *out_cols]]
        g = df.groupby([key, pivot_col], observed=True)[value_col].agg(
            ["sum", "size"])
        wide = g.unstack(pivot_col)
        out = pd.DataFrame({key: wide.index.to_numpy()})
        for c in cats:
            s = (wide[("sum", c)] if ("sum", c) in wide.columns
                 else pd.Series(0.0, index=wide.index))
            n = (wide[("size", c)] if ("size", c) in wide.columns
                 else pd.Series(0, index=wide.index))
            out[sum_cols[c]] = s.fillna(0.0).to_numpy(np.float64)
            out[cnt_cols[c]] = n.fillna(0).to_numpy(np.int64)
        return out

    partials = ds.map_batches(partial, batch_format="pandas",
                              batch_size=batch_size)
    specs: dict = {}
    for c in cats:
        specs[sum_cols[c]] = (sum_cols[c], "sum")
        specs[cnt_cols[c]] = (cnt_cols[c], "sum")
    agg = pre_aggregate(partials, [key], specs)

    def fix_types(df: pd.DataFrame) -> pd.DataFrame:
        for c in cats:
            df[cnt_cols[c]] = df[cnt_cols[c]].to_numpy(np.int64)
            df[sum_cols[c]] = df[sum_cols[c]].to_numpy(np.float64)
        return df[[key, *out_cols]]

    return agg.map_batches(fix_types, batch_format="pandas")
