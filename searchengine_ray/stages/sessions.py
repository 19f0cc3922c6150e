"""Event-stream windowed operators (streaming-shaped semantics over a
partitioned log).

Partitioning assumption (documented per-operator): all events of one key are
co-shuffled into one hash bucket and sorted by ``ts`` inside it; cross-key
ordering is irrelevant.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
from ray.data import Dataset


def sessionize_counts(
    ds: Dataset, gap_minutes: int = 30,
    key_col: str = "user_id", ts_col: str = "ts",
) -> Dataset:
    """Session count per key with a fixed inactivity gap: a new session
    starts when the time since the previous event exceeds the gap.

    One vectorized kernel per hash bucket (``bucketed_apply``): sort the
    bucket by (key, ts) once, flag session starts with a shifted compare,
    sum flags per key — no per-key Python at 10^9 keys."""
    from searchengine_ray.stages.relational import bucketed_apply

    gap = np.timedelta64(gap_minutes * 60, "s")

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col], kind="mergesort")
        keys = g[key_col].to_numpy()
        ts = g[ts_col].to_numpy()
        new_s = np.ones(len(g), dtype=np.int64)
        if len(g) > 1:
            same_key = keys[1:] == keys[:-1]
            within_gap = (ts[1:] - ts[:-1]) <= gap
            new_s[1:] = (~(same_key & within_gap)).astype(np.int64)
        return (pd.DataFrame({key_col: keys, "new_s": new_s})
                .groupby(key_col, as_index=False, sort=False)
                .agg(n_sessions=("new_s", "sum")))

    return bucketed_apply(ds, [key_col], per_bucket)


def asof_join(
    left: Dataset,
    right: Dataset,
    key: str,
    left_ts: str,
    right_ts: str,
    value_cols: list[str],
) -> Dataset:
    """As-of join: for each left row, the most recent right row of the same
    key with ``right_ts <= left_ts``.

    Implementation per the documented partitioning assumption: both sides
    co-shuffle once on the key (``relational.bucketed_apply``, multi-input
    form — each side keeps its own dtypes: int64 stays int64 and exact),
    and ``pd.merge_asof`` runs per bucket over ts-sorted frames.  Rows of
    one key never straddle buckets."""
    from searchengine_ray.stages.relational import bucketed_apply

    r_names = [n for n in right.schema().names
               if n == key or n == right_ts or n in value_cols]

    def join_bucket(lg: pd.DataFrame, rg: pd.DataFrame) -> pd.DataFrame:
        lg = lg.sort_values(left_ts, kind="stable")
        rg = rg.sort_values(right_ts, kind="stable")
        if rg.empty:
            out = lg.copy()
            for c in value_cols:
                out[c] = pd.NA
            return out
        return pd.merge_asof(lg, rg, left_on=left_ts, right_on=right_ts,
                             by=key, direction="backward", suffixes=("", "_r"))

    return bucketed_apply([left, right.select_columns(r_names)], [key],
                          join_bucket)


def tumbling_window_agg(
    ds: Dataset, freq: str = "D",
    key_col: str = "user_id", ts_col: str = "ts", value_col: str = "value",
) -> Dataset:
    """Per-key tumbling-window count/sum; window label as 'YYYY-MM-DD' string
    (string on both engine and oracle side avoids date-vs-timestamp type
    skew in the comparison)."""

    def per_batch(df: pd.DataFrame) -> pd.DataFrame:
        day = pd.to_datetime(df[ts_col]).dt.floor(freq).dt.strftime("%Y-%m-%d")
        out = df.assign(day=day).groupby([key_col, "day"], as_index=False).agg(
            n_events=(value_col, "size"), sum_value=(value_col, "sum")
        )
        return out

    from searchengine_ray.stages.relational import pre_aggregate

    partial = ds.map_batches(per_batch, batch_format="pandas")
    # partials already carry partial n/sum per (key, day); merge with sums
    return pre_aggregate(
        partial, [key_col, "day"],
        {"n_events": ("n_events", "sum"), "sum_value": ("sum_value", "sum")},
    )


def sliding_window_kernel(g: pd.DataFrame, win_us: int) -> pd.DataFrame:
    """One-bucket kernel of the sliding RANGE window (count + value sum of
    each user's events in the preceding ``win_us``, peers at the same ts
    included — RANGE ... CURRENT ROW semantics).

    Vectorized form: rows sort by (user, ts), users densify to small ints,
    and a composite ``user*span + rel_ts`` key makes two ``np.searchsorted``
    calls yield every row's window [lo, hi) at once.  The composite key
    needs ``n_users × span < 2^63``; when a bucket's user count × ts span
    would overflow (≈3e5 users over a multi-year microsecond range), the
    kernel falls back to per-user-block searchsorted — same output,
    one small Python loop per DISTINCT user in the bucket."""
    if not len(g):
        return pd.DataFrame({
            "event_id": pd.Series([], dtype=np.int64),
            "user_id": pd.Series([], dtype=np.int64),
            "cnt_1h": pd.Series([], dtype=np.int64),
            "sum_value_1h": pd.Series([], dtype=np.float64)})
    g = g.sort_values(["user_id", "ts"], kind="mergesort")
    ts = g["ts"].astype("int64").to_numpy()          # epoch microseconds
    du = pd.factorize(g["user_id"].to_numpy())[0].astype(np.int64)
    rel = ts - ts.min()
    # span > max(rel) + WIN guarantees user blocks can't overlap even
    # after subtracting the window from the smallest rel
    span = int(rel.max()) + int(win_us) + 2
    n_users = int(du.max()) + 1
    if n_users * span < 2 ** 63:
        key = du * np.int64(span) + rel
        lo = np.searchsorted(key, du * np.int64(span) + (rel - win_us),
                             side="left")
        hi = np.searchsorted(key, key, side="right")
    else:
        lo = np.empty(len(g), dtype=np.int64)
        hi = np.empty(len(g), dtype=np.int64)
        starts = np.flatnonzero(np.r_[True, du[1:] != du[:-1]])
        ends = np.r_[starts[1:], len(du)]
        for s, e in zip(starts, ends):
            seg = rel[s:e]
            lo[s:e] = s + np.searchsorted(seg, seg - win_us, side="left")
            hi[s:e] = s + np.searchsorted(seg, seg, side="right")
    cs = np.concatenate([[0.0], np.cumsum(g["value"].to_numpy(np.float64))])
    return pd.DataFrame({
        "event_id": g["event_id"].to_numpy(dtype=np.int64),
        "user_id": g["user_id"].to_numpy(dtype=np.int64),
        "cnt_1h": (hi - lo).astype(np.int64),
        "sum_value_1h": np.round(cs[hi] - cs[lo], 6),
    })


def rolling_active_users(
    ds: Dataset, window_days: int = 7,
    key_col: str = "user_id", ts_col: str = "ts",
) -> Dataset:
    """Rolling W-day distinct active users per calendar day (the WAU/MAU
    family): for every day d in the data's range, the number of distinct
    keys with ≥ 1 event in [d − W + 1, d].

    Exact sliding COUNT(DISTINCT) does not decompose into mergeable
    per-window partials, so the scale shape is contribute-then-distinct:

    1. map-only project to (day_idx, key) — int64 epoch days;
    2. ``pre_aggregate`` by (day, key): map-side combine means the shuffle
       carries per-batch-distinct pairs, not raw events;
    3. map-only explode ×W — each active (day, key) contributes to the W
       report days it keeps alive, clipped at the corpus max day (one
       O(batches)-row scalar pre-pass);
    4. ``pre_aggregate`` by (report_day, key) distinct, then by day count.

    Shuffle volume is W × distinct(day, key) — the explode factor is the
    window length, never the event count.  Report days before the first
    event day + window never appear partially: day d reports whatever its
    window covers of the data (leading days report a short window, by
    definition of the metric)."""
    from searchengine_ray.stages.relational import pre_aggregate

    us_per_day = 86_400_000_000

    def project(df: pd.DataFrame) -> pd.DataFrame:
        day = (df[ts_col].to_numpy(dtype="datetime64[us]").astype(np.int64)
               // us_per_day)
        return pd.DataFrame({"day": day,
                             key_col: df[key_col].to_numpy(dtype=np.int64)})

    pairs = ds.map_batches(project, batch_format="pandas")

    # scalar pre-pass: corpus max day (one row per batch to the driver)
    def batch_max(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"m": pd.Series([], dtype=np.int64)})
        return pd.DataFrame({"m": [int(df["day"].max())]})

    mx = pairs.map_batches(batch_max, batch_format="pandas").to_pandas()
    max_day = int(mx["m"].max())

    distinct = pre_aggregate(pairs, ["day", key_col], {"n": (None, "count")})

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        if not n:
            return pd.DataFrame({"day": pd.Series([], dtype=np.int64),
                                 key_col: pd.Series([], dtype=np.int64)})
        rday = (np.repeat(df["day"].to_numpy(np.int64), window_days)
                + np.tile(np.arange(window_days, dtype=np.int64), n))
        keys = np.repeat(df[key_col].to_numpy(np.int64), window_days)
        keep = rday <= max_day
        return pd.DataFrame({"day": rday[keep], key_col: keys[keep]})

    contrib = distinct.map_batches(explode, batch_format="pandas")
    rd_distinct = pre_aggregate(contrib, ["day", key_col],
                                {"n": (None, "count")})
    wau = pre_aggregate(rd_distinct, ["day"], {"wau": (None, "count")})

    def fmt(df: pd.DataFrame) -> pd.DataFrame:
        days = pd.to_datetime(df["day"].to_numpy(np.int64), unit="D")
        return pd.DataFrame({"day": days.strftime("%Y-%m-%d"),
                             "wau": df["wau"].to_numpy(np.int64)})

    return wau.map_batches(fmt, batch_format="pandas")


def item_transitions(
    ds: Dataset, item_col: str = "item",
    key_col: str = "user_id", ts_col: str = "ts_us",
    seq_col: str = "event_id",
) -> Dataset:
    """Consecutive-event transition counts (the next-item / Markov-chain
    construction recommenders and session models train on): for every key's
    event sequence ordered by (ts, seq tiebreak), count (item → next item)
    over adjacent pairs.  The LEAD/LAG window extraction, distributed.

    ONE co-shuffle by key (every key's events land whole in one bucket);
    the bucket kernel is a single sort + shifted-compare — ``next`` comes
    from ``item[1:]`` masked to same-key adjacency, no per-key Python.
    Counts reduce through ``pre_aggregate`` (output is item-vocabulary²
    bounded, not event bounded)."""
    from searchengine_ray.stages.relational import bucketed_apply, pre_aggregate

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({item_col: pd.Series([], dtype=np.int64),
                              "next_item": pd.Series([], dtype=np.int64)})
        if len(g) < 2:
            return empty
        g = g.sort_values([key_col, ts_col, seq_col], kind="mergesort")
        u = g[key_col].to_numpy(np.int64)
        it = g[item_col].to_numpy(np.int64)
        same = u[1:] == u[:-1]
        if not same.any():
            return empty
        return pd.DataFrame({item_col: it[:-1][same],
                             "next_item": it[1:][same]})

    pairs = bucketed_apply(ds, [key_col], per_bucket)
    return pre_aggregate(pairs, [item_col, "next_item"],
                         {"n": (None, "count")})


def windowed_pair_join(
    left: Dataset, right: Dataset, window_us: int,
    key_col: str = "user_id", ts_col: str = "ts_us",
    id_col: str = "event_id",
) -> Dataset:
    """Stream-stream bounded-time INNER join: for every left event, all
    right events of the same key with ``l.ts < r.ts ≤ l.ts + window`` —
    the click→purchase attribution / event-correlation shape.  Unbounded
    stream joins are impossible; the time bound is what makes the state
    finite, and here it also bounds the explode (output pairs only).

    Both sides co-shuffle ONCE by key (multi-input ``bucketed_apply``);
    each bucket sorts each side by the sliding-kernel composite key
    (user × span + rel_ts, same 2^63 overflow guard with per-user
    fallback) and two
    ``np.searchsorted`` calls give every left row's matching right range
    [lo, hi) at once; pairs explode with a repeat/arange kernel — no
    per-key or per-row Python on the main path."""
    from searchengine_ray.stages.relational import bucketed_apply

    cols = [key_col, ts_col, id_col]

    empty = pd.DataFrame({
        "left_id": pd.Series([], dtype=np.int64),
        "right_id": pd.Series([], dtype=np.int64),
        key_col: pd.Series([], dtype=np.int64)})

    def per_bucket(lg: pd.DataFrame, rg: pd.DataFrame) -> pd.DataFrame:
        rg = rg.sort_values([key_col, ts_col], kind="mergesort")
        if not len(lg) or not len(rg):
            return empty.copy()
        # joint densify so both sides share the composite-key space;
        # codes must be MONOTONE in the key value (rg is sorted by raw
        # key, so appearance-order factorize codes would leave rkey
        # unsorted and searchsorted meaningless) — np.unique guarantees it
        users = np.concatenate([lg[key_col].to_numpy(np.int64),
                                rg[key_col].to_numpy(np.int64)])
        du = np.unique(users, return_inverse=True)[1].astype(np.int64)
        ldu, rdu = du[:len(lg)], du[len(lg):]
        lts = lg[ts_col].to_numpy(np.int64)
        rts = rg[ts_col].to_numpy(np.int64)
        t0 = min(int(lts.min()), int(rts.min()))
        lrel, rrel = lts - t0, rts - t0
        span = int(max(int(lrel.max()), int(rrel.max()))) + window_us + 2
        n_users = int(du.max()) + 1
        if n_users * span < 2 ** 63:
            rkey = rdu * np.int64(span) + rrel
            lkey = ldu * np.int64(span) + lrel
            lo = np.searchsorted(rkey, lkey, side="right")
            hi = np.searchsorted(rkey, lkey + window_us, side="right")
        else:  # per-user fallback, same output (the sliding-kernel guard)
            lo = np.empty(len(lg), dtype=np.int64)
            hi = np.empty(len(lg), dtype=np.int64)
            r_starts: dict = {}
            starts = np.flatnonzero(np.r_[True, rdu[1:] != rdu[:-1]])
            ends = np.r_[starts[1:], len(rdu)]
            for s, e in zip(starts, ends):
                r_starts[int(rdu[s])] = (s, e)
            for i in range(len(lg)):
                s, e = r_starts.get(int(ldu[i]), (0, 0))
                seg = rrel[s:e]
                lo[i] = s + np.searchsorted(seg, lrel[i], side="right")
                hi[i] = s + np.searchsorted(seg, lrel[i] + window_us,
                                            side="right")
        cnt = hi - lo
        tot = int(cnt.sum())
        if not tot:
            return empty.copy()
        li = np.repeat(np.arange(len(lg)), cnt)
        cum = np.concatenate([[0], np.cumsum(cnt)[:-1]])
        ri = np.arange(tot) - np.repeat(cum, cnt) + np.repeat(lo, cnt)
        return pd.DataFrame({
            "left_id": lg[id_col].to_numpy(np.int64)[li],
            "right_id": rg[id_col].to_numpy(np.int64)[ri],
            key_col: lg[key_col].to_numpy(np.int64)[li]})

    return bucketed_apply([left.select_columns(cols),
                           right.select_columns(cols)], [key_col], per_bucket)


def gap_fill_daily(events: Dataset, user_col: str = "user_id",
                   ts_col: str = "ts",
                   num_buckets: int | None = None) -> Dataset:
    """Date-spine densification: per-user daily event counts INCLUDING
    zero rows for every day in the user's [first, last] activity span —
    the gap-fill a time-series feature pipeline runs before windowed
    models (missing days must be explicit zeros, not absent rows).

    Scale shape: raw events reduce to (user, day) counts via ONE
    ``pre_aggregate`` (map-side combine — the exchange is O(active
    user-days), never the event count), then one co-shuffle of that
    already-small table groups each user whole and a single vectorized
    kernel per bucket emits the spine (repeat/arange segmented explode +
    one composite-key searchsorted merge; no per-user Python).  Output is
    O(Σ span-days).  Day = epoch_us // 86_400_000_000 (int64)."""
    from searchengine_ray.stages.relational import (bucketed_apply,
                                                    pre_aggregate)

    day_us = np.int64(86_400_000_000)

    def to_day(df: pd.DataFrame) -> pd.DataFrame:
        ts = df[ts_col].astype("datetime64[us]").astype(np.int64)
        return pd.DataFrame({user_col: df[user_col].to_numpy(np.int64),
                             "day": ts // day_us})

    counts = pre_aggregate(events.map_batches(to_day, batch_format="pandas"),
                           [user_col, "day"], {"n_events": (None, "count")})

    def spine(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({user_col: pd.Series([], dtype=np.int64),
                                 "day": pd.Series([], dtype=np.int64),
                                 "n_events": pd.Series([], dtype=np.int64)})
        g = g.sort_values([user_col, "day"], kind="mergesort")
        u = g[user_col].to_numpy(np.int64)
        d = g["day"].to_numpy(np.int64)
        n = g["n_events"].to_numpy(np.int64)
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        ends = np.r_[starts[1:], len(u)]
        lo, hi = d[starts], d[ends - 1]
        span = hi - lo + 1
        total = int(span.sum())
        base = np.repeat(lo, span)
        offs = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(span) - span, span)
        out_day = base + offs
        out_user = np.repeat(u[starts], span)
        # composite-key merge of the existing counts into the spine
        K = np.int64(1) << np.int64(32)
        if int(out_day.max(initial=0)) >= int(K) or \
                int(u.max(initial=0)) > (2**62) // int(K):
            raise OverflowError("gap_fill_daily composite key overflow")
        have = u * K + d  # sorted (user asc, day asc by construction)
        want = out_user * K + out_day
        pos = np.searchsorted(have, want)
        pos_c = np.minimum(pos, len(have) - 1)
        hit = have[pos_c] == want
        out_n = np.where(hit, n[pos_c], np.int64(0))
        return pd.DataFrame({user_col: out_user, "day": out_day,
                             "n_events": out_n})

    return bucketed_apply(counts, [user_col], spine,
                          num_buckets=num_buckets)


def late_data_stats(events: Dataset, lateness_us: int,
                    order_col: str = "event_id", ts_col: str = "ts",
                    tiebreak_col: str | None = None,
                    num_buckets: int = 256) -> Dataset:
    """Watermark / allowed-lateness accounting (the Dataflow model): in
    arrival order (``order_col``, ties broken by ``tiebreak_col``), the
    watermark is the running max event time seen SO FAR minus
    ``lateness_us``; an event is LATE when its own event time falls below
    the watermark at its arrival.  Returns per event-time day
    (epoch_us // 86.4e9): (day, n_events, n_late).

    ``order_col`` is any int64 arrival key — a sequence number, or an
    arrival timestamp derived upstream (possibly with duplicates, hence
    the tiebreak).  Events with equal keys always land in the same range
    bucket, so the tiebreak never has to cross the carry boundary.

    Scale shape — a GLOBAL ordered prefix max without a global sort:
    arrival order buckets by contiguous ``order_col`` range (map-only:
    bucket = (id - min) * B // span from two metadata scalars), per-bucket
    maxes reduce through ONE ``pre_aggregate`` to O(B) driver rows, the
    exclusive prefix max broadcasts back, and one co-shuffle groups each
    bucket whole for a vectorized sort + shifted cummax with the carry-in.
    All event-time arithmetic is integer microseconds — engine and SQL
    agree exactly."""
    from searchengine_ray.stages.relational import (bucketed_apply,
                                                    pre_aggregate)

    day_us = np.int64(86_400_000_000)

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        oid = df[order_col].to_numpy(np.int64)
        ts = df[ts_col].astype("datetime64[us]").astype(np.int64)
        out = {"oid": oid, "ts_us": ts}
        if tiebreak_col is not None:
            out["tb"] = df[tiebreak_col].to_numpy(np.int64)
        return pd.DataFrame(out)

    flat = events.map_batches(tag, batch_format="pandas").materialize()
    from ray.data.aggregate import Max, Min

    mm = flat.aggregate(Min("oid"), Max("oid"))  # ONE pass for both
    lo, hi = int(mm["min(oid)"]), int(mm["max(oid)"])
    span = max(hi - lo + 1, 1)
    nb = min(num_buckets, span)

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["rb"] = ((df["oid"].to_numpy(np.int64) - np.int64(lo))
                    * np.int64(nb) // np.int64(span))
        return df

    tagged = flat.map_batches(bucket, batch_format="pandas")
    bmax = (pre_aggregate(tagged, ["rb"], {"mx": ("ts_us", "max")})
            .to_pandas().sort_values("rb"))  # O(num_buckets) driver rows
    carry = {}
    # sentinel well below any real epoch yet far from INT64_MIN, so
    # ``sentinel - lateness_us`` cannot wrap (numpy int64 overflow is
    # silent); the stream's first event is never late, as with SQL's
    # NULL-watermark row
    running = np.int64(-(2 ** 62))
    for rb_val, mx in zip(bmax["rb"], bmax["mx"]):
        carry[int(rb_val)] = int(running)  # EXCLUSIVE prefix max
        running = max(running, np.int64(mx))
    carry_ref = ray.put(carry)

    def flag(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({"day": pd.Series([], dtype=np.int64),
                                 "n_events": pd.Series([], dtype=np.int64),
                                 "n_late": pd.Series([], dtype=np.int64)})
        cmap = ray.get(carry_ref)
        sort_cols = ["oid", "tb"] if "tb" in g.columns else ["oid"]
        out = []
        for rb_val, gg in g.groupby("rb", sort=True):
            gg = gg.sort_values(sort_cols, kind="mergesort")
            ts = gg["ts_us"].to_numpy(np.int64)
            prefix = np.maximum.accumulate(ts)
            shifted = np.empty_like(prefix)
            shifted[0] = cmap[int(rb_val)]
            shifted[1:] = np.maximum(prefix[:-1], cmap[int(rb_val)])
            late = ts < shifted - np.int64(lateness_us)
            out.append(pd.DataFrame({"day": ts // day_us,
                                     "late": late.astype(np.int64)}))
        cat = pd.concat(out, ignore_index=True)
        return (cat.groupby("day", as_index=False)
                .agg(n_events=("late", "size"), n_late=("late", "sum"))
                .astype(np.int64))

    flagged = bucketed_apply(tagged, ["rb"], flag)
    return pre_aggregate(flagged, ["day"],
                         {"n_events": ("n_events", "sum"),
                          "n_late": ("n_late", "sum")})


def fact_extent_us(facts: Dataset, ts_col: str = "ts_us") -> tuple[int, int]:
    """Global [min, max] of an int64 ts column via per-batch scalar
    partials — O(blocks) driver rows (the value_histogram extent shape)."""

    def part(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"mn": pd.Series([], dtype=np.int64),
                                 "mx": pd.Series([], dtype=np.int64)})
        t = df[ts_col].to_numpy(np.int64)
        return pd.DataFrame({"mn": [t.min()], "mx": [t.max()]})

    p = facts.map_batches(part, batch_format="pandas").to_pandas()
    return int(p["mn"].min()), int(p["mx"].max())


def interval_join(
    facts: Dataset, intervals: Dataset, extent_us: tuple[int, int],
    ts_col: str = "ts_us", fact_id_col: str = "event_id",
    interval_id_col: str = "interval_id",
    start_col: str = "start_us", end_col: str = "end_us",
    carry_col: str | None = None,
    num_buckets: int | None = None, chunk_rows: int = 4096,
) -> Dataset:
    """Interval overlap join: every fact paired with every interval whose
    ``[start, end)`` contains its timestamp — the campaign-attribution /
    maintenance-window / promo-overlap shape, where there is NO equi-key
    to hash on.

    Scale shape: the fact time extent splits into ``num_buckets`` range
    buckets; each interval FRAGMENTS at bucket boundaries (one fragment
    per covered bucket, clipped), so a fragment lives in exactly one
    bucket and a fact matches an interval in exactly the bucket holding
    its timestamp — each pair is found once, no cross-bucket dedup.  Both
    sides co-shuffle ONCE on the bucket id (multi-input
    ``bucketed_apply``); the per-bucket kernel is a chunked vectorized
    containment mask.  Partitioning assumption: the number of intervals
    OVERLAPPING one bucket's span bounds the kernel's m; long intervals
    replicate to every covered bucket (fragment count ≤ num_buckets per
    interval).  ``chunk_rows`` bounds the mask temporary at chunk×m cells.

    Output: (fact_id, interval_id[, carry_col]) pairs."""
    from searchengine_ray.stages.relational import (
        bucketed_apply, default_num_buckets)

    t0, t1 = extent_us
    nb = num_buckets if num_buckets is not None else default_num_buckets()
    w = (t1 - t0) // nb + 1  # max-ts fact lands in bucket nb-1
    hi_clip = t0 + nb * w

    def fact_rows(df: pd.DataFrame) -> pd.DataFrame:
        t = df[ts_col].to_numpy(np.int64)
        out = {"rb": (t - t0) // w,
               fact_id_col: df[fact_id_col].to_numpy(np.int64),
               "ts": t}
        if carry_col is not None:
            out[carry_col] = df[carry_col].to_numpy(np.float64)
        return pd.DataFrame(out)

    def frag_rows(df: pd.DataFrame) -> pd.DataFrame:
        s = np.maximum(df[start_col].to_numpy(np.int64), t0)
        e = np.minimum(df[end_col].to_numpy(np.int64), hi_clip)
        iid = df[interval_id_col].to_numpy(np.int64)
        keep = e > s  # interval overlaps the fact extent at all
        s, e, iid = s[keep], e[keep], iid[keep]
        b0 = (s - t0) // w
        reps = (e - 1 - t0) // w - b0 + 1
        tot = int(reps.sum())
        rb = (np.arange(tot, dtype=np.int64)
              - np.repeat(np.cumsum(reps) - reps, reps)
              + np.repeat(b0, reps))
        sr, er = np.repeat(s, reps), np.repeat(e, reps)
        return pd.DataFrame({"rb": rb,
                             interval_id_col: np.repeat(iid, reps),
                             "fs": np.maximum(sr, t0 + rb * w),
                             "fe": np.minimum(er, t0 + (rb + 1) * w)})

    empty_cols = {fact_id_col: pd.Series([], dtype=np.int64),
                  interval_id_col: pd.Series([], dtype=np.int64)}
    if carry_col is not None:
        empty_cols[carry_col] = pd.Series([], dtype=np.float64)
    empty = pd.DataFrame(empty_cols)

    def per_bucket(f: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        if not len(f) or not len(r):
            return empty.copy()
        t = f["ts"].to_numpy(np.int64)
        fs = r["fs"].to_numpy(np.int64)
        fe = r["fe"].to_numpy(np.int64)
        fid = f[fact_id_col].to_numpy(np.int64)
        iid = r[interval_id_col].to_numpy(np.int64)
        carry = (f[carry_col].to_numpy(np.float64)
                 if carry_col is not None else None)
        outs = []
        for c0 in range(0, len(t), chunk_rows):
            tt = t[c0:c0 + chunk_rows, None]
            fi, ri = np.nonzero((tt >= fs[None, :]) & (tt < fe[None, :]))
            if not fi.size:
                continue
            cols = {fact_id_col: fid[c0 + fi], interval_id_col: iid[ri]}
            if carry is not None:
                cols[carry_col] = carry[c0 + fi]
            outs.append(pd.DataFrame(cols))
        return pd.concat(outs, ignore_index=True) if outs else empty.copy()

    return bucketed_apply(
        [facts.map_batches(fact_rows, batch_format="pandas"),
         intervals.map_batches(frag_rows, batch_format="pandas")],
        ["rb"], per_bucket)


def retention_cohorts(ds: Dataset, user_col: str = "user_id",
                      ts_col: str = "ts",
                      period_us: int = 7 * 86400 * 1_000_000) -> Dataset:
    """Cohort retention matrix — the product-analytics staple: users
    cohorted by their FIRST active period (epoch-based fixed weeks, no
    calendar), counted distinct per (cohort, period offset).

    Scale shape: the event log reduces map-side to distinct
    (user, period) through ONE ``pre_aggregate`` (shuffle volume =
    user-periods, never events), the per-user first period is a second
    ``pre_aggregate`` min over the SAME mapped rows, one ``hash_join``
    co-shuffle attaches cohorts to the already-reduced user-period
    table, and the final (cohort, offset) count is a third
    ``pre_aggregate`` — the matrix is O(periods²) rows regardless of
    corpus size.  Nothing event-scaled ever reaches the driver.

    Output: (cohort_week, week_offset, n_users), offset 0 = the cohort's
    own period (every cohort member is active there by definition —
    pinned by test)."""
    from searchengine_ray.stages.relational import hash_join, pre_aggregate

    def to_period(df: pd.DataFrame) -> pd.DataFrame:
        # resolution-agnostic: [ns]-unit frames (pd.to_datetime default)
        # truncate to μs instead of silently inflating the period index
        us = (df[ts_col].astype("datetime64[us]").astype("int64")
              .to_numpy())
        return pd.DataFrame({
            "u": df[user_col].to_numpy(np.int64),
            "week": us // np.int64(period_us)})

    mapped = ds.map_batches(to_period, batch_format="pandas")
    uw = pre_aggregate(mapped, ["u", "week"], {"_c": (None, "count")})
    first = pre_aggregate(mapped, ["u"], {"cohort_week": ("week", "min")})
    j = hash_join(uw, first, on="u")

    def offs(df: pd.DataFrame) -> pd.DataFrame:
        cw = df["cohort_week"].to_numpy(np.int64)
        return pd.DataFrame({
            "cohort_week": cw,
            "week_offset": df["week"].to_numpy(np.int64) - cw})

    out = pre_aggregate(j.map_batches(offs, batch_format="pandas"),
                        ["cohort_week", "week_offset"],
                        {"n_users": (None, "count")})

    def fix(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "cohort_week": df["cohort_week"].to_numpy(np.int64),
            "week_offset": df["week_offset"].to_numpy(np.int64),
            "n_users": df["n_users"].to_numpy(np.int64)})

    return out.map_batches(fix, batch_format="pandas")


def locf_impute(ds: Dataset, user_col: str = "user_id",
                ts_col: str = "ts", id_col: str = "event_id",
                val_col: str = "v", fill_lead: float = 0.0) -> Dataset:
    """Last-observation-carried-forward imputation per key — the
    time-series gap-repair op (sensor dropout, missing telemetry):
    each NULL value takes the key's most recent non-NULL value under
    (ts, id) order; leading NULLs (no prior observation) take
    ``fill_lead``.

    Scale shape: keys co-shuffle whole in ONE ``bucketed_apply``; per
    bucket one composite sort + one pandas ``groupby().ffill()`` (a
    single vectorized C kernel over the whole bucket — no per-key
    Python).  Values pass through UNCHANGED (no arithmetic), so engine
    and SQL ``last_value(... IGNORE NULLS)`` agree exactly with no
    rounding margin."""
    from searchengine_ray.stages.relational import bucketed_apply

    def fill(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({
                id_col: pd.Series([], dtype=np.int64),
                user_col: pd.Series([], dtype=np.int64),
                "v_filled": pd.Series([], dtype=np.float64)})
        g = g.sort_values([user_col, ts_col, id_col], kind="mergesort")
        v = g.groupby(user_col, sort=False)[val_col].ffill()
        return pd.DataFrame({
            id_col: g[id_col].to_numpy(np.int64),
            user_col: g[user_col].to_numpy(np.int64),
            "v_filled": v.fillna(fill_lead).to_numpy(np.float64)})

    return bucketed_apply(ds, [user_col], fill)
