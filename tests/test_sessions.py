"""Windowed-operator kernels: the sliding RANGE window's overflow fallback
must be bit-identical to the vectorized composite-key path, and both must
match a brute-force per-row reference."""

import numpy as np
import pandas as pd

from searchengine_ray.stages.sessions import sliding_window_kernel

WIN = 3_600_000_000  # 1h in µs


def _brute(df, win):
    rows = []
    for _, r in df.iterrows():
        m = ((df["user_id"] == r["user_id"])
             & (df["ts"] >= r["ts"] - win) & (df["ts"] <= r["ts"]))
        rows.append((r["event_id"], r["user_id"], int(m.sum()),
                     round(float(df.loc[m, "value"].sum()), 6)))
    return pd.DataFrame(rows, columns=["event_id", "user_id", "cnt_1h",
                                       "sum_value_1h"])


def _mkdf(n_users, span_us, seed=9):
    rng = np.random.RandomState(seed)
    n = n_users * 4
    return pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": np.repeat(np.arange(n_users, dtype=np.int64), 4),
        "ts": rng.randint(0, span_us, size=n).astype(np.int64),
        "value": rng.rand(n).round(3),
    })


def test_sliding_kernel_matches_brute_force():
    df = _mkdf(n_users=20, span_us=8 * WIN)
    got = sliding_window_kernel(df, WIN).sort_values("event_id").reset_index(drop=True)
    want = _brute(df, WIN).sort_values("event_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_sliding_kernel_overflow_fallback_identical():
    """A ts span of ~2^55 µs with 300 users forces n_users×span ≥ 2^63 —
    the composite key WOULD overflow; the kernel must take the per-user
    fallback and produce exactly what the vectorized path produces on an
    equivalent rescaled input."""
    span = 2 ** 55
    df = _mkdf(n_users=300, span_us=span, seed=4)
    assert (int(df["user_id"].max()) + 1) * (span + WIN + 2) >= 2 ** 63
    got = sliding_window_kernel(df, WIN).sort_values("event_id").reset_index(drop=True)

    # rescaled twin: same per-user orderings and window relations, built by
    # rank-preserving compression of each user's ts gaps (clip to ≤ 2·WIN:
    # any gap > WIN behaves identically however large it is)
    small = df.sort_values(["user_id", "ts"]).copy()
    new_ts = np.empty(len(small), dtype=np.int64)
    for u, idx in small.groupby("user_id").indices.items():
        t = small["ts"].to_numpy()[idx]
        gaps = np.diff(t, prepend=t[0]).clip(max=2 * WIN)
        new_ts[idx] = np.cumsum(gaps)
    small["ts"] = new_ts
    assert (int(small["user_id"].max()) + 1) * (int(new_ts.max()) + WIN + 2) < 2 ** 63
    want = sliding_window_kernel(small, WIN).sort_values("event_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_funnel_stages_matches_brute_force(ray_session):
    """Per-user Python funnel walk ≡ the bucketed vectorized kernel, and
    the 48 h window must actually bind (some user stops at each stage)."""
    import pyarrow.parquet as pq

    from searchengine_ray.pipelines.queries import q_funnel_stages

    sf = "/root/testdata/sf0.001"
    got = (q_funnel_stages(sf).to_pandas()
           .sort_values("user_id").reset_index(drop=True))

    ev = pq.read_table(f"{sf}/events.parquet",
                       columns=["user_id", "event_type", "ts"]).to_pandas()
    ev["t"] = ev["ts"].astype("int64")
    W = 48 * 3600 * 1_000_000
    rows = []
    for u, g in ev.groupby("user_id"):
        views = g.loc[g["event_type"] == "view", "t"]
        if views.empty:
            continue
        t1 = views.min()
        clicks = g.loc[(g["event_type"] == "click")
                       & (g["t"] > t1) & (g["t"] <= t1 + W), "t"]
        if clicks.empty:
            rows.append((u, 1))
            continue
        t2 = clicks.min()
        buys = g.loc[(g["event_type"] == "purchase")
                     & (g["t"] > t2) & (g["t"] <= t2 + W), "t"]
        rows.append((u, 2 if buys.empty else 3))
    want = (pd.DataFrame(rows, columns=["user_id", "stage"])
            .sort_values("user_id").reset_index(drop=True))
    assert set(want["stage"]) == {1, 2, 3}  # window binds non-vacuously
    pd.testing.assert_frame_equal(got.astype(np.int64),
                                  want.astype(np.int64))


# --- rolling W-day distinct active users -------------------------------------


def _wau_brute(events: pd.DataFrame, w: int) -> dict:
    """Per report day (epoch-day int): distinct users in [d-w+1, d]."""
    day = (events["ts"].to_numpy("datetime64[us]").astype(np.int64)
           // 86_400_000_000)
    users = events["user_id"].to_numpy(np.int64)
    out = {}
    for d in range(day.min(), day.max() + 1):
        m = (day >= d - w + 1) & (day <= d)
        if m.any():
            out[d] = len(set(users[m].tolist()))
    return out


def test_rolling_active_users_brute(ray_session):
    import ray.data as rd

    from searchengine_ray.stages.sessions import rolling_active_users

    rng = np.random.RandomState(3)
    n = 400
    base = np.datetime64("2024-01-01", "us").astype(np.int64)
    ev = pd.DataFrame({
        "user_id": rng.randint(0, 12, n).astype(np.int64),
        "ts": (base + rng.randint(0, 25 * 86_400_000_000, n)
               .astype(np.int64)).astype("datetime64[us]")})
    got = (rolling_active_users(rd.from_pandas(ev).repartition(4),
                                window_days=7)
           .to_pandas().sort_values("day").reset_index(drop=True))
    want = _wau_brute(ev, 7)
    got_map = {np.datetime64(d, "D").astype(np.int64): int(w)
               for d, w in zip(pd.to_datetime(got["day"]).to_numpy(
                   "datetime64[D]"), got["wau"])}
    assert got_map == want
    # the window must BIND: a 1-day window gives a different curve
    got1 = rolling_active_users(rd.from_pandas(ev).repartition(4),
                                window_days=1).to_pandas()
    assert not got1.set_index("day")["wau"].equals(
        got.set_index("day")["wau"])


def test_rolling_window_edges(ray_session):
    """One user active on day 0 only: alive for report days 0..6, absent
    from day 7 on; max-day clipping keeps phantom trailing days out."""
    import ray.data as rd

    from searchengine_ray.stages.sessions import rolling_active_users

    base = np.datetime64("2024-03-01", "us").astype(np.int64)
    day_us = 86_400_000_000
    ev = pd.DataFrame({
        "user_id": np.array([1, 1, 2], dtype=np.int64),  # dup same day
        "ts": np.array([base + 1, base + 2,
                        base + 9 * day_us], dtype=np.int64)
        .astype("datetime64[us]")})
    out = rolling_active_users(rd.from_pandas(ev), window_days=7).to_pandas()
    m = dict(zip(out["day"], out["wau"]))
    assert m["2024-03-01"] == 1 and m["2024-03-07"] == 1  # user 1 alive
    assert "2024-03-08" not in m  # gap day: nobody active in its window
    assert m["2024-03-10"] == 1  # user 2's day
    # no report days past the last event day
    assert max(out["day"]) == "2024-03-10"


# --- item transitions (next-item Markov edges) --------------------------------


def test_item_transitions_brute(ray_session):
    import ray.data as rd

    from searchengine_ray.stages.sessions import item_transitions

    rng = np.random.RandomState(11)
    n = 300
    ev = pd.DataFrame({
        "user_id": rng.randint(0, 9, n).astype(np.int64),
        "ts_us": rng.randint(0, 10_000, n).astype(np.int64),
        "event_id": np.arange(n, dtype=np.int64),
        "item": rng.randint(0, 6, n).astype(np.int64)})
    got = (item_transitions(rd.from_pandas(ev).repartition(5))
           .to_pandas().sort_values(["item", "next_item"])
           .reset_index(drop=True))
    # brute force: per user sort by (ts, event_id), adjacent pairs
    want: dict = {}
    for _, g in ev.groupby("user_id"):
        g = g.sort_values(["ts_us", "event_id"])
        for a, b in zip(g["item"].to_numpy()[:-1], g["item"].to_numpy()[1:]):
            want[(a, b)] = want.get((a, b), 0) + 1
    got_map = {(r.item, r.next_item): r.n for r in got.itertuples()}
    assert got_map == want
    assert got["n"].sum() == sum(len(g) - 1 for _, g in ev.groupby("user_id"))


def test_item_transitions_single_event_users(ray_session):
    import ray.data as rd

    from searchengine_ray.stages.sessions import item_transitions

    ev = pd.DataFrame({
        "user_id": np.array([1, 2, 3], dtype=np.int64),
        "ts_us": np.array([5, 5, 5], dtype=np.int64),
        "event_id": np.array([0, 1, 2], dtype=np.int64),
        "item": np.array([4, 4, 4], dtype=np.int64)})
    out = item_transitions(rd.from_pandas(ev)).to_pandas()
    assert len(out) == 0  # no adjacency within any single-event user


# --- windowed stream-stream pair join -----------------------------------------


def test_asof_join_keeps_int64_columns(ray_session):
    """The as-of co-shuffle hands each side its own columns: an int64 left
    timestamp and an int64 payload above 2^53, split over several blocks,
    come back int64 and exact (a null-filled widen turned both float64 and
    rounded the payload)."""
    import ray.data as rd

    from searchengine_ray.stages.sessions import asof_join

    n = 40
    big = 2**53 + 1
    lf = pd.DataFrame({"k": np.arange(n, dtype=np.int64) % 5,
                       "ts": np.arange(n, dtype=np.int64) * 10,
                       "lpay": np.arange(n, dtype=np.int64) * np.int64(big)})
    rf = pd.DataFrame({"k": np.arange(5, dtype=np.int64),
                       "rts": np.zeros(5, dtype=np.int64),
                       "v": np.arange(5, dtype=np.int64) + 100})
    got = asof_join(rd.from_pandas(lf).repartition(4),
                    rd.from_pandas(rf).repartition(2),
                    "k", "ts", "rts", ["v"]).to_pandas()
    assert got["ts"].dtype == np.int64
    assert got["lpay"].dtype == np.int64
    got = got.sort_values("ts").reset_index(drop=True)
    assert got["ts"].tolist() == [i * 10 for i in range(n)]
    assert got["lpay"].tolist() == [i * big for i in range(n)]
    assert got["v"].tolist() == [100 + i % 5 for i in range(n)]


def test_windowed_pair_join_brute(ray_session):
    import ray.data as rd

    from searchengine_ray.stages.sessions import windowed_pair_join

    rng = np.random.RandomState(17)
    W = 100
    def mk(n, base_id):
        return pd.DataFrame({
            "user_id": rng.randint(0, 8, n).astype(np.int64),
            "ts_us": rng.randint(0, 2_000, n).astype(np.int64),
            "event_id": np.arange(base_id, base_id + n, dtype=np.int64)})
    lf, rf = mk(150, 0), mk(150, 10_000)
    got = (windowed_pair_join(rd.from_pandas(lf).repartition(3),
                              rd.from_pandas(rf).repartition(4), W)
           .to_pandas())
    want = set()
    for a in lf.itertuples():
        for b in rf.itertuples():
            if (a.user_id == b.user_id
                    and a.ts_us < b.ts_us <= a.ts_us + W):
                want.add((a.event_id, b.event_id, a.user_id))
    assert {(r.left_id, r.right_id, r.user_id)
            for r in got.itertuples()} == want
    assert len(got) == len(want)  # no duplicate pairs


def test_windowed_pair_join_edges(ray_session):
    """Boundary semantics: strictly-after left ts, inclusive at +W; users
    absent from the right side produce nothing."""
    import ray.data as rd

    from searchengine_ray.stages.sessions import windowed_pair_join

    lf = pd.DataFrame({"user_id": np.array([1, 1, 2], np.int64),
                       "ts_us": np.array([100, 500, 100], np.int64),
                       "event_id": np.array([0, 1, 2], np.int64)})
    rf = pd.DataFrame({"user_id": np.array([1, 1, 1], np.int64),
                       "ts_us": np.array([100, 150, 200], np.int64),
                       "event_id": np.array([10, 11, 12], np.int64)})
    got = windowed_pair_join(rd.from_pandas(lf), rd.from_pandas(rf),
                             window_us=100).to_pandas()
    pairs = {(r.left_id, r.right_id) for r in got.itertuples()}
    # ts==100 right excluded (strict >); 150 and 200 in (100, 200]
    assert pairs == {(0, 11), (0, 12)}


def test_interval_join_matches_brute_force(ray_session):
    import ray.data as rd

    from searchengine_ray.stages.sessions import fact_extent_us, interval_join

    rng = np.random.RandomState(17)
    n, k = 3000, 40
    ts = rng.randint(0, 1_000_000, n).astype(np.int64)
    facts = pd.DataFrame({"event_id": np.arange(n, dtype=np.int64),
                          "ts_us": ts,
                          "value": rng.rand(n)})
    s = rng.randint(-50_000, 1_000_000, k).astype(np.int64)
    d = rng.randint(1, 120_000, k).astype(np.int64)
    iv = pd.DataFrame({"interval_id": np.arange(k, dtype=np.int64),
                       "start_us": s, "end_us": s + d})
    # plants: entirely before extent, entirely after, spans everything,
    # and one guaranteed-empty (no fact can be inside a width-0... use a
    # gap): put an interval in a range we then exclude from facts
    iv.loc[0, ["start_us", "end_us"]] = [-9_000_000, -8_000_000]
    iv.loc[1, ["start_us", "end_us"]] = [9_000_000, 10_000_000]
    iv.loc[2, ["start_us", "end_us"]] = [-1, 2_000_000]

    fds = rd.from_pandas(facts).repartition(6)
    ids = rd.from_pandas(iv).repartition(3)
    ext = fact_extent_us(fds)
    assert ext == (int(ts.min()), int(ts.max()))
    got = (interval_join(fds, ids, ext, carry_col="value",
                         num_buckets=7, chunk_rows=257)
           .to_pandas())

    m = (ts[:, None] >= s[None, :]) & (ts[:, None] < (s + d)[None, :])
    # restore the planted rows in the mask
    for j in range(3):
        m[:, j] = ((ts >= iv.loc[j, "start_us"])
                   & (ts < iv.loc[j, "end_us"]))
    fi, ri = np.nonzero(m)
    want = set(zip(fi.tolist(), ri.tolist()))
    assert set(zip(got["event_id"], got["interval_id"])) == want
    assert len(got) == len(want)  # exactly-once: no cross-bucket dup
    assert (got["interval_id"] != 0).all() and (got["interval_id"] != 1).all()
    # carry column rides with the fact
    vals = facts.set_index("event_id")["value"]
    assert np.allclose(got["value"].to_numpy(),
                       vals.loc[got["event_id"]].to_numpy())


def test_interval_join_boundary_semantics(ray_session):
    import ray.data as rd

    from searchengine_ray.stages.sessions import interval_join

    facts = pd.DataFrame({"event_id": np.arange(4, dtype=np.int64),
                          "ts_us": np.array([100, 199, 200, 99],
                                            dtype=np.int64)})
    iv = pd.DataFrame({"interval_id": np.array([7], dtype=np.int64),
                       "start_us": np.array([100], dtype=np.int64),
                       "end_us": np.array([200], dtype=np.int64)})
    got = interval_join(rd.from_pandas(facts), rd.from_pandas(iv),
                        (99, 200), num_buckets=3).to_pandas()
    # start inclusive, end exclusive — even with the interval fragmented
    # across range buckets
    assert sorted(got["event_id"]) == [0, 1]


# --- retention cohorts --------------------------------------------------------


def test_retention_cohorts_matches_brute_force(ray_session):
    import ray.data as rd

    from searchengine_ray.stages.sessions import retention_cohorts

    rng = np.random.default_rng(23)
    n = 800
    ts = (np.int64(1_700_000_000_000_000)
          + rng.integers(0, 40 * 86400 * 1_000_000, n))
    df = pd.DataFrame({
        "user_id": rng.integers(0, 60, n).astype(np.int64),
        "ts": pd.to_datetime(ts, unit="us")})
    got = (retention_cohorts(rd.from_pandas(df).repartition(5))
           .to_pandas()
           .sort_values(["cohort_week", "week_offset"])
           .reset_index(drop=True))
    W = 7 * 86400 * 1_000_000
    b = df.assign(week=df["ts"].astype("datetime64[us]")
                  .astype("int64") // W)
    first = b.groupby("user_id")["week"].min().rename("cw")
    uw = b[["user_id", "week"]].drop_duplicates().join(first, on="user_id")
    ref = (uw.assign(cohort_week=uw["cw"],
                     week_offset=uw["week"] - uw["cw"])
           .groupby(["cohort_week", "week_offset"]).size()
           .rename("n_users").reset_index()
           .sort_values(["cohort_week", "week_offset"])
           .reset_index(drop=True))
    pd.testing.assert_frame_equal(
        got, ref.astype({"cohort_week": np.int64, "week_offset": np.int64,
                         "n_users": np.int64}))


def test_retention_cohorts_offset_zero_is_cohort_size(ray_session):
    import ray.data as rd

    from searchengine_ray.stages.sessions import retention_cohorts

    # every cohort member is active in its own first week by definition,
    # so offset-0 n_users == the cohort's total distinct users
    rng = np.random.default_rng(3)
    n = 400
    ts = (np.int64(1_700_000_000_000_000)
          + rng.integers(0, 30 * 86400 * 1_000_000, n))
    df = pd.DataFrame({
        "user_id": rng.integers(0, 25, n).astype(np.int64),
        "ts": pd.to_datetime(ts, unit="us")})
    got = retention_cohorts(rd.from_pandas(df)).to_pandas()
    W = 7 * 86400 * 1_000_000
    first = (df.assign(week=df["ts"].astype("datetime64[us]")
                       .astype("int64") // W)
             .groupby("user_id")["week"].min())
    sizes = first.value_counts().sort_index()
    z = (got[got["week_offset"] == 0]
         .set_index("cohort_week")["n_users"].sort_index())
    assert (z == sizes).all()
    assert (got["week_offset"] >= 0).all()


# --- LOCF imputation ----------------------------------------------------------


def test_locf_matches_brute_force(ray_session):
    import ray.data as rd

    from searchengine_ray.stages.sessions import locf_impute

    rng = np.random.default_rng(29)
    n = 600
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": rng.integers(0, 30, n).astype(np.int64),
        "ts": pd.to_datetime(
            np.int64(1_700_000_000_000_000)
            + rng.integers(0, 10**9, n), unit="us"),
        "v": rng.normal(50, 10, n)})
    df.loc[rng.random(n) < 0.3, "v"] = np.nan
    got = (locf_impute(rd.from_pandas(df).repartition(5))
           .to_pandas().sort_values("event_id").reset_index(drop=True))
    ref = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
    ref = ref.assign(
        v_filled=ref.groupby("user_id")["v"].ffill().fillna(0.0))
    ref = ref.sort_values("event_id").reset_index(drop=True)
    np.testing.assert_array_equal(got["v_filled"].to_numpy(),
                                  ref["v_filled"].to_numpy())
    assert len(got) == n


def test_locf_leading_and_all_null_user(ray_session):
    import ray.data as rd

    from searchengine_ray.stages.sessions import locf_impute

    df = pd.DataFrame({
        "event_id": np.arange(6, dtype=np.int64),
        "user_id": np.array([1, 1, 1, 2, 2, 2], dtype=np.int64),
        "ts": pd.to_datetime(np.arange(6), unit="s"),
        "v": [np.nan, 5.0, np.nan, np.nan, np.nan, np.nan]})
    got = (locf_impute(rd.from_pandas(df), fill_lead=-1.0)
           .to_pandas().sort_values("event_id"))
    assert got["v_filled"].tolist() == [-1.0, 5.0, 5.0, -1.0, -1.0, -1.0]


# --- CUSUM change point -------------------------------------------------------


def test_cusum_detects_planted_level_shift(ray_session):
    """A user whose mean jumps mid-stream must score a CUSUM range ~n·Δ/4,
    far above a stationary user of the same variance."""
    import pyarrow.parquet as pq  # noqa: F401 (parity with module style)

    from searchengine_ray.pipelines.queries import q_cusum_changepoint

    # brute-force the real query output on sf0.001 against a sequential
    # reference, then check the planted-shift property synthetically
    sf = "/root/testdata/sf0.001"
    ev = pq.read_table(f"{sf}/events.parquet",
                       columns=["event_id", "user_id", "ts", "value"]
                       ).to_pandas()
    got = (q_cusum_changepoint(sf).to_pandas()
           .set_index("user_id").sort_index())
    for uid, grp in ev.groupby("user_id"):
        g = grp.sort_values(["ts", "event_id"], kind="mergesort")
        d = g["value"].to_numpy() - g["value"].mean()
        s = np.cumsum(d)
        expect = np.floor((s.max() - s.min()) * 1e6 + 0.5) / 1e6
        assert abs(got.loc[uid, "cusum_range"] - expect) < 2e-6
        assert got.loc[uid, "n_events"] == len(g)
    # synthetic property: shifted stream scores >> stationary stream
    n = 200
    flat = np.sin(np.arange(n))          # stationary, zero drift
    shifted = np.concatenate([np.sin(np.arange(n // 2)),
                              np.sin(np.arange(n // 2)) + 5.0])
    def cusum_range(x):
        d = x - x.mean()
        s = np.cumsum(d)
        return s.max() - s.min()
    assert cusum_range(shifted) > 50 * cusum_range(flat) / 10
    assert cusum_range(shifted) > 100.0
