"""Route equality for every ``_co_shuffle`` kernel: the driver route
(``DRIVER_SHUFFLE_ROWS`` forced to 10**12, the kernel runs once over all
rows) and the all-to-all route (forced to -1, so even zero rows take it;
one kernel call per hash bucket) give the same rows and dtypes, sorted
by key."""

import logging

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from searchengine_ray.stages import relational
from searchengine_ray.stages.relational import (
    bucketed_apply,
    bucketed_map_groups,
    hash_join,
    hash_semi_anti_join,
    pre_aggregate,
)
from searchengine_ray.stages.sessions import asof_join

ROUTES = {"all_to_all": -1, "driver": 10**12}
BIG = 2**53 + 1  # the first int64 a float64 cannot hold


def _build(monkeypatch, caplog, build, route):
    """``build()`` with the row limit forced to ``route``'s; asserts that
    every co-shuffle it ran took that route."""
    caplog.set_level(logging.DEBUG, logger=relational.__name__)
    caplog.clear()
    with monkeypatch.context() as m:
        m.setattr(relational, "DRIVER_SHUFFLE_ROWS", ROUTES[route])
        ds = build()
    seen = [r.args[0] for r in caplog.records
            if r.name == relational.__name__]
    assert seen and set(seen) == {route}, seen
    return ds


def _both(monkeypatch, caplog, build, by):
    """``build()`` once per route, each as a pandas frame sorted by
    ``by``."""
    out = {}
    for route in ROUTES:
        df = _build(monkeypatch, caplog, build, route).to_pandas()
        if len(df):
            df = df.sort_values(by, kind="mergesort").reset_index(drop=True)
        out[route] = df
    return out["all_to_all"], out["driver"]


def _equal(a: pd.DataFrame, b: pd.DataFrame) -> None:
    assert len(a) == len(b)
    if len(a):
        pd.testing.assert_frame_equal(a, b, check_exact=True)


def test_pre_aggregate_routes(ray_session, monkeypatch, caplog):
    rng = np.random.default_rng(1)
    n = 3000
    df = pd.DataFrame({"k": rng.integers(0, 200, n),
                       "s": rng.choice(["a", "b", "é", ""], n),
                       "v": rng.random(n)})
    ds = rd.from_pandas(df).repartition(5)
    a, d = _both(monkeypatch, caplog, lambda: pre_aggregate(
        ds, ["k", "s"], {"n": (None, "count"), "t": ("v", "sum"),
                         "lo": ("v", "min"), "hi": ("v", "max")},
        batch_size=500), ["k", "s"])
    want = (df.groupby(["k", "s"], as_index=False)
            .agg(n=("v", "size"), t=("v", "sum"), lo=("v", "min"),
                 hi=("v", "max"))
            .sort_values(["k", "s"]).reset_index(drop=True))
    assert len(d) == len(want)
    assert d["n"].tolist() == want["n"].tolist()
    np.testing.assert_allclose(d["t"], want["t"], rtol=1e-12)
    # the driver sums in another order than the bucket tasks: compare the
    # routes exactly on everything but the float sum
    _equal(a.drop(columns=["t"]), d.drop(columns=["t"]))
    np.testing.assert_allclose(a["t"], d["t"], rtol=1e-12)


def test_bucketed_map_groups_routes(ray_session, monkeypatch, caplog):
    df = pd.DataFrame({"band": np.arange(60) % 7, "id": np.arange(60)})
    df.loc[59, "band"] = 99  # a singleton group

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = sorted(g["id"].tolist())
        return pd.DataFrame({"a": [x for x in ids for y in ids if x < y],
                             "b": [y for x in ids for y in ids if x < y]},
                            dtype=np.int64)

    ds = rd.from_pandas(df).repartition(4)
    for skip in (False, True):
        a, d = _both(monkeypatch, caplog, lambda: bucketed_map_groups(
            ds, ["band"], pairs, skip_singletons=skip), ["a", "b"])
        _equal(a, d)
        want = pd.concat([pairs(g) for _, g in df.groupby("band")])
        assert sorted(zip(d["a"], d["b"])) == sorted(zip(want["a"], want["b"]))


def test_bucketed_apply_one_input_ndarray_cells(ray_session, monkeypatch, caplog):
    """The embedding_neardup shape: object columns of equal-shape ndarray
    cells stay raw pandas on both routes (no tensor-column round trip)."""
    rng = np.random.default_rng(2)
    n = 50
    df = pd.DataFrame({"k": np.arange(n) % 9, "id": np.arange(n)})
    df["emb"] = [rng.random(4).astype(np.float32) for _ in range(n)]

    def first(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("id").drop_duplicates("k")
        return pd.DataFrame({"k": g["k"].to_numpy(), "id": g["id"].to_numpy(),
                             "norm": [float(np.linalg.norm(e))
                                      for e in g["emb"]],
                             "emb": list(g["emb"])})

    ds = rd.from_pandas(df).repartition(4)
    a, d = _both(monkeypatch, caplog, lambda: bucketed_apply(ds, ["k"], first), ["k"])
    assert d["id"].tolist() == list(range(9))
    _equal(a.drop(columns=["emb"]), d.drop(columns=["emb"]))
    for x, y, i in zip(a["emb"], d["emb"], d["id"]):
        np.testing.assert_array_equal(np.asarray(x), df["emb"][i])
        np.testing.assert_array_equal(np.asarray(y), df["emb"][i])


def test_bucketed_apply_one_input_nul_keys(ray_session, monkeypatch, caplog):
    """One input stays pandas end to end, so even NUL-differentiated keys
    (out of contract for Arrow paths) dedup alike on both routes."""
    df = pd.DataFrame({"id_a": ["a\x001", "a\x001", "a\x002", "a\x002",
                                "b\x001"],
                       "id_b": ["x", "x", "y", "y", "z"], "v": [1, 2, 3, 4, 5]})
    ds = rd.from_pandas(df).repartition(3)
    a, d = _both(monkeypatch, caplog, lambda: bucketed_apply(
        ds, ["id_a", "id_b"], lambda g: g.drop_duplicates(["id_a", "id_b"])),
        ["id_a", "id_b"])
    assert list(zip(d["id_a"], d["id_b"])) == [
        ("a\x001", "x"), ("a\x002", "y"), ("b\x001", "z")]
    assert list(zip(a["id_a"], a["id_b"])) == list(zip(d["id_a"], d["id_b"]))


def test_bucketed_apply_several_inputs_zero_fill(ray_session, monkeypatch, caplog):
    """Several inputs: a column only the left side has holds int64 values
    above 2^53; the widen zero-fills it for the right side, and both routes
    return it int64 and exact."""
    n = 40
    left = pd.DataFrame({"k": np.arange(n, dtype=np.int64) % 6,
                         "big": np.arange(n, dtype=np.int64) * np.int64(BIG)})
    right = pd.DataFrame({"k": np.arange(6, dtype=np.int64),
                          "w": np.arange(6, dtype=np.float64) / 4})

    def join(lg: pd.DataFrame, rg: pd.DataFrame) -> pd.DataFrame:
        assert list(lg.columns) == ["k", "big"]
        assert list(rg.columns) == ["k", "w"]
        return lg.merge(rg, on="k")

    lds = rd.from_pandas(left).repartition(4)
    rds = rd.from_pandas(right).repartition(2)
    a, d = _both(monkeypatch, caplog, lambda: bucketed_apply([lds, rds], ["k"], join),
                 ["big"])
    _equal(a, d)
    assert d["big"].dtype == np.int64
    assert d["big"].tolist() == [i * BIG for i in range(n)]
    assert d["w"].tolist() == [(i % 6) / 4 for i in range(n)]


@pytest.mark.parametrize("keys", ["int", "str"])
def test_hash_join_routes(ray_session, monkeypatch, caplog, keys):
    """String keys obey the NUL-free key contract (unicode, empty and
    spaced values are in it); int64 payloads above 2^53 stay exact."""
    rng = np.random.default_rng(3)
    vocab = (np.arange(30) if keys == "int"
             else np.array([f"ü{i} x" for i in range(29)] + [""], dtype=object))
    left = pd.DataFrame({"k": rng.choice(vocab, 400),
                         "lv": np.arange(400, dtype=np.int64) + BIG})
    right = pd.DataFrame({"k": vocab[::2], "rv": np.arange(15) * 0.5})
    assert not any("\x00" in str(x) for x in vocab)
    lds = rd.from_pandas(left).repartition(5)
    rds = rd.from_pandas(right).repartition(2)
    for how in ("inner", "left"):
        a, d = _both(monkeypatch, caplog, lambda: hash_join(lds, rds, "k", how=how),
                     ["lv"])
        _equal(a, d)
        want = left.merge(right, on="k", how=how).sort_values("lv")
        assert d["lv"].tolist() == want["lv"].tolist()
        assert d["lv"].dtype == np.int64


@pytest.mark.parametrize("anti", [False, True])
def test_semi_anti_join_routes(ray_session, monkeypatch, caplog, anti):
    left = pd.DataFrame({"k": np.array([2**63 - 1, 5, BIG, 7, 5],
                                       dtype=np.int64),
                         "v": list("abcde")})
    right = pd.DataFrame({"k": np.array([5, BIG, 11], dtype=np.int64)})
    lds = rd.from_pandas(left).repartition(2)
    rds = rd.from_pandas(right)
    a, d = _both(monkeypatch, caplog, lambda: hash_semi_anti_join(
        lds, rds, "k", anti=anti), ["k", "v"])
    _equal(a, d)
    want = sorted(v for k, v in zip(left["k"], left["v"])
                  if (k in set(right["k"])) != anti)
    assert sorted(d["v"]) == want
    assert d["k"].dtype == np.int64


@pytest.mark.parametrize("anti", [False, True])
def test_semi_anti_empty_side_routes(ray_session, monkeypatch, caplog, anti):
    """The test_anti_empty_right shape: one side has no rows at all."""
    left = pd.DataFrame({"k": [1, 2, 3], "v": [10, 20, 30]})
    lds = rd.from_pandas(left)
    rds = rd.from_pandas(pd.DataFrame({"k": [9]})).filter(lambda r: False)
    a, d = _both(monkeypatch, caplog, lambda: hash_semi_anti_join(
        lds, rds, "k", anti=anti), ["k"])
    _equal(a, d)
    assert (d["v"].tolist() if len(d) else []) == ([10, 20, 30] if anti else [])


def test_empty_input_routes(ray_session, monkeypatch, caplog):
    """No rows at all: the driver route gives what the all-to-all gives
    (an empty, schemaless Dataset) and calls no kernel."""
    empty = rd.from_pandas(pd.DataFrame({"k": [1], "v": [1.0]})).filter(
        lambda r: False)

    def never(*_):
        raise AssertionError("kernel called without rows")

    for build in (lambda: pre_aggregate(empty, ["k"], {"s": ("v", "sum")}),
                  lambda: bucketed_apply(empty, ["k"], never),
                  lambda: bucketed_apply([empty, empty], ["k"], never)):
        a, d = (_build(monkeypatch, caplog, build, r) for r in ROUTES)
        assert a.schema() == d.schema()
        assert a.count() == d.count() == 0
        pd.testing.assert_frame_equal(a.to_pandas(), d.to_pandas())


def test_byte_limit_routes_wide_rows(ray_session, monkeypatch, caplog):
    """Few rows but many bytes (document text) take the all-to-all; the
    result is the driver route's."""
    df = pd.DataFrame({"h": np.arange(40) % 8,
                       "text": ["w" * 2000 + str(i) for i in range(40)]})
    ds = rd.from_pandas(df).repartition(4)

    def build():
        return bucketed_apply(ds, ["h"], lambda g: g.sort_values(
            "text").drop_duplicates("h"))

    d = _build(monkeypatch, caplog, build, "driver").to_pandas()
    monkeypatch.setattr(relational, "DRIVER_SHUFFLE_BYTES", 40_000)
    caplog.set_level(logging.DEBUG, logger=relational.__name__)
    caplog.clear()
    a = build().to_pandas()
    assert [r.args[0] for r in caplog.records
            if r.name == relational.__name__] == ["all_to_all"]
    _equal(a.sort_values("h").reset_index(drop=True),
           d.sort_values("h").reset_index(drop=True))
    assert sorted(d["text"]) == sorted(df.groupby("h")["text"].min())


def test_driver_output_split_by_size(ray_session, monkeypatch, caplog):
    """The driver route hands on one block per ``target_min_block_size``
    bytes, at most ``num_buckets``: a small output stays one block."""
    from ray.data import DataContext

    df = pd.DataFrame({"k": np.arange(4000), "v": np.arange(4000) * 1.5})
    ds = rd.from_pandas(df)

    def build():
        return bucketed_apply(ds, ["k"], lambda g: g, num_buckets=8)

    one = _build(monkeypatch, caplog, build, "driver").materialize()
    assert one.num_blocks() == 1
    monkeypatch.setattr(DataContext.get_current(), "target_min_block_size",
                        4096)
    many = _build(monkeypatch, caplog, build, "driver").materialize()
    assert many.num_blocks() == 8
    got = many.to_pandas().sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, df)


def test_asof_join_routes(ray_session, monkeypatch, caplog):
    n = 60
    lf = pd.DataFrame({"k": np.arange(n, dtype=np.int64) % 5,
                       "ts": np.arange(n, dtype=np.int64) * 10,
                       "lpay": np.arange(n, dtype=np.int64) * np.int64(BIG)})
    rf = pd.DataFrame({"k": np.repeat(np.arange(4, dtype=np.int64), 3),
                       "rts": np.tile(np.array([0, 150, 400], np.int64), 4),
                       "v": np.arange(12, dtype=np.int64) + 100})
    lds = rd.from_pandas(lf).repartition(4)
    rds = rd.from_pandas(rf).repartition(2)
    a, d = _both(monkeypatch, caplog, lambda: asof_join(lds, rds, "k", "ts", "rts",
                                                ["v"]), ["ts"])
    _equal(a, d)
    assert d["lpay"].tolist() == [i * BIG for i in range(n)]
    want = pd.merge_asof(lf.sort_values("ts"), rf.sort_values("rts"),
                         left_on="ts", right_on="rts", by="k")
    got_v = d["v"].tolist()
    for g, w in zip(got_v, want.sort_values("ts")["v"].tolist()):
        assert (pd.isna(g) and pd.isna(w)) or g == w


def test_all_to_all_route_streams_its_input(ray_session, monkeypatch, caplog):
    """Past the limit the all-to-all runs on the lazy plan (nothing
    materialized pins the input), except behind a barrier, which is
    materialized so it runs once; both give the driver route's rows."""
    from ray.data._internal.logical.operators.input_data_operator import (
        InputData,
    )

    def plan_ops(ds):
        ops, out = [ds._logical_plan.dag], []
        while ops:
            out.append(ops.pop())
            ops += out[-1].input_dependencies
        return out

    src = rd.range(2000).map_batches(
        lambda df: df.assign(k=df["id"] % 37), batch_format="pandas")
    sorted_src = src.sort("id")
    assert not relational._behind_barrier(src)
    assert relational._behind_barrier(sorted_src)
    assert not relational._behind_barrier(sorted_src.materialize())

    def kernel(g):
        return g.groupby("k", as_index=False)["id"].sum()

    for ds, pinned in ((src, False), (sorted_src, True)):
        a = _build(monkeypatch, caplog,
                   lambda: bucketed_apply(ds, ["k"], kernel), "all_to_all")
        assert any(isinstance(o, InputData) for o in plan_ops(a)) == pinned
        d = _build(monkeypatch, caplog,
                   lambda: bucketed_apply(ds, ["k"], kernel), "driver")
        _equal(a.to_pandas().sort_values("k").reset_index(drop=True),
               d.to_pandas().sort_values("k").reset_index(drop=True))
