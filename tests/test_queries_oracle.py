"""Driver-contract conformance: every SQL-backed query must match its DuckDB
oracle at sf0.001 (row count + schema-insensitive sorted-value equality —
the same comparison shape the driver uses at sf0.01)."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF_DIR = "/root/testdata/sf0.001"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def _to_pandas(result):
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.sql(f"CREATE VIEW {t} AS SELECT * FROM '{SF_DIR}/{t}.parquet'")
    return c


def _compare(name, ray_df, sql_df):
    a, b = _canon(ray_df), _canon(sql_df)
    assert list(a.columns) == list(b.columns), (name, a.columns, b.columns)
    assert len(a) == len(b), (name, len(a), len(b))
    for c in a.columns:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        if np.issubdtype(np.asarray(av).dtype, np.floating) or np.issubdtype(
            np.asarray(bv).dtype, np.floating
        ):
            np.testing.assert_allclose(
                av.astype(np.float64), bv.astype(np.float64),
                rtol=0, atol=1e-9, err_msg=f"{name}.{c}")
        else:
            assert (av == bv).all(), f"{name}.{c}: {av[:5]} vs {bv[:5]}"


def _check_sql_backed_queries(con):
    from searchengine_ray.pipelines.queries import ORACLE_SQL, QUERIES

    failures = []
    for name, sql in ORACLE_SQL.items():
        ray_df = _to_pandas(QUERIES[name](SF_DIR))
        sql_df = con.sql(sql).df()
        try:
            _compare(name, ray_df, sql_df)
        except AssertionError as e:
            failures.append(f"{name}: {e}")
    assert not failures, "\n".join(failures)


def test_all_sql_backed_queries(ray_session, con):
    _check_sql_backed_queries(con)


def test_all_sql_backed_queries_all_to_all(ray_session, con, monkeypatch):
    """The same gate with every co-shuffle forced onto the all-to-all
    route: at sf0.001 nearly all of them run on the driver otherwise."""
    from searchengine_ray.stages import relational

    monkeypatch.setattr(relational, "DRIVER_SHUFFLE_ROWS", -1)
    _check_sql_backed_queries(con)


def test_rows_only_queries_run(ray_session):
    from searchengine_ray.pipelines.queries import ORACLE_SQL, QUERIES

    for name, fn in QUERIES.items():
        if name in ORACLE_SQL:
            continue
        df = _to_pandas(fn(SF_DIR))
        assert df is not None and len(df) >= 0, name


def test_entry_smoke(ray_session):
    import __ray_entry__ as e

    df = _to_pandas(e.entry())
    assert len(df) > 0
    assert set(e.oracle_sql()).issubset(set(e.queries()))
