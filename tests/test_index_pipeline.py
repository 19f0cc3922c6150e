"""Index build/persist/load/query conformance (F5 micro-corpus with
hand-computed tf/idf; reference formulas helpers.py:21-27,
index_construction.py:191-194,204)."""

import math
import os

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from searchengine_ray.pipelines.index_pipeline import (
    build_postings,
    load_postings,
    search_index,
    write_index,
)
from searchengine_ray.pipelines.search import boolean_search, parse_query

# F5: 3 tiny docs, values hand-computed.
# doc0: "cat cat dog"      → tf(cat)=2/3, tf(dog)=1/3
# doc1: "dog bird"         → tf(dog)=1/2, tf(bird)=1/2
# doc2: "fish"             → tf(fish)=1
# df: cat=1 dog=2 bird=1 fish=1 ; N=3
# idf: cat=ln(3) dog=ln(1.5) bird=ln(3) fish=ln(3)
DOCS = pd.DataFrame({
    "doc_id": [0, 1, 2],
    "text": ["cat cat dog", "dog bird", "fish"],
    "url": ["u0", "u1", "u2"],
})


@pytest.fixture()
def postings(ray_session):
    return build_postings(rd.from_pandas(DOCS), mode="simple").to_pandas()


def test_tf_idf_golden(postings):
    p = postings.set_index(["doc_id", "token"])
    assert math.isclose(p.loc[(0, "cat"), "tf"], 2 / 3)
    assert math.isclose(p.loc[(0, "dog"), "tf"], 1 / 3)
    assert math.isclose(p.loc[(1, "bird"), "tf"], 0.5)
    assert math.isclose(p.loc[(0, "cat"), "tf_idf"], (2 / 3) * math.log(3))
    assert math.isclose(p.loc[(0, "dog"), "tf_idf"], (1 / 3) * math.log(3 / 2))
    assert math.isclose(p.loc[(2, "fish"), "tf_idf"], math.log(3))
    assert (postings["weight"] == 1.0).all()


def test_parse_query():
    # reference retrieve_query.py:89-111
    assert parse_query("a AND b OR c d") == [["a", "b"], ["c", "d"]]
    assert parse_query("Hello") == [["hello"]]
    assert parse_query("x OR") == [["x"], []]


def test_boolean_search_semantics(ray_session):
    postings = build_postings(rd.from_pandas(DOCS), mode="simple")
    # AND: both terms required (the reference's empty-seed bug is FIXED —
    # SURVEY.md §7 bug list: retrieve_query.py:48-54 always returned {})
    r = boolean_search(postings, "cat AND dog")
    assert r["doc_id"].tolist() == [0]
    # OR of groups
    r = boolean_search(postings, "cat OR fish")
    assert set(r["doc_id"]) == {0, 2}
    # ranking DESCENDING by summed tf_idf (ascending-sort bug fixed)
    r = boolean_search(postings, "dog OR fish")
    assert r["doc_id"].tolist()[0] == 2  # fish doc scores ln(3) > dog scores
    # no hits
    assert len(boolean_search(postings, "unicorn")) == 0


def test_write_load_search_roundtrip(ray_session, tmp_path):
    out = str(tmp_path / "idx")
    docs = rd.from_pandas(DOCS)
    postings = build_postings(docs, mode="simple")
    summary = write_index(postings, out, docs=docs)
    assert summary["n_unique_tokens"] == 4  # A5
    assert summary["n_postings"] == 5  # (0,cat)(0,dog)(1,dog)(1,bird)(2,fish)
    assert summary["index_size_kb"] > 0  # A6

    # pushdown loader returns only probed terms (J1/S7)
    probe = load_postings(out, ["dog"]).to_pandas()
    assert set(probe["token"]) == {"dog"}
    assert set(probe["doc_id"]) == {0, 1}

    # full query path with doc_map dereference (J2)
    r = search_index(out, "cat AND dog")
    assert r["doc_id"].tolist() == [0]
    assert r["url"].tolist() == ["u0"]
    # top-k cap = 5 (MAX_LINKS_SHOWN, retrieve_query.py:14)
    r = search_index(out, "cat OR dog OR bird OR fish")
    assert len(r) <= 5


def test_html_weighted_postings(ray_session):
    html_docs = pd.DataFrame({
        "doc_id": [0],
        "text": ["<html><title>cat story</title><body>cat cat dog</body></html>"],
    })
    p = build_postings(rd.from_pandas(html_docs), html=True).to_pandas()
    p = p.set_index("token")
    # 'cat' appears in <title> → weight 3 (helpers.py:7-19); body-only
    # words keep weight 1
    assert math.isclose(p.loc["cat", "weight"], 3.0)
    assert math.isclose(p.loc["dog", "weight"], 1.0)
    assert math.isclose(p.loc["story", "weight"], 3.0)
    assert np.isclose(p.loc["cat", "tf"], 3 / 5)


def test_merge_index_equals_rebuild(ray_session, tmp_path):
    """Incremental merge ≡ from-scratch rebuild of the merged corpus:
    replaced docs drop their old postings, new docs append, and every
    surviving posting's tf_idf is rescaled to the merged-corpus idf."""
    from searchengine_ray.pipelines.index_pipeline import merge_index

    base = pd.DataFrame({
        "doc_id": np.array([0, 1, 2], dtype=np.int64),
        "text": ["cat dog", "dog bird", "cat cat fish"],
        "url": ["u0", "u1", "u2"],
    })
    # delta: doc 1 CHANGES, doc 3 is NEW
    delta = pd.DataFrame({
        "doc_id": np.array([1, 3], dtype=np.int64),
        "text": ["bird bird snail", "cat snail"],
        "url": ["u1b", "u3"],
    })
    final = pd.concat([base[base.doc_id != 1], delta], ignore_index=True)

    out = str(tmp_path / "idx")
    write_index(build_postings(rd.from_pandas(base), mode="simple"), out,
                docs=rd.from_pandas(base))
    summary = merge_index(out, rd.from_pandas(delta), mode="simple",
                          url_col="url")

    merged = (load_postings(out).to_pandas()
              .sort_values(["doc_id", "token"]).reset_index(drop=True))
    rebuilt = (build_postings(rd.from_pandas(final), mode="simple")
               .to_pandas()
               .sort_values(["doc_id", "token"]).reset_index(drop=True))
    assert merged[["doc_id", "token"]].equals(rebuilt[["doc_id", "token"]])
    assert np.allclose(merged["tf"], rebuilt["tf"])
    assert np.allclose(merged["tf_idf"], rebuilt["tf_idf"])
    assert summary["n_postings"] == len(rebuilt)

    # doc map: replaced id 1 now maps to the delta's url
    r = search_index(out, "snail")
    assert set(r["doc_id"]) == {1, 3}
    assert set(r["url"]) == {"u1b", "u3"}


def test_merge_index_doc_map_one_block_format(ray_session, tmp_path):
    """merge_index writes its doc map (old minus replaced, plus the
    delta's) from one block format: every file holds Arrow int64 ids and
    string urls without pandas schema metadata, and the map reads back
    int64/object with the delta's urls."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from searchengine_ray.pipelines.index_pipeline import merge_index

    base = pd.DataFrame({"doc_id": np.array([0, 1, 2], dtype=np.int64),
                         "text": ["cat dog", "dog bird", "cat cat fish"],
                         "url": ["u0", "u1", "u2"]})
    delta = pd.DataFrame({"doc_id": np.array([1, 3], dtype=np.int64),
                          "text": ["bird bird snail", "cat snail"],
                          "url": ["u1b", "u3"]})
    out = str(tmp_path / "idx")
    write_index(build_postings(rd.from_pandas(base), mode="simple"), out,
                docs=rd.from_pandas(base))
    merge_index(out, rd.from_pandas(delta), mode="simple", url_col="url")

    dm_dir = os.path.join(out, "doc_map")
    files = [os.path.join(dm_dir, f) for f in os.listdir(dm_dir)]
    assert files
    want = pa.schema([("doc_id", pa.int64()), ("url", pa.string())])
    for f in files:
        sch = pq.read_schema(f)
        assert sch.equals(want), sch
        assert not sch.metadata, sch.metadata
    dm = (pq.read_table(dm_dir).to_pandas()
          .sort_values("doc_id").reset_index(drop=True))
    assert dm["doc_id"].dtype == np.int64
    assert dm["url"].dtype == object
    assert dm["doc_id"].tolist() == [0, 1, 2, 3]
    assert dm["url"].tolist() == ["u0", "u1b", "u2", "u3"]


def test_merge_index_removal_via_empty_text(ray_session, tmp_path):
    """Removal contract: an empty-text delta row REPLACES a doc with zero
    postings — the doc vanishes from the index, its tokens' df drop, and
    n_docs bookkeeping excludes it (the fast-path delta-scale arithmetic
    must not count a removed id as a surviving doc)."""
    from searchengine_ray.pipelines.index_pipeline import merge_index

    base = pd.DataFrame({
        "doc_id": np.array([0, 1, 2, 3], dtype=np.int64),
        "text": ["cat dog", "dog bird", "cat fish", "bird cat"],
    })
    # remove doc 1, change doc 2, add doc 4
    delta = pd.DataFrame({
        "doc_id": np.array([1, 2, 4], dtype=np.int64),
        "text": ["", "fish fish", "dog snail"],
    })
    final = pd.DataFrame({
        "doc_id": np.array([0, 2, 3, 4], dtype=np.int64),
        "text": ["cat dog", "fish fish", "bird cat", "dog snail"],
    })

    out = str(tmp_path / "idx")
    write_index(build_postings(rd.from_pandas(base), mode="simple"), out)
    summary = merge_index(out, rd.from_pandas(delta), mode="simple")

    merged = (load_postings(out).to_pandas()
              .sort_values(["doc_id", "token"]).reset_index(drop=True))
    rebuilt = (build_postings(rd.from_pandas(final), mode="simple")
               .to_pandas()
               .sort_values(["doc_id", "token"]).reset_index(drop=True))
    assert merged[["doc_id", "token"]].equals(rebuilt[["doc_id", "token"]])
    assert np.allclose(merged["tf_idf"], rebuilt["tf_idf"])
    assert 1 not in set(merged["doc_id"])          # removed id gone
    assert summary["n_docs"] == 4                   # 0,2,3,4 — not 5



def test_merge_index_counts_tokenless_docs_like_rebuild(ray_session, tmp_path):
    """A document that tokenizes to nothing still counts in idf's N, as
    in the rebuild (``tfidf_postings``: docs.count(); the SQL oracle:
    count(*) FROM documents): with a doc map the merge's N is the merged
    doc map's row count (4 here, not the 3 docs with tokens), and the
    merged tf_idf equals the rebuild's."""
    from searchengine_ray.pipelines.index_pipeline import merge_index

    base = pd.DataFrame({"doc_id": np.array([1, 2, 3], dtype=np.int64),
                         "text": ["apple banana", "banana cherry", "!!! ..."],
                         "url": ["u1", "u2", "u3"]})
    delta = pd.DataFrame({"doc_id": np.array([4], dtype=np.int64),
                          "text": ["apple durian"], "url": ["u4"]})
    out = str(tmp_path / "idx")
    first = write_index(build_postings(rd.from_pandas(base), mode="simple"),
                        out, docs=rd.from_pandas(base))
    assert first["n_docs"] == 3 and first["n_docs_from"] == "doc_map"
    summary = merge_index(out, rd.from_pandas(delta), mode="simple",
                          url_col="url")
    assert summary["n_docs"] == 4

    merged = (load_postings(out).to_pandas()
              .sort_values(["doc_id", "token"]).reset_index(drop=True))
    rebuilt = (build_postings(rd.from_pandas(pd.concat([base, delta])),
                              mode="simple").to_pandas()
               .sort_values(["doc_id", "token"]).reset_index(drop=True))
    assert merged[["doc_id", "token"]].equals(rebuilt[["doc_id", "token"]])
    np.testing.assert_allclose(merged["tf_idf"], rebuilt["tf_idf"],
                               rtol=0, atol=1e-12)
    apple = merged[merged["token"] == "apple"].set_index("doc_id")["tf_idf"]
    assert np.isclose(apple[1], 0.5 * np.log(4 / 2))  # N = 4, df = 2


# --- search_index routes: driver-side slice vs distributed boolean_search ---

ROUTE_QUERIES = ["cat AND dog", "cat OR dog OR bird OR fish", "dog bird",
                 "snail OR cat", "bird AND snail OR fish", "unicorn",
                 "cat AND unicorn"]


def _both_routes(monkeypatch, out: str) -> list[tuple[pd.DataFrame, pd.DataFrame]]:
    from searchengine_ray.pipelines import index_pipeline

    driver = [search_index(out, q) for q in ROUTE_QUERIES]
    with monkeypatch.context() as m:  # every slice is now over budget
        m.setattr(index_pipeline, "DRIVER_ROWS_LIMIT", 0)
        distributed = [search_index(out, q) for q in ROUTE_QUERIES]
    return list(zip(driver, distributed))


def test_search_routes_identical_micro_corpus(ray_session, tmp_path, monkeypatch):
    out = str(tmp_path / "idx")
    docs = rd.from_pandas(DOCS)
    write_index(build_postings(docs, mode="simple"), out, docs=docs)
    pairs = _both_routes(monkeypatch, out)
    for d, s in pairs:
        pd.testing.assert_frame_equal(d, s, check_exact=True)
    assert pairs[0][0]["doc_id"].tolist() == [0]
    assert list(pairs[0][0].columns) == ["doc_id", "score", "url"]
    assert pairs[0][0]["doc_id"].dtype == np.int64
    assert pairs[0][0]["score"].dtype == np.float64


def test_search_routes_identical_merged_index(ray_session, tmp_path, monkeypatch):
    import shutil

    from searchengine_ray.pipelines.index_pipeline import merge_index

    base = pd.DataFrame({
        "doc_id": np.array([0, 1, 2, 4], dtype=np.int64),
        "text": ["cat dog", "dog bird", "cat cat fish", "fish bird dog"],
        "url": ["u0", "u1", "u2", "u4"],
    })
    delta = pd.DataFrame({
        "doc_id": np.array([1, 3], dtype=np.int64),
        "text": ["bird bird snail", "cat snail"],
        "url": ["u1b", "u3"],
    })
    out = str(tmp_path / "idx")
    write_index(build_postings(rd.from_pandas(base), mode="simple"), out,
                docs=rd.from_pandas(base))
    merge_index(out, rd.from_pandas(delta), mode="simple", url_col="url")
    for d, s in _both_routes(monkeypatch, out):
        pd.testing.assert_frame_equal(d, s, check_exact=True)
    assert set(search_index(out, "snail")["url"]) == {"u1b", "u3"}

    # an index without the token_df side table takes the distributed route
    want = search_index(out, "bird OR cat")
    shutil.rmtree(os.path.join(out, "token_df"))
    pd.testing.assert_frame_equal(search_index(out, "bird OR cat"), want,
                                  check_exact=True)


def test_search_index_empty_corpus(ray_session, tmp_path, monkeypatch):
    """A corpus that tokenizes to nothing leaves postings/ without a file;
    both routes answer with the typed empty frame."""
    from searchengine_ray.pipelines import index_pipeline

    docs = rd.from_pandas(pd.DataFrame({
        "doc_id": np.array([0, 1], dtype=np.int64), "text": ["", " !! "],
        "url": ["u0", "u1"]}))
    out = str(tmp_path / "idx")
    summary = write_index(build_postings(docs, mode="simple"), out, docs=docs)
    assert summary["n_postings"] == 0 and summary["n_unique_tokens"] == 0
    for limit in (index_pipeline.DRIVER_ROWS_LIMIT, 0):
        monkeypatch.setattr(index_pipeline, "DRIVER_ROWS_LIMIT", limit)
        r = search_index(out, "cat OR dog")
        assert r.empty
        assert r.dtypes.to_dict() == {"doc_id": np.int64, "score": np.float64}


def test_search_index_runs_without_ray(ray_session, tmp_path):
    """Within the driver budget a query needs no Ray session: a fresh
    process answers it and never initializes Ray."""
    import json
    import subprocess
    import sys

    out = str(tmp_path / "idx")
    docs = rd.from_pandas(DOCS)
    write_index(build_postings(docs, mode="simple"), out, docs=docs)
    want = search_index(out, "dog OR fish")
    code = (
        "import json, sys, ray\n"
        "from searchengine_ray.pipelines.index_pipeline import search_index\n"
        "r = search_index(sys.argv[1], 'dog OR fish')\n"
        "print(json.dumps({'rows': r.to_dict('list'),"
        " 'ray': ray.is_initialized()}))\n")
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run([sys.executable, "-c", code, out], cwd=repo,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["ray"] is False
    assert got["rows"] == want.to_dict("list")
    assert got["rows"]["doc_id"] == [2, 1, 0]  # ln3 > ln1.5/2 > ln1.5/3


def test_tfidf_stale_df_table_raises():
    """A token missing from the idf table fails loudly, naming the token,
    instead of yielding a NaN tf_idf."""
    from searchengine_ray.stages.text import MissingIdfError, attach_tfidf

    tc = pd.DataFrame({"doc_id": np.array([0, 0, 1], dtype=np.int64),
                       "token": ["cat", "dog", "bird"],
                       "cnt": np.array([2, 1, 1], dtype=np.int64),
                       "doc_len": np.array([3, 3, 1], dtype=np.int64)})
    fresh = pd.Series({"cat": math.log(2), "dog": math.log(2), "bird": math.log(2)})
    ok = attach_tfidf(tc, fresh)
    assert np.allclose(ok["tf_idf"], [2 / 3 * math.log(2), 1 / 3 * math.log(2),
                                      math.log(2)])
    stale = fresh.drop("bird")  # df table from before "bird" entered the corpus
    with pytest.raises(MissingIdfError, match="bird"):
        attach_tfidf(tc, stale)
