"""Output checks for the benchmark workloads.

Every check is a pure function over plain frames/sets and returns a list of
error strings (empty = correct), so ``selftest.py`` can feed each one a
perturbed output and show that it fails.
"""

from __future__ import annotations

import pandas as pd

ORDER_COLUMNS = ["seq", "url_norm", "wave", "rank", "status", "decision"]


def expected_order_from_oracle(oracle_rows: list[dict]) -> pd.DataFrame:
    """Oracle crawl log (processing order) → the engine's order-frame shape,
    with ``rank`` = position inside the wave."""
    df = pd.DataFrame(oracle_rows).rename(columns={"url": "url_norm"})
    if df.empty:
        return pd.DataFrame(columns=ORDER_COLUMNS)
    df["rank"] = df.groupby("wave").cumcount()
    return df[ORDER_COLUMNS]


def _normalized(order: pd.DataFrame) -> pd.DataFrame:
    df = order[ORDER_COLUMNS].sort_values(["wave", "rank"], kind="stable")
    return df.astype({"seq": "int64", "wave": "int64", "rank": "int64",
                      "status": "int64", "url_norm": str, "decision": str}
                     ).reset_index(drop=True)


def check_crawl_order(got: pd.DataFrame, want: pd.DataFrame,
                      label: str = "crawl order") -> list[str]:
    """Row-by-row equality of (seq, url_norm, wave, rank, status, decision)
    in (wave, rank) order."""
    g, w = _normalized(got), _normalized(want)
    if len(g) != len(w):
        return [f"{label}: {len(g)} rows, expected {len(w)}"]
    diff = (g != w).any(axis=1)
    if diff.any():
        i = int(diff.idxmax())
        return [f"{label}: {int(diff.sum())} rows differ; first at "
                f"wave {w.at[i, 'wave']} rank {w.at[i, 'rank']}: got "
                f"{g.iloc[i].to_dict()}, expected {w.iloc[i].to_dict()}"]
    return []


def check_seen(got: set[str], want: set[str]) -> list[str]:
    if got == want:
        return []
    return [f"url-seen set: {len(want - got)} missing, {len(got - want)} "
            f"unexpected ({len(got)} vs {len(want)})"]


def check_resumed_waves(got: pd.DataFrame, want: pd.DataFrame,
                        first_resumed_wave: int) -> list[str]:
    """The waves run after ``CrawlEngine.resume`` must equal the
    uninterrupted crawl's waves, wave by wave."""
    errors = []
    g_all, w_all = _normalized(got), _normalized(want)
    waves = sorted(set(w_all["wave"]) | set(g_all["wave"]))
    for wv in (x for x in waves if x >= first_resumed_wave):
        g = g_all[g_all["wave"] == wv].reset_index(drop=True)
        w = w_all[w_all["wave"] == wv].reset_index(drop=True)
        if len(g) != len(w) or bool((g != w).any(axis=None)):
            errors.append(f"resumed wave {wv} is not identical to the "
                          f"uninterrupted crawl ({len(g)} vs {len(w)} rows)")
    if not any(w_all["wave"] >= first_resumed_wave):
        errors.append(f"no wave at or after {first_resumed_wave} to resume")
    return errors


def check_topk(got: pd.DataFrame, want: pd.DataFrame, query: str,
               score_tol: float = 1.5e-6) -> list[str]:
    """Ranked (doc_id, score[, url]) equality: identical doc ids in order,
    scores within one unit of the 6th decimal both sides round to."""
    g_ids = [int(x) for x in got["doc_id"]] if len(got) else []
    w_ids = [int(x) for x in want["doc_id"]] if len(want) else []
    if g_ids != w_ids:
        return [f"query {query!r}: doc ids {g_ids}, expected {w_ids}"]
    if g_ids:
        gap = (got["score"].to_numpy(float) - want["score"].to_numpy(float))
        if abs(gap).max() > score_tol:
            return [f"query {query!r}: scores {list(got['score'])}, expected "
                    f"{list(want['score'])}"]
        if "url" in want.columns and list(got.get("url", [])) != list(want["url"]):
            return [f"query {query!r}: urls {list(got.get('url', []))}, "
                    f"expected {list(want['url'])}"]
    return []
