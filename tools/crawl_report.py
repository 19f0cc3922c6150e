"""Render a crawl checkpoint's per-wave metrics as one table row per wave.

Reads ``<checkpoint_dir>/metrics/wave=N.json`` (written by every
checkpointed wave) and prints: the wave, pages fetched, whether it ran
inline, the resolve and link routes, every stage span, the speculation
hits and the Ray tasks the fetch stage submitted (``fetch_tasks``: one per
row chunk plus one per consumed speculative table; 0 inline), the page and link decision counts, the host gate's cumulative dedup
rate over every shard's decision counters (dup + trap over accept + dup +
trap, from ``shard_decisions``), where the host gate ran (``driver``
until the gate-host processes are handed the gate state, then ``hosts``)
with the admitted URLs the handoff wave handed over, and the driver's RSS.  Waves past
the manifest's ``completed_wave`` (a torn wave's leftovers) are skipped.

Usage: python tools/crawl_report.py <checkpoint_dir>
"""

from __future__ import annotations

import glob
import json
import os
import sys


def wave_rows(checkpoint_dir: str) -> list[dict]:
    """One flat dict per committed wave, in wave order."""
    metrics = []
    for path in glob.glob(os.path.join(checkpoint_dir, "metrics", "wave=*.json")):
        with open(path) as f:
            metrics.append(json.load(f))
    manifest = os.path.join(checkpoint_dir, "manifest.json")
    if os.path.exists(manifest):
        with open(manifest) as f:
            last = json.load(f)["completed_wave"]
        metrics = [m for m in metrics if m["wave"] <= last]
    rows = []
    for m in sorted(metrics, key=lambda m: m["wave"]):
        row = {"wave": m["wave"], "fetched": m["fetched"],
               "inline": int(m["inline"]),
               "resolve_route": m["resolve_route"]["route"],
               "link_route": m["link_route"]["route"]}
        row.update({f"{k}_s": round(v, 3) for k, v in m["spans"].items()})
        row["spec_rows"] = m["spec_rows"]
        row["fetch_tasks"] = m.get("fetch_tasks", "-")  # absent before tasks
        row.update({f"page_{k}": v for k, v in m["page_decisions"].items()})
        row.update({f"link_{k}": v for k, v in m["link_decisions"].items()})
        if "shard_decisions" in m:  # absent from format-2 checkpoints
            row["gate_dedup_rate"] = _dedup_rate(m["shard_decisions"])
        # where the host gate ran (absent before the driver-held gate
        # copies), and the admitted URLs a handoff wave handed over to the
        # gate hosts
        row["gate_at"] = m.get("gate_at", "hosts")
        row["handoff_rows"] = m.get("handoff_rows", "-")
        row["driver_rss_mb"] = m["driver_rss_mb"]
        rows.append(row)
    return rows


def _dedup_rate(shard_decisions: list[dict]) -> float:
    tot = {k: sum(d[k] for d in shard_decisions) for k in ("accept", "dup", "trap")}
    n = sum(tot.values())
    return round((tot["dup"] + tot["trap"]) / n, 4) if n else 0.0


def render(rows: list[dict]) -> str:
    """Fixed-width text table over the union of the rows' columns (first-
    seen order; a decision a wave never took reads 0)."""
    cols: list[str] = []
    for r in rows:
        cols += [c for c in r if c not in cols]
    cells = [[str(r.get(c, 0)) for c in cols] for r in rows]
    widths = [max([len(c)] + [len(row[i]) for row in cells])
              for i, c in enumerate(cols)]
    lines = ["  ".join(c.rjust(w) for c, w in zip(cols, widths))]
    lines += ["  ".join(v.rjust(w) for v, w in zip(row, widths)) for row in cells]
    return "\n".join(lines)


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip().splitlines()[-1])
    rows = wave_rows(sys.argv[1])
    if not rows:
        sys.exit(f"no wave metrics under {sys.argv[1]}/metrics")
    print(render(rows))


if __name__ == "__main__":
    main()
