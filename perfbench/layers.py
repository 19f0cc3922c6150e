"""The traced run: per-layer metrics from spans, the Ray timeline, the
per-wave crawl records and the kernel microbenchmarks.

Traced and untraced cycles alternate, so the tracing overhead compares
cycles of the same run.  Every per-layer metric is reported on every
workload; a layer a workload does not exercise reads 0.  Per-cycle figures
are averages over the traced cycles.  The end-to-end metric and workload
each one should move are listed in README.md.
"""

from __future__ import annotations

import json
import os
import statistics
import time

import tracing
from run import OUT_DIR, run_cycles, tail

GATE_KEYS = list(tracing.GATE_METHODS.values())

UNITS = {
    "crawl.engine_start_s": "s", "crawl.wave0_s": "s",
    "crawl.fetch_validate_s": "s", "crawl.content_gate_s": "s",
    "crawl.links_gate_s": "s", "crawl.wave_other_s": "s",
    "crawl.waves": "count", "crawl.inline_waves": "count",
    "crawl.result_s": "s", "crawl.resume_s": "s",
    "frontier.slice_wave_s": "s", "frontier.slice_wave_calls": "count",
    "frontier.add_s": "s", "frontier.add_calls": "count",
    "storage.checkpoint_write_s": "s", "storage.checkpoint_writes": "count",
    "storage.checkpoint_bytes_per_page": "B",
    "content_probe.resolve_wave_s": "s", "content_probe.resolve_wave_calls": "count",
    **{f"{k}_busy_s": "s" for k in GATE_KEYS},
    **{f"{k}_calls": "count" for k in GATE_KEYS},
    "gates.link_accept_ratio": "ratio", "gates.page_accept_ratio": "ratio",
    "raydata.map_task_busy_s": "s", "raydata.map_tasks": "count",
    "raydata.shuffle_task_busy_s": "s", "raydata.shuffle_tasks": "count",
    "raydata.all_to_all_count": "count", "raydata.all_to_all_per_query": "count",
    "functions.decode_phash_us_per_page": "us", "functions.shingle_us_per_page": "us",
    "seenset.contains_ns": "ns", "content_probe.probe_batch_us_per_row": "us",
    "index_pipeline.build_postings_s": "s", "index_pipeline.write_index_s": "s",
    "index_pipeline.merge_index_s": "s", "index_pipeline.load_postings_ms": "ms",
    "search.boolean_search_ms": "ms",
    "query_tail_ms": "ms", "query_tail_pct": "%", "query_samples": "count",
    "trace.untraced_throughput_per_s": "1/s", "trace.traced_throughput_per_s": "1/s",
    "trace.overhead_pct": "%",
    "host.nproc": "count", "host.ray_num_cpus": "count",
    "host.loadavg_1m": "load", "host.burn_ms": "ms",
}


class Spans:
    """Span totals, each span knowing its ancestors' names."""

    def __init__(self, tracer: tracing.Tracer):
        spans = tracer.spans
        self.rows = []
        for name, s0, s1, parent in spans:
            anc, p = set(), parent
            while p >= 0:
                anc.add(spans[p][0])
                p = spans[p][3]
            if name not in anc:  # outermost span of its name only
                self.rows.append((name, s0, s1, anc))

    def total(self, name: str, under: str | None = None,
              not_under: str | None = None) -> tuple[float, int]:
        sel = [s1 - s0 for n, s0, s1, anc in self.rows
               if n == name and (under is None or under in anc)
               and (not_under is None or not_under not in anc)]
        return sum(sel), len(sel)

    def windows(self, name: str) -> list[tuple[float, float]]:
        return [(s0, s1) for n, s0, s1, _ in self.rows if n == name]


def _per_call(total_calls: tuple[float, int]) -> float:
    total, calls = total_calls
    return total / calls if calls else 0.0


def _crawl_layers(cycles, spans: Spans, n: int) -> dict:
    waves = [m for c in cycles for m in c.wave_metrics]
    later = [m for m in waves if m["wave"] != 0]

    def stage(key):
        return sum(m["stage_sec"][key] for m in later) / n

    run_wave_s, _ = spans.total("crawl.run_wave")
    stages_s = sum(sum(m["stage_sec"].values()) for m in waves)
    pages = sum(m["fetched"] for m in waves)
    cand = sum(m["link_candidates"] for m in waves)
    ck_bytes = sum(c.extra.get("checkpoint_bytes", 0) for c in cycles)
    slice_s, slice_n = spans.total("frontier.slice_wave")
    add_s, add_n = spans.total("frontier.add")
    ck_s, ck_n = spans.total("storage.checkpoint", under="crawl.run_wave")
    rw_s, rw_n = spans.total("content_probe.resolve_wave")
    return {
        "crawl.engine_start_s": spans.total("crawl.engine_start",
                                            not_under="crawl.resume")[0] / n,
        "crawl.wave0_s": sum(m["wall_sec"] for m in waves if m["wave"] == 0) / n,
        "crawl.fetch_validate_s": stage("fetch_validate"),
        "crawl.content_gate_s": stage("content_gate"),
        "crawl.links_gate_s": stage("links_gate"),
        "crawl.wave_other_s": (run_wave_s - stages_s) / n if waves else 0.0,
        "crawl.waves": len(waves) / n,
        "crawl.inline_waves": sum(bool(m["inline"]) for m in waves) / n,
        "crawl.result_s": spans.total("crawl.result")[0] / n,
        "crawl.resume_s": _per_call(spans.total("crawl.resume")),
        "frontier.slice_wave_s": slice_s / n, "frontier.slice_wave_calls": slice_n / n,
        "frontier.add_s": add_s / n, "frontier.add_calls": add_n / n,
        "storage.checkpoint_write_s": ck_s / n, "storage.checkpoint_writes": ck_n / n,
        "storage.checkpoint_bytes_per_page": ck_bytes / pages if ck_bytes else 0.0,
        "content_probe.resolve_wave_s": rw_s / n,
        "content_probe.resolve_wave_calls": rw_n / n,
        "gates.link_accept_ratio": (sum(m["link_decisions"].get("accept", 0)
                                        for m in waves) / cand) if cand else 0.0,
        "gates.page_accept_ratio": (sum(m["page_decisions"].get("accept", 0)
                                        for m in waves) / pages) if pages else 0.0,
    }


def _index_layers(traced, cycles, spans: Spans, counter) -> dict:
    """Index spans per traced build; query tail over every one-query cycle
    (``wall_s`` None) of the run."""
    builds = sum("index_build_s" in c.extra for c in traced)
    lat = [x for c in cycles if c.wall_s is None for x in c.op_ms]
    q_windows = spans.windows("index_pipeline.search_index")
    tail_ms, tail_pct = tail(lat) if lat else (0.0, 0.0)
    return {
        "index_pipeline.build_postings_s": spans.total(
            "index_pipeline.build_postings",
            not_under="index_pipeline.merge_index")[0] / max(1, builds),
        "index_pipeline.write_index_s": spans.total(
            "index_pipeline.write_index",
            not_under="index_pipeline.merge_index")[0] / max(1, builds),
        "index_pipeline.merge_index_s": spans.total(
            "index_pipeline.merge_index")[0] / max(1, builds),
        "index_pipeline.load_postings_ms": 1e3 * _per_call(spans.total(
            "index_pipeline.load_postings", under="index_pipeline.search_index")),
        "search.boolean_search_ms": 1e3 * _per_call(spans.total("search.boolean_search")),
        "query_tail_ms": tail_ms, "query_tail_pct": tail_pct,
        "query_samples": float(len(lat)),
        "raydata.all_to_all_per_query": (
            sum(counter.count_between(a, b) for a, b in q_windows) / len(q_windows)
            if q_windows else 0.0),
    }


def _wave_table(cycles) -> list[str]:
    lines = ["# wave fetched inline wall_s fetch_validate content_gate links_gate "
             "link_cand accept_pages"]
    for i, c in enumerate(cycles):
        for m in c.wave_metrics:
            st = m["stage_sec"]
            lines.append(
                f"# c{i} {m['wave']:>3} {m['fetched']:>6} {int(m['inline'])} "
                f"{m['wall_sec']:>7.3f} {st['fetch_validate']:>7.3f} "
                f"{st['content_gate']:>7.3f} {st['links_gate']:>7.3f} "
                f"{m['link_candidates']:>6} {m['page_decisions'].get('accept', 0):>5}")
    return lines


def _overhead(cycles) -> tuple[float, float, float, str]:
    """(untraced, traced) median per-cycle throughput, the tracing overhead
    in % of the untraced one, and a note that says whether the overhead
    exceeds the untraced cycles' own range (it is unresolved otherwise)."""
    rate = {True: [], False: []}
    for c in cycles:
        if c.items:
            rate[c.traced].append(c.items / c.items_wall_s)
    u, t = rate[False], rate[True]
    if not u or not t:
        return 0.0, 0.0, 0.0, "unresolved: no untraced or no traced sample"
    um, tm = statistics.median(u), statistics.median(t)
    pct = 100.0 * (um - tm) / um
    counts = f"untraced n={len(u)}, traced n={len(t)}"
    if len(u) < 3:
        return um, tm, pct, f"{counts}; unresolved: fewer than 3 untraced samples"
    spread = 100.0 * (max(u) - min(u)) / um
    verdict = "resolved" if abs(pct) > spread else "unresolved"
    return um, tm, pct, f"{counts}; {verdict} against the untraced range of {spread:.1f}%"


def traced_run(wl, args, counter, errors: list, host: dict, setup_s: float):
    """Alternate traced and untraced cycles for ``args.seconds`` (at least
    two, and the workload's minimum); returns (metrics {name: (value,
    samples)}, attempted, failed, cycles)."""
    tracer = tracing.Tracer()
    cycles, attempted, failed = run_cycles(
        wl, args.seconds, errors, max(2, wl.min_cycles), tracer)
    if len(cycles) < max(2, wl.min_cycles):
        raise RuntimeError("a cycle failed")
    traced = [c for c in cycles if c.traced]
    n = len(traced)
    time.sleep(2.5)  # task events reach the GCS about once a second
    windows = [c.window for c in traced]
    busy = tracing.timeline_busy(windows)
    spans = Spans(tracer)
    values = {}
    values.update(_crawl_layers(traced, spans, n))
    values.update(_index_layers(traced, cycles, spans, counter))
    for k in GATE_KEYS:
        values[f"{k}_busy_s"] = busy.get(k, {}).get("busy_s", 0.0) / n
        values[f"{k}_calls"] = busy.get(k, {}).get("calls", 0) / n
    for kind in ("map", "shuffle"):
        b = busy.get(f"raydata.{kind}_task", {})
        values[f"raydata.{kind}_task_busy_s"] = b.get("busy_s", 0.0) / n
        values[f"raydata.{kind}_tasks"] = b.get("calls", 0) / n
    values["raydata.all_to_all_count"] = sum(
        counter.count_between(a, b) for a, b in windows) / n
    kernels, counts = tracing.kernel_microbench(wl.page_sample(), args.seed)
    values.update(kernels)
    (values["trace.untraced_throughput_per_s"], values["trace.traced_throughput_per_s"],
     values["trace.overhead_pct"], note) = _overhead(cycles)
    for k in ("nproc", "ray_num_cpus", "loadavg_1m", "burn_ms"):
        values[f"host.{k}"] = host[k]

    for line in _wave_table(traced):
        print(line)
    print("# kernel input counts: " + " ".join(f"{k}={v}" for k, v in counts.items()))
    print(f"# trace.overhead_pct = {values['trace.overhead_pct']:.2f} ({note})")
    os.makedirs(OUT_DIR, exist_ok=True)
    dump = os.path.join(OUT_DIR, f"trace-{wl.name}-seed{args.seed}.json")
    with open(dump, "w") as f:
        json.dump({"workload": wl.name, "seed": args.seed, "setup_s": setup_s,
                   "spans": tracer.spans, "timeline": busy,
                   "all_to_all": counter.events,
                   "waves": [c.wave_metrics for c in traced],
                   "metrics": values}, f, default=str)
    print(f"# trace written to {dump}")
    rated = [c for c in cycles if c.items]
    samples = {"trace.untraced_throughput_per_s": sum(not c.traced for c in rated),
               "trace.traced_throughput_per_s": sum(c.traced for c in rated),
               "trace.overhead_pct": len(rated),
               **dict.fromkeys(("query_tail_ms", "query_tail_pct", "query_samples"),
                               int(values["query_samples"]))}
    return ({k: (float(values[k]), samples.get(k, n)) for k in UNITS},
            attempted, failed, cycles)
