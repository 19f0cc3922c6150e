"""Traced-run machinery: spans around the program's public calls, Ray
timeline aggregation, all-to-all counting and the kernel microbenchmarks.

Nothing here edits the program: spans come from wrapping public functions
and methods from the outside for the duration of the traced cycles, and
actor/task busy time comes from ``ray.timeline()``.
"""

from __future__ import annotations

import functools
import logging
import time
from collections import defaultdict

import numpy as np

# (owner import path, attribute, span name).  Owners are classes or modules;
# module-level functions are looked up at call time by the program, so
# replacing the module attribute is enough.
WRAPPED = [
    ("searchengine_ray.pipelines.crawl:CrawlEngine", "__init__", "crawl.engine_start"),
    ("searchengine_ray.pipelines.crawl:CrawlEngine", "resume", "crawl.resume"),
    ("searchengine_ray.pipelines.crawl:CrawlEngine", "run_wave", "crawl.run_wave"),
    ("searchengine_ray.pipelines.crawl:CrawlEngine", "result", "crawl.result"),
    ("searchengine_ray.pipelines.crawl:CrawlEngine", "shutdown", "crawl.shutdown"),
    ("searchengine_ray.state.frontier:InMemoryFrontierPool", "slice_wave", "frontier.slice_wave"),
    ("searchengine_ray.state.frontier:InMemoryFrontierPool", "add", "frontier.add"),
    ("searchengine_ray.state.frontier:InMemoryFrontierPool", "snapshot_to", "storage.checkpoint"),
    ("searchengine_ray.state.frontier:PartitionedFrontierPool", "slice_wave", "frontier.slice_wave"),
    ("searchengine_ray.state.frontier:PartitionedFrontierPool", "add", "frontier.add"),
    ("searchengine_ray.state.frontier:PartitionedFrontierPool", "snapshot_to", "storage.checkpoint"),
    ("searchengine_ray.sources.storage", "write_table_atomic", "storage.checkpoint"),
    ("searchengine_ray.sources.storage", "write_json_atomic", "storage.checkpoint"),
    ("searchengine_ray.stages.content_probe", "resolve_wave", "content_probe.resolve_wave"),
    ("searchengine_ray.pipelines.index_pipeline", "build_postings", "index_pipeline.build_postings"),
    ("searchengine_ray.pipelines.index_pipeline", "write_index", "index_pipeline.write_index"),
    ("searchengine_ray.pipelines.index_pipeline", "merge_index", "index_pipeline.merge_index"),
    ("searchengine_ray.pipelines.index_pipeline", "load_postings", "index_pipeline.load_postings"),
    ("searchengine_ray.pipelines.index_pipeline", "search_index", "index_pipeline.search_index"),
    ("searchengine_ray.pipelines.search", "boolean_search", "search.boolean_search"),
]


def _resolve(path: str):
    import importlib

    mod, _, cls = path.partition(":")
    obj = importlib.import_module(mod)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory span recorder.  ``install`` wraps every ``WRAPPED`` target,
    ``uninstall`` restores the originals.  A span records its name, start,
    end and parent span index."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*a, **kw):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append((name, 0.0, 0.0, parent))
            tracer._stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*a, **kw)
            finally:
                tracer.spans[idx] = (name, t0, time.perf_counter(), parent)
                tracer._stack.pop()

        return traced

    def install(self) -> None:
        for path, attr, name in WRAPPED:
            owner = _resolve(path)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(raw.__func__, name)))
            else:
                setattr(owner, attr, self._wrap(raw, name))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved = []


class AllToAllCounter(logging.Handler):
    """Counts all-to-all operators in every Ray Data execution plan the
    streaming executor logs (one log record per executed Dataset)."""

    LOGGER = "ray.data._internal.execution.streaming_executor"

    def __init__(self) -> None:
        super().__init__(logging.INFO)
        self.events: list[tuple[float, int]] = []

    def emit(self, record: logging.LogRecord) -> None:
        msg = record.getMessage()
        if "Execution plan of Dataset" in msg:
            self.events.append((time.perf_counter(), msg.count("AllToAllOperator[")))

    def count_between(self, t0: float, t1: float) -> int:
        return sum(n for t, n in self.events if t0 <= t <= t1)


def quiet_ray_data_logs(counter: AllToAllCounter | None) -> None:
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    lg = logging.getLogger(AllToAllCounter.LOGGER)
    if counter is None:
        lg.setLevel(logging.WARNING)
        return
    lg.setLevel(logging.INFO)
    lg.propagate = False
    lg.addHandler(counter)


# ---- ray.timeline() aggregation ------------------------------------------

GATE_METHODS = {
    "HostGateShard.process": "gates.host_process",
    "ContentGate.process_table": "gates.content_process_table",
    "ContentGate.bulk_admit": "gates.content_bulk_admit",
    "RobotsCache.disallowed_prefixes": "gates.robots",
    "HostGateShard.dump_seen_to": "gates.dump_seen",
    "HostGateShard.restore_replay": "gates.restore_replay",
}


def timeline_busy(windows: list[tuple[float, float]]) -> dict[str, dict]:
    """Busy seconds and call counts per actor method / Ray Data task kind for
    task events that started inside one of the ``time.perf_counter``
    windows."""
    import ray

    to_epoch_us = 1e6 * (time.time() - time.perf_counter())
    bounds = [(1e6 * a + to_epoch_us, 1e6 * b + to_epoch_us) for a, b in windows]
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0})
    for ev in ray.timeline():
        cat = str(ev.get("cat", ""))
        if not cat.startswith("task::") or ev.get("ph") != "X":
            continue
        ts = float(ev.get("ts", 0.0))
        if not any(lo <= ts <= hi for lo, hi in bounds):
            continue
        name = str(ev.get("name", ""))
        method = cat[len("task::"):]
        if method in GATE_METHODS:
            key = GATE_METHODS[method]
        elif "map_operator._map_task" in name:
            key = "raydata.map_task"
        elif ".planner.exchange." in name or "_split_single_block" in name:
            key = "raydata.shuffle_task"
        else:
            continue
        out[key]["calls"] += 1
        out[key]["busy_s"] += float(ev.get("dur", 0.0)) / 1e6
    return dict(out)


# ---- kernel microbenchmarks (fixed input counts) -------------------------

KERNEL_PAGES = 64  # decode + phash
KERNEL_CAPTIONS = 2048  # tokenize + shingle
KERNEL_PROBES = 20_000  # SeenSet membership probes
KERNEL_PROBE_ROWS = 512  # content_probe.probe_batch rows


def _best_of(fn, reps: int = 3) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def kernel_microbench(pages: list[dict], seed: int) -> tuple[dict, dict]:
    """Per-operation cost of the crawl's hot kernels on ``pages`` (records
    with bytes/fmt/caption/phash), cycled up to the fixed input counts;
    returns (metrics, input counts)."""
    import pyarrow as pa

    from searchengine_ray.config import CrawlConfig
    from searchengine_ray.functions.imagecodec import decode
    from searchengine_ray.functions.ngrams import shingle_hashes
    from searchengine_ray.functions.phash import phash64
    from searchengine_ray.functions.tokenizer import tokenize_fast
    from searchengine_ray.stages.content_probe import StoreIndex, probe_batch
    from searchengine_ray.state.seenset import SeenSet

    cfg = CrawlConfig()
    n = cfg.ngram_size
    imgs = [pages[i % len(pages)] for i in range(KERNEL_PAGES)]
    caps = [pages[i % len(pages)]["caption"] for i in range(KERNEL_CAPTIONS)]
    t_img = _best_of(lambda: [phash64(decode(p["bytes"], p["fmt"])) for p in imgs])
    t_sh = _best_of(lambda: [shingle_hashes(tokenize_fast(c), n) for c in caps])

    rng = np.random.default_rng(seed)
    ss = SeenSet(digest_size=32)
    stored = rng.bytes(32 * KERNEL_PROBES)
    for i in range(KERNEL_PROBES):
        ss.add(stored[32 * i: 32 * i + 32])
    probes = [stored[32 * i: 32 * i + 32] if i % 2 else rng.bytes(32)
              for i in range(KERNEL_PROBES)]
    t_ss = _best_of(lambda: [p in ss for p in probes])

    sh = [sorted(shingle_hashes(tokenize_fast(c), n)) for c in caps[:KERNEL_PROBE_ROWS]]
    ph = [int(pages[i % len(pages)]["phash"]) for i in range(KERNEL_PROBE_ROWS)]
    half = KERNEL_PROBE_ROWS // 2
    idx = StoreIndex(cfg.phash_max_hamming, pa.table({
        "seq": pa.array(range(half), pa.int64()),
        "shingles": pa.array(sh[:half], pa.list_(pa.int64())),
        "phash": pa.array(ph[:half], pa.int64())}))
    status = [200] * KERNEL_PROBE_ROWS
    t_pb = _best_of(lambda: probe_batch(sh, ph, status, idx, cfg.content_max_similarity))
    return {
        "functions.decode_phash_us_per_page": 1e6 * t_img / KERNEL_PAGES,
        "functions.shingle_us_per_page": 1e6 * t_sh / KERNEL_CAPTIONS,
        "seenset.contains_ns": 1e9 * t_ss / KERNEL_PROBES,
        "content_probe.probe_batch_us_per_row": 1e6 * t_pb / KERNEL_PROBE_ROWS,
    }, {"decode_phash_pages": KERNEL_PAGES, "shingle_captions": KERNEL_CAPTIONS,
        "seenset_probes": KERNEL_PROBES, "probe_batch_rows": KERNEL_PROBE_ROWS}
