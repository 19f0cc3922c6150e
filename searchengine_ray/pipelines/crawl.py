"""The Ray-Data-native crawl engine: iterative waves of frontier expansion.

Each wave is a bounded pipeline of named stages (``CrawlEngine.run_wave``;
SURVEY.md §3.3), every one timed into the wave metric's ``spans``:

    slice           frontier slice, budgeted per host
      → fetch_validate  fetch + validate + link cands in one map: decode
                    image, enforce per-row invariants, caption shingles +
                    phash fingerprints; every live page's links exploded
                    (resolve/defrag/is_valid/canonicalize) and robots-
                    filtered into a per-page ``cands`` column.  Small waves
                    run it on the driver; others in plain Ray tasks, one
                    per row chunk, that also append the store probe's
                    flags (the wave is a list of block refs, wrapped in a
                    Dataset only by the stages that run Ray Data jobs), or
                    a pacing ``Fetcher`` actor pool under Ray Data when
                    ``politeness_delay`` > 0
      → resolve     content gate: store probe (parallel, read-only) +
                    sequential resolve in processing order — exact
                    reference semantics (stages/content_probe.resolve_wave)
      → order       the wave's crawl-order rows
      → sink        accepted payload rows → wave-partitioned table
      → links       host gate over the ACCEPTED pages' cands → logical gate
                    shards, many per gate-host actor (exact URL dedup +
                    trap similarity, in discovery order): one RPC per gate
                    host from the driver, or — giant waves only —
                    groupby(host).map_groups
      → append      frontier(w+1): accepted candidates, FIFO seq assigned
      → metric, checkpoint

Wave pipelining: without politeness pacing, the slice also peeks the NEXT
wave's predicted slice, whose fetch+validate runs speculatively — the same
fetch task as a distributed wave's, without the store probe — while this
wave's later stages occupy the driver.  Fetch is pure (no store probe, no
gate state), so decisions are identical; rows are keyed by seq and taken by
whichever wave the seq lands in (a distributed wave flags them in one
keep+flag task per speculative table).  Under politeness nothing
speculates (the pacing clocks are per actor).

Determinism/ordering contract: the engine reproduces the single-threaded
reference FIFO exactly — ``crawl_order`` sorted by (wave, seq) equals the
oracle's (pipelines/crawl_oracle.py), because every order-dependent decision
runs in discovery order inside the gates while all heavy work (fetch,
decode, hashing, link parsing) is freely parallel.

Scale notes (10^10-URL frontier):
- the frontier pool is pluggable (state/frontier.py): the default driver
  pandas pool for small crawls, or the spill pool of immutable sorted runs
  (``config.frontier_spill_dir``) where a wave reads only each host's next
  rows of every live run and the driver holds the runs' per-host cursors —
  slice semantics are identical and both run under the conformance suite.
  At full scale the FIFO seq assignment becomes the
  standard distributed rank: sort by (parent_seq, link_idx) →
  per-partition counts → exclusive prefix sum → per-partition offset add.
  The per-wave dataflow is unchanged.
- the content store has ONE store of record: the broadcast chain of
  per-wave accepted-fingerprint deltas (replica mode: every fetch task and
  the driver hold an incremental ``StoreIndex`` replica) or the row-sharded
  probe tier (``config.content_probe_shards``, O(corpus/N) per actor).  A
  wave's verdicts are the store probe + the exact sequential resolve —
  on the driver (``resolve_wave``) or, for giant waves, distributed
  (``_resolve_wave_distributed``); wave size alone picks the route.
- the host gate has two routes, chosen by size: a wave resolved on the
  driver whose accepted pages carry at most ``driver_link_threshold`` link
  candidates (counted, not estimated) flattens them on the driver; a
  giant wave gates them in a groupby(host) shuffle and may append to the
  frontier distributed.
- host-gate shards scale horizontally: URL similarity is 0 across hosts
  (link_similarity.py:106-112), so per-host state never crosses shards.
  A shard is logical; ``_gate_host_count`` places the shards on gate-host
  processes.  The checkpoint holds no gate state: every admitted URL is in
  the crawl order or the frontier snapshot, and resume replays them
  (``CrawlEngine._restore``).
- a gate-host process takes ~1 s to answer (spawn + ``import ray``), which
  no engine waits for: a driver-held host gates until its process
  answers, then the wave loop ships its cores — the gate state itself —
  to the process in one ``install`` call (``CrawlEngine._gate_call``/
  ``_handoff``).  The driver holds at most ``driver_link_threshold``
  admitted URLs; a call past it, the giant-wave gate and a resume over it
  wait for the hosts.
- skew: the wave slice caps ``per_host_wave_budget`` URLs per host per wave,
  so a 58%-of-corpus host (BASELINE.md) cannot dominate a wave; fetch actors
  additionally pace per host (token interval = politeness_delay).
"""

from __future__ import annotations

import os
import sys
import time
import uuid
import zlib
from contextlib import contextmanager
from hashlib import sha256
from typing import NamedTuple
from urllib.parse import urlsplit

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

from searchengine_ray.config import CrawlConfig
from searchengine_ray.functions.imagecodec import decode
from searchengine_ray.functions.ngrams import shingle_hashes
from searchengine_ray.functions.phash import phash64
from searchengine_ray.functions.tokenizer import tokenize_fast
from searchengine_ray.sources import storage
from searchengine_ray.sources.fixtures import (
    ProceduralSpec,
    ProceduralStore,
    SyntheticStore,
    procedural_page,
)
from searchengine_ray.state.frontier import (
    InMemoryFrontierPool,
    PartitionedFrontierPool,
    prune_snapshots,
    snapshot_tables,
)
from searchengine_ray.state.gates import (
    ContentProbeShard,
    HostGateActor,
    HostGateShard,
)
from searchengine_ray.utils.urls import (
    join_url,
    normalize,
    urldefrag_str,
    valid_urlhash,
)

# a fetched page's fields, with their Arrow types and the values of the
# 404 shell a fetch of an unknown URL answers with
_PAGE_FIELDS = (("status", pa.int32(), 404), ("caption", pa.string(), ""),
                ("bytes", pa.binary(), b""), ("w", pa.int32(), 0),
                ("h", pa.int32(), 0), ("fmt", pa.string(), ""),
                ("phash", pa.int64(), 0), ("links", pa.list_(pa.string()), []))
_NOT_FOUND = tuple(v for _, _, v in _PAGE_FIELDS)


def _page_record(page: tuple | None) -> tuple:
    """One fetched page's field values (``_PAGE_FIELDS`` order): the 404
    shell for an unknown URL, and a non-200 page keeps only its status."""
    if page is None:
        return _NOT_FOUND
    return page if page[0] == 200 else (page[0], *_NOT_FOUND[1:])

# checkpoint layout version: 3 = per-wave crawl order + frontier snapshot +
# content-fp deltas; resume rebuilds the host gates from the order and the
# frontier.  2 also wrote per-wave host-gate admit deltas (still resumable:
# its order and frontier are the same, the deltas are read only for their
# decision counters); 1 was the round-1 full-dump layout, refused
_CHECKPOINT_FORMAT = 3


def _host_shard(host: str, num_shards: int) -> int:
    return zlib.crc32(host.encode("utf-8")) % num_shards


def _url_host(url_norm: str) -> str:
    """The host a URL is gated under: the netloc, "" for a seed without
    one (links always carry one)."""
    return url_norm.split("/")[2] if "//" in url_norm else ""


def _gate_host_count(cluster_cpus: float, num_shards: int) -> int:
    """Gate-host processes H: one per 4 cluster CPUs (8 at 32, the bench
    shape), at most one per logical shard; shard i lives on host i % H."""
    return min(num_shards, max(1, int(cluster_cpus) // 4))


def _driver_rss_mb() -> float | None:
    """Current driver resident set (MB) from /proc — per-wave lineage for
    the flat-RSS invariant of the spill-pool path."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return round(int(line.split()[1]) / 1024, 1)
    except OSError:
        pass
    return None


def _driver_private_mb() -> float | None:
    """Private (non-shared) resident MB — excludes mapped plasma/shm
    segments, i.e. the driver's OWN heap.  This is the number that must
    stay flat when the frontier lives off-driver (VmRSS also counts
    object-store pages the driver merely mapped)."""
    try:
        with open("/proc/self/smaps_rollup") as f:
            total = 0
            for line in f:
                if line.startswith(("Private_Clean:", "Private_Dirty:")):
                    total += int(line.split()[1])
            return round(total / 1024, 1)
    except OSError:
        return None


# Per-worker-process cache of broadcast objects: ray.get() re-deserializes a
# Python dict on every call, so stateless fetch tasks memoize it once per
# worker (the actor-pool path gets the same amortization via __init__).
# The fetch tasks' per-engine link memos (_task_link_memo) live here too.
# BOUNDED + LRU: per-wave objects (rank maps) would otherwise accumulate in
# every worker for the life of the crawl; LRU (refresh on hit) keeps the
# long-lived store ref resident while per-wave refs cycle through.
from collections import OrderedDict

_BROADCAST_CACHE: OrderedDict[str, object] = OrderedDict()
_BROADCAST_CACHE_MAX = 8


def _process_cached(key: str, make):
    """The object cached under ``key`` in this process, ``make()`` on a
    miss."""
    if key in _BROADCAST_CACHE:
        _BROADCAST_CACHE.move_to_end(key)
        return _BROADCAST_CACHE[key]
    while len(_BROADCAST_CACHE) >= _BROADCAST_CACHE_MAX:
        _BROADCAST_CACHE.popitem(last=False)
    obj = make()
    _BROADCAST_CACHE[key] = obj
    return obj


def _get_broadcast(ref):
    return _process_cached(ref.hex(), lambda: ray.get(ref))


def store_to_arrow(pages: dict[str, dict]) -> tuple[pa.Table, dict[str, int]]:
    """Page store → (Arrow table, url→row index).  The table lives in the
    object store ONCE; workers map it zero-copy (binary payload buffers are
    not re-deserialized per task, unlike a Python dict)."""
    urls = list(pages)
    recs = [pages[u] for u in urls]
    table = pa.table({
        "url": pa.array(urls, pa.string()),
        "status": pa.array([int(r["status"]) for r in recs], pa.int32()),
        "caption": pa.array([r["caption"] for r in recs], pa.string()),
        "bytes": pa.array([r["bytes"] for r in recs], pa.binary()),
        "w": pa.array([int(r["w"]) for r in recs], pa.int32()),
        "h": pa.array([int(r["h"]) for r in recs], pa.int32()),
        "fmt": pa.array([r["fmt"] for r in recs], pa.string()),
        "phash": pa.array([int(r["phash"]) for r in recs], pa.int64()),
        "links": pa.array([list(r["links"]) for r in recs], pa.list_(pa.string())),
    })
    return table, {u: i for i, u in enumerate(urls)}


class Fetcher:
    """Fetch stage: synthetic page-store lookup standing in for the HTTP
    client (reference utils/download.py:7-21).  Reads the broadcast store
    once (zero-copy Arrow) and keeps a per-host politeness clock — the
    token-bucket analog of the reference's per-thread sleep
    (README.md:202-203)."""

    def __init__(self, store_ref, delay: float):
        obj = ray.get(store_ref) if isinstance(store_ref, ray.ObjectRef) else store_ref
        if isinstance(obj, ProceduralSpec):
            self.spec, self.table, self.index = obj, None, None
        else:
            self.spec = None
            self.table, self.index = obj
        self.delay = delay
        self.last_fetch: dict[str, float] = {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url_norm"].to_pylist()
        hosts = batch["host"].to_pylist()
        if self.delay > 0:
            for host in hosts:
                now = time.monotonic()
                wait = self.last_fetch.get(host, -1e18) + self.delay - now
                if wait > 0:
                    time.sleep(wait)
                self.last_fetch[host] = time.monotonic()
        names = [name for name, _, _ in _PAGE_FIELDS]
        if self.spec is not None:
            pages = [procedural_page(self.spec, u) for u in urls]
            pages = [None if p is None else tuple(p[k] for k in names)
                     for p in pages]
        else:
            rows = [self.index.get(u, -1) for u in urls]
            sub = self.table.take(pa.array([i for i in rows if i >= 0],
                                           pa.int64()))
            found = zip(*(sub[k].to_pylist() for k in names))
            pages = [next(found) if i >= 0 else None for i in rows]
        cols = zip(*map(_page_record, pages)) if pages else [()] * len(names)
        return pa.table({
            **{k: batch[k] for k in ("seq", "url_norm", "host", "wave")},
            **{name: pa.array(col, typ)
               for (name, typ, _), col in zip(_PAGE_FIELDS, cols)}})


def _validate_batch(batch: pa.Table, ngram_size: int) -> pa.Table:
    """Decode + per-row invariant enforcement (BASELINE.json:input_hint):
    decoded dims must match (w, h), recomputed phash must equal the carried
    phash (decoded-pixel integrity), caption present.  Emits the caption
    shingle fingerprints and content-addressed image_id."""
    n = batch.num_rows
    statuses = batch["status"].to_pylist()
    fmts = batch["fmt"].to_pylist()
    blobs = batch["bytes"].to_pylist()
    ws = batch["w"].to_pylist()
    hs = batch["h"].to_pylist()
    phs = batch["phash"].to_pylist()
    caps = batch["caption"].to_pylist()
    ok = np.zeros(n, dtype=bool)
    image_ids = []
    shingles = []
    for i in range(n):
        if statuses[i] != 200:
            image_ids.append("")
            shingles.append([])
            continue
        try:
            px = decode(blobs[i], fmts[i])
            valid = (
                px.shape[0] == hs[i]
                and px.shape[1] == ws[i]
                and phash64(px) == phs[i]
                and caps[i] is not None
            )
        except Exception:
            valid = False
        ok[i] = valid
        image_ids.append(sha256(blobs[i]).hexdigest() if valid else "")
        shingles.append(
            sorted(shingle_hashes(tokenize_fast(caps[i]), ngram_size)) if valid else []
        )
    return (
        batch.append_column("integrity_ok", pa.array(ok))
        .append_column("image_id", pa.array(image_ids, pa.string()))
        .append_column("shingles", pa.array(shingles, pa.list_(pa.int64())))
    )


# distinct netloc-bearing links one link memo holds; a full memo is
# cleared and refills (it only saves work, never decides)
LINK_MEMO_MAX = 1 << 16


class _LinkMemo:
    """One engine's link rules (``allowed_domains``, the user's
    ``extra_filter``, ``robots`` = host → disallowed path prefixes or None)
    and what they made of every netloc-bearing link seen so far.

    ``urljoin`` of a link with a scheme and a netloc depends on its base
    only through the base's scheme (dot segments are resolved only for
    relative links), and every later step depends only on the resolved URL
    and the engine's rules, so an entry keyed on (page scheme, raw link) is
    exact for every page of the engine's crawl.  The memo is never shared
    across engines: on the driver it lives on the ``CrawlEngine``, in fetch
    tasks under the engine's link-spec key (``_task_link_memo``)."""

    def __init__(self, allowed_domains, extra_filter=None,
                 robots: dict | None = None):
        self.allowed_domains = allowed_domains
        self.extra_filter = extra_filter
        self.robots = robots or {}
        # (page scheme, raw link) → candidate, or None for a relative link
        self.memo: dict[tuple[str, str], tuple | None] = {}

    def candidate(self, page_url: str, raw: str) -> tuple:
        """``raw`` found on ``page_url`` → (url_norm, url_hash, host), or ()
        when is_valid, the extra filter or robots drops it."""
        resolved = normalize(urldefrag_str(join_url(page_url, raw)))
        url_hash = valid_urlhash(resolved, self.allowed_domains)
        if url_hash is None or (self.extra_filter is not None
                                and not self.extra_filter(resolved)):
            return ()
        parts = resolved.split("/", 3)
        path = "/" + parts[3] if len(parts) > 3 else "/"
        if any(path.startswith(p) for p in self.robots.get(parts[2], ())):
            return ()
        return resolved, url_hash, parts[2]

    def lookup(self, scheme: str, page_url: str, raw: str) -> tuple:
        """``candidate`` of ``raw`` on ``page_url``, whose scheme is
        ``scheme``: memoized when ``raw`` has a scheme and a netloc,
        resolved again for every page when it is relative."""
        key = (scheme, raw)
        cand = self.memo.get(key)
        if cand is not None:
            return cand
        if key in self.memo:  # relative
            return self.candidate(page_url, raw)
        parts = urlsplit(raw) if "://" in raw else None
        relative = parts is None or not (parts.scheme and parts.netloc)
        if len(self.memo) >= LINK_MEMO_MAX:
            self.memo.clear()
        cand = self.candidate(page_url, raw)
        self.memo[key] = None if relative else cand
        return cand


def _task_link_memo(link_spec) -> _LinkMemo:
    """The link memo of the engine whose ``link_spec`` = (memo key,
    allowed_domains, extra_link_filter, robots ref or None) a fetch task
    was handed: one per engine and worker process, built on the process's
    first task of that engine."""
    key, allowed, extra_filter, robots_ref = link_spec
    return _process_cached(key, lambda: _LinkMemo(
        allowed, extra_filter,
        ray.get(robots_ref) if robots_ref is not None else None))


def _explode_links(batch: pa.Table, memo: _LinkMemo) -> pa.Table:
    """Pages (url_norm, links) → candidate link rows (reference M10/M9/M6-M8
    in one pass): ``row`` is the page's row in ``batch``.  Every link is
    looked up in the engine's ``memo``, over the flattened link lists."""
    links = batch["links"].combine_chunks()
    parent = pc.list_parent_indices(links).to_numpy()
    lengths = pc.list_value_length(links).fill_null(0).to_numpy()
    link_idx = np.arange(len(parent)) - (np.cumsum(lengths) - lengths)[parent]
    pages = batch["url_norm"].to_pylist()
    schemes = [urlsplit(u).scheme for u in pages]
    keep, cands = [], []
    for j, (row, raw) in enumerate(zip(parent.tolist(),
                                       pc.list_flatten(links).to_pylist())):
        cand = memo.lookup(schemes[row], pages[row], raw)
        if cand:
            keep.append(j)
            cands.append(cand)
    cols = list(zip(*cands)) if cands else [(), (), ()]
    return pa.table({
        "row": pa.array(parent[keep], pa.int64()),
        "link_idx": pa.array(link_idx[keep], pa.int32()),
        **{c: pa.array(vals, pa.string())
           for c, vals in zip(("url_norm", "url_hash", "host"), cols)},
    })


_CAND_FIELDS = ["link_idx", "url_norm", "url_hash", "host"]


def _link_candidates(batch: pa.Table, memo: _LinkMemo) -> pa.Table:
    """Replace a validated batch's raw ``links`` with ``cands``: for every
    live row (status 200 and integrity_ok) its links exploded and filtered
    by the engine's ``memo`` (is_valid, extra filter, robots), as
    list<struct<link_idx, url_norm, url_hash, host>> aligned to the rows.
    Page-local work, so it runs in the fetch map for every page; the
    content decision later picks whose cands reach the host gate."""
    live = pc.and_(pc.equal(batch["status"], 200), batch["integrity_ok"])
    rows = np.flatnonzero(live.to_numpy(zero_copy_only=False))
    flat = _explode_links(batch.select(["url_norm", "links"]).take(rows), memo)
    counts = np.bincount(rows[flat["row"].to_numpy()], minlength=batch.num_rows)
    offsets = np.zeros(batch.num_rows + 1, dtype=np.int32)
    np.cumsum(counts, out=offsets[1:])
    cands = pa.ListArray.from_arrays(
        pa.array(offsets), pa.StructArray.from_arrays(
            [flat[c].combine_chunks() for c in _CAND_FIELDS], _CAND_FIELDS))
    return batch.drop_columns(["links"]).append_column("cands", cands)


def _validate_and_link(batch: pa.Table, ngram_size: int, link_spec) -> pa.Table:
    """Fetch-task tail: validate, then ``_link_candidates`` with the
    engine's link memo in this process (``_task_link_memo``)."""
    return _link_candidates(_validate_batch(batch, ngram_size),
                            _task_link_memo(link_spec))


def _flatten_candidates(acc: pa.Table, rank_map: dict[int, int]) -> pd.DataFrame:
    """Accepted pages' (seq, cands) → one candidate row per link, keyed by
    its parent's processing rank (``rank_map``: page seq → rank in this
    wave = seq order under FIFO, priority order under a priority_fn)."""
    cands = acc["cands"].combine_chunks()
    parent = pc.list_parent_indices(cands).to_numpy()
    seqs = acc["seq"].to_numpy()
    ranks = np.fromiter((rank_map[s] for s in seqs.tolist()), dtype=np.int64,
                        count=len(seqs))
    flat = dict(zip(_CAND_FIELDS, pc.list_flatten(cands).flatten()))
    return pd.DataFrame({
        "parent_rank": ranks[parent],
        "parent_seq": seqs[parent].astype(np.int64),
        "link_idx": flat["link_idx"].to_numpy(),
        **{c: flat[c].to_numpy(zero_copy_only=False)
           for c in ("url_norm", "url_hash", "host")},
    })


@ray.remote
def _fetch_validate_task(spec: tuple, rows: pa.Table, start: int, stop: int,
                         probe=None) -> pa.Table:
    """The one fetch task, over rows [start, stop) of ``rows`` (a table put
    in the object store once, sliced by every task): fetch + validate +
    link candidates (``spec`` = (store ref, ngram size, link spec)).  Pure
    data work — decode, phash, shingles, link candidates; no gate state —
    so a speculative run of PREDICTED next-wave rows (wave pipelining, no
    ``probe``) cannot change any decision: its rows are keyed by seq and
    consumed by whichever wave the seq lands in.  A distributed wave's own
    chunks append the store probe's flags (``probe``)."""
    store_ref, ngram_size, link_spec = spec
    f = Fetcher(_get_broadcast(store_ref), 0.0)
    out = _validate_and_link(f(rows.slice(start, stop - start)), ngram_size,
                             link_spec)
    return out if probe is None else _with_store_flags(out, probe)


@ray.remote
def _keep_flag_task(tbl: pa.Table, seqs: np.ndarray, probe) -> pa.Table:
    """A speculative table's rows of this wave (``seqs``), with the store
    probe's flags."""
    return _with_store_flags(_keep_rows(tbl, seqs), probe)


def _chunk_count(n: int, cpus: int) -> int:
    """How many parts a distributed wave of ``n`` rows is split into: ≥ 8
    rows each (each page's links explode in its task), at most 4 × the
    cluster CPUs of them."""
    return max(1, min(n // 8 + 1, 4 * cpus))


def _chunk_bounds(n: int, cpus: int, batch_size: int) -> list[tuple[int, int]]:
    """A distributed wave's row chunks [start, stop), one fetch task each:
    ``_chunk_count`` of them, cut further to ≤ ``batch_size`` rows."""
    size = min(-(-n // _chunk_count(n, cpus)), batch_size)
    return [(i, min(i + size, n)) for i in range(0, n, size)]


def _empty_gate_frame() -> pd.DataFrame:
    return pd.DataFrame(
        columns=["parent_rank", "parent_seq", "link_idx", "url_norm", "url_hash", "host",
                 "occurrences", "decision"]
    )


def _dedup_candidates(df: pd.DataFrame) -> pd.DataFrame:
    """Collapse repeated candidate URLs to their first occurrence (by
    discovery order) + an occurrence count, in discovery order.

    EXACT — and the collapse key must be (url_hash, url_norm), NOT the
    hash alone: the scheme-less hash (utils/__init__.py:25-30) maps
    http/https variants to one hash, but the trap gate is scheme-SENSITIVE
    (link_similarity.py:106-112).  A trap-rejected https candidate leaves
    the hash unseen, and its http sibling must then be gated on its own
    URL string.  For IDENTICAL strings the derivation is safe: first
    accept/dup ⇒ later 'dup' (hash admitted/seen); first trap ⇒ later
    'trap' (gate state unchanged, is_trap monotone).  Rows that already
    carry ``occurrences`` (a batch-local pre-dedup) add them up.  One
    lexsort, the key factorized in that order (codes number keys by first
    occurrence) and a bincount of the occurrences."""
    occ = (df["occurrences"].to_numpy(dtype=np.int64) if "occurrences" in df
           else np.ones(len(df), dtype=np.int64))
    df = df.drop(columns=["occurrences"], errors="ignore")
    if df.empty:
        return df.assign(occurrences=occ)
    order = np.lexsort((df["link_idx"].to_numpy(), df["parent_rank"].to_numpy()))
    hash_code = pd.factorize(df["url_hash"].to_numpy()[order])[0]
    norm_code = pd.factorize(df["url_norm"].to_numpy()[order])[0]
    key = pd.factorize(hash_code.astype(np.int64) * (int(norm_code.max()) + 1)
                       + norm_code)[0]
    n_keys = int(key.max()) + 1
    first = np.empty(n_keys, dtype=np.int64)
    first[key[::-1]] = np.arange(len(key) - 1, -1, -1)
    out = df.iloc[order[first]].reset_index(drop=True)
    out["occurrences"] = np.bincount(key, weights=occ[order],
                                     minlength=n_keys).astype(np.int64)
    return out


_GATE_TOTALS = ["cand", "accept", "accept_dup_occ", "trap_occ"]


def _gate_totals(df: pd.DataFrame) -> dict:
    """Candidate-occurrence totals of a deduped gate frame (see
    _dedup_candidates)."""
    occ = df["occurrences"].to_numpy(dtype=np.int64)
    dec = df["decision"].to_numpy()
    return {"cand": int(occ.sum()), "accept": int((dec == "accept").sum()),
            "accept_dup_occ": int(occ[(dec == "accept") | (dec == "dup")].sum()),
            "trap_occ": int(occ[dec == "trap"].sum())}


def _gate_totals_distributed(gated) -> dict:
    """``_gate_totals`` of the distributed gate output — per-batch partials,
    only a handful of count rows reach the driver."""
    parts = gated.map_batches(
        lambda df: pd.DataFrame([_gate_totals(df)] if len(df) else [],
                                columns=_GATE_TOTALS, dtype=np.int64),
        batch_format="pandas").to_pandas()
    return {k: int(parts[k].sum()) if len(parts) else 0 for k in _GATE_TOTALS}


def _link_decision_counts(t: dict) -> dict:
    """Per-occurrence decision counts from ``_gate_totals``: repeats of an
    accepted or dup URL are dups, repeats of a trap URL are traps."""
    if not t["cand"]:
        return {}
    out = {"accept": t["accept"], "dup": t["accept_dup_occ"] - t["accept"],
           "trap": t["trap_occ"]}
    return {k: v for k, v in out.items() if v or k == "accept"}


def _route_record(driver: bool, size: int, knob: str, threshold: int) -> dict:
    """Per-wave route record: the route taken, the size its router compared
    and the config knob (name, value) it was compared against."""
    return {"route": "driver" if driver else "distributed", "size": int(size),
            "knob": knob, "threshold": threshold}


class _WavePlan(NamedTuple):
    """A wave's fetch and resolve routes, picked once from its size
    (``_plan_wave``)."""
    inline: bool  # fetch, probe and gates on the driver
    driver_resolve: bool  # resolve_wave on the driver, else distributed
    resolve_route: dict  # the metric's resolve_route record


def _gather(idx: list[list[int]], replies: list, n: int) -> list:
    """Per-call reply lists → one reply per batch, in batch order."""
    out = [None] * n
    for ii, reply in zip(idx, replies):
        for i, r in zip(ii, reply):
            out[i] = r
    return out


def _gate_replies(calls: list) -> list:
    """``_gate_submit``'s calls → their replies: the refs resolved in one
    ``ray.get``, the replies of driver-held hosts as they are."""
    got = iter(ray.get([c for c in calls if isinstance(c, ray.ObjectRef)]))
    return [next(got) if isinstance(c, ray.ObjectRef) else c for c in calls]


def _batch_rows(method: str, payload) -> int:
    """How many URLs one gate batch may admit."""
    if method == "restore_replay":
        return len(payload[0])
    return len(payload) if method in ("seed", "process") else 0


def _lap(spans: dict, stage: str, t: float) -> float:
    """Record ``stage``'s span (seconds since ``t``); returns now."""
    now = time.monotonic()
    spans[stage] = round(now - t, 4)
    return now


def _keep_rows(tbl: pa.Table, seqs: np.ndarray) -> pa.Table:
    """The rows of ``tbl`` whose ``seq`` is in the int64 array ``seqs``."""
    return tbl.filter(pc.is_in(tbl["seq"], value_set=pa.array(seqs)))


def _keep_seqs(seqs):
    """Batch filter keeping the rows whose ``seq`` is in ``seqs``.  The seq
    array is broadcast once, so the filter ships to Ray Data tasks as is."""
    ref = ray.put(np.array(sorted(int(s) for s in seqs), np.int64))

    def keep(b: pa.Table) -> pa.Table:
        return _keep_rows(b, ray.get(ref))

    return keep


@contextmanager
def _by_value(*fns):
    """Pickle the user callables ``fns`` (priority_fn, extra_link_filter)
    by value inside the block: tasks that run them must not need to import
    their module (e.g. a test module)."""
    from ray import cloudpickle

    mods = {sys.modules.get(getattr(fn, "__module__", None) or "")
            for fn in fns if fn is not None}
    mods = [m for m in mods
            if m is not None and m.__name__ not in ("__main__", "builtins")]
    for m in mods:
        cloudpickle.register_pickle_by_value(m)
    try:
        yield
    finally:
        for m in mods:
            cloudpickle.unregister_pickle_by_value(m)


# the payload columns of the pages sink
_PAGE_COLS = ["image_id", "bytes", "w", "h", "fmt", "caption", "phash",
              "url_norm", "wave", "seq"]


class CrawlResult:
    """Crawl outcome HANDLE — constructing one is O(shards) on the driver:
    per-wave order frames *or* a parquet directory, the per-shard seen-hash
    spill the gate actors wrote themselves, per-shard counts, and metrics.
    Nothing O(crawl) is concatenated or unioned at result time (the
    reference never loads its save file whole either — README.md:166-173).

    Scale consumers use the streaming forms: ``crawl_order_dataset()`` /
    ``seen_hashes_dataset()`` (Ray Datasets over the partitioned tables),
    ``url_seen_count`` and ``shard_seen_counts``.  The eager views
    (``crawl_order`` frame, ``url_seen`` set, ``accepted_pages`` list) are
    LAZY cached properties for small-crawl/test convenience — accessing one
    is an explicit O(crawl)-on-the-driver choice.

    Without a checkpoint the seen-hash tables live in a temporary
    ``seen_dir`` that this result owns: it is removed when the result is
    garbage-collected (``CrawlEngine.result``), so keep the result alive
    while a ``seen_hashes_dataset()`` over it is still being read.  A
    checkpoint's ``url_seen/`` is the checkpoint's and stays."""

    def __init__(self, *, order_frames: list[pd.DataFrame] | None = None,
                 order_dir: str | None = None, num_waves: int = 0,
                 seen_dir: str | None = None,
                 shard_seen_counts: list[int] | None = None,
                 metrics: list[dict] | None = None,
                 pages_dir: str | None = None):
        self._order_frames = order_frames
        self._order_dir = order_dir
        self._num_waves = num_waves
        self.seen_dir = seen_dir
        self.shard_seen_counts = list(shard_seen_counts or [])
        self.metrics = metrics or []
        self.pages_dir = pages_dir
        self._order: pd.DataFrame | None = None
        self._seen: set[str] | None = None

    # ---- streaming forms (the scale API) ---------------------------------
    @property
    def url_seen_count(self) -> int:
        return int(sum(self.shard_seen_counts))

    def _order_paths(self) -> list[str]:
        return [storage.table_uri(os.path.join(self._order_dir, f"wave={wv}"))
                for wv in range(self._num_waves)
                if storage.exists(os.path.join(self._order_dir, f"wave={wv}"))]

    def crawl_order_dataset(self) -> "rd.Dataset":
        """The (seq, url_norm, wave, rank, status, decision) log as a Ray
        Dataset — reads the per-wave partitioned tables when the order lives
        on disk, so no wave ever concatenates on the driver."""
        if self._order_frames is not None:
            return rd.from_pandas(
                pd.concat(self._order_frames, ignore_index=True)
                if self._order_frames else _empty_order_frame())
        paths = self._order_paths()
        if not paths:
            return rd.from_pandas(_empty_order_frame())
        return rd.read_parquet(paths)

    def seen_hashes_dataset(self) -> "rd.Dataset":
        """The final URL-seen set as a Ray Dataset over the per-shard
        tables the gate actors spilled (one sorted table per shard)."""
        empty = pd.DataFrame({"url_hash": pd.Series([], dtype=str)})
        if not self.seen_dir or not os.path.isdir(self.seen_dir):
            return rd.from_pandas(empty)
        files = [os.path.join(self.seen_dir, f)
                 for f in sorted(os.listdir(self.seen_dir))
                 if f.endswith(".parquet") or f.endswith(".lance")]
        return rd.read_parquet(files) if files else rd.from_pandas(empty)

    # ---- eager views (small-crawl/test convenience) ----------------------
    @property
    def crawl_order(self) -> pd.DataFrame:
        if self._order is None:
            if self._order_frames is not None:
                frames = self._order_frames
            else:
                frames = [storage.read_table(
                    os.path.join(self._order_dir, f"wave={wv}")).to_pandas()
                    for wv in range(self._num_waves)
                    if storage.exists(os.path.join(self._order_dir, f"wave={wv}"))]
            self._order = (
                pd.concat(frames, ignore_index=True)
                .sort_values(["wave", "rank"]).reset_index(drop=True)
                if frames else pd.DataFrame()
            )
        return self._order

    @property
    def url_seen(self) -> set[str]:
        if self._seen is None:
            if not self.seen_dir:
                self._seen = set()
            else:
                tbl = self.seen_hashes_dataset().to_pandas()
                self._seen = set(tbl["url_hash"]) if len(tbl) else set()
        return self._seen

    @property
    def accepted_pages(self) -> list[str]:
        order = self.crawl_order
        return (order[order["decision"] == "accept"]["url_norm"].tolist()
                if len(order) else [])


def _with_store_flags(b: pa.Table, probe) -> pa.Table:
    """Append the content-store probe's per-row flags
    (``CrawlEngine._store_probe``) — the same step on both wave routes."""
    text, image = probe(b["shingles"].to_pylist(), b["phash"].to_pylist(),
                        b["status"].to_pylist())
    return (b.append_column("store_text_dup", pa.array(text))
            .append_column("store_image_dup", pa.array(image)))


def _empty_order_frame() -> pd.DataFrame:
    return pd.DataFrame({
        "seq": pd.Series([], dtype=np.int64),
        "url_norm": pd.Series([], dtype=str),
        "wave": pd.Series([], dtype=np.int32),
        "rank": pd.Series([], dtype=np.int64),
        "status": pd.Series([], dtype=np.int32),
        "decision": pd.Series([], dtype=str)})


class CrawlEngine:
    """Wave-loop driver.  Owns the gate actors (and their driver-held
    copies until the gate hosts answer) and the frontier pool."""

    def __init__(self, store: SyntheticStore, config: CrawlConfig,
                 _restore: dict | None = None):
        self.config = config
        self.store = store
        if isinstance(store, ProceduralStore):
            self.store_ref = ray.put(store.spec)
        else:
            self.store_ref = ray.put(store_to_arrow(store.pages))
        # robots rules: read-only store data, broadcast once per engine
        self.robots_ref = ray.put(store.robots)
        # the link rules and what they made of each link: the driver's memo
        # (inline waves), and what a fetch task needs to find its process's
        # memo of this engine (_task_link_memo)
        self._link_memo = _LinkMemo(config.allowed_domains,
                                    config.extra_link_filter,
                                    store.robots if config.use_robots else None)
        self._link_spec = (f"links:{uuid.uuid4().hex}", config.allowed_domains,
                           config.extra_link_filter,
                           self.robots_ref if config.use_robots else None)
        # what every fetch task is handed (_fetch_validate_task)
        self._fetch_spec = (self.store_ref, config.ngram_size, self._link_spec)
        # state-actor CPU reservations: class defaults, or the config
        # override (0 on small shared sessions — see CrawlConfig docs).
        # Track the total actually reserved so shutdown can verify the
        # raylet gave it back (leaked reservations strand Ray Data tasks).
        sac = config.state_actor_num_cpus
        self._actor_cpu_reserved = 0.0

        def _cls(klass, default_cpus, **opts):
            self._actor_cpu_reserved += default_cpus if sac is None else sac
            return klass.options(**opts, **({} if sac is None else
                                            {"num_cpus": sac}))

        # logical gate shards, spread over few processes (_gate_host_count).
        # A host process takes ~1 s to answer (spawn + import ray), so the
        # engine does not wait for it: the gate state starts on the driver,
        # in one driver-held host per process, and the wave loop ships each
        # one's cores to its process once it answers (_gate_call, _handoff)
        n_shards = config.num_gate_shards
        self._cluster_cpus = int(ray.cluster_resources().get("CPU", 1))
        n_hosts = _gate_host_count(self._cluster_cpus, n_shards)
        self.gate_hosts = [
            _cls(HostGateActor, 0.5, scheduling_strategy="SPREAD").remote()
            for _ in range(n_hosts)
        ]
        self._gate_ready = {h: a.__ray_ready__.remote()
                            for h, a in enumerate(self.gate_hosts)}
        self._gate_local = {h: HostGateShard(range(h, n_shards, n_hosts),
                                             config.url_similarity_threshold)
                            for h in range(n_hosts)}
        self._installs: list = []  # handoff install calls in flight
        self._handoff_rows: int | None = None  # URLs handed over this wave
        # content store of record: the sharded probe tier (O(corpus/N) per
        # actor), or None = the broadcast delta chain (_init_store_fp)
        self.probe_tier = [
            _cls(ContentProbeShard, 0.25).remote(
                i, config.content_probe_shards, config.phash_max_hamming)
            for i in range(config.content_probe_shards)
        ] if config.content_probe_shards else None
        self.wave = 0
        self.next_seq = 0
        self.pages_fetched = 0
        if config.frontier_spill_dir:
            self.pool = PartitionedFrontierPool(config.frontier_spill_dir)
        else:
            self.pool = InMemoryFrontierPool()
        # the crawl order when there is no checkpoint (_order_record)
        self.crawl_order_frames: list[pd.DataFrame] = []
        self.metrics: list[dict] = []
        # wave pipelining whenever politeness allows (pacing clocks are
        # per-actor; speculative fetches would bypass them): outstanding
        # speculative fetch results [(table ref, seqs it covers)] + the
        # covered-seq set
        self._speculate = config.politeness_delay == 0
        self._spec: list[tuple] = []
        self._spec_seqs: set[int] = set()
        self._spec_predicted: pd.DataFrame | None = None
        self._init_store_fp()
        if _restore is None:
            self._seed()
            return
        try:
            self._restore(_restore)
        except BaseException:
            self.shutdown()  # a refused checkpoint leaves no actors behind
            raise

    # ------------------------------------------------------------------ init
    def _seed(self) -> None:
        from searchengine_ray.utils.urls import get_urlhash

        seeds = []
        for u in self.config.seed_urls:
            nu = normalize(urldefrag_str(u))
            seeds.append((_url_host(nu), nu, get_urlhash(nu)))
        # one RPC per gate host; a host runs its batches in seed order
        flags = self._gate_rpc("seed", [
            (_host_shard(row[0], self.config.num_gate_shards), [row])
            for row in seeds])
        rows = []
        for (host, nu, _h), (newly,) in zip(seeds, flags):
            if newly:
                pr = (self.config.priority_fn(nu, host, 0)
                      if self.config.priority_fn else 0.0)
                rows.append((self.next_seq, nu, host, 0, pr))
                self.next_seq += 1
        self.pool.add(pd.DataFrame(
            rows, columns=["seq", "url_norm", "host", "wave", "priority"]
        ).astype({"seq": np.int64, "wave": np.int32, "priority": np.float64}))

    # ------------------------------------------- content-store bookkeeping --
    _STORE_FP_SCHEMA = pa.schema([
        ("seq", pa.int64()), ("shingles", pa.list_(pa.int64())),
        ("phash", pa.int64()),
    ])

    def _init_store_fp(self) -> None:
        # replica-mode store of record = ordered chain of per-wave DELTA
        # tables; each process (fetch workers, the driver) ingests only
        # deltas it hasn't applied (incremental StoreIndex) — the broadcast
        # cost per wave is the wave's accepted fingerprints, not the
        # cumulative store.  Tier mode keeps the chain empty.
        self._store_delta_refs: list = []
        self._pending_admit = None  # in-flight probe-tier admits
        self._last_delta_tbl = None  # this wave's accepted fps (checkpoint unit)
        self._last_delta_ds = None  # giant-wave form: delta as dataset blocks

    def _append_store_fp(self, live_tbl: pa.Table, gate_out: list[str]) -> None:
        """Append this wave's accepted fingerprints as a new store delta.
        Replica mode: extend the broadcast delta chain.  Tier mode: route
        the delta's rows to their probe shards."""
        self._last_delta_tbl = None  # this wave's checkpoint delta
        self._last_delta_ds = None
        if not gate_out:
            return
        mask = pa.array([d == "accept" for d in gate_out], pa.bool_())
        accepted = live_tbl.filter(mask)
        if accepted.num_rows == 0:
            return
        self._last_delta_tbl = accepted
        if self.probe_tier is not None:
            self._pending_admit = self._route_to_tier(accepted)
        else:
            self._store_delta_refs.append(ray.put(accepted))

    def _route_to_tier(self, tbl: pa.Table) -> list:
        """Slice an accepted-fingerprint table by ``seq % N`` and ship each
        slice to its probe shard; returns the in-flight admit futures."""
        n = len(self.probe_tier)
        shards = np.asarray(tbl["seq"].to_numpy(zero_copy_only=False)) % n
        futs = []
        for s in range(n):
            m = shards == s
            if m.any():
                futs.append(self.probe_tier[s].add_table.remote(
                    tbl.filter(pa.array(m))))
        return futs

    def _flush_admits(self) -> None:
        if getattr(self, "_pending_admit", None):
            ray.get(self._pending_admit)
        self._pending_admit = None

    def _store_probe(self):
        """The ONE content-store probe: ``probe(shingle_lists, phashes,
        statuses) -> (text_dup, image_dup)`` flags vs every page accepted
        before this wave.  Replica mode probes the per-process incremental
        ``StoreIndex`` over the delta chain (fetch tasks' replicas on the
        distributed route, the driver's own on the inline one); tier mode
        batch-RPCs the probe shards.  The closure captures no engine state
        beyond the refs/handles, so it ships to fetch tasks as is."""
        from searchengine_ray.stages.content_probe import (
            get_store_index, probe_batch, probe_tier_batch)

        self._flush_admits()  # the tier must hold every earlier wave
        max_sim, max_ham = (self.config.content_max_similarity,
                            self.config.phash_max_hamming)
        tier = self.probe_tier
        refs = tuple(self._store_delta_refs)

        def probe(shingle_lists, phashes, statuses):
            if tier is not None:
                return probe_tier_batch(shingle_lists, phashes, statuses,
                                        tier, max_sim)
            return probe_batch(shingle_lists, phashes, statuses,
                               get_store_index(refs, max_ham), max_sim)

        return probe

    # ------------------------------------------------------- gate RPCs --
    def _gate_submit(self, method: str, batches: list):
        """Send ``batches`` [(logical shard, payload)] to gate-host
        ``method`` without waiting — ONE call per gate host that has
        batches, each host's batches in list order.  The one dispatch point
        of every gate call (``_gate_call``).  Returns (the batch indexes per
        call, the calls: refs, or the replies of driver-held hosts)."""
        n = len(self.gate_hosts)
        by_host: dict[int, list[int]] = {}
        for i, (s, _) in enumerate(batches):
            by_host.setdefault(s % n, []).append(i)
        calls = [self._gate_call(h, method, [batches[i] for i in ii])
                 for h, ii in by_host.items()]
        return list(by_host.values()), calls

    def _gate_call(self, h: int, method: str, part: list):
        """One call of gate host ``h``: a ref to the host process's reply
        or, while the process has not been handed the gate state yet, the
        reply of the driver-held host, in process (plain values, no
        ``ray.put``).  A call that could take the driver-held host's seen
        counts past ``driver_link_threshold`` (the bound on admitted URLs
        the driver holds) waits for the host first."""
        local = self._gate_local.get(h)
        if local is not None:
            held = sum(len(core.seen) for core in local.cores.values())
            if (held + sum(_batch_rows(method, p) for _, p in part)
                    > self.config.driver_link_threshold):
                self._handoff(h)
            else:
                return getattr(local, method)(part)
        return getattr(self.gate_hosts[h], method).remote(part)

    def _host_ready(self, h: int) -> bool:
        """Whether gate host ``h``'s process answers (the handoff test hook)."""
        return bool(ray.wait([self._gate_ready[h]], timeout=0)[0])

    def _handoff(self, h: int) -> None:
        """Hand driver-held host ``h`` over to its process: wait until the
        process answers (a host lost before it answered raises
        ``RayActorError`` here, one lost after it at its next call), then
        ship the host's cores — seen sets, trap indexes and decision
        counters — in ONE ``install``, not waited for: a caller's
        calls run in submission order, so every later call from the driver
        sees the installed state."""
        ray.get(self._gate_ready.pop(h))
        cores = self._gate_local.pop(h).cores
        self._installs.append(self.gate_hosts[h].install.remote(cores))
        self._handoff_rows = ((self._handoff_rows or 0)
                              + sum(len(core.seen) for core in cores.values()))

    def _handoff_all(self) -> None:
        """Hand every driver-held host over and wait for the installs: for
        gate calls from other processes (the giant-wave gate's tasks),
        whose order against the driver's calls nothing guarantees."""
        for h in list(self._gate_local):
            self._handoff(h)
        ray.get(self._installs)
        self._installs = []

    def _gate_rpc(self, method: str, batches: list) -> list:
        """``_gate_submit`` and wait: the hosts run in parallel; returns the
        replies in list order."""
        idx, calls = self._gate_submit(method, batches)
        return _gather(idx, _gate_replies(calls), len(batches))

    def _gate_all(self, method: str, payloads=None) -> list:
        """``method`` on every logical shard; replies in shard order."""
        return self._gate_rpc(method, list(enumerate(
            payloads or [None] * self.config.num_gate_shards)))

    def gate_memory_stats(self) -> list[dict]:
        """``HostGateCore.memory_stats`` per logical shard, in shard order."""
        return self._gate_all("memory_stats")

    def _host_gate_inline(self, links: pd.DataFrame) -> pd.DataFrame:
        """Driver-side host gate: each URL host's UNIQUE candidates in
        discovery order (see _dedup_candidates), one RPC per gate host.
        Hosts are grouped by one stable argsort of their codes and the
        decisions scattered back by index, so the frame stays in discovery
        order."""
        g = _dedup_candidates(links)
        codes, hosts = pd.factorize(g["host"].to_numpy())
        order = np.argsort(codes, kind="stable")
        ends = np.cumsum(np.bincount(codes, minlength=len(hosts))).tolist()
        rows = list(zip(g["host"].to_numpy()[order].tolist(),
                        g["url_norm"].to_numpy()[order].tolist(),
                        g["url_hash"].to_numpy()[order].tolist()))
        nshards = self.config.num_gate_shards
        batches = [(_host_shard(host, nshards), rows[a:b])
                   for host, a, b in zip(hosts, [0] + ends[:-1], ends)]
        decision = np.empty(len(g), dtype=object)
        decision[order] = [d for out in self._gate_rpc("process", batches)
                           for d in out]
        g["decision"] = decision
        return g

    # ------------------------------------------------------------------ waves
    def run_wave(self) -> bool:
        """Run one wave; returns False when the crawl is finished.  The
        stages run in order, each timed into the wave metric's ``spans``:
        slice → fetch_validate → resolve → order → sink → links → append
        → metric → checkpoint (the checkpoint span is in the in-memory
        record only: the metrics file is written inside it)."""
        cfg = self.config
        if len(self.pool) == 0 or (cfg.max_waves is not None
                                   and self.wave >= cfg.max_waves):
            return False
        for h in [h for h in self._gate_local if self._host_ready(h)]:
            self._handoff(h)
        t = time.monotonic()
        wave_df = self._wave_slice()
        if len(wave_df) == 0:
            return False
        spans: dict[str, float] = {}
        t0 = t = _lap(spans, "slice", t)
        # processing rank of each page in this wave (row order of the slice);
        # all order-dependent gates run in THIS order — identical to seq
        # order under FIFO, priority order under a priority_fn
        rank_map = {int(s): i for i, s in enumerate(wave_df["seq"])}
        plan = self._plan_wave(len(wave_df))
        if self._speculate:
            # fired FIRST: the predicted next wave's fetches overlap this
            # wave's whole pipeline
            self._launch_speculation()
        # validated: the wave's table (inline) or its block refs
        validated, n_spec, n_tasks = (
            self._fetch_validate_inline if plan.inline
            else self._fetch_validate_distributed)(wave_df)
        t = _lap(spans, "fetch_validate", t)

        if plan.driver_resolve:
            decision, fp_seqs, fp_status, acc_cands = self._resolve_wave_driver(
                validated, rank_map, plan.inline)
        else:
            decision, fp_seqs, fp_status = self._resolve_wave_distributed(
                validated, rank_map)
            acc_cands = None
        for s in fp_seqs:
            decision.setdefault(s, "error")
        self.pages_fetched += len(fp_seqs)
        t = _lap(spans, "resolve", t)
        order_df = self._order_record(wave_df, decision, fp_seqs, fp_status)
        t = _lap(spans, "order", t)

        keep_accepted = _keep_seqs(s for s, d in decision.items() if d == "accept")
        self._sink_pages(validated, keep_accepted, plan)
        t = _lap(spans, "sink", t)
        gate_res, gated, totals, link_route = self._gate_links(
            validated, acc_cands, keep_accepted, rank_map, plan)
        t = _lap(spans, "links", t)
        self._append_frontier(gate_res, gated)
        t = _lap(spans, "append", t)

        metric = self._wave_metric(order_df, len(fp_seqs), t - t0, spans, plan,
                                   link_route, totals, n_spec, n_tasks)
        self.metrics.append(metric)
        t = _lap(spans, "metric", t)
        if cfg.checkpoint_dir:
            self._checkpoint(order_df, metric)
            _lap(spans, "checkpoint", t)
        self._spec_prune(wave_df)
        self.wave += 1
        return True

    def _wave_slice(self) -> pd.DataFrame:
        """Priority-queue slice: (priority DESC, discovery seq) per host —
        pure FIFO when no priority_fn is set (all priorities 0.0).  The
        returned frame's ROW ORDER is the wave's processing order.  The
        slice semantics live in the pool (state/frontier.py) — identical for
        the in-memory and the partitioned spill pool."""
        cap = (max(0, self.config.max_pages - self.pages_fetched)
               if self.config.max_pages is not None else None)
        if self._speculate:
            take, self._spec_predicted = self.pool.slice_wave(
                self.config.per_host_wave_budget, cap, peek_next=True)
            return take
        return self.pool.slice_wave(self.config.per_host_wave_budget, cap)

    def _plan_wave(self, n_pages: int) -> _WavePlan:
        """The wave's fetch and resolve routes, picked once from its size:
        waves of at most ``inline_wave_threshold`` pages run inline on the
        driver (same kernels, ~10× lower per-wave overhead); the content
        resolve runs on the driver up to ``driver_fp_threshold`` pages.
        The link route is picked later, on the accepted pages' candidate
        count (``_gate_links``)."""
        cfg = self.config
        if n_pages <= cfg.inline_wave_threshold:
            return _WavePlan(True, True, _route_record(
                True, n_pages, "inline_wave_threshold", cfg.inline_wave_threshold))
        driver_resolve = n_pages <= cfg.driver_fp_threshold
        return _WavePlan(False, driver_resolve, _route_record(
            driver_resolve, n_pages, "driver_fp_threshold", cfg.driver_fp_threshold))

    # ------------------------------------------------------ fetch_validate --
    def _fetch_validate_inline(self, wave_df: pd.DataFrame):
        """Driver-side fetch+validate for small waves — the distributed
        path's kernels (Fetcher.__call__ + _validate_batch +
        _link_candidates, with the engine's own link memo).  Returns (table,
        rows speculation served, 0 tasks)."""
        rest, refs, covered = self._take_speculated(wave_df)
        parts = [_keep_rows(t, covered) for t in ray.get(refs)]
        if len(rest) or not parts:
            if not hasattr(self, "_inline_fetcher"):
                self._inline_fetcher = Fetcher(self.store_ref,
                                               self.config.politeness_delay)
            cfg = self.config
            batch = pa.Table.from_pandas(rest, preserve_index=False)
            parts.append(_link_candidates(
                _validate_batch(self._inline_fetcher(batch), cfg.ngram_size),
                self._link_memo))
        return pa.concat_tables(parts), len(covered), 0

    def _fetch_validate_distributed(self, wave_df: pd.DataFrame):
        """Fetch + validate + link candidates and the store probe's flags
        in plain Ray tasks: one fetch task per row chunk
        (``_chunk_bounds``) and one keep+flag task per speculative table
        the wave consumes — no Ray Data job, no repartition exchange.
        Waits for the tasks here (without fetching their output), so this
        stage's span covers the work.  Under politeness the pacing actor
        pool runs as a Ray Data job (``_fetch_validate_paced``).  Returns
        (the wave's block refs, rows speculation served, tasks
        submitted)."""
        cfg = self.config
        probe = self._store_probe()
        if cfg.politeness_delay > 0:  # nothing speculates under politeness
            return self._fetch_validate_paced(wave_df, probe), 0, 0
        rest, refs, covered = self._take_speculated(wave_df)
        with _by_value(cfg.extra_link_filter):  # runs in the fetch tasks
            blocks = [_keep_flag_task.remote(ref, covered, probe)
                      for ref in refs]
            if len(rest):
                blocks += self._submit_fetches(rest, _chunk_bounds(
                    len(rest), self._cluster_cpus, cfg.fetch_batch_size), probe)
        ray.wait(blocks, num_returns=len(blocks), fetch_local=False)
        return blocks, len(covered), len(blocks)

    def _fetch_validate_paced(self, wave_df: pd.DataFrame, probe) -> list:
        """The politeness route: a pacing ``Fetcher`` actor pool (per-actor
        per-host clocks) over the wave in row blocks, then validate + link
        candidates + the store flags; returns the block refs."""
        cfg = self.config
        ngram_size, link_spec = cfg.ngram_size, self._link_spec
        nblocks = _chunk_count(len(wave_df), self._cluster_cpus)
        fetched = rd.from_pandas(wave_df).repartition(nblocks).map_batches(
            Fetcher,
            fn_constructor_kwargs={"store_ref": self.store_ref,
                                   "delay": cfg.politeness_delay},
            batch_format="pyarrow", batch_size=cfg.fetch_batch_size,
            concurrency=(1, cfg.fetch_concurrency), num_cpus=0.25)
        with _by_value(cfg.extra_link_filter):  # runs in the map tasks
            return fetched.map_batches(
                lambda b: _with_store_flags(
                    _validate_and_link(b, ngram_size, link_spec), probe),
                batch_format="pyarrow").materialize().to_arrow_refs()

    def _submit_fetches(self, rows: pd.DataFrame, bounds: list, probe=None) -> list:
        """One ``_fetch_validate_task`` per row chunk [start, stop) of
        ``rows``, whose table is put in the object store once: a task is
        handed the ref and its bounds, never a pickled slice."""
        tbl = ray.put(pa.Table.from_pandas(rows[["seq", "url_norm", "host", "wave"]],
                                           preserve_index=False))
        return [_fetch_validate_task.remote(self._fetch_spec, tbl, a, b, probe)
                for a, b in bounds]

    # --------------------------------------------------- wave pipelining --
    def _launch_speculation(self) -> None:
        """Fire speculative fetch+validate tasks for the predicted next
        slice (frontier backlog), one per ``fetch_batch_size`` rows — they
        run while THIS wave's gate/link/frontier stages occupy the
        driver."""
        pred = self._spec_predicted
        self._spec_predicted = None
        if pred is None or not len(pred):
            return
        new = pred[~pred["seq"].isin(self._spec_seqs)]
        if not len(new):
            return
        bs = self.config.fetch_batch_size
        bounds = [(i, min(i + bs, len(new))) for i in range(0, len(new), bs)]
        with _by_value(self.config.extra_link_filter):
            refs = self._submit_fetches(new, bounds)
        seqs = new["seq"].to_numpy(dtype=np.int64)
        for ref, (a, b) in zip(refs, bounds):
            self._spec.append((ref, seqs[a:b]))
        self._spec_seqs.update(seqs.tolist())

    def _take_speculated(self, wave_df: pd.DataFrame):
        """This wave's rows already fetched by speculation, for either fetch
        route: (the rows still to fetch, the speculative tables covering
        the wave, the sorted seqs of the wave's rows in them).  The tables
        stay alive for their other rows; consumed seqs are pruned at wave
        end (_spec_prune)."""
        wave_seqs = set(wave_df["seq"].tolist())
        refs, covered = [], set()
        for ref, seqs in self._spec:
            hit = wave_seqs.intersection(seqs.tolist())
            if hit:
                refs.append(ref)
                covered |= hit
        if not covered:
            return wave_df, [], np.zeros(0, dtype=np.int64)
        return (wave_df[~wave_df["seq"].isin(covered)], refs,
                np.array(sorted(covered), dtype=np.int64))

    def _spec_prune(self, wave_df: pd.DataFrame) -> None:
        if not self._spec:
            return
        consumed = wave_df["seq"].to_numpy(dtype=np.int64)
        kept = []
        for ref, seqs in self._spec:
            rest = seqs[~np.isin(seqs, consumed)]
            if rest.size:
                kept.append((ref, rest))
        self._spec = kept
        self._spec_seqs.difference_update(consumed.tolist())

    # ------------------------------------------------------------ resolve --
    def _resolve_wave_driver(self, validated, rank_map: dict[int, int],
                             inline: bool):
        """Content gate on the driver: the wave's fingerprints + store
        flags in processing order → live rows → exact sequential resolve
        (``resolve_wave``).  Inline waves probe the store here; distributed
        ones carry the flags their fetch tasks computed and are read from
        the wave's own block refs (columns selected here): a
        ``select_columns`` would plan and run a whole Ray Data job whose
        tasks queue behind the speculative fetches.  On
        one node the blocks map shared memory; blocks held on other nodes
        travel whole, payload included — bounded by
        ``driver_fp_threshold`` pages.  Arrow end to end: pandas conversion
        of the list<int64> shingle column costs ~10× the gate loop itself
        at 10^5-row waves.  Returns
        (decision by seq, fetched seqs, their statuses, the accepted pages'
        (seq, cands), selected in the same pass)."""
        from searchengine_ray.stages.content_probe import resolve_wave

        cfg = self.config
        fp_cols = ["seq", "status", "integrity_ok", "shingles", "phash", "cands"]
        flag_cols = ["store_text_dup", "store_image_dup"]
        if inline:
            fp_tbl = _with_store_flags(validated.select(fp_cols),
                                       self._store_probe())
        else:
            fp_tbl = pa.concat_tables([
                t.select(fp_cols + flag_cols) for t in ray.get(validated)])
        fp_tbl = fp_tbl.take(pc.sort_indices(pa.array(
            [rank_map[int(s)] for s in fp_tbl["seq"].to_pylist()], pa.int64())))
        live_full = fp_tbl.filter(
            pc.and_(pc.equal(fp_tbl["status"], 200), fp_tbl["integrity_ok"]))
        live_tbl = live_full.select(["seq", "shingles", "phash"])
        gate_out = resolve_wave(
            live_tbl,
            *(np.asarray(live_full[c].to_numpy(zero_copy_only=False))
              for c in flag_cols),
            cfg.content_max_similarity, cfg.phash_max_hamming,
        )
        self._append_store_fp(live_tbl, gate_out)
        acc_cands = live_full.filter(pa.array(
            [d == "accept" for d in gate_out], pa.bool_())).select(["seq", "cands"])
        return (dict(zip(live_tbl["seq"].to_pylist(), gate_out)),
                fp_tbl["seq"].to_pylist(), fp_tbl["status"].to_pylist(), acc_cands)

    # -------------------------------------------------------- order, sink --
    def _order_record(self, wave_df: pd.DataFrame, decision: dict,
                      fp_seqs: list, fp_status: list) -> pd.DataFrame:
        """The wave's crawl-order rows.  With a checkpoint they land only
        on disk (``_checkpoint``) — the driver heap stays flat across
        waves; without one they are held for ``result()``."""
        order_df = wave_df[["seq", "url_norm"]].copy()
        order_df["wave"] = np.int32(self.wave)  # fetch wave (≠ discovery wave in budget mode)
        order_df["rank"] = np.arange(len(order_df), dtype=np.int64)  # processing order
        order_df["status"] = order_df["seq"].map(dict(zip(fp_seqs, fp_status)))
        order_df["decision"] = order_df["seq"].map(decision)
        if not self.config.checkpoint_dir:
            self.crawl_order_frames.append(order_df)
        return order_df

    def _sink_pages(self, validated, keep_accepted, plan: _WavePlan) -> None:
        """Accepted payload rows → the checkpoint's ``pages/wave=N``
        directory; without a checkpoint there is no payload sink."""
        if not self.config.checkpoint_dir:
            return
        if plan.inline:
            def write(tmp: str) -> None:
                os.makedirs(tmp)
                pq.write_table(keep_accepted(validated).select(_PAGE_COLS),
                               os.path.join(tmp, "part-0.parquet"))
        else:
            def write(tmp: str) -> None:
                rd.from_arrow_refs(validated).map_batches(
                    keep_accepted, batch_format="pyarrow"
                ).select_columns(_PAGE_COLS).write_parquet(tmp)
        storage.replace_dir(os.path.join(self.config.checkpoint_dir, "pages",
                                         f"wave={self.wave}"), write)

    # -------------------------------------------------------------- links --
    def _gate_links(self, validated, acc_cands, keep_accepted,
                    rank_map: dict[int, int], plan: _WavePlan):
        """Host gate over the ACCEPTED pages' link candidates (explode +
        robots already ran in the fetch map).  Inline waves gate from the
        driver; a driver-resolved wave does too when its accepted pages'
        candidate count is within ``driver_link_threshold`` (0 forces the
        shuffle), and otherwise — or after a distributed resolve — the
        candidates are gated in a groupby(host) shuffle.  No batch-local
        dedup may run before the accepted-page filter: occurrence counts
        and first occurrences would count content-rejected parents.
        Returns (gate frame, or None when the accepted links stay
        distributed; the gated dataset of a giant wave, else None;
        ``_gate_totals``; the link route record)."""
        cfg = self.config
        route = dict(plan.resolve_route)
        if not plan.inline and acc_cands is not None:
            n_cand = pc.sum(pc.list_value_length(acc_cands["cands"])).as_py() or 0
            thr = cfg.driver_link_threshold
            route = _route_record(0 < thr and n_cand <= thr, n_cand,
                                  "driver_link_threshold", thr)
        if route["route"] == "driver":
            links = _flatten_candidates(acc_cands, rank_map)
            gate_res = (self._host_gate_inline(links) if len(links)
                        else _empty_gate_frame())
            return gate_res, None, _gate_totals(gate_res), route
        self._handoff_all()  # the gate tasks below call the host processes
        rank_ref = ray.put(rank_map)
        gate_hosts = self.gate_hosts
        nshards = cfg.num_gate_shards

        def accepted_candidates(b: pa.Table) -> pd.DataFrame:
            return _dedup_candidates(_flatten_candidates(
                keep_accepted(b), _get_broadcast(rank_ref)))

        def host_gate(g: pd.DataFrame) -> pd.DataFrame:
            # the gate RPC carries only unique candidates, in discovery
            # order (occurrence-weighted across batches)
            g = _dedup_candidates(g)
            host = g["host"].iloc[0]
            shard = _host_shard(host, nshards)
            rows = list(zip(g["host"], g["url_norm"], g["url_hash"]))
            (out,) = ray.get(gate_hosts[shard % len(gate_hosts)]
                             .process.remote([(shard, rows)]))
            g["decision"] = out
            return g

        # GIANT wave: accepted → flatten → batch-local dedup → groupby →
        # gate, materialized: the gate RPCs mutate actor state and must run
        # EXACTLY once; the blocks stay distributed in the object store
        gated = (
            rd.from_arrow_refs(validated).select_columns(["seq", "cands"])
            .map_batches(accepted_candidates, batch_format="pyarrow")
            .groupby("host")
            .map_groups(host_gate, batch_format="pandas")
            .materialize()
        )
        totals = _gate_totals_distributed(gated)
        # few accepts → driver seq assignment is still cheaper than the
        # distributed append's extra all-to-all stages (frame provably
        # bounded by the thresholds)
        gate_res = None
        if totals["accept"] <= cfg.driver_link_threshold \
                and totals["cand"] <= 4 * cfg.driver_link_threshold:
            gate_res = gated.to_pandas()
            if gate_res.empty:
                gate_res = _empty_gate_frame()
        return gate_res, gated, totals, route

    # ------------------------------------------------------------- append --
    def _append_frontier(self, gate_res, gated) -> None:
        """frontier(w+1): the accepted links get FIFO seqs in (parent rank,
        link_idx) order — on the driver, or distributed when the accepted
        links stayed in the gated dataset (``gate_res`` None)."""
        pf = self.config.priority_fn
        if gate_res is None:
            self.next_seq += self._append_frontier_distributed(gated, pf)
            return
        acc = gate_res[gate_res["decision"] == "accept"].sort_values(
            ["parent_rank", "link_idx"]).reset_index(drop=True)
        prios = (np.array([pf(u, h, self.wave + 1)
                           for u, h in zip(acc["url_norm"], acc["host"])],
                          dtype=np.float64)
                 if pf else np.zeros(len(acc), dtype=np.float64))
        self.pool.add(pd.DataFrame({
            "seq": self.next_seq + np.arange(len(acc), dtype=np.int64),
            "url_norm": acc["url_norm"],
            "host": acc["host"],
            "wave": np.int32(self.wave + 1),
            "priority": prios,
        }))
        self.next_seq += len(acc)

    # ------------------------------------------------------------- metric --
    def _wave_metric(self, order_df: pd.DataFrame, n_fetched: int, wall: float,
                     spans: dict, plan: _WavePlan, link_route: dict,
                     totals: dict, n_spec: int, n_tasks: int) -> dict:
        from collections import Counter

        link_dec = _link_decision_counts(totals)
        n_cand = totals["cand"]
        n_link_dups = int(link_dec.get("dup", 0) + link_dec.get("trap", 0))
        # per-partition (gate-shard) lineage: seen-set size and cumulative
        # decision counters per shard + this wave's per-host fetch counts
        # (north-star: per-partition throughput/dedup-rate metrics); resume
        # checks its rebuilt seen sets against the counts and restores the
        # counters from them
        shards = self.gate_memory_stats()
        per_host = order_df["url_norm"].map(
            lambda u: u.split("/")[2]).value_counts().to_dict()
        # where the host gate ran: on the driver while any host process has
        # not been handed the gate state yet; the wave of a handoff also
        # records the admitted URLs it handed over to the processes
        handoff = ({} if self._handoff_rows is None
                   else {"handoff_rows": self._handoff_rows})
        self._handoff_rows = None
        return {
            "driver_rss_mb": _driver_rss_mb(),
            "driver_private_mb": _driver_private_mb(),
            "wave": self.wave,
            "fetched": int(n_fetched),
            "pages_per_sec": round(n_fetched / wall, 2) if wall > 0 else None,
            "wall_sec": round(wall, 3),
            # fetch_validate includes the link explode + robots filter (in
            # the fetch map); content_gate is the resolve and the order
            # record; links_gate is the pages sink and the host gate
            "stage_sec": {
                "fetch_validate": round(spans["fetch_validate"], 3),
                "content_gate": round(spans["resolve"] + spans["order"], 3),
                "links_gate": round(spans["sink"] + spans["links"], 3)},
            "spans": spans,
            "spec_rows": int(n_spec),
            # Ray tasks the fetch_validate stage submitted: 0 inline and
            # under politeness (a Ray Data job), else the fetch tasks plus
            # one keep+flag task per consumed speculative table
            "fetch_tasks": int(n_tasks),
            "inline": plan.inline,
            "resolve_route": plan.resolve_route,
            "link_route": link_route,
            "page_decisions": dict(Counter(order_df["decision"])),
            "link_candidates": n_cand,
            "link_decisions": dict(link_dec),
            "link_dedup_rate": round(n_link_dups / n_cand, 4) if n_cand else 0.0,
            "shard_seen_counts": [s["seen_count"] for s in shards],
            "shard_decisions": [s["decisions"] for s in shards],
            "gate_at": "driver" if self._gate_local else "hosts",
            **handoff,
            "fetched_per_host": {h: int(c) for h, c in per_host.items()},
            "frontier_pending": int(len(self.pool)),
            "next_seq": int(self.next_seq),
        }

    # ------------------------------------------ distributed content resolve --
    def _resolve_wave_distributed(self, validated, rank_map: dict[int, int]):
        """Content-gate resolve for GIANT waves: nothing fingerprint-sized
        lands on the driver (kills the ``pa.concat_tables(ray.get(...))`` of
        the wave's shingle lists — VERDICT r2 'What's wrong' #1).

        1. O(wave) SCALAR meta (seq, status, flags) to the driver — same
           order of driver memory as the wave slice / order log itself.
        2. The intra-wave partner graph runs distributed
           (``interacting_seqs_distributed``: shared-shingle / shared-band
           co-shuffles, the ``ngram_jaccard_pairs`` shape).
        3. Only interacting pages' fingerprints are pulled and replayed
           sequentially (``resolve_wave_split``).
        4. Accepted fingerprints re-enter the store as the dataset's own
           blocks (``_append_store_fp_distributed``) — never a driver table.

        Returns (decision dict, fp_seqs, fp_status)."""
        from searchengine_ray.stages.content_probe import (
            interacting_seqs_distributed, resolve_wave_split)

        cfg = self.config
        validated = rd.from_arrow_refs(validated)
        meta = validated.select_columns(
            ["seq", "status", "integrity_ok", "store_text_dup",
             "store_image_dup"]).to_pandas()
        live = meta[(meta["status"] == 200) & meta["integrity_ok"]]
        live_meta = pd.DataFrame({
            "seq": live["seq"].to_numpy(dtype=np.int64),
            "store_text": live["store_text_dup"].to_numpy(dtype=bool),
            "store_image": live["store_image_dup"].to_numpy(dtype=bool)})
        inter = interacting_seqs_distributed(
            validated, cfg.content_max_similarity, cfg.phash_max_hamming)
        walk_tbl = None
        if inter.size:
            walk_tbl = pa.concat_tables(ray.get(
                validated.select_columns(["seq", "shingles", "phash"])
                .map_batches(_keep_seqs(inter), batch_format="pyarrow")
                .to_arrow_refs()))
        decision = resolve_wave_split(
            live_meta, walk_tbl, rank_map,
            cfg.content_max_similarity, cfg.phash_max_hamming)
        accepted = np.array(
            sorted(s for s, d in decision.items() if d == "accept"), np.int64)
        self._append_store_fp_distributed(validated, accepted)
        return decision, meta["seq"].tolist(), meta["status"].tolist()

    def _append_store_fp_distributed(self, validated, accepted: np.ndarray) -> None:
        """Wave-delta ingestion without driver materialization: the accepted
        fingerprints stay as dataset blocks in the object store; the delta
        chain / probe shards / checkpoint all consume the block refs."""
        self._last_delta_tbl = None
        self._last_delta_ds = None
        if accepted.size == 0:
            return
        # accepted pages are live pages: no status/integrity filter needed
        acc_ds = validated.select_columns(["seq", "shingles", "phash"]).map_batches(
            _keep_seqs(accepted), batch_format="pyarrow").materialize()
        refs = acc_ds.to_arrow_refs()
        self._last_delta_ds = acc_ds  # _checkpoint writes the delta from this
        if self.probe_tier is not None:
            self._pending_admit = [
                s.add_table_sliced.remote(r)
                for r in refs for s in self.probe_tier]
        else:
            self._store_delta_refs.extend(refs)

    # ----------------------------------------- distributed frontier append --
    def _append_frontier_distributed(self, gated, pf) -> int:
        """Accepted candidates → frontier(w+1) WITHOUT landing on the
        driver: the distributed FIFO rank the module docstring promises.

        seq(link) = next_seq + |accepted links with smaller parent_rank|
                  + rank of link_idx within its parent — value-based (no
        reliance on block ordering): per-parent accepted counts come back
        tiny (≤ wave pages, already driver-resident as the wave slice), the
        exclusive prefix sum over parent_rank broadcasts, and within-parent
        ranks are one vectorized cumcount per hash bucket.  The resulting
        rows stream into the pool batch-by-batch."""
        from searchengine_ray.stages.relational import bucketed_apply, pre_aggregate

        acc = gated.map_batches(
            lambda df: df[(df["decision"] == "accept").to_numpy()]
            [["parent_rank", "link_idx", "url_norm", "host"]],
            batch_format="pandas")
        per_parent = pre_aggregate(acc, ["parent_rank"],
                                   {"n": (None, "count")}).to_pandas()
        n_accepted = int(per_parent["n"].sum()) if len(per_parent) else 0
        if n_accepted == 0:
            return 0
        per_parent = per_parent.sort_values("parent_rank")
        offsets = np.zeros(len(per_parent), dtype=np.int64)
        np.cumsum(per_parent["n"].to_numpy()[:-1], out=offsets[1:])
        off_ref = ray.put(dict(zip(per_parent["parent_rank"].astype(int), offsets)))
        base = self.next_seq
        next_wave = np.int32(self.wave + 1)

        def rank_within(g: pd.DataFrame) -> pd.DataFrame:
            g = g.sort_values(["parent_rank", "link_idx"], kind="mergesort")
            g["_r"] = g.groupby("parent_rank", sort=False).cumcount()
            return g

        ranked = bucketed_apply(acc, ["parent_rank"], rank_within)

        def to_pool_rows(df: pd.DataFrame) -> pd.DataFrame:
            off = _get_broadcast(off_ref)
            parent_off = df["parent_rank"].map(off).to_numpy(dtype=np.int64)
            urls = df["url_norm"]
            hosts = df["host"]
            prios = (np.fromiter((pf(u, h, int(next_wave)) for u, h in
                                  zip(urls, hosts)),
                                 dtype=np.float64, count=len(df))
                     if pf else np.zeros(len(df), dtype=np.float64))
            return pd.DataFrame({
                "seq": base + parent_off + df["_r"].to_numpy(dtype=np.int64),
                "url_norm": urls.to_numpy(),
                "host": hosts.to_numpy(),
                "wave": np.full(len(df), next_wave, dtype=np.int32),
                "priority": prios,
            })

        with _by_value(pf):  # priority_fn runs INSIDE the tasks
            self.pool.add_dataset(
                ranked.map_batches(to_pool_rows, batch_format="pandas"))
        return n_accepted

    # ------------------------------------------------------------ checkpoint
    def _checkpoint(self, order_df: pd.DataFrame, metric: dict) -> None:
        """Per-wave checkpoint: the wave's crawl order, the frontier
        snapshot, this wave's accepted content fingerprints (O(wave)), the
        wave metric and, last, the manifest that commits them; then the
        snapshots it supersedes are removed.  No host-gate state is
        written: ``_restore`` rebuilds it from the order and the frontier
        (bit-identical, verified by tests)."""
        self._flush_admits()  # tier admits land before the wave commits
        d = self.config.checkpoint_dir
        storage.write_table_atomic(
            pa.Table.from_pandas(order_df, preserve_index=False),
            os.path.join(d, "crawl_order", f"wave={self.wave}"),
        )
        self.pool.snapshot_to(os.path.join(d, "frontier", f"wave={self.wave + 1}"))
        if self._last_delta_tbl is not None and self._last_delta_tbl.num_rows:
            storage.write_table_atomic(
                self._last_delta_tbl,
                os.path.join(d, "state", f"wave={self.wave}", "content_delta"),
            )
        elif self._last_delta_ds is not None:
            # giant-wave delta: distributed parquet write of the dataset
            # blocks — never a driver table
            storage.replace_dir(
                os.path.join(d, "state", f"wave={self.wave}", "content_delta_dir"),
                self._last_delta_ds.write_parquet)
        storage.write_json_atomic(metric, os.path.join(d, "metrics", f"wave={self.wave}.json"))
        storage.write_json_atomic(
            {"format": _CHECKPOINT_FORMAT,
             "completed_wave": self.wave, "next_seq": self.next_seq,
             "pages_fetched": self.pages_fetched,
             "config_hash": self.config.config_hash(),
             "num_gate_shards": self.config.num_gate_shards},
            os.path.join(d, "manifest.json"),
        )
        # resume at wave w reads only frontier/wave=w+1: the older snapshots
        # are superseded once the manifest commits, except wave=w, kept so
        # that a manifest rolled back one wave still resumes
        prune_snapshots(os.path.join(d, "frontier"), self.wave)

    def _restore(self, manifest: dict) -> None:
        d = self.config.checkpoint_dir
        w = manifest["completed_wave"]
        fmt = manifest.get("format", 1)
        if fmt not in (2, _CHECKPOINT_FORMAT):
            raise ValueError(
                f"incompatible checkpoint format {fmt} (engine writes "
                f"{_CHECKPOINT_FORMAT}): format-1 checkpoints carried full "
                "gate dumps instead of per-wave deltas and cannot be "
                "replayed — re-run the crawl to produce a new checkpoint"
            )
        if manifest["config_hash"] != self.config.config_hash():
            raise ValueError("checkpoint was written under different crawl semantics")
        if manifest.get("num_gate_shards", self.config.num_gate_shards) != \
                self.config.num_gate_shards:
            raise ValueError(
                "checkpoint has a different gate-shard count — the per-shard "
                "decision counters are shard-local and cannot be "
                "redistributed; resume with num_gate_shards="
                f"{manifest['num_gate_shards']}"
            )
        self.wave = w + 1
        self.next_seq = manifest["next_seq"]
        self.pages_fetched = manifest["pages_fetched"]
        self._restore_gates(d, w, fmt)
        # content deltas re-form the broadcast delta chain (replica mode) or
        # refill the probe tier, in wave order
        admit_futs = []
        for wv in range(w + 1):
            sd = os.path.join(d, "state", f"wave={wv}")
            delta_tbls = []
            if storage.exists(os.path.join(sd, "content_delta")):
                delta_tbls.append(storage.read_table(
                    os.path.join(sd, "content_delta")))
            elif os.path.isdir(os.path.join(sd, "content_delta_dir")):
                # giant-wave delta dir: replay per FILE so the driver holds
                # one block transiently, never the wave
                ddir = os.path.join(sd, "content_delta_dir")
                delta_tbls = [pq.read_table(os.path.join(ddir, f))
                              for f in sorted(os.listdir(ddir))
                              if f.endswith(".parquet")]
            for tbl in delta_tbls:
                if not tbl.num_rows:
                    continue
                if self.probe_tier is not None:
                    admit_futs.extend(self._route_to_tier(tbl))
                else:
                    self._store_delta_refs.append(ray.put(tbl))
        if admit_futs:
            ray.get(admit_futs)

    def _restore_gates(self, d: str, w: int, fmt: int) -> None:
        """Rebuild the host gates and the frontier pool.  Each admitted URL
        entered the pool once (``_seed``, ``_append_frontier*``) and left it
        only into a wave's crawl order, so the admitted set is the URLs of
        ``crawl_order/wave≤w`` plus the ``frontier/wave=w+1`` snapshot; the
        gate state is a set, so they replay in any order.  The driver holds
        one file at a time and waits once; the rebuilt seen counts must
        equal the committed metric's, or a missing file would quietly
        re-admit URLs.  The rebuild runs on the driver-held gate hosts when
        the checkpoint holds at most ``driver_link_threshold`` admits, else
        in the host processes, waited for first."""
        from searchengine_ray.utils.urls import get_urlhash

        n = self.config.num_gate_shards
        metric = storage.read_json(os.path.join(d, "metrics", f"wave={w}.json"))
        if sum(metric["shard_seen_counts"]) > self.config.driver_link_threshold:
            self._handoff_all()  # too many admits to rebuild on the driver
        calls = []

        def replay(urls: list[str], hosts: list[str]) -> None:
            by_shard: dict[int, list] = {}
            for u, h in zip(urls, hosts):
                by_shard.setdefault(_host_shard(h, n), []).append(
                    (h, u, get_urlhash(u)))
            calls.extend(self._gate_submit("restore_replay", [
                (s, (rows, None)) for s, rows in by_shard.items()])[1])

        for wv in range(w + 1):
            path = os.path.join(d, "crawl_order", f"wave={wv}")
            if storage.exists(path):  # a missing wave fails the count check
                urls = storage.read_table(path)["url_norm"].to_pylist()
                replay(urls, [_url_host(u) for u in urls])
        for tbl in snapshot_tables(os.path.join(d, "frontier", f"wave={w + 1}")):
            df = tbl.to_pandas()
            self.pool.add(df)
            replay(df["url_norm"].tolist(), df["host"].tolist())
        if fmt == 2:  # the counters rode on the last wave's gate deltas
            decisions = [s["decisions"] for s in sorted(storage.read_json(
                os.path.join(d, "state", f"wave={w}", "hostgate_deltas.json")
            )["shards"], key=lambda s: s["shard_id"])]
        else:
            decisions = metric["shard_decisions"]
        # calls from one caller run in submission order: this last call
        # per shard answers with the rebuilt count
        idx, last = self._gate_submit("restore_replay", list(enumerate(
            ([], dec) for dec in decisions)))
        counts = _gather(idx, _gate_replies(calls + last)[len(calls):], n)
        for s, (got, want) in enumerate(zip(counts, metric["shard_seen_counts"])):
            if got != want:
                raise ValueError(
                    f"checkpoint rebuild of gate shard {s} holds {got} URLs, "
                    f"but wave {w} committed {want}: a crawl_order or "
                    "frontier file of the checkpoint is missing or torn")

    @classmethod
    def resume(cls, store: SyntheticStore, config: CrawlConfig) -> "CrawlEngine":
        manifest = storage.read_json(os.path.join(config.checkpoint_dir, "manifest.json"))
        return cls(store, config, _restore=manifest)

    # ----------------------------------------------------------------- drive
    def run(self) -> CrawlResult:
        while self.run_wave():
            pass
        return self.result()

    def result(self) -> CrawlResult:
        """Build the result HANDLE — O(shards) driver work: each gate shard
        spills its own seen-hash table (actor-side write, count-only RPC
        reply) and the order log is passed as the held frames or, with a
        checkpoint, its per-wave directory.  Nothing O(crawl) lands on the
        driver here; the eager views on CrawlResult are lazy and explicit."""
        import shutil
        import tempfile
        import weakref

        ck = self.config.checkpoint_dir
        seen_dir = (os.path.join(ck, "url_seen") if ck
                    else tempfile.mkdtemp(prefix="crawl_url_seen_"))
        counts = self._gate_all("dump_seen_to", [
            os.path.join(seen_dir, f"shard={i}")
            for i in range(self.config.num_gate_shards)])
        res = CrawlResult(
            order_frames=None if ck else self.crawl_order_frames,
            order_dir=os.path.join(ck, "crawl_order") if ck else None,
            num_waves=self.wave,
            seen_dir=seen_dir,
            shard_seen_counts=counts,
            metrics=self.metrics,
            pages_dir=os.path.join(ck, "pages") if ck else None,
        )
        if not ck:  # the temporary seen set lives as long as its result
            weakref.finalize(res, shutil.rmtree, seen_dir, ignore_errors=True)
        return res

    def shutdown(self, timeout_s: float = 15.0) -> None:
        """Terminate the engine's actors and WAIT for their CPU reservation
        to return.  Fire-and-forget ``ray.kill`` can be dropped ("Mismatched
        ActorID: ignoring KillActor") and leave the reservation held, which
        hangs the NEXT engine on a small session; graceful
        ``__ray_terminate__`` releases deterministically, with a force-kill
        at ``timeout_s``.  Actor death and resource release are separate
        raylet events (a stale reservation was observed live), so the
        available CPU is polled (bounded) and a persistent leak is warned
        loudly instead of surfacing later as a scheduling hang.  With no
        CPU reserved (``state_actor_num_cpus=0``) there is nothing to poll
        for: a gate host that has not answered is killed, not waited for
        (its graceful terminate would queue behind its start, ~0.7 s)."""
        if getattr(self, "_shutdown_done", False):
            return
        self._shutdown_done = True
        # speculative fetches never consumed (a crawl stopped by max_waves
        # or max_pages) must not keep holding CPUs the next engine needs
        spec = [ref for ref, _seqs in self._spec]
        for ref in spec:
            ray.cancel(ref)
        if spec:
            ray.wait(spec, num_returns=len(spec), timeout=timeout_s)
        self._spec, self._spec_seqs = [], set()
        if self.probe_tier is None:
            # the driver's replica of the store (built by inline waves)
            from searchengine_ray.stages.content_probe import drop_store_index

            drop_store_index()
        starting = list(self._gate_ready.values())
        unanswered = set()
        if starting and self._actor_cpu_reserved > 0:
            # a host process still starting takes its reservation when it
            # comes up: wait for it (bounded) before the baseline below
            ray.wait(starting, num_returns=len(starting), timeout=timeout_s)
        elif starting:
            # nothing reserved, so no baseline to wait for: a host that has
            # not answered is killed where it stands
            ready = set(ray.wait(starting, num_returns=len(starting),
                                 timeout=0)[0])
            unanswered = {h for h, r in self._gate_ready.items()
                          if r not in ready}
            for h in unanswered:
                ray.kill(self.gate_hosts[h], no_restart=True)
        avail0 = ray.available_resources().get("CPU", 0.0)
        actors = [a for h, a in enumerate(self.gate_hosts)
                  if h not in unanswered] + (self.probe_tier or [])
        refs, by_ref = [], {}
        for a in actors:
            try:
                r = a.__ray_terminate__.remote()
                refs.append(r)
                by_ref[r] = a
            except Exception:
                ray.kill(a)
        if refs:
            _, pending = ray.wait(refs, num_returns=len(refs),
                                  timeout=timeout_s)
            for r in pending:
                ray.kill(by_ref[r])
        want = avail0 + self._actor_cpu_reserved - 0.01
        if self._actor_cpu_reserved > 0:
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if ray.available_resources().get("CPU", 0.0) >= want:
                    return
                time.sleep(0.1)
            import warnings

            warnings.warn(
                f"CrawlEngine.shutdown: {self._actor_cpu_reserved} CPU of "
                f"state-actor reservation not released after 10s "
                f"(available {ray.available_resources().get('CPU', 0.0)}, "
                f"expected ≥{want:.2f}) — the raylet leaked it; subsequent "
                f"1-CPU Ray Data tasks may be unschedulable on small "
                f"sessions", RuntimeWarning)
