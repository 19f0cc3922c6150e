#!/usr/bin/env python3
"""Crawl-first benchmark of searchengine_ray.

    python3 perfbench/run.py --workload crawl_waves --seed 1 --seconds 15 --trace 0

Run from the repository root.  Starts a local Ray session with num_cpus =
nproc, builds the seeded inputs and their reference outputs and runs one
untimed warm-up (together: the set-up), then repeats the workload's
measured cycle for about ``--seconds`` (see ``run_cycles``), checking
every output.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Earlier lines carry host capacity,
every metric with its sample count and, when traced, the per-wave table.
Scratch files (Ray session, checkpoints, indexes) live under ``.rt/``
(removed at exit) and trace dumps under ``.bench_out/`` in the repository
root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".rt")
OUT_DIR = os.path.join(ROOT, ".bench_out")
OBJECT_STORE_BYTES = 512 * 2**20
# a Ray session's socket paths are <temp dir>/session_<stamp>_<pid>/sockets/
# plasma_store (temp dir + up to 64 characters) and must fit the 107-byte
# AF_UNIX limit, so a checkout at a long path cannot hold the session
_MAX_RAY_TEMP_LEN = 43

UNITS = {
    "setup_s": "s", "throughput_per_s": "1/s", "cycle_s": "s",
    "op_p50_ms": "ms", "driver_peak_rss_mb": "MB",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# ---- host capacity --------------------------------------------------------

def numpy_burn_ms() -> float:
    """Fixed single-process numpy workload (median of 3) — a capacity dip
    on the host shows as a higher reading."""
    import numpy as np

    a0 = np.random.default_rng(0).random((160, 160))
    times = []
    for _ in range(3):
        a = a0.copy()
        t0 = time.perf_counter()
        for _ in range(40):
            a = np.tanh(a @ a * 0.01)
        times.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(times)


def nproc() -> int:
    """What coreutils ``nproc`` prints: OMP_NUM_THREADS (capped by
    OMP_THREAD_LIMIT) when set, else the CPUs this process may run on."""
    n = len(os.sched_getaffinity(0))
    try:
        n = int(os.environ.get("OMP_NUM_THREADS", "").split(",")[0])
    except ValueError:
        pass
    try:
        n = min(n, int(os.environ["OMP_THREAD_LIMIT"]))
    except (KeyError, ValueError):
        pass
    return max(1, n)


def host_capacity() -> dict:
    return {"nproc": nproc(), "cpus_available": len(os.sched_getaffinity(0)),
            "loadavg_1m": os.getloadavg()[0],
            "burn_ms": numpy_burn_ms()}


def cpu_times() -> tuple[int, int]:
    """(stolen, total) CPU jiffies of the whole machine from /proc/stat —
    time a hypervisor gave to other guests shows up as steal."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM not found in /proc/self/status")


# ---- Ray session ----------------------------------------------------------

def start_ray(ncpu: int) -> str:
    """Start a local session with its temp dir in ``.rt/`` (Ray's default
    temp dir when the checkout's path is too long for in-tree sockets);
    returns the session dir, which is on the command line of every process
    of the session."""
    import ray

    temp = SCRATCH
    if len(temp) > _MAX_RAY_TEMP_LEN:
        print(f"# ray temp dir {temp} too long for AF_UNIX sockets; "
              "using Ray's default", file=sys.stderr)
        temp = None
    ray.init(num_cpus=ncpu, include_dashboard=False, logging_level="ERROR",
             log_to_driver=False, object_store_memory=OBJECT_STORE_BYTES,
             _temp_dir=temp)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray._private.worker._global_node.get_session_dir_path()


def stop_ray(session_dir: str, timeout_s: float = 30.0) -> None:
    """Shut the session down, wait until none of its processes is left
    (killing stragglers after ``timeout_s``) and delete the session dir."""
    import signal

    import ray

    ray.shutdown()
    deadline = time.monotonic() + timeout_s
    while left := _session_pids(session_dir):
        if time.monotonic() > deadline:
            print(f"# killing {len(left)} Ray processes left {timeout_s:.0f} s "
                  "after shutdown", file=sys.stderr)
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 5.0
        time.sleep(0.2)
    shutil.rmtree(session_dir, ignore_errors=True)
    latest = os.path.join(os.path.dirname(session_dir), "session_latest")
    if os.path.islink(latest) and os.readlink(latest) == session_dir:
        os.remove(latest)


def _session_pids(marker: str) -> list[int]:
    me = os.getpid()
    pids = []
    for d in os.listdir("/proc"):
        if not d.isdigit() or int(d) == me:
            continue
        try:
            with open(f"/proc/{d}/cmdline", "rb") as f:
                cmd = f.read()
            with open(f"/proc/{d}/stat") as f:
                state = f.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if state != "Z" and marker.encode() in cmd:
            pids.append(int(d))
    return pids


# ---- metrics --------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten
    samples beyond it; the maximum when there are too few samples."""
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return v[-1], 100.0
    return v[n - 11], 100.0 * (n - 10) / n


def throughput(cycles) -> float:
    """Items (pages, queries) per second of the wall they were produced in."""
    return sum(c.items for c in cycles) / sum(c.items_wall_s for c in cycles)


def end_to_end(cycles, setup_s: float) -> dict:
    ops = [x for c in cycles for x in c.op_ms]
    walls = [c.wall_s for c in cycles if c.wall_s is not None]
    return {
        "setup_s": (setup_s, 1),
        "throughput_per_s": (throughput(cycles), sum(c.items > 0 for c in cycles)),
        "cycle_s": (statistics.median(walls), len(walls)),
        "op_p50_ms": (statistics.median(ops), len(ops)),
        "driver_peak_rss_mb": (peak_rss_mb(), 1),
    }


def run_cycles(workload, seconds: float, log: list, min_cycles: int = 1,
               tracer=None) -> tuple[list, int, int]:
    """Repeat the cycle for ``seconds`` and at least ``min_cycles`` times.
    A further cycle starts only if, lasting as long as the last one, it
    would end less than half a cycle past the deadline, so that the
    measured time does not depend on where the deadline falls within a long
    cycle.  With a ``tracer``, every other cycle runs traced, starting with
    the first.  Returns (cycles, attempted, failed); a raising cycle ends
    the loop."""
    cycles, attempted, failed = [], 0, 0
    t_end = time.perf_counter() + seconds

    def more() -> bool:
        if len(cycles) < min_cycles:
            return True
        last = cycles[-1].window[1] - cycles[-1].window[0]
        return time.perf_counter() + last / 2 < t_end

    while more():
        traced = tracer is not None and len(cycles) % 2 == 0
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            c = workload.cycle()
        except Exception:
            traceback.print_exc()
            return cycles, attempted + 1, failed + 1
        finally:
            if traced:
                tracer.uninstall()
        c.traced, c.window = traced, (t0, time.perf_counter())
        cycles.append(c)
        attempted += c.attempted
        failed += c.failed
        log.extend(c.errors)
    return cycles, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "searchengine_ray")):
        print(f"searchengine_ray not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    tmp = os.path.join(SCRATCH, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    import tempfile

    tempfile.tempdir = tmp
    workdir = os.path.join(SCRATCH, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)

    host = host_capacity()
    ncpu = host["ray_num_cpus"] = host["nproc"]
    print("# host " + json.dumps(host))
    import tracing

    counter = tracing.AllToAllCounter() if args.trace else None
    session = None
    try:
        t0 = time.perf_counter()
        session = start_ray(ncpu)
        tracing.quiet_ray_data_logs(counter)
        wl = workloads.WORKLOADS[args.workload](args.seed, ncpu, workdir)
        t1 = time.perf_counter()
        wl.setup()
        t2 = time.perf_counter()
        wl.warm_up()
        setup_s = time.perf_counter() - t0
        print(f"# setup ray_start_s={t1 - t0:.3f} inputs_and_reference_s="
              f"{t2 - t1:.3f} warm_up_s={t0 + setup_s - t2:.3f}")
        errors: list[str] = []
        steal0, total0 = cpu_times()
        if args.trace:
            import layers

            units = layers.UNITS
            result = layers.traced_run(wl, args, counter, errors, host, setup_s)
        else:
            units = UNITS
            cycles, attempted, failed = run_cycles(wl, args.seconds, errors,
                                                   wl.min_cycles)
            if len(cycles) < wl.min_cycles:
                print("a cycle failed", file=sys.stderr)
                return 1
            result = (end_to_end(cycles, setup_s), attempted, failed, cycles)
    finally:
        if session:
            t_stop = time.perf_counter()
            stop_ray(session)
            print(f"# teardown_s={time.perf_counter() - t_stop:.3f}")
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, attempted, failed, cycles = result
    steal1, total1 = cpu_times()
    host["steal_pct"] = 100.0 * (steal1 - steal0) / max(1, total1 - total0)
    print("# capacity while measuring: steal_pct=%.2f" % host["steal_pct"])
    for e in errors[:20]:
        print(f"# check failed: {e}", file=sys.stderr)
    print("# cycle walls s: " + " ".join(
        f"{c.wall_s if c.wall_s is not None else c.items_wall_s:.3f}"
        for c in cycles))
    for name, (value, n) in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]} (n={n})")
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, (v, _n) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
