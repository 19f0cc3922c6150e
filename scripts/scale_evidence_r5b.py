"""Round-5 kill/resume-at-scale evidence: a SIGKILLed 150k-page crawl job
resumes from its incremental checkpoints BIT-IDENTICALLY to an
uninterrupted run — the north-rule sentence ("a killed `ray job submit`
run resumes bit-identically"), demonstrated at giant-wave scale rather
than only in the torn-wave unit tests.

Run from /root/repo (parent orchestrates three sequential child
processes, each owning its own Ray session; prints ONE JSON line):

    python scripts/scale_evidence_r5b.py

- child "run A":   uninterrupted 150k-page procedural crawl, all scale
  features on (spill frontier, probe tier, speculative fetch,
  distributed resolve, checkpointed order on disk); writes an
  order-sensitive blake2b checksum of the full crawl_order log
  (seq, url_norm, wave, status, decision) + the url_seen count.
- child "run B":   identical config, fresh dirs — SIGKILLed (whole
  process group) mid-giant-wave.
- child "resume B": `CrawlEngine.resume` from B's torn checkpoints, runs
  to completion, writes the same checksum.

PASS = checksum(A) == checksum(resumed B) and url_seen(A) == url_seen(B).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

sys.path.insert(0, ".")

PAGES = 150_000
KILL_AFTER_SEC = 35.0  # startup + waves 0/1 ≈ 20 s; 150k-page run ≈ 65 s → lands mid-wave-2


def _config(store, base: str):
    from searchengine_ray.config import CrawlConfig

    cfg = CrawlConfig(
        seed_urls=list(store.seeds), allowed_domains=("test",),
        checkpoint_dir=os.path.join(base, "ckpt"),
        frontier_spill_dir=os.path.join(base, "spill"),
        content_probe_shards=8,
    )
    cfg.driver_fp_threshold = 50_000
    return cfg


def _store():
    from searchengine_ray.sources.fixtures import ProceduralSpec, ProceduralStore

    return ProceduralStore(ProceduralSpec(n_pages=PAGES, seed=77))


def _checksum(res) -> dict:
    df = (res.crawl_order_dataset().to_pandas()
          .sort_values("seq").reset_index(drop=True))
    h = hashlib.blake2b(digest_size=16)
    for col in ("seq", "url_norm", "wave", "status", "decision"):
        h.update(col.encode())
        h.update("\x1f".join(map(str, df[col].tolist())).encode())
    return {"rows": int(len(df)), "order_blake2b": h.hexdigest(),
            "url_seen": int(res.url_seen_count)}


def worker(mode: str, base: str) -> None:
    import ray

    ray.init(address="local", include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from searchengine_ray.pipelines.crawl import CrawlEngine

    store = _store()
    cfg = _config(store, base)
    t0 = time.perf_counter()
    if mode == "resume":
        eng = CrawlEngine.resume(store, cfg)
        resumed_at = {"wave": int(eng.wave),
                      "pages_at_resume": int(eng.pages_fetched)}
    else:
        eng = CrawlEngine(store, cfg)
        resumed_at = None
    res = eng.run()
    out = _checksum(res)
    out["sec"] = round(time.perf_counter() - t0, 1)
    if resumed_at:
        out["resumed_at"] = resumed_at
    with open(os.path.join(base, "checksum.json"), "w") as f:
        json.dump(out, f)
    eng.shutdown()
    ray.shutdown()


def main() -> None:
    a_dir, b_dir = "/tmp/crawl_r5b_a", "/tmp/crawl_r5b_b"
    for d in (a_dir, b_dir):
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
    me = os.path.abspath(__file__)

    # --- run A: uninterrupted reference --------------------------------------
    subprocess.run([sys.executable, me, "--worker", "run", a_dir], check=True)
    a = json.load(open(os.path.join(a_dir, "checksum.json")))

    # --- run B: SIGKILL the whole process group mid-giant-wave ---------------
    p = subprocess.Popen([sys.executable, me, "--worker", "run", b_dir],
                         start_new_session=True)
    time.sleep(KILL_AFTER_SEC)
    killed_mid_run = p.poll() is None
    os.killpg(os.getpgid(p.pid), signal.SIGKILL)
    p.wait()
    time.sleep(3)  # let the killed raylet's sockets drain

    # --- resume B from the torn checkpoints ----------------------------------
    subprocess.run([sys.executable, me, "--worker", "resume", b_dir],
                   check=True)
    b = json.load(open(os.path.join(b_dir, "checksum.json")))

    identical = (a["order_blake2b"] == b["order_blake2b"]
                 and a["rows"] == b["rows"]
                 and a["url_seen"] == b["url_seen"])
    print(json.dumps({
        "pages": PAGES, "killed_mid_run": killed_mid_run,
        "run_a": a, "resumed_b": b, "bit_identical": identical}))
    assert killed_mid_run, "kill landed after completion — raise PAGES"
    assert identical, (a, b)


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--worker":
        worker(sys.argv[2], sys.argv[3])
    else:
        main()
