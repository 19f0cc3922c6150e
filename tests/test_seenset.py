"""SeenSet (LSM digest set) — exactness vs a plain Python set under heavy
flush/compact churn, the host gate's exact dup decisions over it, plus the
sorted-dump contract the gate spill relies on: the gate host's dump file,
byte for byte, and a gate host that never loads pandas."""

import hashlib
import os
import subprocess
import sys
import textwrap

import numpy as np

from searchengine_ray.state.seenset import SeenSet


def _digest(i: int) -> bytes:
    return hashlib.sha256(f"url-{i}".encode()).digest()


def test_seenset_matches_python_set_across_flushes():
    rng = np.random.RandomState(3)
    s = SeenSet(flush_at=64, compact_at=3)  # tiny bounds → constant churn
    ref: set[bytes] = set()
    for i in rng.randint(0, 2000, size=5000):
        d = _digest(int(i))
        if d not in ref:  # gate contract: add only after a miss probe
            if d in s:
                raise AssertionError("false positive")
            s.add(d)
            ref.add(d)
        else:
            assert d in s
    assert len(s) == len(ref)
    # full membership sweep, including misses
    for i in range(2500):
        d = _digest(i)
        assert (d in s) == (d in ref)
    # the sorted dump holds every digest exactly once
    raw = s.sorted_array().tobytes()
    dumped = [raw[i * 32:(i + 1) * 32] for i in range(len(raw) // 32)]
    assert len(dumped) == len(ref) and set(dumped) == ref


def test_gate_dups_every_repeat_across_flushes():
    """Every candidate probes the exact seen set: 300 distinct URLs are
    all accepted, and all of them again are all ``dup``, with the set
    spread over flushed segments, a compaction and an active tail."""
    from searchengine_ray.state.gates import HostGateCore

    gate = HostGateCore(0, 0.85)
    gate.seen = SeenSet(flush_at=32, compact_at=3)
    rows = [("h.test", f"https://h.test/d{i}/p",
             hashlib.sha256(str(i).encode()).hexdigest()) for i in range(300)]
    assert gate.process(rows) == ["accept"] * 300
    assert gate.seen.segments and gate.seen.active
    assert gate.process(rows) == ["dup"] * 300
    stats = gate.memory_stats()
    assert stats["seen_count"] == 300
    assert stats["decisions"] == {"accept": 300, "dup": 300, "trap": 0, "seed": 0}


def test_seenset_unpickled_over_readonly_buffers():
    """Ray unpickles numpy arrays zero-copy over read-only buffers (the
    gate handoff ships seen sets that way): the copy holds every digest,
    and its read-only segments still flush, compact and dump."""
    s = SeenSet(flush_at=16, compact_at=2)
    for i in range(100):
        s.add(_digest(i))
    copy = _ship(s)
    assert not copy.segments[0].flags.writeable
    assert all(_digest(i) in copy for i in range(100))
    for i in range(100, 200):
        copy.add(_digest(i))
    assert all((_digest(i) in copy) == (i < 200) for i in range(250))
    assert all(_digest(i) not in s for i in range(100, 200))
    raw = copy.sorted_array().tobytes()
    assert raw == b"".join(sorted(_digest(i) for i in range(200)))


def test_seenset_sorted_digests_and_hex_order():
    s = SeenSet(flush_at=16, compact_at=2)
    digests = {_digest(i) for i in range(300)}
    for d in digests:
        s.add(d)
    arr = s.sorted_array()
    raw = arr.tobytes()
    out = [raw[i * 32:(i + 1) * 32] for i in range(arr.size)]
    assert out == sorted(digests)
    # byte order ≡ lowercase-hex string order (the dump writes hex)
    hexes = [d.hex() for d in out]
    assert hexes == sorted(hexes)
    # a dump must not lose the active (unflushed) tail
    assert len(out) == 300


def test_seenset_nbytes_is_array_dominated():
    s = SeenSet(flush_at=1024)
    for i in range(10_000):
        s.add(_digest(i))
    # ≤ ~40 B/URL amortized (32 B segment payload + bounded active set)
    assert s.nbytes() / 10_000 < 64


def test_gate_dump_matches_sorted_hex_list_write(tmp_path, monkeypatch):
    """``dump_seen_to`` builds its column from the SeenSet buffer, chunked;
    the file must equal, byte for byte, a one-array write of the sorted hex
    strings — across flushed segments, the active tail, chunk boundaries
    and digests ending in NUL bytes (which ``.tolist()`` would strip)."""
    import pyarrow as pa

    from searchengine_ray.sources import storage
    from searchengine_ray.state import gates

    monkeypatch.setattr(gates, "DUMP_CHUNK", 3)
    digests = ([_digest(i) for i in range(20)]
               + [_digest(i)[:31] + b"\0" for i in range(20, 23)]
               + [_digest(23)[:30] + b"\0\0", b"\0" * 32])
    core = gates.HostGateCore(0, 0.85)
    core.seen = SeenSet(flush_at=8)  # three flushed segments + active tail
    core.restore_replay([("h.test", f"https://h.test/p{i}", d.hex())
                         for i, d in enumerate(digests)])
    assert core.seen.segments and core.seen.active
    assert core.dump_seen_to(str(tmp_path / "seen")) == len(digests)

    hexes = sorted(d.hex() for d in digests)
    got = storage.read_table(str(tmp_path / "seen"))
    assert got.schema == pa.schema([("url_hash", pa.string())])
    assert got.schema.metadata is None
    assert got["url_hash"].to_pylist() == hexes
    storage.write_table_atomic(
        pa.table({"url_hash": pa.array(hexes, pa.string())}),
        str(tmp_path / "list"))
    with open(storage.table_uri(str(tmp_path / "seen")), "rb") as f_new, \
            open(storage.table_uri(str(tmp_path / "list")), "rb") as f_list:
        assert f_new.read() == f_list.read()


def test_gate_host_never_imports_pandas(tmp_path):
    """A gate host's whole life (seed, process, the handoff's unpickle,
    resume replay, result-time dump) must not load pandas: pyarrow imports it for ``pa.array`` on
    Python lists, ~0.35 s per process."""
    script = textwrap.dedent(f"""
        import hashlib, pickle, sys
        from searchengine_ray.state.gates import HostGateCore

        rows = [("h.test", f"https://h.test/d{{i}}/p",
                 hashlib.sha256(str(i).encode()).hexdigest())
                for i in range(200)]
        core = HostGateCore(0, 0.85)
        core.seed(rows[:5])
        admitted = rows[:5] + [r for r, d in zip(rows, core.process(rows))
                               if d == "accept"]
        core = pickle.loads(pickle.dumps(core, protocol=5))
        replayed = HostGateCore(0, 0.85)
        assert replayed.restore_replay(admitted, core.decisions) == len(core.seen)
        assert replayed.dump_seen_to({str(tmp_path / "seen")!r}) == len(core.seen)
        print("pandas" in sys.modules)
    """)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run([sys.executable, "-c", script], cwd=root,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "False", "gate host loaded pandas"


def _ship(obj):
    """Pickle protocol 5 with out-of-band buffers, loaded over read-only
    copies of them: how Ray ships an actor-call argument (its numpy arrays
    come back zero-copy over read-only object-store memory)."""
    import pickle

    bufs = []
    data = pickle.dumps(obj, protocol=5, buffer_callback=bufs.append)
    return pickle.loads(data, buffers=[bytes(b.raw()) for b in bufs])


def test_shipped_gate_host_decides_as_the_original():
    """The gate handoff ships a driver-held ``HostGateShard`` to its
    process whole.  Pickled mid-stream, the copy must decide the rest of
    the candidate stream exactly as the original, with equal
    ``memory_stats``: for a shard whose seen set holds flushed segments and
    an active set, a shard whose digests all share one 8-byte prefix (the
    binary searches must compare whole digests), and with trap hits in the
    rest."""
    from searchengine_ray.state.gates import HostGateShard

    rng = np.random.RandomState(11)

    def cand(shard: int) -> tuple[str, str, str]:
        host = ("a.test", "b.test")[shard]
        url = (f"https://{host}/cal/2024-{rng.randint(1, 13):02d}-"
               f"{rng.randint(1, 29):02d}" if rng.rand() < 0.2
               else f"https://{host}/d{rng.randint(0, 60)}/p{rng.randint(0, 8)}")
        digest = hashlib.sha256(url.encode()).digest()
        if shard == 1:  # one 8-byte prefix for all
            digest = b"\x07" * 8 + digest[8:]
        return host, url, digest.hex()

    def batches(n: int) -> list:
        return [(s, [cand(s) for _ in range(n)]) for s in (0, 1)]

    orig = HostGateShard([0, 1], 0.85)
    orig.cores[0].seen = SeenSet(flush_at=64)
    orig.cores[1].seen = SeenSet(flush_at=32)
    orig.seed(batches(3))
    for _ in range(4):
        orig.process(batches(40))
    for core in orig.cores.values():
        assert core.seen.segments and core.seen.active
    stats = [(s, None) for s in (0, 1)]
    copy = _ship(orig)
    assert copy.memory_stats(stats) == orig.memory_stats(stats)
    rest = []
    for _ in range(4):
        b = batches(40)
        got = copy.process(b)
        assert got == orig.process(b)
        rest += [d for out in got for d in out]
    assert {"accept", "dup", "trap"} <= set(rest)
    assert copy.memory_stats(stats) == orig.memory_stats(stats)
