"""Cuckoo filter unit tests (Fan et al. 2014 semantics: no false negatives,
bounded false positives, deletion support, pickle round-trip)."""

import numpy as np

from searchengine_ray.state.cuckoo import CuckooFilter


def test_no_false_negatives():
    f = CuckooFilter(capacity=1 << 12)
    keys = list(range(100_000, 102_000))
    for k in keys:
        assert f.add(k)
    assert all(f.contains(k) for k in keys)


def test_false_positive_rate_bounded():
    f = CuckooFilter(capacity=1 << 12)
    for k in range(2000):
        f.add(k)
    probes = range(1_000_000, 1_020_000)
    fp = sum(f.contains(k) for k in probes)
    assert fp / 20_000 < 0.05, fp


def test_remove():
    f = CuckooFilter(capacity=1 << 10)
    f.add(42)
    assert f.contains(42)
    assert f.remove(42)
    assert not f.contains(42)


def test_fills_and_reports_full():
    f = CuckooFilter(capacity=64, bucket_size=4)
    ok = 0
    for k in range(1000):
        if f.add(k):
            ok += 1
    assert ok < 1000  # it must report failure rather than silently drop
    assert ok > 40


def test_pickle_roundtrip():
    """Unpickled over read-only buffers, as Ray hands numpy arrays over,
    the copy holds every key and still takes inserts."""
    import pickle

    f = CuckooFilter(capacity=1 << 10)
    for k in range(500):
        f.add(k)
    bufs = []
    data = pickle.dumps(f, protocol=5, buffer_callback=bufs.append)
    g = pickle.loads(data, buffers=[bytes(b.raw()) for b in bufs])
    assert all(g.contains(k) for k in range(500))
    assert g.count == f.count
    assert g.add(500) and g.contains(500) and not f.contains(500)


def test_gate_degrades_on_pathological_keys():
    """If even a regrown filter rejects (all keys colliding), the gate must
    fall back to the exact set — never lose dup detection."""
    from searchengine_ray.state.cuckoo import CuckooFilter as CF
    from searchengine_ray.state.gates import HostGateCore

    g = HostGateCore(0, 0.85)
    g.cuckoo = CF(capacity=64)
    g._cuckoo_key = lambda h: 7  # adversarial: every key identical
    rows = [("h.test", f"https://h.test/d{i}/p", f"{i:064x}") for i in range(40)]
    out1 = g.process(list(rows))
    assert all(d == "accept" for d in out1)
    assert g.cuckoo_degraded
    stats = g.memory_stats()
    assert stats["cuckoo_degraded"] is True
    assert 0.0 < stats["cuckoo_load"] <= 1.0
    out2 = g.process(list(rows))
    assert all(d == "dup" for d in out2)


def test_gate_regrows_past_filter_capacity():
    """The gate core must stay exact even when the cuckoo filter fills."""
    from hashlib import sha256

    from searchengine_ray.state.gates import HostGateCore

    gate = HostGateCore(0, 0.85)
    rows = [("h.test", f"https://h.test/d{i}/p",
             sha256(str(i).encode()).hexdigest()) for i in range(300)]
    out1 = gate.process(rows)
    assert all(d == "accept" for d in out1)
    # duplicates must ALL be flagged dup — exactness preserved
    out2 = gate.process(rows)
    assert all(d == "dup" for d in out2), out2[:5]
    stats = gate.memory_stats()
    assert stats["cuckoo_degraded"] is False
    assert 0.0 < stats["cuckoo_load"] < 1.0
