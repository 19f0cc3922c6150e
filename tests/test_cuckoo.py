"""Host-gate exactness on pathological keys.  The gate once fronted its
seen set with an approximate (cuckoo) filter and fell back to the exact set
when colliding keys filled it; it now probes the exact ``SeenSet`` for every
candidate, so colliding keys must still never lose dup detection."""

from searchengine_ray.state.gates import HostGateCore
from searchengine_ray.state.seenset import SeenSet


def test_gate_degrades_on_pathological_keys():
    """Digests that collide on all but their last byte (every 8-byte key
    identical, as in the old filter's adversarial case): the gate accepts
    each URL once and flags every repeat ``dup``, with the set spread over
    flushed segments and an active tail."""
    g = HostGateCore(0, 0.85)
    g.seen = SeenSet(flush_at=16, compact_at=2)
    rows = [("h.test", f"https://h.test/d{i}/p", "07" * 31 + f"{i:02x}")
            for i in range(40)]
    out1 = g.process(list(rows))
    assert out1 == ["accept"] * 40
    assert g.seen.segments and g.seen.active
    out2 = g.process(list(rows))
    assert out2 == ["dup"] * 40
    stats = g.memory_stats()
    assert stats["seen_count"] == 40
    assert stats["decisions"] == {"accept": 40, "dup": 40, "trap": 0, "seed": 0}
