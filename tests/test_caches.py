"""Tests for the cache policy: one object per defining argument across the
process, and per-object memos that compute each entry once."""

from chaincodes import (
    ChainRing,
    CosetUniverse,
    context,
    cosets,
    extend,
    galois_ring,
    make_ring,
)
from chaincodes.galois import GaloisExtension

Z9_SPEC = {"family": "GR", "p": 3, "r": 1, "s": 2}


def test_one_object_per_defining_argument():
    ring = make_ring(Z9_SPEC)
    assert make_ring(ring.spec) is ring
    assert make_ring(ring.spec.to_json()) is ring
    assert galois_ring(3, 1, 2) is ring
    assert extend(ring, 2) is extend(make_ring(Z9_SPEC), 2)
    assert extend(ring, 2) is not extend(ring, 4)
    assert context(ring, 4) is context(make_ring(Z9_SPEC), 4)
    assert context(ring, 4).ext is extend(ring, 2)
    assert cosets(CosetUniverse(20, 3)) is cosets(CosetUniverse(20, 3))


def test_repeated_calls_hit_the_memos(monkeypatch):
    # GR(81, 2) is above the table cap, so every product in it goes through
    # _mul_coords; a fresh extension starts with empty memos.
    ext = GaloisExtension(galois_ring(3, 1, 2), 4)
    assert not ext.top.has_tables
    calls = []
    mul = ChainRing._mul_coords

    def counted(self, a, b):
        calls.append((a, b))
        return mul(self, a, b)

    monkeypatch.setattr(ChainRing, "_mul_coords", counted)
    a = ext.top.element([5, 7, 1, 0])
    for call, arg in ((ext.xi_pow, 1234), (ext.trace_xi_pow, 77), (ext.trace, a)):
        first = call(arg)
        assert calls, call.__name__
        calls.clear()
        assert call(arg) is first
        assert calls == [], call.__name__


def test_interning_above_the_cap():
    ring = extend(galois_ring(3, 1, 2), 4).top
    assert not ring.has_tables
    assert ring.element([5, 7, 1, 0]) is ring.element([5, 7, 1, 0])
    assert ring.element([14, 7, 1, 9]) is ring.element_at(5 + 7 * 9 + 81)
