"""Tests for the cache policy: one object per defining argument across the
process, and per-object memos that compute each entry once."""

from chaincodes import (
    ChainRing,
    CosetUniverse,
    EvalContext,
    code_from_partition,
    context,
    cosets,
    decompose_cyclic,
    extend,
    galois_ring,
    make_partition,
    make_ring,
    representatives,
)
from chaincodes import tracecodes
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
    # _mul_coords; a fresh extension and context start with empty memos.
    ring = galois_ring(3, 1, 2)
    ext = GaloisExtension(ring, 4)
    assert not ext.top.has_tables
    calls = []
    mul = ChainRing._mul_coords

    def counted(self, a, b):
        if self is ext.top:
            calls.append((a, b))
        return mul(self, a, b)

    monkeypatch.setattr(ChainRing, "_mul_coords", counted)
    # The basis traces are built once; a trace after that multiplies nothing.
    a = ext.top.element([5, 7, 1, 0])
    first = ext.trace(a)
    assert calls
    calls.clear()
    assert ext.trace(a) is first
    assert ext.trace(ext.top.element([2, 0, 8, 3])).ring is ring
    assert calls == []
    # The trace table is built with the first coset's rows; a second coset
    # only reads it.
    ctx = EvalContext(ring, 20)
    assert ctx.ext.top is ext.top
    ctx.coset_codes[1]
    assert calls
    calls.clear()
    ctx.coset_codes[2]
    assert calls == []
    # Frobenius and the embedding build their basis images on first use
    # only; GR(9, 2) extends to the same top ring.
    fresh = GaloisExtension(ring, 4)
    wide = GaloisExtension(galois_ring(3, 2, 2), 2)
    assert wide.top is ext.top
    b = wide.base.element([4, 7])
    for call in (lambda: fresh.frobenius(a, 3), lambda: wide.embed(b)):
        calls.clear()
        first = call()
        assert calls
        calls.clear()
        assert call() is first
        assert calls == []


def test_interning_above_the_cap():
    ring = extend(galois_ring(3, 1, 2), 4).top
    assert not ring.has_tables
    assert ring.element([5, 7, 1, 0]) is ring.element([5, 7, 1, 0])
    assert ring.element([14, 7, 1, 9]) is ring.element_at(5 + 7 * 9 + 81)


def test_second_decompose_reuses_the_stack_and_column_images(monkeypatch):
    # A fresh context, which decompose_cyclic finds through ``context``,
    # starts with no stack and no column image.
    ring = galois_ring(3, 1, 2)
    ctx = EvalContext(ring, 56)
    monkeypatch.setattr(tracecodes, "context", lambda r, ell: ctx)
    built = []
    image = ChainRing._column_image

    def counted(self, column, a):
        built.append((column, a))
        return image(self, column, a)

    monkeypatch.setattr(ChainRing, "_column_image", counted)
    reps = representatives(ctx.universe)
    partition = make_partition(
        ctx.universe, ring.s, {z: i % (ring.s + 1) for i, z in enumerate(reps)}
    )
    code = code_from_partition(ctx, partition)
    assert decompose_cyclic(code) == partition
    assert built
    stack = ctx.opposite_stack
    rows, slices = list(stack[0]), list(stack[1])
    built.clear()
    assert decompose_cyclic(code) == partition
    assert built == []
    assert ctx.opposite_stack is stack
    assert stack == (rows, slices)
