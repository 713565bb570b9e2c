"""Tests for the brute-force oracle itself."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincodes import (
    BudgetExceeded,
    LinearCode,
    eu_ring,
    extend,
    full_code,
    galois_ring,
    zero_code,
)
from chaincodes import oracle
from chaincodes.oracle import (
    Budget,
    all_vectors,
    brute_dual,
    brute_is_constacyclic,
    brute_min_weight,
    brute_span,
    brute_trace_code,
    enumerate_cyclic_submodules,
    same_words,
)

Z9 = galois_ring(3, 1, 2)


def vec(*xs):
    return tuple(Z9.element([x]) for x in xs)


def test_all_vectors():
    vs = list(all_vectors(Z9, 2))
    assert len(vs) == 81 == len(set(vs))


def test_brute_span():
    words = brute_span(Z9, [vec(1, 1)])
    assert words == {vec(c, c) for c in range(9)}
    words = brute_span(Z9, [vec(1, 0), vec(0, 3)])
    assert len(words) == 27


def test_brute_dual():
    assert len(brute_dual(zero_code(Z9, 2))) == 81
    got = brute_dual(LinearCode(Z9, 2, [vec(1, 1)]))
    assert got == brute_span(Z9, [vec(1, 8)])
    assert same_words(LinearCode(Z9, 2, [vec(1, 8)]), got)


def test_enumerate_cyclic_submodules_tiny():
    # ideals of Z9: {0}, 3Z9, Z9
    codes = enumerate_cyclic_submodules(Z9, 1)
    assert [c.cardinality for c in codes] == [1, 3, 9]
    f3 = eu_ring(3, 1, 1)
    assert len(enumerate_cyclic_submodules(f3, 4)) == 8


def test_enumerate_deterministic():
    a = enumerate_cyclic_submodules(Z9, 2)
    b = enumerate_cyclic_submodules(Z9, 2)
    assert [c.key() for c in a] == [c.key() for c in b]


def test_brute_min_weight_and_constacyclic():
    rep = LinearCode(Z9, 4, [vec(1, 1, 1, 1)])
    assert brute_min_weight(rep) == 4
    assert brute_is_constacyclic(rep, Z9.one)
    assert not brute_is_constacyclic(rep, Z9.element([8]))


def test_brute_trace_zero():
    ext = extend(Z9, 2)
    z = zero_code(ext.top, 2)
    words = brute_trace_code(ext, z)
    assert words == {(Z9.zero, Z9.zero)}


def test_budget_enforced():
    tight = Budget(max_vectors=10, max_codewords=10)
    with pytest.raises(BudgetExceeded):
        list(all_vectors(Z9, 2, tight))
    with pytest.raises(BudgetExceeded):
        brute_span(Z9, [vec(1, 0), vec(0, 1)], tight)
    with pytest.raises(BudgetExceeded):
        enumerate_cyclic_submodules(Z9, 2, tight)


def test_vector_budget_writes_huge_counts_as_powers():
    # 9^5000 has more digits than Python prints (4300): the refusal writes
    # the count as a power, and the bound is exact.
    with pytest.raises(BudgetExceeded, match=r"9\^5000 vectors"):
        brute_dual(LinearCode(Z9, 5000, []))
    with pytest.raises(BudgetExceeded, match=r"9\^8 vectors"):
        Budget(max_vectors=9**8 - 1).check_vectors(9, 8)
    Budget(max_vectors=9**8).check_vectors(9, 8)


def test_brute_dual_checks_its_budget_before_any_product(monkeypatch):
    calls = []
    coord_mul = oracle._coord_mul

    def counting_mul(a, b):
        calls.append(1)
        return coord_mul(a, b)

    monkeypatch.setattr(oracle, "_coord_mul", counting_mul)
    code = LinearCode(Z9, 2, [vec(1, 1)])
    with pytest.raises(BudgetExceeded):
        brute_dual(code, Budget(max_vectors=80))
    assert calls == []
    assert len(brute_dual(code, Budget(max_vectors=81))) == 9
    assert calls  # the count does see the dual's multiplies


# Test-only copies of the per-vector dual and the row-by-row span that
# brute_dual and brute_span replaced: the references they are checked against.


def _reference_dot(u, v):
    out = u[0].ring.zero
    for a, b in zip(u, v):
        out = oracle._coord_add(out, oracle._coord_mul(a, b))
    return out


def reference_dual(code):
    gens = code.generators or ((code.ring.zero,) * code.length,)
    out = set()
    for v in all_vectors(code.ring, code.length):
        if all(not _reference_dot(v, g) for g in gens):
            out.add(v)
    return frozenset(out)


def reference_span(ring, rows):
    if not rows:
        return frozenset()
    words = {(ring.zero,) * len(rows[0])}
    for g in rows:
        if g in words:
            continue
        scaled = [
            tuple([oracle._coord_mul(c, a) for a in g]) for c in ring.elements()
        ]
        fresh = set()
        for cg in scaled:
            for w in words:
                fresh.add(oracle._coord_vadd(w, cg))
        words = fresh
    return frozenset(words)


# (ring, largest length): Z512 = GR(2,1,9) is above the table cap.
REFERENCE_RINGS = [
    (Z9, 3),
    (eu_ring(3, 1, 2), 3),
    (galois_ring(2, 1, 3), 3),
    (galois_ring(2, 2, 2), 3),
    (galois_ring(2, 1, 9), 1),
]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dual_and_span_match_the_per_vector_references(data):
    ring, max_n = data.draw(st.sampled_from(REFERENCE_RINGS))
    n = data.draw(st.integers(1, max_n))
    entry = st.builds(
        lambda i, v: ring.element_at(i) * ring.theta_pow(v),
        st.integers(0, ring.size - 1),
        st.integers(0, ring.s),
    )
    rows = data.draw(
        st.one_of(
            st.just([]),  # no generators: the zero code
            st.just([(ring.zero,) * n]),  # a zero generator
            st.lists(st.tuples(*[entry] * n), max_size=3),
        )
    )
    code = LinearCode(ring, n, rows)
    assert brute_dual(code) == reference_dual(code)
    assert brute_span(ring, rows) == reference_span(ring, rows)


def test_brute_dual_of_codes_listing_every_codeword():
    # Each code carries all its codewords as rows: up to 729 of them, far
    # more than the composition length n*s = 6 of Z9^3.
    codes = enumerate_cyclic_submodules(Z9, 3)
    assert max(len(c.generators) for c in codes) == 9**3
    for code in codes:
        assert brute_dual(code) == reference_dual(code)


def test_brute_dual_walk_cost_does_not_grow_with_the_rows(monkeypatch):
    adds = []
    coord_add = oracle._coord_add

    def counting_add(a, b):
        adds.append(1)
        return coord_add(a, b)

    monkeypatch.setattr(oracle, "_coord_add", counting_add)
    n = 3
    code = LinearCode(Z9, n, list(all_vectors(Z9, n)))  # the full code
    assert len(brute_dual(code)) == 1
    # One add per kept row at each node of the walk, and at most n*s rows
    # are kept.
    nodes = sum(9**d for d in range(1, n + 1))
    assert len(adds) <= nodes * n * Z9.s
