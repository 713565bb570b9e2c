"""Tests for linear codes: standard form, duality, membership, weights."""

import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincodes import (
    LinearCode,
    SpecError,
    closure_code,
    constashift,
    eu_ring,
    extend,
    extend_code,
    full_code,
    galois_ring,
    intersect_codes,
    is_constacyclic,
    membership,
    res_subring_code,
    residue_code,
    sigma_image,
    sum_codes,
    trace_code,
    weight,
    zero_code,
)
from chaincodes import oracle

Z9 = galois_ring(3, 1, 2)


def z9_code(rows):
    return LinearCode(Z9, len(rows[0]), [[Z9.element([c]) for c in row] for row in rows])


def test_standard_form_type():
    c = z9_code([[1, 1], [0, 3]])
    assert c.type == (1, 1)
    assert c.rank == 2
    assert c.cardinality == 27
    assert z9_code([[3, 3]]).type == (0, 1)
    assert zero_code(Z9, 2).type == (0, 0)
    assert full_code(Z9, 2).type == (2, 0)


def test_type_independent_of_presentation():
    c1 = z9_code([[1, 2, 3]])
    c2 = z9_code([[2, 4, 6], [5, 10 % 9, 15 % 9]])
    assert c1.same_code(c2)
    assert c1.type == c2.type
    assert c1.sf_rows == c2.sf_rows


def test_membership_and_codewords():
    c = z9_code([[1, 1], [0, 3]])
    words = list(c.codewords())
    assert len(words) == c.cardinality == len(set(words))
    for w in words:
        assert membership(c, w)
    assert not membership(c, (Z9.element([1]), Z9.element([0])))


def test_dual_frozen_example():
    c = z9_code([[1, 1]])
    d = c.dual()
    assert d.same_code(z9_code([[1, 8]]))
    assert c.cardinality * d.cardinality == Z9.size**2


def test_dual_involution_and_type():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = [
            [rng.randrange(9) for _ in range(n)]
            for _ in range(rng.randint(0, 3))
        ]
        c = LinearCode(Z9, n, [[Z9.element([x]) for x in row] for row in rows])
        d = c.dual()
        assert c.cardinality * d.cardinality == Z9.size**n
        k = c.rank
        assert d.type == (n - k,) + tuple(reversed(c.type[1:]))
        assert d.dual().same_code(c)


def test_dual_matches_brute():
    c = z9_code([[1, 2, 3], [0, 3, 6]])
    assert oracle.same_words(c.dual(), oracle.brute_dual(c))


def test_constashift():
    v = tuple(Z9.element([x]) for x in (1, 2, 3))
    assert constashift(v, Z9.one) == tuple(Z9.element([x]) for x in (3, 1, 2))
    assert constashift(v, Z9.element([8])) == tuple(
        Z9.element([x]) for x in (6, 1, 2)
    )
    gamma = Z9.element([8])
    w = v
    for _ in range(3):
        w = constashift(w, gamma)
    assert w == tuple(gamma * a for a in v)
    with pytest.raises(SpecError):
        constashift(v, Z9.element([3]))


def test_is_constacyclic():
    rep = z9_code([[1, 1, 1, 1]])
    assert is_constacyclic(rep, Z9.one)
    assert not is_constacyclic(rep, Z9.element([8]))
    assert is_constacyclic(zero_code(Z9, 3), Z9.element([2]))


def constacyclic_by_decoding(code, gamma):
    """is_constacyclic on decoded rows: each standard-form row's
    constashift, re-encoded, in the code."""
    return all(constashift(g, gamma) in code for g in code.sf_rows)


CONSTA_RINGS = [
    Z9,
    eu_ring(3, 1, 2),
    galois_ring(2, 2, 2),
    galois_ring(3, 2, 2),  # no byte lanes
    galois_ring(3, 2, 3),  # above the table cap
]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_is_constacyclic_matches_decoded_rows(data):
    # Codes spanned by a row's constashifts are gamma-constacyclic; the
    # same rows with one shift left out, or random rows, mostly are not.
    ring = data.draw(st.sampled_from(CONSTA_RINGS))
    n = data.draw(st.integers(1, 7))
    pick = st.integers(0, ring.size - 1).map(ring.element_at)
    units = st.integers(0, ring.size - 1).map(ring.element_at).filter(ring.is_unit)
    gamma = data.draw(units)
    v = tuple(data.draw(pick) for _ in range(n))
    shifts = [v]
    for _ in range(n - 1):
        shifts.append(constashift(shifts[-1], gamma))
    other = [tuple(data.draw(pick) for _ in range(n)) for _ in range(2)]
    codes = [
        LinearCode(ring, n, shifts),
        LinearCode(ring, n, shifts[:-1]),
        LinearCode(ring, n, other),
    ]
    assert is_constacyclic(codes[0], gamma)
    for code in codes:
        for g in (gamma, data.draw(units)):
            assert is_constacyclic(code, g) == constacyclic_by_decoding(code, g)
    with pytest.raises(SpecError):  # theta is not a unit
        is_constacyclic(full_code(ring, n), ring.theta)
    foreign = galois_ring(2, 1, 2) if ring is Z9 else Z9
    with pytest.raises(SpecError):
        is_constacyclic(codes[0], foreign.one)


def test_residue_code():
    c = z9_code([[3, 3]])
    assert residue_code(c).is_zero()
    f = residue_code(z9_code([[1, 4]]))
    assert f.cardinality == 3


def test_min_weight():
    assert z9_code([[1, 1, 1, 1]]).min_weight() == 4
    assert full_code(Z9, 3).min_weight() == 1
    assert z9_code([[1, 1], [0, 3]]).min_weight() == 1
    with pytest.raises(SpecError):
        zero_code(Z9, 2).min_weight()


def test_enumeration_leaves_no_reference_cycle():
    # Without the cyclic collector, a code is freed as soon as its last
    # reference goes: enumerating its codewords leaves no cycle behind.
    code = z9_code([[1, 1, 1], [0, 3, 6]])
    ref = weakref.ref(code)
    gc.disable()
    try:
        assert code.min_weight() == 2
        del code
        assert ref() is None
    finally:
        gc.enable()


def test_sum_and_intersection():
    c1 = z9_code([[1, 0]])
    c2 = z9_code([[0, 1]])
    assert sum_codes(c1, c2).same_code(full_code(Z9, 2))
    assert intersect_codes(c1, c2).is_zero()
    c3 = z9_code([[1, 1]])
    inter = intersect_codes(sum_codes(c1, c3), c3)
    assert inter.same_code(c3)


def test_galois_code_ops_small():
    ext = extend(Z9, 2)
    S = ext.top
    b = LinearCode(S, 2, [(S.one, ext.xi)])
    assert extend_code(ext, z9_code([[1, 1]])).cardinality == 81
    assert sigma_image(ext, b, 2).same_code(b)
    cl = closure_code(ext, b)
    assert sigma_image(ext, cl).same_code(cl)
    tc = trace_code(ext, b)
    assert tc.ring is Z9
    assert oracle.same_words(tc, oracle.brute_trace_code(ext, b))
    rs = res_subring_code(ext, b)
    assert oracle.same_words(rs, oracle.brute_res_subring(ext, b))


DELSARTE_EXTENSIONS = [
    extend(Z9, 2),
    extend(eu_ring(3, 1, 2), 2),
    extend(galois_ring(2, 1, 3), 2),
    extend(galois_ring(2, 1, 2), 2),
    extend(galois_ring(2, 1, 2), 3),
    extend(eu_ring(2, 1, 2), 3),
]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_trace_and_subring_codes_match_the_oracle(data):
    """Over extend(R, 2) for R in Z9, F3[u]/(u^2), Z8, Z4 and extend(R, 3)
    for R in Z4, F2[u]/(u^2): the trace and subring codes against brute
    force, and Delsarte's Tr(C)^perp = Res(C^perp)."""
    ext = data.draw(st.sampled_from(DELSARTE_EXTENSIONS))
    S = ext.top
    n = data.draw(st.integers(1, 2))
    entry = st.builds(
        lambda i, v: S.element_at(i) * S.theta_pow(v),
        st.integers(0, S.size - 1),
        st.integers(0, S.s),
    )
    b = LinearCode(S, n, data.draw(st.lists(st.tuples(*[entry] * n), max_size=2)))
    tr = trace_code(ext, b)
    assert oracle.same_words(tr, oracle.brute_trace_code(ext, b))
    assert oracle.same_words(
        res_subring_code(ext, b), oracle.brute_res_subring(ext, b)
    )
    assert tr.dual().same_code(res_subring_code(ext, b.dual()))


def test_budget_on_enumeration():
    from chaincodes import BudgetExceeded

    c = full_code(Z9, 4)
    with pytest.raises(BudgetExceeded):
        list(c.codewords(max_codewords=10))
