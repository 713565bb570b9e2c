"""Tests for the concatenation map and contraction of cyclic codes."""

import itertools
import warnings
from math import gcd

import pytest

from chaincodes import (
    CyclotomicPartition,
    LinearCode,
    SingletonViolation,
    SpecError,
    concatenate,
    concatenation_code,
    context,
    contract_code,
    contract_dual,
    code_from_partition,
    constashift,
    cosets,
    eu_ring,
    full_code,
    galois_ring,
    make_partition,
    preimage_code,
    representatives,
    weight,
    zero_code,
)
from chaincodes import oracle

Z9 = galois_ring(3, 1, 2)
Z25 = galois_ring(5, 1, 2)
GR4 = galois_ring(2, 2, 2)  # GR(4, 2)
NEG = Z9.element([8])  # -1


def vec(*xs):
    return tuple(Z9.element([x]) for x in xs)


def paper_code_20():
    ctx = context(Z9, 20)
    p = make_partition(
        ctx.universe, 2, {0: 2, 1: 0, 2: 2, 4: 2, 5: 1, 10: 2, 11: 2}
    )
    return code_from_partition(ctx, p)


def test_concatenate_frozen():
    assert concatenate(vec(1, 2), NEG, 2) == vec(8, 7, 1, 2)
    v = vec(1, 2, 3)
    assert concatenate(v, Z9.one, 1) == v


def test_concatenate_commutes_with_shifts():
    for xs in [(1, 0, 4), (2, 2, 2), (5, 7, 0)]:
        v = vec(*xs)
        lhs = concatenate(constashift(v, NEG), NEG, 2)
        rhs = constashift(concatenate(v, NEG, 2), Z9.one)
        assert lhs == rhs


def test_concatenation_code():
    assert concatenation_code(zero_code(Z9, 2), NEG, 2).is_zero()
    big = concatenation_code(full_code(Z9, 2), NEG, 2)
    assert big.type == (2, 0) and big.length == 4
    with pytest.raises(SpecError):
        concatenation_code(full_code(Z9, 2), Z9.element([2]), 2)  # 2^2 != 1
    skew = LinearCode(Z9, 2, [vec(1, 2)])
    with pytest.raises(SpecError):
        concatenation_code(skew, Z9.one, 2)  # not 1-constacyclic


def test_contract_paper_instance_20():
    c = paper_code_20()
    assert c.type == (4, 2)
    res = contract_code(c, 2)
    assert res.gamma == NEG
    assert res.omega == 1
    k = res.code
    assert k.type == (4, 2)
    assert k.cardinality == 3**10
    assert oracle.brute_is_constacyclic(k, NEG)
    assert k.same_code(k.dual())  # self-dual
    assert contract_dual(res, 2).same_code(k)
    assert concatenation_code(k, NEG, 2).same_code(c)


def contractible_codes(ring, ell, u):
    """The zero code, then for each class omega mod u every code whose
    information cosets all lie in that class: those cosets take any level,
    the others level s."""
    ctx = context(ring, ell)
    s = ring.s

    def code(levels):
        return code_from_partition(ctx, make_partition(ctx.universe, s, levels))

    reps = representatives(ctx.universe)
    yield code(dict.fromkeys(reps, s))
    for omega in range(u):
        free = [
            min(c.members)
            for c in cosets(ctx.universe)
            if c.mod_u_image(u) == {omega}
        ]
        for levels in itertools.product(range(s + 1), repeat=len(free)):
            if min(levels, default=s) < s:
                assignment = dict.fromkeys(reps, s)
                assignment.update(zip(free, levels))
                yield code(assignment)


def contract_quietly(code, u):
    """contract_code without the warning for gcd(omega, u) > 1."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return contract_code(code, u)


def adjoint_pull_back_dual(result, u):
    """dual(K) the old way: build the dual of the star-dual cyclic code from
    its tilde dual, and pull it back through the adjoint of the
    gamma^(-1)-concatenation map, T(d) = sum_b gamma^(-(u-1-b)) d_b; the
    preimage is the dual of the span of T(d) over the rows d."""
    ring, n = result.code.ring, result.code.length
    ctx = context(ring, n * u)
    dual_big = code_from_partition(
        ctx, result.partition.star_dual(u).tilde_dual()
    )
    gamma = ring.inv(result.gamma)
    rows = []
    for d in dual_big.generators:
        row = [ring.zero] * n
        for b in range(u):
            scale = ring.pow(gamma, u - 1 - b)
            for j in range(n):
                row[j] = row[j] + scale * d[b * n + j]
        rows.append(row)
    return LinearCode(ring, n, rows).dual()


CONTRACTIBLE_CASES = [
    pytest.param(Z9, 20, 2, id="Z9-20-u2"),
    pytest.param(eu_ring(3, 1, 2), 20, 2, id="F3u2-20-u2"),
    pytest.param(galois_ring(3, 1, 3), 20, 2, id="Z27-20-u2"),
    pytest.param(Z25, 12, 4, id="Z25-12-u4"),
    pytest.param(GR4, 15, 3, id="GR4-15-u3"),
]


@pytest.mark.parametrize("ring,ell,u", CONTRACTIBLE_CASES)
def test_contract_dual_matches_dual(ring, ell, u):
    seen = set()
    for c in contractible_codes(ring, ell, u):
        res = contract_quietly(c, u)
        seen.add((res.omega, gcd(res.omega, u) > 1, res.code.is_zero()))
        got = contract_dual(res, u)
        assert got.same_code(res.code.dual())
        assert got.key() == adjoint_pull_back_dual(res, u).key()
    # every class, the zero code and a gcd(omega, u) > 1 case were seen
    assert {omega for omega, _, _ in seen} == set(range(u))
    assert any(zero for _, _, zero in seen)
    assert any(big and not zero for _, big, zero in seen)


@pytest.mark.parametrize("ring,ell,u", CONTRACTIBLE_CASES)
def test_carried_standard_forms_match_reduction(ring, ell, u):
    # contract_code, contract_dual and concatenation_code build their
    # standard form from the input's; reducing their generators again
    # gives the same rows and pivots, and the generators are the blocks
    # and concatenations of standard-form rows.
    for c in contractible_codes(ring, ell, u):
        res = contract_quietly(c, u)
        k, n = res.code, res.code.length
        big = concatenation_code(k, res.gamma, u)
        built = [k, contract_dual(res, u), big]
        if not k.is_zero():
            assert k.generators == tuple(g[-n:] for g in c.sf_rows)
            assert big.generators == tuple(
                concatenate(g, res.gamma, u) for g in k.sf_rows
            )
            assert big.same_code(c)
        for code in built:
            again = LinearCode(ring, code.length, code.generators)
            assert (code.sf_rows, code.pivots) == (again.sf_rows, again.pivots)
            assert code.type == again.type
            assert code.cardinality == again.cardinality


@pytest.mark.parametrize(
    "ring,ell,u",
    [
        pytest.param(Z25, 12, 4, id="Z25-12-u4"),
        pytest.param(GR4, 9, 3, id="GR4-9-u3"),
    ],
)
def test_contract_dual_matches_oracle(ring, ell, u):
    # n = 3, so the brute-force dual walks all of R^3
    for c in contractible_codes(ring, ell, u):
        res = contract_quietly(c, u)
        brute = oracle.brute_dual(res.code)
        assert oracle.same_words(contract_dual(res, u), brute)


def test_contract_zero_code():
    res = contract_code(zero_code(Z9, 20), 2)
    assert res.code.is_zero()
    assert res.gamma == Z9.one
    assert res.omega == 0


def test_contract_singleton_violation():
    ctx = context(Z9, 20)
    p = make_partition(
        ctx.universe, 2, {0: 2, 1: 0, 2: 0, 4: 2, 5: 2, 10: 2, 11: 2}
    )
    c = code_from_partition(ctx, p)
    with pytest.raises(SingletonViolation):
        contract_code(c, 2)


def test_contract_bad_u():
    with pytest.raises(SpecError):
        contract_code(zero_code(Z9, 20), 3)


def test_contract_derived_order_warning():
    # u = 4, information coset {2, 6} mod 8: omega = 2, gcd(2, 4) = 2
    ctx = context(Z9, 8)
    p = make_partition(ctx.universe, 2, {0: 2, 1: 2, 2: 0, 4: 2, 5: 2})
    c = code_from_partition(ctx, p)
    with pytest.warns(UserWarning, match="order"):
        res = contract_code(c, 4)
    assert Z9.multiplicative_order(res.gamma) == 2


@pytest.mark.parametrize("info_rep", [1, 3])
def test_contract_gamma_of_order_four(info_rep):
    # Over Z25 (q = 5) every class mod u = 4 is closed under z -> 5z, so
    # gamma = eta^(-omega * n) has order 4 and the sign of its exponent
    # matters, unlike gamma = -1.
    ring = galois_ring(5, 1, 2)
    ctx = context(ring, 8)
    levels = dict.fromkeys(representatives(ctx.universe), ring.s)
    levels[info_rep] = 0
    c = code_from_partition(ctx, make_partition(ctx.universe, ring.s, levels))
    res = contract_code(c, 4)
    assert res.omega == info_rep
    assert ring.multiplicative_order(res.gamma) == 4
    assert concatenation_code(res.code, res.gamma, 4).same_code(c)


def test_weight_relation():
    c = paper_code_20()
    res = contract_code(c, 2)
    for w in res.code.codewords():
        assert weight(concatenate(w, res.gamma, 2)) == 2 * weight(w)


def test_preimage_of_concatenation():
    k = LinearCode(Z9, 2, [vec(3, 0), vec(0, 3)])
    assert oracle.brute_is_constacyclic(k, NEG)
    big = concatenation_code(k, NEG, 2)
    assert preimage_code(big, NEG, 2).same_code(k)


def test_star_dual_of_the_paper_code():
    res = contract_code(paper_code_20(), 2)
    assert res.partition.star_dual(2) == res.partition


def test_degree_one_contraction_lists_no_base():
    # With m = 1, unembed and in_base are identities, as embed and trace
    # are: contracting over F_(3^10) at ell = 22 lists none of its 59049
    # elements.
    ring = galois_ring(3, 10, 1)
    ctx = context(ring, 22)
    assert ctx.ext.m == 1
    reps = representatives(ctx.universe)
    p = make_partition(ctx.universe, 1, {z: 0 if z % 2 else 1 for z in reps})
    code = code_from_partition(ctx, p)
    res = contract_code(code, 2)
    assert (res.omega, res.gamma) == (1, -ring.one)
    assert concatenation_code(res.code, res.gamma, 2).same_code(code)
    assert contract_dual(res, 2).same_code(res.code.dual())
    assert ctx.ext.unembed(res.gamma) is res.gamma
    assert not ctx.ext.in_base(Z9.one)
    assert "_inverse" not in vars(ctx.ext)


def test_contract_dual_checks_the_length():
    # The result contracts a length-20 code with u = 2; no other u fits.
    res = contract_code(paper_code_20(), 2)
    for u in (1, 3, 4):
        with pytest.raises(SpecError, match="not the length 20"):
            contract_dual(res, u)
