"""Tests for finite chain ring construction and arithmetic."""

import json
import operator
import random
import time

import pytest
from fq_reference import reference_field
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincodes import (
    BudgetExceeded,
    ChainRingSpec,
    SpecError,
    eu_ring,
    extend,
    galois_ring,
    make_ring,
)
from chaincodes.chainring import DEGREE_CAP, HENSEL_CAP

# Both families at p in {2, 3, 5}, r in {1, 2}, s in {1, 2, 3}: table rings
# and rings above chainring.TABLE_CAP (up to 5^6 elements).
RANDOM_RINGS = [
    make(p, r, s)
    for make in (galois_ring, eu_ring)
    for p in (2, 3, 5)
    for r in (1, 2)
    for s in (1, 2, 3)
]


def test_z9_basics():
    R = galois_ring(3, 1, 2)
    assert R.q == 3 and R.size == 9
    a = R.element([5])
    b = R.element([7])
    assert (a + b).coords == (3,)
    assert (a * b).coords == (8,)
    assert (-a).coords == (4,)
    assert (a ** 2).coords == (7,)


def test_eu_basics():
    # F_3[u]/(u^2): theta = u, u^2 = 0
    R = eu_ring(3, 1, 2)
    u = R.theta
    assert not u * u
    one = R.one
    # (1 + u)(1 - u) = 1
    assert (one + u) * (one - u) == one
    assert R.size == 9


def test_interning():
    R = galois_ring(3, 1, 2)
    assert R.element([5]) is R.element([14 % 9])
    assert R.element([0]) is R.zero


@pytest.mark.parametrize(
    "a,b",
    [
        # Z9 [4] * F3[u]/(u^2) [1, 1] must not read [1, 1] as Z9's [1] (= [7]).
        (galois_ring(3, 1, 2).element([4]), eu_ring(3, 1, 2).element([1, 1])),
        (galois_ring(3, 1, 2).one, galois_ring(3, 1, 3).one),
        (galois_ring(3, 4, 2).theta, eu_ring(3, 4, 2).theta),  # above the cap
    ],
)
def test_operands_from_another_ring_are_refused(a, b):
    for op in (operator.add, operator.sub, operator.mul):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(SpecError, match="another ring"):
                op(x, y)


def test_teichmuller_z9():
    R = galois_ring(3, 1, 2)
    assert [b.coords for b in R.teichmuller_set()] == [(0,), (1,), (8,)]
    for b in R.teichmuller_set():
        assert b ** 3 == b


def test_theta_adic_z9():
    R = galois_ring(3, 1, 2)
    digits = R.theta_adic_expansion(R.element([2]))
    assert [d.coords for d in digits] == [(8,), (1,)]
    digits = R.theta_adic_expansion(R.element([5]))
    assert [d.coords for d in digits] == [(8,), (8,)]


@pytest.mark.parametrize(
    "ring",
    [
        galois_ring(3, 1, 2),
        eu_ring(3, 1, 2),
        galois_ring(2, 2, 2),
        eu_ring(2, 2, 2),
        galois_ring(2, 1, 3),
    ],
)
def test_theta_adic_round_trip(ring):
    for a in ring.elements():
        digits = ring.theta_adic_expansion(a)
        assert len(digits) == ring.s
        assert all(d in ring.teichmuller_set() for d in digits)
        assert ring.recompose(digits) == a


@pytest.mark.parametrize("ring", [galois_ring(3, 1, 2), eu_ring(2, 2, 2)])
def test_units(ring):
    units = [a for a in ring.elements() if ring.is_unit(a)]
    assert len(units) == ring.unit_group_order()
    for a in units:
        assert a * ring.inv(a) == ring.one
    with pytest.raises(ZeroDivisionError):
        ring.inv(ring.theta if ring.s > 1 else ring.zero)


def test_theta_valuation_and_shift():
    R = galois_ring(3, 1, 2)
    assert R.theta_valuation(R.zero) == 2
    assert R.theta_valuation(R.element([3])) == 1
    assert R.theta_valuation(R.element([5])) == 0
    assert R.theta_shift_down(R.element([6])).coords == (2,)
    with pytest.raises(SpecError):
        R.theta_shift_down(R.element([1]))


def test_canonical_modulus():
    # lexicographically smallest monic irreducibles, low degree first
    assert galois_ring(3, 2, 1).spec.modulus == (1, 0, 1)  # x^2 + 1
    assert galois_ring(2, 2, 1).spec.modulus == (1, 1, 1)  # x^2 + x + 1


def test_gr_hensel_modulus_divides_unity():
    R = galois_ring(2, 2, 2)
    # the lifted modulus has a root of multiplicative order q - 1 = 3
    x = R.make((0, 1))
    assert x ** 3 == R.one


def test_residue_field():
    R = galois_ring(2, 2, 2)
    assert R.residue(R.one) == 1
    res = R.field
    assert res.size == 4 and res.s == 1
    fq = reference_field(res)
    for a in R.elements():
        for b in R.elements():
            assert R.residue(a * b) == fq.mul(R.residue(a), R.residue(b))


def eu_reference_mul(fq, x, y):
    """The product in F_q[u]/(u^s), coordinates as FqArith integers."""
    out = [0] * len(x)
    for i, a in enumerate(x):
        for j in range(len(x) - i):
            out[i + j] = fq.add(out[i + j], fq.mul(a, y[j]))
    return tuple(out)


def eu_reference_inv(fq, x):
    """The inverse power series b of x mod u^s: b_0 = 1/x_0 and
    b_k = -b_0 * sum_(i=1..k) x_i b_(k-i)."""
    b = [fq.inv(x[0])]
    for k in range(1, len(x)):
        acc = 0
        for i in range(1, k + 1):
            acc = fq.add(acc, fq.mul(x[i], b[k - i]))
        b.append(fq.neg(fq.mul(b[0], acc)))
    return tuple(b)


def int_scale(fq, k, x):
    return fq.from_coeffs([k * c for c in fq.to_coeffs(x)])


def reference_lift(ring, fq, c):
    if ring.family == "EU":
        return (c,) + (0,) * (ring.s - 1)
    return tuple(fq.to_coeffs(c))


def check_field_arithmetic(ring, pairs):
    """+, -, *, int_mul, inv, residue and lift against FqArith on the given
    pairs: exactly for EU, whose coordinates are F_q integers, and through
    the residue map for GR."""
    fq = reference_field(ring)
    res = ring.residue
    for a, b in pairs:
        if ring.family == "EU":
            x, y = a.coords, b.coords
            assert (a + b).coords == tuple(map(fq.add, x, y))
            assert (a - b).coords == tuple(map(fq.add, x, map(fq.neg, y)))
            assert (a * b).coords == eu_reference_mul(fq, x, y)
            assert res(a) == x[0]
        else:
            assert res(a) == fq.from_coeffs(a.coords)
            assert res(a + b) == fq.add(res(a), res(b))
            assert res(a - b) == fq.add(res(a), fq.neg(res(b)))
            assert res(a * b) == fq.mul(res(a), res(b))
        assert ring.lift(res(a)).coords == reference_lift(ring, fq, res(a))
        for k in (-ring.p - 1, -1, 0, 2, ring.p + 2):
            scaled = ring.int_mul(k, a)
            if ring.family == "EU":
                assert scaled.coords == tuple(int_scale(fq, k, x) for x in a.coords)
            else:
                assert res(scaled) == int_scale(fq, k, res(a))
        if res(a):
            inv = ring.inv(a)
            assert a * inv is ring.one
            assert res(inv) == fq.inv(res(a))
            if ring.family == "EU":
                assert inv.coords == eu_reference_inv(fq, a.coords)


@pytest.mark.parametrize(
    "ring",
    [
        eu_ring(3, 1, 2),
        eu_ring(2, 2, 2),
        eu_ring(3, 2, 2),
        galois_ring(2, 2, 2),
        galois_ring(3, 2, 2),
    ],
)
def test_field_arithmetic_on_every_pair(ring):
    elems = ring.elements()
    check_field_arithmetic(ring, [(a, b) for a in elems for b in elems])
    fq = reference_field(ring)
    for c in range(ring.q):
        assert ring.lift(c).coords == reference_lift(ring, fq, c)
        assert ring.residue(ring.lift(c)) == c


@pytest.mark.parametrize(
    "ring",
    [eu_ring(3, 4, 2), eu_ring(3, 6, 2), eu_ring(2, 3, 3), galois_ring(3, 4, 2)],
)
def test_field_arithmetic_on_samples(ring):
    rng = random.Random(20170129)
    elems = [ring.element_at(rng.randrange(ring.size)) for _ in range(400)]
    check_field_arithmetic(ring, list(zip(elems[::2], elems[1::2])))


@pytest.mark.parametrize(
    "ring", [eu_ring(3, 2, 2), galois_ring(3, 4, 2), galois_ring(2, 3, 1)]
)
def test_field_is_the_galois_ring_of_degree_one(ring):
    assert ring.field is galois_ring(ring.p, ring.r, 1)
    assert ring.field.field is ring.field


def test_spec_validation():
    with pytest.raises(SpecError):
        ChainRingSpec.from_json({"family": "GR", "p": 4, "r": 1, "s": 1})
    with pytest.raises(SpecError):
        ChainRingSpec.from_json({"family": "XX", "p": 3, "r": 1, "s": 1})
    with pytest.raises(SpecError):
        ChainRingSpec("GR", 3, 2, 1, (2, 0, 1))  # x^2+2 reducible


def test_spec_json_round_trip():
    spec = ChainRingSpec.from_json('{"family":"GR","p":3,"r":1,"s":2}')
    ring = make_ring(spec)
    assert ring is galois_ring(3, 1, 2)
    again = ChainRingSpec.from_json(spec.to_json())
    assert again == spec


def test_multiplicative_order():
    R = galois_ring(3, 1, 2)
    assert R.multiplicative_order(R.element([8])) == 2
    assert R.multiplicative_order(R.element([2])) == 6
    with pytest.raises(ValueError):
        R.multiplicative_order(R.element([3]))


@pytest.mark.parametrize(
    "ring",
    [
        galois_ring(3, 1, 2),  # Z9
        eu_ring(3, 1, 2),  # F3[u]/(u^2)
        galois_ring(2, 1, 3),  # Z8
        galois_ring(2, 2, 2),  # GR(4, 2)
    ],
)
def test_multiplicative_order_is_the_first_power_at_one(ring):
    for a in ring.elements():
        if not ring.is_unit(a):
            continue
        order, power = 1, a
        while power is not ring.one:
            order, power = order + 1, power * a
        assert ring.multiplicative_order(a) == order


def test_multiplicative_order_in_a_large_unit_group(monkeypatch):
    # 3 has order 2^38 in Z/2^40; a bounded number of products finds it.
    from chaincodes.chainring import ChainRing

    ring = galois_ring(2, 1, 40)
    calls = []
    mul = ChainRing._mul_coords

    def counted(self, a, b):
        calls.append(None)
        if len(calls) > 2000:
            raise AssertionError("order search steps through the group")
        return mul(self, a, b)

    monkeypatch.setattr(ChainRing, "_mul_coords", counted)
    start = time.perf_counter()
    assert ring.multiplicative_order(ring.element([3])) == 2**38
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("ring", [eu_ring(3, 1, 2), eu_ring(2, 2, 2), eu_ring(3, 2, 2)])
def test_int_mul_is_the_repeated_sum(ring):
    for a in ring.elements():
        for k in range(-2 * ring.p, 2 * ring.p + 1):
            total = ring.zero
            for _ in range(abs(k)):
                total = total + a
            assert ring.int_mul(k, a) is (total if k >= 0 else -total)


def test_hensel_lift_is_refused_over_the_cap(monkeypatch):
    # GR(3^9, 2) would lift its modulus from the dense X^19682 - 1; a lift
    # that starts fails at once instead of running for minutes.
    from chaincodes import _polys

    def lift_nothing(hbar, p, s):
        raise AssertionError("modulus lifted over the cap")

    monkeypatch.setattr(_polys, "hensel_lift_modulus", lift_nothing)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        galois_ring(3, 9, 2)
    with pytest.raises(BudgetExceeded):
        make_ring({"family": "GR", "p": 3, "r": 20, "s": 2})
    assert time.perf_counter() - start < 1.0
    assert galois_ring(3, 9, 1).q == 3**9  # a field lifts nothing


def test_hensel_cap_is_checked_before_the_modulus_search(monkeypatch):
    # ell = 1009 over Z9 needs GR(3^168, 2), whose modulus search alone ran
    # past 20 s before the cap was checked; a search that starts fails.
    # Over F3[u]/(u^2) it needs EU(3^168, 2), which lifts no modulus: the
    # degree cap refuses it, and any ring of degree over DEGREE_CAP.
    from chaincodes import _polys

    z9, f3u = galois_ring(3, 1, 2), eu_ring(3, 1, 2)

    def search_nothing(p, r):
        raise AssertionError("modulus searched for a ring over the cap")

    monkeypatch.setattr(_polys, "smallest_irreducible", search_nothing)
    start = time.perf_counter()
    over = [("GR", 3, 168, 2), ("GR", 3, 9, 2), ("GR", 2, 10**9, 2)]
    over += [("EU", 3, 168, 2), ("EU", 3, 168, 1), ("GR", 3, 168, 1)]
    over += [(f, 3, DEGREE_CAP + 1, s) for f in ("GR", "EU") for s in (1, 2)]
    for family, p, r, s in over:
        with pytest.raises(BudgetExceeded):
            ChainRingSpec(family, p, r, s)
        doc = {"family": family, "p": p, "r": r, "s": s, "modulus": [1]}
        with pytest.raises(BudgetExceeded):
            make_ring(doc)
    for ring in (z9, f3u):
        with pytest.raises(BudgetExceeded):
            extend(ring, 168)
    assert time.perf_counter() - start < 1.0


def count_irreducibility_tests(monkeypatch) -> list:
    """The polynomials that _polys.is_irreducible_fp is called on from now."""
    from chaincodes import _polys

    calls = []
    check = _polys.is_irreducible_fp

    def counted(h, p):
        calls.append(h)
        return check(h, p)

    monkeypatch.setattr(_polys, "is_irreducible_fp", counted)
    return calls


def test_spec_is_validated_once(monkeypatch):
    # A spec is checked when it is made: building the ring of a spec, or
    # hitting the cache with it, checks nothing again.
    doc = {"family": "EU", "p": 2, "r": 2, "s": 2, "modulus": [1, 1, 1]}
    spec = ChainRingSpec.from_json(doc)
    calls = count_irreducibility_tests(monkeypatch)
    ring = make_ring(spec)
    assert make_ring(spec) is ring
    assert calls == []
    assert make_ring(doc) is ring  # JSON input: parsing makes a spec
    assert calls == [spec.modulus]


def test_unvalidated_spec_is_checked_on_first_build():
    with pytest.raises(SpecError):
        make_ring(ChainRingSpec("GR", 3, 2, 2, (2, 0, 1)))


def test_given_modulus_checks_irreducibility_once(monkeypatch):
    # Once, when the JSON spec is parsed; building its ring checks nothing.
    calls = count_irreducibility_tests(monkeypatch)
    make_ring('{"family":"EU","p":7,"r":2,"s":3,"modulus":[3,1,1]}')
    assert len(calls) == 1


def test_cache_hit_runs_no_modulus_search(monkeypatch):
    # The smallest-irreducible search runs once per (p, r), so parsing a
    # spec without a modulus again tests no polynomial.
    spec = '{"family":"GR","p":5,"r":3,"s":2}'
    ring = make_ring(spec)
    calls = count_irreducibility_tests(monkeypatch)
    assert make_ring(spec) is ring
    assert calls == []


def test_residue_field_does_not_retest_the_modulus(monkeypatch):
    # extend(Z9, 6) searches GR(3^6, 2)'s modulus, testing 5 candidates;
    # its residue field GR(3^6, 1), built on that modulus, tests none.
    # Fresh caches make every test a real computation.
    from functools import cache

    from chaincodes import _polys, chainring
    from chaincodes.galois import GaloisExtension

    computed = []
    test = _polys._is_irreducible_monic.__wrapped__

    def counted(h, p):
        computed.append(h)
        return test(h, p)

    monkeypatch.setattr(_polys, "_is_irreducible_monic", cache(counted))
    search = _polys.smallest_irreducible.__wrapped__
    monkeypatch.setattr(_polys, "smallest_irreducible", cache(search))
    monkeypatch.setattr(chainring, "_ring_of", cache(chainring.ChainRing))
    ext = GaloisExtension(galois_ring(3, 1, 2), 6)
    assert ext.top.field.spec.modulus == ext.top.spec.modulus
    assert len(computed) == 5


@pytest.mark.parametrize(
    "spec, other",
    [
        (
            {"family": "GR", "p": 3, "r": 1, "s": 2, "modulus": [-1, 1]},
            {"family": "GR", "p": 3, "r": 1, "s": 2, "modulus": [2, 1]},
        ),
        (
            {"family": "GR", "p": 3, "r": 2, "s": 2, "modulus": [2, 2, 4]},
            {"family": "GR", "p": 3, "r": 2, "s": 2, "modulus": [2, 2, 1]},
        ),
        (
            {"family": "EU", "p": 5, "r": 2, "s": 2, "modulus": [7, -1, 6]},
            {"family": "EU", "p": 5, "r": 2, "s": 2, "modulus": [2, 4, 1]},
        ),
    ],
)
def test_one_ring_per_spelling_of_a_modulus(spec, other):
    ring = make_ring(spec)
    assert make_ring(other) is ring
    assert ChainRingSpec.from_json(spec) == ChainRingSpec.from_json(other)
    assert ring.spec.modulus == tuple(other["modulus"])
    if ring.family == "GR":
        # The lift of the reduced modulus is monic.
        assert ring.lifted_modulus[-1] == 1
        assert [c % ring.p for c in ring.lifted_modulus] == other["modulus"]


def test_prime_bound_rejected():
    from chaincodes._ints import PRIME_TEST_BOUND

    with pytest.raises(SpecError):
        ChainRingSpec("GR", PRIME_TEST_BOUND + 2, 1, 1, (0, 1))
    with pytest.raises(SpecError):
        ChainRingSpec.from_json({"family": "GR", "p": 10**25 + 13, "r": 1, "s": 1})


@st.composite
def ring_elements(draw, count):
    ring = draw(st.sampled_from(RANDOM_RINGS))
    index = st.integers(0, ring.size - 1)
    return ring, [ring.element_at(draw(index)) for _ in range(count)]


@settings(max_examples=300, deadline=None)
@given(ring_elements(3))
def test_chain_ring_axioms(case):
    ring, (a, b, c) = case
    zero, one, s = ring.zero, ring.one, ring.s
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and not a * zero
    assert not a + (-a) and a - b == a + (-b)
    # The ideals form the chain R theta^t: valuations add up to s.
    assert not ring.pow(ring.theta, s) and ring.pow(ring.theta, s - 1)
    va, vb = ring.theta_valuation(a), ring.theta_valuation(b)
    assert ring.theta_valuation(a * b) == min(s, va + vb)
    assert ring.is_unit(a) == (va == 0)
    if va == 0:
        assert a * ring.inv(a) == one
    assert ring.recompose(ring.theta_adic_expansion(a)) == a


def fixed_point_teichmuller(ring, a):
    """The Teichmuller lift as the limit of a, a^q, a^(q^2), ..."""
    b = a
    while True:
        c = ring.pow(b, ring.q)
        if c == b:
            return b
        b = c


@settings(max_examples=300, deadline=None)
@given(ring_elements(1))
def test_teichmuller_closed_form(case):
    ring, (a,) = case
    b = ring.teichmuller(a)
    assert b == fixed_point_teichmuller(ring, a)
    assert ring.pow(b, ring.q) == b
    assert ring.residue(b) == ring.residue(a)


@pytest.mark.parametrize("ring", RANDOM_RINGS, ids=lambda ring: ring.short_name())
def test_teichmuller_set_has_one_element_per_residue(ring):
    teich = ring.teichmuller_set()
    assert [ring.residue(b) for b in teich] == list(range(ring.q))
    assert all(ring.pow(b, ring.q) == b for b in teich)


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 9)
    | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def ring_spec_docs(draw):
    """Ring-spec objects with each field drawn from good and bad values."""
    doc = {
        "family": draw(st.sampled_from(["GR", "EU"]) | JSON_VALUES),
        "p": draw(st.sampled_from([2, 3, 4, 5]) | JSON_VALUES),
        "r": draw(st.integers(-1, 4) | st.just(DEGREE_CAP + 1) | JSON_VALUES),
        "s": draw(st.integers(-1, 4) | JSON_VALUES),
        "modulus": draw(st.lists(st.integers(-2, 6), max_size=5) | JSON_VALUES),
    }
    for key in draw(st.sets(st.sampled_from(sorted(doc)))):
        del doc[key]
    return doc


@settings(max_examples=200, deadline=None)
@given(
    ring_spec_docs()
    | ring_spec_docs().map(json.dumps)
    | JSON_VALUES
    | st.text(max_size=12)
)
def test_ring_spec_json_raises_only_spec_error(doc):
    # ... or BudgetExceeded, for exactly the specs over the degree cap and
    # the GR specs whose modulus lift is over the Hensel cap.
    try:
        spec = ChainRingSpec.from_json(doc)
    except SpecError:
        return
    except BudgetExceeded:
        doc = json.loads(doc) if isinstance(doc, str) else doc
        if doc["r"] > DEGREE_CAP:
            return
        assert doc["family"] == "GR" and min(doc["r"], doc["s"]) >= 2
        assert doc["p"] ** doc["r"] > HENSEL_CAP
        return
    assert ChainRingSpec.from_json(spec.to_json()) == spec
    assert ChainRingSpec.from_json(json.dumps(spec.to_json())) == spec


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"family": "GR", "p": 3, "r": 0, "s": 1}, "r must be >= 1"),
        ({"family": "GR", "p": 4, "r": 2, "s": 1}, "p = 4 is not prime"),
        ({"family": "GR", "p": 3, "r": 1.7, "s": 1}, "r must be an integer"),
        ({"family": "GR", "p": True, "r": 1, "s": 1}, "p must be an integer"),
        ({"family": "GR", "p": 3, "r": 2}, "ring spec has no 's'"),
        ({"family": "GR", "p": 3, "r": 2, "s": 1, "modulus": [1, 0.5, 1]}, "modulus"),
        ("[3]", "must be a JSON object"),
        ("{", "malformed ring spec"),
    ],
)
def test_ring_spec_rejected_before_modulus_search(monkeypatch, doc, message):
    from chaincodes import _polys

    def search_nothing(p, r):
        raise AssertionError("modulus search ran on an unchecked spec")

    monkeypatch.setattr(_polys, "smallest_irreducible", search_nothing)
    with pytest.raises(SpecError, match=message):
        ChainRingSpec.from_json(doc)
    if isinstance(doc, dict) and set(doc) == {"family", "p", "r", "s"}:
        with pytest.raises(SpecError, match=message):
            ChainRingSpec(**doc)
