"""Tests for finite chain ring construction and arithmetic."""

import pytest

from chaincodes import (
    ChainRingSpec,
    SpecError,
    eu_ring,
    galois_ring,
    make_ring,
)


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
    res = R.residue_ring()
    assert res.size == 4 and res.s == 1
    for a in R.elements():
        for b in R.elements():
            assert R.residue(a * b) == res.fq.mul(R.residue(a), R.residue(b))


def test_spec_validation():
    with pytest.raises(SpecError):
        ChainRingSpec.from_json({"family": "GR", "p": 4, "r": 1, "s": 1})
    with pytest.raises(SpecError):
        ChainRingSpec.from_json({"family": "XX", "p": 3, "r": 1, "s": 1})
    with pytest.raises(SpecError):
        ChainRingSpec("GR", 3, 2, 1, (2, 0, 1)).validate()  # x^2+2 reducible


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


def test_spec_is_validated_once(monkeypatch):
    spec = ChainRingSpec.from_json({"family": "EU", "p": 2, "r": 2, "s": 2})
    ring = make_ring(spec)
    calls = []
    monkeypatch.setattr(ChainRingSpec, "validate", lambda spec: calls.append(spec))
    assert make_ring(spec) is ring  # a cache hit checks nothing again
    assert calls == []
    assert make_ring(spec.to_json()) is ring  # JSON input: from_json checks
    assert calls == [spec]


def test_unvalidated_spec_is_checked_on_first_build():
    with pytest.raises(SpecError):
        make_ring(ChainRingSpec("GR", 3, 2, 2, (2, 0, 1)))


def test_first_build_checks_irreducibility_twice(monkeypatch):
    # Once when the JSON spec is parsed, once when its ring is first built.
    from chaincodes import _polys

    calls = []
    check = _polys.is_irreducible_fp

    def counted(h, p):
        calls.append(h)
        return check(h, p)

    monkeypatch.setattr(_polys, "is_irreducible_fp", counted)
    make_ring('{"family":"EU","p":7,"r":2,"s":3,"modulus":[3,1,1]}')
    assert len(calls) == 2


def test_cache_hit_runs_no_modulus_search(monkeypatch):
    # The smallest-irreducible search runs once per (p, r); a cache hit
    # only re-checks the modulus when its JSON spec is parsed.
    from chaincodes import _polys

    spec = '{"family":"GR","p":5,"r":3,"s":2}'
    ring = make_ring(spec)
    calls = []
    check = _polys.is_irreducible_fp

    def counted(h, p):
        calls.append(h)
        return check(h, p)

    monkeypatch.setattr(_polys, "is_irreducible_fp", counted)
    assert make_ring(spec) is ring
    assert len(calls) <= 1


def test_prime_bound_rejected():
    from chaincodes._ints import PRIME_TEST_BOUND

    with pytest.raises(SpecError):
        ChainRingSpec("GR", PRIME_TEST_BOUND + 2, 1, 1, (0, 1)).validate()
    with pytest.raises(SpecError):
        ChainRingSpec.from_json({"family": "GR", "p": 10**25 + 13, "r": 1, "s": 1})
