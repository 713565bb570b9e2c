"""The early-exit irreducibility test and the modulus search, against
trial division."""

import time

from chaincodes import _polys, make_ring


def trial_division_irreducible(h, p):
    """Reference: no monic divisor of degree 1..r//2 divides h."""
    h = _polys.trim([c % p for c in h])
    r = len(h) - 1
    if r < 1:
        return False
    for d in range(1, r // 2 + 1):
        for idx in range(p**d):
            cand = []
            for _ in range(d):
                idx, c = divmod(idx, p)
                cand.append(c)
            if not _polys.mod_unit_lead(h, cand + [1], p):
                return False
    return True


def monic_polys(p, r):
    for idx in range(p**r):
        coeffs = []
        for _ in range(r):
            idx, c = divmod(idx, p)
            coeffs.append(c)
        yield coeffs + [1]


def reference_smallest_irreducible(p, r):
    """The lexicographic search over every (c_0, ..., c_{r-1}), c_0 most
    significant, by trial division."""
    if r == 1:
        return (0, 1)
    for idx in range(p**r):
        digits = []
        for _ in range(r):
            idx, c = divmod(idx, p)
            digits.append(c)
        cand = digits[::-1] + [1]
        if trial_division_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError("no irreducible found")


def test_irreducibility_matches_trial_division():
    for p, top in ((2, 6), (3, 6), (5, 5)):
        for r in range(1, top + 1):
            for h in monic_polys(p, r):
                assert _polys.is_irreducible_fp(h, p) == trial_division_irreducible(
                    h, p
                ), (p, h)


def test_irreducibility_accepts_a_non_monic_lead():
    # 2x^2 + 2 = 2(x^2 + 1) over F_3.
    assert _polys.is_irreducible_fp([2, 0, 2], 3)
    assert not _polys.is_irreducible_fp([2, 0, 1], 3)


def test_smallest_irreducible_unchanged():
    # Every p^r <= 3^8; a prime above 81 has only r = 1, where both give x.
    primes = [p for p in range(2, 82) if all(p % d for d in range(2, p))]
    for p in primes:
        r = 1
        while p**r <= 3**8:
            search = _polys.smallest_irreducible.__wrapped__
            assert search(p, r) == reference_smallest_irreducible(p, r), (p, r)
            r += 1


def test_large_residue_fields_build_quickly():
    for spec in (
        '{"family":"GR","p":1000000007,"r":2,"s":1}',
        '{"family":"EU","p":2,"r":24,"s":1}',
    ):
        _polys.smallest_irreducible.cache_clear()
        start = time.perf_counter()
        ring = make_ring(spec)
        assert time.perf_counter() - start < 1.0
        assert _polys.is_irreducible_fp(ring.spec.modulus, ring.p)
