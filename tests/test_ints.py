"""Tests for the integer helpers."""

import time
from math import gcd, prod

import pytest
from deadline import deadline
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincodes import BudgetExceeded
from chaincodes._ints import (
    PRIME_TEST_BOUND,
    factorize,
    integer_root,
    is_prime,
    multiplicative_order,
    prime_power_base,
)


def trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(20000) if is_prime(n)] == [
        n for n in range(20000) if trial_division_is_prime(n)
    ]


def test_is_prime_rejects_pseudoprimes():
    assert not is_prime(561)  # Carmichael number
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    assert not is_prime(3825123056546413051)  # strong to bases 2..23


def test_is_prime_large():
    start = time.perf_counter()
    assert is_prime(10**18 + 3)
    assert not is_prime((10**9 + 7) * (10**9 + 9))
    assert is_prime(2**61 - 1)
    assert time.perf_counter() - start < 0.5
    with pytest.raises(ValueError):
        is_prime(PRIME_TEST_BOUND)


def trial_division_factorize(n):
    out, d = [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=10**12 - 1))
def test_factorize_agrees_with_trial_division(n):
    assert factorize(n) == trial_division_factorize(n)


def test_factorize_splits_three_to_the_m_minus_one():
    # 3^70 - 1 has the prime factors 2664097031 and 374857981681 above the
    # trial bound: trial division up to its square root did not return
    # within 20 s.
    with deadline(5):
        assert factorize(3**70 - 1)[-2:] == ((2664097031, 1), (374857981681, 1))
        for m in range(1, 61):
            fac = factorize(3**m - 1)
            assert prod(p**e for p, e in fac) == 3**m - 1
            assert all(is_prime(p) for p, _ in fac)
            assert [p for p, _ in fac] == sorted({p for p, _ in fac})


def test_factorize_refuses_what_it_cannot_split_or_certify():
    # Two primes near 2^40.5 are beyond the rho step budget; 2^89 - 1 is a
    # prime above the certified range; their product with another prime
    # is composite, but rho splits neither within the budget.
    p, q = 1649267441681, 1374389534747
    assert is_prime(p) and is_prime(q)
    mersenne = 2**89 - 1
    with deadline(5):
        for n in (p * q, mersenne, 3 * mersenne, (2**61 - 1) * mersenne):
            with pytest.raises(BudgetExceeded):
                factorize(n)


def test_prime_power_base_agrees_with_factorize():
    for q in range(10**4):
        fac = factorize(q) if q > 1 else ()
        assert prime_power_base(q) == (fac[0][0] if len(fac) == 1 else None)


def test_prime_power_base_large():
    start = time.perf_counter()
    assert prime_power_base(10**18 + 3) == 10**18 + 3
    assert prime_power_base((2**61 - 1) ** 3) == 2**61 - 1
    assert prime_power_base(3**100) == 3
    assert prime_power_base(6**30) is None
    assert prime_power_base((10**9 + 7) * (10**9 + 9)) is None
    assert prime_power_base(10**30) is None  # above PRIME_TEST_BOUND
    assert time.perf_counter() - start < 0.5


def test_integer_root():
    for n in range(1, 3000):
        for k in range(1, 12):
            root = integer_root(n, k)
            assert root**k <= n < (root + 1) ** k
    assert integer_root(10**40 + 1, 4) == 10**10
    assert integer_root(10**40 - 1, 4) == 10**10 - 1


def test_multiplicative_order_is_the_first_power_at_one():
    for n in range(1, 200):
        for a in range(n):
            if gcd(a, n) != 1:
                continue
            order, power = 1, a % n
            while power != 1 % n:
                order, power = order + 1, power * a % n
            assert multiplicative_order(a, n) == order
