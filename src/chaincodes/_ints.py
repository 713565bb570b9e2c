"""Small integer number-theory helpers (exact, desk scale)."""

from __future__ import annotations

from functools import cache


# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, 2015).
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality, exact for n < PRIME_TEST_BOUND;
    raises ValueError above it."""
    if n >= PRIME_TEST_BOUND:
        raise ValueError(f"primality of {n} is not certified above 3.3e24")
    if n < 2:
        return False
    for b in PRIME_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@cache
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((prime, exponent), ...)."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def integer_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def prime_power_base(n: int) -> int | None:
    """The prime p when n = p^k (k >= 1), else None: write n = m^k with k
    as large as possible, and p = m when m is prime."""
    if n < 2:
        return None
    for k in range(n.bit_length(), 0, -1):
        root = integer_root(n, k)
        if root**k == n:
            return root if is_prime(root) else None


def divisors(n: int) -> list[int]:
    out = [1]
    for p, e in factorize(n):
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def euler_phi(n: int) -> int:
    out = n
    for p, _ in factorize(n):
        out = out // p * (p - 1)
    return out


def order_dividing(n: int, is_one) -> int:
    """The order of x, given a multiple n of it and is_one(d) telling
    whether x^d = 1: the least divisor d of n with is_one(d), found one
    prime of factorize(n) at a time."""
    order = n
    for p, e in factorize(n):
        for _ in range(e):
            if not is_one(order // p):
                break
            order //= p
    return order


def multiplicative_order(a: int, n: int) -> int:
    """Least i >= 1 with a^i = 1 (mod n); requires gcd(a, n) = 1."""
    if n == 1:
        return 1
    a %= n
    from math import gcd

    if gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit modulo {n}")
    return order_dividing(euler_phi(n), lambda d: pow(a, d, n) == 1)
