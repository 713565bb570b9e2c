"""Small integer number-theory helpers (exact, desk scale)."""

from __future__ import annotations

from functools import cache
from math import gcd

from .errors import BudgetExceeded


# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, 2015).
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality, exact for n < PRIME_TEST_BOUND;
    raises ValueError above it."""
    if n >= PRIME_TEST_BOUND:
        raise ValueError(f"primality of {n} is not certified above 3.3e24")
    return _strong_probable_prime(n)


def _strong_probable_prime(n: int) -> bool:
    """Miller-Rabin to the PRIME_BASES: False means n is composite (or
    below 2) at any size, True that n is prime below PRIME_TEST_BOUND."""
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
    """Prime factorization of n >= 1 as ((prime, exponent), ...): trial
    division below 10^4, then Pollard-Brent rho, each factor certified by
    is_prime.  A factor that rho cannot split within its step budget, or
    that cannot be certified prime (at or above PRIME_TEST_BOUND), raises
    BudgetExceeded."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out, d = {}, 2
    while d < 10**4 and d * d <= n:
        while n % d == 0:
            n //= d
            out[d] = out.get(d, 0) + 1
        d += 1 if d == 2 else 2
    stack = [n] if n > 1 else []
    while stack:  # no f here has a prime factor below d
        f = stack.pop()
        if f < PRIME_TEST_BOUND and is_prime(f):
            out[f] = out.get(f, 0) + 1
        elif _strong_probable_prime(f):
            raise BudgetExceeded(
                f"factoring: {f} is not certified prime above 3.3e24"
            )
        else:
            part = _rho_divisor(f)
            stack += [part, f // part]
    return tuple(sorted(out.items()))


def _rho_divisor(n: int) -> int:
    """A proper divisor of the odd composite n by Pollard-Brent rho (Brent,
    1980), with x -> x^2 + c for c = 1, 2, ... in turn; raises
    BudgetExceeded before it would take more than 2^18 steps in all (about
    0.1 s), which as a rule finds a prime factor below about 2^36."""
    steps = 1 << 18
    for c in range(1, n):
        y, power, product, g = 2, 1, 1, 1
        while g == 1:
            steps -= 2 * power
            if steps < 0:
                raise BudgetExceeded(
                    f"factoring: Pollard-Brent rho split no factor of {n} "
                    "within its step budget"
                )
            x = y  # the walk's value at the last power of two
            for _ in range(power):
                y = (y * y + c) % n
            done = 0
            while done < power and g == 1:
                saved = y
                for _ in range(min(128, power - done)):
                    y = (y * y + c) % n
                    product = product * (x - y) % n
                g = gcd(product, n)
                done += 128
            power *= 2
        if g == n:  # the batch overshot: step through it one gcd at a time
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = gcd(x - saved, n)
        if g != n:
            return g


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
    if gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit modulo {n}")
    return order_dividing(euler_phi(n), lambda d: pow(a, d, n) == 1)
