"""Dense polynomial arithmetic over Z/n, plus F_p utilities.

Polynomials are lists of integer coefficients, lowest degree first.
All functions but ``smallest_irreducible`` return trimmed lists (no
trailing zeros).
"""

from __future__ import annotations

from functools import cache

from .errors import SpecError


def trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def add(a, b, n):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % n
    return trim(out)


def sub(a, b, n):
    return add(a, [(-c) % n for c in b], n)


def mul(a, b, n):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return trim([c % n for c in out])


def scalar_mul(k, a, n):
    return trim([(k * c) % n for c in a])


def divmod_unit_lead(a, b, n):
    """Quotient and remainder of a by b where b's leading coefficient is a
    unit mod n."""
    b = list(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    lead_inv = pow(b[-1], -1, n)
    r = [c % n for c in a]
    trim(r)
    q = [0] * max(len(r) - len(b) + 1, 0)
    while len(r) >= len(b):
        k = len(r) - len(b)
        c = (r[-1] * lead_inv) % n
        q[k] = c
        for i, cb in enumerate(b):
            r[k + i] = (r[k + i] - c * cb) % n
        trim(r)
    return trim(q), r


def mod_unit_lead(a, b, n):
    return divmod_unit_lead(a, b, n)[1]


def fp_ext_gcd(a, b, p):
    """Extended gcd over F_p[x]: returns monic g and (x, y) with xa + yb = g."""
    r0, r1 = [c % p for c in a], [c % p for c in b]
    trim(r0)
    trim(r1)
    x0, x1 = [1], []
    y0, y1 = [], [1]
    while r1:
        q, r = divmod_unit_lead(r0, r1, p)
        r0, r1 = r1, r
        x0, x1 = x1, sub(x0, mul(q, x1, p), p)
        y0, y1 = y1, sub(y0, mul(q, y1, p), p)
    if r0:
        inv = pow(r0[-1], -1, p)
        r0 = scalar_mul(inv, r0, p)
        x0 = scalar_mul(inv, x0, p)
        y0 = scalar_mul(inv, y0, p)
    return r0, x0, y0


def _fp_pow_mod(a, e, h, p):
    """a^e modulo the monic h over F_p, by square and multiply."""
    out = [1]
    while e:
        if e & 1:
            out = mod_unit_lead(mul(out, a, p), h, p)
        a = mod_unit_lead(mul(a, a, p), h, p)
        e >>= 1
    return out


def is_irreducible_fp(h, p) -> bool:
    """Whether h (nonzero leading coefficient mod p) is irreducible over
    F_p.  The test runs once per monic h mod p and prime p, so a residue
    field built on its ring's modulus does not test that modulus again."""
    h = trim([c % p for c in h])
    if len(h) < 2:
        return False
    return _is_irreducible_monic(tuple(scalar_mul(pow(h[-1], -1, p), h, p)), p)


@cache
def _is_irreducible_monic(h: tuple[int, ...], p: int) -> bool:
    """The early-exit distinct-degree test for monic h over F_p: as
    x^(p^k) - x is the product of the monic irreducibles of degree dividing
    k, h of degree r is irreducible exactly when gcd(h, x^(p^k) - x) = 1
    for each k <= r/2.  It stops at the first k with a common factor."""
    x = [0, 1]
    frob = x  # x^(p^k) mod h
    for _ in range((len(h) - 1) // 2):
        frob = _fp_pow_mod(frob, p, h, p)
        if len(fp_ext_gcd(h, sub(frob, x, p), p)[0]) > 1:
            return False
    return True


@cache
def smallest_irreducible(p: int, r: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree r over F_p,
    coefficients compared lowest degree first.  Degree 1 yields x itself.
    The search runs once per (p, r); the result is a tuple, as it is
    shared.  For r >= 2 it starts at c_0 = 1, as x divides every candidate
    with c_0 = 0."""
    if r == 1:
        return (0, 1)
    for c0 in range(1, p):
        for idx in range(p ** (r - 1)):
            # (c_1, ..., c_{r-1}) are the base-p digits of idx, c_1 first.
            cand = [1]
            for _ in range(r - 1):
                idx, c = divmod(idx, p)
                cand.append(c)
            cand.append(c0)
            cand.reverse()
            if is_irreducible_fp(cand, p):
                return tuple(cand)
    raise SpecError(f"no irreducible polynomial of degree {r} over F_{p}")


def hensel_lift_modulus(hbar: list[int], p: int, s: int) -> list[int]:
    """Lift a monic irreducible hbar (degree r >= 2 over F_p) to the monic
    degree-r divisor of X^(p^r - 1) - 1 over Z_{p^s} that reduces to hbar."""
    r = len(hbar) - 1
    n = p**s
    q = p**r
    f = [0] * q
    f[0] = (-1) % n
    f.append(0)
    f[q - 1] = 1
    f = trim(f)
    h = [c % n for c in hbar]
    gbar, rem = divmod_unit_lead([c % p for c in f], [c % p for c in hbar], p)
    if rem:
        raise SpecError("modulus does not divide X^(q-1) - 1 over F_p")
    g = list(gbar)
    _, a, b = fp_ext_gcd(hbar, gbar, p)  # a*hbar + b*gbar = 1 over F_p
    pk = p
    for _ in range(1, s):
        diff = sub(f, mul(h, g, n), n)
        e = trim([(c // pk) % p for c in diff])
        dh = mod_unit_lead(mul(b, e, p), hbar, p)
        t = divmod_unit_lead(mul(b, e, p), hbar, p)[0]
        dg = trim([c % p for c in add(mul(a, e, p), mul(t, g, p), p)])
        h = add(h, scalar_mul(pk, dh, n), n)
        g = add(g, scalar_mul(pk, dg, n), n)
        pk *= p
    assert not sub(f, mul(h, g, n), n), "Hensel lift failed to converge"
    h = h + [0] * (r + 1 - len(h))
    return h
