"""Arithmetic in the residue field F_q, q = p^r.

Field elements are integers in [0, q): the base-p digits of the integer are
the coefficients of the polynomial basis {1, x, ..., x^(r-1)} modulo a fixed
monic irreducible polynomial over F_p.
"""

from __future__ import annotations

from . import _polys
from ._ints import factorize


class FqArith:
    """Exact arithmetic on the integer encoding of F_{p^r}."""

    def __init__(self, p: int, r: int, modulus: list[int]):
        self.p = p
        self.r = r
        self.q = p**r
        self.modulus = [c % p for c in modulus]

    def to_coeffs(self, a: int) -> list[int]:
        out = []
        for _ in range(self.r):
            out.append(a % self.p)
            a //= self.p
        return out

    def from_coeffs(self, coeffs) -> int:
        out = 0
        for c in reversed(list(coeffs)[: self.r]):
            out = out * self.p + (c % self.p)
        return out

    def add(self, a: int, b: int) -> int:
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.r):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.r):
            out += ((-a) % p) * mult
            a //= p
            mult *= p
        return out

    def mul(self, a: int, b: int) -> int:
        if self.r == 1:
            return (a * b) % self.p
        prod = _polys.mul(self.to_coeffs(a), self.to_coeffs(b), self.p)
        prod = _polys.mod_unit_lead(prod, self.modulus, self.p)
        return self.from_coeffs(prod + [0] * self.r)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        out = 1
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 is not invertible in F_q")
        return self.pow(a, self.q - 2)

    def order(self, a: int) -> int:
        """Multiplicative order of a nonzero element."""
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        n = self.q - 1
        order = n
        for prime, e in factorize(n) if n > 1 else ():
            for _ in range(e):
                if self.pow(a, order // prime) == 1:
                    order //= prime
                else:
                    break
        return order

    def smallest_primitive(self) -> int:
        """Least integer encoding a generator of F_q^*."""
        for a in range(1, self.q):
            if self.order(a) == self.q - 1:
                return a
        raise AssertionError("F_q^* is cyclic; unreachable")

    def poly_eval(self, poly: list[int], x: int) -> int:
        """Evaluate a polynomial with F_p coefficients at a field element."""
        out = 0
        for c in reversed(poly):
            out = self.add(self.mul(out, x), c % self.p)
        return out
