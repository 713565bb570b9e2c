"""Reference arithmetic in the residue field F_q, q = p^r, for the tests.

Field elements are integers in [0, q): the base-p digits of the integer are
the coefficients of the polynomial basis {1, x, ..., x^(r-1)} modulo a fixed
monic irreducible polynomial over F_p.  The library computes in F_q as the
chain ring GR(p, r, 1); this separate copy keeps the tests' references
independent of that code.
"""

from __future__ import annotations

from chaincodes import _polys


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
        return self.from_coeffs(_polys.mod_unit_lead(prod, self.modulus, self.p))

    def inv(self, a: int) -> int:
        """a^(q-2), by the square and multiply of the irreducibility test."""
        if a == 0:
            raise ZeroDivisionError("0 is not invertible in F_q")
        return self.from_coeffs(
            _polys._fp_pow_mod(self.to_coeffs(a), self.q - 2, self.modulus, self.p)
        )


def reference_field(ring) -> FqArith:
    """The reference arithmetic of a chain ring's residue field."""
    return FqArith(ring.p, ring.r, list(ring.spec.modulus))
