"""Unramified (Galois) extensions S|R of finite chain rings.

The extension of degree m is built in the same family as the base with
residue degree r*m, so one arithmetic kernel serves base and extension.
The base embeds through a deterministically chosen root of its modulus:
the modulus divides X^(q-1) - 1, so each of its roots in the extension is a
Teichmuller element, and the one over the smallest residue-field root is
taken as the Teichmuller lift of that root.  Sigma acts by raising
Teichmuller digits to the q-th power.  The trace is R-linear: the base-B
index digits d_j of an element (B = p^s for GR, p for EU) are its integer
coordinates in the basis b_j = x^d theta^t, (t, d) = divmod(j, r*m), x the
Teichmuller element of index B, so Tr = sum_j d_j Tr(b_j) with
Tr(x^d theta^t) = theta^t sum_l (x^(q^l))^d.
"""

from __future__ import annotations

from functools import cache, cached_property

from ._ints import factorize
from .chainring import (
    GALOIS_RING,
    ChainRing,
    RingElement,
    make_ring,
    ring_spec,
)
from .errors import SpecError
from .modcodes import LinearCode, vdot


class GaloisExtension:
    """S|R of degree m with Frobenius generator, trace, and Teichmuller
    generator xi of order q^m - 1."""

    def __init__(self, base: ChainRing, m: int):
        if m < 1:
            raise SpecError("extension degree must be >= 1")
        self.base = base
        self.m = m
        self.q = base.q
        self.order = base.q**m - 1  # size of the Teichmuller unit group
        if m == 1:
            self.top = base
        else:
            self.top = make_ring(
                ring_spec(base.family, base.p, base.r * m, base.s)
            )
        self._embed_powers = self._compute_embedding()
        self.xi = self._compute_xi()

    # -- embedding --------------------------------------------------------

    def _compute_embedding(self):
        base, top = self.base, self.top
        if self.m == 1:
            return None
        hbar = [c % base.p for c in base.spec.modulus]
        # Smallest residue-field root of the base modulus inside the top ring.
        root_res = next(
            (c for c in range(top.q) if top.fq.poly_eval(hbar, c) == 0), None
        )
        if root_res is None:
            raise AssertionError("base modulus must split in the extension")
        w = top.teichmuller(top.lift(root_res))  # the root over root_res
        return [top.pow(w, j) for j in range(base.r)]

    def embed(self, a: RingElement) -> RingElement:
        """The injective ring homomorphism R -> S."""
        if a.ring is not self.base:
            raise SpecError("embed expects an element of the base ring")
        if self.m == 1:
            return a
        if self.base.family == GALOIS_RING:
            return self._combine(a.coords)
        # EU family: embed the residue-field coefficient of each power of u.
        top = self.top
        out = top.zero
        for t, c in enumerate(a.coords):
            field = self._combine(self.base.fq.to_coeffs(c))
            out = out + top._mul(field, top.theta_pow(t))
        return out

    def _combine(self, coeffs) -> RingElement:
        """sum_j coeffs[j] * w^j in S, for w the embedding root."""
        top = self.top
        out = top.zero
        for c, power in zip(coeffs, self._embed_powers):
            out = out + top.int_mul(c, power)
        return out

    @cached_property
    def _unembed(self) -> dict[RingElement, RingElement]:
        return {self.embed(a): a for a in self.base.elements()}

    def in_base(self, b: RingElement) -> bool:
        return b in self._unembed

    def unembed(self, b: RingElement) -> RingElement:
        try:
            return self._unembed[b]
        except KeyError:
            raise SpecError("element does not lie in the embedded base ring")

    # -- Teichmuller generator -------------------------------------------

    def _compute_xi(self) -> RingElement:
        top = self.top
        prim = top.fq.smallest_primitive()
        return top.teichmuller(top.lift(prim))

    def xi_pow(self, e: int) -> RingElement:
        """xi^e, e taken mod q^m - 1."""
        return self.top.pow(self.xi, e % self.order)

    def root_of_unity(self, ell: int) -> RingElement:
        """A Teichmuller element of multiplicative order exactly ell."""
        if ell < 1 or self.order % ell:
            raise SpecError(
                f"{ell} does not divide q^m - 1 = {self.order}"
            )
        return self.xi_pow(self.order // ell)

    # -- Frobenius and trace ---------------------------------------------

    def frobenius(self, a: RingElement, power: int = 1) -> RingElement:
        """sigma^power: raise each Teichmuller digit to the q^power-th power."""
        if a.ring is not self.top:
            raise SpecError("frobenius expects an element of the extension")
        power %= self.m
        if power == 0:
            return a
        top = self.top
        exp = pow(self.q, power, self.order) if self.order > 1 else 1
        digits = top.theta_adic_expansion(a)
        out = top.zero
        for t, d in enumerate(digits):
            if d:
                out = out + top._mul(top.pow(d, exp), top.theta_pow(t))
        return out

    def trace(self, a: RingElement) -> RingElement:
        """Tr(a) = sum_j d_j Tr(b_j) over the index digits d_j of a."""
        if a.ring is not self.top:
            raise SpecError("trace expects an element of the extension")
        if self.m == 1:
            return a
        out, index = self.base.zero, a.index
        for basis_trace in self._basis_traces:
            index, d = divmod(index, self.top._digits[0])
            if d:
                out = out + self.base.int_mul(d, basis_trace)
        return out

    @cached_property
    def _basis_traces(self) -> list[RingElement]:
        """Tr(b_j), in the order j = t*r*m + d."""
        top, base, width = self.top, self.base, self.base.r * self.m
        conjugates = [top.element_at(top._digits[0])]  # x^(q^l) for l < m
        for _ in range(self.m - 1):
            conjugates.append(top.pow(conjugates[-1], self.q))
        powers, traces = [top.one] * self.m, []
        for _ in range(width):
            traces.append(self.unembed(sum(powers, top.zero)))
            powers = list(map(top._mul, powers, conjugates))
        thetas = map(base.theta_pow, range(top._digits[1] // width))
        return [tr * theta_t for theta_t in thetas for tr in traces]

    def trace_xi_pow(self, e: int) -> RingElement:
        """Tr(xi^e)."""
        return self.trace(self.xi_pow(e))

    # -- coordinates in the xi-power basis -------------------------------

    def xi_coordinates(self, a: RingElement) -> tuple[RingElement, ...]:
        """The unique (a_0, ..., a_{m-1}) over R with a = sum embed(a_i) xi^i."""
        if self.m == 1:
            return (self.unembed(a),)
        rhs = [self.trace(self.top._mul(a, self.xi_pow(j))) for j in range(self.m)]
        return tuple([vdot(row, rhs) for row in self._gram_inv])

    @cached_property
    def _gram_inv(self):
        """The inverse of the Gram matrix (Tr(xi^(i+j)))_{i,j < m}."""
        gram = [
            [self.trace_xi_pow(i + j) for j in range(self.m)]
            for i in range(self.m)
        ]
        return _invert_unit_matrix(self.base, gram)


def _invert_unit_matrix(ring: ChainRing, mat):
    """Invert a matrix over R with unit determinant: the standard form of
    (A | I) is (I | A^-1), with a unit pivot in each of the first m
    columns exactly when A is invertible."""
    m = len(mat)
    rows = [
        list(row) + [ring.one if i == j else ring.zero for j in range(m)]
        for i, row in enumerate(mat)
    ]
    code = LinearCode(ring, 2 * m, rows)
    if code.pivots != tuple([(i, 0) for i in range(m)]):
        raise SpecError("matrix is not invertible over the chain ring")
    return [row[m:] for row in code.sf_rows]


@cache
def extend(base: ChainRing, m: int) -> GaloisExtension:
    """The Galois extension of degree m over the base ring (cached)."""
    return GaloisExtension(base, m)


def xi_multiplicative_order(ext: GaloisExtension) -> int:
    """Verified multiplicative order of xi (q^m - 1 by construction)."""
    top = ext.top
    n = ext.order
    if n == 1:
        return 1
    for prime, _ in factorize(n):
        if top.pow(ext.xi, n // prime) == top.one:
            raise AssertionError("xi is not a Teichmuller generator")
    return n
