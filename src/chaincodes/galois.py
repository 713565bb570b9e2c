"""Unramified (Galois) extensions S|R of finite chain rings.

The extension of degree m is built in the same family as the base with
residue degree r*m, so one arithmetic kernel serves base and extension.
The base embeds through a deterministically chosen root of its modulus:
the modulus divides X^(q-1) - 1, so each of its roots in the extension is a
Teichmuller element, and the one over the smallest residue-field root is
taken as the Teichmuller lift of that root.  Sigma acts by raising
Teichmuller digits to the q-th power, and the trace is the sum of the
sigma-orbit.
"""

from __future__ import annotations

from functools import cache, cached_property

from ._ints import factorize
from .chainring import (
    GALOIS_RING,
    ChainRing,
    RingElement,
    _LazyTable,
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
        self._xi_pows = _LazyTable(self._xi_power)  # keyed by e mod order
        self._xi_pows.update({0: self.top.one, 1 % self.order: self.xi})
        self._traces = _LazyTable(self._trace)  # keyed by element
        self._trace_xi_pows = _LazyTable(self._trace_xi_power)

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
        """xi^e (e mod q^m - 1), one multiplication per uncached exponent."""
        return self._xi_pows[e % self.order]

    def _xi_power(self, e: int) -> RingElement:
        low, high = self._xi_steps
        block = len(low)
        return self.top._mul(high[e // block], low[e % block])

    @cached_property
    def _xi_steps(self) -> tuple[list[RingElement], list[RingElement]]:
        """Baby steps xi^i for i < block and giant steps xi^(block*j)."""
        top = self.top
        block = min(self.order, 1024)
        low = [top.one]
        while len(low) < block:
            low.append(top._mul(low[-1], self.xi))
        giant = top._mul(low[-1], self.xi)
        high = [top.one]
        while len(high) <= self.order // block:
            high.append(top._mul(high[-1], giant))
        return low, high

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
        """Tr(a) = sum of the sigma-orbit, returned as a base-ring element."""
        return self._traces[a]

    def _trace(self, a: RingElement) -> RingElement:
        acc = a
        cur = a
        for _ in range(self.m - 1):
            cur = self.frobenius(cur)
            acc = acc + cur
        return self.unembed(acc)

    def trace_xi_pow(self, e: int) -> RingElement:
        """Tr(xi^e), computed through the exponent orbit e, eq, eq^2, ..."""
        return self._trace_xi_pows[e % self.order]

    def _trace_xi_power(self, e: int) -> RingElement:
        acc = self.top.zero
        for _ in range(self.m):
            acc = acc + self.xi_pow(e)
            e = (e * self.q) % self.order
        return self.unembed(acc)

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


def teichmuller_generator(ext: GaloisExtension) -> RingElement:
    return ext.xi


def frobenius(ext: GaloisExtension, a: RingElement, power: int = 1) -> RingElement:
    return ext.frobenius(a, power)


def trace(ext: GaloisExtension, a: RingElement) -> RingElement:
    return ext.trace(a)


def root_of_unity(ext: GaloisExtension, ell: int) -> RingElement:
    return ext.root_of_unity(ell)


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
