"""Unramified (Galois) extensions S|R of finite chain rings.

The extension of degree m is built in the same family as the base with
residue degree r*m, so one arithmetic kernel serves base and extension.
The embedding R -> S, sigma and the trace are additive and fix theta, so
each is one digit map f(a) = sum_j d_j f(b_j): the base-B index digits d_j
of an element (B = p^s for GR, p for EU) are its integer coordinates in the
basis b_j = y^d theta^t, (t, d) = divmod(j, r), y of index B.  The
embedding sends y to the Teichmuller lift w of the smallest residue root of
the base modulus (a root, since the modulus divides X^(q-1) - 1); sigma^l
sends the Teichmuller element x of index B in S to x^(q^l); and Tr(b_j) is
the orbit sum of the sigma^l(b_j).
"""

from __future__ import annotations

from functools import cache, cached_property

from ._ints import order_dividing
from .chainring import (
    EXTENSION_BASE_CAP,
    ChainRing,
    ChainRingSpec,
    RingElement,
    make_ring,
)
from .errors import BudgetExceeded, SpecError
from .modcodes import LinearCode, vdot


def _digit_basis(ring: ChainRing, y: RingElement, layout: ChainRing) -> list:
    """y^d theta^t in ring, in the digit order j = t*r + d of layout's
    indices (r = layout.r), built by consecutive products."""
    row = [ring.one, y][: layout.r]
    while len(row) < layout.r:
        row.append(ring._mul(row[-1], y))
    basis = list(row)
    for _ in range(1, layout._digits[1] // layout.r):
        row = [ring._mul(b, ring.theta) for b in row]
        basis += row
    return basis


def _digit_sum(a: RingElement, images, ring: ChainRing) -> RingElement:
    """sum_j d_j * images[j] in ring, over the base-B index digits d_j of a."""
    out, index, base = ring.zero, a.index, a.ring._digits[0]
    for image in images:
        index, d = divmod(index, base)
        if d:
            out = out + ring.int_mul(d, image)
    return out


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
        elif base.size > EXTENSION_BASE_CAP:
            raise BudgetExceeded(
                f"extending {base.short_name()} ({base.size} elements) to "
                f"degree {m} embeds every base element, over budget "
                f"{EXTENSION_BASE_CAP}"
            )
        else:
            self.top = make_ring(
                ChainRingSpec(base.family, base.p, base.r * m, base.s)
            )
        # xi lifts the least residue c that generates F_(q^m)^*.
        top, n = self.top, self.order

        def residue_order(c):
            a = top.lift(c)
            return order_dividing(n, lambda e: top.residue(top.pow(a, e)) == 1)

        prim = next(c for c in range(1, top.q) if residue_order(c) == n)
        self.xi = top.teichmuller(top.lift(prim))

    # -- embedding --------------------------------------------------------

    @cached_property
    def _embed_images(self) -> list[RingElement]:
        """w^d theta^t over the base's digit basis.  The residue roots of the
        base modulus lie in F_q, whose Teichmuller lifts are 0 and the powers
        of g below; w is the one whose residue is the least root."""
        top = self.top
        g = self.xi_pow(self.order // (self.q - 1))
        lifts = [top.zero, top.one]
        while len(lifts) < self.q:
            lifts.append(top._mul(lifts[-1], g))

        def value(w):  # the base modulus at w, by Horner
            out = top.zero
            for c in reversed(self.base.spec.modulus):
                out = top._mul(out, w) + top.from_int(c)
            return out

        roots = [w for w in lifts if top.residue(value(w)) == 0]
        w = min(roots, key=top.residue)
        return _digit_basis(top, w, self.base)

    def embed(self, a: RingElement) -> RingElement:
        """The injective ring homomorphism R -> S."""
        if a.ring is not self.base:
            raise SpecError("embed expects an element of the base ring")
        if self.m == 1:
            return a
        return _digit_sum(a, self._embed_images, self.top)

    @cached_property
    def _unembed(self) -> dict[RingElement, RingElement]:
        return {self.embed(a): a for a in self.base.elements()}

    def in_base(self, b: RingElement) -> bool:
        if self.m == 1:
            return b.ring is self.base
        return b in self._unembed

    def unembed(self, b: RingElement) -> RingElement:
        if not self.in_base(b):
            raise SpecError("element does not lie in the embedded base ring")
        return b if self.m == 1 else self._unembed[b]

    # -- Teichmuller generator -------------------------------------------

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

    @cached_property
    def _sigma_images(self) -> list[list[RingElement]]:
        """sigma^l(b_j) = x^(d q^l) theta^t for l < m."""
        top = self.top
        conjugates = [top.element_at(top._digits[0])]  # x^(q^l)
        for _ in range(self.m - 1):
            conjugates.append(top.pow(conjugates[-1], self.q))
        return [_digit_basis(top, x, top) for x in conjugates]

    @cached_property
    def _basis_traces(self) -> list[RingElement]:
        """Tr(b_j), the orbit sum of b_j."""
        zero = self.top.zero
        return [self.unembed(sum(im, zero)) for im in zip(*self._sigma_images)]

    def frobenius(self, a: RingElement, power: int = 1) -> RingElement:
        """sigma^power, the Teichmuller digits raised to the q^power-th power."""
        if a.ring is not self.top:
            raise SpecError("frobenius expects an element of the extension")
        power %= self.m
        if power == 0:
            return a
        return _digit_sum(a, self._sigma_images[power], self.top)

    def trace(self, a: RingElement) -> RingElement:
        """Tr(a) = sum_j d_j Tr(b_j) over the index digits d_j of a."""
        if a.ring is not self.top:
            raise SpecError("trace expects an element of the extension")
        if self.m == 1:
            return a
        return _digit_sum(a, self._basis_traces, self.base)

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
    """The multiplicative order of xi, computed (q^m - 1 by construction)."""
    top = ext.top
    return order_dividing(ext.order, lambda e: top.pow(ext.xi, e) is top.one)
