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
the orbit sum of the sigma^l(b_j).  The root search lists the q
Teichmuller lifts of F_q, so a degree m >= 2 over a base with q over
``EXTENSION_BASE_CAP`` is refused before the top ring is built.

One inverse undoes the embedding: S is free over Z/B on the products
embed(b_j) xi^i (i < m), so an element's index digits times the inverse of
the matrix of their digits are its coordinates on them, and block i of
those coordinates is the digits of a_i in a = sum embed(a_i) xi^i.  This
gives ``xi_coordinates``, ``unembed`` (block 0, the other blocks zero) and
``in_base`` without listing the base.
"""

from __future__ import annotations

from functools import cache, cached_property
from operator import mul

from ._ints import order_dividing
from .chainring import (
    EXTENSION_BASE_CAP,
    GALOIS_RING,
    ChainRing,
    ChainRingSpec,
    RingElement,
    galois_ring,
    make_ring,
)
from .errors import BudgetExceeded, SpecError
from .modcodes import LinearCode


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


def _index_digits(a: RingElement) -> list[int]:
    """The base-B index digits d_j of a, lowest first."""
    base, count = a.ring._digits
    index, out = a.index, []
    for _ in range(count):
        index, d = divmod(index, base)
        out.append(d)
    return out


def _digit_sum(a: RingElement, images, ring: ChainRing) -> RingElement:
    """sum_j d_j * images[j] in ring, over the base-B index digits d_j of a."""
    out = ring.zero
    for d, image in zip(_index_digits(a), images):
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
        if m == 1:
            self.top = base
        elif base.q > EXTENSION_BASE_CAP:
            raise BudgetExceeded(
                f"extending {base.short_name()} to degree {m} searches the "
                f"q = {base.q} Teichmuller lifts of F_q for a root of its "
                f"modulus, over budget q <= {EXTENSION_BASE_CAP}"
            )
        else:  # the spec refuses r*m over DEGREE_CAP before q^m is formed
            self.top = make_ring(
                ChainRingSpec(base.family, base.p, base.r * m, base.s)
            )
        self.order = base.q**m - 1  # size of the Teichmuller unit group
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
    def _inverse(self) -> list[list[int]]:
        """The columns, as integers, of the inverse over Z/B of the square
        matrix whose row i*n + j holds the index digits of embed(b_j) xi^i,
        for the n digit-basis elements b_j of R and i < m.  S is free over
        Z/B on these products, and a's index digits times the inverse are
        a's coordinates on them."""
        base = self.base
        ring = galois_ring(base.p, 1, base.s if base.family == GALOIS_RING else 1)
        rows = [
            [ring.element_at(d) for d in _index_digits(self.top._mul(b, xi_i))]
            for xi_i in map(self.xi_pow, range(self.m))
            for b in self._embed_images
        ]
        inverse = _invert_unit_matrix(ring, rows)
        return [[a.index for a in column] for column in zip(*inverse)]

    def _blocks(self, a: RingElement) -> list[int]:
        """The base indices of the a_i with a = sum embed(a_i) xi^i, from
        one solve: a's coordinates on the embed(b_j) xi^i, read in m blocks
        of n base-B digits."""
        radix, n = self.base._digits
        digits = _index_digits(a)
        coords = [sum(map(mul, digits, col)) % radix for col in self._inverse]
        weights = [radix**j for j in range(n)]
        return [
            sum(map(mul, coords[i : i + n], weights))
            for i in range(0, len(coords), n)
        ]

    def in_base(self, b: RingElement) -> bool:
        if self.m == 1:
            return b.ring is self.base
        return b.ring is self.top and not any(self._blocks(b)[1:])

    def unembed(self, b: RingElement) -> RingElement:
        if self.m == 1:
            if b.ring is self.base:
                return b
        elif b.ring is self.top:
            first, *rest = self._blocks(b)
            if not any(rest):
                return self.base.element_at(first)
        raise SpecError("element does not lie in the embedded base ring")

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
        if a.ring is not self.top:
            raise SpecError("xi_coordinates expects an element of the extension")
        return tuple(map(self.base.element_at, self._blocks(a)))


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
