"""Unramified (Galois) extensions S|R of finite chain rings.

The extension of degree m is built in the same family as the base with
residue degree r*m, so one arithmetic kernel serves base and extension.
The base embeds through a deterministically chosen root of its modulus,
sigma acts by raising Teichmuller digits to the q-th power, and the trace
is the sum of the sigma-orbit.
"""

from __future__ import annotations

from functools import lru_cache

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
        self._unembed: dict[tuple[int, ...], RingElement] | None = None
        self.xi = self._compute_xi()
        self._xi_pows = {0: self.top.one, 1 % self.order: self.xi}
        self._xi_low = None  # baby steps xi^i, i < block
        self._xi_high = None  # giant steps xi^(block*j)
        self._trace_cache: dict[tuple[int, ...], RingElement] = {}
        self._trace_xi_cache: dict[int, RingElement] = {}
        self._gram_inv = None

    # -- embedding --------------------------------------------------------

    def _compute_embedding(self):
        base, top = self.base, self.top
        if self.m == 1:
            return None
        if base.r == 1:
            return None  # base generated by 1; embedding is the integer map
        hbar = [c % base.p for c in base.spec.modulus]
        # Smallest residue-field root of the base modulus inside the top ring.
        root_res = None
        for c in range(top.q):
            if top.fq.poly_eval(hbar, c) == 0:
                root_res = c
                break
        if root_res is None:
            raise AssertionError("base modulus must split in the extension")
        w = top.lift(root_res)
        if base.family == GALOIS_RING and base.s > 1:
            w = self._newton_root(base.lifted_modulus, w)
        return [top.pow(w, j) for j in range(base.r)]

    def _newton_root(self, poly, w):
        """Hensel-lift a simple residue root of an integer polynomial."""
        top = self.top
        dpoly = [(i * c) for i, c in enumerate(poly)][1:]
        for _ in range(top.s + 1):
            fw = _int_poly_eval(top, poly, w)
            dfw = _int_poly_eval(top, dpoly, w)
            w = w - fw * top.inv(dfw)
        assert not _int_poly_eval(top, poly, w)
        return w

    def embed(self, a: RingElement) -> RingElement:
        """The injective ring homomorphism R -> S."""
        if a.ring is not self.base:
            raise SpecError("embed expects an element of the base ring")
        if self.m == 1:
            return a
        top = self.top
        if self.base.r == 1:
            if self.base.family == GALOIS_RING:
                return top.from_int(a.coords[0])
            # EU with prime residue field: coefficients are constants.
            return top.make(a.coords)
        if self.base.family == GALOIS_RING:
            out = top.zero
            for j, c in enumerate(a.coords):
                out = out + top.int_mul(c, self._embed_powers[j])
            return out
        # EU family: embed each residue-field coefficient.
        out = top.zero
        u_pow = top.one
        for c in a.coords:
            out = out + top._mul(self._embed_field(c), u_pow)
            u_pow = top._mul(u_pow, top.theta) if top.s > 1 else u_pow
        return out

    def _embed_field(self, c: int) -> RingElement:
        top = self.top
        out = top.zero
        digits = self.base.fq.to_coeffs(c)
        for j, d in enumerate(digits):
            out = out + top.int_mul(d, self._embed_powers[j])
        return out

    def _unembed_table(self):
        if self._unembed is None:
            self._unembed = {
                self.embed(a).coords: a for a in self.base.elements()
            }
        return self._unembed

    def in_base(self, b: RingElement) -> bool:
        return b.coords in self._unembed_table()

    def unembed(self, b: RingElement) -> RingElement:
        try:
            return self._unembed_table()[b.coords]
        except KeyError:
            raise SpecError("element does not lie in the embedded base ring")

    # -- Teichmuller generator -------------------------------------------

    def _compute_xi(self) -> RingElement:
        top = self.top
        prim = top.fq.smallest_primitive()
        return top.teichmuller(top.lift(prim))

    def xi_pow(self, e: int) -> RingElement:
        """xi^e (e mod q^m - 1), one multiplication per uncached exponent."""
        e %= self.order
        cached = self._xi_pows.get(e)
        if cached is not None:
            return cached
        if self._xi_low is None:
            top = self.top
            block = min(self.order, 1024)
            low = [top.one]
            while len(low) < block:
                low.append(top._mul(low[-1], self.xi))
            giant = top._mul(low[-1], self.xi)
            high = [top.one]
            while len(high) <= self.order // block:
                high.append(top._mul(high[-1], giant))
            self._xi_low = low
            self._xi_high = high
        block = len(self._xi_low)
        out = self.top._mul(self._xi_high[e // block], self._xi_low[e % block])
        self._xi_pows[e] = out
        return out

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
        cached = self._trace_cache.get(a.coords)
        if cached is not None:
            return cached
        top = self.top
        acc = a
        cur = a
        for _ in range(self.m - 1):
            cur = self.frobenius(cur)
            acc = acc + cur
        out = self.unembed(acc)
        self._trace_cache[a.coords] = out
        return out

    def trace_xi_pow(self, e: int) -> RingElement:
        """Tr(xi^e), computed through the exponent orbit e, eq, eq^2, ..."""
        e %= self.order
        cached = self._trace_xi_cache.get(e)
        if cached is None:
            acc = self.top.zero
            cur = e
            for _ in range(self.m):
                acc = acc + self.xi_pow(cur)
                cur = (cur * self.q) % self.order
            cached = self.unembed(acc)
            self._trace_xi_cache[e] = cached
        return cached

    # -- coordinates in the xi-power basis -------------------------------

    def xi_coordinates(self, a: RingElement) -> tuple[RingElement, ...]:
        """The unique (a_0, ..., a_{m-1}) over R with a = sum embed(a_i) xi^i."""
        if self.m == 1:
            return (self.unembed(a),)
        if self._gram_inv is None:
            gram = [
                [self.trace_xi_pow(i + j) for j in range(self.m)]
                for i in range(self.m)
            ]
            self._gram_inv = _invert_unit_matrix(self.base, gram)
        rhs = [self.trace(self.top._mul(a, self.xi_pow(j))) for j in range(self.m)]
        return tuple([vdot(row, rhs) for row in self._gram_inv])


def _int_poly_eval(ring: ChainRing, poly, x: RingElement) -> RingElement:
    out = ring.zero
    for c in reversed(poly):
        out = ring._mul(out, x) + ring.from_int(c)
    return out


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


@lru_cache(maxsize=None)
def _extend_cached(base_key, m):
    from .chainring import _ring_for_key

    return GaloisExtension(_ring_for_key(base_key), m)


def extend(base: ChainRing, m: int) -> GaloisExtension:
    """The Galois extension of degree m over the base ring (cached)."""
    return _extend_cached(base.key, m)


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
