"""Linear codes over a finite chain ring, held as generator matrices.

A code caches its standard-form matrix at construction: rows with pivots
theta^t placed by valuation-greedy elimination, giving the type
(k_0, ..., k_{s-1}), the rank, and the cardinality q^(sum (s-t) k_t).

Elimination runs on the ring's encoded rows (byte strings of element
indices in a ring with lookup tables, see ``chainring``): a code encodes
its generators once, reduces them with ``ChainRing.eliminate``, one
rank-1 update of the whole matrix per pivot, and keeps the encoded
standard form (``_sf``).  Membership, the dual, ``decompose_cyclic`` and
the contraction maps work on it, and codes they build take encoded rows,
so ``generators`` and ``sf_rows`` are decoded only when read.  A code
whose standard form is already known, a contraction or a concatenation,
is built with it (``_with_form``) and not reduced again.

The standard form keeps one invariant that the rest of the module reads:
row i is theta^t_i at its pivot column c_i, zero at the pivot columns of
the rows before it, a residue modulo theta^t_j at the pivot column of
each row j after it, and divisible by theta^t_i in every entry, where
t_0 <= t_1 <= ....  Membership reduces a vector by these rows alone.  The
dual's generators are read off them by column operations alone, one
rank-1 update per standard-form row, but ``dual()`` then builds
``LinearCode`` from those generators, which reduces them to the dual's own
standard form: a second elimination, and most of a dual's cost (about 105
of 180 µs for a length-20 cyclic code over Z9).
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from operator import mul

from .chainring import ChainRing, RingElement
from .errors import BudgetExceeded, SpecError

DEFAULT_CODEWORD_BUDGET = 1 << 24


# -- vector helpers --------------------------------------------------------


def vdot(u, v):
    return sum(map(mul, u, v), u[0].ring.zero)


def weight(v) -> int:
    return sum(1 for a in v if a)


def constashift(v, gamma: RingElement):
    """tau_gamma: wrap the last coordinate scaled by the unit gamma."""
    ring = gamma.ring
    if not ring.is_unit(gamma):
        raise SpecError("constashift requires a unit multiplier")
    return (gamma * v[-1],) + tuple(v[:-1])


class LinearCode:
    """An R-submodule of R^length, spanned by the given generator rows.

    A row is a sequence of ring elements or a row already encoded for the
    ring, as ``ring.encode_rows`` checks and makes it.  ``generators`` and
    ``sf_rows`` hold element tuples, decoded from the encoded rows when
    first read."""

    def __init__(self, ring: ChainRing, length: int, rows=()):
        if length < 1:
            raise SpecError("code length must be >= 1")
        encoded = ring.encode_rows(rows, length)
        self.ring = ring
        self.length = length
        self._gens = tuple(encoded)
        self._set_form(*ring.eliminate(encoded, length))

    @cached_property
    def generators(self) -> tuple:
        return tuple([self.ring.decode_row(r) for r in self._gens])

    @cached_property
    def sf_rows(self) -> tuple:
        return tuple([self.ring.decode_row(r) for r in self._sf])

    @classmethod
    def _with_form(cls, ring: ChainRing, length: int, gens, sf, pivots):
        """The code spanned by the encoded rows ``gens`` whose standard form
        is known to be ``sf`` with ``pivots``: nothing is checked or
        reduced."""
        code = cls.__new__(cls)
        code.ring = ring
        code.length = length
        code._gens = tuple(gens)
        code._set_form(list(sf), pivots)
        return code

    def _set_form(self, sf, pivots):
        """Keep the standard form and read the type, rank and cardinality
        off its pivots."""
        ring, s = self.ring, self.ring.s
        self._sf = sf
        self.pivots = tuple(pivots)
        kt = [0] * s
        for _, v in pivots:
            kt[v] += 1
        self.type = tuple(kt)
        self.rank = len(pivots)
        self.cardinality = ring.q ** sum(
            (s - t) * k for t, k in enumerate(kt)
        )

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return self.rank == 0

    def __contains__(self, v) -> bool:
        (v,) = self.ring.encode_rows([v], self.length)
        return self._holds(v)

    def _holds(self, v) -> bool:
        """Membership of an encoded row of the right length."""
        ring = self.ring
        for row, (col, val) in zip(self._sf, self.pivots):
            a = v[col]
            if not a:
                continue
            if ring.entry_valuation(a) < val:
                return False
            coeff = ring.entry_quotient(a, val)
            if coeff:
                v = ring.row_axpy(v, coeff, row)
        return not any(v)

    def codewords(self, max_codewords: int | None = DEFAULT_CODEWORD_BUDGET):
        """Stream every codeword exactly once (cardinality many)."""
        if max_codewords is not None and self.cardinality > max_codewords:
            raise BudgetExceeded(
                f"|C| = {self.cardinality} exceeds budget {max_codewords}"
            )
        ring = self.ring
        teich = ring.teichmuller_set()
        # Row i takes every c whose theta-adic digits vanish from place
        # s - t_i on, held as the encoded -c: row_axpy(w, -c, g) = w + c*g.
        choices = [
            [
                ring.encode(-ring.recompose(digits + (ring.zero,) * val))
                for digits in product(teich, repeat=ring.s - val)
            ]
            for _, val in self.pivots
        ]
        zero = ring.encode_row((ring.zero,) * self.length)
        yield from _combinations(ring, self._sf, choices, 0, zero)

    def min_weight(self, max_codewords: int | None = DEFAULT_CODEWORD_BUDGET):
        """Exact minimum Hamming weight by codeword enumeration."""
        if self.is_zero():
            raise SpecError("the zero code has no minimum weight")
        best = self.length + 1
        for w in self.codewords(max_codewords):
            if any(w):
                wt = weight(w)
                if wt < best:
                    best = wt
                    if best == 1:
                        break
        return best

    # -- duality -----------------------------------------------------------

    def dual(self) -> "LinearCode":
        """The annihilator code, read off the standard form: G Q = D.

        Row i of the standard form is theta^t_i at its pivot column c_i and
        zero at every earlier pivot column, and each of its other entries
        is divisible by theta^t_i: t_i was the least valuation left when
        the row was chosen, and the later pivot rows it was reduced by have
        valuation >= t_i.  So subtracting theta_shift_down(g_i[j], t_i)
        times column c_i from each column j != c_i (any preimage of g_i[j]
        under theta^t_i serves: ``row_divide``) clears row i but for its
        pivot, and changes no other row, because column c_i is theta^t_i at
        row i and zero at every other: the rows before i are cleared
        already, and the rows after it are zero there.  No row operation
        is needed, and the column operations of row i are applied to Q
        alone, as one rank-1 update.  Then Q y is in the dual exactly when
        theta^t_i y_(c_i) = 0 for every i, so the dual is spanned by
        theta^(s - t_i) q_(c_i) and the columns q_j of the non-pivot j,
        which ``LinearCode`` reduces to the dual's standard form.
        """
        ring, n, s = self.ring, self.length, self.ring.s
        zero, one = ring.encode_row([ring.zero]), ring.encode_row([ring.one])

        def unit(c):
            return zero * c + one + zero * (n - c - 1)

        # A column operation adds a multiple of some q_(c_i), which stays
        # zero off the entries c_0, ..., c_(k-1), so q_j is e_j but at
        # those entries.  They are held as qp, n rows of k (row j holds q_j
        # at c_0, ..., c_(k-1)), and the operations of standard-form row i
        # are one rank-1 update of qp.
        cols = [c for c, _ in self.pivots]
        k = len(cols)
        qp = ring.columns([unit(c) for c in cols])
        ops = []
        for row, (col, val) in zip(self._sf, self.pivots):
            coeffs = ring.row_divide(row, val)
            ops.append((coeffs[:col] + zero + coeffs[col + 1 :], col))
        qp = ring.apply_row_ops(qp, k, ops)
        place = {c: i for i, c in enumerate(cols)}
        # Q^T row-major, from the rows of Q: row c_l is column l of qp, and
        # every other row c is e_c.
        qt = ring.columns(
            [qp[place[c] :: k] if c in place else unit(c) for c in range(n)]
        )
        levels = dict(self.pivots)
        gens = []
        for j in range(n):
            t = levels.get(j, s)
            col = qt[j * n : (j + 1) * n]
            if t == s:
                gens.append(col)
            elif t:
                scale = ring.encode(ring.theta_pow(s - t))
                gens.append(ring.row_scale(scale, col))
        return LinearCode(ring, n, gens)

    # -- comparisons and algebra ------------------------------------------

    def same_code(self, other: "LinearCode") -> bool:
        if self.ring != other.ring or self.length != other.length:
            return False
        if self.cardinality != other.cardinality:
            return False
        return all(other._holds(r) for r in self._sf)

    def __eq__(self, other):
        if not isinstance(other, LinearCode):
            return NotImplemented
        return self.same_code(other)

    __hash__ = None

    def key(self):
        """Deterministic comparison key (standard-form coordinates)."""
        return (
            self.cardinality,
            tuple(tuple(a.coords for a in r) for r in self.sf_rows),
        )

    def to_json(self) -> dict:
        return {
            "ring": self.ring.spec.to_json(),
            "length": self.length,
            "generators": [
                [a.to_json() for a in row] for row in self.sf_rows
            ],
        }


def _combinations(ring: ChainRing, rows, choices, i, partial):
    """Decode partial + sum c_j*rows[j] over j >= i, for every pick of an
    encoded -c_j from each choices[j], the last row varying fastest.  (A
    module-level generator: a recursive closure would be a reference cycle
    that kept its code alive until the cyclic collector ran.)"""
    if i == len(rows):
        yield ring.decode_row(partial)
        return
    row = rows[i]
    for c in choices[i]:
        word = ring.row_axpy(partial, c, row) if c else partial
        yield from _combinations(ring, rows, choices, i + 1, word)


def zero_code(ring: ChainRing, n: int) -> LinearCode:
    return LinearCode(ring, n, ())


def full_code(ring: ChainRing, n: int) -> LinearCode:
    rows = []
    for i in range(n):
        row = [ring.zero] * n
        row[i] = ring.one
        rows.append(row)
    return LinearCode(ring, n, rows)


def _check_compatible(c1: LinearCode, c2: LinearCode):
    if c1.ring != c2.ring or c1.length != c2.length:
        raise SpecError("codes must share ring and length")


def sum_codes(c1: LinearCode, c2: LinearCode) -> LinearCode:
    _check_compatible(c1, c2)
    return LinearCode(c1.ring, c1.length, c1.sf_rows + c2.sf_rows)


def intersect_codes(c1: LinearCode, c2: LinearCode) -> LinearCode:
    _check_compatible(c1, c2)
    return sum_codes(c1.dual(), c2.dual()).dual()


def membership(code: LinearCode, v) -> bool:
    return tuple(v) in code


def is_constacyclic(code: LinearCode, gamma: RingElement) -> bool:
    """tau_gamma-invariance, checked on generators (sufficient by linearity):
    each encoded standard-form row, shifted, must be in the code."""
    ring = code.ring
    c = ring.encode(gamma)  # SpecError unless gamma is of the code's ring
    if code._sf and not ring.is_unit(gamma):
        raise SpecError("constashift requires a unit multiplier")
    return all(
        code._holds(ring.row_scale(c, g[-1:]) + g[:-1]) for g in code._sf
    )


def residue_code(code: LinearCode) -> LinearCode:
    """The componentwise projection to F_q, as a code over ``ring.field``."""
    ring = code.ring
    at, residue = ring.field.element_at, ring.residue
    rows = [tuple(at(residue(a)) for a in row) for row in code.sf_rows]
    return LinearCode(ring.field, code.length, rows)


# -- Galois operations on codes over an extension S|R ----------------------


def extend_code(ext, code: LinearCode) -> LinearCode:
    """The S-span of an R-linear code's generators."""
    if code.ring != ext.base:
        raise SpecError("extend_code expects a code over the base ring")
    rows = [tuple(ext.embed(a) for a in row) for row in code.sf_rows]
    return LinearCode(ext.top, code.length, rows)


def sigma_image(ext, code: LinearCode, power: int = 1) -> LinearCode:
    if code.ring != ext.top:
        raise SpecError("sigma_image expects a code over the extension")
    rows = [
        tuple(ext.frobenius(a, power) for a in row) for row in code.sf_rows
    ]
    return LinearCode(ext.top, code.length, rows)


def closure_code(ext, code: LinearCode) -> LinearCode:
    """The smallest sigma-invariant code containing the input: sum of the
    sigma-orbit."""
    rows = []
    for i in range(ext.m):
        rows.extend(sigma_image(ext, code, i).sf_rows)
    return LinearCode(ext.top, code.length, rows)


def trace_code(ext, code: LinearCode) -> LinearCode:
    """Componentwise trace image, as an R-linear code.

    R-module generators: traces of xi^k * g for generators g and k < m.
    """
    if code.ring != ext.top:
        raise SpecError("trace_code expects a code over the extension")
    rows = [
        ext.trace_products(ext.xi_pow(k), g)
        for g in code.sf_rows
        for k in range(ext.m)
    ]
    return LinearCode(ext.base, code.length, rows)


def res_subring_code(ext, code: LinearCode) -> LinearCode:
    """The subring subcode B intersect R^length, as the R-dual of B's dual.

    c in R^length lies in B exactly when sum_i c_i d_i = 0 for every
    generator d of dual(B); with d_i = sum_k d_ik xi^k over the free basis
    of xi-powers, that is sum_i c_i d_ik = 0 for every k < m.
    """
    if code.ring != ext.top:
        raise SpecError("res_subring expects a code over the extension")
    rows = []
    for d in code.dual().sf_rows:
        rows.extend(zip(*map(ext.xi_coordinates, d)))  # (d_ik)_i for each k
    return LinearCode(ext.base, code.length, rows).dual()
