"""Cyclic codes of length ell coprime to q, built from trace evaluations.

Fix a root of unity eta of order ell inside the degree-m extension S|R,
m = ord_ell(q).  Each q-cyclotomic coset [z] carries an irreducible cyclic
code with codewords (Tr(x eta^(z j)))_j, and every cyclic code over R is a
direct sum of theta-power multiples of these, one per coset.  The levels
form a (q, s)-cyclotomic partition of {0, ..., ell-1}.  A context holds
the powers eta^e for e < ell and, built on first use, the traces
Tr(xi^k eta^e) for k < m, each coset's trace-row code, which reads them
at the exponents z*j mod ell, and what ``decompose_cyclic`` pairs codes
with: the stack of every coset's opposite trace rows and, in a ring whose
index digits fit byte lanes, the packed images of each stack column.
"""

from __future__ import annotations

from functools import cache, cached_property, partial
from itertools import product
from math import gcd
from operator import getitem

from .chainring import ChainRing, RingElement, _LazyTable, _translation
from .cosets import (
    CosetSet,
    CosetUniverse,
    CyclotomicPartition,
    class_count_formula,
    coset,
    cosets,
    make_partition,
    representatives,
)
from .errors import NotCyclic, SpecError
from .galois import extend
from .modcodes import LinearCode


class EvalContext:
    """Shared evaluation data for cyclic codes of one length over one ring."""

    def __init__(self, ring: ChainRing, ell: int):
        self.ring = ring
        self.ell = ell
        self.universe = CosetUniverse(ell, ring.q)
        self.m = self.universe.m
        self.ext = extend(ring, self.m)
        self.eta = self.ext.root_of_unity(ell)
        top = self.ext.top
        self.eta_pows = [top.one]
        for _ in range(ell - 1):
            self.eta_pows.append(top._mul(self.eta_pows[-1], self.eta))
        # The trace-row code of each coset, keyed by its least member.
        self.coset_codes = _LazyTable(partial(_trace_rows, self))

    def eta_pow(self, e: int) -> RingElement:
        return self.eta_pows[e % self.ell]

    @cached_property
    def traces(self) -> list[list[RingElement]]:
        """Tr(xi^k eta^e), indexed [k][e], for k < m and e < ell."""
        ext = self.ext
        return [
            [ext.trace(ext.top._mul(xk, y)) for y in self.eta_pows]
            for xk in map(ext.xi_pow, range(self.m))
        ]

    @cached_property
    def opposite_stack(self) -> tuple[list, list[slice]]:
        """The encoded trace rows of the opposite coset [-z] of each coset
        [z], stacked in ``cosets()`` order, and each coset's slice of the
        stack."""
        ell = self.ell
        rows, slices = [], []
        for orbit in cosets(self.universe):
            opposite = min((-z) % ell for z in orbit.members)
            hs = self.coset_codes[opposite]._sf
            slices.append(slice(len(rows), len(rows) + len(hs)))
            rows.extend(hs)
        return rows, slices

    @cached_property
    def column_images(self) -> list[_LazyTable]:
        """Per column j of the opposite stack (a ring with digit lanes),
        the table a -> ``_column_image`` of a times that column, filled on
        first use."""
        rows, _ = self.opposite_stack
        return [
            _LazyTable(partial(self._column_image, bytes(column)))
            for column in zip(*rows)
        ]

    def _column_image(self, column: bytes, a: int) -> int:
        """The index digits of a*h_j over the stack rows h, digit-major,
        one byte each, packed little-endian into one int."""
        ring = self.ring
        products = column.translate(ring._mul_bytes[a])
        split = ring._digit_lanes.code
        digits = b"".join([products.translate(table) for table in split])
        return int.from_bytes(digits, "little")


@cache
def context(ring: ChainRing, ell: int) -> EvalContext:
    return EvalContext(ring, ell)


def _trace_rows(ctx: EvalContext, rep: int) -> LinearCode:
    """The irreducible cyclic code of the coset [rep], spanned by the rows
    (Tr(xi^k eta^(rep*j)))_j for k < m; its standard form has one row per
    coset member."""
    ell = ctx.ell
    rows = [[row[rep * j % ell] for j in range(ell)] for row in ctx.traces]
    return LinearCode(ctx.ring, ell, rows)


def irreducible_cyclic_code(ctx: EvalContext, z: int) -> LinearCode:
    """The minimal cyclic code whose nonzero exponents are the coset [z]."""
    rep = min(coset(ctx.universe, z).members)
    return LinearCode(ctx.ring, ctx.ell, ctx.coset_codes[rep]._sf)


def trace_eval_code(ctx: EvalContext, exponents: CosetSet) -> LinearCode:
    """The free cyclic code of rank |closure(A)| supported on the q-closure
    of the exponent set A: the code of the partition with closure(A) at
    level 0 and everything else at level s."""
    if exponents.universe != ctx.universe:
        raise SpecError("exponent set universe mismatch")
    free = exponents.closure()
    empty = [ctx.universe.empty()] * (ctx.ring.s - 1)
    blocks = [free, *empty, free.complement()]
    return code_from_partition(ctx, CyclotomicPartition(ctx.universe, blocks))


def lrs_code(ctx: EvalContext, exponents: CosetSet) -> LinearCode:
    """The free S-linear code spanned by the monomial evaluation rows
    (1, eta^a, ..., eta^(a(ell-1))), a in A."""
    if exponents.universe != ctx.universe:
        raise SpecError("exponent set universe mismatch")
    rows = [
        tuple(ctx.eta_pow(a * j) for j in range(ctx.ell))
        for a in exponents
    ]
    return LinearCode(ctx.ext.top, ctx.ell, rows)


def psi(ctx: EvalContext, z: int, x: RingElement):
    """The codeword (Tr(x eta^(z j)))_j; x must be fixed by sigma^(m_z)."""
    if x.ring is not ctx.ext.top:
        raise SpecError("psi expects an element of the extension ring")
    m_z = len(coset(ctx.universe, z))
    if ctx.ext.frobenius(x, m_z) != x:
        raise SpecError(
            f"element is not in the degree-{m_z} subextension of coset {z}"
        )
    ext = ctx.ext
    return tuple(
        ext.trace(ext.top._mul(x, ctx.eta_pow(z * j))) for j in range(ctx.ell)
    )


def code_from_partition(
    ctx: EvalContext, partition: CyclotomicPartition
) -> LinearCode:
    """The cyclic code sum_t theta^t C_[z], z ranging over the level-t block."""
    ring = ctx.ring
    if partition.universe != ctx.universe:
        raise SpecError("partition universe mismatch")
    if partition.s != ring.s:
        raise SpecError(
            f"partition has {partition.s + 1} blocks, ring needs {ring.s + 1}"
        )
    assignment = partition.to_assignment()
    rows = []
    for t in range(ring.s):
        scale = ring.encode(ring.theta_pow(t))
        for rep, level in assignment.items():
            if level == t:
                for g in ctx.coset_codes[rep]._sf:
                    rows.append(ring.row_scale(scale, g))
    return LinearCode(ring, ctx.ell, rows)


def decompose_cyclic(code: LinearCode) -> CyclotomicPartition:
    """Recover the (q, s)-cyclotomic partition of a cyclic code, in one pass.

    The level of a representative z is the least theta-valuation of <g, h>
    over the standard-form rows g and the generators h of C_[-z], the
    trace rows of the coset [-z] (s when every such product is zero).
    C_[-z] pairs to zero with every irreducible cyclic code but C_[z], and
    its pairing with C_[z] is perfect, so a cyclic code gets its own
    partition.

    Any code C lies inside the cyclic code D of the computed partition P:
    the dual of D is the code of the tilde dual of P, spanned by
    theta^(s - t_z) h for the trace rows h of [-z], and each g is
    orthogonal to those because theta^t_z divides <g, h>.  So |C| = |D| =
    prod q^((s - t_z) m_z) proves C = D, shift-invariance included, and a
    mismatch proves C is not cyclic.

    Raises NotCyclic when the code is not shift-invariant (or its length
    shares a factor with q, leaving no eta to evaluate at).
    """
    ring = code.ring
    if gcd(ring.q, code.length) != 1:
        raise NotCyclic(
            f"length {code.length} is not coprime to q = {ring.q}"
        )
    ctx = context(ring, code.length)
    s = ring.s
    if ring._digit_lanes is None:
        levels = _dot_levels(ctx, code._sf)
    else:
        levels = _packed_levels(ctx, code._sf)
    universe = ctx.universe
    blocks = [set() for _ in range(s + 1)]
    rank = 0  # log_q |D|
    for orbit, level in zip(cosets(universe), levels):
        blocks[level] |= orbit.members
        rank += (s - level) * len(orbit)
    if ring.q**rank != code.cardinality:
        raise NotCyclic("code is not invariant under the cyclic shift")
    return CyclotomicPartition(
        universe, [CosetSet(universe, frozenset(b)) for b in blocks]
    )


def _packed_levels(ctx: EvalContext, rows) -> list[int]:
    """Each coset's level, the least valuation of <g, h> over the byte rows
    g and its slice of the opposite stack, for a ring with digit lanes.

    The column images of g's entries hold the index digits of g_j*h_j for
    every h in the stack, one byte lane per (digit, h), so one integer sum
    over the columns adds every pairing at once (``_lane_sums``).  Each
    lane's sum then marks the valuation of its digit as a bit, the marks
    of all rows are OR-ed, and the least valuation of the pairings with h
    is read off h's digit lanes."""
    ring = ctx.ring
    width, fold = ring._digit_lanes.headroom, ring._digit_lanes.fold
    marks, reads = _level_reads(ring)
    images = ctx.column_images
    stack, slices = ctx.opposite_stack
    height = len(stack)
    size = height * len(reads)
    units = int.from_bytes(b"\x01" * height, "little")  # the digit-0 lanes
    seen = 0
    for g in rows:
        sums = _lane_sums(images, g, width, fold, size)
        seen |= int.from_bytes(sums.translate(marks), "little")
        if seen & units == units:  # every h has a unit pairing: all levels 0
            break
    lanes = seen.to_bytes(size, "little")
    digits = [
        lanes[k * height : (k + 1) * height].translate(table)
        for k, table in enumerate(reads)
    ]
    return [min([min(d[sl]) for d in digits]) for sl in slices]


@cache
def _level_reads(ring: ChainRing) -> tuple[bytes, tuple[bytes, ...]]:
    """For the digit lanes, ``marks`` takes a lane sum y to the bit 1 << v,
    v the valuation of y mod B (no bit for 0), and ``reads[k]`` an OR of
    marks of digit-k lanes to its lowest bit plus the valuation of B^k (s
    for 0): the valuation of digit * B^k is that of the digit plus that of
    B^k, and an element's is the least over its digits."""
    s, vals = ring.s, ring._digit_lanes.vals
    marks = vals[0].translate(_translation([1 << v for v in range(s)]))
    reads = tuple(
        bytes((y & -y).bit_length() - 1 + v[1] if y else s for y in range(256))
        for v in vals
    )
    return marks, reads


def _lane_sums(images, g, width: int, fold: bytes, size: int) -> bytes:
    """The sum of the column images images[j][g_j] as ``size`` byte lanes,
    each congruent modulo B to the sum of its digits.  The lanes are folded
    modulo B after each chunk of ``width`` columns, before any can pass
    255 and carry into its neighbour."""
    total = sum(map(getitem, images[:width], g[:width]))
    for lo in range(width, len(g), width):
        residue = total.to_bytes(size, "little").translate(fold)
        total = sum(
            map(getitem, images[lo : lo + width], g[lo : lo + width]),
            int.from_bytes(residue, "little"),
        )
    return total.to_bytes(size, "little")


def _dot_levels(ctx: EvalContext, rows) -> list[int]:
    """Each coset's level, for a ring without digit lanes.  Per row g, one
    ``row_axpy`` per nonzero g_j with column j of the opposite stack gives
    minus g's pairings with every stack row, of the same valuations."""
    ring = ctx.ring
    stack, slices = ctx.opposite_stack
    height = len(stack)
    columns = ring.columns(stack)
    zero = ring.encode_row([ring.zero] * height)
    levels = [ring.s] * len(slices)
    for g in rows:
        pairings = zero
        for j, a in enumerate(g):
            if a:
                column = columns[j * height : (j + 1) * height]
                pairings = ring.row_axpy(pairings, a, column)
        vals = ring.row_valuations(pairings)
        levels = [min(level, *vals[sl]) for level, sl in zip(levels, slices)]
        if not any(levels):
            break
    return levels


def irreducible_components(code: LinearCode):
    """The pairs (t_z, z) with t_z < s in the direct-sum decomposition."""
    partition = decompose_cyclic(code)
    out = []
    for z in representatives(partition.universe):
        t = partition.level_of(z)
        if t < code.ring.s:
            out.append((t, z))
    return out


def count_cyclic_codes(ring: ChainRing, ell: int) -> tuple[int, int]:
    """((s+1)^n, 2^n) for n the number of q-cyclotomic cosets mod ell:
    total cyclic codes and free cyclic codes.  n comes from the divisor-sum
    count, so no coset is listed."""
    n = class_count_formula(CosetUniverse(ell, ring.q))
    return (ring.s + 1) ** n, 2**n


def enumerate_cyclic_codes(ring: ChainRing, ell: int):
    """Yield (partition, code) for every cyclic code of length ell, in the
    lexicographic order of level assignments over sorted representatives."""
    ctx = context(ring, ell)
    reps = representatives(ctx.universe)
    for levels in product(range(ring.s + 1), repeat=len(reps)):
        partition = make_partition(
            ctx.universe, ring.s, dict(zip(reps, levels))
        )
        yield partition, code_from_partition(ctx, partition)
