"""Finite chain rings of invariants (q, s) with exact element arithmetic.

Two concrete families are provided, both realizing every pair (q, s):

* ``GR``:  Z_{p^s}[x]/(h(x)) with h a monic basic irreducible of degree r,
  so q = p^r and theta = p.
* ``EU``:  F_{p^r}[u]/(u^s), so q = p^r and theta = u.

Each spec has exactly one ring (``make_ring`` caches on the spec record),
so rings compare by identity.  Elements are immutable and interned per
ring through a ``_LazyTable`` keyed by coordinates: equal coordinates mean
the same object, so elements compare and hash by identity.  The
Teichmuller set Gamma(R), the q solutions of b^q = b, is the image of the
closed-form lift a -> a^(q^(s-1)), and theta-adic digits are taken in it.
Coordinates are lowest-degree-first integer coefficients in the canonical
polynomial basis; integers live in [0, p^s) for ``GR`` and in
[0, p^r) per u-power for ``EU``, where each is an element index of
``ring.field``, the residue field F_q as the chain ring GR(p, r, 1), and EU
arithmetic is its coordinate arithmetic (with r = 1, F_p, coordinates add
as integers mod p).  Each element also carries a dense ``index``: its
position in ``ring.elements()`` (the ``element_at`` order, the coordinates
read as base-``p^s`` or base-``q`` digits), so the zero element has index 0.

Rings with at most ``TABLE_CAP`` elements do their arithmetic by table
lookup on element indices.  Each table is held once, as the ``bytes``
translation of element indices that the row kernel translates with, and
is filled on first use through the coordinate arithmetic that larger
rings use directly: ``+`` and ``*`` a row at a time (one left operand
against every element), and the negation, the theta-valuation and each
level's ``theta_quotient`` whole.  A unit's inverse is read off its ``*``
row.  Element arithmetic maps an index back through ``elements()``.

Elimination runs on encoded rows: ``encode_row`` gives a ``bytes`` string
of element indices in a ring with tables and a list of elements above the
cap, and the row operations (``row_add``, ``row_axpy``, ``row_scale``,
``row_divide``, ``neg_outer``, ``row_valuations``) and the entry
operations (``entry_valuation``, ``entry_quotient``, ``entry_divide``,
``entry_inv``) take and return that encoding.  Zero encodes as a false
value either way.  On byte rows they run in C, through ``bytes.translate``
with those tables.  Addition is digit-wise on indices (base B = ``p^s`` for
``GR``, ``p`` for ``EU``), so index rows re-spelt in byte lanes add as
integers (``int.from_bytes``) with no digit sum carrying, until a fold
takes the digits back modulo B.  ``_lane_layout`` builds each layout as
a ``Lanes`` record, once, so that layouts that coincide (the add and digit
lanes of a one-digit ring) are one record.  The kernel keeps three, each
the fastest of them at its task:

* ``_pivot_lanes`` (a whole index in one lane below 128) for
  ``eliminate``, one rank-1 update of the whole matrix per pivot, and
  ``apply_row_ops``: an update is one integer sum, the fold waits for
  several updates, and bit 7 of a lane marks a pivot row;
* ``_add_lanes`` (full bytes, at most two planes when B <= 128) for
  ``row_add``; only rings with B > 128 add through the ``+`` table;
* ``_digit_lanes`` (one digit per byte) for ``decompose_cyclic``, which
  adds a code row's pairings with every trace row of its context in one
  C-level sum per chunk of columns.
"""

from __future__ import annotations

import json
from functools import cache, cached_property
from operator import getitem

from . import _polys
from ._ints import PRIME_TEST_BOUND, integer_root, is_prime, order_dividing
from ._record import record
from .errors import BudgetExceeded, SpecError

GALOIS_RING = "GR"
EU_POWER_SERIES = "EU"
TABLE_CAP = 256  # rings with at most this many elements use lookup tables
# The largest q whose GR modulus is Hensel-lifted: the lift works on the
# dense X^(q-1) - 1 and takes seconds at q = 3^8.
HENSEL_CAP = 6561
# The largest residue degree r of any ring, extension tops r*m included.
# It admits ell = 1000 over F_3 (m = 100); the degree-100 extension of
# F3[u]/(u^2) takes about 30 s to build, 3 s of it the modulus search.
DEGREE_CAP = 100
# The largest residue field size q of a base that a Galois extension of
# degree m >= 2 is built over.  The embedding's root search lists the q
# Teichmuller lifts of F_q: about 2.5 s for F_(3^8) at degree 2.  No base
# element is listed, so the size of the base is not bounded.
EXTENSION_BASE_CAP = 6561


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


@record
class ChainRingSpec:
    """Defining data of a concrete finite chain ring, checked when made.

    The invariants are checked, and a ring over the degree or Hensel budget
    refused, before any modulus is searched for or tested.  Without a
    modulus the canonical one, ``smallest_irreducible(p, r)``, is derived;
    a given modulus is stored reduced mod p, so each spelling of it gives
    one spec, and is tested for irreducibility once."""

    family: str
    p: int
    r: int
    s: int
    modulus: tuple[int, ...] = None  # monic of degree r over F_p, low first

    def __post_init__(self):
        family, p, r, s = self.family, self.p, self.r, self.s
        modulus = self.modulus
        if family not in (GALOIS_RING, EU_POWER_SERIES):
            raise SpecError(f"unknown ring family {family!r}")
        for name, value in (("p", p), ("r", r), ("s", s)):
            if not _is_int(value):
                raise SpecError(f"{name} must be an integer, got {value!r}")
        if p >= PRIME_TEST_BOUND:
            raise SpecError(f"p = {p} is too large to certify as prime")
        if not is_prime(p):
            raise SpecError(f"p = {p} is not prime")
        if r < 1:
            raise SpecError("r must be >= 1")
        if s < 1:
            raise SpecError("s must be >= 1")
        if r > DEGREE_CAP:
            raise BudgetExceeded(
                f"{family}(p={p},r={r},s={s}) has residue degree r = {r}, "
                f"over budget r <= {DEGREE_CAP}"
            )
        # p >= 2, so p^13 > HENSEL_CAP: the capped exponent keeps the power small.
        lifted = family == GALOIS_RING and r >= 2 and s >= 2
        if lifted and p ** min(r, HENSEL_CAP.bit_length()) > HENSEL_CAP:
            raise BudgetExceeded(
                f"lifting the modulus of GR(p={p},r={r},s={s}) works on "
                f"X^(q-1) - 1 with q = {p}^{r}, over budget q <= {HENSEL_CAP}"
            )
        if modulus is None:
            modulus = _polys.smallest_irreducible(p, r)
        elif isinstance(modulus, (list, tuple)) and all(map(_is_int, modulus)):
            modulus = tuple([c % p for c in modulus])
            if len(modulus) != r + 1 or modulus[-1] != 1:
                raise SpecError("modulus must be monic of degree r")
            if not _polys.is_irreducible_fp(modulus, p):
                raise SpecError("modulus is reducible over F_p")
        else:
            raise SpecError("modulus must be a list of integers")
        object.__setattr__(self, "modulus", modulus)

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "p": self.p,
            "r": self.r,
            "s": self.s,
            "modulus": list(self.modulus),
        }

    @staticmethod
    def from_json(doc) -> "ChainRingSpec":
        if isinstance(doc, str):
            try:
                doc = json.loads(doc)
            except ValueError as exc:
                raise SpecError(f"malformed ring spec: {exc}") from exc
        if not isinstance(doc, dict):
            raise SpecError("ring spec must be a JSON object")
        try:
            family, p, r, s = [doc[key] for key in ("family", "p", "r", "s")]
        except KeyError as exc:
            raise SpecError(f"ring spec has no {exc}") from exc
        return ChainRingSpec(family, p, r, s, doc.get("modulus"))


class _LazyTable(dict):
    """A table whose entry for a key is computed by ``fill(key)`` on first
    use and kept."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _translation(entries) -> bytes:
    """A bytes.translate table: the given entries, padded to 256 with 0."""
    return bytes(entries) + bytes(256 - len(entries))


@record
class Lanes:
    """Index digits in byte lanes; see ``ChainRing._lane_layout``."""

    base: int
    headroom: int
    code: tuple
    fold: bytes
    unlane: tuple
    vals: tuple


# Sets bit 7 of a lane: ``ChainRing.eliminate`` marks the pivot rows.
_MARK = bytes(y | 0x80 for y in range(256))


def _lane_sum(u, w) -> bytes:
    """Two rows of byte lanes added lane by lane, no lane carrying."""
    total = int.from_bytes(u, "little") + int.from_bytes(w, "little")
    return total.to_bytes(len(u), "little")


def _or_bytes(u, w) -> bytes:
    """Two byte rows OR-ed byte by byte."""
    total = int.from_bytes(u, "little") | int.from_bytes(w, "little")
    return total.to_bytes(len(u), "little")


def _foreign(other) -> SpecError:
    return SpecError(f"{other!r} is an element of another ring")


class RingElement:
    """An element of a ChainRing in canonical coordinates."""

    __slots__ = ("ring", "coords", "index")

    def __init__(self, ring: "ChainRing", coords: tuple[int, ...], index: int):
        self.ring = ring
        self.coords = coords
        self.index = index

    def __add__(self, other):
        if other.ring is not self.ring:
            raise _foreign(other)
        return self.ring._add(self, other)

    def __sub__(self, other):
        if other.ring is not self.ring:
            raise _foreign(other)
        return self.ring._add(self, self.ring._neg(other))

    def __neg__(self):
        return self.ring._neg(self)

    def __mul__(self, other):
        if other.ring is not self.ring:
            raise _foreign(other)
        return self.ring._mul(self, other)

    def __pow__(self, e: int):
        return self.ring.pow(self, e)

    def __bool__(self):
        return self.index != 0

    def __repr__(self):
        return f"<{list(self.coords)} in {self.ring.short_name()}>"

    def to_json(self) -> list[int]:
        return list(self.coords)


class ChainRing:
    """A concrete finite chain ring; construct via :func:`make_ring`."""

    def __init__(self, spec: ChainRingSpec):
        self.spec = spec
        self.family = spec.family
        self.p = spec.p
        self.r = spec.r
        self.s = spec.s
        self.q = spec.p**spec.r
        self.size = self.q**spec.s
        self._pm = spec.p**spec.s  # coefficient modulus for the GR family
        if self.family == GALOIS_RING:
            if self.r == 1 or self.s == 1:
                self.lifted_modulus = [c % self._pm for c in spec.modulus]
            else:
                self.lifted_modulus = _polys.hensel_lift_modulus(
                    list(spec.modulus), self.p, self.s
                )
            width = self.r
        else:
            self.lifted_modulus = None
            width = self.s
        self._width = width
        self._base = self._pm if self.family == GALOIS_RING else self.q
        # Coordinates that add as integers mod _base: Z/p^s in GR, and F_p in
        # EU with r = 1; other EU coordinates add in ``field``.
        self._modular = self.family == GALOIS_RING or self.r == 1
        self._interned = _LazyTable(self._new_element)
        self.zero = self.make((0,) * width)
        self.one = self.make((1,) + (0,) * (width - 1))
        if self.family == GALOIS_RING:
            theta = (self.p % self._pm,) + (0,) * (width - 1)
        elif self.s == 1:
            theta = (0,) * width
        else:
            theta = (0, 1) + (0,) * (width - 2)
        self.theta = self.make(theta)
        self.has_tables = self.size <= TABLE_CAP
        if self.has_tables:
            elems = self.elements()

            def rows(op):  # the row of i: op(elems[i], b) for every b
                return _LazyTable(
                    lambda i: _translation([op(elems[i], b).index for b in elems])
                )

            self._add_bytes = rows(self._add_coords)
            self._mul_bytes = rows(self._mul_coords)
        else:
            self._add_bytes = self._mul_bytes = None

    def _table(self, entry) -> bytes | None:
        """The translation i -> entry(elems[i]), filled whole; None
        without tables."""
        if not self.has_tables:
            return None
        return _translation(list(map(entry, self._elements)))

    @cached_property
    def _neg_bytes(self) -> bytes | None:
        return self._table(lambda a: self._neg_coords(a).index)

    @cached_property
    def _val_bytes(self) -> bytes | None:
        """i -> the theta-valuation of element i (s for zero)."""
        return self._table(self._valuation_coords)

    @cached_property
    def _quo_bytes(self) -> _LazyTable | None:
        """Per t, the translation i -> ``theta_quotient(elems[i], t)``;
        for t = 0 the identity, which needs no digits."""
        if not self.has_tables:
            return None
        return _LazyTable(
            lambda t: self._table(lambda a: self._quotient_digits(a, t).index)
            if t
            else _translation(range(self.size))
        )

    @cached_property
    def _digits(self) -> tuple[int, int]:
        """(B, d): indices are d-digit base-B numbers, and addition adds
        their digits modulo B."""
        if self.family == GALOIS_RING:
            return self._pm, self.r
        return self.p, self.r * self.s

    @cache  # layouts that coincide are one record
    def _lane_layout(self, ceiling: int, per_lane: int):
        """Index digits held ``per_lane`` to a byte lane, in base W, the
        largest W with W^per_lane <= ceiling: a ``Lanes`` record, or None
        without tables or when no lane takes even one add.

        An index takes one lane per plane, the low digits in plane 0.
        Digits below B take ``headroom`` = (W - B) // (B - 1) more adds of
        digits below B before any reaches W and carries.  ``code[k]`` takes
        an index to its plane-k lane (None for the identity), ``fold`` a
        lane to the lane of its digits mod B, ``unlane[k]`` a plane-k lane
        to its share of the index (the shares add without carry), and
        ``vals[k]`` a plane-k lane to the valuation of its share.  Bits at
        or above the ceiling are kept by ``fold``, dropped by ``unlane`` and
        read by ``vals`` as 0x80, past every valuation."""
        if not self.has_tables:
            return None
        base, count = self._digits
        wide = integer_root(ceiling, per_lane)
        headroom = (wide - base) // (base - 1)
        if headroom < 1:
            return None

        def respelt(old, new):  # x < old^per_lane -> its digits mod B, base new
            table = [0]
            for x in range(1, old**per_lane):
                table.append(x % old % base + new * table[x // old])
            return table

        lane_of, index_of = respelt(base, wide), respelt(wide, base)
        planes, size = range(0, count, per_lane), self.size
        low = [y % ceiling % len(index_of) for y in range(256)]  # lane y's digits
        code = (None,) if count == 1 else tuple(
            _translation([lane_of[i // base**k % len(lane_of)] for i in range(size)])
            for k in planes
        )
        fold = bytes(y - y % ceiling + lane_of[index_of[z]] for y, z in enumerate(low))
        unlane = tuple(bytes(index_of[z] * base**k % size for z in low) for k in planes)
        marked = b"\x80" * (256 - ceiling)
        vals = tuple(u[:ceiling].translate(self._val_bytes) + marked for u in unlane)
        return Lanes(wide, headroom, code, fold, unlane, vals)

    @cached_property
    def _pivot_lanes(self):
        """Lanes for ``eliminate`` and ``apply_row_ops``: a whole index in
        one lane below 128, so that bit 7 is free to mark a pivot row."""
        return self._lane_layout(128, self._digits[1])

    @cached_property
    def _add_lanes(self):
        """Lanes for ``row_add``: full bytes in the fewest planes, which in
        a table ring with B <= 128 is at most two."""
        count = self._digits[1]
        return self._lane_layout(256, count) or self._lane_layout(256, -(-count // 2))

    @cached_property
    def _digit_lanes(self):
        """Lanes of one digit each, for many sums before a fold:
        ``decompose_cyclic`` holds a pairing per lane."""
        return self._lane_layout(256, 1)

    def short_name(self) -> str:
        return f"{self.family}(p={self.p},r={self.r},s={self.s})"

    def __repr__(self):
        return f"ChainRing[{self.short_name()}, q={self.q}, |R|={self.size}]"

    # -- element construction --------------------------------------------

    def make(self, coords: tuple[int, ...]) -> RingElement:
        return self._interned[coords]

    def _new_element(self, coords: tuple[int, ...]) -> RingElement:
        index = 0
        for c in reversed(coords):
            index = index * self._base + c
        return RingElement(self, coords, index)

    def element(self, coords) -> RingElement:
        """Validating public constructor from a coordinate sequence."""
        coords = tuple(coords)
        if not all(map(_is_int, coords)):
            raise SpecError(f"coordinates must be integers, got {list(coords)!r}")
        if len(coords) != self._width:
            raise SpecError(
                f"expected {self._width} coordinates, got {len(coords)}"
            )
        coords = tuple(c % self._base for c in coords)
        return self.make(coords)

    def from_int(self, k: int) -> RingElement:
        """The image of the integer k under Z -> R."""
        return self.int_mul(k, self.one)

    def element_at(self, index: int) -> RingElement:
        base = self._base
        coords = []
        for _ in range(self._width):
            coords.append(index % base)
            index //= base
        return self.make(tuple(coords))

    def elements(self):
        """All ring elements in the deterministic canonical order."""
        return self._elements

    @cached_property
    def _elements(self) -> tuple[RingElement, ...]:
        return tuple(self.element_at(i) for i in range(self.size))

    # -- arithmetic -------------------------------------------------------

    def _add(self, a: RingElement, b: RingElement) -> RingElement:
        if self.has_tables:
            return self._elements[self._add_bytes[a.index][b.index]]
        return self._add_coords(a, b)

    def _neg(self, a: RingElement) -> RingElement:
        if self.has_tables:
            return self._elements[self._neg_bytes[a.index]]
        return self._neg_coords(a)

    def _mul(self, a: RingElement, b: RingElement) -> RingElement:
        if self.has_tables:
            return self._elements[self._mul_bytes[a.index][b.index]]
        return self._mul_coords(a, b)

    def _add_coords(self, a: RingElement, b: RingElement) -> RingElement:
        if self._modular:
            n = self._base
            return self.make(
                tuple([(x + y) % n for x, y in zip(a.coords, b.coords)])
            )
        at, add = self.field.element_at, self.field._add_coords
        return self.make(
            tuple([add(at(x), at(y)).index for x, y in zip(a.coords, b.coords)])
        )

    def _neg_coords(self, a: RingElement) -> RingElement:
        if self._modular:
            n = self._base
            return self.make(tuple([(-x) % n for x in a.coords]))
        at, neg = self.field.element_at, self.field._neg_coords
        return self.make(tuple([neg(at(x)).index for x in a.coords]))

    def _mul_coords(self, a: RingElement, b: RingElement) -> RingElement:
        if self.family == GALOIS_RING:
            prod = _polys.mul(list(a.coords), list(b.coords), self._pm)
            if len(prod) > self.r:
                prod = _polys.mod_unit_lead(prod, self.lifted_modulus, self._pm)
            prod = prod + [0] * (self.r - len(prod))
            return self.make(tuple(prod))
        F = self.field
        s = self.s
        xs = [F.element_at(x) for x in a.coords]
        ys = [F.element_at(y) for y in b.coords]
        out = [F.zero] * s
        for i, x in enumerate(xs):
            if not x:
                continue
            for j in range(s - i):
                y = ys[j]
                if y:
                    out[i + j] = F._add_coords(out[i + j], F._mul_coords(x, y))
        return self.make(tuple([c.index for c in out]))

    def int_mul(self, k: int, a: RingElement) -> RingElement:
        if self._modular:
            n = self._base
            return self.make(tuple([(k * x) % n for x in a.coords]))
        F = self.field
        return self.make(
            tuple([F.int_mul(k, F.element_at(x)).index for x in a.coords])
        )

    def pow(self, a: RingElement, e: int) -> RingElement:
        if e < 0:
            return self.pow(self.inv(a), -e)
        out = self.one
        base = a
        while e:
            if e & 1:
                out = self._mul(out, base)
            base = self._mul(base, base)
            e >>= 1
        return out

    # -- elimination kernel on encoded rows ---------------------------------

    def encode(self, a: RingElement):
        """The kernel's encoding of an element: its index with tables, the
        element itself above the cap."""
        return a.index if self.has_tables else a

    def decode(self, x) -> RingElement:
        return self._elements[x] if self.has_tables else x

    def encode_row(self, v):
        if self.has_tables:
            return bytes([a.index for a in v])
        return list(v)

    def decode_row(self, v) -> tuple[RingElement, ...]:
        if self.has_tables:
            elems = self._elements
            return tuple([elems[x] for x in v])
        return tuple(v)

    def columns(self, rows):
        """The matrix of the encoded rows held column-major as one encoded
        row: entry (i, j) at j * len(rows) + i."""
        if not self.has_tables:
            return [a for column in zip(*rows) for a in column]
        width = len(rows[0]) if rows else 0
        flat = b"".join(rows)
        return b"".join([flat[j::width] for j in range(width)])

    def row_add(self, u, w):
        """The row u + w, entrywise."""
        if not self.has_tables:
            return [a + b for a, b in zip(u, w)]
        lanes = self._add_lanes
        if lanes is None:
            return bytes(map(getitem, map(self._add_bytes.__getitem__, u), w))
        code, unlane = lanes.code, lanes.unlane
        if len(code) == 2:  # the shares of the two planes add without carry
            (c0, c1), (f0, f1) = code, unlane
            low = _lane_sum(u.translate(c0), w.translate(c0)).translate(f0)
            high = _lane_sum(u.translate(c1), w.translate(c1)).translate(f1)
            return _lane_sum(low, high)
        (code,), (unlane,) = code, unlane
        if code is not None:
            u, w = u.translate(code), w.translate(code)
        total = int.from_bytes(u, "little") + int.from_bytes(w, "little")
        return total.to_bytes(len(u), "little").translate(unlane)

    def neg_outer(self, x, y):
        """The row of the entries -x_i * y_j, i-major: the matrix -x y^T
        held row-major, or -y x^T held column-major.  With tables it is
        one ``translate`` of -y per distinct entry of x."""
        if not self.has_tables:
            return [a * b for a in map(self._neg, x) for b in y]
        keys, minus_y = set(x), y.translate(self._neg_bytes)
        tables = map(self._mul_bytes.__getitem__, keys)
        images = dict(zip(keys, map(minus_y.translate, tables)))
        return b"".join(map(images.__getitem__, x))

    def row_axpy(self, u, c, v):
        """The row u - c*v, entrywise."""
        if not self.has_tables:
            return [a - c * b for a, b in zip(u, v)]
        return self.row_add(u, v.translate(self._mul_bytes[self._neg_bytes[c]]))

    def row_scale(self, c, v):
        """The row c*v, entrywise."""
        if not self.has_tables:
            return [c * a for a in v]
        return v.translate(self._mul_bytes[c])

    def row_valuations(self, v):
        """The theta-valuation of each entry (s for a zero entry)."""
        if not self.has_tables:
            return [self.theta_valuation(a) for a in v]
        return v.translate(self._val_bytes)

    def row_divide(self, v, t: int):
        """``entry_divide`` of each entry by theta^t; raises SpecError
        unless theta^t divides every entry."""
        if not self.has_tables:
            return [self.theta_shift_down(a, t) for a in v]
        if min(v.translate(self._val_bytes), default=t) < t:
            raise SpecError("element is not divisible by theta^t")
        return v.translate(self._quo_bytes[t])

    def eliminate(self, rows, width: int):
        """Valuation-greedy elimination of encoded rows of ``width``
        entries: (standard-form rows, pivots), each pivot a (column,
        valuation) pair.

        The matrix is held column-major, h rows high.  Each pivot is the
        first entry of least valuation t outside the pivot rows so far: the
        least column col, and in it the first row j.  One rank-1 update of
        the whole matrix then subtracts the multiple entry_quotient(b, t)
        of the pivot row, scaled to theta^t at col, from every row with b
        at col: rows not yet pivots lose the column, and pivot rows keep
        its residue modulo theta^t.  Row j itself, unit * (the scaled
        row), takes coefficient unit - 1 and becomes the scaled row.  No
        row is swapped: the standard form does not depend on the order of
        the rows.

        With tables the update touches only the columns between the first
        and the last nonzero entry of the pivot row.  With ``_pivot_lanes``
        the matrix holds lanes, not indices: a column range is updated by
        one integer sum, the lanes are folded only every ``headroom``
        updates, and bit 7 of a lane marks the pivot rows, which ``vals``
        reads past every valuation.  Without them each update is a
        ``row_add`` and the pivot rows are marked in a mask of their own."""
        rows = [r for r in rows if any(r)]
        if not rows:
            return [], []
        if not self.has_tables:
            return self._eliminate_elements(rows, width)
        h = len(rows)
        x = bytearray(self.columns(rows))
        add, mul, quo = self._add_bytes, self._mul_bytes, self._quo_bytes
        minus_one = self._neg_bytes[self.one.index]
        marks = b"\x80" * width
        lanes = self._pivot_lanes
        if lanes is None:
            search = self._val_bytes
            marked = bytearray(len(x))  # 0x80 at each entry of a pivot row
        else:
            (code,), (unlane,), (search,) = lanes.code, lanes.unlane, lanes.vals
            if code is not None:  # else an index is its own lane
                x = x.translate(code)
            fresh = lanes.headroom
        vals = x.translate(search)
        levels = range(self.s)
        chosen, pivots = [], []
        while True:
            for t in levels:
                at = vals.find(t)
                if at >= 0:
                    break
            else:
                break
            col, j = divmod(at, h)
            row, column = x[j::h], x[col * h : (col + 1) * h]
            if lanes is not None:
                row, column = row.translate(unlane), column.translate(unlane)
            unit = quo[t][row[col]]
            row = row.translate(mul[self.entry_inv(unit)])
            coeffs = column.translate(quo[t])
            coeffs[j] = add[unit][minus_one]
            # Row j is marked everywhere, for the windows of later updates;
            # its entries change only in this update's window.
            if lanes is None:
                marked[j::h] = marks
            else:
                x[j::h] = x[j::h].translate(_MARK)
            if not any(coeffs):
                vals[j::h] = marks
            else:
                lo = width - len(row.lstrip(b"\0"))
                delta = self.neg_outer(row[lo : len(row.rstrip(b"\0"))], coeffs)
                a, z = lo * h, lo * h + len(delta)
                if lanes is None:
                    x[a:z] = self.row_add(x[a:z], delta)
                    vals[a:z] = _or_bytes(x[a:z].translate(search), marked[a:z])
                else:
                    if not fresh:
                        x = x.translate(lanes.fold)
                        fresh = lanes.headroom
                    if code is not None:
                        delta = delta.translate(code)
                    x[a:z] = _lane_sum(x[a:z], delta)
                    fresh -= 1
                    vals[a:z] = x[a:z].translate(search)
            chosen.append(j)
            pivots.append((col, t))
        if lanes is not None:
            x = x.translate(unlane)
        return [bytes(x[j::h]) for j in chosen], pivots

    def _eliminate_elements(self, rows, width: int):
        """``eliminate`` above the cap, on lists of elements."""
        h, s = len(rows), self.s
        x = self.columns(rows)
        done = set()
        chosen, pivots = [], []
        while True:
            vals = map(self.theta_valuation, x)
            hit = min(
                ((t, i) for i, t in enumerate(vals) if t < s and i % h not in done),
                default=None,
            )
            if hit is None:
                break
            t, at = hit
            col, j = divmod(at, h)
            unit = self.theta_shift_down(x[at], t)
            row = self.row_scale(self.inv(unit), x[j::h])
            coeffs = [self.theta_quotient(b, t) for b in x[col * h : (col + 1) * h]]
            coeffs[j] = unit - self.one
            x = self.row_add(x, self.neg_outer(row, coeffs))
            done.add(j)
            chosen.append(j)
            pivots.append((col, t))
        return [x[j::h] for j in chosen], pivots

    def apply_row_ops(self, m, width: int, ops):
        """The row-major matrix m (encoded, rows of ``width`` entries) after
        the row operations ``ops``, in order: for each (coeffs, r), every
        row i loses coeffs_i times row r as it stands then.  Each is one
        rank-1 update of the rows between the first and the last nonzero
        coefficient, in lanes when the ring has them."""
        lanes = self._pivot_lanes
        if lanes is None:
            for coeffs, r in ops:
                if any(coeffs):
                    pivot = m[r * width : (r + 1) * width]
                    m = self.row_add(m, self.neg_outer(coeffs, pivot))
            return m
        (code,), (unlane,) = lanes.code, lanes.unlane
        x = bytearray(m if code is None else m.translate(code))
        fresh = lanes.headroom
        for coeffs, r in ops:
            lo = len(coeffs) - len(coeffs.lstrip(b"\0"))
            part = coeffs[lo : len(coeffs.rstrip(b"\0"))]
            if not part:
                continue
            pivot = x[r * width : (r + 1) * width].translate(unlane)
            if not fresh:
                x = x.translate(lanes.fold)
                fresh = lanes.headroom
            delta = self.neg_outer(part, pivot)
            if code is not None:
                delta = delta.translate(code)
            a, z = lo * width, lo * width + len(delta)
            x[a:z] = _lane_sum(x[a:z], delta)
            fresh -= 1
        return bytes(x.translate(unlane))

    def entry_valuation(self, x) -> int:
        if not self.has_tables:
            return self.theta_valuation(x)
        return self._val_bytes[x]

    def entry_quotient(self, x, v: int):
        """theta_quotient on an encoded entry."""
        if not self.has_tables:
            return self.theta_quotient(x, v)
        return self._quo_bytes[v][x]

    def entry_divide(self, x, v: int):
        """Some c with theta^v * c = x; raises SpecError unless theta^v
        divides x.  With tables c is ``theta_quotient(x, v)``, above the
        cap ``theta_shift_down(x, v)``; the two differ by a multiple of
        theta^(s-v) and agree on everything theta^v multiplies."""
        if not self.has_tables:
            return self.theta_shift_down(x, v)
        if self._val_bytes[x] < v:
            raise SpecError("element is not divisible by theta^t")
        return self._quo_bytes[v][x]

    def entry_inv(self, x):
        """The inverse of a unit; with tables, read off the unit's ``*``
        row as the index that it takes to one."""
        if not self.has_tables:
            return self.inv(x)
        inverse = self._mul_bytes[x].find(self.one.index)
        if inverse < 0:
            raise ZeroDivisionError("element is not a unit")
        return inverse

    # -- residue field ----------------------------------------------------

    @cached_property
    def field(self) -> "ChainRing":
        """The residue field F_q as the chain ring GR(p, r, 1): the ring
        itself when it is one."""
        if self.family == GALOIS_RING and self.s == 1:
            return self
        modulus = self.spec.modulus
        return make_ring(ChainRingSpec(GALOIS_RING, self.p, self.r, 1, modulus))

    def residue(self, a: RingElement) -> int:
        """The canonical projection onto F_q, as an index of ``field``."""
        if self.family == GALOIS_RING:
            p = self.p
            return self.field.make(tuple([c % p for c in a.coords])).index
        return a.coords[0]

    def lift(self, c: int) -> RingElement:
        """The naive coordinatewise lift of an index of ``field``."""
        c %= self.q
        if self.family == GALOIS_RING:
            return self.make(self.field.element_at(c).coords)
        return self.make((c,) + (0,) * (self.s - 1))

    # -- theta-adic structure --------------------------------------------

    def theta_pow(self, t: int) -> RingElement:
        if t >= self.s:
            return self.zero
        return self.pow(self.theta, t)

    def theta_valuation(self, a: RingElement) -> int:
        """Largest t <= s with a in R theta^t (s for the zero element)."""
        if self.has_tables:
            return self._val_bytes[a.index]
        return self._valuation_coords(a)

    def _valuation_coords(self, a: RingElement) -> int:
        if self.family == EU_POWER_SERIES:
            for i, c in enumerate(a.coords):
                if c:
                    return i
            return self.s
        best = self.s
        for c in a.coords:
            if c == 0:
                continue
            v = 0
            while c % self.p == 0:
                c //= self.p
                v += 1
            best = min(best, v)
        return best

    def theta_shift_down(self, a: RingElement, t: int = 1) -> RingElement:
        """The canonical preimage under multiplication by theta^t: requires
        valuation >= t.  For GR each coordinate is divided by p^t, for EU
        the u-coordinates shift down with zeros on top; the GR result can
        have nonzero top theta-digits (6/3 = 2 = 8 + 3*1 in Z9)."""
        if t == 0:
            return a
        if self.theta_valuation(a) < t:
            raise SpecError("element is not divisible by theta^t")
        if self.family == GALOIS_RING:
            d = self.p**t
            return self.make(tuple([c // d for c in a.coords]))
        return self.make(a.coords[t:] + (0,) * t)

    def teichmuller(self, a: RingElement) -> RingElement:
        """The Teichmuller representative with the same residue as a, in
        closed form a^(q^(s-1)).  With a = b + theta*c and b^q = b: in GR,
        x = y mod p^k gives x^p = y^p mod p^(k+1), so the power is b; in EU
        (characteristic p) the power is additive and (theta*c)^(q^(s-1)) is
        0, as q^(s-1) >= s."""
        return self.pow(a, self.q ** (self.s - 1))

    def teichmuller_set(self) -> tuple[RingElement, ...]:
        """The q solutions of b^q = b, ordered by residue 0..q-1."""
        return self._teich

    @cached_property
    def _teich(self) -> tuple[RingElement, ...]:
        return tuple(self.teichmuller(self.lift(c)) for c in range(self.q))

    def theta_adic_expansion(self, a: RingElement) -> tuple[RingElement, ...]:
        """The unique digits (a_0, ..., a_{s-1}) in the Teichmuller set with
        a = sum a_t theta^t."""
        digits = []
        cur = a
        for _ in range(self.s):
            d = self.teichmuller(cur)
            digits.append(d)
            cur = self.theta_shift_down(cur - d)
        return tuple(digits)

    def recompose(self, digits) -> RingElement:
        out = self.zero
        for t, d in enumerate(digits):
            out = out + self._mul(d, self.theta_pow(t))
        return out

    def theta_quotient(self, b: RingElement, v: int) -> RingElement:
        """The element whose theta-adic digits are those of b shifted down
        by v places, with zeros on top: b = r + theta^v * quotient, where r
        has its digits below place v.  This is the elimination coefficient
        that reduces b modulo theta^v."""
        if self.has_tables:
            return self._elements[self._quo_bytes[v][b.index]]
        return self._quotient_digits(b, v)

    def _quotient_digits(self, b: RingElement, v: int) -> RingElement:
        digits = self.theta_adic_expansion(b)
        return self.recompose(digits[v:] + (self.zero,) * v)

    # -- units ------------------------------------------------------------

    def is_unit(self, a: RingElement) -> bool:
        return self.residue(a) != 0

    def inv(self, a: RingElement) -> RingElement:
        if self.has_tables:
            return self._elements[self.entry_inv(a.index)]
        return self._inv_coords(a)

    def _inv_coords(self, a: RingElement) -> RingElement:
        if not self.is_unit(a):
            raise ZeroDivisionError("element is not a unit")
        F = self.field
        b = self.lift(F.pow(F.element_at(self.residue(a)), self.q - 2).index)
        two = self.from_int(2)
        for _ in range(self.s):  # Newton: precision doubles per step
            b = self._mul(b, two - self._mul(a, b))
        return b

    def unit_group_order(self) -> int:
        return self.q ** (self.s - 1) * (self.q - 1)

    def multiplicative_order(self, a: RingElement) -> int:
        if not self.is_unit(a):
            raise ValueError("nonunits have no multiplicative order")
        return order_dividing(
            self.unit_group_order(), lambda d: self.pow(a, d) is self.one
        )


def make_ring(spec: ChainRingSpec | dict | str) -> ChainRing:
    """The one ring of a spec, built on first request.  A spec is checked
    when it is made, so a JSON spec is checked when it is parsed, and a
    ring is built from a checked spec without checking it again."""
    if not isinstance(spec, ChainRingSpec):
        spec = ChainRingSpec.from_json(spec)
    return _ring_of(spec)


_ring_of = cache(ChainRing)


def galois_ring(p: int, r: int, s: int) -> ChainRing:
    return make_ring(ChainRingSpec(GALOIS_RING, p, r, s))


def eu_ring(p: int, r: int, s: int) -> ChainRing:
    return make_ring(ChainRingSpec(EU_POWER_SERIES, p, r, s))
