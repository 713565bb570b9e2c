"""Combinatorics on Sigma_ell = {0, ..., ell-1}: q-cyclotomic cosets,
set operators, and (q, s)-cyclotomic partitions.

Universes, coset sets and partitions are frozen records.  A partition's
``info_residue(u)`` is the one place that derives omega, the class mod u of
its information exponents, which contraction needs."""

from __future__ import annotations

import json
import re
from functools import cache
from math import gcd

from ._ints import divisors, euler_phi, multiplicative_order, prime_power_base
from ._record import record
from .chainring import _is_int
from .errors import SingletonViolation, SpecError


@record
class CosetUniverse:
    """The ambient modulus ell together with the acting prime power q, and
    m, the multiplicative order of q mod ell (derived, not a field)."""

    ell: int
    q: int

    def __post_init__(self):
        if self.ell < 1:
            raise SpecError("ell must be >= 1")
        if self.q < 2 or prime_power_base(self.q) is None:
            raise SpecError("q must be a prime power >= 2")
        if gcd(self.q, self.ell) != 1:
            raise SpecError(f"ell = {self.ell} must be coprime to q = {self.q}")
        object.__setattr__(self, "m", multiplicative_order(self.q, self.ell))

    def subset(self, members) -> "CosetSet":
        members = tuple(members)
        if not all(map(_is_int, members)):
            raise SpecError(f"coset members must be integers, got {list(members)!r}")
        return CosetSet(self, frozenset([z % self.ell for z in members]))

    def full(self) -> "CosetSet":
        return self.subset(range(self.ell))

    def empty(self) -> "CosetSet":
        return CosetSet(self, frozenset())


@record
class CosetSet:
    """A subset of Sigma_ell, closed or not under multiplication by q."""

    universe: CosetUniverse
    members: frozenset[int]

    def __post_init__(self):
        members = self.members
        if members and (min(members) < 0 or max(members) >= self.universe.ell):
            raise SpecError("members must lie in {0, ..., ell-1}")

    def __iter__(self):
        return iter(sorted(self.members))

    def __len__(self):
        return len(self.members)

    def __contains__(self, z):
        return z % self.universe.ell in self.members

    def __le__(self, other):
        return self.members <= other.members

    def sorted(self) -> list[int]:
        return sorted(self.members)

    def union(self, other: "CosetSet") -> "CosetSet":
        return CosetSet(self.universe, self.members | other.members)

    def intersection(self, other: "CosetSet") -> "CosetSet":
        return CosetSet(self.universe, self.members & other.members)

    def difference(self, other: "CosetSet") -> "CosetSet":
        return CosetSet(self.universe, self.members - other.members)

    # -- the set operators -------------------------------------------------

    def closure(self) -> "CosetSet":
        """Smallest q-closed superset."""
        ell, q = self.universe.ell, self.universe.q
        out = set()
        for z in self.members:
            while z not in out:
                out.add(z)
                z = (z * q) % ell
        return CosetSet(self.universe, frozenset(out))

    def is_q_closed(self) -> bool:
        ell, q = self.universe.ell, self.universe.q
        return {z * q % ell for z in self.members} <= self.members

    def multiples(self, c: int) -> "CosetSet":
        ell = self.universe.ell
        return CosetSet(
            self.universe, frozenset((c * z) % ell for z in self.members)
        )

    def opposite(self) -> "CosetSet":
        ell = self.universe.ell
        return CosetSet(
            self.universe, frozenset((ell - z) % ell for z in self.members)
        )

    def complement(self) -> "CosetSet":
        return CosetSet(
            self.universe,
            frozenset(range(self.universe.ell)) - self.members,
        )

    def dual(self) -> "CosetSet":
        """Complement of the opposite set."""
        return self.opposite().complement()

    def mod_u_image(self, u: int) -> frozenset[int]:
        return frozenset(z % u for z in self.members)

    def star_dual(self, u: int, omega: int) -> "CosetSet":
        """Elements of the dual set congruent to -omega mod u: for the
        information set of a partition in the class omega, the level-0
        block of ``CyclotomicPartition.star_dual``."""
        target = (-omega) % u
        return CosetSet(
            self.universe,
            frozenset(z for z in self.dual().members if z % u == target),
        )

    def __repr__(self):
        return f"CosetSet(ell={self.universe.ell}, {self.sorted()})"


def coset(universe: CosetUniverse, z: int) -> CosetSet:
    """The q-cyclotomic coset containing z."""
    return universe.subset([z]).closure()


@cache
def cosets(universe: CosetUniverse) -> tuple[CosetSet, ...]:
    """All q-cyclotomic cosets, ordered by minimum element."""
    seen: set[int] = set()
    out = []
    for z in range(universe.ell):
        if z in seen:
            continue
        c = coset(universe, z)
        seen |= c.members
        out.append(c)
    return tuple(out)


def representatives(universe: CosetUniverse) -> list[int]:
    """The minimum element of each coset, sorted ascending."""
    return sorted(min(c.members) for c in cosets(universe))


def count_classes(universe: CosetUniverse) -> int:
    """Number of q-cyclotomic cosets, by actual partitioning."""
    return len(cosets(universe))


def class_count_formula(universe: CosetUniverse) -> int:
    """Number of q-cyclotomic cosets by the divisor sum over d | ell of
    phi(d)/ord_d(q), without listing them; ``count_classes`` cross-checks."""
    total = 0
    for d in divisors(universe.ell):
        total += euler_phi(d) // multiplicative_order(universe.q, d)
    return total


@record
class CyclotomicPartition:
    """An (s+1)-tuple of disjoint q-closed sets covering Sigma_ell: a
    record over ``universe`` and ``blocks`` (normalised to a tuple), with s,
    the number of blocks less one, derived."""

    universe: CosetUniverse
    blocks: tuple[CosetSet, ...]

    def __post_init__(self):
        blocks = tuple(self.blocks)
        if len(blocks) < 2:
            raise SpecError("a partition needs at least two blocks (s >= 1)")
        if any(b.universe != self.universe for b in blocks):
            raise SpecError("partition blocks must share the universe")
        # Blocks lie in Sigma_ell, so they are disjoint exactly when their
        # sizes add up to that of their union, and they cover it exactly
        # when the union has ell members.
        covered = frozenset().union(*(b.members for b in blocks))
        if sum(len(b.members) for b in blocks) != len(covered):
            raise SpecError("partition blocks overlap")
        if not all(b.is_q_closed() for b in blocks):
            raise SpecError("partition blocks must be q-closed")
        if len(covered) != self.universe.ell:
            raise SpecError("partition blocks must cover Sigma_ell")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "s", len(blocks) - 1)

    def __repr__(self):
        return f"CyclotomicPartition({[b.sorted() for b in self.blocks]})"

    def level_of(self, z: int) -> int:
        for t, b in enumerate(self.blocks):
            if z in b:
                return t
        raise AssertionError("partition covers Sigma_ell; unreachable")

    def tilde_dual(self) -> "CyclotomicPartition":
        """Blocks reversed and negated; an involution."""
        return CyclotomicPartition(
            self.universe, [b.opposite() for b in reversed(self.blocks)]
        )

    def info_residue(self, u: int) -> int | None:
        """The single class omega mod u of the information exponents (those
        below level s), None if there are none; SingletonViolation if they
        meet several classes, when a code of length u*n does not contract."""
        residues = frozenset().union(
            *(b.mod_u_image(u) for b in self.blocks[: self.s])
        )
        if len(residues) > 1:
            raise SingletonViolation(
                f"information exponents meet several residue classes mod {u}: "
                f"{sorted(residues)}"
            )
        return min(residues, default=None)

    def star_dual(self, u: int) -> "CyclotomicPartition":
        """The partition of the cyclic code whose contraction is the dual of
        this code's contraction.

        Requires the information exponents to sit in a single residue class
        omega mod u (``info_residue``).  It is the tilde dual with level 0,
        the negated A_s, cut to ``A.star_dual(u, omega)`` for A the
        information set, so every information exponent of the result lies
        in the class -omega, that of gamma^(-1) = beta^omega; the part cut
        off moves to level s.  With all information blocks empty the map
        degenerates to the full-code partition.
        """
        omega = self.info_residue(u)
        if omega is None:  # the zero code: its dual is everything
            blocks = [self.universe.full()] + [self.universe.empty()] * self.s
            return CyclotomicPartition(self.universe, blocks)
        blocks = list(self.tilde_dual().blocks)
        cut = self.blocks[self.s].complement().star_dual(u, omega)
        blocks[-1] = blocks[-1].union(blocks[0].difference(cut))
        blocks[0] = cut
        return CyclotomicPartition(self.universe, blocks)

    def to_assignment(self) -> dict[int, int]:
        level = {z: t for t, b in enumerate(self.blocks) for z in b.members}
        return {z: level[z] for z in representatives(self.universe)}

    def to_json(self) -> dict[str, int]:
        return {str(z): t for z, t in sorted(self.to_assignment().items())}

    @staticmethod
    def from_json(universe: CosetUniverse, s: int, doc) -> "CyclotomicPartition":
        if isinstance(doc, str):
            try:
                doc = json.loads(doc)
            except ValueError as exc:
                raise SpecError(f"malformed partition document: {exc}") from exc
        if not isinstance(doc, dict):
            raise SpecError("partition document must be a JSON object")
        if not all(map(_is_int, doc.values())):
            raise SpecError("partition levels must be integers")
        canonical = re.compile("0|-?[1-9][0-9]*")  # "01" would alias "1"
        if not all(isinstance(k, str) and canonical.fullmatch(k) for k in doc):
            raise SpecError("partition keys must be canonical integers")
        assignment = {int(k): v for k, v in doc.items()}
        return make_partition(universe, s, assignment)


def make_partition(
    universe: CosetUniverse, s: int, assignment: dict[int, int]
) -> CyclotomicPartition:
    """Build the partition whose level-t block is the closure of the
    representatives assigned to t."""
    reps = representatives(universe)
    missing = set(reps) - set(assignment)
    if missing:
        raise SpecError(f"assignment misses representatives {sorted(missing)}")
    extra = set(assignment) - set(reps)
    if extra:
        raise SpecError(f"assignment keys {sorted(extra)} are not representatives")
    if any(v < 0 or v > s for v in assignment.values()):
        raise SpecError(f"levels must lie in 0..{s}")
    blocks = []
    for t in range(s + 1):
        chosen = [z for z in reps if assignment[z] == t]
        blocks.append(universe.subset(chosen).closure())
    return CyclotomicPartition(universe, blocks)


def partition_count(universe: CosetUniverse, s: int) -> int:
    """(s+1)^(number of cosets): how many (q, s)-cyclotomic partitions exist,
    by the divisor-sum count, without listing the cosets."""
    return (s + 1) ** class_count_formula(universe)
