"""Brute-force reference implementations, for cross-checking the fast paths.

Everything here works by exhaustive enumeration over vectors or codewords
and never calls the structural algorithms it is meant to check.  It also
computes with each ring's coordinate arithmetic rather than the lookup
tables that small rings use elsewhere, so that agreement with the
structural results checks the tables too.  Budgets bound the enumeration
sizes; exceeding one raises BudgetExceeded.

brute_dual tabulates, once per call, the product of every ring element with
every generator entry, and then walks R^n a coordinate at a time with one
add per generator at each step.  Given more rows than the composition
length n*s of R^n, it first keeps only those that enlarge the span of the
rows before them, so that each step costs at most n*s adds.  Its tables
are locals of the call, freed when it returns; the only process-lifetime
memos here are the per-pair ones on adds and multiplies behind the
codeword-set loops.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, product

from ._record import record
from .chainring import ChainRing
from .errors import BudgetExceeded, SpecError
from .modcodes import LinearCode, weight

MAX_VECTORS = 10**7
MAX_CODEWORDS = 10**6


@record
class Budget:
    max_vectors: int = MAX_VECTORS
    max_codewords: int = MAX_CODEWORDS

    def check_vectors(self, size: int, n: int):
        """Refuse the size^n vectors of R^n over budget; the count is
        written as a power, as it can have too many digits to print."""
        # size >= 2, so size^n > max_vectors once 2^n is.
        if n > self.max_vectors.bit_length() or size**n > self.max_vectors:
            raise BudgetExceeded(
                f"{size}^{n} vectors exceed the budget of {self.max_vectors}"
            )

    def check_codewords(self, count: int):
        if count > self.max_codewords:
            raise BudgetExceeded(
                f"{count} codewords exceed the budget of {self.max_codewords}"
            )


def _coord_add(a, b):
    return a.ring._add_coords(a, b)


def _coord_mul(a, b):
    return a.ring._mul_coords(a, b)


# Memoized per pair of (interned) elements for the life of the process, for
# the loops over codeword sets, where the same pairs recur.
_memo_add = cache(_coord_add)
_memo_mul = cache(_coord_mul)


def _coord_vadd(u, v):
    return tuple([_memo_add(a, b) for a, b in zip(u, v)])


def all_vectors(ring: ChainRing, n: int, budget: Budget = Budget()):
    """Every vector of R^n, in the canonical element order."""
    budget.check_vectors(ring.size, n)
    yield from product(ring.elements(), repeat=n)


def brute_span(ring: ChainRing, rows, budget: Budget = Budget()):
    """The set of all R-linear combinations of the rows: the sum of the
    cyclic modules R*g, added one row at a time."""
    if not rows:
        return frozenset()
    return _span_fold(ring, rows, budget.check_codewords)[0]


def _span_fold(ring: ChainRing, rows, check=None):
    """The span of the (non-empty) rows, and the rows that each enlarge the
    span of the rows before them: a generating set of the same module."""
    words = frozenset({(ring.zero,) * len(rows[0])})
    kept = []
    for g in rows:
        if g in words:
            continue  # words is already a module containing g
        kept.append(g)
        multiples = {
            tuple([_coord_mul(c, a) for a in g]) for c in ring.elements()
        }
        words = _module_sum(words, multiples)
        if check is not None:
            check(len(words))
    return words, kept


def brute_codewords(code: LinearCode, budget: Budget = Budget()):
    budget.check_codewords(code.cardinality)
    words = brute_span(code.ring, list(code.generators), budget)
    if not words:
        words = frozenset({(code.ring.zero,) * code.length})
    return words


def brute_dual(code: LinearCode, budget: Budget = Budget()):
    """All vectors orthogonal to every generator, as a set: the leaves of
    a walk over R^n, one coordinate at a time, whose inner products with
    the generators, carried along the prefix, all end at zero."""
    ring, n, gens = code.ring, code.length, code.generators
    budget.check_vectors(ring.size, n)
    if len(gens) > n * ring.s:
        # R^n has composition length n*s, so at most n*s rows each enlarge
        # the span of the rows before them.  The others (a code listing all
        # its codewords, say) leave the dual alone; dropping them keeps the
        # walk's cost tied to the module rather than to the row count.  The
        # span lies in R^n, which the vector budget has just admitted.
        gens = _span_fold(ring, gens)[1]
    elems = ring.elements()
    # prods[i][k][j] = elems[k] * gens[j][i]
    prods = [
        [tuple([_coord_mul(a, g[i]) for g in gens]) for a in elems]
        for i in range(n)
    ]
    out = set()
    _dual_walk(elems, prods, (), (ring.zero,) * len(gens), out)
    return frozenset(out)


def _dual_walk(elems, prods, prefix, sums, out):
    """Add to out each completion of prefix whose sums all end at zero.
    (A module-level function: a recursive closure would be a reference
    cycle, and the cycle would hold the tables until a full collection.)"""
    i = len(prefix)
    last = i + 1 == len(prods)
    for a, ps in zip(elems, prods[i]):
        sums_a = tuple([_coord_add(x, y) for x, y in zip(sums, ps)])
        if not last:
            _dual_walk(elems, prods, prefix + (a,), sums_a, out)
        elif not any(sums_a):
            out.add(prefix + (a,))


def brute_min_weight(code: LinearCode, budget: Budget = Budget()) -> int:
    words = brute_codewords(code, budget)
    return min(weight(w) for w in words if any(w))


def brute_is_constacyclic(code: LinearCode, gamma, budget: Budget = Budget()):
    if not gamma.ring.is_unit(gamma):
        raise SpecError("constashift requires a unit multiplier")
    words = brute_codewords(code, budget)
    return all(
        (_coord_mul(gamma, w[-1]),) + w[:-1] in words for w in words
    )


def _module_sum(a, b):
    """a + b for two additively closed codeword sets, by whole translates:
    x + b is either already present or disjoint from everything so far."""
    if len(b) > len(a):
        a, b = b, a
    out = set(a)
    for x in b:
        if x in out:
            continue
        out.update(_coord_vadd(x, y) for y in a)
    return frozenset(out)


def brute_cyclic_submodule_words(
    ring: ChainRing, n: int, budget: Budget = Budget()
):
    """Every shift-invariant submodule of R^n, as a sorted list of codeword
    sets: spans of single shift-orbits, closed under pairwise sums."""
    budget.check_vectors(ring.size, n)
    units = [c for c in ring.elements() if ring.is_unit(c)]
    zero = (ring.zero,) * n
    found: set[frozenset] = {frozenset({zero})}
    seen_orbits: set[tuple] = set()
    for v in all_vectors(ring, n, budget):
        if not any(v):
            continue
        # Shifts and unit multiples of v span the same submodule; visit one
        # representative per class.
        variants = []
        w = v
        for _ in range(n):
            w = (w[-1],) + w[:-1]
            for c in units:
                variants.append(tuple([_memo_mul(c, a) for a in w]))
        canon = min(tuple(a.coords for a in x) for x in variants)
        if canon in seen_orbits:
            continue
        seen_orbits.add(canon)
        orbit = []
        w = v
        for _ in range(n):
            orbit.append(w)
            w = (w[-1],) + w[:-1]
        found.add(brute_span(ring, orbit, budget))
    while True:
        fresh = set()
        for a, b in combinations(found, 2):
            if a <= b or b <= a:
                continue
            c = _module_sum(a, b)
            if c not in found:
                budget.check_codewords(len(c))
                fresh.add(c)
        if not fresh:
            break
        found |= fresh
    return sorted(
        found,
        key=lambda ws: (
            len(ws),
            sorted(tuple(a.coords for a in w) for w in ws),
        ),
    )


def enumerate_cyclic_submodules(
    ring: ChainRing, n: int, budget: Budget = Budget()
):
    """Every shift-invariant submodule of R^n as a LinearCode, in the
    deterministic order of brute_cyclic_submodule_words."""
    out = []
    for words in brute_cyclic_submodule_words(ring, n, budget):
        out.append(LinearCode(ring, n, sorted(words, key=_word_key)))
    return out


def _word_key(w):
    return tuple(a.coords for a in w)


def brute_trace_code(ext, code: LinearCode, budget: Budget = Budget()):
    """Componentwise trace image of an extension code, as a codeword set."""
    words = brute_codewords(code, budget)
    return frozenset(tuple(ext.trace(a) for a in w) for w in words)


def brute_res_subring(ext, code: LinearCode, budget: Budget = Budget()):
    """Codewords with every entry in the embedded base ring, read over R."""
    words = brute_codewords(code, budget)
    return frozenset(
        tuple(ext.unembed(a) for a in w)
        for w in words
        if all(ext.in_base(a) for a in w)
    )


def same_words(code: LinearCode, words) -> bool:
    """Does a structurally built code have exactly this codeword set?"""
    return code.cardinality == len(words) and all(w in code for w in words)
