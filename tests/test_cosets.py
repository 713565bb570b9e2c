"""Tests for cyclotomic cosets, set operators, and partitions."""

import importlib
import time
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincodes import (
    CosetSet,
    CosetUniverse,
    CyclotomicPartition,
    SingletonViolation,
    SpecError,
    class_count_formula,
    coset,
    cosets,
    count_classes,
    count_cyclic_codes,
    galois_ring,
    make_partition,
    partition_count,
    representatives,
)


def test_cosets_mod_20():
    universe = CosetUniverse(20, 3)
    got = [c.sorted() for c in cosets(universe)]
    assert got == [
        [0],
        [1, 3, 7, 9],
        [2, 6, 14, 18],
        [4, 8, 12, 16],
        [5, 15],
        [10],
        [11, 13, 17, 19],
    ]
    assert representatives(universe) == [0, 1, 2, 4, 5, 10, 11]
    assert universe.m == 4


def test_universe_validation():
    with pytest.raises(SpecError):
        CosetUniverse(6, 3)  # not coprime
    with pytest.raises(SpecError):
        CosetUniverse(5, 6)  # q not a prime power


@pytest.mark.parametrize("members", [[1.7, 2.2], ["3"], [True], [1, 2.0]])
def test_subset_rejects_non_integer_members(members):
    # Neither truncated ([1.7, 2.2] is not {1, 2}) nor converted.
    with pytest.raises(SpecError, match="integers"):
        CosetUniverse(10, 3).subset(members)
    assert CosetUniverse(10, 3).subset([-1, 12]).members == {9, 2}


@pytest.mark.parametrize(
    "ell,q", [(1, 2), (4, 3), (10, 3), (20, 3), (28, 3), (56, 3), (15, 2), (21, 4)]
)
def test_count_formula(ell, q):
    universe = CosetUniverse(ell, q)
    assert count_classes(universe) == class_count_formula(universe)


def test_set_operators():
    universe = CosetUniverse(10, 3)
    a = universe.subset([1]).closure()
    assert a.sorted() == [1, 3, 7, 9]
    assert a.is_q_closed()
    assert a.opposite().sorted() == [1, 3, 7, 9]
    assert a.complement().sorted() == [0, 2, 4, 5, 6, 8]
    assert a.dual().sorted() == [0, 2, 4, 5, 6, 8]
    assert a.multiples(2).sorted() == [2, 4, 6, 8]
    assert a.mod_u_image(2) == frozenset({1})
    # star dual with u=2, omega=1 keeps odd members of the dual set
    assert a.star_dual(2, 1).sorted() == [5]


def test_star_dual_mod_56():
    # the three exponent sets of the length-56 worked example
    universe = CosetUniverse(56, 3)
    a1 = universe.subset([1, 7]).closure()
    a2 = universe.subset([1, 5, 7]).closure()
    a3 = universe.subset([1, 5, 7, 11]).closure()
    assert (len(a1), len(a2), len(a3)) == (8, 14, 20)
    assert a1.star_dual(2, 1).members == a3.members
    assert a2.star_dual(2, 1).members == a2.members


def test_partition_validation():
    universe = CosetUniverse(4, 3)
    full = universe.full()
    empty = universe.empty()
    CyclotomicPartition(universe, [full, empty, empty])
    with pytest.raises(SpecError):
        CyclotomicPartition(universe, [full, full, empty])  # overlap
    with pytest.raises(SpecError):
        CyclotomicPartition(universe, [empty, empty, empty])  # no cover
    with pytest.raises(SpecError):
        CyclotomicPartition(
            universe, [universe.subset([1]), universe.subset([0, 2, 3]), empty]
        )  # blocks not q-closed


def test_make_partition():
    universe = CosetUniverse(20, 3)
    p = make_partition(universe, 2, {0: 0, 1: 0, 2: 0, 5: 1, 11: 1, 4: 2, 10: 2})
    assert p.blocks[0].sorted() == [0, 1, 2, 3, 6, 7, 9, 14, 18]
    assert p.level_of(15) == 1
    assert p.to_assignment() == {0: 0, 1: 0, 2: 0, 4: 2, 5: 1, 10: 2, 11: 1}
    with pytest.raises(SpecError):
        make_partition(universe, 2, {0: 0})
    with pytest.raises(SpecError):
        make_partition(universe, 2, {0: 3, 1: 0, 2: 0, 5: 1, 11: 1, 4: 2, 10: 2})


def test_partition_json_round_trip():
    universe = CosetUniverse(20, 3)
    p = make_partition(universe, 2, {0: 0, 1: 0, 2: 0, 5: 1, 11: 1, 4: 2, 10: 2})
    doc = p.to_json()
    assert doc == {"0": 0, "1": 0, "2": 0, "4": 2, "5": 1, "10": 2, "11": 1}
    assert CyclotomicPartition.from_json(universe, 2, doc) == p


MALFORMED_KEYS = ["x", "", "1.5", " 1", "01", "+1", "\u00b2"]


@pytest.mark.parametrize(
    "doc,message",
    [({"0": 0, "1": 1, "2": 0, key: 2}, "canonical integers") for key in MALFORMED_KEYS]
    + [("{bad", "malformed partition document")],  # JSON text, key unquoted
    ids=MALFORMED_KEYS + ["{bad"],
)
def test_partition_json_rejects_malformed_keys(doc, message):
    with pytest.raises(SpecError, match=message):
        CyclotomicPartition.from_json(CosetUniverse(4, 3), 2, doc)


def test_tilde_dual_involution():
    universe = CosetUniverse(20, 3)
    p = make_partition(universe, 2, {0: 0, 1: 1, 2: 2, 5: 0, 11: 1, 4: 2, 10: 0})
    assert p.tilde_dual().tilde_dual() == p
    assert p.tilde_dual().blocks[0] == p.blocks[2].opposite()


def test_partition_star_dual_self_dual_instance():
    # length 20, u = 2: the partition (closure{1}, closure{5}, rest) is a
    # fixed point of the star dual
    universe = CosetUniverse(20, 3)
    p = make_partition(
        universe, 2, {0: 2, 1: 0, 2: 2, 4: 2, 5: 1, 10: 2, 11: 2}
    )
    assert p.star_dual(2) == p


def test_partition_star_dual_mixed_residues():
    universe = CosetUniverse(20, 3)
    p = make_partition(universe, 2, {0: 2, 1: 0, 2: 0, 5: 2, 11: 2, 4: 2, 10: 2})
    with pytest.raises(SingletonViolation):
        p.star_dual(2)


def test_partition_star_dual_zero_code():
    universe = CosetUniverse(10, 3)
    p = make_partition(universe, 2, {0: 2, 1: 2, 2: 2, 5: 2})
    dual = p.star_dual(2)
    assert dual.blocks[0] == universe.full()


@st.composite
def one_class_partitions(draw):
    """(u, omega, p): a partition of Sigma_ell, u | ell, whose information
    cosets all lie in the class omega mod u (possibly none of them)."""
    u = draw(st.sampled_from([2, 3, 4]))
    ell = u * draw(st.integers(1, 12))
    coprime = [q for q in (2, 3, 4, 5, 7, 9, 11, 13) if gcd(q, ell) == 1]
    q = draw(st.sampled_from(coprime))
    s = draw(st.integers(1, 3))
    omega = draw(st.integers(0, u - 1))
    universe = CosetUniverse(ell, q)
    levels = dict.fromkeys(representatives(universe), s)
    for c in cosets(universe):
        if c.mod_u_image(u) == {omega}:
            levels[min(c.members)] = draw(st.integers(0, s))
    return u, omega, make_partition(universe, s, levels)


@settings(max_examples=200, deadline=None)
@given(one_class_partitions())
def test_partition_star_dual_level_0_is_set_star_dual(case):
    # The partition's level 0 and the set-level star dual of the
    # information set A both keep the class -omega, that of gamma^(-1).
    u, omega, p = case
    info = p.universe.empty()
    for b in p.blocks[: p.s]:
        info = info.union(b)
    dual = p.star_dual(u)
    if not info.members:  # the zero code: the full-code partition
        assert dual.blocks[0] == p.universe.full()
        return
    assert dual.blocks[0] == info.star_dual(u, omega)
    assert dual.info_residue(u) in (None, (-omega) % u)


@settings(max_examples=200, deadline=None)
@given(one_class_partitions())
def test_partition_star_dual_is_an_involution(case):
    # Whenever the star dual has information exponents, its star dual is
    # the partition itself.  The zero code is left out: its dual, the full
    # code, meets every class mod u, so it has no star dual.
    u, _, p = case
    if p.info_residue(u) is None:
        return
    dual = p.star_dual(u)
    if dual.info_residue(u) is not None:
        assert dual.star_dual(u) == p


def test_partition_count():
    universe = CosetUniverse(20, 3)
    assert partition_count(universe, 2) == 3**7


def test_counts_list_no_coset(monkeypatch):
    # Both counts come from the divisor sum: listing the cosets took 8 s
    # at ell = 10^7 + 1 and ran past 15 s at 3*10^8 + 1.
    z9 = galois_ring(3, 1, 2)

    def list_nothing(universe):
        raise AssertionError("cosets listed to count them")

    # The package's own ``cosets`` is the function; patch the module's.
    module = importlib.import_module("chaincodes.cosets")
    monkeypatch.setattr(module, "cosets", list_nothing)
    assert partition_count(CosetUniverse(20, 3), 2) == 3**7
    assert count_cyclic_codes(z9, 20) == (3**7, 2**7)
    start = time.perf_counter()
    for ell in (10**7 + 1, 3 * 10**8 + 1):
        universe = CosetUniverse(ell, z9.q)
        n = class_count_formula(universe)
        assert partition_count(universe, 2) == 3**n
        assert count_cyclic_codes(z9, ell) == (3**n, 2**n)
    assert time.perf_counter() - start < 1.0


@st.composite
def partitions(draw):
    """A random (q, s)-cyclotomic partition with at least two cosets."""
    ell = draw(st.integers(2, 60))
    q = draw(st.sampled_from([q for q in (2, 3, 4, 5, 7, 9) if gcd(q, ell) == 1]))
    s = draw(st.integers(1, 3))
    universe = CosetUniverse(ell, q)
    reps = representatives(universe)
    levels = {z: draw(st.integers(0, s)) for z in reps}
    return make_partition(universe, s, levels)


@settings(max_examples=200, deadline=None)
@given(partitions(), st.data())
def test_partition_checks_refuse_every_fault(p, data):
    # The set-level checks still refuse out-of-range members, overlapping,
    # non-q-closed and non-covering blocks, each with its own message.
    universe, blocks = p.universe, list(p.blocks)
    assert CyclotomicPartition(universe, blocks) == p
    assert make_partition(universe, p.s, p.to_assignment()) == p
    ell, q = universe.ell, universe.q
    bad = data.draw(st.sampled_from([-1, ell, ell + 7]))
    with pytest.raises(SpecError, match="ell-1"):
        CosetSet(universe, blocks[0].members | {bad})
    orbits = cosets(universe)
    orbit = data.draw(st.sampled_from(orbits))
    t = p.level_of(min(orbit.members))
    other = data.draw(st.sampled_from([u for u in range(p.s + 1) if u != t]))
    # overlap: a coset also in a second block
    overlap = list(blocks)
    overlap[other] = overlap[other].union(orbit)
    with pytest.raises(SpecError, match="overlap"):
        CyclotomicPartition(universe, overlap)
    # no cover: a coset in no block
    gap = list(blocks)
    gap[t] = gap[t].difference(orbit)
    with pytest.raises(SpecError, match="cover"):
        CyclotomicPartition(universe, gap)
    # not q-closed: one member of a coset of two or more moved to another
    # block, which leaves the blocks disjoint and covering
    moved = [z for z in range(ell) if z * q % ell != z]
    if moved:
        z = data.draw(st.sampled_from(moved))
        t = p.level_of(z)
        dest = (t + 1) % (p.s + 1)
        single = universe.subset([z])
        split = list(blocks)
        split[t] = split[t].difference(single)
        split[dest] = split[dest].union(single)
        with pytest.raises(SpecError, match="q-closed"):
            CyclotomicPartition(universe, split)
