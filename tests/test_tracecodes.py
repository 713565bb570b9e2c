"""Tests for evaluation codes, trace codes, and the partition bijection."""

import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincodes import (
    CyclotomicPartition,
    LinearCode,
    NotCyclic,
    closure_code,
    code_from_partition,
    constashift,
    context,
    count_cyclic_codes,
    decompose_cyclic,
    enumerate_cyclic_codes,
    eu_ring,
    extend,
    full_code,
    galois_ring,
    intersect_codes,
    irreducible_components,
    irreducible_cyclic_code,
    is_constacyclic,
    lrs_code,
    make_partition,
    psi,
    sum_codes,
    trace_eval_code,
    zero_code,
)
from chaincodes import oracle
from chaincodes.cosets import coset, representatives
from chaincodes.tracecodes import _dot_levels, _lane_sums, _packed_levels
from test_golden import BIG_RINGS, TABLE_RINGS

Z9 = galois_ring(3, 1, 2)
CTX4 = context(Z9, 4)


def subsets(universe):
    ell = universe.ell
    for mask in range(1 << ell):
        yield universe.subset([z for z in range(ell) if mask >> z & 1])


def test_lrs_basics():
    u = CTX4.universe
    assert lrs_code(CTX4, u.subset([0])).same_code(
        LinearCode(CTX4.ext.top, 4, [(CTX4.ext.top.one,) * 4])
    )
    assert lrs_code(CTX4, u.empty()).is_zero()
    assert lrs_code(CTX4, u.full()).same_code(full_code(CTX4.ext.top, 4))
    for a in subsets(u):
        assert lrs_code(CTX4, a).type == (len(a),) + (0,)


def test_lrs_lattice_properties():
    u = CTX4.universe
    import itertools

    small = [u.subset(s) for s in ([], [0], [1], [0, 2], [1, 3], [0, 1, 2])]
    for a, b in itertools.product(small, repeat=2):
        assert lrs_code(CTX4, a.union(b)).same_code(
            sum_codes(lrs_code(CTX4, a), lrs_code(CTX4, b))
        )
        assert lrs_code(CTX4, a.intersection(b)).same_code(
            intersect_codes(lrs_code(CTX4, a), lrs_code(CTX4, b))
        )


def test_lrs_dual_and_closure():
    u = CTX4.universe
    ext = CTX4.ext
    for a in subsets(u):
        assert lrs_code(CTX4, a).dual().same_code(lrs_code(CTX4, a.dual()))
        assert closure_code(ext, lrs_code(CTX4, a)).same_code(
            lrs_code(CTX4, a.closure())
        )


def test_trace_eval_rank_and_closure():
    u = CTX4.universe
    assert trace_eval_code(CTX4, u.subset([0])).same_code(
        LinearCode(Z9, 4, [(Z9.one,) * 4])
    )
    assert trace_eval_code(CTX4, u.subset([1])).rank == 2
    for a in subsets(u):
        c = trace_eval_code(CTX4, a)
        assert c.type == (len(a.closure()),) + (0,)
        assert c.same_code(trace_eval_code(CTX4, a.closure()))
        assert is_constacyclic(c, Z9.one)


def test_psi():
    ext = CTX4.ext
    # coset {1,3} has m_z = 2 = m, so the subextension is all of S
    images = {a: psi(CTX4, 1, a) for a in ext.top.elements()}
    assert len(set(images.values())) == len(images)  # injective
    comp = irreducible_cyclic_code(CTX4, 1)
    assert all(w in comp for w in images.values())
    # shift intertwining: psi(eta^{-z} a) = shift(psi(a))
    zeta = CTX4.eta_pow(-1)
    for a in list(ext.top.elements())[:30]:
        assert psi(CTX4, 1, zeta * a) == constashift(psi(CTX4, 1, a), Z9.one)


def test_psi_rejects_outside_subextension():
    ctx = context(Z9, 8)  # coset {0} has m_z = 1 < m
    outside = ctx.ext.xi
    with pytest.raises(Exception):
        psi(ctx, 0, outside)


def test_code_from_partition_extremes():
    u = CTX4.universe
    full_p = make_partition(u, 2, {0: 0, 1: 0, 2: 0})
    assert code_from_partition(CTX4, full_p).same_code(full_code(Z9, 4))
    zero_p = make_partition(u, 2, {0: 2, 1: 2, 2: 2})
    assert code_from_partition(CTX4, zero_p).is_zero()


def test_decompose_extremes():
    assert decompose_cyclic(full_code(Z9, 4)).to_assignment() == {
        0: 0,
        1: 0,
        2: 0,
    }
    assert decompose_cyclic(zero_code(Z9, 4)).to_assignment() == {
        0: 2,
        1: 2,
        2: 2,
    }


def test_decompose_rejects_non_cyclic():
    c = LinearCode(Z9, 4, [[Z9.one, Z9.zero, Z9.zero, Z9.zero]])
    with pytest.raises(NotCyclic):
        decompose_cyclic(c)
    with pytest.raises(NotCyclic):
        decompose_cyclic(zero_code(Z9, 3))  # 3 shares a factor with q


def test_round_trip_all_partitions():
    for partition, c in enumerate_cyclic_codes(Z9, 4):
        assert decompose_cyclic(c) == partition
        assert is_constacyclic(c, Z9.one)


def test_irreducible_components():
    assert irreducible_components(
        LinearCode(Z9, 4, [(Z9.one,) * 4])
    ) == [(0, 0)]
    theta_full = LinearCode(
        Z9, 4, [[Z9.theta if i == j else Z9.zero for j in range(4)] for i in range(4)]
    )
    assert irreducible_components(theta_full) == [(1, 0), (1, 1), (1, 2)]
    assert irreducible_components(zero_code(Z9, 4)) == []


def test_direct_sum_of_components():
    comps = [irreducible_cyclic_code(CTX4, z) for z in (0, 1, 2)]
    total = comps[0]
    for c in comps[1:]:
        assert intersect_codes(total, c).is_zero()
        total = sum_codes(total, c)
    assert total.same_code(full_code(Z9, 4))


def test_dual_partition_is_tilde_dual():
    for partition, c in enumerate_cyclic_codes(Z9, 4):
        assert c.dual().same_code(
            code_from_partition(CTX4, partition.tilde_dual())
        )


def test_counts():
    assert count_cyclic_codes(Z9, 4) == (27, 8)
    assert count_cyclic_codes(eu_ring(3, 1, 1), 4) == (8, 8)
    assert count_cyclic_codes(Z9, 20) == (3**7, 2**7)


def test_field_case_matches_oracle():
    F3 = eu_ring(3, 1, 1)
    subs = oracle.enumerate_cyclic_submodules(F3, 4)
    assert len(subs) == 8
    rebuilt = [c for _, c in enumerate_cyclic_codes(F3, 4)]
    for c in subs:
        assert any(c.same_code(r) for r in rebuilt)


@pytest.mark.parametrize(
    "ring, ell",
    [(galois_ring(2, 1, 3), 7), (galois_ring(2, 2, 2), 5), (eu_ring(2, 1, 3), 7)],
)
def test_round_trip_and_tilde_dual_over_more_rings(ring, ell):
    ctx = context(ring, ell)
    for partition, c in enumerate_cyclic_codes(ring, ell):
        assert decompose_cyclic(c) == partition
        assert c.dual().same_code(
            code_from_partition(ctx, partition.tilde_dual())
        )


def membership_decompose(code):
    """Reference decomposition: check shift-invariance on the generators,
    give each coset [z] the least t with theta^t C_[z] inside the code, and
    check the cardinality."""
    ring = code.ring
    if gcd(ring.q, code.length) != 1:
        raise NotCyclic("length shares a factor with q")
    if not is_constacyclic(code, ring.one):
        raise NotCyclic("code is not invariant under the cyclic shift")
    ctx = context(ring, code.length)
    s = ring.s
    assignment = {}
    size = 1
    for rep in representatives(ctx.universe):
        gens = irreducible_cyclic_code(ctx, rep).sf_rows
        level = s
        for t in range(s):
            scale = ring.theta_pow(t)
            if all(tuple(scale * a for a in g) in code for g in gens):
                level = t
                break
        assignment[rep] = level
        size *= ring.q ** ((s - level) * len(coset(ctx.universe, rep)))
    if size != code.cardinality:
        raise NotCyclic("code is not a direct sum of scaled cyclic codes")
    return make_partition(ctx.universe, s, assignment)


DECOMPOSE_CASES = [
    (galois_ring(3, 1, 2), (4, 5, 8)),
    (eu_ring(3, 1, 2), (4, 8)),
    (galois_ring(2, 1, 3), (3, 7)),
    (galois_ring(2, 2, 2), (3, 5)),
]


@st.composite
def random_codes(draw):
    """Random codes, made cyclic about half the time by adding every
    cyclic shift of the drawn rows."""
    ring, lengths = draw(st.sampled_from(DECOMPOSE_CASES))
    n = draw(st.sampled_from(lengths))
    k = draw(st.integers(0, 3))

    def entry():
        a = ring.element_at(draw(st.integers(0, ring.size - 1)))
        return a * ring.theta_pow(draw(st.integers(0, ring.s)))

    rows = [[entry() for _ in range(n)] for _ in range(k)]
    if draw(st.booleans()):
        rows += [r[j:] + r[:j] for r in rows for j in range(1, n)]
    return LinearCode(ring, n, rows)


def outcome(decompose, code):
    try:
        return decompose(code)
    except NotCyclic:
        return NotCyclic


@settings(max_examples=150, deadline=None)
@given(random_codes())
def test_decompose_matches_membership_reference(code):
    assert outcome(decompose_cyclic, code) == outcome(membership_decompose, code)


# A length per ring of the golden tests' table rings at which the packed
# decomposition sums its pairings over several chunks of columns where it
# can (chunk widths: 30 for Z9 and GR(9,2), 35 for Z8, 8 for Z27), plus
# F_131, whose base 131 > 128 leaves no lane room and takes ``_dot_levels``,
# and GR(25,2), above the table cap.
PACKED_CASES = [
    (galois_ring(3, 1, 2), 56),
    (galois_ring(3, 1, 2), 80),
    (eu_ring(3, 1, 2), 56),
    (galois_ring(2, 1, 3), 63),
    (galois_ring(2, 2, 2), 15),
    (eu_ring(2, 2, 2), 15),
    (galois_ring(3, 1, 3), 26),
    (galois_ring(3, 2, 2), 40),
    (eu_ring(2, 1, 5), 15),
    (galois_ring(131, 1, 1), 10),
    (galois_ring(5, 2, 2), 12),
]


def test_packed_cases_cover_the_golden_rings_and_several_chunks():
    rings = {ring for ring, _ in PACKED_CASES}
    assert set(TABLE_RINGS) <= rings
    assert rings & set(BIG_RINGS)
    assert galois_ring(131, 1, 1)._digit_lanes is None
    chunked = {
        ring.short_name()
        for ring, ell in PACKED_CASES
        if ring._digit_lanes and ell > ring._digit_lanes.headroom
    }
    assert chunked == {
        "GR(p=3,r=1,s=2)", "GR(p=2,r=1,s=3)", "GR(p=3,r=1,s=3)", "GR(p=3,r=2,s=2)"
    }


@st.composite
def packed_partitions(draw):
    ring, ell = draw(st.sampled_from(PACKED_CASES))
    ctx = context(ring, ell)
    reps = representatives(ctx.universe)
    levels = draw(
        st.lists(st.integers(0, ring.s), min_size=len(reps), max_size=len(reps))
    )
    return ctx, make_partition(ctx.universe, ring.s, dict(zip(reps, levels)))


@settings(max_examples=60, deadline=None)
@given(packed_partitions())
def test_decompose_round_trip_over_every_lane_layout(case):
    ctx, partition = case
    code = code_from_partition(ctx, partition)
    assert decompose_cyclic(code) == partition
    assert decompose_cyclic(code.dual()) == partition.tilde_dual()


@pytest.mark.parametrize("ring, ell", PACKED_CASES)
def test_decompose_full_and_zero_codes(ring, ell):
    universe = context(ring, ell).universe
    blocks = [universe.empty()] * (ring.s + 1)
    full = decompose_cyclic(full_code(ring, ell))
    assert full == CyclotomicPartition(universe, [universe.full()] + blocks[1:])
    zero = decompose_cyclic(zero_code(ring, ell))
    assert zero == CyclotomicPartition(universe, blocks[1:] + [universe.full()])


@pytest.mark.parametrize("ring, ell", PACKED_CASES)
def test_decompose_rejects_random_non_cyclic_codes(ring, ell):
    # A random row, alone or added to a random cyclic code: decompose
    # raises NotCyclic exactly when a cyclic shift leaves the code, which
    # membership decides without decompose.
    rnd = random.Random(f"{ring.short_name()}:{ell}")
    ctx = context(ring, ell)
    reps = representatives(ctx.universe)
    rejected = 0
    for trial in range(6):
        rows = [[ring.element_at(rnd.randrange(ring.size)) for _ in range(ell)]]
        if trial % 2:
            levels = {z: rnd.randrange(ring.s + 1) for z in reps}
            partition = make_partition(ctx.universe, ring.s, levels)
            rows += code_from_partition(ctx, partition).sf_rows
        code = LinearCode(ring, ell, rows)
        if is_constacyclic(code, ring.one):
            assert code_from_partition(ctx, decompose_cyclic(code)) == code
            continue
        with pytest.raises(NotCyclic):
            decompose_cyclic(code)
        rejected += 1
    assert rejected >= 4


@st.composite
def long_codes(draw):
    """The standard-form rows of a random cyclic code of length 20 or 56
    over Z9 or F3[u]/(u^2), with up to two random rows, each scaled by a
    random power of theta, added about half the time."""
    ring = draw(st.sampled_from([galois_ring(3, 1, 2), eu_ring(3, 1, 2)]))
    ell = draw(st.sampled_from([20, 56]))
    ctx = context(ring, ell)
    reps = representatives(ctx.universe)
    levels = draw(
        st.lists(st.integers(0, ring.s), min_size=len(reps), max_size=len(reps))
    )
    partition = make_partition(ctx.universe, ring.s, dict(zip(reps, levels)))
    rows = list(code_from_partition(ctx, partition)._sf)
    entries = st.lists(st.integers(0, ring.size - 1), min_size=ell, max_size=ell)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        theta_t = ring.encode(ring.theta_pow(draw(st.integers(0, ring.s))))
        rows.append(ring.row_scale(theta_t, bytes(draw(entries))))
    return ctx, LinearCode(ring, ell, rows)._sf


@settings(max_examples=60, deadline=None)
@given(long_codes())
def test_dot_levels_match_packed_levels(case):
    # The fallback of rings without digit lanes against the lane sums, on
    # rings that have both.
    ctx, rows = case
    assert _dot_levels(ctx, rows) == _packed_levels(ctx, rows)


def element_pairings(ring, g, stack):
    """<g, h> for each h in the stack, by coordinate arithmetic."""
    elems = ring.elements()
    out = []
    for h in stack:
        dot = ring.zero
        for a, b in zip(g, h):
            dot = ring._add_coords(dot, ring._mul_coords(elems[a], elems[b]))
        out.append(dot)
    return out


def check_lane_sums(ring, ell, g):
    ctx = context(ring, ell)
    width, fold = ring._digit_lanes.headroom, ring._digit_lanes.fold
    base, count = ring._digits
    stack, _ = ctx.opposite_stack
    height = len(stack)
    sums = _lane_sums(ctx.column_images, g, width, fold, height * count)
    assert all(y < 256 for y in sums)
    for i, dot in enumerate(element_pairings(ring, g, stack)):
        lanes = [sums[k * height + i] % base for k in range(count)]
        assert lanes == [dot.index // base**k % base for k in range(count)]


LANE_CASES = [(ring, ell) for ring, ell in PACKED_CASES if ring._digit_lanes]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_lane_sums_match_element_arithmetic(data):
    ring, ell = data.draw(st.sampled_from(LANE_CASES))
    entries = st.integers(0, ring.size - 1)
    g = bytes(data.draw(st.lists(entries, min_size=ell, max_size=ell)))
    check_lane_sums(ring, ell, g)


@pytest.mark.parametrize("ring, ell", LANE_CASES)
def test_lane_sums_at_the_carry_bound(ring, ell):
    # The first stack row spans C_[0] and is all ones, so its pairing with
    # g sums the index digits of g's entries.  A first entry that leaves
    # the first chunk's digit sums at B - 1 modulo B, then entries with
    # every digit B - 1, fill the next chunk's lanes to the bound.
    stack, _ = context(ring, ell).opposite_stack
    assert stack[0] == ring.encode_row([ring.one] * ell)
    width = ring._digit_lanes.headroom
    base, count = ring._digits
    digit = (2 - width) * (base - 1) % base
    first = sum(digit * base**k for k in range(count))
    check_lane_sums(ring, ell, bytes([first] + [ring.size - 1] * (ell - 1)))
