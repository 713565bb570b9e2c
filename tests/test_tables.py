"""Table-backed arithmetic and elimination agree with the coordinate
arithmetic and with theta-adic-digit elimination."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincodes import LinearCode, SpecError, eu_ring, galois_ring
from chaincodes.chainring import TABLE_CAP
from chaincodes.modcodes import vdot

SMALL_RINGS = [
    (make, p, r, s)
    for make in (galois_ring, eu_ring)
    for p in (2, 3, 5)
    for r in (1, 2)
    for s in (1, 2, 3)
    if p ** (r * s) <= TABLE_CAP
]

BIG_RINGS = [galois_ring(2, 1, 9), galois_ring(3, 2, 3), eu_ring(3, 2, 3)]

# Table rings whose one index digit can sum past a byte (2B > 256), so the
# row kernel adds them one entry at a time.
WIDE_DIGIT_RINGS = [galois_ring(2, 1, 8), galois_ring(131, 1, 1)]

# Table rings whose digits fit no pivot lane, whose elimination adds rows
# of two-plane add lanes: two digits base 9, four base 3, and eight base 2.
TWO_PLANE_RINGS = [galois_ring(3, 2, 2), eu_ring(3, 2, 2), eu_ring(2, 1, 8)]


@st.composite
def small_rings(draw):
    make, p, r, s = draw(st.sampled_from(SMALL_RINGS))
    return make(p, r, s)


@st.composite
def table_rings(draw):
    """Every table ring kind: pivot lanes of one or several digits, add
    lanes of two planes, and the ``+`` rows."""
    return draw(
        st.one_of(small_rings(), st.sampled_from(WIDE_DIGIT_RINGS + TWO_PLANE_RINGS))
    )


@st.composite
def elements(draw, ring):
    a = ring.element_at(draw(st.integers(0, ring.size - 1)))
    return a * ring.theta_pow(draw(st.integers(0, ring.s)))


@st.composite
def generator_matrices(draw, rings=table_rings(), size=24):
    """Up to ``size`` rows of up to ``size`` entries, so that many pivots
    run per matrix."""
    ring = draw(rings)
    n = draw(st.integers(1, size))
    k = draw(st.integers(0, size))
    row = st.lists(elements(ring), min_size=n, max_size=n)
    return ring, n, draw(st.lists(row, min_size=k, max_size=k))


def row_by_row_reduce(ring, rows):
    """The valuation-greedy elimination one ``row_axpy`` per row, rows
    swapped into place, as (sf rows, pivots, type) on encoded rows."""
    s = ring.s

    def lead(row):
        vals = ring.row_valuations(row)
        for v in range(s):
            if v in vals:
                return v, vals.index(v)
        return s, 0

    rows = [r for r in map(ring.encode_row, rows) if any(r)]
    leads = [lead(r) for r in rows]
    pivots = []
    done = 0
    while True:
        cands = [(v, c, j) for j, (v, c) in enumerate(leads[done:], done) if v < s]
        if not cands:
            break
        val, col, j = min(cands)
        rows[done], rows[j] = rows[j], rows[done]
        leads[done], leads[j] = leads[j], leads[done]
        scale = ring.entry_inv(ring.entry_divide(rows[done][col], val))
        rows[done] = row = ring.row_scale(scale, rows[done])
        for k, other in enumerate(rows):
            b = other[col]
            if k == done or not b:
                continue
            coeff = ring.entry_quotient(b, val)
            if coeff:
                rows[k] = ring.row_axpy(other, coeff, row)
                if k > done:
                    leads[k] = lead(rows[k])
        pivots.append((col, val))
        done += 1
    kt = [0] * s
    for _, v in pivots:
        kt[v] += 1
    return list(rows[:done]), tuple(pivots), tuple(kt)


def digit_reduce(ring, generators):
    """Standard form by valuation-greedy elimination whose coefficients
    come from theta-adic digits, as (sf_rows, pivots, type)."""
    rows = [list(r) for r in generators if any(r)]
    pivots = []
    done = 0
    while True:
        cells = [
            (ring.theta_valuation(a), c, j)
            for j in range(done, len(rows))
            for c, a in enumerate(rows[j])
            if a
        ]
        if not cells:
            break
        val, col, j = min(cells)
        rows[done], rows[j] = rows[j], rows[done]
        scale = ring.inv(ring.theta_shift_down(rows[done][col], val))
        rows[done] = row = [scale * a for a in rows[done]]
        for k, other in enumerate(rows):
            b = other[col]
            if k == done or not b:
                continue
            digits = ring.theta_adic_expansion(b)
            coeff = ring.recompose(digits[val:] + (ring.zero,) * val)
            if coeff:
                rows[k] = [a - coeff * b2 for a, b2 in zip(other, row)]
        pivots.append((col, val))
        done += 1
    kt = [0] * ring.s
    for _, v in pivots:
        kt[v] += 1
    return tuple(tuple(r) for r in rows[:done]), tuple(pivots), tuple(kt)


def coordinate_dual_rows(code):
    """Generators of the dual by diagonalization with explicit column
    operations on both the matrix and the accumulated Q."""
    ring, n = code.ring, code.length
    mat = [list(r) for r in code.sf_rows]
    k = len(mat)
    qmat = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]

    def add_col(dst, src, coeff):
        for row in mat + qmat:
            row[dst] = row[dst] + coeff * row[src]

    diag = []
    for i in range(k):
        cells = [
            (ring.theta_valuation(mat[rr][cc]), rr, cc)
            for rr in range(i, k)
            for cc in range(i, n)
            if mat[rr][cc]
        ]
        if not cells:
            break
        val, rr, cc = min(cells)
        mat[i], mat[rr] = mat[rr], mat[i]
        for row in mat + qmat:
            row[i], row[cc] = row[cc], row[i]
        scale = ring.inv(ring.theta_shift_down(mat[i][i], val))
        mat[i] = [scale * a for a in mat[i]]
        for r2 in range(k):
            if r2 != i and mat[r2][i]:
                coeff = ring.theta_shift_down(mat[r2][i], val)
                mat[r2] = [a - coeff * b for a, b in zip(mat[r2], mat[i])]
        for c2 in range(n):
            if c2 != i and mat[i][c2]:
                add_col(c2, i, -ring.theta_shift_down(mat[i][c2], val))
        diag.append(val)
    gens = []
    for j in range(n):
        col = tuple(qmat[rr][j] for rr in range(n))
        if j < len(diag):
            if diag[j]:
                top = ring.theta_pow(ring.s - diag[j])
                gens.append(tuple(top * a for a in col))
        else:
            gens.append(col)
    return gens


def coordinate_dot(u, v):
    """The sum of the entrywise products of u and v, by coordinate
    arithmetic."""
    ring = u[0].ring
    dot = ring.zero
    for a, b in zip(u, v):
        dot = ring._add_coords(dot, ring._mul_coords(a, b))
    return dot


def check_dual(code):
    """The dual has the standard form of the explicit column-operation
    dual, is annihilated by the code, and has the dual's size."""
    ring, n = code.ring, code.length
    dual = code.dual()
    assert dual.key() == LinearCode(ring, n, coordinate_dual_rows(code)).key()
    assert dual.dual() == code
    assert code.cardinality * dual.cardinality == ring.size**n
    for h in dual.generators:
        for g in code.sf_rows:
            dot = ring.zero
            for a, b in zip(g, h):
                dot = dot + a * b
            assert not dot


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_tables_agree_with_coordinates(data):
    ring = data.draw(table_rings())
    assert ring.has_tables
    a = data.draw(elements(ring))
    b = data.draw(elements(ring))
    assert a + b is ring._add_coords(a, b)
    assert -a is ring._neg_coords(a)
    assert a - b is ring._add_coords(a, ring._neg_coords(b))
    assert a * b is ring._mul_coords(a, b)
    assert ring.theta_valuation(a) == ring._valuation_coords(a)
    if ring.is_unit(a):
        assert ring.inv(a) is ring._inv_coords(a)
    else:
        with pytest.raises(ZeroDivisionError):
            ring.inv(a)
    digits = ring.theta_adic_expansion(b)
    for v in range(ring.s + 1):
        expected = ring.recompose(digits[v:] + (ring.zero,) * v)
        assert ring.theta_quotient(b, v) is expected


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_row_operations_agree_with_element_operations(data):
    # The kernel on encoded rows (element indices with tables, elements
    # above the cap) against the coordinate arithmetic.
    ring = data.draw(st.one_of(small_rings(), st.sampled_from(BIG_RINGS)))
    n = data.draw(st.integers(1, 5))
    u = [data.draw(elements(ring)) for _ in range(n)]
    v = [data.draw(elements(ring)) for _ in range(n)]
    c = data.draw(elements(ring))
    add, mul, neg = ring._add_coords, ring._mul_coords, ring._neg_coords
    enc, dec = ring.encode_row, ring.decode_row
    assert dec(ring.row_axpy(enc(u), ring.encode(c), enc(v))) == tuple(
        add(a, neg(mul(c, b))) for a, b in zip(u, v)
    )
    assert dec(ring.row_scale(ring.encode(c), enc(v))) == tuple(
        mul(c, b) for b in v
    )
    assert [vdot(u, w) for w in (v, u)] == [coordinate_dot(u, w) for w in (v, u)]
    assert list(ring.row_valuations(enc(v))) == [ring._valuation_coords(b) for b in v]
    for b in v:
        x = ring.encode(b)
        val = ring._valuation_coords(b)
        assert ring.entry_valuation(x) == val
        if ring.is_unit(b):
            assert ring.decode(ring.entry_inv(x)) is ring._inv_coords(b)
        for k in range(ring.s + 1):
            assert ring.decode(ring.entry_quotient(x, k)) is ring._quotient_digits(b, k)
            if k <= val:
                assert mul(ring.theta_pow(k), ring.decode(ring.entry_divide(x, k))) is b
            else:
                with pytest.raises(SpecError):
                    ring.entry_divide(x, k)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_row_kernel_on_long_rows(data):
    # Rows of up to 64 entries, whose packed integers span many machine
    # words, against the coordinate arithmetic.
    ring = data.draw(
        st.one_of(
            small_rings(),
            st.sampled_from(WIDE_DIGIT_RINGS + TWO_PLANE_RINGS + BIG_RINGS),
        )
    )
    n = data.draw(st.integers(1, 64))
    row = st.lists(elements(ring), min_size=n, max_size=n)
    u, v, w = data.draw(row), data.draw(row), data.draw(row)
    c = data.draw(elements(ring))
    add, mul, neg = ring._add_coords, ring._mul_coords, ring._neg_coords
    enc, dec = ring.encode_row, ring.decode_row
    assert dec(ring.row_axpy(enc(u), ring.encode(c), enc(v))) == tuple(
        add(a, neg(mul(c, b))) for a, b in zip(u, v)
    )
    assert dec(ring.row_scale(ring.encode(c), enc(v))) == tuple(
        mul(c, b) for b in v
    )
    rows = (v, w, u)
    assert [vdot(u, x) for x in rows] == [coordinate_dot(u, x) for x in rows]
    assert list(ring.row_valuations(enc(v))) == [
        ring._valuation_coords(b) for b in v
    ]


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        generator_matrices(),
        generator_matrices(st.sampled_from(BIG_RINGS), size=8),
    )
)
def test_rank_one_kernel_matches_row_by_row_elimination(case):
    # Byte lanes, ``+`` rows and element lists against one row operation
    # per row, and the dual's rank-1 column operations against explicit
    # column operations on Q.
    ring, n, rows = case
    code = LinearCode(ring, n, rows)
    sf, pivots, kt = row_by_row_reduce(ring, rows)
    assert (list(code._sf), code.pivots, code.type) == (sf, pivots, kt)
    dual = code.dual()
    assert dual.key() == LinearCode(ring, n, coordinate_dual_rows(code)).key()
    assert code.cardinality * dual.cardinality == ring.size**n


@st.composite
def mixed_generators(draw):
    """A matrix and a second generating set of its code: the rows scaled
    by units, added to one another and shuffled."""
    ring, n, rows = draw(generator_matrices(size=12))
    mixed = [list(r) for r in rows]
    units = [a for a in ring.elements() if ring.is_unit(a)]
    for _ in range(draw(st.integers(0, 3 * len(rows)))):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        c = draw(elements(ring))
        if i != j:
            mixed[i] = [a + c * b for a, b in zip(mixed[i], mixed[j])]
        unit = draw(st.sampled_from(units))
        mixed[i] = [unit * a for a in mixed[i]]
    return ring, n, rows, draw(st.permutations(mixed))


@settings(max_examples=100, deadline=None)
@given(mixed_generators())
def test_standard_form_is_canonical(case):
    # Elimination swaps no rows; the standard form depends on the code
    # alone, not on its generators or their order.
    ring, n, rows, mixed = case
    code, again = LinearCode(ring, n, rows), LinearCode(ring, n, mixed)
    assert again.key() == code.key() and again.pivots == code.pivots


@settings(max_examples=100, deadline=None)
@given(generator_matrices(small_rings(), size=6))
def test_standard_form_matches_digit_elimination(case):
    ring, n, rows = case
    code = LinearCode(ring, n, rows)
    assert (code.sf_rows, code.pivots, code.type) == digit_reduce(ring, rows)
    check_dual(code)
    for g in rows:
        assert tuple(g) in code


def test_index_is_element_order():
    ring = galois_ring(2, 2, 2)
    assert [a.index for a in ring.elements()] == list(range(ring.size))
    assert ring.zero.index == 0


def test_ring_above_cap_builds_no_tables():
    small = galois_ring(2, 1, 8)
    assert small.size == TABLE_CAP and small.has_tables
    for ring in BIG_RINGS:
        assert ring.size > TABLE_CAP and not ring.has_tables
        a, b = ring.element_at(ring.size - 2), ring.element_at(5)
        assert a * b - b is ring._add_coords(
            ring._mul_coords(a, b), ring._neg_coords(b)
        )
        code = LinearCode(ring, 2, [[a, b], [b, a]])
        assert (code.sf_rows, code.pivots, code.type) == digit_reduce(
            ring, code.generators
        )
        check_dual(code)
        tables = (
            ring._add_bytes,
            ring._mul_bytes,
            ring._neg_bytes,
            ring._val_bytes,
            ring._quo_bytes,
        )
        assert tables == (None,) * 5


def test_code_from_encoded_rows():
    # Byte rows of element indices are generators too, checked for length
    # and range; they decode to the same elements.
    ring = galois_ring(3, 1, 2)
    rows = [[ring.element_at(1), ring.element_at(8)], [ring.theta, ring.zero]]
    code = LinearCode(ring, 2, [ring.encode_row(r) for r in rows])
    assert code.generators == tuple(tuple(r) for r in rows)
    assert code.key() == LinearCode(ring, 2, rows).key()
    with pytest.raises(SpecError):
        LinearCode(ring, 2, [bytes([0, ring.size])])
    with pytest.raises(SpecError):
        LinearCode(ring, 3, [bytes([0, 1])])
    big = BIG_RINGS[0]
    with pytest.raises(SpecError):
        LinearCode(big, 2, [bytes([0, 1])])
