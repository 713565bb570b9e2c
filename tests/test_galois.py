"""Tests for Galois extensions: embedding, Frobenius, trace, xi."""

import random
import time
from itertools import product

import pytest
from fq_reference import reference_field

from chaincodes import (
    BudgetExceeded,
    LinearCode,
    SpecError,
    context,
    eu_ring,
    extend,
    galois_ring,
    representatives,
)
from chaincodes._ints import factorize
from chaincodes.chainring import EXTENSION_BASE_CAP
from chaincodes.galois import GaloisExtension, _invert_unit_matrix

Z9 = galois_ring(3, 1, 2)
F3U = eu_ring(3, 1, 2)  # F3[u]/(u^2)
Z8 = galois_ring(2, 1, 3)
GR4_2 = galois_ring(2, 2, 2)  # GR(4, 2)


def test_extend_z9_shape():
    ext = extend(galois_ring(3, 1, 2), 2)
    assert ext.top.q == 9 and ext.top.size == 81
    assert ext.order == 8  # Teichmuller group of GR(9, 2)
    assert ext.xi.coords == (7, 7)
    assert ext.top.multiplicative_order(ext.xi) == 8


def test_xi_pow_table():
    ext = extend(galois_ring(3, 1, 2), 2)
    acc = ext.top.one
    for e in range(170):
        assert ext.xi_pow(e) == acc
        acc = acc * ext.xi


def test_root_of_unity():
    ext = extend(galois_ring(3, 1, 2), 2)
    for ell in (1, 2, 4, 8):
        eta = ext.root_of_unity(ell)
        assert ext.top.multiplicative_order(eta) == ell
    with pytest.raises(SpecError):
        ext.root_of_unity(3)
    with pytest.raises(SpecError):
        ext.root_of_unity(5)


@pytest.mark.parametrize(
    "base,m",
    [
        (galois_ring(3, 1, 2), 2),
        (eu_ring(3, 1, 2), 2),
        (galois_ring(2, 2, 1), 2),
        (galois_ring(3, 2, 2), 2),
        (eu_ring(2, 2, 2), 2),
    ],
)
def test_embedding_is_ring_hom(base, m):
    ext = extend(base, m)
    elems = base.elements()
    assert ext.embed(base.one) == ext.top.one
    for a in elems:
        for b in elems:
            assert ext.embed(a + b) == ext.embed(a) + ext.embed(b)
            assert ext.embed(a * b) == ext.embed(a) * ext.embed(b)
    # injectivity via unembed
    for a in elems:
        assert ext.unembed(ext.embed(a)) == a


def test_foreign_element_is_not_in_the_base():
    # Same coordinates as the embedded 1 of Z9, but an element of F3[u]/(u^2).
    ext = extend(galois_ring(3, 1, 2), 2)
    x = eu_ring(3, 1, 2).element([1, 0])
    assert not ext.in_base(x)
    with pytest.raises(SpecError):
        ext.unembed(x)


@pytest.mark.parametrize(
    "base", [eu_ring(3, 6, 2), eu_ring(2, 8, 2), galois_ring(3, 1, 9)]
)
def test_extension_of_a_large_base_lists_no_base_element(base):
    # 531441, 65536 and 19683 elements: the inverse embedding solves for
    # digits and never embeds the whole base.
    start = time.perf_counter()
    ext = extend(base, 2)
    rng = random.Random(f"unembed:{base.spec}")
    for _ in range(50):
        a = base.element_at(rng.randrange(base.size))
        assert ext.unembed(ext.embed(a)) is a
    assert not ext.in_base(ext.xi)
    assert time.perf_counter() - start < 5.0


def test_extension_residue_field_budget(monkeypatch):
    # The embedding's root search lists the q Teichmuller lifts of F_q, so
    # a base with q = 3^10 is refused before the top ring is built.  Degree
    # 1 builds nothing, so it has no cap.
    from chaincodes import galois

    def build_nothing(spec):
        raise AssertionError("top ring built over the cap")

    monkeypatch.setattr(galois, "make_ring", build_nothing)
    base = galois_ring(3, 10, 1)
    assert base.q > EXTENSION_BASE_CAP
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="budget"):
        GaloisExtension(base, 2)
    assert GaloisExtension(base, 1).top is base
    assert time.perf_counter() - start < 1.0


def test_extension_degree_is_refused_before_q_to_the_m():
    # ell = 10^16 + 61 over Z9 has m = ell - 1: the degree cap refuses the
    # top ring before q^m - 1, with 10^16 digits, is formed.
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="budget"):
        GaloisExtension(Z9, 10**16 + 60)
    assert time.perf_counter() - start < 1.0


INVERSE_BASES = [
    galois_ring(2, 1, 2),  # Z4
    Z8,
    Z9,
    galois_ring(5, 1, 2),  # Z25
    galois_ring(3, 1, 3),  # Z27
    GR4_2,
    galois_ring(3, 2, 2),  # GR(9, 2)
    eu_ring(2, 1, 2),  # F2[u]/(u^2)
    F3U,
    eu_ring(3, 1, 3),  # F3[u]/(u^3)
    eu_ring(3, 2, 2),
]


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("base", INVERSE_BASES)
def test_inverse_embedding_agrees_with_the_listed_base(base, m):
    ext = extend(base, m)
    top = ext.top
    listed = {ext.embed(a): a for a in base.elements()}
    assert len(listed) == base.size
    for b, a in listed.items():
        assert ext.unembed(b) is a and ext.in_base(b)
    if top.size <= 10**4:
        elems = top.elements()
    else:
        rng = random.Random(f"inverse:{top.spec}")
        elems = [top.element_at(rng.randrange(top.size)) for _ in range(200)]
    for b in elems:
        coords = ext.xi_coordinates(b)
        acc = top.zero
        for i, c in enumerate(coords):
            acc = acc + ext.embed(c) * ext.xi_pow(i)
        assert acc is b
        assert ext.in_base(b) == (b in listed)


def test_frobenius_fixes_exactly_the_base():
    ext = extend(galois_ring(3, 1, 2), 2)
    fixed = [a for a in ext.top.elements() if ext.frobenius(a) == a]
    assert len(fixed) == ext.base.size
    assert all(ext.in_base(a) for a in fixed)


def test_frobenius_is_ring_automorphism():
    ext = extend(galois_ring(3, 1, 2), 2)
    elems = ext.top.elements()
    for a in elems[:20]:
        for b in elems[:20]:
            assert ext.frobenius(a * b) == ext.frobenius(a) * ext.frobenius(b)
            assert ext.frobenius(a + b) == ext.frobenius(a) + ext.frobenius(b)
    for a in elems:
        assert ext.frobenius(a, ext.m) == a


def test_trace():
    ext = extend(galois_ring(3, 1, 2), 2)
    base = ext.base
    # Tr(1) = m
    assert ext.trace(ext.top.one) == base.from_int(2)
    # R-linearity and surjectivity
    image = set()
    for a in ext.top.elements():
        t = ext.trace(a)
        image.add(t)
        for c in base.elements():
            assert ext.trace(ext.embed(c) * a) == c * t
    assert image == set(base.elements())


ORBIT_EXTENSIONS = [
    (Z9, 2),
    (Z9, 4),
    (F3U, 2),
    (F3U, 3),
    (Z8, 2),
    (GR4_2, 2),
    (GR4_2, 3),
    (eu_ring(2, 1, 3), 2),
    (eu_ring(2, 2, 2), 2),
    (galois_ring(5, 1, 2), 2),  # Z25
    (galois_ring(3, 2, 2), 2),  # GR(9, 2)
    (galois_ring(3, 1, 3), 2),  # Z27
    (eu_ring(3, 2, 2), 2),
]


def orbit_trace(ext, a, frobenius):
    """Reference trace: the sum of the sigma-orbit a, sigma(a), ...,
    sigma^(m-1)(a), mapped back into the base ring."""
    acc = cur = a
    for _ in range(ext.m - 1):
        cur = frobenius(cur)
        acc = acc + cur
    return ext.unembed(acc)


@pytest.mark.parametrize("base,m", ORBIT_EXTENSIONS)
def test_trace_is_the_orbit_sum(base, m):
    # sigma(sum_t d_t theta^t) = sum_t d_t^q theta^t over the Teichmuller
    # digits d_t, tabulated once for every element.
    ext = extend(base, m)
    top = ext.top
    teich = top.teichmuller_set()
    image = {d: top.pow(d, ext.q) for d in teich}
    sigma = {
        top.recompose(ds): top.recompose([image[d] for d in ds])
        for ds in product(teich, repeat=top.s)
    }
    assert len(sigma) == top.size
    for a in top.elements():
        assert ext.trace(a) is orbit_trace(ext, a, sigma.__getitem__)


def theta_adic_frobenius(ext, a, power):
    """Reference sigma^power: raise each Teichmuller digit of a to the
    q^power-th power."""
    power %= ext.m
    if power == 0:
        return a
    top = ext.top
    exp = pow(ext.q, power, ext.order)
    out = top.zero
    for t, d in enumerate(top.theta_adic_expansion(a)):
        if d:
            out = out + top.pow(d, exp) * top.theta_pow(t)
    return out


@pytest.mark.parametrize("base,m", ORBIT_EXTENSIONS)
def test_frobenius_is_the_digit_power(base, m):
    ext = extend(base, m)
    top = ext.top
    if top.size <= 256:
        elems = top.elements()
    else:
        rng = random.Random(f"frobenius:{top.spec}")
        elems = [top.element_at(rng.randrange(top.size)) for _ in range(100)]
    for a in elems:
        for k in range(m + 1):
            assert ext.frobenius(a, k) is theta_adic_frobenius(ext, a, k)


def fq_value(fq, poly, x):
    """Reference evaluation of an integer polynomial at a residue-field
    element: Horner over fq.mul and fq.add."""
    out = 0
    for c in reversed(poly):
        out = fq.add(fq.mul(out, x), c % fq.p)
    return out


def fq_pow(fq, a, e):
    out = 1
    while e:
        if e & 1:
            out = fq.mul(out, a)
        a = fq.mul(a, a)
        e >>= 1
    return out


def fq_order(fq, a):
    order = fq.q - 1
    for prime, e in factorize(order):
        for _ in range(e):
            if fq_pow(fq, a, order // prime) != 1:
                break
            order //= prime
    return order


def smallest_primitive(fq):
    """Reference generator search over the residue field: the least
    integer encoding an element of order q - 1."""
    return next(a for a in range(1, fq.q) if fq_order(fq, a) == fq.q - 1)


@pytest.mark.parametrize("base,m", ORBIT_EXTENSIONS)
def test_xi_lifts_the_least_generator(base, m):
    ext = extend(base, m)
    top = ext.top
    prim = smallest_primitive(reference_field(top))
    assert ext.xi is top.teichmuller(top.lift(prim))


def coefficient_embed(ext):
    """Reference embedding: the lift w of the smallest root of the base
    modulus among all residues of S, and a = sum_(t,d) c_(t,d) x^d theta^t
    mapped to sum c_(t,d) w^d theta^t coefficient by coefficient."""
    base, top = ext.base, ext.top
    hbar = [c % base.p for c in base.spec.modulus]
    fq, base_fq = reference_field(top), reference_field(base)
    root = next(c for c in range(top.q) if fq_value(fq, hbar, c) == 0)
    powers = [top.pow(top.teichmuller(top.lift(root)), d) for d in range(base.r)]

    def combine(coeffs):
        out = top.zero
        for c, power in zip(coeffs, powers):
            out = out + top.int_mul(c, power)
        return out

    def embed(a):
        if base.family == "GR":
            return combine(a.coords)
        out = top.zero
        for t, c in enumerate(a.coords):
            out = out + combine(base_fq.to_coeffs(c)) * top.theta_pow(t)
        return out

    return embed


@pytest.mark.parametrize("base,m", ORBIT_EXTENSIONS)
def test_embedding_is_the_coefficient_map(base, m):
    ext = extend(base, m)
    embed = coefficient_embed(ext)
    for a in base.elements():
        assert ext.embed(a) is embed(a)


def test_trace_rejects_a_foreign_element():
    for m in (1, 2):
        with pytest.raises(SpecError):
            extend(Z9, m).trace(F3U.one)


@pytest.mark.parametrize(
    "ring,ell",
    [(Z9, ell) for ell in (4, 8, 20, 26, 28)]
    + [(F3U, 4), (F3U, 8), (Z8, 3), (Z8, 7), (GR4_2, 5), (eu_ring(2, 1, 3), 7)],
)
def test_trace_rows_match_the_exponent_orbit(ring, ell):
    # Tr(xi^e) summed over the exponent orbit e, eq, eq^2, ... (mod q^m - 1).
    ctx = context(ring, ell)
    ext = ctx.ext
    w = ext.order // ell
    traces = {}

    def trace_xi_pow(e):
        e %= ext.order
        if e not in traces:
            acc = ext.top.zero
            for l in range(ext.m):
                acc = acc + ext.xi_pow(e * ext.q**l)
            traces[e] = ext.unembed(acc)
        return traces[e]

    for rep in representatives(ctx.universe):
        rows = [
            [trace_xi_pow(k + w * rep * j) for j in range(ell)]
            for k in range(ext.m)
        ]
        reference = LinearCode(ring, ell, rows)
        assert ctx.coset_codes[rep].sf_rows == reference.sf_rows


def product_then_trace(ext, x, ys):
    """Tr(x*y) for each y, one product in S per y."""
    return [ext.trace(ext.top._mul(x, y)) for y in ys]


@pytest.mark.parametrize(
    "ring,ell",
    [(Z9, ell) for ell in (20, 28, 56, 80)]
    + [(F3U, 20), (F3U, 44), (eu_ring(3, 2, 2), 10)],
)
def test_trace_table_matches_product_then_trace(ring, ell):
    # The context's table reads each Tr(xi^k y) off the m images Tr(xi^k b_j)
    # over the digit basis of S.
    ctx = context(ring, ell)
    ext = ctx.ext
    assert ctx.traces == [
        product_then_trace(ext, ext.xi_pow(k), ctx.eta_pows) for k in range(ext.m)
    ]
    rnd = random.Random(f"{ring.short_name()}:{ell}")
    top = ext.top
    for _ in range(3):
        x = top.element_at(rnd.randrange(top.size))
        ys = [top.element_at(rnd.randrange(top.size)) for _ in range(5)]
        assert ext.trace_products(x, ys) == product_then_trace(ext, x, ys)


def test_trace_products_at_degree_one_and_of_foreign_elements():
    ext = extend(Z9, 1)
    ys = list(Z9.elements())
    assert ext.trace_products(Z9.element([2]), ys) == product_then_trace(
        ext, Z9.element([2]), ys
    )
    for m in (1, 2):
        top = extend(Z9, m).top
        for x, ys in ((F3U.one, [top.one]), (top.one, [top.one, F3U.one])):
            with pytest.raises(SpecError):
                extend(Z9, m).trace_products(x, ys)


def test_trace_xi_pow_agrees():
    ext = extend(galois_ring(3, 1, 2), 2)
    for e in range(20):
        assert ext.trace_xi_pow(e) == ext.trace(ext.xi_pow(e))


def test_xi_coordinates_round_trip():
    ext = extend(galois_ring(3, 1, 2), 2)
    for a in ext.top.elements():
        coords = ext.xi_coordinates(a)
        assert len(coords) == ext.m
        acc = ext.top.zero
        for i, c in enumerate(coords):
            acc = acc + ext.embed(c) * ext.xi_pow(i)
        assert acc == a


def test_degree_one_extension_is_identity():
    base = galois_ring(3, 1, 2)
    ext = extend(base, 1)
    assert ext.top is base
    for a in base.elements():
        assert ext.embed(a) is a
        assert ext.trace(a) == a
        assert ext.frobenius(a) == a


def test_bigger_extension_trace_into_subring():
    # degree 6 over Z9, exercised lightly: trace lands in the base
    ext = extend(galois_ring(3, 1, 2), 6)
    assert ext.order == 3**6 - 1
    assert ext.trace(ext.top.one) == ext.base.from_int(6)
    t = ext.trace(ext.xi)
    assert t.ring is ext.base


def _identity(ring, m):
    return [[ring.one if i == j else ring.zero for j in range(m)] for i in range(m)]


def _random_unit_matrix(ring, m, rng):
    """L * U with unit diagonals, rows permuted: invertible by construction."""
    units = [a for a in ring.elements() if ring.is_unit(a)]
    lower, upper = _identity(ring, m), _identity(ring, m)
    for i in range(m):
        upper[i][i] = rng.choice(units)
        for j in range(i):
            lower[i][j] = ring.element_at(rng.randrange(ring.size))
            upper[j][i] = ring.element_at(rng.randrange(ring.size))
    mat = _matmul(ring, lower, upper)
    rng.shuffle(mat)
    return mat


def _matmul(ring, a, b):
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = ring.zero
            for x, brow in zip(row, b):
                acc = acc + x * brow[j]
            out_row.append(acc)
        out.append(out_row)
    return out


@pytest.mark.parametrize(
    "ring", [galois_ring(3, 1, 2), galois_ring(2, 2, 2), eu_ring(3, 1, 2)]
)
def test_invert_unit_matrix(ring):
    rng = random.Random(f"invert:{ring.spec}")
    for m in (1, 2, 3, 4):
        eye = _identity(ring, m)
        for _ in range(10):
            mat = _random_unit_matrix(ring, m, rng)
            inv = _invert_unit_matrix(ring, mat)
            assert _matmul(ring, mat, inv) == eye
            assert _matmul(ring, inv, mat) == eye
            bad = [list(row) for row in mat]
            i = rng.randrange(m)
            bad[i] = [ring.theta * a for a in bad[i]]
            with pytest.raises(SpecError):
                _invert_unit_matrix(ring, bad)


def newton_root(top, poly, w):
    """Newton's lift of a simple residue root w of an integer polynomial."""

    def value(f, x):
        out = top.zero
        for c in reversed(f):
            out = out * x + top.from_int(c)
        return out

    dpoly = [i * c for i, c in enumerate(poly)][1:]
    for _ in range(top.s + 1):
        w = w - value(poly, w) * top.inv(value(dpoly, w))
    assert not value(poly, w)
    return w


@pytest.mark.parametrize(
    "base", [galois_ring(3, 2, 2), galois_ring(2, 2, 3), galois_ring(5, 2, 2)]
)
def test_embedding_root_is_the_newton_lift(base):
    ext = extend(base, 2)
    top = ext.top
    hbar = [c % base.p for c in base.spec.modulus]
    fq = reference_field(top)
    root_res = min(c for c in range(top.q) if fq_value(fq, hbar, c) == 0)
    root = ext.embed(base.element([0, 1]))
    assert root == newton_root(top, base.lifted_modulus, top.lift(root_res))
    assert top.residue(root) == root_res
