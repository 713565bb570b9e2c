"""The byte-lane layouts of the table rings: which rings have which, and
that a lane takes exactly its headroom of adds before it carries."""

import re
from pathlib import Path

import pytest

import chaincodes
from chaincodes import eu_ring, galois_ring
from chaincodes._ints import is_prime
from chaincodes.chainring import TABLE_CAP, Lanes, _lane_sums

PRIMES = [p for p in range(2, TABLE_CAP + 1) if is_prime(p)]

# Every ring with tables: both families, every (p, r, s) with p^(rs) <= 256.
TABLE_RINGS = [
    make(p, r, s)
    for p in PRIMES
    for r in range(1, 9)
    for s in range(1, 9)
    if p ** (r * s) <= TABLE_CAP
    for make in (galois_ring, eu_ring)
]

# One ring per digit spelling (B, d), B^d <= 256, with some lane layout:
# GR(p, d, s) has indices of d digits base B = p^s.
DIGIT_RINGS = [
    galois_ring(p, d, s)
    for p in PRIMES
    for s in range(1, 8)
    for d in range(1, 9)
    if (p**s) ** d <= TABLE_CAP and p**s <= 128
]


def digits_id(ring):
    base, count = ring._digits
    return f"B={base},d={count}"


def top(ring):
    """The index whose every digit is B - 1."""
    return ring.size - 1


def times_top(ring, k):
    """The index of k times the element ``top``, by coordinate arithmetic."""
    return ring.int_mul(k, ring.element_at(top(ring))).index


def check_pivot_lanes(ring):
    # Rows 1 and 2 gain row 0, all ``top``, in 3 * headroom rank-1 updates,
    # folded after every ``headroom``: each of their digits sums to
    # (B - 1)(headroom + 1) before each fold.  (With B dividing 128, a
    # carry out of a one-digit lane only sets bit 7, which the folds keep
    # until a later carry passes the byte.)
    lanes = ring._pivot_lanes
    width, rows, updates = 3, 3, 3 * lanes.headroom
    m = bytes([top(ring)]) * (width * rows)
    minus_one = ring.encode(-ring.one)
    ops = [(bytes([0, minus_one, minus_one]), 0)] * updates
    got = ring.apply_row_ops(m, width, ops)
    sum_row = bytes([times_top(ring, updates + 1)]) * width
    assert got == m[:width] + sum_row * (rows - 1)


def check_add_lanes(ring):
    # row_add takes one add; the layout itself takes ``headroom`` more
    # ``top`` rows onto a ``top`` row before a fold, read back plane by
    # plane through ``unlane``.
    lanes = ring._add_lanes
    n = 4
    row = bytes([top(ring)]) * n
    assert ring.row_add(row, row) == bytes([times_top(ring, 2)]) * n
    adds = lanes.headroom + 1
    index = 0
    for code, unlane in zip(lanes.code, lanes.unlane):
        total = int.from_bytes(row.translate(code), "little") * adds
        share = total.to_bytes(n + 1, "little").translate(unlane)
        index += int.from_bytes(share, "little")
    assert index.to_bytes(n + 1, "little") == bytes([times_top(ring, adds)]) * n + b"\0"


def check_digit_lanes(ring):
    # One stack row of ones, so that each column's image is the digit lanes
    # of g_j.  The first chunk's sums are B - 1 modulo B, and the second
    # chunk, of ``top`` entries only, fills every lane to the bound.
    lanes = ring._digit_lanes
    base, count = ring._digits
    width = lanes.headroom
    image = [
        int.from_bytes(b"".join([bytes([a]).translate(c) for c in lanes.code]), "little")
        for a in range(ring.size)
    ]
    images = [image] * (2 * width)
    digit = (2 - width) * (base - 1) % base
    first = sum(digit * base**k for k in range(count))
    g = bytes([first] + [top(ring)] * (2 * width - 1))
    sums = _lane_sums(images, g, width, lanes.fold, count)
    expected = ring._add_coords(
        ring.element_at(first), ring.element_at(times_top(ring, 2 * width - 1))
    )
    assert [y % base for y in sums] == [
        expected.index // base**k % base for k in range(count)
    ]


CHECKS = {
    "_pivot_lanes": check_pivot_lanes,
    "_add_lanes": check_add_lanes,
    "_digit_lanes": check_digit_lanes,
}


def test_digit_rings_cover_every_spelling_with_lanes():
    spellings = {ring._digits for ring in TABLE_RINGS if ring._digits[0] <= 128}
    assert {ring._digits for ring in DIGIT_RINGS} == spellings
    assert len(DIGIT_RINGS) == len(spellings)


@pytest.mark.parametrize("ring", DIGIT_RINGS, ids=digits_id)
def test_lanes_take_their_headroom(ring):
    for name, check in CHECKS.items():
        if getattr(ring, name) is not None:
            check(ring)


@pytest.mark.parametrize("ring", DIGIT_RINGS, ids=digits_id)
def test_one_more_add_than_the_headroom_carries(ring, monkeypatch):
    for name, check in CHECKS.items():
        lanes = getattr(ring, name)
        if lanes is None:
            continue
        wider = Lanes(
            lanes.base, lanes.headroom + 1, lanes.code, lanes.fold,
            lanes.unlane, lanes.vals,
        )
        with monkeypatch.context() as patch:
            patch.setitem(ring.__dict__, name, wider)
            with pytest.raises((AssertionError, OverflowError)):
                check(ring)


def test_only_digits_past_128_add_through_the_plus_rows():
    for ring in TABLE_RINGS:
        base, _ = ring._digits
        lanes = ring._add_lanes
        if base > 128:
            assert lanes is None, ring
        else:
            assert lanes is not None and len(lanes.code) <= 2, ring
    two_planes = {
        ring.short_name() for ring in TABLE_RINGS
        if ring._add_lanes and len(ring._add_lanes.code) == 2
    }
    assert {"GR(p=3,r=2,s=2)", "EU(p=3,r=2,s=2)", "EU(p=2,r=1,s=8)"} <= two_planes


@pytest.mark.parametrize(
    "ring, base, headroom",
    [
        (galois_ring(3, 1, 2), 128, 14),
        (eu_ring(3, 1, 2), 11, 4),
        (galois_ring(2, 1, 3), 128, 17),
        (galois_ring(2, 2, 2), 11, 2),
    ],
    ids=["Z9", "F3[u]/(u^2)", "Z8", "GR(4,2)"],
)
def test_workload_rings_keep_their_pivot_lanes(ring, base, headroom):
    lanes = ring._pivot_lanes
    assert (lanes.base, lanes.headroom, len(lanes.code)) == (base, headroom, 1)


def test_one_digit_rings_share_their_add_and_digit_lanes():
    # Both are the layout of one digit in a full byte, built once.
    one_digit = [ring for ring in TABLE_RINGS if ring._digits[1] == 1]
    names = {ring.short_name() for ring in one_digit}
    assert {"GR(p=3,r=1,s=2)", "GR(p=2,r=1,s=3)", "GR(p=3,r=1,s=4)"} <= names
    for ring in one_digit:
        if ring._digits[0] <= 128:
            assert ring._add_lanes is ring._digit_lanes is not None, ring
        else:
            assert ring._add_lanes is ring._digit_lanes is None, ring


# The names of the row encoding: the table flag, the byte translations and
# their tables, and the lane layouts.
ENCODING_NAMES = re.compile(
    r"\b(has_tables|_translation|_\w+_bytes|_pivot_lanes|_add_lanes"
    r"|_digit_lanes|_lane_layout)\b"
)


def test_only_chainring_names_the_row_encoding():
    package = Path(chaincodes.__file__).parent
    named = {
        path.name: sorted(set(ENCODING_NAMES.findall(path.read_text())))
        for path in package.glob("*.py")
    }
    assert named.pop("chainring.py")
    assert {name: found for name, found in named.items() if found} == {}
