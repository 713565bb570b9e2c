"""Contraction of cyclic codes into constacyclic codes and back.

The concatenation map sends a length-n vector c to the length-un vector
(gamma^(u-1) c | ... | gamma c | c).  When gamma^u = 1 it carries
gamma-constacyclic codes to cyclic codes; contraction inverts it.  A cyclic
code of length un is a concatenation exactly when every exponent coset of
its information blocks sits in a single residue class omega mod u, and then
gamma = beta^(-omega) for beta the Teichmuller root of unity of order u.
The dual of the contraction is gamma^(-1)-constacyclic, so it is itself
the contraction of a cyclic code: the one whose partition is the star dual,
with its information exponents in the class -omega.
"""

from __future__ import annotations

import warnings
from math import gcd

from ._record import record
from .chainring import RingElement
from .cosets import CyclotomicPartition
from .errors import SpecError
from .modcodes import LinearCode, full_code, is_constacyclic, zero_code
from .tracecodes import code_from_partition, context, decompose_cyclic


def concatenate(v, gamma: RingElement, u: int):
    """(gamma^(u-1) v | ... | gamma v | v)."""
    if u < 1:
        raise SpecError("u must be >= 1")
    ring = gamma.ring
    return ring.decode_row(_concatenate_row(ring.encode_row(v), gamma, u))


def _concatenate_row(v, gamma: RingElement, u: int):
    """concatenate on an encoded row."""
    ring = gamma.ring
    c = ring.encode(gamma)
    out = block = v
    for _ in range(u - 1):
        block = ring.row_scale(c, block)
        out = block + out
    return out


def concatenation_code(code: LinearCode, gamma: RingElement, u: int) -> LinearCode:
    """The cyclic code of length u*n concatenated from a gamma-constacyclic
    code of length n."""
    ring = code.ring
    if gamma.ring is not ring:
        raise SpecError("gamma must belong to the code's ring")
    if not ring.is_unit(gamma):
        raise SpecError("gamma must be a unit")
    if ring.pow(gamma, u) != ring.one:
        raise SpecError("gamma^u must be 1 for the concatenation to be cyclic")
    if not is_constacyclic(code, gamma):
        raise SpecError("code is not gamma-constacyclic")
    rows = [_concatenate_row(g, gamma, u) for g in code._sf]
    # Every codeword is a concatenation, whose blocks are unit multiples of
    # one another, so the least column of any valuation lies in block 0 and
    # the pivots are those of the code.  With gamma^u = 1 the row
    # gamma * concat(k) = concat(gamma * k) has block 0 equal to k, so these
    # rows keep every invariant of the standard form.
    c = ring.encode(gamma)
    sf = [ring.row_scale(c, r) for r in rows]
    return LinearCode._with_form(ring, u * code.length, rows, sf, code.pivots)


def _contract_rows(code: LinearCode, gamma: RingElement, u: int) -> LinearCode:
    """The length-n code whose gamma-concatenation is the length-u*n code,
    spanned by the last block of each standard-form row, once the row is
    checked to be the concatenation of that block.  Its standard form is
    block 0 of the rows, with the same pivots: when every row is a
    concatenation, so is every codeword, and its least column of any
    valuation lies in block 0."""
    n = code.length // u
    rows = []
    for g in code._sf:
        tail = g[-n:]
        if _concatenate_row(tail, gamma, u) != g:
            raise AssertionError(
                "generator does not follow the concatenation pattern"
            )
        rows.append(tail)
    sf = [g[:n] for g in code._sf]
    return LinearCode._with_form(code.ring, n, rows, sf, code.pivots)


@record
class ContractionResult:
    code: LinearCode  # the contracted gamma-constacyclic code
    gamma: RingElement
    omega: int
    partition: CyclotomicPartition  # exponent partition of the cyclic input


def contract_code(code: LinearCode, u: int) -> ContractionResult:
    """Write a cyclic code of length u*n as the concatenation of a
    gamma-constacyclic code of length n.

    Raises NotCyclic when the input is not cyclic and SingletonViolation
    when its information exponents meet several residue classes mod u.
    """
    ring = code.ring
    if u < 1 or code.length % u:
        raise SpecError(f"u = {u} must divide the length {code.length}")
    n = code.length // u
    partition = decompose_cyclic(code)
    omega = partition.info_residue(u)
    if omega is None:
        return ContractionResult(zero_code(ring, n), ring.one, 0, partition)
    if u > 1 and gcd(omega, u) > 1:
        warnings.warn(
            f"gcd(omega, u) = {gcd(omega, u)} > 1: gamma has order "
            f"{u // gcd(omega, u)}, strictly below u",
            stacklevel=2,
        )
    ctx = context(ring, code.length)
    gamma = ctx.ext.unembed(ctx.eta_pow(-omega * n))
    contracted = _contract_rows(code, gamma, u)
    return ContractionResult(contracted, gamma, omega, partition)


def preimage_code(code: LinearCode, gamma: RingElement, u: int) -> LinearCode:
    """The preimage of a length-u*n code under the concatenation map.

    Uses the adjoint: <concat(k), d> = <k, T(d)> with T summing the blocks
    of d scaled by the matching gamma powers, so the preimage is the dual
    of T applied to the generators of the code's dual.
    """
    if u < 1 or code.length % u:
        raise SpecError(f"u = {u} must divide the length {code.length}")
    ring = code.ring
    n = code.length // u
    # row_axpy subtracts, so the blocks after the first are scaled by
    # -gamma^(u-1-b).
    scales = [ring.encode(ring.pow(gamma, u - 1))] + [
        ring.encode(-ring.pow(gamma, u - 1 - b)) for b in range(1, u)
    ]
    rows = []
    for g in code.dual()._sf:
        row = ring.row_scale(scales[0], g[:n])
        for b in range(1, u):
            row = ring.row_axpy(row, scales[b], g[b * n : (b + 1) * n])
        rows.append(row)
    return LinearCode(ring, n, rows).dual()


def contract_dual(result: ContractionResult, u: int) -> LinearCode:
    """dual(K) as the contraction of the cyclic code of the star dual.

    dual(K) is gamma^(-1)-constacyclic, and its gamma^(-1)-concatenation is
    the cyclic code D of length u*n whose partition is the star dual of
    the input's.  So D is built from that partition and contracted like
    ``contract_code`` contracts, with no dual() call.  The zero code's dual
    is the full code, which no concatenation gives.
    """
    ring, n = result.code.ring, result.code.length
    partition = result.partition
    if u * n != partition.universe.ell:
        raise SpecError(
            f"u * n = {u} * {n} is not the length {partition.universe.ell} "
            "of the contracted cyclic code"
        )
    if result.code.is_zero():
        return full_code(ring, n)
    big = code_from_partition(context(ring, n * u), partition.star_dual(u))
    return _contract_rows(big, ring.inv(result.gamma), u)
