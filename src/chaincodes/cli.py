"""Command-line front-end for codes over finite chain rings.

Subcommands: ring-info, cosets, build, analyze, dual, contract, concat,
enumerate-cyclic, verify.  Exit codes: 0 success, 2 usage, 3 malformed
input or failed validation, 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import oracle
from .chainring import _is_int, make_ring
from .contraction import concatenation_code, contract_code, contract_dual
from .cosets import (
    CosetUniverse,
    CyclotomicPartition,
    class_count_formula,
    cosets,
    representatives,
)
from .errors import BudgetExceeded, ChainCodesError, SpecError
from .modcodes import LinearCode, is_constacyclic
from .tracecodes import (
    code_from_partition,
    context,
    count_cyclic_codes,
    decompose_cyclic,
    enumerate_cyclic_codes,
    lrs_code,
    trace_eval_code,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MALFORMED = 3
EXIT_BUDGET = 4


def _emit(args, doc: dict, human: str):
    if args.json:
        print(json.dumps(doc, sort_keys=True))
    else:
        print(human)


def _load_json_arg(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ChainCodesError(f"malformed JSON argument: {exc}") from exc


def _load_json_file(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ChainCodesError(f"cannot read JSON file {path}: {exc}") from exc


def _ring_from_args(args):
    return make_ring(_load_json_arg(args.ring))


def load_code(doc) -> LinearCode:
    if not isinstance(doc, dict):
        raise ChainCodesError("code document must be a JSON object")
    try:
        ring = make_ring(doc["ring"])
        length = doc["length"]
        gens = doc["generators"]
        rows = [[ring.element(coords) for coords in row] for row in gens]
    except (KeyError, TypeError, ValueError) as exc:
        raise ChainCodesError(f"malformed code document: {exc}") from exc
    if not _is_int(length):
        raise SpecError(f"code length must be an integer, got {length!r}")
    return LinearCode(ring, length, rows)


def _matrix_lines(code: LinearCode) -> str:
    if not code.sf_rows:
        return "  (no generators)"
    return "\n".join(
        "  " + " ".join(str(list(a.coords)) for a in row)
        for row in code.sf_rows
    )


def _code_summary(code: LinearCode) -> str:
    return (
        f"ring: {code.ring.short_name()}  length: {code.length}\n"
        f"type: {list(code.type)}  rank: {code.rank}  "
        f"cardinality: {code.cardinality}\n"
        f"standard-form generators:\n{_matrix_lines(code)}"
    )


def _parse_set(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ChainCodesError(f"malformed exponent set {text!r}") from exc


# -- subcommand handlers ---------------------------------------------------


def cmd_ring_info(args) -> int:
    ring = _ring_from_args(args)
    if ring.q > args.budget:
        raise BudgetExceeded(
            f"the Teichmuller set has q = {ring.q} elements, over budget {args.budget}"
        )
    teich = [list(b.coords) for b in ring.teichmuller_set()]
    doc = {
        "family": ring.family,
        "p": ring.p,
        "r": ring.r,
        "s": ring.s,
        "q": ring.q,
        "size": ring.size,
        "modulus": list(ring.spec.modulus),
        "theta": list(ring.theta.coords),
        "unit_group_order": ring.unit_group_order(),
        "teichmuller_set": teich,
    }
    human = (
        f"{ring!r}\n"
        f"modulus: {list(ring.spec.modulus)}\n"
        f"theta: {list(ring.theta.coords)}\n"
        f"unit group order: {ring.unit_group_order()}\n"
        f"Teichmuller set: {teich}"
    )
    _emit(args, doc, human)
    return EXIT_OK


def cmd_cosets(args) -> int:
    universe = CosetUniverse(args.ell, args.q)
    parts = cosets(universe)
    reps = representatives(universe)
    doc = {
        "ell": args.ell,
        "q": args.q,
        "cosets": [c.sorted() for c in parts],
        "representatives": reps,
        "count": len(parts),
    }
    lines = [f"cosets mod {args.ell} under multiplication by {args.q}:"]
    for c in parts:
        body = ", ".join(str(z) for z in c.sorted())
        lines.append(f"  {min(c.members)}: {{{body}}}")
    lines.append("representatives: " + " ".join(str(z) for z in reps))
    lines.append(f"count: {len(parts)}")
    _emit(args, doc, "\n".join(lines))
    return EXIT_OK


def cmd_build(args) -> int:
    ring = _ring_from_args(args)
    ctx = context(ring, args.ell)
    if args.kind == "trace":
        if args.set is None:
            raise ChainCodesError("build trace requires --set")
        code = trace_eval_code(ctx, ctx.universe.subset(_parse_set(args.set)))
    elif args.kind == "lrs":
        if args.set is None:
            raise ChainCodesError("build lrs requires --set")
        code = lrs_code(ctx, ctx.universe.subset(_parse_set(args.set)))
    else:
        if args.file is None:
            raise ChainCodesError("build partition requires --file")
        partition = CyclotomicPartition.from_json(
            ctx.universe, ring.s, _load_json_file(args.file)
        )
        code = code_from_partition(ctx, partition)
    _emit(args, code.to_json(), _code_summary(code))
    return EXIT_OK


def cmd_analyze(args) -> int:
    code = load_code(_load_json_file(args.code))
    budget = oracle.Budget(args.budget, args.budget)
    if code.is_zero():
        mw = None
    else:
        mw = code.min_weight(budget.max_codewords)
    doc = {
        "type": list(code.type),
        "rank": code.rank,
        "cardinality": code.cardinality,
        "min_weight": mw,
    }
    human = _code_summary(code) + f"\nmin weight: {mw if mw is not None else '-'}"
    _emit(args, doc, human)
    return EXIT_OK


def cmd_dual(args) -> int:
    code = load_code(_load_json_file(args.code))
    if code.length**2 > oracle.MAX_CODEWORDS:
        raise BudgetExceeded(
            f"the dual of a length-{code.length} code has {code.length}^2 "
            f"entries, over budget {oracle.MAX_CODEWORDS}"
        )
    dual = code.dual()
    _emit(args, dual.to_json(), _code_summary(dual))
    return EXIT_OK


def cmd_contract(args) -> int:
    code = load_code(_load_json_file(args.code))
    result = contract_code(code, args.u)
    k = result.code
    dual = k.dual()
    self_dual = k.same_code(dual)
    constacyclic_ok = True
    if not k.is_zero():
        constacyclic_ok = is_constacyclic(k, result.gamma)
    star_dual_ok = contract_dual(result, args.u).same_code(dual)
    doc = {
        "code": k.to_json(),
        "gamma": list(result.gamma.coords),
        "omega": result.omega,
        "partition": result.partition.to_json(),
        "report": {
            "type": list(k.type),
            "cardinality": k.cardinality,
            "constacyclic": constacyclic_ok,
            "star_dual_matches": star_dual_ok,
            "self_dual": self_dual,
        },
    }
    human = (
        _code_summary(k)
        + f"\ngamma: {list(result.gamma.coords)}  omega: {result.omega}"
        + f"\npartition: {json.dumps(result.partition.to_json(), sort_keys=True)}"
        + f"\nconstacyclic: {constacyclic_ok}"
        + f"\nstar-dual matches dual: {star_dual_ok}"
        + f"\nself-dual: {self_dual}"
    )
    _emit(args, doc, human)
    return EXIT_OK


def cmd_concat(args) -> int:
    code = load_code(_load_json_file(args.code))
    ring = code.ring
    try:
        gamma = ring.element(_load_json_arg(args.gamma))
    except (TypeError, ValueError) as exc:
        raise ChainCodesError(f"malformed gamma: {exc}") from exc
    big = concatenation_code(code, gamma, args.u)
    _emit(args, big.to_json(), _code_summary(big))
    return EXIT_OK


def cmd_enumerate_cyclic(args) -> int:
    ring = _ring_from_args(args)
    n = class_count_formula(CosetUniverse(args.ell, ring.q))
    # s + 1 >= 2, so (s+1)^n > budget once 2^n is: the count is written as
    # a power, as it can have too many digits to print.
    if n > args.budget.bit_length() or (ring.s + 1) ** n > args.budget:
        raise BudgetExceeded(
            f"{ring.s + 1}^{n} cyclic codes of length {args.ell} exceed "
            f"budget {args.budget}"
        )
    total, free = (ring.s + 1) ** n, 2**n
    items = []
    for partition, code in enumerate_cyclic_codes(ring, args.ell):
        items.append(
            {
                "partition": partition.to_json(),
                "type": list(code.type),
                "cardinality": code.cardinality,
            }
        )
    doc = {"total": total, "free": free, "codes": items}
    lines = [f"cyclic codes of length {args.ell} over {ring.short_name()}:"]
    for item in items:
        lines.append(
            f"  partition {json.dumps(item['partition'], sort_keys=True)}"
            f"  type {item['type']}  cardinality {item['cardinality']}"
        )
    lines.append(f"total: {total}  free: {free}")
    _emit(args, doc, "\n".join(lines))
    return EXIT_OK


def cmd_verify(args) -> int:
    ring = _ring_from_args(args)
    ell = args.ell
    budget = oracle.Budget(args.budget, args.budget)
    budget.check_vectors(ring.size, ell)  # before any coset is listed
    universe = CosetUniverse(ell, ring.q)
    checks: list[tuple[str, bool]] = []

    checks.append(
        (
            "coset count matches divisor-sum formula",
            len(cosets(universe)) == class_count_formula(universe),
        )
    )

    submodules = oracle.enumerate_cyclic_submodules(ring, ell, budget)
    total, free = count_cyclic_codes(ring, ell)
    checks.append(("cyclic code count matches formula", len(submodules) == total))
    checks.append(
        (
            "free cyclic code count matches formula",
            sum(1 for c in submodules if c.type[1:] == (0,) * (ring.s - 1))
            == free,
        )
    )

    ctx = context(ring, ell)
    ok_round = True
    ok_dual = True
    ok_tilde = True
    for code in submodules:
        partition = decompose_cyclic(code)
        rebuilt = code_from_partition(ctx, partition)
        ok_round = ok_round and rebuilt.same_code(code)
        dual = code.dual()
        ok_dual = ok_dual and oracle.same_words(
            dual, oracle.brute_dual(code, budget)
        )
        ok_tilde = ok_tilde and code_from_partition(
            ctx, partition.tilde_dual()
        ).same_code(dual)
    checks.append(("decompose/rebuild round-trip", ok_round))
    checks.append(("structural dual equals brute-force dual", ok_dual))
    checks.append(("dual partition is the tilde dual", ok_tilde))

    doc = {"checks": [{"name": n, "pass": p} for n, p in checks]}
    width = max(len(n) for n, _ in checks)
    lines = [
        f"{n.ljust(width)}  {'PASS' if p else 'FAIL'}" for n, p in checks
    ]
    all_ok = all(p for _, p in checks)
    lines.append("result: " + ("all checks passed" if all_ok else "FAILURES"))
    _emit(args, doc, "\n".join(lines))
    return EXIT_OK if all_ok else EXIT_MALFORMED


# -- argument parsing ------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaincodes",
        description="cyclic and constacyclic codes over finite chain rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="JSON output")
        return p

    p = add("ring-info", cmd_ring_info, help="describe a chain ring")
    p.add_argument("--ring", required=True, help="ring spec JSON")
    p.add_argument("--budget", type=int, default=oracle.MAX_CODEWORDS)

    p = add("cosets", cmd_cosets, help="q-cyclotomic cosets mod ell")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    p = add("build", cmd_build, help="construct a code")
    p.add_argument("kind", choices=["trace", "lrs", "partition"])
    p.add_argument("--ring", required=True, help="ring spec JSON")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--set", help="comma-separated exponents")
    p.add_argument("--file", help="partition JSON file")

    p = add("analyze", cmd_analyze, help="type, rank, cardinality, min weight")
    p.add_argument("--code", required=True, help="code JSON file")
    p.add_argument("--budget", type=int, default=oracle.MAX_CODEWORDS)

    p = add("dual", cmd_dual, help="dual code")
    p.add_argument("--code", required=True, help="code JSON file")

    p = add("contract", cmd_contract, help="contract a cyclic code")
    p.add_argument("--code", required=True, help="code JSON file")
    p.add_argument("--u", type=int, required=True)

    p = add("concat", cmd_concat, help="concatenate a constacyclic code")
    p.add_argument("--code", required=True, help="code JSON file")
    p.add_argument("--gamma", required=True, help="gamma coordinates, JSON list")
    p.add_argument("--u", type=int, required=True)

    p = add("enumerate-cyclic", cmd_enumerate_cyclic, help="all cyclic codes")
    p.add_argument("--ring", required=True, help="ring spec JSON")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--budget", type=int, default=oracle.MAX_CODEWORDS)

    p = add("verify", cmd_verify, help="oracle cross-check suite")
    p.add_argument("--suite", default="all", choices=["all"])
    p.add_argument("--ring", required=True, help="ring spec JSON")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--budget", type=int, default=oracle.MAX_VECTORS)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ChainCodesError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
