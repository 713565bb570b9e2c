"""Golden hashes of seeded outputs.

Each test computes a fixed, seeded set of results and compares the first
16 hex digits of the sha256 of its repr with a recorded constant.  A change
meant to keep the output bit-identical must leave every hash as it is; a
change that alters an output on purpose records the new hash and says why.
"""

import hashlib
import json
import random
from itertools import product

import pytest

from chaincodes import (
    LinearCode,
    code_from_partition,
    context,
    eu_ring,
    extend,
    galois_ring,
    make_partition,
    representatives,
)
from chaincodes.cli import main

TABLE_RINGS = [
    galois_ring(3, 1, 2),
    eu_ring(3, 1, 2),
    galois_ring(2, 1, 3),
    galois_ring(2, 2, 2),
    eu_ring(2, 2, 2),
    galois_ring(3, 1, 3),
    galois_ring(3, 2, 2),
    eu_ring(2, 1, 5),
]

# Rings above chainring.TABLE_CAP, which compute with element arithmetic.
BIG_RINGS = [
    galois_ring(2, 1, 9),
    galois_ring(3, 2, 3),
    eu_ring(3, 2, 3),
    galois_ring(5, 2, 2),
]


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def coords(row):
    return tuple(a.coords for a in row)


def random_codes(ring, count, max_len, seed):
    rnd = random.Random(f"{seed}:{ring.short_name()}")
    codes = []
    for _ in range(count):
        n = rnd.randint(1, max_len)
        k = rnd.randint(0, 4)
        rows = [
            [
                ring.element_at(rnd.randrange(ring.size))
                * ring.theta_pow(rnd.randint(0, ring.s))
                for _ in range(n)
            ]
            for _ in range(k)
        ]
        codes.append(LinearCode(ring, n, rows))
    return codes


def standard_forms(codes):
    out = []
    for code in codes:
        dual = code.dual()
        out.append((code.key(), code.pivots, code.type, dual.key(), dual.pivots))
    return out


def test_standard_forms_and_duals_over_table_rings():
    codes = [c for ring in TABLE_RINGS for c in random_codes(ring, 12, 12, 1)]
    assert digest(standard_forms(codes)) == "50dc413808e54ebb"


def test_standard_forms_and_duals_above_the_cap():
    codes = [c for ring in BIG_RINGS for c in random_codes(ring, 6, 5, 2)]
    assert digest(standard_forms(codes)) == "8f0005c9fa84a54a"


def test_teichmuller_sets_and_theta_adic_digits():
    rings = TABLE_RINGS + BIG_RINGS + [galois_ring(3, 3, 2), eu_ring(2, 3, 3)]
    teich = [coords(ring.teichmuller_set()) for ring in rings]
    rnd = random.Random(3)
    digits = [
        coords(ring.theta_adic_expansion(ring.element_at(rnd.randrange(ring.size))))
        for ring in rings
        for _ in range(20)
    ]
    assert digest((teich, digits)) == "bfb53f30d6d29b61"


@pytest.mark.parametrize(
    "p, r, s, expected",
    [
        (3, 2, 2, "89cd101d2cf55a27"),
        (2, 2, 3, "7c82990faec1bff4"),
        (5, 3, 2, "bbb41fc8d0dfca86"),
        (2, 3, 4, "9c2ad859e7c8fcfe"),
        (3, 3, 3, "6f947e21a286a915"),
        (2, 4, 2, "798322eca52b29c2"),
        (3, 6, 2, "1a6396d2dd6052c8"),
    ],
)
def test_lifted_modulus(p, r, s, expected):
    assert digest(galois_ring(p, r, s).lifted_modulus) == expected


def test_extension_embeddings_and_xi():
    cases = [
        (galois_ring(3, 1, 2), 2),
        (galois_ring(3, 1, 2), 4),
        (eu_ring(3, 1, 2), 2),
        (galois_ring(2, 2, 2), 2),
        (galois_ring(3, 2, 2), 2),
        (galois_ring(2, 2, 3), 2),
        (galois_ring(5, 2, 2), 2),
        (eu_ring(3, 2, 2), 2),
    ]
    out = []
    for base, m in cases:
        ext = extend(base, m)
        out.append(
            (
                ext.top.spec.modulus,
                ext.xi.coords,
                coords(ext.embed(a) for a in base.elements()),
                [ext.xi_coordinates(ext.xi_pow(7 * j)) for j in range(3)],
            )
        )
    assert digest(out) == "6cb4c72232008bcf"


def test_codewords_and_min_weights():
    rings = [galois_ring(3, 1, 2), eu_ring(3, 1, 2), galois_ring(2, 2, 2)]
    codes = [c for ring in rings for c in random_codes(ring, 8, 4, 4)]
    codes += random_codes(galois_ring(2, 1, 9), 3, 2, 4)
    out = []
    for code in codes:
        words = [coords(w) for w in code.codewords()]
        weight = code.min_weight() if code.rank else None
        out.append((words, weight))
    assert digest(out) == "d8522d83547671e7"


def run_json(capsys, *argv):
    assert main([*argv, "--json"]) == 0
    return capsys.readouterr().out


def test_build_and_dual_documents(tmp_path, capsys):
    docs = []
    for ring in (galois_ring(3, 1, 2), eu_ring(3, 1, 2)):
        spec = json.dumps(ring.spec.to_json())
        ctx = context(ring, 20)
        reps = representatives(ctx.universe)
        rnd = random.Random(f"5:{ring.short_name()}")
        for _ in range(4):
            levels = {z: rnd.randint(0, ring.s) for z in reps}
            pfile = tmp_path / "p.json"
            pfile.write_text(json.dumps({str(z): t for z, t in levels.items()}))
            built = run_json(
                capsys, "build", "partition",
                "--ring", spec, "--ell", "20", "--file", str(pfile),
            )
            cfile = tmp_path / "c.json"
            cfile.write_text(built)
            docs += [built, run_json(capsys, "dual", "--code", str(cfile))]
        docs.append(
            run_json(
                capsys, "build", "trace",
                "--ring", spec, "--ell", "20", "--set", "1,5",
            )
        )
    assert digest(docs) == "46b3e9b0ccc19aaa"


def test_cyclic_pipeline_duals():
    """The duals of the 52 length-20 codes the benchmark's cyclic workload
    draws: every level assignment whose information exponents are odd."""
    keys = []
    for ring in (galois_ring(3, 1, 2), eu_ring(3, 1, 2)):
        ctx = context(ring, 20)
        reps = representatives(ctx.universe)
        odd = [z for z in reps if z % 2]
        for combo in product(range(ring.s + 1), repeat=len(odd)):
            if min(combo) == ring.s:
                continue
            levels = dict.fromkeys(reps, ring.s)
            levels.update(zip(odd, combo))
            partition = make_partition(ctx.universe, ring.s, levels)
            keys.append(code_from_partition(ctx, partition).dual().key())
    assert len(keys) == 52
    assert digest(keys) == "d09b2a21eb039744"

