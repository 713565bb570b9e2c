"""Tests for the command-line interface."""

import contextlib
import importlib
import io
import json
import time

import pytest
from deadline import deadline
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincodes import LinearCode
from chaincodes.cli import main

Z9_SPEC = '{"family":"GR","p":3,"r":1,"s":2}'
F3U_SPEC = '{"family":"EU","p":3,"r":1,"s":2}'

GOLDEN_COSETS_20_3 = """\
cosets mod 20 under multiplication by 3:
  0: {0}
  1: {1, 3, 7, 9}
  2: {2, 6, 14, 18}
  4: {4, 8, 12, 16}
  5: {5, 15}
  10: {10}
  11: {11, 13, 17, 19}
representatives: 0 1 2 4 5 10 11
count: 7
"""


GOLDEN_ENUMERATE_Z9_4 = """\
cyclic codes of length 4 over GR(p=3,r=1,s=2):
  partition {"0": 0, "1": 0, "2": 0}  type [4, 0]  cardinality 6561
  partition {"0": 0, "1": 0, "2": 1}  type [3, 1]  cardinality 2187
  partition {"0": 0, "1": 0, "2": 2}  type [3, 0]  cardinality 729
  partition {"0": 0, "1": 1, "2": 0}  type [2, 2]  cardinality 729
  partition {"0": 0, "1": 1, "2": 1}  type [1, 3]  cardinality 243
  partition {"0": 0, "1": 1, "2": 2}  type [1, 2]  cardinality 81
  partition {"0": 0, "1": 2, "2": 0}  type [2, 0]  cardinality 81
  partition {"0": 0, "1": 2, "2": 1}  type [1, 1]  cardinality 27
  partition {"0": 0, "1": 2, "2": 2}  type [1, 0]  cardinality 9
  partition {"0": 1, "1": 0, "2": 0}  type [3, 1]  cardinality 2187
  partition {"0": 1, "1": 0, "2": 1}  type [2, 2]  cardinality 729
  partition {"0": 1, "1": 0, "2": 2}  type [2, 1]  cardinality 243
  partition {"0": 1, "1": 1, "2": 0}  type [1, 3]  cardinality 243
  partition {"0": 1, "1": 1, "2": 1}  type [0, 4]  cardinality 81
  partition {"0": 1, "1": 1, "2": 2}  type [0, 3]  cardinality 27
  partition {"0": 1, "1": 2, "2": 0}  type [1, 1]  cardinality 27
  partition {"0": 1, "1": 2, "2": 1}  type [0, 2]  cardinality 9
  partition {"0": 1, "1": 2, "2": 2}  type [0, 1]  cardinality 3
  partition {"0": 2, "1": 0, "2": 0}  type [3, 0]  cardinality 729
  partition {"0": 2, "1": 0, "2": 1}  type [2, 1]  cardinality 243
  partition {"0": 2, "1": 0, "2": 2}  type [2, 0]  cardinality 81
  partition {"0": 2, "1": 1, "2": 0}  type [1, 2]  cardinality 81
  partition {"0": 2, "1": 1, "2": 1}  type [0, 3]  cardinality 27
  partition {"0": 2, "1": 1, "2": 2}  type [0, 2]  cardinality 9
  partition {"0": 2, "1": 2, "2": 0}  type [1, 0]  cardinality 9
  partition {"0": 2, "1": 2, "2": 1}  type [0, 1]  cardinality 3
  partition {"0": 2, "1": 2, "2": 2}  type [0, 0]  cardinality 1
total: 27  free: 8
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cosets_golden(capsys):
    code, out, _ = run(capsys, "cosets", "--ell", "20", "--q", "3")
    assert code == 0
    assert out == GOLDEN_COSETS_20_3


def test_cosets_json(capsys):
    code, out, _ = run(capsys, "cosets", "--ell", "4", "--q", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["cosets"] == [[0], [1, 3], [2]]
    assert doc["representatives"] == [0, 1, 2]
    assert doc["count"] == 3


def test_ring_info(capsys):
    code, out, _ = run(capsys, "ring-info", "--ring", Z9_SPEC, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["q"] == 3 and doc["size"] == 9
    assert doc["teichmuller_set"] == [[0], [1], [8]]
    assert doc["unit_group_order"] == 6


def test_build_trace_and_analyze(tmp_path, capsys):
    code, out, _ = run(
        capsys, "build", "trace",
        "--ring", Z9_SPEC, "--ell", "4", "--set", "1", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["length"] == 4
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "analyze", "--code", str(path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["type"] == [2, 0]
    assert report["cardinality"] == 81


def test_analyze_zero_code(tmp_path, capsys):
    doc = {"ring": json.loads(Z9_SPEC), "length": 3, "generators": []}
    path = tmp_path / "z.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "analyze", "--code", str(path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["type"] == [0, 0]
    assert report["cardinality"] == 1
    assert report["min_weight"] is None


def test_build_partition_and_contract(tmp_path, capsys):
    pfile = tmp_path / "p.json"
    pfile.write_text(
        json.dumps({"0": 2, "1": 0, "2": 2, "4": 2, "5": 1, "10": 2, "11": 2})
    )
    code, out, _ = run(
        capsys, "build", "partition",
        "--ring", Z9_SPEC, "--ell", "20", "--file", str(pfile), "--json",
    )
    assert code == 0
    cfile = tmp_path / "c.json"
    cfile.write_text(out)
    code, out, _ = run(
        capsys, "contract", "--code", str(cfile), "--u", "2", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["gamma"] == [8]
    assert doc["omega"] == 1
    assert doc["report"]["self_dual"] is True
    assert doc["report"]["constacyclic"] is True
    assert doc["report"]["star_dual_matches"] is True
    # round-trip through concat
    kfile = tmp_path / "k.json"
    kfile.write_text(json.dumps(doc["code"]))
    code, out, _ = run(
        capsys, "concat", "--code", str(kfile),
        "--gamma", "[8]", "--u", "2", "--json",
    )
    assert code == 0
    back = json.loads(out)
    assert back["length"] == 20


def test_contract_builds_the_dual_once(tmp_path, capsys, monkeypatch):
    # self_dual and star_dual_matches both compare against dual(K).
    pfile = tmp_path / "p.json"
    pfile.write_text(
        json.dumps({"0": 2, "1": 0, "2": 2, "4": 2, "5": 1, "10": 2, "11": 2})
    )
    code, out, _ = run(
        capsys, "build", "partition",
        "--ring", F3U_SPEC, "--ell", "20", "--file", str(pfile), "--json",
    )
    assert code == 0
    cfile = tmp_path / "c.json"
    cfile.write_text(out)
    calls = []
    dual = LinearCode.dual

    def counted(self):
        calls.append(self.length)
        return dual(self)

    monkeypatch.setattr(LinearCode, "dual", counted)
    code, out, _ = run(
        capsys, "contract", "--code", str(cfile), "--u", "2", "--json"
    )
    assert code == 0
    assert calls == [10]
    report = json.loads(out)["report"]
    assert report["star_dual_matches"] and report["self_dual"]


def test_dual(tmp_path, capsys):
    doc = {"ring": json.loads(Z9_SPEC), "length": 2, "generators": [[[1], [1]]]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "dual", "--code", str(path), "--json")
    assert code == 0
    dual = json.loads(out)
    assert dual["generators"] == [[[1], [8]]]


def test_enumerate_cyclic(capsys):
    code, out, _ = run(
        capsys, "enumerate-cyclic", "--ring", Z9_SPEC, "--ell", "4", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 27 and doc["free"] == 8
    assert len(doc["codes"]) == 27


def test_enumerate_cyclic_golden(capsys):
    code, out, _ = run(capsys, "enumerate-cyclic", "--ring", Z9_SPEC, "--ell", "4")
    assert code == 0
    assert out == GOLDEN_ENUMERATE_Z9_4


def test_enumerate_cyclic_budget(capsys, monkeypatch):
    # 3^23 cyclic codes: refused from the coset count alone, before any
    # extension ring or code is built.
    import chaincodes.cli

    def enumerate_nothing(ring, ell):
        raise AssertionError("enumeration started over budget")

    monkeypatch.setattr(chaincodes.cli, "enumerate_cyclic_codes", enumerate_nothing)
    start = time.perf_counter()
    code, out, err = run(
        capsys, "enumerate-cyclic", "--ring", Z9_SPEC, "--ell", "80"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 4 and "budget" in err and not out
    code, _, _ = run(
        capsys, "enumerate-cyclic", "--ring", Z9_SPEC, "--ell", "4",
        "--budget", "26",
    )
    assert code == 4


def test_enumerate_cyclic_budget_lists_no_coset(capsys, monkeypatch):
    # The code count comes from the divisor sum: listing the cosets took
    # 8 s at ell = 10^7 + 1 and ran past 15 s at 3*10^8 + 1.
    def list_nothing(universe):
        raise AssertionError("cosets listed to count them")

    # The package's own ``cosets`` is the function; patch the module's.
    module = importlib.import_module("chaincodes.cosets")
    monkeypatch.setattr(module, "cosets", list_nothing)
    for ell in ("10000001", "300000001"):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "enumerate-cyclic", "--ring", Z9_SPEC, "--ell", ell
        )
        assert time.perf_counter() - start < 1.0
        assert code == 4 and "budget" in err and not out


def test_ring_info_budget(capsys, monkeypatch):
    # q beyond the budget is refused before the Teichmuller set is listed;
    # listing it is replaced by a failure, so a missing check cannot hang.
    from chaincodes.chainring import ChainRing

    def list_nothing(ring):
        raise AssertionError("Teichmuller set listed over budget")

    monkeypatch.setattr(ChainRing, "teichmuller_set", list_nothing)
    for spec in (
        '{"family":"GR","p":1000000000000000003,"r":1,"s":1}',
        '{"family":"GR","p":1000000007,"r":2,"s":1}',
        '{"family":"EU","p":2,"r":24,"s":1}',
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, "ring-info", "--ring", spec)
        assert time.perf_counter() - start < 1.0
        assert code == 4 and "budget" in err and not out
    code, _, _ = run(capsys, "ring-info", "--ring", Z9_SPEC, "--budget", "2")
    assert code == 4


def test_modulus_lift_budget(capsys, monkeypatch):
    # GR(3^9, 2) and the GR(3^20, 2) that ell = 100 over Z9 needs would lift
    # their modulus from the dense X^(q-1) - 1; a lift that starts fails at
    # once instead of running for minutes or running out of memory.
    # ell = 1009 needs GR(3^168, 2): the cap is checked before the modulus
    # search, which alone ran past 20 s there.  Over F3[u]/(u^2) it needs
    # EU(3^168, 2), which lifts no modulus; the degree cap refuses it, and
    # any ring of degree over 100, before the search.
    from chaincodes import _polys
    from chaincodes.chainring import HENSEL_CAP

    def lift_nothing(hbar, p, s):
        raise AssertionError("modulus lifted over the cap")

    search = _polys.smallest_irreducible

    def search_under_the_cap(p, r):
        if p**r > HENSEL_CAP:
            raise AssertionError("modulus searched for a ring over the cap")
        return search(p, r)

    monkeypatch.setattr(_polys, "hensel_lift_modulus", lift_nothing)
    monkeypatch.setattr(_polys, "smallest_irreducible", search_under_the_cap)
    for argv in (
        ("ring-info", "--ring", '{"family":"GR","p":3,"r":9,"s":2}'),
        ("build", "trace", "--ring", Z9_SPEC, "--ell", "100", "--set", "1"),
        ("build", "trace", "--ring", Z9_SPEC, "--ell", "1009", "--set", "1"),
        ("build", "trace", "--ring", F3U_SPEC, "--ell", "1009", "--set", "1"),
        ("ring-info", "--ring", '{"family":"EU","p":3,"r":101,"s":2}'),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 4 and "budget" in err and not out


def test_extension_of_a_large_base(capsys):
    # ell = 5 over EU(3^6, 2) and ell = 4 over Z_(3^9) need degree-2
    # extensions of bases of 531441 and 19683 elements, none of which is
    # listed: the first ran past 60 s when the first trace embedded them all.
    for spec, ell in (
        ('{"family":"EU","p":3,"r":6,"s":2}', 5),
        ('{"family":"GR","p":3,"r":1,"s":9}', 4),
    ):
        start = time.perf_counter()
        with deadline(10):
            code, out, err = run(
                capsys, "build", "trace", "--ring", spec,
                "--ell", str(ell), "--set", "1", "--json",
            )
        assert time.perf_counter() - start < 5.0
        assert code == 0 and not err
        assert json.loads(out)["length"] == ell


def test_extension_residue_field_budget(capsys):
    # ell = 25 over F_(3^10) needs a degree-2 extension whose embedding
    # would search the 59049 Teichmuller lifts of F_q for a root.
    start = time.perf_counter()
    code, out, err = run(
        capsys, "build", "trace", "--ring", '{"family":"GR","p":3,"r":10,"s":1}',
        "--ell", "25", "--set", "1",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 4 and "budget" in err and not out


def test_enumerate_cyclic_count_is_written_as_a_power(capsys):
    # 3^44367 codes at ell = 3^12 - 1: the count has too many digits to
    # print (exit 3), so it is compared as a power of the coset count.
    start = time.perf_counter()
    with deadline(10):
        code, out, err = run(
            capsys, "enumerate-cyclic", "--ring", Z9_SPEC, "--ell", "531440"
        )
    assert time.perf_counter() - start < 1.0
    assert code == 4 and "3^44367 cyclic codes" in err and not out


def test_enumerate_cyclic_at_a_large_prime_length(capsys):
    # ell = 10^16 + 61 is prime: its two cosets pass the count budget, and
    # the extension of degree ell - 1 is refused before q^m is formed.
    # Factoring ell by trial division ran past 20 s.
    start = time.perf_counter()
    with deadline(10):
        code, out, err = run(
            capsys, "enumerate-cyclic", "--ring", Z9_SPEC,
            "--ell", "10000000000000061",
        )
    assert time.perf_counter() - start < 1.0
    assert code == 4 and "budget" in err and not out


def test_code_documents_differing_in_the_modulus_spelling_are_equal():
    from chaincodes.cli import load_code

    doc = {"length": 2, "generators": [[[1], [4]]]}
    code = load_code({**doc, "ring": {**json.loads(Z9_SPEC), "modulus": [2, 1]}})
    again = load_code({**doc, "ring": {**json.loads(Z9_SPEC), "modulus": [-1, 1]}})
    assert again.ring is code.ring
    assert again.same_code(code) and again == code


def test_verify(capsys):
    code, out, _ = run(
        capsys, "verify", "--ring", Z9_SPEC, "--ell", "2", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert all(c["pass"] for c in doc["checks"])


def test_verify_budget_at_large_lengths(capsys, monkeypatch):
    # 9^5000 vectors: the count has more digits than Python prints (4300),
    # so the refusal writes it as a power, before any coset is listed.
    def list_nothing(universe):
        raise AssertionError("cosets listed before the vector budget")

    import chaincodes.cli

    monkeypatch.setattr(chaincodes.cli, "cosets", list_nothing)
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--ring", Z9_SPEC, "--ell", "5000")
    assert time.perf_counter() - start < 1.0
    assert code == 4 and "budget" in err and "9^5000" in err and not out


def test_exit_usage():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_exit_malformed(tmp_path, capsys):
    code, _, err = run(capsys, "ring-info", "--ring", "{not json")
    assert code == 3 and err
    code, _, err = run(capsys, "analyze", "--code", str(tmp_path / "nope.json"))
    assert code == 3
    code, _, err = run(
        capsys, "cosets", "--ell", "6", "--q", "3"
    )  # gcd violation
    assert code == 3


def test_exit_budget(tmp_path, capsys, monkeypatch):
    doc = {
        "ring": json.loads(Z9_SPEC),
        "length": 4,
        "generators": [[[1], [0], [0], [0]], [[0], [1], [0], [0]]],
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "analyze", "--code", str(path), "--budget", "5")
    assert code == 4 and err
    # dual: length^2 over the codeword budget is refused before the dual
    # is built, which would otherwise allocate length^2 entries.
    from chaincodes.modcodes import LinearCode

    def dual_nothing(code):
        raise AssertionError("dual built over budget")

    monkeypatch.setattr(LinearCode, "dual", dual_nothing)
    path.write_text(json.dumps({**doc, "length": 10**9, "generators": []}))
    code, out, err = run(capsys, "dual", "--code", str(path))
    assert code == 4 and err.startswith("error:") and not out


@pytest.mark.parametrize(
    "spec, message",
    [
        ('{"family":"GR","p":3,"r":0,"s":1}', "r must be >= 1"),
        ('{"family":"GR","p":4,"r":2,"s":1}', "p = 4 is not prime"),
        ('{"family":"GR","p":3,"r":1.7,"s":1}', "r must be an integer"),
        ('{"family":"XX","p":3,"r":2,"s":1}', "unknown ring family"),
        ('{"family":"GR","p":3,"r":2,"s":1,"modulus":"x"}', "modulus must be"),
    ],
)
def test_ring_info_rejects_bad_spec_before_modulus_search(
    capsys, monkeypatch, spec, message
):
    from chaincodes import _polys

    def search_nothing(p, r):
        raise AssertionError("modulus search ran on an unchecked spec")

    monkeypatch.setattr(_polys, "smallest_irreducible", search_nothing)
    code, out, err = run(capsys, "ring-info", "--ring", spec)
    assert code == 3 and message in err and not out


def test_cosets_large_prime_q(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "cosets", "--ell", "4", "--q", "1000000000000000003")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and "count: 3" in out


# -- code and partition documents through main --------------------------

DOC_RINGS = {
    "Z9": {"family": "GR", "p": 3, "r": 1, "s": 2},
    "F3[u]/(u^2)": {"family": "EU", "p": 3, "r": 1, "s": 2},
}
NON_INTS = st.none() | st.booleans() | st.floats() | st.text(max_size=3) | st.just([])


def run_quietly(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def doc_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("docs") / "doc.json"

    def write(doc):
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def width(spec):
    return 1 if spec["family"] == "GR" else spec["s"]


@st.composite
def code_docs(draw):
    """Well-formed code documents of length <= 4 over Z9 or F3[u]/(u^2)."""
    spec = DOC_RINGS[draw(st.sampled_from(sorted(DOC_RINGS)))]
    n = draw(st.integers(1, 4))
    coords = st.lists(st.integers(0, 8), min_size=width(spec), max_size=width(spec))
    rows = draw(st.lists(st.lists(coords, min_size=n, max_size=n), max_size=3))
    return {"ring": spec, "length": n, "generators": rows}


@st.composite
def broken_code_docs(draw):
    """Code documents with one defect each."""
    doc = draw(code_docs())
    n, zero = doc["length"], [0] * width(doc["ring"])
    defect = draw(st.sampled_from(
        ["not an object", "missing key", "length", "row length", "coordinate", "ring"]
    ))
    if defect == "not an object":
        return draw(st.lists(st.integers(), max_size=2) | NON_INTS)
    if defect == "missing key":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif defect == "length":
        doc["length"] = draw(NON_INTS | st.integers(-3, 0))
    elif defect == "row length":
        doc["generators"].append([zero] * draw(st.sampled_from([n - 1, n + 1])))
    elif defect == "coordinate":
        doc["generators"].append([[draw(NON_INTS)] + zero[1:]] + [zero] * (n - 1))
    else:
        doc["ring"] = draw(NON_INTS | st.just({"family": "GR", "p": 4, "r": 1, "s": 2}))
    return doc


@settings(max_examples=150, deadline=None)
@given(doc=broken_code_docs(), command=st.sampled_from(["dual", "analyze"]))
def test_broken_code_documents_exit_3(doc_file, doc, command):
    code, out, err = run_quietly(command, "--code", doc_file(doc))
    assert code == 3 and err.startswith("error:") and not out, (code, out, err)


@settings(max_examples=100, deadline=None)
@given(doc=code_docs())
def test_code_documents_round_trip(doc_file, doc):
    from chaincodes.cli import load_code

    code = load_code(doc)
    status, out, _ = run_quietly("dual", "--code", doc_file(doc), "--json")
    assert status == 0
    dual = json.loads(out)
    assert dual == code.dual().to_json()
    status, out, _ = run_quietly("dual", "--code", doc_file(dual), "--json")
    assert status == 0
    assert load_code(json.loads(out)).same_code(code)
    status, out, _ = run_quietly("analyze", "--code", doc_file(doc), "--json")
    assert status == 0
    report = json.loads(out)
    assert report["type"] == list(code.type)
    assert report["cardinality"] == code.cardinality


@st.composite
def partition_docs(draw):
    """(ring, ell, assignment) with ell <= 4 coprime to 3."""
    name = draw(st.sampled_from(sorted(DOC_RINGS)))
    ell = draw(st.sampled_from([1, 2, 4]))
    reps = {1: [0], 2: [0, 1], 4: [0, 1, 2]}[ell]
    levels = st.integers(0, DOC_RINGS[name]["s"])
    return name, ell, {str(z): draw(levels) for z in reps}


@st.composite
def broken_partition_docs(draw):
    name, ell, doc = draw(partition_docs())
    key = draw(st.sampled_from(sorted(doc)))
    defect = draw(
        st.sampled_from(
            ["not an object", "level", "range", "missing", "extra", "alias"]
        )
    )
    if defect == "not an object":
        doc = draw(st.lists(st.integers(0, 2), max_size=3) | NON_INTS)
    elif defect == "level":
        doc[key] = draw(NON_INTS)
    elif defect == "range":
        doc[key] = draw(st.sampled_from([-1, 3, 10]))
    elif defect == "missing":
        del doc[key]
    elif defect == "alias":
        # Another spelling of a representative's key, e.g. "01" beside "1".
        doc[draw(st.sampled_from(["0", "+", " "])) + key] = doc[key]
    else:
        doc[draw(st.sampled_from(["3", "7", "x", "-1"]))] = 0
    return name, ell, doc


def build_partition(doc_file, name, ell, doc):
    return run_quietly(
        "build", "partition", "--ring", json.dumps(DOC_RINGS[name]),
        "--ell", str(ell), "--file", doc_file(doc), "--json",
    )


@settings(max_examples=100, deadline=None)
@given(case=broken_partition_docs())
def test_broken_partition_documents_exit_3(doc_file, case):
    code, out, err = build_partition(doc_file, *case)
    assert code == 3 and err.startswith("error:") and not out, (code, out, err)


@settings(max_examples=60, deadline=None)
@given(case=partition_docs())
def test_partition_documents_round_trip(doc_file, case):
    from chaincodes import decompose_cyclic
    from chaincodes.cli import load_code

    code, out, _ = build_partition(doc_file, *case)
    assert code == 0
    assert decompose_cyclic(load_code(json.loads(out))).to_json() == case[2]
