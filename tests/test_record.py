"""The frozen record classes that stand in for dataclasses."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from chaincodes import CosetUniverse
from chaincodes._record import record
from chaincodes.chainring import ChainRingSpec
from chaincodes.oracle import MAX_CODEWORDS, MAX_VECTORS, Budget

ROOT = Path(__file__).resolve().parent.parent


@record
class Pair:
    a: int
    b: str = "x"


def test_init_defaults_and_keywords():
    assert (Pair(1).a, Pair(1).b) == (1, "x")
    assert Pair(1, "y") == Pair(b="y", a=1)
    assert Budget() == Budget(MAX_VECTORS, MAX_CODEWORDS)
    with pytest.raises(TypeError, match="'a'"):
        Pair()
    with pytest.raises(TypeError):
        Pair(1, "y", 2)
    with pytest.raises(TypeError):
        Pair(1, a=2)
    with pytest.raises(TypeError):
        Pair(1, c=2)


def test_equality_hash_and_repr_follow_the_fields():
    assert Pair(1) == Pair(1) and Pair(1) != Pair(2)
    assert Pair(1) != (1, "x")
    assert hash(Pair(1, "y")) == hash((1, "y"))
    assert len({Pair(1), Pair(1), Pair(2)}) == 2
    assert repr(Pair(1)) == "Pair(a=1, b='x')"
    spec = ChainRingSpec("GR", 3, 1, 2, (2, 1))
    assert spec == ChainRingSpec("GR", 3, 1, 2, (2, 1))
    assert repr(spec) == "ChainRingSpec(family='GR', p=3, r=1, s=2, modulus=(2, 1))"


def test_fields_are_frozen_and_post_init_runs():
    pair = Pair(1)
    with pytest.raises(AttributeError):
        pair.a = 2
    with pytest.raises(AttributeError):
        del pair.b
    universe = CosetUniverse(20, 3)
    assert universe.m == 4  # derived in __post_init__, not a field
    assert universe == CosetUniverse(20, 3) != CosetUniverse(20, 7)
    with pytest.raises(AttributeError):
        universe.m = 5


def test_the_package_does_not_import_dataclasses():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    code = (
        "import sys, chaincodes, chaincodes.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
