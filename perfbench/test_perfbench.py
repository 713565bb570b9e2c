"""Smoke tests of the benchmark: tiny runs of every workload, the tracer's
clean-up, and the refusal to run without the library sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness
from perfbench.tracer import Tracer, wrapped_attributes

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == ["cyclic", "oracle", "coldstart"]


@pytest.mark.parametrize("workload", ["cyclic", "oracle", "coldstart"])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric(workload, trace):
    result, meta = harness.run(workload, 3, 0.3, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    assert reported == declared
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert meta["seed"] == 3 and meta["nproc"] >= 1
    assert set(meta["machine.calib_s"]) == {"before", "after"}
    assert not wrapped_attributes()


def test_untraced_run_leaves_chaincodes_unwrapped():
    harness.run("oracle", 4, 0.2, False)
    assert wrapped_attributes() == []


def test_tracer_wraps_every_binding_and_restores_them():
    import chaincodes
    from chaincodes import contraction, tracecodes

    original = tracecodes.decompose_cyclic
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = wrapped_attributes()
        assert "chaincodes.contraction.decompose_cyclic" in wrapped
        assert "chaincodes.decompose_cyclic" in wrapped
        assert "chaincodes.modcodes.LinearCode.__contains__" in wrapped
        assert contraction.decompose_cyclic is chaincodes.decompose_cyclic
    finally:
        tracer.uninstall()
    assert wrapped_attributes() == []
    assert contraction.decompose_cyclic is original


def test_tail_has_ten_samples_beyond():
    value, pct, beyond = harness.tail([float(i) for i in range(100)])
    assert (value, pct, beyond) == (89.0, 90.0, 10)
    assert harness.tail([2.0, 1.0]) == (2.0, 100.0, 0)


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "cyclic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
