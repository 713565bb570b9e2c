"""Runs one workload as a closed loop (one client, one job in flight) for a
fixed time and returns its metrics.

Untraced runs report the end-to-end metrics.  A traced run first runs the
ring-operation probe, then half its time untraced, then the same jobs again
traced, and reports the per-layer metrics: for each layer the median over
traced jobs of its per-job self time or count, plus the tracing overhead as
the change of the job median between the two passes.  Every loop ends on a
whole round of the workload's input pool.

This module imports no chaincodes code at import time, so that set-up is
timed from the first chaincodes import on.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

from perfbench import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 7  # set-ups per untraced run; setup_s is their median
CALIB_LOOP = 1_000_000
PROBE_OPERANDS = 32
PROBE_BATCHES = 5
PROBE_OPS = ("mul", "add", "inv", "theta_adic")
LAYERS = (
    "chainring", "galois", "cosets", "modcodes",
    "tracecodes", "contraction", "oracle", "cli",
)

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
JOB_LAYER_METRICS = (
    tracing.TIME_METRICS
    + tracing.COUNT_METRICS
    + ("cli.import_s", "cli.main_s", "cli.spawn_s")
)


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if "_ns." in metric:
        return "ns"
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith("_s"):
        return "s"
    return "count"


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the machine-drift diagnostic."""
    t0 = perf_counter()
    total = 0
    for i in range(CALIB_LOOP):
        total += i
    return perf_counter() - t0


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it, or the maximum when there are fewer."""
    ordered = sorted(latencies)
    k = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def timed_setup(name: str, seed: int, workdir: Path):
    """Import chaincodes and set the workload up; the time until its first
    timed job can start."""
    t0 = perf_counter()
    from perfbench import workloads

    wl = workloads.WORKLOADS[name](seed, workdir)
    wl.setup()
    return wl, perf_counter() - t0


def _setup_in_child(name: str, seed: int) -> float:
    child = Path(__file__).resolve().parent / "setup_child.py"
    proc = subprocess.run(
        [sys.executable, str(child), name, str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def probe(seed: int) -> dict[str, float]:
    """ns per ring operation on fixed seeded operands, median of batches."""
    import random

    from perfbench.workloads import probe_rings

    out = {}
    for ring in probe_rings():
        tag = f"{ring.family}{ring.q}s{ring.s}"
        rng = random.Random(f"{seed}:probe:{tag}")

        def draw(ring=ring, rng=rng):
            return ring.element_at(rng.randrange(ring.size))

        pairs = [(draw(), draw()) for _ in range(PROBE_OPERANDS)]
        units = []
        while len(units) < PROBE_OPERANDS:
            a = draw()
            if ring.is_unit(a):
                units.append(a)
        ops = {
            "mul": lambda: [a * b for a, b in pairs],
            "add": lambda: [a + b for a, b in pairs],
            "inv": lambda: [ring.inv(a) for a in units],
            "theta_adic": lambda: [ring.theta_adic_expansion(a) for a, _ in pairs],
        }
        for op in PROBE_OPS:
            batches = []
            for _ in range(PROBE_BATCHES):
                t0 = perf_counter()
                ops[op]()
                batches.append(perf_counter() - t0)
            out[f"chainring.{op}_ns.{tag}"] = median(batches) / PROBE_OPERANDS * 1e9
    return out


class Loop:
    """The jobs of one closed-loop phase."""

    def __init__(self):
        self.latencies: list[float] = []
        self.verdicts: list[bool] = []
        self.layers: list[dict] = []
        self.outs: list = []
        self.wall = 0.0


def run_loop(wl, seconds: float, tracer=None, jobs=None) -> Loop:
    """Jobs 0, 1, ... until ``seconds`` have passed and a round of the
    input pool is complete, or exactly ``jobs`` jobs when that is given."""
    loop = Loop()
    pending = []
    i = 0
    start = perf_counter()
    deadline = start + seconds

    def more():
        if jobs is not None:
            return i < jobs
        return i == 0 or i % wl.round_size or perf_counter() < deadline

    while more():
        inp = wl.make_input(i)
        i += 1
        t0 = perf_counter()
        try:
            out = wl.job(inp)
        except Exception:
            traceback.print_exc()
            out = None
        latency = perf_counter() - t0
        loop.latencies.append(latency)
        loop.outs.append(out)
        layers = tracer.take() if tracer else {}
        if out is not None:
            layers.update(wl.child_layers(out, latency))
        loop.layers.append(layers)
        pending.append((inp, out))
    loop.wall = perf_counter() - start
    for inp, out in pending:
        if out is None:
            loop.verdicts.append(False)
            continue
        try:
            loop.verdicts.append(bool(wl.check(inp, out)))
        except Exception:
            traceback.print_exc()
            loop.verdicts.append(False)
    return loop


def run(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (result, meta)."""
    calib_before = calibrate()
    meta = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
    }
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        if trace:
            wl, _ = timed_setup(name, seed, Path(tmp))
            metrics, extra, loops = _traced(wl, seed, seconds)
        else:
            # Fresh-process set-ups before and after the loop sample the
            # machine at two times; the in-process set-up is the real one.
            before = (SETUP_SAMPLES - 1) // 2
            setups = [_setup_in_child(name, seed) for _ in range(before)]
            wl, setup_s = timed_setup(name, seed, Path(tmp))
            setups.append(setup_s)
            loop = run_loop(wl, seconds)
            setups += [_setup_in_child(name, seed) for _ in range(SETUP_SAMPLES - 1 - before)]
            metrics, extra = _end_to_end(wl, loop, setups)
            loops = [loop]
    meta["machine.calib_s"] = {"before": calib_before, "after": calibrate()}
    verdicts = [v for loop in loops for v in loop.verdicts]
    meta["jobs"] = len(verdicts)
    meta["round_size"] = wl.round_size
    meta.update(extra)
    result = {
        "correct": all(verdicts),
        "attempted": len(verdicts),
        "failed": verdicts.count(False),
        "metrics": {
            k: {"value": float(v), "unit": unit_of(k)} for k, v in metrics.items()
        },
    }
    return result, meta


def _end_to_end(wl, loop: Loop, setups: list[float]):
    value, pct, beyond = tail(loop.latencies)
    metrics = {
        "jobs_per_s": sum(loop.verdicts) / loop.wall,
        "job_p50_s": median(loop.latencies),
        "job_tail_s": value,
        "setup_s": median(setups),
        "peak_rss_mib": wl.peak_rss_kib([o for o in loop.outs if o is not None]) / 1024,
    }
    extra = {
        "setup_samples_s": setups,
        "job_tail_percentile": pct,
        "job_tail_samples_beyond": beyond,
    }
    return metrics, extra


def _self_shares(loop: Loop) -> dict[str, float]:
    """Per layer, the median over jobs of its self time as a share of the
    job latency (for cli: the child's import and main phases)."""
    shares = {}
    for layer in LAYERS:
        per_job = []
        for latency, job in zip(loop.latencies, loop.layers):
            spent = sum(
                v for k, v in job.items()
                if k.startswith(layer + ".") and k.endswith("_s") and k != "cli.spawn_s"
            )
            per_job.append(spent / latency)
        shares[layer] = median(per_job)
    return shares


def _traced(wl, seed: int, seconds: float):
    metrics = probe(seed)
    plain = run_loop(wl, seconds / 2)
    tracer = None
    if wl.traces_in_child:
        wl.trace = True
    else:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        traced = run_loop(wl, seconds / 2, tracer, jobs=len(plain.latencies))
    finally:
        if tracer:
            tracer.uninstall()
        wl.trace = False
    for metric in JOB_LAYER_METRICS:
        metrics[metric] = median(job.get(metric, 0) for job in traced.layers)
    plain_p50 = median(plain.latencies)
    traced_p50 = median(traced.latencies)
    metrics["trace.job_s"] = traced_p50
    metrics["trace.overhead_pct"] = 100 * (traced_p50 / plain_p50 - 1)
    extra = {
        "self_share": _self_shares(traced),
        "untraced_job_p50_s": plain_p50,
        "untraced_jobs": len(plain.latencies),
        "traced_jobs": len(traced.latencies),
    }
    return metrics, extra, [plain, traced]
