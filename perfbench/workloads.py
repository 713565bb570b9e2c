"""The benchmark's workloads.  Each one has a single job shape and a single
cache state; only the seeded content of a job varies.

``cyclic``     warm session: build / dual / decompose / contract / concat /
               contract_dual on random length-20 cyclic codes over Z9 and
               F3[u]/(u^2), whose information exponents are all odd.
``oracle``     warm desk-scale verification: structural results on random
               length-3 codes of one type checked against brute-force
               enumeration.
``coldstart``  one fresh interpreter per job, building a length-28 cyclic
               code over Z9 through ``chaincodes.cli.main``.

A workload exposes ``setup()``, ``make_input(i)`` (outside the timed
interval), ``job(inp)`` (timed) and ``check(inp, out)``.  The warm
workloads check inside ``job``, so the check is part of the timed work;
``coldstart`` checks afterwards, outside the timed interval.  A workload
that draws from a fixed pool of inputs sets ``round_size`` to the pool size,
and the harness ends its loops on a whole round, so that every run mixes
the same inputs.
"""

from __future__ import annotations

import itertools
import json
import random
import resource
import subprocess
import sys
from pathlib import Path

import chaincodes as cc
from chaincodes import oracle
from chaincodes.cli import load_code
from chaincodes.modcodes import LinearCode, res_subring_code, trace_code

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "coldstart_child.py"
CHILD_TIMEOUT_S = 120


def _rng(seed: int, *key) -> random.Random:
    """An independent, reproducible stream for one input of one run."""
    return random.Random(":".join(str(k) for k in (seed,) + key))


def _draw_from_pool(i: int, size: int, *key) -> int:
    """The pool index of job i: each round of ``size`` jobs walks a seeded
    shuffle of the whole pool, so the seed sets only the order."""
    rnd, pos = divmod(i, size)
    return _rng(*key, rnd).sample(range(size), size)[pos]


class Workload:
    """Defaults shared by the in-process (warm) workloads."""

    name = ""
    traces_in_child = False  # spans come from the harness's own tracer
    trace = False  # with traces_in_child: set for the traced half of a run
    round_size = 1  # jobs per pass over the input pool

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def check(self, inp, out) -> bool:
        return out  # the warm jobs return their own check's verdict

    def child_layers(self, out, latency: float) -> dict:
        return {}

    def peak_rss_kib(self, outs) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Cyclic(Workload):
    name = "cyclic"
    ell = 20
    u = 2

    def setup(self):
        rings = (cc.galois_ring(3, 1, 2), cc.eu_ring(3, 1, 2))
        self.contexts = [cc.context(ring, self.ell) for ring in rings]
        self.bags = [self._admissible(ctx) for ctx in self.contexts]
        sizes = {len(bag) for bag in self.bags}
        if len(sizes) != 1:
            raise RuntimeError(f"cyclic rings have pools of sizes {sizes}")
        (self.round_size,) = sizes
        warm_up = [(ctx, bag[0]) for ctx, bag in zip(self.contexts, self.bags)]
        if not self.job(warm_up):
            raise RuntimeError("cyclic warm-up job failed its check")

    @staticmethod
    def _admissible(ctx):
        """Every level assignment whose information exponents are all odd:
        the odd cosets take any level, the even ones level s, and at least
        one coset is below s.  With u = 2 the contraction has gamma = -1."""
        s = ctx.ring.s
        reps = cc.representatives(ctx.universe)
        odd = [z for z in reps if z % 2]
        bag = []
        for combo in itertools.product(range(s + 1), repeat=len(odd)):
            if min(combo) < s:
                levels = dict.fromkeys(reps, s)
                levels.update(zip(odd, combo))
                bag.append(levels)
        return bag

    def make_input(self, i: int):
        """One partition per ring, drawn without replacement from all
        admissible ones; only their order and pairing follow the seed."""
        return [
            (ctx, bag[_draw_from_pool(i, len(bag), self.seed, self.name, k)])
            for k, (ctx, bag) in enumerate(zip(self.contexts, self.bags))
        ]

    def job(self, inp) -> bool:
        ok = True
        for ctx, levels in inp:
            ok = self._pipeline(ctx, levels) and ok
        return ok

    def _pipeline(self, ctx, levels) -> bool:
        ring, u = ctx.ring, self.u
        p = cc.make_partition(ctx.universe, ring.s, levels)
        code = cc.code_from_partition(ctx, p)
        dual = code.dual()
        ok = cc.decompose_cyclic(code) == p
        ok = cc.decompose_cyclic(dual) == p.tilde_dual() and ok
        res = cc.contract_code(code, u)
        ok = res.gamma == -ring.one and ok
        ok = cc.concatenation_code(res.code, res.gamma, u).same_code(code) and ok
        ok = cc.contract_dual(res, u).same_code(res.code.dual()) and ok
        return ok


class Oracle(Workload):
    name = "oracle"
    length = 3
    ext_length = 2

    def setup(self):
        z9 = cc.galois_ring(3, 1, 2)
        self.ring_list = [z9, cc.eu_ring(3, 1, 2), cc.galois_ring(2, 1, 3), cc.galois_ring(2, 2, 2)]
        self.ext = cc.extend(z9, 2)
        for a in self.ext.top.elements():  # fill the trace cache
            self.ext.trace(a)
        if not self.job(self._draw(_rng("warm-up", self.name))):
            raise RuntimeError("oracle warm-up job failed its check")

    @staticmethod
    def _unit(ring, rng):
        while True:
            a = rng.choice(ring.elements())
            if ring.is_unit(a):
                return a

    @classmethod
    def _rows(cls, ring, rng, length):
        """Generators of a random code of one fixed type, one free row and
        one row at level 1 (|C| = q^(2s-1)), so that every job enumerates
        the same number of words: rows (1, a, b) and theta*(0, 1, c), mixed,
        scaled by units and with their columns permuted."""
        draw = lambda: rng.choice(ring.elements())
        free = [ring.one] + [draw() for _ in range(length - 1)]
        low = [ring.zero, ring.theta] + [ring.theta * draw() for _ in range(length - 2)]
        mix = draw()
        free = [a + mix * b for a, b in zip(free, low)]
        cols = rng.sample(range(length), length)
        return [
            tuple(cls._unit(ring, rng) * row[c] for c in cols)
            for row in (free, low)
        ]

    def _draw(self, rng):
        codes = [(ring, self._rows(ring, rng, self.length)) for ring in self.ring_list]
        # A free rank-1 code over S: |C| = |S|.
        top = self.ext.top
        scale = self._unit(top, rng)
        ext_row = [scale, scale * rng.choice(top.elements())]
        rng.shuffle(ext_row)
        return codes, [tuple(ext_row)]

    def make_input(self, i: int):
        return self._draw(_rng(self.seed, self.name, i))

    def job(self, inp) -> bool:
        codes, ext_rows = inp
        ok = True
        for ring, rows in codes:
            code = LinearCode(ring, self.length, rows)
            dual = code.dual()
            ok = oracle.same_words(dual, oracle.brute_dual(code)) and ok
            ok = code.cardinality * dual.cardinality == ring.size**self.length and ok
            ok = code.min_weight() == oracle.brute_min_weight(code) and ok
        # Delsarte: Tr(C)^perp = Res(C^perp) over S = extend(Z9, 2).
        ext = self.ext
        big = LinearCode(ext.top, self.ext_length, ext_rows)
        traced = trace_code(ext, big)
        ok = oracle.same_words(traced, oracle.brute_trace_code(ext, big)) and ok
        ok = traced.dual().same_code(res_subring_code(ext, big.dual())) and ok
        return ok


class Coldstart(Workload):
    name = "coldstart"
    ell = 28
    ring_spec = '{"family":"GR","p":3,"r":1,"s":2}'
    # Mod 28 the cosets are {0}, {14}, {7, 21} and four of size 6 (reps 1,
    # 2, 4, 5).  The small ones keep fixed levels and the size-6 ones take
    # every arrangement of one level multiset, so every partition gives a
    # code of the same type (k0, k1, k2) = (7, 13, 8).  Only one size-6
    # coset is at level s, so rep 1 or rep 5, each a unit mod 28, is always
    # in the code, and every build evaluates the same 6 * 28 traces.
    fixed_levels = {0: 0, 14: 1, 7: 2}
    shuffled_levels = (0, 1, 1, 2)
    traces_in_child = True

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self._decoded = {}  # emitted document -> (length, partition)

    def setup(self):
        self.ring = cc.make_ring(self.ring_spec)
        self.universe = cc.CosetUniverse(self.ell, self.ring.q)
        shuffled = [z for z in cc.representatives(self.universe) if z not in self.fixed_levels]
        self.pool = []
        for arrangement in sorted(set(itertools.permutations(self.shuffled_levels))):
            levels = dict(self.fixed_levels)
            levels.update(zip(shuffled, arrangement))
            path = self.workdir / f"partition-{len(self.pool)}.json"
            path.write_text(json.dumps({str(z): t for z, t in levels.items()}))
            self.pool.append((levels, path))
        self.round_size = len(self.pool)
        if self.job(self.pool[0])["rc"] != 0:
            raise RuntimeError("coldstart warm-up child failed")

    def make_input(self, i: int):
        return self.pool[_draw_from_pool(i, len(self.pool), self.seed, self.name)]

    def job(self, inp) -> dict:
        _, path = inp
        argv = [sys.executable, str(CHILD), self.ring_spec, str(self.ell), str(path)]
        if self.trace:
            argv.append("--trace")
        proc = subprocess.run(
            argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return {"rc": proc.returncode}
        return json.loads(proc.stdout.splitlines()[-1])

    def check(self, inp, out) -> bool:
        """Decode the emitted document back to a partition.  A document
        identical to one decoded before has the same decoding."""
        levels, _ = inp
        if out.get("rc") != 0:
            return False
        key = json.dumps(out["doc"], sort_keys=True)
        if key not in self._decoded:
            code = load_code(out["doc"])
            self._decoded[key] = (code.length, cc.decompose_cyclic(code))
        length, decoded = self._decoded[key]
        expected = cc.make_partition(self.universe, self.ring.s, levels)
        return length == self.ell and decoded == expected

    def child_layers(self, out, latency: float) -> dict:
        """The child's layer spans, plus the CLI phases it reported; spawn_s
        is the part of the job latency the child did not see."""
        if out.get("rc") != 0:
            return {}
        layers = dict(out["layers"])
        layers["cli.import_s"] = out["import_s"]
        layers["cli.main_s"] = out["main_s"]
        layers["cli.spawn_s"] = latency - out["import_s"] - out["main_s"]
        return layers

    def peak_rss_kib(self, outs) -> int:
        return max(out.get("rss_kib", 0) for out in outs)


WORKLOADS = {w.name: w for w in (Cyclic, Oracle, Coldstart)}


def probe_rings():
    """The base rings of every workload and the extensions they evaluate in."""
    z9, f3u2 = cc.galois_ring(3, 1, 2), cc.eu_ring(3, 1, 2)
    return [
        z9,
        f3u2,
        cc.galois_ring(2, 1, 3),
        cc.galois_ring(2, 2, 2),
        cc.extend(z9, 2).top,  # oracle: the Delsarte check
        cc.extend(z9, 4).top,  # cyclic: ell = 20
        cc.extend(f3u2, 4).top,
        cc.extend(z9, 6).top,  # coldstart: ell = 28
    ]
