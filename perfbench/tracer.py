"""Spans around the benchmark's calls into the public chaincodes layers.

The tracer replaces each listed function or method with a wrapper that
records a span; nested spans give each layer its self time (span minus the
spans of the layer calls it made).  Functions are replaced at every module
binding inside the ``chaincodes`` package, so a call that goes through
``chaincodes.contraction.decompose_cyclic`` is seen like one through
``chaincodes.tracecodes.decompose_cyclic``.  Nothing is wrapped unless
:meth:`Tracer.install` is called, and :meth:`Tracer.uninstall` restores
every binding.

Oracle spans are opaque: the library calls the brute-force oracle makes
(``LinearCode.__contains__`` inside ``same_words``) count as the oracle's
own work, as the oracle is the reference the structural layers are checked
against, not one of them.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter

SPAN_MARK = "__perfbench_span__"


def _calls(name):
    def count(counts, args, result):
        counts[name] += 1

    return count


def _construct(counts, args, result):
    code = args[0]
    counts["modcodes.construct_calls"] += 1
    counts["modcodes.construct_cells"] += len(code.generators) * code.length


def _vectors(counts, args, result):
    code = args[0]
    counts["oracle.vectors_enumerated"] += code.ring.size**code.length


def _codewords(position):
    """Count the codewords of the code passed at this argument position."""

    def count(counts, args, result):
        counts["oracle.vectors_enumerated"] += args[position].cardinality

    return count


# (module, attribute, layer metric, counter).  A dotted attribute is a
# method of a class defined in that module.
TARGETS = (
    ("chainring", "make_ring", "chainring.make_ring", None),
    ("galois", "extend", "galois.extend", None),
    (
        "galois",
        "GaloisExtension.trace_xi_pow",
        "galois.trace_xi_pow",
        _calls("galois.trace_xi_pow_calls"),
    ),
    ("cosets", "make_partition", "cosets.partition", None),
    ("cosets", "CyclotomicPartition.tilde_dual", "cosets.partition", None),
    ("cosets", "CyclotomicPartition.star_dual", "cosets.partition", None),
    ("modcodes", "LinearCode.__init__", "modcodes.construct", _construct),
    ("modcodes", "LinearCode.dual", "modcodes.dual", None),
    (
        "modcodes",
        "LinearCode.__contains__",
        "modcodes.contains",
        _calls("modcodes.contains_calls"),
    ),
    ("modcodes", "LinearCode.same_code", "modcodes.same_code", None),
    ("tracecodes", "code_from_partition", "tracecodes.build", None),
    ("tracecodes", "decompose_cyclic", "tracecodes.decompose", None),
    ("tracecodes", "context", "tracecodes.context", None),
    ("contraction", "contract_code", "contraction.contract", None),
    ("contraction", "concatenation_code", "contraction.concat", None),
    ("contraction", "contract_dual", "contraction.contract_dual", None),
    ("contraction", "preimage_code", "contraction.preimage", None),
    ("oracle", "brute_dual", "oracle.brute_dual", _vectors),
    ("oracle", "same_words", "oracle.same_words", None),
    ("oracle", "brute_min_weight", "oracle.brute_min_weight", _codewords(0)),
    ("oracle", "brute_trace_code", "oracle.brute_trace", _codewords(1)),
)

TIME_METRICS = tuple(sorted({metric + "_s" for _, _, metric, _ in TARGETS}))
COUNT_METRICS = (
    "galois.trace_xi_pow_calls",
    "modcodes.construct_calls",
    "modcodes.construct_cells",
    "modcodes.contains_calls",
    "oracle.vectors_enumerated",
)


def _package_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "chaincodes" or name.startswith("chaincodes."))
    ]


def wrapped_attributes() -> list[str]:
    """Every chaincodes binding that currently holds a tracer wrapper."""
    found = []
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, SPAN_MARK):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for meth, fn in vars(value).items():
                    if hasattr(fn, SPAN_MARK):
                        found.append(f"{mod.__name__}.{attr}.{meth}")
    return found


class Tracer:
    """Per-job self times and counts of the chaincodes layers."""

    def __init__(self):
        self._stack: list[float] = []  # child-span time of each open span
        self._job: defaultdict[str, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []
        self._in_opaque = False

    def _wrap(self, fn, metric, counter):
        stack = self._stack
        tracer = self
        key = metric + "_s"
        opaque = metric.startswith("oracle.")

        def span(*args, **kwargs):
            if tracer._in_opaque:
                return fn(*args, **kwargs)
            tracer._in_opaque = opaque
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                tracer._in_opaque = False
                child = stack.pop()
                tracer._job[key] += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if counter is not None:
                counter(tracer._job, args, result)
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", metric)
        setattr(span, SPAN_MARK, metric)
        return span

    def install(self):
        if self._restore:
            raise RuntimeError("tracer is already installed")
        for modname, attr, metric, counter in TARGETS:
            mod = importlib.import_module(f"chaincodes.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                original = vars(owner)[meth]
                self._restore.append((owner, meth, original))
                setattr(owner, meth, self._wrap(original, metric, counter))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(original, metric, counter)
            for other in _package_modules():
                for name, value in list(vars(other).items()):
                    if value is original:
                        self._restore.append((other, name, original))
                        setattr(other, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def take(self) -> dict[str, float]:
        """The self times and counts recorded since the last take."""
        job = dict(self._job)
        self._job.clear()
        return job
