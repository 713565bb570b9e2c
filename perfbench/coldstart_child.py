"""One ``coldstart`` job: a fresh interpreter that imports chaincodes and
builds a cyclic code from a partition file through ``chaincodes.cli.main``.

    python3 perfbench/coldstart_child.py RING_SPEC ELL PARTITION_FILE [--trace]

Prints one JSON line: the CLI's exit code and emitted code document, the
child's own phase times (``import_s``, ``main_s``), its peak RSS, and with
``--trace`` the self times and counts of the chaincodes layers.
"""

import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ring_spec, ell, partition_file = sys.argv[1:4]
    trace = sys.argv[4:] == ["--trace"]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    t0 = perf_counter()
    import chaincodes.cli as cli

    import_s = perf_counter() - t0
    tracer = None
    if trace:
        from perfbench.tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out):
        rc = cli.main(
            ["build", "partition", "--ring", ring_spec, "--ell", ell,
             "--file", partition_file, "--json"]
        )
    main_s = perf_counter() - t0
    report = {
        "rc": rc,
        "doc": json.loads(out.getvalue()) if rc == 0 else None,
        "import_s": import_s,
        "main_s": main_s,
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": tracer.take() if tracer else {},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
