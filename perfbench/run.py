"""Benchmark entry point.

    python3 perfbench/run.py --workload cyclic --seed 1 --seconds 20 --trace 0

Run from the repository root.  Prints a metadata line (seed, commit, Python,
nproc, machine-drift calibration, tail percentile), then, as the last line,
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Exits with 2 when the chaincodes sources are
missing.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cyclic", "oracle", "coldstart")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "chaincodes" / "__init__.py").is_file():
        print(f"error: chaincodes sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness

    result, meta = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
