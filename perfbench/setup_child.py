"""One fresh-process set-up of a workload, printed as a ``setup_s`` sample.

    python3 perfbench/setup_child.py WORKLOAD SEED
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import timed_setup

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        _, setup_s = timed_setup(name, seed, Path(tmp))
    print(json.dumps({"setup_s": setup_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
