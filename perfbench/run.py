"""Run one workload of the CMIF serving benchmark and print its result.

Run from the root of a checkout::

    python3 perfbench/run.py --workload hot-fleet --seed 1 --seconds 10 \\
        --trace 0

The program under test is the checkout's own ``src/`` tree; without it
the benchmark refuses to run (exit code 2) rather than measure anything
else.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"


def main() -> int:
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SOURCE}; run the "
              f"benchmark from the root of a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCE), str(HERE)]
    from cmifbench.main import main as run_benchmark
    return run_benchmark(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
