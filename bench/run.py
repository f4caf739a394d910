"""Benchmark entry point.

    python3 bench/run.py --workload planted --seed 0 --seconds 25 --trace 0

Run from anywhere inside a checkout of the repository: the program is
imported from the checkout's ``src/``, never from an installed copy. BLAS
thread counts are pinned to 1 before NumPy loads, so every run sees the same
arithmetic. The last line of standard output is the result object; the line
before it is a report with the environment, outputs and stage times.
"""

import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    package = root / "src" / "symkge" / "__init__.py"
    if not package.is_file():
        print(f"error: {package} not found; run the benchmark from a checkout of the repository",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
