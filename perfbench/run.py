"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload spectral-audit --seed 1 --seconds 27 --trace 0

Run it from the repository root; the program under test is imported from
./src, never from an installed copy.  The last line of standard output is
the JSON result.  See perfbench/README.md.
"""

import os
import sys
from pathlib import Path

# One BLAS thread: the audit loop has one instance in flight, and a fixed
# thread count keeps runs comparable.  Must be set before numpy loads.
BLAS_THREADS = "1"


def main() -> int:
    root = Path.cwd()
    src = root / "src"
    if not (src / "bipspec" / "__init__.py").is_file():
        print(f"error: no bipspec sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    import bipspec

    if Path(bipspec.__file__).resolve().parent != (src / "bipspec").resolve():
        print(f"error: imported bipspec from {bipspec.__file__}, not from {src}", file=sys.stderr)
        return 2
    import harness

    return harness.main(sys.argv[1:], root)


if __name__ == "__main__":
    sys.exit(main())
