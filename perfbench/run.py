"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload {train,eval,decode} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a source tree: it imports ternact from ``src/``.
The second-to-last line of output is a report (machine fingerprint, sample
counts, failures); the last line is the result object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread: the default model's matmuls are small, and on a small
# shared machine the benchmark should not compete with itself for cores.
BLAS_THREADS = 1

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "eval", "decode"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "ternact" / "__init__.py").is_file():
        print(f"error: no ternact sources under {src}", file=sys.stderr)
        return 2
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads  # read by the BLAS when numpy first loads
    sys.path.insert(0, str(src))

    import bench  # imports numpy, so only after the thread count is set

    result, report = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
