"""Run one memvec benchmark workload and print its metrics.

    python3 perfbench/run.py --workload uniform-d128 --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and measures the ``memvec`` in its
``src/``. The next-to-last line of standard output is the full report
(environment, input fingerprints, reference rows, every metric with its
unit); the last line is {"correct", "attempted", "failed", "metrics"} with
the end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``).
Exits 2 without a result when the checkout has no memvec sources.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "memvec" / "__init__.py").is_file():
        print(f"no memvec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy is first imported
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        os.environ[var] = str(nproc)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    import memvec
    if Path(memvec.__file__).resolve().parent != ROOT / "src" / "memvec":
        print(f"imported memvec from {memvec.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    from perfbench import workloads

    if args.workload not in workloads.SPECS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.SPECS)}")
    report, result = workloads.run(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
