"""TurboBC benchmark: one seeded workload, timed end to end or traced per layer.

Run from the repository root::

    python3 perfbench/run.py --workload deep-static --seed 1 --seconds 10 --trace 0

``--trace 0`` times untraced calls and prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced calls and prints the per-layer
metrics plus the tracing overhead.  Every call's ``bc`` is checked against
the float64 Brandes oracle and against the run's first call, outside the
timed region.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Exit codes: 0 all calls
correct, 1 some call failed, 2 usage error or no program to benchmark.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# One thread per numeric library: host timings must not depend on how many
# cores the box lends to BLAS or OpenMP.  Set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        report = harness.run_traced(args.workload, args.seed, args.seconds)
    else:
        report = harness.run_timed(args.workload, args.seed, args.seconds)
    harness.print_report(report)
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
