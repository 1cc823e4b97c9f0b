#!/usr/bin/env python3
"""Benchmark of baryfit: fit time, degree at target, evaluation,
realization, gradient-check time and memory, on three workloads.

Run from the root of the repository:

    python3 perfbench/run.py                      # all workloads, untraced
    python3 perfbench/run.py --workload mor --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --workload builtins --trace 1   # per-layer metrics

Each workload runs in its own process, which imports the package from
``src/`` of this checkout. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. See
perfbench/README.md for the workloads, metrics and checks.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS = ("builtins", "mor", "recover")

# One BLAS thread: the 1000-row kernels gain about 10% from a second core on
# a 2-core machine, while a single thread keeps the timings steadier on a
# shared machine and the rounding independent of thread scheduling.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measure whole passes until this much time has gone (at least one)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics instead of end-to-end ones")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def run_all(args):
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print("workload %s printed no result" % workload, file=sys.stderr)
            return proc.returncode or 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"]["%s.%s" % (workload, name)] = metric
    print(json.dumps(combined))
    return status


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)  # before numpy is imported anywhere
    if not os.path.isfile(os.path.join(SRC, "baryfit", "__init__.py")):
        print("run.py: no baryfit package under %s; run from a full checkout" % SRC,
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    import baryfit

    if not os.path.abspath(baryfit.__file__).startswith(SRC + os.sep):
        print("run.py: imported baryfit from %s, not from %s" % (baryfit.__file__, SRC),
              file=sys.stderr)
        return 2
    import harness
    import workloads

    if args.setup_probe:
        workloads.build(args.workload, args.seed)
        return 0
    return harness.run(os.path.abspath(__file__), args.workload, args.seed, args.seconds,
                       bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
