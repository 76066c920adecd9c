"""Benchmark entry point: run one iekf-kit workload and print its metrics.

    python3 perfbench/run.py --workload study --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it give every metric with its unit, sample counts, the failed
fraction and the environment record.  Results and the report files of the
pass are written under ``.perfbench_out/`` at the repository root.

BLAS and OpenMP are pinned to one thread here, before numpy is imported.
The process pool of ``sim.run_monte_carlo`` is not used: every operation
runs in this process.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workload config's seed)")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="time spent in measured operations")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import bench
    args = parse_args(argv, bench.WORKLOADS)
    result, lines = bench.main(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
