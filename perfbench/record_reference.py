"""Record the reference aggregates that the benchmark checks.

    python3 perfbench/record_reference.py [workload ...]

For each workload, runs every realization of its config at the config's
seed (the benchmark's default seed) and stores each variant's aggregated
NEES/RMSE and camera-epoch count in reference.json.  Re-record only when a
change to the program is meant to change these numbers, and say so.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv):
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import bench
    from iekf_kit import config
    try:
        with open(bench.REFERENCE) as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {}
    for name in argv or sorted(bench.WORKLOADS):
        wl = bench.WORKLOADS[name]
        cfg = bench.prepare(wl, config.load_config(bench.config_path(wl)))
        runs = []
        for ri in range(cfg.runs):
            records = bench.run_operation(wl, cfg, cfg.seed, ri)
            problems = bench.check(wl, cfg, records)
            if problems:
                raise SystemExit(f"{name} realization {ri}: {problems}")
            runs.append(bench.summarize(wl, cfg, records))
        reference[name] = {"seed": cfg.seed, "runs": runs}
        print(f"{name}: {cfg.runs} realizations at seed {cfg.seed}")
    with open(bench.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
