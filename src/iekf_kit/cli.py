"""Command-line entry point.

Commands: simulate (one run per variant), montecarlo (the paired study),
selfcheck (oracle cross-checks), observability (rank analysis).

Exit codes: 0 success, 2 configuration error, 3 runtime failure
(selfcheck uses 1 for failed checks).  The environment variable
IEKF_KIT_THREADS overrides the Monte-Carlo parallelism degree.
"""

from __future__ import annotations

import argparse
import os
import sys

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _threads_override(default):
    raw = os.environ.get("IEKF_KIT_THREADS")
    if raw is None:
        return default
    try:
        n = int(raw)
        if n < 1:
            raise ValueError
    except ValueError:
        print(f"error: IEKF_KIT_THREADS={raw!r} is not a positive integer",
              file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)
    return n


def _load(args):
    from .config import load_config
    given = {"seed": args.seed, "output_dir": args.output_dir,
             "runs": getattr(args, "runs", None)}
    cfg = load_config(args.config,
                      {k: v for k, v in given.items() if v is not None})
    cfg.parallelism = _threads_override(cfg.parallelism)
    return cfg


def cmd_simulate(args):
    cfg = _load(args)
    from . import sim
    report = sim.run_monte_carlo(cfg.scenario, cfg.variants, n_runs=1,
                                 seed=cfg.seed, init=cfg.init)
    _write(report, cfg)
    _print_summary(report)
    return EXIT_OK


def cmd_montecarlo(args):
    cfg = _load(args)
    from . import sim

    def progress(i, n):
        if i % 10 == 0 or i == n:
            print(f"completed {i}/{n} runs", file=sys.stderr)
    report = sim.run_monte_carlo(cfg.scenario, cfg.variants, n_runs=cfg.runs,
                                 seed=cfg.seed, init=cfg.init,
                                 parallelism=cfg.parallelism,
                                 progress=progress)
    _write(report, cfg)
    _print_summary(report)
    return EXIT_OK


def _write(report, cfg):
    from . import sim
    from .config import config_echo
    sim.write_reports(report, cfg.output_dir, scenario=cfg.scenario,
                      extra_meta={"config": config_echo(cfg),
                                  "attitude_policy": "yaw-follows-velocity"})


def _print_summary(report):
    agg = report.aggregate()
    print(f"{'variant':<12} {'pos_nees':>10} {'ang_nees':>10} "
          f"{'pos_rmse':>10} {'ang_rmse':>10}")
    for label, a in agg.items():
        print(f"{label:<12} {a['mean_pos_nees']:>10.4f} "
              f"{a['mean_ang_nees']:>10.4f} {a['pos_rmse']:>10.4f} "
              f"{a['ang_rmse']:>10.4f}")


# --- selfcheck --------------------------------------------------------------

def _check_jacobian():
    """Closed-form left Jacobian vs the truncated adjoint series."""
    import numpy as np
    from . import lie
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        xi = rng.normal(0.0, 0.5, 9)
        J = lie.sen_left_jacobian(xi)
        ad = lie.sen_ad(xi)
        S = np.eye(9)
        term = np.eye(9)
        for i in range(1, 25):
            term = term @ ad / (i + 1)
            S = S + term
        worst = max(worst, np.abs(J - S).max() / max(1.0, np.abs(S).max()))
    return worst < 1e-10, f"max rel err {worst:.3e}"


def _check_conjugation():
    """exp(A) B exp(-A) equals exp(ad_A) applied to B, with exp(ad_A) the
    adjoint series summed until a term is below rounding."""
    import numpy as np
    from . import lie
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(200):
        a = rng.normal(0.0, 0.5, 9)
        b = rng.normal(0.0, 0.5, 9)
        lhs = lie.sen_exp(a) @ lie.sen_hat(b) @ lie.sen_inverse(lie.sen_exp(a))
        ad = lie.sen_ad(a)
        E = term = np.eye(9)
        i = 0
        while np.abs(term).max() > 1e-17 * np.abs(E).max():
            i += 1
            term = term @ ad / i
            E = E + term
        rhs = lie.sen_hat(E @ b)
        worst = max(worst, np.abs(lhs - rhs).max())
    return worst < 1e-9, f"max err {worst:.3e}"


def _check_error_flow():
    """Log-error ODE vs direct integration of the group error."""
    import numpy as np
    from . import errorprop, lie
    rng = np.random.default_rng(2)
    xi0 = rng.normal(0.0, 0.05, 9)
    amp = rng.normal(0.0, 0.2, (9, 4))
    freq = rng.uniform(0.5, 3.0, 4)

    def w_fn(t):
        return amp @ np.sin(freq * t)

    def rate(t, xi):
        return errorprop.left_error_rate(xi, np.zeros(9), w_fn(t),
                                         np.zeros((9, 9)))
    _, xis = errorprop.integrate_error(rate, xi0, 0.5, 1e-3)

    def grate(t, eta):
        return errorprop.group_error_rate(eta, vb=np.zeros(9), w=w_fn(t),
                                          side="left")
    _, etas = errorprop.integrate_group_error(
        lie.sen_exp(xi0), grate, 0.5, 1e-3)
    err = np.abs(lie.sen_exp(xis[-1]) - etas[-1]).max()
    return err < 1e-5, f"sup err {err:.3e}"


def _check_measurement_jacobian():
    """Analytic projection Jacobian vs central finite differences."""
    import numpy as np
    from . import vision
    rng = np.random.default_rng(3)
    worst = 0.0
    eps = 1e-6
    for mode in ("pinhole", "bearing"):
        model = vision.CameraModel(mode=mode)
        x = rng.normal(0.0, 1.0, (100, 3))
        x[:, 2] = np.abs(x[:, 2]) + 0.5
        _, J = model.project(x)
        # column a of each point's Jacobian from one stacked difference
        Jfd = np.stack([(model.project(x + eps * e)[0]
                         - model.project(x - eps * e)[0]) / (2 * eps)
                        for e in np.eye(3)], axis=2)
        worst = max(worst, np.abs(J - Jfd).max())
    return worst < 1e-5, f"max err {worst:.3e}"


def _check_observability():
    """Nullspace dimension is the same across sampling periods and depths."""
    from . import vision
    dims = set()
    for dt in (0.01, 0.1, 1.0):
        for k in range(4, 11):
            _, _, null_dim = vision.observability_matrix(dt, k)
            dims.add(null_dim)
    return len(dims) == 1, f"nullspace dims seen: {sorted(dims)}"


def _check_dead_reckoning():
    """Noise-free IMU stream dead-reckons the analytic trajectory."""
    import numpy as np
    from . import imu, sim
    sc = sim.Scenario(duration=100.0, imu_rate=200.0)
    truth = sim.synthesize_truth(sc, np.random.default_rng(0),
                                 with_noise=False)
    st = imu.propagate_mean(truth.states[0], truth.omega, truth.accel,
                            1.0 / sc.imu_rate, sc.noise.gravity)[0]
    err = float(np.linalg.norm(st.p - sc.trajectory.position(100.0)))
    return err < 0.05, f"position drift {err:.4f} m over 100 s"


CHECKS = [
    ("jacobian", _check_jacobian),
    ("conjugation", _check_conjugation),
    ("error-flow", _check_error_flow),
    ("measurement-jacobian", _check_measurement_jacobian),
    ("observability", _check_observability),
    ("dead-reckoning", _check_dead_reckoning),
]


def cmd_selfcheck(args):
    names = [n for n, _ in CHECKS]
    if args.filter is not None and args.filter not in names:
        print(f"error: unknown check {args.filter!r}; choose from {names}",
              file=sys.stderr)
        return EXIT_CONFIG
    ok = True
    for name, fn in CHECKS:
        if args.filter is not None and name != args.filter:
            continue
        passed, detail = fn()
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'}  {name:<22} {detail}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_observability(args):
    import numpy as np
    from . import vision
    O, rank, null_dim = vision.observability_matrix(args.dt, args.k)
    sv = np.linalg.svd(O, compute_uv=False)
    print("singular values:", " ".join(f"{s:.6e}" for s in sv))
    print(f"numerical rank: {rank}")
    print(f"nullspace dimension: {null_dim}")
    if null_dim:
        _, _, Vt = np.linalg.svd(O)
        print("nullspace basis (rows):")
        for row in Vt[rank:]:
            print("  " + " ".join(f"{x: .6f}" for x in row))
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="iekf-kit",
        description="Invariant-filter simulation and consistency toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, runs=False):
        sp.add_argument("config", help="YAML run configuration")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
        sp.add_argument("--output-dir", default=None,
                        help="override the config output directory")
        if runs:
            sp.add_argument("--runs", type=int, default=None,
                            help="override the number of Monte-Carlo runs")

    sp = sub.add_parser("simulate", help="one run per configured variant")
    common(sp)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("montecarlo", help="paired Monte-Carlo study")
    common(sp, runs=True)
    sp.set_defaults(fn=cmd_montecarlo)

    sp = sub.add_parser("selfcheck", help="run oracle cross-checks")
    sp.add_argument("--filter", default=None,
                    help="run only the named check")
    sp.set_defaults(fn=cmd_selfcheck)

    sp = sub.add_parser("observability",
                        help="rank analysis of the stacked observability matrix")
    sp.add_argument("--dt", type=float, default=0.1,
                    help="sampling period (default 0.1)")
    sp.add_argument("--k", type=int, default=10,
                    help="number of stacked steps (default 10)")
    sp.set_defaults(fn=cmd_observability)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    from .exceptions import ConfigError, IekfKitError
    try:
        code = args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        code = EXIT_CONFIG
    except IekfKitError as e:
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        code = EXIT_RUNTIME
    raise SystemExit(code)


if __name__ == "__main__":
    main()
