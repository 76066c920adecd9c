"""Workloads, output checks and metrics of the iekf-kit benchmark.

One operation is one paired run (``sim.monte_carlo_single_run``: every
variant on one truth realization) for the ``paired`` workloads, or one
``sim.synthesize_truth`` plus ``sim.run_sliding_window`` for ``window``.
Operations run one at a time in this process (a closed loop with one
client).  Operation ``i`` uses realization ``i mod runs`` of the workload
config, so every operation of a run at the default seed has a recorded
reference, and a repeated realization must reproduce its first records
exactly.  See README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

from iekf_kit import config, sim
from iekf_kit.exceptions import IekfKitError

from tracer import LayerStats, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference.json")

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# ROADMAP item 3 lets aggregated NEES/RMSE move by 1e-6 relative when the
# arithmetic changes on purpose; the reference check is no looser
REL_TOL = 1e-6
SETUP_SAMPLES = 7
# Wall times are reported at one reference machine speed: each timed
# interval is scaled by CALIBRATION_REF_S over the time a fixed kernel took
# around it (see Calibration).  CALIBRATION_REF_S holds each kernel's
# typical time on the 2-core machine the first baseline was measured on.
CALIBRATION_REF_S = {"overhead": 0.006, "blas": 0.005, "imports": 0.11}
# standard-library modules the "imports" kernel loads in a fresh interpreter
KERNEL_IMPORTS = ("asyncio", "email.mime.multipart", "http.client",
                  "xml.dom.minidom", "json", "decimal", "argparse", "logging",
                  "unittest", "ctypes")
# run_s.tail is a fixed percentile.  The highest percentile with ten
# samples beyond it would follow the number of operations a run completes,
# which follows machine speed (47 to 103 per 30 s run on the baseline
# machine), so runs of one commit would report different quantiles.
TAIL_PERCENTILE = 75
TAIL_BEYOND = 10


@dataclasses.dataclass(frozen=True)
class Workload:
    """A workload config plus what the config format cannot express."""

    name: str
    config: str                 # YAML path relative to this directory
    kind: str                   # "paired" or "window"
    landmark_box: tuple = None  # replaces Scenario.landmark_box if set
    calibration: str = "overhead"   # Calibration kernel: what bounds it
    max_clones: int = 11
    max_features: int = 40


WORKLOADS = {
    "study": Workload("study", "workloads/study.yaml", "paired"),
    "dense": Workload("dense", "workloads/dense.yaml", "paired",
                      calibration="blas"),
    "window": Workload("window", "workloads/window.yaml", "window",
                       landmark_box=((-60.0, 60.0), (-50.0, 50.0),
                                     (-60.0, -30.0))),
}


def config_path(wl):
    return os.path.join(HERE, wl.config)


def prepare(wl, cfg):
    """Apply the workload's extras to a loaded config and validate it.

    Raises:
        ValueError: a rate ratio or epoch count that is not a whole number.
    """
    if wl.landmark_box is not None:
        cfg.scenario = dataclasses.replace(cfg.scenario,
                                           landmark_box=wl.landmark_box)
    sc = cfg.scenario
    for what, value in (("imu_rate / cam_rate", sc.imu_rate / sc.cam_rate),
                        ("duration * cam_rate", sc.duration * sc.cam_rate),
                        ("duration * imu_rate", sc.duration * sc.imu_rate)):
        if abs(value - round(value)) > 1e-9:
            raise ValueError(f"{wl.name}: {what} = {value} is not whole")
    return cfg


def camera_epochs(cfg):
    return int(round(cfg.scenario.duration * cfg.scenario.cam_rate))


def imu_steps(cfg):
    return int(round(cfg.scenario.duration * cfg.scenario.imu_rate))


# --- one operation ----------------------------------------------------------

def run_operation(wl, cfg, seed, run_index):
    """Run one operation; returns {variant label: list of record tuples}.

    Paired records are (t, pos_nees, ang_nees, |pos_err|, |ang_err|) per
    camera epoch; window records are (t, |pos_err|).
    """
    if wl.kind == "paired":
        return sim.monte_carlo_single_run(cfg.scenario, cfg.variants,
                                          cfg.init, seed, run_index)
    truth_seq, cam_seq = np.random.SeedSequence(
        seed, spawn_key=(run_index,)).spawn(2)
    truth = sim.synthesize_truth(cfg.scenario,
                                 np.random.default_rng(truth_seq))
    cam_seed = int(cam_seq.generate_state(1)[0])
    out = {}
    for v in cfg.variants:
        times, errs = sim.run_sliding_window(
            cfg.scenario, truth, v, seed=cam_seed,
            max_clones=wl.max_clones, max_features=wl.max_features)
        out[v.label] = list(zip(times.tolist(), errs.tolist()))
    return out


def summarize(wl, cfg, records):
    """Aggregates per variant: the program's own ``aggregate`` for paired
    runs, position RMSE for the window."""
    if wl.kind == "paired":
        report = sim.MonteCarloReport(
            list(cfg.variants), {k: [v] for k, v in records.items()}, 1, 0)
        return report.aggregate()
    out = {}
    for label, rows in records.items():
        err = np.array([r[1] for r in rows])
        out[label] = {"pos_rmse": float(np.sqrt(np.mean(err ** 2))),
                      "epochs": len(rows)}
    return out


def digest(records):
    h = hashlib.sha256()
    for label in sorted(records):
        h.update(label.encode())
        h.update(np.asarray(records[label], dtype=float).tobytes())
    return h.hexdigest()


def check(wl, cfg, records, reference=None):
    """Output checks of one operation; returns a list of problems."""
    problems = []
    want = camera_epochs(cfg)
    for v in cfg.variants:
        rows = records.get(v.label)
        if rows is None:
            problems.append(f"{v.label}: no records")
            continue
        if not np.isfinite(np.asarray(rows, dtype=float)).all():
            problems.append(f"{v.label}: non-finite record")
        if len(rows) != want:
            problems.append(f"{v.label}: {len(rows)} camera epochs, "
                            f"expected {want}")
    if reference is not None and not problems:
        got = summarize(wl, cfg, records)
        for label, ref in reference.items():
            for key, val in ref.items():
                have = got[label][key]
                if key == "epochs":
                    ok = have == val
                else:
                    ok = abs(have - val) <= REL_TOL * abs(val)
                if not ok:
                    problems.append(f"{label}.{key} = {have!r}, "
                                    f"reference {val!r}")
    return problems


def load_reference(wl, cfg, seed, path=REFERENCE):
    """Reference aggregates, one per realization, if recorded for ``seed``.

    Raises:
        ValueError: the reference covers another number of realizations.
    """
    with open(path) as fh:
        ref = json.load(fh).get(wl.name)
    if ref is None or ref["seed"] != seed:
        return None
    if len(ref["runs"]) != cfg.runs:
        raise ValueError(f"{wl.name}: reference has {len(ref['runs'])} "
                         f"realizations, the config {cfg.runs}")
    return ref["runs"]


# --- a pass over the workload ------------------------------------------------

class Calibration:
    """A fixed numpy/Python kernel, no iekf_kit code, timed around every
    measured interval.

    Shared machines switch between speed states (up to 1.6x apart, for
    seconds at a time, when other tenants load the same cores).  The kernel
    runs in the same states as the interval it brackets, so the ratio of
    the two cancels most of that, provided the kernel is bound by what
    bounds the workload.  The "overhead" kernel has the shape of one filter
    step at d = 51 (small arrays, Python overhead); the "blas" kernel is a
    chain of d = 195 matrix products, the shape of dense covariance
    propagation; the "imports" kernel times standard-library imports in a
    fresh interpreter, the shape of set-up.
    """

    def __init__(self, kind="overhead"):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((51, 51))
        self._p = a @ a.T
        self._m = rng.standard_normal((195, 195)) / 195 ** 0.5
        self.run = {"overhead": self._overhead, "blas": self._blas,
                    "imports": self._imports}[kind]
        self.ref_s = CALIBRATION_REF_S[kind]
        self.last = self.run()

    def _overhead(self):
        t0 = time.perf_counter()
        p, v = self._p, np.array([0.1, 0.2, 0.3])
        for _ in range(150):
            w = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]],
                          [-v[1], v[0], 0.0]])
            b = np.zeros((51, 12))
            b[:3, :3] = w
            b[3:6, 3:6] = np.eye(3)
            p = 0.5 * (p + p.T) + 1e-9 * (b @ b.T)
            v = v + 1e-3 * np.linalg.solve(p[:3, :3] + np.eye(3), v)
        return time.perf_counter() - t0

    def _blas(self):
        t0 = time.perf_counter()
        x = self._m
        for _ in range(16):
            x = self._m @ x
        return time.perf_counter() - t0

    def _imports(self):
        return child_seconds("import time\n"
                             "t0 = time.perf_counter()\n"
                             f"import {', '.join(KERNEL_IMPORTS)}\n"
                             "print(time.perf_counter() - t0)\n")

    def scale(self, seconds):
        """Scale an interval that ended just now, and began after the last
        kernel run, to the reference speed; runs the kernel again."""
        before = self.last
        self.last = self.run()
        return seconds * self.ref_s / (0.5 * (before + self.last))


class Pass:
    """Attempts operations, times and checks them, and counts failures."""

    def __init__(self, wl, cfg, seed, reference=None):
        self.wl, self.cfg, self.seed = wl, cfg, seed
        self.reference = reference
        self.times = []         # seconds at the reference speed
        self.wall = []          # seconds as measured
        self.cal = Calibration(wl.calibration)
        self.records = {v.label: [] for v in cfg.variants}
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.failures = []      # (realization, reason)
        self._digests = {}

    def realization(self, i):
        return i % self.cfg.runs

    def timed(self, run_index):
        """Run one operation; returns (wall seconds, seconds at the
        reference speed, records or the IekfKitError raised)."""
        t0 = time.perf_counter()
        try:
            out = run_operation(self.wl, self.cfg, self.seed, run_index)
        except IekfKitError as e:
            out = e
        wall = time.perf_counter() - t0
        return wall, self.cal.scale(wall), out

    def settle(self, run_index, outcome, extra_problems=()):
        """Count one attempted operation; returns True if it succeeded."""
        self.attempted += 1
        if isinstance(outcome, IekfKitError):
            self.failed += 1
            self.failures.append(
                (run_index, f"{type(outcome).__name__}: {outcome}"))
            return False
        ref = None
        if self.reference is not None:
            ref = self.reference[run_index]
        problems = check(self.wl, self.cfg, outcome, ref)
        problems += list(extra_problems)
        d = digest(outcome)
        if self._digests.setdefault(run_index, d) != d:
            problems.append("records differ from an earlier operation on "
                            "the same realization")
        if problems:
            self.failed += 1
            self.incorrect += 1
            self.failures.append((run_index, "; ".join(problems)))
            return False
        return True

    def keep(self, outcome):
        for label, rows in outcome.items():
            self.records[label].append(rows)


def measure(wl, cfg, seed, seconds, reference=None, out_dir=OUT_DIR):
    """Untraced pass: a warm-up operation, then operations until ``seconds``
    have been spent in them, then the report writers (paired workloads)."""
    p = Pass(wl, cfg, seed, reference)
    *_, outcome = p.timed(p.realization(0))
    p.settle(p.realization(0), outcome)
    i = 1
    while sum(p.wall) < seconds or not p.times:
        ri = p.realization(i)
        wall, scaled, outcome = p.timed(ri)
        p.wall.append(wall)
        p.times.append(scaled)
        if p.settle(ri, outcome):
            p.keep(outcome)
        i += 1
    write_s, _ = write_reports(wl, cfg, p, out_dir)
    return p, p.cal.scale(write_s)


def write_reports(wl, cfg, p, out_dir, tracer=None, stats=None):
    """Write the pass's records with ``sim.write_reports`` into
    ``out_dir/<workload>`` (paired workloads only).

    Returns (seconds, bytes written)."""
    if wl.kind != "paired" or not p.records[cfg.variants[0].label]:
        return 0.0, 0
    report = sim.MonteCarloReport(list(cfg.variants), p.records,
                                  len(p.records[cfg.variants[0].label]),
                                  p.seed)
    out = os.path.join(out_dir, wl.name)
    t0 = time.perf_counter()
    if tracer is None:
        sim.write_reports(report, out, scenario=cfg.scenario)
    else:
        with tracer.installed():
            sim.write_reports(report, out, scenario=cfg.scenario)
        tracer.collect(stats)
    dt = time.perf_counter() - t0
    size = sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))
    return dt, size


def measure_traced(wl, cfg, seed, seconds, tracer, reference=None,
                   out_dir=OUT_DIR):
    """Traced pass: each operation runs untraced and traced on the same
    realization, in alternating order; the traced records must equal the
    untraced ones bit for bit.

    Returns (pass, operation stats, report-writer stats, bytes written,
    tracing overhead, spans of the first traced operation)."""
    p = Pass(wl, cfg, seed, reference)
    *_, outcome = p.timed(p.realization(0))
    p.settle(p.realization(0), outcome)
    stats = LayerStats()
    traced_wall, traced_times = [], []
    spans = None
    i = 1
    while sum(p.wall) + sum(traced_wall) < seconds or not p.times:
        ri = p.realization(i)
        runs = {}
        for traced in ((False, True) if i % 2 else (True, False)):
            if traced:
                with tracer.installed():
                    runs[traced] = p.timed(ri)
                wall, scaled, _ = runs[traced]
                first = tracer.collect(stats, keep_spans=spans is None,
                                       scale=scaled / wall)
                spans = first if spans is None else spans
            else:
                runs[traced] = p.timed(ri)
        (wall, dt, plain) = runs[False]
        (wall_traced, dt_traced, with_spans) = runs[True]
        p.wall.append(wall)
        p.times.append(dt)
        traced_wall.append(wall_traced)
        traced_times.append(dt_traced)
        same = (type(plain) is type(with_spans) and
                (isinstance(plain, IekfKitError)
                 or digest(plain) == digest(with_spans)))
        if p.settle(ri, plain, () if same else
                    ["traced records differ from untraced records"]):
            p.keep(plain)
        i += 1
    write_stats = LayerStats()
    _, size = write_reports(wl, cfg, p, out_dir, tracer, write_stats)
    overhead = statistics.median(traced_times) / statistics.median(p.times) - 1
    return p, stats, write_stats, size, overhead, spans


# --- metrics -----------------------------------------------------------------

def child_seconds(code):
    """Run ``code`` in a fresh interpreter; returns the float it prints."""
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def setup_seconds(wl, samples=SETUP_SAMPLES):
    """Median, over fresh interpreters, of package import plus
    ``config.load_config`` of the workload config, at the reference speed
    of the "imports" kernel; also returns the samples as measured."""
    code = ("import sys, time\n"
            "t0 = time.perf_counter()\n"
            f"sys.path.insert(0, {SRC!r})\n"
            "from iekf_kit import config\n"
            f"config.load_config({config_path(wl)!r})\n"
            "print(time.perf_counter() - t0)\n")
    cal = Calibration("imports")
    scaled, wall = [], []
    for _ in range(samples):
        wall.append(child_seconds(code))
        scaled.append(cal.scale(wall[-1]))
    return statistics.median(scaled), wall


def tail(times):
    """(percentile, value): TAIL_PERCENTILE, or the median when fewer than
    TAIL_BEYOND samples lie beyond it."""
    q = TAIL_PERCENTILE
    if len(times) * (100 - q) / 100 < TAIL_BEYOND:
        q = 50
    return q, float(np.percentile(times, q))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(wl, cfg, p, write_s, setup_s):
    q, t = tail(p.times)
    steps = len(cfg.variants) * imu_steps(cfg) * len(p.times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "run_s.p50": (statistics.median(p.times), "s"),
        "run_s.tail": (t, "s"),
        "filter_steps_per_s": (steps / (sum(p.times) + write_s), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    notes = {
        "run_s.p50": f"median of {len(p.times)} operations; as measured "
                     f"{statistics.median(p.wall):.4f} s",
        "run_s.tail": f"p{q} of {len(p.times)} operations; as measured "
                      f"{tail(p.wall)[1]:.4f} s",
        "filter_steps_per_s": f"{steps} variant x IMU steps",
    }
    return metrics, notes


# per-layer metrics: (name, unit, statistic, span names summed)
# us: mean self microseconds per call; s: self seconds per operation;
# calls / failed: per operation; rows: mean noted rows per call
PER_LAYER = [
    ("sim.synthesize_truth.s", "s", "s", ("sim.synthesize_truth",)),
    ("sim.camera_frame.s", "s", "s", ("sim.camera_frame",)),
    ("sim.driver.self_s", "s", "s",
     ("sim.run_filter", "sim.run_sliding_window")),
    ("sim.camera_epochs", "count", "calls", ("sim.camera_frame",)),
    ("filters.predict.us.ekf", "us", "us",
     ("filters.FilterInstance.predict:ekf",)),
    ("filters.predict.us.iekf", "us", "us",
     ("filters.FilterInstance.predict:iekf",)),
    ("filters.predict.us.ij_iekf", "us", "us",
     ("filters.FilterInstance.predict:ij_iekf",)),
    ("filters.predict.calls", "count", "calls",
     ("filters.FilterInstance.predict:ekf",
      "filters.FilterInstance.predict:iekf",
      "filters.FilterInstance.predict:ij_iekf")),
    ("filters.invariant_error_jacobians.us", "us", "us",
     ("filters.invariant_error_jacobians",)),
    ("filters.ekf_error_jacobians.us", "us", "us",
     ("filters.ekf_error_jacobians",)),
    ("filters.update_raw.us", "us", "us",
     ("filters.FilterInstance.update_raw",)),
    ("filters.update_raw.calls", "count", "calls",
     ("filters.FilterInstance.update_raw",)),
    ("filters.update_raw.rows", "count", "rows",
     ("filters.FilterInstance.update_raw",)),
    ("filters.update_raw.failed", "count", "failed",
     ("filters.FilterInstance.update_raw",)),
    ("filters.apply_correction.us", "us", "us",
     ("filters.FilterInstance.apply_correction",)),
    ("filters.nees.us", "us", "us", ("filters.FilterInstance.nees",)),
    ("filters.errors.us", "us", "us", ("filters.FilterInstance.errors",)),
    ("filters.clone_camera_pose.us", "us", "us",
     ("filters.FilterInstance.clone_camera_pose",)),
    ("filters.marginalize_clone.us", "us", "us",
     ("filters.FilterInstance.marginalize_clone",)),
    ("imu.propagate_mean.us", "us", "us", ("imu.propagate_mean",)),
    ("imu.propagate_mean.calls", "count", "calls", ("imu.propagate_mean",)),
    ("imu.sample_imitating_error.calls", "count", "calls",
     ("imu.sample_imitating_error",)),
    ("lie.sen_left_jacobian_inv.us", "us", "us",
     ("lie.sen_left_jacobian_inv",)),
    ("lie.sen_left_jacobian_inv.calls", "count", "calls",
     ("lie.sen_left_jacobian_inv",)),
    ("lie.se3_q_matrix.s", "s", "s", ("lie.se3_q_matrix",)),
    ("lie.se3_q_matrix.calls", "count", "calls", ("lie.se3_q_matrix",)),
    ("lie.so3_hat.calls", "count", "calls", ("lie.so3_hat",)),
    ("lie.sen_exp.calls", "count", "calls", ("lie.sen_exp",)),
    ("lie.so3_log.calls", "count", "calls", ("lie.so3_log",)),
    ("vision.landmark_measurement.us", "us", "us",
     ("vision.landmark_measurement",)),
    ("vision.landmark_measurement.calls", "count", "calls",
     ("vision.landmark_measurement",)),
    ("vision.landmark_measurement.dropped", "count", "dropped",
     ("vision.landmark_measurement",)),
    ("vision.SlidingWindowUpdater.ingest.s", "s", "s",
     ("vision.SlidingWindowUpdater.ingest",)),
    ("vision.triangulate.us", "us", "us", ("vision.triangulate",)),
    ("vision.triangulate.calls", "count", "calls", ("vision.triangulate",)),
    ("vision.triangulate.failed", "count", "failed", ("vision.triangulate",)),
    ("vision.nullspace_project.us", "us", "us",
     ("vision.nullspace_project",)),
    ("vision.nullspace_project.failed", "count", "failed",
     ("vision.nullspace_project",)),
    ("vision.clone_feature_jacobians.calls", "count", "calls",
     ("vision.clone_feature_jacobians",)),
]
DROPPED = ("BehindCamera", "ZeroRange")


def layer_value(stats, statistic, spans):
    calls = sum(stats.calls[s] for s in spans)
    ops = max(stats.operations, 1)
    if statistic == "us":
        return 1e6 * sum(stats.self_s[s] for s in spans) / calls if calls else 0.0
    if statistic == "s":
        return sum(stats.self_s[s] for s in spans) / ops
    if statistic == "calls":
        return calls / ops
    if statistic == "rows":
        return sum(stats.notes[s] for s in spans) / calls if calls else 0.0
    if statistic == "failed":
        return sum(stats.failed(s) for s in spans) / ops
    if statistic == "dropped":
        return sum(stats.failed(s, DROPPED) for s in spans) / ops
    raise ValueError(statistic)


def per_layer(stats, write_stats, config_stats, write_bytes, overhead):
    metrics = {name: (layer_value(stats, statistic, spans), unit)
               for name, unit, statistic, spans in PER_LAYER}
    tri = stats.calls["vision.triangulate"]
    projected = (stats.calls["vision.nullspace_project"]
                 - stats.failed("vision.nullspace_project"))
    metrics["vision.track_yield"] = (projected / tri if tri else 0.0, "ratio")
    metrics["sim.write_reports.s"] = (
        write_stats.self_s["sim.write_reports"], "s")
    metrics["sim.write_reports.bytes"] = (write_bytes, "bytes")
    metrics["config.load_config.s"] = (
        config_stats.self_s["config.load_config"], "s")
    metrics["trace_overhead"] = (overhead, "ratio")
    return metrics


# --- environment record ------------------------------------------------------

def git_commit(root=ROOT):
    """Commit of the checkout read from .git, or "unknown" without one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(wl, cfg):
    echo = config.config_echo(cfg)
    echo["benchmark"] = {"kind": wl.kind, "landmark_box": wl.landmark_box,
                         "max_clones": wl.max_clones,
                         "max_features": wl.max_features}
    return {
        "commit": git_commit(),
        "workload": wl.name,
        "config": echo,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


# --- entry -------------------------------------------------------------------

def main(workload, seed, seconds, trace):
    """Run one workload and return (result dict, report lines).

    ``seed`` None means the workload config's seed."""
    wl = WORKLOADS[workload]
    path = config_path(wl)
    if trace:
        tracer = Tracer()
        config_stats = LayerStats()
        with tracer.installed():
            cfg = config.load_config(path)
        tracer.collect(config_stats)
    else:
        setup_s, setup_samples = setup_seconds(wl)
        cfg = config.load_config(path)
    prepare(wl, cfg)
    seed = cfg.seed if seed is None else seed
    reference = load_reference(wl, cfg, seed)
    env = environment(wl, cfg)
    lines = [f"workload {wl.name}: seed {seed}, {seconds} s, trace {trace}, "
             f"reference {'checked' if reference else 'none for this seed'}",
             "environment " + json.dumps(env, sort_keys=True)]
    if trace:
        p, stats, write_stats, size, overhead, spans = measure_traced(
            wl, cfg, seed, seconds, tracer, reference)
        metrics = per_layer(stats, write_stats, config_stats, size, overhead)
        notes = {"trace_overhead": "traced / untraced run_s.p50 - 1 over "
                 f"{len(p.times)} paired operations"}
    else:
        p, write_s = measure(wl, cfg, seed, seconds, reference)
        metrics, notes = end_to_end(wl, cfg, p, write_s, setup_s)
        notes["setup_s"] = (f"median of {len(setup_samples)}; as measured "
                            + ", ".join(f"{v:.3f}" for v in setup_samples))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"{name} = {value:.6g} {unit}{note}")
    lines.append(f"failed_frac = {p.failed / p.attempted:.6g} ratio  "
                 f"({p.failed} failed of {p.attempted} attempted)")
    for run_index, reason in p.failures:
        lines.append(f"failed realization {run_index}: {reason}")
    result = {
        "correct": p.incorrect == 0,
        "attempted": p.attempted,
        "failed": p.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{wl.name}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w") as fh:
        json.dump(dict(result, environment=env, failures=p.failures,
                       times_s=p.times, wall_s=p.wall), fh, indent=1)
    if trace and spans:
        with open(stem + "-spans.json", "w") as fh:
            json.dump(spans, fh)
    return result, lines
