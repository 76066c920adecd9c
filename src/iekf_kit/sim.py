"""Synthetic trajectory, sensor synthesis, and the Monte Carlo study.

The reference trajectory is a smooth closed 3D Lissajous curve flown with a
yaw-follows-velocity attitude policy (heading aligned with the horizontal
velocity, zero roll/pitch), so the body rate is a pure yaw rate and every
kinematic quantity is available in closed form.

Sensor models: gyro/accel with additive white noise and random-walk biases,
and a down-looking camera observing point landmarks scattered below the
trajectory.  Each IMU reading is the discrete increment of the analytic
trajectory over its step, so that exact dead reckoning of the noise-free
stream stays within centimeters of the analytic trajectory over a hundred
seconds.  The stream is two (n, 3) arrays, gyro rates and specific forces,
from synthesis through the truth chain to ``filters.predict_all``, which
predicts a filter bank in lock step in the one driver loop of both
measurement models, the in-state landmarks of ``run_filter`` and the
sliding window of ``run_sliding_window``.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import os
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, filters
from . import imu as imu_model
from . import lie
from . import vision
from ._checks import is_int, is_real
from .exceptions import EmptyReport
from .filters import (FilterInstance, FilterVariant,
                      invariant_initial_covariance)
from .imu import ImuNoiseSpec, ImuState


@dataclass
class TrajectorySpec:
    """Closed-form reference path p(t) = (ax cos(wx t), ay sin(wy t),
    az sin(wz t + phz)) with heading locked to the horizontal velocity."""

    ax: float = 50.0
    ay: float = 40.0
    az: float = 20.0
    wx: float = 0.075
    wy: float = 0.05
    wz: float = 0.05
    phz: float = 1.0

    def __post_init__(self):
        for name, x in vars(self).items():
            if not (is_real(x) and np.isfinite(x)):
                raise ValueError(f"{name} must be a finite number, got {x!r}")

    def position(self, t):
        return np.array([self.ax * np.cos(self.wx * t),
                         self.ay * np.sin(self.wy * t),
                         self.az * np.sin(self.wz * t + self.phz)])

    def velocity(self, t):
        """Velocity (3,) at a time t, or (3, n) at an array of n times."""
        return np.array([-self.ax * self.wx * np.sin(self.wx * t),
                         self.ay * self.wy * np.cos(self.wy * t),
                         self.az * self.wz * np.cos(self.wz * t + self.phz)])

    def yaw(self, t):
        v = self.velocity(t)
        return np.arctan2(v[1], v[0])

    def attitude(self, t):
        """Attitude (3, 3) at a time t, or (n, 3, 3) at an array of n times."""
        yaw = self.yaw(t)
        c, s = np.cos(yaw), np.sin(yaw)
        R = np.zeros(np.shape(yaw) + (3, 3))
        R[..., 0, 0], R[..., 0, 1] = c, -s
        R[..., 1, 0], R[..., 1, 1] = s, c
        R[..., 2, 2] = 1.0
        return R

    def state(self, t):
        """ImuState at time t (zero biases)."""
        return ImuState(self.attitude(t), self.position(t), self.velocity(t),
                        np.zeros(3), np.zeros(3))


# camera optic axis along -z of the body: a down-looking camera when the
# attitude is yaw-only
DOWN_CAMERA = vision.Extrinsics(
    R_ic=np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]]),
    p_ic=np.zeros(3))


@dataclass
class Scenario:
    """Everything that defines one simulated world (before seeding)."""

    trajectory: TrajectorySpec = field(default_factory=TrajectorySpec)
    duration: float = 60.0
    imu_rate: float = 200.0
    cam_rate: float = 20.0
    noise: ImuNoiseSpec = field(default_factory=ImuNoiseSpec)
    camera: vision.CameraModel = field(default_factory=vision.CameraModel)
    extrinsics: vision.Extrinsics = field(
        default_factory=lambda: DOWN_CAMERA)
    n_landmarks: int = 12
    pixel_sigma: float = 1.0
    max_range: float = 110.0
    landmark_box: tuple = ((-60.0, 60.0), (-50.0, 50.0), (-80.0, -50.0))

    def __post_init__(self):
        for name in ("duration", "imu_rate", "cam_rate", "pixel_sigma",
                     "max_range"):
            x = getattr(self, name)
            if not (is_real(x) and np.isfinite(x) and x > 0):
                raise ValueError(f"{name} must be a finite positive number, "
                                 f"got {x!r}")
        n = self.n_landmarks
        if not is_int(n) or n < 0:
            raise ValueError(
                f"n_landmarks must be a non-negative integer, got {n!r}")
        ratio = self.imu_rate / self.cam_rate
        if round(ratio) < 1 or abs(ratio - round(ratio)) > 1e-9 * ratio:
            raise ValueError(
                f"imu_rate / cam_rate = {ratio:g} is not a whole number: "
                f"the camera fires on every n-th IMU step")
        epochs = self.duration * self.cam_rate
        if round(epochs) < 1 or abs(epochs - round(epochs)) > 1e-9 * epochs:
            raise ValueError(
                f"duration * cam_rate = {epochs:g} is not a whole number of "
                f"camera intervals: the readings after the last epoch would "
                f"be predicted and dropped")

    @property
    def camera_every(self):
        """Number of IMU steps per camera epoch."""
        return int(round(self.imu_rate / self.cam_rate))

    def make_landmarks(self, rng, n=None):
        """Draw the landmark field.

        Dense fields (50 points or more) are uniform in the landmark box.
        Sparse fields are stratified along the flight path with lateral
        jitter scaled to the viewing depth, so several landmarks stay in
        view of the down-looking camera at every epoch; coordinates are
        clipped to the box.
        """
        n = self.n_landmarks if n is None else n
        lo = np.array([b[0] for b in self.landmark_box])
        hi = np.array([b[1] for b in self.landmark_box])
        if n >= 50:
            return rng.uniform(lo, hi, (n, 3))
        ts = (np.arange(n) + 0.5
              + rng.uniform(-0.2, 0.2, n)) * self.duration / n
        pts = np.empty((n, 3))
        for i, t in enumerate(ts):
            p = self.trajectory.position(t)
            pts[i, 2] = rng.uniform(lo[2], hi[2])
            depth = p[2] - pts[i, 2]
            pts[i, :2] = p[:2] + rng.uniform(-0.35, 0.35, 2) * depth
        return np.clip(pts, lo, hi)


@dataclass
class TruthData:
    """One realization of the true world: the n + 1 IMU epochs ``times``,
    the true states at them as one stacked ``ImuState`` (fields (n + 1, ...);
    ``states[k]`` is the state at epoch k), the IMU stream as (n, 3) gyro
    and accelerometer readings (reading k is taken over the step from
    epoch k), and the landmark field."""

    times: np.ndarray
    states: ImuState
    omega: np.ndarray
    accel: np.ndarray
    landmarks: np.ndarray


def synthesize_truth(scenario, rng, with_noise=True, landmarks=None):
    """Simulate the true trajectory with random-walk biases and build the IMU
    measurement stream.

    The clean measurement at step k is the discrete increment of the analytic
    trajectory (rate from the attitude increment log, specific force from the
    velocity increment); the emitted reading adds the current bias and white
    noise.  The true states are the exact one-step propagation of the clean
    stream, so the filter's motion model has no discretization mismatch
    against the truth, and the chain tracks the analytic curve to within
    centimeters over a hundred seconds (checked in the test suite).

    It works on arrays: the trajectory is evaluated once on the whole time
    grid, the increments are stacked products, all noise is one (n, 12)
    draw (row k: gyro, accel, gyro-bias and accel-bias noise of step k, drawn
    also when ``with_noise`` is False) and the bias random walks are
    cumulative sums.  The rotation logs are one stacked ``lie.so3_log``
    call.  The true states are one ``imu.propagate_mean`` call over the
    clean stream from the initial state with zero biases, and carry the bias
    walks.  Times, readings, bias walks, landmarks and the rng state
    afterwards equal those of a per-step loop bit for bit (the test suite
    keeps that loop as the oracle); the orientations, positions and
    velocities equal them to rounding, since ``propagate_mean`` multiplies
    the orientation increments in another order.
    """
    sc = scenario
    dt = 1.0 / sc.imu_rate
    n = int(round(sc.duration * sc.imu_rate))
    g = sc.noise.gravity
    sw = sc.noise.sigma_gw / np.sqrt(dt) if with_noise else 0.0
    sa = sc.noise.sigma_aw / np.sqrt(dt) if with_noise else 0.0
    sbw = sc.noise.sigma_gbw * np.sqrt(dt) if with_noise else 0.0
    sba = sc.noise.sigma_abw * np.sqrt(dt) if with_noise else 0.0
    times = np.arange(n + 1) * dt
    R = sc.trajectory.attitude(times)
    v = sc.trajectory.velocity(times).T
    R_kT = R[:-1].swapaxes(1, 2)
    omega = lie.so3_log(R_kT @ R[1:]) / dt
    accel = (R_kT @ ((v[1:] - v[:-1]) / dt - g)[:, :, None])[:, :, 0]
    noise = rng.standard_normal((n, 12))
    # the walks start at zero and add one step per row, as a loop would
    steps = np.zeros((n + 1, 6))
    steps[1:] = noise[:, 6:] * np.repeat([sbw, sba], 3)
    walks = np.cumsum(steps, axis=0)
    b_w, b_a = walks[:, :3], walks[:, 3:]
    meas_omega = omega + b_w[:-1] + sw * noise[:, 0:3]
    meas_accel = accel + b_a[:-1] + sa * noise[:, 3:6]
    chain = imu_model.propagate_mean(sc.trajectory.state(0.0), omega, accel,
                                     dt, g)
    states = ImuState(*chain[1:4], b_w, b_a)
    if landmarks is None:
        landmarks = sc.make_landmarks(rng)
    return TruthData(times, states, meas_omega, meas_accel, landmarks)


def camera_frame(scenario, state, landmarks, rng):
    """Noisy pixel observations {landmark index: (u, v)} for one epoch, in
    landmark order: the landmarks at least 1 m in front of the truth camera,
    within ``max_range`` and projecting inside the image bounds."""
    cam = scenario.camera
    R_c, p_c = vision.camera_pose(state, scenario.extrinsics)
    x = vision.world_to_camera(R_c, p_c, landmarks)
    near = np.flatnonzero((x[:, 2] >= 1.0) & (np.linalg.norm(x, axis=1)
                                              <= scenario.max_range))
    uv = cam.pixels(x[near])
    inside = ((0.0 <= uv[:, 0]) & (uv[:, 0] <= cam.width)
              & (0.0 <= uv[:, 1]) & (uv[:, 1] <= cam.height))
    pixels = uv[inside] + scenario.pixel_sigma * rng.standard_normal(
        (int(inside.sum()), 2))
    return dict(zip(near[inside].tolist(), pixels))


@dataclass
class InitSpec:
    """Standard deviations of the initial estimate perturbation (per axis)."""

    sigma_theta: float = 0.1
    sigma_p: float = 0.5
    sigma_v: float = 0.1
    sigma_bw: float = 0.0
    sigma_ba: float = 0.0
    sigma_f: float = 0.5

    def __post_init__(self):
        for name, x in vars(self).items():
            if not (is_real(x) and np.isfinite(x) and x >= 0):
                raise ValueError(f"{name} must be a finite non-negative "
                                 f"number, got {x!r}")

    def sigmas(self, n_landmarks=0):
        base = np.repeat([self.sigma_theta, self.sigma_p, self.sigma_v,
                          self.sigma_bw, self.sigma_ba], 3)
        return np.concatenate([base, np.full(3 * n_landmarks, self.sigma_f)])


def perturbed_filter(variants, truth0, landmarks, init, scenario, rng):
    """Build the bank of the filters of ``variants``, whose initial error is
    one draw from the stated prior, shared by every filter, as is the seed
    of each filter's generator.

    The perturbation is applied in world-frame coordinates so the EKF-family
    prior is exactly diagonal; the invariant prior is the same uncertainty
    transported into right-invariant coordinates.  Each prior is written
    into its row of one (B, d, d) array, which the bank adopts.
    """
    m = len(landmarks)
    sig = init.sigmas(m)
    e = sig * rng.standard_normal(len(sig))
    st = ImuState(
        lie.so3_exp(e[0:3]) @ truth0.R,
        truth0.p + e[3:6],
        truth0.v + e[6:9],
        truth0.b_omega + e[9:12],
        truth0.b_a + e[12:15])
    lm_est = landmarks + e[15:].reshape(m, 3)
    seed = rng.integers(2 ** 63)
    P = np.zeros((len(variants), len(sig), len(sig)))
    for P_i, v in zip(P, variants):
        if v.invariant:
            invariant_initial_covariance(st, sig, lm_est, out=P_i)
        else:
            np.fill_diagonal(P_i, sig ** 2)
    return FilterInstance.adopt(
        variants, st, P, scenario.noise,
        [np.random.default_rng(seed) for _ in variants], landmarks=lm_est)


def _frames(scenario, truth, rng):
    """One ``camera_frame`` per camera epoch of ``truth``."""
    every = scenario.camera_every
    return [camera_frame(scenario, truth.states[k], truth.landmarks, rng)
            for k in range(every, len(truth.times), every)]


def _drive(scenario, truth, frames, bank, update):
    """The filter driver loop: at camera epoch i, one ``filters.predict_all``
    of ``bank`` over the interval's IMU readings and its slice of the run's
    ``filters.imitation_stream``, then ``update(bank, frames[i])``.  Returns
    R (B, E, 3, 3), p (B, E, 3) and P's pose block (B, E, 6, 6) per epoch."""
    dt = 1.0 / scenario.imu_rate
    every = scenario.camera_every
    b, e = len(bank.variants), len(frames)
    if e != len(truth.omega) // every:
        raise ValueError(f"{e} frames for {len(truth.omega) // every} "
                         f"camera epochs")
    drew, J = filters.imitation_stream(bank, e * every)
    R, p, P = (np.empty((b, e) + shape) for shape in ((3, 3), (3,), (6, 6)))
    for i, frame in enumerate(frames):
        steps = slice(i * every, (i + 1) * every)
        filters.predict_all(bank, truth.omega[steps], truth.accel[steps], dt,
                            (drew[steps], J[steps]))
        update(bank, frame)
        R[:, i], p[:, i] = bank.state.R, bank.state.p
        P[:, i] = bank.P[:, :6, :6]
    return R, p, P


def _update_landmarks(scenario, bank, frame):
    """The in-state landmark update of ``bank`` on one frame (see
    ``run_filter``)."""
    # observations predicted outside the projection domain are dropped
    for rows, residual, H, N, kept in vision.landmark_measurement(
            bank, scenario.camera, scenario.extrinsics, list(frame.values()),
            scenario.pixel_sigma, landmark_index=list(frame)):
        if not len(kept):
            continue
        # no row index when one group is the bank: perfbench replaces
        # update_raw by a (self, residual, H, N) function
        if rows is None:
            bank.update_raw(residual, H, N)
        else:
            bank.update_raw(residual, H, N, rows)


def run_filter(scenario, truth, frames, bank):
    """Drive the filters of ``bank`` in lock step through one truth
    realization with in-state landmark updates at the camera rate.

    ``frames`` is the list of camera epochs (dicts of pixel observations),
    shared across variants for paired-noise comparisons.  Each camera epoch
    runs one ``filters.predict_all``, whose one error model and one
    covariance propagation take every variant, one
    ``vision.landmark_measurement`` and one ``FilterInstance.update_raw`` of
    the bank; only when the filters keep different observations does each
    group of rows that keeps the same ones take its own update.  The
    estimates of every epoch are evaluated after the last one, in one
    ``filters.errors`` and one ``filters.nees`` over all epochs and filters.
    Returns one float64 (epochs, 5) array per filter, of the rows
    (t, pos_nees, ang_nees, |pos_err|, |ang_err|).

    Raises:
        ValueError: unless there is one frame per camera epoch.
        SingularCovariance: after the last epoch, if the NEES block of any
            epoch is singular (see ``filters.nees``).
    """
    R, p, P = _drive(scenario, truth, frames, bank,
                     functools.partial(_update_landmarks, scenario))
    every = scenario.camera_every
    true = truth.states[every::every]
    errors = filters.errors(R, p, bank.invariant[:, None], true.R, true.p)
    pos_nees, ang_nees = filters.nees(P, errors)
    # one 1 x 3 by 3 x 1 product per row sums as np.linalg.norm does
    norms = lie._row_norms(np.concatenate(errors).reshape(-1, 3)).reshape(
        (2,) + pos_nees.shape)
    t = np.broadcast_to(truth.times[every::every], pos_nees.shape)
    return list(np.stack((t, pos_nees, ang_nees, *norms), axis=-1))


class PairedRecords(dict):
    """The records of one paired run, {variant label: float64 (epochs, 5)
    array}.  Two compare equal when they hold the same labels and their
    arrays are equal bit for bit (``np.array_equal``), so that whole runs
    compare with ``==``, as a rerun is checked against its first run."""

    def __eq__(self, other):
        if not isinstance(other, dict):
            return NotImplemented
        return self.keys() == other.keys() and all(
            np.array_equal(rows, other[label]) for label, rows in self.items())

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq


@dataclass
class MonteCarloReport:
    """Per-variant, per-run, per-epoch records of NEES and error norms."""

    variants: list
    records: dict          # label -> list over runs of (epochs, 5) arrays
    n_runs: int
    seed: int

    def aggregate(self):
        """Mean NEES and RMSE per variant over all runs and epochs.

        Raises:
            EmptyReport: if a variant has no records.
        """
        out = {}
        for v in self.variants:
            runs = self.records[v.label]
            n = sum(len(run) for run in runs)
            if not n:
                raise EmptyReport(f"no records for {v.label}")

            # one field at a time, each a contiguous concatenation of the
            # runs' columns, so the report holds a column of memory on top
            # of the records
            def column(i, runs=runs):
                return np.concatenate([run[:, i] for run in runs])
            out[v.label] = {
                "mean_pos_nees": float(column(1).mean()),
                "mean_ang_nees": float(column(2).mean()),
                "pos_rmse": float(np.sqrt((column(3) ** 2).mean())),
                "ang_rmse": float(np.sqrt((column(4) ** 2).mean())),
                "epochs": n,
            }
        return out


def monte_carlo_single_run(scenario, variants, init, seed, run_index):
    """One paired run: every variant sees the same truth realization, sensor
    noise, and initial perturbation; only the estimator differs.

    Seeding is a pure function of (seed, run_index), so results do not depend
    on execution order or parallelism degree.  Returns the ``PairedRecords``
    of the variants.
    """
    children = np.random.SeedSequence(seed, spawn_key=(run_index,)).spawn(3)
    rng_truth = np.random.default_rng(children[0])
    rng_cam = np.random.default_rng(children[1])
    rng_init = np.random.default_rng(children[2])
    truth = synthesize_truth(scenario, rng_truth)
    frames = _frames(scenario, truth, rng_cam)
    bank = perturbed_filter(variants, truth.states[0], truth.landmarks, init,
                            scenario, rng_init)
    records = run_filter(scenario, truth, frames, bank)
    return PairedRecords(zip((v.label for v in variants), records))


def run_monte_carlo(scenario, variants, n_runs=50, seed=0, init=None,
                    progress=None, parallelism=1):
    """Paired-seed Monte Carlo study over independent runs.

    ``parallelism`` > 1 maps runs over a process pool; the report is
    assembled in run order either way, and ``progress(done, n_runs)`` is
    called as each result arrives in that order.
    """
    init = InitSpec() if init is None else init
    records = {v.label: [] for v in variants}
    run = functools.partial(monte_carlo_single_run, scenario, variants, init,
                            seed)
    pool = contextlib.nullcontext()
    mapper = map
    if parallelism > 1 and n_runs > 1:
        import concurrent.futures
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=min(parallelism, n_runs))
        mapper = pool.map
    with pool:
        for done, res in enumerate(mapper(run, range(n_runs)), 1):
            for v in variants:
                records[v.label].append(res[v.label])
            if progress is not None:
                progress(done, n_runs)
    return MonteCarloReport(list(variants), records, n_runs, seed)


# --- sliding-window (clone-based) single run -------------------------------

def run_sliding_window(scenario, truth, variant=None, seed=0,
                       max_clones=11, max_features=40, updates=True):
    """One run of the clone-based visual-inertial pipeline starting from the
    true initial state, on frames drawn up front; with ``updates=False``
    the same filter dead-reckons.

    Returns (times, position error norms) sampled at the camera rate.
    Raises ValueError for ``fej``: without first estimates of the clone
    rows it would run the ekf under fej's label.
    """
    variant = FilterVariant("iekf") if variant is None else variant
    if variant.tag == "fej":
        raise ValueError("fej has no first estimates on the sliding window")
    rng_cam = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    prior = np.repeat([1e-3, 1e-3, 1e-3, 2e-3, 2e-2], 3)
    filt = FilterInstance(variant, truth.states[0], np.diag(prior ** 2),
                          scenario.noise)
    upd = vision.SlidingWindowUpdater(
        scenario.camera, scenario.extrinsics, max_clones=max_clones,
        max_features=max_features, sigma_px=scenario.pixel_sigma)
    every = scenario.camera_every
    frames = (_frames(scenario, truth, rng_cam) if updates
              else [{}] * (len(truth.omega) // every))
    _, p, _ = _drive(scenario, truth, frames, filt,
                     upd.ingest if updates else lambda bank, frame: None)
    return (truth.times[every::every],
            lie._row_norms(p[0] - truth.states.p[every::every]))


# --- artifact writers -------------------------------------------------------

def _atomic_write(path, writer):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            writer(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_reports(report, out_dir, scenario=None, extra_meta=None):
    """Write report_<variant>.csv, summary.csv and meta.json atomically."""
    os.makedirs(out_dir, exist_ok=True)
    for v in report.variants:
        path = os.path.join(out_dir, f"report_{v.label}.csv")

        def body(fh, label=v.label):
            w = csv.writer(fh)
            w.writerow(["run", "t", "pos_nees", "ang_nees",
                        "pos_err", "ang_err"])
            for run_i, run in enumerate(report.records[label]):
                for row in run.tolist():
                    w.writerow([run_i] + [f"{x:.9g}" for x in row])
        _atomic_write(path, body)
    agg = report.aggregate()

    def summary(fh):
        w = csv.writer(fh)
        w.writerow(["variant", "mean_pos_nees", "mean_ang_nees",
                    "pos_rmse", "ang_rmse", "epochs", "runs"])
        for v in report.variants:
            a = agg[v.label]
            w.writerow([v.label, f"{a['mean_pos_nees']:.9g}",
                        f"{a['mean_ang_nees']:.9g}",
                        f"{a['pos_rmse']:.9g}", f"{a['ang_rmse']:.9g}",
                        a["epochs"], report.n_runs])
    _atomic_write(os.path.join(out_dir, "summary.csv"), summary)
    meta = {
        "seed": report.seed,
        "n_runs": report.n_runs,
        "variants": [v.label for v in report.variants],
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "numpy": np.__version__,
        "iekf_kit": __version__,
        "threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    if scenario is not None:
        meta["scenario"] = {
            "duration": scenario.duration,
            "imu_rate": scenario.imu_rate,
            "cam_rate": scenario.cam_rate,
            "n_landmarks": scenario.n_landmarks,
            "pixel_sigma": scenario.pixel_sigma,
        }
    if extra_meta:
        meta.update(extra_meta)
    _atomic_write(os.path.join(out_dir, "meta.json"),
                  lambda fh: json.dump(meta, fh, indent=2))
