"""Acceptance gate: one test per acceptance criterion, each printing a
single PASS/FAIL line with the measured quantity.

The Monte-Carlo criteria (7 and 8) run the full paired study and take
several minutes on a single core; everything else completes in seconds.
"""

import os
import time

import numpy as np
import pytest
from scipy.linalg import expm

from iekf_kit import errorprop, filters, imu, lie, sim, vision


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


@pytest.fixture
def verdict(capsys):
    """Print one criterion line straight to the terminal, then assert."""
    def _verdict(number, ok, detail):
        with capsys.disabled():
            print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'}"
                  f" — {detail}")
        assert ok, detail
    return _verdict


# --- 1: exp/log roundtrip ---------------------------------------------------

def test_criterion_01_log_exp_roundtrip(verdict, sen_log):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        xi = rng.normal(0.0, 1.0, 9)
        n = np.linalg.norm(xi[:3])
        if n > 3.0:
            xi[:3] *= 3.0 * rng.uniform() / n
        back = sen_log(lie.sen_exp(xi))
        worst = max(worst, np.abs(back - xi).max())
    elapsed = time.perf_counter() - t0
    verdict(1, worst < 1e-9 and elapsed < 1.0,
            f"1000 roundtrips, max err {worst:.2e}, {elapsed:.2f} s")


# --- 2: closed-form Jacobian vs series --------------------------------------

def _series_jacobian(xi, terms=25):
    ad = lie.sen_ad(xi)
    S = np.eye(9)
    term = np.eye(9)
    for i in range(1, terms):
        term = term @ ad / (i + 1)
        S = S + term
    return S


def test_criterion_02_left_jacobian(verdict):
    rng = np.random.default_rng(102)
    worst_rel = 0.0
    worst_inv = 0.0
    for _ in range(500):
        xi = rng.normal(0.0, 0.6, 9)
        n = np.linalg.norm(xi[:3])
        if n > 2.0:
            xi[:3] *= 2.0 * rng.uniform() / n
        J = lie.sen_left_jacobian(xi)
        S = _series_jacobian(xi)
        worst_rel = max(worst_rel, np.linalg.norm(J - S) / np.linalg.norm(S))
        worst_inv = max(worst_inv, np.abs(
            J @ lie.sen_left_jacobian_inv(xi) - np.eye(9)).max())
    verdict(2, worst_rel < 1e-10 and worst_inv < 1e-9,
            f"500 samples, rel err {worst_rel:.2e}, inv err {worst_inv:.2e}")


# --- 3: conjugation identity ------------------------------------------------

def test_criterion_03_conjugation(verdict):
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(200):
        a = rng.normal(0.0, 0.5, 9)
        b = rng.normal(0.0, 0.5, 9)
        lhs = lie.sen_exp(a) @ lie.sen_hat(b) @ lie.sen_inverse(lie.sen_exp(a))
        rhs = lie.sen_hat(expm(lie.sen_ad(a)) @ b)
        worst = max(worst, np.abs(lhs - rhs).max())
    verdict(3, worst < 1e-9, f"200 pairs, max err {worst:.2e}")


# --- 4: log-error flow vs group flow ----------------------------------------

def _cross_integrate(step, horizon=5.0, seed=104):
    rng = np.random.default_rng(seed)
    amp = rng.normal(0.0, 0.3, (9, 5))
    freq = rng.uniform(0.5, 4.0, 5)
    phase = rng.uniform(0.0, 2.0 * np.pi, 5)

    def w_fn(t):
        return amp @ np.sin(freq * t + phase)
    xi0 = rng.normal(0.0, 0.05, 9)
    vb = rng.normal(0.0, 0.3, 9)

    def rate(t, xi):
        return errorprop.left_error_rate(xi, vb, w_fn(t), np.zeros((9, 9)))

    def grate(t, eta):
        return errorprop.group_error_rate(eta, vb=vb, w=w_fn(t), side="left")
    _, xis = errorprop.integrate_error(rate, xi0, horizon, step)
    _, etas = errorprop.integrate_group_error(lie.sen_exp(xi0), grate,
                                              horizon, step)
    return float(np.abs(lie.sen_exp(xis[-1]) - etas[-1]).max())


def test_criterion_04_error_flow(verdict):
    t0 = time.perf_counter()
    err = _cross_integrate(1e-3)
    e_coarse = _cross_integrate(2e-2)
    e_fine = _cross_integrate(1e-2)
    elapsed = time.perf_counter() - t0
    order_ok = e_coarse / max(e_fine, 1e-16) > 3.0
    verdict(4, err < 1e-5 and order_ok and elapsed < 10.0,
            f"5 s flow, sup err {err:.2e}, step-halving ratio "
            f"{e_coarse / max(e_fine, 1e-16):.1f}, {elapsed:.1f} s")


# --- 5: log-linear transition exactness -------------------------------------

def test_criterion_05_loglinear_exactness(verdict):
    A = imu.imu_error_matrix_a()
    rng = np.random.default_rng(105)
    xi0 = rng.normal(0.0, 0.1, 9)

    def rate(t, xi):
        return A @ xi
    times, xis = errorprop.integrate_error(rate, xi0, 10.0, 1e-2)
    err = np.abs(xis[-1]
                 - errorprop.loglinear_transition(A, times[-1]) @ xi0).max()
    verdict(5, err < 1e-8, f"10 s noise-free flow, err {err:.2e}")


# --- 6: NEES calibration ----------------------------------------------------

def test_criterion_06_nees_calibration(verdict):
    rng = np.random.default_rng(106)
    A = rng.normal(0.0, 1.0, (3, 3))
    P = A @ A.T + 0.5 * np.eye(3)
    L = np.linalg.cholesky(P)
    vals = [e @ np.linalg.solve(P, e) / 3.0
            for e in (L @ rng.standard_normal((500, 3)).T).T]
    mean = float(np.mean(vals))
    verdict(6, 0.9 < mean < 1.1, f"500 draws, mean NEES {mean:.4f}")


# --- 7 and 8: the paired Monte-Carlo study ----------------------------------

@pytest.fixture(scope="module")
def study():
    sc = sim.Scenario(duration=120.0, imu_rate=50.0, cam_rate=25.0)
    init = sim.InitSpec(sigma_bw=0.002, sigma_ba=0.02,
                        sigma_f=STUDY_SIGMA_F)
    variants = [filters.FilterVariant("ekf"), filters.FilterVariant("iekf"),
                filters.FilterVariant("ij_iekf", 0.1),
                filters.FilterVariant("ij_iekf", 0.5)]
    workers = os.cpu_count() or 1
    t0 = time.perf_counter()
    rep = sim.run_monte_carlo(sc, variants, n_runs=50, seed=2024, init=init,
                              parallelism=workers)
    return rep.aggregate(), time.perf_counter() - t0, workers


STUDY_SIGMA_F = 2.0


def test_criterion_07_consistency_study(verdict, study):
    agg, elapsed, workers = study
    iekf = agg["iekf"]
    ekf = agg["ekf"]
    ij5 = agg["ij_iekf-0.5"]
    in_band = (0.7 <= iekf["mean_pos_nees"] <= 1.6
               and 0.7 <= ij5["mean_pos_nees"] <= 1.6)
    ekf_bad = ekf["mean_pos_nees"] > 1.8
    rmse_ok = iekf["pos_rmse"] <= 0.85 * ekf["pos_rmse"]
    time_ok = elapsed < 300.0 or workers < 4
    verdict(7, in_band and ekf_bad and rmse_ok and time_ok,
            f"pos NEES iekf {iekf['mean_pos_nees']:.2f}, "
            f"ij(0.5) {ij5['mean_pos_nees']:.2f}, ekf {ekf['mean_pos_nees']:.2f}; "
            f"RMSE ratio {iekf['pos_rmse'] / ekf['pos_rmse']:.3f}; "
            f"{elapsed:.0f} s on {workers} core(s)")


def test_criterion_08_imitation_robustness(verdict, study):
    agg, _, _ = study
    rmse_ok = agg["ij_iekf-0.1"]["pos_rmse"] <= 1.05 * agg["iekf"]["pos_rmse"]
    # r = 0 must be bit-identical to the plain invariant filter
    sc = sim.Scenario(duration=5.0)
    pair = [filters.FilterVariant("iekf"), filters.FilterVariant("ij_iekf", 0.0)]
    rep = sim.run_monte_carlo(sc, pair, n_runs=1, seed=3)
    identical = all(np.array_equal(x, y) for x, y in
                    zip(rep.records["iekf"], rep.records[pair[1].label]))
    verdict(8, rmse_ok and identical,
            f"RMSE ratio ij(0.1)/iekf "
            f"{agg['ij_iekf-0.1']['pos_rmse'] / agg['iekf']['pos_rmse']:.4f}, "
            f"r=0 bit-identical: {identical}")


# --- 9: sliding-window pipeline ---------------------------------------------

def test_criterion_09_sliding_window(verdict, identity_state):
    model = vision.CameraModel()
    rng = np.random.default_rng(109)
    worst_hf, worst_res, failed = 0.0, 0.0, 0
    for _ in range(100):
        f_true = np.array([2.0, 1.0, 30.0]) + rng.normal(0.0, 1.0, 3)
        filt = filters.FilterInstance(
            filters.FilterVariant("iekf"), identity_state(),
            np.eye(15) * 0.01, imu.ImuNoiseSpec())
        for k in range(6):
            filt.clone_camera_pose(lie.so3_exp(rng.normal(0.0, 0.05, 3)),
                                   np.array([1.5 * k, 0.3 * k, 0.1 * k]))
        clone_R, clone_p = filt.clone_R[0], filt.clone_p[0]
        uv = model.project(vision.world_to_camera(
            clone_R, clone_p, f_true))[0].ravel()
        idx = np.arange(6)[None]
        pred, H_x, Hf, outside = vision.clone_feature_jacobians(
            filt, model, idx, clone_R[idx], clone_p[idx], f_true[None])
        r0, _, degenerate = vision.nullspace_project(uv - pred, H_x, Hf)
        # a failed track has NaN rows, which max() would pass over
        failed += int(outside[0] or degenerate[0])
        Hf = Hf[0]
        Q, _ = np.linalg.qr(Hf, mode="complete")
        worst_hf = max(worst_hf, np.linalg.norm(Q[:, 3:].T @ Hf))
        worst_res = max(worst_res, np.abs(r0).max())

    sc = sim.Scenario(duration=60.0, imu_rate=100.0, cam_rate=5.0,
                      n_landmarks=200, max_range=90.0,
                      landmark_box=((-60.0, 60.0), (-50.0, 50.0),
                                    (-60.0, -30.0)))
    truth = sim.synthesize_truth(sc, np.random.default_rng(42))
    _, e_dr = sim.run_sliding_window(sc, truth, seed=1, updates=False)
    _, e_up = sim.run_sliding_window(sc, truth, seed=1, updates=True)
    ratio = float(np.sqrt(np.mean(e_dr ** 2)) / np.sqrt(np.mean(e_up ** 2)))
    verdict(9, failed == 0 and worst_hf < 1e-10 and worst_res < 1e-8
            and ratio >= 5.0,
            f"100 tracks, {failed} failed, |Q2' Hf| {worst_hf:.2e}, "
            f"residual {worst_res:.2e}; "
            f"60 s run improves on dead reckoning by {ratio:.1f}x")


# --- 10: observability rank ground truth ------------------------------------

def test_criterion_10_observability(verdict):
    dims = set()
    for dt in (0.01, 0.1, 1.0):
        for k in range(4, 11):
            _, rank, null_dim = vision.observability_matrix(dt, k)
            dims.add(null_dim)
            assert rank + null_dim == 12
    with open(README) as fh:
        readme = fh.read()
    documented = "nullspace dimension" in readme.lower()
    verdict(10, dims == {4} and documented,
            f"nullspace dimension {sorted(dims)} across all dt/k; "
            f"recorded in README: {documented}")


# --- 11: real-data benchmark out of scope -----------------------------------

def test_criterion_11_real_data_documented(verdict):
    with open(README) as fh:
        readme = fh.read().lower()
    documented = "real-data" in readme or "real data" in readme
    verdict(11, documented,
            "real-data benchmark documented as out of scope (no dataset "
            "in this environment)")
