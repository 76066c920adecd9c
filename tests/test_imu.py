"""IMU model tests: mean propagation against analytic kinematics, the
closed-form discretized covariance against independent quadrature and the
Van Loan block exponential (and its leading-columns form against the square
one), the error Jacobians of the 15-state for the invariant and the EKF
family, and the transition matrix against its known polynomial block
structure."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st_

from iekf_kit import errorprop, imu, lie
from iekf_kit.exceptions import NegativeRange, NonPositiveDt

FAMILIES = ("iekf", "ekf")


def random_state(rng):
    return imu.ImuState(
        lie.so3_exp(rng.normal(0.0, 0.5, 3)),
        rng.normal(0.0, 5.0, 3),
        rng.normal(0.0, 1.0, 3),
        rng.normal(0.0, 0.01, 3),
        rng.normal(0.0, 0.05, 3))


def test_propagate_mean_free_fall():
    st = imu.ImuState.identity()
    meas = imu.ImuMeasurement(np.zeros(3), np.zeros(3))
    out = imu.propagate_mean(st, meas, 2.0)
    g = imu.DEFAULT_GRAVITY
    assert np.allclose(out.v, 2.0 * g)
    assert np.allclose(out.p, 2.0 * g)  # 0.5 * g * t^2 at t = 2
    assert np.allclose(out.R, np.eye(3))


def test_propagate_mean_bias_correction():
    rng = np.random.default_rng(0)
    st = random_state(rng)
    w = rng.normal(0.0, 0.3, 3)
    a = rng.normal(0.0, 1.0, 3)
    # feeding measurement = signal + bias must reproduce the unbiased step
    clean = imu.propagate_mean(
        imu.ImuState(st.R, st.p, st.v, np.zeros(3), np.zeros(3)),
        imu.ImuMeasurement(w, a), 0.01)
    biased = imu.propagate_mean(st, imu.ImuMeasurement(w + st.b_omega,
                                                       a + st.b_a), 0.01)
    assert np.abs(clean.R - biased.R).max() < 1e-14
    assert np.abs(clean.p - biased.p).max() < 1e-14


def test_propagate_mean_rejects_bad_dt():
    st = imu.ImuState.identity()
    meas = imu.ImuMeasurement(np.zeros(3), np.zeros(3))
    with pytest.raises(NonPositiveDt):
        imu.propagate_mean(st, meas, 0.0)
    with pytest.raises(NonPositiveDt):
        imu.propagate_covariance(np.eye(15), np.zeros((15, 15)),
                                 np.zeros((15, 12)), np.eye(12), -0.1)


def test_error_matrix_a_is_nilpotent():
    A = imu.imu_error_matrix_a()
    assert np.abs(np.linalg.matrix_power(A, 3)).max() == 0.0


def test_full_f_is_nilpotent(variant_jacobians):
    rng = np.random.default_rng(1)
    st = random_state(rng)
    for tag in FAMILIES:
        F, _ = variant_jacobians(tag, st)
        assert np.abs(np.linalg.matrix_power(F, 4)).max() == 0.0


def test_error_jacobians_zero_delta_bit_identical(variant_jacobians):
    rng = np.random.default_rng(2)
    st = random_state(rng)
    F0, G0 = variant_jacobians("iekf", st)
    Fz, Gz = variant_jacobians("iekf", st, xi_delta=np.zeros(9))
    assert np.array_equal(F0, Fz)
    assert np.array_equal(G0, Gz)


def test_error_jacobians_block_structure(variant_jacobians):
    rng = np.random.default_rng(3)
    st = random_state(rng)
    a_m = rng.normal(0.0, 1.0, 3)
    for tag in FAMILIES:
        F, G = variant_jacobians(tag, st, accel=a_m)
        assert F.shape == (15, 15)
        assert G.shape == (15, 12)
        # bias rows are static; bias noise enters with identity
        assert np.abs(F[9:, :]).max() == 0.0
        assert np.array_equal(G[9:15, 6:12], np.eye(6))
        # noise map blocks: attitude sees R, velocity sees R for accel noise
        assert np.array_equal(G[:3, :3], st.R)
        assert np.array_equal(G[6:9, 3:6], st.R)
        assert np.array_equal(F[3:6, 6:9], np.eye(3))
        if tag == "iekf":
            # position and velocity see the gyro noise through p^ R, v^ R
            assert np.allclose(G[3:6, :3], lie.so3_hat(st.p) @ st.R)
            assert np.allclose(G[6:9, :3], lie.so3_hat(st.v) @ st.R)
            assert np.array_equal(F[6:9, :3],
                                  lie.so3_hat(imu.DEFAULT_GRAVITY))
        else:
            # world-frame errors: no lever arms, -(R a)^ drives velocity
            assert not np.any(G[3:6]) and not np.any(G[6:9, :3])
            assert np.allclose(F[6:9, :3], -lie.so3_hat(st.R @ (a_m - st.b_a)))


def test_propagate_covariance_matches_quadrature(variant_jacobians):
    """Closed-form discretization vs Simpson quadrature of the exact
    integral."""
    rng = np.random.default_rng(4)
    st = random_state(rng)
    Q = np.diag(rng.uniform(0.5, 2.0, 12))
    P = np.eye(15) * 0.1
    dt = 0.05
    for tag in FAMILIES:
        F, G = variant_jacobians(tag, st)
        out = imu.propagate_covariance(P, F, G, Q, dt)

        def phi(s):
            return errorprop.loglinear_transition(F, s)
        n = 200
        s = np.linspace(0.0, dt, 2 * n + 1)
        vals = [phi(dt - si) @ G @ Q @ G.T @ phi(dt - si).T for si in s]
        h = dt / (2 * n)
        Qd = h / 3.0 * (vals[0] + vals[-1]
                        + 4.0 * sum(vals[1:-1:2]) + 2.0 * sum(vals[2:-2:2]))
        ref = phi(dt) @ P @ phi(dt).T + Qd
        assert np.abs(out - ref).max() / np.abs(ref).max() < 1e-10


def test_propagate_covariance_pure_diffusion():
    # F = 0: P <- P + dt * G Q G^T exactly
    rng = np.random.default_rng(5)
    G = rng.normal(0.0, 1.0, (15, 12))
    Q = np.diag(rng.uniform(0.1, 1.0, 12))
    P = np.eye(15)
    out = imu.propagate_covariance(P, np.zeros((15, 15)), G, Q, 0.3)
    assert np.abs(out - (P + 0.3 * G @ Q @ G.T)).max() < 1e-12


def van_loan(P, F, G, Q, dt):
    """Phi P Phi^T + Q_d with Phi and Q_d from one block matrix
    exponential (Van Loan, IEEE TAC 1978)."""
    d = F.shape[0]
    M = np.zeros((2 * d, 2 * d))
    M[:d, :d] = -F
    M[:d, d:] = G @ Q @ G.T
    M[d:, d:] = F.T
    E = scipy.linalg.expm(M * dt)
    Phi = E[d:, d:].T
    return Phi @ P @ Phi.T + Phi @ E[:d, d:]


def nilpotent_f(rng, sizes, static_rows=0):
    """F = [[Fk, 0], [R, 0]] with Fk strictly block upper-triangular (at
    most four diagonal blocks, so F^4 = 0) and ``static_rows`` rows R that
    Fk drives but nothing reads, like landmarks: zero past column k."""
    k = sum(sizes)
    F = np.zeros((k + static_rows, k + static_rows))
    edges = np.cumsum([0] + sizes)
    for i in range(len(sizes)):
        F[edges[i]:edges[i + 1], edges[i + 1]:k] = rng.normal(
            0.0, 1.0, (sizes[i], k - edges[i + 1]))
    F[k:, :k] = rng.normal(0.0, 1.0, (static_rows, k))
    return F


@settings(max_examples=60, deadline=None)
@given(sizes=st_.lists(st_.integers(1, 4), min_size=2, max_size=4),
       clones=st_.integers(0, 2),
       dt=st_.floats(1e-3, 0.5),
       seed=st_.integers(0, 2 ** 32 - 1))
def test_closed_form_matches_van_loan_on_nilpotent_f(sizes, clones, dt, seed):
    # trailing static rows (zero in F and G) play the clones
    rng = np.random.default_rng(seed)
    F = nilpotent_f(rng, sizes)
    c = F.shape[0]
    G = rng.normal(0.0, 1.0, (c, 3))
    A = rng.normal(0.0, 1.0, (3, 3))
    Q = A @ A.T
    d = c + 6 * clones
    A = rng.normal(0.0, 1.0, (d, d))
    P = A @ A.T
    out = imu.propagate_covariance(P, F, G, Q, dt)
    F_ext = np.zeros((d, d))
    F_ext[:c, :c] = F
    G_ext = np.zeros((d, 3))
    G_ext[:c] = G
    ref = van_loan(P, F_ext, G_ext, Q, dt)
    assert np.abs(out - ref).max() <= 1e-10 * np.abs(ref).max()
    assert np.array_equal(out, out.T)


@settings(max_examples=60, deadline=None)
@given(sizes=st_.lists(st_.integers(1, 4), min_size=2, max_size=4),
       static_rows=st_.integers(1, 9),
       clones=st_.integers(0, 2),
       dt=st_.floats(1e-3, 0.5),
       seed=st_.integers(0, 2 ** 32 - 1))
def test_leading_columns_match_square_f(sizes, static_rows, clones, dt, seed):
    rng = np.random.default_rng(seed)
    F = nilpotent_f(rng, sizes, static_rows)
    k = sum(sizes)
    c = F.shape[0]
    G = rng.normal(0.0, 1.0, (c, 3))
    A = rng.normal(0.0, 1.0, (3, 3))
    Q = A @ A.T
    d = c + 6 * clones
    A = rng.normal(0.0, 1.0, (d, d))
    P = A @ A.T
    ref = imu.propagate_covariance(P, F, G, Q, dt)
    out = imu.propagate_covariance(P, F[:, :k], G, Q, dt)
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.array_equal(out, out.T)


def test_propagate_covariance_rejects_wide_f():
    with pytest.raises(ValueError):
        imu.propagate_covariance(np.eye(15), np.zeros((15, 16)),
                                 np.zeros((15, 12)), np.eye(12), 0.1)


def test_transition_matrix_polynomial_display(variant_jacobians):
    # Phi = exp(F dt) carries dt*I, dt*g^ and (dt^2/2) g^ in the pose rows
    st = imu.ImuState.identity()
    F, _ = variant_jacobians("iekf", st)
    dt = 0.1
    Phi = errorprop.loglinear_transition(F, dt)
    G = lie.so3_hat(imu.DEFAULT_GRAVITY)
    assert np.allclose(Phi[3:6, 6:9], dt * np.eye(3))
    assert np.allclose(Phi[6:9, :3], dt * G)
    assert np.allclose(Phi[3:6, :3], 0.5 * dt * dt * G)


def test_imitating_error_sampling():
    rng = np.random.default_rng(6)
    xi = imu.sample_imitating_error(0.5, rng)
    assert xi.shape == (9,)
    assert np.abs(xi[:3]).max() <= 0.5
    assert np.abs(xi[3:]).max() == 0.0
    assert np.array_equal(imu.sample_imitating_error(0.0, rng), np.zeros(9))
    with pytest.raises(NegativeRange):
        imu.sample_imitating_error(-0.1, rng)


def test_noise_spec_q_matrix():
    spec = imu.ImuNoiseSpec()
    Q = spec.q_imu()
    assert Q.shape == (12, 12)
    assert np.allclose(np.diag(Q)[:3], spec.sigma_gw ** 2)
    assert np.allclose(np.diag(Q)[3:6], spec.sigma_aw ** 2)
    assert np.allclose(np.diag(Q)[9:12], spec.sigma_abw ** 2)
    with pytest.raises(ValueError):
        imu.ImuNoiseSpec(sigma_gw=-1.0)


def test_imitated_jacobian_premultiplies_noise_map(variant_jacobians):
    # the block-diagonal shortcut equals the full inverse left Jacobian on
    # the landmark-augmented group, bit for bit
    rng = np.random.default_rng(7)
    st = random_state(rng)
    for m in (0, 3):
        lms = rng.normal(0.0, 10.0, (m, 3))
        xi_d = imu.sample_imitating_error(0.4, rng)
        _, G0 = variant_jacobians("ij_iekf", st, lms)
        F, G = variant_jacobians("ij_iekf", st, lms, xi_delta=xi_d)
        B = np.vstack([G0[:9, :6], G0[15:, :6]])
        xi_ext = np.zeros(3 * (m + 3))
        xi_ext[:9] = xi_d
        JiB = lie.sen_left_jacobian_inv(xi_ext) @ B
        assert np.array_equal(np.vstack([G[:9, :6], G[15:, :6]]), JiB)
        assert np.array_equal(F[:9, 9:15], -JiB[:9])
        assert np.array_equal(F[15:, 9:15], -JiB[9:])
    with pytest.raises(ValueError):
        variant_jacobians("ij_iekf", st, xi_delta=np.full(9, 0.1))
