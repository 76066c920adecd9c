"""Error-propagation tests: the closed-form log-error ODE is checked against
direct matrix integration of the group error, never against itself."""

import numpy as np
import pytest
from scipy.linalg import expm

from iekf_kit import errorprop, imu, lie
from iekf_kit.exceptions import StepRejected


def test_left_error_rate_zero_is_noise():
    w = np.array([0.1, -0.2, 0.3, 0.0, 0.1, 0.0, 0.2, 0.0, -0.1])
    rate = errorprop.left_error_rate(np.zeros(9), np.zeros(9), w,
                                     np.zeros((9, 9)))
    assert np.allclose(rate, w)


def frozen_noise(rng, dim=9, n_modes=5, scale=0.3):
    """A frozen noise realization as a smooth deterministic function of time
    (random sinusoid mixture), so both integrators see identical noise at
    every integration stage."""
    amp = rng.normal(0.0, scale, (dim, n_modes))
    freq = rng.uniform(0.5, 4.0, n_modes)
    phase = rng.uniform(0.0, 2.0 * np.pi, n_modes)

    def w_fn(t):
        return amp @ np.sin(freq * t + phase)
    return w_fn


def cross_integrate(side, step, horizon=2.0, seed=0, right_oracles=None):
    """Integrate the log-error ODE and the group-error ODE on the same frozen
    noise path; return the sup-norm mismatch of exp(xi) vs eta at the end.
    The right side takes its log-error rate and the adjoint from
    ``right_oracles``, the pair (right_error_rate, sen_adjoint)."""
    rng = np.random.default_rng(seed)
    w_fn = frozen_noise(rng)
    xi0 = rng.normal(0.0, 0.05, 9)
    vb = rng.normal(0.0, 0.3, 9)
    est = lie.sen_exp(rng.normal(0.0, 0.5, 9))

    if side == "left":
        def rate(t, xi):
            return errorprop.left_error_rate(xi, vb, w_fn(t),
                                             np.zeros((9, 9)))

        def grate(t, eta):
            return errorprop.group_error_rate(eta, vb=vb, w=w_fn(t),
                                              side="left")
    else:
        right_error_rate, sen_adjoint = right_oracles
        adj = sen_adjoint(est)

        def rate(t, xi):
            return right_error_rate(xi, vb, w_fn(t), adj, np.zeros((9, 9)))

        def grate(t, eta):
            return errorprop.group_error_rate(eta, vg=vb, w=w_fn(t),
                                              side="right", estimate=est)

    _, xis = errorprop.integrate_error(rate, xi0, horizon, step)
    _, etas = errorprop.integrate_group_error(lie.sen_exp(xi0),
                                              grate, horizon, step)
    return float(np.abs(lie.sen_exp(xis[-1]) - etas[-1]).max())


def test_left_error_flow_matches_group_flow():
    assert cross_integrate("left", 1e-3) < 1e-5


def test_right_error_flow_matches_group_flow(right_error_rate, sen_adjoint):
    assert cross_integrate("right", 1e-3,
                           right_oracles=(right_error_rate, sen_adjoint)) < 1e-5


def test_cross_integration_convergence_order():
    e1 = cross_integrate("left", 2e-2)
    e2 = cross_integrate("left", 1e-2)
    # order >= 2: halving the step cuts the error by at least 4 (allow slack)
    assert e1 / max(e2, 1e-16) > 3.0


def test_integrator_rejects_domain_exit():
    def rate(t, xi):
        out = np.zeros(9)
        out[0] = 10.0  # drive |omega| out of the domain
        return out
    with pytest.raises(StepRejected):
        errorprop.integrate_error(rate, np.zeros(9), 1.0, 0.1)


def test_expm_nilpotent_matches_scipy():
    rng = np.random.default_rng(1)
    A = imu.imu_error_matrix_a()
    assert np.abs(errorprop.loglinear_transition(A, 0.37)
                  - expm(A * 0.37)).max() < 1e-13
    # a matrix that is not nilpotent has no finite series
    M = rng.normal(0.0, 0.3, (6, 6))
    with pytest.raises(ValueError, match="not nilpotent"):
        errorprop.loglinear_transition(M, 1.0)


def test_loglinear_transition_polynomial_blocks():
    # exp(A dt) for the IMU drift matrix: dp/dv block dt*I, dv/domega block
    # dt*g^, dp/domega block (dt^2/2) g^
    g = np.array([0.0, 0.0, -9.81])
    A = imu.imu_error_matrix_a(g)
    dt = 0.25
    Phi = errorprop.loglinear_transition(A, dt)
    G = lie.so3_hat(g)
    assert np.allclose(Phi[3:6, 6:9], dt * np.eye(3))
    assert np.allclose(Phi[6:9, :3], dt * G)
    assert np.allclose(Phi[3:6, :3], 0.5 * dt * dt * G)
    assert np.allclose(Phi[:3, :3], np.eye(3))


def test_noise_free_log_flow_is_loglinear():
    # with zero noise the log error follows xi(t) = exp(A t) xi0 exactly
    A = imu.imu_error_matrix_a()
    rng = np.random.default_rng(2)
    xi0 = rng.normal(0.0, 0.1, 9)

    def rate(t, xi):
        return A @ xi
    times, xis = errorprop.integrate_error(rate, xi0, 10.0, 1e-2)
    Phi = errorprop.loglinear_transition(A, times[-1])
    assert np.abs(xis[-1] - Phi @ xi0).max() < 1e-8
