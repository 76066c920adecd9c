"""Shared test helpers."""

import numpy as np
import pytest

from iekf_kit import filters, imu

ACCEL = np.array([0.3, 0.1, 9.7])


def _variant_jacobians(tag, st, lms=np.zeros((0, 3)), accel=ACCEL,
                       xi_delta=None):
    """(F, G, U) of ``filters.error_jacobians`` from the inputs that
    ``FilterInstance.predict`` gives it for variant ``tag``: gravity and the
    lever arms (p, v, f_j) for the invariant error, -R (a_m - b_a) and none
    for the EKF family."""
    lms = np.asarray(lms, dtype=float).reshape(-1, 3)
    if tag in filters.INVARIANT_TAGS:
        return filters.error_jacobians(st.R, imu.DEFAULT_GRAVITY,
                                       np.vstack((st.p, st.v, lms)), xi_delta)
    drift = -(st.R @ (np.asarray(accel, dtype=float) - st.b_a))
    return filters.error_jacobians(st.R, drift, None, xi_delta)


def _expand(F, G, U, c):
    """The c x k F and c x 12 G that the row-factored (F, G, U) stands
    for: the k dense rows, U times the basis rows, then static rows."""
    k = F.shape[1]
    n = len(U)
    F_full = np.zeros((c, k))
    G_full = np.zeros((c, G.shape[1]))
    F_full[:k] = F[:k]
    G_full[:k] = G[:k]
    F_full[k:k + n] = U @ F[k:]
    G_full[k:k + n] = U @ G[k:]
    return F_full, G_full


def _square(F, d):
    """F (c x k) as the d x d square dynamics, zero past column k."""
    F_sq = np.zeros((d, d))
    F_sq[:len(F), :F.shape[1]] = F
    return F_sq


def _dense_closed_form(P, F, G, Q, dt):
    """Phi P Phi^T + W (C(dt) kron Q) W^T on the square d x d dynamics,
    Phi = I + F dt + F^2 dt^2/2 + F^3 dt^3/6, W = [G, F G, F^2 G, F^3 G]:
    the closed form of ``imu.propagate_covariance`` evaluated without the
    row structure."""
    F2 = F @ F
    F3 = F2 @ F
    Phi = np.eye(len(F)) + F * dt + F2 * (dt * dt / 2) + F3 * (dt ** 3 / 6)
    W = np.hstack([G, F @ G, F2 @ G, F3 @ G])
    return Phi @ P @ Phi.T + W @ imu.noise_kernel(Q, dt) @ W.T


@pytest.fixture(scope="session")
def variant_jacobians():
    return _variant_jacobians


@pytest.fixture(scope="session")
def expand():
    return _expand


@pytest.fixture(scope="session")
def square():
    return _square


@pytest.fixture(scope="session")
def dense_closed_form():
    return _dense_closed_form
