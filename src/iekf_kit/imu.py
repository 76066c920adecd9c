"""IMU kinematics on SE_2(3) with gyro/accel biases.

Error-state ordering throughout: (xi_omega, xi_p, xi_v, b_omega_err, b_a_err),
a 15-dimensional vector.  The pose part is the right-invariant log error of
the SE_2(3) state with columns (p, v); the bias part is a plain vector
difference.  Noise ordering: (n_omega, n_a, n_b_omega, n_b_a), 12-dimensional.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lie
from .exceptions import NegativeRange, NonPositiveDt

DEFAULT_GRAVITY = np.array([0.0, 0.0, -9.81])


@dataclass
class ImuState:
    """Orientation, position, velocity and the two IMU biases."""

    R: np.ndarray
    p: np.ndarray
    v: np.ndarray
    b_omega: np.ndarray
    b_a: np.ndarray

    @classmethod
    def identity(cls):
        return cls(np.eye(3), np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3))

    def copy(self):
        return ImuState(self.R.copy(), self.p.copy(), self.v.copy(),
                        self.b_omega.copy(), self.b_a.copy())


@dataclass
class ImuMeasurement:
    """One gyro/accelerometer sample (body rates, specific force)."""

    omega: np.ndarray
    accel: np.ndarray
    t: float = 0.0


@dataclass
class ImuNoiseSpec:
    """Continuous-time noise densities and the gravity constant.

    Defaults are the white-noise / random-walk densities of a consumer-grade
    MEMS unit (the values used by the simulation study).
    """

    sigma_gw: float = 1.6968e-04
    sigma_aw: float = 2.0000e-03
    sigma_gbw: float = 1.9393e-05
    sigma_abw: float = 3.0000e-03
    gravity: np.ndarray = field(default_factory=lambda: DEFAULT_GRAVITY.copy())

    def __post_init__(self):
        self.gravity = np.asarray(self.gravity, dtype=float)
        for name in ("sigma_gw", "sigma_aw", "sigma_gbw", "sigma_abw"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def q_imu(self):
        """12x12 diagonal process-noise density matrix."""
        return np.diag(np.repeat(
            [self.sigma_gw ** 2, self.sigma_aw ** 2,
             self.sigma_gbw ** 2, self.sigma_abw ** 2], 3))


def propagate_mean(state, meas, dt, gravity=None):
    """One propagation step with bias-corrected inputs held constant.

    R <- R Exp((w_m - b_w) dt); v and p by the constant-acceleration rule with
    the world-frame acceleration R(a_m - b_a) + g evaluated at the step start.
    Biases are unchanged.
    """
    if dt <= 0:
        raise NonPositiveDt(f"dt = {dt}")
    g = DEFAULT_GRAVITY if gravity is None else np.asarray(gravity, dtype=float)
    w = np.asarray(meas.omega, dtype=float) - state.b_omega
    a_body = np.asarray(meas.accel, dtype=float) - state.b_a
    a_world = state.R @ a_body + g
    R_new = state.R @ lie.so3_exp(w * dt)
    v_new = state.v + a_world * dt
    p_new = state.p + state.v * dt + 0.5 * a_world * dt * dt
    return ImuState(R_new, p_new, v_new, state.b_omega.copy(), state.b_a.copy())


def imu_error_matrix_a(drift=None):
    """9x9 pose-error drift matrix: zero except dp/dv = I and
    dv/domega = drift^.  The drift is gravity (the default) for the
    right-invariant error and -R (a_m - b_a) for the world-frame error."""
    d = DEFAULT_GRAVITY if drift is None else np.asarray(drift, dtype=float)
    A = np.zeros((9, 9))
    A[3:6, 6:9] = np.eye(3)
    A[6:9, :3] = lie.so3_hat(d)
    return A


def noise_kernel(Q, dt):
    """C(dt) kron Q, the middle factor of the closed-form discrete noise in
    ``propagate_covariance``, with C_ij = dt^(i+j+1) / (i! j! (i+j+1)) for
    i, j = 0..3 (48 x 48 for the 12 x 12 IMU noise density).

    It depends only on the noise density and the step, so a caller that
    propagates repeatedly with one (Q, dt) builds it once.
    """
    s = np.add.outer(np.arange(4), np.arange(4)) + 1.0
    fact = np.array([1.0, 1.0, 2.0, 6.0])
    C = dt ** s / (np.outer(fact, fact) * s)
    return np.kron(C, np.asarray(Q, dtype=float))


def propagate_covariance(P, F, G, Q, dt, kernel=None):
    """Discrete covariance step P <- Phi P Phi^T + Q_d, exact for F^4 = 0.

    F is the c x c error dynamics, or only its leading c x k columns (k <= c)
    when the rest are zero: in every error model of this package only the
    k = 15 IMU columns are nonzero, because landmarks are static.  With
    Fk = F[:k] the cubic Phi = I + F dt + F^2 dt^2/2 + F^3 dt^3/6 is I + [V 0]
    with V = F (dt I + dt^2/2 Fk + dt^3/6 Fk^2), so for symmetric P

        Phi P Phi^T = P + V P[:k] + (V P[:k])^T + V P[:k, :k] V^T,

    and the noise integral Q_d = int_0^dt Phi(s) G Q G^T Phi(s)^T ds is
    W (C(dt) kron Q) W^T with W = [G, F G[:k], F Fk G[:k], F Fk^2 G[:k]] (see
    ``noise_kernel``; ``kernel`` is that matrix if the caller has it
    already).  The step costs O(k d^2 + 48 c^2) for a d x d P instead of the
    O(d^3) of forming Phi P Phi^T.  Every error model of this package has
    F^4 = 0.  Rows of P past c (trailing clone blocks, which are static) are
    the case of zero rows of F: their cross-covariance with the first c rows
    is mapped by Phi as well.  The result is symmetrized.

    Raises:
        ValueError: if F has more columns than rows.
    """
    if dt <= 0:
        raise NonPositiveDt(f"dt = {dt}")
    P = np.asarray(P, dtype=float)
    F = np.asarray(F, dtype=float)
    G = np.asarray(G, dtype=float)
    c, k = F.shape
    if k > c:
        raise ValueError(f"F has {k} columns but only {c} rows")
    if kernel is None:
        kernel = noise_kernel(Q, dt)
    Fk = F[:k]
    V = F @ (dt * np.eye(k) + (dt * dt / 2) * Fk + (dt ** 3 / 6) * (Fk @ Fk))
    Gk = G[:k]
    FkGk = Fk @ Gk
    W = np.hstack([G, F @ np.hstack([Gk, FkGk, Fk @ FkGk])])
    VP = V @ P[:k]
    P_new = P.copy()
    P_new[:c] += VP
    P_new[:, :c] += VP.T
    P_new[:c, :c] += VP[:, :k] @ V.T + W @ kernel @ W.T
    return 0.5 * (P_new + P_new.T)


def sample_imitating_error(r, rng):
    """Draw the imitation error: orientation components iid uniform on
    [-r, r], position/velocity slots zero."""
    if r < 0:
        raise NegativeRange(f"r = {r}")
    xi = np.zeros(9)
    xi[:3] = rng.uniform(-r, r, 3)
    return xi
