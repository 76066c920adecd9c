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


def propagate_covariance(P, F, G, U, Q, dt, kernel=None):
    """Discrete covariance step P <- Phi P Phi^T + Q_d, exact for F^4 = 0.

    The error dynamics come by row structure: of the d rows of P, the first
    k are dense, the next n are driven through the n x r factor U, and the
    rest are static, so the square dynamics and noise map are

        [[Fk, 0], [U Fr, 0], [0, 0]]  and  [Gk; U Gr; 0]

    for F = [Fk; Fr] ((k + r) x k) and G = [Gk; Gr] ((k + r) x 12), as
    ``filters.error_jacobians`` builds them.

    With T = diag(I_k, U), Phi = I + F dt + F^2 dt^2/2 + F^3 dt^3/6 is
    I + [T V 0] for V = F (dt I + dt^2/2 Fk + dt^3/6 Fk^2), and Q_d =
    int_0^dt Phi(s) G Q G^T Phi(s)^T ds is T W (C(dt) kron Q) W^T T^T for
    W = [G, F Gk, F Fk Gk, F Fk^2 Gk] (see ``noise_kernel``; ``kernel`` is
    that matrix if the caller has it already).  With D = V P[:k, :k] V^T +
    W (C(dt) kron Q) W^T,

        Phi P Phi^T + Q_d = P + Z + Z^T,  Z = T (V P[:k] + [D T^T / 2, 0])

    on the first k + n rows, zero below.  This costs O(k^2 d + r d^2) for a
    d x d P, and for an exactly symmetric P the result is exactly symmetric.

    Raises:
        ValueError: if U does not have F.shape[0] - F.shape[1] columns.
    """
    if dt <= 0:
        raise NonPositiveDt(f"dt = {dt}")
    k = F.shape[1]
    r = F.shape[0] - k
    if U.shape[1] != r:
        raise ValueError(f"U has {U.shape[1]} columns for {r} basis rows")
    if kernel is None:
        kernel = noise_kernel(Q, dt)
    Fk = F[:k]
    Gk = G[:k]
    M = (dt ** 3 / 6) * (Fk @ Fk) + (dt * dt / 2) * Fk
    M.ravel()[::k + 1] += dt    # + dt I
    FkGk = Fk @ Gk
    X = F @ np.hstack((M, Gk, FkGk, Fk @ FkGk))    # V and W[:, 12:]
    V = X[:, :k]
    W = np.hstack((G, X[:, k:]))
    Zr = V @ P[:k]
    D = Zr[:, :k] @ V.T + W @ kernel @ W.T
    if r:
        n = len(U)
        Zr[:, :k + n] += np.hstack((0.5 * D[:, :k], (0.5 * D[:, k:]) @ U.T))
        Z = np.empty((k + n, len(P)))
        Z[:k] = Zr[:k]
        np.matmul(U, Zr[k:], out=Z[k:])
    else:
        Z = Zr
        Z[:, :k] += 0.5 * D
    c = len(Z)
    if c == len(P):
        P_new = Z + Z.T
        P_new += P
        return P_new
    P_new = P.copy()
    Zc = Z[:, :c]
    P_new[:c, :c] += Zc + Zc.T
    P_new[:c, c:] += Z[:, c:]
    P_new[c:, :c] = P_new[:c, c:].T
    return P_new


def sample_imitating_error(r, rng):
    """Draw the imitation error: orientation components iid uniform on
    [-r, r], position/velocity slots zero."""
    if r < 0:
        raise NegativeRange(f"r = {r}")
    xi = np.zeros(9)
    xi[:3] = rng.uniform(-r, r, 3)
    return xi
