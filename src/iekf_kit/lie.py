"""Matrix Lie group numerics for SO(3), SE(3) and SE_n(3).

Group elements are represented by their (3+n) x (3+n) matrix embedding

    [ R | t_1 ... t_n ]
    [ 0 |     I_n     ]

and tangent vectors by flat arrays of length 3*(n+1) ordered as
(omega, v_1, ..., v_n).

Column ordering convention: for SE_2(3) the columns are (p, v), i.e. position
first, velocity second.  This matches the row structure of the IMU error
Jacobians used throughout the filter code, even though some references list
the columns the other way around.

All functions are pure; none mutate their inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import AngleNearPi, SingularJacobian

# Switchover to Taylor-series branches.  Keeps relative error below ~1e-12
# without catastrophic cancellation in the sin/cos closed forms.
SMALL_ANGLE = 1e-6

# Below this angle se3_q_matrix takes its coefficients from their series:
# the closed forms cancel to t^3, t^4 and t^5 of terms of order t, which
# costs them up to ~6e-9 relative near 1e-4; the series, cut after the t^8
# term, is exact to rounding up to here.
Q_SERIES_ANGLE = 0.1

# Logarithm domain restriction: theta must stay below pi - NEAR_PI_MARGIN.
NEAR_PI_MARGIN = 1e-6

# Left-Jacobian invertibility margin around nonzero multiples of 2*pi.
SINGULARITY_MARGIN = 1e-6

_EYE3 = np.eye(3)


# row k is so3_hat(e_k) flattened, so u @ _HAT_MAP is so3_hat(u) flattened
_HAT_MAP = np.array([[0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 1.0, 0.0],
                     [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0],
                     [0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]])


def so3_hat(w):
    """Skew-symmetric matrix of a 3-vector, or of each row of an (..., 3)
    array as (..., 3, 3)."""
    w = np.asarray(w, dtype=float)
    return (w @ _HAT_MAP).reshape(w.shape[:-1] + (3, 3))


def _row_norms(w):
    """|w_k| of each row of an (n, 3) array, as an (n,) array; each squared
    norm is one 1 x 3 by 3 x 1 product, which sums as the dot product of one
    vector in so3_exp and np.linalg.norm does."""
    return np.sqrt((w[:, None, :] @ w[:, :, None]).ravel())


def so3_vee(W):
    """Inverse of :func:`so3_hat` (exact on skew-symmetric input)."""
    W = np.asarray(W, dtype=float)
    return np.array([W[2, 1], W[0, 2], W[1, 0]])


def _sin_cos_coeffs(theta):
    """Coefficients a = sin(t)/t and b = (1-cos(t))/t^2 with Taylor fallback."""
    if theta < SMALL_ANGLE:
        t2 = theta * theta
        a = 1.0 - t2 / 6.0 + t2 * t2 / 120.0 - t2 * t2 * t2 / 5040.0
        b = 0.5 - t2 / 24.0 + t2 * t2 / 720.0 - t2 * t2 * t2 / 40320.0
    else:
        a = math.sin(theta) / theta
        # 1 - cos(t) = 2 sin(t/2)^2, without the cancellation at small t
        h = math.sin(0.5 * theta) / theta
        b = 2.0 * h * h
    return a, b


def so3_exp(w):
    """Rodrigues formula; 4-term Taylor branch below the small-angle threshold."""
    w = np.asarray(w, dtype=float)
    # the sum np.linalg.norm forms for a vector, without its dispatch
    theta = math.sqrt(w.dot(w))
    W = so3_hat(w)
    a, b = _sin_cos_coeffs(theta)
    return _EYE3 + a * W + b * (W @ W)


def so3_exp_stack(w):
    """so3_exp of each row of an (n, 3) array, as (n, 3, 3); equal to the
    per-row so3_exp bit for bit.

    The coefficients of all rows are array expressions in the order of
    ``_sin_cos_coeffs``, with np.sin in place of math.sin (on x86-64 with
    numpy 2.4 the two agreed on 2e7 sampled angles in [1e-7, 4]; the test
    suite checks the rows against so3_exp).  The angles are clamped to
    SMALL_ANGLE from below, so nothing divides by zero, and the rows below
    it then take the series of ``_sin_cos_coeffs``.
    """
    w = np.asarray(w, dtype=float)
    theta = _row_norms(w)
    t = np.maximum(theta, SMALL_ANGLE)
    a = np.sin(t) / t
    h = np.sin(0.5 * t) / t
    b = 2.0 * h * h
    small = theta < SMALL_ANGLE
    if small.any():
        a[small], b[small] = np.array(
            [_sin_cos_coeffs(x) for x in theta[small].tolist()]).T
    W = so3_hat(w)
    E = a[:, None, None] * W
    E += _EYE3
    WW = W @ W
    WW *= b[:, None, None]
    E += WW
    return E


def so3_log(R):
    """Rotation vector of R (3, 3), or of each matrix of an (n, 3, 3) stack
    as (n, 3), equal to the per-matrix log bit for bit.

    Raises:
        AngleNearPi: if a rotation angle is within NEAR_PI_MARGIN of pi,
            where the logarithm is ill-conditioned.
    """
    R = np.asarray(R, dtype=float)
    if R.ndim == 2:
        axis_times_2sin = so3_vee(R - R.T)
        # the norm and the trace add in the order np.linalg.norm and
        # np.trace do
        sin_theta = 0.5 * math.sqrt(axis_times_2sin.dot(axis_times_2sin))
        trace = R[0, 0] + R[1, 1] + R[2, 2]
        return _log_factor(sin_theta, (trace - 1.0) / 2.0) * axis_times_2sin
    A = R - R.swapaxes(1, 2)
    axis_times_2sin = np.column_stack([A[:, 2, 1], A[:, 0, 2], A[:, 1, 0]])
    trace = R[:, 0, 0] + R[:, 1, 1] + R[:, 2, 2]
    # math.atan2 per row, as the single-matrix log takes it: numpy's
    # arctan2 differs from it in the last bit on some inputs
    factor = [_log_factor(0.5 * s, c) for s, c in
              zip(_row_norms(axis_times_2sin).tolist(),
                  ((trace - 1.0) / 2.0).tolist())]
    return np.array(factor).reshape(-1, 1) * axis_times_2sin


def _log_factor(sin_theta, cos_theta):
    """theta / (2 sin theta) of the rotation angle theta, from its sine and
    cosine.

    Raises:
        AngleNearPi: theta is within NEAR_PI_MARGIN of pi.
    """
    # atan2 rather than arccos of the trace: near pi, arccos amplifies the
    # rounding of the trace into an angle error of order eps / (pi - theta)
    theta = math.atan2(sin_theta, cos_theta)
    if theta >= np.pi - NEAR_PI_MARGIN:
        raise AngleNearPi(f"rotation angle {theta:.12f} too close to pi")
    if theta < SMALL_ANGLE:
        t2 = theta * theta
        # theta / (2 sin theta) expanded around 0.
        return 0.5 * (1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0
                      + 31.0 * t2 * t2 * t2 / 15120.0)
    return theta / (2.0 * sin_theta)


def so3_left_jacobian(w):
    """Left Jacobian of SO(3), J = I + b W + c W^2 with the sin/cos closed
    form, at a 3-vector, or at each row of an (n, 3) array as (n, 3, 3)."""
    w = np.asarray(w, dtype=float)
    rows = w.reshape(-1, 3)
    coeffs = []
    for theta in _row_norms(rows).tolist():
        if theta < SMALL_ANGLE:
            t2 = theta * theta
            c = (1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
                 - t2 * t2 * t2 / 362880.0)
        else:
            c = (theta - np.sin(theta)) / (theta ** 3)
        coeffs.append((_sin_cos_coeffs(theta)[1], c))
    b, c = np.array(coeffs).reshape(-1, 2).T
    W = so3_hat(rows)
    J = b[:, None, None] * W
    J += _EYE3
    WW = W @ W
    WW *= c[:, None, None]
    J += WW
    return J.reshape(w.shape[:-1] + (3, 3))


def so3_left_jacobian_inv(w):
    """Inverse left Jacobian of SO(3) at a 3-vector, or at each row of an
    (n, 3) array as (n, 3, 3).

    Raises:
        SingularJacobian: if an |w| is within SINGULARITY_MARGIN of a
            nonzero multiple of 2*pi, where J drops rank.
    """
    w = np.asarray(w, dtype=float)
    rows = w.reshape(-1, 3)
    d = []
    for theta in _row_norms(rows).tolist():
        _check_jacobian_angle(theta)
        if theta < SMALL_ANGLE:
            t2 = theta * theta
            d.append(1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0
                     + t2 * t2 * t2 / 1209600.0)
        else:
            # t sin(t) / (2 (1 - cos t)) = (t/2) cot(t/2), which keeps the
            # cancellation of 1 - cos(t) out of d
            half = 0.5 * theta
            d.append((1.0 - half * math.cos(half) / math.sin(half))
                     / (theta * theta))
    W = so3_hat(rows)
    J = _EYE3 - 0.5 * W
    J += np.array(d)[:, None, None] * (W @ W)
    return J.reshape(w.shape[:-1] + (3, 3))


def _check_jacobian_angle(theta):
    if theta < np.pi:
        return
    k = round(theta / (2.0 * np.pi))
    if k >= 1 and abs(theta - 2.0 * np.pi * k) < SINGULARITY_MARGIN:
        raise SingularJacobian(
            f"|omega| = {theta:.9f} within {SINGULARITY_MARGIN} of {k}*2pi")


def se3_q_matrix(theta_vec, v):
    """Q block of the SE(3) left Jacobian (the coupling of v into the
    translation rows), in the standard five-term closed form.

    Equals the double series sum_{n,m} hat(theta)^n hat(v) hat(theta)^m
    / (n+m+2)!, which the test suite uses as an oracle.
    """
    theta_vec = np.asarray(theta_vec, dtype=float)
    v = np.asarray(v, dtype=float)
    t = float(np.linalg.norm(theta_vec))
    T = so3_hat(theta_vec)
    V = so3_hat(v)
    t2 = t * t
    if t < Q_SERIES_ANGLE:
        c1 = 1/6 - t2 * (1/120 - t2 * (1/5040 - t2 * (1/362880
                                                      - t2 / 39916800)))
        c2 = 1/24 - t2 * (1/720 - t2 * (1/40320 - t2 * (1/3628800
                                                        - t2 / 479001600)))
        c3 = 1/120 - t2 * (1/2520 - t2 * (1/120960 - t2 * (1/9979200
                                                          - t2 / 1245404160)))
    else:
        st, ct = np.sin(t), np.cos(t)
        c1 = (t - st) / t ** 3
        c2 = (t2 + 2.0 * ct - 2.0) / (2.0 * t ** 4)
        c3 = (2.0 * t - 3.0 * st + t * ct) / (2.0 * t ** 5)
    TV = T @ V
    VT = V @ T
    TVT = TV @ T
    return (0.5 * V
            + c1 * (TV + VT + TVT)
            + c2 * (T @ TV + VT @ T - 3.0 * TVT)
            + c3 * (TVT @ T + T @ TVT))


# ---------------------------------------------------------------------------
# SE_n(3)
# ---------------------------------------------------------------------------

def tangent_n(xi):
    """Number of translation slots n for a flat tangent vector."""
    xi = np.asarray(xi)
    if xi.ndim != 1 or xi.size % 3 != 0 or xi.size < 3:
        raise ValueError(f"tangent length {xi.size} is not a positive multiple of 3")
    return xi.size // 3 - 1


def split_tangent(xi):
    """(omega, [v_1, ..., v_n]) view of a flat tangent vector."""
    xi = np.asarray(xi, dtype=float)
    n = tangent_n(xi)
    return xi[:3], [xi[3 * (i + 1):3 * (i + 2)] for i in range(n)]


def sen_hat(xi, n=None):
    """Lie-algebra matrix embedding of a flat tangent vector.

    Raises:
        ValueError: if a declared n disagrees with the vector length.
    """
    xi = np.asarray(xi, dtype=float)
    n_inferred = tangent_n(xi)
    if n is not None and n != n_inferred:
        raise ValueError(f"declared n={n} but tangent has n={n_inferred}")
    n = n_inferred
    M = np.zeros((3 + n, 3 + n))
    M[:3, :3] = so3_hat(xi[:3])
    for i in range(n):
        M[:3, 3 + i] = xi[3 * (i + 1):3 * (i + 2)]
    return M


def sen_inverse(X):
    """Group inverse: (R, t_i) -> (R^T, -R^T t_i)."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0] - 3
    Rt = X[:3, :3].T
    Xi = np.eye(3 + n)
    Xi[:3, :3] = Rt
    Xi[:3, 3:] = -Rt @ X[:3, 3:]
    return Xi


def sen_exp(xi):
    """Exponential map: Rodrigues on the rotation, t_i = J(omega) v_i."""
    xi = np.asarray(xi, dtype=float)
    n = tangent_n(xi)
    X = np.eye(3 + n)
    X[:3, :3] = so3_exp(xi[:3])
    X[:3, 3:] = so3_left_jacobian(xi[:3]) @ xi[3:].reshape(n, 3).T
    return X


def sen_ad(xi):
    """Matrix of ad_xi: omega^ on the block diagonal, v_i^ in the first block column."""
    omega, vs = split_tangent(xi)
    n = len(vs)
    W = so3_hat(omega)
    A = np.zeros((3 * (n + 1), 3 * (n + 1)))
    A[:3, :3] = W
    for i, v in enumerate(vs):
        r = 3 * (i + 1)
        A[r:r + 3, r:r + 3] = W
        A[r:r + 3, :3] = so3_hat(v)
    return A


def sen_left_jacobian(xi):
    """Left Jacobian of SE_n(3), sum_i ad(xi)^i / (i+1)!, via the closed-form
    block layout: J(omega) blocks on the diagonal, Q_omega(v_i) in the first
    block column."""
    omega, vs = split_tangent(xi)
    n = len(vs)
    Jso3 = so3_left_jacobian(omega)
    J = np.zeros((3 * (n + 1), 3 * (n + 1)))
    J[:3, :3] = Jso3
    for i, v in enumerate(vs):
        r = 3 * (i + 1)
        J[r:r + 3, r:r + 3] = Jso3
        J[r:r + 3, :3] = se3_q_matrix(omega, v)
    return J


def sen_left_jacobian_inv(xi):
    """Inverse of :func:`sen_left_jacobian`.

    Block layout: J(omega)^-1 on the diagonal, -J^-1 Q_omega(v_i) J^-1 in the
    first block column.

    Raises:
        SingularJacobian: if |omega| is within SINGULARITY_MARGIN of a nonzero
            multiple of 2*pi.
    """
    omega, vs = split_tangent(xi)
    n = len(vs)
    Jinv = so3_left_jacobian_inv(omega)
    Ji = np.zeros((3 * (n + 1), 3 * (n + 1)))
    Ji[:3, :3] = Jinv
    for i, v in enumerate(vs):
        r = 3 * (i + 1)
        Ji[r:r + 3, r:r + 3] = Jinv
        Ji[r:r + 3, :3] = -Jinv @ se3_q_matrix(omega, v) @ Jinv
    return Ji
