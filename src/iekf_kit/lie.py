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

The SO(3) functions also take stacks of rows: ``so3_exp_jacobian_stack``
gives the exponentials and left Jacobians of a stack in one pass, and
``so3_exp_stack`` and ``so3_left_jacobian`` are its two halves.  All
functions are pure; none mutate their inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import AngleNearPi, SingularJacobian

# Below this angle exp's sin(t)/t and (1 - cos t)/t^2 and log's factor
# take their series, to avoid 0/0; their closed forms do not cancel.
SMALL_ANGLE = 1e-6

# Below this angle the coefficients whose closed forms cancel (those of
# se3_q_matrix and the left Jacobian's and its inverse's c and d) take
# their series, cut after the t^8 term and exact to rounding up to here;
# the closed forms lose up to ~1e-4 relative near SMALL_ANGLE, ~1e-13 here.
SERIES_ANGLE = 0.1

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
    norm is one 1 x 3 by 3 x 1 product, which sums as np.linalg.norm does."""
    return np.sqrt((w[:, None, :] @ w[:, :, None]).ravel())


# series in t^2, cut after the t^8 term, of c = (t - sin t)/t^3 (also c1),
# c2 and c3 of se3_q_matrix, and d of so3_left_jacobian_inv
_C_SERIES = (1/6, -1/120, 1/5040, -1/362880, 1/39916800)
_Q_SERIES = (_C_SERIES, (1/24, -1/720, 1/40320, -1/3628800, 1/479001600),
             (1/120, -1/2520, 1/120960, -1/9979200, 1/1245404160))
_D_SERIES = (1/12, 1/720, 1/30240, 1/1209600, 1/47900160)


def _series(t2, coeffs):
    """The series ``coeffs`` in t^2 at ``t2`` (a float or an array)."""
    s = coeffs[-1]
    for k in coeffs[-2::-1]:
        s = s * t2 + k
    return s


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
    """Rodrigues formula of a 3-vector (``so3_exp_stack`` of one row)."""
    return so3_exp_stack(np.reshape(w, (1, 3)))[0]


def so3_exp_jacobian_stack(w, jacobian=True):
    """(E, J), (n, 3, 3) each: so3_exp and the left Jacobian of each row
    of an (n, 3) array (J None unless ``jacobian``), from one pass that
    shares the angles, their sines, W = w^ and W^2: E = I + a W + b W^2 and
    J = I + b W + c W^2, c = (t - sin t)/t^3.  a and b are array
    expressions in the order of ``_sin_cos_coeffs``, with np.sin in place of
    math.sin (on x86-64 with numpy 2.4 the two agreed on 2e7 sampled angles
    in [1e-7, 4]); the angles are clamped to SMALL_ANGLE, below which a and
    b take the series of ``_sin_cos_coeffs``, and c takes its series below
    SERIES_ANGLE.
    """
    w = np.asarray(w, dtype=float)
    theta = _row_norms(w)
    t = np.maximum(theta, SMALL_ANGLE)
    sin = np.sin(t)
    a = sin / t
    h = np.sin(0.5 * t) / t
    b = 2.0 * h * h
    small = theta < SMALL_ANGLE
    if small.any():
        a[small], b[small] = np.array(
            [_sin_cos_coeffs(x) for x in theta[small].tolist()]).T
    W = so3_hat(w)
    WW = W @ W
    E = _EYE3 + a[:, None, None] * W + b[:, None, None] * WW
    if not jacobian:
        return E, None
    # the series at the angles clamped to SERIES_ANGLE, replaced by the
    # closed form from there on
    c = _series(np.minimum(theta, SERIES_ANGLE) ** 2, _C_SERIES)
    large = theta >= SERIES_ANGLE
    if large.any():
        c[large] = ((t - sin) / (t * t * t))[large]
    return E, _EYE3 + b[:, None, None] * W + c[:, None, None] * WW


def so3_exp_stack(w):
    """so3_exp of each row of an (n, 3) array, as (n, 3, 3); equal to the
    per-row so3_exp bit for bit (``so3_exp_jacobian_stack`` without J)."""
    return so3_exp_jacobian_stack(w, jacobian=False)[0]


def so3_log(R):
    """Rotation vector of R (3, 3), or of each matrix of an (n, 3, 3) stack
    as (n, 3), equal to the per-matrix log bit for bit.

    Raises:
        AngleNearPi: if a rotation angle is within NEAR_PI_MARGIN of pi,
            where the logarithm is ill-conditioned.
    """
    R = np.asarray(R, dtype=float)
    if R.ndim == 2:
        return so3_log(R[None])[0]
    A = R - R.swapaxes(1, 2)
    axis_times_2sin = np.column_stack([A[:, 2, 1], A[:, 0, 2], A[:, 1, 0]])
    trace = R[:, 0, 0] + R[:, 1, 1] + R[:, 2, 2]
    # math.atan2 per row: numpy's arctan2 differs from it in the last bit
    # on some inputs
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
    """Left Jacobian of SO(3), J = I + b W + c W^2, at a 3-vector, or at
    each row of an (n, 3) array as (n, 3, 3) (see
    ``so3_exp_jacobian_stack``)."""
    w = np.asarray(w, dtype=float)
    return so3_exp_jacobian_stack(w.reshape(-1, 3))[1].reshape(w.shape + (3,))


def so3_left_jacobian_inv(w):
    """Inverse left Jacobian of SO(3), I - W/2 + d W^2, at a 3-vector, or
    at each row of an (n, 3) array as (n, 3, 3), with d =
    (1 - (t/2) cot(t/2)) / t^2 (its series below SERIES_ANGLE).

    Raises:
        SingularJacobian: if an |w| is within SINGULARITY_MARGIN of a
            nonzero multiple of 2*pi, where J drops rank.
    """
    w = np.asarray(w, dtype=float)
    rows = w.reshape(-1, 3)
    d = np.array([_inverse_coeff(x) for x in _row_norms(rows).tolist()])
    W = so3_hat(rows)
    J = _EYE3 - 0.5 * W
    J += d.reshape(-1, 1, 1) * (W @ W)
    return J.reshape(w.shape[:-1] + (3, 3))


def _inverse_coeff(theta):
    """d of ``so3_left_jacobian_inv`` at one angle."""
    if theta < SERIES_ANGLE:
        return _series(theta * theta, _D_SERIES)
    k = round(theta / (2.0 * np.pi))
    if k and abs(theta - 2.0 * np.pi * k) < SINGULARITY_MARGIN:
        raise SingularJacobian(
            f"|omega| = {theta:.9f} within {SINGULARITY_MARGIN} of {k}*2pi")
    half = 0.5 * theta
    return (1.0 - half / math.tan(half)) / (theta * theta)


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
    if t < SERIES_ANGLE:
        c1, c2, c3 = (_series(t2, q) for q in _Q_SERIES)
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
    M[:3, 3:] = xi[3:].reshape(n, 3).T
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
    return _first_column_blocks(so3_hat(omega), [so3_hat(v) for v in vs])


def _first_column_blocks(diag, column):
    """The 3 (n + 1) square matrix with the 3 x 3 block ``diag`` on its
    block diagonal and the n blocks of ``column`` below it in its first
    block column, zero elsewhere."""
    n = len(column)
    M = np.zeros((3 * (n + 1), 3 * (n + 1)))
    for i in range(n + 1):
        M[3 * i:3 * i + 3, 3 * i:3 * i + 3] = diag
    for i, C in enumerate(column):
        M[3 * i + 3:3 * i + 6, :3] = C
    return M


def sen_left_jacobian(xi):
    """Left Jacobian of SE_n(3), sum_i ad(xi)^i / (i+1)!, via the closed-form
    block layout: J(omega) blocks on the diagonal, Q_omega(v_i) in the first
    block column."""
    omega, vs = split_tangent(xi)
    return _first_column_blocks(so3_left_jacobian(omega),
                                [se3_q_matrix(omega, v) for v in vs])


def sen_left_jacobian_inv(xi):
    """Inverse of :func:`sen_left_jacobian`.

    Block layout: J(omega)^-1 on the diagonal, -J^-1 Q_omega(v_i) J^-1 in the
    first block column.

    Raises:
        SingularJacobian: if |omega| is within SINGULARITY_MARGIN of a nonzero
            multiple of 2*pi.
    """
    omega, vs = split_tangent(xi)
    Jinv = so3_left_jacobian_inv(omega)
    return _first_column_blocks(
        Jinv, [-Jinv @ se3_q_matrix(omega, v) @ Jinv for v in vs])
