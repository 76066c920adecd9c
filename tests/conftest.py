"""Shared test helpers; the per-step mean and covariance steps that the
interval predict replaced, the per-track triangulation (with the SVD rank
test and the ``lstsq`` start that the 3x3 normal equations replaced), clone
Jacobians, nullspace projection and window flush that the batched flush
replaced, the per-point camera projection, the single-vector SO(3) left
Jacobian and the per-clone group-product correction that the stacked forms
replaced, the Kalman update by one LU solve that the blocked forward
substitution replaced, the one-filter update and correction that the
stacked update of a list of filters replaced, the per-variant driver with
its per-filter errors and NEES that the lock-step driver replaced, and the
clone augmentation by ``np.block`` and marginalization by ``np.ix_`` that
the block copies replaced, the allocating covariance step that the
in-place one replaced, the landmark rows built as a dense H that the block
form replaced, and the bank stacked from one bank per variant that the
in-place build replaced, kept as their oracles; and the public functions
that only the tests called (the SE_n(3) log, vee and adjoint, the right
log-error rate and the identity IMU state), kept as oracles.  The
one-filter oracles read and write ``OneFilter``, one row of a filter bank
with the 2-D fields that a filter had before the filters became a bank."""

import copy
import types

import numpy as np
import pytest

from iekf_kit import filters, imu, lie, sim, vision
from iekf_kit.exceptions import (DegenerateGeometry, SingularCovariance,
                                 SingularInnovation)

ACCEL = np.array([0.3, 0.1, 9.7])


# the failures that the per-item oracles raise where the package sets a mask
class BehindCamera(Exception):
    """Point has non-positive depth in the camera frame."""


class ZeroRange(Exception):
    """Point is at (numerically) zero range from the camera center."""


class Diverged(Exception):
    """Iterative refinement failed to converge."""


def _check_domain(model, x_cam):
    if model.mode == "bearing" and np.linalg.norm(x_cam) < vision.RANGE_EPS:
        raise ZeroRange("point at the camera center")
    if x_cam[2] <= vision.DEPTH_EPS:
        raise BehindCamera(f"depth {x_cam[2]:.3e}")


def _project_point(model, x_cam):
    """``CameraModel.project`` of one camera-frame point (3,), as it was
    before it took stacks: the pixel (2,).

    Raises:
        ZeroRange: bearing mode, point at the camera center.
        BehindCamera: non-positive depth.
    """
    x_cam = np.asarray(x_cam, dtype=float)
    _check_domain(model, x_cam)
    if model.mode == "bearing":
        y = model.K @ (x_cam / np.linalg.norm(x_cam))
        return y[:2] / y[2]
    return np.array([model.fx * x_cam[0] / x_cam[2] + model.cx,
                     model.fy * x_cam[1] / x_cam[2] + model.cy])


def _projection_jacobian_point(model, x_cam):
    """The 2 x 3 derivative of ``_project_point``, shared by both modes.

    Raises:
        ZeroRange, BehindCamera: as ``_project_point``.
    """
    x_cam = np.asarray(x_cam, dtype=float)
    _check_domain(model, x_cam)
    x, y, z = x_cam
    return np.array([[model.fx / z, 0.0, -model.fx * x / z ** 2],
                     [0.0, model.fy / z, -model.fy * y / z ** 2]])


def _so3_left_jacobian_vector(w):
    """``lie.so3_left_jacobian`` at one 3-vector, as it was before it took
    stacks."""
    w = np.asarray(w, dtype=float)
    theta = float(np.linalg.norm(w))
    W = lie.so3_hat(w)
    _, b = lie._sin_cos_coeffs(theta)
    if theta < lie.SMALL_ANGLE:
        t2 = theta * theta
        c = (1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
             - t2 * t2 * t2 / 362880.0)
    else:
        c = (theta - np.sin(theta)) / (theta ** 3)
    return np.eye(3) + b * W + c * (W @ W)


class OneFilter:
    """Row ``i`` of the filter bank ``bank``, copied, as one filter with
    2-D fields: the variant, the state with (3, 3) and (3,) fields, P
    (d, d), the landmarks (m, 3) or None, ``fej``'s first estimates (m, 3)
    or None, the clones (c, 3, 3) and (c, 3), a copy of the row's
    generator, and the noise spec."""

    def __init__(self, bank, i=0):
        self.variant = bank.variants[i]
        self.state = bank.state[i].copy()
        self.P = bank.P[i].copy()
        self.noise = bank.noise
        self.rng = copy.deepcopy(bank.rngs[i])
        m = bank.n_landmarks
        self.landmarks = bank.landmarks[i].copy() if m else None
        self.first_landmarks = (bank.first_landmarks[i].copy()
                                if m and self.variant.tag == "fej" else None)
        self.clone_R = bank.clone_R[i].copy()
        self.clone_p = bank.clone_p[i].copy()

    @property
    def n_landmarks(self):
        return 0 if self.landmarks is None else len(self.landmarks)

    @property
    def core_dim(self):
        return 15 + 3 * self.n_landmarks

    @property
    def dim(self):
        return self.core_dim + 6 * len(self.clone_p)

    def clone_index(self, i):
        return self.core_dim + 6 * i

    def store(self, bank, i=0):
        """Write this filter back into row ``i`` of ``bank`` (one layout)."""
        for name, x in vars(self.state).items():
            getattr(bank.state, name)[i] = x
        bank.P[i] = self.P
        if self.landmarks is not None:
            bank.landmarks[i] = self.landmarks
        bank.clone_R[i], bank.clone_p[i] = self.clone_R, self.clone_p


def _group_element(R, columns):
    """The SE_n(3) matrix of a rotation and its n translation columns."""
    t = np.asarray(columns, dtype=float).reshape(-1, 3)
    X = np.eye(3 + len(t))
    X[:3, :3] = R
    X[:3, 3:] = t.T
    return X


def _apply_correction_per_clone(filt, d):
    """``FilterInstance.apply_correction`` as it was before the clones were
    stacked: for the invariant error the group product sen_exp(c) X on
    SE_{m+2}(3) for the IMU pose and landmarks and on SE(3) for each clone,
    for the EKF family one rotation exponential per pose; clone by clone."""
    d = np.asarray(d, dtype=float)
    st = filt.state
    m = filt.n_landmarks
    if filt.variant.invariant:
        tangent = np.concatenate([d[:9], d[15:15 + 3 * m]])
        X = lie.sen_exp(tangent) @ _group_element(
            st.R, [st.p, st.v] + ([] if m == 0 else list(filt.landmarks)))
        st.R = X[:3, :3].copy()
        cols = X[:3, 3:].T.copy()
        st.p, st.v = cols[0], cols[1]
        if m:
            filt.landmarks = cols[2:]
        for i in range(len(filt.clone_p)):
            k = filt.clone_index(i)
            Xc = lie.sen_exp(d[k:k + 6]) @ _group_element(filt.clone_R[i],
                                                          filt.clone_p[i])
            filt.clone_R[i] = Xc[:3, :3]
            filt.clone_p[i] = Xc[:3, 3]
    else:
        st.R = lie.so3_exp(d[:3]) @ st.R
        st.p = st.p + d[3:6]
        st.v = st.v + d[6:9]
        if m:
            filt.landmarks = filt.landmarks + d[15:15 + 3 * m].reshape(m, 3)
        for i in range(len(filt.clone_p)):
            k = filt.clone_index(i)
            filt.clone_R[i] = lie.so3_exp(d[k:k + 3]) @ filt.clone_R[i]
            filt.clone_p[i] = filt.clone_p[i] + d[k + 3:k + 6]
    st.b_omega = st.b_omega + d[9:12]
    st.b_a = st.b_a + d[12:15]


def _clone_camera_pose_block(filt, R_cam, p_cam):
    """``FilterInstance.clone_camera_pose`` as it was before it wrote the
    augmented covariance by blocks: the four blocks joined by
    ``np.block``."""
    J = np.zeros((6, filt.dim))
    J[:3, :3] = np.eye(3)
    J[3:6, 3:6] = np.eye(3)
    if not filt.variant.invariant:
        J[3:6, :3] = -lie.so3_hat(p_cam - filt.state.p)
    PJt = filt.P @ J.T
    JPJt = J @ PJt
    filt.P = np.block([[filt.P, PJt], [PJt.T, 0.5 * (JPJt + JPJt.T)]])
    filt.clone_R = np.concatenate((filt.clone_R, [R_cam]))
    filt.clone_p = np.concatenate((filt.clone_p, [p_cam]))


def _marginalize_clone_ix(filt, i):
    """``FilterInstance.marginalize_clone`` as it was before it copied the
    covariance by blocks: the kept rows and columns through ``np.ix_``."""
    k = filt.clone_index(i)
    keep = np.r_[0:k, k + 6:filt.dim]
    filt.P = filt.P[np.ix_(keep, keep)]
    filt.clone_R = np.delete(filt.clone_R, i, axis=0)
    filt.clone_p = np.delete(filt.clone_p, i, axis=0)


def _mean_vector(filt):
    """The filter's mean as one vector: the IMU state, each clone's R and p,
    then the landmarks if the filter has any."""
    st = filt.state
    clones = np.hstack((filt.clone_R.reshape(-1, 9), filt.clone_p))
    parts = [st.R.ravel(), st.p, st.v, st.b_omega, st.b_a, clones.ravel()]
    if filt.landmarks is not None:
        parts.append(filt.landmarks.ravel())
    return np.concatenate(parts)


def _update_raw_lu(filt, residual, H, N):
    """``FilterInstance.update_raw`` as it was before the blocked forward
    substitution: W and z from one ``np.linalg.solve`` (a pivoted LU)
    against the Cholesky factor L of S, and P - W^T W as a fresh array."""
    HP = H @ filt.P
    L = np.linalg.cholesky(HP @ H.T + N)
    Wz = np.linalg.solve(L, np.column_stack((HP, residual)))
    W, z = Wz[:, :-1], Wz[:, -1]
    _apply_correction_filter(filt, W.T @ z)
    filt.P = filt.P - W.T @ W


def _update_raw_filter(filt, residual, H, N):
    """``FilterInstance.update_raw`` of one filter as it was before the
    filters of a paired run were updated in one call: 2-D products, one
    Cholesky factor, and ``_apply_correction_filter``."""
    residual = np.asarray(residual, dtype=float)
    H = np.asarray(H, dtype=float)
    N = np.asarray(N, dtype=float)
    HP = H @ filt.P
    try:
        L = np.linalg.cholesky(HP @ H.T + N)
    except np.linalg.LinAlgError:
        raise SingularInnovation(
            "innovation covariance is not positive definite") from None
    diag = np.diagonal(L)
    ratio = (diag.max() / diag.min()) ** 2
    if ratio > 1e12:
        raise SingularInnovation(
            f"innovation Cholesky diagonal ratio squared {ratio:.3e}")
    Wz = np.column_stack((HP, residual))
    for s in range(0, len(L), filters.SOLVE_BLOCK):
        e = s + filters.SOLVE_BLOCK
        rhs = Wz[s:e] - L[s:e, :s] @ Wz[:s] if s else Wz[s:e]
        Wz[s:e] = np.linalg.inv(L[s:e, s:e]) @ rhs
    W, z = Wz[:, :-1], Wz[:, -1]
    _apply_correction_filter(filt, W.T @ z)
    WtW = W.T @ W
    filt.P = np.subtract(filt.P, WtW, out=WtW)


def _apply_correction_filter(filt, d):
    """``FilterInstance.apply_correction`` of one filter as it was before
    the filters of a paired run were corrected in one call: one stacked
    exponential and left Jacobian on the filter's pose and clone rows."""
    d = np.asarray(d, dtype=float)
    st = filt.state
    m = filt.n_landmarks
    c = d[filt.core_dim:].reshape(-1, 6)
    omega = np.concatenate((d[None, :3], c[:, :3]))
    E = lie.so3_exp_stack(omega)
    if filt.variant.invariant:
        J = lie.so3_left_jacobian(omega)
        u = np.concatenate((d[3:9], d[15:15 + 3 * m])).reshape(-1, 3)
        levers = (np.array((st.p, st.v)) if m == 0
                  else np.vstack((st.p, st.v, filt.landmarks)))
        t = levers @ E[0].T + u @ J[0].T
        st.p, st.v = t[0], t[1]
        if m:
            filt.landmarks = t[2:]
        if len(c):
            filt.clone_p = (E[1:] @ filt.clone_p[:, :, None]
                            + J[1:] @ c[:, 3:, None])[:, :, 0]
    else:
        st.p = st.p + d[3:6]
        st.v = st.v + d[6:9]
        if m:
            filt.landmarks = filt.landmarks + d[15:15 + 3 * m].reshape(m, 3)
        if len(c):
            filt.clone_p = filt.clone_p + c[:, 3:]
    st.R = E[0] @ st.R
    if len(c):
        filt.clone_R = E[1:] @ filt.clone_R
    st.b_omega = st.b_omega + d[9:12]
    st.b_a = st.b_a + d[12:15]


def _variant_jacobians(tag, st, lms=np.zeros((0, 3)), accel=ACCEL,
                       xi_delta=None):
    """(F, G, U) of ``filters.error_jacobians`` for one step from ``st``,
    from the inputs that ``FilterInstance.predict`` gives it for variant
    ``tag``: gravity, the lever arms (p, v) and the landmarks for the
    invariant error, -R (a_m - b_a) and zero lever arms for the EKF
    family; ``xi_delta`` is a (1, 3) imitation draw."""
    lms = np.asarray(lms, dtype=float).reshape(-1, 3)
    if tag in filters.INVARIANT_TAGS:
        F, G, U = filters.error_jacobians(
            st.R[None], imu.DEFAULT_GRAVITY, np.array([[st.p, st.v]]), lms,
            xi_delta)
    else:
        drift = -(st.R @ (np.asarray(accel, dtype=float) - st.b_a))
        F, G, U = filters.error_jacobians(st.R[None], drift[None],
                                          np.zeros((1, 2, 3)), None,
                                          xi_delta)
    return F[0], G[0], U


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
    the closed form of one covariance step evaluated without the row
    structure."""
    F2 = F @ F
    F3 = F2 @ F
    Phi = np.eye(len(F)) + F * dt + F2 * (dt * dt / 2) + F3 * (dt ** 3 / 6)
    W = np.hstack([G, F @ G, F2 @ G, F3 @ G])
    return Phi @ P @ Phi.T + W @ imu.noise_kernel(Q, dt) @ W.T


def _step_covariance(P, F, G, U, Q, dt):
    """One per-step covariance step P <- Phi P Phi^T + Q_d, exact for
    F^4 = 0: ``imu.propagate_covariance`` as it was before the steps of an
    interval were composed on the core rows.

    Of the d rows of P the first k are dense, the next n are driven through
    the n x r factor U, and the rest are static: F = [Fk; Fr] ((k + r) x k)
    and G = [Gk; Gr] ((k + r) x 12).  With T = diag(I_k, U),
    V = F (dt I + dt^2/2 Fk + dt^3/6 Fk^2), W = [G, F Gk, F Fk Gk,
    F Fk^2 Gk] and D = V P[:k, :k] V^T + W (C(dt) kron Q) W^T, the step is
    P + Z + Z^T with Z = T (V P[:k] + [D T^T / 2, 0])."""
    k = F.shape[1]
    Fk = F[:k]
    Gk = G[:k]
    M = (dt ** 3 / 6) * (Fk @ Fk) + (dt * dt / 2) * Fk
    M.ravel()[::k + 1] += dt    # + dt I
    FkGk = Fk @ Gk
    X = F @ np.hstack((M, Gk, FkGk, Fk @ FkGk))    # V and W[:, 12:]
    V = X[:, :k]
    W = np.hstack((G, X[:, k:]))
    Zr = V @ P[:k]
    D = Zr[:, :k] @ V.T + W @ imu.noise_kernel(Q, dt) @ W.T
    if len(U):
        n = len(U)
        Zr[:, :k + n] += np.hstack((0.5 * D[:, :k], (0.5 * D[:, k:]) @ U.T))
        Z = np.vstack((Zr[:k], U @ Zr[k:]))
    else:
        Z = Zr
        Z[:, :k] += 0.5 * D
    c = len(Z)
    P_new = P.copy()
    Zc = Z[:, :c]
    P_new[:c, :c] += Zc + Zc.T
    P_new[:c, c:] += Z[:, c:]
    P_new[c:, :c] = P_new[:c, c:].T
    return P_new


def _propagate_covariance_copy(P, V, Q, U):
    """``imu.propagate_covariance`` as it was before it wrote P in place:
    Z and Z + Z^T as fresh arrays and the result, (Z + Z^T) + P, as a new
    (B, d, d) array; P is never written."""
    k = V.shape[-1]
    r = V.shape[-2] - k
    d = P.shape[-1]
    Zr = V @ P[:, :k]
    D = Zr[..., :k] @ V.swapaxes(-1, -2) + Q
    if r:
        n = U.shape[-2]
        Zr[..., :k + n] += np.concatenate(
            (0.5 * D[..., :k], (0.5 * D[..., k:]) @ U.swapaxes(-1, -2)),
            axis=-1)
        Z = np.empty((len(P), k + n, d))
        Z[:, :k] = Zr[:, :k]
        np.matmul(U, Zr[:, k:], out=Z[:, k:])
    else:
        Z = Zr
        Z[..., :k] += 0.5 * D
    c = Z.shape[-2]
    if c == d:
        P_new = Z + Z.swapaxes(-1, -2)
        P_new += P
    else:
        P_new = P.copy()
        Zc = Z[..., :c]
        P_new[:, :c, :c] += Zc + Zc.swapaxes(-1, -2)
        P_new[:, :c, c:] += Z[..., c:]
        P_new[:, c:, :c] = P_new[:, :c, c:].swapaxes(-1, -2)
    return P_new


def _full_row_error_jacobians(R, drift, n_landmarks, levers=None,
                              xi_delta=None):
    """One step's error model with every row stored: F as its c x 15 IMU
    columns and G (c x 12), c = 15 + 3 m, as ``filters.error_jacobians``
    produced it before the landmark rows were factored.  ``levers`` are the rows (p, v, f_1,
    ..., f_m) for the invariant error, ``xi_delta`` the 3-vector imitation
    error.  The oracle for the row-factored form."""
    c = 15 + 3 * n_landmarks
    G = np.zeros((c, 12))
    B = G[:, :6]
    B[:3, :3] = R
    B[6:9, 3:6] = R
    if levers is not None:
        uR = np.vstack([lie.so3_hat(u) @ R for u in levers])
        B[3:9, :3] = uR[:6]
        B[15:, :3] = uR[6:]
    if xi_delta is not None:
        Jinv = lie.so3_left_jacobian_inv(xi_delta)
        B[:] = np.vstack([Jinv @ blk for blk in B.reshape(-1, 3, 6)])
    F = np.zeros((c, 15))
    F[:9, :9] = imu.imu_error_matrix_a(drift)
    F[:, 9:15] = -B
    G[9:15, 6:] = np.eye(6)
    return F, G


def _propagate_step(state, omega, accel, dt, gravity):
    """One mean step from one reading ((3,) each), with the bias-corrected
    inputs held constant: ``imu.propagate_mean`` as it was before it took a
    stack of readings.

    R <- R Exp((w_m - b_w) dt); v and p by the constant-acceleration rule with
    the world-frame acceleration R(a_m - b_a) + g evaluated at the step start.
    Biases are unchanged.
    """
    w = omega - state.b_omega
    a_body = accel - state.b_a
    a_world = state.R @ a_body + gravity
    R_new = state.R @ lie.so3_exp(w * dt)
    v_new = state.v + a_world * dt
    p_new = state.p + state.v * dt + 0.5 * a_world * dt * dt
    return imu.ImuState(R_new, p_new, v_new, state.b_omega.copy(),
                        state.b_a.copy())


def _predict_per_step(filt, omega, accel, dt):
    """``FilterInstance.predict`` over an interval as it ran before: one
    reading (a row of ``omega`` and ``accel``) at a time, the imitation
    error drawn per step, the error model with every landmark row stored,
    and the per-step mean and covariance steps."""
    Q = filt.noise.q_imu()
    g = filt.noise.gravity
    m = filt.n_landmarks
    for w, a in zip(omega, accel):
        st = filt.state
        xi = (filt.rng.uniform(-filt.variant.r, filt.variant.r, 3)
              if filt.variant.tag == "ij_iekf" else None)
        if filt.variant.invariant:
            levers = np.vstack((st.p, st.v, filt.landmarks.reshape(-1, 3)
                                if m else np.zeros((0, 3))))
            F, G = _full_row_error_jacobians(st.R, g, m, levers, xi)
        else:
            drift = -(st.R @ (a - st.b_a))
            F, G = _full_row_error_jacobians(st.R, drift, m, None, xi)
        # every landmark row is a basis row: U is the identity
        filt.P = _step_covariance(filt.P, F, G, np.eye(3 * m), Q, dt)
        filt.state = _propagate_step(st, w, a, dt, g)


def _triangulate_track(model, poses, pixels):
    """``vision.triangulate`` of one track, as it was before it took a
    stack of tracks and started from the 3x3 normal equations: the world
    point from the pixels (n, 2) seen from the camera poses
    [(R_c, p_c), ...], started by ``lstsq`` on the stacked projectors after
    an SVD rank test.

    Raises:
        DegenerateGeometry: parallel/degenerate rays, or a singular normal
            matrix.
        Diverged: the refined point moved behind a camera, or Gauss-Newton
            did not reach the step tolerance.
    """
    R = np.array([R_c for R_c, _ in poses], dtype=float)
    p = np.array([p_c for _, p_c in poses], dtype=float)
    uv = np.asarray(pixels, dtype=float).reshape(-1, 2)
    rays = np.linalg.solve(model.K, np.vstack([uv.T, np.ones(len(uv))])).T
    rays = R @ (rays / np.linalg.norm(rays, axis=1)[:, None])[:, :, None]
    P = np.eye(3) - rays * rays.transpose(0, 2, 1)
    A = P.reshape(-1, 3)
    b = (P @ p[:, :, None]).reshape(-1)
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[2] <= vision.RANK_RTOL * sv[0]:
        raise DegenerateGeometry("rays do not intersect transversally")
    f, *_ = np.linalg.lstsq(A, b, rcond=None)
    Rt = R.transpose(0, 2, 1)
    for _ in range(vision.TRIANGULATE_MAX_ITERS):
        x_cam = vision.world_to_camera(R, p, f)
        if np.any(x_cam[:, 2] <= vision.DEPTH_EPS):
            raise Diverged("refined point moved behind a camera")
        pred, J_pi = model.project(x_cam)
        J = (J_pi @ Rt).reshape(-1, 3)
        try:
            step = np.linalg.solve(J.T @ J, J.T @ (uv - pred).reshape(-1))
        except np.linalg.LinAlgError as e:
            raise DegenerateGeometry(str(e)) from e
        f = f + step
        if np.linalg.norm(step) < vision.TRIANGULATE_STEP_TOL:
            return f
    raise Diverged("no convergence")


def _clone_feature_jacobians_track(filt, model, clone_indices, f_world):
    """``vision.clone_feature_jacobians`` of one track, as it was before it
    took a stack of tracks: the prediction (2n,), H_x (2n, dim) and H_f
    (2n, 3) of the feature f_world seen from the clones ``clone_indices``
    (n,).

    Raises:
        ZeroRange, BehindCamera: the feature is outside a clone's projection
            domain.
    """
    clone_indices = np.asarray(clone_indices, dtype=int).reshape(-1)
    f_world = np.asarray(f_world, dtype=float)
    n = len(clone_indices)
    R = filt.clone_R[clone_indices]
    p = filt.clone_p[clone_indices]
    x_cam = vision.world_to_camera(R, p, f_world)
    zero_range, behind = model.outside_domain(x_cam)
    if np.any(zero_range):
        raise ZeroRange("feature at a clone's camera center")
    if np.any(behind):
        raise BehindCamera(f"depth {x_cam[:, 2].min():.3e}")
    pred, J_pi = model.project(x_cam)
    JS = J_pi @ R.transpose(0, 2, 1)
    if filt.variant.invariant:
        rot = JS @ lie.so3_hat(f_world)
    else:
        rot = vision._cross_rows(JS, (f_world - p)[:, None, :])
    block = np.concatenate([rot, -JS], axis=2)
    H_x = np.zeros((n, 2, filt.dim))
    cols = filt.clone_index(clone_indices)[:, None, None] + np.arange(6)
    H_x[np.arange(n)[:, None, None], np.arange(2)[:, None], cols] = block
    return pred.reshape(-1), H_x.reshape(2 * n, filt.dim), JS.reshape(-1, 3)


def _nullspace_project_track(residual, H_x, H_f):
    """``vision.nullspace_project`` of one track, as it was before it took
    a stack of tracks: the residual (m,) and rows H_x (m, dim) projected
    onto the left nullspace of H_f (m, 3).

    Raises:
        DegenerateGeometry: fewer than four rows, or H_f rank deficient.
    """
    H_f = np.asarray(H_f, dtype=float)
    if H_f.shape[0] < 4:
        raise DegenerateGeometry("need at least two observations")
    Q, Rf = np.linalg.qr(H_f, mode="complete")
    if np.abs(np.diag(Rf)[:3]).min() <= vision.RANK_RTOL * np.abs(Rf).max():
        raise DegenerateGeometry("feature Jacobian is rank deficient")
    Q2 = Q[:, 3:]
    return Q2.T @ residual, Q2.T @ H_x


def _flush_per_track(upd, filt, feature_ids):
    """``SlidingWindowUpdater._flush`` of the bank of one ``filt`` as it ran
    before the tracks were batched: one track at a time, in order, until
    ``max_features`` are used, each through ``vision.triangulate`` as a
    group of one, ``_clone_feature_jacobians_track`` and
    ``_nullspace_project_track``; the drops are counted in
    ``upd.dropped``."""
    rows_r, rows_H = [], []
    used = 0
    for fid in feature_ids:
        track = upd.tracks.pop(fid)
        if used >= upd.max_features:
            upd.dropped["max_features"] += 1
            continue
        track = [(s, uv) for s, uv in track if s in upd._window]
        if len(track) < 3:
            upd.dropped["too_short"] += 1
            continue
        idx = [upd._window.index(s) for s, _ in track]
        pixels = np.array([uv for _, uv in track])
        f, degenerate, diverged = vision.triangulate(
            upd.model, filt.clone_R[:, idx], filt.clone_p[:, idx],
            pixels[None])
        if degenerate[0] or diverged[0]:
            upd.dropped["degenerate" if degenerate[0] else "diverged"] += 1
            continue
        f = f[0]
        try:
            pred, H_x, H_f = _clone_feature_jacobians_track(
                OneFilter(filt), upd.model, idx, f)
        except (ZeroRange, BehindCamera):
            upd.dropped["outside_domain"] += 1
            continue
        try:
            r0, H0 = _nullspace_project_track(pixels.reshape(-1) - pred,
                                              H_x, H_f)
        except DegenerateGeometry:
            upd.dropped["degenerate"] += 1
            continue
        rows_r.append(r0)
        rows_H.append(H0)
        used += 1
    if not rows_r:
        return 0
    residual, H = vision.compress_measurement(np.concatenate(rows_r),
                                              np.vstack(rows_H))
    filt.update_raw(residual[None], H[None],
                    np.eye(len(residual)) * upd.sigma_px ** 2)
    return used


def _sen_vee(M):
    """Inverse of ``lie.sen_hat`` (exact)."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0] - 3
    xi = np.empty(3 * (n + 1))
    xi[:3] = lie.so3_vee(M[:3, :3])
    for i in range(n):
        xi[3 * (i + 1):3 * (i + 2)] = M[:3, 3 + i]
    return xi


def _sen_log(X):
    """Logarithm map, the exact inverse of ``lie.sen_exp`` inside the
    injectivity radius.

    Raises:
        AngleNearPi: if the rotation angle is within NEAR_PI_MARGIN of pi.
    """
    X = np.asarray(X, dtype=float)
    omega = lie.so3_log(X[:3, :3])
    Jinv = lie.so3_left_jacobian_inv(omega)
    n = X.shape[0] - 3
    xi = np.empty(3 * (n + 1))
    xi[:3] = omega
    for i in range(n):
        xi[3 * (i + 1):3 * (i + 2)] = Jinv @ X[:3, 3 + i]
    return xi


def _sen_adjoint(X):
    """Matrix of Ad_X: R on the block diagonal, t_i^ R in the first block
    column."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0] - 3
    R = X[:3, :3]
    A = np.zeros((3 * (n + 1), 3 * (n + 1)))
    A[:3, :3] = R
    for i in range(n):
        r = 3 * (i + 1)
        A[r:r + 3, r:r + 3] = R
        A[r:r + 3, :3] = lie.so3_hat(X[:3, 3 + i]) @ R
    return A


def _right_error_rate(xi, vg, w, adjoint_of_estimate, A):
    """Rate of the right log-error: ad(vg) xi + J(ad_xi)^-1 Ad_est w + A xi."""
    xi = np.asarray(xi, dtype=float)
    return (lie.sen_ad(vg) @ xi
            + lie.sen_left_jacobian_inv(xi)
            @ (np.asarray(adjoint_of_estimate, dtype=float)
               @ np.asarray(w, dtype=float))
            + np.asarray(A, dtype=float) @ xi)


def _identity_state():
    """The identity IMU state: R = I, zero position, velocity and biases."""
    return imu.ImuState(np.eye(3), np.zeros(3), np.zeros(3), np.zeros(3),
                        np.zeros(3))


def _errors_filter(filt, truth):
    """``filters.errors`` of one filter, as the ``FilterInstance.errors``
    method computed it before the filters were stacked: (pos_err, ang_err)
    (3,) each."""
    R_tilde = filt.state.R @ truth.R.T
    ang_err = lie.so3_log(R_tilde)
    if filt.variant.invariant:
        pos_err = filt.state.p - R_tilde @ truth.p
    else:
        pos_err = filt.state.p - truth.p
    return pos_err, ang_err


def _nees_filter(filt, errors):
    """``filters.nees`` of one filter, as the ``FilterInstance.nees`` method
    computed it before the filters were stacked: one Cholesky per 3x3
    block and the forward substitution on Python floats.

    Raises:
        SingularCovariance: as ``filters.nees``.
    """
    pos_err, ang_err = errors
    out = []
    for err, sl in ((pos_err, slice(3, 6)), (ang_err, slice(0, 3))):
        try:
            L = np.linalg.cholesky(filt.P[sl, sl])
        except np.linalg.LinAlgError:
            raise SingularCovariance(
                "NEES block is not positive definite") from None
        (l00, _, _), (l10, l11, _), (l20, l21, l22) = L.tolist()
        ratio = (max(l00, l11, l22) / min(l00, l11, l22)) ** 2
        if ratio > 1e12:
            raise SingularCovariance(
                f"NEES block Cholesky diagonal ratio squared {ratio:.3e}")
        e0, e1, e2 = np.asarray(err, dtype=float).tolist()
        y0 = e0 / l00
        y1 = (e1 - l10 * y0) / l11
        y2 = (e2 - l20 * y0 - l21 * y1) / l22
        out.append((y0 * y0 + y1 * y1 + y2 * y2) / 3.0)
    return out[0], out[1]


def _run_filter_per_variant(scenario, truth, frames, filt):
    """``sim.run_filter`` of the bank of one ``filt``, as it ran before the
    variants were driven in lock step: the filter's own ``predict``, its
    own ``vision.landmark_measurement`` with the rows expanded to the
    dense H, ``_update_raw_filter``, and
    ``_errors_filter`` and ``_nees_filter`` at each camera epoch.  Returns
    its list of per-epoch tuples (t, pos_nees, ang_nees, |pos_err|,
    |ang_err|)."""
    dt = 1.0 / scenario.imu_rate
    every = scenario.camera_every
    records = []
    for i, frame in enumerate(frames):
        k = (i + 1) * every
        filt.predict(truth.omega[k - every:k], truth.accel[k - every:k], dt)
        (_, residual, H, N, _), = vision.landmark_measurement(
            filt, scenario.camera, scenario.extrinsics,
            list(frame.values()), scenario.pixel_sigma,
            landmark_index=list(frame))
        one = OneFilter(filt)
        if residual.size:
            _update_raw_filter(one, residual[0], H.dense()[0], N)
            one.store(filt)
        errors = _errors_filter(one, truth.states[k])
        pos_nees, ang_nees = _nees_filter(one, errors)
        records.append((truth.times[k], pos_nees, ang_nees,
                        float(np.linalg.norm(errors[0])),
                        float(np.linalg.norm(errors[1]))))
    return records


def _landmark_measurement_dense(bank, model, ext, pixels, sigma_px,
                                landmark_index):
    """``vision.landmark_measurement`` as it was before it returned the
    rows in block form: one tuple (rows, residual (g, 2k), H (g, 2k, dim),
    N (2k, 2k), kept) per group of filters that keep the same
    observations, H built dense for every filter and observation at once
    and then selected."""
    landmark_index = np.asarray(landmark_index, dtype=int).reshape(-1)
    pixels = np.asarray(pixels, dtype=float).reshape(-1, 2)
    b, n, dim = len(bank.variants), len(landmark_index), bank.dim
    R = bank.state.R
    R_c = R @ ext.R_ic
    p = bank.state.p
    p_c = p + R @ ext.p_ic
    x_cam = vision.world_to_camera(R_c[:, None], p_c[:, None],
                                   bank.landmarks[:, landmark_index])
    zero_range, behind = model.outside_domain(x_cam.reshape(-1, 3))
    keep = ~(zero_range | behind).reshape(b, n)
    if not keep.all():
        x_cam[~keep] = np.nan
    pred, J_pi = model.project(x_cam.reshape(-1, 3))
    JS = J_pi.reshape(b, n, 2, 3) @ R_c.swapaxes(1, 2)[:, None]
    H = np.zeros((b, n, 2, dim))
    H[..., 3:6] = -JS
    ekf = np.flatnonzero(~bank.invariant)
    if len(ekf):
        f_lin = np.where(bank.fej[:, None, None], bank.first_landmarks,
                         bank.landmarks)[ekf][:, landmark_index]
        H[ekf, ..., 0:3] = vision._cross_rows(
            JS[ekf], (f_lin - p[ekf, None])[:, :, None, :])
    cols = 15 + 3 * landmark_index[:, None, None] + np.arange(3)
    H[:, np.arange(n)[:, None, None], np.arange(2)[:, None], cols] = JS
    residual = (pixels - pred.reshape(b, n, 2)).reshape(b, 2 * n)
    H = H.reshape(b, 2 * n, dim)
    if (keep == keep[0]).all():
        groups = [(None, keep[0])]
    else:
        groups = [(np.flatnonzero((keep == k).all(axis=1)), k)
                  for k in np.unique(keep, axis=0)]
    out = []
    for rows, k in groups:
        r, h = (residual, H) if rows is None else (residual[rows], H[rows])
        kept = np.flatnonzero(k)
        if len(kept) < n:
            obs = (2 * kept[:, None] + np.arange(2)).ravel()
            r, h = r[:, obs], h[:, obs]
        out.append((rows, r, h, np.eye(2 * len(kept)) * sigma_px ** 2, kept))
    return out


def _perturbed_filter_stack(variants, truth0, landmarks, init, scenario,
                            rng):
    """``sim.perturbed_filter`` as it was before the bank was built in
    place: one bank of one per variant, each copying its own prior, joined
    by ``FilterInstance.stack``."""
    m = len(landmarks)
    sig = init.sigmas(m)
    e = sig * rng.standard_normal(len(sig))
    st = imu.ImuState(
        lie.so3_exp(e[0:3]) @ truth0.R,
        truth0.p + e[3:6],
        truth0.v + e[6:9],
        truth0.b_omega + e[9:12],
        truth0.b_a + e[12:15])
    lm_est = landmarks + e[15:].reshape(m, 3)
    seed = rng.integers(2 ** 63)
    return filters.FilterInstance.stack([filters.FilterInstance(
        v, st, filters.invariant_initial_covariance(st, sig, lm_est)
        if v.invariant else np.diag(sig ** 2), scenario.noise,
        rng=np.random.default_rng(seed), landmarks=lm_est) for v in variants])


def _monte_carlo_single_run_per_variant(scenario, variants, init, seed,
                                        run_index):
    """``sim.monte_carlo_single_run`` as it ran before the variants were
    driven in lock step: the same truth, frames and initial perturbation,
    then ``_run_filter_per_variant`` for one variant after the other."""
    children = np.random.SeedSequence(seed, spawn_key=(run_index,)).spawn(3)
    rng_truth = np.random.default_rng(children[0])
    rng_cam = np.random.default_rng(children[1])
    rng_init = np.random.default_rng(children[2])
    truth = sim.synthesize_truth(scenario, rng_truth)
    every = scenario.camera_every
    frames = [sim.camera_frame(scenario, truth.states[k], truth.landmarks,
                               rng_cam)
              for k in range(every, len(truth.times), every)]
    init_state = rng_init.bit_generator.state
    out = {}
    for v in variants:
        rng_init.bit_generator.state = init_state
        filt = _perturbed_filter_stack([v], truth.states[0],
                                       truth.landmarks, init, scenario,
                                       rng_init)
        out[v.label] = _run_filter_per_variant(scenario, truth, frames, filt)
    return out


@pytest.fixture(scope="session")
def one_filter():
    return OneFilter


@pytest.fixture(scope="session")
def oracle_errors():
    return types.SimpleNamespace(BehindCamera=BehindCamera,
                                 ZeroRange=ZeroRange, Diverged=Diverged)


@pytest.fixture(scope="session")
def project_point():
    return _project_point


@pytest.fixture(scope="session")
def projection_jacobian_point():
    return _projection_jacobian_point


@pytest.fixture(scope="session")
def so3_left_jacobian_vector():
    return _so3_left_jacobian_vector


@pytest.fixture(scope="session")
def apply_correction_per_clone():
    return _apply_correction_per_clone


@pytest.fixture(scope="session")
def triangulate_track():
    return _triangulate_track


@pytest.fixture(scope="session")
def clone_feature_jacobians_track():
    return _clone_feature_jacobians_track


@pytest.fixture(scope="session")
def nullspace_project_track():
    return _nullspace_project_track


@pytest.fixture(scope="session")
def flush_per_track():
    return _flush_per_track


@pytest.fixture(scope="session")
def clone_camera_pose_block():
    return _clone_camera_pose_block


@pytest.fixture(scope="session")
def marginalize_clone_ix():
    return _marginalize_clone_ix


@pytest.fixture(scope="session")
def mean_vector():
    return _mean_vector


@pytest.fixture(scope="session")
def update_raw_lu():
    return _update_raw_lu


@pytest.fixture(scope="session")
def update_raw_filter():
    return _update_raw_filter


@pytest.fixture(scope="session")
def apply_correction_filter():
    return _apply_correction_filter


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


@pytest.fixture(scope="session")
def step_covariance():
    return _step_covariance


@pytest.fixture(scope="session")
def propagate_covariance_copy():
    return _propagate_covariance_copy


@pytest.fixture(scope="session")
def full_row_error_jacobians():
    return _full_row_error_jacobians


@pytest.fixture(scope="session")
def propagate_step():
    return _propagate_step


@pytest.fixture(scope="session")
def predict_per_step():
    return _predict_per_step


@pytest.fixture(scope="session")
def sen_vee():
    return _sen_vee


@pytest.fixture(scope="session")
def sen_log():
    return _sen_log


@pytest.fixture(scope="session")
def sen_adjoint():
    return _sen_adjoint


@pytest.fixture(scope="session")
def right_error_rate():
    return _right_error_rate


@pytest.fixture(scope="session")
def identity_state():
    return _identity_state


@pytest.fixture(scope="session")
def errors_filter():
    return _errors_filter


@pytest.fixture(scope="session")
def nees_filter():
    return _nees_filter


@pytest.fixture(scope="session")
def run_filter_per_variant():
    return _run_filter_per_variant


@pytest.fixture(scope="session")
def monte_carlo_single_run_per_variant():
    return _monte_carlo_single_run_per_variant


@pytest.fixture(scope="session")
def landmark_measurement_dense():
    return _landmark_measurement_dense


@pytest.fixture(scope="session")
def perturbed_filter_stack():
    return _perturbed_filter_stack
