"""Four estimator variants on one predict/update skeleton.

Variants: "ekf" (conventional world-frame error-state model), "fej" (the
ekf with the first-estimates Jacobian of Huang, Mourikis & Roumeliotis,
ISER 2008: the landmark rows' orientation block takes its lever arm from
each landmark's first estimate, ``first_landmarks``, and the predicted
position; propagation and the clone rows stay the ekf's, without the FEJ
of Li & Mourikis, IJRR 2013), "iekf" (right-invariant error model), and
"ij_iekf" (iekf with imitated-Jacobian covariance compensation of range r).

Error-state layout: (xi_omega, xi_p, xi_v, bg_err, ba_err[, landmarks...,
clones...]).  The covariance describes the "correction" convention: the
vector c such that applying c to the estimate recovers the truth --
left-multiplicative exp(c) on the group part for the invariant variants,
world-frame rotation times additive vector parts for the EKF family.
Measurement builders must therefore supply H with residual ~ H c + noise;
the gain times residual is then applied directly as a correction.

A ``FilterInstance`` is a bank: the filters of one paired run, of one state
layout and one noise spec, as the rows of stacked arrays.  Every stage
(``predict_all``, ``update_raw``, ``apply_correction``, the clone
augmentation and marginalization) runs once for all rows, whatever their
variants, and writes them in place; one filter is a bank of one.
``errors`` and ``nees`` take the estimates of any number of filters and
epochs at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import imu as imu_model
from . import lie
from ._checks import is_real
from .exceptions import SingularCovariance, SingularInnovation
from .vision import LandmarkRows

INVARIANT_TAGS = ("iekf", "ij_iekf")
EKF_FAMILY_TAGS = ("ekf", "fej")
ALL_TAGS = EKF_FAMILY_TAGS + INVARIANT_TAGS

# rows per block of update_raw's forward substitution against the
# innovation factor (numpy has no triangular solve): a few small inverses
# and products cost less than np.linalg.solve's pivoted LU, and an update
# of at most 24 rows, as every one of the study's is, takes one block
SOLVE_BLOCK = 24

_EYE3 = np.eye(3)
_EYE6 = np.eye(6)
# the position and orientation blocks of the covariance, in NEES order
_NEES_BLOCKS = (slice(3, 6), slice(0, 3))
# e_a^ for a = 0, 1, 2: the basis of the imitated landmark rows
_BASIS_HATS = lie.so3_hat(_EYE3)


@dataclass(frozen=True)
class FilterVariant:
    """Estimator tag plus the imitation range r (ij_iekf only)."""

    tag: str
    r: float = 0.0

    def __post_init__(self):
        if self.tag not in ALL_TAGS:
            raise ValueError(f"unknown variant tag {self.tag!r}; choose from "
                             f"{', '.join(ALL_TAGS)}")
        if not is_real(self.r):
            raise ValueError(f"r must be a real number, got {self.r!r}")
        if self.tag != "ij_iekf" and self.r != 0.0:
            raise ValueError("r is only meaningful for ij_iekf")
        if self.tag == "ij_iekf" and not (np.isfinite(self.r)
                                          and self.r >= 0.0):
            raise ValueError(f"r must be finite and non-negative, "
                             f"got {self.r!r}")

    @property
    def invariant(self):
        return self.tag in INVARIANT_TAGS

    @property
    def label(self):
        if self.tag == "ij_iekf":
            return f"ij_iekf-{self.r:g}"
        return self.tag


def _lever_products(levers, R):
    """Stack of u^ R, one 3x3 block per row u of ``levers`` (..., m, 3), as
    (..., 3 m, 3)."""
    hats = lie.so3_hat(levers)
    return hats.reshape(hats.shape[:-3] + (-1, 3)) @ R


def error_jacobians(R, drift, levers, landmarks=None, xi_delta=None):
    """Error dynamics of every variant over one interval of n steps, in the
    row-factored form that ``imu.compose_error_dynamics`` takes: the stacks
    F ((n, 15 + r, 15)) and G ((n, 15 + r, 12)) hold each step's 15 IMU rows
    and r basis rows, and the factor U (3 m x r), constant over the
    interval, maps the basis rows to the 3 m landmark rows (they are
    U @ F[k, 15:] and U @ G[k, 15:]).  R (n, 3, 3) is the orientation at the
    start of each step.

    Every error model here has one layout.  With B the map of the gyro and
    accelerometer noise, the expanded rows of step k are

        F[:9, :9] = imu.imu_error_matrix_a(drift),  F[:, 9:15] = -B,
        G[:, :6] = B,  G[9:15, 6:] = I.

    B is R_k on the orientation rows, u^ R_k on the three rows of each lever
    arm u, and R_k on the velocity rows for the accelerometer noise.  The
    lever arms are p_k and v_k (``levers``, (n, 2, 3)) and the m
    ``landmarks`` f_j, which do not move over the interval, so landmark j's
    rows are f_j^ R_k times the gyro-bias error and the gyro noise: r = 3,
    U stacks the f_j^, and the basis rows are -R_k on the gyro-bias columns
    of F and R_k on the gyro-noise columns of G; without landmarks r = 0
    and U is 0 x 0.  The right-invariant error takes the drift gravity (3,)
    and its lever arms and landmarks.  The world-frame error of the EKF
    family takes the drift -R_k (a_k - b_a) ((n, 3)), through which its
    orientation error drives its velocity error, and zero lever arms and
    landmarks: its landmark rows have U = 0 and stay static.

    ``xi_delta`` (n, 3) holds the imitation errors of ``ij_iekf``, one
    orientation error per step.  The inverse left Jacobian on the augmented
    group is then J_k^-1 = J_SO3^-1(xi_delta[k]) on the block diagonal: it
    premultiplies each 3-row block of B.  It does not commute with f_j^, so
    the landmark rows J_k^-1 f_j^ R_k = sum_a f_ja J_k^-1 e_a^ R_k take
    r = 9: landmark j's block of U is [f_j1 I | f_j2 I | f_j3 I], and basis
    block a is J_k^-1 e_a^ R_k.  Draws that are all zero are no imitation.

    Every input but a gravity drift may carry a leading batch axis of B
    filters: R (B, n, 3, 3), a drift (B, n, 3), ``levers`` (B, n, 2, 3),
    ``landmarks`` (B, m, 3) and ``xi_delta`` (B, n, 3); F, G and U then
    carry it too.  The filters share one r: 9 if any of them drew a nonzero
    imitation error, and a filter without draws takes zeros, whose inverse
    left Jacobian is exactly I.  Each filter's F, G and U equal those of its
    own call bit for bit where its r is that of its own call.
    """
    lead = R.shape[:-2]            # (n,) or (B, n)
    m = 0 if landmarks is None else landmarks.shape[-2]
    if xi_delta is not None and not xi_delta.any():
        xi_delta = None
    r = 0 if m == 0 else 3 if xi_delta is None else 9
    F = np.zeros(lead + (15 + r, 15))
    G = np.zeros(lead + (15 + r, 12))
    B = np.zeros(lead + (9, 6))
    B[..., :3, :3] = R
    B[..., 3:9, :3] = _lever_products(levers, R)
    B[..., 6:9, 3:6] = R
    if xi_delta is not None:
        Jinv = lie.so3_left_jacobian_inv(xi_delta)[..., None, :, :]
        B = (Jinv @ B.reshape(lead + (3, 3, 6))).reshape(lead + (9, 6))
    F[..., 3:6, 6:9] = _EYE3
    F[..., 6:9, :3] = lie.so3_hat(drift)
    F[..., :9, 9:15] = -B
    G[..., :9, :6] = B
    G[..., 9:15, 6:] = _EYE6
    if r == 0:
        return F, G, np.zeros(lead[:-1] + (0, 0))
    if r == 3:
        basis = R
        U = lie.so3_hat(landmarks).reshape(lead[:-1] + (-1, 3))
    else:
        basis = (Jinv @ _BASIS_HATS @ R[..., None, :, :]).reshape(
            lead + (9, 3))
        U = (landmarks[..., None, :, None] * _EYE3[:, None]).reshape(
            lead[:-1] + (-1, 9))
    F[..., 15:, 9:12] = -basis
    G[..., 15:, :3] = basis
    return F, G, U


def predict_all(bank, omega, accel, dt):
    """Propagate the filters of ``bank`` through one interval of IMU
    readings ``dt`` apart, the rows of ``omega`` and ``accel`` ((n, 3)
    each), in lock step: one ``imu.propagate_mean``, one
    ``error_jacobians``, one ``imu.compose_error_dynamics`` and one
    ``imu.propagate_covariance`` for all rows, whatever their variants.

    The EKF family passes zero lever arms and zero landmarks (see
    ``error_jacobians``), so its landmark rows stay static at any r.  The
    rows share the largest r over the interval: 9 if any ``ij_iekf`` drew
    a nonzero imitation error, else 3 with landmarks and an invariant row,
    else 0.  Every ``ij_iekf`` row draws its imitation errors from its own
    generator as it would alone, and no other row draws.  Each row's
    numbers equal those of a bank of it alone bit for bit, except that an
    invariant row's r padded from 3 to 9 changes the rounding of its
    landmark rows.
    """
    noise = bank.noise
    bank.state, R, p, v, Ra = imu_model.propagate_mean(
        bank.state, omega, accel, dt, noise.gravity)
    invariant = bank.invariant
    draws = [imu_model.sample_imitating_error(f.r, rng, len(omega))
             if f.tag == "ij_iekf" else None
             for f, rng in zip(bank.variants, bank.rngs)]
    xi_delta = None
    if any(x is not None for x in draws):
        xi_delta = np.array([np.zeros((len(omega), 3)) if x is None else x
                             for x in draws])
    landmarks = None
    if invariant.any():
        landmarks = np.where(invariant[:, None, None], bank.landmarks, 0.0)
    levers = np.concatenate((p[:, :-1, None], v[:, :-1, None]), axis=-2)
    levers[~invariant] = 0.0
    drift = np.where(invariant[:, None, None], noise.gravity, -Ra)
    F, G, U = error_jacobians(R[:, :-1], drift, levers, landmarks, xi_delta)
    V, Q = imu_model.compose_error_dynamics(F, G, bank._noise_kernel(dt), dt)
    imu_model.propagate_covariance(bank.P, V, Q, U, bank._scratch)


def errors(R_hat, p_hat, invariant, R, p):
    """(pos_err, ang_err), (..., 3) each, of the estimates R_hat
    (..., 3, 3) and p_hat (..., 3) against the true R and p, which
    broadcast against them, each in the error convention of its entry of
    the mask ``invariant`` (broadcast against the leading axes).

    Orientation error is log(R_hat R^T) for every variant, one stacked
    ``lie.so3_log``; position error is p_hat - R_tilde p
    (R_tilde = R_hat R^T) for the invariant filters and p_hat - p for the
    EKF family.
    """
    R_tilde = R_hat @ R.swapaxes(-1, -2)
    pos_err = np.where(invariant[..., None],
                       p_hat - (R_tilde @ p[..., None])[..., 0], p_hat - p)
    return pos_err, lie.so3_log(R_tilde.reshape(-1, 3, 3)).reshape(
        pos_err.shape)


def nees(P, errors):
    """DOF-normalized position and orientation NEES, (...) each, of the
    error pairs ``errors`` ((..., 3) each, as ``errors`` returns them)
    against the covariances P (..., d, d), of which only the 6 x 6 pose
    block is read.

    The 3x3 blocks are factored as L L^T in one stacked Cholesky, and
    the NEES is |L^-1 e|^2 / 3 by forward substitution on all blocks at
    once.

    Raises:
        SingularCovariance: if a block's Cholesky factorization fails, or
            if the squared ratio of the largest to the smallest diagonal
            entry of L (a lower bound on the block's condition number,
            whatever its units) exceeds 1e12.
    """
    lead = errors[0].shape[:-1]
    # rows 2i and 2i + 1: estimate i's position and orientation blocks
    blocks = np.stack([P[..., sl, sl] for sl in _NEES_BLOCKS],
                      axis=-3).reshape(-1, 3, 3)
    e = np.stack(errors, axis=-2).reshape(-1, 3)
    try:
        L = np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError:
        raise SingularCovariance(
            "NEES block is not positive definite") from None
    diag = np.diagonal(L, axis1=1, axis2=2)
    ratio = (diag.max(axis=1) / diag.min(axis=1)) ** 2
    if ratio.max() > 1e12:
        raise SingularCovariance(
            f"NEES block Cholesky diagonal ratio squared {ratio.max():.3e}")
    y0 = e[:, 0] / L[:, 0, 0]
    y1 = (e[:, 1] - L[:, 1, 0] * y0) / L[:, 1, 1]
    y2 = (e[:, 2] - L[:, 2, 0] * y0 - L[:, 2, 1] * y1) / L[:, 2, 2]
    out = (y0 * y0 + y1 * y1 + y2 * y2) / 3.0
    return out[0::2].reshape(lead), out[1::2].reshape(lead)


def _block_products(H, P, Wz, scratch):
    """H P of the ``vision.LandmarkRows`` H (g, m, d), written into
    Wz[..., :-1], and H P H^T, from P's 6 pose rows and the rows of the
    observed landmarks.  The rows of each observation are its pose columns
    times P's pose rows plus its block times its landmark's rows of P, and
    with P symmetric H P H^T = H (H P)^T takes the same two terms from the
    columns of H P.  Both gathers and the pose product go into buffer 0 of
    ``scratch``."""
    g, m, d = H.shape
    k = len(H.index)
    HP = Wz[..., :-1]
    # P's rows and H P's columns from 15 on in blocks of three, landmark
    # j's block j, taken at the observed landmarks; mode "clip" takes into
    # ``out`` directly ("raise" would buffer it), and the index is in range
    P_lm = np.take(P[:, 15:].reshape(g, -1, 3, d), H.index, axis=1,
                   out=scratch.take(0, (g, k, 3, d)), mode="clip")
    np.matmul(H.blocks, P_lm, out=Wz.reshape(g, k, 2, d + 1)[..., :-1])
    HP += np.matmul(H.pose, P[:, :6], out=scratch.take(0, (g, m, d)))
    HP_lm = np.take(Wz.swapaxes(1, 2)[:, 15:d].reshape(g, -1, 3, m), H.index,
                    axis=1, out=scratch.take(0, (g, k, 3, m)), mode="clip")
    return (H.pose @ HP[..., :6].swapaxes(1, 2)
            + (H.blocks @ HP_lm).reshape(g, m, m))


class FilterInstance:
    """A bank of B filters of one state layout and one noise spec as rows:
    ``state`` (R (B, 3, 3); p, v, b_omega, b_a (B, 3)), P (B, d, d), the
    ``landmarks`` and the ``first_landmarks`` that ``fej`` rows linearize
    at (B, m, 3), and the camera-pose clones ``clone_R`` (B, c, 3, 3) and
    ``clone_p`` (B, c, 3).  Row i is the filter of ``variants[i]``, with
    its entry of the ``invariant`` and ``fej`` masks and its generator
    ``rngs[i]``.  The constructor builds a bank of one, ``adopt`` a bank of
    filters at one state around a stacked P it takes without a copy, and
    every method takes all rows at once, writing them in place.

    The bank owns P: ``predict_all`` and ``update_raw`` write it in place,
    through the bank's own ``imu.Scratch`` (a bank from ``copy.copy`` or
    ``copy.deepcopy`` gets its own), and only the clone
    augmentation and marginalization, which change d, replace it; a caller
    who keeps a P across a stage must copy it.  P is exactly symmetric
    after every method, given an exactly symmetric P at construction;
    ``update_raw`` relies on it, forming the gain P H^T S^-1 as
    (H P)^T S^-1.  Single-writer: methods mutate the bank and must be
    serialized externally; distinct banks are independent.
    """

    def __init__(self, variant, state, P, noise, rng=None, landmarks=None):
        self._build((variant,), state, np.array(P, dtype=float)[None], noise,
                    (np.random.default_rng(0) if rng is None else rng,),
                    landmarks)

    @classmethod
    def adopt(cls, variants, state, P, noise, rngs, landmarks=None):
        """A bank of the filters of ``variants``, with the generators
        ``rngs``, at one ``state`` and one set of ``landmarks``, that takes
        P, a C-contiguous float64 (B, d, d) array of their covariances, as
        its own without a copy."""
        bank = object.__new__(cls)
        bank._build(tuple(variants), state, P, noise, tuple(rngs), landmarks)
        return bank

    def _build(self, variants, state, P, noise, rngs, landmarks):
        b = len(variants)

        def per_filter(x):
            x = np.asarray(x, dtype=float)
            return np.array(np.broadcast_to(x, (b,) + x.shape))
        self.state = imu_model.ImuState(*map(per_filter,
                                             vars(state).values()))
        self.P = P
        self.noise = noise
        self.variants = variants
        self.rngs = rngs
        self.invariant = np.array([v.invariant for v in variants])
        self.fej = np.array([v.tag == "fej" for v in variants])
        self.landmarks = per_filter(np.zeros((0, 3)) if landmarks is None
                                    else landmarks)
        self.first_landmarks = self.landmarks.copy()
        self.clone_R = np.zeros((b, 0, 3, 3))
        self.clone_p = np.zeros((b, 0, 3))
        self._kernel = None    # (dt, imu.noise_kernel(Q, dt))
        self._scratch = imu_model.Scratch()
        expected = self.core_dim
        if P.shape != (b, expected, expected):
            raise ValueError(f"P must be {expected}x{expected}")

    def __copy__(self):
        """A shallow copy with a scratch of its own."""
        bank = object.__new__(type(self))
        bank.__dict__.update(vars(self))
        bank._scratch = imu_model.Scratch()
        return bank

    # -- dimensions ---------------------------------------------------------

    @property
    def variant(self):
        """The variant of a bank of one."""
        # perfbench keys its spans of FilterInstance.predict by
        # args[0].variant.tag, so the drivers call predict_all, which takes
        # a bank of any size
        variant, = self.variants
        return variant

    @property
    def n_landmarks(self):
        return self.landmarks.shape[1]

    @property
    def core_dim(self):
        return 15 + 3 * self.n_landmarks

    @property
    def dim(self):
        return self.P.shape[-1]

    def clone_index(self, i):
        """First covariance row of clone i."""
        return self.core_dim + 6 * i

    # -- predict ------------------------------------------------------------

    def predict(self, omega, accel, dt):
        """``predict_all`` of this bank."""
        predict_all(self, omega, accel, dt)

    def _noise_kernel(self, dt):
        """``imu.noise_kernel`` of this bank's noise at step ``dt``, kept
        for the next interval with the same step."""
        if self._kernel is None or self._kernel[0] != dt:
            self._kernel = (dt, imu_model.noise_kernel(self.noise.q_imu(),
                                                       dt))
        return self._kernel[1]

    # -- update -------------------------------------------------------------

    def update_raw(self, residual, H, N, rows=None):
        """Kalman update in square-root form of every filter, or of the
        rows ``rows`` (an index array) only, with the stacks residual
        (B, m), H (B, m, dim) and N (m, m) or (B, m, m); the gain-weighted
        residual is applied directly as a correction.  H is an array or
        the landmark rows of ``vision.landmark_measurement`` in block form
        (``vision.LandmarkRows``).

        With HP = H P, S = HP H^T + N = L L^T and W = L^-1 HP, the
        correction is W^T L^-1 r and the covariance becomes P - W^T W.
        From dim = ``imu.STATIC_SPLIT_DIM`` on, HP and HP H^T of rows in
        block form are formed from P's pose rows and the rows of the
        observed landmarks (their gathers in the bank's scratch), which
        changes their rounding only; below it, the dense H of the rows is
        expanded and multiplied, and an array H is multiplied at any dim.
        Everything after the two products is shared.
        L^-1 [HP | r] is a blocked forward substitution, in row blocks of
        ``SOLVE_BLOCK``: each block's rows are reduced by the rows already
        solved in one product, then multiplied by the inverse of L's
        diagonal block.  Each step runs once on the stack, and each
        filter's numbers equal those of a bank of it alone bit for bit.
        [HP | r] and W^T W are formed in the bank's scratch, and P - W^T W
        is written into P's own array, or with ``rows`` into those rows:
        a caller who keeps the P of before must copy it.  The Cholesky
        factorization reads only the lower triangle of S, and W^T W is
        exactly symmetric, so P stays exactly symmetric.

        Raises:
            SingularInnovation: if the Cholesky factorization of the
                innovation covariance S fails, or if the squared ratio of the
                largest to the smallest diagonal entry of its factor (a
                scale-free lower bound on the condition number of S) exceeds
                1e12, for any filter updated.  Every filter's state is left
                unchanged.
        """
        P = self.P if rows is None else self.P[rows]
        residual = np.asarray(residual, dtype=float)
        blocks = isinstance(H, LandmarkRows)
        if not blocks:
            H = np.asarray(H, dtype=float)
        dim = self.dim
        if H.shape[::2] != (len(P), dim) or residual.shape != H.shape[:2]:
            raise ValueError(f"residual {residual.shape} and H {H.shape} for "
                             f"{len(P)} filter(s) of state dim {dim}")
        m = H.shape[1]
        Wz = self._scratch.take(1, (len(P), m, dim + 1))
        Wz[..., -1] = residual
        if blocks and dim >= imu_model.STATIC_SPLIT_DIM:
            S = _block_products(H, P, Wz, self._scratch) + N
        else:
            if blocks:
                H = H.dense()
            np.matmul(H, P, out=Wz[..., :-1])
            S = Wz[..., :-1] @ H.swapaxes(1, 2) + N
        try:
            L = np.linalg.cholesky(S)
        except np.linalg.LinAlgError:
            raise SingularInnovation(
                "innovation covariance is not positive definite") from None
        diag = np.diagonal(L, axis1=1, axis2=2)
        # squaring is monotone: the largest square is the square of the max
        ratio = (diag.max(axis=1) / diag.min(axis=1)).max() ** 2
        if ratio > 1e12:
            raise SingularInnovation(
                f"innovation Cholesky diagonal ratio squared {ratio:.3e}")
        for s in range(0, m, SOLVE_BLOCK):
            e = s + SOLVE_BLOCK
            rhs = Wz[:, s:e] - L[:, s:e, :s] @ Wz[:, :s] if s else Wz[:, s:e]
            Wz[:, s:e] = np.linalg.inv(L[:, s:e, s:e]) @ rhs
        W = Wz[..., :-1]
        self.apply_correction((W.swapaxes(1, 2) @ Wz[..., -1:])[..., 0], rows)
        # numpy runs W^T W of one buffer as a BLAS syrk; a W^T copied to
        # its own buffer would take the slower general product
        WtW = np.matmul(W.swapaxes(1, 2), W,
                        out=self._scratch.take(0, (len(P), dim, dim)))
        if rows is None:
            np.subtract(P, WtW, out=P)
        else:
            self.P[rows] = np.subtract(P, WtW, out=WtW)

    def apply_correction(self, d, rows=None):
        """Apply the corrections d (B, dim), one row per filter, or one per
        row of ``rows`` (an index array), each in its filter's error
        convention.

        The rotation parts of the IMU pose and of each clone, the rows
        [omega; omega_1; ...], of every filter go through one stacked
        exponential E: every rotation becomes E R.  The invariant error
        left-multiplies each pose by exp(c) on SE_n(3), so each translation
        column t with tangent part u (p, v and the landmarks for the IMU
        pose, p for a clone) becomes E t + J(omega) u, with the left
        Jacobians J of the invariant filters' rows from one stacked call;
        the EKF family adds u to t.
        """
        sel = slice(None) if rows is None else rows
        st = self.state
        b = len(self.variants) if rows is None else len(rows)
        m, k = self.n_landmarks, self.clone_p.shape[1]
        d = np.asarray(d, dtype=float)
        if d.shape != (b, self.dim):
            raise ValueError(f"corrections of shape {d.shape} for {b} "
                             f"filter(s) of state dim {self.dim}")
        c = d[:, self.core_dim:].reshape(b, k, 6)
        omega = np.concatenate((d[:, None, :3], c[..., :3]), axis=1)
        E = lie.so3_exp_stack(omega.reshape(-1, 3)).reshape(b, k + 1, 3, 3)
        # the translation columns (p, v and the landmarks; the clones' p)
        # and their tangent parts
        t = np.concatenate((st.p[sel, None], st.v[sel, None],
                            self.landmarks[sel]), axis=1)
        u = np.concatenate((d[:, 3:9], d[:, 15:15 + 3 * m]),
                           axis=1).reshape(b, -1, 3)
        tc, uc = self.clone_p[sel], c[..., 3:]
        # the EKF family's correction for every filter, then the invariant
        # filters' rows replaced by theirs
        t_new, tc_new = t + u, tc + uc
        inv = np.flatnonzero(self.invariant[sel])
        if len(inv):
            if len(inv) == b:
                inv = slice(b)
            J = lie.so3_left_jacobian(omega[inv].reshape(-1, 3)).reshape(
                -1, k + 1, 3, 3)
            Ei = E[inv]
            t_new[inv] = (t[inv] @ Ei[:, 0].swapaxes(1, 2)
                          + u[inv] @ J[:, 0].swapaxes(1, 2))
            if k:
                tc_new[inv] = (Ei[:, 1:] @ tc[inv][..., None]
                               + J[:, 1:] @ uc[inv][..., None])[..., 0]
        st.R[sel] = E[:, 0] @ st.R[sel]
        st.p[sel], st.v[sel] = t_new[:, 0], t_new[:, 1]
        st.b_omega[sel] += d[:, 9:12]
        st.b_a[sel] += d[:, 12:15]
        self.landmarks[sel] = t_new[:, 2:]
        if k:
            self.clone_R[sel] = E[:, 1:] @ self.clone_R[sel]
            self.clone_p[sel] = tc_new

    # -- clones -------------------------------------------------------------

    def clone_camera_pose(self, R_cam, p_cam):
        """Append a camera-pose clone to every filter, R_cam (B, 3, 3) and
        p_cam (B, 3), and augment the covariances."""
        b, d = len(self.variants), self.dim
        R_cam = np.reshape(R_cam, (b, 1, 3, 3))
        p_cam = np.reshape(p_cam, (b, 1, 3))
        J = np.zeros((b, 6, d))
        J[:, :, :6] = _EYE6
        # the right-invariant camera-pose error equals the IMU pose error;
        # the world-frame position error picks up the lever arm p_cam - p
        ekf = ~self.invariant
        if ekf.any():
            J[ekf, 3:6, :3] = -lie.so3_hat(p_cam[ekf, 0] - self.state.p[ekf])
        PJt = self.P @ J.swapaxes(1, 2)
        # P and the off-diagonal blocks are exactly symmetric already
        JPJt = J @ PJt
        P = np.empty((b, d + 6, d + 6))
        P[:, :d, :d] = self.P
        P[:, :d, d:] = PJt
        P[:, d:, :d] = PJt.swapaxes(1, 2)
        P[:, d:, d:] = 0.5 * (JPJt + JPJt.swapaxes(1, 2))
        self.P = P
        self.clone_R = np.concatenate((self.clone_R, R_cam), axis=1)
        self.clone_p = np.concatenate((self.clone_p, p_cam), axis=1)

    def marginalize_clone(self, i):
        """Drop clone i and its covariance rows/columns from every
        filter."""
        k = self.clone_index(i)
        b, d = len(self.variants), self.dim - 6
        P = np.empty((b, d, d))
        P[:, :k, :k] = self.P[:, :k, :k]
        P[:, :k, k:] = self.P[:, :k, k + 6:]
        P[:, k:, :k] = self.P[:, k + 6:, :k]
        P[:, k:, k:] = self.P[:, k + 6:, k + 6:]
        self.P = P
        self.clone_R = np.delete(self.clone_R, i, axis=1)
        self.clone_p = np.delete(self.clone_p, i, axis=1)


def invariant_initial_covariance(state, sig, landmarks=None, out=None):
    """Transport a diagonal world-frame prior (sig: 15-vector of std devs,
    plus 3 per landmark) into right-invariant coordinates.

    The invariant position/velocity/landmark errors pick up the orientation
    error through the lever arms p^, v^, f^: with T the identity plus the
    blocks u^ in the orientation columns of the lever rows, the prior is
    T diag(sig^2) T^T, built here by blocks and exactly symmetric.  It is
    written into ``out``, a (d, d) array of zeros, if given.
    """
    sig = np.asarray(sig, dtype=float)
    var = sig ** 2
    levers = np.vstack((state.p, state.v,
                        np.zeros((0, 3)) if landmarks is None else landmarks))
    u = _lever_products(levers, _EYE3)
    lever = np.zeros((len(sig) - 3, 3))    # rows 3: of T[:, :3]
    lever[:6] = u[:6]
    lever[12:] = u[6:]
    P = np.zeros((len(sig), len(sig))) if out is None else out
    np.fill_diagonal(P, var)
    P[3:, :3] = lever * var[:3]
    P[:3, 3:] = P[3:, :3].T
    scaled = lever * sig[:3]
    P[3:, 3:] += scaled @ scaled.T
    return P
