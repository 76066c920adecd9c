"""Camera geometry, landmark/feature measurement models, and the
sliding-window (stochastic-cloning) visual update.

Pixel conventions: intrinsic matrix K = [[fx,0,cx],[0,fy,cy],[0,0,1]],
measurements are 2-vectors (u, v).  Two projection modes are supported:

* "pinhole": u = fx x/z + cx, defined for z > 0 only;
* "bearing": the ray x/|x| is scaled by K and dehomogenized.  On z > 0 this
  coincides with the pinhole map (and shares its Jacobian); its domain error
  at the origin differs (zero range rather than non-positive depth).

Both modes share one domain guard, ``CameraModel.outside_domain``.  The
camera-rate update of the in-state landmarks builds all of an epoch's rows in
one call, which drops the observations outside that domain instead of
raising.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lie
from .exceptions import (BehindCamera, DegenerateGeometry, Diverged,
                         ZeroRange)

DEPTH_EPS = 1e-9
RANGE_EPS = 1e-12
RANK_RTOL = 1e-10
TRIANGULATE_MAX_ITERS = 20
TRIANGULATE_STEP_TOL = 1e-8


@dataclass
class CameraModel:
    """Intrinsics, image bounds, and projection mode."""

    fx: float = 250.0
    fy: float = 250.0
    cx: float = 320.0
    cy: float = 240.0
    width: int = 640
    height: int = 480
    mode: str = "pinhole"

    def __post_init__(self):
        if self.mode not in ("pinhole", "bearing"):
            raise ValueError(f"unknown projection mode {self.mode!r}")

    @property
    def K(self):
        return np.array([[self.fx, 0.0, self.cx],
                         [0.0, self.fy, self.cy],
                         [0.0, 0.0, 1.0]])

    def outside_domain(self, x_cam):
        """Where the projection is undefined, for one camera-frame point (3,)
        or a stack of them (n, 3): the pair (zero_range, behind) of flags or
        boolean masks.  ``zero_range``: bearing mode, point at the camera
        center (always False in pinhole mode); ``behind``: non-positive
        depth.  project() and projection_jacobian() raise ZeroRange and
        BehindCamera on exactly these points, ZeroRange first."""
        x_cam = np.asarray(x_cam, dtype=float)
        behind = x_cam.T[2] <= DEPTH_EPS
        if self.mode == "bearing":
            return np.linalg.norm(x_cam, axis=-1) < RANGE_EPS, behind
        return False, behind

    def _check_domain(self, x_cam):
        # a pinhole point in front of the camera is inside the domain; the
        # shortcut skips the guard's call overhead on the single-point path
        if self.mode == "pinhole" and x_cam[2] > DEPTH_EPS:
            return
        zero_range, behind = self.outside_domain(x_cam)
        if zero_range:
            raise ZeroRange("point at the camera center")
        if behind:
            raise BehindCamera(f"depth {x_cam[2]:.3e}")

    def project(self, x_cam):
        """Project a camera-frame point to pixels.

        Raises:
            ZeroRange: bearing mode, point at the camera center.
            BehindCamera: non-positive depth (dehomogenization undefined).
        """
        x_cam = np.asarray(x_cam, dtype=float)
        self._check_domain(x_cam)
        if self.mode == "bearing":
            y = self.K @ (x_cam / np.linalg.norm(x_cam))
            return y[:2] / y[2]
        return np.array([self.fx * x_cam[0] / x_cam[2] + self.cx,
                         self.fy * x_cam[1] / x_cam[2] + self.cy])

    def projection_jacobian(self, x_cam):
        """2x3 derivative of project() w.r.t. the camera-frame point.

        The bearing map equals the pinhole map wherever both are defined, so
        the Jacobian is shared; only the domain guards differ.
        """
        x_cam = np.asarray(x_cam, dtype=float)
        self._check_domain(x_cam)
        x, y, z = x_cam
        return np.array([[self.fx / z, 0.0, -self.fx * x / z ** 2],
                         [0.0, self.fy / z, -self.fy * y / z ** 2]])

    def project_batch(self, x_cam):
        """Pixels (n, 2) and projection Jacobians (n, 2, 3) of camera-frame
        points (n, 3) inside the domain (see outside_domain).  The pixels
        equal project() bit for bit in either mode, the Jacobians
        projection_jacobian()."""
        x, y, z = x_cam.T
        if self.mode == "bearing":
            # the stacked row-times-column product sums as x.dot(x) does, so
            # the ranges equal np.linalg.norm of each row bit for bit
            dist = np.sqrt(x_cam[:, None, :] @ x_cam[:, :, None])[:, 0]
            h = (x_cam / dist) @ self.K.T
            uv = h[:, :2] / h[:, 2:]
        else:
            uv = np.column_stack([self.fx * x / z + self.cx,
                                  self.fy * y / z + self.cy])
        J = np.zeros((len(x_cam), 2, 3))
        J[:, 0, 0] = self.fx / z
        J[:, 0, 2] = -self.fx * x / z ** 2
        J[:, 1, 1] = self.fy / z
        J[:, 1, 2] = -self.fy * y / z ** 2
        return uv, J


@dataclass
class Extrinsics:
    """Camera pose in the IMU (body) frame."""

    R_ic: np.ndarray = field(default_factory=lambda: np.eye(3))
    p_ic: np.ndarray = field(default_factory=lambda: np.zeros(3))


def camera_pose(state, ext):
    """World-frame camera pose (R_c, p_c) for an IMU state and extrinsics."""
    return state.R @ ext.R_ic, state.p + state.R @ ext.p_ic


def world_to_camera(R_c, p_c, f_world):
    """Camera-frame coordinates R_c^T (f - p_c) as rows: of a world point
    (3,) or points (n, 3) seen from one pose, or of one point seen from
    poses stacked as R_c (n, 3, 3) and p_c (n, 3)."""
    d = np.asarray(f_world, dtype=float) - p_c
    return (d[..., None, :] @ R_c)[..., 0, :]


def _cross_rows(a, b):
    """np.cross(a, b) of broadcast stacks of 3-vectors on the last axis, bit
    for bit (the same products and differences), without its axis
    bookkeeping."""
    nxt, prv = [1, 2, 0], [2, 0, 1]
    return a[..., nxt] * b[..., prv] - a[..., prv] * b[..., nxt]


# --- landmark updates against the live state -------------------------------

def landmark_measurement(filt, model, ext, pixels, sigma_px, landmark_index):
    """Stacked residual, H and N of one camera epoch's observations ``pixels``
    (n, 2) of the in-state landmarks ``landmark_index`` (n,) against the
    current state.

    An observation whose predicted camera-frame point is outside the
    projection domain (``CameraModel.outside_domain``) is dropped.  Returns
    (residual (2k,), H (2k, dim), N (2k, 2k), kept): the positions ``kept``
    (k,) in the input of the observations used, in input order, own rows 2i
    and 2i + 1.  H follows the filter's error convention, so the
    gain-weighted residual is a correction.
    """
    st = filt.state
    landmark_index = np.asarray(landmark_index, dtype=int).reshape(-1)
    f_world = filt.landmarks[landmark_index]
    pixels = np.asarray(pixels, dtype=float).reshape(-1, 2)
    R_c, p_c = camera_pose(st, ext)
    x_cam = world_to_camera(R_c, p_c, f_world)
    zero_range, behind = model.outside_domain(x_cam)
    kept = np.flatnonzero(~(zero_range | behind))
    if len(kept) < len(x_cam):
        x_cam, pixels = x_cam[kept], pixels[kept]
        landmark_index = landmark_index[kept]
    n = len(kept)
    pred, J_pi = model.project_batch(x_cam)
    # J_pi S with S = R_c^T; J_pi S u^ is the row-wise cross product with u
    JS = J_pi @ R_c.T
    H = np.zeros((n, 2, filt.dim))
    H[:, :, 3:6] = -JS
    # the invariant error's orientation part cancels for in-state landmarks
    if not filt.variant.invariant:
        p_ref, f_ref = st.p, filt.landmarks[landmark_index]
        if filt.anchor_state is not None:
            p_ref = filt.anchor_state.p
            f_ref = filt.anchor_landmarks[landmark_index]
        H[:, :, 0:3] = _cross_rows(JS, (f_ref - p_ref)[:, None, :])
    cols = 15 + 3 * landmark_index[:, None, None] + np.arange(3)
    H[np.arange(n)[:, None, None], np.arange(2)[:, None], cols] = JS
    residual = (pixels - pred).reshape(-1)
    N = np.eye(2 * n) * sigma_px ** 2
    return residual, H.reshape(2 * n, filt.dim), N, kept


# --- clone-based (sliding window) updates ----------------------------------

def clone_feature_jacobians(filt, model, clone_indices, f_world):
    """Stacked prediction (2n,), H_x (2n, dim) and H_f (2n, 3) of one
    track: the observations of a triangulated feature at f_world from the
    clones ``clone_indices`` (n,), rows 2i and 2i + 1 for the i-th clone.

    H_x is zero outside the 6 columns of each row pair's clone; H_f is the
    feature block to be removed by nullspace projection.

    Raises:
        ZeroRange, BehindCamera: the feature is outside a clone's projection
            domain (see CameraModel.outside_domain).
    """
    clone_indices = np.asarray(clone_indices, dtype=int).reshape(-1)
    f_world = np.asarray(f_world, dtype=float)
    n = len(clone_indices)
    R = np.array([filt.clones[i].R for i in clone_indices])
    p = np.array([filt.clones[i].p for i in clone_indices])
    x_cam = world_to_camera(R, p, f_world)
    zero_range, behind = model.outside_domain(x_cam)
    if np.any(zero_range):
        raise ZeroRange("feature at a clone's camera center")
    if np.any(behind):
        raise BehindCamera(f"depth {x_cam[:, 2].min():.3e}")
    pred, J_pi = model.project_batch(x_cam)
    JS = J_pi @ R.transpose(0, 2, 1)
    if filt.variant.invariant:
        rot = JS @ lie.so3_hat(f_world)
    else:
        # J_pi S u^ is the row-wise cross product with the lever arm u
        rot = _cross_rows(JS, (f_world - p)[:, None, :])
    block = np.concatenate([rot, -JS], axis=2)
    H_x = np.zeros((n, 2, filt.dim))
    cols = filt.clone_index(clone_indices)[:, None, None] + np.arange(6)
    H_x[np.arange(n)[:, None, None], np.arange(2)[:, None], cols] = block
    return pred.reshape(-1), H_x.reshape(2 * n, filt.dim), JS.reshape(-1, 3)


def nullspace_project(residual, H_x, H_f):
    """Remove the feature-error columns by projecting onto the left nullspace
    of H_f (2k x 3).

    Raises:
        DegenerateGeometry: if H_f is rank deficient (no 3D constraint).
    """
    H_f = np.asarray(H_f, dtype=float)
    if H_f.shape[0] < 4:
        raise DegenerateGeometry("need at least two observations")
    Q, Rf = np.linalg.qr(H_f, mode="complete")
    if np.abs(np.diag(Rf)[:3]).min() <= RANK_RTOL * np.abs(Rf).max():
        raise DegenerateGeometry("feature Jacobian is rank deficient")
    Q2 = Q[:, 3:]
    return Q2.T @ residual, Q2.T @ H_x


def triangulate(model, poses, pixels):
    """Triangulate a world point from one pixel track over known camera
    poses [(R_c, p_c), ...].

    Linear (midpoint/DLT) initialization followed by Gauss-Newton on the
    reprojection error; each step works on the whole track as arrays.

    Raises:
        DegenerateGeometry: parallel/degenerate rays (no linear solution).
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
    if sv[2] <= RANK_RTOL * sv[0]:
        raise DegenerateGeometry("rays do not intersect transversally")
    f, *_ = np.linalg.lstsq(A, b, rcond=None)
    Rt = R.transpose(0, 2, 1)
    for _ in range(TRIANGULATE_MAX_ITERS):
        x_cam = world_to_camera(R, p, f)
        if np.any(x_cam[:, 2] <= DEPTH_EPS):
            raise Diverged("refined point moved behind a camera")
        pred, J_pi = model.project_batch(x_cam)
        J = (J_pi @ Rt).reshape(-1, 3)
        try:
            step = np.linalg.solve(J.T @ J, J.T @ (uv - pred).reshape(-1))
        except np.linalg.LinAlgError as e:
            raise DegenerateGeometry(str(e)) from e
        f = f + step
        if np.linalg.norm(step) < TRIANGULATE_STEP_TOL:
            return f
    raise Diverged(f"no convergence in {TRIANGULATE_MAX_ITERS} iterations")


def compress_measurement(residual, H):
    """Measurement compression of a stacked update with white noise: when H
    (N, d) has more rows than columns, the thin QR H = Q R gives the
    equivalent update (Q^T residual, R) with d rows and the same noise
    sigma^2 I; a shorter H is returned as it is.

    Q^T residual is the last column of the R factor of [H | residual], so Q
    is never formed.
    """
    rows, d = H.shape
    if rows <= d:
        return residual, H
    R = np.linalg.qr(np.column_stack([H, residual]), mode="r")
    return R[:d, d], R[:d, :d]


class SlidingWindowUpdater:
    """Stochastic-cloning visual front end driving a FilterInstance.

    Maintains a window of camera-pose clones and per-feature pixel tracks;
    when a track ends (feature lost or the window slides past its first
    observation) the feature is triangulated, its stacked measurement is
    projected off the feature error, and the filter is updated.
    """

    def __init__(self, model, ext, max_clones=11, max_features=40,
                 sigma_px=1.0):
        self.model = model
        self.ext = ext
        self.max_clones = max_clones
        self.max_features = max_features
        self.sigma_px = sigma_px
        self.tracks = {}          # feature id -> list of (clone seq, pixel)
        self._seq = 0             # monotone id of the next clone
        self._window = []         # clone seqs aligned with filt.clones

    def ingest(self, filt, t, observations):
        """One camera epoch: clone, extend tracks, update on dead tracks,
        slide the window.

        ``observations`` maps feature id -> pixel measurement.
        """
        R_c, p_c = camera_pose(filt.state, self.ext)
        filt.clone_camera_pose(t, R_c, p_c)
        self._window.append(self._seq)
        self._seq += 1
        for fid, uv in observations.items():
            self.tracks.setdefault(fid, []).append(
                (self._window[-1], np.asarray(uv, dtype=float)))
        dead = [fid for fid in self.tracks if fid not in observations]
        if len(self._window) > self.max_clones:
            oldest = self._window[0]
            dead += [fid for fid, tr in self.tracks.items()
                     if tr[0][0] == oldest and fid not in dead]
        n_updated = self._flush(filt, dead)
        if len(self._window) > self.max_clones:
            self._drop_clone(filt, 0)
        return n_updated

    def _flush(self, filt, feature_ids):
        rows_r, rows_H = [], []
        used = 0
        for fid in feature_ids:
            track = self.tracks.pop(fid)
            if used >= self.max_features:
                continue
            track = [(s, uv) for s, uv in track if s in self._window]
            if len(track) < 3:
                continue
            idx = [self._window.index(s) for s, _ in track]
            poses = [(filt.clones[i].R, filt.clones[i].p) for i in idx]
            pixels = np.array([uv for _, uv in track])
            try:
                f = triangulate(self.model, poses, pixels)
            except (DegenerateGeometry, Diverged):
                continue
            try:
                pred, H_x, H_f = clone_feature_jacobians(
                    filt, self.model, idx, f)
                r0, H0 = nullspace_project(pixels.reshape(-1) - pred, H_x,
                                           H_f)
            except (DegenerateGeometry, BehindCamera, ZeroRange):
                continue
            rows_r.append(r0)
            rows_H.append(H0)
            used += 1
        if not rows_r:
            return 0
        residual, H = compress_measurement(np.concatenate(rows_r),
                                           np.vstack(rows_H))
        N = np.eye(len(residual)) * self.sigma_px ** 2
        filt.update_raw(residual, H, N)
        return used

    def _drop_clone(self, filt, i):
        filt.marginalize_clone(i)
        del self._window[i]


# --- observability ----------------------------------------------------------

def observability_matrix(dt, k):
    """Stacked observability matrix of the landmark-observation error system
    and its numerical rank.

    The 12-state (orientation, position, velocity, one landmark) invariant
    error dynamics are propagated by the exact transition Phi(dt); the
    measurement row reads the landmark-minus-position error.  Returns
    (O, rank, nullspace_dim) with rank from an SVD at a relative threshold.
    """
    from . import imu as imu_model
    from .errorprop import loglinear_transition
    F = np.zeros((12, 12))
    F[:9, :9] = imu_model.imu_error_matrix_a()
    Phi = loglinear_transition(F, dt)
    H = np.zeros((3, 12))
    H[:, 3:6] = -np.eye(3)
    H[:, 9:12] = np.eye(3)
    rows = []
    Pk = np.eye(12)
    for _ in range(k):
        rows.append(H @ Pk)
        Pk = Phi @ Pk
    O = np.vstack(rows)
    sv = np.linalg.svd(O, compute_uv=False)
    rank = int(np.sum(sv > RANK_RTOL * sv[0]))
    return O, rank, 12 - rank
