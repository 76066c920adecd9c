"""Camera geometry, landmark/feature measurement models, and the
sliding-window (stochastic-cloning) visual update.

Pixel conventions: intrinsic matrix K = [[fx,0,cx],[0,fy,cy],[0,0,1]],
measurements are 2-vectors (u, v).  Two projection modes are supported:

* "pinhole": u = fx x/z + cx, defined for z > 0 only;
* "bearing": the ray x/|x| is scaled by K and dehomogenized.  On z > 0 this
  coincides with the pinhole map (and shares its Jacobian); its domain also
  excludes the camera center (zero range).

``CameraModel.project`` maps stacks of camera-frame points, and one guard,
``CameraModel.outside_domain``, masks the points outside the domain: the
camera-rate update of the in-state landmarks drops those observations, and
the sliding-window update the tracks that have one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import lie
from ._checks import is_real
from .exceptions import DegenerateGeometry

DEPTH_EPS = 1e-9
RANGE_EPS = 1e-12
# relative threshold on singular values: nullspace_project's QR diagonal
# and the observability matrix's numerical rank
RANK_RTOL = 1e-10
# triangulate's rank test, on the eigenvalues of A = sum_i (I - b_i b_i^T)
# over a track's unit rays b_i: A is S^T S for the stacked projectors S, so
# its eigenvalues are their singular values squared, and RANK_RTOL squared
# (1e-20) would lie below rounding.  A track is degenerate when
# lambda_min <= 1e-12 lambda_max, i.e. sigma_min <= 1e-6 sigma_max
TRIANGULATE_RANK_RTOL = 1e-12
TRIANGULATE_MAX_ITERS = 20
TRIANGULATE_STEP_TOL = 1e-8
# why SlidingWindowUpdater.dropped says an ended track went unused
DROP_REASONS = ("too_short", "degenerate", "diverged", "outside_domain",
                "max_features")


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
        for name in ("fx", "fy", "width", "height", "cx", "cy"):
            x = getattr(self, name)
            if not (is_real(x) and np.isfinite(x)
                    and (x > 0 or name in ("cx", "cy"))):
                raise ValueError(f"{name} = {x!r}: fx, fy, width, height must "
                                 f"be finite positive numbers, cx and cy "
                                 f"finite numbers")

    @property
    def K(self):
        return np.array([[self.fx, 0.0, self.cx],
                         [0.0, self.fy, self.cy],
                         [0.0, 0.0, 1.0]])

    def outside_domain(self, x_cam):
        """Where the projection is undefined, for camera-frame points
        (n, 3): the pair (zero_range, behind) of boolean masks (n,).
        ``zero_range``: bearing mode, point at the camera center (False in
        pinhole mode); ``behind``: non-positive depth."""
        behind = x_cam[:, 2] <= DEPTH_EPS
        if self.mode == "bearing":
            return np.linalg.norm(x_cam, axis=1) < RANGE_EPS, behind
        return False, behind

    def project(self, x_cam):
        """Pixels (n, 2) and projection Jacobians (n, 2, 3) of camera-frame
        points (n, 3) inside the domain (see outside_domain).

        The bearing map equals the pinhole map wherever both are defined,
        so the Jacobian is shared; only the domains differ.
        """
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
    (3,) or points (n, 3) seen from one pose, of one point seen from poses
    stacked as R_c (n, 3, 3) and p_c (n, 3), or of g such points (g, 1, 3)
    each seen from its own stack of poses (g, n, 3, 3) and (g, n, 3)."""
    d = np.asarray(f_world, dtype=float) - p_c
    return (d[..., None, :] @ R_c)[..., 0, :]


def _cross_rows(a, b):
    """np.cross(a, b) of broadcast stacks of 3-vectors on the last axis, bit
    for bit (the same products and differences), without its axis
    bookkeeping."""
    nxt, prv = [1, 2, 0], [2, 0, 1]
    return a[..., nxt] * b[..., prv] - a[..., prv] * b[..., nxt]


# --- landmark updates against the live state -------------------------------

@dataclass(eq=False)
class LandmarkRows:
    """The measurement rows of k in-state landmark observations for g
    filters in block form: each observation's two rows are zero outside the
    6 pose columns (orientation, position) and the 3 columns of its
    landmark.  ``pose`` (g, 2k, 6) holds the pose columns, ``blocks``
    (g, k, 2, 3) the landmark block J_pi S of each observation, ``index``
    (k,) the landmarks observed and ``dim`` the state dimension, so that
    ``shape`` is that of the dense H, (g, 2k, dim)."""

    pose: np.ndarray
    blocks: np.ndarray
    index: np.ndarray
    dim: int

    @property
    def shape(self):
        return self.pose.shape[:2] + (self.dim,)

    def dense(self):
        """The dense H (g, 2k, dim)."""
        g, k = self.blocks.shape[:2]
        H = np.zeros((g, k, 2, self.dim))
        H[..., :6] = self.pose.reshape(g, k, 2, 6)
        # the columns from 15 on in blocks of three, landmark j's block j
        # (the clones' columns, six each, follow as pairs of blocks)
        lm = H[..., 15:].reshape(g, k, 2, -1, 3)
        lm[:, np.arange(k), :, self.index] = self.blocks.swapaxes(0, 1)
        return H.reshape(g, 2 * k, self.dim)


def landmark_measurement(bank, model, ext, pixels, sigma_px, landmark_index):
    """Stacked residuals, rows and N of one camera epoch's observations
    ``pixels`` (n, 2) of the in-state landmarks ``landmark_index`` (n,)
    against the current state of each of the B filters of ``bank``.

    An observation whose predicted camera-frame point is outside the
    projection domain (``CameraModel.outside_domain``) is dropped.  Returns
    one tuple (rows, residual (g, 2k), H, N (2k, 2k), kept) per group of
    the g filters that keep the same observations: ``rows`` their bank
    rows, or None when it is every filter, H their ``LandmarkRows``
    (g, 2k, dim), and ``kept`` (k,) the positions in the input of the
    observations used, in input order, own rows 2i and 2i + 1.  H follows
    each filter's error convention, so the gain-weighted residual is a
    correction: its pose columns are the orientation block and -J_pi S,
    and its landmark blocks J_pi S.  The EKF family's orientation block is
    J_pi S (f - p)^ at the predicted position p, with f the landmark's
    estimate, or for ``fej`` its first estimate; the invariant error's is
    zero.  The rows of every filter and observation are built at once,
    those of the dropped observations as NaN; a group's rows equal those
    of a bank of any of its filters alone.
    """
    landmark_index = np.asarray(landmark_index, dtype=int).reshape(-1)
    pixels = np.asarray(pixels, dtype=float).reshape(-1, 2)
    b, n, dim = len(bank.variants), len(landmark_index), bank.dim
    # camera_pose of every filter's state
    R = bank.state.R
    R_c = R @ ext.R_ic
    p = bank.state.p
    p_c = p + R @ ext.p_ic
    x_cam = world_to_camera(R_c[:, None], p_c[:, None],
                            bank.landmarks[:, landmark_index])
    zero_range, behind = model.outside_domain(x_cam.reshape(-1, 3))
    keep = ~(zero_range | behind).reshape(b, n)
    if not keep.all():
        # NaN points project to NaN rows, without a division warning
        x_cam[~keep] = np.nan
    pred, J_pi = model.project(x_cam.reshape(-1, 3))
    # J_pi S with S = R_c^T; J_pi S u^ is the row-wise cross product with u
    JS = J_pi.reshape(b, n, 2, 3) @ R_c.swapaxes(1, 2)[:, None]
    pose = np.zeros((b, n, 2, 6))
    pose[..., 3:6] = -JS
    # the invariant error's orientation part cancels for in-state landmarks
    ekf = np.flatnonzero(~bank.invariant)
    if len(ekf):
        f_lin = np.where(bank.fej[:, None, None], bank.first_landmarks,
                         bank.landmarks)[ekf][:, landmark_index]
        pose[ekf, ..., 0:3] = _cross_rows(
            JS[ekf], (f_lin - p[ekf, None])[:, :, None, :])
    residual = (pixels - pred.reshape(b, n, 2)).reshape(b, 2 * n)
    pose = pose.reshape(b, 2 * n, 6)
    if (keep == keep[0]).all():
        groups = [(None, keep[0])]
    else:
        groups = [(np.flatnonzero((keep == k).all(axis=1)), k)
                  for k in np.unique(keep, axis=0)]
    out = []
    for rows, k in groups:
        r, h, blocks = ((residual, pose, JS) if rows is None
                        else (residual[rows], pose[rows], JS[rows]))
        kept, index = np.flatnonzero(k), landmark_index
        if len(kept) < n:
            obs = (2 * kept[:, None] + np.arange(2)).ravel()
            r, h, blocks = r[:, obs], h[:, obs], blocks[:, kept]
            index = index[kept]
        out.append((rows, r, LandmarkRows(h, blocks, index, dim),
                    np.eye(2 * len(kept)) * sigma_px ** 2, kept))
    return out


# --- clone-based (sliding window) updates ----------------------------------
#
# The clone path works on groups of g tracks of one length L: clone indices
# (g, L), pixels (g, L, 2), poses (g, L, 3, 3) and (g, L, 3).  Every stacked
# product, solve and factorization runs one item per track with the shapes
# and strides of a single track's call, so each track's numbers do not depend
# on the group it is in.  A track that fails is a flag in a mask, and its
# output rows are NaN.

def clone_feature_jacobians(filt, model, clone_indices, R, p, f_world):
    """Stacked predictions (g, 2L), H_x (g, 2L, dim) and H_f (g, 2L, 3) of
    g tracks: the observations of the triangulated features f_world (g, 3)
    from the clones ``clone_indices`` (g, L), whose poses are R (g, L, 3, 3)
    and p (g, L, 3), rows 2i and 2i + 1 of a track for its i-th clone, and
    the mask ``outside`` (g,) of the tracks whose feature is outside a
    clone's projection domain (see CameraModel.outside_domain).

    H_x is zero outside the 6 columns of each row pair's clone; H_f is the
    feature block to be removed by nullspace projection.
    """
    clone_indices = np.asarray(clone_indices, dtype=int)
    f_world = np.asarray(f_world, dtype=float)
    R = np.asarray(R, dtype=float)
    p = np.asarray(p, dtype=float)
    g, L = clone_indices.shape
    x_cam = world_to_camera(R, p, f_world[:, None, :]).reshape(-1, 3)
    zero_range, behind = model.outside_domain(x_cam)
    outside = (zero_range | behind).reshape(g, L).any(axis=1)
    outside_rows = np.repeat(outside, L)
    # NaN points project to NaN rows, without a division warning
    x_cam[outside_rows] = np.nan
    pred, J_pi = model.project(x_cam)
    JS = J_pi.reshape(g, L, 2, 3) @ R.swapaxes(-1, -2)
    if filt.variant.invariant:
        rot = JS @ lie.so3_hat(f_world)[:, None]
    else:
        # J_pi S u^ is the row-wise cross product with the lever arm u
        rot = _cross_rows(JS, (f_world[:, None, :] - p)[:, :, None, :])
    block = np.concatenate([rot, -JS], axis=3).reshape(g * L, 2, 6)
    H_x = np.zeros((g * L, 2, filt.dim))
    cols = filt.clone_index(clone_indices.reshape(-1))[:, None, None] + \
        np.arange(6)
    H_x[np.arange(g * L)[:, None, None], np.arange(2)[:, None], cols] = block
    H_x[outside_rows] = np.nan
    return (pred.reshape(g, 2 * L), H_x.reshape(g, 2 * L, filt.dim),
            JS.reshape(g, 2 * L, 3), outside)


def nullspace_project(residual, H_x, H_f):
    """Remove the feature-error columns of g tracks by projecting each onto
    the left nullspace of its H_f (g, m, 3): returns the projected residuals
    (g, m - 3), rows (g, m - 3, dim) and the mask ``degenerate`` (g,) of the
    tracks whose H_f is rank deficient (no 3D constraint).

    Raises:
        DegenerateGeometry: fewer than four rows (m < 4).
    """
    H_f = np.asarray(H_f, dtype=float)
    if H_f.shape[1] < 4:
        raise DegenerateGeometry("need at least two observations")
    Q, Rf = np.linalg.qr(H_f, mode="complete")
    diag = np.abs(np.diagonal(Rf, axis1=1, axis2=2))
    degenerate = diag.min(axis=1) <= RANK_RTOL * np.abs(Rf).max(axis=(1, 2))
    Q2t = Q[:, :, 3:].swapaxes(1, 2)
    r0 = (Q2t @ np.asarray(residual, dtype=float)[:, :, None])[:, :, 0]
    H0 = Q2t @ H_x
    r0[degenerate] = np.nan
    H0[degenerate] = np.nan
    return r0, H0, degenerate


def triangulate(model, R, p, pixels):
    """Triangulate the world points (g, 3) of g pixel tracks (g, L, 2) seen
    from the camera poses R (g, L, 3, 3), p (g, L, 3).

    The linear start is the point nearest to all of a track's rays in the
    least-squares sense, from its 3x3 normal equations (the OpenVINS
    feature initializer), one stacked solve for all tracks; then
    Gauss-Newton on the reprojection error, each step on all of the tracks
    still iterating: a track stops once its step is below
    TRIANGULATE_STEP_TOL, so it runs the iterations it would run alone.
    Returns (f, degenerate, diverged), f NaN on the rows of the failed
    tracks, with the masks (g,):

    * ``degenerate``: parallel/degenerate rays (the normal matrix's
      eigenvalue ratio is at most TRIANGULATE_RANK_RTOL), or a singular
      Gauss-Newton normal matrix;
    * ``diverged``: the refined point moved behind a camera, or Gauss-Newton
      did not reach the step tolerance in TRIANGULATE_MAX_ITERS steps.
    """
    R = np.asarray(R, dtype=float)
    p = np.asarray(p, dtype=float)
    uv = np.asarray(pixels, dtype=float)
    g, L = uv.shape[:2]
    # one solve against K per track, on its (3, L) homogeneous pixels
    hom = np.concatenate([uv, np.ones((g, L, 1))], axis=2)
    rays = np.linalg.solve(model.K, hom.swapaxes(1, 2)).swapaxes(1, 2)
    rays = rays / np.linalg.norm(rays, axis=2)[:, :, None]
    rays = (R @ rays[..., None])[..., 0]      # world-frame unit rays b_i
    # the linear start solves the 3x3 normal equations of the rays' lines,
    # A f = rhs with A = sum_i (I - b_i b_i^T) = L I - B^T B and
    # rhs = sum_i (I - b_i b_i^T) p_i, the sums as matrix products
    A = L * np.eye(3) - rays.swapaxes(1, 2) @ rays
    along = rays * (rays[:, :, None, :] @ p[..., None])[..., 0]
    rhs = (p - along).swapaxes(1, 2) @ np.ones((L, 1))
    eig = np.linalg.eigvalsh(A)
    degenerate = eig[:, 0] <= TRIANGULATE_RANK_RTOL * eig[:, 2]
    diverged = np.zeros(g, dtype=bool)
    f = np.full((g, 3), np.nan)
    active = np.flatnonzero(~degenerate)
    f_a, singular = _solve_each(A[active], rhs[active])
    degenerate[active[singular]] = True
    active, f_a = active[~singular], f_a[~singular]
    # the stacks of the tracks still iterating: gathered once, and again
    # (by a mask) only when a track leaves
    R_a, Rt_a = R[active], R.swapaxes(-1, -2)[active]
    p_a, uv_a = p[active], uv[active]
    for _ in range(TRIANGULATE_MAX_ITERS):
        x_cam = world_to_camera(R_a, p_a, f_a[:, None, :])
        behind = (x_cam[:, :, 2] <= DEPTH_EPS).any(axis=1)
        if behind.any():
            diverged[active[behind]] = True
            active, f_a, x_cam, R_a, Rt_a, p_a, uv_a = (
                a[~behind] for a in (active, f_a, x_cam, R_a, Rt_a, p_a, uv_a))
        n = len(active)
        if not n:
            break
        pred, J_pi = model.project(x_cam.reshape(-1, 3))
        J = (J_pi.reshape(n, L, 2, 3) @ Rt_a).reshape(n, 2 * L, 3)
        Jt = J.swapaxes(1, 2)
        res = (uv_a - pred.reshape(n, L, 2)).reshape(n, 2 * L, 1)
        step, singular = _solve_each(Jt @ J, Jt @ res)
        f_a += step
        done = np.sqrt(step[:, None, :] @ step[:, :, None]).ravel() \
            < TRIANGULATE_STEP_TOL
        leave = singular | done
        if leave.any():
            degenerate[active[singular]] = True
            f[active[done]] = f_a[done]
            keep = ~leave
            active, f_a, R_a, Rt_a, p_a, uv_a = (
                a[keep] for a in (active, f_a, R_a, Rt_a, p_a, uv_a))
    diverged[active] = True
    return f, degenerate, diverged


def _solve_each(A, b):
    """Solutions (n, 3) of the systems A (n, 3, 3) x = b (n, 3, 1) and the
    mask (n,) of the singular ones.  A stacked solve fails as a whole when
    one member is singular; then each system is solved on its own."""
    try:
        return np.linalg.solve(A, b)[:, :, 0], np.zeros(len(A), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    x = np.full(b.shape[:2], np.nan)
    singular = np.zeros(len(A), dtype=bool)
    for k in range(len(A)):
        try:
            x[k] = np.linalg.solve(A[k], b[k])[:, 0]
        except np.linalg.LinAlgError:
            singular[k] = True
    return x, singular


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
    """Stochastic-cloning visual front end driving a bank of one filter.

    Maintains a window of camera-pose clones and per-feature pixel tracks;
    when a track ends (feature lost or the window slides past its first
    observation) the feature is triangulated, its stacked measurement is
    projected off the feature error, and the filter is updated.

    ``dropped`` counts the ended tracks that no update used, by reason:
    ``too_short`` (fewer than three observations in the window),
    ``degenerate``, ``diverged``, ``outside_domain`` (the triangulated
    feature is outside a clone's projection domain) and ``max_features``
    (ended after the flush had its ``max_features`` tracks).
    """

    def __init__(self, model, ext, max_clones=11, max_features=40,
                 sigma_px=1.0):
        self.model = model
        self.ext = ext
        self.max_clones = max_clones
        self.max_features = max_features
        self.sigma_px = sigma_px
        self.tracks = {}          # feature id -> list of (clone seq, pixel)
        self.dropped = Counter(dict.fromkeys(DROP_REASONS, 0))
        self._seq = 0             # monotone id of the next clone
        self._window = []         # clone seqs, one per clone of the filter

    def ingest(self, filt, observations):
        """One camera epoch: clone, extend tracks, update on dead tracks,
        slide the window.

        ``observations`` maps feature id -> pixel measurement.
        """
        R_c, p_c = camera_pose(filt.state, self.ext)
        filt.clone_camera_pose(R_c, p_c)
        seq = self._seq
        self._window.append(seq)
        self._seq += 1
        # the pixels become one array per group in _project_tracks
        for fid, uv in observations.items():
            self.tracks.setdefault(fid, []).append((seq, uv))
        dead = [fid for fid in self.tracks if fid not in observations]
        if len(self._window) > self.max_clones:
            # the tracks observed now are the ones not dead already
            oldest = self._window[0]
            dead += [fid for fid, tr in self.tracks.items()
                     if tr[0][0] == oldest and fid in observations]
        n_updated = self._flush(filt, dead)
        if len(self._window) > self.max_clones:
            self._drop_clone(filt, 0)
        return n_updated

    def _flush(self, filt, feature_ids):
        """Update on the ended tracks ``feature_ids``: the first
        ``max_features`` of them, in order, that are long enough and whose
        feature triangulates and projects, with their rows in that order.

        The tracks go in rounds: each takes as many of the next tracks as
        there are free places, so that no more are triangulated than an
        update can use, and runs them in groups of equal length."""
        where = {s: i for i, s in enumerate(self._window)}
        tracks = [[(where[s], uv) for s, uv in self.tracks.pop(fid)
                   if s in where] for fid in feature_ids]
        long_enough = [k for k, tr in enumerate(tracks) if len(tr) >= 3]
        rows = {}                 # position in feature_ids -> (r0, H0)
        taken = 0
        while len(rows) < self.max_features and taken < len(long_enough):
            batch = long_enough[taken:taken + self.max_features - len(rows)]
            taken += len(batch)
            rows.update(self._project_tracks(filt, tracks, batch))
        # the round that filled the update ends at its last track
        end = len(tracks)
        if len(rows) >= self.max_features:
            end = long_enough[taken - 1] + 1 if taken else 0
        self.dropped["max_features"] += len(tracks) - end
        self.dropped["too_short"] += end - taken
        if not rows:
            return 0
        order = sorted(rows)
        residual, H = compress_measurement(
            np.concatenate([rows[k][0] for k in order]),
            np.vstack([rows[k][1] for k in order]))
        N = np.eye(len(residual)) * self.sigma_px ** 2
        filt.update_raw(residual[None], H[None], N)
        return len(order)

    def _project_tracks(self, filt, tracks, positions):
        """{position: (r0, H0)} of the tracks at ``positions`` that pass,
        one group per track length; the others are counted in ``dropped``."""
        groups = {}
        for k in positions:
            groups.setdefault(len(tracks[k]), []).append(k)
        out = {}
        for keys in groups.values():
            obs = [o for k in keys for o in tracks[k]]
            keys = np.array(keys)
            # one flat array of the clone indices and one of the pixels,
            # shaped (g, L) and (g, L, 2)
            idx = np.array([i for i, _ in obs]).reshape(len(keys), -1)
            uv = np.concatenate([z for _, z in obs], dtype=float).reshape(
                len(keys), -1, 2)
            R, p = filt.clone_R[0, idx], filt.clone_p[0, idx]
            f, degenerate, diverged = triangulate(self.model, R, p, uv)
            self.dropped["degenerate"] += int(degenerate.sum())
            self.dropped["diverged"] += int(diverged.sum())
            ok = ~(degenerate | diverged)
            if not ok.any():
                continue
            keys, idx, uv = keys[ok], idx[ok], uv[ok]
            pred, H_x, H_f, outside = clone_feature_jacobians(
                filt, self.model, idx, R[ok], p[ok], f[ok])
            self.dropped["outside_domain"] += int(outside.sum())
            ok = ~outside
            if not ok.any():
                continue
            r0, H0, degenerate = nullspace_project(
                uv[ok].reshape(ok.sum(), -1) - pred[ok], H_x[ok], H_f[ok])
            self.dropped["degenerate"] += int(degenerate.sum())
            for k, r, H in zip(keys[ok][~degenerate], r0[~degenerate],
                               H0[~degenerate]):
                out[k] = (r, H)
        return out

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
