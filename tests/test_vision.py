"""Camera and sliding-window tests: every analytic Jacobian is checked
against central finite differences of the actual projection pipeline."""

import copy

import numpy as np
import pytest

from iekf_kit import filters, imu, lie, vision
from iekf_kit.exceptions import (BehindCamera, DegenerateGeometry, Diverged,
                                 ZeroRange)


MODEL = vision.CameraModel()


def make_filter(tag, rng, landmarks=None):
    st = imu.ImuState(
        lie.so3_exp(rng.normal(0.0, 0.3, 3)),
        rng.normal(0.0, 5.0, 3),
        rng.normal(0.0, 1.0, 3),
        np.zeros(3), np.zeros(3))
    m = 0 if landmarks is None else len(landmarks)
    return filters.FilterInstance(
        filters.FilterVariant(tag), st, np.eye(15 + 3 * m) * 0.01,
        imu.ImuNoiseSpec(), landmarks=landmarks)


def test_pinhole_projection_values():
    uv = MODEL.project(np.array([0.0, 0.0, 2.0]))
    assert np.allclose(uv, [MODEL.cx, MODEL.cy])
    uv = MODEL.project(np.array([1.0, 0.0, 1.0]))
    assert np.allclose(uv, [MODEL.cx + MODEL.fx, MODEL.cy])


def test_bearing_equals_pinhole_on_front_domain():
    bearing = vision.CameraModel(mode="bearing")
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.normal(0.0, 1.0, 3)
        x[2] = abs(x[2]) + 0.2
        assert np.abs(bearing.project(x) - MODEL.project(x)).max() < 1e-9


def test_projection_domain_errors():
    with pytest.raises(BehindCamera):
        MODEL.project(np.array([0.1, 0.2, -1.0]))
    with pytest.raises(BehindCamera):
        MODEL.project(np.array([0.1, 0.2, 0.0]))
    bearing = vision.CameraModel(mode="bearing")
    with pytest.raises(ZeroRange):
        bearing.project(np.zeros(3))
    with pytest.raises(BehindCamera):
        bearing.project(np.array([0.0, 0.0, -2.0]))
    with pytest.raises(ValueError):
        vision.CameraModel(mode="fisheye")


def test_projection_jacobian_finite_difference():
    # 100 seeded configurations per mode, tolerance 1e-5
    rng = np.random.default_rng(1)
    for mode in ("pinhole", "bearing"):
        model = vision.CameraModel(mode=mode)
        worst = 0.0
        for _ in range(100):
            x = rng.normal(0.0, 1.0, 3)
            x[2] = abs(x[2]) + 0.5
            J = model.projection_jacobian(x)
            eps = 1e-6
            Jfd = np.column_stack([
                (model.project(x + eps * e) - model.project(x - eps * e))
                / (2 * eps) for e in np.eye(3)])
            worst = max(worst, np.abs(J - Jfd).max())
        assert worst < 1e-5


def fd_measurement_jacobian(filt, ext, landmark_index):
    """Columns of H from finite differences: move the truth by a correction c
    and record the pixel shift."""
    d = filt.dim
    H_fd = np.zeros((2, d))
    eps = 1e-6
    for a in range(d):
        cols = []
        for sgn in (1.0, -1.0):
            c = np.zeros(d)
            c[a] = sgn * eps
            g = filters.FilterInstance(filt.variant, filt.state,
                                       filt.P, imu.ImuNoiseSpec(),
                                       landmarks=filt.landmarks)
            g.apply_correction(c)
            R_c, p_c = vision.camera_pose(g.state, ext)
            cols.append(MODEL.project(vision.world_to_camera(
                R_c, p_c, g.landmarks[landmark_index])))
        H_fd[:, a] = (cols[0] - cols[1]) / (2 * eps)
    return H_fd


@pytest.mark.parametrize("tag", ["iekf", "ekf"])
def test_landmark_jacobian_in_state(tag):
    rng = np.random.default_rng(2)
    ext = vision.Extrinsics()
    f = make_filter(tag, rng, landmarks=rng.normal(0.0, 3.0, (2, 3)))
    # place landmarks in front of the camera
    R_c, p_c = vision.camera_pose(f.state, ext)
    f.landmarks = np.array([p_c + R_c @ np.array([0.5, 0.2, 5.0]),
                            p_c + R_c @ np.array([-1.0, 0.8, 7.0])])
    j = 1
    pix = MODEL.project(vision.world_to_camera(R_c, p_c, f.landmarks[j]))
    _, H, _, _ = vision.landmark_measurement(f, MODEL, ext, [pix], 1.0,
                                             landmark_index=[j])
    H_fd = fd_measurement_jacobian(f, ext, j)
    assert np.abs(H - H_fd).max() < 1e-4


def test_landmark_residual_at_truth_is_zero():
    rng = np.random.default_rng(4)
    ext = vision.Extrinsics()
    f = make_filter("iekf", rng, landmarks=np.zeros((1, 3)))
    R_c, p_c = vision.camera_pose(f.state, ext)
    f.landmarks = (p_c + R_c @ np.array([0.0, 0.0, 4.0]))[None, :]
    pix = MODEL.project(vision.world_to_camera(R_c, p_c, f.landmarks[0]))
    r, _, N, _ = vision.landmark_measurement(f, MODEL, ext, [pix], 2.0,
                                             landmark_index=[0])
    assert np.abs(r).max() < 1e-12
    assert np.allclose(N, 4.0 * np.eye(2))


def epoch_in_front(tag, rng, n=5):
    """A filter with n in-state landmarks in front of its camera (the fej
    anchors moved off the estimate) and noisy pixels of all of them."""
    ext = vision.Extrinsics(R_ic=lie.so3_exp(rng.normal(0.0, 0.2, 3)),
                            p_ic=rng.normal(0.0, 0.1, 3))
    f = make_filter(tag, rng, landmarks=np.zeros((n, 3)))
    R_c, p_c = vision.camera_pose(f.state, ext)
    x_cam = np.column_stack([rng.uniform(-2.0, 2.0, (n, 2)),
                             rng.uniform(3.0, 9.0, n)])
    f.landmarks = p_c + x_cam @ R_c.T
    f.anchor_landmarks = f.landmarks + rng.normal(0.0, 0.3, (n, 3))
    if f.anchor_state is not None:
        f.anchor_state.p = f.anchor_state.p + rng.normal(0.0, 0.5, 3)
    pix = np.array([MODEL.project(x) for x in x_cam])
    return f, ext, pix + rng.normal(0.0, 1.0, (n, 2))


# in_state has one value since the rows take in-state landmarks only; it is
# kept so that the ids stay those of the in-state cases
@pytest.mark.parametrize("in_state", [True])
@pytest.mark.parametrize("tag", ["iekf", "ekf", "fej"])
def test_epoch_rows_stack_single_observation_rows(tag, in_state):
    rng = np.random.default_rng(9)
    f, ext, pix = epoch_in_front(tag, rng)
    order = np.array([3, 0, 4, 1, 2])

    def rows(sel):
        return vision.landmark_measurement(f, MODEL, ext, pix[sel], 1.5,
                                           landmark_index=order[sel])

    r, H, N, kept = rows(slice(None))
    singles = [rows(slice(k, k + 1)) for k in range(len(order))]
    assert np.array_equal(kept, np.arange(len(order)))
    assert H.shape == (2 * len(order), f.dim)
    scale = np.abs(H).max()
    assert np.abs(r - np.concatenate([s[0] for s in singles])).max() <= 1e-12
    assert (np.abs(H - np.vstack([s[1] for s in singles])).max()
            <= 1e-12 * scale)
    assert np.array_equal(N, 1.5 ** 2 * np.eye(2 * len(order)))


@pytest.mark.parametrize("mode", ["pinhole", "bearing"])
def test_epoch_drops_observations_outside_the_domain(mode):
    model = vision.CameraModel(mode=mode)
    rng = np.random.default_rng(10)
    f, ext, pix = epoch_in_front("iekf", rng, n=4)
    R_c, p_c = vision.camera_pose(f.state, ext)
    if mode == "pinhole":
        f.landmarks[2] = p_c + R_c @ np.array([0.5, -0.3, -4.0])
        raised = BehindCamera
    else:
        f.landmarks[2] = p_c
        raised = ZeroRange
    with pytest.raises(raised):
        model.project(vision.world_to_camera(R_c, p_c, f.landmarks[2]))
    idx = np.array([0, 1, 2, 3])
    r, H, N, kept = vision.landmark_measurement(f, model, ext, pix, 1.0,
                                                landmark_index=idx)
    assert np.array_equal(kept, [0, 1, 3])
    assert r.shape == (6,) and H.shape == (6, f.dim) and N.shape == (6, 6)
    r3, H3, _, kept3 = vision.landmark_measurement(
        f, model, ext, pix[[0, 1, 3]], 1.0, landmark_index=idx[[0, 1, 3]])
    assert np.array_equal(kept3, [0, 1, 2])
    assert np.array_equal(r, r3) and np.array_equal(H, H3)
    # nothing is left when every observation is outside the domain
    r0, H0, N0, kept0 = vision.landmark_measurement(
        f, model, ext, pix[[2]], 1.0, landmark_index=[2])
    assert (r0.shape, H0.shape, N0.shape, len(kept0)) == (
        (0,), (0, f.dim), (0, 0), 0)


def test_cross_rows_equals_np_cross():
    # the row-wise cross product of the EKF-family orientation blocks
    rng = np.random.default_rng(16)
    shapes = [((12, 2, 3), (12, 1, 3)), ((5, 2, 3), (5, 1, 3)),
              ((1, 2, 3), (1, 1, 3)), ((0, 2, 3), (0, 1, 3)),
              ((3,), (3,)), ((7, 3), (3,)), ((4, 1, 3), (1, 6, 3))]
    for sa, sb in shapes:
        for scale in (1e-8, 1.0, 1e6):
            a = scale * rng.normal(0.0, 1.0, sa)
            b = rng.normal(0.0, 50.0, sb)
            want = np.cross(a, b)
            got = vision._cross_rows(a, b)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("mode", ["pinhole", "bearing"])
def test_batch_projection_matches_single_point_forms(mode):
    # the stacked guard and maps agree with project()/projection_jacobian(),
    # points on both sides of the depth and range thresholds included
    model = vision.CameraModel(mode=mode)
    rng = np.random.default_rng(11)
    x = rng.normal(0.0, 1.0, (40, 3))
    x[:10, 2] = np.abs(x[:10, 2]) + 0.5
    x[10:15, 2] = vision.DEPTH_EPS * np.array([-1.0, 0.0, 1.0, 1.5, 2.0])
    x[15:20] = rng.normal(0.0, 1.0, (5, 3)) * vision.RANGE_EPS * 0.5
    x[20:25] = np.array([0.0, 0.0, 1.0]) * vision.RANGE_EPS * np.array(
        [0.5, 1.0, 2.0, 1e3, 1e4])[:, None]
    zero_range, behind = model.outside_domain(x)
    zero_range = np.broadcast_to(zero_range, behind.shape)
    inside = ~(zero_range | behind)
    uv, J = model.project_batch(x[inside])
    for k, point in enumerate(x):
        for fn in (model.project, model.projection_jacobian):
            if zero_range[k]:
                with pytest.raises(ZeroRange):
                    fn(point)
            elif behind[k]:
                with pytest.raises(BehindCamera):
                    fn(point)
            else:
                fn(point)
    assert inside[:10].all() and not inside[10:12].any()
    for point, uv_k, J_k in zip(x[inside], uv, J):
        assert np.array_equal(J_k, model.projection_jacobian(point))
        assert np.array_equal(uv_k, model.project(point))


@pytest.mark.parametrize("tag", ["iekf", "ekf"])
def test_clone_feature_jacobians_finite_difference(tag):
    rng = np.random.default_rng(5)
    f = make_filter(tag, rng)
    ext = vision.Extrinsics()
    R_c, p_c = vision.camera_pose(f.state, ext)
    poses = [(R_c @ lie.so3_exp(rng.normal(0.0, 0.05, 3)),
              p_c + rng.normal(0.0, 0.5, 3)) for _ in range(3)]
    for R_k, p_k in poses:
        f.clone_camera_pose(0.0, R_k, p_k)
    f_world = p_c + R_c @ np.array([0.4, -0.1, 5.0])
    # one track seen by clones 2 and 0: rows follow the given order
    track = [2, 0]
    pred, H_x, H_f = vision.clone_feature_jacobians(f, MODEL, track, f_world)

    def observe(R_k, p_k, point):
        return MODEL.project(vision.world_to_camera(R_k, p_k, point))

    assert np.array_equal(pred, np.concatenate(
        [observe(*poses[i], f_world) for i in track]))
    eps = 1e-6
    d = f.dim
    H_fd = np.zeros((2 * len(track), d))
    for a in range(d):
        cols = []
        for sgn in (1.0, -1.0):
            c = np.zeros(d)
            c[a] = sgn * eps
            g = filters.FilterInstance(f.variant, f.state, np.eye(15) * 0.01,
                                       imu.ImuNoiseSpec())
            for R_k, p_k in poses:
                g.clone_camera_pose(0.0, R_k, p_k)
            g.apply_correction(c)
            cols.append(np.concatenate(
                [observe(g.clones[i].R, g.clones[i].p, f_world)
                 for i in track]))
        H_fd[:, a] = (cols[0] - cols[1]) / (2 * eps)
    assert np.abs(H_x - H_fd).max() < 1e-4
    for k, i in enumerate(track):
        outside = np.ones(d, dtype=bool)
        outside[f.clone_index(i):f.clone_index(i) + 6] = False
        assert not H_x[2 * k:2 * k + 2, outside].any()
    Hf_fd = np.vstack([np.column_stack([
        (observe(*poses[i], f_world + eps * e)
         - observe(*poses[i], f_world - eps * e)) / (2 * eps)
        for e in np.eye(3)]) for i in track])
    assert np.abs(H_f - Hf_fd).max() < 1e-4


def synthetic_track(rng, n_views=6, noise=0.0):
    f_true = np.array([2.0, 1.0, 30.0]) + rng.normal(0.0, 1.0, 3)
    poses, pixels = [], []
    for k in range(n_views):
        R_c = lie.so3_exp(rng.normal(0.0, 0.05, 3))
        p_c = np.array([1.5 * k, 0.3 * k, 0.1 * k])
        uv = MODEL.project(vision.world_to_camera(R_c, p_c, f_true))
        poses.append((R_c, p_c))
        pixels.append(uv + noise * rng.standard_normal(2))
    return f_true, poses, pixels


def test_triangulation_recovers_point():
    rng = np.random.default_rng(6)
    for _ in range(20):
        f_true, poses, pixels = synthetic_track(rng)
        f_est = vision.triangulate(MODEL, poses, pixels)
        assert np.linalg.norm(f_est - f_true) < 1e-6


def triangulate_loop(model, poses, pixels):
    """The per-observation triangulation that ``vision.triangulate``
    replaced, kept as its oracle."""
    A_rows, b_rows = [], []
    for (R_c, p_c), uv in zip(poses, pixels):
        ray = np.linalg.solve(model.K, np.array([uv[0], uv[1], 1.0]))
        ray = R_c @ (ray / np.linalg.norm(ray))
        P = np.eye(3) - np.outer(ray, ray)
        A_rows.append(P)
        b_rows.append(P @ p_c)
    A = np.vstack(A_rows)
    b = np.concatenate(b_rows)
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[2] <= vision.RANK_RTOL * sv[0]:
        raise DegenerateGeometry("rays do not intersect transversally")
    f, *_ = np.linalg.lstsq(A, b, rcond=None)
    for _ in range(vision.TRIANGULATE_MAX_ITERS):
        JtJ = np.zeros((3, 3))
        Jtr = np.zeros(3)
        for (R_c, p_c), uv in zip(poses, pixels):
            x_cam = R_c.T @ (f - p_c)
            if x_cam[2] <= vision.DEPTH_EPS:
                raise Diverged("refined point moved behind a camera")
            J = model.projection_jacobian(x_cam) @ R_c.T
            r = np.asarray(uv, dtype=float) - model.project(x_cam)
            JtJ += J.T @ J
            Jtr += J.T @ r
        try:
            step = np.linalg.solve(JtJ, Jtr)
        except np.linalg.LinAlgError as e:
            raise DegenerateGeometry(str(e)) from e
        f = f + step
        if np.linalg.norm(step) < vision.TRIANGULATE_STEP_TOL:
            return f
    raise Diverged("no convergence")


@pytest.mark.parametrize("mode", ["pinhole", "bearing"])
def test_triangulation_matches_per_observation_loop(mode):
    model = vision.CameraModel(mode=mode)
    rng = np.random.default_rng(13)
    for n_views in (3, 6, 11):
        for _ in range(20):
            _, poses, pixels = synthetic_track(rng, n_views, noise=1.0)
            want = triangulate_loop(model, poses, pixels)
            got = vision.triangulate(model, poses, pixels)
            assert (np.linalg.norm(got - want)
                    <= 1e-12 * np.linalg.norm(want))


def test_triangulation_degenerate_rays():
    # parallel rays; and rays whose lines meet 5 m behind the cameras, so
    # that the linear start is behind them and the refinement stops on its
    # depth check.  The per-observation loop raises the same.
    parallel = ([(np.eye(3), np.zeros(3))] * 3,
                [np.array([320.0, 240.0])] * 3)
    behind = ([(np.eye(3), np.array([float(k), 0.0, 0.0])) for k in range(3)],
              [np.array([320.0 + 250.0 * (k - 0.5) / 5.0, 240.0])
               for k in range(3)])
    for fn in (vision.triangulate, triangulate_loop):
        with pytest.raises(DegenerateGeometry):
            fn(MODEL, *parallel)
        with pytest.raises(Diverged):
            fn(MODEL, *behind)


def test_nullspace_projection_annihilates_feature_block():
    # 100 synthetic tracks: |Q2^T H_f| < 1e-10, noise-free projected
    # residuals < 1e-8
    rng = np.random.default_rng(7)
    worst_hf = 0.0
    worst_res = 0.0
    for _ in range(100):
        f_true, poses, pixels = synthetic_track(rng)
        filt = make_filter("iekf", rng)
        for R_c, p_c in poses:
            filt.clone_camera_pose(0.0, R_c, p_c)
        pred, H_x, Hf = vision.clone_feature_jacobians(
            filt, MODEL, range(len(poses)), f_true)
        r0, H0 = vision.nullspace_project(np.concatenate(pixels) - pred,
                                          H_x, Hf)
        Q, _ = np.linalg.qr(Hf, mode="complete")
        worst_hf = max(worst_hf, np.linalg.norm(Q[:, 3:].T @ Hf))
        worst_res = max(worst_res, np.abs(r0).max())
        assert H0.shape[0] == 2 * len(pixels) - 3
    assert worst_hf < 1e-10
    assert worst_res < 1e-8


def test_nullspace_projection_needs_enough_rows():
    with pytest.raises(DegenerateGeometry):
        vision.nullspace_project(np.zeros(2), np.zeros((2, 15)),
                                 np.ones((2, 3)))


def mean_vector(filt):
    st = filt.state
    return np.concatenate([st.R.ravel(), st.p, st.v, st.b_omega, st.b_a]
                          + [np.r_[cl.R.ravel(), cl.p] for cl in filt.clones])


def test_compressed_update_matches_tall_update():
    # the sliding window's shape: 12 clones (d = 87) and 840 stacked rows,
    # velocity and bias columns all zero
    rng = np.random.default_rng(12)
    filt = make_filter("iekf", rng)
    for k in range(12):
        filt.clone_camera_pose(float(k), lie.so3_exp(rng.normal(0.0, 0.3, 3)),
                               rng.normal(0.0, 5.0, 3))
    d = filt.dim
    A = rng.normal(0.0, 0.03, (d, d))
    filt.P = A @ A.T + 1e-4 * np.eye(d)
    H = rng.normal(0.0, 5.0, (840, d))
    H[:, 6:15] = 0.0
    residual = rng.normal(0.0, 1.0, 840)
    r_c, H_c = vision.compress_measurement(residual, H)
    assert r_c.shape == (d,) and H_c.shape == (d, d)
    # with white noise the update sees (H, residual) only through H^T H and
    # H^T residual, which the compressed pair keeps
    info = H.T @ H
    assert np.abs(H_c.T @ H_c - info).max() <= 1e-12 * np.abs(info).max()
    score = H.T @ residual
    assert np.abs(H_c.T @ r_c - score).max() <= 1e-12 * np.abs(score).max()
    tall, short = copy.deepcopy(filt), copy.deepcopy(filt)
    tall.update_raw(residual, H, np.eye(840))
    short.update_raw(r_c, H_c, np.eye(d))
    assert (np.abs(short.P - tall.P).max()
            <= 1e-12 * np.abs(tall.P).max())
    mean = mean_vector(tall)
    assert (np.abs(mean_vector(short) - mean).max()
            <= 1e-12 * np.abs(mean).max())
    # a stack no taller than the state goes through as it is
    for rows in (d, 10):
        r_s, H_s = vision.compress_measurement(residual[:rows], H[:rows])
        assert r_s.base is residual and H_s.base is H


def test_sliding_window_updater_marginalizes():
    rng = np.random.default_rng(8)
    filt = make_filter("iekf", rng)
    upd = vision.SlidingWindowUpdater(MODEL, vision.Extrinsics(),
                                      max_clones=3)
    for k in range(6):
        upd.ingest(filt, float(k), {})
        assert len(filt.clones) <= 3
    assert len(upd._window) == len(filt.clones)


def test_observability_nullspace_dimension_stable():
    dims = set()
    for dt in (0.01, 0.1, 1.0):
        for k in range(4, 11):
            _, rank, null_dim = vision.observability_matrix(dt, k)
            dims.add(null_dim)
            assert rank + null_dim == 12
    assert dims == {4}


def test_observability_nullspace_content():
    # the unobservable directions: global position shift (shared by p and
    # the landmark) and rotation about gravity
    O, rank, null_dim = vision.observability_matrix(0.1, 8)
    g = np.array([0.0, 0.0, -9.81])
    for delta in np.eye(3):
        x = np.zeros(12)
        x[3:6] = delta
        x[9:12] = delta
        assert np.linalg.norm(O @ x) < 1e-10
    x = np.zeros(12)
    x[:3] = g / np.linalg.norm(g)
    assert np.linalg.norm(O @ x) < 1e-10
