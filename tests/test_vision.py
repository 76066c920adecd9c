"""Camera and sliding-window tests: every analytic Jacobian is checked
against central finite differences of the actual projection pipeline."""

import copy

import numpy as np
import pytest

from iekf_kit import filters, imu, lie, sim, vision
from iekf_kit.exceptions import DegenerateGeometry


MODEL = vision.CameraModel()


class Diverged(Exception):
    """The per-observation triangulation oracle did not converge."""


def pixel(model, x_cam):
    """The pixel (2,) of one camera-frame point (3,)."""
    return model.project(np.reshape(x_cam, (1, 3)))[0][0]


def make_filter(tag, rng, landmarks=None):
    """A bank of one filter."""
    st = imu.ImuState(
        lie.so3_exp(rng.normal(0.0, 0.3, 3)),
        rng.normal(0.0, 5.0, 3),
        rng.normal(0.0, 1.0, 3),
        np.zeros(3), np.zeros(3))
    m = 0 if landmarks is None else len(landmarks)
    return filters.FilterInstance(
        filters.FilterVariant(tag), st, np.eye(15 + 3 * m) * 0.01,
        imu.ImuNoiseSpec(), landmarks=landmarks)


def row_state(bank, i=0):
    """The state of row ``i`` of ``bank``, copied, with 2-D fields."""
    return copy.deepcopy(bank.state[i])


def test_pinhole_projection_values():
    uv, _ = MODEL.project(np.array([[0.0, 0.0, 2.0], [1.0, 0.0, 1.0]]))
    assert np.allclose(uv, [[MODEL.cx, MODEL.cy],
                            [MODEL.cx + MODEL.fx, MODEL.cy]])


def test_bearing_equals_pinhole_on_front_domain():
    bearing = vision.CameraModel(mode="bearing")
    rng = np.random.default_rng(0)
    x = rng.normal(0.0, 1.0, (50, 3))
    x[:, 2] = np.abs(x[:, 2]) + 0.2
    (uv_b, J_b), (uv_p, J_p) = bearing.project(x), MODEL.project(x)
    assert np.abs(uv_b - uv_p).max() < 1e-9
    assert np.array_equal(J_b, J_p)


@pytest.mark.parametrize("mode", ["pinhole", "bearing"])
def test_pixel_map_is_the_pixels_of_project(mode):
    # pixels() is project()'s pixel map without the Jacobians, bit for bit,
    # and both equal the closed forms of the mode
    model = vision.CameraModel(mode=mode)
    rng = np.random.default_rng(16)
    for n in (1, 12, 100):
        x = rng.normal(0.0, 3.0, (n, 3))
        x[:, 2] = np.abs(x[:, 2]) + 0.5
        uv = model.pixels(x)
        assert uv.shape == (n, 2)
        assert uv.tobytes() == model.project(x)[0].tobytes()
        if mode == "bearing":
            dist = np.array([[np.linalg.norm(row)] for row in x])
            h = (x / dist) @ model.K.T
            want = h[:, :2] / h[:, 2:]
        else:
            want = np.column_stack([model.fx * x[:, 0] / x[:, 2] + model.cx,
                                    model.fy * x[:, 1] / x[:, 2] + model.cy])
        assert uv.tobytes() == want.tobytes()


def test_projection_domain_errors():
    # the domain guard flags points behind the camera in both modes, and
    # the camera center as zero range in bearing mode
    x = np.array([[0.1, 0.2, -1.0], [0.1, 0.2, 0.0], [0.0, 0.0, 0.0],
                  [0.0, 0.0, -2.0], [0.1, 0.2, 1.0]])
    zero_range, behind = MODEL.outside_domain(x)
    assert zero_range is False
    assert behind.tolist() == [True, True, True, True, False]
    bearing = vision.CameraModel(mode="bearing")
    zero_range, behind = bearing.outside_domain(x)
    assert zero_range.tolist() == [False, False, True, False, False]
    assert behind.tolist() == [True, True, True, True, False]
    with pytest.raises(ValueError):
        vision.CameraModel(mode="fisheye")


def test_projection_jacobian_finite_difference():
    # 100 seeded points per mode in one stack, tolerance 1e-5
    rng = np.random.default_rng(1)
    eps = 1e-6
    for mode in ("pinhole", "bearing"):
        model = vision.CameraModel(mode=mode)
        x = rng.normal(0.0, 1.0, (100, 3))
        x[:, 2] = np.abs(x[:, 2]) + 0.5
        _, J = model.project(x)
        Jfd = np.stack([(model.project(x + eps * e)[0]
                         - model.project(x - eps * e)[0]) / (2 * eps)
                        for e in np.eye(3)], axis=2)
        assert np.abs(J - Jfd).max() < 1e-5


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
            g = filters.FilterInstance(filt.variant, row_state(filt),
                                       filt.P[0], imu.ImuNoiseSpec(),
                                       landmarks=filt.landmarks[0])
            g.apply_correction(c[None])
            R_c, p_c = vision.camera_pose(row_state(g), ext)
            cols.append(pixel(MODEL, vision.world_to_camera(
                R_c, p_c, g.landmarks[0, landmark_index])))
        H_fd[:, a] = (cols[0] - cols[1]) / (2 * eps)
    return H_fd


@pytest.mark.parametrize("tag", ["iekf", "ekf"])
def test_landmark_jacobian_in_state(tag):
    rng = np.random.default_rng(2)
    ext = vision.Extrinsics()
    f = make_filter(tag, rng, landmarks=rng.normal(0.0, 3.0, (2, 3)))
    # place landmarks in front of the camera
    R_c, p_c = vision.camera_pose(row_state(f), ext)
    f.landmarks[0] = np.array([p_c + R_c @ np.array([0.5, 0.2, 5.0]),
                               p_c + R_c @ np.array([-1.0, 0.8, 7.0])])
    j = 1
    pix = pixel(MODEL, vision.world_to_camera(R_c, p_c, f.landmarks[0, j]))
    (_, _, H, _, _), = vision.landmark_measurement(f, MODEL, ext, [pix], 1.0,
                                                   landmark_index=[j])
    H_fd = fd_measurement_jacobian(f, ext, j)
    assert np.abs(H.dense()[0] - H_fd).max() < 1e-4


def test_landmark_residual_at_truth_is_zero():
    rng = np.random.default_rng(4)
    ext = vision.Extrinsics()
    f = make_filter("iekf", rng, landmarks=np.zeros((1, 3)))
    R_c, p_c = vision.camera_pose(row_state(f), ext)
    f.landmarks[0, 0] = p_c + R_c @ np.array([0.0, 0.0, 4.0])
    pix = pixel(MODEL, vision.world_to_camera(R_c, p_c, f.landmarks[0, 0]))
    (_, r, _, N, _), = vision.landmark_measurement(f, MODEL, ext, [pix], 2.0,
                                                   landmark_index=[0])
    assert np.abs(r).max() < 1e-12
    assert np.allclose(N, 4.0 * np.eye(2))


def epoch_in_front(tag, rng, n=5):
    """A bank of one filter with n in-state landmarks in front of its
    camera (fej's first estimates moved off the estimate) and noisy pixels
    of all of them."""
    ext = vision.Extrinsics(R_ic=lie.so3_exp(rng.normal(0.0, 0.2, 3)),
                            p_ic=rng.normal(0.0, 0.1, 3))
    f = make_filter(tag, rng, landmarks=np.zeros((n, 3)))
    R_c, p_c = vision.camera_pose(row_state(f), ext)
    x_cam = np.column_stack([rng.uniform(-2.0, 2.0, (n, 2)),
                             rng.uniform(3.0, 9.0, n)])
    f.landmarks[0] = p_c + x_cam @ R_c.T
    # drawn for every tag, so that each tag's pixel noise is the same
    first = f.landmarks[0] + rng.normal(0.0, 0.3, (n, 3))
    if tag == "fej":
        f.first_landmarks[0] = first
    pix, _ = MODEL.project(x_cam)
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
        (_, r, H, N, kept), = vision.landmark_measurement(
            f, MODEL, ext, pix[sel], 1.5, landmark_index=order[sel])
        return r[0], H.dense()[0], N, kept

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
    R_c, p_c = vision.camera_pose(row_state(f), ext)
    if mode == "pinhole":
        f.landmarks[0, 2] = p_c + R_c @ np.array([0.5, -0.3, -4.0])
    else:
        f.landmarks[0, 2] = p_c
    zero_range, behind = model.outside_domain(
        vision.world_to_camera(R_c, p_c, f.landmarks[0, 2:3]))
    assert (zero_range if mode == "bearing" else behind)[0]
    idx = np.array([0, 1, 2, 3])
    (rows, r, H, N, kept), = vision.landmark_measurement(
        f, model, ext, pix, 1.0, landmark_index=idx)
    assert rows is None and np.array_equal(kept, [0, 1, 3])
    assert (r.shape == (1, 6) and H.shape == (1, 6, f.dim)
            and N.shape == (6, 6))
    (_, r3, H3, _, kept3), = vision.landmark_measurement(
        f, model, ext, pix[[0, 1, 3]], 1.0, landmark_index=idx[[0, 1, 3]])
    assert np.array_equal(kept3, [0, 1, 2])
    assert np.array_equal(r, r3) and np.array_equal(H.dense(), H3.dense())
    # nothing is left when every observation is outside the domain
    (_, r0, H0, N0, kept0), = vision.landmark_measurement(
        f, model, ext, pix[[2]], 1.0, landmark_index=[2])
    assert (r0.shape, H0.shape, N0.shape, len(kept0)) == (
        (1, 0), (1, 0, f.dim), (0, 0), 0)


@pytest.mark.parametrize("mode", ["pinhole", "bearing"])
def test_epoch_rows_of_a_list_equal_one_call_per_filter(mode, stack_banks):
    # the rows of a bank of every variant built at once equal each
    # filter's call as a bank of one bit for bit: with every observation
    # kept, with one dropped by all of them (one group), and with one
    # dropped by a single filter (two groups, one of it alone)
    model = vision.CameraModel(mode=mode)
    rng = np.random.default_rng(17)
    f, ext, pix = epoch_in_front("ekf", rng, n=4)
    st = row_state(f)
    filts = []
    for tag in ("ekf", "fej", "iekf", "ij_iekf"):
        g = filters.FilterInstance(filters.FilterVariant(tag), st, f.P[0],
                                   f.noise, landmarks=f.landmarks[0])
        if tag == "fej":
            g.first_landmarks[0] += rng.normal(0.0, 0.3, (4, 3))
        g.state.p[0] += rng.normal(0.0, 0.05, 3)
        filts.append(g)
    idx = np.array([2, 0, 3, 1])
    R_c, p_c = vision.camera_pose(st, ext)
    behind = p_c + R_c @ np.array([0.5, -0.3, -4.0])
    cases = {"all kept": [], "one dropped by all": list(range(4)),
             "one dropped by one": [2]}
    for case, moved in cases.items():
        bank = stack_banks(filts)
        bank.landmarks[moved, 1] = behind
        groups = vision.landmark_measurement(bank, model, ext, pix, 1.5,
                                             landmark_index=idx)
        kept = [None] * len(filts)
        for rows, r, H, N, k in groups:
            for j, i in enumerate(range(len(filts)) if rows is None
                                  else rows):
                g = stack_banks([filts[i]])
                g.landmarks[:, 1] = bank.landmarks[i, 1]
                (_, *want), = vision.landmark_measurement(
                    g, model, ext, pix, 1.5, landmark_index=idx)
                for a, b in zip((r[j], H.dense()[j], N, k),
                                (want[0][0], want[1].dense()[0], *want[2:])):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()
                kept[i] = len(k)
        assert len(groups) == (2 if case == "one dropped by one" else 1)
        assert kept == {"all kept": [4] * 4, "one dropped by all": [3] * 4,
                        "one dropped by one": [4, 4, 3, 4]}[case], case


@pytest.mark.parametrize("mode", ["pinhole", "bearing"])
@pytest.mark.parametrize("tags", [("iekf",), ("ekf",), ("fej",),
                                  ("ekf", "fej", "iekf", "ij_iekf")])
def test_block_rows_expand_to_the_dense_rows(tags, mode,
                                             landmark_measurement_dense,
                                             stack_banks):
    # the rows in block form expand to the dense H of the former builder
    # bit for bit, with the same groups, residuals, N and kept
    # observations: with every observation kept, with one dropped by every
    # filter, and with one dropped by the first filter only (split groups)
    model = vision.CameraModel(mode=mode)
    rng = np.random.default_rng(23)
    f, ext, pix = epoch_in_front("ekf", rng, n=5)
    st = row_state(f)
    filts = []
    for tag in tags:
        g = filters.FilterInstance(filters.FilterVariant(tag), st, f.P[0],
                                   f.noise, landmarks=f.landmarks[0])
        g.first_landmarks[0] += rng.normal(0.0, 0.3, (5, 3))
        g.state.p[0] += rng.normal(0.0, 0.05, 3)
        filts.append(g)
    idx = np.array([4, 2, 0, 3])
    R_c, p_c = vision.camera_pose(st, ext)
    behind = p_c + R_c @ np.array([0.5, -0.3, -4.0])
    for moved in ([], list(range(len(tags))), [0]):
        bank = stack_banks(filts)
        bank.landmarks[moved, 2] = behind
        groups = vision.landmark_measurement(bank, model, ext, pix[:4], 1.5,
                                             landmark_index=idx)
        want = landmark_measurement_dense(bank, model, ext, pix[:4], 1.5,
                                          landmark_index=idx)
        split = 0 < len(moved) < len(tags)
        assert len(groups) == len(want) == 1 + split
        for (rows, r, H, N, kept), (rows_w, r_w, H_w, N_w, kept_w) in zip(
                groups, want):
            assert (rows is None) == (rows_w is None)
            if rows is not None:
                assert np.array_equal(rows, rows_w)
            assert isinstance(H, vision.LandmarkRows)
            assert H.shape == H_w.shape
            assert np.array_equal(H.index, idx[kept])
            for a, b in zip((r, H.dense(), N, kept), (r_w, H_w, N_w, kept_w)):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert len(kept) == (3 if len(moved) and (
                rows is None or 0 in rows) else 4)


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
def test_batch_projection_matches_single_point_forms(
        mode, project_point, projection_jacobian_point, oracle_errors):
    # the stacked guard and maps agree with the per-point oracles, points
    # on both sides of the depth and range thresholds included
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
    uv, J = model.project(x[inside])
    for k, point in enumerate(x):
        for fn in (project_point, projection_jacobian_point):
            if inside[k]:
                fn(model, point)
                continue
            with pytest.raises(oracle_errors.ZeroRange if zero_range[k]
                               else oracle_errors.BehindCamera):
                fn(model, point)
    assert inside[:10].all() and not inside[10:12].any()
    for point, uv_k, J_k in zip(x[inside], uv, J):
        assert np.array_equal(J_k, projection_jacobian_point(model, point))
        assert np.array_equal(uv_k, project_point(model, point))


@pytest.mark.parametrize("tag", ["iekf", "ekf"])
def test_clone_feature_jacobians_finite_difference(tag):
    rng = np.random.default_rng(5)
    f = make_filter(tag, rng)
    ext = vision.Extrinsics()
    R_c, p_c = vision.camera_pose(row_state(f), ext)
    poses = [(R_c @ lie.so3_exp(rng.normal(0.0, 0.05, 3)),
              p_c + rng.normal(0.0, 0.5, 3)) for _ in range(3)]
    for R_k, p_k in poses:
        f.clone_camera_pose(R_k, p_k)
    f_world = p_c + R_c @ np.array([0.4, -0.1, 5.0])
    # one track seen by clones 2 and 0: rows follow the given order
    track = [2, 0]
    idx = np.array([track])
    pred, H_x, H_f, outside = vision.clone_feature_jacobians(
        f, MODEL, idx, f.clone_R[0, idx], f.clone_p[0, idx], f_world[None])
    assert not outside[0]
    pred, H_x, H_f = pred[0], H_x[0], H_f[0]

    def observe(R_k, p_k, point):
        return pixel(MODEL, vision.world_to_camera(R_k, p_k, point))

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
            g = filters.FilterInstance(f.variant, row_state(f),
                                       np.eye(15) * 0.01, imu.ImuNoiseSpec())
            for R_k, p_k in poses:
                g.clone_camera_pose(R_k, p_k)
            g.apply_correction(c[None])
            cols.append(np.concatenate(
                [observe(g.clone_R[0, i], g.clone_p[0, i], f_world)
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


@pytest.mark.parametrize("tag", ["iekf", "ekf"])
def test_clone_feature_jacobians_flag_features_outside_the_domain(
        tag, clone_feature_jacobians_track, oracle_errors, one_filter):
    # a group of three tracks whose middle feature is behind one of its
    # clones: that track is flagged with NaN rows (the per-track oracle
    # raises), and the others equal their calls as groups of one and the
    # oracle bit for bit
    rng = np.random.default_rng(14)
    f = make_filter(tag, rng)
    ext = vision.Extrinsics()
    R_c, p_c = vision.camera_pose(row_state(f), ext)
    for _ in range(4):
        f.clone_camera_pose(R_c @ lie.so3_exp(rng.normal(0.0, 0.05, 3)),
                            p_c + rng.normal(0.0, 0.5, 3))
    clone_R, clone_p = f.clone_R[0], f.clone_p[0]
    idx = np.array([[0, 1, 2], [3, 1, 0], [2, 3, 1]])
    points = p_c + np.array([[0.4, -0.1, 5.0], [0.2, 0.3, 6.0],
                             [-0.5, 0.2, 8.0]]) @ R_c.T
    points[1] = clone_p[1] - 2.0 * clone_R[1][:, 2]
    pred, H_x, H_f, outside = vision.clone_feature_jacobians(
        f, MODEL, idx, clone_R[idx], clone_p[idx], points)
    assert outside.tolist() == [False, True, False]
    assert np.isnan(pred[1]).all() and np.isnan(H_x[1]).all()
    assert np.isnan(H_f[1]).all()
    with pytest.raises(oracle_errors.BehindCamera):
        clone_feature_jacobians_track(one_filter(f), MODEL, idx[1],
                                      points[1])
    for k in (0, 2):
        one = vision.clone_feature_jacobians(
            f, MODEL, idx[k:k + 1], clone_R[idx[k:k + 1]],
            clone_p[idx[k:k + 1]], points[k:k + 1])
        oracle = clone_feature_jacobians_track(one_filter(f), MODEL, idx[k],
                                               points[k])
        for got, want, old in zip((pred, H_x, H_f), one, oracle):
            assert got[k].tobytes() == want[0].tobytes() == old.tobytes()


def synthetic_track(rng, n_views=6, noise=0.0):
    f_true = np.array([2.0, 1.0, 30.0]) + rng.normal(0.0, 1.0, 3)
    poses, pixels = [], []
    for k in range(n_views):
        R_c = lie.so3_exp(rng.normal(0.0, 0.05, 3))
        p_c = np.array([1.5 * k, 0.3 * k, 0.1 * k])
        uv = pixel(MODEL, vision.world_to_camera(R_c, p_c, f_true))
        poses.append((R_c, p_c))
        pixels.append(uv + noise * rng.standard_normal(2))
    return f_true, poses, pixels


def stack_tracks(tracks):
    """The arguments (R (g, L, 3, 3), p (g, L, 3), pixels (g, L, 2)) of
    ``vision.triangulate`` for tracks [(poses, pixels), ...] of one
    length."""
    R = np.array([[R_c for R_c, _ in poses] for poses, _ in tracks])
    p = np.array([[p_c for _, p_c in poses] for poses, _ in tracks])
    uv = np.array([np.reshape(pixels, (-1, 2)) for _, pixels in tracks])
    return R, p, uv


def test_triangulation_recovers_point():
    rng = np.random.default_rng(6)
    truths, tracks = [], []
    for _ in range(20):
        f_true, poses, pixels = synthetic_track(rng)
        truths.append(f_true)
        tracks.append((poses, pixels))
    f_est, degenerate, diverged = vision.triangulate(MODEL,
                                                     *stack_tracks(tracks))
    assert not degenerate.any() and not diverged.any()
    assert np.linalg.norm(f_est - truths, axis=1).max() < 1e-6


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
            pred, J_pi = model.project(x_cam[None])
            J = J_pi[0] @ R_c.T
            r = np.asarray(uv, dtype=float) - pred[0]
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
    # one call per track length on 20 tracks each
    model = vision.CameraModel(mode=mode)
    rng = np.random.default_rng(13)
    for n_views in (3, 6, 11):
        tracks = [synthetic_track(rng, n_views, noise=1.0)[1:]
                  for _ in range(20)]
        got, degenerate, diverged = vision.triangulate(model,
                                                       *stack_tracks(tracks))
        assert not degenerate.any() and not diverged.any()
        for f, track in zip(got, tracks):
            want = triangulate_loop(model, *track)
            assert np.linalg.norm(f - want) <= 1e-12 * np.linalg.norm(want)
            # a track's point does not depend on the group it is in
            one = vision.triangulate(model, *stack_tracks([track]))[0][0]
            assert f.tobytes() == one.tobytes()


# lines that meet 5 m behind the cameras, so that the linear start is behind
# them and the refinement stops on its depth check
def behind_track(n):
    return ([(np.eye(3), np.array([float(k), 0.0, 0.0])) for k in range(n)],
            [np.array([320.0 + 250.0 * (k - 0.5) / 5.0, 240.0])
             for k in range(n)])


def test_triangulation_degenerate_rays():
    # parallel rays, and the lines that meet behind the cameras, in one
    # call; the per-observation loop raises the same
    parallel = ([(np.eye(3), np.zeros(3))] * 3,
                [np.array([320.0, 240.0])] * 3)
    behind = behind_track(3)
    f, degenerate, diverged = vision.triangulate(
        MODEL, *stack_tracks([parallel, behind]))
    assert degenerate.tolist() == [True, False]
    assert diverged.tolist() == [False, True]
    assert np.isnan(f).all()
    with pytest.raises(DegenerateGeometry):
        triangulate_loop(MODEL, *parallel)
    with pytest.raises(Diverged):
        triangulate_loop(MODEL, *behind)


def near_parallel_track(baseline):
    """Three noise-free views of a point 10 m ahead from cameras on a line
    ``baseline`` apart, and the eigenvalue ratio lambda_min / lambda_max of
    the linear start's normal matrix sum_i (I - b_i b_i^T)."""
    point = np.array([0.5, -0.3, 10.0])
    poses = [(np.eye(3), baseline * k * np.array([1.0, 0.2, 0.0]))
             for k in range(3)]
    pixels = [pixel(MODEL, vision.world_to_camera(R_c, p_c, point))
              for R_c, p_c in poses]
    rays = [R_c @ np.linalg.solve(MODEL.K, [*uv, 1.0]) for (R_c, _), uv
            in zip(poses, pixels)]
    A = sum(np.eye(3) - np.outer(b, b) / (b @ b) for b in rays)
    eig = np.linalg.eigvalsh(A)
    return point, (poses, pixels), eig[0] / eig[2]


def test_triangulation_rank_threshold_on_near_parallel_rays(
        triangulate_track):
    # the rank test compares the normal matrix's eigenvalue ratio with
    # TRIANGULATE_RANK_RTOL = 1e-12: at a 20 um baseline (ratio 2.8e-12)
    # the point triangulates, at 10 um (6.9e-13) the track is degenerate,
    # although the former SVD test on the stacked projectors (singular
    # value ratio 8.3e-7 against RANK_RTOL = 1e-10) took it
    assert vision.TRIANGULATE_RANK_RTOL == 1e-12
    point, wide, ratio_wide = near_parallel_track(2e-5)
    _, narrow, ratio_narrow = near_parallel_track(1e-5)
    assert 1e-12 < ratio_wide < 4e-12 and 4e-13 < ratio_narrow < 1e-12
    f, degenerate, diverged = vision.triangulate(
        MODEL, *stack_tracks([wide, narrow]))
    assert degenerate.tolist() == [False, True]
    assert not diverged.any()
    assert np.linalg.norm(f[0] - point) < 1e-6 and np.isnan(f[1]).all()
    assert np.sqrt(ratio_narrow) > vision.RANK_RTOL
    assert np.isfinite(triangulate_track(MODEL, *narrow)).all()


@pytest.mark.parametrize("mode", ["pinhole", "bearing"])
def test_triangulation_batch_isolates_failures(mode, triangulate_track,
                                               oracle_errors):
    # good tracks mixed with one track of each way to fail: parallel rays
    # (degenerate), lines meeting behind the cameras (behind), a scene so
    # far out that no step falls below the absolute step tolerance (no
    # convergence), and one so far out that the normal matrix underflows to
    # zero (singular, which fails a stacked solve as a whole; its squared
    # depths overflow on the way).  Each track gets its point as a group of
    # one bit for bit, and the per-track oracle's point (started by lstsq)
    # within 1e-12 relative, or the oracle's failure.
    model = vision.CameraModel(mode=mode)
    rng = np.random.default_rng(15)

    def scaled(scale):
        _, poses, pixels = synthetic_track(rng, 4, noise=1.0)
        return [(R_c, scale * p_c) for R_c, p_c in poses], pixels

    tracks = [scaled(1.0), ([(np.eye(3), np.zeros(3))] * 4,
                            [np.array([300.0, 250.0])] * 4),
              scaled(1.0), behind_track(4), scaled(1e9), scaled(1.0),
              scaled(1e200), scaled(1.0)]
    with np.errstate(over="ignore", invalid="ignore"):
        f, degenerate, diverged = vision.triangulate(model,
                                                     *stack_tracks(tracks))
    outcome = []
    for k, track in enumerate(tracks):
        with np.errstate(over="ignore", invalid="ignore"):
            one = vision.triangulate(model, *stack_tracks([track]))
        assert f[k].tobytes() == one[0][0].tobytes()
        assert (degenerate[k], diverged[k]) == (one[1][0], one[2][0])
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                want = triangulate_track(model, *track)
        except (DegenerateGeometry, oracle_errors.Diverged) as e:
            outcome.append(type(e).__name__)
            assert np.isnan(f[k]).all()
            continue
        outcome.append("ok")
        assert np.linalg.norm(f[k] - want) <= 1e-12 * np.linalg.norm(want)
    assert outcome == ["ok", "DegenerateGeometry", "ok", "Diverged",
                       "Diverged", "ok", "DegenerateGeometry", "ok"]
    assert degenerate.tolist() == [o == "DegenerateGeometry" for o in outcome]
    assert diverged.tolist() == [o == "Diverged" for o in outcome]


def test_triangulation_of_one_track(triangulate_track):
    rng = np.random.default_rng(17)
    _, poses, pixels = synthetic_track(rng, 5, noise=1.0)
    f, degenerate, diverged = vision.triangulate(
        MODEL, *stack_tracks([(poses, pixels)]))
    assert f.shape == (1, 3) and not degenerate[0] and not diverged[0]
    want = triangulate_track(MODEL, poses, pixels)
    assert np.linalg.norm(f[0] - want) <= 1e-12 * np.linalg.norm(want)


def test_nullspace_projection_annihilates_feature_block(
        clone_feature_jacobians_track, nullspace_project_track, one_filter):
    # 100 synthetic tracks projected in one call: |Q2^T H_f| < 1e-10,
    # noise-free projected residuals < 1e-8, and each track equal to its
    # call as a group of one and to the per-track oracles bit for bit
    rng = np.random.default_rng(7)
    residuals, H_xs, H_fs = [], [], []
    for _ in range(100):
        f_true, poses, pixels = synthetic_track(rng)
        filt = make_filter("iekf", rng)
        for R_c, p_c in poses:
            filt.clone_camera_pose(R_c, p_c)
        idx = np.arange(len(poses))[None]
        pred, H_x, Hf, outside = vision.clone_feature_jacobians(
            filt, MODEL, idx, filt.clone_R[0, idx], filt.clone_p[0, idx],
            f_true[None])
        assert not outside[0]
        for got, old in zip((pred, H_x, Hf), clone_feature_jacobians_track(
                one_filter(filt), MODEL, idx[0], f_true)):
            assert got[0].tobytes() == old.tobytes()
        residuals.append(np.concatenate(pixels) - pred[0])
        H_xs.append(H_x[0])
        H_fs.append(Hf[0])
    r0, H0, degenerate = vision.nullspace_project(
        np.array(residuals), np.array(H_xs), np.array(H_fs))
    assert not degenerate.any()
    assert H0.shape == (100, 2 * len(pixels) - 3, filt.dim)
    worst_hf = 0.0
    for k, Hf in enumerate(H_fs):
        Q, _ = np.linalg.qr(Hf, mode="complete")
        worst_hf = max(worst_hf, np.linalg.norm(Q[:, 3:].T @ Hf))
        one = vision.nullspace_project(residuals[k][None], H_xs[k][None],
                                       Hf[None])
        old = nullspace_project_track(residuals[k], H_xs[k], Hf)
        assert r0[k].tobytes() == one[0][0].tobytes() == old[0].tobytes()
        assert H0[k].tobytes() == one[1][0].tobytes() == old[1].tobytes()
    assert worst_hf < 1e-10
    assert np.abs(r0).max() < 1e-8


def test_nullspace_projection_flags_rank_deficient_tracks():
    # a track whose feature block has rank 2 among full-rank ones
    rng = np.random.default_rng(18)
    H_f = rng.normal(0.0, 1.0, (3, 8, 3))
    H_f[1, :, 2] = H_f[1, :, 0] - H_f[1, :, 1]
    r0, H0, degenerate = vision.nullspace_project(
        rng.normal(0.0, 1.0, (3, 8)), rng.normal(0.0, 1.0, (3, 8, 21)), H_f)
    assert degenerate.tolist() == [False, True, False]
    assert np.isnan(r0[1]).all() and np.isnan(H0[1]).all()
    assert np.isfinite(r0[[0, 2]]).all() and np.isfinite(H0[[0, 2]]).all()


def test_nullspace_projection_needs_enough_rows():
    with pytest.raises(DegenerateGeometry):
        vision.nullspace_project(np.zeros((1, 2)), np.zeros((1, 2, 15)),
                                 np.ones((1, 2, 3)))


def test_compressed_update_matches_tall_update(mean_vector, one_filter):
    # the sliding window's shape: 12 clones (d = 87) and 840 stacked rows,
    # velocity and bias columns all zero
    rng = np.random.default_rng(12)
    filt = make_filter("iekf", rng)
    for _ in range(12):
        filt.clone_camera_pose(lie.so3_exp(rng.normal(0.0, 0.3, 3)),
                               rng.normal(0.0, 5.0, 3))
    d = filt.dim
    A = rng.normal(0.0, 0.03, (d, d))
    filt.P = (A @ A.T + 1e-4 * np.eye(d))[None]
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
    tall.update_raw(residual[None], H[None], np.eye(840))
    short.update_raw(r_c[None], H_c[None], np.eye(d))
    assert (np.abs(short.P - tall.P).max()
            <= 1e-12 * np.abs(tall.P).max())
    mean = mean_vector(one_filter(tall))
    assert (np.abs(mean_vector(one_filter(short)) - mean).max()
            <= 1e-12 * np.abs(mean).max())
    # a stack no taller than the state goes through as it is
    for rows in (d, 10):
        r_s, H_s = vision.compress_measurement(residual[:rows], H[:rows])
        assert r_s.base is residual and H_s.base is H


# criterion 9's sliding-window scenario, over the benchmark's 4.4 s
WINDOW = sim.Scenario(duration=4.4, imu_rate=100.0, cam_rate=5.0,
                      n_landmarks=200, max_range=90.0,
                      landmark_box=((-60.0, 60.0), (-50.0, 50.0),
                                    (-60.0, -30.0)))


def record_flushes(monkeypatch, flush):
    """Make ``flush`` the updaters' flush while recording, per flush, its
    return value and the stacked (residual, H) it hands to
    ``compress_measurement``; returns (updaters, returns, stacks), filled
    as the flushes run."""
    updaters, returns, stacks = [], [], []
    compress = vision.compress_measurement

    def recording_compress(residual, H):
        stacks.append((residual.copy(), H.copy()))
        return compress(residual, H)

    def recording_flush(self, filt, feature_ids):
        if self not in updaters:
            updaters.append(self)
        returns.append(flush(self, filt, feature_ids))
        return returns[-1]

    monkeypatch.setattr(vision, "compress_measurement", recording_compress)
    monkeypatch.setattr(vision.SlidingWindowUpdater, "_flush",
                        recording_flush)
    return updaters, returns, stacks


def assert_same_flushes(batched, per_track):
    """The recordings of two runs of ``record_flushes`` agree bit for bit:
    tracks used per flush, stacked rows and drop counts."""
    (upd_b,), returns_b, stacks_b = batched
    (upd_o,), returns_o, stacks_o = per_track
    assert returns_b == returns_o
    assert len(stacks_b) == len(stacks_o)
    for (r_b, H_b), (r_o, H_o) in zip(stacks_b, stacks_o):
        assert r_b.tobytes() == r_o.tobytes()
        assert H_b.tobytes() == H_o.tobytes()
    assert upd_b.dropped == upd_o.dropped


# the drop counts of the realization of seed 0
PINNED_DROPS = {0: {"too_short": 4, "degenerate": 0, "diverged": 0,
                    "outside_domain": 0, "max_features": 52}}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_window_flush_matches_per_track_flush(monkeypatch, seed,
                                              flush_per_track):
    # the window pipeline with the batched flush and with the per-track
    # flush: the same tracks in the same order, residuals and rows bit for
    # bit, the same drop counts and the same estimates
    runs = []
    for flush in (vision.SlidingWindowUpdater._flush, flush_per_track):
        with monkeypatch.context() as m:
            rec = record_flushes(m, flush)
            truth = sim.synthesize_truth(WINDOW, np.random.default_rng(seed))
            _, errs = sim.run_sliding_window(WINDOW, truth, seed=seed)
        runs.append((rec, errs))
    (batched, errs_b), (per_track, errs_o) = runs
    assert_same_flushes(batched, per_track)
    assert errs_b.tobytes() == errs_o.tobytes()
    dropped = batched[0][0].dropped
    assert max(batched[1]) == 40 and dropped["max_features"] > 0
    if seed in PINNED_DROPS:
        assert dict(dropped) == PINNED_DROPS[seed]


def ended_tracks(rng, specs, n_epochs=6):
    """(filter, poses, frames): a filter, ``n_epochs`` camera poses along a
    line, and per pose the pixel observations {feature id: pixel} of one
    track per spec, feature id the spec's position, each track ending at
    the last pose.  A spec is (length, kind): kind "good" is a noisy view
    of a point ahead, "parallel" the pixels of one direction at infinity,
    "behind" views of a point behind every camera."""
    filt = make_filter("iekf", rng)
    poses = [(lie.so3_exp(rng.normal(0.0, 0.05, 3)),
              np.array([1.5 * k, 0.3 * k, 0.1 * k])) for k in range(n_epochs)]
    frames = [{} for _ in range(n_epochs)]
    for fid, (length, kind) in enumerate(specs):
        if kind == "good":
            point = np.array([2.0, 1.0, 30.0]) + rng.normal(0.0, 1.0, 3)
        elif kind == "parallel":
            direction = np.array([0.1, -0.05, 1.0]) + rng.normal(0.0, 0.02, 3)
        else:
            point = np.array([3.0, 0.5, -20.0]) + rng.normal(0.0, 1.0, 3)
        for k in range(n_epochs - length, n_epochs):
            R_c, p_c = poses[k]
            x_cam = (direction @ R_c if kind == "parallel"
                     else vision.world_to_camera(R_c, p_c, point))
            uv = pixel(MODEL, x_cam)
            frames[k][fid] = uv + (rng.normal(0.0, 1.0, 2) if kind == "good"
                                   else 0.0)
    return filt, poses, frames


def flush_ended_tracks(monkeypatch, flush, filt, poses, frames):
    """Ingest ``frames`` at ``poses`` into a copy of the bank of one
    ``filt``, then one epoch with no observation, which ends every track,
    with ``flush`` as the flush; returns the ``record_flushes`` recording
    and the filter."""
    filt = copy.deepcopy(filt)
    upd = vision.SlidingWindowUpdater(MODEL, vision.Extrinsics())
    with monkeypatch.context() as m:
        rec = record_flushes(m, flush)
        for (R_c, p_c), obs in zip(poses + [poses[-1]], frames + [{}]):
            filt.state.R[0], filt.state.p[0] = R_c, p_c
            upd.ingest(filt, obs)
    return rec, filt


@pytest.mark.parametrize("case", ["refill", "single"])
def test_ended_tracks_flush_like_per_track_flush(monkeypatch, case,
                                                 flush_per_track,
                                                 mean_vector, one_filter):
    rng = np.random.default_rng(19)
    if case == "refill":
        # 60 tracks of 2 to 6 views ending together, at the default cap of
        # 40 (max_features).  They flush in the order of their first view,
        # longest first; five of the first 40 fail, so a second round takes
        # the next five.  The three short tracks start last and are among
        # the 15 past the cap.
        kinds = {3: "parallel", 9: "behind", 17: "parallel", 26: "behind",
                 33: "parallel"}
        specs = [(2 if k in (5, 21, 50) else 3 + k % 4, kinds.get(k, "good"))
                 for k in range(60)]
        want_used = 40
        want_drops = {"degenerate": 3, "diverged": 2, "max_features": 15}
    else:
        specs = [(4, "good"), (2, "good")]
        want_used = 1
        want_drops = {"too_short": 1}
    filt, poses, frames = ended_tracks(rng, specs)
    runs = [flush_ended_tracks(monkeypatch, flush, filt, poses, frames)
            for flush in (vision.SlidingWindowUpdater._flush,
                          flush_per_track)]
    (batched, filt_b), (per_track, filt_o) = runs
    assert_same_flushes(batched, per_track)
    assert batched[1][-1] == want_used
    assert +batched[0][0].dropped == want_drops
    assert filt_b.P.tobytes() == filt_o.P.tobytes()
    assert (mean_vector(one_filter(filt_b)).tobytes()
            == mean_vector(one_filter(filt_o)).tobytes())


def test_sliding_window_updater_marginalizes():
    rng = np.random.default_rng(8)
    filt = make_filter("iekf", rng)
    upd = vision.SlidingWindowUpdater(MODEL, vision.Extrinsics(),
                                      max_clones=3)
    for _ in range(6):
        upd.ingest(filt, {})
        assert filt.clone_p.shape[1] <= 3
    assert (len(upd._window) == filt.clone_p.shape[1]
            == filt.clone_R.shape[1])


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
