"""Filter-bank tests: update algebra against the Joseph form, variant
dispatch, clone bookkeeping, correction conventions, the bank against one
filter at a time, and the error-state Jacobians against finite differences
of the actual nonlinear models."""

import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st_

from iekf_kit import filters, imu, lie, sim, vision
from iekf_kit.exceptions import SingularCovariance, SingularInnovation


def make_state(rng):
    return imu.ImuState(
        lie.so3_exp(rng.normal(0.0, 0.3, 3)),
        rng.normal(0.0, 5.0, 3),
        rng.normal(0.0, 1.0, 3),
        np.zeros(3), np.zeros(3))


# one noise spec, so that the banks of make_filter stack
NOISE = imu.ImuNoiseSpec()


def make_filter(tag, rng, r=0.0, landmarks=None, P_scale=0.01, noise=NOISE):
    """A bank of one filter."""
    st = make_state(rng)
    m = 0 if landmarks is None else len(landmarks)
    P = np.eye(15 + 3 * m) * P_scale
    return filters.FilterInstance(filters.FilterVariant(tag, r), st, P,
                                  noise, rng=np.random.default_rng(42),
                                  landmarks=landmarks)


def row_state(bank, i=0):
    """The state of row ``i`` of ``bank``, copied, with 2-D fields."""
    return bank.state[i].copy()


def group_element(R, columns):
    """The SE_n(3) matrix of a rotation and its n translation columns."""
    t = np.asarray(columns, dtype=float).reshape(-1, 3)
    X = np.eye(3 + len(t))
    X[:3, :3] = R
    X[:3, 3:] = t.T
    return X


# one IMU reading, as the one-row stacks that predict takes
OMEGA = np.array([[0.1, -0.2, 0.05]])
ACCEL = np.array([[0.3, 0.1, 9.7]])


def test_variant_validation():
    with pytest.raises(ValueError):
        filters.FilterVariant("kf")
    with pytest.raises(ValueError):
        filters.FilterVariant("ekf", r=0.5)
    with pytest.raises(ValueError):
        filters.FilterVariant("ij_iekf", r=-0.1)
    # a bool or a string is no range, though True == 1 and "0.5" parses
    for r in (True, False, "0.5"):
        with pytest.raises(ValueError, match="real number"):
            filters.FilterVariant("ij_iekf", r)
    assert filters.FilterVariant("ij_iekf", 0.25).label == "ij_iekf-0.25"
    assert filters.FilterVariant("iekf").invariant
    assert not filters.FilterVariant("fej").invariant
    # qekf matched ekf to rounding and is no tag; the error lists the tags
    with pytest.raises(ValueError, match="choose from ekf, fej, iekf, ij_iekf"):
        filters.FilterVariant("qekf")


def test_ij_zero_range_bit_identical_to_iekf():
    rng = np.random.default_rng(0)
    st = make_state(rng)
    P = np.eye(15) * 0.01
    a = filters.FilterInstance(filters.FilterVariant("iekf"), st, P,
                               imu.ImuNoiseSpec(),
                               rng=np.random.default_rng(7))
    b = filters.FilterInstance(filters.FilterVariant("ij_iekf", 0.0), st, P,
                               imu.ImuNoiseSpec(),
                               rng=np.random.default_rng(7))
    for k in range(20):
        a.predict(OMEGA, ACCEL, 0.01)
        b.predict(OMEGA, ACCEL, 0.01)
        if k % 5 == 0:
            H = np.zeros((3, 15))
            H[:, 3:6] = np.eye(3)
            z = rng.normal(0.0, 0.1, (1, 3))
            a.update_raw(z, H[None], np.eye(3) * 0.01)
            b.update_raw(z, H[None], np.eye(3) * 0.01)
    assert np.array_equal(a.P, b.P)
    assert np.array_equal(a.state.p, b.state.p)
    assert np.array_equal(a.state.R, b.state.R)
    # predict and update keep P exactly symmetric
    assert np.array_equal(a.P[0], a.P[0].T)


def test_update_matches_joseph_form():
    rng = np.random.default_rng(1)
    f = make_filter("ekf", rng, P_scale=0.5)
    H = rng.normal(0.0, 1.0, (4, 15))
    N = np.eye(4) * 0.5
    P = f.P[0].copy()
    S = H @ P @ H.T + N
    K = P @ H.T @ np.linalg.inv(S)
    ref = (np.eye(15) - K @ H) @ P @ (np.eye(15) - K @ H).T + K @ N @ K.T
    f.update_raw(np.zeros((1, 4)), H[None], N)
    assert np.abs(f.P[0] - ref).max() / np.abs(ref).max() < 1e-12


def test_update_rejects_singular_innovation():
    rng = np.random.default_rng(2)
    f = make_filter("iekf", rng)
    P0, p0 = f.P.copy(), f.state.p.copy()
    H = np.zeros((2, 15))
    H[0, 3] = 1.0
    H[1, 3] = 1.0  # duplicated row, zero noise: singular S
    with pytest.raises(SingularInnovation):
        f.update_raw(np.ones((1, 2)), H[None], np.zeros((2, 2)))
    # nearly duplicated row: S factors, but with condition number ~1e14
    H[1, 4] = 1e-7
    with pytest.raises(SingularInnovation):
        f.update_raw(np.ones((1, 2)), H[None], np.zeros((2, 2)))
    assert np.array_equal(f.P, P0)
    assert np.array_equal(f.state.p, p0)


@settings(max_examples=60, deadline=None)
# up to 48 rows: the update's forward substitution takes one row block or two
@given(tag=st_.sampled_from(["ekf", "fej", "iekf"]),
       m=st_.integers(1, 24), n_obs=st_.integers(1, 24),
       log_scale=st_.floats(-6.0, 2.0), sigma_px=st_.floats(0.05, 5.0),
       seed=st_.integers(0, 2 ** 32 - 1))
def test_update_raw_keeps_covariance_symmetric_psd(tag, m, n_obs, log_scale,
                                                   sigma_px, seed):
    rng = np.random.default_rng(seed)
    f = make_filter(tag, rng, landmarks=np.zeros((m, 3)))
    ext = vision.Extrinsics()
    R_c, p_c = vision.camera_pose(row_state(f), ext)
    x_cam = np.column_stack([rng.uniform(-3.0, 3.0, (m, 2)),
                             rng.uniform(2.0, 40.0, m)])
    f.landmarks[0] = p_c + x_cam @ R_c.T
    A = rng.normal(0.0, 1.0, (f.dim, f.dim)) * 10.0 ** rng.uniform(
        log_scale - 2.0, log_scale, f.dim)
    f.P = (A @ A.T)[None]
    idx = rng.choice(m, size=min(n_obs, m), replace=False)
    model = vision.CameraModel()
    pix = model.project(x_cam[idx])[0]
    pix += rng.normal(0.0, sigma_px, pix.shape)
    (_, r, H, N, _), = vision.landmark_measurement(f, model, ext, pix,
                                                   sigma_px,
                                                   landmark_index=idx)
    try:
        f.update_raw(r, H, N)
    except SingularInnovation:
        assume(False)
    P = f.P[0]
    assert np.array_equal(P, P.T)
    norm = np.linalg.norm(P, 2)
    assert np.linalg.eigvalsh(P).min() >= -1e-12 * norm


B = filters.SOLVE_BLOCK


# one row block, its edges and several blocks at the dense workload's
# d = 195 (60 landmarks), and the sliding window's tall 840-row stack at
# d = 87 (12 clones, velocity and bias columns all zero)
@pytest.mark.parametrize("rows, m, n_clones",
                         [(1, 60, 0), (B - 1, 60, 0), (B, 60, 0),
                          (B + 1, 60, 0), (78, 60, 0), (840, 0, 12)])
def test_update_raw_matches_lu_solve(rows, m, n_clones, update_raw_lu,
                                     update_raw_filter, mean_vector,
                                     one_filter):
    rng = np.random.default_rng(rows)
    f = make_filter("iekf", rng,
                    landmarks=rng.normal(0.0, 10.0, (m, 3)) if m else None)
    for _ in range(n_clones):
        f.clone_camera_pose(lie.so3_exp(rng.normal(0.0, 0.3, 3)),
                            rng.normal(0.0, 5.0, 3))
    d = f.dim
    A = rng.normal(0.0, 0.03, (d, d))
    f.P = (A @ A.T + 1e-4 * np.eye(d))[None]
    H = rng.normal(0.0, 5.0, (rows, d))
    if n_clones:
        H[:, 6:15] = 0.0
    residual = rng.normal(0.0, 1.0, rows)
    N = np.eye(rows)
    ref, copy_ref = one_filter(f), one_filter(f)
    P_before = f.P
    f.update_raw(residual[None], H[None], N)
    update_raw_lu(ref, residual, H, N)
    assert np.array_equal(f.P[0], f.P[0].T)
    assert np.abs(f.P[0] - ref.P).max() <= 1e-12 * np.abs(ref.P).max()
    mean = mean_vector(ref)
    assert (np.abs(mean_vector(one_filter(f)) - mean).max()
            <= 1e-12 * np.abs(mean).max())
    # the bank writes its own P in place, bit for bit as the allocating
    # update of a copy
    update_raw_filter(copy_ref, residual, H, N)
    assert f.P is P_before and f.P.flags.c_contiguous
    assert f.P[0].tobytes() == copy_ref.P.tobytes()


def make_batch(tags, rng, m=0, n_clones=0):
    """Banks of one filter of one state layout, each with its own mean,
    clones and a random positive definite P."""
    filts = []
    for tag in tags:
        f = make_filter(tag, rng, r=0.3 if tag == "ij_iekf" else 0.0,
                        landmarks=rng.normal(0.0, 10.0, (m, 3)) if m else None)
        for _ in range(n_clones):
            f.clone_camera_pose(lie.so3_exp(rng.normal(0.0, 0.3, 3)),
                                rng.normal(0.0, 5.0, 3))
        A = rng.normal(0.0, 0.03, (f.dim, f.dim))
        f.P = (A @ A.T + 1e-4 * np.eye(f.dim))[None]
        filts.append(f)
    return filts


STUDY_TAGS = ("ekf", "fej", "iekf", "ij_iekf", "ij_iekf")


# the study's shape with fej (d = 51, 24 rows: one row block), two row
# blocks, and clones beside landmarks, whose rows the correction stacks too
@pytest.mark.parametrize("tags, m, n_clones, rows, stacked_N", [
    (STUDY_TAGS, 12, 0, 24, False),
    (STUDY_TAGS, 12, 0, B + 6, True),
    (("iekf", "ekf", "fej", "ij_iekf"), 2, 5, 20, False),
    (("iekf",), 0, 8, 30, False)])
def test_update_of_a_list_equals_one_update_per_filter(
        tags, m, n_clones, rows, stacked_N, update_raw_filter, mean_vector,
        one_filter):
    rng = np.random.default_rng(rows + m)
    bank = filters.FilterInstance.stack(make_batch(tags, rng, m, n_clones))
    b, d = len(tags), bank.dim
    H = rng.normal(0.0, 5.0, (b, rows, d))
    residual = rng.normal(0.0, 1.0, (b, rows))
    N = np.eye(rows) * 2.0
    if stacked_N:
        N = N * rng.uniform(0.5, 2.0, (b, 1, 1))
    refs = [one_filter(bank, i) for i in range(b)]
    P = bank.P
    bank.update_raw(residual, H, N)
    for i, ref in enumerate(refs):
        update_raw_filter(ref, residual[i], H[i],
                          N[i] if stacked_N else N)
        assert bank.P[i].tobytes() == ref.P.tobytes(), ref.variant.label
        assert (mean_vector(one_filter(bank, i)).tobytes()
                == mean_vector(ref).tobytes())
    assert bank.landmarks.shape == (b, m, 3)
    assert bank.clone_R.shape == (b, n_clones, 3, 3)
    # the bank's P is written in place, exactly symmetric
    assert bank.P is P and bank.P.flags.c_contiguous
    assert np.array_equal(bank.P, bank.P.swapaxes(1, 2))


# the study's d = 51 and d = 99 update from the expanded dense H, and the
# block products take over from d = imu.STATIC_SPLIT_DIM on: d = 102 and the
# dense workload's d = 195
@pytest.mark.parametrize("m", [12, 28, 29, 60])
def test_update_from_block_rows_equals_the_dense_update(m, mean_vector,
                                                        one_filter):
    # the bank's update from the landmark rows in block form equals the
    # update from their dense H bit for bit below the threshold, and within
    # 1e-12 of the largest entry from it on, for the group of every filter
    # but one and for that one's own group (a row index)
    rng = np.random.default_rng(m)
    ext = vision.Extrinsics()
    model = vision.CameraModel()
    st = make_state(rng)
    R_c, p_c = vision.camera_pose(st, ext)
    x_cam = np.column_stack([rng.uniform(-2.0, 2.0, (m, 2)),
                             rng.uniform(3.0, 9.0, m)])
    filts = []
    for tag in ("ekf", "fej", "iekf", "ij_iekf"):
        f = filters.FilterInstance(
            filters.FilterVariant(tag, 0.3 if tag == "ij_iekf" else 0.0), st,
            np.eye(15 + 3 * m), NOISE, landmarks=p_c + x_cam @ R_c.T)
        A = rng.normal(0.0, 0.03, (f.dim, f.dim))
        f.P = (A @ A.T + 1e-4 * np.eye(f.dim))[None]
        f.first_landmarks[0] += rng.normal(0.0, 0.3, (m, 3))
        f.state.p[0] += rng.normal(0.0, 0.05, 3)
        filts.append(f)
    bank = filters.FilterInstance.stack(filts)
    # the ekf estimates landmark 1 behind its camera and drops it
    bank.landmarks[0, 1] = p_c + R_c @ np.array([0.5, -0.3, -4.0])
    idx = rng.permutation(m)
    pix = model.project(x_cam[idx])[0] + rng.normal(0.0, 1.0, (m, 2))
    groups = vision.landmark_measurement(bank, model, ext, pix, 1.0,
                                         landmark_index=idx)
    assert sorted(list(rows) for rows, *_ in groups) == [[0], [1, 2, 3]]
    blocks, dense = copy.deepcopy(bank), copy.deepcopy(bank)
    for rows, r, H, N, _ in groups:
        blocks.update_raw(r, H, N, rows)
        dense.update_raw(r, H.dense(), N, rows)
    for i in range(len(filts)):
        got, want = one_filter(blocks, i), one_filter(dense, i)
        pairs = ((got.P, want.P), (mean_vector(got), mean_vector(want)))
        if bank.dim < imu.STATIC_SPLIT_DIM:
            assert all(a.tobytes() == b.tobytes() for a, b in pairs)
        else:
            assert all(np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
                       for a, b in pairs)
        assert np.array_equal(got.P, got.P.T)


@pytest.mark.parametrize("m, n_clones", [(12, 0), (0, 6), (3, 4)])
def test_correction_of_a_list_equals_one_correction_per_filter(
        m, n_clones, monkeypatch, apply_correction_filter, mean_vector,
        one_filter):
    # one stacked exponential on every filter's pose and clone rows, and
    # one stacked left Jacobian on the invariant filters' rows
    rng = np.random.default_rng(3 + m)
    tags = ("ij_iekf", "ekf", "iekf", "fej", "iekf")
    bank = filters.FilterInstance.stack(make_batch(tags, rng, m, n_clones))
    D = rng.normal(0.0, 0.1, (len(tags), bank.dim))
    D[2, :3] *= 1e-8    # a pose rotation row on the small-angle branch
    refs = [one_filter(bank, i) for i in range(len(tags))]
    calls = []

    def counted(fn):
        def wrapper(w):
            calls.append((fn.__name__, np.shape(w)))
            return fn(w)
        return wrapper

    for name in ("so3_exp_stack", "so3_left_jacobian"):
        monkeypatch.setattr(lie, name, counted(getattr(lie, name)))
    bank.apply_correction(D)
    monkeypatch.undo()
    for ref, d in zip(refs, D):
        apply_correction_filter(ref, d)
    assert calls == [("so3_exp_stack", (5 * (1 + n_clones), 3)),
                     ("so3_left_jacobian", (3 * (1 + n_clones), 3))]
    for i, ref in enumerate(refs):
        assert (mean_vector(one_filter(bank, i)).tobytes()
                == mean_vector(ref).tobytes())


def test_correction_of_a_list_rejects_mixed_layouts():
    # banks of different clone or landmark counts do not stack into one
    rng = np.random.default_rng(8)
    a, b = make_batch(("iekf", "ekf"), rng)
    b.clone_camera_pose(np.eye(3), np.zeros(3))
    c = make_filter("ekf", rng, landmarks=np.zeros((2, 3)))
    for other in (b, c):
        with pytest.raises(ValueError, match="one state layout"):
            filters.FilterInstance.stack([a, other])


def test_update_of_a_list_rejects_unstacked_rows():
    # the rows of a bank's update carry the batch axis: an (m, dim) H or an
    # (m,) residual is not split among the filters nor shared by them
    rng = np.random.default_rng(10)
    bank = filters.FilterInstance.stack(make_batch(("iekf", "ekf"), rng))
    H = rng.normal(0.0, 1.0, (2, 4, 15))
    for residual, rows in ((np.ones((2, 4)), H.reshape(8, 15)),
                           (np.ones(4), H), (np.ones((2, 4)), H[..., :14])):
        with pytest.raises(ValueError, match="filter"):
            bank.update_raw(residual, rows, np.eye(4))
    with pytest.raises(ValueError, match="filter"):
        bank.apply_correction(np.zeros(15))


@pytest.mark.parametrize("near", [False, True])
def test_singular_member_leaves_every_filter_unchanged(near, mean_vector,
                                                       one_filter):
    # one member's S is singular (a duplicated row, zero noise) or has a
    # condition number near 1e14 (a nearly duplicated row): the update of
    # the bank raises before any filter is corrected
    rng = np.random.default_rng(9)
    bank = filters.FilterInstance.stack(
        make_batch(("ekf", "iekf", "ij_iekf"), rng, m=2))
    H = rng.normal(0.0, 1.0, (3, 4, bank.dim))
    H[1, 3] = H[1, 2]
    if near:
        H[1, 3, 4] += 1e-7 * np.abs(H[1, 2]).max()

    def snapshot():
        return [mean_vector(one_filter(bank, i)).tobytes() for i in range(3)]
    before = (bank.P.tobytes(), snapshot())
    with pytest.raises(SingularInnovation):
        bank.update_raw(np.ones((3, 4)), H, np.zeros((4, 4)))
    assert (bank.P.tobytes(), snapshot()) == before


# the ``dense`` benchmark's shape: 60 in-state landmarks (d = 195), a 5 Hz
# camera on a 50 Hz IMU, ekf beside iekf
DENSE = dict(duration=1.2, imu_rate=50.0, cam_rate=5.0, n_landmarks=60)
DENSE_INIT = sim.InitSpec(sigma_bw=0.002, sigma_ba=0.02, sigma_f=2.0)
DENSE_VARIANTS = [filters.FilterVariant("ekf"),
                  filters.FilterVariant("iekf")]


def dense_run(seed):
    """A truth realization of the dense shape, its camera frames and a
    function that builds the perturbed bank of its paired run afresh."""
    sc = sim.Scenario(**DENSE)
    rng = np.random.default_rng(seed)
    truth = sim.synthesize_truth(sc, rng)
    every = sc.camera_every
    frames = [sim.camera_frame(sc, truth.states[k], truth.landmarks, rng)
              for k in range(every, len(truth.times), every)]

    def bank(variants=DENSE_VARIANTS):
        return sim.perturbed_filter(variants, truth.states[0],
                                    truth.landmarks, DENSE_INIT, sc,
                                    np.random.default_rng(seed + 1))
    return sc, truth, frames, bank


def camera_epoch(sc, truth, frames, bank, i):
    """Camera epoch i of the paired run's driver on ``bank``: the predict
    to it, the landmark update(s), and the position and orientation NEES
    of every row."""
    every = sc.camera_every
    k = (i + 1) * every
    filters.predict_all(bank, truth.omega[k - every:k],
                        truth.accel[k - every:k], 1.0 / sc.imu_rate)
    frame = frames[i]
    for rows, residual, H, N, kept in vision.landmark_measurement(
            bank, sc.camera, sc.extrinsics, list(frame.values()),
            sc.pixel_sigma, landmark_index=list(frame)):
        bank.update_raw(residual, H, N, rows)
    return np.concatenate(filters.nees(bank, filters.errors(
        bank, truth.states[k])))


def test_camera_epoch_allocates_less_than_two_covariances():
    # the bank propagates and updates its P in place through its own
    # scratch: once warmed up, a camera epoch of the dense shape holds less
    # than two covariances' worth of memory beyond what it started with
    sc, truth, frames, make_bank = dense_run(3)
    bank = make_bank()
    assert bank.dim == 195
    camera_epoch(sc, truth, frames, bank, 0)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        camera_epoch(sc, truth, frames, bank, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 2 * bank.P.nbytes


def test_banks_share_no_scratch():
    # a bank of one, a bank stacked from it and a deep copy, driven through
    # the same epochs in turn, each give the records of a freshly built bank
    # bit for bit, and none of their arrays, scratch included, share
    # memory; a shallow copy shares the arrays but not the scratch
    sc, truth, frames, make_bank = dense_run(4)
    variants = DENSE_VARIANTS[1:]
    one = make_bank(variants)
    stacked = filters.FilterInstance.stack([one])
    deep = copy.deepcopy(one)
    assert copy.copy(one)._scratch is not one._scratch

    def arrays(bank):
        return ([bank.P, bank.landmarks, bank.first_landmarks, bank.clone_R,
                 bank.clone_p] + list(vars(bank.state).values())
                + bank._scratch._buffers)

    records = {id(b): [] for b in (one, stacked, deep)}
    for i in range(len(frames)):
        for b in (one, stacked, deep):
            records[id(b)].append(camera_epoch(sc, truth, frames, b, i))
        for a, b in ((one, stacked), (one, deep), (stacked, deep)):
            assert not any(np.shares_memory(x, y) for x in arrays(a)
                           for y in arrays(b) if x.size and y.size)
    fresh = make_bank(variants)
    want = np.array([camera_epoch(sc, truth, frames, fresh, i)
                     for i in range(len(frames))])
    for got in records.values():
        assert np.array(got).tobytes() == want.tobytes()


def test_invariant_correction_is_group_exact():
    rng = np.random.default_rng(4)
    lms = rng.normal(0.0, 10.0, (2, 3))
    f = make_filter("iekf", rng, landmarks=lms)
    st0, L0 = row_state(f), f.landmarks[0].copy()
    c = rng.normal(0.0, 0.05, 21)
    f.apply_correction(c[None])
    st = row_state(f)
    X0 = group_element(st0.R, [st0.p, st0.v] + list(L0))
    X1 = group_element(st.R, [st.p, st.v] + list(f.landmarks[0]))
    expected = lie.sen_exp(np.concatenate([c[:9], c[15:]])) @ X0
    assert np.abs(expected - X1).max() < 1e-12
    assert np.allclose(st.b_omega, c[9:12])


def test_ekf_correction_is_world_frame():
    rng = np.random.default_rng(5)
    f = make_filter("ekf", rng)
    st0 = row_state(f)
    c = np.zeros(15)
    c[:3] = np.array([0.02, -0.01, 0.03])
    c[3:6] = np.array([1.0, 2.0, 3.0])
    f.apply_correction(c[None])
    assert np.abs(f.state.R[0] - lie.so3_exp(c[:3]) @ st0.R).max() < 1e-14
    assert np.allclose(f.state.p[0], st0.p + c[3:6])


@pytest.mark.parametrize("m", [0, 12])
@pytest.mark.parametrize("n_clones", [0, 11])
@pytest.mark.parametrize("tag", filters.ALL_TAGS)
def test_correction_matches_per_clone_group_product(
        tag, n_clones, m, monkeypatch, apply_correction_per_clone,
        one_filter):
    # the stacked correction against the per-pose one, clone by clone (the
    # group product sen_exp(c_i) X_i for the invariant error): the EKF
    # family bit for bit, the invariant error within 1e-14 of each part's
    # magnitude; one stacked exponential, and one stacked left Jacobian for
    # the invariant error, on the pose row and the clone rows together
    rng = np.random.default_rng(33)
    f = make_filter(tag, rng, r=0.3 if tag == "ij_iekf" else 0.0,
                    landmarks=rng.normal(0.0, 10.0, (m, 3)) if m else None)
    for _ in range(n_clones):
        f.clone_camera_pose(lie.so3_exp(rng.normal(0.0, 1.0, 3)),
                            rng.normal(0.0, 5.0, 3))
    d = rng.normal(0.0, 0.1, f.dim)
    if n_clones:
        # a clone rotation row on the small-angle branch
        d[f.clone_index(3):f.clone_index(3) + 3] *= 1e-8
    ref = one_filter(f)
    calls = []

    def counted(fn):
        def wrapper(w):
            calls.append((fn.__name__, np.shape(w)))
            return fn(w)
        return wrapper

    for name in ("so3_exp_stack", "so3_left_jacobian"):
        monkeypatch.setattr(lie, name, counted(getattr(lie, name)))
    f.apply_correction(d[None])
    monkeypatch.undo()
    apply_correction_per_clone(ref, d)
    rows = (1 + n_clones, 3)
    assert calls == [("so3_exp_stack", rows)] + (
        [("so3_left_jacobian", rows)] if f.variant.invariant else [])
    got = one_filter(f)
    parts = [(getattr(got.state, name), getattr(ref.state, name))
             for name in ("R", "p", "v", "b_omega", "b_a")]
    parts += [(got.clone_R, ref.clone_R), (got.clone_p, ref.clone_p)]
    if m:
        parts.append((got.landmarks, ref.landmarks))
    for got, want in parts:
        assert got.shape == want.shape
        if f.variant.invariant and want.size:
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        else:
            assert got.tobytes() == want.tobytes()


def test_clone_augment_then_marginalize_is_identity():
    rng = np.random.default_rng(6)
    for tag in ("iekf", "ekf"):
        f = make_filter(tag, rng)
        P0 = f.P[0].copy()
        R_c, p_c = vision.camera_pose(f.state, vision.Extrinsics())
        f.clone_camera_pose(R_c, p_c)
        assert f.dim == 21
        assert np.array_equal(f.P[0], f.P[0].T)
        f.marginalize_clone(0)
        assert f.dim == 15
        assert np.array_equal(f.P[0], f.P[0].T)
        assert np.abs(f.P[0] - P0).max() < 1e-12


def test_clone_block_symmetrization_matches_full_pass():
    # symmetrizing only the new 6x6 block gives the full 0.5 (P + P^T)
    # pass bit for bit when P is exactly symmetric; the EKF clone carries
    # the lever arm p_cam - p in its position rows
    rng = np.random.default_rng(16)
    f = make_filter("ekf", rng)
    A = rng.normal(0.0, 0.1, (15, 15))
    P = A @ A.T
    f.P = P[None]
    assert np.array_equal(P, P.T)
    R_c, p_c = vision.camera_pose(
        row_state(f), vision.Extrinsics(p_ic=np.array([0.1, -0.05, 0.2])))
    J = np.zeros((6, 15))
    J[:6, :6] = np.eye(6)
    J[3:6, :3] = -lie.so3_hat(p_c - f.state.p[0])
    PJt = P @ J.T
    full = np.block([[P, PJt], [PJt.T, J @ PJt]])
    f.clone_camera_pose(R_c, p_c)
    assert np.array_equal(f.P[0], 0.5 * (full + full.T))


def test_clone_covariance_blocks():
    rng = np.random.default_rng(7)
    f = make_filter("iekf", rng)
    R_c, p_c = vision.camera_pose(f.state, vision.Extrinsics())
    f.clone_camera_pose(R_c, p_c)
    # invariant clone error equals the IMU pose error: exact identity blocks
    P = f.P[0]
    assert np.allclose(P[15:18, 15:18], P[:3, :3])
    assert np.allclose(P[18:21, 18:21], P[3:6, 3:6])
    assert np.allclose(P[15:21, :6], P[:6, :6])
    assert np.array_equal(f.clone_R, [R_c]) and np.array_equal(f.clone_p,
                                                               [p_c])


@pytest.mark.parametrize("tag", ["ekf", "iekf"])
def test_clone_blocks_match_block_and_ix_oracles(tag, clone_camera_pose_block,
                                                 marginalize_clone_ix,
                                                 one_filter):
    # the augmented and the marginalized covariance written by block copies
    # equal the np.block and np.ix_ forms bit for bit, on a dense P, and
    # the old P is left as it was
    rng = np.random.default_rng(23)
    f = make_filter(tag, rng)
    A = rng.normal(0.0, 0.1, (15, 15))
    f.P = (A @ A.T)[None]
    ext = vision.Extrinsics(p_ic=np.array([0.1, -0.05, 0.2]))
    want = one_filter(f)
    for _ in range(5):
        f.state.R = lie.so3_exp(rng.normal(0.0, 0.3, 3)) @ f.state.R
        f.state.p = f.state.p + rng.normal(0.0, 1.0, 3)
        want.state = row_state(f)
        R_c, p_c = vision.camera_pose(want.state, ext)
        P_old = f.P
        before = P_old.copy()
        f.clone_camera_pose(R_c, p_c)
        clone_camera_pose_block(want, R_c, p_c)
        assert f.P[0].tobytes() == want.P.tobytes()
        assert P_old.tobytes() == before.tobytes()
    for i in (0, 2, 4):
        got, old = copy.deepcopy(f), one_filter(f)
        got.marginalize_clone(i)
        marginalize_clone_ix(old, i)
        assert got.P.shape == (1, 39, 39)
        assert got.P[0].tobytes() == old.P.tobytes()
        assert got.clone_R[0].tobytes() == old.clone_R.tobytes()
        assert got.clone_p[0].tobytes() == old.clone_p.tobytes()
    assert f.P[0].tobytes() == want.P.tobytes()


def nees_one(f, errors):
    """``filters.nees`` of a bank of one with its error pair (3,) each."""
    pos, ang = filters.nees(f, (errors[0][None], errors[1][None]))
    return pos[0], ang[0]


def test_nees_trivial_values():
    rng = np.random.default_rng(8)
    f = make_filter("iekf", rng, P_scale=0.04)
    truth = row_state(f)
    pos, ang = filters.nees(f, filters.errors(f, truth))
    assert pos[0] < 1e-20 and ang[0] < 1e-20
    # error = sigma * unit vector with P = sigma^2 I gives NEES = 1/3
    f2 = make_filter("ekf", rng, P_scale=0.04)
    truth2 = row_state(f2)
    truth2.p = truth2.p + np.array([0.2, 0.0, 0.0])
    pos2, _ = filters.nees(f2, filters.errors(f2, truth2))
    assert abs(pos2[0] - 1.0 / 3.0) < 1e-12


def test_nees_rejects_singular_covariance():
    rng = np.random.default_rng(9)
    f = make_filter("iekf", rng, P_scale=0.0)
    truth = row_state(f)
    with pytest.raises(SingularCovariance):
        filters.nees(f, filters.errors(f, truth))
    # one singular filter among well-conditioned ones fails the stack
    bank = filters.FilterInstance.stack([make_filter("ekf", rng), f])
    with pytest.raises(SingularCovariance):
        filters.nees(bank, filters.errors(bank, truth))


def test_nees_guard_is_scale_free():
    rng = np.random.default_rng(16)
    f = make_filter("ekf", rng)
    A = rng.normal(0.0, 1.0, (6, 6))
    C = A @ A.T + 6.0 * np.eye(6)     # well conditioned, unit scale
    err = (rng.normal(0.0, 1.0, 3), rng.normal(0.0, 1.0, 3))
    f.P[0, :6, :6] = C
    ref = nees_one(f, err)
    # the same covariance at 1e-11 m^2 (and rad^2), errors scaled alike
    f.P[0, :6, :6] = 1e-11 * C
    scaled = nees_one(f, (err[0] * np.sqrt(1e-11), err[1] * np.sqrt(1e-11)))
    assert np.allclose(scaled, ref, rtol=1e-12, atol=0.0)
    # a large block with condition number 1e14 factors but is rejected
    U = np.linalg.qr(rng.normal(0.0, 1.0, (3, 3)))[0]
    f.P[0, 3:6, 3:6] = 1e6 * U @ np.diag([1.0, 1.0, 1e-14]) @ U.T
    with pytest.raises(SingularCovariance):
        nees_one(f, err)


def test_stacked_errors_and_nees_equal_per_filter_oracles(errors_filter,
                                                         nees_filter,
                                                         one_filter):
    # every variant, with landmarks, against one truth: the stacked
    # errors and NEES equal the per-filter ones bit for bit
    rng = np.random.default_rng(33)
    filts = [make_filter(tag, rng, r=0.2 if tag == "ij_iekf" else 0.0,
                         landmarks=rng.normal(0.0, 10.0, (3, 3)))
             for tag in filters.ALL_TAGS + ("ekf", "iekf")]
    for f in filts:
        A = rng.normal(0.0, 0.1, (f.dim, f.dim))
        f.P = (A @ A.T + 1e-3 * np.eye(f.dim))[None]
    bank = filters.FilterInstance.stack(filts)
    truth = make_state(rng)
    pos_err, ang_err = filters.errors(bank, truth)
    pos_nees, ang_nees = filters.nees(bank, (pos_err, ang_err))
    assert pos_err.shape == ang_err.shape == (len(filts), 3)
    for i in range(len(filts)):
        f = one_filter(bank, i)
        want = errors_filter(f, truth)
        assert pos_err[i].tobytes() == want[0].tobytes()
        assert ang_err[i].tobytes() == want[1].tobytes()
        assert (pos_nees[i], ang_nees[i]) == nees_filter(f, want)


def test_right_invariant_error_unchanged_by_right_translation():
    # eta = Xhat X^-1 is invariant when both truth and estimate are
    # right-multiplied by the same group element
    rng = np.random.default_rng(10)
    X = lie.sen_exp(rng.normal(0.0, 0.5, 9))
    Xh = lie.sen_exp(rng.normal(0.0, 0.5, 9))
    Gm = lie.sen_exp(rng.normal(0.0, 0.5, 9))
    eta = Xh @ lie.sen_inverse(X)
    eta_t = (Xh @ Gm) @ lie.sen_inverse(X @ Gm)
    assert np.abs(eta - eta_t).max() < 1e-10


def finite_difference_F(filt_tag, st, lms, omega, accel, sen_log, dt=1e-5):
    """Numeric dc/dt for the correction vector c under the true nonlinear
    propagation, linearized at zero error via central differences."""
    m = len(lms)
    d = 15 + 3 * m
    F_fd = np.zeros((d, d))
    g = imu.DEFAULT_GRAVITY
    for a in range(d):
        rows = []
        for sgn in (1.0, -1.0):
            c = np.zeros(d)
            c[a] = sgn * 1e-6
            # truth = estimate corrected by c
            truth = filters.FilterInstance(
                filters.FilterVariant(filt_tag), st,
                np.eye(d) * 0.01, imu.ImuNoiseSpec(), landmarks=lms)
            truth.apply_correction(c[None])
            # both consume the same raw reading; each subtracts its own bias
            tru_next = imu.propagate_mean(row_state(truth), omega, accel,
                                          dt, g)[0]
            est_next = imu.propagate_mean(st, omega, accel, dt, g)[0]
            rows.append(correction_between(filt_tag, est_next, tru_next,
                                           truth.landmarks[0], lms, sen_log))
        # (c_next(+eps) - c_next(-eps)) / (2 eps) is a column of the one-step
        # map I + F dt
        F_fd[:, a] = (rows[0] - rows[1]) / 2e-6
    return (F_fd - np.eye(d)) / dt


def correction_between(tag, est, tru, lms_true, lms_est, sen_log):
    """Correction vector c such that applying c to est gives tru, with
    ``sen_log`` the SE_n(3) logarithm."""
    m = len(lms_est)
    out = np.zeros(15 + 3 * m)
    if tag in ("iekf", "ij_iekf"):
        Xe = group_element(est.R, [est.p, est.v] + list(lms_est))
        Xt = group_element(tru.R, [tru.p, tru.v] + list(lms_true))
        xi = sen_log(Xt @ lie.sen_inverse(Xe))
        out[:9] = xi[:9]
        out[15:] = xi[9:]
    else:
        out[:3] = lie.so3_log(tru.R @ est.R.T)
        out[3:6] = tru.p - est.p
        out[6:9] = tru.v - est.v
        out[15:] = (np.asarray(lms_true) - np.asarray(lms_est)).ravel()
    out[9:12] = tru.b_omega - est.b_omega
    out[12:15] = tru.b_a - est.b_a
    return out


@pytest.mark.parametrize("tag", ["iekf", "ekf"])
def test_error_jacobian_matches_finite_difference(tag, variant_jacobians,
                                                  expand, sen_log):
    rng = np.random.default_rng(11)
    st = make_state(rng)
    lms = rng.normal(0.0, 10.0, (2, 3))
    F_fd = finite_difference_F(tag, st, lms, OMEGA, ACCEL, sen_log)
    F, _ = expand(*variant_jacobians(tag, st, lms, ACCEL[0]), 21)
    assert np.abs(F - F_fd[:, :15]).max() < 1e-3
    # landmarks are static: nothing depends on their errors
    assert np.abs(F_fd[:, 15:]).max() < 1e-3


def test_invariant_F_nilpotent_with_landmarks(variant_jacobians, expand,
                                              square):
    rng = np.random.default_rng(12)
    st = make_state(rng)
    lms = rng.normal(0.0, 10.0, (3, 3))
    F, _ = expand(*variant_jacobians("iekf", st, lms), 24)
    # the square dynamics are zero past the 15 IMU columns F holds
    F_sq = square(F, 24)
    assert np.abs(np.linalg.matrix_power(F_sq, 4)).max() == 0.0


@pytest.mark.parametrize("m", [0, 3])
def test_error_dynamics_vanish_past_imu_columns(m, variant_jacobians,
                                                expand):
    # the exact layout of every variant's (F, G): F holds only the 15 IMU
    # columns, the bias columns are -B for the noise map B = G[:, :6], the
    # bias rows are static and take their noise with identity; landmark
    # rows come from basis rows through a U that holds only the landmarks
    # (invariant error only): three rows -R / R, or nine with imitation
    rng = np.random.default_rng(17)
    st = make_state(rng)
    lms = rng.normal(0.0, 10.0, (m, 3))
    c = 15 + 3 * m
    for tag in filters.ALL_TAGS:
        xi_d = (imu.sample_imitating_error(0.4, rng, 1) if tag == "ij_iekf"
                else None)
        F, G, U = variant_jacobians(tag, st, lms, ACCEL[0], xi_d)
        r = (0 if not m or tag not in filters.INVARIANT_TAGS
             else 9 if tag == "ij_iekf" else 3)
        assert F.shape == (15 + r, 15) and G.shape == (15 + r, 12)
        assert U.shape == ((3 * m, r) if r else (0, 0))
        if r:
            assert np.array_equal(F[15:, 9:12], -G[15:, :3])
            assert not np.any(F[15:, :9]) and not np.any(F[15:, 12:])
            assert not np.any(G[15:, 3:])
        if r == 3:
            assert np.array_equal(G[15:, :3], st.R)
            assert np.array_equal(U, np.vstack([lie.so3_hat(f) for f in lms]))
        if r == 9:
            for j, f in enumerate(lms):
                assert np.array_equal(U[3 * j:3 * j + 3],
                                      np.hstack([f[a] * np.eye(3)
                                                 for a in range(3)]))
        F, G = expand(F, G, U, c)
        assert F.shape == (c, 15) and G.shape == (c, 12)
        assert np.array_equal(F[:, 9:15], -G[:, :6])
        assert np.array_equal(G[9:15, 6:], np.eye(6))
        assert not np.any(G[:9, 6:]) and not np.any(G[15:, 6:])
        assert not np.any(F[9:15]) and not np.any(G[9:15, :6])
        # landmark errors are driven by nothing but the gyro bias
        assert not np.any(F[15:, :9])


def interval_readings(rng, n):
    """n readings as (omega, accel), (n, 3) each, drawn one reading at a
    time."""
    x = np.array([np.concatenate((rng.normal(0.0, 0.3, 3),
                                  rng.normal(0.0, 1.0, 3)))
                  for _ in range(n)])
    return x[:, :3], x[:, 3:] + [0.0, 0.0, 9.8]


@pytest.mark.parametrize("with_delta", [False, True])
@pytest.mark.parametrize("m", [0, 3])
@pytest.mark.parametrize("tag", filters.ALL_TAGS)
def test_factored_jacobians_expand_to_full_rows(tag, m, with_delta, expand,
                                                full_row_error_jacobians):
    # over a 10-step interval, the stacked (F, G) with its one U expand at
    # every step to the full c x 15 F and c x 12 G at that step's state, bit
    # for bit; the imitated landmark rows (r = 9) sum over the landmark's
    # components, so they equal the full rows to rounding
    rng = np.random.default_rng(18)
    st = make_state(rng)
    st.b_omega, st.b_a = rng.normal(0.0, 0.01, 3), rng.normal(0.0, 0.1, 3)
    lms = rng.normal(0.0, 10.0, (m, 3))
    n, dt, g = 10, 0.01, imu.DEFAULT_GRAVITY
    omega, accel = interval_readings(rng, n)
    _, R, p, v, Ra = imu.propagate_mean(st, omega, accel, dt, g)
    xi = imu.sample_imitating_error(0.4, rng, n) if with_delta else None
    if tag in filters.INVARIANT_TAGS:
        F, G, U = filters.error_jacobians(
            R[:-1], g, np.stack((p[:-1], v[:-1]), axis=1), lms, xi)
    else:
        F, G, U = filters.error_jacobians(R[:-1], -Ra, np.zeros((n, 2, 3)),
                                          None, xi)
    c = 15 + 3 * m
    rows = slice(0, 15 if with_delta and tag in filters.INVARIANT_TAGS
                 else c)
    for k in range(n):
        x = None if xi is None else xi[k]
        if tag in filters.INVARIANT_TAGS:
            ref = full_row_error_jacobians(R[k], g, m,
                                           np.vstack((p[k], v[k], lms)), x)
        else:
            drift = -(R[k] @ (accel[k] - st.b_a))
            ref = full_row_error_jacobians(R[k], drift, m, None, x)
        for got, want in zip(expand(F[k], G[k], U, c), ref):
            assert np.array_equal(got[rows], want[rows])
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_predict_propagates_clones_like_propagate_covariance(
        variant_jacobians, expand, square, dense_closed_form,
        propagate_covariance_copy):
    rng = np.random.default_rng(15)
    dt = 0.02
    for tag in ("iekf", "ekf"):
        f = make_filter(tag, rng, landmarks=rng.normal(0.0, 10.0, (2, 3)))
        R_c, p_c = vision.camera_pose(f.state, vision.Extrinsics())
        f.clone_camera_pose(R_c, p_c)
        F, G, U = variant_jacobians(tag, row_state(f), f.landmarks[0],
                                    ACCEL[0])
        Q = f.noise.q_imu()
        V, Qd = imu.compose_error_dynamics(F[None, None], G[None, None],
                                           imu.noise_kernel(Q, dt), dt)
        expected, = propagate_covariance_copy(f.P, V, Qd, U[None])
        # the same step on the square 27 x 27 dynamics, clones static
        F_sq, G_sq = expand(F, G, U, 27)
        dense = dense_closed_form(f.P[0], square(F_sq, 27), G_sq, Q, dt)
        clone_block = f.P[0, 21:, 21:].copy()
        P = f.P
        f.predict(OMEGA, ACCEL, dt)
        assert f.P is P and np.array_equal(f.P[0], expected)
        assert np.abs(f.P[0] - dense).max() <= 1e-12 * np.abs(dense).max()
        assert np.array_equal(f.P[0, 21:, 21:], clone_block)


@pytest.mark.parametrize("n", [1, 2, 10])
@pytest.mark.parametrize("m", [0, 3])
@pytest.mark.parametrize("tag", filters.ALL_TAGS)
def test_interval_predict_matches_per_step_chain(tag, m, n,
                                                 predict_per_step,
                                                 one_filter):
    # one predict over n readings against n per-step predicts (per-step
    # draws, full landmark rows, the d x d step each time), with landmarks
    # and two clones: the covariance within 1e-12 and exactly symmetric,
    # the orientation, position and velocity within 1e-9 of their largest
    # entry (the chain multiplies the rotation increments in another
    # order), the biases and the generator's state bit for bit
    rng = np.random.default_rng(32)
    f = make_filter(tag, rng, r=0.3 if tag == "ij_iekf" else 0.0,
                    landmarks=rng.normal(0.0, 10.0, (m, 3)) if m else None)
    f.state.b_omega[0] = rng.normal(0.0, 0.01, 3)
    f.state.b_a[0] = rng.normal(0.0, 0.1, 3)
    A = rng.normal(0.0, 0.1, (f.dim, f.dim))
    f.P = (A @ A.T + 1e-3 * np.eye(f.dim))[None]
    for _ in range(2):
        R_c, p_c = vision.camera_pose(
            f.state, vision.Extrinsics(p_ic=np.array([0.1, -0.05, 0.2])))
        f.clone_camera_pose(R_c, p_c)
    omega, accel = interval_readings(rng, n)
    ref = one_filter(f)
    f.predict(omega, accel, 0.01)
    predict_per_step(ref, omega, accel, 0.01)
    P = f.P[0]
    assert np.abs(P - ref.P).max() <= 1e-12 * np.abs(ref.P).max()
    assert np.array_equal(P, P.T)
    for name in ("R", "p", "v"):
        got, want = getattr(f.state, name)[0], getattr(ref.state, name)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max(), name
    for name in ("b_omega", "b_a"):
        assert np.array_equal(getattr(f.state, name)[0],
                              getattr(ref.state, name))
    assert f.rngs[0].bit_generator.state == ref.rng.bit_generator.state


def test_batched_error_model_equals_one_call_per_filter():
    # the stacked inputs of B filters give each filter's F, G and U bit
    # for bit, for the EKF family, the invariant error and the imitated
    # one; a filter without draws (zeros) beside one with draws takes r = 9
    rng = np.random.default_rng(34)
    b, n, m = 3, 4, 5
    R = lie.so3_exp_stack(rng.normal(0.0, 0.5, (b * n, 3))).reshape(b, n, 3,
                                                                     3)
    drift = rng.normal(0.0, 9.8, (b, n, 3))
    levers = rng.normal(0.0, 10.0, (b, n, 2, 3))
    lms = rng.normal(0.0, 10.0, (b, m, 3))
    xi = rng.uniform(-0.3, 0.3, (b, n, 3))
    zeros = np.zeros_like(levers)
    cases = [((R, drift, zeros), lambda i: (R[i], drift[i], zeros[i])),
             ((R, imu.DEFAULT_GRAVITY, levers, lms),
              lambda i: (R[i], imu.DEFAULT_GRAVITY, levers[i], lms[i])),
             ((R, imu.DEFAULT_GRAVITY, levers, lms, xi),
              lambda i: (R[i], imu.DEFAULT_GRAVITY, levers[i], lms[i],
                         xi[i]))]
    for batched, single in cases:
        F, G, U = filters.error_jacobians(*batched)
        assert len(F) == len(G) == len(U) == b
        for i in range(b):
            for got, want in zip((F[i], G[i], U[i]),
                                 filters.error_jacobians(*single(i))):
                assert got.tobytes() == want.tobytes()
    xi[0] = 0.0
    F, _, U = filters.error_jacobians(R, imu.DEFAULT_GRAVITY, levers, lms, xi)
    assert F.shape == (b, n, 24, 15) and U.shape == (b, 3 * m, 9)


def test_predict_all_equals_predict_per_filter():
    # every variant with landmarks and the same readings: predict_all
    # equals each filter's own predict bit for bit on the mean and the
    # generator; P too where the filter's r is that of its
    # own predict (all but the invariant filters without draws, iekf and
    # ij_iekf with r = 0, beside an ij_iekf with nonzero draws: they are
    # padded from r = 3 to 9 and agree to rounding)
    rng = np.random.default_rng(35)
    lms = rng.normal(0.0, 10.0, (4, 3))
    noise = imu.ImuNoiseSpec()
    omega, accel = interval_readings(rng, 3)
    for tags in [("ekf", "fej", "iekf", "ij_iekf", "ij_iekf"),
                 ("iekf", "ij_iekf", "ekf")]:
        filts = []
        for i, tag in enumerate(tags):
            f = make_filter(tag, rng, landmarks=lms.copy(), noise=noise,
                            r=0.3 * (i % 2) if tag == "ij_iekf" else 0.0)
            A = rng.normal(0.0, 0.1, (f.dim, f.dim))
            f.P = (A @ A.T + 1e-3 * np.eye(f.dim))[None]
            filts.append(f)
        padded = any(f.variant.r > 0 for f in filts)
        refs = copy.deepcopy(filts)
        bank = filters.FilterInstance.stack(filts)
        filters.predict_all(bank, omega, accel, 0.01)
        for i, ref in enumerate(refs):
            ref.predict(omega, accel, 0.01)
            for name in ("R", "p", "v", "b_omega", "b_a"):
                assert np.array_equal(getattr(bank.state, name)[i],
                                      getattr(ref.state, name)[0])
            assert (bank.rngs[i].bit_generator.state
                    == ref.rngs[0].bit_generator.state)
            P = bank.P[i]
            assert np.array_equal(P, P.T)
            if ref.variant.invariant and ref.variant.r == 0 and padded:
                assert (np.abs(P - ref.P[0]).max()
                        <= 1e-12 * np.abs(ref.P).max())
            else:
                assert np.array_equal(P, ref.P[0]), ref.variant.label


def test_predict_all_rejects_mixed_layouts():
    # a bank takes one state layout and one noise spec
    rng = np.random.default_rng(36)
    a = make_filter("iekf", rng, landmarks=np.zeros((2, 3)))
    b = make_filter("iekf", rng)
    with pytest.raises(ValueError):
        filters.FilterInstance.stack([a, b])
    c = make_filter("ekf", rng, landmarks=np.zeros((2, 3)),
                    noise=imu.ImuNoiseSpec())
    with pytest.raises(ValueError):
        filters.FilterInstance.stack([a, c])


def test_fej_linearizes_at_first_landmark_estimates():
    # fej keeps each landmark's first estimate through predict and update
    # while the estimate moves, and builds the orientation block of its
    # landmark rows as J_pi S (f_first - p_hat)^ at the predicted position;
    # every other block, and the residual, is the ekf's
    rng = np.random.default_rng(13)
    ext = vision.Extrinsics(R_ic=lie.so3_exp(rng.normal(0.0, 0.2, 3)),
                            p_ic=rng.normal(0.0, 0.1, 3))
    st = make_state(rng)
    R_c, p_c = vision.camera_pose(st, ext)
    x_cam = np.column_stack([rng.uniform(-2.0, 2.0, (3, 2)),
                             rng.uniform(3.0, 9.0, 3)])
    f = filters.FilterInstance(filters.FilterVariant("fej"), st,
                               np.eye(24) * 0.01, imu.ImuNoiseSpec(),
                               landmarks=p_c + x_cam @ R_c.T)
    assert np.array_equal(f.first_landmarks, f.landmarks)
    assert not np.shares_memory(f.first_landmarks, f.landmarks)
    first = f.first_landmarks[0].copy()
    model = vision.CameraModel()
    f.predict(OMEGA, ACCEL, 0.01)
    idx = np.array([2, 0, 1])
    (_, r, H, N, kept), = vision.landmark_measurement(
        f, model, ext, model.project(x_cam[idx])[0] + 3.0, 1.0,
        landmark_index=idx)
    assert len(kept) == 3
    f.update_raw(r, H, N)
    assert np.array_equal(f.first_landmarks[0], first)
    assert not np.allclose(f.landmarks[0], first)
    f.predict(OMEGA, ACCEL, 0.01)
    assert np.array_equal(f.first_landmarks[0], first)
    # the ekf at fej's state, in one bank with it
    st = row_state(f)
    bank = filters.FilterInstance.stack([f, filters.FilterInstance(
        filters.FilterVariant("ekf"), st, f.P[0], f.noise,
        landmarks=f.landmarks[0])])
    (_, r2, H2, _, _), = vision.landmark_measurement(
        bank, model, ext, model.project(x_cam[idx])[0], 1.0,
        landmark_index=idx)
    (r, r_ekf), (H, H_ekf) = r2, H2.dense()
    R_c, p_c = vision.camera_pose(st, ext)
    lms = f.landmarks[0]
    _, J_pi = model.project(vision.world_to_camera(R_c, p_c, lms[idx]))
    for i, j in enumerate(idx):
        rows = slice(2 * i, 2 * i + 2)
        JS = J_pi[i] @ R_c.T
        want = JS @ lie.so3_hat(first[j] - st.p)
        assert np.abs(H[rows, :3] - want).max() <= 1e-12 * np.abs(want).max()
        assert np.allclose(H_ekf[rows, :3],
                           JS @ lie.so3_hat(lms[j] - st.p))
    assert not np.allclose(H[:, :3], H_ekf[:, :3])
    assert np.array_equal(H[:, 3:], H_ekf[:, 3:])
    assert np.array_equal(r, r_ekf)


def test_initial_covariance_transport():
    rng = np.random.default_rng(14)
    st = make_state(rng)
    sig = np.full(15, 0.1)
    P = filters.invariant_initial_covariance(st, sig)
    # orientation block is untouched; position block picks up the lever arm
    assert np.allclose(P[:3, :3], 0.01 * np.eye(3))
    ph = lie.so3_hat(st.p)
    assert np.allclose(P[3:6, 3:6], 0.01 * (np.eye(3) + ph @ ph.T))
    evals = np.linalg.eigvalsh(P)
    assert evals.min() > 0.0


def test_initial_covariance_matches_transport_product():
    # the block-built prior equals T diag(sig^2) T^T and is exactly
    # symmetric, which the triple product is not at 60 landmarks
    rng = np.random.default_rng(19)
    st = make_state(rng)
    lms = rng.normal(0.0, 20.0, (60, 3))
    sig = rng.uniform(0.01, 1.0, 195)
    P = filters.invariant_initial_covariance(st, sig, lms)
    T = np.eye(195)
    T[3:6, :3] = lie.so3_hat(st.p)
    T[6:9, :3] = lie.so3_hat(st.v)
    for j, f in enumerate(lms):
        T[15 + 3 * j:18 + 3 * j, :3] = lie.so3_hat(f)
    ref = T @ np.diag(sig ** 2) @ T.T
    assert np.abs(P - ref).max() <= 1e-15 * np.abs(ref).max()
    assert np.array_equal(P, P.T)
