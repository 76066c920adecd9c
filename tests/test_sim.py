"""Simulation-harness tests: trajectory kinematics against finite
differences, sensor-stream self-consistency, paired seeding, NEES
calibration, and the report writers."""

import csv
import json
import os

import numpy as np
import pytest

from iekf_kit import config, filters, imu, lie, sim, vision
from iekf_kit.exceptions import ConfigError, EmptyReport


def test_trajectory_derivatives_consistent():
    spec = sim.TrajectorySpec()
    rng = np.random.default_rng(0)
    eps = 1e-6
    for t in rng.uniform(0.0, 120.0, 20):
        v_fd = (spec.position(t + eps) - spec.position(t - eps)) / (2 * eps)
        assert np.abs(spec.velocity(t) - v_fd).max() < 1e-5


def test_attitude_policy_yaw_follows_velocity():
    spec = sim.TrajectorySpec()
    for t in (0.0, 10.0, 37.5, 90.0):
        R = spec.attitude(t)
        v = spec.velocity(t)
        heading = R[:, 0]
        v_xy = np.array([v[0], v[1], 0.0])
        assert np.abs(np.cross(heading, v_xy / np.linalg.norm(v_xy))).max() < 1e-12
        # yaw-only attitude: z axis stays vertical
        assert np.allclose(R[:, 2], [0.0, 0.0, 1.0])


def test_camera_rate_must_divide_imu_rate(tmp_path):
    assert sim.Scenario(imu_rate=50.0, cam_rate=25.0).camera_every == 2
    # 50 / 20 is not whole: rounding it would run the camera at 25 Hz
    with pytest.raises(ValueError):
        sim.Scenario(imu_rate=50.0, cam_rate=20.0)
    with pytest.raises(ValueError):
        sim.Scenario(cam_rate=0.0)
    path = tmp_path / "cfg.yaml"
    path.write_text("scenario:\n  imu_rate: 50.0\n  cam_rate: 20.0\n")
    with pytest.raises(ConfigError):
        config.load_config(str(path))


def test_duration_must_be_whole_camera_intervals(tmp_path):
    # 2.1 s at 5 Hz would end half an interval after the last epoch: those
    # readings would be predicted and never reported
    with pytest.raises(ValueError, match="whole number of camera intervals"):
        sim.Scenario(duration=2.1, imu_rate=50.0, cam_rate=5.0)
    with pytest.raises(ValueError):
        sim.Scenario(duration=0.0)
    # 4.4 s at 5 Hz is 22 intervals up to rounding
    sc = sim.Scenario(duration=4.4, imu_rate=100.0, cam_rate=5.0)
    truth = sim.synthesize_truth(sc, np.random.default_rng(3))
    times, _ = sim.run_sliding_window(sc, truth, updates=False)
    # one epoch per interval, the last at the end of the stream
    assert len(times) == 22 and times[-1] == truth.times[-1]
    path = tmp_path / "cfg.yaml"
    path.write_text("scenario:\n  duration: 2.1\n  imu_rate: 50.0\n"
                    "  cam_rate: 5.0\n")
    with pytest.raises(ConfigError):
        config.load_config(str(path))


def test_sliding_window_refuses_fej():
    # the clone rows have no first estimates, so fej would run the ekf's
    # numbers under its own label; the other variants run
    sc = sim.Scenario(duration=1.0, imu_rate=100.0, cam_rate=5.0,
                      n_landmarks=200, max_range=90.0)
    truth = sim.synthesize_truth(sc, np.random.default_rng(3))
    with pytest.raises(ValueError, match="fej"):
        sim.run_sliding_window(sc, truth, filters.FilterVariant("fej"))
    for tag in ("ekf", "iekf"):
        _, errs = sim.run_sliding_window(sc, truth,
                                         filters.FilterVariant(tag))
        assert len(errs) == 5 and np.isfinite(errs).all()


def test_noise_free_stream_dead_reckons_trajectory():
    # 200 Hz, 100 s: integrating the noise-free stream through the exact
    # one-step propagator stays within 5 cm of the analytic trajectory
    sc = sim.Scenario(duration=100.0, imu_rate=200.0)
    truth = sim.synthesize_truth(sc, np.random.default_rng(0),
                                 with_noise=False)
    st = imu.propagate_mean(truth.states[0], truth.omega, truth.accel,
                            1.0 / sc.imu_rate, sc.noise.gravity)[0]
    assert np.linalg.norm(st.p - sc.trajectory.position(100.0)) < 0.05
    # the stored truth chain is the same discrete propagation
    assert np.abs(st.p - truth.states[-1].p).max() < 1e-9


def test_truth_biases_walk_only_with_noise():
    sc = sim.Scenario(duration=5.0)
    clean = sim.synthesize_truth(sc, np.random.default_rng(1),
                                 with_noise=False)
    assert np.abs(clean.states[-1].b_omega).max() == 0.0
    noisy = sim.synthesize_truth(sc, np.random.default_rng(1))
    assert np.abs(noisy.states[-1].b_omega).max() > 0.0


def attitude_loop(spec, t):
    """``TrajectorySpec.attitude`` at one time as it was before it took
    arrays of times; kept as its oracle."""
    c, s = np.cos(spec.yaw(t)), np.sin(spec.yaw(t))
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def synthesize_truth_loop(scenario, rng, propagate_step, with_noise=True,
                          landmarks=None):
    """The per-step loop that ``sim.synthesize_truth`` replaced, kept as its
    oracle, with ``propagate_step`` the per-step mean oracle.  Returns the
    truth with the readings as (n, 3) arrays."""
    sc = scenario
    dt = 1.0 / sc.imu_rate
    n = int(round(sc.duration * sc.imu_rate))
    g = sc.noise.gravity
    sw = sc.noise.sigma_gw / np.sqrt(dt) if with_noise else 0.0
    sa = sc.noise.sigma_aw / np.sqrt(dt) if with_noise else 0.0
    sbw = sc.noise.sigma_gbw * np.sqrt(dt) if with_noise else 0.0
    sba = sc.noise.sigma_abw * np.sqrt(dt) if with_noise else 0.0
    b_w = np.zeros(3)
    b_a = np.zeros(3)
    spec = sc.trajectory
    st = imu.ImuState(attitude_loop(spec, 0.0), spec.position(0.0),
                      spec.velocity(0.0), np.zeros(3), np.zeros(3))
    states = [st]
    omega, accel = [], []
    times = np.arange(n + 1) * dt
    for k in range(n):
        t0, t1 = k * dt, (k + 1) * dt
        R_k = attitude_loop(spec, t0)
        dv = spec.velocity(t1) - spec.velocity(t0)
        clean_w = lie.so3_log(R_k.T @ attitude_loop(spec, t1)) / dt
        clean_a = R_k.T @ (dv / dt - g)
        omega.append(clean_w + b_w + sw * rng.standard_normal(3))
        accel.append(clean_a + b_a + sa * rng.standard_normal(3))
        b_w = b_w + sbw * rng.standard_normal(3)
        b_a = b_a + sba * rng.standard_normal(3)
        prev = states[-1]
        clean_state = imu.ImuState(prev.R, prev.p, prev.v,
                                   np.zeros(3), np.zeros(3))
        nxt = propagate_step(clean_state, clean_w, clean_a, dt, g)
        nxt.b_omega = b_w.copy()
        nxt.b_a = b_a.copy()
        states.append(nxt)
    if landmarks is None:
        landmarks = sc.make_landmarks(rng)
    states = imu.ImuState(*(np.array([getattr(s_, f) for s_ in states])
                            for f in ("R", "p", "v", "b_omega", "b_a")))
    return sim.TruthData(times, states, np.array(omega).reshape(n, 3),
                         np.array(accel).reshape(n, 3), landmarks)


def test_truth_matches_per_step_loop(propagate_step):
    # the default 200 Hz scenario, the study shape, criterion 7's shape and
    # the window shape: the orientations, positions and velocities within
    # 1e-9 of each field's largest entry (the chain multiplies the rotation
    # increments in another order), everything else bit for bit
    scenarios = [sim.Scenario(),
                 sim.Scenario(duration=2.0, imu_rate=50.0, cam_rate=25.0),
                 sim.Scenario(duration=120.0, imu_rate=50.0, cam_rate=25.0),
                 sim.Scenario(duration=4.4, imu_rate=100.0, cam_rate=5.0,
                              n_landmarks=200, max_range=90.0)]
    given = np.random.default_rng(17).uniform(-50.0, 50.0, (9, 3))
    cases = [dict(with_noise=True), dict(with_noise=False),
             dict(landmarks=given)]
    for sc in scenarios:
        spec = sc.trajectory
        dt = 1.0 / sc.imu_rate
        n = int(round(sc.duration * sc.imu_rate))
        times = np.arange(n + 1) * dt
        # array-time trajectory evaluation equals the per-time scalar one
        for name in ("position", "velocity", "yaw", "attitude"):
            fn = getattr(spec, name)
            got = fn(times)
            if name in ("position", "velocity"):
                got = got.T  # (3, n) at an array of times
            want = np.array([fn(k * dt) for k in range(n + 1)])
            assert got.tobytes() == want.tobytes(), name
        for kw in cases:
            rng_loop = np.random.default_rng(18)
            rng_array = np.random.default_rng(18)
            want = synthesize_truth_loop(sc, rng_loop, propagate_step, **kw)
            got = sim.synthesize_truth(sc, rng_array, **kw)
            assert got.times.tobytes() == want.times.tobytes()
            for f in ("R", "p", "v", "b_omega", "b_a"):
                got_f, want_f = (getattr(got.states, f),
                                 getattr(want.states, f))
                assert got_f.shape == want_f.shape, f
                assert got_f.shape[0] == n + 1, f
                if f in ("b_omega", "b_a"):
                    assert got_f.tobytes() == want_f.tobytes(), f
                else:
                    assert (np.abs(got_f - want_f).max()
                            <= 1e-9 * np.abs(want_f).max()), f
            for f in ("omega", "accel"):
                got_f, want_f = getattr(got, f), getattr(want, f)
                assert got_f.shape == want_f.shape == (n, 3), f
                assert got_f.tobytes() == want_f.tobytes(), f
            assert got.landmarks.tobytes() == want.landmarks.tobytes()
            assert (rng_array.bit_generator.state
                    == rng_loop.bit_generator.state)


def test_landmarks_inside_box():
    sc = sim.Scenario(n_landmarks=30)
    lms = sc.make_landmarks(np.random.default_rng(2))
    assert lms.shape == (30, 3)
    (x0, x1), (y0, y1), (z0, z1) = sc.landmark_box
    assert lms[:, 0].min() >= x0 and lms[:, 0].max() <= x1
    assert lms[:, 2].min() >= z0 and lms[:, 2].max() <= z1


def test_camera_frames_have_visible_landmarks():
    sc = sim.Scenario(duration=2.0)
    rng = np.random.default_rng(3)
    truth = sim.synthesize_truth(sc, rng)
    obs = sim.camera_frame(sc, truth.states[0], truth.landmarks, rng)
    for j, uv in obs.items():
        assert 0 <= uv[0] <= sc.camera.width + 5
        assert 0 <= uv[1] <= sc.camera.height + 5


def test_camera_frame_builds_no_projection_jacobians(monkeypatch):
    # the frame needs the pixels only: it runs without CameraModel.project
    sc = sim.Scenario(duration=2.0)
    truth = sim.synthesize_truth(sc, np.random.default_rng(3))
    want = sim.camera_frame(sc, truth.states[0], truth.landmarks,
                            np.random.default_rng(4))

    def refuse(self, x_cam):
        raise AssertionError("camera_frame built projection Jacobians")
    monkeypatch.setattr(vision.CameraModel, "project", refuse)
    got = sim.camera_frame(sc, truth.states[0], truth.landmarks,
                           np.random.default_rng(4))
    assert len(got) > 0 and list(got) == list(want)
    assert all(got[j].tobytes() == want[j].tobytes() for j in got)


def camera_frame_loop(scenario, state, landmarks, rng):
    """The per-landmark loop that ``sim.camera_frame`` replaced, kept as its
    oracle."""
    cam = scenario.camera
    R_c, p_c = vision.camera_pose(state, scenario.extrinsics)
    obs = {}
    for j, f in enumerate(landmarks):
        x = R_c.T @ (np.asarray(f, dtype=float) - p_c)
        if x[2] < 1.0 or np.linalg.norm(x) > scenario.max_range:
            continue
        uv = cam.project(x[None])[0][0]
        if 0.0 <= uv[0] <= cam.width and 0.0 <= uv[1] <= cam.height:
            obs[j] = uv + scenario.pixel_sigma * rng.standard_normal(2)
    return obs


@pytest.mark.parametrize("mode", ["pinhole", "bearing"])
def test_camera_frame_matches_per_landmark_loop(mode):
    sc = sim.Scenario(duration=20.0, n_landmarks=40,
                      camera=vision.CameraModel(mode=mode))
    rng = np.random.default_rng(14)
    truth = sim.synthesize_truth(sc, rng)
    # a camera at an integer point with the down camera's axes: these
    # camera-frame points map to world points and back without rounding
    st = imu.ImuState(np.eye(3), np.array([3.0, -2.0, 10.0]), np.zeros(3),
                      np.zeros(3), np.zeros(3))
    R_c, p_c = vision.camera_pose(st, sc.extrinsics)
    x_cam = np.array([
        [0.0, 0.0, -5.0], [1.0, 2.0, 0.5], [0.0, 0.0, 1.0],  # behind, 0.5, 1 m
        [0.0, 0.0, 111.0], [60.0, 40.0, 100.0],               # past range
        [-32.0, 0.0, 25.0], [32.0, 0.0, 25.0],                # u on 0, width
        [0.0, -24.0, 25.0], [0.0, 24.0, 25.0],                # v on 0, height
        [-32.0, -24.0, 25.0], [32.0001, 0.0, 25.0],           # corner, past
        [1.0, -2.0, 20.0]])
    border = p_c + x_cam @ R_c.T
    cases = [(st, np.vstack([border, truth.landmarks]))]
    cases += [(truth.states[k], truth.landmarks)
              for k in range(0, len(truth.times), 100)]
    seen = 0
    for state, landmarks in cases:
        rng_loop = np.random.default_rng(15)
        rng_array = np.random.default_rng(15)
        want = camera_frame_loop(sc, state, landmarks, rng_loop)
        got = sim.camera_frame(sc, state, landmarks, rng_array)
        assert list(got) == list(want)
        assert all(type(j) is int for j in got)
        assert (np.array(list(got.values())).tobytes()
                == np.array(list(want.values())).tobytes())
        assert (rng_array.bit_generator.state
                == rng_loop.bit_generator.state)
        seen += len(got)
    # pinhole pixels of the border points are exact; the bearing map puts
    # them within rounding of the border, on either side
    visible = set(camera_frame_loop(sc, st, border, rng))
    assert {2, 11} <= visible <= {2, 5, 6, 7, 8, 9, 11}
    if mode == "pinhole":
        assert visible == {2, 5, 6, 7, 8, 9, 11}
    assert seen > 100


def test_noiseless_exact_init_gives_tiny_rmse():
    sc = sim.Scenario(duration=5.0)
    sc.noise = imu.ImuNoiseSpec(sigma_gw=0.0, sigma_aw=0.0,
                                sigma_gbw=0.0, sigma_abw=0.0)
    rng = np.random.default_rng(0)
    truth = sim.synthesize_truth(sc, rng, with_noise=False)
    every = sc.camera_every
    sc.pixel_sigma = 0.0   # noise-free pixels for the frames ...
    frames = [sim.camera_frame(sc, truth.states[k], truth.landmarks, rng)
              for k in range(every, len(truth.times), every)]
    sc.pixel_sigma = 1.0   # ... but a proper measurement-noise model
    variants = [filters.FilterVariant(t) for t in ("ekf", "fej", "iekf")]
    variants.append(filters.FilterVariant("ij_iekf", 0.1))
    sig = sim.InitSpec(sigma_theta=1e-4, sigma_p=1e-4, sigma_v=1e-4,
                       sigma_bw=1e-4, sigma_ba=1e-4,
                       sigma_f=1e-4).sigmas(len(truth.landmarks))
    filts = []
    for v in variants:
        st = truth.states[0].copy()
        if v.invariant:
            P0 = filters.invariant_initial_covariance(st, sig,
                                                      truth.landmarks)
        else:
            P0 = np.diag(sig ** 2)
        filts.append(filters.FilterInstance(v, st, P0, sc.noise,
                                            rng=np.random.default_rng(1),
                                            landmarks=truth.landmarks.copy()))
    bank = filters.FilterInstance.stack(filts)
    for v, records in zip(variants, sim.run_filter(sc, truth, frames, bank)):
        pos_rmse = np.sqrt(np.mean([r[3] ** 2 for r in records]))
        assert pos_rmse < 1e-6, v.label


# the perfbench study workload's shape (50 Hz IMU, 25 Hz camera, 12
# landmarks, 2 s), with fej beside its four variants
STUDY = sim.Scenario(duration=2.0, imu_rate=50.0, cam_rate=25.0)
STUDY_INIT = sim.InitSpec(sigma_bw=0.002, sigma_ba=0.02, sigma_f=2.0)
STUDY_VARIANTS = [filters.FilterVariant("ekf"), filters.FilterVariant("fej"),
                  filters.FilterVariant("iekf"),
                  filters.FilterVariant("ij_iekf", 0.1),
                  filters.FilterVariant("ij_iekf", 0.5)]


def max_relative_difference(got, want):
    got, want = np.array(got), np.array(want)
    return float((np.abs(got - want) / np.abs(want)).max())


def test_lock_step_matches_per_variant_driver(
        monte_carlo_single_run_per_variant):
    # ekf, fej and ij_iekf equal the per-variant driver bit for bit; iekf
    # shares a bank with ij_iekf variants that draw nonzero imitation
    # errors, so its r is padded from 3 to 9 and its landmark rows round
    # differently (5.9e-13 relative at most on the study's 32 seed-0
    # realizations)
    for run_index in range(8):
        got = sim.monte_carlo_single_run(STUDY, STUDY_VARIANTS, STUDY_INIT,
                                         0, run_index)
        want = monte_carlo_single_run_per_variant(
            STUDY, STUDY_VARIANTS, STUDY_INIT, 0, run_index)
        assert list(got) == list(want)
        for label in ("ekf", "fej", "ij_iekf-0.1", "ij_iekf-0.5"):
            assert np.array_equal(got[label], want[label]), (run_index, label)
        assert len(got["iekf"]) == len(want["iekf"]) == 50
        assert max_relative_difference(got["iekf"], want["iekf"]) <= 1e-11
        # one float64 (epochs, 5) array per variant
        assert all(rows.dtype == np.float64 and rows.shape == (50, 5)
                   for rows in got.values())


def test_iekf_beside_ij_iekf_zero_is_bit_identical(
        monte_carlo_single_run_per_variant):
    # criterion 8's pair: the r = 0 draws are all zero, so the bank keeps
    # r = 3 and both records equal the per-variant ones bit for bit
    sc = sim.Scenario(duration=5.0)
    pair = [filters.FilterVariant("iekf"), filters.FilterVariant("ij_iekf",
                                                                 0.0)]
    got = sim.monte_carlo_single_run(sc, pair, sim.InitSpec(), 3, 0)
    want = monte_carlo_single_run_per_variant(sc, pair, sim.InitSpec(), 3, 0)
    assert list(got) == list(want)
    assert all(np.array_equal(got[label], want[label]) for label in got)
    assert np.array_equal(got["iekf"], got["ij_iekf-0"])


# the perfbench dense workload's shape: 60 landmarks (d = 195), a 5 Hz
# camera on a 50 Hz IMU, ekf beside iekf
DENSE = sim.Scenario(duration=1.2, imu_rate=50.0, cam_rate=5.0,
                     n_landmarks=60)


def test_lock_step_at_the_dense_shape_is_within_tolerance(
        monte_carlo_single_run_per_variant):
    # from d = imu.STATIC_SPLIT_DIM on the bank updates from the blocks of
    # the landmark rows, and the per-variant driver from their dense H:
    # the records agree to rounding (within 1e-9 relative)
    variants = [filters.FilterVariant("ekf"), filters.FilterVariant("iekf")]
    assert 15 + 3 * DENSE.n_landmarks >= imu.STATIC_SPLIT_DIM
    for run_index in range(2):
        got = sim.monte_carlo_single_run(DENSE, variants, STUDY_INIT, 0,
                                         run_index)
        want = monte_carlo_single_run_per_variant(DENSE, variants,
                                                  STUDY_INIT, 0, run_index)
        assert list(got) == list(want)
        for label in got:
            assert len(got[label]) == len(want[label]) == 6
            assert max_relative_difference(got[label], want[label]) <= 1e-9


def test_bank_is_built_in_place(perturbed_filter_stack):
    # the paired run's bank takes one C-contiguous (B, d, d) P, into which
    # every variant's prior was written, and equals the bank stacked from
    # one bank per variant bit for bit
    sc = sim.Scenario(duration=2.0, imu_rate=50.0, cam_rate=25.0)
    truth = sim.synthesize_truth(sc, np.random.default_rng(31))
    variants = [filters.FilterVariant(tag) for tag in ("ekf", "fej", "iekf")]
    variants.append(filters.FilterVariant("ij_iekf", 0.5))
    got, want = (build(variants, truth.states[0], truth.landmarks,
                       STUDY_INIT, sc, np.random.default_rng(6))
                 for build in (sim.perturbed_filter, perturbed_filter_stack))
    d = 15 + 3 * len(truth.landmarks)
    assert got.P.shape == (len(variants), d, d)
    assert got.P.flags.c_contiguous and got.P.flags.owndata
    assert np.array_equal(got.P, got.P.swapaxes(1, 2))
    assert got.variants == want.variants and got.noise is want.noise
    for name in ("P", "landmarks", "first_landmarks", "clone_R", "clone_p",
                 "invariant", "fej"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    for a, b in zip(vars(got.state).values(), vars(want.state).values()):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert not np.shares_memory(got.landmarks, got.first_landmarks)
    assert len({id(r) for r in got.rngs}) == len(variants)
    assert ([r.bit_generator.state for r in got.rngs]
            == [r.bit_generator.state for r in want.rngs])


def kept_observations_differ(moved):
    """(scenario, truth, frames, build) of a 2 s realization of the study's
    shape where the ekf, iekf and fej filters of ``moved`` estimate the
    first landmark of the first frame 30 m above the vehicle, behind its
    down-looking camera, so that they drop its observations;
    ``build()`` returns fresh banks of one of the three filters."""
    sc = sim.Scenario(duration=2.0, imu_rate=50.0, cam_rate=25.0)
    rng = np.random.default_rng(21)
    truth = sim.synthesize_truth(sc, rng)
    every = sc.camera_every
    frames = [sim.camera_frame(sc, truth.states[k], truth.landmarks, rng)
              for k in range(every, len(truth.times), every)]
    j = next(iter(frames[0]))

    def build():
        filts = []
        for tag in ("ekf", "iekf", "fej"):
            f = sim.perturbed_filter([filters.FilterVariant(tag)],
                                     truth.states[0], truth.landmarks,
                                     STUDY_INIT, sc,
                                     np.random.default_rng(5))
            if tag in moved:
                f.landmarks[0, j, 2] = f.state.p[0, 2] + 30.0
            filts.append(f)
        return filts

    return sc, truth, frames, build


def test_lock_step_when_kept_observations_differ(run_filter_per_variant):
    # one filter's estimate of a landmark lies above the vehicle, behind
    # its down-looking camera: its observations of that landmark are
    # dropped while the other filters keep them, so it takes its own
    # update, and the records still equal the per-variant driver's
    sc, truth, frames, build = kept_observations_differ(("iekf",))
    filts = build()
    frame = frames[0]
    groups = vision.landmark_measurement(
        filters.FilterInstance.stack(filts), sc.camera, sc.extrinsics,
        list(frame.values()), sc.pixel_sigma, landmark_index=list(frame))
    kept = {tuple(rows): k for rows, _, _, _, k in groups}
    assert kept.keys() == {(0, 2), (1,)}
    assert len(kept[1,]) == len(frame) - 1 and len(kept[0, 2]) == len(frame)
    got = sim.run_filter(sc, truth, frames,
                         filters.FilterInstance.stack(filts))
    want = [run_filter_per_variant(sc, truth, frames, f) for f in build()]
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_lock_step_when_two_filters_drop_one_observation(
        run_filter_per_variant):
    # the ekf and fej drop the same observation and the iekf keeps it: two
    # groups of kept observations, one of two rows updated in one call,
    # and every filter's records equal the per-variant driver's
    sc, truth, frames, build = kept_observations_differ(("ekf", "fej"))
    frame = frames[0]
    groups = vision.landmark_measurement(
        filters.FilterInstance.stack(build()), sc.camera, sc.extrinsics,
        list(frame.values()), sc.pixel_sigma, landmark_index=list(frame))
    kept = {tuple(rows): len(k) for rows, _, _, _, k in groups}
    assert kept == {(0, 2): len(frame) - 1, (1,): len(frame)}
    got = sim.run_filter(sc, truth, frames,
                         filters.FilterInstance.stack(build()))
    want = [run_filter_per_variant(sc, truth, frames, f) for f in build()]
    assert len(got) == len(want) == 3
    for g, w in zip(got, want):
        assert g.tobytes() == np.array(w).tobytes()


def test_run_filter_updates_the_filters_in_one_call(monkeypatch):
    # one update_raw of the bank per camera epoch when the filters keep the
    # same observations; one per group of rows that keeps the same ones,
    # with the group's rows, when they differ
    sc = sim.Scenario(duration=2.0, imu_rate=50.0, cam_rate=25.0)
    rng = np.random.default_rng(21)
    truth = sim.synthesize_truth(sc, rng)
    every = sc.camera_every
    frames = [sim.camera_frame(sc, truth.states[k], truth.landmarks, rng)
              for k in range(every, len(truth.times), every)]
    original = filters.FilterInstance.update_raw
    calls = []

    def update_raw(self, residual, H, N, rows=None):
        calls.append((self, np.shape(residual), np.shape(H), rows))
        return original(self, residual, H, N, rows)

    monkeypatch.setattr(filters.FilterInstance, "update_raw", update_raw)

    def bank():
        return sim.perturbed_filter(STUDY_VARIANTS, truth.states[0],
                                    truth.landmarks, STUDY_INIT, sc,
                                    np.random.default_rng(5))
    b = len(STUDY_VARIANTS)
    filts = bank()
    sim.run_filter(sc, truth, frames, filts)
    assert len(calls) == len(frames)
    for self, residual, H, rows in calls:
        assert self is filts and rows is None
        assert residual[0] == H[0] == b and H[2] == filts.dim
    # the iekf estimate of a landmark behind the camera (as in
    # test_lock_step_when_kept_observations_differ)
    calls.clear()
    filts = bank()
    filts.landmarks[2, next(iter(frames[0])), 2] = filts.state.p[2, 2] + 30.0
    sim.run_filter(sc, truth, frames, filts)
    grouped = [c for c in calls if c[3] is not None]
    assert sorted(tuple(c[3]) for c in grouped[:2]) == [(0, 1, 3, 4), (2,)]
    assert all(c[1][0] == c[2][0] == len(c[3]) for c in grouped)
    # an epoch updates the bank in one call or its two groups in two
    assert len(calls) - len(grouped) // 2 == len(frames)


def test_run_filter_propagates_one_covariance_bank(monkeypatch):
    # one error_jacobians, one compose_error_dynamics and one
    # propagate_covariance per camera epoch for every filter of the list,
    # whatever their variants; without an invariant filter r stays 0
    sc = sim.Scenario(duration=2.0, imu_rate=50.0, cam_rate=25.0)
    rng = np.random.default_rng(21)
    truth = sim.synthesize_truth(sc, rng)
    every = sc.camera_every
    frames = [sim.camera_frame(sc, truth.states[k], truth.landmarks, rng)
              for k in range(every, len(truth.times), every)]
    calls = {}

    def spy(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            out = original(*args)
            calls.setdefault(name, []).append(out)
            return out
        monkeypatch.setattr(module, name, wrapper)

    spy(filters, "error_jacobians")
    spy(imu, "compose_error_dynamics")
    spy(imu, "propagate_covariance")
    for variants in (STUDY_VARIANTS, STUDY_VARIANTS[:2]):
        calls.clear()
        bank = sim.perturbed_filter(variants, truth.states[0],
                                    truth.landmarks, STUDY_INIT, sc,
                                    np.random.default_rng(5))
        sim.run_filter(sc, truth, frames, bank)
        assert len(calls) == 3
        assert all(len(c) == len(frames) for c in calls.values())
        assert all(len(U) == len(variants)
                   for _, _, U in calls["error_jacobians"])
    assert [v.tag for v in bank.variants] == ["ekf", "fej"]
    assert all(U.shape[-1] == 0 for _, _, U in calls["error_jacobians"])


# every tag a config accepts, on one realization of criterion 7's scenario
# cut to 60 s (seed 2024, run 0)
GATE_VARIANTS = [filters.FilterVariant(t, 0.5 if t == "ij_iekf" else 0.0)
                 for t in filters.ALL_TAGS]


@pytest.fixture(scope="module")
def gate_run():
    sc = sim.Scenario(duration=60.0, imu_rate=50.0, cam_rate=25.0)
    init = sim.InitSpec(sigma_bw=0.002, sigma_ba=0.02, sigma_f=2.0)
    return sim.monte_carlo_single_run(sc, GATE_VARIANTS, init, 2024, 0)


@pytest.mark.parametrize("variant", GATE_VARIANTS, ids=lambda v: v.label)
def test_no_variant_diverges(gate_run, variant):
    # pos RMSE at most 1.25 times ekf's and mean pos NEES at most 1.6, the
    # top of criterion 7's band.  On runs 0-3 the RMSE ratios to ekf read
    # 0.75-1.01 for fej and 0.80-1.04 for iekf and ij_iekf, and every mean
    # pos NEES 0.19-1.21.  A filter linearized about a dead-reckoned
    # chain, which no update corrects, drifts off by kilometres (1.9 km,
    # NEES 1.2e6 on this run) and fails both bounds by orders of magnitude
    def rmse(rows):
        return np.sqrt(np.mean(rows[:, 3] ** 2))
    rows = gate_run[variant.label]
    assert len(rows) == 1500 and np.isfinite(rows).all()
    assert rmse(rows) <= 1.25 * rmse(gate_run["ekf"])
    assert rows[:, 1].mean() <= 1.6


def test_paired_records_compare_as_a_whole():
    # equal labels and bit-identical arrays compare equal, in either order
    # and against a plain dict; == never compares element-wise
    a = sim.monte_carlo_single_run(STUDY, STUDY_VARIANTS[:2], STUDY_INIT, 0, 1)
    b = sim.monte_carlo_single_run(STUDY, STUDY_VARIANTS[:2], STUDY_INIT, 0, 1)
    assert isinstance(a, sim.PairedRecords)
    assert a == b and b == a and not a != b and a == dict(b)
    assert dict(b) == a
    changed = sim.PairedRecords(b)
    changed["fej"] = b["fej"].copy()
    changed["fej"][-1, 1] = np.nextafter(b["fej"][-1, 1], np.inf)
    assert a != changed and not a == changed
    assert a != sim.PairedRecords(ekf=a["ekf"])
    assert a != [a["ekf"], a["fej"]]


def test_paired_seeding_reproducible():
    sc = sim.Scenario(duration=4.0)
    v = [filters.FilterVariant("iekf")]
    r1 = sim.run_monte_carlo(sc, v, n_runs=2, seed=5)
    r2 = sim.run_monte_carlo(sc, v, n_runs=2, seed=5)
    assert all(np.array_equal(a, b) for a, b in zip(r1.records["iekf"],
                                                     r2.records["iekf"]))
    r3 = sim.run_monte_carlo(sc, v, n_runs=2, seed=6)
    assert not all(np.array_equal(a, b) for a, b in zip(r1.records["iekf"],
                                                        r3.records["iekf"]))


def test_nees_chi_square_calibration():
    # 500 draws from N(0, P): mean DOF-normalized NEES within [0.9, 1.1]
    rng = np.random.default_rng(7)
    A = rng.normal(0.0, 1.0, (3, 3))
    P = A @ A.T + 0.5 * np.eye(3)
    L = np.linalg.cholesky(P)
    vals = []
    for _ in range(500):
        e = L @ rng.standard_normal(3)
        vals.append(e @ np.linalg.solve(P, e) / 3.0)
    assert 0.9 < np.mean(vals) < 1.1


def test_aggregate_empty_report_raises():
    rep = sim.MonteCarloReport([filters.FilterVariant("iekf")],
                               {"iekf": []}, 0, 0)
    with pytest.raises(EmptyReport):
        rep.aggregate()


def test_aggregate_equals_means_of_the_record_array():
    # the column-at-a-time aggregate equals the means over the (epochs, 5)
    # array of the records that it used to build, bit for bit
    sc = sim.Scenario(duration=3.0)
    variants = [filters.FilterVariant("iekf"), filters.FilterVariant("ekf")]
    rep = sim.run_monte_carlo(sc, variants, n_runs=3, seed=4)
    agg = rep.aggregate()
    for v in variants:
        arr = np.array([r for run in rep.records[v.label] for r in run])
        assert agg[v.label] == {
            "mean_pos_nees": float(arr[:, 1].mean()),
            "mean_ang_nees": float(arr[:, 2].mean()),
            "pos_rmse": float(np.sqrt((arr[:, 3] ** 2).mean())),
            "ang_rmse": float(np.sqrt((arr[:, 4] ** 2).mean())),
            "epochs": len(arr)}


def test_report_writers(tmp_path):
    sc = sim.Scenario(duration=3.0)
    variants = [filters.FilterVariant("iekf"), filters.FilterVariant("ekf")]
    rep = sim.run_monte_carlo(sc, variants, n_runs=2, seed=1)
    out = tmp_path / "out"
    sim.write_reports(rep, str(out), scenario=sc)
    for label in ("iekf", "ekf"):
        path = out / f"report_{label}.csv"
        assert path.exists()
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["run", "t", "pos_nees", "ang_nees",
                           "pos_err", "ang_err"]
        assert len(rows) > 2
    with open(out / "summary.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3  # header + 2 variants
    meta = json.loads((out / "meta.json").read_text())
    assert meta["seed"] == 1
    assert meta["variants"] == ["iekf", "ekf"]
    # no stray temp files left behind
    assert not [p for p in os.listdir(out) if p.startswith(".tmp-")]


def test_parallel_matches_serial():
    sc = sim.Scenario(duration=3.0)
    v = [filters.FilterVariant("iekf")]
    calls = {1: [], 2: []}
    serial = sim.run_monte_carlo(sc, v, n_runs=2, seed=9, parallelism=1,
                                 progress=lambda *a: calls[1].append(a))
    parallel = sim.run_monte_carlo(sc, v, n_runs=2, seed=9, parallelism=2,
                                   progress=lambda *a: calls[2].append(a))
    assert list(serial.records) == list(parallel.records)
    assert all(len(serial.records[k]) == len(parallel.records[k])
               and all(np.array_equal(a, b) for a, b in
                       zip(serial.records[k], parallel.records[k]))
               for k in serial.records)
    # progress counts completed runs in run order on both paths
    assert calls[1] == calls[2] == [(1, 2), (2, 2)]
