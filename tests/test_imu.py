"""IMU model tests: mean propagation against analytic kinematics and the
interval chain against the per-step oracle, the closed-form discretized
covariance in its row-factored form against independent quadrature, the Van
Loan block exponential and the same closed form on the square dynamics, the
error Jacobians of the 15-state for the invariant and the EKF family, the
transition matrix against its known polynomial block structure, and the
imitation draws."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st_

from iekf_kit import errorprop, imu, lie
from iekf_kit.exceptions import NegativeRange, NonPositiveDt

FAMILIES = ("iekf", "ekf")


def random_state(rng):
    return imu.ImuState(
        lie.so3_exp(rng.normal(0.0, 0.5, 3)),
        rng.normal(0.0, 5.0, 3),
        rng.normal(0.0, 1.0, 3),
        rng.normal(0.0, 0.01, 3),
        rng.normal(0.0, 0.05, 3))


def one_step(P, F, G, U, Q, dt):
    """The covariance step of a one-step interval with dynamics (F, G, U),
    for a batch of one filter, on a copy of P."""
    V, Qd = imu.compose_error_dynamics(F[None, None], G[None, None],
                                       imu.noise_kernel(Q, dt), dt)
    P = P[None].copy()
    imu.propagate_covariance(P, V, Qd, U[None])
    return P[0]


def test_propagate_mean_free_fall(identity_state):
    st = identity_state()
    g = imu.DEFAULT_GRAVITY
    out = imu.propagate_mean(st, np.zeros((1, 3)), np.zeros((1, 3)), 2.0,
                             g)[0]
    assert np.allclose(out.v, 2.0 * g)
    assert np.allclose(out.p, 2.0 * g)  # 0.5 * g * t^2 at t = 2
    assert np.allclose(out.R, np.eye(3))


def test_propagate_mean_bias_correction():
    rng = np.random.default_rng(0)
    st = random_state(rng)
    w = rng.normal(0.0, 0.3, (1, 3))
    a = rng.normal(0.0, 1.0, (1, 3))
    g = imu.DEFAULT_GRAVITY
    # feeding measurement = signal + bias must reproduce the unbiased step
    clean = imu.propagate_mean(
        imu.ImuState(st.R, st.p, st.v, np.zeros(3), np.zeros(3)),
        w, a, 0.01, g)[0]
    biased = imu.propagate_mean(st, w + st.b_omega, a + st.b_a, 0.01, g)[0]
    assert np.abs(clean.R - biased.R).max() < 1e-14
    assert np.abs(clean.p - biased.p).max() < 1e-14


def test_propagate_mean_rejects_bad_dt(identity_state):
    st = identity_state()
    with pytest.raises(NonPositiveDt):
        imu.propagate_mean(st, np.zeros((2, 3)), np.zeros((2, 3)), 0.0,
                           imu.DEFAULT_GRAVITY)
    with pytest.raises(NonPositiveDt):
        imu.compose_error_dynamics(np.zeros((1, 1, 15, 15)),
                                   np.zeros((1, 1, 15, 12)), np.eye(48), -0.1)


def test_error_matrix_a_is_nilpotent():
    A = imu.imu_error_matrix_a()
    assert np.abs(np.linalg.matrix_power(A, 3)).max() == 0.0


def test_full_f_is_nilpotent(variant_jacobians, expand, square):
    rng = np.random.default_rng(1)
    st = random_state(rng)
    lms = rng.normal(0.0, 10.0, (2, 3))
    for tag in FAMILIES:
        F, G, U = variant_jacobians(tag, st, lms)
        F_sq = square(expand(F, G, U, 21)[0], 21)
        assert np.abs(np.linalg.matrix_power(F_sq, 4)).max() == 0.0


def test_error_jacobians_zero_delta_bit_identical(variant_jacobians):
    rng = np.random.default_rng(2)
    st = random_state(rng)
    lms = rng.normal(0.0, 10.0, (2, 3))
    F0, G0, U0 = variant_jacobians("iekf", st, lms)
    Fz, Gz, Uz = variant_jacobians("iekf", st, lms,
                                   xi_delta=np.zeros((1, 3)))
    assert np.array_equal(F0, Fz)
    assert np.array_equal(G0, Gz)
    assert np.array_equal(U0, Uz)


def test_error_jacobians_block_structure(variant_jacobians, expand):
    rng = np.random.default_rng(3)
    st = random_state(rng)
    a_m = rng.normal(0.0, 1.0, 3)
    for tag in FAMILIES:
        F, G, U = variant_jacobians(tag, st, accel=a_m)
        assert U.shape == (0, 0)
        F, G = expand(F, G, U, 15)
        assert F.shape == (15, 15)
        assert G.shape == (15, 12)
        # bias rows are static; bias noise enters with identity
        assert np.abs(F[9:, :]).max() == 0.0
        assert np.array_equal(G[9:15, 6:12], np.eye(6))
        # noise map blocks: attitude sees R, velocity sees R for accel noise
        assert np.array_equal(G[:3, :3], st.R)
        assert np.array_equal(G[6:9, 3:6], st.R)
        assert np.array_equal(F[3:6, 6:9], np.eye(3))
        if tag == "iekf":
            # position and velocity see the gyro noise through p^ R, v^ R
            assert np.allclose(G[3:6, :3], lie.so3_hat(st.p) @ st.R)
            assert np.allclose(G[6:9, :3], lie.so3_hat(st.v) @ st.R)
            assert np.array_equal(F[6:9, :3],
                                  lie.so3_hat(imu.DEFAULT_GRAVITY))
        else:
            # world-frame errors: no lever arms, -(R a)^ drives velocity
            assert not np.any(G[3:6]) and not np.any(G[6:9, :3])
            assert np.allclose(F[6:9, :3], -lie.so3_hat(st.R @ (a_m - st.b_a)))


def test_propagate_covariance_matches_quadrature(variant_jacobians, expand,
                                                square):
    """Closed-form discretization vs Simpson quadrature of the exact
    integral, with two landmarks (driven rows for the invariant error,
    static ones for the EKF family)."""
    rng = np.random.default_rng(4)
    st = random_state(rng)
    lms = rng.normal(0.0, 10.0, (2, 3))
    Q = np.diag(rng.uniform(0.5, 2.0, 12))
    P = np.eye(21) * 0.1
    dt = 0.05
    for tag in FAMILIES:
        F, G, U = variant_jacobians(tag, st, lms)
        out = one_step(P, F, G, U, Q, dt)
        F, G = expand(F, G, U, 21)
        F = square(F, 21)

        def phi(s):
            return errorprop.loglinear_transition(F, s)
        n = 200
        s = np.linspace(0.0, dt, 2 * n + 1)
        vals = [phi(dt - si) @ G @ Q @ G.T @ phi(dt - si).T for si in s]
        h = dt / (2 * n)
        Qd = h / 3.0 * (vals[0] + vals[-1]
                        + 4.0 * sum(vals[1:-1:2]) + 2.0 * sum(vals[2:-2:2]))
        ref = phi(dt) @ P @ phi(dt).T + Qd
        assert np.abs(out - ref).max() / np.abs(ref).max() < 1e-10


def test_propagate_covariance_pure_diffusion():
    # F = 0: P <- P + dt * G Q G^T exactly
    rng = np.random.default_rng(5)
    G = rng.normal(0.0, 1.0, (15, 12))
    Q = np.diag(rng.uniform(0.1, 1.0, 12))
    P = np.eye(15)
    out = one_step(P, np.zeros((15, 15)), G, np.zeros((0, 0)), Q, 0.3)
    assert np.abs(out - (P + 0.3 * G @ Q @ G.T)).max() < 1e-12


def van_loan(P, F, G, Q, dt):
    """Phi P Phi^T + Q_d with Phi and Q_d from one block matrix
    exponential (Van Loan, IEEE TAC 1978)."""
    d = F.shape[0]
    M = np.zeros((2 * d, 2 * d))
    M[:d, :d] = -F
    M[:d, d:] = G @ Q @ G.T
    M[d:, d:] = F.T
    E = scipy.linalg.expm(M * dt)
    Phi = E[d:, d:].T
    return Phi @ P @ Phi.T + Phi @ E[:d, d:]


def factored_system(rng, sizes, r, n):
    """A random row-factored (F, G, U) with F^4 = 0.

    The core Fk and the basis rows Fr come from one strictly block
    upper-triangular matrix on the blocks [r] + sizes (at most four
    nonempty blocks): the basis block reads the core and nothing reads it,
    like landmarks.  U (n x r) drives n rows."""
    blocks = [r] + sizes
    m = sum(blocks)
    N = np.zeros((m, m))
    edges = np.cumsum([0] + blocks)
    for i in range(len(blocks)):
        N[edges[i]:edges[i + 1], edges[i + 1]:] = rng.normal(
            0.0, 1.0, (blocks[i], m - edges[i + 1]))
    F = np.vstack([N[r:, r:], N[:r, r:]])    # [Fk; Fr]
    G = rng.normal(0.0, 1.0, (m, 3))
    U = rng.normal(0.0, 1.0, (n, r)) if r else np.zeros((0, 0))
    return F, G, U


def random_psd(rng, d):
    A = rng.normal(0.0, 1.0, (d, d))
    return A @ A.T


@settings(max_examples=80, deadline=None)
@given(sizes=st_.lists(st_.integers(1, 4), min_size=2, max_size=4),
       r=st_.integers(0, 3),
       n=st_.integers(0, 9),
       clones=st_.integers(0, 2),
       dt=st_.floats(1e-3, 0.5),
       seed=st_.integers(0, 2 ** 32 - 1))
def test_closed_form_matches_van_loan_on_nilpotent_f(expand, square, sizes, r,
                                                     n, clones, dt, seed):
    # the row-factored step against one block matrix exponential of the
    # square dynamics: a nilpotent core, n rows driven through a random
    # rank-r U, and trailing static rows (zero in F and G) for the clones
    rng = np.random.default_rng(seed)
    if r:
        sizes = sizes[:3]
    F, G, U = factored_system(rng, sizes, r, n)
    d = F.shape[1] + len(U) + 6 * clones
    F_sq, G_sq = expand(F, G, U, d)
    Q = random_psd(rng, 3)
    P = random_psd(rng, d)
    out = one_step(P, F, G, U, Q, dt)
    ref = van_loan(P, square(F_sq, d), G_sq, Q, dt)
    assert np.abs(out - ref).max() <= 1e-10 * np.abs(ref).max()
    assert np.array_equal(out, out.T)


@settings(max_examples=60, deadline=None)
@given(sizes=st_.lists(st_.integers(1, 4), min_size=2, max_size=4),
       r=st_.integers(0, 3),
       n=st_.integers(0, 9),
       static_rows=st_.integers(0, 9),
       dt=st_.floats(1e-3, 0.5),
       seed=st_.integers(0, 2 ** 32 - 1))
def test_leading_columns_match_square_f(expand, square, dense_closed_form,
                                        sizes, r, n, static_rows, dt, seed):
    # the row-factored step (F holds the k leading columns on k + r rows)
    # against the same closed form on the square dynamics it stands for
    rng = np.random.default_rng(seed)
    if r:
        sizes = sizes[:3]
    F, G, U = factored_system(rng, sizes, r, n)
    d = F.shape[1] + len(U) + static_rows
    F_sq, G_sq = expand(F, G, U, d)
    Q = random_psd(rng, 3)
    P = random_psd(rng, d)
    ref = dense_closed_form(P, square(F_sq, d), G_sq, Q, dt)
    out = one_step(P, F, G, U, Q, dt)
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.array_equal(out, out.T)


def test_propagate_covariance_rejects_wide_f():
    with pytest.raises(ValueError):
        imu.propagate_covariance(np.eye(15)[None], np.zeros((1, 15, 16)),
                                 np.zeros((1, 15, 15)), np.zeros((1, 0, 0)))
    # U must have one column per basis row of V
    with pytest.raises(ValueError):
        imu.propagate_covariance(np.eye(21)[None], np.zeros((1, 18, 15)),
                                 np.zeros((1, 18, 18)), np.zeros((1, 6, 2)))


def test_transition_matrix_polynomial_display(variant_jacobians, expand,
                                              identity_state):
    # Phi = exp(F dt) carries dt*I, dt*g^ and (dt^2/2) g^ in the pose rows
    st = identity_state()
    F, _ = expand(*variant_jacobians("iekf", st), 15)
    dt = 0.1
    Phi = errorprop.loglinear_transition(F, dt)
    G = lie.so3_hat(imu.DEFAULT_GRAVITY)
    assert np.allclose(Phi[3:6, 6:9], dt * np.eye(3))
    assert np.allclose(Phi[6:9, :3], dt * G)
    assert np.allclose(Phi[3:6, :3], 0.5 * dt * dt * G)


def test_imitating_error_sampling():
    rng = np.random.default_rng(6)
    xi = imu.sample_imitating_error(0.5, rng, 4)
    assert xi.shape == (4, 3)
    assert np.abs(xi).max() <= 0.5
    assert np.array_equal(imu.sample_imitating_error(0.0, rng, 2),
                          np.zeros((2, 3)))
    with pytest.raises(NegativeRange):
        imu.sample_imitating_error(-0.1, rng, 1)


@pytest.mark.parametrize("n", [1, 2, 10])
def test_interval_draw_equals_per_step_draws(n):
    # one uniform(-r, r, (n, 3)) draw gives the n per-step draws of three
    # and leaves the generator where they leave it
    one, steps = np.random.default_rng(21), np.random.default_rng(21)
    xi = imu.sample_imitating_error(0.3, one, n)
    want = np.array([steps.uniform(-0.3, 0.3, 3) for _ in range(n)])
    assert np.array_equal(xi, want)
    assert one.bit_generator.state == steps.bit_generator.state


# the relative tolerance of the chain by doubling against the per-step
# loop, on the largest entry of each field: the scan multiplies the
# rotation increments in another order
CHAIN_RTOL = 1e-9


def assert_chain_close(got, want, what):
    assert got.shape == want.shape, what
    assert np.abs(got - want).max() <= CHAIN_RTOL * np.abs(want).max(), what


def per_step_chain(propagate_step, st, omega, accel, dt, g):
    chain = [st]
    for w, a in zip(omega, accel):
        chain.append(propagate_step(chain[-1], w, a, dt, g))
    return chain


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 17, 20, 440])
def test_interval_chain_matches_per_step_chain(n, propagate_step):
    # the chain against a loop of the per-step oracle: the states along the
    # way, the end state and the rotated specific force within CHAIN_RTOL,
    # the start state, the biases and the end state's place in the chain
    # bit for bit
    rng = np.random.default_rng(22 + n)
    st = random_state(rng)
    omega = rng.normal(0.0, 0.5, (n, 3))
    accel = rng.normal(0.0, 3.0, (n, 3)) + [0.0, 0.0, 9.8]
    dt = 0.01
    g = imu.DEFAULT_GRAVITY
    end, R, p, v, Ra = imu.propagate_mean(st, omega, accel, dt, g)
    chain = per_step_chain(propagate_step, st, omega, accel, dt, g)
    for f, got in (("R", R), ("p", p), ("v", v)):
        want = np.array([getattr(s_, f) for s_ in chain])
        assert_chain_close(got, want, f)
        assert got[0].tobytes() == getattr(st, f).tobytes(), f
        assert getattr(end, f).tobytes() == got[-1].tobytes(), f
        assert_chain_close(getattr(end, f), getattr(chain[-1], f), f)
    for f in ("b_omega", "b_a"):
        assert np.array_equal(getattr(end, f), getattr(chain[-1], f)), f
    want_Ra = np.array([s_.R @ (a - s_.b_a) for s_, a in zip(chain, accel)])
    assert_chain_close(Ra, want_Ra, "Ra")


def test_stream_chain_stays_a_rotation(propagate_step):
    # criterion 7's stream (120 s at 50 Hz, 6000 steps): the chain stays
    # within CHAIN_RTOL of the per-step loop, and every R_k orthonormal to
    # 1e-13
    rng = np.random.default_rng(41)
    st = random_state(rng)
    n, dt, g = 6000, 0.02, imu.DEFAULT_GRAVITY
    omega = rng.normal(0.0, 0.5, (n, 3))
    accel = rng.normal(0.0, 3.0, (n, 3)) + [0.0, 0.0, 9.8]
    _, R, p, v, _ = imu.propagate_mean(st, omega, accel, dt, g)
    chain = per_step_chain(propagate_step, st, omega, accel, dt, g)
    for f, got in (("R", R), ("p", p), ("v", v)):
        assert_chain_close(got, np.array([getattr(s_, f) for s_ in chain]), f)
    assert np.abs(R.swapaxes(1, 2) @ R - np.eye(3)).max() < 1e-13


def test_batched_chain_equals_one_call_per_state():
    # B states through the same readings in one call, at lengths that are
    # and are not powers of two: each state's chain, end state and rotated
    # specific force equal its own call bit for bit
    rng = np.random.default_rng(40)
    states = [random_state(rng) for _ in range(4)]
    fields = ("R", "p", "v", "b_omega", "b_a")
    stacked = imu.ImuState(*(np.stack([getattr(s_, f) for s_ in states])
                             for f in fields))
    g = imu.DEFAULT_GRAVITY
    for n in (1, 3, 5, 8, 17):
        omega = rng.normal(0.0, 0.5, (n, 3))
        accel = rng.normal(0.0, 3.0, (n, 3)) + [0.0, 0.0, 9.8]
        end, R, p, v, Ra = imu.propagate_mean(stacked, omega, accel, 0.02, g)
        assert R.shape == (4, n + 1, 3, 3) and Ra.shape == (4, n, 3)
        for i, s_ in enumerate(states):
            want = imu.propagate_mean(s_, omega, accel, 0.02, g)
            for got, ref in zip((R[i], p[i], v[i], Ra[i]), want[1:]):
                assert got.tobytes() == ref.tobytes()
            for f in fields:
                assert (getattr(end, f)[i].tobytes()
                        == getattr(want[0], f).tobytes())


@pytest.mark.parametrize("n", [1, 2, 3, 10])
@pytest.mark.parametrize("r", [0, 3, 9])
def test_batched_covariance_step_equals_one_call_per_filter(
        n, r, propagate_covariance_copy):
    # B filters' interval dynamics composed and applied in one call each:
    # every V, Q and P equals its batch of one bit for bit, with static rows
    # and without, and the step writes P in place, C-contiguous and exactly
    # symmetric, bit for bit as the allocating step on a copy; one scratch
    # serves both state dimensions
    rng = np.random.default_rng(41 + n + r)
    b, k, m = 3, 15, 4
    kernel = imu.noise_kernel(imu.ImuNoiseSpec().q_imu(), 0.02)
    F = rng.normal(0.0, 0.3, (b, n, k + r, k))
    G = rng.normal(0.0, 0.3, (b, n, k + r, 12))
    U = rng.normal(0.0, 1.0, (b, 3 * m if r else 0, r))
    V, Q = imu.compose_error_dynamics(F, G, kernel, 0.02)
    scratch = imu.Scratch()
    for static in (0, 6):
        d = k + len(U[0]) + static
        Ps = []
        for _ in range(b):
            A = rng.normal(0.0, 0.1, (d, d))
            Ps.append(A @ A.T + 1e-3 * np.eye(d))
        Ps = np.array(Ps)
        got = Ps.copy()
        assert imu.propagate_covariance(got, V, Q, U, scratch) is None
        assert got.flags.c_contiguous
        assert (got.tobytes()
                == propagate_covariance_copy(Ps, V, Q, U).tobytes())
        for i in range(b):
            V_i, Q_i = imu.compose_error_dynamics(F[i:i + 1], G[i:i + 1],
                                                  kernel, 0.02)
            assert V[i].tobytes() == V_i[0].tobytes()
            assert Q[i].tobytes() == Q_i[0].tobytes()
            want = Ps[i:i + 1].copy()
            imu.propagate_covariance(want, V_i, Q_i, U[i:i + 1])
            assert got[i].tobytes() == want.tobytes()
            assert np.array_equal(got[i], got[i].T)


@pytest.mark.parametrize("split_dim", [0, 10 ** 6])
@pytest.mark.parametrize("driven", [(0, 1, 1), (1, 0, 1), (0, 0, 1),
                                    (0, 0, 0), (1, 1, 1)])
def test_covariance_step_of_filters_without_driven_rows(
        driven, split_dim, monkeypatch, propagate_covariance_copy):
    # filters whose U is all zeros (the EKF family's) beside driven ones:
    # stepped apart with c = k from STATIC_SPLIT_DIM on, in one batch
    # below it, the step equals the allocating one either way, and their
    # landmark block is not touched
    monkeypatch.setattr(imu, "STATIC_SPLIT_DIM", split_dim)
    rng = np.random.default_rng(sum(driven))
    b, k, r, m, static = len(driven), 15, 3, 4, 6
    kernel = imu.noise_kernel(imu.ImuNoiseSpec().q_imu(), 0.02)
    F = rng.normal(0.0, 0.3, (b, 2, k + r, k))
    G = rng.normal(0.0, 0.3, (b, 2, k + r, 12))
    U = rng.normal(0.0, 1.0, (b, 3 * m, r)) * np.array(driven)[:, None, None]
    V, Q = imu.compose_error_dynamics(F, G, kernel, 0.02)
    d = k + 3 * m + static
    A = rng.normal(0.0, 0.1, (b, d, d))
    Ps = A @ A.swapaxes(1, 2) + 1e-3 * np.eye(d)
    got = Ps.copy()
    imu.propagate_covariance(got, V, Q, U)
    assert np.array_equal(got, propagate_covariance_copy(Ps, V, Q, U))
    assert np.array_equal(got, got.swapaxes(1, 2))
    for i in np.flatnonzero(np.array(driven) == 0):
        assert got[i, k:, k:].tobytes() == Ps[i, k:, k:].tobytes()


def test_noise_spec_q_matrix():
    spec = imu.ImuNoiseSpec()
    Q = spec.q_imu()
    assert Q.shape == (12, 12)
    assert np.allclose(np.diag(Q)[:3], spec.sigma_gw ** 2)
    assert np.allclose(np.diag(Q)[3:6], spec.sigma_aw ** 2)
    assert np.allclose(np.diag(Q)[9:12], spec.sigma_abw ** 2)
    with pytest.raises(ValueError):
        imu.ImuNoiseSpec(sigma_gw=-1.0)


def test_imitated_jacobian_premultiplies_noise_map(variant_jacobians,
                                                   expand):
    # the block-diagonal shortcut equals the full inverse left Jacobian on
    # the landmark-augmented group: bit for bit on the IMU rows, and to
    # rounding on the landmark rows, which the r = 9 factors sum over the
    # three components of each landmark
    rng = np.random.default_rng(7)
    st = random_state(rng)
    for m in (0, 3):
        c = 15 + 3 * m
        lms = rng.normal(0.0, 10.0, (m, 3))
        xi_d = imu.sample_imitating_error(0.4, rng, 1)
        _, G0 = expand(*variant_jacobians("ij_iekf", st, lms), c)
        F, G = expand(*variant_jacobians("ij_iekf", st, lms, xi_delta=xi_d),
                      c)
        B = np.vstack([G0[:9, :6], G0[15:, :6]])
        xi_ext = np.zeros(3 * (m + 3))
        xi_ext[:3] = xi_d[0]
        JiB = lie.sen_left_jacobian_inv(xi_ext) @ B
        assert np.array_equal(G[:9, :6], JiB[:9])
        assert np.array_equal(F[:9, 9:15], -JiB[:9])
        assert (np.abs(G[15:, :6] - JiB[9:]).max(initial=0.0)
                <= 1e-15 * np.abs(JiB).max())
        assert np.array_equal(F[15:, 9:15], -G[15:, :6])
