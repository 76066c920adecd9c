"""Lie-core tests: oracles are truncated series, matrix exponentials, and
finite roundtrips; closed forms are never trusted against themselves."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_
from scipy.linalg import expm

from iekf_kit import lie
from iekf_kit.exceptions import AngleNearPi, SingularJacobian


def series_exp(M, terms=30):
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for i in range(1, terms):
        term = term @ M / i
        out = out + term
    return out


def series_left_jacobian(xi, terms=25):
    ad = lie.sen_ad(xi)
    out = np.eye(ad.shape[0])
    term = np.eye(ad.shape[0])
    for i in range(1, terms):
        term = term @ ad / (i + 1)
        out = out + term
    return out


def q_double_series(theta, v, terms=30):
    """sum_{n,m} hat(theta)^n hat(v) hat(theta)^m / (n+m+2)!"""
    T = lie.so3_hat(theta)
    V = lie.so3_hat(v)
    from math import factorial
    Tp = [np.eye(3)]
    for _ in range(terms):
        Tp.append(Tp[-1] @ T)
    out = np.zeros((3, 3))
    for n in range(terms):
        for m in range(terms - n):
            out += Tp[n] @ V @ Tp[m] / factorial(n + m + 2)
    return out


def test_hat_vee_roundtrip(sen_vee):
    rng = np.random.default_rng(0)
    for n in (0, 1, 2, 3):
        xi = rng.normal(size=3 * (n + 1))
        assert np.array_equal(sen_vee(lie.sen_hat(xi)), xi)


def test_sen_hat_rejects_wrong_declared_n():
    with pytest.raises(ValueError):
        lie.sen_hat(np.zeros(9), n=1)
    with pytest.raises(ValueError):
        lie.tangent_n(np.zeros(4))


def test_so3_exp_matches_series():
    rng = np.random.default_rng(1)
    for _ in range(100):
        w = rng.normal(0, 1.0, 3)
        assert np.abs(lie.so3_exp(w) - series_exp(lie.so3_hat(w))).max() < 1e-12


def test_so3_exp_small_angle_branch():
    for scale in (1e-12, 1e-9, 1e-7):
        w = np.array([1.0, -2.0, 0.5]) * scale
        assert np.abs(lie.so3_exp(w) - series_exp(lie.so3_hat(w))).max() < 1e-15


def test_sen_exp_matches_matrix_exponential():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        for _ in range(50):
            xi = rng.normal(0, 0.8, 3 * (n + 1))
            assert np.abs(lie.sen_exp(xi)
                          - series_exp(lie.sen_hat(xi))).max() < 1e-12


def test_log_exp_roundtrip_1000_samples(sen_log):
    # 1000 seeded samples on SE_2(3) with |omega| <= 3.0, error < 1e-9
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        xi = rng.normal(0, 1.0, 9)
        nrm = np.linalg.norm(xi[:3])
        if nrm > 3.0:
            xi[:3] *= 3.0 / nrm * rng.uniform(0.1, 1.0)
        back = sen_log(lie.sen_exp(xi))
        worst = max(worst, np.abs(back - xi).max())
    assert worst < 1e-9


def test_log_raises_near_pi():
    w = np.array([np.pi - 1e-9, 0.0, 0.0])
    with pytest.raises(AngleNearPi):
        lie.so3_log(lie.so3_exp(w))


def test_left_jacobian_matches_series():
    # 500 samples with |omega| <= 2, relative Frobenius error < 1e-10
    rng = np.random.default_rng(4)
    for n in (1, 2):
        worst = 0.0
        for _ in range(250):
            xi = rng.normal(0, 0.7, 3 * (n + 1))
            nrm = np.linalg.norm(xi[:3])
            if nrm > 2.0:
                xi[:3] *= 2.0 / nrm
            J = lie.sen_left_jacobian(xi)
            S = series_left_jacobian(xi)
            worst = max(worst, np.linalg.norm(J - S) / np.linalg.norm(S))
        assert worst < 1e-10


# rotation angles just above SMALL_ANGLE, where closed forms cancel
SMALL_ANGLES = (1.01e-6, 1e-5, 1e-4, 1e-3, 1e-2)


def test_left_jacobian_inverse_is_inverse():
    rng = np.random.default_rng(5)
    xis = [rng.normal(0, 0.8, 9) for _ in range(200)]
    for angle in SMALL_ANGLES:
        xi = rng.normal(0, 0.8, 9)
        xi[:3] *= angle / np.linalg.norm(xi[:3])
        xis.append(xi)
    for xi in xis:
        J = lie.sen_left_jacobian(xi)
        Ji = lie.sen_left_jacobian_inv(xi)
        assert np.abs(J @ Ji - np.eye(9)).max() < 1e-9


def test_jacobian_inverse_raises_near_2pi():
    w = np.zeros(9)
    w[0] = 2.0 * np.pi
    with pytest.raises(SingularJacobian):
        lie.sen_left_jacobian_inv(w)
    # near pi the Jacobian is still fine
    w[0] = np.pi
    lie.sen_left_jacobian_inv(w)


def test_q_matrix_against_double_series():
    rng = np.random.default_rng(6)
    cases = [(rng.normal(0, 0.6, 3), rng.normal(0, 1.0, 3))
             for _ in range(100)]
    for angle in SMALL_ANGLES:
        axis = rng.normal(0, 1.0, 3)
        cases.append((angle * axis / np.linalg.norm(axis),
                      rng.normal(0, 1.0, 3)))
    for theta, v in cases:
        Q = lie.se3_q_matrix(theta, v)
        S = q_double_series(theta, v)
        assert np.abs(Q - S).max() < 1e-12


def test_q_matrix_small_angle_branch():
    rng = np.random.default_rng(7)
    v = rng.normal(0, 1.0, 3)
    for scale in (1e-12, 1e-8, 1e-7):
        theta = np.array([0.3, -0.7, 0.2]) * scale
        Q = lie.se3_q_matrix(theta, v)
        S = q_double_series(theta, v)
        assert np.abs(Q - S).max() < 1e-14


def test_adjoint_conjugation_identity(sen_adjoint):
    # Ad_X as a matrix: X hat(xi) X^-1 = hat(Ad_X xi)
    rng = np.random.default_rng(8)
    for _ in range(50):
        X = lie.sen_exp(rng.normal(0, 0.8, 9))
        xi = rng.normal(0, 1.0, 9)
        lhs = X @ lie.sen_hat(xi) @ lie.sen_inverse(X)
        rhs = lie.sen_hat(sen_adjoint(X) @ xi)
        assert np.abs(lhs - rhs).max() < 1e-10


def test_ad_is_commutator():
    rng = np.random.default_rng(9)
    for _ in range(50):
        a = rng.normal(0, 1.0, 9)
        b = rng.normal(0, 1.0, 9)
        lhs = lie.sen_hat(lie.sen_ad(a) @ b)
        A, B = lie.sen_hat(a), lie.sen_hat(b)
        assert np.abs(lhs - (A @ B - B @ A)).max() < 1e-12


def test_exp_of_ad_equals_adjoint_of_exp(sen_adjoint):
    rng = np.random.default_rng(10)
    for _ in range(50):
        xi = rng.normal(0, 0.7, 9)
        lhs = expm(lie.sen_ad(xi))
        rhs = sen_adjoint(lie.sen_exp(xi))
        assert np.abs(lhs - rhs).max() < 1e-10


def test_adjoint_conjugation_identity_200_pairs():
    # exp(A) B exp(-A) = exp(ad_A) B for algebra elements A, B
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        a = rng.normal(0, 0.5, 9)
        b = rng.normal(0, 0.5, 9)
        lhs = lie.sen_exp(a) @ lie.sen_hat(b) @ lie.sen_inverse(lie.sen_exp(a))
        rhs = lie.sen_hat(expm(lie.sen_ad(a)) @ b)
        worst = max(worst, np.abs(lhs - rhs).max())
    assert worst < 1e-9


def test_inverse_is_group_inverse():
    rng = np.random.default_rng(12)
    for n in (1, 2, 3):
        X = lie.sen_exp(rng.normal(0, 0.8, 3 * (n + 1)))
        assert np.abs(X @ lie.sen_inverse(X) - np.eye(3 + n)).max() < 1e-12


def test_runtime_parameter_n_shared_code_path(sen_log):
    # one code path for every n: exp/log roundtrips at n = 5
    rng = np.random.default_rng(13)
    xi = rng.normal(0, 0.5, 18)
    assert np.abs(sen_log(lie.sen_exp(xi)) - xi).max() < 1e-10


def sen_exp_per_column(xi):
    """Reference: the per-column construction t_i = J(omega) v_i."""
    omega, vs = lie.split_tangent(xi)
    J = lie.so3_left_jacobian(omega)
    X = np.eye(3 + len(vs))
    X[:3, :3] = lie.so3_exp(omega)
    for i, v in enumerate(vs):
        X[:3, 3 + i] = J @ v
    return X


# rotation angles on both sides of the small-angle switch and across the
# injectivity radius, up to just below pi - NEAR_PI_MARGIN
ANGLES = st_.one_of(
    st_.floats(0.0, 10.0 * lie.SMALL_ANGLE),
    st_.sampled_from([lie.SMALL_ANGLE * (1.0 - 1e-9), lie.SMALL_ANGLE,
                      lie.SMALL_ANGLE * (1.0 + 1e-9)]),
    st_.floats(0.0, np.pi - 1.1 * lie.NEAR_PI_MARGIN),
    st_.floats(np.pi - 1e-3, np.pi - 1.1 * lie.NEAR_PI_MARGIN))


@settings(max_examples=300, deadline=None)
@given(n=st_.integers(1, 14), angle=ANGLES,
       seed=st_.integers(0, 2 ** 32 - 1))
def test_sen_exp_log_roundtrip_across_branch_switches(sen_log, n, angle,
                                                     seed):
    rng = np.random.default_rng(seed)
    axis = rng.normal(0.0, 1.0, 3)
    xi = np.concatenate([angle * axis / np.linalg.norm(axis),
                         rng.normal(0.0, 3.0, 3 * n)])
    X = lie.sen_exp(xi)
    ref = sen_exp_per_column(xi)
    assert np.abs(X - ref).max() <= 1e-14 * np.abs(ref).max()
    tol = 1e-9 * (1.0 + np.abs(xi).max())
    assert np.abs(sen_log(X) - xi).max() <= tol


def so3_exp_numpy_forms(w):
    """``lie.so3_exp`` with its norm taken by np.linalg.norm, as it was
    before the norm was written out; kept as its oracle."""
    w = np.asarray(w, dtype=float)
    theta = float(np.linalg.norm(w))
    W = lie.so3_hat(w)
    a, b = lie._sin_cos_coeffs(theta)
    return np.eye(3) + a * W + b * (W @ W)


def so3_log_numpy_forms(R):
    """``lie.so3_log`` with its norm and trace taken by np.linalg.norm and
    np.trace, as it was before both were written out; kept as its oracle."""
    R = np.asarray(R, dtype=float)
    A = R - R.T
    axis_times_2sin = np.array([A[2, 1], A[0, 2], A[1, 0]])
    sin_theta = 0.5 * float(np.linalg.norm(axis_times_2sin))
    theta = math.atan2(sin_theta, (np.trace(R) - 1.0) / 2.0)
    if theta >= np.pi - lie.NEAR_PI_MARGIN:
        raise AngleNearPi(f"rotation angle {theta:.12f} too close to pi")
    if theta < lie.SMALL_ANGLE:
        t2 = theta * theta
        factor = 0.5 * (1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0
                        + 31.0 * t2 * t2 * t2 / 15120.0)
    else:
        factor = theta / (2.0 * sin_theta)
    return factor * axis_times_2sin


@settings(max_examples=300, deadline=None)
@given(angle=ANGLES, seed=st_.integers(0, 2 ** 32 - 1))
def test_so3_exp_log_equal_their_numpy_forms(angle, seed):
    rng = np.random.default_rng(seed)
    axis = rng.normal(0.0, 1.0, 3)
    w = angle * axis / np.linalg.norm(axis)
    R = so3_exp_numpy_forms(w)
    assert np.array_equal(lie.so3_exp(w), R)
    # a rotation that is not an exact exp output, with rounding in R - R^T
    R_noisy = R + 1e-13 * rng.normal(0.0, 1.0, (3, 3))
    for M in (R, R_noisy):
        try:
            want = so3_log_numpy_forms(M)
        except AngleNearPi:
            with pytest.raises(AngleNearPi):
                lie.so3_log(M)
            continue
        assert np.array_equal(lie.so3_log(M), want)


def test_so3_exp_stack_equals_so3_exp_on_every_branch():
    # one stack of zero rows, rows just below, at and just above
    # SMALL_ANGLE, rows near pi and generic rows, and each row as a
    # one-row stack: every row equals so3_exp bit for bit, and the array
    # coefficients raise no RuntimeWarning (no 0/0 on the series rows)
    small = lie.SMALL_ANGLE
    angles = [0.0, np.nextafter(small, 0.0), 0.5 * small, small,
              np.nextafter(small, 1.0), 2.0 * small,
              np.pi - 1e-6, np.nextafter(np.pi, 0.0), np.pi, 1e-3, 2.5]
    # an angle on one axis is its row's norm exactly: sqrt(x * x) = |x|
    rows = [np.roll([a, 0.0, 0.0], k % 3) for k, a in enumerate(angles)]
    rng = np.random.default_rng(29)
    axes = rng.normal(0.0, 1.0, (len(angles), 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    w = np.vstack([rows, np.array(angles)[:, None] * axes, np.zeros((2, 3))])
    theta = np.linalg.norm(w, axis=1)
    assert (theta < small).sum() >= 4 and (theta == small).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        E = lie.so3_exp_stack(w)
        one_row = [lie.so3_exp_stack(w[k:k + 1]) for k in range(len(w))]
        assert lie.so3_exp_stack(w[:0]).shape == (0, 3, 3)
    assert E.shape == (len(w), 3, 3)
    for k in range(len(w)):
        want = lie.so3_exp(w[k])
        assert E[k].tobytes() == want.tobytes(), k
        assert one_row[k].shape == (1, 3, 3)
        assert one_row[k][0].tobytes() == want.tobytes(), k


def test_so3_stacks_match_per_row():
    # so3_exp_stack equals so3_exp row by row, and so3_left_jacobian_inv and
    # so3_log of a stack their per-row values, bit for bit, small-angle
    # branches included
    rng = np.random.default_rng(23)
    w = rng.normal(0.0, 1.0, (40, 3)) * 10.0 ** rng.uniform(-9, 0, (40, 1))
    E = lie.so3_exp_stack(w)
    J = lie.so3_left_jacobian_inv(w)
    # rotations that are not exact exp outputs, angles up to 3
    M = lie.so3_exp_stack(3.0 * w) + 1e-13 * rng.normal(0.0, 1.0, (40, 3, 3))
    logs = lie.so3_log(M)
    assert logs.shape == (40, 3) and lie.so3_log(M[:0]).shape == (0, 3)
    for k in range(len(w)):
        assert np.array_equal(E[k], lie.so3_exp(w[k]))
        assert np.array_equal(J[k], lie.so3_left_jacobian_inv(w[k]))
        assert np.array_equal(logs[k], lie.so3_log(M[k]))


def test_so3_left_jacobian_stack_matches_vector_form(
        so3_left_jacobian_vector):
    # each row of the stacked left Jacobian, and the stacked form called on
    # the row alone, equal the single-vector form bit for bit: rows on both
    # sides of the small-angle switch, zero, and an empty stack
    rng = np.random.default_rng(24)
    w = rng.normal(0.0, 1.0, (60, 3)) * 10.0 ** rng.uniform(-12, 0.5, (60, 1))
    w[0] = 0.0
    w[1:4] = np.array([1.0 - 1e-9, 1.0, 1.0 + 1e-9])[:, None] * (
        lie.SMALL_ANGLE / np.sqrt(3.0))
    assert (np.linalg.norm(w, axis=1) < lie.SMALL_ANGLE).sum() >= 10
    J = lie.so3_left_jacobian(w)
    assert J.shape == (60, 3, 3)
    for k in range(len(w)):
        want = so3_left_jacobian_vector(w[k]).tobytes()
        assert J[k].tobytes() == want
        assert lie.so3_left_jacobian(w[k]).tobytes() == want
    assert lie.so3_left_jacobian(np.zeros((0, 3))).shape == (0, 3, 3)


def test_so3_hat_of_a_stack_is_per_row():
    # so3_hat maps every 3-vector of an (..., 3) array, as it maps one
    rng = np.random.default_rng(25)
    w = rng.normal(0.0, 1.0, (4, 5, 3))
    H = lie.so3_hat(w)
    assert H.shape == (4, 5, 3, 3)
    for u, W in zip(w.reshape(-1, 3), H.reshape(-1, 3, 3)):
        assert np.array_equal(W, [[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]],
                                  [-u[1], u[0], 0.0]])
        assert np.array_equal(lie.so3_hat(u), W)


def test_so3_log_stack_guards_each_row():
    # one rotation by pi in a stack raises, as it does alone
    R = lie.so3_exp_stack(np.array([[0.1, 0.2, 0.3], [0.0, np.pi, 0.0],
                                    [0.0, 0.0, 0.5]]))
    with pytest.raises(AngleNearPi):
        lie.so3_log(R[1])
    with pytest.raises(AngleNearPi):
        lie.so3_log(R)
    lie.so3_log(R[[0, 2]])


def bernoulli(n):
    """The Bernoulli number B_n, exact (Akiyama-Tanigawa)."""
    A = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        A[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            A[j - 1] = j * (A[j - 1] - A[j])
    return A[0]


def test_jacobian_coefficients_match_their_series():
    # c = (t - sin t)/t^3 of the left Jacobian and d = (1 - (t/2)
    # cot(t/2))/t^2 of its inverse, on a log grid of angles from 1e-7 to 1,
    # against their Taylor series summed exactly at each float angle: with
    # w = (s, s, 0), W has no (0, 1) entry and W^2 holds s * s there, so
    # J[0, 1] = c s^2 and J^-1[0, 1] = d s^2 to one rounding each
    s = np.geomspace(1e-7, 1.0, 120) / math.sqrt(2.0)
    w = np.column_stack((s, s, np.zeros_like(s)))
    c = lie.so3_left_jacobian(w)[:, 0, 1] / (s * s)
    d = lie.so3_left_jacobian_inv(w)[:, 0, 1] / (s * s)
    E, J = lie.so3_exp_jacobian_stack(w)
    assert E.tobytes() == lie.so3_exp_stack(w).tobytes()
    assert J.tobytes() == lie.so3_left_jacobian(w).tobytes()
    b2k = [abs(bernoulli(2 * k)) for k in range(1, 16)]
    for k, theta in enumerate(lie._row_norms(w).tolist()):
        t2 = Fraction(theta) ** 2
        c_ref = float(sum((-1) ** i * t2 ** i / math.factorial(2 * i + 3)
                          for i in range(15)))
        d_ref = float(sum(b * t2 ** i / math.factorial(2 * i + 2)
                          for i, b in enumerate(b2k)))
        assert abs(c[k] / c_ref - 1.0) < 1e-12, theta
        assert abs(d[k] / d_ref - 1.0) < 1e-12, theta
