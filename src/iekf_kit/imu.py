"""IMU kinematics on SE_2(3) with gyro/accel biases.

Error-state ordering throughout: (xi_omega, xi_p, xi_v, b_omega_err, b_a_err),
a 15-dimensional vector.  The pose part is the right-invariant log error of
the SE_2(3) state with columns (p, v); the bias part is a plain vector
difference.  Noise ordering: (n_omega, n_a, n_b_omega, n_b_a), 12-dimensional.

IMU readings come as stacks: gyro rates and specific forces, (n, 3) each.
``propagate_mean`` is the one mean propagator; it chains any number of
steps, one camera interval for a filter or a whole stream for the truth.
The propagators take a leading batch axis for the rows of a filter bank
(the covariance step only that), each filter's numbers equal to those of
a batch of it alone; the covariance step writes the bank's P in place,
its d x d intermediates in a ``Scratch`` that the bank holds."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import lie
from ._checks import is_real
from .exceptions import NegativeRange, NonPositiveDt

DEFAULT_GRAVITY = np.array([0.0, 0.0, -9.81])
# the state dimension from which two stages use the sparsity of a large
# state: ``propagate_covariance`` steps a filter whose U is all zeros apart
# from the driven ones, skipping its O(d^2) driven-row work, and
# ``filters.FilterInstance.update_raw`` forms H P and H P H^T of landmark
# rows in block form (``vision.LandmarkRows``) from their blocks instead
# of the dense H.  Below it the extra calls cost more than they skip: the
# split covariance step about 15 against 7 us per call at d = 51 with four
# filters, against a saving of about 70 us at d = 195 with two; the block
# update of two filters 199 against 194 us at d = 75 and 255 against
# 274 us at d = 102 (one BLAS thread on a 2-core x86-64 machine)
STATIC_SPLIT_DIM = 100


@dataclass
class ImuState:
    """Orientation, position, velocity and the two IMU biases."""

    R: np.ndarray
    p: np.ndarray
    v: np.ndarray
    b_omega: np.ndarray
    b_a: np.ndarray

    def __getitem__(self, index):
        """The state or states at ``index`` of a stack of states, whose
        fields carry a leading axis (the filters of a bank, the epochs of
        a truth stream); an integer or a slice gives views of its fields."""
        return ImuState(self.R[index], self.p[index], self.v[index],
                        self.b_omega[index], self.b_a[index])


@dataclass
class ImuNoiseSpec:
    """Continuous-time noise densities and the gravity constant.

    Defaults are the white-noise / random-walk densities of a consumer-grade
    MEMS unit (the values used by the simulation study).
    """

    sigma_gw: float = 1.6968e-04
    sigma_aw: float = 2.0000e-03
    sigma_gbw: float = 1.9393e-05
    sigma_abw: float = 3.0000e-03
    gravity: np.ndarray = field(default_factory=lambda: DEFAULT_GRAVITY.copy())

    def __post_init__(self):
        g = self.gravity
        # the raw elements are checked: np.asarray makes a bool a number
        if (np.shape(g) != (3,) or not all(map(is_real, g))
                or not np.isfinite(g).all()):
            raise ValueError(f"gravity must be a finite 3-vector of "
                             f"numbers, got {g!r}")
        self.gravity = np.asarray(g, dtype=float)
        for name in ("sigma_gw", "sigma_aw", "sigma_gbw", "sigma_abw"):
            x = getattr(self, name)
            if not (is_real(x) and np.isfinite(x) and x >= 0):
                raise ValueError(f"{name} must be a finite non-negative "
                                 f"number, got {x!r}")

    def q_imu(self):
        """12x12 diagonal process-noise density matrix."""
        return np.diag(np.repeat(
            [self.sigma_gw ** 2, self.sigma_aw ** 2,
             self.sigma_gbw ** 2, self.sigma_abw ** 2], 3))


def propagate_mean(state, omega, accel, dt, gravity):
    """Propagate the mean through n IMU readings ``dt`` apart, stacked as
    the rows of ``omega`` and ``accel`` ((n, 3) each), with the
    bias-corrected inputs held constant over each step.

    Step k is R <- R Exp((w_k - b_w) dt), and v and p follow the
    constant-acceleration rule with the world-frame acceleration
    R (a_k - b_a) + g evaluated at the step start; the biases do not change.
    The increments come from one ``lie.so3_exp_stack``.  Their running
    products are a prefix scan: ceil(log2 n) rounds of one batched product
    each, round s multiplying every partial product on the left by the one
    s places before it, and a last batched product with the start
    orientation.  This reassociates R_k = R_0 dR_0 ... dR_k-1, so the chain
    equals the step-by-step one to rounding, not bit for bit (the test
    suite keeps that loop as the oracle).  The velocities and positions are
    cumulative sums that add in the order of the steps.

    Returns (end state, R, p, v, Ra): R (n + 1, 3, 3), p and v (n + 1, 3)
    are the chain from the start state to the end state, and Ra (n, 3) holds
    R_k (a_k - b_a), the bias-corrected specific force of step k in the world
    frame.

    The state may carry a leading batch axis, its fields stacked as R
    (B, 3, 3) and p, v, b_omega, b_a (B, 3): the B states then go through
    the same readings at once, the end state and the chain arrays carry the
    batch axis in front, and each state's numbers equal those of its own
    call bit for bit.
    """
    if dt <= 0:
        raise NonPositiveDt(f"dt = {dt}")
    n = len(omega)
    lead = np.shape(state.b_omega)[:-1]    # () or (B,)
    w = (omega - state.b_omega[..., None, :]) * dt
    dR = lie.so3_exp_stack(w.reshape(-1, 3)).reshape(lead + (n, 3, 3))
    # prefix products by doubling: after the round of shift s, dR[k] is the
    # product of increments k - 2s + 1 .. k (from 0 where that is negative)
    s = 1
    while s < n:
        dR[..., s:, :, :] = dR[..., :-s, :, :] @ dR[..., s:, :, :]
        s *= 2
    R = np.empty(lead + (n + 1, 3, 3))
    R[..., 0, :, :] = state.R
    np.matmul(state.R[..., None, :, :], dR, out=R[..., 1:, :, :])
    Ra = (R[..., :n, :, :]
          @ (accel - state.b_a[..., None, :])[..., None])[..., 0]
    a_world = Ra + gravity
    # v_k+1 = v_k + a_k dt and p_k+1 = (p_k + v_k dt) + a_k dt^2 / 2
    steps = np.empty(lead + (n + 1, 3))
    steps[..., 0, :] = state.v
    steps[..., 1:, :] = a_world * dt
    v = np.cumsum(steps, axis=-2)
    steps = np.empty(lead + (2 * n + 1, 3))
    steps[..., 0, :] = state.p
    steps[..., 1::2, :] = v[..., :n, :] * dt
    steps[..., 2::2, :] = 0.5 * a_world * dt * dt
    p = np.cumsum(steps, axis=-2)[..., ::2, :]
    end = ImuState(R[..., n, :, :], p[..., n, :], v[..., n, :],
                   state.b_omega.copy(), state.b_a.copy())
    return end, R, p, v, Ra


def imu_error_matrix_a(drift=None):
    """9x9 pose-error drift matrix: zero except dp/dv = I and
    dv/domega = drift^.  The drift is gravity (the default) for the
    right-invariant error and -R (a_m - b_a) for the world-frame error."""
    d = DEFAULT_GRAVITY if drift is None else np.asarray(drift, dtype=float)
    A = np.zeros((9, 9))
    A[3:6, 6:9] = np.eye(3)
    A[6:9, :3] = lie.so3_hat(d)
    return A


def noise_kernel(Q, dt):
    """C(dt) kron Q, the middle factor of the closed-form discrete noise in
    ``compose_error_dynamics``, with C_ij = dt^(i+j+1) / (i! j! (i+j+1)) for
    i, j = 0..3 (48 x 48 for the 12 x 12 IMU noise density).

    It depends only on the noise density and the step, so a caller that
    propagates repeatedly with one (Q, dt) builds it once.
    """
    s = np.add.outer(np.arange(4), np.arange(4)) + 1.0
    fact = np.array([1.0, 1.0, 2.0, 6.0])
    C = dt ** s / (np.outer(fact, fact) * s)
    return np.kron(C, np.asarray(Q, dtype=float))


def compose_error_dynamics(F, G, kernel, dt):
    """The error dynamics of one interval of n steps, composed on the core
    rows: (V, Q) such that the interval's covariance step is
    P <- Phi P Phi^T + T Q T^T with Phi = I + T [V 0] (see
    ``propagate_covariance``).

    F ((B, n, k + r, k)) and G ((B, n, k + r, 12)) stack the steps'
    dynamics of B filters with one kernel, in the row-factored form that
    ``filters.error_jacobians`` builds: k dense rows and r basis rows,
    which a factor U constant over the interval maps to the driven rows;
    V and Q carry the batch axis.  Step j of a filter, with F, G its
    dynamics and Fk, Gk their dense rows, is exact for F^4 = 0: its
    transition is I + [V_j 0] on the core rows for V_j = F (dt I +
    dt^2/2 Fk + dt^3/6 Fk^2), and its noise is W_j K W_j^T for
    W_j = [G, F Gk, F Fk Gk, F Fk^2 Gk] and K = C(dt) kron Q (``kernel``,
    see ``noise_kernel``).  Because the basis rows read only the dense
    columns, the steps compose on the core: step b after the steps (V, Q),
    with Phi_b = I + [V_b 0], gives

        V <- V + V_b + V_b V[:k],   Q <- Phi_b Q Phi_b^T + W_b K W_b^T.

    The composition is associative, so it runs as a tree: each round
    composes adjacent pairs as one batched product, ceil(log2 n) rounds in
    all, and nothing is composed onto a single step.
    """
    if dt <= 0:
        raise NonPositiveDt(f"dt = {dt}")
    k = F.shape[-1]
    # step-major views: the tree below takes the steps on axis 0
    F, G = F.swapaxes(0, 1), G.swapaxes(0, 1)
    Fk = F[..., :k, :]
    Gk = G[..., :k, :]
    M = (dt ** 3 / 6) * (Fk @ Fk) + (dt * dt / 2) * Fk
    M.reshape(M.shape[:-2] + (-1,))[..., ::k + 1] += dt    # + dt I
    FkGk = Fk @ Gk
    X = F @ np.concatenate((M, Gk, FkGk, Fk @ FkGk), axis=-1)
    V = X[..., :k]
    W = np.concatenate((G, X[..., k:]), axis=-1)
    Q = W @ kernel @ W.swapaxes(-1, -2)
    while len(V) > 1:
        # compose steps 2i and 2i + 1 of this round; an odd last step
        # passes on to the next round as it is
        h = len(V) // 2
        Va, Vb = V[0:2 * h:2], V[1:2 * h:2]
        A = Q[0:2 * h:2] + Vb @ Q[0:2 * h:2, ..., :k, :]    # Phi_b Q_a
        Qn = A + A[..., :k] @ Vb.swapaxes(-1, -2)
        Qn += Q[1:2 * h:2]
        Vn = Va + Vb
        Vn += Vb @ Va[..., :k, :]
        if len(V) % 2:
            Vn = np.concatenate((Vn, V[-1:]))
            Qn = np.concatenate((Qn, Q[-1:]))
        V, Q = Vn, Qn
    return V[0], Q[0]


class Scratch:
    """Two grow-only float64 buffers for a filter bank's covariance
    products, the d x d intermediates of ``propagate_covariance`` and
    ``filters.FilterInstance.update_raw`` (and the latter's gathers).  They are not keyed by shape:
    ``take`` views the first elements of a buffer, which grows only when a
    larger shape is asked for, so a state dimension that changes with every
    clone reuses them.  What a view holds is undefined until it is written,
    and a later ``take`` of the same buffer overwrites it."""

    def __init__(self):
        self._buffers = [np.empty(0), np.empty(0)]

    def take(self, i, shape):
        """A C-contiguous view of shape ``shape`` on buffer i (0 or 1)."""
        size = math.prod(shape)
        if self._buffers[i].size < size:
            self._buffers[i] = np.empty(size)
        return self._buffers[i][:size].reshape(shape)


def propagate_covariance(P, V, Q, U, scratch=None):
    """One covariance step P <- Phi P Phi^T + T Q T^T of composed dynamics
    for each of B filters, written into P (B, d, d) in place; V, Q and U
    carry the batch axis.  The d x d intermediates live in ``scratch``
    (a ``Scratch``, a fresh one if None), so a caller that steps one P
    repeatedly allocates them once.

    Of the d rows of P the first k are dense, the next n are driven
    through the n x r factor U, and the rest are static, so with
    T = diag(I_k, U) the transition is Phi = I + T [V 0] for V
    ((k + r) x k), and T Q T^T ((k + r) x (k + r) Q) is the noise, as
    ``compose_error_dynamics`` returns them.  With
    D = V P[:k, :k] V^T + Q,

        Phi P Phi^T + T Q T^T = P + Z + Z^T,  Z = T (V P[:k] + [D T^T / 2, 0])

    on the first c = k + n rows, zero below: P's leading c x c block takes
    (Z + Z^T) + P, its off-diagonal blocks take Z's static columns, and the
    static block is not touched.  A filter whose U is all zeros (the EKF
    family's, see ``filters.error_jacobians``) has no driven rows: from
    d = ``STATIC_SPLIT_DIM`` on it takes the step with c = k, each run of
    consecutive filters that agree on that in one batched step, and below
    it every filter takes one, its driven rows multiplied by zeros.  This
    costs O(k^2 d + r d^2) for a d x d P, and for an exactly symmetric P
    the result is exactly symmetric.  Each filter's result equals that of a
    batch of it alone bit for bit, up to the sign of a zero.

    Raises:
        ValueError: if U does not have V.shape[-2] - V.shape[-1] columns.
    """
    k = V.shape[-1]
    r = V.shape[-2] - k
    if U.shape[-1] != r:
        raise ValueError(f"U has {U.shape[-1]} columns for {r} basis rows")
    scratch = Scratch() if scratch is None else scratch
    d = P.shape[-1]
    Zr = V @ P[:, :k]
    D = Zr[..., :k] @ V.swapaxes(-1, -2) + Q
    driven = U.any(axis=(-2, -1)).tolist() if r else [False] * len(P)
    if d < STATIC_SPLIT_DIM:
        driven = [any(driven)] * len(P)
    # the runs of consecutive filters with and without driven rows
    start = 0
    for is_driven, run in itertools.groupby(driven):
        b = len(list(run))
        run, start = slice(start, start + b), start + b
        if is_driven:
            n = U.shape[-2]
            Zr[run, :, :k + n] += np.concatenate(
                (0.5 * D[run, :, :k],
                 (0.5 * D[run, :, k:]) @ U[run].swapaxes(-1, -2)), axis=-1)
            # a view on a buffer sized for every filter, as update_raw's
            # W^T W will take it, so that the first update does not regrow
            # what the first predict sized for a run of fewer filters
            Z = scratch.take(0, (len(P), k + n, d))[:b]
            Z[:, :k] = Zr[run, :k]
            np.matmul(U[run], Zr[run, k:], out=Z[:, k:])
        else:
            Z = Zr[run, :k]
            Z[..., :k] += 0.5 * D[run, :k, :k]
        c = Z.shape[-2]
        Zc = Z[..., :c]
        S = np.add(Zc, Zc.swapaxes(-1, -2), out=scratch.take(1, (b, c, c)))
        Pr = P[run]
        if c == d:
            np.add(S, Pr, out=Pr)
        else:
            Pr[:, :c, :c] += S
            Pr[:, :c, c:] += Z[..., c:]
            Pr[:, c:, :c] = Pr[:, :c, c:].swapaxes(-1, -2)


def sample_imitating_error(r, rng, n):
    """Draw the imitation errors of n steps, (n, 3): the orientation
    components, iid uniform on [-r, r], in one draw that equals n draws of
    three and leaves ``rng`` in the same state."""
    if r < 0:
        raise NegativeRange(f"r = {r}")
    return rng.uniform(-r, r, (n, 3))
