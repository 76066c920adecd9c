"""Closed-form log-error dynamics on se_n(3) and supporting integrators.

Two equivalent descriptions of the multiplicative error between a reference
trajectory and a noisy open-loop tracker are implemented:

* the group-level ODE for eta itself (used as an integration oracle), and
* the closed-form ODE for xi = log(eta)^vee, whose only nonlinear term is the
  inverse left Jacobian multiplying the noise.

The log-error ODE is given in its left form (body-frame inputs); the
group-level ODE also in the right form (fixed-frame inputs, noise
transported by the adjoint of the estimate).
"""

from __future__ import annotations

import numpy as np

from . import lie
from .exceptions import StepRejected

ANGLE_DOMAIN = 2.0 * np.pi - 1e-6


def left_error_rate(xi, vb, w, A):
    """Rate of the left log-error: -ad(vb) xi + J(-ad_xi)^-1 w + A xi."""
    xi = np.asarray(xi, dtype=float)
    return (-lie.sen_ad(vb) @ xi
            + lie.sen_left_jacobian_inv(-xi) @ np.asarray(w, dtype=float)
            + np.asarray(A, dtype=float) @ xi)


def group_error_rate(eta, vb=None, vg=None, w=None, side="left",
                     estimate=None):
    """Matrix-valued rate of the invariant error eta.

    Left form:  eta_dot = -vb^ eta + eta vb^ + eta w^
    Right form: eta_dot =  vg^ eta - eta vg^ + (Ad_est w)^ eta

    ``estimate`` is the group element whose adjoint transports the noise in
    the right form; identity when omitted.  Used only as an integration
    oracle for cross-validating the log-error ODE.
    """
    eta = np.asarray(eta, dtype=float)
    dim = eta.shape[0] - 3
    zero = np.zeros(3 * (dim + 1))
    w_hat = lie.sen_hat(w if w is not None else zero)
    if side == "left":
        vb_hat = lie.sen_hat(vb if vb is not None else zero)
        return -vb_hat @ eta + eta @ vb_hat + eta @ w_hat
    if side == "right":
        vg_hat = lie.sen_hat(vg if vg is not None else zero)
        if estimate is not None:
            w_hat = estimate @ w_hat @ lie.sen_inverse(estimate)
        return vg_hat @ eta - eta @ vg_hat + w_hat @ eta
    raise ValueError(f"unknown side {side!r}")


def integrate_error(rate_fn, xi0, horizon, step):
    """Integrate a log-error ODE with the classical 4th-order one-step method.

    ``rate_fn(t, xi)`` gives the rate (noise handling is the caller's
    business, as in ``integrate_group_error``).

    Returns:
        (times, xis): arrays of shape (k+1,) and (k+1, dim).

    Raises:
        StepRejected: if any accepted state leaves the supported angle domain.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    xi = np.array(xi0, dtype=float)
    n_steps = int(round(horizon / step))
    times = np.empty(n_steps + 1)
    xis = np.empty((n_steps + 1, xi.size))
    times[0] = 0.0
    xis[0] = xi
    for k in range(n_steps):
        t = k * step
        k1 = rate_fn(t, xi)
        k2 = rate_fn(t + step / 2.0, xi + step / 2.0 * k1)
        k3 = rate_fn(t + step / 2.0, xi + step / 2.0 * k2)
        k4 = rate_fn(t + step, xi + step * k3)
        xi = xi + step / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if np.linalg.norm(xi[:3]) >= ANGLE_DOMAIN:
            raise StepRejected(f"|omega| left the domain at t={t + step:.6f}")
        times[k + 1] = t + step
        xis[k + 1] = xi
    return times, xis


def integrate_group_error(eta0, rate_fn, horizon, step):
    """RK4 on a matrix-valued eta ODE; oracle counterpart of integrate_error.

    ``rate_fn(t, eta)`` returns the matrix rate (noise handling is the
    caller's business, typically via a closure over a frozen noise path).
    """
    eta = np.array(eta0, dtype=float)
    n_steps = int(round(horizon / step))
    times = np.empty(n_steps + 1)
    etas = np.empty((n_steps + 1,) + eta.shape)
    times[0] = 0.0
    etas[0] = eta
    for k in range(n_steps):
        t = k * step
        k1 = rate_fn(t, eta)
        k2 = rate_fn(t + step / 2.0, eta + step / 2.0 * k1)
        k3 = rate_fn(t + step / 2.0, eta + step / 2.0 * k2)
        k4 = rate_fn(t + step, eta + step * k3)
        eta = eta + step / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        times[k + 1] = t + step
        etas[k + 1] = eta
    return times, etas


def loglinear_transition(A, dt):
    """Transition matrix Phi = exp(A dt) of a nilpotent A (the IMU error
    dynamics), as the exact finite series sum_k (A dt)^k / k!.

    Raises:
        ValueError: if A dt is not nilpotent, i.e. (A dt)^d != 0 for the
            dimension d.
    """
    M = np.asarray(A, dtype=float) * dt
    dim = M.shape[0]
    out = np.eye(dim)
    term = np.eye(dim)
    for i in range(1, dim + 1):
        term = term @ M / i
        if not np.any(term):
            return out
        out = out + term
    raise ValueError("A dt is not nilpotent; its exponential has no finite "
                     "series")
