"""Shared test helpers."""

import numpy as np
import pytest

from iekf_kit import filters, imu

ACCEL = np.array([0.3, 0.1, 9.7])


def _variant_jacobians(tag, st, lms=np.zeros((0, 3)), accel=ACCEL,
                       xi_delta=None):
    """(F, G) of ``filters.error_jacobians`` from the inputs that
    ``FilterInstance.predict`` gives it for variant ``tag``: gravity and the
    lever arms (p, v, f_j) for the invariant error, -R (a_m - b_a) and none
    for the EKF family."""
    lms = np.asarray(lms, dtype=float).reshape(-1, 3)
    if tag in filters.INVARIANT_TAGS:
        return filters.error_jacobians(st.R, imu.DEFAULT_GRAVITY, len(lms),
                                       np.vstack((st.p, st.v, lms)), xi_delta)
    drift = -(st.R @ (np.asarray(accel, dtype=float) - st.b_a))
    return filters.error_jacobians(st.R, drift, len(lms), None, xi_delta)


@pytest.fixture
def variant_jacobians():
    return _variant_jacobians
