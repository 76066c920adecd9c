"""Invariant-filtering toolkit: Lie-group error propagation, an IMU error
model on SE_2(3), a bank of EKF/invariant estimator variants, camera and
sliding-window measurement models, and a Monte-Carlo consistency harness.

Submodules are imported lazily: ``import iekf_kit`` loads none of them, and
no numpy, until one is first used.  The package sets no BLAS or OpenMP
thread count; those come from the environment.
"""

__version__ = "0.1.0"

_SUBMODULES = ("lie", "errorprop", "imu", "filters", "vision", "sim",
               "config", "cli", "exceptions")


def __getattr__(name):
    if name in _SUBMODULES:
        import importlib
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(list(globals()) + list(_SUBMODULES))
