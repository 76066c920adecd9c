"""Exception types shared across the toolkit."""


class IekfKitError(Exception):
    """Base class for all library errors."""


class AngleNearPi(IekfKitError):
    """Rotation angle is too close to pi for a well-conditioned logarithm."""


class SingularJacobian(IekfKitError):
    """Left Jacobian is not invertible (|omega| at a nonzero multiple of 2*pi)."""


class StepRejected(IekfKitError):
    """Integrator state left the supported angle domain."""


class NonPositiveDt(IekfKitError):
    """Time step must be strictly positive."""


class NegativeRange(IekfKitError):
    """Sampling range must be non-negative."""


class SingularInnovation(IekfKitError):
    """Innovation covariance is numerically singular; update aborted."""


class SingularCovariance(IekfKitError):
    """Covariance block is numerically singular; NEES undefined."""


class DegenerateGeometry(IekfKitError):
    """Triangulation or nullspace-projection geometry is rank deficient."""


class EmptyReport(IekfKitError):
    """Aggregation requested on an empty report."""


class ConfigError(IekfKitError):
    """Run configuration is missing, malformed, or contains unknown keys."""
