"""Exception types shared across the package."""


class NoisyControlError(Exception):
    """Base class for all errors raised by this package."""


class NonCommensurate(NoisyControlError):
    """Horizon is not an integer number of delay-subdivision steps."""


class GridTooLarge(NoisyControlError):
    """The grid has more nodes than numpy can allocate, or more steps than a
    float can count."""


class OffGrid(NoisyControlError):
    """A time was requested that does not coincide with a grid node."""


class GridMismatch(NoisyControlError):
    """Two grid-indexed objects were combined but live on different grids."""


class NonFiniteState(NoisyControlError):
    """State simulation produced NaN or infinity; carries the blow-up step."""

    def __init__(self, message, step=None, time=None):
        super().__init__(message)
        self.step = step
        self.time = time


class KernelNotReducible(NoisyControlError):
    """The two-dimensional reduction only applies to the plain (constant-one)
    memory weighting."""


class FixedPointDiverged(NoisyControlError):
    """The backward coefficient sweep produced non-finite values."""


class RankDeficientBasis(NoisyControlError):
    """Regression basis is numerically rank deficient; carries the condition
    number of the Gram matrix."""

    def __init__(self, message, condition_number=None):
        super().__init__(message)
        self.condition_number = condition_number


class NonMonotone(NoisyControlError):
    """The first-order-condition derivative is not monotone on the control
    interval, so bisection is not applicable."""


class OutOfControlSet(NoisyControlError):
    """A proposed control value lies outside the admissible interval."""


class GradientMismatch(NoisyControlError):
    """Supplied analytic gradients disagree with finite differences."""


class ZeroResidual(NoisyControlError):
    """A residual whose convergence order was asked for is exactly zero, so
    the order is undefined."""


class ConfigError(NoisyControlError):
    """Scenario configuration is malformed; carries a line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line
