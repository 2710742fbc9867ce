"""Exception types shared across the package."""


class NoisyControlError(Exception):
    """Base class for all errors raised by this package."""


class NonCommensurate(NoisyControlError):
    """Horizon is not an integer number of delay-subdivision steps."""


class GridTooLarge(NoisyControlError):
    """The grid has more nodes than numpy can allocate, or more steps than a
    float can count, or a noise ensemble's (n_paths, n_steps) arrays are more
    than numpy can allocate."""


class SeedOutOfRange(NoisyControlError, ValueError):
    """A noise path's Philox key (seed, path index) leaves the range
    [0, 2**64 - 1] of its two 64-bit words."""


class InvalidGrid(NoisyControlError, ValueError):
    """A grid's delay or horizon is not positive, or its steps per delay is
    not a positive integer."""


class TooFewPaths(NoisyControlError, ValueError):
    """An ensemble has fewer paths than the computation needs: none at all
    for sampling, or fewer than ten per basis function for a regression."""


class ControlShape(NoisyControlError, ValueError):
    """Control values are not one value per horizon node, either shared
    (n+1,) or per path (n_paths, n+1)."""


class NotReduced(NoisyControlError, ValueError):
    """The two-dimensional backward solver was given a state without the
    reduction's second component X2 (a state that reduce_2d did not make)."""


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
    """Scenario configuration is malformed; the message names the file and,
    when known, the line."""
