"""Exception types shared across the package."""


class DiffLabError(Exception):
    """Base class for all difflab errors."""


class InvalidParams(DiffLabError):
    """Parameters or values violate their constraints."""


class ScheduleDegenerate(DiffLabError):
    """The step-size recursion produced an unusable schedule.

    Raised when some per-step rate drops to 1/2 or below (the step-noise
    variance would be nonpositive), which signals that c1 * log(T) / T is
    too large for the requested horizon.
    """


class UnsupportedKind(DiffLabError):
    """The requested sampler variant is not supported by this operation."""


class ConfigInvalid(DiffLabError):
    """An experiment configuration fails validation."""


class TargetLoadFailed(DiffLabError):
    """A target specification file could not be loaded."""
