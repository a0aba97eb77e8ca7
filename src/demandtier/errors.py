"""Exception types shared across the package, and the integer check they share."""


class DemandTierError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(DemandTierError, ValueError):
    """A parameter violates an invariant; the message names the offending field."""


class NonInteriorBudget(DemandTierError):
    """Income cannot cover subsistence spending, so no interior optimum exists."""


class InvalidPrice(DemandTierError):
    """Relative price must be strictly positive."""


class ShareOutOfRange(DemandTierError):
    """Sectoral share outside the admissible range."""


class InvalidHorizon(DemandTierError):
    """Simulation horizon or input path length is unusable."""


class InvalidState(DemandTierError):
    """Technology state with nonpositive productivity or wage."""


class NoConvergence(DemandTierError):
    """A root or threshold is missing from its bracket or fails its tolerance."""


class NumericalOverflow(DemandTierError):
    """A result would leave the float range; the message names the input that drives it."""


class DegenerateChannel(DemandTierError):
    """The share channel is flat, so the channel-dominance ratio is undefined.

    The education effect on the map is still well defined; it is attached as
    ``dT_dE`` so callers can report it.
    """

    def __init__(self, message, dT_dE=None):
        super().__init__(message)
        self.dT_dE = dT_dE


def _require_int(name: str, value, minimum: int, error: type[DemandTierError] = ConfigError):
    """Raise ``error`` unless ``value`` is an integer (not a bool) >= ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise error(f"{name} must be an integer >= {minimum}, got {value}")
