"""Exception types shared across the package."""


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


class DegenerateChannel(DemandTierError):
    """The share channel is flat, so the channel-dominance ratio is undefined.

    The education effect on the map is still well defined; it is attached as
    ``dT_dE`` so callers can report it.
    """

    def __init__(self, message, dT_dE=None):
        super().__init__(message)
        self.dT_dE = dT_dE


class SpecVariantUnsupported(DemandTierError):
    """Operation is only defined for a specific learning variant."""
