"""Shared exception taxonomy.

Every error the library raises deliberately derives from CredmarketError so
callers can fence library failures off from genuine bugs.
"""


class CredmarketError(Exception):
    pass


class DomainError(CredmarketError, ValueError):
    """An argument is outside the documented domain (unknown agent id, k < 2, ...)."""


class ConfigError(CredmarketError, ValueError):
    """Invalid parameter combination / strategy-mechanism pairing / CLI config."""


class StructureError(CredmarketError, ValueError):
    """Malformed structural input: disconnected cluster, unparsable transcript."""


class Level2RegimeError(CredmarketError, ValueError):
    """Non-integer capacity: the construction only covers the integer regime."""


class MatroidBoundaryError(CredmarketError):
    """Feasibility is not a matroid; commit-reveal guarantees stop here."""

    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class UnsupportedPriorError(CredmarketError, ValueError):
    """Only bounded uniform priors are supported (no ironing)."""


class NonMonotoneAllocationError(CredmarketError, RuntimeError):
    """Counterfactual allocation curve decreased in the agent's own bid.

    Signals an oracle or priority-rule bug: the payment integral is only
    well-defined for monotone allocation rules.
    """


class NoWindowError(CredmarketError):
    """No strict bid-ordering window on this profile; the perturbation is not constructible."""


class NoDeviationError(CredmarketError):
    """The rank function is modular; no profitable perturbation exists at all."""


class UndefinedRatioError(CredmarketError, ZeroDivisionError):
    """A ratio metric has a zero baseline; only the absolute variant is defined."""

    def __init__(self, msg, concabs=None):
        super().__init__(msg)
        self.concabs = concabs


class CapacityNotBindingWarning(UserWarning):
    """Fee-model surplus requested on an instance whose capacity is not binding."""
