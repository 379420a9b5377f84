"""Exception and warning types shared across the package."""


class TlfsimError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(TlfsimError, ValueError):
    """An argument failed validation (non-finite, out of range, unnormalized...)."""


class DegenerateEigensystemError(TlfsimError):
    """The generalized Rabi frequency vanished, leaving mixing angles undefined."""


class CapacityError(TlfsimError):
    """A requested computation exceeds the work budget or a size limit."""


class NumericalError(TlfsimError):
    """A numerical routine failed to converge to the requested tolerance."""


class UndefinedCoherenceError(TlfsimError):
    """The coherence measure is undefined because the initial amplitude vanishes."""


class RegimeWarning(UserWarning):
    """An approximation was evaluated outside its intended validity regime."""
