"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: ConfigError -> 1, DataError -> 2,
NumericalError subclasses -> 3.
"""


class VifError(Exception):
    """Base class for all package errors."""


class ConfigError(VifError):
    """Invalid or inconsistent run configuration."""


class DataError(VifError):
    """Malformed or inconsistent input data."""


class NumericalError(VifError):
    """Numerical failure during a computation."""


class SingularMatrixError(NumericalError):
    """Linear system is numerically singular (condition estimate too large)."""


class DivergedError(NumericalError):
    """Iterative solve diverged beyond recovery."""


class NonFiniteError(NumericalError):
    """A NaN or Inf appeared where a finite value is required."""


class DegenerateInputError(VifError):
    """Input is degenerate for the requested statistic (e.g. constant vector)."""


class NoEventsError(DataError):
    """Survival data contains no uncensored event among present records."""


class EmptyGraphError(DataError):
    """Fewer than two present nodes; random walks are undefined."""


class NoPresentItemsError(DataError):
    """Ranking presence vector leaves no item available."""


class UnrealizableMixtureError(VifError):
    """Requested perturbation cannot be expressed for this loss."""
