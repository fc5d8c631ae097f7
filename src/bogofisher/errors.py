"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage and support problems exit 1,
model format and unitarity failures exit 2, numerical-budget failures
(cutoff headroom, oracle boundary-shell weight, dense dimension,
numerical breakdown) exit 3.  A ``MemoryError`` exits 3 as a
``BudgetError``.
"""


class BogofisherError(Exception):
    """Base class for package errors."""


class UsageError(BogofisherError):
    """Malformed command-line invocation."""


class ModelFormatError(BogofisherError):
    """Model, state, or support document violates the expected schema."""


class UnitarityError(BogofisherError):
    """First-order coefficient data fails the unitarity constraints."""


class SupportError(BogofisherError):
    """State support incompatible with the requested operation."""


class BudgetError(BogofisherError):
    """Numerical budget exceeded: cutoff headroom, shell weight, or dense dimension.

    Each truncated route has one guard: the first-order route refuses a
    cutoff below the largest occupation plus the headroom, and the oracle
    refuses a state whose boundary-shell weight passes its budget.
    """


class NumericalBreakdownError(BudgetError):
    """A quantity that is non-negative in exact arithmetic came out negative."""
