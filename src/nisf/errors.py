"""Exception hierarchy shared across the package.

CLI exit codes map onto this hierarchy: ContractError (and subclasses)
exit with 1, NumericalError with 2.
"""


class NisfError(Exception):
    """Base class for all package errors."""


class ContractError(NisfError):
    """A caller violated a documented precondition or invariant."""


class DimensionError(ContractError):
    """Shapes or extents are incompatible with the requested operation."""


class NumericalError(NisfError):
    """A computation produced non-finite values or failed a numeric check."""


class FormatVersionError(ContractError):
    """File declares a format version this code does not read."""


class PayloadError(ContractError):
    """Binary payload is truncated or disagrees with its sidecar."""
