"""Exception types shared across the package."""


class FermicodeError(Exception):
    """Base class for all package errors."""


class DimensionError(FermicodeError):
    """Operands have incompatible lengths or variable counts."""


class SingularMatrixError(FermicodeError):
    """A GF(2) matrix has no inverse."""


class BudgetError(FermicodeError):
    """An operation would exceed the configured monomial/term budget."""


class UnsupportedCodeError(FermicodeError):
    """The requested operation is not defined for this code."""


class NonHermitianError(FermicodeError):
    """A transformed Hamiltonian came out non-hermitian.

    Carries the offending Pauli string as ``witness``.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NonFiniteError(FermicodeError, ValueError):
    """A number field holds an infinity or NaN."""


class InputFormatError(FermicodeError):
    """A Hamiltonian / code-spec / basis file failed to parse."""
