"""Structured errors raised across the package.

Two branches matter to callers: ``InputError`` covers everything wrong with
user-supplied text (grammar, problem files, invalid data), ``ComputeError``
covers failures of the mathematics itself (resonant exponents, series
blow-up).  The command line maps the branches to distinct exit codes.
``type(err).__name__`` is the stable machine-readable code.
"""


class AdmError(Exception):
    """Base class for all structured errors raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


class InputError(AdmError):
    """User-supplied text or data is invalid."""


class ComputeError(AdmError):
    """A computation cannot proceed or cannot meet its tolerance."""


# --- series algebra ---------------------------------------------------------

class NonFiniteTerm(ComputeError):
    """A term with NaN or infinite coefficient/exponent entered the algebra."""


class TermBlowup(ComputeError):
    """A series product would exceed the term cap."""


class DomainError(ComputeError):
    """Evaluation requested outside the domain of a real power of x."""


# --- truncated ring in the decomposition parameter --------------------------

class OrderMismatch(ComputeError):
    """Operands have different truncation orders, or a coefficient index is out of range."""


class NonConstantBasePoint(ComputeError):
    """exp/ln/recip need a constant order-zero coefficient to compose around."""


class LogOfNonPositive(ComputeError):
    """ln of a non-positive base point or value."""


class DivisionByZeroSeries(ComputeError):
    """Reciprocal of a ring element whose base point is zero."""


class DivisionByZero(ComputeError):
    """Division by zero during real expression evaluation."""


# --- expression grammar ------------------------------------------------------

class ParseError(InputError):
    """Expression source violates the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnsupportedPower(ParseError):
    """Non-integer exponent on a base other than the bare variable x."""


# --- singular operator -------------------------------------------------------

class LogResonance(ComputeError):
    """Inner integration of x^-1: the result would need a logarithm."""


class OuterResonance(ComputeError):
    """Outer integration hits the homogeneous exponent: logarithm needed."""


class Divergent(ComputeError):
    """The inverse-operator integral diverges for this exponent."""


# --- diagnostics -------------------------------------------------------------

class InvalidExactSolution(InputError):
    """An exact-solution expression may only mention x."""


# --- problem files -----------------------------------------------------------

class FileNotFound(InputError, FileNotFoundError):
    """No file at ``filename``, which is the whole message.

    Built like the ``FileNotFoundError`` it also is, so callers that catch
    that keep working.
    """

    def __str__(self) -> str:
        return self.filename


class MissingKey(InputError):
    """A required problem-file key is absent."""


class UnknownKey(InputError):
    """A problem-file key is not part of the format."""


class DuplicateKey(InputError):
    """A problem-file key appears more than once."""


class InvalidValue(InputError):
    """A problem-file value does not parse as its declared type."""


# --- caller input --------------------------------------------------------------

class InvalidProblem(InputError, ValueError):
    """Caller-supplied problem data or an argument violates its invariants.

    Also a ``ValueError``, so callers that catch that keep working.
    """
