"""Exception types and warning categories shared across the package.

Every error raised deliberately by this package derives from
:class:`FFProgError`, so callers can catch one base class.  Names are chosen
to be self-describing; each module's docstrings say which operations raise
which errors.
"""

__all__ = [
    "FFProgError",
    "NotPrime",
    "ReducibleModulus",
    "DegreeMismatch",
    "DivisionByZero",
    "FieldMismatch",
    "ElementOutOfField",
    "InvalidExponent",
    "PolySyntaxError",
    "ZeroPolynomial",
    "NonzeroConstantTerm",
    "EmptyInput",
    "DependentSystem",
    "TwistedSystem",
    "ArityMismatch",
    "IndexOutOfRange",
    "BudgetExceeded",
    "NotOneBounded",
    "NotL2Normalized",
    "ShapeMismatch",
    "DegenerateCombination",
    "InvalidRange",
    "InvalidInit",
    "InsufficientData",
    "ThresholdViolation",
    "CharacteristicWarning",
    "BudgetConditionWarning",
]


class FFProgError(Exception):
    """Base class for all errors raised by this package."""


# --- field construction and arithmetic -------------------------------------

class NotPrime(FFProgError):
    """The requested characteristic is not a prime number."""


class ReducibleModulus(FFProgError):
    """The supplied modulus polynomial is reducible over F_p."""


class DegreeMismatch(FFProgError):
    """A polynomial has the wrong degree (or is not monic) for its role."""


class DivisionByZero(FFProgError):
    """Multiplicative inverse of the additive identity was requested."""


class FieldMismatch(FFProgError):
    """Operands (or functions) belong to different fields."""


class ElementOutOfField(FFProgError):
    """A set member does not belong to the stated field."""


class InvalidExponent(FFProgError):
    """An exponent outside the supported range (e.g. L^p with p < 1)."""


# --- polynomial systems -----------------------------------------------------

class PolySyntaxError(FFProgError):
    """Polynomial text does not match the grammar; carries the position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ZeroPolynomial(FFProgError):
    """The zero polynomial appeared where a nonzero one is required."""


class NonzeroConstantTerm(FFProgError):
    """A progression polynomial must vanish at y = 0."""


class EmptyInput(FFProgError):
    """An operation received an empty collection it cannot work with."""


class DependentSystem(FFProgError):
    """The polynomials are linearly dependent over the rationals."""


class TwistedSystem(FFProgError):
    """Character twists are present where a plain system is required."""


# --- counting / analysis ----------------------------------------------------

class ArityMismatch(FFProgError):
    """Number of supplied functions does not match the system's arity."""


class IndexOutOfRange(FFProgError):
    """An index (rewrite slot, schedule level, ...) is out of range."""


class BudgetExceeded(FFProgError):
    """The requested computation would hold or form more than BUDGET values."""


BUDGET = 1 << 24  # complex values one computation may hold or form (256 MiB)


def _check_budget(head: str, held: int) -> None:
    """The one size guard: refuse `held` > BUDGET values before allocating."""
    if held > BUDGET:
        raise BudgetExceeded(
            f"{head} = {held} complex values ({held * 16 / 2 ** 20:.0f} MiB), "
            f"over the budget of {BUDGET} values")


class NotOneBounded(FFProgError):
    """A function required to satisfy |f| <= 1 everywhere does not."""


class NotL2Normalized(FFProgError):
    """A function required to satisfy ||f||_{L^2} <= 1 does not."""


class ShapeMismatch(FFProgError):
    """Array data has the wrong shape for the stated field."""


class DegenerateCombination(FFProgError):
    """A character-sum combination collapsed to a nonzero constant."""


# --- schedules / recursions ---------------------------------------------------

class InvalidRange(FFProgError):
    """A numeric parameter lies outside its documented range."""


class InvalidInit(FFProgError):
    """A recursion was initialized inconsistently with its schedule."""


class InsufficientData(FFProgError):
    """Too few usable data points for the requested fit."""


class ThresholdViolation(FFProgError):
    """A certified bound was violated on recheck."""


# --- warnings ----------------------------------------------------------------

class CharacteristicWarning(UserWarning):
    """Field characteristic is below a system's safe threshold.

    Results remain exact computations, but the regime the estimates are
    designed for no longer applies and degenerations are possible.
    """


class BudgetConditionWarning(UserWarning):
    """The decomposition budget condition q^(d2-d3) + q^(d4-d1) <= 1/2 fails."""
