"""Exception types shared across the package."""

from __future__ import annotations


class GroupEqError(Exception):
    """Base class for every error raised by this library."""


class NotPrime(GroupEqError):
    pass


class NotAUnit(GroupEqError):
    pass


class NonCoprimeModuli(GroupEqError):
    pass


class OutOfRange(GroupEqError):
    pass


class DescriptorMismatch(GroupEqError):
    pass


class NotPeriodic(GroupEqError):
    pass


class NotDivisible(GroupEqError):
    pass


class UnsupportedGroup(GroupEqError):
    pass


class DuplicatePrime(GroupEqError):
    pass


class MissingVariable(GroupEqError):
    pass


class SearchSpaceTooLarge(GroupEqError):
    pass


class Singular(GroupEqError):
    """Rows of the coefficient matrix are dependent over the rationals."""

    def __init__(self, message: str = "system is singular", witness=None):
        super().__init__(message)
        self.witness = witness


class PSingular(GroupEqError):
    """Rows are dependent modulo p; carries the prime and a witness combination."""

    def __init__(self, p: int, witness=None):
        super().__init__(f"rows dependent modulo {p}")
        self.p = p
        self.witness = witness


class MissingPrimeNonsingularity(GroupEqError):
    """The system is p-singular for a prime p dividing the group period."""

    def __init__(self, p: int, witness=None):
        super().__init__(f"system is {p}-singular but {p} divides the group period")
        self.p = p
        self.witness = witness


class NotUnimodular(GroupEqError):
    def __init__(self, divisors=None):
        super().__init__()
        self.divisors = divisors

    def __str__(self) -> str:
        # built when printed, not when raised: a divisor may have more digits
        # than Python converts to text by default
        return f"system is not unimodular (elementary divisors {self.divisors})"


class DependentRow(GroupEqError):
    """An ingested equation broke p-nonsingularity of the stream truncation."""

    def __init__(self, p: int, witness=None):
        super().__init__(f"ingested row is dependent modulo {p}")
        self.p = p
        self.witness = witness


class VerificationFailed(GroupEqError):
    """Internal consistency failure: a solver's answer did not satisfy the
    system it was computed for.  Raised instead of returning it."""


class CentralityAssertionFailed(GroupEqError):
    """Internal consistency failure: a coefficient product expected to be
    central was not. Never tolerated silently."""


class ParseError(GroupEqError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where = f" at line {line}"
            if column is not None:
                where += f", column {column}"
        super().__init__(message + where)
        self.line = line
        self.column = column
