"""Exception taxonomy for the whole package.

Every failure that a caller can act on gets its own class; generic asserts
are reserved for genuine can't-happen states.  All classes derive from
:class:`QgrsError` so CLI layers can catch one root type.  Messages that
echo a rejected value go through :func:`brief`, so their length is bounded.
"""
from __future__ import annotations

import reprlib

_brief = reprlib.Repr()
_brief.maxlevel = 2


def brief(value: object) -> str:
    """A bounded repr of a rejected value, for error messages: 6 items a
    level, 2 levels deep, long strings and ints cut in the middle."""
    return _brief.repr(value)


class QgrsError(Exception):
    """Root of the package exception hierarchy."""


# ---------------------------------------------------------------- field layer


class NotPrime(QgrsError):
    """The requested characteristic is not a prime number."""


class FieldTooLarge(QgrsError):
    """The requested field order exceeds the table-construction limit."""


class ZeroArgument(QgrsError):
    """An operation that requires a nonzero element received zero."""


class NotInBaseField(QgrsError):
    """A norm preimage was requested for an element outside the base subfield."""


class NonCanonicalModulus(QgrsError):
    """A serialized field used a modulus other than the canonical one."""


# --------------------------------------------------------------- solver layer


class WrongShape(QgrsError):
    """Matrix dimensions do not match the route's requirements."""


class ColumnDependence(QgrsError):
    """A column-deletion minor that must be invertible is singular."""


class HypothesisFailed(QgrsError):
    """A rank / column-rank hypothesis of the solving route does not hold."""


class FrobeniusHypothesisFailed(QgrsError):
    """rref(A) has an entry outside F_q: A is not row-equivalent to A^(q)."""


class HasZeroCoordinate(QgrsError):
    """A vector that must be totally nonzero has a zero coordinate."""


class NoValidShift(QgrsError):
    """No unit shift produces a totally nonzero base-field combination."""


class NotASolution(QgrsError):
    """A candidate vector failed the final residual check."""


class NotFound(QgrsError):
    """A bounded search exhausted its budget without finding a witness."""


# --------------------------------------------------------- exponent scenarios


class InvalidScenario(QgrsError):
    """Divisibility or range conditions of an exponent scenario fail."""


# --------------------------------------------------------------- construction


class ParamsRejected(QgrsError):
    """A construction hypothesis is violated; the subclass names which kind.

    Enumeration code distinguishes rejected parameter tuples (these) from
    failures inside an accepted construction (everything else).
    """


class RangeViolated(ParamsRejected):
    """A bound (on r, k, t, or an index list) is violated."""


class DivisibilityViolated(ParamsRejected):
    """A required divisor relationship (h vs q+1 or q-1) does not hold."""


class ParityViolated(ParamsRejected):
    """A parity requirement (on h, r, r+h, or q) does not hold."""


class SubfieldAssertionFailed(QgrsError):
    """A quantity that must lie in the base subfield does not."""


class NotSelfOrthogonal(QgrsError):
    """A code required to be Hermitian self-orthogonal is not."""


class NotMDS(QgrsError):
    """A code required to meet the Singleton bound does not."""


class DistanceTooSmall(QgrsError):
    """Parameter propagation needs distance at least 2."""


# ------------------------------------------------------------------- verifier


class VerificationMismatch(QgrsError):
    """Two independent verification routes disagree: internal invariant breach."""


class SchemaError(QgrsError):
    """A serialized document does not match the expected schema."""
