"""Exception types shared across the library.

Every operation that can fail raises an explicit subclass of SmcError;
nothing is silently normalized, since an invalid composite or boundary
almost always signals a caller bug.
"""


class SmcError(Exception):
    """Base class for all errors raised by this library."""


class LetterOutOfRange(SmcError):
    """A word letter does not fit the requested permutation size."""


class NotReduced(SmcError):
    """A word was required to be reduced but is not."""


class NoReductionPossible(SmcError):
    """Prepending the generator lengthens the word, so no letter can be erased."""


class NoSuchIndex(SmcError):
    """No erasable letter was found; this indicates an implementation bug."""


class PositionOutOfRange(SmcError):
    """A swap position does not fit the list it is applied to."""


class SourceTargetMismatch(SmcError):
    """Two list morphisms do not have the boundaries the operation requires."""


class NotLinear(SmcError):
    """A list with duplicate labels was passed where a linear list is required."""


class NotPermutationEquivalent(SmcError):
    """Two lists do not have the same underlying multiset."""


class UnassignedLabel(SmcError):
    """An evaluation met a generator label missing from the assignment."""


class IllTyped(SmcError):
    """A morphism term has mismatched inner boundaries."""


class BoundaryMismatch(SmcError):
    """Two cells or morphisms cannot be combined because boundaries differ."""


class TargetMismatch(SmcError):
    """Two finite-set maps do not share the codomain/domain the operation needs."""


class LiftEquationFails(SmcError):
    """The cone handed to a pullback lift does not satisfy the pullback equation."""


class NotInvertible(SmcError):
    """A cell with a non-bijective apex map cannot be inverted."""


class NotPullbackSquare(SmcError):
    """A commuting square fails the pullback comparison test."""


class LabelOutOfRange(SmcError):
    """A list label does not name an element of the intended finite set."""


class RecordFormatError(SmcError):
    """A structured input record is malformed."""


class ParseError(SmcError):
    """Concrete-syntax error, with position information."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column
