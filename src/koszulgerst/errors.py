"""Exception hierarchy for the whole package.

Every error raised on a contract violation derives from KoszulGerstError, so
callers (in particular the CLI) can distinguish "bad input / failed check"
from genuine bugs.
"""


class KoszulGerstError(Exception):
    pass


# -- exact linear algebra ---------------------------------------------------

class FieldMismatch(KoszulGerstError):
    pass


class DimensionMismatch(KoszulGerstError):
    pass


# -- quadratic rewriting ----------------------------------------------------

class NonQuadraticRelation(KoszulGerstError):
    pass


class NotConfluent(KoszulGerstError):
    """A degree-3 overlap of the quadratic rewrite rules fails to resolve.

    The whole construction assumes the algebra is Koszul, certified here by a
    quadratic Groebner basis; without confluence we refuse to proceed.
    """


# -- resolution data --------------------------------------------------------

class InconsistentBasis(KoszulGerstError):
    """No comultiplicative scalars exist; signals corrupted basis data."""


class DegreeUnderflow(KoszulGerstError):
    pass


# -- cohomology / lifting ---------------------------------------------------

class CochainError(KoszulGerstError, ValueError):
    """A cochain breaks its contract (slot count, vertex pinning, grading,
    coordinate slice) or needs resolution data the complex does not have."""


class UnboundedComputation(KoszulGerstError):
    """An infinite-dimensional algebra needs an internal-degree bound."""


class NoSolution(KoszulGerstError):
    """A lifting solve failed; valid cocycle input never triggers this."""


class CharacteristicTwo(KoszulGerstError):
    pass


class InfiniteDimensional(KoszulGerstError):
    pass


# -- input handling ---------------------------------------------------------

class ParseError(KoszulGerstError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}" + (f", col {column}" if column else "") + f": {message}"
        super().__init__(message)


class UnknownPreset(KoszulGerstError):
    pass


class MissingParameter(KoszulGerstError):
    pass
