"""Exception hierarchy shared by all modules.

Every error raised by the library derives from ToricError so callers (and
the CLI) can distinguish usage problems from genuine bugs.
"""


class ToricError(Exception):
    """Base class for all library errors."""


# ---- cone geometry ----

class AmbientDimTooLarge(ToricError):
    """The ambient dimension exceeds the supported cap."""


class EmptyInput(ToricError):
    """An operation that needs at least one generator received none."""


class NotStronglyConvex(ToricError):
    """The cone contains a line but the operation needs a pointed cone."""


class UnboundedBelow(ToricError):
    """A linear functional has no minimum over the given polyhedron."""


class MultiplicityTooLarge(ToricError):
    """A simplex's parallelepiped group exceeds the Hilbert-basis bound."""


# ---- toric model ----

class NotMaximalDim(ToricError):
    """The cone is not full-dimensional in its ambient space."""


class GeneratorsDontGenerate(ToricError):
    """The supplied vectors do not generate the lattice-point semigroup."""


class InvalidIndexSet(ToricError):
    """The index set does not come from a face of the dual cone."""


class ZeroTorusCoordinate(ToricError):
    """A point of the torus was given a zero coordinate."""


# ---- Newton data ----

class EmptySupport(ToricError):
    """The collected torus form of the polynomial has no terms."""


class WeightNotInSigma(ToricError):
    """The weight vector pairs negatively with some semigroup generator."""


class FaceMismatch(ToricError):
    """The face does not belong to the polyhedron it was used with."""


# ---- singularity checks ----

class FaceNotEssential(ToricError):
    """Local tameness was requested for a face that is not essential."""


class AnomalyDetected(ToricError):
    """Two supposedly equivalent computations disagreed."""


# ---- family analysis ----

class ConditionIRequired(ToricError):
    """The operation needs a constant Newton boundary, which was not verified."""


# ---- parsing / CLI / reports ----

class NotReportData(ToricError, TypeError):
    """A report value is not a str-keyed dict, list, str, int, bool or None."""


class ParseError(ToricError):
    """Malformed problem file or polynomial string."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class UnknownVariable(ParseError):
    """A variable name outside z1..zr (or t for families) was used."""


class ConstantTermForbidden(ParseError):
    """The polynomial has a nonzero constant term, which is not allowed."""
