"""Exception hierarchy.  Names follow the operation contracts."""
from __future__ import annotations


class InputError(ValueError):
    """Malformed input: a configuration or script file, a scalar, or a
    command-line value.  The CLI reports it with exit code 2."""


class GeometryError(Exception):
    """Base class for all domain errors raised by this package."""


# geometry core
class ZeroVector(GeometryError):
    pass


class DimensionMismatch(GeometryError):
    pass


class KindMismatch(GeometryError):
    pass


class TooFew(GeometryError):
    pass


class TooManyElements(GeometryError):
    pass


class EmptyMeet(GeometryError):
    """Intersection of subspaces has rank 0 (projectively empty)."""


class VanishingPairing(GeometryError):
    """A point lies on a hyperplane where the multi-ratio needs it not to."""


class DuplicateParameter(GeometryError):
    pass


class DegenerateIntersection(GeometryError):
    """A join/meet in a dynamics formula failed to produce the expected rank."""


# torus configs
class DegreeExceedsBound(GeometryError):
    pass


class BadBasis(GeometryError):
    """Period matrix of the supplied walks is not invertible over Z."""


class UnequalColorCounts(GeometryError):
    pass


class BadWalk(GeometryError):
    pass


# moves
class MoveError(GeometryError):
    pass


class WrongDegree(MoveError):
    pass


class LabelMismatch(MoveError):
    pass


class DegreeOverflow(MoveError):
    pass


class IncidentLabel(MoveError):
    pass


class BadPartition(MoveError):
    pass


class NotQuadrilateral(MoveError):
    pass


class DegenerateMeet(MoveError):
    """An urban-renewal formula produced the wrong rank: non-generic input."""


class ScriptError(MoveError):
    def __init__(self, step_index: int, cause: Exception):
        super().__init__(f"script step {step_index} failed: {cause}")
        self.step_index = step_index
        self.cause = cause


# spectral
class KernelNotOneDimensional(GeometryError):
    pass


class ZeroPolynomial(GeometryError):
    pass


class EmptyKernel(GeometryError):
    pass


class KernelDegenerate(GeometryError):
    pass


# dynamics
class SizeMismatch(GeometryError):
    pass


class BadParameters(GeometryError):
    pass


class SeedInvalid(GeometryError):
    pass


class NotQNet(GeometryError):
    pass


class NotQStarNet(GeometryError):
    pass


class CoincidentLines(GeometryError):
    pass


# rendering
class UnsupportedDimension(GeometryError):
    pass
