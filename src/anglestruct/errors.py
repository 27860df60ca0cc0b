"""Exception types shared across the package, and the excerpt their messages show."""


def excerpt(value) -> str:
    """repr of a value for a message, cut to 12 characters and "...": a
    string is cut before its repr is taken, any other value after."""
    if isinstance(value, str):
        return repr(value) if len(value) <= 12 else f"{value[:12]!r}..."
    text = repr(value)
    return text if len(text) <= 12 else f"{text[:12]}..."


class AngleStructError(Exception):
    """Base class for all library errors."""


class MalformedRational(AngleStructError):
    """String does not match the p/q rational grammar."""


class ZeroDenominator(AngleStructError):
    """Rational with denominator zero."""


class EmptyTriangulation(AngleStructError):
    """Incidence list has no faces."""


class EdgeDegree(AngleStructError):
    """An edge identifier appears a number of times other than two."""


class Disconnected(AngleStructError):
    """The face-adjacency graph is not connected."""


class UnknownEdge(AngleStructError):
    """Edge index not present in the triangulation."""


class TooLarge(AngleStructError):
    """Face count exceeds the subset-enumeration cap."""


class OddFaceCount(AngleStructError):
    """Random gluings need an even number of faces."""


class MissingCorner(AngleStructError):
    """An angle structure lacks a value for some corner."""


class OutOfRange(AngleStructError):
    """An angle lies outside the open interval (0, pi)."""


class RangeViolation(AngleStructError):
    """An invariant value lies outside the domain its theorem requires."""


class InvalidSetting(AngleStructError):
    """A command-line or environment setting has an unusable value."""


class DimensionMismatch(AngleStructError):
    """Data of inconsistent lengths: linear program shapes, or an angle
    structure or edge function not sized to its triangulation."""


class VerificationFailed(AngleStructError):
    """Internal check failed; indicates a bug, never expected behaviour."""
