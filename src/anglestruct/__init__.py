"""Angle structures with prescribed edge or Delaunay invariants.

Decides, for a triangulated closed surface and a prescribed invariant,
whether a spherical or hyperbolic angle structure exists; constructs an
explicit witness when it does and a violating face-subset certificate
when it does not.  All arithmetic is exact: every angle, invariant value
and slack is a ``Fraction``, its coefficient of pi.

The value types are immutable named tuples; ``._replace`` makes a changed
copy.  The four LP names load ``lp`` on first use, so importing the package
or its command line loads neither ``lp`` nor ``sampling``.
"""

from .angles import (
    AngleStructure,
    EdgeFunction,
    GeometryClass,
    InvariantKind,
    classify_structure,
    classify_triangle,
    corner_transform,
    corner_transform_inverse,
    delaunay_invariant,
    edge_invariant,
)
from .feasibility import (
    FeasibilityReport,
    QuantifierRange,
    Verdict,
    check_closure,
    check_via_enumeration,
    check_via_flow,
)
from .ratpi import parse
from .surface import (
    Corner,
    FaceSubset,
    Triangulation,
    corners_facing,
    edge_set,
    validate,
)


def __getattr__(name):
    """The LP names, from ``lp`` imported on their first use (PEP 562)."""
    if name in ("LpProblem", "build_construction_lp", "construct_structure", "simplex_solve"):
        from . import lp
        return getattr(lp, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AngleStructure",
    "Corner",
    "EdgeFunction",
    "FaceSubset",
    "FeasibilityReport",
    "GeometryClass",
    "InvariantKind",
    "LpProblem",
    "QuantifierRange",
    "Triangulation",
    "Verdict",
    "build_construction_lp",
    "check_closure",
    "check_via_enumeration",
    "check_via_flow",
    "classify_structure",
    "classify_triangle",
    "construct_structure",
    "corner_transform",
    "corner_transform_inverse",
    "corners_facing",
    "delaunay_invariant",
    "edge_invariant",
    "edge_set",
    "parse",
    "simplex_solve",
    "validate",
]
