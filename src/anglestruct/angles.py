"""Angle structures, their geometry class, and the two edge invariants.

An angle structure assigns every corner a value in (0, pi), held as its
Fraction coefficient of pi (see ``ratpi``).  A face is
Euclidean, hyperbolic or spherical according to its angle sum (with the
extra pairwise condition for the spherical case), and the structure as a
whole carries a class only when all faces agree.

The edge invariant of an edge sums its two facing angles; the Delaunay
invariant sums the four non-facing angles of the edge's two sides minus
the two facing ones.  For a self-glued edge both sides are the same face
and its remaining corner is counted once per side.

The corner transform y_i = (pi + x_i - x_j - x_k)/2 exchanges hyperbolic
and spherical inequality systems; its inverse is x_i = pi - y_j - y_k.
Transform outputs are candidates: they are not range-checked, validation
back into (0, pi) is a separate explicit step.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import MissingCorner, OutOfRange
from .ratpi import render
from .surface import Corner, Triangulation, corners_facing, other_corners


class GeometryClass(Enum):
    EUCLIDEAN = "euclidean"
    HYPERBOLIC = "hyperbolic"
    SPHERICAL = "spherical"
    NOT_GEOMETRIC = "not-geometric"


class InvariantKind(Enum):
    EDGE = "edge"
    DELAUNAY = "delaunay"


@dataclass(frozen=True)
class AngleStructure:
    """One angle per corner; plain container, range checks live in validators."""

    values: dict[Corner, Fraction]

    def angle(self, corner: Corner) -> Fraction:
        try:
            return self.values[corner]
        except KeyError:
            raise MissingCorner(f"face {corner.face} slot {corner.slot}") from None

    def check_complete(self, t: Triangulation) -> None:
        for corner in t.corners():
            if corner not in self.values:
                raise MissingCorner(f"face {corner.face} slot {corner.slot}")

    def is_range_valid(self, t: Triangulation) -> bool:
        """True when every corner value lies strictly inside (0, pi)."""
        return all(0 < self.angle(c) < 1 for c in t.corners())


@dataclass(frozen=True)
class EdgeFunction:
    """Values indexed by dense edge index, tagged edge or Delaunay."""

    values: dict[int, Fraction]
    kind: InvariantKind

    def value(self, edge: int) -> Fraction:
        return self.values[edge]


def classify_triangle(a: Fraction, b: Fraction, c: Fraction) -> GeometryClass:
    """Class of a positive angle triple per the angle-sum trichotomy.

    Spherical additionally needs all of b+c-a, a+c-b, a+b-c below pi;
    a triple with sum above pi failing that is NOT_GEOMETRIC.
    """
    for v in (a, b, c):
        if not 0 < v < 1:
            raise OutOfRange(render(v))
    total = a + b + c
    if total == 1:
        return GeometryClass.EUCLIDEAN
    if total < 1:
        return GeometryClass.HYPERBOLIC
    if b + c - a < 1 and a + c - b < 1 and a + b - c < 1:
        return GeometryClass.SPHERICAL
    return GeometryClass.NOT_GEOMETRIC


def classify_structure(t: Triangulation, x: AngleStructure) -> GeometryClass:
    """Common class of all faces, or NOT_GEOMETRIC when they disagree."""
    x.check_complete(t)
    result = None
    for f in range(t.n_faces):
        cls = classify_triangle(*(x.angle(Corner(f, k)) for k in range(3)))
        if cls is GeometryClass.NOT_GEOMETRIC:
            return cls
        if result is None:
            result = cls
        elif cls is not result:
            return GeometryClass.NOT_GEOMETRIC
    return result


def edge_invariant(t: Triangulation, x: AngleStructure) -> EdgeFunction:
    """Sum of the two facing angles, per edge."""
    x.check_complete(t)
    values = {}
    for e in range(t.n_edges):
        c1, c2 = corners_facing(t, e)
        values[e] = x.angle(c1) + x.angle(c2)
    return EdgeFunction(values, InvariantKind.EDGE)


def delaunay_invariant(t: Triangulation, x: AngleStructure) -> EdgeFunction:
    """Non-facing angles of both sides minus the facing ones, per edge."""
    x.check_complete(t)
    values = {}
    for e in range(t.n_edges):
        total = 0
        for facing in corners_facing(t, e):
            j, k = other_corners(t, facing)
            total = total + x.angle(j) + x.angle(k) - x.angle(facing)
        values[e] = total
    return EdgeFunction(values, InvariantKind.DELAUNAY)


def invariant_of(t: Triangulation, x: AngleStructure, kind: InvariantKind) -> EdgeFunction:
    """The structure's edge or Delaunay invariant, as kind says."""
    return edge_invariant(t, x) if kind is InvariantKind.EDGE else delaunay_invariant(t, x)


def corner_transform(t: Triangulation, x: AngleStructure) -> AngleStructure:
    """Candidate structure y_i = (pi + x_i - x_j - x_k)/2, unvalidated."""
    x.check_complete(t)
    values = {}
    for corner in t.corners():
        j, k = other_corners(t, corner)
        values[corner] = (1 + x.angle(corner) - x.angle(j) - x.angle(k)) / 2
    return AngleStructure(values)


def corner_transform_inverse(t: Triangulation, y: AngleStructure) -> AngleStructure:
    """Candidate structure x_i = pi - y_j - y_k, unvalidated."""
    y.check_complete(t)
    values = {}
    for corner in t.corners():
        j, k = other_corners(t, corner)
        values[corner] = 1 - y.angle(j) - y.angle(k)
    return AngleStructure(values)


def euclidean_relation_holds(t: Triangulation, x: AngleStructure) -> bool:
    """True when 2*D(e) + Dd(e) = 2*pi on every edge."""
    d = edge_invariant(t, x)
    dd = delaunay_invariant(t, x)
    return all(2 * d.value(e) + dd.value(e) == 2 for e in range(t.n_edges))
