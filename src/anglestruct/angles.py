"""Angle structures, their geometry class, and the two edge invariants.

An angle structure assigns every corner a value in (0, pi), held as its
Fraction coefficient of pi (see ``ratpi``), in one flat tuple with corner
k of face f (facing the edge in slot k) at index 3*f + k; an edge
function is a tuple indexed by dense edge index.  A face is
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

The class, the invariants and the transforms compute on ints over local
denominators: each face's lcm, each edge's lcm of its two sides.  A common
denominator of the whole structure, which grows without bound on many
coprime denominators, is never formed.  A structure computes its faces'
ints once, on first use, and every later function of it reads them.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .errors import DimensionMismatch, MissingCorner, OutOfRange
from .ratpi import render
from .surface import Triangulation


class GeometryClass(Enum):
    EUCLIDEAN = "euclidean"
    HYPERBOLIC = "hyperbolic"
    SPHERICAL = "spherical"
    NOT_GEOMETRIC = "not-geometric"


class InvariantKind(Enum):
    EDGE = "edge"
    DELAUNAY = "delaunay"


def _over_lcm(values) -> tuple[list[int], int]:
    """The values as ints over the lcm L of their denominators, and L."""
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*[q for _, q in ratios])
    return [p * (den // q) for p, q in ratios], den


class AngleStructure(namedtuple("AngleStructure", "values")):
    """values: tuple[Fraction, ...], one angle per corner, corner k of face f
    at index 3*f + k; a plain container, range checks live in validators."""

    def __new__(cls, values):
        if not isinstance(values, tuple):
            raise TypeError(f"AngleStructure values must be a tuple, not {type(values).__name__}")
        return super().__new__(cls, values)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace runs __new__'s checks

    @cached_property
    def face_terms(self) -> tuple[tuple[list[int], int], ...]:
        """_over_lcm of each face's three angles, in face order."""
        terms = []
        for (na, da), (nb, db), (nc, dc) in zip(*[(v.as_integer_ratio() for v in self.values)] * 3):
            den = da if da == db == dc else math.lcm(da, db, dc)
            terms.append(([na * (den // da), nb * (den // db), nc * (den // dc)], den))
        return tuple(terms)


class EdgeFunction(namedtuple("EdgeFunction", "values kind")):
    """values: tuple[Fraction, ...] indexed by dense edge index, tagged by
    kind: InvariantKind, edge or Delaunay."""

    __slots__ = ()

    def __new__(cls, values, kind):
        if not isinstance(values, tuple):
            raise TypeError(f"EdgeFunction values must be a tuple, not {type(values).__name__}")
        return super().__new__(cls, values, kind)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace runs __new__'s checks


def _face_terms(t: Triangulation, x: AngleStructure) -> tuple[tuple[list[int], int], ...]:
    """x.face_terms, after checking that x has one angle per corner of t:
    MissingCorner names the first corner a short x lacks."""
    n, corners = len(x.values), 3 * t.n_faces
    if n < corners:
        raise MissingCorner(f"face {n // 3} slot {n % 3}")
    if n > corners:
        raise DimensionMismatch(f"{n} angles for {corners} corners")
    return x.face_terms


def classify_triangle(a: Fraction, b: Fraction, c: Fraction) -> GeometryClass:
    """Class of a positive angle triple per the angle-sum trichotomy.

    Spherical additionally needs all of b+c-a, a+c-b, a+b-c below pi;
    a triple with sum above pi failing that is NOT_GEOMETRIC.
    """
    return _classify_faces([_over_lcm((a, b, c))])


def _classify_faces(faces: list[tuple[list[int], int]]) -> GeometryClass:
    """Common class of the faces' angles nums/L, or NOT_GEOMETRIC when a face
    is not geometric or two disagree; every face is range-checked first."""
    classes = set()
    for nums, den in faces:
        a, b, c = nums
        if not (0 < a < den and 0 < b < den and 0 < c < den):
            raise OutOfRange(render(Fraction(next(v for v in nums if not 0 < v < den), den)))
        if a + b + c == den:
            classes.add(GeometryClass.EUCLIDEAN)
        elif a + b + c < den:
            classes.add(GeometryClass.HYPERBOLIC)
        elif b + c - a < den and a + c - b < den and a + b - c < den:
            classes.add(GeometryClass.SPHERICAL)
        else:
            classes.add(GeometryClass.NOT_GEOMETRIC)
    return classes.pop() if len(classes) == 1 else GeometryClass.NOT_GEOMETRIC


def classify_structure(t: Triangulation, x: AngleStructure) -> GeometryClass:
    """Common class of all faces, or NOT_GEOMETRIC when they disagree."""
    return _classify_faces(_face_terms(t, x))


def _invariant_terms(t: Triangulation, faces, kind: InvariantKind) -> list[tuple[int, int]]:
    """Each edge's invariant as an int over the lcm of its two sides' face
    denominators, and that lcm.  A side contributes its facing angle (edge
    invariant) or its other two angles minus the facing one (Delaunay)."""
    delaunay = kind is InvariantKind.DELAUNAY
    sides = [([b + c - a, a + c - b, a + b - c], den) for (a, b, c), den in faces] if delaunay else faces
    terms = []
    for (f1, k1), (f2, k2) in t.edge_corners:
        (s1, d1), (s2, d2) = sides[f1], sides[f2]
        den = d1 if d1 == d2 else math.lcm(d1, d2)
        terms.append((s1[k1] * (den // d1) + s2[k2] * (den // d2), den))
    return terms


def invariant_of(t: Triangulation, x: AngleStructure, kind: InvariantKind) -> EdgeFunction:
    """The structure's edge or Delaunay invariant, as kind says."""
    terms = _invariant_terms(t, _face_terms(t, x), kind)
    return EdgeFunction(tuple(Fraction(n, den) for n, den in terms), kind)


def mismatched_edges(t: Triangulation, x: AngleStructure, fn: EdgeFunction) -> list[int]:
    """The edges at which x's invariant of fn's kind differs from fn, each
    n/d == p/q compared as n*q == p*d; DimensionMismatch when fn does not
    hold one value per edge of t."""
    faces = _face_terms(t, x)
    if len(fn.values) != t.n_edges:
        raise DimensionMismatch(f"{len(fn.values)} invariant values for {t.n_edges} edges")
    pairs = enumerate(zip(_invariant_terms(t, faces, fn.kind), (v.as_integer_ratio() for v in fn.values)))
    return [e for e, ((n, den), (p, q)) in pairs if n * q != p * den]


def edge_invariant(t: Triangulation, x: AngleStructure) -> EdgeFunction:
    """Sum of the two facing angles, per edge."""
    return invariant_of(t, x, InvariantKind.EDGE)


def delaunay_invariant(t: Triangulation, x: AngleStructure) -> EdgeFunction:
    """Non-facing angles of both sides minus the facing ones, per edge."""
    return invariant_of(t, x, InvariantKind.DELAUNAY)


def _map_corners(t: Triangulation, x: AngleStructure, k: int) -> AngleStructure:
    """(L - total + k*v) / (k*L) at each corner, v/L its angle and total/L its face's sum."""
    faces = _face_terms(t, x)
    values = (Fraction(den - a - b - c + k * v, k * den) for (a, b, c), den in faces for v in (a, b, c))
    return AngleStructure(tuple(values))


def corner_transform(t: Triangulation, x: AngleStructure) -> AngleStructure:
    """Candidate structure y_i = (pi + x_i - x_j - x_k)/2, unvalidated."""
    return _map_corners(t, x, 2)


def corner_transform_inverse(t: Triangulation, y: AngleStructure) -> AngleStructure:
    """Candidate structure x_i = pi - y_j - y_k, unvalidated."""
    return _map_corners(t, y, 1)


def euclidean_relation_holds(d: EdgeFunction, dd: EdgeFunction) -> bool:
    """True when 2*D(e) + Dd(e) = 2*pi on every edge, for the edge invariant
    d and the Delaunay invariant dd of one structure."""
    return all(2 * v + w == 2 for v, w in zip(d.values, dd.values, strict=True))
