"""The package's value types: immutable, equal and hashed by value, with
the repr ``Name(field=value, ...)``."""

from fractions import Fraction as F

import pytest

from anglestruct import AngleStructure, EdgeFunction, InvariantKind, validate
from anglestruct.feasibility import THEOREMS, FeasibilityReport, Verdict
from anglestruct.lp import Infeasible, Optimal, make_problem


def examples():
    return [
        (
            AngleStructure((F(1, 3), F(1, 2), F(1, 6))),
            "AngleStructure(values=(Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)))",
        ),
        (
            EdgeFunction((F(7, 10), F(0)), InvariantKind.EDGE),
            "EdgeFunction(values=(Fraction(7, 10), Fraction(0, 1)), kind=<InvariantKind.EDGE: 'edge'>)",
        ),
        (
            THEOREMS["T3"],
            "Theorem(geometry=<GeometryClass.SPHERICAL: 'spherical'>, kind=<InvariantKind.DELAUNAY: 'delaunay'>, "
            "lo=Fraction(-2, 1), hi=Fraction(2, 1), nonempty=False, strict=True)",
        ),
        (
            FeasibilityReport(Verdict.INFEASIBLE, "T2", frozenset({0, 2}), F(-1, 5)),
            "FeasibilityReport(verdict=<Verdict.INFEASIBLE: 'infeasible'>, theorem='T2', "
            "certificate=frozenset({0, 2}), slack=Fraction(-1, 5))",
        ),
        (
            validate([[0, 0, 1], [1, 2, 2]]),
            "Triangulation(faces=((0, 0, 1), (1, 2, 2)), edge_ids=(0, 1, 2), edge_corners=("
            "(Corner(face=0, slot=0), Corner(face=0, slot=1)), (Corner(face=0, slot=2), Corner(face=1, slot=0)), "
            "(Corner(face=1, slot=1), Corner(face=1, slot=2))))",
        ),
        (
            make_problem([[1, F(1, 2)]], [1], [1, 0]),
            "LpProblem(row_terms=((((0, 2), (1, 1)), 2, 2),), c=(Fraction(1, 1), Fraction(0, 1)))",
        ),
        (
            Optimal((F(1), F(0)), F(1), (F(1),)),
            "Optimal(x=(Fraction(1, 1), Fraction(0, 1)), value=Fraction(1, 1), dual=(Fraction(1, 1),))",
        ),
        (Infeasible((F(-1), F(2))), "Infeasible(certificate=(Fraction(-1, 1), Fraction(2, 1)))"),
    ]


@pytest.mark.parametrize("index", range(8), ids=lambda i: type(examples()[i][0]).__name__)
def test_value_type_contract(index):
    value, text = examples()[index]
    assert repr(value) == text
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    # the cached face_terms and col_terms sit outside the fields
    for cached in ("face_terms", "col_terms"):
        getattr(value, cached, None)
    twin = type(value)(*value)
    assert twin is not value and twin == value and hash(twin) == hash(value)
    assert twin._replace(**{value._fields[0]: value[0]}) == value

