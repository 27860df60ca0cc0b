import random
from fractions import Fraction
from functools import cached_property

import pytest

from anglestruct import (
    AngleStructure,
    EdgeFunction,
    GeometryClass,
    InvariantKind,
    delaunay_invariant,
    edge_invariant,
    validate,
)
from anglestruct.lp import Optimal, make_problem, simplex_solve
from anglestruct.sampling import (
    random_hyperbolic_delaunay_domain,
    random_spherical_edge_domain,
    random_structure,
    random_triangulation,
)

TETRA_FACES = [[0, 1, 2], [0, 3, 4], [1, 3, 5], [2, 4, 5]]

# two edges self-glued: face 0 carries edge 0 twice, face 1 carries edge 2 twice
SELF_GLUED_FACES = [[0, 0, 1], [1, 2, 2]]

# octahedron boundary: 8 faces, 12 edges
OCTA_FACES = [
    [0, 1, 2],
    [0, 3, 4],
    [1, 5, 6],
    [2, 7, 8],
    [3, 5, 9],
    [4, 7, 10],
    [6, 8, 11],
    [9, 10, 11],
]


@pytest.fixture
def tetra():
    return validate(TETRA_FACES)


@pytest.fixture
def octa():
    return validate(OCTA_FACES)


@pytest.fixture
def self_glued():
    return validate(SELF_GLUED_FACES)


@pytest.fixture
def face_terms_builds(monkeypatch):
    """The structures whose face_terms are built, one entry per build."""
    builds, build = [], AngleStructure.face_terms.func

    def counting(x):
        builds.append(x)
        return build(x)

    counted = cached_property(counting)
    counted.__set_name__(AngleStructure, "face_terms")
    monkeypatch.setattr(AngleStructure, "face_terms", counted)
    return builds


def const_fn(t, value, kind=InvariantKind.EDGE) -> EdgeFunction:
    coeff = Fraction(*value) if isinstance(value, tuple) else Fraction(value)
    return EdgeFunction((coeff,) * t.n_edges, kind)


def pinned_construct_requests():
    """(t, fn, geometry) of 16 feasible construct requests: T1-T4 at 6, 8,
    10 and 12 faces, each invariant computed from a structure of its
    theorem's domain."""
    sph, hyp = GeometryClass.SPHERICAL, GeometryClass.HYPERBOLIC
    rng = random.Random(8)
    for n in (6, 8, 10, 12):
        t = random_triangulation(n, rng)
        for geometry, fn in (
            (sph, edge_invariant(t, random_spherical_edge_domain(t, rng))),
            (hyp, edge_invariant(t, random_structure(t, hyp, rng))),
            (sph, delaunay_invariant(t, random_structure(t, sph, rng))),
            (hyp, delaunay_invariant(t, random_hyperbolic_delaunay_domain(t, rng))),
        ):
            yield t, fn, geometry


def face_subsets(t, nonempty_proper=False):
    """Every face subset of t, or only the nonempty proper ones."""
    n = t.n_faces
    masks = range(1, (1 << n) - 1) if nonempty_proper else range(1 << n)
    return [frozenset(f for f in range(n) if m >> f & 1) for m in masks]


def dual_cone_max_is_zero(a, b, n) -> bool:
    """Decide by its own solver run whether max b.y over the cone A^t y <= 0
    is 0, for a dense A with n columns; it is +infinity otherwise.

    The program splits y = y+ - y- over the rows A^t (y+ - y-) + t = 0 and
    adds the box row sum(y+ + y-) + s = 1, which bounds it and keeps the
    sign of its maximum: 0 exactly when the cone's is 0, positive
    otherwise.
    """
    m = len(a)
    rows = []
    for j in range(n):
        column = [a[i][j] for i in range(m)]
        rows.append(column + [-v for v in column] + [int(k == j) for k in range(n)] + [0])
    rows.append([1] * (2 * m) + [0] * n + [1])
    costs = [-v for v in b] + list(b) + [0] * (n + 1)
    out = simplex_solve(make_problem(rows, [0] * n + [1], costs))
    assert isinstance(out, Optimal) and out.value <= 0
    return out.value == 0
