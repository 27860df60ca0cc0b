import math
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
from anglestruct.angles import _over_lcm
from anglestruct.errors import DimensionMismatch
from anglestruct.lp import LpProblem, Optimal, simplex_solve
from anglestruct.sampling import random_structure, random_triangulation

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


MAX_DENOMINATOR = 40


def make_problem(a, b, c) -> LpProblem:
    """The LpProblem of dense int/Fraction data A, b and c: each equation
    a_i x = b_i times the lcm of its denominators, its zeros dropped."""
    c = tuple(Fraction(v) for v in c)
    if len(a) != len(b):
        raise DimensionMismatch("row count of A differs from b")
    view = []
    for row, bv in zip(a, b):
        if len(row) != len(c):
            raise DimensionMismatch("row width of A differs from c")
        cols = [j for j, v in enumerate(row) if v]
        (scaled_b, *nums), scale = _over_lcm([Fraction(bv), *(Fraction(row[j]) for j in cols)])
        view.append((tuple(zip(cols, nums)), scaled_b, scale))
    return LpProblem(tuple(view), c)


def random_hyperbolic_delaunay_domain(t, rng: random.Random) -> AngleStructure:
    """Hyperbolic structure whose Delaunay invariant is guaranteed positive.

    Near-equilateral triples keep every x_j + x_k - x_i strictly positive,
    so each edge's invariant sums two positive terms.
    """
    values = []
    for _ in range(t.n_faces):
        p, q, r = (rng.randint(8, 12) for _ in range(3))
        scale_den = rng.randint(2, 40)
        scale = Fraction(rng.randint(1, scale_den - 1), scale_den)
        total = p + q + r
        values += [Fraction(p, total) * scale, Fraction(q, total) * scale, Fraction(r, total) * scale]
    return AngleStructure(tuple(values))


def random_spherical_edge_domain(t, rng: random.Random) -> AngleStructure:
    """Spherical structure whose edge invariant stays below pi.

    Angles in (pi/3, pi/2) force the face sum above pi, every pairwise
    deficit below pi, and every facing pair below pi.
    """
    return AngleStructure(tuple(Fraction(rng.randint(41, 59), 120) for _ in range(3 * t.n_faces)))


def _open_numerators(lo, hi, den):
    """The least and greatest numerator over den strictly inside (lo, hi)."""
    return math.floor(lo * den) + 1, math.ceil(hi * den) - 1


def random_edge_values(t, rng: random.Random, lo, hi, kind: InvariantKind) -> EdgeFunction:
    """Independent per-edge rationals strictly inside (lo, hi), in pi-units,
    each over a denominator drawn from 1 to MAX_DENOMINATOR.  ValueError,
    before any draw, when no such fraction lies inside."""
    if not any(a <= b for a, b in (_open_numerators(lo, hi, den) for den in range(1, MAX_DENOMINATOR + 1))):
        raise ValueError(f"no fraction with denominator <= {MAX_DENOMINATOR} lies in ({lo}, {hi})")
    values = []
    for _ in range(t.n_edges):
        while True:
            den = rng.randint(1, MAX_DENOMINATOR)
            num_min, num_max = _open_numerators(lo, hi, den)
            if num_min <= num_max:
                values.append(Fraction(rng.randint(num_min, num_max), den))
                break
    return EdgeFunction(tuple(values), kind)


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
