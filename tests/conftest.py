from fractions import Fraction

import pytest

from anglestruct import EdgeFunction, InvariantKind, validate

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


def const_fn(t, value, kind=InvariantKind.EDGE) -> EdgeFunction:
    coeff = Fraction(*value) if isinstance(value, tuple) else Fraction(value)
    return EdgeFunction((coeff,) * t.n_edges, kind)


def face_subsets(t, nonempty_proper=False):
    """Every face subset of t, or only the nonempty proper ones."""
    n = t.n_faces
    masks = range(1, (1 << n) - 1) if nonempty_proper else range(1 << n)
    return [frozenset(f for f in range(n) if m >> f & 1) for m in masks]

