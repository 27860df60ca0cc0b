import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anglestruct.errors import (
    Disconnected,
    EdgeDegree,
    EmptyTriangulation,
    UnknownEdge,
)
from anglestruct.sampling import random_triangulation
from anglestruct.surface import (
    Corner,
    corners_facing,
    edge_set,
    validate,
)
from conftest import TETRA_FACES, face_subsets


def test_tetrahedron_validates(tetra):
    assert tetra.n_faces == 4
    assert tetra.n_edges == 6
    assert 2 * tetra.n_edges == 3 * tetra.n_faces


def test_self_glued_edges_accepted(self_glued):
    assert self_glued.n_faces == 2
    assert self_glued.n_edges == 3


def test_validate_rejects_bad_degree():
    with pytest.raises(EdgeDegree):
        validate([[0, 1, 2], [0, 1, 3]])  # edges 2 and 3 appear once
    with pytest.raises(EdgeDegree):
        validate([[0, 0, 0], [1, 1, 2], [2, 3, 3]])  # edge 0 appears three times


def test_validate_rejects_disconnected():
    two_tetra = TETRA_FACES + [[e + 6 for e in row] for row in TETRA_FACES]
    with pytest.raises(Disconnected):
        validate(two_tetra)


def test_validate_rejects_empty():
    with pytest.raises(EmptyTriangulation):
        validate([])


def test_validate_normalizes_arbitrary_identifiers():
    t = validate([[10, 30, 20], [10, 40, 50], [30, 40, 60], [20, 50, 60]])
    assert t.edge_ids == (10, 30, 20, 40, 50, 60)
    assert t.faces[0] == (0, 1, 2)


def test_validate_keeps_a_dense_numbering_in_any_order():
    t = validate([[1, 0, 2], [1, 3, 4], [0, 3, 5], [2, 4, 5]])
    assert t.edge_ids == tuple(range(6))
    assert t.faces[0] == (1, 0, 2)


def test_corners_facing(tetra, self_glued):
    for e in range(tetra.n_edges):
        c1, c2 = corners_facing(tetra, e)
        assert c1.face != c2.face  # tetrahedron has no self-gluing
        assert tetra.faces[c1.face][c1.slot] == e
        assert tetra.faces[c2.face][c2.slot] == e
    c1, c2 = corners_facing(self_glued, 0)
    assert (c1, c2) == (Corner(0, 0), Corner(0, 1))
    with pytest.raises(UnknownEdge):
        corners_facing(tetra, 6)


def test_corners_partition(tetra, octa):
    for t in (tetra, octa):
        seen = []
        for e in range(t.n_edges):
            seen.extend(corners_facing(t, e))
        assert len(seen) == 3 * t.n_faces
        assert len(set(seen)) == 3 * t.n_faces


def test_edge_set(tetra):
    assert edge_set(tetra, frozenset()) == frozenset()
    assert edge_set(tetra, frozenset({0})) == frozenset({0, 1, 2})
    # any two tetrahedron faces share exactly one edge
    for f, g in combinations(range(4), 2):
        assert len(edge_set(tetra, frozenset({f, g}))) == 5
    assert edge_set(tetra, frozenset(range(4))) == frozenset(range(6))


def test_edge_set_monotone(tetra):
    subsets = face_subsets(tetra)
    for x in subsets:
        for y in subsets:
            if x <= y:
                assert edge_set(tetra, x) <= edge_set(tetra, y)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.sampled_from([2, 4, 6, 8, 10]))
def test_generated_instances_satisfy_counting_identity(seed, n):
    t = random_triangulation(n, random.Random(seed))
    assert 2 * t.n_edges == 3 * t.n_faces


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.sampled_from([2, 4, 6, 8, 10]))
def test_proper_subsets_cover_extra_edges(seed, n):
    # 2|E(X)| >= 3|X| + 1 for every nonempty proper subset of a connected surface
    t = random_triangulation(n, random.Random(seed))
    for subset in face_subsets(t, nonempty_proper=True):
        assert 2 * len(edge_set(t, subset)) >= 3 * len(subset) + 1
