import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anglestruct import (
    AngleStructure,
    Corner,
    GeometryClass,
    classify_structure,
    classify_triangle,
    corner_transform,
    corner_transform_inverse,
    delaunay_invariant,
    edge_invariant,
)
from anglestruct.angles import euclidean_relation_holds
from anglestruct.errors import MissingCorner, OutOfRange
from anglestruct.sampling import random_structure, random_triangulation
from conftest import const_fn


def uniform_structure(t, value) -> AngleStructure:
    coeff = Fraction(*value) if isinstance(value, tuple) else Fraction(value)
    return AngleStructure({c: coeff for c in t.corners()})


def test_classify_triangle():
    third = Fraction(1, 3)
    assert classify_triangle(third, third, third) is GeometryClass.EUCLIDEAN
    s = Fraction(7, 20)
    assert classify_triangle(s, s, s) is GeometryClass.SPHERICAL
    assert (
        classify_triangle(Fraction(9, 10), Fraction(9, 10), Fraction(1, 20))
        is GeometryClass.NOT_GEOMETRIC
    )
    assert (
        classify_triangle(Fraction(1, 5), Fraction(3, 10), Fraction(2, 5))
        is GeometryClass.HYPERBOLIC
    )
    with pytest.raises(OutOfRange):
        classify_triangle(Fraction(0), Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(OutOfRange):
        classify_triangle(Fraction(1), Fraction(1, 2), Fraction(1, 2))


def test_classify_structure(tetra):
    assert classify_structure(tetra, uniform_structure(tetra, (7, 20))) is GeometryClass.SPHERICAL
    assert classify_structure(tetra, uniform_structure(tetra, (3, 10))) is GeometryClass.HYPERBOLIC
    mixed = dict(uniform_structure(tetra, (1, 3)).values)
    for k in range(3):
        mixed[Corner(0, k)] = Fraction(3, 10)
    assert classify_structure(tetra, AngleStructure(mixed)) is GeometryClass.NOT_GEOMETRIC
    with pytest.raises(MissingCorner):
        incomplete = dict(mixed)
        del incomplete[Corner(1, 1)]
        classify_structure(tetra, AngleStructure(incomplete))


def test_edge_invariant_uniform(tetra):
    d = edge_invariant(tetra, uniform_structure(tetra, (7, 20)))
    assert all(d.value(e) == Fraction(7, 10) for e in range(6))
    d = edge_invariant(tetra, uniform_structure(tetra, (1, 3)))
    assert all(d.value(e) == Fraction(2, 3) for e in range(6))


def test_edge_invariant_self_glued(self_glued):
    u, v, w = Fraction(1, 5), Fraction(1, 4), Fraction(3, 10)
    x = AngleStructure(
        {
            Corner(0, 0): u,
            Corner(0, 1): v,
            Corner(0, 2): w,
            Corner(1, 0): Fraction(1, 5),
            Corner(1, 1): Fraction(1, 4),
            Corner(1, 2): Fraction(1, 4),
        }
    )
    d = edge_invariant(self_glued, x)
    assert d.value(0) == u + v
    dd = delaunay_invariant(self_glued, x)
    # both sides of the self-glued edge reuse the face's remaining corner
    assert dd.value(0) == 2 * w


def test_delaunay_invariant_uniform(tetra):
    dd = delaunay_invariant(tetra, uniform_structure(tetra, (7, 20)))
    assert all(dd.value(e) == Fraction(7, 10) for e in range(6))
    x = uniform_structure(tetra, (1, 3))
    dd = delaunay_invariant(tetra, x)
    d = edge_invariant(tetra, x)
    assert all(dd.value(e) == Fraction(2, 3) for e in range(6))
    assert all(2 * d.value(e) + dd.value(e) == 2 for e in range(6))


def brute_force_delaunay(t, x, e):
    total = Fraction(0)
    for facing in t.edge_corners[e]:
        f = facing.face
        others = [Corner(f, k) for k in range(3) if k != facing.slot]
        total = total + x.angle(others[0]) + x.angle(others[1]) - x.angle(facing)
    return total


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_delaunay_matches_direct_recomputation_octahedron(seed):
    from anglestruct import validate
    from conftest import OCTA_FACES

    octa = validate(OCTA_FACES)
    rng = random.Random(seed)
    x = random_structure(octa, rng.choice(list(GeometryClass)[:3]), rng)
    dd = delaunay_invariant(octa, x)
    for e in range(octa.n_edges):
        assert dd.value(e) == brute_force_delaunay(octa, x, e)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.sampled_from([2, 4, 6]))
def test_invariant_identities(seed, n):
    rng = random.Random(seed)
    t = random_triangulation(n, rng)
    geometry = rng.choice(
        [GeometryClass.EUCLIDEAN, GeometryClass.HYPERBOLIC, GeometryClass.SPHERICAL]
    )
    x = random_structure(t, geometry, rng)
    d = edge_invariant(t, x)
    dd = delaunay_invariant(t, x)
    # every corner faces exactly one edge, so edge sums partition the corner sum
    corner_total = Fraction(0)
    for c in t.corners():
        corner_total = corner_total + x.angle(c)
    edge_total = Fraction(0)
    for e in range(t.n_edges):
        edge_total = edge_total + d.value(e)
    assert edge_total == corner_total
    # Dd(e) equals the two adjacent face sums minus twice the facing pair
    for e in range(t.n_edges):
        c1, c2 = t.edge_corners[e]
        both = sum(x.angle(Corner(f, k)) for f in (c1.face, c2.face) for k in range(3))
        assert dd.value(e) == both - 2 * d.value(e)


def test_euclidean_relation(tetra):
    assert euclidean_relation_holds(tetra, uniform_structure(tetra, (1, 3)))
    assert not euclidean_relation_holds(tetra, uniform_structure(tetra, (3, 10)))


def test_corner_transform_examples(tetra):
    hyp = uniform_structure(tetra, (3, 10))
    out = corner_transform(tetra, hyp)
    assert all(out.angle(c) == Fraction(7, 20) for c in tetra.corners())
    assert classify_structure(tetra, out) is GeometryClass.SPHERICAL
    fixed = uniform_structure(tetra, (1, 3))
    assert all(
        corner_transform(tetra, fixed).angle(c) == Fraction(1, 3) for c in tetra.corners()
    )
    assert all(
        corner_transform_inverse(tetra, uniform_structure(tetra, (7, 20))).angle(c)
        == Fraction(3, 10)
        for c in tetra.corners()
    )


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.sampled_from([2, 4, 6]))
def test_transform_round_trip_identity(seed, n):
    rng = random.Random(seed)
    t = random_triangulation(n, rng)
    # candidates need no range validity; any rational corner values round-trip
    x = AngleStructure(
        {c: Fraction(rng.randint(-50, 50), rng.randint(1, 20)) for c in t.corners()}
    )
    there = corner_transform(t, x)
    back = corner_transform_inverse(t, there)
    assert all(back.angle(c) == x.angle(c) for c in t.corners())
    again = corner_transform(t, corner_transform_inverse(t, x))
    assert all(again.angle(c) == x.angle(c) for c in t.corners())


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.sampled_from([2, 4, 6, 8]))
def test_transform_maps_hyperbolic_to_spherical(seed, n):
    rng = random.Random(seed)
    t = random_triangulation(n, rng)
    x = random_structure(t, GeometryClass.HYPERBOLIC, rng)
    y = corner_transform(t, x)
    assert y.is_range_valid(t)
    assert classify_structure(t, y) is GeometryClass.SPHERICAL
    d_y = edge_invariant(t, y)
    dd_x = delaunay_invariant(t, x)
    for e in range(t.n_edges):
        assert d_y.value(e) == 1 - dd_x.value(e) / 2


def test_non_euclidean_violates_relation_somewhere(tetra):
    rng = random.Random(11)
    x = random_structure(tetra, GeometryClass.HYPERBOLIC, rng)
    d = edge_invariant(tetra, x)
    dd = delaunay_invariant(tetra, x)
    assert any(2 * d.value(e) + dd.value(e) != 2 for e in range(6))
