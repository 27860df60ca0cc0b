import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anglestruct import (
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
    validate,
)
from anglestruct.angles import euclidean_relation_holds, mismatched_edges
from anglestruct.errors import DimensionMismatch, MissingCorner, OutOfRange
from anglestruct.lp import _witness_ok
from anglestruct.ratpi import render
from anglestruct.sampling import random_structure, random_triangulation
from conftest import OCTA_FACES, SELF_GLUED_FACES, TETRA_FACES, const_fn


def uniform_structure(t, value) -> AngleStructure:
    coeff = Fraction(*value) if isinstance(value, tuple) else Fraction(value)
    return AngleStructure((coeff,) * (3 * t.n_faces))


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
    mixed = (Fraction(3, 10),) * 3 + uniform_structure(tetra, (1, 3)).values[3:]
    assert classify_structure(tetra, AngleStructure(mixed)) is GeometryClass.NOT_GEOMETRIC
    with pytest.raises(MissingCorner, match="^face 1 slot 1$"):
        classify_structure(tetra, AngleStructure(mixed[:4]))
    with pytest.raises(DimensionMismatch):
        classify_structure(tetra, AngleStructure(mixed + (Fraction(1, 3),)))
    # a face that is not geometric does not hide a later angle out of range
    bad = (Fraction(1, 2),) * 3 + (Fraction(0), Fraction(1, 3), Fraction(1, 3)) + mixed[6:]
    with pytest.raises(OutOfRange, match="^0/1$"):
        classify_structure(tetra, AngleStructure(bad))


def test_dict_values_are_rejected():
    # a dict, the layout before the flat tuples, would be read as its keys
    with pytest.raises(TypeError):
        EdgeFunction({e: Fraction(7, 10) for e in range(6)}, InvariantKind.EDGE)
    with pytest.raises(TypeError):
        AngleStructure({(f, k): Fraction(1, 3) for f in range(4) for k in range(3)})
    with pytest.raises(TypeError):
        AngleStructure([Fraction(1, 3)] * 12)


def test_edge_invariant_uniform(tetra):
    d = edge_invariant(tetra, uniform_structure(tetra, (7, 20)))
    assert d.values == (Fraction(7, 10),) * 6
    d = edge_invariant(tetra, uniform_structure(tetra, (1, 3)))
    assert d.values == (Fraction(2, 3),) * 6


def test_edge_invariant_self_glued(self_glued):
    u, v, w = Fraction(1, 5), Fraction(1, 4), Fraction(3, 10)
    x = AngleStructure((u, v, w, Fraction(1, 5), Fraction(1, 4), Fraction(1, 4)))
    d = edge_invariant(self_glued, x)
    assert d.values[0] == u + v
    dd = delaunay_invariant(self_glued, x)
    # both sides of the self-glued edge reuse the face's remaining corner
    assert dd.values[0] == 2 * w


def test_delaunay_invariant_uniform(tetra):
    dd = delaunay_invariant(tetra, uniform_structure(tetra, (7, 20)))
    assert dd.values == (Fraction(7, 10),) * 6
    x = uniform_structure(tetra, (1, 3))
    dd = delaunay_invariant(tetra, x)
    d = edge_invariant(tetra, x)
    assert dd.values == (Fraction(2, 3),) * 6
    assert all(2 * v + w == 2 for v, w in zip(d.values, dd.values, strict=True))


def brute_force_delaunay(t, x, e):
    total = Fraction(0)
    for f, slot in t.edge_corners[e]:
        others = [x.values[3 * f + k] for k in range(3) if k != slot]
        total = total + others[0] + others[1] - x.values[3 * f + slot]
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
        assert dd.values[e] == brute_force_delaunay(octa, x, e)


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
    assert len(x.values) == 3 * t.n_faces and len(d.values) == t.n_edges
    corner_total = Fraction(0)
    for v in x.values:
        corner_total = corner_total + v
    edge_total = Fraction(0)
    for v in d.values:
        edge_total = edge_total + v
    assert edge_total == corner_total
    # Dd(e) equals the two adjacent face sums minus twice the facing pair
    for e in range(t.n_edges):
        c1, c2 = t.edge_corners[e]
        both = sum(x.values[3 * f + k] for f in (c1.face, c2.face) for k in range(3))
        assert dd.values[e] == both - 2 * d.values[e]


def test_euclidean_relation(tetra):
    x, y = uniform_structure(tetra, (1, 3)), uniform_structure(tetra, (3, 10))
    assert euclidean_relation_holds(edge_invariant(tetra, x), delaunay_invariant(tetra, x))
    assert not euclidean_relation_holds(edge_invariant(tetra, y), delaunay_invariant(tetra, y))


def test_corner_transform_examples(tetra):
    hyp = uniform_structure(tetra, (3, 10))
    out = corner_transform(tetra, hyp)
    assert out.values == (Fraction(7, 20),) * 12
    assert classify_structure(tetra, out) is GeometryClass.SPHERICAL
    fixed = uniform_structure(tetra, (1, 3))
    assert corner_transform(tetra, fixed).values == (Fraction(1, 3),) * 12
    inverse = corner_transform_inverse(tetra, uniform_structure(tetra, (7, 20)))
    assert inverse.values == (Fraction(3, 10),) * 12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.sampled_from([2, 4, 6]))
def test_transform_round_trip_identity(seed, n):
    rng = random.Random(seed)
    t = random_triangulation(n, rng)
    # candidates need no range validity; any rational corner values round-trip
    x = AngleStructure(
        tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(3 * t.n_faces))
    )
    there = corner_transform(t, x)
    back = corner_transform_inverse(t, there)
    assert back.values == x.values
    again = corner_transform(t, corner_transform_inverse(t, x))
    assert again.values == x.values


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.sampled_from([2, 4, 6, 8]))
def test_transform_maps_hyperbolic_to_spherical(seed, n):
    rng = random.Random(seed)
    t = random_triangulation(n, rng)
    x = random_structure(t, GeometryClass.HYPERBOLIC, rng)
    y = corner_transform(t, x)
    assert len(y.values) == 3 * t.n_faces and all(0 < v < 1 for v in y.values)
    assert classify_structure(t, y) is GeometryClass.SPHERICAL
    d_y = edge_invariant(t, y)
    dd_x = delaunay_invariant(t, x)
    for e in range(t.n_edges):
        assert d_y.values[e] == 1 - dd_x.values[e] / 2


def test_non_euclidean_violates_relation_somewhere(tetra):
    rng = random.Random(11)
    x = random_structure(tetra, GeometryClass.HYPERBOLIC, rng)
    d = edge_invariant(tetra, x)
    dd = delaunay_invariant(tetra, x)
    assert any(2 * v + w != 2 for v, w in zip(d.values, dd.values, strict=True))


# A plain-Fraction reference of the angle functions, written as the
# formulas read, with every corner looked up by face and slot.  The package
# computes on per-face ints; both must return the same values and raise the
# same errors, with the same messages, in the same order.

BIG = 10**300


def ref_angle(x, f, k):
    if 3 * f + k >= len(x.values):
        raise MissingCorner(f"face {f} slot {k}")
    return x.values[3 * f + k]


def ref_complete(t, x):
    for f in range(t.n_faces):
        for k in range(3):
            ref_angle(x, f, k)
    if len(x.values) > 3 * t.n_faces:
        raise DimensionMismatch(f"{len(x.values)} angles for {3 * t.n_faces} corners")


def ref_others(f, k):
    return (f, (k + 1) % 3), (f, (k + 2) % 3)


def ref_classify_triangle(a, b, c):
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


def ref_classify_structure(t, x):
    # every face is range-checked, also after one that is not geometric
    ref_complete(t, x)
    classes = [ref_classify_triangle(*(ref_angle(x, f, k) for k in range(3))) for f in range(t.n_faces)]
    if all(cls is classes[0] for cls in classes):
        return classes[0]
    return GeometryClass.NOT_GEOMETRIC


def ref_edge_invariant(t, x):
    ref_complete(t, x)
    values = tuple(ref_angle(x, *c1) + ref_angle(x, *c2) for c1, c2 in t.edge_corners)
    return EdgeFunction(values, InvariantKind.EDGE)


def ref_delaunay_invariant(t, x):
    ref_complete(t, x)
    values = []
    for corners in t.edge_corners:
        total = Fraction(0)
        for facing in corners:
            j, k = ref_others(*facing)
            total = total + ref_angle(x, *j) + ref_angle(x, *k) - ref_angle(x, *facing)
        values.append(total)
    return EdgeFunction(tuple(values), InvariantKind.DELAUNAY)


def ref_corner_transform(t, x):
    ref_complete(t, x)
    values = []
    for f in range(t.n_faces):
        for c in range(3):
            j, k = ref_others(f, c)
            values.append((1 + ref_angle(x, f, c) - ref_angle(x, *j) - ref_angle(x, *k)) / 2)
    return AngleStructure(tuple(values))


def ref_corner_transform_inverse(t, y):
    ref_complete(t, y)
    values = []
    for f in range(t.n_faces):
        for c in range(3):
            j, k = ref_others(f, c)
            values.append(1 - ref_angle(y, *j) - ref_angle(y, *k))
    return AngleStructure(tuple(values))


def ref_mismatched_edges(t, x, fn):
    recomputed = ref_edge_invariant(t, x) if fn.kind is InvariantKind.EDGE else ref_delaunay_invariant(t, x)
    if len(fn.values) != t.n_edges:
        raise DimensionMismatch(f"{len(fn.values)} invariant values for {t.n_edges} edges")
    return [e for e, (v, w) in enumerate(zip(recomputed.values, fn.values)) if v != w]


def ref_witness_ok(t, x, fn, geometry):
    # an incomplete structure raises MissingCorner, whatever else is wrong
    ref_complete(t, x)
    if not all(0 < v < 1 for v in x.values):
        return False
    if ref_classify_structure(t, x) is not geometry:
        return False
    if fn.kind is InvariantKind.EDGE:
        return ref_edge_invariant(t, x) == fn
    return ref_delaunay_invariant(t, x) == fn


def outcome(fn, *args):
    """fn's result, or the type and message of the angle error it raised."""
    try:
        return fn(*args)
    except (MissingCorner, DimensionMismatch, OutOfRange) as exc:
        return type(exc), str(exc)


PAIRS = [
    (classify_structure, ref_classify_structure),
    (edge_invariant, ref_edge_invariant),
    (delaunay_invariant, ref_delaunay_invariant),
    (corner_transform, ref_corner_transform),
    (corner_transform_inverse, ref_corner_transform_inverse),
]


def assert_matches_reference(t, x):
    """Every angle function of x equals its reference, errors included, and
    so do mismatched_edges and the construction's witness check, for both
    geometries, against the two recomputed invariants and each nudged at
    edge 0 both ways."""
    for package, reference in PAIRS:
        assert outcome(package, t, x) == outcome(reference, t, x), package.__name__
    for f in range(t.n_faces):
        triple = x.values[3 * f:3 * f + 3]
        if len(triple) == 3:
            assert outcome(classify_triangle, *triple) == outcome(ref_classify_triangle, *triple)
    invariants = [outcome(ref_edge_invariant, t, x), outcome(ref_delaunay_invariant, t, x)]
    if isinstance(invariants[0], EdgeFunction):
        for d in invariants[:2]:
            for step in (Fraction(1, BIG), Fraction(-1, BIG)):
                invariants.append(EdgeFunction((d.values[0] + step, *d.values[1:]), d.kind))
    else:
        invariants = [const_fn(t, (1, 2)), const_fn(t, (1, 2), InvariantKind.DELAUNAY)]
    for fn in invariants:
        assert outcome(mismatched_edges, t, x, fn) == outcome(ref_mismatched_edges, t, x, fn)
        for geometry in (GeometryClass.HYPERBOLIC, GeometryClass.SPHERICAL):
            args = (t, x, fn, geometry)
            assert outcome(_witness_ok, *args) == outcome(ref_witness_ok, *args)


FACE_KINDS = (
    "euclidean", "hyperbolic", "spherical", "random", "mixed-denominators", "out-of-range"
)


def sample_face(rng, kind, big):
    """Three angles of one face of the given kind, on a small or a 300-digit
    denominator."""
    den = rng.randint(BIG, 10 * BIG) if big else rng.randint(12, 60)
    if kind == "euclidean":
        a = rng.randint(1, den - 2)
        b = rng.randint(1, den - a - 1)
        nums = [a, b, den - a - b]
    elif kind == "hyperbolic":  # a Euclidean triple over a larger denominator
        a = rng.randint(1, den - 2)
        b = rng.randint(1, den - a - 1)
        nums, den = [a, b, den - a - b], den + rng.randint(1, den)
    elif kind == "spherical":  # every angle in (pi/3, pi/2)
        nums = [rng.randint(den // 3 + 1, (den - 1) // 2) for _ in range(3)]
    elif kind == "random":  # any class, often not geometric
        nums = [rng.randint(1, den - 1) for _ in range(3)]
    elif kind == "mixed-denominators":
        return [Fraction(rng.randint(1, d - 1), d) for d in (den, den + 1, 2 * den + 1)]
    else:
        triple = [Fraction(rng.randint(1, den - 1), den) for _ in range(3)]
        bad = [Fraction(0), Fraction(1), Fraction(-1, den), 1 + Fraction(1, den), Fraction(den, 1)]
        triple[rng.randrange(3)] = rng.choice(bad)
        return triple
    return [Fraction(n, den) for n in nums]


def sample_structure(rng, t):
    """Faces of one kind (so that a whole structure has a class) or of
    mixed kinds, small or 300-digit denominators, sometimes cut short or
    one angle too long."""
    uniform = rng.choice(FACE_KINDS) if rng.random() < 0.5 else None
    values = []
    for _ in range(t.n_faces):
        kind = uniform or rng.choice(FACE_KINDS)
        values += sample_face(rng, kind, big=rng.random() < 0.3)
    odd = rng.random()
    if odd < 0.15:
        values = values[:rng.randrange(len(values))]
    elif odd < 0.2:
        values.append(Fraction(1, 3))
    return AngleStructure(tuple(values))


def test_angle_functions_match_the_fraction_reference_seeded():
    rng = random.Random(20240)
    seen = set()
    for _ in range(400):
        faces = rng.choice([SELF_GLUED_FACES, TETRA_FACES, OCTA_FACES, None])
        t = validate(faces) if faces else random_triangulation(rng.choice([2, 4, 6, 8]), rng)
        x = sample_structure(rng, t)
        assert_matches_reference(t, x)
        result = outcome(ref_classify_structure, t, x)
        if isinstance(result, GeometryClass):
            seen.add(result)
            seen.add(ref_witness_ok(t, x, ref_edge_invariant(t, x), GeometryClass.HYPERBOLIC))
        else:
            seen.add(result[0])
        if any(v.denominator > BIG for v in x.values):
            seen.add("big")
    expected = set(GeometryClass) | {MissingCorner, DimensionMismatch, OutOfRange, True, False, "big"}
    assert seen >= expected, seen


def fractions_in(lo, hi):
    small = st.fractions(min_value=lo, max_value=hi, max_denominator=60)
    big = st.builds(
        lambda n, d: lo + (hi - lo) * Fraction(n % d, d), st.integers(0), st.integers(BIG, 10 * BIG)
    )
    return small | big


@settings(max_examples=100, deadline=None)
@given(
    gluing=st.sampled_from([SELF_GLUED_FACES, TETRA_FACES]) | st.integers(0, 10**6),
    data=st.data(),
)
def test_angle_functions_match_the_fraction_reference(gluing, data):
    if isinstance(gluing, int):
        rng = random.Random(gluing)
        t = random_triangulation(rng.choice([2, 4, 6]), rng)
    else:
        t = validate(gluing)
    # mostly inside (0, pi), sometimes on or past its ends; sometimes cut
    # short or one angle too long
    n = 3 * t.n_faces
    values = data.draw(st.lists(fractions_in(0, 1) | fractions_in(-1, 2), min_size=n, max_size=n + 1))
    length = data.draw(st.sampled_from([n, len(values)]) | st.integers(0, n - 1))
    assert_matches_reference(t, AngleStructure(tuple(values[:length])))
