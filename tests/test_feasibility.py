import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anglestruct import (
    AngleStructure,
    EdgeFunction,
    GeometryClass,
    InvariantKind,
    Verdict,
    check_closure,
    check_via_enumeration,
    check_via_flow,
    check_via_lp,
    classify_structure,
    construct_structure,
    delaunay_invariant,
    edge_invariant,
    validate,
)
from anglestruct.angles import mismatched_edges
from anglestruct.errors import DimensionMismatch, MissingCorner, RangeViolation, TooLarge
from anglestruct.angles import _over_lcm
from anglestruct.feasibility import THEOREMS, QuantifierRange, _placements, _scan, subset_slack
from anglestruct.sampling import random_structure, random_triangulation
from conftest import (
    SELF_GLUED_FACES,
    const_fn,
    random_edge_values,
    random_hyperbolic_delaunay_domain,
    random_spherical_edge_domain,
)


# --- independent oracle: plain loops over masks, no Gray-code, no incremental sums


def oracle_minimisers(t, weights, grow_form):
    """The least slack over the quantifier range (nonempty subsets in grow
    form, proper subsets, the empty one included, else) and every subset
    in that range attaining it."""
    n = t.n_faces
    total = sum(weights, Fraction(0))
    slacks = {}
    for mask in range(1 << n):
        if mask == (0 if grow_form else (1 << n) - 1):
            continue
        subset = frozenset(f for f in range(n) if mask >> f & 1)
        covered = set()
        for f in subset:
            covered.update(t.faces[f])
        cov = sum((weights[e] for e in covered), Fraction(0))
        if grow_form:
            slacks[subset] = cov - len(subset)
        else:
            slacks[subset] = (n - len(subset)) - (total - cov)
    best = min(slacks.values())
    return best, [s for s, v in slacks.items() if v == best]


def weights_of(fn, t, theorem):
    if theorem in ("T3", "T4"):
        return [1 - v / 2 for v in fn.values]
    return list(fn.values)


def assert_scan_matches_oracle(t, fn, theorem):
    grow_form = theorem in ("T1", "T4")
    weights = weights_of(fn, t, theorem)
    slack, attaining = oracle_minimisers(t, weights, grow_form)
    meet, join = frozenset.intersection(*attaining), frozenset.union(*attaining)
    # the scan's meet, join and first attaining subset, feasible or not
    scanned = _scan(t, weights, grow_form, t.n_faces)
    assert scanned[:3] == (slack, meet, join), theorem
    assert scanned[3] in attaining, theorem
    # the report: the meet, or the join at a T1/T4 tie with the empty set at 0
    r = check_via_enumeration(t, fn, theorem)
    assert r.slack == (slack if slack <= 0 else None), theorem
    if r.verdict is Verdict.INFEASIBLE:
        assert r.certificate == (join if grow_form and slack == 0 else meet), theorem
        assert r.certificate in attaining, theorem
    else:
        assert r.certificate is None, theorem


# --- golden tetrahedron table, frozen from the hand-enumerated subset scans


def test_t1_golden(tetra):
    r = check_via_enumeration(tetra, const_fn(tetra, (7, 10)), "T1")
    assert r.verdict is Verdict.FEASIBLE
    assert r.slack is None
    # tightest subset is all four faces
    assert _scan(tetra, [Fraction(7, 10)] * 6, True, 4)[0] == Fraction(1, 5)
    assert r.certificate is None
    assert r.quantifier_range is QuantifierRange.NONEMPTY_SUBSETS

    r = check_via_enumeration(tetra, const_fn(tetra, (3, 5)), "T1")
    assert r.verdict is Verdict.INFEASIBLE
    assert r.certificate == frozenset(range(4))
    assert r.slack == Fraction(-2, 5)


def test_t2_golden(tetra):
    r = check_via_enumeration(tetra, const_fn(tetra, (3, 5)), "T2")
    assert r.verdict is Verdict.FEASIBLE
    assert r.slack is None
    assert _scan(tetra, [Fraction(3, 5)] * 6, False, 4)[0] == Fraction(2, 5)
    assert r.quantifier_range is QuantifierRange.PROPER_SUBSETS_INCL_EMPTY

    r = check_via_enumeration(tetra, const_fn(tetra, (7, 10)), "T2")
    assert r.verdict is Verdict.INFEASIBLE
    assert r.certificate == frozenset()
    assert r.slack == Fraction(-1, 5)

    # boundary: equality at the empty subset kills the open problem only
    r = check_via_enumeration(tetra, const_fn(tetra, (2, 3)), "T2")
    assert r.verdict is Verdict.INFEASIBLE
    assert r.certificate == frozenset()
    assert r.slack == Fraction(0)


def test_closure_golden(tetra):
    assert check_closure(tetra, const_fn(tetra, (2, 3))).verdict is Verdict.CLOSURE_ONLY
    assert check_closure(tetra, const_fn(tetra, (2, 3))).slack == Fraction(0)
    assert check_closure(tetra, const_fn(tetra, (3, 5))).verdict is Verdict.CLOSURE_ONLY
    assert check_closure(tetra, const_fn(tetra, (3, 5))).slack is None
    assert _scan(tetra, [Fraction(3, 5)] * 6, False, 4)[0] == Fraction(2, 5)
    assert check_closure(tetra, const_fn(tetra, (7, 10))).verdict is Verdict.INFEASIBLE
    # closed domain accepts boundary values
    assert check_closure(tetra, const_fn(tetra, 0)).verdict is Verdict.CLOSURE_ONLY


def test_t3_golden(tetra):
    r = check_via_enumeration(tetra, const_fn(tetra, (4, 5), InvariantKind.DELAUNAY), "T3")
    assert r.verdict is Verdict.FEASIBLE
    assert r.theorem == "T3"
    r = check_via_enumeration(tetra, const_fn(tetra, (3, 5), InvariantKind.DELAUNAY), "T3")
    assert r.verdict is Verdict.INFEASIBLE
    assert r.certificate == frozenset()


def test_t4_golden(tetra):
    r = check_via_enumeration(tetra, const_fn(tetra, (3, 5), InvariantKind.DELAUNAY), "T4")
    assert r.verdict is Verdict.FEASIBLE
    r = check_via_enumeration(tetra, const_fn(tetra, (4, 5), InvariantKind.DELAUNAY), "T4")
    assert r.verdict is Verdict.INFEASIBLE
    assert r.certificate == frozenset(range(4))


def test_range_violations(tetra):
    with pytest.raises(RangeViolation):
        check_via_enumeration(tetra, const_fn(tetra, 1), "T1")  # needs (0, pi)
    with pytest.raises(RangeViolation):
        check_via_enumeration(tetra, const_fn(tetra, 2), "T2")
    with pytest.raises(RangeViolation):
        check_via_enumeration(tetra, const_fn(tetra, 2, InvariantKind.DELAUNAY), "T3")
    with pytest.raises(RangeViolation):
        check_via_enumeration(tetra, const_fn(tetra, 0, InvariantKind.DELAUNAY), "T4")
    with pytest.raises(RangeViolation):
        check_via_enumeration(tetra, const_fn(tetra, (1, 2), InvariantKind.DELAUNAY), "T1")


def test_wrong_lengths_raise_library_errors(tetra):
    # every decider, construct, subset_slack and mismatched_edges compare
    # fn's length with tetra's edge count, and every angle function x's with
    # its corners
    third = Fraction(1, 3)
    for n in (5, 7):
        fn = EdgeFunction((Fraction(7, 10),) * n, InvariantKind.EDGE)
        with pytest.raises(DimensionMismatch, match=f"^{n} invariant values for 6 edges$"):
            mismatched_edges(tetra, AngleStructure((third,) * 12), fn)
        for decide in (check_via_enumeration, check_via_flow):
            with pytest.raises(DimensionMismatch):
                decide(tetra, fn, "T2")
        with pytest.raises(DimensionMismatch):
            subset_slack(tetra, fn, "T2", frozenset({3}))
        for geometry in (GeometryClass.HYPERBOLIC, GeometryClass.SPHERICAL):
            for build in (construct_structure, check_via_lp):
                with pytest.raises(DimensionMismatch):
                    build(tetra, fn, geometry)
    with pytest.raises(MissingCorner, match="^face 3 slot 2$"):
        classify_structure(tetra, AngleStructure((third,) * 11))
    for function in (classify_structure, edge_invariant, delaunay_invariant):
        with pytest.raises(DimensionMismatch):
            function(tetra, AngleStructure((third,) * 13))


def test_enumeration_cap(tetra):
    with pytest.raises(TooLarge):
        check_via_enumeration(tetra, const_fn(tetra, (1, 2)), "T1", cap=2)


def test_random_edge_values_rejects_a_domain_without_its_fractions(tetra):
    # no fraction over a denominator up to 40 lies in (99/100, 1): the
    # sampler must raise before its first draw instead of redrawing forever
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError):
        random_edge_values(tetra, rng, Fraction(99, 100), Fraction(1), InvariantKind.EDGE)
    assert rng.getstate() == state


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.sampled_from([2, 4, 6, 8]))
def test_scan_matches_independent_oracle(seed, n):
    rng = random.Random(seed)
    t = random_triangulation(n, rng)
    for theorem, row in THEOREMS.items():
        fn = random_edge_values(t, rng, row.lo, row.hi, row.kind)
        assert_scan_matches_oracle(t, fn, theorem)


def test_scan_matches_oracle_with_mixed_denominators():
    # denominators 7, 9, 11 and 240 give a common denominator of 55440
    # (twice that for the T3/T4 weights pi - v/2); values in (1/4, 1) lie in
    # every domain and around 2/3, the Euclidean mean, so every theorem
    # meets feasible and infeasible instances
    rng = random.Random(5440)
    for trial in range(12):
        n = 2 * (trial % 4 + 1)
        t = random_triangulation(n, rng)
        for theorem, row in THEOREMS.items():
            values = []
            for _ in range(t.n_edges):
                den = rng.choice((7, 9, 11, 240))
                values.append(Fraction(rng.randint(den // 3, den - 1), den))
            assert_scan_matches_oracle(t, EdgeFunction(tuple(values), row.kind), theorem)


def test_scan_joins_t1_t4_zero_tie():
    # face 3 and all four faces reach slack 0, as the excluded empty set
    # does; the meet {3} is the smallest, the report takes the join F
    t = validate([[0, 1, 1], [2, 3, 4], [2, 0, 3], [4, 5, 5]])
    weights = [Fraction(1, 4) if e == 4 else Fraction(3, 4) for e in range(6)]
    for theorem, kind, values in (
        ("T1", InvariantKind.EDGE, weights),
        ("T4", InvariantKind.DELAUNAY, [2 - 2 * w for w in weights]),
    ):
        fn = EdgeFunction(tuple(values), kind)
        assert oracle_minimisers(t, weights, True) == (0, [frozenset({3}), frozenset(range(4))])
        slack, meet, join, _ = _scan(t, weights, True, t.n_faces)
        assert (slack, meet, join) == (0, frozenset({3}), frozenset(range(4)))
        r = check_via_enumeration(t, fn, theorem)
        assert r.verdict is Verdict.INFEASIBLE
        assert (r.certificate, r.slack) == (frozenset(range(4)), Fraction(0))


def scaled_oracle_minimisers(t, weights, grow_form):
    """oracle_minimisers on ints scaled by the lcm of the weight
    denominators, still a plain loop over masks: the edges a mask covers
    are those of the mask without its highest face, plus that face's."""
    n, den = t.n_faces, math.lcm(*(w.denominator for w in weights))
    scaled = [w.numerator * (den // w.denominator) for w in weights]
    face_edges = [sum(1 << e for e in set(row)) for row in t.faces]
    covered = [0] * (1 << n)
    slacks = {}
    for mask in range(1 << n):
        if mask:
            top = mask.bit_length() - 1
            covered[mask] = covered[mask ^ 1 << top] | face_edges[top]
        if mask == (0 if grow_form else (1 << n) - 1):
            continue
        cov = sum(w for e, w in enumerate(scaled) if covered[mask] >> e & 1)
        size = bin(mask).count("1")
        slacks[mask] = cov - size * den if grow_form else (n - size) * den - (sum(scaled) - cov)
    best = min(slacks.values())
    attaining = [frozenset(f for f in range(n) if m >> f & 1) for m, v in slacks.items() if v == best]
    return Fraction(best, den), attaining


# values in these sub-domains give every subset but the excluded one a
# positive slack (|E(X)| >= 3|X|/2), so the excluded subset is the only
# minimiser of g: W > 2/3 in grow form, W(e) < 2/3 in shrink form
EXCLUDED_ONLY = {
    "T1": (Fraction(3, 4), Fraction(1)),
    "T2": (Fraction(0), Fraction(1, 2)),
    "T3": (Fraction(1), Fraction(2)),
    "T4": (Fraction(0), Fraction(1, 2)),
    "L7": (Fraction(0), Fraction(1, 2)),
}


@pytest.mark.parametrize("n", [10, 12])
def test_scan_matches_oracle_where_block_walks_are_shared(n):
    # at 10 and 12 faces the scan walks a block of 3 or 4 faces once per
    # rim state and shares those walks across the 2^7 or 2^8 outer subsets;
    # every other gluing glues some face to itself, and each theorem meets
    # values over its whole domain and values whose only minimiser of g is
    # the excluded subset (empty in grow form, F in shrink form)
    rng = random.Random(n)
    for trial in range(4):
        t = random_triangulation(n, rng)
        while trial % 2 and all(len(set(row)) == 3 for row in t.faces):
            t = random_triangulation(n, rng)
        for theorem, row in THEOREMS.items():
            for lo, hi in ((row.lo, row.hi), EXCLUDED_ONLY[theorem]):
                fn = random_edge_values(t, rng, lo, hi, row.kind)
                weights = weights_of(fn, t, theorem)
                slack, attaining = scaled_oracle_minimisers(t, weights, row.nonempty)
                if (lo, hi) != (row.lo, row.hi):
                    assert slack > 0, theorem
                scanned = _scan(t, weights, row.nonempty, n)
                meet, join = frozenset.intersection(*attaining), frozenset.union(*attaining)
                assert scanned[:3] == (slack, meet, join), theorem
                assert scanned[3] in attaining, theorem
                assert subset_slack(t, fn, theorem, scanned[3]) == slack, theorem


def test_placement_tables_match_brute_force():
    # each step of the scan against the scaled change, over every subset X
    # of the faces placed before it, of W(E) - L|X| summed over the edges
    # with both faces placed that X touches; at least ten of the gluings
    # glue some face to itself and at least ten have faces that share two
    # or three edges, whose weights the tables must sum
    rng = random.Random(16)
    gluings = [validate(SELF_GLUED_FACES)] + [random_triangulation(rng.choice([2, 4, 6, 8]), rng) for _ in range(30)]
    assert sum(any(len(set(row)) < 3 for row in t.faces) for t in gluings) >= 10
    assert sum(len({frozenset(f for f, _ in c) for c in t.edge_corners}) < t.n_edges for t in gluings) >= 10
    for t in gluings:
        n = t.n_faces
        weights = [Fraction(rng.randint(0, 20), rng.randint(1, 9)) for _ in range(t.n_edges)]
        scaled, scale = _over_lcm(weights)
        faces_of = [{f for f, _ in c} for c in t.edge_corners]
        neighbours = [{g for e in t.faces[f] for g in faces_of[e]} - {f} for f in range(n)]

        def booked(x, placed):
            edges = [e for e, fs in enumerate(faces_of) if fs <= placed and fs & x]
            return sum(scaled[e] for e in edges) - len(x) * scale

        placed = set()
        for bit, near, gain, table, frontier in _placements(t, scaled, scale):
            v = bit.bit_length() - 1
            unplaced = [f for f in range(n) if f not in placed]
            assert v == max(unplaced, key=lambda f: (len(neighbours[f] & placed), -f))
            assert near == sum(1 << g for g in neighbours[v] & placed)
            assert sorted(table) == [s for s in range(near + 1) if s & ~near == 0]
            after = placed | {v}
            for mask in range(1 << n):
                x = {f for f in range(n) if mask >> f & 1}
                if not x <= placed:
                    continue
                assert booked(x | {v}, after) - booked(x, placed) == gain, (v, x)
                assert booked(x, after) - booked(x, placed) == table[mask & near], (v, x)
            placed = after
            assert frontier == sum(1 << f for f in placed if neighbours[f] - placed)
        assert placed == set(range(n))


def test_scan_at_40_faces_matches_the_cut():
    # about |F| * 2^(|F|/4) steps on random gluings: at 40 faces and cap 40
    # a scan does in a fraction of a second what 2^40 subset steps would not
    # do in days; its reports must be the cut's on every theorem
    rng = random.Random(40)
    t = random_triangulation(40, rng)
    start = time.process_time()
    for theorem, row in THEOREMS.items():
        for lo, hi in ((row.lo, row.hi), EXCLUDED_ONLY[theorem]):
            fn = random_edge_values(t, rng, lo, hi, row.kind)
            assert check_via_enumeration(t, fn, theorem, cap=40) == check_via_flow(t, fn, theorem), theorem
    assert time.process_time() - start < 10


def test_scan_at_24_faces_stays_small():
    # the walk over the faces outside the block keeps two step lists of
    # about 2^8 entries at 24 faces, not one of 2^16 (1.1 MB)
    rng = random.Random(5)
    t = random_triangulation(24, rng)
    fn = random_edge_values(t, rng, THEOREMS["T2"].lo, THEOREMS["T2"].hi, InvariantKind.EDGE)
    tracemalloc.start()
    try:
        slack = _scan(t, weights_of(fn, t, "T2"), False, 24)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert slack == Fraction(-6551605552721, 622429107300)
    assert peak <= 250_000, peak


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.sampled_from([2, 4, 6]))
def test_t1_t4_duality_under_substitution(seed, n):
    # the T1 inequality for d is literally the T4 inequality for 2*pi - 2*d
    rng = random.Random(seed)
    t = random_triangulation(n, rng)
    d = random_edge_values(t, rng, Fraction(0), Fraction(1), InvariantKind.EDGE)
    dd = EdgeFunction(tuple(2 - 2 * v for v in d.values), InvariantKind.DELAUNAY)
    r1 = check_via_enumeration(t, d, "T1")
    r4 = check_via_enumeration(t, dd, "T4")
    assert r1.verdict == r4.verdict
    assert r1.certificate == r4.certificate
    assert r1.slack == r4.slack


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.sampled_from([2, 4, 6, 8]))
def test_t3_delegates_to_t2_verbatim(seed, n):
    rng = random.Random(seed)
    t = random_triangulation(n, rng)
    dd = random_edge_values(t, rng, Fraction(-2), Fraction(2), InvariantKind.DELAUNAY)
    reduced = EdgeFunction(tuple(1 - v / 2 for v in dd.values), InvariantKind.EDGE)
    r3 = check_via_enumeration(t, dd, "T3")
    r2 = check_via_enumeration(t, reduced, "T2")
    assert r3.verdict == r2.verdict
    assert r3.certificate == r2.certificate
    assert r3.slack == r2.slack
    assert (r3.theorem, r2.theorem) == ("T3", "T2")


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_certificates_reverify(seed):
    rng = random.Random(seed)
    t = random_triangulation(rng.choice([2, 4, 6, 8]), rng)
    d = random_edge_values(t, rng, Fraction(0), Fraction(2), InvariantKind.EDGE)
    r = check_via_enumeration(t, d, "T2")
    if r.certificate is not None:
        assert subset_slack(t, d, "T2", r.certificate) <= 0
        assert subset_slack(t, d, "T2", r.certificate) == r.slack
    d1 = random_edge_values(t, rng, Fraction(0), Fraction(1), InvariantKind.EDGE)
    r1 = check_via_enumeration(t, d1, "T1")
    if r1.certificate is not None:
        assert subset_slack(t, d1, "T1", r1.certificate) <= 0
        assert subset_slack(t, d1, "T1", r1.certificate) == r1.slack


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_monotonicity_in_single_edge(seed):
    # raising one d(e) can only push the hyperbolic check toward infeasible,
    # lowering one d(e) can only push the spherical check toward infeasible
    rng = random.Random(seed)
    t = random_triangulation(rng.choice([2, 4, 6]), rng)
    d = random_edge_values(t, rng, Fraction(1, 4), Fraction(3, 4), InvariantKind.EDGE)
    e = rng.randrange(t.n_edges)
    bump = Fraction(rng.randint(1, 100), 100)

    before = check_via_enumeration(t, d, "T2").verdict
    raised = EdgeFunction(
        tuple(v + bump if k == e else v for k, v in enumerate(d.values)), InvariantKind.EDGE
    )
    after = check_via_enumeration(t, raised, "T2").verdict
    assert not (before is Verdict.INFEASIBLE and after is Verdict.FEASIBLE)

    before = check_via_enumeration(t, d, "T1").verdict
    lower = Fraction(rng.randint(1, 100), 1000)
    lowered = EdgeFunction(
        tuple(v - lower if k == e else v for k, v in enumerate(d.values)), InvariantKind.EDGE
    )
    if all(v > 0 for v in lowered.values):
        after = check_via_enumeration(t, lowered, "T1").verdict
        assert not (before is Verdict.INFEASIBLE and after is Verdict.FEASIBLE)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_soundness_on_computed_invariants(seed):
    # structures of a class always pass the checker for their own invariant
    rng = random.Random(seed)
    t = random_triangulation(rng.choice([2, 4, 6, 8, 10]), rng)
    hyp = random_structure(t, GeometryClass.HYPERBOLIC, rng)
    assert check_via_enumeration(t, edge_invariant(t, hyp), "T2").verdict is Verdict.FEASIBLE
    sph = random_structure(t, GeometryClass.SPHERICAL, rng)
    assert (
        check_via_enumeration(t, delaunay_invariant(t, sph), "T3").verdict is Verdict.FEASIBLE
    )
    hyp4 = random_hyperbolic_delaunay_domain(t, rng)
    assert (
        check_via_enumeration(t, delaunay_invariant(t, hyp4), "T4").verdict is Verdict.FEASIBLE
    )
    sph1 = random_spherical_edge_domain(t, rng)
    assert check_via_enumeration(t, edge_invariant(t, sph1), "T1").verdict is Verdict.FEASIBLE


def test_witness_backed_examples(tetra):
    # invariants computed from explicit witnesses must check feasible
    from conftest import const_fn as _
    import anglestruct as a

    x = a.AngleStructure((Fraction(7, 20),) * 12)
    assert check_via_enumeration(tetra, edge_invariant(tetra, x), "T1").verdict is Verdict.FEASIBLE
    x = a.AngleStructure((Fraction(3, 10),) * 12)
    assert (
        check_via_enumeration(tetra, delaunay_invariant(tetra, x), "T4").verdict
        is Verdict.FEASIBLE
    )
    x = a.AngleStructure((Fraction(2, 5),) * 12)
    dd = delaunay_invariant(tetra, x)
    assert dd.values == (Fraction(4, 5),) * 6
    assert check_via_enumeration(tetra, dd, "T3").verdict is Verdict.FEASIBLE
