"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Everything is seeded and exact; no tolerances appear anywhere because all
comparisons are between rationals.
"""

import random
import time
from fractions import Fraction

from anglestruct import (
    AngleStructure,
    FeasibilityReport,
    GeometryClass,
    InvariantKind,
    Verdict,
    check_via_enumeration,
    classify_structure,
    construct_structure,
    delaunay_invariant,
    edge_invariant,
    validate,
)
from anglestruct.feasibility import _scan, subset_slack
from anglestruct.lp import (
    Infeasible,
    Optimal,
    build_construction_lp,
    simplex_solve,
)
from anglestruct.sampling import random_structure, random_triangulation
from anglestruct.surface import edge_set
from conftest import (
    TETRA_FACES,
    const_fn,
    dual_cone_max_is_zero,
    face_subsets,
    make_problem,
    random_edge_values,
    random_hyperbolic_delaunay_domain,
    random_spherical_edge_domain,
)

FACE_COUNTS = [2, 4, 6, 8, 10]


def announce(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_spherical_edge_verdict_equals_construction():
    rng = random.Random(101)
    started = time.time()
    agreements = 0
    for trial in range(200):
        t = random_triangulation(FACE_COUNTS[trial % 5], rng)
        d = random_edge_values(t, rng, Fraction(0), Fraction(1), InvariantKind.EDGE)
        enumerated = check_via_enumeration(t, d, "T1")
        constructed = construct_structure(t, d, GeometryClass.SPHERICAL)
        built = isinstance(constructed, AngleStructure)
        assert built == (enumerated.verdict is Verdict.FEASIBLE), f"trial {trial}"
        if built:
            assert classify_structure(t, constructed) is GeometryClass.SPHERICAL
            recomputed = edge_invariant(t, constructed)
            assert recomputed.values == d.values
        agreements += 1
    elapsed = time.time() - started
    announce(
        1,
        agreements == 200 and elapsed < 60,
        f"T1 enumeration vs spherical construction agreed {agreements}/200 in {elapsed:.1f}s",
    )


def test_criterion_2_hyperbolic_edge_verdict_equals_lp():
    rng = random.Random(202)
    agreements = 0
    infeasible_cases = 0
    for trial in range(200):
        t = random_triangulation(FACE_COUNTS[trial % 5], rng)
        d = random_edge_values(t, rng, Fraction(0), Fraction(2), InvariantKind.EDGE)
        enumerated = check_via_enumeration(t, d, "T2")
        constructed = construct_structure(t, d, GeometryClass.HYPERBOLIC)
        built = isinstance(constructed, AngleStructure)
        assert built == (enumerated.verdict is Verdict.FEASIBLE), f"trial {trial}"
        if built:
            recomputed = edge_invariant(t, constructed)
            assert recomputed.values == d.values
        else:
            infeasible_cases += 1
            assert isinstance(constructed, FeasibilityReport)
            assert subset_slack(t, d, "T2", constructed.certificate) <= 0
            assert subset_slack(t, d, "T2", constructed.certificate) == constructed.slack
        agreements += 1
    announce(
        2,
        agreements == 200,
        f"T2 enumeration vs LP agreed 200/200; {infeasible_cases} certificates re-verified exactly",
    )


def test_criterion_3_delaunay_reduction():
    from anglestruct import EdgeFunction

    rng = random.Random(303)
    feasible_cases = 0
    for trial in range(200):
        t = random_triangulation(FACE_COUNTS[trial % 5], rng)
        dd = random_edge_values(t, rng, Fraction(-2), Fraction(2), InvariantKind.DELAUNAY)
        reduced = EdgeFunction(tuple(1 - v / 2 for v in dd.values), InvariantKind.EDGE)
        r3 = check_via_enumeration(t, dd, "T3")
        r2 = check_via_enumeration(t, reduced, "T2")
        assert r3.verdict == r2.verdict, f"trial {trial}"
        assert r3.certificate == r2.certificate
        assert r3.slack == r2.slack
        if r3.verdict is Verdict.FEASIBLE:
            feasible_cases += 1
            witness = construct_structure(t, dd, GeometryClass.SPHERICAL)
            assert isinstance(witness, AngleStructure)
            assert classify_structure(t, witness) is GeometryClass.SPHERICAL
            recomputed = delaunay_invariant(t, witness)
            assert recomputed.values == dd.values
    announce(
        3,
        True,
        f"T3 report identical to reduced T2 on 200/200; {feasible_cases} transformed witnesses exact",
    )


def test_criterion_4_soundness_zero_false_infeasibility():
    rng = random.Random(404)
    false_infeasible = 0
    for trial in range(500):
        t = random_triangulation(FACE_COUNTS[trial % 5], rng)

        hyp = random_structure(t, GeometryClass.HYPERBOLIC, rng)
        if check_via_enumeration(t, edge_invariant(t, hyp), "T2").verdict is not Verdict.FEASIBLE:
            false_infeasible += 1
        hyp_dd = random_hyperbolic_delaunay_domain(t, rng)
        if (
            check_via_enumeration(t, delaunay_invariant(t, hyp_dd), "T4").verdict
            is not Verdict.FEASIBLE
        ):
            false_infeasible += 1

        sph = random_structure(t, GeometryClass.SPHERICAL, rng)
        if (
            check_via_enumeration(t, delaunay_invariant(t, sph), "T3").verdict
            is not Verdict.FEASIBLE
        ):
            false_infeasible += 1
        sph_d = random_spherical_edge_domain(t, rng)
        if check_via_enumeration(t, edge_invariant(t, sph_d), "T1").verdict is not Verdict.FEASIBLE:
            false_infeasible += 1
    announce(
        4,
        false_infeasible == 0,
        "500 structures per class per checker (T2/T4 hyperbolic, T1/T3 spherical), "
        f"{false_infeasible} false infeasibilities",
    )


def test_criterion_5_golden_tetrahedron_table():
    t = validate(TETRA_FACES)
    checks = []

    r = check_via_enumeration(t, const_fn(t, (7, 10)), "T1")
    checks.append(
        r.verdict is Verdict.FEASIBLE
        and r.slack is None
        and _scan(t, [Fraction(7, 10)] * 6, True, 4)[0] == Fraction(1, 5)
    )
    r = check_via_enumeration(t, const_fn(t, (7, 10)), "T2")
    checks.append(
        r.verdict is Verdict.INFEASIBLE
        and r.certificate == frozenset()
        and r.slack == Fraction(-1, 5)
    )

    r = check_via_enumeration(t, const_fn(t, (3, 5)), "T1")
    checks.append(
        r.verdict is Verdict.INFEASIBLE
        and r.certificate == frozenset(range(4))
        and r.slack == Fraction(-2, 5)
    )
    r = check_via_enumeration(t, const_fn(t, (3, 5)), "T2")
    checks.append(
        r.verdict is Verdict.FEASIBLE
        and r.slack is None
        and _scan(t, [Fraction(3, 5)] * 6, False, 4)[0] == Fraction(2, 5)
    )
    outcome = simplex_solve(build_construction_lp(t, const_fn(t, (3, 5)), GeometryClass.HYPERBOLIC))
    checks.append(isinstance(outcome, Optimal) and -outcome.value == Fraction(1, 10))

    from anglestruct import check_closure

    r = check_via_enumeration(t, const_fn(t, (2, 3)), "T2")
    checks.append(
        r.verdict is Verdict.INFEASIBLE and r.certificate == frozenset() and r.slack == Fraction(0)
    )
    r = check_closure(t, const_fn(t, (2, 3)))
    checks.append(r.verdict is Verdict.CLOSURE_ONLY and r.slack == Fraction(0))

    announce(5, all(checks), f"golden tetrahedron table, {sum(checks)}/7 rows exact")


def test_criterion_6_euclidean_relation():
    rng = random.Random(606)
    bad_edges = 0
    for trial in range(100):
        t = random_triangulation(FACE_COUNTS[trial % 5], rng)
        x = random_structure(t, GeometryClass.EUCLIDEAN, rng)
        d = edge_invariant(t, x)
        dd = delaunay_invariant(t, x)
        for v, w in zip(d.values, dd.values, strict=True):
            if 2 * v + w != Fraction(2):
                bad_edges += 1
    announce(
        6,
        bad_edges == 0,
        f"100 Euclidean structures satisfy 2D + Dd = 2pi on every edge ({bad_edges} violations)",
    )


def test_criterion_7_subset_edge_counting():
    rng = random.Random(707)
    checked = 0
    for trial in range(60):
        t = random_triangulation(FACE_COUNTS[trial % 5], rng)
        for subset in face_subsets(t, nonempty_proper=True):
            assert 2 * len(edge_set(t, subset)) >= 3 * len(subset) + 1, (trial, subset)
            checked += 1
    announce(7, True, f"2|E(X)| >= 3|X|+1 held on {checked} nonempty proper subsets (exhaustive)")


def test_criterion_8_duality_oracle_equivalence():
    rng = random.Random(808)
    farkas_checked = 0
    for trial in range(100):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        a = [
            [Fraction(rng.randint(-20, 20), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(m)
        ]
        a = [[max(min(v, Fraction(5)), Fraction(-5)) for v in row] for row in a]
        b = [Fraction(rng.randint(-5, 5)) for _ in range(m)]
        primal = simplex_solve(make_problem(a, b, [Fraction(0)] * n))
        primal_feasible = isinstance(primal, Optimal)

        # independent side: maximize b.y over the cone A^t y <= 0
        assert primal_feasible == dual_cone_max_is_zero(a, b, n), f"trial {trial}"

        if isinstance(primal, Infeasible):
            farkas_checked += 1
            y = primal.certificate
            for j in range(n):
                assert sum(a[i][j] * y[i] for i in range(m)) <= 0
            assert sum(b[i] * y[i] for i in range(m)) > 0
    announce(
        8,
        True,
        f"Corollary-6 equivalence on 100/100 random systems; {farkas_checked} Farkas certificates exact",
    )
