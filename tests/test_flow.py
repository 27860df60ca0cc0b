"""The minimum-cut decider against exhaustive enumeration.

Flow and enumeration both compute an exact minimum over the same
quantifier range, report one certificate rule and print that minimum
exactly when it is at most 0, so their reports must be equal, and every
check method prints the same bytes.
"""

import functools
import itertools
import json
import operator
import random
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from anglestruct import (
    AngleStructure,
    EdgeFunction,
    FeasibilityReport,
    GeometryClass,
    InvariantKind,
    Verdict,
    check_closure,
    check_via_enumeration,
    check_via_flow,
    construct_structure,
    delaunay_invariant,
    edge_invariant,
    validate,
)
from anglestruct import feasibility
from anglestruct.angles import _over_lcm
from anglestruct.cli import main
from anglestruct.errors import RangeViolation
from anglestruct.feasibility import THEOREMS, min_cut, subset_slack
from anglestruct.ratpi import render
from anglestruct.sampling import random_structure, random_triangulation
from anglestruct.surface import DEFAULT_ENUMERATION_CAP
from conftest import (
    SELF_GLUED_FACES,
    const_fn,
    random_edge_values,
    random_hyperbolic_delaunay_domain,
    random_spherical_edge_domain,
)


def assert_flow_matches_enumeration(t, fn, theorem, cap=DEFAULT_ENUMERATION_CAP):
    flow = check_via_flow(t, fn, theorem)
    assert flow == check_via_enumeration(t, fn, theorem, cap), theorem
    if flow.verdict is Verdict.INFEASIBLE:
        assert subset_slack(t, fn, theorem, flow.certificate) == flow.slack
    return flow


def near_equilateral_structure(t, rng):
    """A Euclidean structure with every angle within pi/9 of pi/3."""
    angles = []
    for _ in range(t.n_faces):
        p = [rng.randint(8, 12) for _ in range(3)]
        angles += [Fraction(v, sum(p)) for v in p]
    return AngleStructure(tuple(angles))


def nudged_boundary_values(t, theorem, rng):
    """Invariant whose weights W start as the edge invariant of a
    near-equilateral Euclidean structure (W(E) = |F|, every W < pi, slack 0
    at the empty and the full set), then shift weight between the edges of
    a random face set Y and the rest, keeping W(E), and nudge a few edges:
    minimisers then fall on Y and on other sets between empty and full."""
    base = edge_invariant(t, near_equilateral_structure(t, rng))
    y = rng.sample(range(t.n_faces), rng.randint(1, t.n_faces))
    inside = {e for f in y for e in t.faces[f]}
    n_in, n_out = len(inside), t.n_edges - len(inside)
    step = Fraction(rng.randint(-8, 48), 96 * max(n_in, n_out))
    hi = 1 if theorem in ("T1", "T4") else 2
    weights = []
    for e, w in enumerate(base.values):
        shifted = w - step * n_out if e in inside else w + step * n_in
        if rng.random() < 1 / 4:
            shifted += Fraction(rng.randint(-4, 4), 96)
        weights.append(shifted if 0 < shifted < hi else w)
    kind = THEOREMS[theorem].kind
    values = weights if kind is InvariantKind.EDGE else [2 - 2 * w for w in weights]
    return EdgeFunction(tuple(values), kind)


def planted_tie_values(t, theorem, rng):
    """(T1/T4 invariant, {f1, f2}) for two faces f1, f2 with no common
    edge, where the nonempty zero-slack sets are exactly {f1}, {f2} and
    their join {f1, f2}; None when t has no such pair.

    The edges of each f_k weigh 1 in total.  Every other face must have at
    most one edge among them and be reached, through the remaining edges,
    from a face with none; the remaining edges weigh 1 - eps with
    eps < 1/(2|F|).  A set S of other faces then covers at least |S| + 1
    remaining edges, so every set with another face has positive slack.
    """
    pairs = list(itertools.combinations(range(t.n_faces), 2))
    rng.shuffle(pairs)
    for pair in pairs:
        tight = [set(t.faces[f]) for f in pair]
        planted = tight[0] | tight[1]
        rest = [f for f in range(t.n_faces) if f not in pair]
        if tight[0] & tight[1] or any(sum(e in planted for e in t.faces[f]) > 1 for f in rest):
            continue
        reached = [f for f in rest if not planted & set(t.faces[f])]
        for f in reached:
            for e in set(t.faces[f]) - planted:
                for g, _ in t.edge_corners[e]:
                    if g not in reached:
                        reached.append(g)
        if len(reached) < len(rest):
            continue
        weights = [1 - Fraction(rng.randint(1, 4), 8 * t.n_faces) for _ in range(t.n_edges)]
        for edges in tight:
            parts = {e: rng.randint(1, 9) for e in edges}
            for e, p in parts.items():
                weights[e] = Fraction(p, sum(parts.values()))
        kind = THEOREMS[theorem].kind
        values = weights if kind is InvariantKind.EDGE else [2 - 2 * w for w in weights]
        return EdgeFunction(tuple(values), kind), frozenset(pair)
    return None


def cross_check_instance(t, rng, with_construct=False):
    """Flow against enumeration on all five theorems and, with_construct,
    construct against flow on T1-T4: a report exactly where the cut's is
    infeasible, and then the cut's whole report."""
    for theorem, row in THEOREMS.items():
        for fn in (random_edge_values(t, rng, row.lo, row.hi, row.kind), nudged_boundary_values(t, theorem, rng)):
            flow = assert_flow_matches_enumeration(t, fn, theorem)
            if with_construct and theorem != "L7":
                built = construct_structure(t, fn, row.geometry)
                if isinstance(built, FeasibilityReport):
                    assert built == flow and flow.verdict is Verdict.INFEASIBLE, theorem
                else:
                    assert flow.verdict is Verdict.FEASIBLE, theorem


def test_flow_matches_enumeration_seeded():
    rng = random.Random(2024)
    for trial in range(60):
        n = 2 * (trial % 5 + 1)
        t = random_triangulation(n, rng)
        # construct on half the trials and every size
        cross_check_instance(t, rng, with_construct=trial % 4 < 2)
    cross_check_instance(validate(SELF_GLUED_FACES), rng, with_construct=True)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.sampled_from([2, 4, 6, 8, 10]))
def test_flow_matches_enumeration_hypothesis(seed, n):
    rng = random.Random(seed)
    t = random_triangulation(n, rng)
    cross_check_instance(t, rng)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.sampled_from([2, 4, 6, 8, 10]))
def test_flow_boundary_instances_from_euclidean_structures(seed, n):
    # A Euclidean structure's invariants make the slack exactly 0 at F for
    # T1/T4 (W(E) = sum of all angles = |F|) and at the empty set for
    # T2/T3; L7 holds weakly there, so it is closure-only.
    rng = random.Random(seed)
    t = random_triangulation(n, rng)
    x = random_structure(t, GeometryClass.EUCLIDEAN, rng)
    d, dd = edge_invariant(t, x), delaunay_invariant(t, x)
    cases = [("T2", d), ("T3", dd), ("L7", d)]
    if all(v < Fraction(1) for v in d.values):
        cases += [("T1", d), ("T4", dd)]
    for theorem, fn in cases:
        flow = assert_flow_matches_enumeration(t, fn, theorem)
        if theorem == "L7":
            assert flow == check_closure(t, fn)
            assert flow.verdict is Verdict.CLOSURE_ONLY and flow.slack == Fraction(0)
            continue
        assert flow.verdict is Verdict.INFEASIBLE and flow.slack == Fraction(0)
        if theorem in ("T2", "T3"):
            assert flow.certificate == frozenset()
        else:
            assert subset_slack(t, fn, theorem, frozenset(range(n))) == Fraction(0)


def status_instance(t, theorem, status, rng):
    """An invariant of known status for a theorem on t.  Feasible: from a
    structure whose invariant lies in the theorem's domain.  Boundary: from
    a near-equilateral Euclidean structure, slack exactly 0 at the empty
    set (T2/T3/L7) or at F (T1/T4).  Infeasible: the boundary invariant
    moved 1/120 to 3/120 on three edges, towards less weight in grow form
    and more in shrink form, so that subset's slack drops below 0."""
    row = THEOREMS[theorem]
    invariant = edge_invariant if row.kind is InvariantKind.EDGE else delaunay_invariant
    if status == "feasible":
        sample = {
            "T1": random_spherical_edge_domain,
            "T4": random_hyperbolic_delaunay_domain,
        }.get(theorem, lambda t, rng: random_structure(t, row.geometry, rng))
        return invariant(t, sample(t, rng))
    values = list(invariant(t, near_equilateral_structure(t, rng)).values)
    if status == "infeasible":
        # W = d for an edge invariant and 1 - Dd/2 for a Delaunay one
        less_weight = row.nonempty == (row.kind is InvariantKind.EDGE)
        for e in rng.sample(range(t.n_edges), 3):
            values[e] += Fraction(rng.randint(1, 3), 120) * (-1 if less_weight else 1)
    return EdgeFunction(tuple(values), row.kind)


def assert_every_status_matches_enumeration(seed, sizes, cap):
    """One gluing per size, every other one with some face glued to
    itself; on each, every theorem in every status of status_instance must
    get the same whole report from the cut and from the scan."""
    rng = random.Random(seed)
    self_glued = 0
    for trial, n in enumerate(sizes):
        t = random_triangulation(n, rng)
        while trial % 2 and all(len(set(row)) == 3 for row in t.faces):
            t = random_triangulation(n, rng)
        self_glued += any(len(set(row)) < 3 for row in t.faces)
        for theorem, row in THEOREMS.items():
            for status in ("feasible", "boundary", "infeasible"):
                fn = status_instance(t, theorem, status, rng)
                report = assert_flow_matches_enumeration(t, fn, theorem, cap)
                if status == "feasible":
                    assert report.slack is None, (theorem, status)
                else:
                    assert report.slack == 0 if status == "boundary" else report.slack < 0, (theorem, status)
                assert (report.verdict is Verdict.CLOSURE_ONLY) == (not row.strict and status != "infeasible")
    assert self_glued >= len(sizes) // 2


def test_flow_matches_enumeration_at_the_default_cap():
    assert_every_status_matches_enumeration(1620, (16, 16, 18, 18, 20, 20), DEFAULT_ENUMERATION_CAP)


def test_flow_matches_enumeration_above_the_default_cap():
    # above the default cap no command enumerates, so the scan at cap 40
    # is the only decider there that does not run the cut's network
    assert_every_status_matches_enumeration(2440, (24, 24, 32, 32, 40, 40), 40)


def test_min_cut_minimisers_bracket_every_minimiser(monkeypatch):
    rng = random.Random(7)
    max_flow, nodes = feasibility._max_flow, []

    def recording(arcs, n, source, sink):
        nodes.append((n, source, sink))
        return max_flow(arcs, n, source, sink)

    monkeypatch.setattr(feasibility, "_max_flow", recording)
    self_glued = 0
    # random gluings glue some faces to themselves; the fixture does twice
    gluings = [validate(SELF_GLUED_FACES)] + [random_triangulation(2 * (k % 4 + 1), rng) for k in range(40)]
    for trial, t in enumerate(gluings):
        n = t.n_faces
        weights = [Fraction(rng.randint(0, 12), rng.randint(1, 6)) for _ in range(t.n_edges)]
        # the face capacity of the margin programs' networks, 0 and 1 included
        unit = Fraction(trial % 5, 4)
        (*scaled, face), scale = _over_lcm([*weights, unit])
        minimum, smallest, largest, arcs, *_ = min_cut(t, scaled, face)
        minimum = Fraction(minimum, scale)
        values = {}
        for mask in range(1 << n):
            subset = frozenset(f for f in range(n) if mask >> f & 1)
            covered = {e for f in subset for e in t.faces[f]}
            values[subset] = sum((weights[e] for e in covered), Fraction(0)) - unit * len(subset)
        assert minimum == min(values.values())
        minimisers = [s for s, v in values.items() if v == minimum]
        assert all(smallest <= s <= largest for s in minimisers)
        assert smallest in minimisers and largest in minimisers
        # the dual network: faces, source and sink; one arc per edge that is
        # not self-glued, in edge order, and at most one terminal arc a face
        assert nodes.pop() == (n + 2, n, n + 1)
        pairs = [(f1, f2) for (f1, _), (f2, _) in t.edge_corners if f1 != f2]
        self_glued += len(pairs) < t.n_edges
        assert [(u, v) for u, v, _ in arcs[:len(pairs)]] == pairs
        terminals = arcs[len(pairs):]
        assert all(c > 0 and (u == n) != (v == n + 1) for u, v, c in terminals)
        faces = [v if u == n else u for u, v, _ in terminals]
        assert sorted(set(faces)) == faces and set(faces) <= set(range(n))
    assert self_glued >= 20  # of the 41 gluings


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 8), data=st.data())
def test_max_flow_is_a_minimum_cut_on_any_network(n, data):
    # any network on at most 8 nodes, the last two the source and the sink:
    # parallel arcs, self-loops, arcs into the source or out of the sink,
    # zero capacities and direct source -> sink arcs, so Dinic's phases
    # meet paths that the closure network never has; the flow must
    # pass _flow_value's checks, its value must be the minimum cut found by
    # trying every source side, and the residual searches must give the
    # smallest and the largest minimum source side
    node = st.integers(0, n - 1)
    arcs = data.draw(st.lists(st.tuples(node, node, st.integers(0, 6)), max_size=24))
    source, sink = n - 2, n - 1
    flow, from_source, to_sink = feasibility._max_flow(arcs, n, source, sink)
    value = feasibility._flow_value(arcs, flow, n)
    sides = [m for m in range(1 << n) if m >> source & 1 and not m >> sink & 1]
    cut = {m: sum(c for u, v, c in arcs if m >> u & 1 and not m >> v & 1) for m in sides}
    minimal = [m for m in sides if cut[m] == min(cut.values())]
    assert value == cut[minimal[0]]
    assert sum(1 << u for u in range(n) if from_source[u]) == functools.reduce(operator.and_, minimal)
    assert sum(1 << u for u in range(n) if not to_sink[u]) == functools.reduce(operator.or_, minimal)


def test_two_hundred_faces_under_a_second():
    rng = random.Random(200)
    t = random_triangulation(200, rng)
    d = random_edge_values(t, rng, Fraction(0), Fraction(2), InvariantKind.EDGE)
    dd = random_edge_values(t, rng, Fraction(0), Fraction(2), InvariantKind.DELAUNAY)
    for theorem, fn in (("T2", d), ("T4", dd)):
        started = time.perf_counter()
        report = check_via_flow(t, fn, theorem)
        assert time.perf_counter() - started < 1.0
        if report.verdict is Verdict.INFEASIBLE:
            assert subset_slack(t, fn, theorem, report.certificate) == report.slack


def test_cli_auto_is_the_cut_at_every_size(tmp_path, capsys, monkeypatch):
    rng = random.Random(14)
    instances = []
    for n in (2, 14):
        t = random_triangulation(n, rng)
        for row in (THEOREMS["T2"], THEOREMS["T1"], THEOREMS["T3"]):
            fn = random_edge_values(t, rng, row.lo, row.hi, row.kind)
            path = tmp_path / f"{n}-{row.kind.value}-{row.geometry.value}.json"
            path.write_text(json.dumps(instance_payload(t, fn)))
            argv = ["check", str(path), "--geometry", row.geometry.value, "--invariant", row.kind.value]
            instances.append((argv, main(argv + ["--method", "flow"]), capsys.readouterr().out))

    def no_enumeration(*args):
        raise AssertionError("auto enumerated")

    monkeypatch.setattr(feasibility, "check_via_enumeration", no_enumeration)
    for argv, code, out in instances:
        assert main(argv + ["--method", "auto"]) == code
        assert capsys.readouterr().out == out, argv


def test_flow_rejects_out_of_domain_like_enumeration(tetra):
    d = const_fn(tetra, (3, 2))
    for theorem in ("T1", "T3"):  # a value outside (0, 1), then the wrong kind
        with pytest.raises(RangeViolation) as enumerated:
            check_via_enumeration(tetra, d, theorem)
        with pytest.raises(RangeViolation) as flowed:
            check_via_flow(tetra, d, theorem)
        assert str(flowed.value) == str(enumerated.value)


def instance_payload(t, fn):
    return {
        "faces": [list(row) for row in t.faces],
        "invariant": {"kind": fn.kind.value, "values": {str(e): render(v) for e, v in enumerate(fn.values)}},
    }


def euclidean_boundary_values(t, row, rng):
    """The invariant of the theorem's kind of a Euclidean structure, whose
    minimum slack is exactly 0, or None when it is outside the domain."""
    x = random_structure(t, GeometryClass.EUCLIDEAN, rng)
    fn = edge_invariant(t, x) if row.kind is InvariantKind.EDGE else delaunay_invariant(t, x)
    return fn if all(row.lo < v < row.hi for v in fn.values) else None


def assert_one_report(tmp_path, capsys, t, rng):
    """On T1-T4, random, nudged and Euclidean boundary and (T1/T4)
    planted-tie invariants: every check prints the same bytes under
    enumerate, flow, lp, auto and --cross-check, and construct prints that
    report when it is infeasible; a planted tie reports its join.
    Returns the number of planted ties checked."""
    ties = 0
    for theorem, row in THEOREMS.items():
        if not row.strict:
            continue
        cases = [(random_edge_values(t, rng, row.lo, row.hi, row.kind), None)]
        cases.append((nudged_boundary_values(t, theorem, rng), None))
        if boundary := euclidean_boundary_values(t, row, rng):
            cases.append((boundary, None))
        if row.nonempty and (planted := planted_tie_values(t, theorem, rng)):
            cases.append(planted)
        for fn, join in cases:
            path = tmp_path / "instance.json"
            path.write_text(json.dumps(instance_payload(t, fn)))
            check = ["check", str(path), "--geometry", row.geometry.value, "--invariant", row.kind.value]
            outputs = []
            for extra in (["--method", m] for m in ("enumerate", "flow", "lp", "auto")):
                outputs.append((main(check + extra), capsys.readouterr().out))
            outputs.append((main(check + ["--cross-check"]), capsys.readouterr().out))
            if join is not None:
                report = json.loads(outputs[0][1])
                assert outputs[0][0] == 1 and report["slack"] == "0/1", theorem
                assert report["certificate"] == sorted(join), theorem
                ties += 1
            if outputs[0][0] == 1:
                outputs.append((main(["construct", str(path), "--geometry", row.geometry.value]), capsys.readouterr().out))
            assert all(out == outputs[0] for out in outputs), theorem
    return ties


def test_one_report_seeded(tmp_path, capsys):
    rng = random.Random(909)
    ties = 0
    for trial in range(25):
        ties += assert_one_report(tmp_path, capsys, random_triangulation(2 * (trial % 5 + 1), rng), rng)
    assert_one_report(tmp_path, capsys, validate(SELF_GLUED_FACES), rng)
    assert ties >= 10, ties


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 10**6), n=st.sampled_from([2, 4, 6, 8, 10]))
def test_one_report_hypothesis(tmp_path, capsys, seed, n):
    rng = random.Random(seed)
    assert_one_report(tmp_path, capsys, random_triangulation(n, rng), rng)


def test_t1_zero_tie_prints_one_report(tmp_path, capsys):
    # face 3 and all four faces reach slack 0 under T1; every decider and
    # construct report the join of the two, all four faces
    t = validate([[0, 1, 1], [2, 3, 4], [2, 0, 3], [4, 5, 5]])
    d = EdgeFunction(tuple(Fraction(1, 4) if e == 4 else Fraction(3, 4) for e in range(6)), InvariantKind.EDGE)
    path = tmp_path / "tie.json"
    path.write_text(json.dumps(instance_payload(t, d)))
    check = ["check", str(path), "--geometry", "spherical", "--invariant", "edge"]
    expected = (
        '{"verdict": "infeasible", "theorem": "T1", "quantifier_range": "nonempty-subsets", '
        '"certificate": [0, 1, 2, 3], "slack": "0/1"}\n'
    )
    for argv in [check + ["--method", m] for m in ("enumerate", "flow", "auto", "lp")] + [
        check + ["--cross-check"],
        ["construct", str(path), "--geometry", "spherical"],
    ]:
        assert main(argv) == 1
        assert capsys.readouterr().out == expected, argv
