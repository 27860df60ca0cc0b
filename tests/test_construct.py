import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anglestruct import (
    AngleStructure,
    EdgeFunction,
    FeasibilityReport,
    GeometryClass,
    InvariantKind,
    Verdict,
    classify_structure,
    construct_structure,
    corner_transform,
    delaunay_invariant,
    edge_invariant,
    check_via_enumeration,
    check_via_flow,
    feasibility,
    lp,
    validate,
)
from anglestruct.angles import _over_lcm
from anglestruct.cli import main
from anglestruct.errors import DimensionMismatch, RangeViolation, VerificationFailed
from anglestruct.feasibility import _certify_cut, _closure_network, _max_flow, min_cut, subset_slack
from anglestruct.feasibility import THEOREMS, make_report, theorem_for
from anglestruct.lp import check_via_lp
from anglestruct.sampling import random_structure, random_triangulation
from anglestruct.serialize import dumps, edge_function_to_json, structure_to_json
from conftest import (
    SELF_GLUED_FACES,
    TETRA_FACES,
    const_fn,
    pinned_construct_requests,
    random_edge_values,
    random_hyperbolic_delaunay_domain,
)


def test_hyperbolic_construction_golden(tetra):
    w = construct_structure(tetra, const_fn(tetra, (3, 5)), GeometryClass.HYPERBOLIC)
    assert isinstance(w, AngleStructure)
    assert classify_structure(tetra, w) is GeometryClass.HYPERBOLIC
    d = edge_invariant(tetra, w)
    assert d.values == (Fraction(3, 5),) * 6

    cert = construct_structure(tetra, const_fn(tetra, (7, 10)), GeometryClass.HYPERBOLIC)
    assert isinstance(cert, FeasibilityReport)
    assert cert.certificate == frozenset()
    assert cert.theorem == "T2"
    assert cert.slack == Fraction(-1, 5)


def test_hyperbolic_boundary_equality(tetra):
    # the face rows sum to A + 16m + S = 4 and the edge rows to A + 12m = 4,
    # so the program's optimum is exactly 0; the certificate is the empty set
    cert = construct_structure(tetra, const_fn(tetra, (2, 3)), GeometryClass.HYPERBOLIC)
    assert isinstance(cert, FeasibilityReport)
    assert cert.certificate == frozenset()
    assert cert.slack == Fraction(0)


# T4 requests on which the half-sum map gives no witness (the edge program
# with weights Dd has no m > 0) though the cut calls them feasible, so the
# simplex solves their Delaunay program, to the optimum m*
FALLBACK_REQUESTS = {
    "4-faces": ([[0, 0, 1], [2, 3, 4], [2, 1, 4], [5, 3, 5]], "3/10 1/10 3/28 1/30 1/2 61/35", Fraction(3, 70)),
    "6-faces": (
        [[0, 1, 1], [2, 3, 4], [2, 5, 0], [6, 7, 6], [3, 7, 4], [8, 8, 5]],
        "3631/10051 320/437 2081/13754 3/20 129/260 8271/35972 1/11 213/440 18/17",
        Fraction(1, 22),
    ),
}


def fallback_request(name):
    faces, values, _ = FALLBACK_REQUESTS[name]
    return validate(faces), EdgeFunction(tuple(Fraction(v) for v in values.split()), InvariantKind.DELAUNAY)


@pytest.mark.parametrize(
    "faces, value, kind, geometry",
    [
        (TETRA_FACES, (2, 3), InvariantKind.EDGE, GeometryClass.HYPERBOLIC),
        (TETRA_FACES, (7, 10), InvariantKind.EDGE, GeometryClass.SPHERICAL),
        (SELF_GLUED_FACES, (1, 2), InvariantKind.EDGE, GeometryClass.HYPERBOLIC),
        (TETRA_FACES, (4, 5), InvariantKind.DELAUNAY, GeometryClass.SPHERICAL),
        (TETRA_FACES, (3, 5), InvariantKind.DELAUNAY, GeometryClass.HYPERBOLIC),
        (None, "4-faces", InvariantKind.DELAUNAY, GeometryClass.HYPERBOLIC),
        (None, "6-faces", InvariantKind.DELAUNAY, GeometryClass.HYPERBOLIC),
    ],
    ids=[
        "tetra-boundary-hyperbolic",
        "tetra-spherical",
        "self-glued-hyperbolic",
        "tetra-delaunay-spherical",
        "tetra-delaunay-hyperbolic",
        "fallback-delaunay-hyperbolic",
        "fallback-6-faces-delaunay-hyperbolic",
    ],
)
def test_construct_solves_the_dumped_program_once(monkeypatch, faces, value, kind, geometry):
    # T2/T3 construct never calls the simplex, and its flow reaches the
    # optimum of the dumped program (None where the optimum is 0: no
    # witness).  T1/T4 construct runs the same flow on the edge program
    # with weights Dd, whose margin, when positive, is at most that optimum,
    # and only when it gives none and the cut calls the request feasible
    # solves the dumped program by the simplex, once.  check --method lp
    # makes exactly construct's solver calls
    solved, margins = [], []
    solve, flow_margin = lp.simplex_solve, lp._flow_margin

    def recording(problem):
        solved.append(problem)
        return solve(problem)

    def search(t, program):
        result = flow_margin(t, program)
        margins.append(None if result is None else result[0])
        return result

    monkeypatch.setattr(lp, "simplex_solve", recording)
    monkeypatch.setattr(lp, "_flow_margin", search)
    if faces is None:
        t, fn = fallback_request(value)
    else:
        t = validate(faces)
        fn = const_fn(t, value, kind)
    problem = lp.build_construction_lp(t, fn, geometry)
    optimum = -solve(problem).value or None
    for decide in (construct_structure, check_via_lp):
        solved.clear()
        margins.clear()
        decide(t, fn, geometry)
        if not THEOREMS[theorem_for(geometry, kind)].nonempty:
            assert (solved, margins) == ([], [optimum]), decide.__name__
        elif faces is None:
            assert (solved, margins) == ([problem], [None]), decide.__name__
        else:
            assert solved == [] and 0 < margins[0] <= optimum, decide.__name__


@pytest.mark.parametrize("name", FALLBACK_REQUESTS)
def test_half_sums_fall_back_to_the_simplex(name):
    # the edge program with weights Dd has no m > 0, the cut calls the T4
    # request feasible, and the simplex's witness, at the optimum m*,
    # carries the Delaunay invariant it was asked for
    t, fn = fallback_request(name)
    _, program, _ = lp._route(t, fn, GeometryClass.HYPERBOLIC)
    assert program == fn
    assert lp._flow_margin(t, program) is None
    assert check_via_flow(t, fn, "T4").verdict is Verdict.FEASIBLE
    assert lp._simplex_margin(t, program)[0] == FALLBACK_REQUESTS[name][2]
    w = construct_structure(t, fn, GeometryClass.HYPERBOLIC)
    assert delaunay_invariant(t, w) == fn
    assert_verify_accepts(t, fn, GeometryClass.HYPERBOLIC, w)


def _half_sums(x):
    """x_k = (x'_i + x'_j)/2 on each face with corners i, j, k."""
    faces = [x[f:f + 3] for f in range(0, len(x), 3)]
    return [(sum(face) - v) / 2 for face in faces for v in face]


def test_half_sums_turn_t2_witnesses_into_t4_witnesses():
    # a T2 witness x' of D with margin m (every corner >= m, every face sum
    # <= 1 - m) maps to a hyperbolic structure with the same face sums,
    # every corner >= m and Delaunay invariant D; construct's flow gives
    # exactly the half sums of its edge-program witness for the same values
    rng = random.Random(31)
    gluings = [validate(SELF_GLUED_FACES)] + [random_triangulation(n, rng) for n in (2, 2, 4, 4, 6, 8, 10, 12) * 4]
    assert any(f1 == f2 for t in gluings for (f1, _), (f2, _) in t.edge_corners)  # self-glued edges
    mapped = 0
    for t in gluings:
        for witness in ("sampled", "flow"):
            if witness == "sampled":
                x = random_structure(t, GeometryClass.HYPERBOLIC, rng)
                d = edge_invariant(t, x)
            else:
                d = random_edge_values(t, rng, Fraction(0), Fraction(4, 3), InvariantKind.EDGE)
                solved = lp._flow_margin(t, d)
                if solved is None:
                    continue
                x = AngleStructure(tuple(solved[1]))
                delaunay = EdgeFunction(d.values, InvariantKind.DELAUNAY)
                assert lp._flow_margin(t, delaunay) == (solved[0], _half_sums(x.values))
                mapped += 1
            sums = [sum(x.values[f:f + 3]) for f in range(0, 3 * t.n_faces, 3)]
            margin = min(*x.values, 1 - max(sums))
            assert classify_structure(t, x) is GeometryClass.HYPERBOLIC and margin > 0
            y = AngleStructure(tuple(_half_sums(x.values)))
            assert classify_structure(t, y) is GeometryClass.HYPERBOLIC
            assert delaunay_invariant(t, y).values == d.values
            assert [sum(y.values[f:f + 3]) for f in range(0, 3 * t.n_faces, 3)] == sums
            assert min(y.values) >= margin
    assert mapped > len(gluings) // 4


@pytest.mark.parametrize("theorem", ["T1", "T4"])
def test_infeasible_and_boundary_t1_t4_never_reach_the_simplex(monkeypatch, theorem):
    # weights W in (0, 1) scaled so that W(E) is |F| (slack 0 at F: the
    # boundary, or below 0 elsewhere) or less (infeasible at F); T1
    # prescribes them as its edge invariant, T4 the Delaunay invariant 2 -
    # 2W.  The edge program with weights Dd has no witness, and construct
    # returns the cut's report, whole, without a simplex call
    calls = []
    monkeypatch.setattr(lp, "simplex_solve", lambda problem: calls.append(problem))
    rng, slacks = random.Random(7), set()
    for n in (2, 4, 4, 6, 6, 8, 8, 10, 12, 16) * 3:
        t = random_triangulation(n, rng)
        weights = [Fraction(rng.randint(20, 60), 80) for _ in range(t.n_edges)]
        factor = Fraction(n, sum(weights)) * rng.choice([1, 1, Fraction(rng.randint(90, 99), 100)])
        weights = [w * factor for w in weights]
        if not all(0 < w < 1 for w in weights):
            continue
        if theorem == "T1":
            fn, geometry = EdgeFunction(tuple(weights), InvariantKind.EDGE), GeometryClass.SPHERICAL
        else:
            fn, geometry = EdgeFunction(tuple(2 - 2 * w for w in weights), InvariantKind.DELAUNAY), GeometryClass.HYPERBOLIC
        report = check_via_flow(t, fn, theorem)
        assert report.verdict is Verdict.INFEASIBLE
        assert construct_structure(t, fn, geometry) == report == check_via_lp(t, fn, geometry)
        slacks.add(report.slack == 0)
    assert slacks == {False, True}  # both boundary and strictly infeasible requests
    assert calls == []


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.sampled_from([2, 4, 6, 8, 10]), theorem=st.sampled_from(["T1", "T4"]))
def test_every_t1_t4_witness_passes_verify(seed, n, theorem):
    # a hyperbolic structure whose Delaunay invariant lies in T4's domain
    # gives a feasible T4 request, and its spherical image under the corner
    # transform a feasible T1 request with the same program.  verify then
    # reads the witness back from its JSON with the request's invariant and
    # stated class
    rng = random.Random(seed)
    t = random_triangulation(n, rng)
    x = random_hyperbolic_delaunay_domain(t, rng)
    if theorem == "T4":
        fn, geometry = delaunay_invariant(t, x), GeometryClass.HYPERBOLIC
    else:
        fn, geometry = edge_invariant(t, corner_transform(t, x)), GeometryClass.SPHERICAL
    assert_verify_accepts(t, fn, geometry, construct_structure(t, fn, geometry))


def assert_verify_accepts(t, fn, geometry, w):
    """cli verify reads the witness w back from its JSON with the request's
    invariant fn and stated class geometry, and accepts it."""
    assert isinstance(w, AngleStructure)
    instance = {
        "faces": [list(t.faces[f]) for f in range(t.n_faces)],
        "invariant": edge_function_to_json(t, fn),
        "structure": structure_to_json(t, w),
        "class": geometry.value,
    }
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "witness.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(instance, f)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["verify", path]) == 0
    assert json.loads(out.getvalue()) == {"ok": True, "mismatched_edges": [], "class_ok": True}


def test_spherical_construction_golden(tetra):
    w = construct_structure(tetra, const_fn(tetra, (7, 10)), GeometryClass.SPHERICAL)
    assert isinstance(w, AngleStructure)
    assert classify_structure(tetra, w) is GeometryClass.SPHERICAL
    d = edge_invariant(tetra, w)
    assert d.values == (Fraction(7, 10),) * 6

    cert = construct_structure(tetra, const_fn(tetra, (3, 5)), GeometryClass.SPHERICAL)
    assert isinstance(cert, FeasibilityReport)
    assert cert.certificate == frozenset(range(4))
    assert cert.theorem == "T1"
    assert cert.slack == Fraction(-2, 5)


def test_construction_range_checks(tetra):
    with pytest.raises(RangeViolation):
        construct_structure(tetra, const_fn(tetra, (3, 2)), GeometryClass.SPHERICAL)
    with pytest.raises(RangeViolation):
        construct_structure(tetra, const_fn(tetra, 2), GeometryClass.HYPERBOLIC)
    with pytest.raises(RangeViolation):
        construct_structure(
            tetra, const_fn(tetra, (-1, 2), InvariantKind.DELAUNAY), GeometryClass.HYPERBOLIC
        )
    with pytest.raises(RangeViolation):
        construct_structure(tetra, const_fn(tetra, (1, 2)), GeometryClass.EUCLIDEAN)
    # a hyperbolic request checks its domain without building weights, with
    # the deciders' message, and its length before its values
    for fn, theorem in ((const_fn(tetra, 2), "T2"), (const_fn(tetra, (-1, 2), InvariantKind.DELAUNAY), "T4")):
        with pytest.raises(RangeViolation) as expected:
            check_via_flow(tetra, fn, theorem)
        with pytest.raises(RangeViolation) as raised:
            construct_structure(tetra, fn, GeometryClass.HYPERBOLIC)
        assert str(raised.value) == str(expected.value)
        with pytest.raises(DimensionMismatch, match="^5 invariant values for 6 edges$"):
            construct_structure(tetra, fn._replace(values=fn.values[:5]), GeometryClass.HYPERBOLIC)


def test_delaunay_constructions(tetra):
    w = construct_structure(
        tetra, const_fn(tetra, (3, 5), InvariantKind.DELAUNAY), GeometryClass.HYPERBOLIC
    )
    assert isinstance(w, AngleStructure)
    assert classify_structure(tetra, w) is GeometryClass.HYPERBOLIC
    assert delaunay_invariant(tetra, w).values == (Fraction(3, 5),) * 6

    cert = construct_structure(
        tetra, const_fn(tetra, (4, 5), InvariantKind.DELAUNAY), GeometryClass.HYPERBOLIC
    )
    assert isinstance(cert, FeasibilityReport)
    assert cert.theorem == "T4"
    assert subset_slack(
        tetra, const_fn(tetra, (4, 5), InvariantKind.DELAUNAY), "T4", cert.certificate
    ) <= 0

    w = construct_structure(
        tetra, const_fn(tetra, (4, 5), InvariantKind.DELAUNAY), GeometryClass.SPHERICAL
    )
    assert isinstance(w, AngleStructure)
    assert classify_structure(tetra, w) is GeometryClass.SPHERICAL
    assert delaunay_invariant(tetra, w).values == (Fraction(4, 5),) * 6


def test_self_glued_constructions(self_glued):
    d = const_fn(self_glued, (1, 2))
    w = construct_structure(self_glued, d, GeometryClass.HYPERBOLIC)
    assert isinstance(w, AngleStructure)
    assert edge_invariant(self_glued, w).values == (Fraction(1, 2),) * 3
    w = construct_structure(self_glued, const_fn(self_glued, (3, 4)), GeometryClass.SPHERICAL)
    assert isinstance(w, AngleStructure)
    assert classify_structure(self_glued, w) is GeometryClass.SPHERICAL


# sha256 of the JSON bytes of the witnesses of the 16
# pinned_construct_requests (conftest), every one of them the flow's
# witness (T2/T3, or T1/T4 through the half-sum map); a change that moves
# them to another point on purpose updates it and says so
WITNESS_DIGEST = "4b567c78de7afc54d51c245b23e2233b6540cdae3c1939f56a821a9c827a322c"
# sha256 of the exact optimal margins of the same 16 programs; the optimum
# value is unique, so no choice of pivots may move it
MARGIN_DIGEST = "e9b2291d2023d3f60a886d9d3a57707f33711ecadc09bc3e52becab0b2e70690"


def test_witness_bytes_pinned():
    # every request is feasible, its invariant taken from its theorem's domain
    digest, margins = hashlib.sha256(), hashlib.sha256()
    for t, fn, geometry in pinned_construct_requests():
        w = construct_structure(t, fn, geometry)
        assert isinstance(w, AngleStructure)
        digest.update(dumps(structure_to_json(t, w)).encode())
        outcome = lp.simplex_solve(lp.build_construction_lp(t, fn, geometry))
        margins.update(f"{-outcome.value}\n".encode())
    assert margins.hexdigest() == MARGIN_DIGEST
    assert digest.hexdigest() == WITNESS_DIGEST


# --- certificates come from the minimum cut, which proves itself


def _tetra_network(tetra, value):
    # nodes: the 4 faces, then source 4 and sink 5; W = p/L and the unit 1
    # as ints over the scale L
    numerator, scale = value
    weights = [numerator] * 6
    arcs = _closure_network(tetra, weights, scale)
    flow, _, _ = _max_flow(arcs, 4 + 2, 4, 5)
    return weights, arcs, scale, flow


def test_closure_network_on_the_dual_graph(tetra, self_glued):
    # W = 7/10, L = 10: each edge's weight goes to its first face, so the
    # faces hold 21, 14, 7 and 0 against a unit of 10; one arc per edge
    # from its first face to its second, then each face's terminal arc
    weights, arcs, scale, flow = _tetra_network(tetra, (7, 10))
    assert scale == 10
    assert arcs == [
        (0, 1, 7), (0, 2, 7), (0, 3, 7), (1, 2, 7), (1, 3, 7), (2, 3, 7),
        (4, 0, 11), (4, 1, 4), (2, 5, 3), (3, 5, 10),
    ]
    # the flow's value is L * (min g + the sink capacities 3 + 10)
    assert sum(x for (_, v, _), x in zip(arcs, flow) if v == 5) == 13
    # the self-glued edges 0 and 2 give no arc: their faces hold them whole
    assert _closure_network(self_glued, [1] * 3, 2) == [(0, 1, 1), (1, 3, 1)]


def test_extract_certificate_spec_vector(tetra):
    # T2 at 7/10: the empty set violates, slack 4 - 6 * 7/10 = -1/5, and it
    # is the only minimiser of g(X) = W(E(X)) - |X|
    d = const_fn(tetra, (7, 10))
    assert min_cut(tetra, [7] * 6, 10)[:3] == (0, frozenset(), frozenset())
    report = check_via_flow(tetra, d, "T2")
    assert report.certificate == frozenset()
    assert report.slack == Fraction(-1, 5)
    construct = construct_structure(tetra, d, GeometryClass.HYPERBOLIC)
    assert construct == make_report("T2", Fraction(-1, 5), frozenset())


def test_extract_certificate_rejects_zero_vector(tetra):
    # the zero flow is feasible, but its value 0 is no cut's capacity: the
    # cut keeping the empty set off the sink side has capacity 13
    weights, arcs, scale, flow = _tetra_network(tetra, (7, 10))
    assert _certify_cut(tetra, weights, scale, arcs, flow, [frozenset()]) == 0
    with pytest.raises(VerificationFailed, match="differs from the flow value"):
        _certify_cut(tetra, weights, scale, arcs, [0] * len(arcs), [frozenset()])


def test_extract_certificate_rejects_infeasible_dual(tetra):
    weights, arcs, scale, flow = _tetra_network(tetra, (7, 10))
    source_arc = arcs.index((4, 0, 11))
    for i in (0, source_arc):  # a dual arc and a source arc
        over = list(flow)
        over[i] = arcs[i][2] + 1
        with pytest.raises(VerificationFailed, match="outside"):
            _certify_cut(tetra, weights, scale, arcs, over, [frozenset()])
    leaky = list(flow)
    into_sink = next(i for i, (_, v, _) in enumerate(arcs) if v == 5 and flow[i] > 0)
    leaky[into_sink] -= 1  # its face node keeps a unit of flow
    with pytest.raises(VerificationFailed, match="conserved"):
        _certify_cut(tetra, weights, scale, arcs, leaky, [frozenset()])
    # a genuine maximum flow still fails against a set that is no minimiser
    with pytest.raises(VerificationFailed, match="differs from the flow value"):
        _certify_cut(tetra, weights, scale, arcs, flow, [frozenset({0})])
    # the network is recomputed from the weights and the unit, so one built
    # for other weights (the last 3/5), another face unit (1/2) or another
    # scale (2L) fails too
    for other, unit in ((weights[:5] + [6], scale), (weights, scale // 2), ([2 * w for w in weights], 2 * scale)):
        with pytest.raises(VerificationFailed, match="network differs"):
            _certify_cut(tetra, other, unit, arcs, flow, [frozenset()])


def _replace(old, new):
    return lambda arcs: [new if arc == old else arc for arc in arcs]


# the tetrahedron's network at W = unit = 7/10, L = 10: the faces hold 21,
# 14, 7 and 0, so face 2 holds exactly its unit and gets no terminal arc
TETRA_AT_UNIT = [
    (0, 1, 7), (0, 2, 7), (0, 3, 7), (1, 2, 7), (1, 3, 7), (2, 3, 7),
    (4, 0, 14), (4, 1, 7), (3, 5, 7),
]


@pytest.mark.parametrize("faces, edit", [
    pytest.param(TETRA_FACES, _replace((1, 2, 7), (1, 2, 8)), id="dual capacity"),
    pytest.param(TETRA_FACES, _replace((4, 0, 14), (4, 0, 15)), id="source +1"),
    pytest.param(TETRA_FACES, _replace((4, 0, 14), (4, 0, 13)), id="source -1"),
    pytest.param(TETRA_FACES, _replace((3, 5, 7), (3, 5, 8)), id="sink +1"),
    pytest.param(TETRA_FACES, _replace((3, 5, 7), (3, 5, 6)), id="sink -1"),
    pytest.param(TETRA_FACES, lambda arcs: arcs[:8] + [(4, 2, 0)] + arcs[8:], id="source arc at unit"),
    pytest.param(TETRA_FACES, lambda arcs: arcs[:8] + [(2, 5, 0)] + arcs[8:], id="sink arc at unit"),
    pytest.param(TETRA_FACES, lambda arcs: arcs[:7] + arcs[8:], id="missing terminal"),
    # W = 1/2, unit 1, L = 2: edges 0 and 2 are self-glued, edge 1 joins
    # faces 0 and 1, which hold 2 and 1 against the unit 2
    pytest.param(SELF_GLUED_FACES, lambda arcs: [(0, 0, 1)] + arcs, id="self-glued arc"),
])
def test_certify_cut_rejects_a_network_off_its_weights(faces, edit):
    # each network differs from the one the weights give in one arc; the
    # flow is a maximum flow of that network and the subset one of its
    # minimum cuts, so the arc-by-arc comparison must catch it
    t = validate(faces)
    nf = t.n_faces
    weights, unit = ([7] * 6, 7) if nf == 4 else ([1] * 3, 2)  # over L = 10 and L = 2
    arcs = _closure_network(t, weights, unit)
    assert arcs == (TETRA_AT_UNIT if nf == 4 else [(0, 1, 1), (1, 3, 1)])
    changed = edit(arcs)
    assert changed != arcs
    flow, _, to_sink = _max_flow(changed, nf + 2, nf, nf + 1)
    smallest = frozenset(f for f in range(nf) if to_sink[f])
    with pytest.raises(VerificationFailed, match="network differs"):
        _certify_cut(t, weights, unit, changed, flow, [smallest])


def test_extract_certificate_rejects_nonpositive_objective(monkeypatch, tetra):
    # T2 at 1/2 is feasible: the cut finds no violating subset, and a
    # construction that claimed infeasibility would be caught
    d = const_fn(tetra, (1, 2))
    report = check_via_flow(tetra, d, "T2")
    assert report.verdict is Verdict.FEASIBLE
    assert report.certificate is None and report.slack is None
    assert isinstance(construct_structure(tetra, d, GeometryClass.HYPERBOLIC), AngleStructure)
    monkeypatch.setattr(lp, "_flow_margin", lambda t, program: None)
    with pytest.raises(VerificationFailed, match="disagree"):
        construct_structure(tetra, d, GeometryClass.HYPERBOLIC)


@pytest.mark.parametrize("cut", ["claims-feasible", "feasible"])
def test_t1_t4_cut_and_simplex_must_agree(monkeypatch, tetra, cut):
    # when the flow gives no T4 witness and the cut calls the request
    # feasible, the simplex must find one: on the tetrahedron at Dd = 4/5,
    # which is infeasible, a cut that claims otherwise is caught by the
    # simplex's empty answer; on a request the cut rightly calls feasible,
    # a simplex that finds nothing is caught too
    if cut == "claims-feasible":
        t, fn = tetra, const_fn(tetra, (4, 5), InvariantKind.DELAUNAY)
        monkeypatch.setattr(lp, "check_via_flow", lambda t, fn, theorem: make_report("T4", None))
    else:
        t, fn = fallback_request("4-faces")
        monkeypatch.setattr(lp, "simplex_solve", lambda problem: lp.Infeasible(()))
    with pytest.raises(VerificationFailed, match="construction and subset conditions disagree"):
        construct_structure(t, fn, GeometryClass.HYPERBOLIC)


def test_extract_certificate_needs_shifting(tetra):
    # weights violating only at X = {0}: neither the empty nor the full set
    from anglestruct import EdgeFunction

    values = tuple(Fraction(1, 10) if e < 3 else Fraction(11, 10) for e in range(6))
    d = EdgeFunction(values, InvariantKind.EDGE)
    assert check_via_enumeration(tetra, d, "T2").certificate == frozenset({0})
    report = check_via_flow(tetra, d, "T2")
    assert report.certificate == frozenset({0})
    assert report.slack == Fraction(-3, 10) == subset_slack(tetra, d, "T2", frozenset({0}))
    cert = construct_structure(tetra, d, GeometryClass.HYPERBOLIC)
    assert cert == make_report("T2", Fraction(-3, 10), frozenset({0}))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_extracted_certificates_always_verify(seed):
    rng = random.Random(seed)
    t = random_triangulation(rng.choice([2, 4, 6, 8]), rng)
    d = random_edge_values(t, rng, Fraction(1), Fraction(2), InvariantKind.EDGE)
    result = construct_structure(t, d, GeometryClass.HYPERBOLIC)
    if isinstance(result, FeasibilityReport):
        assert subset_slack(t, d, "T2", result.certificate) <= 0
        assert subset_slack(t, d, "T2", result.certificate) == result.slack


# --- the cut's minimum of the coverage deficit against exhaustive enumeration


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.sampled_from([2, 4, 6, 8]))
def test_coverage_deficit_matches_enumeration_sign(seed, n):
    rng = random.Random(seed)
    t = random_triangulation(n, rng)
    weights = [
        Fraction(rng.randint(1, 40), rng.randint(20, 40)) for _ in range(t.n_edges)
    ]
    # over all subsets, the empty one included: g(empty) = 0
    scaled, scale = _over_lcm(weights)
    minimum, smallest, largest, *_ = min_cut(t, scaled, scale)
    value = Fraction(minimum, scale)
    # exhaustive minimum over nonempty subsets
    best = None
    for mask in range(1, 1 << n):
        chosen = [f for f in range(n) if mask >> f & 1]
        covered = set()
        for f in chosen:
            covered.update(t.faces[f])
        val = sum((weights[e] for e in covered), Fraction(0)) - len(chosen)
        best = val if best is None else min(best, val)
    for subset in (smallest, largest):
        direct = sum(
            (weights[e] for e in set().union(*(t.faces[f] for f in subset))), Fraction(0)
        ) - len(subset)
        assert direct == value
    # the cut is exact, so the sign and the value below 0 match enumeration
    assert value == min(best, 0)
    assert (best <= 0) == bool(largest)


# --- round trips between generated structures and construction


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_equality_boundary_instances(seed):
    # scale a realizable invariant so the totals exactly fill pi*|F|;
    # the open problem then fails by equality at the empty subset, where
    # the margin program's optimum is exactly 0
    from anglestruct import EdgeFunction

    rng = random.Random(seed)
    t = random_triangulation(rng.choice([2, 4, 6, 8]), rng)
    x = random_structure(t, GeometryClass.HYPERBOLIC, rng)
    d = edge_invariant(t, x)
    total = sum(d.values, Fraction(0))
    scale = Fraction(t.n_faces) / total
    values = tuple(v * scale for v in d.values)
    if any(not Fraction(0) < v < Fraction(2) for v in values):
        return
    scaled = EdgeFunction(values, InvariantKind.EDGE)
    assert check_via_enumeration(t, scaled, "T2").verdict is Verdict.INFEASIBLE
    result = construct_structure(t, scaled, GeometryClass.HYPERBOLIC)
    assert isinstance(result, FeasibilityReport)
    assert subset_slack(t, scaled, "T2", result.certificate) <= 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_round_trip_hyperbolic(seed):
    rng = random.Random(seed)
    t = random_triangulation(rng.choice([2, 4, 6, 8, 10]), rng)
    x = random_structure(t, GeometryClass.HYPERBOLIC, rng)
    d = edge_invariant(t, x)
    w = construct_structure(t, d, GeometryClass.HYPERBOLIC)
    assert isinstance(w, AngleStructure)
    assert classify_structure(t, w) is GeometryClass.HYPERBOLIC
    assert edge_invariant(t, w).values == d.values


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_lp_check_agrees_with_enumeration(seed):
    rng = random.Random(seed)
    t = random_triangulation(rng.choice([2, 4, 6, 8]), rng)
    d = random_edge_values(t, rng, Fraction(0), Fraction(2), InvariantKind.EDGE)
    assert check_via_lp(t, d, GeometryClass.HYPERBOLIC).verdict == check_via_enumeration(t, d, "T2").verdict
    d1 = random_edge_values(t, rng, Fraction(0), Fraction(1), InvariantKind.EDGE)
    assert check_via_lp(t, d1, GeometryClass.SPHERICAL).verdict == check_via_enumeration(t, d1, "T1").verdict
    dd = random_edge_values(t, rng, Fraction(-2), Fraction(2), InvariantKind.DELAUNAY)
    assert check_via_lp(t, dd, GeometryClass.SPHERICAL).verdict == check_via_enumeration(t, dd, "T3").verdict
    dd4 = random_edge_values(t, rng, Fraction(0), Fraction(2), InvariantKind.DELAUNAY)
    assert check_via_lp(t, dd4, GeometryClass.HYPERBOLIC).verdict == check_via_enumeration(t, dd4, "T4").verdict


# --- T2/T3 programs by parametric flow against the simplex


def _edge_program_weights(t, rng, case):
    """Weights W in (0, 2) of an edge program: feasible, at the Euclidean
    boundary (optimum exactly 0), shrunk from it (feasible, several Newton
    steps), pushed past it (infeasible) or random below 4/3, whose total
    is near |F| on average, so that both outcomes occur."""
    if case == "random":
        d = random_edge_values(t, rng, Fraction(0), Fraction(4, 3), InvariantKind.EDGE)
        return list(d.values)
    geometry = GeometryClass.HYPERBOLIC if case == "feasible" else GeometryClass.EUCLIDEAN
    d = edge_invariant(t, random_structure(t, geometry, rng))
    factor = {
        "feasible": Fraction(1),
        "boundary": Fraction(1),
        "shrunk": Fraction(rng.randint(80, 99), 100),
        "pushed": Fraction(rng.randint(101, 120), 100),
    }[case]
    return [v * factor if v * factor < 2 else v for v in d.values]


def _edge_program_request(t, weights, theorem):
    """T2 prescribes the weights as its edge invariant, T3 the Delaunay
    invariant 2 - 2W whose weights 1 - Dd/2 they are."""
    if theorem == "T2":
        return EdgeFunction(tuple(weights), InvariantKind.EDGE), GeometryClass.HYPERBOLIC
    values = tuple(2 - 2 * w for w in weights)
    return EdgeFunction(values, InvariantKind.DELAUNAY), GeometryClass.SPHERICAL


def _flow_meets_simplex(t, fn, geometry):
    """The flow's optimum is the simplex optimum of the dumped program, or
    both find no witness; construct then gives a witness or the cut's
    infeasible report.  Returns the optimum, None for no witness."""
    theorem, program, _ = lp._route(t, fn, geometry)
    solved = lp._flow_margin(t, program)
    outcome = lp.simplex_solve(lp.build_construction_lp(t, fn, geometry))
    optimum = None if isinstance(outcome, lp.Infeasible) or outcome.value == 0 else -outcome.value
    assert (None if solved is None else solved[0]) == optimum
    result = construct_structure(t, fn, geometry)
    if optimum is None:
        assert result == check_via_flow(t, fn, theorem)
        assert result.verdict is Verdict.INFEASIBLE
    else:
        assert isinstance(result, AngleStructure)
    return optimum


CASES = ["feasible", "boundary", "shrunk", "pushed", "random"]


def test_flow_margin_equals_simplex_optimum_seeded(monkeypatch):
    flows = []
    cut = lp.min_cut

    def counting(*args):
        flows[-1] += 1
        return cut(*args)

    monkeypatch.setattr(lp, "min_cut", counting)
    rng = random.Random(13)
    gluings = [validate(SELF_GLUED_FACES)] + [random_triangulation(n, rng) for n in (2, 4, 6, 8, 12, 16)]
    found = {}
    for t in gluings:
        for case in CASES:
            for theorem in ("T2", "T3"):
                fn, geometry = _edge_program_request(t, _edge_program_weights(t, rng, case), theorem)
                flows.append(0)
                optimum = _flow_meets_simplex(t, fn, geometry)
                found.setdefault(case, set()).add(optimum is None)
    assert found["feasible"] == found["shrunk"] == {False}
    assert found["boundary"] == found["pushed"] == {True}
    assert found["random"] == {False, True}
    assert max(flows) > 1  # the Newton loop took more than one step


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.sampled_from([0, 2, 4, 6, 8, 10]),
    case=st.sampled_from(CASES),
    theorem=st.sampled_from(["T2", "T3"]),
)
def test_flow_margin_equals_simplex_optimum(seed, n, case, theorem):
    rng = random.Random(seed)
    # n = 0 stands for the self-glued fixture
    t = validate(SELF_GLUED_FACES) if n == 0 else random_triangulation(n, rng)
    fn, geometry = _edge_program_request(t, _edge_program_weights(t, rng, case), theorem)
    _flow_meets_simplex(t, fn, geometry)


def test_margin_flows_are_checked(monkeypatch, tetra):
    # T2 at 3/5: at m = 1/4 the empty set is the largest minimiser of g_m,
    # and its line puts the optimum at 1/10
    d = const_fn(tetra, (3, 5))
    max_flow, cut = feasibility._max_flow, lp.min_cut

    def leaky(arcs, n, source, sink):
        flow, from_source, to_sink = max_flow(arcs, n, source, sink)
        into_sink = [i for i, (_, v, _) in enumerate(arcs) if v == sink and flow[i] > 0]
        if into_sink:
            flow[into_sink[0]] -= 1  # its face keeps a unit of flow
        return flow, from_source, to_sink

    def unreached(arcs, n, source, sink):
        # every face on the sink side: the cut claims F, whose capacity is
        # the total supply, which the short flow does not reach
        flow, from_source, to_sink = max_flow(arcs, n, source, sink)
        return flow, [False] * n, to_sink

    calls = []

    def low_root(t, weights, unit):
        # the first step's minimum claimed one unit of its scale lower: the
        # Newton root falls below 1/10, where F minimises g_m but the empty
        # set does not
        minimum, *rest = cut(t, weights, unit)
        calls.append(minimum)
        return (minimum - 1 if len(calls) == 1 else minimum, *rest)

    assert lp._flow_margin(tetra, d)[0] == Fraction(1, 10)
    for module, name, fake, match in (
        (feasibility, "_max_flow", leaky, "conserved"),
        (feasibility, "_max_flow", unreached, "differs from the flow value"),
        (lp, "min_cut", low_root, "last line"),
    ):
        with monkeypatch.context() as m:
            m.setattr(module, name, fake)
            with pytest.raises(VerificationFailed, match=match):
                construct_structure(tetra, d, GeometryClass.HYPERBOLIC)


def test_newton_loop_is_bounded(monkeypatch):
    # each step's slope is an integer in [1, 4|F|] that falls strictly, so
    # a network that misstates the program (every source arc one unit too
    # large) raises instead of looping: draw 42 (4 faces) finds the same
    # minimiser at every step, its slope never falls, and without the check
    # the loop would not end
    network, cut, cuts = feasibility._closure_network, lp.min_cut, []

    def inflated(t, weights, unit):
        arcs = network(t, weights, unit)
        return [(u, v, c + 1) if u == t.n_faces else (u, v, c) for u, v, c in arcs]

    def counted(t, weights, unit):
        cuts.append(None)
        assert len(cuts) <= 4 * t.n_faces + 1, "more cuts than slopes"
        return cut(t, weights, unit)

    monkeypatch.setattr(feasibility, "_closure_network", inflated)
    monkeypatch.setattr(lp, "min_cut", counted)
    rng, outcomes = random.Random(42), []
    for _ in range(43):
        t = random_triangulation(rng.choice((4, 6, 8)), rng)
        fn = edge_invariant(t, random_structure(t, GeometryClass.HYPERBOLIC, rng))
        cuts.clear()
        try:
            outcomes.append(type(construct_structure(t, fn, GeometryClass.HYPERBOLIC)).__name__)
        except VerificationFailed as error:
            outcomes.append(str(error))
    assert t.n_faces == 4 and outcomes[42] == "the Newton slope did not fall"


@pytest.mark.parametrize(
    "kind, claimed, cuts",
    [(InvariantKind.EDGE, {0}, 2), (InvariantKind.DELAUNAY, {0}, 2), (InvariantKind.DELAUNAY, set(), 2)],
    ids=["edge-program", "delaunay-program", "delaunay-program-empty-set"],
)
def test_a_slope_that_does_not_fall_raises(monkeypatch, tetra, kind, claimed, cuts):
    # T2 and T4 at 3/5 on the tetrahedron, through the Newton loop that both
    # programs share (T4's on the edge program with weights Dd): a cut that
    # claims the same minimiser X at every step, just below g_m(F), moves
    # the margin once with the slope |F - X| + |dX| (3 + 3 for X = {0}, 4
    # + 0 for the empty set), and the second step's equal slope raises
    cut, calls = lp.min_cut, []

    def claiming(t, weights, unit):
        calls.append(None)
        _, smallest, _, *rest = cut(t, weights, unit)
        return (sum(weights) - unit * t.n_faces - 1, smallest, frozenset(claimed), *rest)

    monkeypatch.setattr(lp, "min_cut", claiming)
    with pytest.raises(VerificationFailed, match="the Newton slope did not fall"):
        construct_structure(tetra, const_fn(tetra, (3, 5), kind), GeometryClass.HYPERBOLIC)
    assert len(calls) == cuts


class _FirstStep(Exception):
    pass


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.sampled_from([0, 2, 4, 6]),
    scale=st.sampled_from([1, 2, 6, 10, 12, 45, 10**4]),
    kind=st.sampled_from(InvariantKind),
)
@example(seed=0, n=4, scale=10, kind=InvariantKind.EDGE)  # D and q share 5: the gcd is at least 5
@example(seed=1, n=2, scale=1, kind=InvariantKind.EDGE)  # m = 1/4: the unit 1 - 4m is 0
def test_newton_step_network_is_the_exact_one(seed, n, scale, kind):
    # a Newton step shifts the weights, ints over one scale D, by m = p/q
    # in ints over D*q, reduced by their gcd: the first step's network, at
    # the start m = min(min W/2, 1/4), must be, arc for arc and at the same
    # scale, the one of the exact Fractions W - 2m and 1 - 4m over the lcm
    # of their denominators, for an edge or a Delaunay program alike
    rng = random.Random(seed)
    t = validate(SELF_GLUED_FACES) if n == 0 else random_triangulation(n, rng)
    values = tuple(Fraction(rng.randint(1, 3 * scale), scale) for _ in range(t.n_edges))
    margin = min(min(values) / 2, Fraction(1, 4))
    exact = [v - 2 * margin for v in values] + [1 - 4 * margin]
    (*scaled, face), _ = _over_lcm(exact)
    steps = []

    def first_step(t, weights, unit):
        steps.append((weights, unit, _closure_network(t, weights, unit)))
        raise _FirstStep

    with pytest.MonkeyPatch.context() as m:
        m.setattr(lp, "min_cut", first_step)
        with pytest.raises(_FirstStep):
            lp._flow_margin(t, EdgeFunction(values, kind))
    assert steps == [(scaled, face, _closure_network(t, scaled, face))]


def test_newton_step_from_all_faces_but_one(self_glued):
    # W = (1/5, 1/2, 9/10) on the self-glued pair, feasible for T2: at the
    # start margin 1/10 the largest minimiser of g_m is face 0 alone, F
    # minus one face (face 1 carries edge 2 twice, which it alone covers),
    # so the flow falls short and one Newton step reaches the optimum 1/20
    weights = [Fraction(1, 5), Fraction(1, 2), Fraction(9, 10)]
    shifted = [w - Fraction(1, 5) for w in weights]
    (*scaled, face), scale = _over_lcm([*shifted, Fraction(3, 5)])
    minimum, smallest, largest, *_ = min_cut(self_glued, scaled, face)
    assert (Fraction(minimum, scale), smallest, largest) == (Fraction(-3, 10), {0}, {0})
    program = EdgeFunction(tuple(weights), InvariantKind.EDGE)
    margin, _ = lp._flow_margin(self_glued, program)
    assert margin == Fraction(1, 20) == -lp.simplex_solve(lp._margin_lp(self_glued, program)).value
    w = construct_structure(self_glued, program, GeometryClass.HYPERBOLIC)
    assert isinstance(w, AngleStructure)
    assert edge_invariant(self_glued, w) == program


def test_construct_checks_what_it_returns(monkeypatch, tetra):
    # a witness off its invariant, a transformed witness of the wrong
    # class, and a cut report that is not infeasible, whose subset does not
    # violate or whose slack is not its subset's: each is caught before
    # construct returns it
    flow_margin = lp._flow_margin

    def off(t, program):
        margin, a = flow_margin(t, program)
        return margin, [a[0] + Fraction(1, 100)] + a[1:]

    feasible = make_report("T2", None)
    wrong = make_report("T2", Fraction(-1, 5), frozenset({0}))
    misstated = make_report("T2", Fraction(-3, 10), frozenset())  # the empty set's slack is -1/5
    for name, fake, geometry, value, match in (
        ("_flow_margin", off, GeometryClass.HYPERBOLIC, (3, 5), "margin witness"),
        ("corner_transform", lambda t, x: x, GeometryClass.SPHERICAL, (7, 10), "transformed witness"),
        ("check_via_flow", lambda t, fn, theorem: feasible, GeometryClass.HYPERBOLIC, (7, 10), "disagree"),
        ("check_via_flow", lambda t, fn, theorem: wrong, GeometryClass.HYPERBOLIC, (7, 10), "does not violate"),
        ("check_via_flow", lambda t, fn, theorem: misstated, GeometryClass.HYPERBOLIC, (7, 10), "does not violate"),
    ):
        with monkeypatch.context() as m:
            m.setattr(lp, name, fake)
            with pytest.raises(VerificationFailed, match=match):
                construct_structure(tetra, const_fn(tetra, value), geometry)


@pytest.mark.parametrize("index, theorem", [(12, "T1"), (14, "T3")], ids=["T1", "T3"])
def test_construct_work_counts(monkeypatch, face_terms_builds, index, theorem):
    # a spherical construct at 12 faces builds each structure's face ints
    # once (the margin witness's ints serve both its check and the corner
    # transform), builds the closure network twice per cut (the cut and its
    # check) and checks two witnesses, the program's and the transformed one
    t, fn, geometry = list(pinned_construct_requests())[index]
    assert geometry is GeometryClass.SPHERICAL and lp._route(t, fn, geometry)[0] == theorem
    face_terms_builds.clear()  # those of the structures the request was drawn from
    cuts, networks, checks = [], [], []
    cut, network, witness_ok = lp.min_cut, feasibility._closure_network, lp._witness_ok

    def counted(calls, function):
        return lambda *args: calls.append(None) or function(*args)

    monkeypatch.setattr(lp, "min_cut", counted(cuts, cut))
    monkeypatch.setattr(feasibility, "_closure_network", counted(networks, network))
    monkeypatch.setattr(lp, "_witness_ok", counted(checks, witness_ok))
    witness = construct_structure(t, fn, geometry)
    assert isinstance(witness, AngleStructure)
    assert len(checks) == 2
    assert cuts and len(networks) == 2 * len(cuts)
    assert len(face_terms_builds) == len({id(x) for x in face_terms_builds}) == 2
    assert face_terms_builds[-1] is witness
