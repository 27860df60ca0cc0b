"""Subset conditions of the feasibility theorems, decided by enumeration
or by one exact minimum cut.

Each characterization quantifies a linear inequality over face subsets:

* spherical edge invariant (T1) and hyperbolic Delaunay invariant (T4):
  over every nonempty subset X, pi*|X| must stay below the weight of the
  edges E(X) touched by X;
* hyperbolic edge invariant (T2), spherical Delaunay invariant (T3, by
  substitution into T2) and the closure variant (L7): over every proper
  subset X including the empty one, pi*(|F|-|X|) must stay above the
  weight of the edges outside E(X), strictly for T2/T3 and weakly for L7.

In pi-units all of them minimise slack(X) = g(X) + c with g(X) =
W(E(X)) - |X|: T1/T4 over nonempty X with c = 0, T2/T3/L7 over proper X
with c = |F| - W(E).  The weight W is the invariant itself for T1, T2 and
L7 and pi - Dd/2 for T3 and T4.  The minimisers of g are closed under
union and intersection (Picard and Queyranne 1980), so every decider
reports one certificate: the meet of the subsets attaining the minimum
slack over the quantifier range or, for T1/T4 at slack exactly 0, where
the excluded empty set attains 0 too, their join.  Every decider also
reports that minimum exactly when it is <= 0, which the cut always knows,
so all of them give one report.

``check_via_enumeration`` minimises over every subset in integer slacks
scaled by L, the lcm of the weight denominators, by a dynamic program
that places the faces one at a time and keeps one state per subset of
the placed faces that still border an unplaced one (``_scan``); the
slack of the subset it reports is re-evaluated exactly.  ``check_via_flow`` decides
the same conditions in polynomial time: min g over all subsets is a
maximum-closure problem (Picard 1976), solved by one maximum flow, whose
smallest and largest minimisers are the meet and the join.  ``min_cut``
builds that one network on the dual graph, a node per face, in ints at
one scale L: the weights times L and a face capacity ``unit`` (L here),
and proves its cut against the flow; the LP construction's Newton steps
run on it too, each at its own scale.

``THEOREMS`` states each condition once, as a row of data: geometry,
invariant kind (which fixes the weight map), domain, quantifier and
strictness (which also fixes whether the domain is open).  Every decider
here takes a theorem by its name in that table, and the LP construction
and the command line read it too.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from fractions import Fraction

from .angles import EdgeFunction, GeometryClass, InvariantKind, _over_lcm
from .errors import DimensionMismatch, RangeViolation, TooLarge, VerificationFailed
from .ratpi import render
from .surface import DEFAULT_ENUMERATION_CAP, FaceSubset, Triangulation, edge_set

class Theorem(namedtuple("Theorem", "geometry kind lo hi nonempty strict")):
    """One subset condition, stated as data.

    geometry: GeometryClass; kind: InvariantKind; lo, hi: Fraction, the
    domain; nonempty, strict: bool.  The invariant must lie in lo < v < hi
    on every edge for a strict condition and in lo <= v <= hi for the weak
    one, in pi-units.  The edge weight is W = pi - v/2 for a Delaunay
    invariant, else v itself.  The inequality is quantified over nonempty
    subsets in the grow form W(E(X)) - pi|X| when nonempty, else over
    proper subsets (the empty one included) in the shrink form.
    """

    __slots__ = ()

    def violated(self, slack: Fraction) -> bool:
        """A strict inequality is already violated at slack 0."""
        return slack <= 0 if self.strict else slack < 0

    def certificate(self, slack: Fraction, meet: FaceSubset, join: FaceSubset) -> FaceSubset:
        """Meet of the subsets attaining the minimum slack; join at a T1/T4 zero tie."""
        return join if self.nonempty and slack == 0 else meet


_SPH, _HYP = GeometryClass.SPHERICAL, GeometryClass.HYPERBOLIC
_EDGE, _DEL = InvariantKind.EDGE, InvariantKind.DELAUNAY
THEOREMS = {
    # geometry, kind, domain lo and hi, nonempty, strict
    "T1": Theorem(_SPH, _EDGE, Fraction(0), Fraction(1), True, True),
    "T2": Theorem(_HYP, _EDGE, Fraction(0), Fraction(2), False, True),
    "T3": Theorem(_SPH, _DEL, Fraction(-2), Fraction(2), False, True),
    "T4": Theorem(_HYP, _DEL, Fraction(0), Fraction(2), True, True),
    "L7": Theorem(_HYP, _EDGE, Fraction(0), Fraction(2), False, False),
}


def theorem_for(geometry: GeometryClass, kind: InvariantKind) -> str:
    """The existence theorem (T1-T4) for a geometry and invariant kind;
    L7, the weak closure variant, is never the answer."""
    for name, row in THEOREMS.items():
        if row.strict and row.geometry is geometry and row.kind is kind:
            return name
    raise RangeViolation(f"no theorem for {geometry.value} geometry with a {kind.value} invariant")


class Verdict(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    CLOSURE_ONLY = "closure-only"


class QuantifierRange(Enum):
    NONEMPTY_SUBSETS = "nonempty-subsets"
    PROPER_SUBSETS_INCL_EMPTY = "proper-subsets-incl-empty"


class FeasibilityReport(namedtuple("FeasibilityReport", "verdict theorem certificate slack")):
    """A theorem's verdict: Verdict, its name theorem: str in THEOREMS, the
    violating certificate: FaceSubset when infeasible and the exact minimum
    slack: Fraction over the quantifier range when it is <= 0, else None."""

    __slots__ = ()

    @property
    def quantifier_range(self) -> QuantifierRange:
        if THEOREMS[self.theorem].nonempty:
            return QuantifierRange.NONEMPTY_SUBSETS
        return QuantifierRange.PROPER_SUBSETS_INCL_EMPTY


def _weights(t: Triangulation, fn: EdgeFunction, row: Theorem) -> list[Fraction]:
    """W per edge, after checking that fn has one value per edge of t."""
    if len(fn.values) != t.n_edges:
        raise DimensionMismatch(f"{len(fn.values)} invariant values for {t.n_edges} edges")
    if row.kind is InvariantKind.DELAUNAY:  # 1 - v/2, without Fraction arithmetic
        return [Fraction(2 * v.denominator - v.numerator, 2 * v.denominator) for v in fn.values]
    return list(fn.values)


def theorem_weights(t: Triangulation, fn: EdgeFunction, theorem: str) -> list[Fraction]:
    """Edge weights W of the theorem's inequality, after checking that fn
    has the theorem's invariant kind, one value per edge and every value in
    the theorem's domain."""
    row = THEOREMS[theorem]
    if fn.kind is not row.kind:
        raise RangeViolation(f"{theorem} needs a {row.kind.value} invariant, got {fn.kind.value}")
    weights = _weights(t, fn, row)
    (lo_n, lo_d), (hi_n, hi_d) = row.lo.as_integer_ratio(), row.hi.as_integer_ratio()
    for e, v in enumerate(fn.values):
        # the signs of v - lo and hi - v, by integer cross-multiplication
        above, below = v.numerator * lo_d - lo_n * v.denominator, hi_n * v.denominator - v.numerator * hi_d
        if not (above > 0 < below if row.strict else above >= 0 <= below):
            raise RangeViolation(f"{theorem}: value {render(v)} at edge {e} outside domain")
    return weights


def _offset(t: Triangulation, scaled: list[int], scale: int, grow_form: bool) -> int:
    """c*L in slack(X) = g(X) + c, for weights W*L: 0 in grow form."""
    return 0 if grow_form else t.n_faces * scale - sum(scaled)


def _placements(t: Triangulation, scaled: list[int], scale: int):
    """Per face v, in the order the scan places them, (bit of v, mask of
    the placed faces across v, gain, table, frontier), with edges booked
    when their second face is placed: placing v in X adds `gain`, the
    weight W*L of v's edges to placed faces and of its self-glued ones,
    less L; leaving it out adds table[X & mask], the weight of its edges to
    the placed faces in X, summed per face since two faces can share two or
    three edges.  The frontier is then the placed faces with an unplaced
    neighbour.  The order starts at face 0 and takes next the unplaced face
    with the most placed neighbours, the lowest on a tie."""
    n = t.n_faces
    shared: list[dict[int, int]] = [{} for _ in range(n)]  # f -> g -> W*L of the edges f and g share
    for e, ((f, _), (g, _)) in enumerate(t.edge_corners):
        shared[f][g] = shared[f].get(g, 0) + scaled[e]
        if g != f:
            shared[g][f] = shared[g].get(f, 0) + scaled[e]
    across = [sum(1 << g for g in shared[f] if g != f) for f in range(n)]
    placed = frontier = 0
    ahead = [0] * n  # placed neighbours of each unplaced face; -inf once placed
    for _ in range(n):
        v = ahead.index(max(ahead))
        ahead[v] = float("-inf")
        for g in shared[v]:
            ahead[g] += 1
        back = {g: w for g, w in shared[v].items() if placed >> g & 1}
        table = {0: 0}
        for g, w in back.items():  # by doubling
            table.update([(s | 1 << g, x + w) for s, x in table.items()])
        near = across[v] & placed
        placed |= 1 << v
        frontier |= 1 << v
        for f in (v, *back):
            if not across[f] & ~placed:
                frontier ^= 1 << f
        yield 1 << v, near, sum(back.values()) + shared[v].get(v, 0) - scale, table, frontier


def _scan(t: Triangulation, weights: list[Fraction], grow_form: bool, cap: int):
    """Minimum slack over nonempty X in grow form (T1/T4), proper X else, the
    meet and join of its minimisers and one of them.

    A dynamic program over the dual graph, in ints scaled by L, the lcm of
    the weight denominators, placing one face at a time (``_placements``).
    A state is the part of X on the frontier; it keeps the least slack of
    the prefixes that reach it and their meet, their join and one of them,
    which is all the later steps need.  The excluded prefix (empty in grow
    form, every placed face else) keeps a state of its own, keyed by bit
    |F|, so no merge mixes it in.  The cost is about |F| * 2^w for w the
    widest frontier: about |F|/4 faces on random gluings (a median of 10 at
    40 faces), where the dual cubic graph's pathwidth is at most |F|/6 +
    o(|F|) (Fomin and Hoie 2006).
    """
    n = t.n_faces
    if n > cap:
        raise TooLarge(f"{n} faces exceeds enumeration cap {cap}")
    scaled, scale = _over_lcm(weights)
    excluded = 1 << n
    states = {excluded: [_offset(t, scaled, scale, grow_form), 0, 0, 0]}
    for bit, near, gain, table, frontier in _placements(t, scaled, scale):
        keep_out, keep_in = (frontier | excluded, frontier) if grow_form else (frontier, frontier | excluded)
        merged: dict[int, list[int]] = {}
        for s, (slack, meet, join, first) in states.items():
            key, value = s & keep_out, slack + table[s & near]
            old = merged.get(key)
            if old is None or value < old[0]:
                merged[key] = [value, meet, join, first]
            elif value == old[0]:
                old[1] &= meet
                old[2] |= join
            key, value = (s | bit) & keep_in, slack + gain
            old = merged.get(key)
            if old is None or value < old[0]:
                merged[key] = [value, meet | bit, join | bit, first | bit]
            elif value == old[0]:
                old[1] &= meet | bit
                old[2] |= join | bit
        states = merged
    slack, *masks = states[0]
    subsets = (frozenset(f for f in range(n) if m >> f & 1) for m in masks)
    return (Fraction(slack, scale), *subsets)


def make_report(theorem: str, slack: Fraction | None, subset: FaceSubset | None = None) -> FeasibilityReport:
    """Report for a theorem whose minimum slack over the quantifier range
    is `slack`, attained by `subset`, or is positive when `slack` is None.
    Every decider knows a minimum <= 0, so the report keeps exactly such a
    slack, and the certificate only when the slack violates the inequality."""
    row = THEOREMS[theorem]
    slack = slack if slack is not None and slack <= 0 else None
    violated = slack is not None and row.violated(slack)
    if violated:
        verdict = Verdict.INFEASIBLE
    else:
        verdict = Verdict.FEASIBLE if row.strict else Verdict.CLOSURE_ONLY
    return FeasibilityReport(
        verdict=verdict,
        theorem=theorem,
        certificate=subset if violated else None,
        slack=slack,
    )


def check_via_enumeration(
    t: Triangulation, fn: EdgeFunction, theorem: str, cap: int = DEFAULT_ENUMERATION_CAP
) -> FeasibilityReport:
    """Decide T1-T4 or L7 exactly by scanning every subset in the
    theorem's quantifier range; more than `cap` faces raise TooLarge."""
    row = THEOREMS[theorem]
    slack, meet, join, first = _scan(t, theorem_weights(t, fn, theorem), row.nonempty, cap)
    violated = row.violated(slack)
    # first is one subset attaining the minimum, whichever the scan kept
    subset = row.certificate(slack, meet, join) if violated else first
    if subset_slack(t, fn, theorem, subset) != slack:
        raise VerificationFailed(f"scan slack {slack} differs from that of {sorted(subset)}")
    return make_report(theorem, slack, subset)


def check_closure(
    t: Triangulation, d: EdgeFunction, cap: int = DEFAULT_ENUMERATION_CAP
) -> FeasibilityReport:
    """The closure of the hyperbolic solution set is nonempty iff every
    proper subset satisfies the T2 inequality weakly (L7)."""
    return check_via_enumeration(t, d, "L7", cap)


def subset_slack(t: Triangulation, fn: EdgeFunction, theorem: str, subset: FaceSubset) -> Fraction:
    """Exact slack of one subset under the named theorem's inequality.

    Negative or zero means the subset certifies infeasibility (for L7,
    only strictly negative does).  Used to re-verify certificates.
    """
    row = THEOREMS[theorem]
    scaled, scale = _over_lcm(_weights(t, fn, row))
    covered = sum(scaled[e] for e in edge_set(t, subset))
    return Fraction(covered - len(subset) * scale + _offset(t, scaled, scale, row.nonempty), scale)


# ---------------------------------------------------------------------------
# the minimum-cut decider


def _closure_network(t: Triangulation, weights: list[int], unit: int):
    """Arcs (tail, head, capacity) of the closure network on the dual graph,
    for int weights and an int unit, both already scaled by a common L.

    Nodes: faces 0..|F|-1, then source and sink.  Each edge's weight goes
    to its first face f1, so face f holds pre(f), the weight of the edges
    it comes first on.  Each edge whose second face f2 is not f1 gives an
    arc f1 -> f2 (W(e)), in edge order: flow on it moves weight to f2.
    Then, in face order, a face whose excess pre(f) - unit is positive gets
    an arc from the source and one whose excess is negative an arc to the
    sink, of capacity |excess|.  The cut with X on the sink side has
    capacity g(X) + the sum over f of max(0, unit - pre(f)).  This is
    Picard and Queyranne's closure network on the dual cubic graph.
    """
    nf = t.n_faces
    excess = [-unit] * nf
    arcs = []
    for e, ((f1, _), (f2, _)) in enumerate(t.edge_corners):
        excess[f1] += weights[e]
        if f2 != f1:
            arcs.append((f1, f2, weights[e]))
    arcs += [(nf, f, x) if x > 0 else (f, nf + 1, -x) for f, x in enumerate(excess) if x]
    return arcs


def _max_flow(arcs, n: int, source: int, sink: int):
    """Dinic's maximum flow on integer capacities.

    Returns the flow on each arc, the nodes the source reaches in the final
    residual graph and the nodes from which the sink is reachable there.
    """
    head: list[int] = []
    cap: list[int] = []
    out: list[list[int]] = [[] for _ in range(n)]
    for u, v, c in arcs:  # arc 2i runs u -> v, arc 2i+1 is its residual reverse
        out[u].append(len(head))
        head.append(v)
        cap.append(c)
        out[v].append(len(head))
        head.append(u)
        cap.append(0)

    while True:
        level = [-1] * n
        level[source] = 0
        queue = [source]
        for u in queue:
            if 0 <= level[sink] <= level[u]:
                break  # no shortest path to the sink runs through u
            for a in out[u]:
                if cap[a] and level[head[a]] < 0:
                    level[head[a]] = level[u] + 1
                    queue.append(head[a])
        if level[sink] < 0:
            break
        # blocking flow along level-increasing arcs, with current-arc pointers
        pointer = [0] * n
        path: list[int] = []
        u = source
        while True:
            if u == sink:
                push = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= push
                    cap[a ^ 1] += push
                path.clear()
                u = source
                continue
            arcs_u, i, nxt = out[u], pointer[u], level[u] + 1
            while i < len(arcs_u) and not (cap[arcs_u[i]] and level[head[arcs_u[i]]] == nxt):
                i += 1
            pointer[u] = i
            if i < len(arcs_u):
                path.append(arcs_u[i])
                u = head[arcs_u[i]]
            elif u == source:
                break
            else:
                u = head[path.pop() ^ 1]
                pointer[u] += 1

    reaches_sink = [False] * n
    reaches_sink[sink] = True
    queue = [sink]
    for v in queue:
        for a in out[v]:
            if cap[a ^ 1] and not reaches_sink[head[a]]:
                reaches_sink[head[a]] = True
                queue.append(head[a])
    flow = [c - cap[2 * i] for i, (_, _, c) in enumerate(arcs)]
    return flow, [lv >= 0 for lv in level], reaches_sink


def _flow_value(arcs, flow, n: int) -> int:
    """Value of `flow` on a network of n nodes whose last two are the
    source and the sink, after checking that it respects every arc's
    capacity and is conserved at every other node."""
    net = [0] * n
    for (u, v, c), x in zip(arcs, flow, strict=True):
        if not 0 <= x <= c:
            raise VerificationFailed(f"flow {x} on arc {u}->{v} outside [0, {c}]")
        net[u] -= x
        net[v] += x
    if any(net[:-2]):
        raise VerificationFailed("flow is not conserved")
    return net[-1]


def _certify_cut(t: Triangulation, weights: list[int], unit: int, arcs, flow, subsets) -> int:
    """Prove that every subset in `subsets` minimises g(X) = W(E(X)) -
    unit*|X| over int weights and an int unit; return the minimum.

    The network must be, arc for arc, the closure network that the weights
    and the unit give.  `flow` must respect its capacities and
    conservation, and its value must equal the capacity g(X) + base of the
    cut with X on the sink side, where g(X) is summed from the weights and
    base is the total sink capacity.  Max-flow = min-cut then proves that X
    minimises g.
    """
    if arcs != _closure_network(t, weights, unit):
        raise VerificationFailed("the network differs from the one the weights and the unit give")
    nf = t.n_faces
    value = _flow_value(arcs, flow, nf + 2)
    base = sum(c for _, v, c in arcs if v == nf + 1)
    minimum = None
    for subset in subsets:
        minimum = sum(weights[e] for e in edge_set(t, subset)) - len(subset) * unit
        if base + minimum != value:
            raise VerificationFailed(f"cut of {sorted(subset)} differs from the flow value")
    return minimum


def min_cut(t: Triangulation, weights: list[int], unit: int):
    """Exact minimum of g(X) = W(E(X)) - unit*|X| over all face subsets X,
    for nonnegative int weights and unit at one scale, with its
    smallest and its largest minimiser, both proven minimal by the cut =
    flow self-check, then the network's arcs and that flow.  Face f is node
    f, the source node |F| and the sink |F|+1.
    """
    nf = t.n_faces
    arcs = _closure_network(t, weights, unit)
    flow, from_source, to_sink = _max_flow(arcs, nf + 2, nf, nf + 1)
    smallest = frozenset(f for f in range(nf) if to_sink[f])
    largest = frozenset(f for f in range(nf) if not from_source[f])
    minimum = _certify_cut(t, weights, unit, arcs, flow, (smallest, largest))
    return minimum, smallest, largest, arcs, flow


def check_via_flow(t: Triangulation, fn: EdgeFunction, theorem: str) -> FeasibilityReport:
    """Decide T1-T4 or L7 exactly with one minimum cut, at any size; the
    report is the one check_via_enumeration gives."""
    row = THEOREMS[theorem]
    scaled, scale = _over_lcm(theorem_weights(t, fn, theorem))
    minimum, smallest, largest, *_ = min_cut(t, scaled, scale)
    slack = Fraction(minimum + _offset(t, scaled, scale, row.nonempty), scale)
    subset = row.certificate(slack, smallest, largest)
    # the excluded set (empty in grow form, F otherwise) has slack 0, so the
    # cut's minimum is the range's unless that set is the only one attaining
    # it, and then the range's minimum is positive
    if len(subset) == (0 if row.nonempty else t.n_faces):
        slack = None
    return make_report(theorem, slack, subset)
