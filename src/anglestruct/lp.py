"""Exact-rational linear programming path: witness construction.

The solver is a two-phase simplex over sparse integer rows: each tableau
row is a dict of its nonzero int numerators over one positive row
denominator, in lowest terms.  An elimination with pivot d and row factor
f first divides both by gcd(d, f), so the row is multiplied only by what d
does not share with f, and then divides out the gcd of the result; a pivot
touches only nonzeros and is exact without ``Fraction`` arithmetic.  The
entering column has the most negative reduced cost (Dantzig's rule); after
a fixed run of degenerate pivots Bland's rule takes over until the point
moves, so the run ends even on the highly degenerate symmetric instances
this domain produces.  A problem is stored only as its integer rows
(``LpProblem.row_terms``), and the margin program is built in that form.  The
point, value and multipliers become ``Fraction``s only when read out and
checked, against those rows and the column view built from them.  The
artificial columns stay in the tableau, so the multipliers y = c_B^t B^-1
of the final basis read off the objective row as y_i = c_u - r_u at row
i's initial unit column u: at an optimum they are the dual, and when phase
1 ends positive, under the phase-1 costs, a Farkas vector (A^t y <= 0,
b^t y > 0).  The program must be bounded, as every margin program below is
(its face rows, all coefficients >= 0 and right-hand side 1, hold every
column): an unbounded phase raises.

Construction rests on one margin program over x_i = a_i + m, a_i >= 0:
maximize m subject to the face bound a_i+a_j+a_k+4*m <= pi and the
invariant equations (facing pair + 2*m for an edge invariant, signed
corner sum + 2*m for a Delaunay invariant).  Every corner is then at
least m and every face sum at most pi - m, so a positive optimum is a
strictly hyperbolic witness; and a strictly hyperbolic witness is a
feasible point with m = min(min x_i, pi - max face sum) > 0, so an
optimum of 0 or an infeasible program means that no witness exists.
Each of T1-T4 solves the program of the hyperbolic theorem with the same
quantifier (T4's Delaunay program for T1 and T4, T2's edge program for T2
and T3) and, where the geometry is spherical, maps its witness back with
the corner transform that belongs to that program.

``construct_structure`` solves both programs by parametric minimum cut:
at a fixed m, the edge program is a transportation problem on the network
of ``feasibility.min_cut``, and Newton steps on its largest minimiser
reach its optimum in a few cuts, each proven by the network's check.  The
Delaunay program takes the edge program's witness for the weights Dd
through the half-sum map, which keeps every face sum and the margin and
turns the edge invariant Dd into the Delaunay invariant Dd; that witness
is not the max-margin one.  When the flow gives no witness, the minimum
cut of ``feasibility.check_via_flow`` decides: its infeasible report is
returned, its subset re-evaluated exactly, and only a Delaunay program
that the cut calls feasible goes to the simplex, which must then find a
witness.  ``check_via_lp`` reports ``construct_structure``'s answer:
feasible exactly when it returns a witness.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property
from fractions import Fraction

from .angles import (
    AngleStructure,
    EdgeFunction,
    GeometryClass,
    InvariantKind,
    _over_lcm,
    classify_structure,
    corner_transform,
    corner_transform_inverse,
    mismatched_edges,
)
from .errors import DimensionMismatch, OutOfRange, VerificationFailed
from .feasibility import (
    THEOREMS,
    FeasibilityReport,
    Verdict,
    check_via_flow,
    make_report,
    min_cut,
    subset_slack,
    theorem_for,
    theorem_row,
    theorem_weights,
)
from .ratpi import render
from .surface import Triangulation, edge_set

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# problem / outcome types


class LpProblem(namedtuple("LpProblem", "row_terms c")):
    """min c.x  subject to  A x = b, x >= 0, all data rational, stored only
    as A's rows scaled to integers: row i is the nonzeros (j, L_i a_ij),
    then L_i b_i and L_i > 0, with L_i the lcm of the row's denominators.
    row_terms: tuple of (tuple[tuple[int, int], ...], int, int);
    c: tuple[Fraction, ...]."""

    def __new__(cls, row_terms, c):
        n = len(c)
        for terms, _, scale in row_terms:
            if scale <= 0:
                raise DimensionMismatch("row scale is not positive")
            if any(not 0 <= j < n for j, _ in terms):
                raise DimensionMismatch("row names a column outside c")
        return super().__new__(cls, row_terms, c)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace runs __new__'s checks

    @cached_property
    def col_terms(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The nonzeros (i, L_i a_ij) of each column of A, scaled as in
        row_terms, also when A has no rows."""
        cols = [[] for _ in self.c]
        for i, (terms, _, _) in enumerate(self.row_terms):
            for j, v in terms:
                cols[j].append((i, v))
        return tuple(map(tuple, cols))

    @property
    def n_rows(self) -> int:
        return len(self.row_terms)

    @property
    def n_cols(self) -> int:
        return len(self.c)


class Optimal(namedtuple("Optimal", "x value dual")):
    """The point x, value c.x and multipliers dual: Fractions."""
    __slots__ = ()


class Infeasible(namedtuple("Infeasible", "certificate")):
    """A Farkas vector certificate: tuple[Fraction, ...]."""
    __slots__ = ()


# ---------------------------------------------------------------------------
# simplex kernel
#
# The tableau is a list of augmented rows [B^-1 A | B^-1 b], one per
# constraint and in the constraints' order for the whole solve, then one
# objective row of reduced costs whose right-hand side is minus the
# objective value.  Row i is a dict of its nonzero numerators over the
# positive denominator dens[i], the right-hand side under the key _RHS, and
# basis[i] is its basic column.  Column n + i, row i's artificial, starts
# as a unit column of row i and stays; only columns j < n enter, so it is
# never basic again once it leaves.  A redundant row keeps its artificial
# basic at 0 and no real column: no ratio test picks it, no pivot changes it.

_RHS = -1
# Dantzig's rule gives way to Bland's after this many degenerate pivots in a
# row, until the next pivot that moves the point
_DEGENERATE_RUN = 10


def _pivot(rows, dens, basis, r, col):
    """Make col basic in row r: normalise it to the denominator d = prow[col]
    > 0, then set every other row with a nonzero factor in col, the objective
    row included, to (target * d' - factor' * prow) / (dens[i] * d'), reduced,
    with d', factor' = d, factor over their gcd.  Each pass visits nonzeros,
    in the artificial columns too, and updates the row's dict in place."""
    prow = rows[r]
    g = math.gcd(*prow.values()) if prow[col] > 0 else -math.gcd(*prow.values())
    if g != 1:
        for j, v in prow.items():
            prow[j] = v // g
    dens[r] = d = prow[col]
    terms = prow.items()
    for i, target in enumerate(rows):
        factor = target.get(col)
        if factor and i != r:
            h = math.gcd(d, factor)
            scale, factor = d // h, factor // h
            if scale != 1:
                for j, v in target.items():
                    target[j] = v * scale
            for j, v in terms:
                w = target.get(j, 0) - factor * v
                if w:
                    target[j] = w
                else:
                    del target[j]
            g = math.gcd(*target.values(), dens[i] * scale)
            if g != 1:
                for j, v in target.items():
                    target[j] = v // g
            dens[i] = dens[i] * scale // g
    basis[r] = col


def _run(rows, dens, basis, n, costs, phase):
    """Price costs (one per column, artificials included) into the
    objective row, then run the simplex over the columns j < n; a column
    that enters with no row to bound it raises VerificationFailed.

    Pricing pivots again on each basic column that has a nonzero cost.  The
    entering column has the most negative reduced-cost numerator (the
    objective row has one denominator), the lowest such index on a tie.
    After _DEGENERATE_RUN degenerate pivots in a row it is the lowest index
    with a negative reduced cost (Bland's rule), until a pivot moves the
    point.  A pivot that moves the point lowers the objective, so no basis
    comes back across one, and Bland's rule cannot cycle between two; the
    run ends.  Ratios rhs_i / coeff_i compare by cross-multiplication; the
    row denominators cancel."""
    nums, scale = _over_lcm(costs)
    rows[len(basis):], dens[len(basis):] = [{j: v for j, v in enumerate(nums) if v}], [scale]
    for r, col in enumerate(basis):
        if col in rows[-1]:
            _pivot(rows, dens, basis, r, col)
    degenerate = 0
    while True:
        entering = [(v, j) for j, v in rows[-1].items() if v < 0 and 0 <= j < n]
        if not entering:
            return
        enter = min(entering)[1] if degenerate < _DEGENERATE_RUN else min(j for _, j in entering)
        leave, best_rhs, best_coeff = -1, 1, 0  # 1/0: every ratio is smaller
        for i, col in enumerate(basis):
            coeff = rows[i].get(enter, 0)
            if coeff > 0:
                rhs = rows[i].get(_RHS, 0)
                cross = rhs * best_coeff - best_rhs * coeff
                if cross < 0 or (cross == 0 and col < basis[leave]):
                    leave, best_rhs, best_coeff = i, rhs, coeff
        if leave < 0:
            raise VerificationFailed(f"phase {phase} unbounded")
        degenerate = degenerate + 1 if best_rhs == 0 else 0
        _pivot(rows, dens, basis, leave, enter)


def simplex_solve(problem: LpProblem) -> Optimal | Infeasible:
    """Exact two-phase simplex with dual multipliers and Farkas certificates,
    for a bounded problem: a phase whose entering column no row bounds
    raises VerificationFailed.  Both vectors are c_B^t B^-1 of the final
    basis, read off the objective row by _multipliers."""
    m, n = problem.n_rows, problem.n_cols
    rows, dens = [], []
    for terms, bv, scale in problem.row_terms:
        sign = -1 if bv < 0 else 1
        rows.append({j: sign * v for j, v in terms})
        if bv:
            rows[-1][_RHS] = sign * bv
        dens.append(scale)

    basis: list[int | None] = [None] * m
    for j, terms in enumerate(problem.col_terms):
        if len(terms) == 1:
            i = terms[0][0]
            if basis[i] is None and rows[i][j] == dens[i]:
                basis[i] = j
    for i, row in enumerate(rows):
        if basis[i] is None:
            row[n + i] = dens[i]
            basis[i] = n + i
    start = list(basis)

    phase1_cost = [ZERO] * n + [ONE if col >= n else ZERO for col in basis]
    _run(rows, dens, basis, n, phase1_cost, 1)
    if rows[-1].get(_RHS, 0) < 0:  # the artificials sum to more than 0
        y = _multipliers(problem, rows, dens, start, phase1_cost)
        _verify_farkas(problem, y)
        return Infeasible(tuple(y))
    _expel_artificials(rows, dens, basis, n)

    costs = [*problem.c, *[ZERO] * m]
    _run(rows, dens, basis, n, costs, 2)
    x = [ZERO] * (n + m)
    for row, den, col in zip(rows, dens, basis):
        x[col] = Fraction(row.get(_RHS, 0), den)
    del x[n:]
    value = Fraction(-rows[-1].get(_RHS, 0), dens[-1])
    y = _multipliers(problem, rows, dens, start, costs)
    _verify_optimal(problem, x, value, y)
    return Optimal(tuple(x), value, tuple(y))


def _expel_artificials(rows, dens, basis, n):
    """Pivot each zero-valued basic artificial out on the lowest real
    column of its row.  A row with no real column is redundant and stays
    as it is, its artificial basic at 0."""
    for i, (row, col) in enumerate(zip(rows, basis)):
        if col >= n:
            if _RHS in row:
                raise VerificationFailed("artificial basic with nonzero value at phase-1 optimum")
            real = min((j for j in row if 0 <= j < n), default=None)
            if real is not None:
                _pivot(rows, dens, basis, i, real)


def _multipliers(problem: LpProblem, rows, dens, start, costs):
    """y = c_B^t B^-1 of the final basis: row i's initial unit column u
    holds B^-1 e_i, so y_i = c_u - r_u, negated where b_i < 0 negated the
    row.  A redundant row's artificial stays basic at cost 0: y_i = 0."""
    y = [costs[u] - Fraction(rows[-1].get(u, 0), dens[-1]) for u in start]
    return [-v if bv < 0 else v for v, (_, bv, _) in zip(y, problem.row_terms)]


# The checks read the problem's own data, never the tableau, in exact
# integers: x, y and c scaled by the lcm of their denominators, against
# row_terms or col_terms.


def _dot(terms, values):
    """Sum of v * values[k] over the (k, v) terms."""
    return sum(v * values[k] for k, v in terms)


def _dual_scaled(problem: LpProblem, y):
    """y_i / L_i as ints over a common denominator M, and M: the terms of
    column j then sum to M (A^t y)_j, and L_i b_i to M b^t y."""
    return _over_lcm([yi / scale for yi, (_, _, scale) in zip(y, problem.row_terms, strict=True)])


def _verify_farkas(problem: LpProblem, y):
    ys, _ = _dual_scaled(problem, y)
    if any(_dot(terms, ys) > 0 for terms in problem.col_terms):
        raise VerificationFailed("Farkas vector fails A^t y <= 0")
    if sum(bv * v for (_, bv, _), v in zip(problem.row_terms, ys)) <= 0:
        raise VerificationFailed("Farkas vector fails b^t y > 0")


def _verify_optimal(problem: LpProblem, x, value, y):
    xs, lx = _over_lcm(x)
    if any(_dot(terms, xs) != bv * lx for terms, bv, _ in problem.row_terms):
        raise VerificationFailed("optimal point violates A x = b")
    if any(v < 0 for v in x):
        raise VerificationFailed("optimal point violates x >= 0")
    cs, lc = _over_lcm(problem.c)
    if sum(c * v for c, v in zip(cs, xs, strict=True)) != value * lc * lx:
        raise VerificationFailed("objective mismatch at optimum")
    ys, ly = _dual_scaled(problem, y)
    if sum(bv * v for (_, bv, _), v in zip(problem.row_terms, ys)) != value * ly:
        raise VerificationFailed("strong duality mismatch")
    if any(_dot(terms, ys) * lc > c * ly for terms, c in zip(problem.col_terms, cs)):
        raise VerificationFailed("dual multipliers infeasible at optimum")


def render_problem(problem: LpProblem) -> str:
    """Plain-text dump, every entry as p/q, for --dump-lp auditing."""
    lines = [f"min {' '.join(render(v) for v in problem.c)}"]
    for terms, bv, scale in problem.row_terms:
        row = [ZERO] * problem.n_cols
        for j, v in terms:
            row[j] = Fraction(v, scale)
        lines.append(f"{' '.join(render(v) for v in row)} = {render(Fraction(bv, scale))}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# construction programs


def _edge_row_pattern(t: Triangulation, e: int, kind: InvariantKind) -> dict[int, int]:
    """Corner-column coefficients of edge e's invariant equation, zeros kept."""
    delaunay = kind is InvariantKind.DELAUNAY
    coeffs: dict[int, int] = {}
    for f, k in t.edge_corners[e]:
        for slot in range(3) if delaunay else (k,):
            col = 3 * f + slot
            coeffs[col] = coeffs.get(col, 0) + (-1 if delaunay and slot == k else 1)
    return coeffs


def _margin_lp(t: Triangulation, program: EdgeFunction) -> LpProblem:
    """min -m over a_i, s_f, m with face rows a_i+a_j+a_k + 4m + s_f = pi
    and invariant rows pattern + 2m = value, built as LpProblem.row_terms:
    an edge row with value p/q is its integer pattern times q, = p."""
    nf, margin_col = t.n_faces, 4 * t.n_faces
    view = [
        (((3 * f, 1), (3 * f + 1, 1), (3 * f + 2, 1), (3 * nf + f, 1), (margin_col, 4)), 1, 1)
        for f in range(nf)
    ]
    for e, value in enumerate(program.values):
        q, pattern = value.denominator, _edge_row_pattern(t, e, program.kind)
        terms = [(j, v * q) for j, v in sorted(pattern.items()) if v] + [(margin_col, 2 * q)]
        view.append((tuple(terms), value.numerator, q))
    return LpProblem(tuple(view), (ZERO,) * margin_col + (-ONE,))


def _route(t: Triangulation, fn: EdgeFunction, geometry: GeometryClass):
    """Theorem, hyperbolic program invariant and back-transform of a request.

    The program is that of the hyperbolic theorem with the same quantifier:
    T4's (Delaunay) for T1 and T4, T2's (edge) for T2 and T3.  It prescribes
    the invariant whose weights equal the requested theorem's weights W:
    the edge invariant W, or the Delaunay invariant 2*pi - 2*W (as
    pi - Dd/2 = W).  So T1 prescribes Dd = 2*pi - 2*D, T3 prescribes
    D = pi - Dd/2, T2 and T4 their own invariant, and the same subsets
    violate both theorems.  A spherical request maps the program's witness
    back with corner_transform (T1, from the Delaunay program) or its
    inverse (T3, from the edge program); a hyperbolic one needs none.
    """
    theorem = theorem_for(geometry, fn.kind)
    if geometry is GeometryClass.HYPERBOLIC:
        theorem_row(t, fn, theorem)  # the domain checks: the program is fn itself
        return theorem, fn, None
    weights = theorem_weights(t, fn, theorem)
    if THEOREMS[theorem].nonempty:  # 2 - 2*p/q, without Fraction arithmetic
        weights = [Fraction(2 * (q - p), q) for p, q in (w.as_integer_ratio() for w in weights)]
        return theorem, EdgeFunction(tuple(weights), InvariantKind.DELAUNAY), corner_transform
    return theorem, EdgeFunction(tuple(weights), InvariantKind.EDGE), corner_transform_inverse


def build_construction_lp(
    t: Triangulation, fn: EdgeFunction, geometry: GeometryClass
) -> LpProblem:
    """The margin program of the request, for either invariant kind:
    construct_structure reaches its optimum for an edge program, and solves
    a Delaunay program only when the half-sum map gives no witness and the
    cut says one exists."""
    _, program, _ = _route(t, fn, geometry)
    return _margin_lp(t, program)


def _witness_ok(t: Triangulation, x: AngleStructure, fn: EdgeFunction, geometry) -> bool:
    """x is an angle structure of the geometry's class with invariant fn:
    classify_structure range-checks every angle, an OutOfRange read as
    False, and mismatched_edges compares the invariant exactly."""
    try:
        return classify_structure(t, x) is geometry and not mismatched_edges(t, x, fn)
    except OutOfRange:
        return False


# ---------------------------------------------------------------------------
# margins by parametric minimum cut
#
# With the margin m fixed, the edge program is a transportation problem:
# each edge e supplies exactly W(e) - 2m to its two facing corners and each
# face absorbs at most 1 - 4m (Gale 1957).  That is the network of
# feasibility.min_cut with weights W_m = W - 2m and unit 1 - 4m: it hands
# each edge's supply to its first face f1, and the flow on the arc f1 -> f2
# is the share that goes on to f2.  Every face then absorbs at most 1 - 4m
# exactly when every source arc is saturated, which is when F minimises
# g_m(X) = W_m(E(X)) - (1 - 4m)|X|.  Every feasible m keeps g_m(X) - g_m(F),
# a line in m, nonnegative for all X.  When F is no minimiser, the largest
# minimiser X is negative on its line at m, and m moves to the root
# (Newton's method on the parametric cut, as in Dinkelbach 1967).  Each root
# bounds the largest feasible m from above and no line is negative twice,
# so the first m at which F minimises g_m is the largest feasible m up to
# the start.
# The slope by which a step's line falls per unit of m is the integer
# 4|F - X| - 2|E - E(X)| = |F - X| + |dX|, dX the edges between X and F - X
# (both corners of an edge outside E(X) lie in F - X).  It is at least 1,
# as X is not F.  It falls strictly from step to step: X_k minimises g at
# m_k, and X_{k+1} is negative at the root m_{k+1} < m_k of X_k's line, so
# between the two X_{k+1}'s line climbs from below X_k's to at least X_k's.
# The loop therefore makes at most 4|F| steps, and a slope outside [1, the
# last slope) shows a wrong cut.
# The loop runs in ints: W comes over one scale D, and at m = p/q a step's
# capacities are W*q - 2p*D and (q - 4p)*D over D*q, divided by their gcd g
# with D*q: arc for arc the network of the exact W_m and 1 - 4m over the lcm
# D*q/g of their denominators.
# The Delaunay program of T1 and T4 takes its witness from the edge program
# whose weights are the Delaunay invariant Dd, by the half-sum map: on a
# face with corners i, j, k, x_k = (x'_i + x'_j)/2 = (S - x'_k)/2 for the
# face sum S of the edge program's witness x'.  The face sums stay, each
# corner keeps the margin, and x_i + x_j - x_k = x'_k, so x's Delaunay
# invariant on e is the facing pair x'_k1 + x'_k2 = Dd(e).  Its margin is
# the edge program's optimum, which can lie below the Delaunay program's.


def _flow_margin(t: Triangulation, program: EdgeFunction) -> tuple[Fraction, list[Fraction]] | None:
    """Optimum m > 0 of the edge program with weights W = program.values,
    and the corner values a_i + m of its witness, a_i >= 0, indexed 3*face
    + slot, mapped by half sums when the program is a Delaunay one; None
    when no m > 0 is feasible.  It starts at min(min W/2, 1/4), the bound
    of a >= 0 and of the face rows.  Each step's cut proves its minimum of
    g_m; at the end the last X is re-evaluated exactly and must reach it,
    which shows that m is its line's root.  The a_i are read from the flow
    on the dual arcs, m folded in; a self-glued edge splits its weight
    between its two corners."""
    weights, scale = _over_lcm(program.values)
    ne, nf = t.n_edges, t.n_faces
    margin, last, fall = min(Fraction(min(weights), 2 * scale), ONE / 4), None, 4 * nf + 1
    while margin > 0:
        p, q = margin.numerator, margin.denominator
        shifted, face = [w * q - 2 * p * scale for w in weights], (q - 4 * p) * scale
        g = math.gcd(scale * q, face, *shifted)
        shifted, face, at = [w // g for w in shifted], face // g, scale * q // g
        minimum, _, largest, arcs, flow = min_cut(t, shifted, face)
        if len(largest) == nf:
            break
        slope = 4 * (nf - len(largest)) - 2 * (ne - len(edge_set(t, largest)))
        if not 1 <= slope < fall:
            raise VerificationFailed("the Newton slope did not fall")
        fall = slope
        margin += Fraction(minimum - sum(shifted) + face * nf, at * slope)
        last = largest
    if margin <= 0:
        return None
    if last is not None and sum(shifted[e] for e in edge_set(t, last)) - face * len(last) != minimum:
        raise VerificationFailed("the last line does not reach the cut's minimum")
    x, lift, over = [0] * (3 * nf), 2 * p * at, 2 * at * q  # numerators over `over`; m = lift / over
    dual = zip(arcs, flow)  # the first arcs, one per edge that is not self-glued
    for e, ((f1, s1), (f2, s2)) in enumerate(t.edge_corners):
        if f1 == f2:  # a self-glued edge faces two corners of one face: W_m/2 + m = W/2
            x[3 * f1 + s1] = x[3 * f2 + s2] = shifted[e] * q + lift
            continue
        (_, _, c), y = next(dual)
        x[3 * f1 + s1], x[3 * f2 + s2] = 2 * (c - y) * q + lift, 2 * y * q + lift
    if program.kind is InvariantKind.DELAUNAY:  # the half-sum map
        faces = [x[f:f + 3] for f in range(0, 3 * nf, 3)]
        x, over = [sum(face) - v for face in faces for v in face], 2 * over
    return margin, [Fraction(v, over) for v in x]


def _simplex_margin(t: Triangulation, program: EdgeFunction) -> tuple[Fraction, list[Fraction]] | None:
    """Optimum m > 0 of the margin program and the corner values a_i + m
    of its point; None when no m > 0 is feasible."""
    outcome = simplex_solve(_margin_lp(t, program))
    if isinstance(outcome, Infeasible) or outcome.value == 0:
        return None
    return -outcome.value, [v - outcome.value for v in outcome.x[:3 * t.n_faces]]


def construct_structure(
    t: Triangulation, fn: EdgeFunction, geometry: GeometryClass
) -> AngleStructure | FeasibilityReport:
    """Witness of the geometry with edge or Delaunay invariant fn, or the
    infeasible report of the theorem (T1-T4) for that pair, whose
    certificate is a face subset violating its inequality.

    Solves the hyperbolic margin program of the theorem's route by
    parametric flow: T2's edge program, and T4's Delaunay program through
    the half-sum map.  When that gives no witness, the minimum cut of
    feasibility.check_via_flow decides: an infeasible report is returned,
    its subset re-evaluated exactly; on a feasible one the simplex solves
    the Delaunay program, and must find a witness.  The witness is mapped
    back with the route's corner transform.  The returned witness has been
    checked for range, class and recomputed invariant.
    """
    theorem, program, transform = _route(t, fn, geometry)
    solved = _flow_margin(t, program)
    if solved is None:
        report = check_via_flow(t, fn, theorem)
        if report.verdict is Verdict.INFEASIBLE:
            slack = subset_slack(t, fn, theorem, report.certificate)
            if slack != report.slack or slack > 0:
                raise VerificationFailed("cut subset does not violate the inequality")
            return report
        solved = program.kind is InvariantKind.DELAUNAY and _simplex_margin(t, program)
        if not solved:
            raise VerificationFailed("construction and subset conditions disagree")
    witness = AngleStructure(tuple(solved[1]))
    if not _witness_ok(t, witness, program, GeometryClass.HYPERBOLIC):
        raise VerificationFailed("margin witness failed validation")
    if transform is not None:
        witness = transform(t, witness)
        if not _witness_ok(t, witness, fn, geometry):
            raise VerificationFailed(f"transformed witness fails validation against {theorem}")
    return witness


# ---------------------------------------------------------------------------
# feasibility reports via the LP path


def check_via_lp(t: Triangulation, fn: EdgeFunction, geometry: GeometryClass) -> FeasibilityReport:
    """The report check_via_enumeration and check_via_flow give, decided by
    construct_structure: feasible exactly when it returns a witness."""
    result = construct_structure(t, fn, geometry)
    if isinstance(result, FeasibilityReport):
        return result
    return make_report(theorem_for(geometry, fn.kind), None)
