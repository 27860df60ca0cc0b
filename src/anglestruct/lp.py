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
(``LpProblem.row_terms``); ``make_problem`` converts dense data.  The
point, value and multipliers become ``Fraction``s only when read out and
checked, against those rows and the column view built from them.  An
artificial column is dropped from the tableau as it leaves the basis, so
no pivot carries it.  The multipliers y = c_B^t B^-1 of the final basis
are solved from the problem's own columns, B^t y = c_B eliminated by the
same pivot: at an optimum they are the dual, and when phase 1 ends
positive, under the phase-1 costs, a Farkas vector (A^t y <= 0,
b^t y > 0).  The program must be bounded, as every margin program below
is (its face rows, all coefficients >= 0 and right-hand side 1, hold
every column): an unbounded phase raises.

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
at a fixed m, the edge program and the Delaunay program with every face
sum at s = sum(Dd)/|F| are transportation problems on the network of
``feasibility.min_cut``, and Newton steps on its largest minimiser reach
the largest such m in a few cuts, each proven by the network's check.
Only when equal face sums give no m > 0 does the simplex solve the
Delaunay program; otherwise its witness is not the max-margin one.
``check_via_lp`` reports ``construct_structure``'s answer: feasible
exactly when it returns a witness.

When the program shows that no witness exists, ``construct_structure``
returns the ``FeasibilityReport`` of the minimum cut of
``feasibility.check_via_flow``; the cut must agree that the instance is
infeasible, and its subset is re-evaluated exactly.
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
    then L_i b_i and L_i > 0, with L_i the lcm of the row's denominators
    (make_problem builds this from dense data).  row_terms: tuple of
    (tuple[tuple[int, int], ...], int, int); c: tuple[Fraction, ...]."""

    def __new__(cls, row_terms, c):
        n = len(c)
        for terms, _, scale in row_terms:
            if scale <= 0:
                raise DimensionMismatch("row scale is not positive")
            if any(not 0 <= j < n for j, _ in terms):
                raise DimensionMismatch("row names a column outside c")
        return super().__new__(cls, row_terms, c)

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


def make_problem(a, b, c) -> LpProblem:
    """The LpProblem of dense int/Fraction data A, b and c: each equation
    a_i x = b_i times the lcm of its denominators, its zeros dropped."""
    c = tuple(Fraction(v) for v in c)
    if len(a) != len(b):
        raise DimensionMismatch("row count of A differs from b")
    view = []
    for row, bv in zip(a, b):
        if len(row) != len(c):
            raise DimensionMismatch("row width of A differs from c")
        cols = [j for j, v in enumerate(row) if v]
        (scaled_b, *nums), scale = _over_lcm([Fraction(bv), *(Fraction(row[j]) for j in cols)])
        view.append((tuple(zip(cols, nums)), scaled_b, scale))
    return LpProblem(tuple(view), c)


class Optimal(namedtuple("Optimal", "x value dual")):
    """The point x, value c.x and multipliers dual: Fractions."""
    __slots__ = ()


class Infeasible(namedtuple("Infeasible", "certificate")):
    """A Farkas vector certificate: tuple[Fraction, ...]."""
    __slots__ = ()


LpOutcome = Optimal | Infeasible


# ---------------------------------------------------------------------------
# simplex kernel
#
# The tableau is a list of augmented rows [B^-1 A | B^-1 b], one per
# constraint and in the constraints' order for the whole solve, then one
# objective row of reduced costs whose right-hand side is minus the
# objective value.  Row i is a dict of its nonzero numerators over the
# positive denominator dens[i], the right-hand side under the key _RHS, and
# basis[i] is its basic column.  Column n + i is row i's artificial; it
# appears only in row i while it is basic there, and is deleted from that
# row when it leaves, so every other row stays free of it.  A redundant row
# keeps its artificial basic at 0 and holds no real column, so no ratio
# test picks it and no pivot changes it.

_RHS = -1
# Dantzig's rule gives way to Bland's after this many degenerate pivots in a
# row, until the next pivot that moves the point
_DEGENERATE_RUN = 10


def _pivot(rows, dens, basis, r, col):
    """Make col basic in row r: normalise it to the denominator d = prow[col]
    > 0, then set every other row with a nonzero factor in col, the objective
    row included, to (target * d' - factor' * prow) / (dens[i] * d'), reduced,
    with d', factor' = d, factor over their gcd.  Each pass visits nonzeros
    and updates the row's dict in place."""
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
        if basis[leave] >= n:  # an artificial leaves for good: drop its column
            del rows[leave][basis[leave]]
        _pivot(rows, dens, basis, leave, enter)


def simplex_solve(problem: LpProblem) -> LpOutcome:
    """Exact two-phase simplex with dual multipliers and Farkas certificates,
    for a bounded problem: a phase whose entering column no row bounds
    raises VerificationFailed.  Both vectors are c_B^t B^-1 of the final
    basis, solved by _multipliers from the problem's columns."""
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

    phase1_cost = [ZERO] * n + [ONE if col >= n else ZERO for col in basis]
    _run(rows, dens, basis, n, phase1_cost, 1)
    if rows[-1].get(_RHS, 0) < 0:  # the artificials sum to more than 0
        y = _multipliers(problem, basis, phase1_cost)
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
    y = _multipliers(problem, basis, costs)
    _verify_optimal(problem, x, value, y)
    return Optimal(tuple(x), value, tuple(y))


def _expel_artificials(rows, dens, basis, n):
    """Pivot each zero-valued basic artificial out on the lowest real
    column of its row, the artificial's column dropped as it leaves.  A
    row with no real column is redundant and stays as it is, its
    artificial basic at 0."""
    for i, (row, col) in enumerate(zip(rows, basis)):
        if col >= n:
            if _RHS in row:
                raise VerificationFailed("artificial basic with nonzero value at phase-1 optimum")
            real = min((j for j in row if 0 <= j < n), default=None)
            if real is not None:
                del row[col]
                _pivot(rows, dens, basis, i, real)


def _multipliers(problem: LpProblem, basis, costs):
    """y = c_B^t B^-1: the solution of B^t y = c_B, one equation per basic
    column; a redundant row, whose artificial stays basic at cost 0, reads
    y_i = 0.

    The unknowns are z_i = y_i / L_i, so a column's equation has its
    col_terms, times its cost's denominator, as integer coefficients and
    the cost's numerator under _RHS.  The artificial n + i of row i is L_i
    times a unit column of the row as the tableau holds it, negated where
    b_i < 0, so its equation reads +-L_i z_i = its cost.  The equations
    are rows of the tableau's form, and _pivot eliminates them
    Gauss-Jordan, shortest first, each on its lowest unknown: every row
    ends with one unknown, read as x is."""
    n, m = problem.n_cols, problem.n_rows
    rows = []
    for col in basis:
        q = costs[col].denominator
        if col < n:
            row = {i: v * q for i, v in problem.col_terms[col]}
        else:
            _, bv, scale = problem.row_terms[col - n]
            row = {col - n: -scale * q if bv < 0 else scale * q}
        if costs[col]:
            row[_RHS] = costs[col].numerator
        rows.append(row)
    dens, solved = [1] * m, [None] * m
    for r in sorted(range(m), key=lambda r: len(rows[r])):
        _pivot(rows, dens, solved, r, min(j for j in rows[r] if j != _RHS))
    y = [ZERO] * m
    for row, den, i in zip(rows, dens, solved):
        y[i] = Fraction(row.get(_RHS, 0), den) * problem.row_terms[i][2]
    return y


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
    D = pi - Dd/2, and the same subsets violate both theorems.  A spherical
    request maps the program's witness back with corner_transform (T1,
    from the Delaunay program) or its inverse (T3, from the edge program);
    a hyperbolic request needs no transform.
    """
    theorem = theorem_for(geometry, fn.kind)
    weights = theorem_weights(t, fn, theorem)
    kind, transform = InvariantKind.EDGE, corner_transform_inverse
    if THEOREMS[theorem].nonempty:
        kind, weights = InvariantKind.DELAUNAY, [2 - 2 * w for w in weights]
        transform = corner_transform
    program = EdgeFunction(tuple(weights), kind)
    return theorem, program, transform if geometry is GeometryClass.SPHERICAL else None


def build_construction_lp(
    t: Triangulation, fn: EdgeFunction, geometry: GeometryClass
) -> LpProblem:
    """The margin program of the request, for either invariant kind:
    construct_structure reaches its optimum for an edge program, and for a
    Delaunay program only in the simplex fallback of equal face sums."""
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
# face absorbs at most u - k*m, u = 1 and k = 4 (Gale 1957).  So is the
# Delaunay program with every face sum fixed at s = sum(Dd)/|F|: edge e's
# equation reads x + x' = s - Dd(e)/2 on its facing corners, so W = s -
# Dd/2, u = s and k = 3, and as supply and demand balance, at most is
# exactly.  That is the network of feasibility.min_cut with weights W_m =
# W - 2m and unit u - k*m: it hands each edge's supply to its first face
# f1, and the flow on the arc f1 -> f2 is the share that goes on to f2.
# Every face then absorbs at most u - k*m exactly when every source arc is
# saturated, which is when F minimises g_m(X) = W_m(E(X)) - (u - k*m)|X|.
# Every feasible m keeps g_m(X) - g_m(F), a line in m, nonnegative for all
# X.  When F is no minimiser, the largest minimiser X is negative on its
# line at m, and m moves to the root (Newton's method on the parametric
# cut, as in Dinkelbach 1967).  Each root bounds the largest feasible m
# from above and no line is negative twice, so the first m at which F
# minimises g_m is the largest feasible m up to the start.
# The slope by which a step's line falls per unit of m is the integer
# k|F - X| - 2|E - E(X)| = (k - 3)|F - X| + |dX|, dX the edges between X
# and F - X (both corners of an edge outside E(X) lie in F - X).  It is at
# least 1: at equal face sums g_m is 0 at F and at the empty set, so X is
# neither.  It falls strictly from step to step: X_k minimises g at m_k,
# and X_{k+1} is negative at the root m_{k+1} < m_k of X_k's line, so
# between the two X_{k+1}'s line climbs from below X_k's to at least X_k's.
# The loop therefore makes at most k|F| steps, and a slope outside [1, the
# last slope) shows a wrong cut.
# The loop runs in ints: W and u come over one scale D, and at m = p/q a
# step's capacities are W*q - 2p*D and u*q - k*p*D over D*q, divided by
# their gcd g with D*q: arc for arc the network of the exact W_m and u - k*m
# over the lcm D*q/g of their denominators.


def _newton_margin(t: Triangulation, weights, unit, scale: int, rate: int, margin: Fraction):
    """Largest m in (0, margin] at which F minimises g_m(X) = W_m(E(X)) -
    (unit - rate*m)|X|, W_m = W - 2m, for weights and a unit that are ints
    over `scale`, and the corner values a_i + m there, a_i >= 0, indexed
    3*face + slot; None when there is none.  The start margin keeps the
    weights and the unit nonnegative.  Each step's cut proves its minimum
    of g_m; at the end the last X is re-evaluated exactly and must reach
    it, which shows that m is its line's root.  The a_i are read from the
    flow on the dual arcs, m folded in; a self-glued edge splits its weight
    between its two corners."""
    ne, nf = t.n_edges, t.n_faces
    last, fall = None, rate * nf + 1
    while margin > 0:
        p, q = margin.numerator, margin.denominator
        shifted, face = [w * q - 2 * p * scale for w in weights], unit * q - rate * p * scale
        g = math.gcd(scale * q, face, *shifted)
        shifted, face, at = [w // g for w in shifted], face // g, scale * q // g
        minimum, _, largest, arcs, flow = min_cut(t, shifted, face)
        if len(largest) == nf:
            break
        slope = rate * (nf - len(largest)) - 2 * (ne - len(edge_set(t, largest)))
        if not 1 <= slope < fall:
            raise VerificationFailed("the Newton slope did not fall")
        fall = slope
        margin += Fraction(minimum - sum(shifted) + face * nf, at * slope)
        last = largest
    if margin <= 0:
        return None
    if last is not None and sum(shifted[e] for e in edge_set(t, last)) - face * len(last) != minimum:
        raise VerificationFailed("the last line does not reach the cut's minimum")
    x, lift, over = [ZERO] * (3 * nf), p * at, at * q  # m = lift / over
    dual = zip(arcs, flow)  # the first arcs, one per edge that is not self-glued
    for e, ((f1, s1), (f2, s2)) in enumerate(t.edge_corners):
        if f1 == f2:  # a self-glued edge faces two corners of one face: W_m/2 + m = W/2
            x[3 * f1 + s1] = x[3 * f2 + s2] = Fraction(weights[e], 2 * scale)
            continue
        (_, _, c), y = next(dual)
        x[3 * f1 + s1], x[3 * f2 + s2] = Fraction((c - y) * q + lift, over), Fraction(y * q + lift, over)
    return margin, x


def _flow_margin(t: Triangulation, program: EdgeFunction) -> tuple[Fraction, list[Fraction]] | None:
    """Optimum m > 0 of the edge program with weights W and its corner
    values; None when no m > 0 is feasible.  It starts at min(min W/2,
    1/4), the bound of a >= 0 and of the face rows."""
    weights, scale = _over_lcm(program.values)
    return _newton_margin(t, weights, scale, scale, 4, min(Fraction(min(weights), 2 * scale), ONE / 4))


def _equal_sums_margin(t: Triangulation, program: EdgeFunction) -> tuple[Fraction, list[Fraction]] | None:
    """The largest margin m > 0 of the Delaunay program with every face sum
    s = sum(Dd)/|F|, and its corner values; None when there is none.  It
    starts at min(min W/2, 1 - s) for W = s - Dd/2, the bounds of a >= 0
    and of the face rows; the face share s - 3m stays >= 0 below it, as
    s = 3/2 mean(Dd) puts min W/2 at most s/3.  Over 2L|F|, for Dd = d/L,
    s is 2*sum(d) and W is 2*sum(d) - |F|*d."""
    dd, den = _over_lcm(program.values)
    total, scale = 2 * sum(dd), 2 * den * t.n_faces
    weights, cap = [total - t.n_faces * d for d in dd], 1 - Fraction(total, scale)
    return _newton_margin(t, weights, total, scale, 3, min(Fraction(min(weights), 2 * scale), cap))


def _simplex_margin(t: Triangulation, program: EdgeFunction) -> tuple[Fraction, list[Fraction]] | None:
    """Optimum m > 0 of the margin program and the corner values a_i + m
    of its point; None when no m > 0 is feasible."""
    outcome = simplex_solve(_margin_lp(t, program))
    if isinstance(outcome, Infeasible) or outcome.value == 0:
        return None
    return -outcome.value, [v - outcome.value for v in outcome.x[:3 * t.n_faces]]


def _infeasible_certificate(t, fn, theorem) -> FeasibilityReport:
    """The cut's infeasible report, its certificate re-evaluated exactly."""
    report = check_via_flow(t, fn, theorem)
    if report.verdict is not Verdict.INFEASIBLE:
        raise VerificationFailed("construction and subset conditions disagree")
    slack = subset_slack(t, fn, theorem, report.certificate)
    if slack != report.slack or slack > 0:
        raise VerificationFailed("cut subset does not violate the inequality")
    return report


def construct_structure(
    t: Triangulation, fn: EdgeFunction, geometry: GeometryClass
) -> AngleStructure | FeasibilityReport:
    """Witness of the geometry with edge or Delaunay invariant fn, or the
    infeasible report of the theorem (T1-T4) for that pair, whose
    certificate is a face subset violating its inequality.

    Solves the hyperbolic margin program of the theorem's route, T2's edge
    program by parametric flow and T4's Delaunay program by that flow at
    equal face sums, else by the simplex, and maps its witness back with
    the route's corner transform.  The returned witness has been checked
    for range, class and recomputed invariant.
    """
    theorem, program, transform = _route(t, fn, geometry)
    if program.kind is InvariantKind.EDGE:
        solved = _flow_margin(t, program)
    else:
        solved = _equal_sums_margin(t, program) or _simplex_margin(t, program)
    if solved is None:
        return _infeasible_certificate(t, fn, theorem)
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
