"""Exact-rational linear programming path: witness construction.

The solver is a dense two-phase simplex over ``fractions.Fraction`` with
Bland's rule, so every pivot is exact and termination is guaranteed even
on the highly degenerate symmetric instances this domain produces.  At an
optimum the dual multipliers are read off the reduced costs of each row's
initial unit column; when phase 1 ends positive the same read yields a
Farkas vector (A^t y <= 0, b^t y > 0).

Construction solves one margin program over x_i = a_i + m, a_i >= 0:
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

When the program shows that no witness exists, ``construct_structure``
returns the ``FeasibilityReport`` of the minimum cut of
``feasibility.check_via_flow``; the cut must agree that the instance is
infeasible, and its subset is re-evaluated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .angles import (
    AngleStructure,
    EdgeFunction,
    GeometryClass,
    InvariantKind,
    classify_structure,
    corner_transform,
    corner_transform_inverse,
    invariant_of,
)
from .errors import DimensionMismatch, VerificationFailed
from .feasibility import (
    THEOREMS,
    FeasibilityReport,
    Verdict,
    check_via_flow,
    make_report,
    subset_slack,
    theorem_for,
    theorem_weights,
)
from .ratpi import RatPi
from .surface import Corner, Triangulation

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# problem / outcome types


@dataclass(frozen=True)
class LpProblem:
    """min c.x  subject to  A x = b, x >= 0, all data rational."""

    a: tuple[tuple[Fraction, ...], ...]
    b: tuple[Fraction, ...]
    c: tuple[Fraction, ...]

    def __post_init__(self):
        n = len(self.c)
        if len(self.a) != len(self.b):
            raise DimensionMismatch("row count of A differs from b")
        for row in self.a:
            if len(row) != n:
                raise DimensionMismatch("row width of A differs from c")

    @property
    def n_rows(self) -> int:
        return len(self.a)

    @property
    def n_cols(self) -> int:
        return len(self.c)


def make_problem(a, b, c) -> LpProblem:
    """Coerce nested int/Fraction data into a canonical LpProblem."""
    return LpProblem(
        tuple(tuple(Fraction(v) for v in row) for row in a),
        tuple(Fraction(v) for v in b),
        tuple(Fraction(v) for v in c),
    )


@dataclass(frozen=True)
class Optimal:
    x: tuple[Fraction, ...]
    value: Fraction
    dual: tuple[Fraction, ...]


@dataclass(frozen=True)
class Infeasible:
    certificate: tuple[Fraction, ...]


@dataclass(frozen=True)
class Unbounded:
    ray: tuple[Fraction, ...]


LpOutcome = Optimal | Infeasible | Unbounded


# ---------------------------------------------------------------------------
# simplex kernel


class _Tableau:
    def __init__(self, rows, rhs, reader_cols, basis, n_struct):
        self.rows = rows            # list of lists, width n_total
        self.rhs = rhs              # list, one per row
        self.reader = reader_cols   # per live row: its initial unit column
        self.basis = basis          # per live row: basic column
        self.n_struct = n_struct    # columns 0..n_struct-1 are structural
        self.obj = None             # reduced costs, width n_total
        self.obj_value = ZERO       # current objective value

    def set_costs(self, costs):
        self.obj = list(costs)
        self.obj_value = ZERO
        for i, col in enumerate(self.basis):
            cb = costs[col]
            if cb != 0:
                row = self.rows[i]
                obj = self.obj
                for j in range(len(obj)):
                    if row[j] != 0:
                        obj[j] -= cb * row[j]
                self.obj_value -= cb * self.rhs[i]

    def pivot(self, row_idx, col):
        rows, rhs, obj = self.rows, self.rhs, self.obj
        prow = rows[row_idx]
        pval = prow[col]
        if pval != 1:
            inv = 1 / pval
            rows[row_idx] = prow = [v * inv for v in prow]
            rhs[row_idx] *= inv
        width = len(prow)
        for i in range(len(rows)):
            if i == row_idx:
                continue
            factor = rows[i][col]
            if factor != 0:
                target = rows[i]
                for j in range(width):
                    if prow[j] != 0:
                        target[j] -= factor * prow[j]
                rhs[i] -= factor * self.rhs[row_idx]
        factor = obj[col]
        if factor != 0:
            for j in range(width):
                if prow[j] != 0:
                    obj[j] -= factor * prow[j]
            self.obj_value -= factor * self.rhs[row_idx]
        self.basis[row_idx] = col

    def run(self, allowed):
        """Bland-rule simplex; returns entering column on unboundedness, else None."""
        rows, rhs, obj, basis = self.rows, self.rhs, self.obj, self.basis
        while True:
            enter = -1
            for j in allowed:
                if obj[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return None
            leave = -1
            best_ratio = None
            for i in range(len(rows)):
                coeff = rows[i][enter]
                if coeff > 0:
                    ratio = rhs[i] / coeff
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < basis[leave])
                    ):
                        best_ratio = ratio
                        leave = i
            if leave < 0:
                return enter
            self.pivot(leave, enter)


def simplex_solve(problem: LpProblem) -> LpOutcome:
    """Exact two-phase simplex with dual multipliers and Farkas certificates."""
    m, n = problem.n_rows, problem.n_cols

    row_sign = [ONE if bv >= 0 else -ONE for bv in problem.b]
    rows = [
        [v * row_sign[i] for v in problem.a[i]] for i in range(m)
    ]
    rhs = [problem.b[i] * row_sign[i] for i in range(m)]

    basis: list[int | None] = [None] * m
    used = set()
    for j in range(n):
        hits = [i for i in range(m) if rows[i][j] != 0]
        if len(hits) == 1 and rows[hits[0]][j] == 1:
            i = hits[0]
            if basis[i] is None and j not in used:
                basis[i] = j
                used.add(j)

    artificial_of_row = {}
    n_total = n
    for i in range(m):
        if basis[i] is None:
            artificial_of_row[i] = n_total
            n_total += 1
    for i in range(m):
        pad = [ZERO] * (n_total - n)
        if i in artificial_of_row:
            pad[artificial_of_row[i] - n] = ONE
            basis[i] = artificial_of_row[i]
        rows[i].extend(pad)
    reader = [artificial_of_row.get(i, basis[i]) for i in range(m)]

    tab = _Tableau(rows, rhs, reader, basis, n)
    structural = list(range(n))
    live_orig_rows = list(range(m))

    if artificial_of_row:
        phase1_cost = [ZERO] * n + [ONE] * (n_total - n)
        tab.set_costs(phase1_cost)
        if tab.run(structural) is not None:
            raise VerificationFailed("phase 1 unbounded")
        w = -tab.obj_value
        if w > 0:
            y = _read_dual(tab, phase1_cost, live_orig_rows, row_sign, m)
            _verify_farkas(problem, y)
            return Infeasible(tuple(y))
        live_orig_rows = _expel_artificials(tab, live_orig_rows)

    phase2_cost = list(problem.c) + [ZERO] * (n_total - n)
    tab.set_costs(phase2_cost)
    enter = tab.run(structural)
    if enter is not None:
        ray = [ZERO] * n
        ray[enter] = ONE
        for i, col in enumerate(tab.basis):
            if col < n:
                ray[col] = -tab.rows[i][enter]
        _verify_ray(problem, ray)
        return Unbounded(tuple(ray))

    x = [ZERO] * n
    for i, col in enumerate(tab.basis):
        if col < n:
            x[col] = tab.rhs[i]
    value = -tab.obj_value
    y = _read_dual(tab, phase2_cost, live_orig_rows, row_sign, m)
    _verify_optimal(problem, x, value, y)
    return Optimal(tuple(x), value, tuple(y))


def _expel_artificials(tab: _Tableau, live_orig_rows):
    """Pivot zero-valued artificials out of the basis; drop redundant rows."""
    n = tab.n_struct
    i = 0
    while i < len(tab.rows):
        if tab.basis[i] >= n:
            if tab.rhs[i] != 0:
                raise VerificationFailed("artificial basic with nonzero value at phase-1 optimum")
            col = next((j for j in range(n) if tab.rows[i][j] != 0), None)
            if col is None:
                del tab.rows[i]
                del tab.rhs[i]
                del tab.basis[i]
                del tab.reader[i]
                del live_orig_rows[i]
                continue
            tab.pivot(i, col)
        i += 1
    return live_orig_rows


def _read_dual(tab: _Tableau, costs, live_orig_rows, row_sign, m):
    """Row multipliers via y_i = c_u - r_u at each row's initial unit column."""
    y = [ZERO] * m
    for i, orig in enumerate(live_orig_rows):
        col = tab.reader[i]
        y[orig] = (costs[col] - tab.obj[col]) * row_sign[orig]
    return y


def _verify_farkas(problem: LpProblem, y):
    n = problem.n_cols
    for j in range(n):
        dot = sum(problem.a[i][j] * y[i] for i in range(problem.n_rows))
        if dot > 0:
            raise VerificationFailed("Farkas vector fails A^t y <= 0")
    if sum(problem.b[i] * y[i] for i in range(problem.n_rows)) <= 0:
        raise VerificationFailed("Farkas vector fails b^t y > 0")


def _verify_ray(problem: LpProblem, ray):
    for i in range(problem.n_rows):
        if sum(problem.a[i][j] * ray[j] for j in range(problem.n_cols)) != 0:
            raise VerificationFailed("unbounded ray leaves the constraint space")
    if any(v < 0 for v in ray):
        raise VerificationFailed("unbounded ray not nonnegative")
    drift = sum(problem.c[j] * ray[j] for j in range(problem.n_cols))
    if drift >= 0:
        raise VerificationFailed("ray does not improve the objective")


def _verify_optimal(problem: LpProblem, x, value, y):
    m, n = problem.n_rows, problem.n_cols
    for i in range(m):
        if sum(problem.a[i][j] * x[j] for j in range(n)) != problem.b[i]:
            raise VerificationFailed("optimal point violates A x = b")
    if any(v < 0 for v in x):
        raise VerificationFailed("optimal point violates x >= 0")
    if sum(problem.c[j] * x[j] for j in range(n)) != value:
        raise VerificationFailed("objective mismatch at optimum")
    if sum(problem.b[i] * y[i] for i in range(m)) != value:
        raise VerificationFailed("strong duality mismatch")
    for j in range(n):
        if sum(problem.a[i][j] * y[i] for i in range(m)) > problem.c[j]:
            raise VerificationFailed("dual multipliers infeasible at optimum")


def render_problem(problem: LpProblem) -> str:
    """Plain-text dump, every entry as p/q, for --dump-lp auditing."""

    def fmt(v: Fraction) -> str:
        return f"{v.numerator}/{v.denominator}"

    lines = [f"min {' '.join(fmt(v) for v in problem.c)}"]
    for row, bv in zip(problem.a, problem.b):
        lines.append(f"{' '.join(fmt(v) for v in row)} = {fmt(bv)}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# construction programs


def _corner_col(corner: Corner) -> int:
    return 3 * corner.face + corner.slot


def _edge_row_pattern(t: Triangulation, e: int, kind: InvariantKind) -> dict[int, Fraction]:
    """Corner-column coefficients of edge e's invariant equation."""
    coeffs: dict[int, Fraction] = {}
    for f, k in t.edge_corners[e]:
        if kind is InvariantKind.EDGE:
            terms = [(k, ONE)]
        else:
            terms = [(k, -ONE), ((k + 1) % 3, ONE), ((k + 2) % 3, ONE)]
        for slot, delta in terms:
            coeffs[3 * f + slot] = coeffs.get(3 * f + slot, ZERO) + delta
    return coeffs


def _margin_lp(t: Triangulation, program: EdgeFunction) -> LpProblem:
    """min -m over a_i, s_f, m with face rows a_i+a_j+a_k + 4m + s_f = pi
    and invariant rows pattern + 2m = value."""
    nf, ne = t.n_faces, t.n_edges
    n_cols = 3 * nf + nf + 1
    margin_col = 4 * nf
    a, b = [], []
    for f in range(nf):
        row = [ZERO] * n_cols
        for k in range(3):
            row[3 * f + k] = ONE
        row[3 * nf + f] = ONE
        row[margin_col] = Fraction(4)
        a.append(row)
        b.append(ONE)
    for e in range(ne):
        row = [ZERO] * n_cols
        for col, coeff in _edge_row_pattern(t, e, program.kind).items():
            row[col] = coeff
        row[margin_col] = Fraction(2)
        a.append(row)
        b.append(program.value(e).coeff)
    c = [ZERO] * n_cols
    c[margin_col] = -ONE
    return LpProblem(tuple(tuple(r) for r in a), tuple(b), tuple(c))


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
    program = EdgeFunction({e: RatPi(w) for e, w in enumerate(weights)}, kind)
    return theorem, program, transform if geometry is GeometryClass.SPHERICAL else None


def build_construction_lp(
    t: Triangulation, fn: EdgeFunction, geometry: GeometryClass
) -> LpProblem:
    """The margin program that construct_structure solves, for either
    invariant kind."""
    _, program, _ = _route(t, fn, geometry)
    return _margin_lp(t, program)


def _solution_structure(t: Triangulation, x, margin) -> AngleStructure:
    return AngleStructure({c: RatPi(x[_corner_col(c)] + margin) for c in t.corners()})


def _witness_ok(t: Triangulation, x: AngleStructure, fn: EdgeFunction, geometry) -> bool:
    """Angles in (0, pi), the geometry's class and invariant fn, recomputed."""
    if not x.is_range_valid(t) or classify_structure(t, x) is not geometry:
        return False
    recomputed = invariant_of(t, x, fn.kind)
    return all(recomputed.value(e) == fn.value(e) for e in range(t.n_edges))


def _solve_margin(t: Triangulation, program: EdgeFunction) -> AngleStructure | None:
    """Validated hyperbolic structure with the program's invariant, or None
    when none exists."""
    outcome = simplex_solve(_margin_lp(t, program))
    if isinstance(outcome, Unbounded):
        raise VerificationFailed("construction program cannot be unbounded")
    if isinstance(outcome, Infeasible) or outcome.value == 0:
        return None
    witness = _solution_structure(t, outcome.x, -outcome.value)
    if not _witness_ok(t, witness, program, GeometryClass.HYPERBOLIC):
        raise VerificationFailed("margin witness failed validation")
    return witness


def _infeasible_certificate(t, fn, theorem) -> FeasibilityReport:
    """The cut's infeasible report, its certificate re-evaluated exactly."""
    report = check_via_flow(t, fn, theorem)
    if report.verdict is not Verdict.INFEASIBLE:
        raise VerificationFailed("construction and subset conditions disagree")
    slack = subset_slack(t, fn, theorem, report.certificate)
    if slack != report.slack or slack.coeff > 0:
        raise VerificationFailed("cut subset does not violate the inequality")
    return report


def construct_structure(
    t: Triangulation, fn: EdgeFunction, geometry: GeometryClass
) -> AngleStructure | FeasibilityReport:
    """Witness of the geometry with edge or Delaunay invariant fn, or the
    infeasible report of the theorem (T1-T4) for that pair, whose
    certificate is a face subset violating its inequality.

    Solves the hyperbolic margin program of the theorem's route and maps
    its witness back with the route's corner transform.  The returned
    witness has been checked for range, class and recomputed invariant.
    """
    theorem, program, transform = _route(t, fn, geometry)
    witness = _solve_margin(t, program)
    if witness is None:
        return _infeasible_certificate(t, fn, theorem)
    if transform is not None:
        witness = transform(t, witness)
        if not _witness_ok(t, witness, fn, geometry):
            raise VerificationFailed(f"transformed witness fails validation against {theorem}")
    return witness


# ---------------------------------------------------------------------------
# feasibility reports via the LP path


def check_via_lp(t: Triangulation, fn: EdgeFunction, geometry: GeometryClass) -> FeasibilityReport:
    """Same verdict surface as the enumeration checkers, decided by
    construct_structure."""
    result = construct_structure(t, fn, geometry)
    if isinstance(result, FeasibilityReport):
        return result
    return make_report(theorem_for(geometry, fn.kind), False, None, None)
