"""Exact-rational linear programming path: witness construction.

The solver is a dense two-phase simplex over ``fractions.Fraction`` with
Bland's rule, so every pivot is exact and termination is guaranteed even
on the highly degenerate symmetric instances this domain produces.  At an
optimum the dual multipliers are read off the reduced costs of each row's
initial unit column; when phase 1 ends positive the same read yields a
Farkas vector (A^t y <= 0, b^t y > 0).

Construction works on the margin formulation x_i = a_i + eps: maximizing
eps subject to the face bound a_i+a_j+a_k+3*eps <= pi and the invariant
equations (facing pair + 2*eps for an edge invariant, signed corner sum
+ 2*eps for a Delaunay invariant).  A positive optimum usually yields an
interior witness directly.  On the boundary (optimal point with some face
angle sum exactly pi) a second program maximizing a uniform strict margin
(4*delta in the face rows) settles existence exactly.

When a program shows that no witness exists, the violating face subset
and its exact slack come from the minimum cut of
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
    delaunay_invariant,
    edge_invariant,
)
from .errors import DimensionMismatch, RangeViolation, VerificationFailed
from .feasibility import (
    FeasibilityReport,
    Verdict,
    check_via_flow,
    make_report,
    reduce_delaunay_to_edge,
    subset_slack,
    theorem_weights,
)
from .ratpi import RatPi
from .surface import Corner, FaceSubset, Triangulation

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# problem / outcome types


@dataclass(frozen=True)
class LpProblem:
    """min (or max) c.x  subject to  A x = b, x >= 0, all data rational."""

    a: tuple[tuple[Fraction, ...], ...]
    b: tuple[Fraction, ...]
    c: tuple[Fraction, ...]
    sense: str = "min"

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise DimensionMismatch(f"unknown sense {self.sense!r}")
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


def make_problem(a, b, c, sense="min") -> LpProblem:
    """Coerce nested int/Fraction data into a canonical LpProblem."""
    return LpProblem(
        tuple(tuple(Fraction(v) for v in row) for row in a),
        tuple(Fraction(v) for v in b),
        tuple(Fraction(v) for v in c),
        sense,
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
    minimizing = problem.sense == "min"
    m, n = problem.n_rows, problem.n_cols
    cost = [c if minimizing else -c for c in problem.c]

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

    phase2_cost = list(cost) + [ZERO] * (n_total - n)
    tab.set_costs(phase2_cost)
    enter = tab.run(structural)
    if enter is not None:
        ray = [ZERO] * n
        ray[enter] = ONE
        for i, col in enumerate(tab.basis):
            if col < n:
                ray[col] = -tab.rows[i][enter]
        _verify_ray(problem, ray, minimizing)
        return Unbounded(tuple(ray))

    x = [ZERO] * n
    for i, col in enumerate(tab.basis):
        if col < n:
            x[col] = tab.rhs[i]
    value = -tab.obj_value
    y = _read_dual(tab, phase2_cost, live_orig_rows, row_sign, m)
    if not minimizing:
        value = -value
        y = [-v for v in y]
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


def _verify_ray(problem: LpProblem, ray, minimizing):
    for i in range(problem.n_rows):
        if sum(problem.a[i][j] * ray[j] for j in range(problem.n_cols)) != 0:
            raise VerificationFailed("unbounded ray leaves the constraint space")
    if any(v < 0 for v in ray):
        raise VerificationFailed("unbounded ray not nonnegative")
    drift = sum(problem.c[j] * ray[j] for j in range(problem.n_cols))
    if minimizing and drift >= 0 or not minimizing and drift <= 0:
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
        dot = sum(problem.a[i][j] * y[i] for i in range(m))
        bad = dot > problem.c[j] if problem.sense == "min" else dot < problem.c[j]
        if bad:
            raise VerificationFailed("dual multipliers infeasible at optimum")


def render_problem(problem: LpProblem) -> str:
    """Plain-text dump, every entry as p/q, for --dump-lp auditing."""

    def fmt(v: Fraction) -> str:
        return f"{v.numerator}/{v.denominator}"

    lines = [f"{problem.sense} {' '.join(fmt(v) for v in problem.c)}"]
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

    def bump(corner, delta):
        col = _corner_col(corner)
        coeffs[col] = coeffs.get(col, ZERO) + delta

    for facing in t.edge_corners[e]:
        if kind is InvariantKind.EDGE:
            bump(facing, ONE)
        else:
            bump(facing, -ONE)
            f, k = facing
            bump(Corner(f, (k + 1) % 3), ONE)
            bump(Corner(f, (k + 2) % 3), ONE)
    return coeffs


def _margin_lp(t: Triangulation, values, kind: InvariantKind, face_margin: int) -> LpProblem:
    """min -margin over a_i, s_f, margin with face rows
    a_i+a_j+a_k + face_margin*m + s_f = pi and invariant rows pattern + 2m = value."""
    nf, ne = t.n_faces, t.n_edges
    n_cols = 3 * nf + nf + 1
    margin_col = 4 * nf
    a = []
    b = []
    for f in range(nf):
        row = [ZERO] * n_cols
        for k in range(3):
            row[3 * f + k] = ONE
        row[3 * nf + f] = ONE
        row[margin_col] = Fraction(face_margin)
        a.append(row)
        b.append(ONE)
    for e in range(ne):
        row = [ZERO] * n_cols
        for col, coeff in _edge_row_pattern(t, e, kind).items():
            row[col] = coeff
        row[margin_col] = Fraction(2)
        a.append(row)
        b.append(values[e])
    c = [ZERO] * n_cols
    c[margin_col] = -ONE
    return LpProblem(tuple(tuple(r) for r in a), tuple(b), tuple(c), "min")


def build_construction_lp(
    t: Triangulation, d: EdgeFunction, geometry: GeometryClass
) -> LpProblem:
    """The margin program deciding existence for the requested geometry.

    Hyperbolic uses the edge-invariant equations for d directly; spherical
    goes through the transform route, prescribing the Delaunay invariant
    2*pi - 2*d of the hyperbolic structure whose transform realizes d.
    """
    if d.kind is not InvariantKind.EDGE:
        raise RangeViolation("construction takes an edge invariant")
    if geometry is GeometryClass.HYPERBOLIC:
        values = [d.value(e).coeff for e in range(t.n_edges)]
        return _margin_lp(t, values, InvariantKind.EDGE, 3)
    if geometry is GeometryClass.SPHERICAL:
        values = [2 - 2 * d.value(e).coeff for e in range(t.n_edges)]
        return _margin_lp(t, values, InvariantKind.DELAUNAY, 3)
    raise RangeViolation(f"no construction for geometry {geometry.value}")


@dataclass(frozen=True)
class InfeasibleCertificate:
    """Face subset violating the stated theorem's inequality, with exact slack."""

    subset: FaceSubset
    slack: RatPi
    theorem: str


ConstructionResult = AngleStructure | InfeasibleCertificate


def _solution_structure(t: Triangulation, x, margin) -> AngleStructure:
    values = {}
    for corner in t.corners():
        values[corner] = RatPi(x[_corner_col(corner)] + margin)
    return AngleStructure(values)


def _hyperbolic_witness_ok(t, structure, fn, kind) -> bool:
    if not structure.is_range_valid(t):
        return False
    if classify_structure(t, structure) is not GeometryClass.HYPERBOLIC:
        return False
    recomputed = (
        edge_invariant(t, structure)
        if kind is InvariantKind.EDGE
        else delaunay_invariant(t, structure)
    )
    return all(recomputed.value(e) == fn.value(e) for e in range(t.n_edges))


def _construct_hyperbolic(t: Triangulation, fn: EdgeFunction) -> ConstructionResult:
    """Hyperbolic structure with the prescribed invariant (edge or Delaunay),
    or a violating subset for the matching theorem."""
    kind = fn.kind
    theorem = "T2" if kind is InvariantKind.EDGE else "T4"
    values = [fn.value(e).coeff for e in range(t.n_edges)]
    outcome = simplex_solve(_margin_lp(t, values, kind, 3))

    if isinstance(outcome, Unbounded):
        raise VerificationFailed("construction program cannot be unbounded")
    if isinstance(outcome, Infeasible):
        return _infeasible_certificate(t, fn, theorem)

    eps = -outcome.value
    if eps > 0:
        witness = _solution_structure(t, outcome.x, eps)
        if _hyperbolic_witness_ok(t, witness, fn, kind):
            return witness
    if eps == 0:
        return _infeasible_certificate(t, fn, theorem)

    # Optimal margin is positive but the optimal vertex sits on the Euclidean
    # boundary; decide with the uniform strict-margin program.
    outcome2 = simplex_solve(_margin_lp(t, values, kind, 4))
    if isinstance(outcome2, (Infeasible, Unbounded)):
        raise VerificationFailed("strict-margin program must be feasible and bounded here")
    delta = -outcome2.value
    if delta > 0:
        witness = _solution_structure(t, outcome2.x, delta)
        if not _hyperbolic_witness_ok(t, witness, fn, kind):
            raise VerificationFailed("strict-margin witness failed validation")
        return witness
    return _infeasible_certificate(t, fn, theorem)


def _infeasible_certificate(t, fn, theorem) -> InfeasibleCertificate:
    report = check_via_flow(t, fn, theorem)
    if report.verdict is not Verdict.INFEASIBLE:
        raise VerificationFailed("construction and subset conditions disagree")
    slack = subset_slack(t, fn, theorem, report.certificate)
    if slack != report.slack or slack.coeff > 0:
        raise VerificationFailed("cut subset does not violate the inequality")
    return InfeasibleCertificate(report.certificate, slack, theorem)


def construct_structure(
    t: Triangulation, d: EdgeFunction, geometry: GeometryClass
) -> ConstructionResult:
    """Witness structure with edge invariant d, or a violating face subset.

    Hyperbolic solves the margin program directly.  Spherical prescribes
    the Delaunay invariant 2*pi - 2*d to a hyperbolic structure and maps
    it through the corner transform; the result is re-validated and its
    edge invariant equals d exactly.
    """
    if d.kind is not InvariantKind.EDGE:
        raise RangeViolation("construct_structure takes an edge invariant")
    if geometry is GeometryClass.HYPERBOLIC:
        theorem_weights(t, d, "T2")
        return _construct_hyperbolic(t, d)
    if geometry is not GeometryClass.SPHERICAL:
        raise RangeViolation(f"no construction for geometry {geometry.value}")

    theorem_weights(t, d, "T1")
    dd = EdgeFunction(
        {e: RatPi(2 - 2 * d.value(e).coeff) for e in range(t.n_edges)},
        InvariantKind.DELAUNAY,
    )
    result = _construct_hyperbolic(t, dd)
    if isinstance(result, InfeasibleCertificate):
        # pi - dd/2 = d, so the T4 inequality for dd is literally the T1
        # inequality for d on the same subset.
        slack = subset_slack(t, d, "T1", result.subset)
        if slack != result.slack:
            raise VerificationFailed("T4/T1 certificate slack mismatch")
        return InfeasibleCertificate(result.subset, slack, "T1")
    spherical = corner_transform(t, result)
    if not spherical.is_range_valid(t):
        raise VerificationFailed("transformed witness left (0, pi)")
    if classify_structure(t, spherical) is not GeometryClass.SPHERICAL:
        raise VerificationFailed("transformed witness is not spherical")
    recomputed = edge_invariant(t, spherical)
    if any(recomputed.value(e) != d.value(e) for e in range(t.n_edges)):
        raise VerificationFailed("transformed witness has wrong edge invariant")
    return spherical


def construct_hyperbolic_with_delaunay(
    t: Triangulation, dd: EdgeFunction
) -> ConstructionResult:
    """Hyperbolic structure with Delaunay invariant dd, or a T4-violating subset."""
    if dd.kind is not InvariantKind.DELAUNAY:
        raise RangeViolation("expected a Delaunay invariant")
    theorem_weights(t, dd, "T4")
    return _construct_hyperbolic(t, dd)


def construct_spherical_with_delaunay(
    t: Triangulation, dd: EdgeFunction
) -> ConstructionResult:
    """Spherical structure with Delaunay invariant dd, or a T3-violating subset.

    Builds the hyperbolic structure with edge invariant pi - dd/2 and
    inverts the corner substitution (the forward direction maps spherical
    onto hyperbolic); the result carries Delaunay invariant
    2*pi - 2*(pi - dd/2) = dd exactly.
    """
    if dd.kind is not InvariantKind.DELAUNAY:
        raise RangeViolation("expected a Delaunay invariant")
    theorem_weights(t, dd, "T3")
    reduced = reduce_delaunay_to_edge(dd, t)
    result = _construct_hyperbolic(t, reduced)
    if isinstance(result, InfeasibleCertificate):
        return InfeasibleCertificate(result.subset, result.slack, "T3")
    spherical = corner_transform_inverse(t, result)
    if not spherical.is_range_valid(t):
        raise VerificationFailed("transformed witness left (0, pi)")
    if classify_structure(t, spherical) is not GeometryClass.SPHERICAL:
        raise VerificationFailed("transformed witness is not spherical")
    recomputed = delaunay_invariant(t, spherical)
    if any(recomputed.value(e) != dd.value(e) for e in range(t.n_edges)):
        raise VerificationFailed("transformed witness has wrong Delaunay invariant")
    return spherical


# ---------------------------------------------------------------------------
# feasibility reports via the LP path


def check_via_lp(t: Triangulation, fn: EdgeFunction, geometry: GeometryClass) -> FeasibilityReport:
    """Same verdict surface as the enumeration checkers, decided by LP.

    Dispatch: (spherical, edge) -> T1, (hyperbolic, edge) -> T2,
    (spherical, delaunay) -> T3 via the pi - dd/2 reduction,
    (hyperbolic, delaunay) -> T4.
    """
    if fn.kind is InvariantKind.EDGE:
        theorem = "T1" if geometry is GeometryClass.SPHERICAL else "T2"
        result = construct_structure(t, fn, geometry)
    elif geometry is GeometryClass.SPHERICAL:
        theorem = "T3"
        theorem_weights(t, fn, "T3")
        result = construct_structure(t, reduce_delaunay_to_edge(fn, t), GeometryClass.HYPERBOLIC)
    else:
        theorem = "T4"
        result = construct_hyperbolic_with_delaunay(t, fn)
    if isinstance(result, InfeasibleCertificate):
        return make_report(theorem, True, result.subset, result.slack.coeff)
    return make_report(theorem, False, None, None)
