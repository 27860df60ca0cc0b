import hashlib
import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from anglestruct import GeometryClass, InvariantKind, lp, validate
from anglestruct.errors import DimensionMismatch, RangeViolation, VerificationFailed
from anglestruct.lp import (
    Infeasible,
    LpProblem,
    Optimal,
    _verify_farkas,
    _verify_optimal,
    build_construction_lp,
    render_problem,
    simplex_solve,
)
from anglestruct.sampling import random_triangulation
from conftest import (
    SELF_GLUED_FACES,
    const_fn,
    dual_cone_max_is_zero,
    make_problem,
    pinned_construct_requests,
    random_edge_values,
)


def test_trivial_feasible():
    out = simplex_solve(make_problem([[1, 1]], [1], [0, 0]))
    assert isinstance(out, Optimal)
    assert out.value == 0
    assert sum(out.x) == 1 and all(v >= 0 for v in out.x)


def test_trivial_infeasible_farkas_by_inspection():
    out = simplex_solve(make_problem([[1, 1]], [-1], [0, 0]))
    assert isinstance(out, Infeasible)
    (y,) = out.certificate
    # A^t y = (y, y) <= 0 and b^t y = -y > 0
    assert y < 0
    assert out.certificate == (Fraction(-1),)


def test_trivial_unbounded_raises():
    # the solver takes bounded programs only; x = (t, t) improves without end
    with pytest.raises(VerificationFailed, match="phase 2 unbounded"):
        simplex_solve(make_problem([[1, -1]], [0], [-1, 0]))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch, match="row count"):
        make_problem([[1]], [1, 2], [0])
    with pytest.raises(DimensionMismatch, match="row width"):
        make_problem([[1, 2]], [1], [0])
    # the stored rows are checked too: a column outside c, a scale that is not positive
    LpProblem(((((1, 1),), 1, 1),), fractions(0, 0))
    with pytest.raises(DimensionMismatch, match="outside c"):
        LpProblem(((((2, 1),), 1, 1),), fractions(0, 0))
    with pytest.raises(DimensionMismatch, match="outside c"):
        LpProblem(((((-1, 1),), 1, 1),), fractions(0, 0))
    with pytest.raises(DimensionMismatch, match="scale"):
        LpProblem(((((1, 1),), 1, 0),), fractions(0, 0))


def test_degenerate_cycling_guard():
    # a variant of Beale's cycling instance; the pivot rule must terminate
    a = [
        [Fraction(1, 4), -60, Fraction(-1, 25), 9, 1, 0, 0],
        [Fraction(1, 2), -90, Fraction(-1, 50), 3, 0, 1, 0],
        [0, 0, 1, 0, 0, 0, 1],
    ]
    b = [0, 0, 1]
    c = [Fraction(-3, 4), 150, Fraction(-1, 50), 6, 0, 0, 0]
    out = simplex_solve(make_problem(a, b, c))
    assert isinstance(out, Optimal)
    assert out.value == Fraction(-1, 20)


# Beale (1955): max 3/4 x1 - 20 x2 + 1/2 x3 - 6 x4 subject to
# 1/4 x1 - 8 x2 - x3 + 9 x4 <= 0, 1/2 x1 - 12 x2 - 1/2 x3 + 3 x4 <= 0 and
# x3 <= 1, with slack columns 4-6 as the starting basis
BEALE = (
    [
        [Fraction(1, 4), -8, -1, 9, 1, 0, 0],
        [Fraction(1, 2), -12, Fraction(-1, 2), 3, 0, 1, 0],
        [0, 0, 1, 0, 0, 0, 1],
    ],
    [0, 0, 1],
    [Fraction(-3, 4), 20, Fraction(-1, 2), 6, 0, 0, 0],
)


def test_beale_terminates_at_the_verified_optimum():
    out = simplex_solve(make_problem(*BEALE))
    assert out == Optimal(
        fractions(1, 0, 1, 0, Fraction(3, 4), 0, 0),
        Fraction(-5, 4),
        fractions(0, Fraction(-3, 2), Fraction(-5, 4)),
    )


def test_dantzig_cycles_on_beale_without_the_bland_fallback(monkeypatch):
    # with the fallback switched off, Dantzig's rule returns to a basis it
    # has already visited, so the fallback is what makes the run above end
    class Cycled(Exception):
        pass

    seen, pivot = set(), lp._pivot

    def recording(rows, dens, basis, r, col):
        pivot(rows, dens, basis, r, col)
        if tuple(basis) in seen:
            raise Cycled
        seen.add(tuple(basis))

    monkeypatch.setattr(lp, "_pivot", recording)
    monkeypatch.setattr(lp, "_DEGENERATE_RUN", float("inf"))
    with pytest.raises(Cycled):
        simplex_solve(make_problem(*BEALE))


def fractions(*values):
    return tuple(Fraction(v) for v in values)


def test_redundant_equality_rows():
    # phase 1 leaves an artificial basic at 0 on a row that is a multiple of
    # another; that row stays in place, untouched, and its multiplier reads 0
    out = simplex_solve(make_problem([[1, 1], [2, 2]], [1, 2], [1, 0]))
    assert out == Optimal(fractions(0, 1), Fraction(0), fractions(0, 0))
    out = simplex_solve(
        make_problem([[1, 1, 0], [2, 2, 0], [0, 1, 1]], [1, 2, 1], [0, -1, 0])
    )
    assert out == Optimal(fractions(0, 1, 0), Fraction(-1), fractions(-1, 0, 0))
    out = simplex_solve(make_problem([[1, 1], [2, 2], [1, 1]], [1, 2, 3], [0, 0]))
    assert out == Infeasible(fractions(-3, 1, 1))
    with pytest.raises(VerificationFailed, match="phase 2 unbounded"):
        simplex_solve(make_problem([[1, -1], [-2, 2]], [0, 0], [-1, 0]))


def test_empty_rows_and_columns():
    # an all-zero row with b = 0 is redundant: its artificial stays basic at
    # 0 with nothing to pivot on, so the row stays as it is and its
    # multiplier is 0
    out = simplex_solve(make_problem([[1, 1], [0, 0]], [1, 0], [1, 0]))
    assert out == Optimal(fractions(0, 1), Fraction(0), fractions(0, 0))
    # with b != 0 it cannot hold; the Farkas vector weighs that row alone
    for bv, y in [(3, 1), (-3, -1)]:
        out = simplex_solve(make_problem([[1, 1], [0, 0]], [1, bv], [0, 0]))
        assert out == Infeasible(fractions(0, y))
    # an all-zero column enters on a negative cost and no row stops it
    with pytest.raises(VerificationFailed, match="phase 2 unbounded"):
        simplex_solve(make_problem([[1, 0, 1], [1, 0, 0]], [1, 1], [1, -1, 0]))
    out = simplex_solve(make_problem([[1, 0, 1], [1, 0, 0]], [1, 1], [1, 1, 0]))
    assert out == Optimal(fractions(1, 0, 0), Fraction(1), fractions(0, 1))
    # no rows at all: every column is empty
    with pytest.raises(VerificationFailed, match="phase 2 unbounded"):
        simplex_solve(make_problem([], [], [-1, 0]))
    assert simplex_solve(make_problem([], [], [1, 0])) == Optimal(fractions(0, 0), Fraction(0), ())


def test_verifiers_reject_tampered_answers():
    problem = make_problem([[1, 1]], [1], [1, 2])
    _verify_optimal(problem, fractions(1, 0), Fraction(1), fractions(1))
    for x, value, y, message in [
        ((1, 1), 1, (1,), "A x = b"),
        ((2, -1), 1, (1,), "x >= 0"),
        ((1, 0), 2, (1,), "objective mismatch"),
        ((1, 0), 1, (2,), "strong duality"),
        ((0, 1), 2, (2,), "dual multipliers infeasible"),
    ]:
        with pytest.raises(VerificationFailed, match=re.escape(message)):
            _verify_optimal(problem, fractions(*x), Fraction(value), fractions(*y))
    # with no rows, A^t y = 0 must still be checked against every cost
    with pytest.raises(VerificationFailed, match="dual multipliers infeasible"):
        _verify_optimal(make_problem([], [], [-1, 0]), fractions(0, 0), Fraction(0), ())
    # an all-zero column, here with a negative cost, is checked the same way
    problem = make_problem([[1, 0], [0, 0]], [1, 0], [1, -1])
    with pytest.raises(VerificationFailed, match="dual multipliers infeasible"):
        _verify_optimal(problem, fractions(1, 0), Fraction(1), fractions(1, 0))
    # an all-zero row with b != 0 is checked in A x = b and in b^t y
    problem = make_problem([[1, 1], [0, 0]], [1, 3], [0, 0])
    with pytest.raises(VerificationFailed, match=re.escape("A x = b")):
        _verify_optimal(problem, fractions(1, 0), Fraction(0), fractions(0, 0))
    _verify_farkas(problem, fractions(0, 1))
    for y, message in [((1, 1), "A^t y <= 0"), ((0, -1), "b^t y > 0")]:
        with pytest.raises(VerificationFailed, match=re.escape(message)):
            _verify_farkas(problem, fractions(*y))

    problem = make_problem([[1, 1]], [-1], [0, 0])
    _verify_farkas(problem, fractions(-1))
    for y, message in [(1, "A^t y <= 0"), (0, "b^t y > 0")]:
        with pytest.raises(VerificationFailed, match=re.escape(message)):
            _verify_farkas(problem, fractions(y))

    # with no rows b^t y = 0, so no Farkas vector exists
    with pytest.raises(VerificationFailed, match=re.escape("b^t y > 0")):
        _verify_farkas(make_problem([], [], [-1, 0]), ())


def random_problem(rng, m, n):
    """Dense A, b and c with small integer entries."""
    a = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(m)]
    b = [Fraction(rng.randint(-5, 5)) for _ in range(m)]
    c = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
    return a, b, c


def random_rational_problem(rng, m, n):
    """Dense A, b and c with entries p/q, q up to 6 and either sign, so rows
    mix denominators and b has negative entries."""

    def draw():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    a = [[draw() for _ in range(n)] for _ in range(m)]
    return a, [draw() for _ in range(m)], [draw() for _ in range(n)]


def bounded(rng, draw, m, n):
    """draw's A, b and c for m rows and n columns with the row
    sum_j x_j + s = K appended, s a new column and K drawn in 1..9: the
    shape of a margin program's face row, which bounds every column."""
    a, b, c = draw(rng, m, n)
    a = [row + [0] for row in a] + [[1] * (n + 1)]
    return a, b + [rng.randint(1, 9)], c + [0]


def sweep(rng, draw, trials):
    """Random bounded systems of 1-6 rows and 1-8 columns before the
    bounding row."""
    for _ in range(trials):
        yield make_problem(*bounded(rng, draw, rng.randint(1, 6), rng.randint(1, 8)))


def outcome_counts(rng, draw, trials):
    """Outcome kinds over a sweep; the solver checks Ax=b, strong duality,
    dual feasibility and Farkas validity on every solve, so the sweep
    exercises every path."""
    statuses = {"Optimal": 0, "Infeasible": 0}
    for problem in sweep(rng, draw, trials):
        statuses[type(simplex_solve(problem)).__name__] += 1
    return statuses


def test_random_systems_verify_internally():
    statuses = outcome_counts(random.Random(99), random_problem, 200)
    assert all(count > 10 for count in statuses.values()), statuses


def test_rational_systems_verify_internally():
    statuses = outcome_counts(random.Random(2718), random_rational_problem, 300)
    assert all(count > 10 for count in statuses.values()), statuses


def pinned_programs():
    """Both sweeps above, then the margin programs of the 16
    pinned_construct_requests."""
    yield from sweep(random.Random(99), random_problem, 200)
    yield from sweep(random.Random(2718), random_rational_problem, 300)
    for request in pinned_construct_requests():
        yield build_construction_lp(*request)


def multiplier_digest(problems):
    """sha256 of every multiplier vector (Optimal.dual, Infeasible.certificate)
    of problems, each after its outcome's kind."""
    digest = hashlib.sha256()
    for problem in problems:
        out = simplex_solve(problem)
        y = out.dual if isinstance(out, Optimal) else out.certificate
        digest.update(f"{type(out).__name__} {' '.join(map(str, y))}\n".encode())
    return digest.hexdigest()


# y = c_B^t B^-1 depends on the final basis alone, not on how it is computed
DUAL_DIGEST = "8126f7fe35618bcca6e86707a1b625781177ab376e230cca141a284610cb1095"


def test_multipliers_pinned():
    assert multiplier_digest(pinned_programs()) == DUAL_DIGEST


def margin_draws():
    """40 margin programs of Random(5) on 4-12 faces: even draws T4 (a
    Delaunay invariant in (0, 2), hyperbolic), odd draws T1 (an edge
    invariant in (0, 1), spherical).  38 of them end phase 1 infeasible,
    so they pin the Farkas vectors of margin programs, which the feasible
    construct requests of pinned_programs never reach."""
    rng = random.Random(5)
    for k in range(40):
        t = random_triangulation(rng.choice([4, 6, 8, 10, 12]), rng)
        if k % 2 == 0:
            fn = random_edge_values(t, rng, Fraction(0), Fraction(2), InvariantKind.DELAUNAY)
            yield build_construction_lp(t, fn, GeometryClass.HYPERBOLIC)
        else:
            fn = random_edge_values(t, rng, Fraction(0), Fraction(1), InvariantKind.EDGE)
            yield build_construction_lp(t, fn, GeometryClass.SPHERICAL)


FARKAS_DIGEST = "be10fb194f564bc053df7e15703c6c9fa398cb1cee229982e75ff8dc703243c0"


def test_margin_farkas_vectors_pinned():
    assert multiplier_digest(margin_draws()) == FARKAS_DIGEST


def test_pivots_keep_rows_canonical(monkeypatch):
    # the elimination divides the pivot and each factor by their gcd before
    # it multiplies; after every pivot of both sweeps above, every row must
    # still be in lowest terms over a positive denominator, with its basic
    # entry equal to that denominator (the unit column of B^-1 A)
    pivot, pivots = lp._pivot, []

    def checked(rows, dens, basis, r, col):
        pivot(rows, dens, basis, r, col)
        pivots.append(col)
        for i, (row, den) in enumerate(zip(rows, dens, strict=True)):
            assert den > 0
            assert math.gcd(*row.values(), den) == 1
            if i < len(basis):
                assert row[basis[i]] == den

    monkeypatch.setattr(lp, "_pivot", checked)
    outcome_counts(random.Random(99), random_problem, 200)
    outcome_counts(random.Random(2718), random_rational_problem, 300)
    assert len(pivots) > 1000, len(pivots)


def test_artificials_never_return(monkeypatch):
    # every artificial column stays in the tableau, but only real columns
    # enter: an artificial that leaves the basis never becomes basic again,
    # and after _expel_artificials an artificial is basic only on a row with
    # no real column, at value 0.  The programs of the two redundant-row
    # tests keep such a row
    pivot, run, expel = lp._pivot, lp._run, lp._expel_artificials
    current, counts = {}, {"left": 0, "kept": 0}  # the solve's n and departed artificials

    def checked_pivot(rows, dens, basis, r, col):
        if basis[r] != col and basis[r] >= current["n"]:  # not a pricing pivot
            current["left"].add(basis[r])
            counts["left"] += 1
        pivot(rows, dens, basis, r, col)
        assert not current["left"].intersection(basis)

    def checked_run(rows, dens, basis, n, costs, phase):
        if phase == 1:
            current.update(n=n, left=set())
        run(rows, dens, basis, n, costs, phase)

    def checked_expel(rows, dens, basis, n):
        expel(rows, dens, basis, n)
        for row, col in zip(rows, basis):
            if col >= n:
                assert lp._RHS not in row and all(j >= n for j in row), sorted(row)
                counts["kept"] += 1

    monkeypatch.setattr(lp, "_pivot", checked_pivot)
    monkeypatch.setattr(lp, "_run", checked_run)
    monkeypatch.setattr(lp, "_expel_artificials", checked_expel)
    for problem in pinned_programs():
        simplex_solve(problem)
    test_redundant_equality_rows()
    test_empty_rows_and_columns()
    assert counts["left"] > 500 and counts["kept"] > 0, counts


def dense_margin_program(t, program):
    """The margin program written out densely from its formula: columns a_i
    (3*face + slot), then s_f, then m; face rows a_i+a_j+a_k + 4m + s_f = 1;
    edge rows + 2m = value over the facing corner (edge invariant) or the
    two other corners minus the facing one (Delaunay), for each side."""
    nf, margin = t.n_faces, 4 * t.n_faces
    a, b = [], []
    for f in range(nf):
        row = [0] * (margin + 1)
        row[3 * f] = row[3 * f + 1] = row[3 * f + 2] = 1
        row[3 * nf + f], row[margin] = 1, 4
        a.append(row)
        b.append(1)
    for corners, value in zip(t.edge_corners, program.values, strict=True):
        row = [0] * (margin + 1)
        for corner in corners:
            for slot in range(3):
                if slot == corner.slot:
                    row[3 * corner.face + slot] += 1 if program.kind is InvariantKind.EDGE else -1
                elif program.kind is InvariantKind.DELAUNAY:
                    row[3 * corner.face + slot] += 1
        row[margin] = 2
        a.append(row)
        b.append(value)
    return make_problem(a, b, [0] * margin + [-1])


def test_margin_program_equals_the_dense_reference():
    # the margin program is built directly as integer rows; written out
    # densely from its formula and converted by make_problem, it must be the
    # same problem (a self-glued Delaunay row cancels a corner, which the
    # rows omit)
    rng, built = random.Random(4711), 0
    for _ in range(80):
        faces = rng.choice([SELF_GLUED_FACES, None])
        t = validate(faces) if faces else random_triangulation(rng.choice([2, 4, 6, 8]), rng)
        kind = rng.choice(list(InvariantKind))
        d = random_edge_values(t, rng, Fraction(0), Fraction(1), kind)
        geometry = rng.choice([GeometryClass.HYPERBOLIC, GeometryClass.SPHERICAL])
        try:
            problem = build_construction_lp(t, d, geometry)
        except RangeViolation:  # outside the theorem's domain
            continue
        _, program, _ = lp._route(t, d, geometry)
        assert problem == dense_margin_program(t, program)
        built += 1
    assert built > 50, built


def test_every_margin_program_column_is_bounded():
    # the simplex takes bounded programs only; a margin program is one
    # because every column has a positive coefficient in a row whose
    # coefficients are all >= 0 and whose right-hand side is > 0
    rng, reached = random.Random(2024), set()
    for _ in range(120):
        faces = rng.choice([SELF_GLUED_FACES, None])
        t = validate(faces) if faces else random_triangulation(rng.choice([2, 4, 6, 8]), rng)
        kind = rng.choice(list(InvariantKind))
        d = random_edge_values(t, rng, Fraction(0), Fraction(rng.choice([1, 2])), kind)
        geometry = rng.choice([GeometryClass.HYPERBOLIC, GeometryClass.SPHERICAL])
        try:
            problem = build_construction_lp(t, d, geometry)
        except RangeViolation:  # outside the theorem's domain
            continue
        theorem, _, _ = lp._route(t, d, geometry)
        bounded_cols = {
            j
            for terms, bv, _ in problem.row_terms
            if bv > 0 and all(v >= 0 for _, v in terms)
            for j, v in terms
            if v > 0
        }
        assert bounded_cols == set(range(problem.n_cols)), (theorem, faces)
        reached.add((theorem, faces is not None))
    # T1 and T4 build the Delaunay program, T2 and T3 the edge program, each
    # on a random and on the self-glued surface
    assert reached == {(theorem, glued) for theorem in ("T1", "T2", "T3", "T4") for glued in (True, False)}


def test_margin_program_at_480_faces_stays_small():
    # the program is held as its nonzeros alone, not as a dense 1200 x 1921 A
    rng = random.Random(0)
    t = random_triangulation(480, rng)
    d = random_edge_values(t, rng, Fraction(0), Fraction(2), InvariantKind.DELAUNAY)
    tracemalloc.start()
    try:
        problem = build_construction_lp(t, d, GeometryClass.HYPERBOLIC)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (problem.n_rows, problem.n_cols) == (1200, 1921)
    assert peak <= 4 * 2**20, peak


def test_row_scaling_keeps_the_optimum_and_divides_its_multiplier():
    # Scaling row i of A and b_i by q > 0 keeps the feasible set, so the
    # optimal value stays and y_i becomes y_i / q.  The point and the
    # multipliers are unique, and so must come back equal, when x has one
    # positive entry per row and every column outside its support has a
    # positive reduced cost; the solver may pick another optimum otherwise.
    rng = random.Random(1618)
    unique = 0
    for _ in range(400):
        a, b, c = bounded(rng, random_rational_problem, rng.randint(1, 4), rng.randint(2, 7))
        out = simplex_solve(make_problem(a, b, c))
        if not isinstance(out, Optimal):
            continue
        i, q = rng.randrange(len(a)), Fraction(rng.randint(1, 9), rng.randint(1, 9))
        scaled_a = [[q * v for v in row] if k == i else row for k, row in enumerate(a)]
        scaled_b = [q * v if k == i else v for k, v in enumerate(b)]
        scaled = simplex_solve(make_problem(scaled_a, scaled_b, c))
        assert isinstance(scaled, Optimal) and scaled.value == out.value
        reduced = [cj - sum(row[j] * yk for row, yk in zip(a, out.dual)) for j, cj in enumerate(c)]
        if sum(v > 0 for v in out.x) == len(a) and all(
            r > 0 for r, v in zip(reduced, out.x) if v == 0
        ):
            unique += 1
            assert scaled.x == out.x
            assert scaled.dual == tuple(y / q if k == i else y for k, y in enumerate(out.dual))
    assert unique > 10, unique


def test_feasibility_equals_dual_cone_sign():
    # primal nonempty iff max{b.y : A^t y <= 0} is nonpositive,
    # both sides decided by independent solver runs
    rng = random.Random(4242)
    agree = 0
    for _ in range(120):
        m, n = rng.randint(1, 6), rng.randint(1, 8)
        a, b, _ = random_problem(rng, m, n)
        primal = simplex_solve(make_problem(a, b, [Fraction(0)] * n))
        primal_feasible = isinstance(primal, Optimal)
        dual_bounded = dual_cone_max_is_zero(a, b, n)
        assert primal_feasible == dual_bounded
        if isinstance(primal, Infeasible):
            y = primal.certificate
            for j in range(n):
                assert sum(a[i][j] * y[i] for i in range(m)) <= 0
            assert sum(b[i] * y[i] for i in range(m)) > 0
        agree += 1
    assert agree == 120


def test_construction_lp_dimensions(tetra):
    problem = build_construction_lp(tetra, const_fn(tetra, (3, 5)), GeometryClass.HYPERBOLIC)
    assert problem.n_cols == 17  # 12 corner vars + 4 face slacks + margin
    assert problem.n_rows == 10  # 4 faces + 6 edges
    spherical = build_construction_lp(tetra, const_fn(tetra, (7, 10)), GeometryClass.SPHERICAL)
    assert (spherical.n_cols, spherical.n_rows) == (17, 10)


def test_construction_lp_symmetric_optimum(tetra):
    problem = build_construction_lp(tetra, const_fn(tetra, (3, 5)), GeometryClass.HYPERBOLIC)
    out = simplex_solve(problem)
    assert isinstance(out, Optimal)
    # the face rows sum to A + 16m + S = 4 and the edge rows to A + 12m = 18/5
    # (A the corner mass, S the face slacks), so 4m + S = 2/5: m = 1/10 and
    # every face slack is 0
    assert -out.value == Fraction(1, 10)
    assert all(out.x[j] == 0 for j in range(12, 16))

    # D = 7pi/10 overfills every face budget: total corner mass 21pi/5 - 12m
    # against capacity 4pi - 16m, so the program is infeasible outright
    infeasible_side = build_construction_lp(
        tetra, const_fn(tetra, (7, 10)), GeometryClass.HYPERBOLIC
    )
    out = simplex_solve(infeasible_side)
    assert isinstance(out, Infeasible)


def test_strong_duality_on_construction_programs():
    rng = random.Random(31337)
    for _ in range(100):
        t = random_triangulation(rng.choice([2, 4, 6]), rng)
        d = random_edge_values(t, rng, Fraction(0), Fraction(2), InvariantKind.EDGE)
        problem = build_construction_lp(t, d, GeometryClass.HYPERBOLIC)
        out = simplex_solve(problem)
        if isinstance(out, Optimal):
            primal = sum(problem.c[j] * out.x[j] for j in range(problem.n_cols))
            # b_i is L_i b_i over L_i in the stored rows
            dual = sum(Fraction(bv, scale) * y for (_, bv, scale), y in zip(problem.row_terms, out.dual))
            assert primal == dual == out.value


def test_render_problem(tetra):
    problem = build_construction_lp(tetra, const_fn(tetra, (3, 5)), GeometryClass.HYPERBOLIC)
    text = render_problem(problem)
    lines = text.splitlines()
    assert lines[0].startswith("min ")
    assert len(lines) == 11
    assert "3/5" in lines[-1]
