from __future__ import annotations

import random
import string
from fractions import Fraction

import pytest

import histrel.game
import histrel.simplex
from histrel import (
    COVERING,
    SUPPORTING,
    Alphabet,
    HistogramSet,
    IterationCapExceeded,
    ValidationError,
    certify,
    solve_covering,
    solve_supporting,
)
from histrel.core import FLOAT_EPS, Field, _solve_integer, distinct_rows
from histrel.game import covering_lp, supporting_lp
from histrel.simplex import (
    StandardFormLP,
    _optimal_dictionary,
    simplex_optimize,
)
from histrel.verify import MIXED, classify_binary, oracle_solve, random_histogram_set

E1_ROWS = ((7, 3), (6, 4))


def _game_programs(seed: int, count: int):
    """Programs of both builders, on the member rows and on the transpose."""
    rng = random.Random(seed)
    for _ in range(count):
        hs = random_histogram_set(rng, max_symbols=6, max_members=8, max_length=30)
        counts = distinct_rows(hs.count_rows())[0]
        for rows in (counts, tuple(zip(*counts))):
            for build in (supporting_lp, covering_lp):
                yield build(rows)[0]


def _fraction_solve(matrix, rhs):
    """Gaussian elimination over fractions; None when singular."""
    size = len(matrix)
    aug = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(matrix, rhs)]
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot_row is None:
            return None
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [row[size] for row in aug]


def _gauss_jordan_solve(matrix, rhs):
    """The reference integer solve: fraction-free Gauss-Jordan elimination
    (Bareiss) of ``[matrix | rhs]``, every row eliminated at every step, with
    the first nonzero entry of each column as pivot. Returns ``(det,
    numerators)`` with ``det == |det(matrix)|`` and ``x[i] == numerators[i] /
    det``, or None when the matrix is singular. ``core._solve_integer`` must
    return what this does, for ``matrix`` and its transpose, from one LU."""
    size = len(matrix)
    aug = [[*row, value] for row, value in zip(matrix, rhs)]
    previous = 1
    for k in range(size):
        pivot_row = next((r for r in range(k, size) if aug[r][k]), None)
        if pivot_row is None:
            return None
        aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
        pivot_tail = aug[k][k:]
        pivot = pivot_tail[0]
        for r in range(size):
            if r == k:
                continue
            row = aug[r]
            factor = row[k]
            if factor:
                tail = zip(row[k:], pivot_tail)
                row[k:] = [(pivot * v - factor * w) // previous for v, w in tail]
            elif pivot != previous:
                row[k:] = [pivot * v // previous for v in row[k:]]
        previous = pivot
    numerators = [row[size] for row in aug]
    if previous < 0:
        return -previous, [-v for v in numerators]
    return previous, numerators


def _reference_solves(matrix, rhs, costs):
    """``(det, x, y)`` from two reference solves, of ``matrix`` and of its
    transpose, or None when the matrix is singular."""
    primal = _gauss_jordan_solve(matrix, rhs)
    if primal is None:
        return None
    return (*primal, _gauss_jordan_solve([list(col) for col in zip(*matrix)], costs)[1])


def _slack_tableau(lp, of):
    """The program's full tableau over the number type ``of``: each row
    followed by its slack's unit entries, then the objective row with zero
    slack costs; the slacks are the basis."""
    n, m = len(lp.objective), len(lp.rows)
    A = [
        [*map(of, row), *(of(int(i == r)) for i in range(m))] for r, row in enumerate(lp.rows)
    ]
    A.append([*map(of, lp.objective), *(of(0),) * m])
    return A, [*map(of, lp.rhs), of(0)], list(range(n, n + m))


def _apply_pivot(A, b, prow, pcol):
    """One pivot of the full tableau, every column rewritten: the reference
    the library's dictionary pivot must equal entry for entry."""
    pivot = A[prow][pcol]
    if pivot != 1:
        inv = 1 / pivot
        A[prow] = [v * inv for v in A[prow]]
        b[prow] = b[prow] * inv
    row = A[prow]
    for r in range(len(A)):
        if r == prow:
            continue
        factor = A[r][pcol]
        if factor == 0:
            continue
        A[r] = [v - factor * w for v, w in zip(A[r], row)]
        A[r][pcol] = 0 * factor  # exact zero in both arithmetics
        b[r] = b[r] - factor * b[prow]


def _largest_coefficient(costs, eps, stalled):
    top = max(costs)
    return None if top <= eps else costs.index(top)


def _smallest_index(costs, eps, stalled):
    return next((j for j, v in enumerate(costs) if v > eps), None)


def _library_rule(costs, eps, stalled):
    """The library's entering rule on a tableau's objective row: the
    smallest column within ``eps`` of the largest reduced cost, or Bland's
    smallest improving column once the pivots have stalled."""
    if stalled:
        return _smallest_index(costs, eps, stalled)
    top = max(costs)
    if top <= eps:
        return None
    return next(j for j, v in enumerate(costs) if v >= top - eps and v > eps)


def _pivot_with(A, b, basis_list, entering, eps, limit):
    """A pivot loop local to the tests, on a full tableau: ``entering(costs,
    eps, stalled)`` picks the column, where ``stalled`` says that the last
    ``m`` pivots were degenerate, and the library's leaving rule picks the
    row (minimum ratio, ties to the smallest basis index). Stops at an
    optimum or after ``limit`` pivots; returns the bases visited, each in
    row order, and the objective value reached."""
    m = len(basis_list)
    visited = [tuple(basis_list)]
    degenerate = 0
    while len(visited) <= limit:
        enter = entering(A[m], eps, degenerate >= m)
        if enter is None:
            break
        leave_row, best_ratio = None, None
        for r in range(m):
            if A[r][enter] > eps:
                ratio = b[r] / A[r][enter]
                if (
                    best_ratio is None
                    or ratio < best_ratio - eps
                    or (ratio <= best_ratio + eps and basis_list[r] < basis_list[leave_row])
                ):
                    leave_row, best_ratio = r, ratio
        degenerate = degenerate + 1 if best_ratio <= eps else 0
        _apply_pivot(A, b, leave_row, enter)
        basis_list[leave_row] = enter
        visited.append(tuple(basis_list))
    return visited, -b[m]


def _exact_pivoting(lp):
    """Reference: the full tableau pivoted over fractions from the slack
    basis by the library's rules, with no float guide (largest reduced cost
    enters, Bland's rule after a run of degenerate pivots)."""
    A, b, basis_list = _slack_tableau(lp, Fraction)
    visited, value = _pivot_with(A, b, basis_list, _library_rule, 0, 10**6)
    solution = [Fraction(0)] * len(A[-1])
    for r, var in enumerate(basis_list):
        solution[var] = b[r]
    return (tuple(solution), tuple(A[-1]), value, set(basis_list), len(visited) - 1)


# V. Chvatal, Linear Programming (1983), ch. 3: the largest-coefficient rule
# cycles on this program. Its entries of 1/2 keep it out of rational mode,
# which takes integer programs, so the tests drive the pivot loops on it.
CHVATAL = StandardFormLP(
    objective=(10, -57, -9, -24),
    rows=(
        (Fraction(1, 2), Fraction(-11, 2), Fraction(-5, 2), 9),
        (Fraction(1, 2), Fraction(-3, 2), Fraction(-1, 2), 1),
        (1, 0, 0, 0),
    ),
    rhs=(0, 0, 1),
)


def _recorded_programs(monkeypatch, sets, mode):
    """Every game program built while both games of each set are solved in
    ``mode``. A straddling two-symbol set takes the closed form, so its
    programs are built without the reduction, which would keep both symbols."""
    programs = []

    def record(lp, arithmetic):
        programs.append(lp)
        return simplex_optimize(lp, arithmetic)

    monkeypatch.setattr(histrel.game, "simplex_optimize", record)
    for hs in sets:
        reduce = len(hs.alphabet) != 2 or classify_binary(hs) != MIXED
        solve_supporting(hs, mode, use_reduction=reduce)
        solve_covering(hs, mode, use_reduction=reduce)
    return programs


def _slack_multipliers(lp, result):
    """Row multipliers: minus the reduced costs of the slacks, which come
    after the program's columns."""
    return [0 - c for c in result.reduced_costs[len(lp.objective) :]]


def _compared(result):
    return (
        result.solution,
        result.reduced_costs,
        result.objective_value,
        set(result.basis),
        result.iterations,
    )


def test_supporting_program_for_e1():
    lp, _ = supporting_lp(E1_ROWS)
    result = simplex_optimize(lp)
    # the program of E1 + 1 has value 6 + 1; its slack duals scale to the weight
    assert result.objective_value == Fraction(1, 7)
    assert [7 * y for y in _slack_multipliers(lp, result)] == [1, 0]
    assert [7 * w for w in result.solution[:2]] == [0, 1]  # the minimum member


def test_covering_program_for_e1():
    lp, _ = covering_lp(E1_ROWS)
    result = simplex_optimize(lp)
    # the program of 8 - E1 has value 8 - 4
    assert result.objective_value == Fraction(1, 4)
    assert [4 * y for y in _slack_multipliers(lp, result)] == [0, 1]


def test_supporting_program_constant_rows():
    lp, _ = supporting_lp(((2, 2, 2),))
    result = simplex_optimize(lp)
    assert result.objective_value == Fraction(1, 3)


def test_deterministic_bit_for_bit():
    lp, _ = supporting_lp(((3, 2, 1), (1, 2, 3)))
    first = simplex_optimize(lp)
    second = simplex_optimize(lp)
    assert first == second


def test_row_duals_solve_the_transposed_system():
    lp, _ = supporting_lp(((4, 6), (7, 3)))
    result = simplex_optimize(lp)
    n = len(lp.objective)
    # y^T B == c_B on the basic columns, componentwise; a basic slack prices y_r at 0
    y = _slack_multipliers(lp, result)
    for var in result.basis:
        if var < n:
            assert sum(a * row[var] for a, row in zip(y, lp.rows)) == lp.objective[var]
        else:
            assert y[var - n] == 0


def test_objective_row_agrees_with_the_basis_solve():
    for lp in _game_programs(6, 60):
        entries = [*lp.objective, *lp.rhs, *(v for row in lp.rows for v in row)]
        assert all(type(v) is int for v in entries)
        n = len(lp.objective)
        for mode, tol in (("rational", 0), ("float", FLOAT_EPS)):
            result = simplex_optimize(lp, mode)
            x, slacks = result.solution[:n], result.solution[n:]
            y = _slack_multipliers(lp, result)
            for j, cost in enumerate(lp.objective):
                priced = sum(a * row[j] for a, row in zip(y, lp.rows))
                assert abs(result.reduced_costs[j] - (cost - priced)) <= tol
            assert abs(result.objective_value - sum(c * v for c, v in zip(lp.objective, x))) <= tol
            for row, b, s in zip(lp.rows, lp.rhs, slacks):
                assert abs(sum(a * v for a, v in zip(row, x)) + s - b) <= tol


def test_guided_rational_solve_equals_exact_bland(monkeypatch):
    # on these small programs the guide's basis is exactly optimal, so the
    # integer check accepts every guide and exact pivoting never runs
    modes, real_pivoting = [], histrel.simplex._optimal_dictionary

    def pivoting(lp, field):
        modes.append(field.mode)
        return real_pivoting(lp, field)

    monkeypatch.setattr(histrel.simplex, "_optimal_dictionary", pivoting)
    for lp in _game_programs(6, 60):
        result = simplex_optimize(lp)
        assert _compared(result) == _exact_pivoting(lp)
        exact = (result.objective_value, *result.solution, *result.reduced_costs)
        assert all(type(v) is Fraction for v in exact)
    assert modes and set(modes) == {"float"}


def test_rational_falls_back_to_exact_pivoting_when_the_guide_stalls(monkeypatch):
    monkeypatch.setattr("histrel.simplex.DEFAULT_FLOAT_ITERATION_CAP", 0)
    programs = list(_game_programs(7, 20))
    expected = [_exact_pivoting(lp) for lp in programs]
    assert sum(e[-1] > 0 for e in expected) > len(programs) // 2  # most need a pivot
    for lp, reference in zip(programs, expected):
        assert _compared(simplex_optimize(lp)) == reference


@pytest.mark.parametrize("guide_pivots", [0, 1])
def test_exact_repair_continues_from_a_non_optimal_guided_basis(monkeypatch, guide_pivots):
    # a guide that stops early leaves a basis that is not optimal, and exact
    # pivoting then starts over; the pivot loop takes no basis, so it starts
    # from the slacks
    real = _optimal_dictionary
    exact_runs = []

    def guide_stops_early(lp, field):
        if field.exact:
            exact_runs.append(lp)
            return real(lp, field)
        # the float guide: at most guide_pivots pivots of the library's rule
        A, b, basis_list = _slack_tableau(lp, float)
        visited = _pivot_with(A, b, basis_list, _library_rule, FLOAT_EPS, guide_pivots)[0]
        nonbasic = [j for j in range(len(A[-1])) if j not in basis_list]
        return basis_list, nonbasic, b, [A[-1][j] for j in nonbasic], len(visited) - 1

    monkeypatch.setattr("histrel.simplex._optimal_dictionary", guide_stops_early)
    for lp in _game_programs(8, 20):
        reference = _exact_pivoting(lp)
        exact_runs.clear()
        # iterations count the exact pivots, or the guide's when its basis is accepted
        assert _compared(simplex_optimize(lp)) == reference
        assert len(exact_runs) == (reference[-1] > guide_pivots)


def test_largest_coefficient_alone_cycles_on_chvatals_example():
    for field in map(Field.for_mode, ("rational", "float")):
        tableau = _slack_tableau(CHVATAL, field.of)
        visited, value = _pivot_with(*tableau, _largest_coefficient, field.tol, 60)
        assert len(visited) == 61 and value == 0  # 60 degenerate pivots, no progress
        assert len(set(visited)) < len(visited)  # a basis repeats: the loop cycles


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_degenerate_stall_switch_solves_chvatals_example(mode):
    # the library's loop: the Bland fallback ends the cycle
    basis, _, b, _, pivots = _optimal_dictionary(CHVATAL, Field.for_mode(mode))
    assert pivots > len(basis)
    assert -b[-1] == 1
    assert b[basis.index(0)] == 1


def test_exact_pivoting_ends_on_chvatals_example():
    # scaled to integers with unit slacks, the example does not make the
    # largest-coefficient rule cycle, and both modes solve it from the slacks
    lp = StandardFormLP(
        objective=(10, -57, -9, -24),
        rows=((1, -11, -5, 18), (1, -3, -1, 2), (1, 0, 0, 0)),
        rhs=(0, 0, 1),
    )
    reference = _exact_pivoting(lp)
    assert reference[2] == 1
    assert _compared(simplex_optimize(lp)) == reference
    assert simplex_optimize(lp, "float").objective_value == 1


def _multinomial_set(seed, symbols=26, members=80, length=400):
    """Each member ``length`` draws from equal probabilities on ``symbols``
    symbols; by default the size of the benchmark's float sets."""
    rng = random.Random(seed)
    counts = []
    for _ in range(members):
        member = [0] * symbols
        for j in rng.choices(range(symbols), k=length):
            member[j] += 1
        counts.append(member)
    return HistogramSet.from_counts(Alphabet(tuple(string.ascii_lowercase[:symbols])), counts)


def test_largest_coefficient_takes_at_most_half_the_bland_pivots(monkeypatch):
    programs = _recorded_programs(monkeypatch, map(_multinomial_set, range(8)), "float")
    assert len(programs) == 16
    pivots = sum(simplex_optimize(lp, "float").iterations for lp in programs)
    bland = sum(
        len(_pivot_with(*_slack_tableau(lp, float), _smallest_index, FLOAT_EPS, 10_000)[0]) - 1
        for lp in programs
    )
    assert pivots <= bland / 2


def _bases_before_the_cap(monkeypatch, lp, pivots):
    """The library's float basis, in row order, after each of its first
    ``pivots`` pivots: a pivot cap of ``k`` stops the loop after ``k``
    pivots, and the basis is read off the frame that raised."""
    bases = []
    for cap in range(pivots):
        with monkeypatch.context() as patch:
            patch.setattr("histrel.simplex.DEFAULT_FLOAT_ITERATION_CAP", cap)
            with pytest.raises(IterationCapExceeded) as stopped:
                simplex_optimize(lp, "float")
        bases.append(tuple(stopped.traceback[-1].locals["basis"]))
    return bases


def test_dictionary_pivots_like_the_full_tableau(monkeypatch):
    # the dictionary drops the basic unit columns of the tableau but keeps
    # its pivots and its float rounding: the same bases in the same rows,
    # and the same bits in every value and reduced cost
    sets = [_multinomial_set(seed) for seed in range(2)]
    sets += [_multinomial_set(seed, 10, 20, 80) for seed in range(4)]
    programs = [*_game_programs(6, 60), *_recorded_programs(monkeypatch, sets, "float")]
    for lp in programs:
        A, b, basis_list = _slack_tableau(lp, float)
        visited = _pivot_with(A, b, basis_list, _library_rule, FLOAT_EPS, 10_000)[0]
        result = simplex_optimize(lp, "float")
        assert result.iterations == len(visited) - 1
        assert [*_bases_before_the_cap(monkeypatch, lp, result.iterations), result.basis] == visited
        solution = [0.0] * len(A[-1])
        for r, var in enumerate(basis_list):
            solution[var] = b[r]
        assert repr(result.solution) == repr(tuple(solution))
        assert repr(result.reduced_costs) == repr(tuple(A[-1]))
        assert repr(result.objective_value) == repr(0 - b[-1])


def test_exact_answers_where_the_float_guide_misjudges_the_basis():
    # ratios 1 and 1 - 1e-10 tie in float, and the smaller basis index leaves:
    # the float basis leaves the second slack at -1
    lp = StandardFormLP(objective=(1,), rows=((1,), (10**10 + 1,)), rhs=(1, 10**10))
    assert simplex_optimize(lp, "float").solution == (1.0, 0.0, -1.0)
    assert simplex_optimize(lp).objective_value == Fraction(10**10, 10**10 + 1)
    # a reduced cost of 1e-10 counts as zero in float: the float basis stops short
    lp = StandardFormLP(objective=(1, 1), rows=((10**10, 10**10 - 1),), rhs=(10**10,))
    assert simplex_optimize(lp, "float").objective_value == 1.0
    assert simplex_optimize(lp).objective_value == Fraction(10**10, 10**10 - 1)
    # an entry beyond the float range stops the guide before its first pivot
    lp = StandardFormLP(objective=(1,), rows=((10**400,),), rhs=(10**400,))
    assert simplex_optimize(lp).objective_value == 1


def test_integer_solver_matches_fraction_elimination():
    rng = random.Random(12)
    singular = 0
    for _ in range(300):
        size = rng.randint(1, 7)
        entries = (0, 0, 1, -1, rng.randint(-40, 40))
        matrix = [[rng.choice(entries) for _ in range(size)] for _ in range(size)]
        rhs = [rng.randint(-20, 20) for _ in range(size)]
        costs = [rng.randint(-20, 20) for _ in range(size)]
        expected = _fraction_solve(matrix, rhs)
        solved = _solve_integer(matrix, rhs, costs)
        if expected is None:
            singular += 1
            assert solved is None
            continue
        det, x, y = solved
        assert det > 0 and all(type(v) is int for v in (*x, *y))
        assert [Fraction(v, det) for v in x] == expected
        # the transpose has the same |det|, so one denominator serves both systems
        transposed = [list(col) for col in zip(*matrix)]
        assert [Fraction(v, det) for v in y] == _fraction_solve(transposed, costs)
        assert _solve_integer(matrix, rhs) == (det, x, None)
    assert singular > 10


@pytest.mark.parametrize(
    "matrix",
    [[[0]], [[1, 2], [2, 4]], [[1, 0, 1], [0, 1, 1], [1, 1, 2]], [[0, 3], [0, 5]]],
)
def test_integer_solver_reports_a_singular_matrix(matrix):
    assert _solve_integer(matrix, [1] * len(matrix)) is None
    assert _solve_integer(matrix, [1] * len(matrix), [1] * len(matrix)) is None


# entry draws: units, small integers and integers up to 1e12, each with zeros
_ENTRY_DRAWS = {
    "unit": lambda rng: rng.choice((0, 1, -1)),
    "small": lambda rng: rng.choice((0, 0, rng.randint(-9, 9))),
    "large": lambda rng: rng.choice((0, rng.randint(-(10**12), 10**12))),
}


@pytest.mark.parametrize("entries", sorted(_ENTRY_DRAWS))
def test_one_lu_solves_both_systems_like_the_reference(entries):
    rng, draw = random.Random(f"lu-{entries}"), _ENTRY_DRAWS[entries]
    singular = late_swaps = 0
    for trial in range(104):
        size = 1 + trial % 26
        matrix = [[draw(rng) for _ in range(size)] for _ in range(size)]
        rhs, costs = [draw(rng) for _ in range(size)], [draw(rng) for _ in range(size)]
        if trial % 4 == 1 and size > 1:
            # one row made the sum of two rows: singular unless it was one of them
            i, j = rng.choice(range(size)), rng.choice(range(size))
            matrix[rng.randrange(size)] = [a + b for a, b in zip(matrix[i], matrix[j])]
        elif trial % 4 == 2 and size > 2:
            # rows k - 1 and k agree on the first k + 1 columns, so the leading
            # (k + 1)-minor is zero: with the leading k-minor nonzero, step k
            # finds a zero pivot and swaps in a row from below
            k = rng.randint(1, size - 2)
            matrix[k][: k + 1] = matrix[k - 1][: k + 1]
            block = [row[:k] for row in matrix[:k]]
            if _gauss_jordan_solve(block, [0] * k) is not None:
                late_swaps += _gauss_jordan_solve(matrix, rhs) is not None
        expected = _reference_solves(matrix, rhs, costs)
        assert _solve_integer(matrix, rhs, costs) == expected
        if expected is None:
            singular += 1
        elif size > 1:
            # swapping rows 0 and 1 negates det(matrix), so one of the two
            # systems has a negative determinant: x stays, y's first two swap
            det, x, y = expected
            swapped = [matrix[1], matrix[0], *matrix[2:]]
            swapped_rhs = [rhs[1], rhs[0], *rhs[2:]]
            assert _solve_integer(swapped, swapped_rhs, costs) == (det, x, [y[1], y[0], *y[2:]])
    assert singular >= 10 and late_swaps >= 5


def test_a_one_by_one_system():
    assert _solve_integer([[-5]], [3], [2]) == (5, [-3], [-2])
    assert _solve_integer([[4]], [6], [-2]) == (4, [6], [-2])  # numerators over det, unreduced
    assert _solve_integer([[0]], [1], [1]) is None


def test_float_and_rational_end_at_the_same_basis(monkeypatch):
    # every game program of the random sets, with float ratio ties broken as exact ones
    sets = (random_histogram_set(random.Random(seed), 6, 8, 30) for seed in range(300))
    programs = _recorded_programs(monkeypatch, sets, "rational")
    assert len(programs) > 500
    for lp in programs:
        assert set(simplex_optimize(lp).basis) == set(simplex_optimize(lp, "float").basis)


@pytest.mark.parametrize("where", ["objective", "rows", "rhs"])
@pytest.mark.parametrize("entry", [Fraction(1), 1.0, True])
def test_rational_programs_take_integer_entries(where, entry):
    parts = {"objective": (1, 0), "rows": ((1, 1),), "rhs": (1,)}
    parts[where] = {"objective": (entry, 0), "rows": ((entry, 1),), "rhs": (entry,)}[where]
    lp = StandardFormLP(**parts)
    with pytest.raises(ValidationError, match="integer entries"):
        simplex_optimize(lp)
    # float mode converts any real entry
    assert simplex_optimize(lp, "float").objective_value == 1.0


def test_float_mode_matches_rational_mode():
    for rows in (E1_ROWS, ((4, 6), (7, 3)), ((3, 2, 1), (1, 2, 3))):
        lp, _ = supporting_lp(rows)
        exact = simplex_optimize(lp)
        approx = simplex_optimize(lp, arithmetic="float")
        assert abs(float(exact.objective_value) - approx.objective_value) <= 1e-9


def test_float_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr("histrel.simplex.DEFAULT_FLOAT_ITERATION_CAP", 0)
    # the second program has a member after the first with a zero first count
    for rows in (((4, 6), (7, 3)), ((2, 1, 1), (0, 3, 1))):
        lp, _ = supporting_lp(rows)
        with pytest.raises(IterationCapExceeded):
            simplex_optimize(lp, arithmetic="float")


def test_negative_right_hand_side_is_rejected():
    # x + y <= -1 has no nonnegative solution, and the slack basis would start at s == -1
    with pytest.raises(ValidationError, match="nonnegative"):
        StandardFormLP(objective=(1, 0), rows=((1, 1),), rhs=(-1,))


def test_unbounded_program_is_reported():
    # maximize x with only x - y <= 0: x can grow forever
    lp = StandardFormLP(objective=(1, 0), rows=((1, -1),), rhs=(0,))
    for mode in ("rational", "float"):
        with pytest.raises(ValidationError, match="unbounded"):
            simplex_optimize(lp, mode)


def _large_length_sets():
    rng = random.Random(13)
    draws = [random_histogram_set(rng, 6, 8, 10**8) for _ in range(100)]
    return draws[::3]


def test_large_sample_lengths_solve_exactly(monkeypatch):
    # at |T| = 1e8 the float guide often ends at a basis that is singular,
    # infeasible or not optimal in exact arithmetic; exact pivoting from the
    # slacks must then end at an optimal dictionary, with the oracle's value
    # and a certified solution
    runs = []  # per rational program: how each pivot loop ended and each basis checked
    solves = []  # what each integer factorization returned
    real_pivoting, real_check = histrel.simplex._optimal_dictionary, histrel.simplex._solve_basis
    real_solve = histrel.simplex._solve_integer

    def optimize(lp, arithmetic):
        runs.append([])
        return simplex_optimize(lp, arithmetic)

    def pivoting(lp, field):
        try:
            found = real_pivoting(lp, field)
        except (ValidationError, IterationCapExceeded, OverflowError):
            runs[-1].append(f"{field.mode} raised")
            raise
        if field.exact:  # feasible and no reduced cost positive, exactly
            _basis, _nonbasic, b, costs, _pivots = found
            optimal = min(b[:-1]) >= 0 and max(costs) <= 0
            runs[-1].append("rational optimal" if optimal else "rational not optimal")
        else:
            runs[-1].append("float pivoted")
        return found

    def solve_integer(*args):
        solves.append(real_solve(*args))
        return solves[-1]

    def check(lp, guide):
        before = len(solves)
        accepted = real_check(lp, guide)
        assert len(solves) == before + 1  # one factorization per basis checked
        # B singular or x_B negative: rejected; else a reduced cost is positive
        rejected = solves[-1] is None or min(solves[-1][1]) < 0
        runs[-1].append("optimal" if accepted else "rejected" if rejected else "not optimal")
        return accepted

    monkeypatch.setattr(histrel.game, "simplex_optimize", optimize)
    monkeypatch.setattr(histrel.simplex, "_optimal_dictionary", pivoting)
    monkeypatch.setattr(histrel.simplex, "_solve_integer", solve_integer)
    monkeypatch.setattr(histrel.simplex, "_solve_basis", check)
    for hs in _large_length_sets():
        for problem, solve in ((SUPPORTING, solve_supporting), (COVERING, solve_covering)):
            solution = solve(hs)
            assert solution.alpha == oracle_solve(hs, problem)[0]
            assert certify(solution, hs).passed
    accepted = ["float pivoted", "optimal"]
    assert all(run == accepted or run[-1] == "rational optimal" for run in runs)
    guides = {tuple(run[:2]) for run in runs if run != accepted}
    assert ("float pivoted", "not optimal") in guides
    assert ("float pivoted", "rejected") in guides


def test_a_rational_solve_solves_in_integers_only_for_the_guide(monkeypatch):
    # exact pivoting's final dictionary is the result: after a rejected guide
    # no basis is solved again, so a call runs at most the guide's one
    # factorization, which solves both of its systems
    factorizations, fallbacks = [], []
    real_pivoting, real_solve = histrel.simplex._optimal_dictionary, histrel.simplex._solve_integer

    def optimize(lp, arithmetic):
        factorizations.append(0)
        return simplex_optimize(lp, arithmetic)

    def pivoting(lp, field):
        fallbacks.append(field.exact)
        return real_pivoting(lp, field)

    def solve_integer(*args):
        factorizations[-1] += 1
        return real_solve(*args)

    monkeypatch.setattr(histrel.game, "simplex_optimize", optimize)
    monkeypatch.setattr(histrel.simplex, "_optimal_dictionary", pivoting)
    monkeypatch.setattr(histrel.simplex, "_solve_integer", solve_integer)
    rng = random.Random(14)
    for hs in (random_histogram_set(rng, 6, 8, 10**12) for _ in range(12)):
        solve_supporting(hs)
        solve_covering(hs)
    assert sum(fallbacks) > len(factorizations) // 4  # a quarter of the guides are rejected
    assert max(factorizations) == 1
