"""Dense simplex for small programs in Chvatal's standard form.

Programs are stated as: maximize ``objective . x`` subject to
``rows . x <= rhs`` and ``x >= 0``, with ``rhs >= 0`` (V. Chvatal, *Linear
Programming*, 1983). The simplex appends one slack column per row, and every
pivot loop starts from the all-slack basis, which ``rhs >= 0`` makes
feasible; there is no phase one. The column with the largest reduced cost
enters (Dantzig's rule), and the smallest basis index leaves among the
minimum-ratio rows. After as many consecutive degenerate pivots as there are
rows, Bland's smallest-index rule enters columns until a pivot moves the
objective, so exact pivoting cannot cycle. The tableau carries the objective
as its last row, with right-hand side 0, and reduces it with the constraint
rows, so at the optimum that row holds the reduced costs and its right-hand
side is minus the objective value. No row multipliers are returned: a row's
multiplier is minus its slack's reduced cost.

Float mode pivots in doubles with the fixed absolute tolerance
``FLOAT_EPS``: entries within it count as zero, and in the ratio test
ratios within it count as tied, so the smaller basis index leaves as it
would in exact arithmetic. The pivot rule is finite only in exact
arithmetic, so float mode caps the pivots at ``DEFAULT_FLOAT_ITERATION_CAP``
and raises ``IterationCapExceeded`` when a solve stalls. The tolerance is
absolute on raw counts, so very large sample lengths can still defeat it.

Rational mode takes integer programs only and is exact. Float pivoting
guides it to a basis, which is then checked in integers: ``B x_B = b`` and
``B^T y = c_B`` are solved by fraction-free elimination over the common
denominator ``|det B|``, and the basis is accepted when ``x_B >= 0`` and
every reduced cost ``c_j det - y . A_j`` is at most zero; ``Fraction``
values are built only for the result. Otherwise (the guide overflowed,
stalled or reported the program unbounded, or its basis is singular,
infeasible or not optimal in exact arithmetic) exact pivoting runs from the
slack basis, so every error a rational solve raises is the exact one.
Either way the result is bit-for-bit deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .core import FLOAT, RATIONAL, ArithmeticMode, Field, _solve_integer
from .errors import IterationCapExceeded, ValidationError

DEFAULT_FLOAT_ITERATION_CAP = 10_000


@dataclass(frozen=True)
class StandardFormLP:
    """maximize ``objective . x`` subject to ``rows . x <= rhs``, ``x >= 0``;
    ``rhs >= 0``, so the all-slack basis is feasible."""

    objective: tuple
    rows: tuple[tuple, ...]
    rhs: tuple

    def __post_init__(self):
        object.__setattr__(self, "objective", tuple(self.objective))
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        object.__setattr__(self, "rhs", tuple(self.rhs))
        n = len(self.objective)
        if not self.rows:
            raise ValidationError("program needs at least one constraint row")
        if any(len(r) != n for r in self.rows):
            raise ValidationError("constraint rows must match the objective length")
        if len(self.rhs) != len(self.rows):
            raise ValidationError("right-hand side must match the number of rows")
        if any(v < 0 for v in self.rhs):
            raise ValidationError("right-hand side must be nonnegative")


@dataclass(frozen=True)
class SimplexResult:
    """An optimal basic solution together with its basis certificates.

    ``solution``, ``reduced_costs`` and the ``basis`` indices run over the
    program's columns, then one slack per row. ``reduced_costs == c - y . A``
    column by column, where ``y`` solves ``B^T y = c_B``, so a slack has
    minus its row's multiplier as reduced cost. Float mode reads
    ``objective_value`` and ``reduced_costs`` off the objective row of the
    final tableau; rational mode computes every field exactly from the final
    basis. ``iterations`` counts the pivots of the largest-coefficient rule
    with its Bland fallback that reached that basis: in rational mode, the
    float guide's when its basis is accepted, otherwise exact pivoting's.
    """

    objective_value: object
    solution: tuple
    basis: tuple[int, ...]
    reduced_costs: tuple
    iterations: int


def simplex_optimize(lp: StandardFormLP, arithmetic: ArithmeticMode = RATIONAL) -> SimplexResult:
    """Solve a standard-form program to a basic optimal solution.

    The program must be bounded, and in rational mode every objective, row
    and right-hand-side entry must be an ``int``. Identical inputs always
    produce the identical result.
    """
    field = Field.for_mode(arithmetic)
    if field.exact:
        return _solve_rational(lp)
    A, b, basis, iterations = _optimal_tableau(lp, field)
    m = len(basis)
    solution = [field.zero] * len(A[m])
    for r, var in enumerate(basis):
        solution[var] = b[r]
    return SimplexResult(
        objective_value=0 - b[m],  # not -b[m]: a zero value stays +0.0
        solution=tuple(solution),
        basis=tuple(basis),
        reduced_costs=tuple(A[m]),
        iterations=iterations,
    )


def _optimal_tableau(lp, field):
    """Pivot in ``field`` from the all-slack basis to an optimal basis;
    returns the final tableau, that basis and the pivot count."""
    n, m = len(lp.objective), len(lp.rows)
    of, zero, one = field.of, field.zero, field.one
    # the slacks form an identity and cost nothing, so the objective, the
    # last row, starts reduced; at the optimum it holds the reduced costs,
    # and its right-hand side minus the objective value
    A = [
        [*map(of, row), *(one if i == r else zero for i in range(m))]
        for r, row in enumerate(lp.rows)
    ]
    A.append([*map(of, lp.objective), *(zero,) * m])
    b = [*map(of, lp.rhs), zero]
    basis = list(range(n, n + m))
    # exact pivoting cannot stall: the Bland fallback ends every degenerate run;
    # float pivoting can, and the cap detects it
    cap = None if field.exact else DEFAULT_FLOAT_ITERATION_CAP
    return A, b, basis, _pivot_to_optimum(A, b, basis, field.tol, cap)


def _solve_rational(lp) -> SimplexResult:
    """Exact optimum of an integer program, guided by float pivoting."""
    entries = (*lp.objective, *lp.rhs, *(v for row in lp.rows for v in row))
    bad = next((v for v in entries if type(v) is not int), None)  # exact type: bool is an int
    if bad is not None:
        raise ValidationError(f"rational programs take integer entries, got {bad!r}")
    try:
        basis, pivots = _optimal_tableau(lp, Field.for_mode(FLOAT))[2:]
    except (ValidationError, IterationCapExceeded, OverflowError):
        pass
    else:
        solved = _solve_basis(lp, basis)
        # accepted when exactly feasible and no reduced cost is positive
        if solved is not None and max(solved[-1]) <= 0:
            return _exact_result(lp, basis, solved, pivots)
    basis, pivots = _optimal_tableau(lp, Field.for_mode(RATIONAL))[2:]
    return _exact_result(lp, basis, _solve_basis(lp, basis), pivots)


def _solve_basis(lp, basis):
    """Integer certificate of one basis: ``(det, x_B, reduced)``, each a
    numerator over ``det = |det B|``, or None when ``B`` is singular or
    ``x_B`` has a negative entry. The reduced costs price every column,
    slacks included, with the row multipliers ``y`` that solve
    ``B^T y = c_B``."""
    m = len(lp.rows)
    columns = (*zip(*lp.rows), *(tuple(int(i == r) for i in range(m)) for r in range(m)))
    costs = (*lp.objective, *(0,) * m)
    basic = [columns[var] for var in basis]
    primal = _solve_integer(tuple(zip(*basic)), lp.rhs)
    if primal is None or min(primal[1]) < 0:
        return None
    det, x = primal
    # B^T has the same |det|, so both solves share the denominator
    y = _solve_integer(basic, [costs[var] for var in basis])[1]
    reduced = [c * det - sum(map(mul, y, col)) for c, col in zip(costs, columns)]
    return det, x, reduced


def _exact_result(lp, basis, solved, iterations) -> SimplexResult:
    det, x, reduced = solved
    n = len(lp.objective)
    solution = [Fraction(0)] * len(reduced)
    for var, v in zip(basis, x):
        solution[var] = Fraction(v, det)
    value = sum(lp.objective[var] * v for var, v in zip(basis, x) if var < n)  # slacks cost 0
    return SimplexResult(
        objective_value=Fraction(value, det),
        solution=tuple(solution),
        basis=tuple(basis),
        reduced_costs=tuple(Fraction(v, det) for v in reduced),
        iterations=iterations,
    )


def _apply_pivot(A, b, prow, pcol):
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


def _pivot_to_optimum(A, b, basis_list, eps, cap) -> int:
    """Largest-coefficient pivoting with a Bland fallback; returns the pivots.

    The column with the largest reduced cost enters, and reduced costs within
    ``eps`` of the largest tie to the smallest column. The smallest basis
    index leaves among the minimum-ratio rows; ratios within ``eps`` are ties.
    After ``m`` consecutive degenerate pivots (minimum ratio at most ``eps``),
    Bland's smallest improving column enters until a pivot moves the
    objective. Exact pivoting therefore ends: a nondegenerate pivot strictly
    raises the objective, and a run of Bland pivots cannot cycle.
    """
    m = len(basis_list)
    iterations = degenerate = 0
    while True:
        costs = A[m]
        top = max(costs)
        if top <= eps:
            return iterations
        if degenerate < m:
            enter = next(j for j, v in enumerate(costs) if v >= top - eps and v > eps)
        else:
            enter = next(j for j, v in enumerate(costs) if v > eps)
        leave_row, best_ratio = None, None
        for r in range(m):
            coeff = A[r][enter]
            if coeff > eps:
                ratio = b[r] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio - eps
                    or (ratio <= best_ratio + eps and basis_list[r] < basis_list[leave_row])
                ):
                    leave_row, best_ratio = r, ratio
        if leave_row is None:
            raise ValidationError("program is unbounded")
        degenerate = degenerate + 1 if best_ratio <= eps else 0
        iterations += 1
        if cap is not None and iterations > cap:
            raise IterationCapExceeded(f"no optimum after {cap} pivots")
        _apply_pivot(A, b, leave_row, enter)
        basis_list[leave_row] = enter
