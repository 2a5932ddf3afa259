"""Dense simplex for small equality-form programs.

Programs are stated as: maximize ``objective . z`` subject to
``rows . z == rhs`` with ``z >= 0``. Both modes pivot from a feasible
basis the caller supplies; there is no phase one. The column with the
largest reduced cost enters (Dantzig's rule), and the smallest basis index
leaves among the minimum-ratio rows. After as many consecutive degenerate
pivots as there are rows, Bland's smallest-index rule enters columns until
a pivot moves the objective, so exact pivoting cannot cycle. The tableau
carries the objective as its last row, with right-hand side 0, and reduces
it with the constraint rows, so at the optimum that row holds the reduced
costs and its right-hand side is minus the objective value. No row
multipliers are returned: where a row has a slack column, its multiplier
is minus that slack's reduced cost.

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
values are built only for the result. A guided basis that is feasible but
not optimal is repaired by exact pivots from it. When the guide fails (a
singular, infeasible or unbounded report, the pivot cap, or a basis that is
not exactly feasible), exact pivoting runs from the caller's basis, so
every error a rational solve raises is the exact one. Either way the result
is bit-for-bit deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .core import FLOAT, RATIONAL, ArithmeticMode, Field, _solve_integer
from .errors import IterationCapExceeded, ValidationError

DEFAULT_FLOAT_ITERATION_CAP = 10_000


@dataclass(frozen=True)
class StandardFormLP:
    """maximize ``objective . z`` subject to ``rows . z == rhs``, ``z >= 0``."""

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


@dataclass(frozen=True)
class SimplexResult:
    """An optimal basic solution together with its basis certificates.

    ``reduced_costs == objective - y . rows`` column by column, where ``y``
    solves ``B^T y = c_B``, so a slack (a unit column) has minus its row's
    multiplier as reduced cost. Float mode reads
    ``objective_value`` and ``reduced_costs`` off the objective row of the
    final tableau; rational mode computes every field exactly from the final
    basis. ``iterations`` counts the pivots of the largest-coefficient rule
    with its Bland fallback: in rational mode, those of the float guide plus
    any exact repair pivots, or only the exact pivots when the guide failed
    and exact pivoting ran from the caller's basis.
    """

    objective_value: object
    solution: tuple
    basis: tuple[int, ...]
    reduced_costs: tuple
    iterations: int


def simplex_optimize(
    lp: StandardFormLP,
    arithmetic: ArithmeticMode = RATIONAL,
    *,
    basis: Sequence[int],
) -> SimplexResult:
    """Solve a standard-form program to a basic optimal solution.

    ``basis`` must name a feasible starting basis, one column per row; there
    is no phase one. The program must be bounded, and in rational mode every
    objective, row and right-hand-side entry must be an ``int``. Identical
    inputs always produce the identical result.
    """
    field = Field.for_mode(arithmetic)
    m = len(lp.rows)
    basis_list = list(basis)
    if len(basis_list) != m or len(set(basis_list)) != m:
        raise ValidationError("starting basis must name one distinct column per row")
    if any(j < 0 or j >= len(lp.objective) for j in basis_list):
        raise ValidationError("starting basis names a column outside the program")
    if field.exact:
        return _solve_rational(lp, basis_list)
    A, b, iterations = _optimal_tableau(lp, basis_list, field)
    solution = [field.zero] * len(lp.objective)
    for r, var in enumerate(basis_list):
        solution[var] = b[r]
    return SimplexResult(
        objective_value=0 - b[m],  # not -b[m]: a zero value stays +0.0
        solution=tuple(solution),
        basis=tuple(basis_list),
        reduced_costs=tuple(A[m]),
        iterations=iterations,
    )


def _optimal_tableau(lp, basis_list, field):
    """Pivot in ``field`` from the feasible ``basis_list`` to an optimal
    basis, which ``basis_list`` then holds; returns the final tableau and the
    pivot count."""
    m = len(basis_list)
    # the objective is the last row; reduced with the others it holds the
    # reduced costs, and its right-hand side minus the objective value
    A = [[field.of(v) for v in row] for row in (*lp.rows, lp.objective)]
    b = [field.of(v) for v in lp.rhs] + [field.zero]
    eps = field.tol
    _canonicalize(A, b, basis_list, eps)
    if min(b[:m]) < -eps:
        raise ValidationError("starting basis is infeasible")
    # exact pivoting cannot stall: the Bland fallback ends every degenerate run;
    # float pivoting can, and the cap detects it
    cap = None if field.exact else DEFAULT_FLOAT_ITERATION_CAP
    return A, b, _pivot_to_optimum(A, b, basis_list, eps, cap)


def _solve_rational(lp, basis_list) -> SimplexResult:
    """Exact optimum of an integer program, guided by float pivoting."""
    entries = (*lp.objective, *lp.rhs, *(v for row in lp.rows for v in row))
    bad = next((v for v in entries if type(v) is not int), None)  # exact type: bool is an int
    if bad is not None:
        raise ValidationError(f"rational programs take integer entries, got {bad!r}")
    guided = list(basis_list)
    try:
        pivots = _optimal_tableau(lp, guided, Field.for_mode(FLOAT))[2]
    except (ValidationError, IterationCapExceeded, OverflowError):
        solved = None
    else:
        solved = _solve_basis(lp, guided)
    if solved is None:
        # the guide failed: pivot exactly from the caller's basis, whose errors are authoritative
        guided, pivots = basis_list, 0
    elif max(solved[-1]) <= 0:  # no reduced cost is positive: the guided basis is optimal
        return _exact_result(lp, guided, solved, pivots)
    pivots += _optimal_tableau(lp, guided, Field.for_mode(RATIONAL))[2]
    return _exact_result(lp, guided, _solve_basis(lp, guided), pivots)


def _solve_basis(lp, basis_list):
    """Integer certificate of one basis: ``(det, x_B, reduced)``, each a
    numerator over ``det = |det B|``, or None when ``B`` is singular or
    ``x_B`` has a negative entry. The reduced costs price every column with
    the row multipliers ``y`` that solve ``B^T y = c_B``."""
    columns = tuple(zip(*lp.rows))
    basic = [columns[var] for var in basis_list]
    primal = _solve_integer(tuple(zip(*basic)), lp.rhs)
    if primal is None or min(primal[1]) < 0:
        return None
    det, x = primal
    # B^T has the same |det|, so both solves share the denominator
    y = _solve_integer(basic, [lp.objective[var] for var in basis_list])[1]
    reduced = [c * det - sum(map(mul, y, col)) for c, col in zip(lp.objective, columns)]
    return det, x, reduced


def _exact_result(lp, basis_list, solved, iterations) -> SimplexResult:
    det, x, reduced = solved
    solution = [Fraction(0)] * len(lp.objective)
    for var, v in zip(basis_list, x):
        solution[var] = Fraction(v, det)
    value = sum(lp.objective[var] * v for var, v in zip(basis_list, x))
    return SimplexResult(
        objective_value=Fraction(value, det),
        solution=tuple(solution),
        basis=tuple(basis_list),
        reduced_costs=tuple(Fraction(v, det) for v in reduced),
        iterations=iterations,
    )


def _canonicalize(A, b, basis_list, eps):
    """Row-reduce so the basis columns form an identity, assigning each basis
    column to the constraint row where it pivots best."""
    m = len(basis_list)
    remaining = list(range(m))
    row_for: list[int | None] = [None] * m
    for var in basis_list:
        best_row, best_mag = None, None
        for r in remaining:
            mag = abs(A[r][var])
            if mag > 0 and (best_mag is None or mag > best_mag):
                best_row, best_mag = r, mag
        if best_row is None or best_mag <= eps:
            raise ValidationError("starting basis is singular")
        _apply_pivot(A, b, best_row, var)
        row_for[best_row] = var
        remaining.remove(best_row)
    basis_list[:] = row_for  # type: ignore[assignment]


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
