"""Dense simplex for small equality-form programs.

Programs are stated as: maximize ``objective . z`` subject to
``rows . z == rhs`` with ``z >= 0``. Rational mode pivots over exact
fractions with Bland's smallest-index rule, which terminates without any
tolerance machinery and is bit-for-bit deterministic. Float mode runs the
same rule with the fixed absolute tolerance ``FLOAT_EPS``. Bland's rule
terminates only in exact arithmetic, so float mode also caps the pivots at
``DEFAULT_FLOAT_ITERATION_CAP`` and raises ``IterationCapExceeded`` when a
solve stalls. The tolerance is absolute on raw counts, so very large sample
lengths can still defeat it.

Programs may hold plain integers: ``simplex_optimize`` is the one place
that converts their entries into the arithmetic of the solve. The tableau
carries the objective as its last row, with right-hand side 0, and reduces
it with the constraint rows, so at the optimum that row holds the reduced
costs and its right-hand side is minus the objective value. Every solve
starts from a feasible basis the caller supplies; there is no phase one.
Row duals are recovered from the optimal basis by solving ``B^T y = c_B``
against the original columns, so complementary-slackness checks downstream
never have to re-derive tableau state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import RATIONAL, ArithmeticMode, Field
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

    ``objective_value`` and ``reduced_costs`` are read off the objective row
    of the final tableau; ``row_duals`` solve ``B^T y = c_B``, so
    ``reduced_costs == objective - y . rows`` column by column.
    """

    objective_value: object
    solution: tuple
    basis: tuple[int, ...]
    row_duals: tuple
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
    is no phase one. The program must be bounded. Identical inputs always
    produce the identical result.
    """
    field = Field.for_mode(arithmetic)
    m = len(lp.rows)
    basis_list = list(basis)
    if len(basis_list) != m or len(set(basis_list)) != m:
        raise ValidationError("starting basis must name one distinct column per row")
    if any(j < 0 or j >= len(lp.objective) for j in basis_list):
        raise ValidationError("starting basis names a column outside the program")
    # the objective is the last row; reduced with the others it holds the
    # reduced costs, and its right-hand side minus the objective value
    A = [[field.of(v) for v in row] for row in (*lp.rows, lp.objective)]
    b = [field.of(v) for v in lp.rhs] + [field.zero]
    eps = field.tol
    _canonicalize(A, b, basis_list, eps)
    if min(b[:m]) < -eps:
        raise ValidationError("starting basis is infeasible")
    # exact Bland pivoting cannot stall; float pivoting can, and the cap detects it
    cap = None if field.exact else DEFAULT_FLOAT_ITERATION_CAP
    iterations = _pivot_to_optimum(A, b, basis_list, eps, cap)
    solution = [field.zero] * len(lp.objective)
    for r, var in enumerate(basis_list):
        solution[var] = b[r]
    return SimplexResult(
        objective_value=0 - b[m],  # not -b[m]: a zero value stays +0.0 in float mode
        solution=tuple(solution),
        basis=tuple(basis_list),
        row_duals=_row_duals(lp, basis_list, field),
        reduced_costs=tuple(A[m]),
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
    """Bland's rule: smallest improving column enters, smallest basis index
    leaves among the minimum-ratio rows."""
    m = len(basis_list)
    iterations = 0
    while True:
        enter = None
        for j, v in enumerate(A[m]):
            if v > eps:
                enter = j
                break
        if enter is None:
            return iterations
        leave_row, best_ratio = None, None
        for r in range(m):
            coeff = A[r][enter]
            if coeff > eps:
                ratio = b[r] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis_list[r] < basis_list[leave_row])
                ):
                    leave_row, best_ratio = r, ratio
        if leave_row is None:
            raise ValidationError("program is unbounded")
        iterations += 1
        if cap is not None and iterations > cap:
            raise IterationCapExceeded(f"no optimum after {cap} pivots")
        _apply_pivot(A, b, leave_row, enter)
        basis_list[leave_row] = enter


def _row_duals(lp, basis_list, field) -> tuple:
    """Solve ``B^T y = c_B`` over the original columns."""
    system = [[field.of(row[var]) for row in lp.rows] for var in basis_list]
    rhs = [field.of(lp.objective[var]) for var in basis_list]
    return tuple(_solve_square(system, rhs))


def _solve_square(matrix, rhs):
    size = len(matrix)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(size):
        pivot_row = max(range(col, size), key=lambda r: abs(aug[r][col]))
        if aug[pivot_row][col] == 0:
            raise ValidationError("basis matrix is singular")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [v / pivot for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][size] for r in range(size)]
