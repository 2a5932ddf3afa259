"""Dense simplex for small programs in Chvatal's standard form.

Programs are stated as: maximize ``objective . x`` subject to
``rows . x <= rhs`` and ``x >= 0``, with ``rhs >= 0`` (V. Chvatal, *Linear
Programming*, 1983). The simplex adds one slack variable per row, and every
pivot loop starts from the all-slack basis, which ``rhs >= 0`` makes
feasible; there is no phase one. The variable with the largest reduced cost
enters (Dantzig's rule; the smallest variable index among ties), and the
smallest basis index leaves among the minimum-ratio rows. After as many consecutive degenerate pivots as there are
rows, Bland's smallest-index rule enters variables until a pivot moves the
objective, so exact pivoting cannot cycle. Pivoting rewrites Chvatal's
dictionary: one row per basic variable and one column per nonbasic one, so
the basic variables' unit columns of the full tableau are neither stored nor
rewritten. The objective is its last row, with right-hand side 0, reduced
with the constraint rows, so at the optimum that row holds the nonbasic
reduced costs and its right-hand side is minus the objective value. No row
multipliers are returned: a row's multiplier is minus its slack's reduced
cost.

A pivot rewrites only the pivot row, the objective row and the
right-hand side. Every other constraint row keeps its update pending, a
row-wise product form of the basis inverse (G. B. Dantzig and W.
Orchard-Hays, 1954), and folds its pending updates into itself before it
next pivots, or at once when it holds ``_FOLD_BOUND`` of them. A pivot
replays the pending updates, fewer than ``_FOLD_BOUND`` per row, onto the
entering column. The answer is read off the objective row and the
right-hand side, so the updates still pending at the optimum are never
applied. A fold or a replay puts every entry through a rewrite's
operations in the same order, so the pivots and the result do not depend
on when a row folds.

Float mode pivots in doubles with the fixed absolute tolerance
``FLOAT_EPS``: entries within it count as zero, and reduced costs within
it of the largest, like ratios within it in the ratio test, count as tied,
so ties break as they would in exact arithmetic. The pivot rule is finite only in exact
arithmetic, so float mode caps the pivots at ``DEFAULT_FLOAT_ITERATION_CAP``
and raises ``IterationCapExceeded`` when a solve stalls. The tolerance is
absolute on raw counts, so very large sample lengths can still defeat it.

Rational mode takes integer programs only and is exact. Float pivoting
guides it to a basis, which is then checked in integers: one fraction-free
LU of ``B`` solves both ``B x_B = b`` and ``B^T y = c_B`` over the common
denominator ``|det B|``, and the basis is accepted when ``x_B >= 0`` and
every reduced cost ``c_j det - y . A_j`` is at most zero (``-y_r`` for
row ``r``'s slack). Otherwise (the guide overflowed, stalled or reported
the program unbounded, or its basis is singular, infeasible or not optimal
in exact arithmetic) exact ``Fraction`` pivoting runs from the slack basis,
so every error a rational solve raises is the exact one. Every mode reads
its result off one final dictionary: float pivoting's, exact pivoting's,
or the accepted guide's basis written in the same shape with entries over
``|det B|``. The result keeps that dictionary's answer as numerators over one
positive denominator: the integers over ``|det B|`` of an accepted guide, the
exact dictionary's fractions scaled once to integers over the lcm of their
denominators, or float mode's own values over 1. A rational solve whose
guide is accepted builds no ``Fraction``. The result is bit-for-bit
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .core import FLOAT, RATIONAL, ArithmeticMode, Field, Number, _solve_integer, _spread
from .errors import IterationCapExceeded, ValidationError

DEFAULT_FLOAT_ITERATION_CAP = 10_000
_FOLD_BOUND = 48  # a constraint row folds its pending updates once it holds this many


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
    """An optimal basic solution together with its basis certificates, read
    off the final dictionary as numerators over one positive ``denominator``.

    ``solution_numerators``, ``cost_numerators`` and the ``basis`` indices
    run over the program's columns, then one slack per row. The reduced
    costs are ``c - y . A``, where ``y`` solves ``B^T y = c_B``, so a slack's
    is minus its row's multiplier. The basic values and the objective value
    come from the dictionary's right-hand side, the nonbasic reduced costs
    from its objective row, and every other entry is zero. ``denominator``
    is ``|det B|`` for an accepted float guide, whose basis is solved
    exactly in integers, the lcm of the exact dictionary's denominators
    after exact pivoting, and 1 in float mode, whose numerators are the
    floats. ``iterations`` counts the pivots that reached the basis: the
    float guide's when it is accepted, otherwise exact pivoting's.
    """

    objective_numerator: Number
    solution_numerators: tuple
    basis: tuple[int, ...]
    cost_numerators: tuple
    denominator: int
    iterations: int


def simplex_optimize(lp: StandardFormLP, arithmetic: ArithmeticMode = RATIONAL) -> SimplexResult:
    """Solve a standard-form program to a basic optimal solution.

    The program must be bounded, and in rational mode every objective, row
    and right-hand-side entry must be an ``int``. Identical inputs always
    produce the identical result.
    """
    field = Field.for_mode(arithmetic)
    dictionary = None
    if field.exact:
        entries = (*lp.objective, *lp.rhs, *(v for row in lp.rows for v in row))
        bad = next((v for v in entries if type(v) is not int), None)  # exact type: bool is an int
        if bad is not None:
            raise ValidationError(f"rational programs take integer entries, got {bad!r}")
        try:
            guide = _optimal_dictionary(lp, Field.for_mode(FLOAT))
        except (ValidationError, IterationCapExceeded, OverflowError):
            pass
        else:
            dictionary = _solve_basis(lp, guide)
    if dictionary is None:
        basis, nonbasic, b, costs, iterations = _optimal_dictionary(lp, field)
        numerators, denominator = field.scaled([*b, *costs])
        b, costs = numerators[: len(b)], numerators[len(b) :]
    else:
        basis, nonbasic, b, costs, iterations, denominator = dictionary
    zero = 0 if field.exact else field.zero  # an integer numerator in rational mode
    size = len(basis) + len(nonbasic)
    return SimplexResult(
        objective_numerator=0 - b[-1],  # not -b[-1]: a zero value stays +0.0
        solution_numerators=tuple(_spread(b, basis, size, zero)),  # b's last entry has no variable
        basis=tuple(basis),
        cost_numerators=tuple(_spread(costs, nonbasic, size, zero)),  # a basic variable's is zero
        denominator=denominator,
        iterations=iterations,
    )


def _solve_basis(lp, guide):
    """The exact dictionary of the float ``guide``'s final basis as
    ``(basis, nonbasic, b, costs, pivots, det)``, or None when ``B`` is
    singular, ``x_B`` has a negative entry or a reduced cost is positive.

    One fraction-free LU of ``B`` solves both ``B x_B = b`` and ``B^T y =
    c_B`` over the denominator ``det = |det B|``. ``b`` holds ``x_B`` and
    then minus the objective value, and ``costs`` the nonbasic reduced
    costs, each as its integer numerator over ``det``: ``c_j det - y . A_j``
    for a program column, and ``-y_r`` for row ``r``'s slack, whose column
    is the unit vector.
    """
    basis, nonbasic, *_, pivots = guide
    n, objective = len(lp.objective), lp.objective
    matrix = [
        [row[var] if var < n else int(var - n == r) for var in basis]
        for r, row in enumerate(lp.rows)
    ]
    solved = _solve_integer(matrix, lp.rhs, [objective[var] if var < n else 0 for var in basis])
    if solved is None or min(solved[1]) < 0:
        return None
    det, x, y = solved
    columns = tuple(zip(*lp.rows))
    reduced = [
        objective[var] * det - sum(map(mul, y, columns[var])) if var < n else -y[var - n]
        for var in nonbasic
    ]
    if any(v > 0 for v in reduced):
        return None
    value = sum(objective[var] * v for var, v in zip(basis, x) if var < n)
    return basis, nonbasic, [*x, -value], reduced, pivots, det


def _optimal_dictionary(lp, field):
    """Pivot Chvatal's dictionary in ``field`` from the all-slack basis to an
    optimal basis, by the rule the module describes; returns ``(basis,
    nonbasic, b, costs, pivots)``.

    Row ``r`` of the dictionary ``D`` holds the coefficients of basic
    variable ``basis[r]`` on the nonbasic variables, column ``k`` on
    ``nonbasic[k]``, and ``b[r]`` is its value. Row ``m`` holds the reduced
    costs, and ``b[m]`` minus the objective value. These are the entries of
    the full tableau less the basic variables' unit columns, which no pivot
    changes, except for each one's entry in its own row, ``unit[r]``: it is
    ``pivot * (1 / pivot)``, not always 1.0 in float, and becomes the
    leaving variable's column. So every entry, rounding included, equals the
    tableau's, and so does every pivot.

    Each pivot reads the entering column once and replays each row's
    pending updates onto its entry, in order; an update on the same column
    first resets the entry to zero, as a rewrite resets the leaving
    variable's entry. ``_fold`` brings the pivot row up to date before it
    pivots. One pass over the column then updates ``b`` and every other row
    whose entry is nonzero: the objective row is rewritten, for pricing
    reads it, and each constraint row gets the pending update ``(factor,
    pivot row, entering column)``, ``factor`` being its entry, and is folded
    when it holds ``_FOLD_BOUND`` of them. So every entry that is read has
    seen a rewrite's operations, and rows still pending at the optimum are
    never read.
    """
    n, m = len(lp.objective), len(lp.rows)
    of, zero, one, eps = field.of, field.zero, field.one, field.tol
    # exact pivoting cannot stall: the Bland fallback ends every degenerate run;
    # float pivoting can, and the cap detects it
    cap = None if field.exact else DEFAULT_FLOAT_ITERATION_CAP
    # the slacks are basic and cost nothing, so the objective row starts reduced
    D = [[*map(of, row)] for row in (*lp.rows, lp.objective)]
    b = [*map(of, lp.rhs), zero]
    unit = [one] * m
    basis, nonbasic = list(range(n, n + m)), list(range(n))
    pending = [[] for _ in range(m)]  # pending[r]: the updates row r has not applied
    iterations = degenerate = 0
    while True:
        costs = D[m]
        top = max(costs, default=zero)
        if top <= eps:
            return basis, nonbasic, b, costs, iterations
        floor = top - eps if degenerate < m else eps  # Dantzig ties the top; Bland takes any gain
        # the columns are permuted: a tie goes to the smallest variable index
        enter = min((k for k, v in enumerate(costs) if v >= floor and v > eps), key=nonbasic.__getitem__)
        column = [row[enter] for row in D]
        for r, updates in enumerate(pending):
            coeff = column[r]
            for factor, pivot_row, k in updates:
                if k == enter:  # a column that entered before starts again from zero
                    coeff = zero
                coeff = coeff - factor * pivot_row[enter]
            column[r] = coeff
        leave_row, best_ratio = None, None
        for r in range(m):
            coeff = column[r]
            if coeff > eps:
                ratio = b[r] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio - eps
                    or (ratio <= best_ratio + eps and basis[r] < basis[leave_row])
                ):
                    leave_row, best_ratio = r, ratio
        if leave_row is None:
            raise ValidationError("program is unbounded")
        degenerate = degenerate + 1 if best_ratio <= eps else 0
        iterations += 1
        if cap is not None and iterations > cap:
            raise IterationCapExceeded(f"no optimum after {cap} pivots")
        row = D[leave_row] = _fold(D[leave_row], pending[leave_row], zero)
        pending[leave_row] = []
        pivot = row[enter]
        row[enter] = unit[leave_row]  # the leaving variable takes the column
        if pivot != 1:
            inv = 1 / pivot
            row = D[leave_row] = [v * inv for v in row]
            b[leave_row] = b[leave_row] * inv
            pivot = pivot * inv
        unit[leave_row] = pivot
        for r, factor in enumerate(column):
            if r == leave_row or factor == 0:
                continue
            if r == m:  # pricing reads the objective row: it stays up to date
                D[m][enter] = zero  # the leaving variable's entry off its row
                D[m] = [v - factor * w for v, w in zip(D[m], row)]
            else:
                pending[r].append((factor, row, enter))
                if len(pending[r]) == _FOLD_BOUND:
                    D[r], pending[r] = _fold(D[r], pending[r], zero), []
            b[r] = b[r] - factor * b[leave_row]
        basis[leave_row], nonbasic[enter] = nonbasic[enter], basis[leave_row]


def _fold(row, updates, zero):
    """A copy of ``row``, which other rows' pending updates may hold, with
    its pending ``updates`` applied in order, four per pass."""
    row = row[:]
    for (f1, p1, k1), (f2, p2, k2), (f3, p3, k3), (f4, p4, k4) in zip(*[iter(updates)] * 4):
        row[k1] = zero
        row = [(((v - f1 * w1) - f2 * w2) - f3 * w3) - f4 * w4 for v, w1, w2, w3, w4 in zip(row, p1, p2, p3, p4)]
        # a later update reset its column's entry first: compute those entries again
        row[k2] = ((zero - f2 * p2[k2]) - f3 * p3[k2]) - f4 * p4[k2]
        row[k3] = (zero - f3 * p3[k3]) - f4 * p4[k3]
        row[k4] = zero - f4 * p4[k4]
    for factor, pivot_row, k in updates[len(updates) // 4 * 4 :]:
        row[k] = zero
        row = [v - factor * w for v, w in zip(row, pivot_row)]
    return row
