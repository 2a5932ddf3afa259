"""Brute-force certification solver for desk-scale instances.

``oracle_solve`` exists to check the main solvers, not to be fast: it is
exact, instances are hard-capped, and it shares the integer linear solve
with the main path (one fraction-free LU, of which it reads the system's
solution and not the transpose's) but never its pivoting. ``histrel
verify`` runs it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .core import (
    RATIONAL,
    SUPPORTING,
    HistogramSet,
    ProblemMode,
    Weight,
    _solve_integer,
    require_problem_mode,
)
from .errors import CapExceeded, NumericalFailure
from .game import DualWeight

ORACLE_MAX_SYMBOLS = 6
ORACLE_MAX_MEMBERS = 8


def _equalize(vectors: Sequence[Sequence[int]]) -> tuple[list[Fraction], Fraction] | None:
    """Distribution over positions making every vector's weighted sum equal.

    Solves ``vector . u = value`` for each vector together with
    ``sum(u) = 1``; returns ``(u, value)`` or None when the bordered system
    is singular. Nonnegativity is NOT checked here.
    """
    r = len(vectors[0])
    matrix = [[*vec, -1] for vec in vectors]
    matrix.append([1] * r + [0])
    rhs = [0] * len(vectors) + [1]
    solved = _solve_integer(matrix, rhs)
    if solved is None:
        return None
    det, numerators, _ = solved
    values = [Fraction(v, det) for v in numerators]
    return values[:r], values[r]


def oracle_solve(
    histograms: HistogramSet, problem: ProblemMode
) -> tuple[Fraction, Weight, DualWeight]:
    """Exact optimum by exhaustive equal-size support enumeration.

    For every pair of supports (symbols, members) of equal size the bordered
    equalizing systems are solved exactly; a candidate is kept when both
    sides are nonnegative and the optimality inequalities hold off the
    supports. The first equilibrium in enumeration order is returned - the
    value is unique even though the weight need not be.
    """
    require_problem_mode(problem)
    n = len(histograms.alphabet)
    k = len(histograms.members)
    if n > ORACLE_MAX_SYMBOLS:
        raise CapExceeded(f"oracle handles at most {ORACLE_MAX_SYMBOLS} symbols, got {n}")
    if k > ORACLE_MAX_MEMBERS:
        raise CapExceeded(f"oracle handles at most {ORACLE_MAX_MEMBERS} members, got {k}")
    rows = histograms.count_rows()
    supporting = problem == SUPPORTING

    for size in range(1, min(n, k) + 1):
        for symbols in combinations(range(n), size):
            for members in combinations(range(k), size):
                weight_side = _equalize([[rows[i][j] for j in symbols] for i in members])
                if weight_side is None:
                    continue
                xs, value = weight_side
                if any(x < 0 for x in xs):
                    continue
                member_side = _equalize([[rows[i][j] for i in members] for j in symbols])
                if member_side is None:
                    continue
                qs, value_dual = member_side
                if value_dual != value or any(q < 0 for q in qs):
                    continue
                if not _off_support_optimal(rows, symbols, members, xs, qs, value, supporting):
                    continue
                weight_values = [Fraction(0)] * n
                for pos, j in enumerate(symbols):
                    weight_values[j] = xs[pos]
                dual_values = [Fraction(0)] * k
                for pos, i in enumerate(members):
                    dual_values[i] = qs[pos]
                return (
                    value,
                    Weight(histograms.alphabet, tuple(weight_values), RATIONAL),
                    DualWeight(tuple(dual_values), RATIONAL),
                )
    raise NumericalFailure("support enumeration found no equilibrium")


def _off_support_optimal(rows, symbols, members, xs, qs, value, supporting) -> bool:
    member_set = set(members)
    symbol_set = set(symbols)
    for i, row in enumerate(rows):
        if i in member_set:
            continue
        paired = sum(x * row[j] for x, j in zip(xs, symbols))
        if supporting:
            if paired < value:
                return False
        elif paired > value:
            return False
    for j in range(len(rows[0])):
        if j in symbol_set:
            continue
        column = sum(q * rows[i][j] for q, i in zip(qs, members))
        if supporting:
            if column > value:
                return False
        elif column < value:
            return False
    return True
