"""Brute-force certification solvers for desk-scale instances.

These exist to check the main solvers, not to be fast: everything is exact,
instances are hard-capped, and the algorithms share the integer linear solve
with the main path but never its pivoting.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterator, Sequence

from .core import (
    RATIONAL,
    SUPPORTING,
    HistogramSet,
    ProblemMode,
    Weight,
    _solve_integer,
    require_problem_mode,
)
from .errors import CapExceeded, NumericalFailure, ValidationError
from .game import DualWeight

ORACLE_MAX_SYMBOLS = 6
ORACLE_MAX_MEMBERS = 8
GRID_MAX_SYMBOLS = 4


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
    det, numerators = solved
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


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def oracle_grid(histograms: HistogramSet, problem: ProblemMode, resolution: int) -> Fraction:
    """Best value over the lattice of weights with the given denominator.

    Grid optima are inner approximations: they never exceed the supporting
    value and never fall below the covering value, and they differ from the
    true value by at most ``|T| * |V| / resolution``.
    """
    require_problem_mode(problem)
    n = len(histograms.alphabet)
    if n > GRID_MAX_SYMBOLS:
        raise CapExceeded(f"grid scan handles at most {GRID_MAX_SYMBOLS} symbols, got {n}")
    if resolution < 1:
        raise ValidationError("grid resolution must be at least 1")
    rows = histograms.count_rows()
    best: Fraction | None = None
    for counts in _compositions(resolution, n):
        values = [
            Fraction(sum(c * row[j] for j, c in enumerate(counts)), resolution) for row in rows
        ]
        score = min(values) if problem == SUPPORTING else max(values)
        if best is None:
            best = score
        elif problem == SUPPORTING:
            best = max(best, score)
        else:
            best = min(best, score)
    assert best is not None
    return best
