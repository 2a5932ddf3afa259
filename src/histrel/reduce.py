"""Threshold elimination of symbols that provably carry zero weight.

A symbol can be dropped from the supporting problem when, in every member,
its count falls strictly below the average of the remaining counts; the
covering problem drops symbols strictly above that average. Elimination is
re-applied to the restricted functions until nothing qualifies or a single
symbol remains, and the restricted problem has the same value and the same
optimal weights (zero-extended) as the original.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import gt, lt, mul, sub
from typing import Sequence

from .core import (
    SUPPORTING,
    HistogramSet,
    ProblemMode,
    require_problem_mode,
)
from .errors import ValidationError


@dataclass(frozen=True)
class ReductionStep:
    """One eliminated symbol: which, under which problem mode, in which pass."""

    symbol: str
    mode: ProblemMode
    pass_index: int


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[ReductionStep, ...]
    surviving: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        object.__setattr__(self, "surviving", tuple(self.surviving))
        if not self.surviving:
            raise ValidationError("reduction must leave at least one symbol")
        eliminated = [s.symbol for s in self.steps]
        if len(set(eliminated)) != len(eliminated):
            raise ValidationError("eliminated symbols must be distinct")

    @property
    def eliminated(self) -> tuple[str, ...]:
        return tuple(s.symbol for s in self.steps)


def empty_trace(symbols: Sequence[str]) -> ReductionTrace:
    return ReductionTrace(steps=(), surviving=tuple(symbols))


def reducible_symbols(rows: Sequence[Sequence], problem: ProblemMode) -> frozenset[int]:
    """Positions removable from every row of a nonnegative function set.

    Supporting mode returns positions strictly below the average of the other
    components in every row; covering mode strictly above. Comparisons are
    exact (cross-multiplied), so integer and fraction rows never round.
    """
    require_problem_mode(problem)
    if not rows:
        raise ValidationError("need at least one function to test")
    n = len(rows[0])
    if n < 2:
        raise ValidationError("threshold test needs at least two symbols")
    if any(len(row) != n for row in rows):
        raise ValidationError("functions must share one domain")
    totals = [sum(row) for row in rows]
    return frozenset(_removable(list(zip(*rows)), totals, problem))


def _removable(columns, totals, problem: ProblemMode) -> list[int]:
    """Positions of the ``columns`` that pass the threshold test in every row.

    A count ``c`` lies strictly below the average of the other ``n - 1``
    components of its row, ``c * (n - 1) < total - c``, exactly when
    ``c * n < total``, with ``n = len(columns)`` and ``total`` the row's sum
    over all ``columns``; covering mode tests ``c * n > total``.
    """
    passes = lt if problem == SUPPORTING else gt
    n = len(columns)
    return [
        w for w, column in enumerate(columns) if all(map(passes, map(mul, column, repeat(n)), totals))
    ]


def reduce_fixpoint(
    histograms: HistogramSet, problem: ProblemMode
) -> tuple[tuple[tuple[int, ...], ...], ReductionTrace]:
    """Eliminate symbols to a fixpoint and restrict every member.

    All positions qualifying in one pass are removed together; the general
    threshold test is re-run on the restricted functions until nothing
    qualifies or one symbol remains. Each member's total over the surviving
    symbols is kept and lowered by the removed columns after every pass, so
    the restricted rows are built once, at the end, in the member order of
    the input set. Terminates in at most ``|V| - 1`` passes because every
    pass removes at least one symbol and can never remove them all.
    """
    require_problem_mode(problem)
    symbols = histograms.alphabet.symbols
    columns = list(zip(*histograms.count_rows()))
    totals = [histograms.sample_length] * len(histograms.members)
    current = list(range(len(symbols)))
    steps: list[ReductionStep] = []
    pass_index = 0
    while len(current) >= 2:
        removable = _removable([columns[j] for j in current], totals, problem)
        if not removable:
            break
        pass_index += 1
        removed = [current[pos] for pos in removable]
        for j in removed:
            steps.append(ReductionStep(symbols[j], problem, pass_index))
            totals = list(map(sub, totals, columns[j]))
        current = [j for j in current if j not in removed]
        if not current:  # cannot happen: summing the strict tests contradicts itself
            raise ValidationError("reduction emptied the alphabet")
    restricted = tuple(zip(*(columns[j] for j in current)))
    trace = ReductionTrace(tuple(steps), tuple(symbols[j] for j in current))
    return restricted, trace
