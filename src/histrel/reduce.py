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
    out = set()
    for w in range(n):
        if problem == SUPPORTING:
            ok = all(row[w] * (n - 1) < totals[i] - row[w] for i, row in enumerate(rows))
        else:
            ok = all(row[w] * (n - 1) > totals[i] - row[w] for i, row in enumerate(rows))
        if ok:
            out.add(w)
    return frozenset(out)


def corollary_threshold_check(histograms: HistogramSet, problem: ProblemMode) -> frozenset[int]:
    """First-pass screen for genuine histograms: compare each count against
    ``|T|/|V|`` (cross-multiplied, so exact). Coincides with
    ``reducible_symbols`` on the full histograms."""
    require_problem_mode(problem)
    n = len(histograms.alphabet)
    if n < 2:
        raise ValidationError("threshold test needs at least two symbols")
    t = histograms.sample_length
    rows = histograms.count_rows()
    out = set()
    for w in range(n):
        if problem == SUPPORTING:
            ok = all(row[w] * n < t for row in rows)
        else:
            ok = all(row[w] * n > t for row in rows)
        if ok:
            out.add(w)
    return frozenset(out)


def reduce_fixpoint(
    histograms: HistogramSet, problem: ProblemMode
) -> tuple[tuple[tuple[int, ...], ...], ReductionTrace]:
    """Eliminate symbols to a fixpoint and restrict every member.

    All positions qualifying in one pass are removed together; the general
    threshold test is re-run on the restricted functions (which no longer sum
    to the sample length) until nothing qualifies or one symbol remains. The
    returned rows keep the member order of the input set. Terminates in at
    most ``|V| - 1`` passes because every pass removes at least one symbol
    and can never remove them all.
    """
    require_problem_mode(problem)
    symbols = histograms.alphabet.symbols
    full_rows = histograms.count_rows()
    current = list(range(len(symbols)))
    steps: list[ReductionStep] = []
    pass_index = 0
    while len(current) >= 2:
        view = [tuple(row[j] for j in current) for row in full_rows]
        removable = reducible_symbols(view, problem)
        if not removable:
            break
        pass_index += 1
        for pos in sorted(removable):
            steps.append(ReductionStep(symbols[current[pos]], problem, pass_index))
        current = [idx for pos, idx in enumerate(current) if pos not in removable]
        if not current:  # cannot happen: summing the strict tests contradicts itself
            raise ValidationError("reduction emptied the alphabet")
    restricted = tuple(tuple(row[j] for j in current) for row in full_rows)
    trace = ReductionTrace(tuple(steps), tuple(symbols[j] for j in current))
    return restricted, trace

