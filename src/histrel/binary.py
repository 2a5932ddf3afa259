"""Two-symbol alphabets: the case split, and a closed form for straddling sets.

Every two-symbol set falls into one of three cases: the first component
dominates in every member, the second does, or members straddle the middle.
In a dominant case the threshold reduction already removes the dominated
symbol (supporting) or the dominant one (covering), and the general solve
returns the point mass, the extreme count as the value, and uniform mass on
the distinct members attaining it; ``solve_binary`` delegates to it. The
straddling case keeps its closed form: both values are half the sample
length at the even weight, certified by a two-member balance solution.
"""

from __future__ import annotations

from .core import COVERING, RATIONAL, SUPPORTING, ArithmeticMode, Field, HistogramSet, Weight
from .errors import NotBinary
from .game import DualWeight, GameSolution, make_solution, solve_covering, solve_supporting

ZERO_DOMINANT = "zero_dominant"
ONE_DOMINANT = "one_dominant"
MIXED = "mixed"


def classify_binary(histograms: HistogramSet) -> str:
    """The case tag of a two-symbol set: ``ZERO_DOMINANT`` or ``ONE_DOMINANT``
    when that component is the larger in every member, ``MIXED`` otherwise.
    The three tags are mutually exclusive and exhaustive."""
    if len(histograms.alphabet) != 2:
        raise NotBinary(f"need a two-symbol alphabet, got {len(histograms.alphabet)} symbols")
    rows = histograms.count_rows()
    if all(row[0] > row[1] for row in rows):
        return ZERO_DOMINANT
    if all(row[1] > row[0] for row in rows):
        return ONE_DOMINANT
    return MIXED


def _balance_dual(rows, half, field: Field) -> tuple:
    """A member distribution of a straddling set whose weighted column sums
    both equal ``half``, half the sample length.

    All mass goes to the first balanced member if there is one. Otherwise it
    is split between the first member with the largest second count and the
    first with the largest first count; these straddle the middle, so their
    first counts differ.
    """
    values = [field.zero] * len(rows)
    balanced = next((i for i, row in enumerate(rows) if row[0] == row[1]), None)
    if balanced is not None:
        values[balanced] = field.one
        return tuple(values)
    heavy_one = max(range(len(rows)), key=lambda i: rows[i][1])
    heavy_zero = max(range(len(rows)), key=lambda i: rows[i][0])
    low, high = rows[heavy_one][0], rows[heavy_zero][0]
    values[heavy_one] = (high - half) / (high - low)
    values[heavy_zero] = (half - low) / (high - low)
    return tuple(values)


def solve_binary(
    histograms: HistogramSet, arithmetic: ArithmeticMode = RATIONAL
) -> tuple[GameSolution, GameSolution]:
    """Both game solutions for a two-symbol set.

    A dominant set is solved by ``solve_supporting`` and ``solve_covering``:
    the reduction leaves one symbol, so the supporting weight is the point
    mass on the dominant symbol ``d`` and the covering weight the one on the
    other symbol, and each trace records the symbol eliminated in pass 1. A
    straddling set takes the closed form, without touching the LP: the even
    weight solves both problems, it is the unique optimum exactly when both
    strict straddle directions occur, one balance distribution certifies
    both values, and the trace is empty.
    """
    field = Field.for_mode(arithmetic)
    if classify_binary(histograms) != MIXED:
        return solve_supporting(histograms, arithmetic), solve_covering(histograms, arithmetic)
    field.require_counts_fit(histograms.sample_length)
    rows = histograms.count_rows()
    alpha = field.of(histograms.sample_length) / 2
    weight = Weight.uniform(histograms.alphabet, arithmetic)
    dual = DualWeight(_balance_dual(rows, alpha, field), arithmetic)
    forced = any(row[1] > row[0] for row in rows) and any(row[0] > row[1] for row in rows)
    return (
        make_solution(alpha, weight, dual, histograms, SUPPORTING, alternate_optima=not forced),
        make_solution(alpha, weight, dual, histograms, COVERING, alternate_optima=not forced),
    )
