"""Two-symbol alphabets: the paper's case split.

Every two-symbol set falls into one of three cases: the first component
dominates in every member, the second does, or members straddle the middle.
The general solve handles all three. In a dominant case the threshold
reduction removes the dominated symbol (supporting) or the dominant one
(covering), and the solve returns the point mass, the extreme count as the
value, and uniform mass on the distinct members attaining it. In the
straddling case the reduction keeps both symbols, and the solve takes the
closed form: both values are half the sample length at the even weight,
certified by a two-member balance solution.
"""

from __future__ import annotations

from .core import RATIONAL, ArithmeticMode, HistogramSet
from .errors import NotBinary
from .game import GameSolution, solve_covering, solve_supporting

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


def solve_binary(
    histograms: HistogramSet, arithmetic: ArithmeticMode = RATIONAL
) -> tuple[GameSolution, GameSolution]:
    """``solve_supporting`` and ``solve_covering`` of a two-symbol set;
    ``NotBinary`` for any other alphabet."""
    classify_binary(histograms)
    return solve_supporting(histograms, arithmetic), solve_covering(histograms, arithmetic)
