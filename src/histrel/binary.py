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

from dataclasses import dataclass

from .core import (
    COVERING,
    RATIONAL,
    SUPPORTING,
    ArithmeticMode,
    Field,
    Histogram,
    HistogramSet,
    Weight,
    distinct_rows,
)
from .errors import DegeneratePair, NotBinary, WrongCase
from .game import DualWeight, GameSolution, make_solution, solve_covering, solve_supporting

ZERO_DOMINANT = "zero_dominant"
ONE_DOMINANT = "one_dominant"
MIXED = "mixed"


@dataclass(frozen=True)
class BinaryCase:
    """Case tag, plus the straddling witness pair when mixed."""

    tag: str
    witnesses: tuple[Histogram, Histogram] | None = None


def _require_binary(histograms: HistogramSet) -> None:
    if len(histograms.alphabet) != 2:
        raise NotBinary(f"need a two-symbol alphabet, got {len(histograms.alphabet)} symbols")


def classify_binary(histograms: HistogramSet) -> BinaryCase:
    """Split a two-symbol set by which component dominates in every member.

    The three tags are mutually exclusive and exhaustive. Mixed witnesses
    prefer a balanced member; otherwise the pair maximizes the second and
    first components respectively, which keeps the balance denominators
    nonzero. Duplicates never influence the choice.
    """
    _require_binary(histograms)
    unique, _ = distinct_rows(histograms.count_rows())
    if all(row[0] > row[1] for row in unique):
        return BinaryCase(ZERO_DOMINANT)
    if all(row[1] > row[0] for row in unique):
        return BinaryCase(ONE_DOMINANT)
    alphabet = histograms.alphabet
    balanced = next((row for row in unique if row[0] == row[1]), None)
    if balanced is not None:
        member = Histogram(alphabet, balanced)
        return BinaryCase(MIXED, (member, member))
    heavy_one = max(unique, key=lambda row: row[1])
    heavy_zero = max(unique, key=lambda row: row[0])
    return BinaryCase(MIXED, (Histogram(alphabet, heavy_one), Histogram(alphabet, heavy_zero)))


def binary_dual_case1(
    histograms: HistogramSet, arithmetic: ArithmeticMode = RATIONAL
) -> tuple[DualWeight, DualWeight]:
    """Member distributions for the dominant-first-symbol case.

    These are the duals of ``solve_supporting`` and ``solve_covering``: the
    supporting one is uniform on the distinct members attaining the minimal
    first count (their weighted first column reproduces the value), the
    covering one on those attaining the maximal second count, each on first
    occurrences.
    """
    if classify_binary(histograms).tag != ZERO_DOMINANT:
        raise WrongCase("first component does not dominate in every member")
    return solve_supporting(histograms, arithmetic).dual, solve_covering(histograms, arithmetic).dual


def binary_dual_case2(
    histograms: HistogramSet,
    witnesses: tuple[Histogram, Histogram],
    arithmetic: ArithmeticMode = RATIONAL,
) -> DualWeight:
    """Two-member balance distribution for the straddling case.

    Mass lands only on the witness pair, chosen so that both weighted column
    sums equal half the sample length. A coincident pair must be balanced and
    takes all the mass.
    """
    field = Field.for_mode(arithmetic)
    _require_binary(histograms)
    prime, second = witnesses
    if prime.counts[1] < prime.counts[0] or second.counts[1] > second.counts[0]:
        raise WrongCase("witnesses do not straddle the middle")
    rows = histograms.count_rows()
    values = [field.zero] * len(rows)

    def first_index(counts) -> int:
        try:
            return rows.index(counts)
        except ValueError:
            raise WrongCase("witness is not a member of the set") from None

    if prime.counts == second.counts:
        values[first_index(prime.counts)] = field.one
        return DualWeight(tuple(values), arithmetic)

    half = field.of(histograms.sample_length) / 2
    denominator = second.counts[0] - prime.counts[0]
    if denominator == 0:
        raise DegeneratePair("witnesses share their first count")
    values[first_index(prime.counts)] = (second.counts[0] - half) / denominator
    values[first_index(second.counts)] = (half - prime.counts[0]) / denominator
    return DualWeight(tuple(values), arithmetic)


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
    case = classify_binary(histograms)
    if case.tag != MIXED:
        return solve_supporting(histograms, arithmetic), solve_covering(histograms, arithmetic)
    field.require_counts_fit(histograms.sample_length)
    rows = histograms.count_rows()
    alpha = field.of(histograms.sample_length) / 2
    weight = Weight.uniform(histograms.alphabet, arithmetic)
    dual = binary_dual_case2(histograms, case.witnesses, arithmetic)
    forced = any(row[1] > row[0] for row in rows) and any(row[0] > row[1] for row in rows)
    return (
        make_solution(alpha, weight, dual, histograms, SUPPORTING, alternate_optima=not forced),
        make_solution(alpha, weight, dual, histograms, COVERING, alternate_optima=not forced),
    )
