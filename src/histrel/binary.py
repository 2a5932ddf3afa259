"""Closed forms for two-symbol alphabets.

Every two-symbol set falls into one of three cases: the first component
dominates in every member, the second does, or members straddle the middle.
Dominant cases put all weight on the dominant symbol with the extreme count
as the value; the straddling case pins both values to half the sample length
at the even weight. The certifying member distributions are explicit: point
or uniform mass on the extreme members in the dominant cases, and a
two-member balance solution in the straddling case.
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
from .game import DualWeight, GameSolution, _extreme_mass, _spread_over_members, make_solution

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


def _canonical_distribution(histograms, component, extreme, field) -> DualWeight:
    """Uniform mass over the distinct members attaining the ``extreme``
    (``min`` or ``max``) count in one component, placed on first occurrences."""
    unique, origins = distinct_rows(histograms.count_rows())
    _, mass = _extreme_mass(unique, component, extreme, field)
    return DualWeight(
        _spread_over_members(mass, origins, len(histograms.members), field), field.mode
    )


def binary_dual_case1(
    histograms: HistogramSet, arithmetic: ArithmeticMode = RATIONAL
) -> tuple[DualWeight, DualWeight]:
    """Member distributions for the dominant-first-symbol case.

    The supporting problem's dual concentrates on members attaining the
    minimal first count (their weighted first column reproduces the value);
    the covering problem's dual concentrates on members attaining the maximal
    second count.
    """
    field = Field.for_mode(arithmetic)
    if classify_binary(histograms).tag != ZERO_DOMINANT:
        raise WrongCase("first component does not dominate in every member")
    return (
        _canonical_distribution(histograms, 0, min, field),
        _canonical_distribution(histograms, 1, max, field),
    )


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
    """Both game solutions for a two-symbol set, without touching the LP.

    In a dominant case the supporting weight sits on the dominant symbol
    ``d`` and the covering weight on the other one. In the straddling case
    the even weight solves both problems, it is the unique optimum exactly
    when both strict straddle directions occur, and one balance distribution
    certifies both values.
    """
    field = Field.for_mode(arithmetic)
    _require_binary(histograms)
    field.require_counts_fit(histograms.sample_length)
    case = classify_binary(histograms)
    alphabet = histograms.alphabet
    rows = histograms.count_rows()

    if case.tag == MIXED:
        sup_alpha = cov_alpha = field.of(histograms.sample_length) / 2
        sup_weight = cov_weight = Weight.uniform(alphabet, arithmetic)
        sup_dual = cov_dual = binary_dual_case2(histograms, case.witnesses, arithmetic)
        forced = any(row[1] > row[0] for row in rows) and any(row[0] > row[1] for row in rows)
        sup_alt = cov_alt = not forced
    else:
        d = 0 if case.tag == ZERO_DOMINANT else 1
        sup_alpha = field.of(min(row[d] for row in rows))
        cov_alpha = field.of(max(row[1 - d] for row in rows))
        sup_weight = Weight.point_mass(alphabet, d, arithmetic)
        cov_weight = Weight.point_mass(alphabet, 1 - d, arithmetic)
        sup_dual = _canonical_distribution(histograms, d, min, field)
        cov_dual = _canonical_distribution(histograms, 1 - d, max, field)
        sup_alt = cov_alt = False

    supporting = make_solution(
        sup_alpha, sup_weight, sup_dual, histograms, SUPPORTING, alternate_optima=sup_alt
    )
    covering = make_solution(
        cov_alpha, cov_weight, cov_dual, histograms, COVERING, alternate_optima=cov_alt
    )
    return supporting, covering
