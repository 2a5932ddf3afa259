from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

import histrel.verify
from histrel import (
    Histogram,
    NotBinary,
    ReductionStep,
    ReductionTrace,
    WrongCase,
    certify,
    solve_binary,
    solve_covering,
    solve_supporting,
)
from histrel.binary import (
    MIXED,
    ONE_DOMINANT,
    ZERO_DOMINANT,
    binary_dual_case1,
    binary_dual_case2,
    classify_binary,
)
from histrel.verify import random_histogram_set
from conftest import binary_sets, make_set

SEEDED_BINARY_SETS = [
    hs
    for hs in (random_histogram_set(random.Random(seed), 6, 8, 30) for seed in range(300))
    if len(hs.alphabet) == 2
]


class TestClassify:
    def test_e1_zero_dominant(self, e1):
        assert classify_binary(e1).tag == ZERO_DOMINANT

    def test_e2_mixed_with_expected_witnesses(self, e2):
        case = classify_binary(e2)
        assert case.tag == MIXED
        assert [w.counts for w in case.witnesses] == [(4, 6), (7, 3)]

    def test_balanced_member_witnesses_itself(self):
        hs = make_set("ab", [(5, 5)])
        case = classify_binary(hs)
        assert case.tag == MIXED
        assert case.witnesses[0] == case.witnesses[1]
        assert case.witnesses[0].counts == (5, 5)

    def test_one_dominant(self):
        assert classify_binary(make_set("ab", [(3, 7), (2, 8)])).tag == ONE_DOMINANT

    def test_not_binary(self, e3):
        with pytest.raises(NotBinary):
            classify_binary(e3)

    @given(binary_sets())
    def test_tags_are_exclusive_and_exhaustive(self, hs):
        tag = classify_binary(hs).tag
        rows = hs.count_rows()
        zero = all(r[0] > r[1] for r in rows)
        one = all(r[1] > r[0] for r in rows)
        mixed = any(r[1] >= r[0] for r in rows) and any(r[1] <= r[0] for r in rows)
        assert [zero, one, mixed].count(True) >= 1
        assert tag == (ZERO_DOMINANT if zero else ONE_DOMINANT if one else MIXED)


class TestSolveBinary:
    def test_e1_closed_forms(self, e1):
        supporting, covering = solve_binary(e1)
        assert supporting.alpha == 6 and supporting.weight.values == (1, 0)
        assert covering.alpha == 4 and covering.weight.values == (0, 1)

    def test_e2_pins_both_values_to_half(self, e2):
        supporting, covering = solve_binary(e2)
        assert supporting.alpha == covering.alpha == 5
        assert supporting.weight.values == covering.weight.values == (Fraction(1, 2),) * 2
        assert not supporting.alternate_optima

    def test_one_dominant_swaps_the_forms(self):
        hs = make_set("ab", [(3, 7), (2, 8)])
        supporting, covering = solve_binary(hs)
        assert supporting.alpha == 7 and supporting.weight.values == (0, 1)
        assert covering.alpha == 3 and covering.weight.values == (1, 0)

    def test_odd_length_keeps_the_exact_half(self):
        hs = make_set("ab", [(4, 5), (6, 3)])
        supporting, _ = solve_binary(hs)
        assert supporting.alpha == Fraction(9, 2)

    def test_mixed_with_only_balanced_straddle_is_not_forced(self):
        supporting, _ = solve_binary(make_set("ab", [(5, 5), (7, 3)]))
        assert supporting.alternate_optima

    def test_not_binary(self, e4):
        with pytest.raises(NotBinary):
            solve_binary(e4)


class TestCase1Duals:
    def test_e1_point_masses(self, e1):
        supporting, covering = binary_dual_case1(e1)
        assert supporting.values == (0, 1)  # unique minimum of the first count
        assert covering.values == (0, 1)  # unique maximum of the second count

    def test_duplicates_collapse_before_the_mass_is_placed(self):
        hs = make_set("ab", [(7, 3), (7, 3), (6, 4)])
        supporting, covering = binary_dual_case1(hs)
        assert supporting.values == (0, 0, 1)
        assert covering.values == (0, 0, 1)

    def test_fully_duplicated_set_is_a_point_mass(self):
        hs = make_set("ab", [(6, 4), (6, 4)])
        supporting, _ = binary_dual_case1(hs)
        assert supporting.values == (1, 0)

    def test_wrong_case(self, e2):
        with pytest.raises(WrongCase):
            binary_dual_case1(e2)

    @given(binary_sets())
    def test_weighted_first_column_reproduces_the_minimum(self, hs):
        if classify_binary(hs).tag != ZERO_DOMINANT:
            return
        supporting, _ = binary_dual_case1(hs)
        rows = hs.count_rows()
        assert sum(d * r[0] for d, r in zip(supporting.values, rows)) == min(
            r[0] for r in rows
        )


class TestCase2Duals:
    def test_e2_balance_solution(self, e2):
        case = classify_binary(e2)
        dual = binary_dual_case2(e2, case.witnesses)
        assert dual.values == (Fraction(2, 3), Fraction(1, 3))
        rows = e2.count_rows()
        assert sum(d * r[0] for d, r in zip(dual.values, rows)) == 5
        assert sum(d * r[1] for d, r in zip(dual.values, rows)) == 5

    def test_balanced_singleton(self):
        hs = make_set("ab", [(5, 5)])
        dual = binary_dual_case2(hs, classify_binary(hs).witnesses)
        assert dual.values == (1,)

    def test_symmetric_pair_splits_evenly(self):
        hs = make_set("ab", [(2, 8), (8, 2)])
        dual = binary_dual_case2(hs, classify_binary(hs).witnesses)
        assert dual.values == (Fraction(1, 2), Fraction(1, 2))

    def test_non_straddling_witnesses_rejected(self, e2):
        bad = (Histogram(e2.alphabet, (7, 3)), Histogram(e2.alphabet, (7, 3)))
        with pytest.raises(WrongCase):
            binary_dual_case2(e2, bad)

    def test_foreign_witness_rejected(self, e2):
        outsider = Histogram(e2.alphabet, (5, 5))
        with pytest.raises(WrongCase):
            binary_dual_case2(e2, (outsider, Histogram(e2.alphabet, (7, 3))))

    @given(binary_sets())
    def test_balance_equations_hold_exactly(self, hs):
        case = classify_binary(hs)
        if case.tag != MIXED:
            return
        dual = binary_dual_case2(hs, case.witnesses)
        rows = hs.count_rows()
        half = Fraction(hs.sample_length, 2)
        for component in (0, 1):
            assert sum(d * r[component] for d, r in zip(dual.values, rows)) == half


class TestAgainstTheSolver:
    @settings(max_examples=60)
    @given(binary_sets())
    def test_closed_forms_match_the_pivoting_path(self, hs):
        fast_sup, fast_cov = solve_binary(hs)
        lp_sup = solve_supporting(hs)
        lp_cov = solve_covering(hs)
        assert fast_sup.alpha == lp_sup.alpha
        assert fast_cov.alpha == lp_cov.alpha
        if not fast_sup.alternate_optima:
            assert fast_sup.weight.values == lp_sup.weight.values
            assert fast_cov.weight.values == lp_cov.weight.values
        assert certify(fast_sup, hs).passed
        assert certify(fast_cov, hs).passed

    @given(binary_sets())
    def test_values_bracket_half_the_sample_length(self, hs):
        supporting, covering = solve_binary(hs)
        half = Fraction(hs.sample_length, 2)
        assert supporting.alpha >= half >= covering.alpha


def assert_closed_form_facts(hs, mode) -> str:
    """The closed forms' facts hold for ``solve_binary``; returns the case tag.

    A dominant set, with dominant symbol ``d``: the supporting weight is the
    point mass on ``d`` at the minimum of column ``d``, the covering weight
    the point mass on the other symbol at the maximum of its column, each
    member distribution is uniform on the first occurrences of the distinct
    rows attaining that extreme, no alternate optimum is flagged, and the
    reduction eliminates the other symbol in pass 1. A straddling set: the
    even weight at half the sample length, with an empty trace.
    """
    supporting, covering = solve_binary(hs, mode)
    tag = classify_binary(hs).tag
    rows, symbols = hs.count_rows(), hs.alphabet.symbols
    if tag == MIXED:
        for solution in (supporting, covering):
            assert solution.weight.values == (Fraction(1, 2),) * 2
            assert solution.alpha == Fraction(hs.sample_length, 2)
            assert solution.reduction_trace.steps == ()
        return tag
    d = 0 if tag == ZERO_DOMINANT else 1
    for solution, column, extreme in ((supporting, d, min), (covering, 1 - d, max)):
        best = extreme(row[column] for row in rows)
        attaining = [i for i, row in enumerate(rows) if row[column] == best and rows.index(row) == i]
        assert solution.alpha == best
        assert solution.weight.values == tuple(int(j == column) for j in (0, 1))
        assert solution.dual.values == tuple(
            Fraction(1, len(attaining)) if i in attaining else 0 for i in range(len(rows))
        )
        assert solution.alternate_optima is False
        step = ReductionStep(symbols[1 - column], solution.mode, 1)
        assert solution.reduction_trace == ReductionTrace((step,), (symbols[column],))
    return tag


@pytest.mark.parametrize("mode", ["rational", "float"])
class TestClosedFormFactsHold:
    @given(binary_sets())
    def test_random_binary_sets(self, mode, hs):
        assert_closed_form_facts(hs, mode)

    def test_seeded_two_symbol_sets(self, mode):
        tags = [assert_closed_form_facts(hs, mode) for hs in SEEDED_BINARY_SETS]
        assert MIXED in tags and len(set(tags)) == 3


class TestVerifyBinaryCheck:
    """``histrel verify``'s binary check: a dominant set is solved once and
    checked against the closed-form facts, a straddling one against the LP."""

    def check(self, monkeypatch, hs, swap=False):
        lp_solves = []
        real = histrel.verify.solve_supporting

        def counted(*args, **kwargs):
            lp_solves.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(histrel.verify, "solve_supporting", counted)
        if swap:  # a solver that returns the two games' solutions crossed
            monkeypatch.setattr(histrel.verify, "solve_binary", lambda h: solve_binary(h)[::-1])
        stats = {}
        histrel.verify._check_binary_agreement(hs, stats, "set")
        return stats, len(lp_solves)

    def test_a_dominant_set_is_checked_against_the_closed_form_facts(self, monkeypatch, e1):
        stats, lp_solves = self.check(monkeypatch, e1)
        assert lp_solves == 0
        assert set(stats) == {"binary-dominant-facts", "binary-certificates", "binary-dual-identity"}
        assert stats["binary-dominant-facts"].trials == 2
        assert all(stat.passed for stat in stats.values())

    def test_the_facts_catch_crossed_solutions(self, monkeypatch, e1):
        stats = self.check(monkeypatch, e1, swap=True)[0]
        assert stats["binary-dominant-facts"].failures == 2

    def test_a_straddling_set_is_compared_with_the_lp(self, monkeypatch, e2):
        stats, lp_solves = self.check(monkeypatch, e2)
        assert lp_solves == 1
        assert {"binary-alpha-agreement", "binary-forced-weights"} <= set(stats)
        assert "binary-dominant-facts" not in stats
        assert all(stat.passed for stat in stats.values())
