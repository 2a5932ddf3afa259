from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

import histrel.verify
from histrel import (
    RATIONAL,
    DualWeight,
    ReductionStep,
    ReductionTrace,
    ValidationError,
    certify,
    solve_covering,
    solve_supporting,
)
from histrel.io import solve_profile
from histrel.verify import MIXED, ONE_DOMINANT, ZERO_DOMINANT, classify_binary, random_histogram_set
from conftest import binary_sets, make_set

SEEDED_BINARY_SETS = [
    hs
    for hs in (random_histogram_set(random.Random(seed), 6, 8, 30) for seed in range(300))
    if len(hs.alphabet) == 2
]


def both_games(hs, mode=RATIONAL):
    """The supporting and the covering solution of ``hs``."""
    return solve_supporting(hs, mode), solve_covering(hs, mode)


def dual_support(hs) -> list[tuple[int, ...]]:
    """The members, in set order, that the straddling dual puts mass on."""
    dual = solve_supporting(hs).dual.values
    return [row for row, d in zip(hs.count_rows(), dual) if d]


class TestClassify:
    def test_e1_zero_dominant(self, e1):
        assert classify_binary(e1) == ZERO_DOMINANT

    def test_e2_mixed_with_expected_witnesses(self, e2):
        assert classify_binary(e2) == MIXED
        assert dual_support(e2) == [(4, 6), (7, 3)]

    def test_balanced_member_witnesses_itself(self):
        hs = make_set("ab", [(5, 5)])
        assert classify_binary(hs) == MIXED
        assert dual_support(hs) == [(5, 5)]

    def test_first_balanced_member_takes_all_the_mass(self):
        hs = make_set("ab", [(7, 3), (5, 5), (2, 8), (5, 5)])
        assert solve_supporting(hs).dual.values == (0, 1, 0, 0)

    def test_first_extreme_members_witness_a_strict_straddle(self):
        hs = make_set("ab", [(7, 3), (2, 8), (3, 7), (2, 8), (8, 2), (8, 2)])
        assert solve_supporting(hs).dual.values == (0, Fraction(1, 2), 0, 0, Fraction(1, 2), 0)

    def test_one_dominant(self):
        assert classify_binary(make_set("ab", [(3, 7), (2, 8)])) == ONE_DOMINANT

    def test_not_binary(self, e3):
        with pytest.raises(ValidationError, match="need a two-symbol alphabet, got 3 symbols"):
            classify_binary(e3)

    @given(binary_sets())
    def test_tags_are_exclusive_and_exhaustive(self, hs):
        tag = classify_binary(hs)
        rows = hs.count_rows()
        zero = all(r[0] > r[1] for r in rows)
        one = all(r[1] > r[0] for r in rows)
        mixed = any(r[1] >= r[0] for r in rows) and any(r[1] <= r[0] for r in rows)
        assert [zero, one, mixed].count(True) >= 1
        assert tag == (ZERO_DOMINANT if zero else ONE_DOMINANT if one else MIXED)


class TestSolveBinary:
    def test_e1_closed_forms(self, e1):
        supporting, covering = both_games(e1)
        assert supporting.alpha == 6 and supporting.weight.values == (1, 0)
        assert covering.alpha == 4 and covering.weight.values == (0, 1)

    def test_e2_pins_both_values_to_half(self, e2):
        supporting, covering = both_games(e2)
        assert supporting.alpha == covering.alpha == 5
        assert supporting.weight.values == covering.weight.values == (Fraction(1, 2),) * 2
        assert not supporting.alternate_optima

    def test_one_dominant_swaps_the_forms(self):
        hs = make_set("ab", [(3, 7), (2, 8)])
        supporting, covering = both_games(hs)
        assert supporting.alpha == 7 and supporting.weight.values == (0, 1)
        assert covering.alpha == 3 and covering.weight.values == (1, 0)

    def test_odd_length_keeps_the_exact_half(self):
        hs = make_set("ab", [(4, 5), (6, 3)])
        supporting = solve_supporting(hs)
        assert supporting.alpha == Fraction(9, 2)

    def test_mixed_with_only_balanced_straddle_is_not_forced(self):
        supporting = solve_supporting(make_set("ab", [(5, 5), (7, 3)]))
        assert supporting.alternate_optima


class TestCase1Duals:
    """A dominant set's member distributions, as the two solvers return them."""

    def test_e1_point_masses(self, e1):
        supporting, covering = both_games(e1)
        assert supporting.dual.values == (0, 1)  # unique minimum of the first count
        assert covering.dual.values == (0, 1)  # unique maximum of the second count

    def test_duplicates_collapse_before_the_mass_is_placed(self):
        hs = make_set("ab", [(7, 3), (7, 3), (6, 4)])
        supporting, covering = both_games(hs)
        assert supporting.dual.values == (0, 0, 1)
        assert covering.dual.values == (0, 0, 1)

    def test_fully_duplicated_set_is_a_point_mass(self):
        hs = make_set("ab", [(6, 4), (6, 4)])
        assert solve_supporting(hs).dual.values == (1, 0)

    @given(binary_sets())
    def test_weighted_first_column_reproduces_the_minimum(self, hs):
        if classify_binary(hs) != ZERO_DOMINANT:
            return
        supporting = solve_supporting(hs)
        rows = hs.count_rows()
        assert sum(d * r[0] for d, r in zip(supporting.dual.values, rows)) == min(
            r[0] for r in rows
        )


class TestCase2Duals:
    """A straddling set's balance distribution, shared by both games."""

    def test_e2_balance_solution(self, e2):
        supporting, covering = both_games(e2)
        assert supporting.dual.values == covering.dual.values == (Fraction(2, 3), Fraction(1, 3))
        rows = e2.count_rows()
        assert sum(d * r[0] for d, r in zip(supporting.dual.values, rows)) == 5
        assert sum(d * r[1] for d, r in zip(supporting.dual.values, rows)) == 5

    def test_balanced_singleton(self):
        assert solve_supporting(make_set("ab", [(5, 5)])).dual.values == (1,)

    def test_symmetric_pair_splits_evenly(self):
        hs = make_set("ab", [(2, 8), (8, 2)])
        assert solve_supporting(hs).dual.values == (Fraction(1, 2), Fraction(1, 2))

    @given(binary_sets())
    def test_balance_equations_hold_exactly(self, hs):
        if classify_binary(hs) != MIXED:
            return
        supporting, covering = both_games(hs)
        assert covering.dual == supporting.dual
        rows = hs.count_rows()
        half = Fraction(hs.sample_length, 2)
        for component in (0, 1):
            assert sum(d * r[component] for d, r in zip(supporting.dual.values, rows)) == half


class TestAgainstTheSolver:
    @settings(max_examples=60)
    @given(binary_sets())
    def test_closed_forms_match_the_pivoting_path(self, hs):
        fast_sup, fast_cov = both_games(hs)
        lp_sup = solve_supporting(hs, use_reduction=False)
        lp_cov = solve_covering(hs, use_reduction=False)
        assert fast_sup.alpha == lp_sup.alpha
        assert fast_cov.alpha == lp_cov.alpha
        if not fast_sup.alternate_optima:
            assert fast_sup.weight.values == lp_sup.weight.values
            assert fast_cov.weight.values == lp_cov.weight.values
        assert certify(fast_sup, hs).passed
        assert certify(fast_cov, hs).passed

    @given(binary_sets())
    def test_values_bracket_half_the_sample_length(self, hs):
        supporting, covering = both_games(hs)
        half = Fraction(hs.sample_length, 2)
        assert supporting.alpha >= half >= covering.alpha


def assert_one_solve_path(hs, mode) -> None:
    """The library and the profile return the same solutions."""
    profile = solve_profile(hs, mode)
    assert solve_supporting(hs, mode) == profile.supporting
    assert solve_covering(hs, mode) == profile.covering


@pytest.mark.parametrize("mode", ["rational", "float"])
class TestLibraryAndProfileAgree:
    @given(binary_sets())
    def test_random_binary_sets(self, mode, hs):
        assert_one_solve_path(hs, mode)

    def test_seeded_two_symbol_sets(self, mode):
        for hs in SEEDED_BINARY_SETS:
            assert_one_solve_path(hs, mode)


def assert_closed_form_facts(hs, mode) -> str:
    """The closed forms' facts hold for both solvers; returns the case tag.

    A dominant set, with dominant symbol ``d``: the supporting weight is the
    point mass on ``d`` at the minimum of column ``d``, the covering weight
    the point mass on the other symbol at the maximum of its column, each
    member distribution is uniform on the first occurrences of the distinct
    rows attaining that extreme, no alternate optimum is flagged, and the
    reduction eliminates the other symbol in pass 1. A straddling set: the
    even weight at half the sample length, with an empty trace.
    """
    supporting, covering = both_games(hs, mode)
    tag = classify_binary(hs)
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
    """``histrel verify``'s binary check: a dominant set is checked against the
    closed-form facts, a straddling one against the LP. ``check_instance``
    hands it the solutions it made, and it solves nothing."""

    def check(self, monkeypatch, hs, supporting=solve_supporting, covering=solve_covering):
        solves = []

        def counted(solve):
            def run(*args, **kwargs):
                solves.append(kwargs.get("use_reduction", True))
                return solve(*args, **kwargs)

            return run

        fast = supporting(hs), covering(hs)
        full = supporting(hs, use_reduction=False), covering(hs, use_reduction=False)
        monkeypatch.setattr(histrel.verify, "solve_supporting", counted(supporting))
        monkeypatch.setattr(histrel.verify, "solve_covering", counted(covering))
        stats = {}
        histrel.verify._check_binary_agreement(hs, stats, "set", fast, full)
        return stats, solves

    def test_a_dominant_set_is_checked_against_the_closed_form_facts(self, monkeypatch, e1):
        stats, solves = self.check(monkeypatch, e1)
        assert solves == []
        assert set(stats) == {"binary-dominant-facts", "binary-dual-identity"}
        assert stats["binary-dominant-facts"].trials == 2
        assert all(stat.passed for stat in stats.values())

    def test_the_facts_catch_crossed_solutions(self, monkeypatch, e1):
        # solvers that return the two games' solutions crossed
        stats = self.check(monkeypatch, e1, solve_covering, solve_supporting)[0]
        assert stats["binary-dominant-facts"].failures == 2

    def test_a_straddling_set_is_compared_with_the_lp(self, monkeypatch, e2):
        stats, solves = self.check(monkeypatch, e2)
        assert solves == []
        assert {"binary-alpha-agreement", "binary-forced-weights"} <= set(stats)
        assert "binary-dominant-facts" not in stats
        assert all(stat.passed for stat in stats.values())

    @pytest.mark.parametrize("rows", [[(7, 3), (6, 4)], [(3, 7), (2, 8)]], ids=["zero", "one"])
    def test_both_games_duals_are_checked_on_either_dominant_tag(self, monkeypatch, rows):
        stats = self.check(monkeypatch, make_set("ab", rows))[0]
        assert stats["binary-dual-identity"].trials == 2
        assert stats["binary-dual-identity"].passed

    def test_the_dual_identity_catches_a_covering_dual_off_the_maximum(self, monkeypatch):
        hs = make_set("ab", [(3, 7), (2, 8)])  # covering: column 0, maximum 3 in member 0

        def moved(h, *args, **kwargs):
            return dataclasses.replace(solve_covering(h, *args, **kwargs), dual=DualWeight((0, 1)))

        stats = self.check(monkeypatch, hs, covering=moved)[0]
        assert stats["binary-dual-identity"].failures == 1
