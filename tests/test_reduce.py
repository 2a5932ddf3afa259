from __future__ import annotations

import pytest
from hypothesis import given

from histrel import (
    COVERING,
    SUPPORTING,
    ValidationError,
    oracle_solve,
    reduce_fixpoint,
    reducible_symbols,
)
from histrel.reduce import corollary_threshold_check
from conftest import histogram_sets, make_set


class TestReducibleSymbols:
    def test_e4_supporting_first_pass(self, e4):
        assert reducible_symbols(e4.count_rows(), SUPPORTING) == {2}

    def test_e4_covering_first_pass(self, e4):
        assert reducible_symbols(e4.count_rows(), COVERING) == {0}

    def test_e3_blocked_by_threshold_ties(self, e3):
        assert reducible_symbols(e3.count_rows(), SUPPORTING) == frozenset()
        assert reducible_symbols(e3.count_rows(), COVERING) == frozenset()

    def test_single_symbol_rejected(self):
        with pytest.raises(ValidationError):
            reducible_symbols(((3,),), SUPPORTING)


class TestCorollaryScreen:
    def test_e4_supporting(self, e4):
        assert corollary_threshold_check(e4, SUPPORTING) == {2}

    def test_e1_covering(self, e1):
        assert corollary_threshold_check(e1, COVERING) == {0}

    def test_e3_empty_both_modes(self, e3):
        assert corollary_threshold_check(e3, SUPPORTING) == frozenset()
        assert corollary_threshold_check(e3, COVERING) == frozenset()

    @given(histogram_sets())
    def test_matches_general_form_on_first_pass(self, hs):
        for problem in (SUPPORTING, COVERING):
            assert corollary_threshold_check(hs, problem) == reducible_symbols(
                hs.count_rows(), problem
            )


class TestFixpoint:
    def test_e4_supporting_two_passes(self, e4):
        rows, trace = reduce_fixpoint(e4, SUPPORTING)
        assert [(s.symbol, s.pass_index) for s in trace.steps] == [("c", 1), ("b", 2)]
        assert trace.surviving == ("a",)
        assert rows == ((4,), (3,))

    def test_e4_covering_strictness_stops_pass_two(self, e4):
        rows, trace = reduce_fixpoint(e4, COVERING)
        assert trace.eliminated == ("a",)
        assert trace.surviving == ("b", "c")
        assert rows == ((1, 1), (2, 1))

    def test_e1_supporting_removes_second_symbol(self, e1):
        _, trace = reduce_fixpoint(e1, SUPPORTING)
        assert trace.eliminated == ("b",)
        assert trace.surviving == ("a",)

    @given(histogram_sets())
    def test_pass_count_stays_below_alphabet_size(self, hs):
        for problem in (SUPPORTING, COVERING):
            _, trace = reduce_fixpoint(hs, problem)
            if trace.steps:
                assert max(s.pass_index for s in trace.steps) <= len(hs.alphabet) - 1
            assert trace.surviving

    @given(histogram_sets())
    def test_eliminated_symbols_carry_no_optimal_weight(self, hs):
        # the unreduced brute-force optimum must vanish on every symbol the
        # threshold test eliminates
        for problem in (SUPPORTING, COVERING):
            _, trace = reduce_fixpoint(hs, problem)
            if not trace.steps:
                continue
            _, weight, _ = oracle_solve(hs, problem)
            for symbol in trace.eliminated:
                assert weight.values[hs.alphabet.index(symbol)] == 0
