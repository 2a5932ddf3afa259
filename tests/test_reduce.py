from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given

from histrel import (
    COVERING,
    SUPPORTING,
    ValidationError,
    Weight,
    oracle_solve,
    pairing,
    reduce_fixpoint,
    reducible_symbols,
)
from histrel.reduce import corollary_threshold_check, redistribute_weight
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


class TestRedistribution:
    def test_moving_mass_off_a_reducible_symbol_improves_the_floor(self, e4):
        # symbol c is reducible in supporting mode; give it mass and shift it
        start = Weight(e4.alphabet, (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))
        shifted = redistribute_weight(start, 2)
        floor_before = min(pairing(start, m) for m in e4.members)
        floor_after = min(pairing(shifted, m) for m in e4.members)
        assert shifted.values[2] == 0
        assert floor_after > floor_before

    @given(histogram_sets(max_symbols=4, max_members=4))
    def test_improvement_property(self, hs):
        rows = hs.count_rows()
        removable = reducible_symbols(rows, SUPPORTING)
        if not removable:
            return
        target = min(removable)
        start = Weight.uniform(hs.alphabet)
        shifted = redistribute_weight(start, target)
        floor_before = min(pairing(start, m) for m in hs.members)
        floor_after = min(pairing(shifted, m) for m in hs.members)
        assert floor_after > floor_before

    def test_mass_is_conserved(self):
        hs = make_set("abcd", [(1, 2, 3, 4)])
        shifted = redistribute_weight(Weight.uniform(hs.alphabet), 0)
        assert sum(shifted.values) == 1
