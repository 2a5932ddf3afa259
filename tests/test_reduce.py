from __future__ import annotations

import operator
import random
import string
from fractions import Fraction

import pytest
from hypothesis import given

from histrel import (
    COVERING,
    SUPPORTING,
    reduce_fixpoint,
)
from histrel.reduce import ReductionStep, ReductionTrace
from histrel.verify import oracle_solve, random_histogram_set
from conftest import histogram_sets, make_set


def _reducible(rows, problem) -> frozenset[int]:
    """Reference threshold rule, as the paper states it: the positions whose
    component lies strictly below (supporting) or strictly above (covering)
    the average of the other components in every row, compared as fractions."""
    beyond = operator.lt if problem == SUPPORTING else operator.gt
    n = len(rows[0])
    return frozenset(
        w for w in range(n) if all(beyond(row[w], Fraction(sum(row) - row[w], n - 1)) for row in rows)
    )


def _first_pass(histograms, problem) -> frozenset[int]:
    """Positions that ``reduce_fixpoint`` removes in its first pass."""
    _, trace = reduce_fixpoint(histograms, problem)
    index = histograms.alphabet.index
    return frozenset(index(step.symbol) for step in trace.steps if step.pass_index == 1)


class TestReducibleSymbols:
    def test_e4_supporting_first_pass(self, e4):
        assert _first_pass(e4, SUPPORTING) == _reducible(e4.count_rows(), SUPPORTING) == {2}

    def test_e4_covering_first_pass(self, e4):
        assert _first_pass(e4, COVERING) == _reducible(e4.count_rows(), COVERING) == {0}

    def test_e1_covering_first_pass(self, e1):
        assert _first_pass(e1, COVERING) == _reducible(e1.count_rows(), COVERING) == {0}

    def test_e3_blocked_by_threshold_ties(self, e3):
        for problem in (SUPPORTING, COVERING):
            assert _first_pass(e3, problem) == _reducible(e3.count_rows(), problem) == frozenset()

    @given(histogram_sets())
    def test_matches_the_average_of_the_other_components(self, hs):
        for problem in (SUPPORTING, COVERING):
            assert _first_pass(hs, problem) == _reducible(hs.count_rows(), problem)


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


def _reference_fixpoint(histograms, problem):
    """The threshold rule one pass at a time: the reference ``_reducible`` on
    the member rows restricted to the surviving symbols, rebuilt every pass."""
    symbols = histograms.alphabet.symbols
    rows = histograms.count_rows()
    current = list(range(len(symbols)))
    steps = []
    pass_index = 0
    while len(current) >= 2:
        view = [tuple(row[j] for j in current) for row in rows]
        removable = _reducible(view, problem)
        if not removable:
            break
        pass_index += 1
        steps += [ReductionStep(symbols[current[pos]], problem, pass_index) for pos in sorted(removable)]
        current = [j for pos, j in enumerate(current) if pos not in removable]
    restricted = tuple(tuple(row[j] for j in current) for row in rows)
    return restricted, ReductionTrace(tuple(steps), tuple(symbols[j] for j in current))


def _staircase_set(seed: int):
    """Members drawn with symbol probabilities proportional to ``ratio ** rank``,
    ranks shuffled: the reduction takes several passes on these."""
    rng = random.Random(seed)
    n = rng.randint(3, 26)
    ratio = rng.uniform(1.1, 2.0)
    weights = [ratio**rank for rank in rng.sample(range(n), n)]
    length = rng.randint(20, 400)
    rows = []
    for _ in range(rng.randint(1, 30)):
        counts = [0] * n
        for j in rng.choices(range(n), weights, k=length):
            counts[j] += 1
        rows.append(tuple(counts))
    return make_set(string.ascii_lowercase[:n], rows)


class TestFixpointMatchesOnePassAtATime:
    @pytest.mark.parametrize("problem", [SUPPORTING, COVERING])
    def test_random_sets(self, problem):
        for seed in range(300):
            histograms = random_histogram_set(random.Random(seed), 6, 8, 30)
            assert reduce_fixpoint(histograms, problem) == _reference_fixpoint(histograms, problem)

    @pytest.mark.parametrize("problem", [SUPPORTING, COVERING])
    def test_staircase_sets(self, problem):
        passes = []
        for seed in range(60):
            histograms = _staircase_set(seed)
            rows, trace = reduce_fixpoint(histograms, problem)
            assert (rows, trace) == _reference_fixpoint(histograms, problem)
            passes.append(max((step.pass_index for step in trace.steps), default=0))
        assert max(passes) >= 3  # the corpus exercises multi-pass reductions

    def test_a_count_at_the_boundary_is_not_removed(self):
        # pass 1 removes a (0 * 3 < 6 and 1 * 3 < 6); on (b, c) the first
        # row has 3 * 2 == 6, its total, so neither b nor c qualifies
        histograms = make_set("abc", [(0, 3, 3), (1, 2, 3)])
        assert _reducible(((3, 3), (2, 3)), SUPPORTING) == frozenset()
        rows, trace = reduce_fixpoint(histograms, SUPPORTING)
        assert [(s.symbol, s.pass_index) for s in trace.steps] == [("a", 1)]
        assert trace.surviving == ("b", "c")
        assert rows == ((3, 3), (2, 3))
        assert (rows, trace) == _reference_fixpoint(histograms, SUPPORTING)
        # a sits at 2 * 3 == 6 in both rows: neither problem removes it
        level = make_set("abc", [(2, 3, 1), (2, 1, 3)])
        for problem in (SUPPORTING, COVERING):
            assert reduce_fixpoint(level, problem) == _reference_fixpoint(level, problem)
            assert reduce_fixpoint(level, problem)[1].steps == ()

    def test_one_pass_removes_several_symbols(self):
        histograms = make_set("abcd", [(0, 1, 4, 5), (1, 0, 3, 6)])
        rows, trace = reduce_fixpoint(histograms, SUPPORTING)
        assert [(s.symbol, s.pass_index) for s in trace.steps] == [("a", 1), ("b", 1), ("c", 2)]
        assert trace.surviving == ("d",)
        assert rows == ((5,), (6,))
        assert (rows, trace) == _reference_fixpoint(histograms, SUPPORTING)
