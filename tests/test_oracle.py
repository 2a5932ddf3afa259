from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterator

import pytest
from hypothesis import given

import histrel.verify
from histrel import (
    COVERING,
    SUPPORTING,
    CapExceeded,
    ValidationError,
    certify,
    make_solution,
)
from histrel.verify import ORACLE_MAX_MEMBERS, ORACLE_MAX_SYMBOLS, oracle_solve, run_verification
from conftest import histogram_sets, make_set

GRID_MAX_SYMBOLS = 4


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def oracle_grid(histograms, problem, resolution: int) -> Fraction:
    """Best value over the lattice of weights with the given denominator.

    Grid optima are inner approximations: they never exceed the supporting
    value and never fall below the covering value, and they differ from the
    true value by at most ``|T| * |V| / resolution``. The scan visits every
    composition of ``resolution``, so it is kept to small alphabets.
    """
    n = len(histograms.alphabet)
    assert n <= GRID_MAX_SYMBOLS and resolution >= 1
    rows = histograms.count_rows()
    extreme, best = (min, max) if problem == SUPPORTING else (max, min)
    return best(
        extreme(Fraction(sum(c * row[j] for j, c in enumerate(counts)), resolution) for row in rows)
        for counts in _compositions(resolution, n)
    )


class TestOracleSolve:
    def test_e1_supporting(self, e1):
        alpha, _, _ = oracle_solve(e1, SUPPORTING)
        assert alpha == 6

    def test_e3_both_values_pinned_by_the_row_sum(self, e3):
        # the two members add to a constant row, which forces both values
        assert oracle_solve(e3, SUPPORTING)[0] == 2
        assert oracle_solve(e3, COVERING)[0] == 2

    def test_e4_values(self, e4):
        assert oracle_solve(e4, SUPPORTING)[0] == 3
        assert oracle_solve(e4, COVERING)[0] == 1

    def test_output_self_certifies(self, e3):
        for problem in (SUPPORTING, COVERING):
            alpha, weight, dual = oracle_solve(e3, problem)
            solution = make_solution(alpha, weight, dual, e3, problem)
            assert certify(solution, e3).passed

    def test_symbol_cap(self):
        hs = make_set("abcdefg", [(1, 1, 1, 1, 1, 1, 1)])
        with pytest.raises(CapExceeded):
            oracle_solve(hs, SUPPORTING)

    def test_member_cap(self):
        rows = [(i, 9 - i) for i in range(9)]
        hs = make_set("ab", rows)
        with pytest.raises(CapExceeded):
            oracle_solve(hs, SUPPORTING)

    def test_duplicates_do_not_confuse_enumeration(self):
        plain = make_set("ab", [(7, 3), (6, 4)])
        doubled = make_set("ab", [(7, 3), (7, 3), (6, 4)])
        assert oracle_solve(plain, SUPPORTING)[0] == oracle_solve(doubled, SUPPORTING)[0]

    @given(histogram_sets(max_symbols=4, max_members=4, max_length=10))
    def test_certificates_hold_on_random_instances(self, hs):
        for problem in (SUPPORTING, COVERING):
            alpha, weight, dual = oracle_solve(hs, problem)
            solution = make_solution(alpha, weight, dual, hs, problem)
            assert certify(solution, hs).passed


class TestSweepBounds:
    """``run_verification`` checks its arguments before it solves anything."""

    @staticmethod
    def refuse(monkeypatch, *names):
        def refuse(*args, **kwargs):
            pytest.fail("a solver ran before the arguments were checked")

        for name in names:
            monkeypatch.setattr(histrel.verify, name, refuse)

    @pytest.mark.parametrize(
        "arguments, error, message",
        [
            ({"trials": -1}, ValidationError, "trials (--trials) >= 0, got -1"),
            ({"max_symbols": 1}, ValidationError, "max_symbols (--max-v) >= 2, got 1"),
            ({"max_members": 0}, ValidationError, "max_members (--max-m) >= 1, got 0"),
            ({"max_length": 0}, ValidationError, "max_length (--max-t) >= 1, got 0"),
            ({"max_symbols": 7}, CapExceeded, "caps max_symbols (--max-v) at 6, got 7"),
            ({"max_members": 9}, CapExceeded, "caps max_members (--max-m) at 8, got 9"),
            ({"max_members": 9, "max_symbols": 1}, CapExceeded, "caps max_members (--max-m) at 8"),
        ],
        ids=["trials", "min-symbols", "min-members", "min-length", "symbol-cap", "member-cap", "cap-first"],
    )
    def test_a_bound_outside_its_range_raises_before_any_solve(
        self, monkeypatch, arguments, error, message
    ):
        self.refuse(monkeypatch, "solve_supporting", "solve_covering", "oracle_solve")
        with pytest.raises(error, match=re.escape(message)):
            run_verification(**arguments)

    def test_an_instance_beyond_the_caps_raises_before_the_solvers_run(self, monkeypatch):
        self.refuse(monkeypatch, "solve_supporting", "solve_covering")
        with pytest.raises(CapExceeded, match="oracle handles at most 6 symbols, got 7"):
            run_verification(instance=make_set("abcdefg", [(1, 1, 1, 1, 1, 1, 1)]))
        with pytest.raises(CapExceeded, match="oracle handles at most 8 members, got 9"):
            run_verification(instance=make_set("ab", [(i, 9 - i) for i in range(9)]))

    def test_the_bounds_themselves_are_accepted(self, monkeypatch):
        checked = []
        monkeypatch.setattr(histrel.verify, "check_instance", lambda hs, stats, label: checked.append(hs))
        monkeypatch.setattr(histrel.verify, "binary_sweep", lambda stats: None)
        report = run_verification(
            1, max_symbols=ORACLE_MAX_SYMBOLS, max_members=ORACLE_MAX_MEMBERS, max_length=1
        )
        assert report.trials == 1 and len(checked) == 5
        assert run_verification(0, max_symbols=2, max_members=1).trials == 0


class TestOracleGrid:
    def test_e1_vertex_on_the_grid(self, e1):
        assert oracle_grid(e1, SUPPORTING, 10) == 6

    def test_e2_midpoint_on_the_grid(self, e2):
        assert oracle_grid(e2, SUPPORTING, 10) == 5

    def test_e3_within_lipschitz_bound(self, e3):
        approx = oracle_grid(e3, SUPPORTING, 30)
        bound = Fraction(e3.sample_length * len(e3.alphabet), 30)
        assert abs(approx - 2) <= bound
        assert approx == 2  # 1/3 happens to sit on the grid

    @given(histogram_sets(max_symbols=3, max_members=3, max_length=8))
    def test_grid_is_an_inner_approximation(self, hs):
        for resolution in (3, 7):
            sup = oracle_grid(hs, SUPPORTING, resolution)
            cov = oracle_grid(hs, COVERING, resolution)
            sup_exact = oracle_solve(hs, SUPPORTING)[0]
            cov_exact = oracle_solve(hs, COVERING)[0]
            assert sup <= sup_exact
            assert cov >= cov_exact
            bound = Fraction(hs.sample_length * len(hs.alphabet), resolution)
            assert sup_exact - sup <= bound
            assert cov - cov_exact <= bound
