from __future__ import annotations

from fractions import Fraction
from typing import Iterator

import pytest
from hypothesis import given

from histrel import (
    COVERING,
    SUPPORTING,
    CapExceeded,
    certify,
    make_solution,
)
from histrel.oracle import oracle_solve
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
