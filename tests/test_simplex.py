from __future__ import annotations

import random
from fractions import Fraction

import pytest

from histrel import (
    IterationCapExceeded,
    StandardFormLP,
    ValidationError,
    covering_lp,
    distinct_rows,
    simplex_optimize,
    supporting_lp,
)
from histrel.verify import random_histogram_set

E1_ROWS = ((7, 3), (6, 4))


def test_supporting_program_for_e1():
    lp, basis = supporting_lp(E1_ROWS)
    result = simplex_optimize(lp, basis=basis)
    assert result.objective_value == 6
    assert result.solution[:2] == (Fraction(1), Fraction(0))


def test_covering_program_for_e1():
    lp, basis = covering_lp(E1_ROWS)
    result = simplex_optimize(lp, basis=basis)
    # the program minimizes the value, so the objective is its negative
    assert result.objective_value == -4
    assert result.solution[:2] == (Fraction(0), Fraction(1))
    assert result.solution[2] == 4


def test_supporting_program_constant_rows():
    lp, basis = supporting_lp(((2, 2, 2),))
    result = simplex_optimize(lp, basis=basis)
    assert result.objective_value == 2


def test_deterministic_bit_for_bit():
    lp, basis = supporting_lp(((3, 2, 1), (1, 2, 3)))
    first = simplex_optimize(lp, basis=basis)
    second = simplex_optimize(lp, basis=basis)
    assert first == second


def test_row_duals_solve_the_transposed_system():
    lp, basis = supporting_lp(((4, 6), (7, 3)))
    result = simplex_optimize(lp, basis=basis)
    # y^T E == c on the basic columns, componentwise
    for var in result.basis:
        column = [row[var] for row in lp.rows]
        assert sum(y * c for y, c in zip(result.row_duals, column)) == lp.objective[var]


def test_objective_row_agrees_with_the_basis_solve():
    # game programs of both builders, on the member rows and on the transpose
    rng = random.Random(6)
    for _ in range(60):
        hs = random_histogram_set(rng, max_symbols=6, max_members=8, max_length=30)
        counts = distinct_rows(hs.count_rows())[0]
        for rows in (counts, tuple(zip(*counts))):
            for build in (supporting_lp, covering_lp):
                lp, basis = build(rows)
                entries = [*lp.objective, *lp.rhs, *(v for row in lp.rows for v in row)]
                assert all(type(v) is int for v in entries)
                result = simplex_optimize(lp, basis=basis)
                z = result.solution
                for j, cost in enumerate(lp.objective):
                    priced = sum(y * row[j] for y, row in zip(result.row_duals, lp.rows))
                    assert result.reduced_costs[j] == cost - priced
                assert result.objective_value == sum(c * v for c, v in zip(lp.objective, z))
                for row, b in zip(lp.rows, lp.rhs):
                    assert sum(a * v for a, v in zip(row, z)) == b


def test_float_mode_matches_rational_mode():
    for rows in (E1_ROWS, ((4, 6), (7, 3)), ((3, 2, 1), (1, 2, 3))):
        lp, basis = supporting_lp(rows)
        exact = simplex_optimize(lp, basis=basis)
        approx = simplex_optimize(lp, arithmetic="float", basis=basis)
        assert abs(float(exact.objective_value) - approx.objective_value) <= 1e-9


def test_float_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr("histrel.simplex.DEFAULT_FLOAT_ITERATION_CAP", 0)
    # the second program has a member after the first with a zero first count
    for rows in (((4, 6), (7, 3)), ((2, 1, 1), (0, 3, 1))):
        lp, basis = supporting_lp(rows)
        with pytest.raises(IterationCapExceeded):
            simplex_optimize(lp, arithmetic="float", basis=basis)


def test_infeasible_program_is_reported():
    # x + y == -1 has no nonnegative solution, so the basis {x} starts at x == -1
    lp = StandardFormLP(objective=(1, 0), rows=((1, 1),), rhs=(-1,))
    with pytest.raises(ValidationError, match="infeasible"):
        simplex_optimize(lp, basis=(0,))


def test_unbounded_program_is_reported():
    # maximize x with only x - s == 0: x can grow forever
    lp = StandardFormLP(objective=(1, 0), rows=((1, -1),), rhs=(0,))
    with pytest.raises(ValidationError, match="unbounded"):
        simplex_optimize(lp, basis=(0,))


def test_bad_starting_basis_is_rejected():
    lp, _ = supporting_lp(E1_ROWS)
    with pytest.raises(ValidationError):
        simplex_optimize(lp, basis=(0, 0, 0))
