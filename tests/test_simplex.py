from __future__ import annotations

from fractions import Fraction

import pytest

from histrel import (
    IterationCapExceeded,
    StandardFormLP,
    ValidationError,
    covering_lp,
    simplex_optimize,
    supporting_lp,
)

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


def test_float_mode_matches_rational_mode():
    for rows in (E1_ROWS, ((4, 6), (7, 3)), ((3, 2, 1), (1, 2, 3))):
        lp_r, basis = supporting_lp(rows)
        lp_f, _ = supporting_lp(rows, arithmetic="float")
        exact = simplex_optimize(lp_r, basis=basis)
        approx = simplex_optimize(lp_f, arithmetic="float", basis=basis)
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
