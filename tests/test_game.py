from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

import histrel.game
from histrel import (
    COVERING,
    SUPPORTING,
    CertificationFailure,
    DualWeight,
    GameSolution,
    Weight,
    certify,
    make_solution,
    solve_covering,
    solve_supporting,
)
from histrel.core import Field, HistogramSet, distinct_rows
from histrel.game import covering_lp, supporting_lp
from histrel.reduce import ReductionStep, ReductionTrace, empty_trace, reduce_fixpoint
from histrel.simplex import simplex_optimize
from histrel.verify import oracle_solve, random_histogram_set
from conftest import histogram_sets, make_set, pairing, simplex_values


class TestSupportingExamples:
    def test_e1_forced_vertex(self, e1):
        solution = solve_supporting(e1)
        assert solution.alpha == 6
        assert solution.weight.values == (1, 0)
        assert solution.tight_members == (1,)
        assert solution.tight_symbols == (0,)

    def test_e3_value_with_nonunique_weight(self, e3):
        solution = solve_supporting(e3)
        assert solution.alpha == 2
        assert solution.alternate_optima
        assert certify(solution, e3).passed

    def test_singleton_constant_rows(self):
        hs = make_set("abc", [(2, 2, 2)])
        assert solve_supporting(hs).alpha == 2

    def test_single_symbol_alphabet(self):
        hs = make_set("a", [(5,), (5,)])
        supporting = solve_supporting(hs)
        covering = solve_covering(hs)
        assert supporting.alpha == covering.alpha == 5
        assert supporting.weight.values == covering.weight.values == (1,)


class TestCoveringExamples:
    def test_e1_forced_vertex(self, e1):
        solution = solve_covering(e1)
        assert solution.alpha == 4
        assert solution.weight.values == (0, 1)

    def test_e4_unique_vertex(self, e4):
        solution = solve_covering(e4)
        assert solution.alpha == 1
        assert solution.weight.values == (0, 0, 1)

    def test_e3_uniform_attains_the_value(self, e3):
        assert solve_covering(e3).alpha == 2

    def test_zero_value_when_a_column_is_dead(self):
        # no member ever uses the second symbol, so the cap is zero
        hs = make_set("ab", [(6, 0)])
        solution = solve_covering(hs)
        assert solution.alpha == 0
        assert solution.weight.values == (0, 1)
        assert sum(solution.dual.values) == 1
        assert certify(solution, hs).passed


class TestDuals:
    def test_e1_supporting_dual_is_a_point_mass_on_the_minimum(self, e1):
        assert solve_supporting(e1).dual.values == (0, 1)

    def test_e2_dual_solves_the_balance_equations(self, e2):
        solution = solve_supporting(e2)
        assert solution.dual.values == (Fraction(2, 3), Fraction(1, 3))

    def test_singleton_dual(self):
        hs = make_set("abc", [(2, 2, 2)])
        assert solve_supporting(hs).dual.values == (1,)

    def test_duplicate_members_put_mass_on_first_occurrence(self):
        hs = make_set("ab", [(7, 3), (6, 4), (6, 4)])
        solution = solve_supporting(hs)
        assert solution.dual.values == (0, 1, 0)
        assert solution.tight_members == (1, 2)
        assert certify(solution, hs).passed

    @pytest.mark.parametrize("arithmetic", ["rational", "float"])
    def test_one_survivor_dual_is_the_point_mass_on_the_first_extreme_member(self, arithmetic):
        # supporting keeps a, whose smallest count 6 first sits in member 1;
        # member 3 repeats member 1 and member 4 ties it
        hs = make_set("abc", [(8, 1, 1), (6, 3, 1), (7, 2, 1), (6, 3, 1), (6, 2, 2)])
        solution = solve_supporting(hs, arithmetic)
        assert solution.reduction_trace.surviving == ("a",)
        assert (solution.alpha, solution.dual.values) == (6, (0, 1, 0, 0, 0))
        assert solution.tight_members == (1, 3, 4)
        # covering keeps a, whose largest count 2 first sits in member 1
        hs = make_set("abc", [(0, 9, 1), (2, 5, 3), (1, 6, 3), (2, 5, 3), (2, 4, 4)])
        solution = solve_covering(hs, arithmetic)
        assert solution.reduction_trace.surviving == ("a",)
        assert (solution.alpha, solution.dual.values) == (2, (0, 1, 0, 0, 0))
        assert solution.tight_members == (1, 3, 4)
        # without the reduction a one-symbol alphabet is the same shortcut
        hs = make_set("a", [(5,), (5,), (5,)])
        for solve in (solve_supporting, solve_covering):
            for use_reduction in (True, False):
                solution = solve(hs, arithmetic, use_reduction=use_reduction)
                assert solution.dual.values == (1, 0, 0)
                assert type(solution.dual.values[0]) is Field.for_mode(arithmetic).of

    @pytest.mark.parametrize("arithmetic", ["rational", "float"])
    def test_every_one_survivor_dual_sits_on_the_first_extreme_member(self, arithmetic):
        ties = 0
        for seed in range(300):
            hs = _with_duplicates(seed)
            for solve, extreme in ((solve_supporting, min), (solve_covering, max)):
                solution = solve(hs, arithmetic)
                if len(solution.reduction_trace.surviving) != 1:
                    continue
                column = hs._columns[hs.alphabet.index(solution.reduction_trace.surviving[0])]
                first = column.index(extreme(column))
                assert solution.dual.values == tuple(int(i == first) for i in range(len(column)))
                ties += column.count(column[first]) > 1
        assert ties >= 50  # duplicates and ties put the extreme count in several members

    def test_extract_dual_from_a_raw_simplex_result(self):
        from histrel.game import extract_dual, simplex_optimize, supporting_lp

        rows = ((4, 6), (7, 3))
        lp, _ = supporting_lp(rows)
        result = simplex_optimize(lp)
        assert extract_dual(result, rows, Field.for_mode("rational")) == (Fraction(2, 3), Fraction(1, 3))
        # float mode divides each entry of w by its left-to-right sum
        result = simplex_optimize(lp, "float")
        w = simplex_values(result, "float")[1][:2]
        total = w[0] + w[1]
        assert extract_dual(result, rows, Field.for_mode("float")) == (w[0] / total, w[1] / total)

    def test_each_program_weight_and_dual_entry_is_built_once(self, monkeypatch):
        # an entry is one quotient of the simplex's integer numerators, and
        # the returned weight and dual keep that very Fraction
        built = []
        real_quotient = Field.quotient

        def quotient(field, numerator, denominator):
            built.append(real_quotient(field, numerator, denominator))
            return built[-1]

        monkeypatch.setattr(Field, "quotient", quotient)
        programs = 0
        for hs in (random_histogram_set(random.Random(s), 6, 8, 30) for s in range(40)):
            for problem, solve in ((SUPPORTING, solve_supporting), (COVERING, solve_covering)):
                built.clear()
                solution = solve(hs)
                if not built:
                    continue  # a shortcut: no program was solved
                programs += 1
                entries = [v for v in (*solution.weight.values, *solution.dual.values) if v]
                ids = [id(v) for v in built]
                assert all(type(v) is Fraction and ids.count(id(v)) == 1 for v in entries)
                # the program's value, then one quotient per row and per column
                restricted, trace = reduce_fixpoint(hs, problem)
                assert len(built) == 1 + len(trace.surviving) + len(distinct_rows(restricted)[0])
        assert programs > 40

    def test_float_round_off_below_zero_is_written_as_zero(self):
        # float pivoting leaves components such as -2.36e-16 in seed 9's
        # supporting dual; every weight and dual component is +0.0 or positive
        for seed in range(300):
            hs = random_histogram_set(random.Random(seed), 6, 8, 30)
            for solve in (solve_supporting, solve_covering):
                solution = solve(hs, "float")
                for v in (*solution.weight.values, *solution.dual.values):
                    assert math.copysign(1.0, v) == 1.0, (seed, v)

class TestCertify:
    def test_valid_solution_passes(self, e1):
        assert certify(solve_supporting(e1), e1).passed

    def test_infeasible_claim_fails_with_the_right_clause(self, e1):
        fake = GameSolution(
            alpha=Fraction(6),
            weight=Weight(e1.alphabet, (0, 1)),
            dual=DualWeight((0, 1)),
            tight_members=(),
            tight_symbols=(1,),
            mode=SUPPORTING,
            reduction_trace=empty_trace(e1.alphabet.symbols),
        )
        report = certify(fake, e1)
        assert not report.passed
        assert "primal-feasibility" in [c.clause for c in report.failures()]

    @pytest.mark.parametrize(
        "damage, detail",
        [
            ({"weight": Weight(make_set("ac", [(1, 0)]).alphabet, (1, 0))}, "alphabet differs"),
            ({"dual": DualWeight((1,))}, "dual length differs"),
        ],
        ids=["weight-alphabet", "dual-length"],
    )
    def test_a_misshapen_solution_fails_the_structure_clause_without_raising(
        self, e1, damage, detail
    ):
        report = certify(dataclasses.replace(solve_supporting(e1), **damage), e1)
        assert not report.passed
        assert [(c.clause, c.detail) for c in report.failures()] == [("structure", detail)]

    def test_oracle_solutions_certify(self, e3):
        alpha, weight, dual = oracle_solve(e3, SUPPORTING)
        solution = make_solution(alpha, weight, dual, e3, SUPPORTING)
        assert certify(solution, e3).passed

    def test_wrong_dual_mass_fails_slackness(self, e1):
        solution = solve_supporting(e1)
        skewed = GameSolution(
            alpha=solution.alpha,
            weight=solution.weight,
            dual=DualWeight((1, 0)),  # mass on the non-tight member
            tight_members=solution.tight_members,
            tight_symbols=solution.tight_symbols,
            mode=SUPPORTING,
            reduction_trace=solution.reduction_trace,
        )
        report = certify(skewed, e1)
        assert not report.passed
        clauses = [c.clause for c in report.failures()]
        assert "slackness-members" in clauses

    def test_violation_below_the_float_range_still_fails(self, e1):
        # float(1/10**400) underflows to 0.0; the exact check must not
        solution = solve_supporting(e1)
        nudged = dataclasses.replace(solution, alpha=solution.alpha + Fraction(1, 10**400))
        report = certify(nudged, e1)
        assert not report.passed
        assert "primal-feasibility" in [c.clause for c in report.failures()]

    def test_make_solution_raises_on_a_non_optimal_claim(self, e1):
        # (0, 1) pairs to 3 and 4, so 3 is its true floor, but (1, 0) reaches 6
        weight = Weight(e1.alphabet, (0, 1))
        with pytest.raises(CertificationFailure) as err:
            make_solution(Fraction(3), weight, DualWeight((1, 0)), e1, SUPPORTING)
        assert str(err.value) == (
            "supporting solution fails: dual-feasibility, value-equality-dual, uniform-bound"
        )

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_make_solution_raises_on_weight_the_trace_eliminated(self, e1, mode):
        # E1's supporting weight is the point mass on a; a trace that
        # eliminates a contradicts it, though every clause of certify passes
        solution = solve_supporting(e1, mode)
        trace = ReductionTrace((ReductionStep("a", SUPPORTING, 1),), ("b",))
        args = (solution.alpha, solution.weight, solution.dual, e1, SUPPORTING)
        with pytest.raises(CertificationFailure, match="weighs eliminated symbol 'a'"):
            make_solution(*args, trace)
        assert certify(dataclasses.replace(solution, reduction_trace=trace), e1).passed
        # eliminating the weightless b is what the reduction records
        trace = ReductionTrace((ReductionStep("b", SUPPORTING, 1),), ("a",))
        assert make_solution(*args, trace) == solution

    def test_supporting_value_below_the_uniform_weight_fails(self, e3):
        # the uniform weight pairs to |T| / |V| = 2 with every member
        solution = solve_supporting(e3)
        assert "uniform-bound" in [c.clause for c in certify(solution, e3).checks]
        low = dataclasses.replace(solution, alpha=Fraction(3, 2))
        assert "uniform-bound" in [c.clause for c in certify(low, e3).failures()]


def _with_duplicates(seed: int) -> HistogramSet:
    """A random set with one to four members repeated, in shuffled order."""
    rng = random.Random(seed)
    histograms = random_histogram_set(rng, max_symbols=6, max_members=6, max_length=20)
    rows = list(histograms.count_rows())
    rows += [rng.choice(rows) for _ in range(rng.randint(1, 4))]
    rng.shuffle(rows)
    return HistogramSet.from_counts(histograms.alphabet, rows, histograms.sample_length)


def _reference_certificate(solution, histograms):
    """Tight members and the largest violation of ``certify``'s clauses,
    pairing one member at a time in the field's own arithmetic: Fractions in
    rational mode, the left-to-right float sum in float mode."""
    field = Field.for_mode(solution.weight.mode)
    weight, dual, alpha = solution.weight.values, solution.dual.values, solution.alpha
    rows = histograms.count_rows()
    pairings = [pairing(weight, row) for row in rows]
    columns = [pairing(dual, column) for column in zip(*rows)]
    sign = 1 if solution.mode == SUPPORTING else -1
    first, last = (min, max) if sign == 1 else (max, min)
    primal, dual_value = first(pairings), last(columns)
    baseline = field.of(histograms.sample_length) / len(histograms.alphabet)
    violations = [
        max(abs(sum(weight) - 1), -min(weight), 0),
        max(abs(sum(dual) - 1), -min(dual), 0),
        max(sign * (alpha - primal), 0),
        abs(primal - alpha),
        max(sign * (dual_value - alpha), 0),
        abs(dual_value - alpha),
        max((abs(pairings[i] - alpha) for i, d in enumerate(dual) if d > field.tol), default=0),
        max((abs(columns[v] - alpha) for v, w in enumerate(weight) if w > field.tol), default=0),
        max(sign * (baseline - alpha), 0),
    ]
    tight = tuple(i for i, p in enumerate(pairings) if field.close(p, alpha))
    return tight, max(max(0.0, float(v)) for v in violations)


class TestIntegerCertificate:
    """The certificate compares integer numerators; these pin it to a
    member-by-member reference, on sets with duplicate members."""

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_tight_members_and_violations_match_a_reference(self, mode):
        field = Field.for_mode(mode)
        off_optimum = 0
        for seed in range(80):
            histograms = _with_duplicates(seed)
            k = len(histograms.members)
            for solve in (solve_supporting, solve_covering):
                solution = solve(histograms, mode)
                tight, violation = _reference_certificate(solution, histograms)
                assert solution.tight_members == tight, seed
                assert certify(solution, histograms).max_violation == violation, seed
                # a claim off the optimum: uniform weight and dual, value moved by 1/7
                claim = dataclasses.replace(
                    solution,
                    alpha=solution.alpha + field.share(7),
                    weight=Weight.uniform(histograms.alphabet, mode),
                    dual=DualWeight((field.share(k),) * k, mode),
                )
                report = certify(claim, histograms)
                assert report.max_violation == _reference_certificate(claim, histograms)[1], seed
                off_optimum += not report.passed
        assert off_optimum > 100


def _perturbed_claims(solution, histograms, mode):
    """The solved claim, then claims off it: ``alpha`` nudged each way,
    within and beyond the float tolerance, the uniform weight, and a flat
    dual."""
    field = Field.for_mode(mode)
    alpha, k = solution.alpha, len(histograms.members)
    if mode == "rational":
        q = alpha.denominator
        nudges = [Fraction(1, 2 * q), Fraction(-1, 3 * q), Fraction(1, 10**12), Fraction(-1, 10**12)]
    else:
        nudges = [1e-12, -1e-12, 1e-6, -1e-6]
    yield alpha, solution.weight, solution.dual
    for nudge in nudges:
        yield alpha + nudge, solution.weight, solution.dual
    yield alpha, Weight.uniform(histograms.alphabet, mode), solution.dual
    yield alpha, solution.weight, DualWeight((field.share(k),) * k, mode)


class TestOneCertificatePass:
    """``make_solution`` and ``certify`` run one certificate computation."""

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_make_solution_fails_exactly_when_certify_does(self, mode):
        passed = failed = 0
        for seed in range(60):
            histograms = random_histogram_set(random.Random(seed), 6, 8, 30)
            for solve in (solve_supporting, solve_covering):
                solution = solve(histograms, mode)
                for alpha, weight, dual in _perturbed_claims(solution, histograms, mode):
                    claim = dataclasses.replace(solution, alpha=alpha, weight=weight, dual=dual)
                    report = certify(claim, histograms)
                    # no reduction trace: the uniform weight carries eliminated symbols
                    args = (alpha, weight, dual, histograms, solution.mode)
                    if report.passed:
                        assert certify(make_solution(*args), histograms) == report, seed
                        passed += 1
                        continue
                    with pytest.raises(CertificationFailure) as err:
                        make_solution(*args)
                    clauses = ", ".join(c.clause for c in report.failures())
                    assert str(err.value) == f"{solution.mode} solution fails: {clauses}", seed
                    failed += 1
        assert passed > 100 and failed > 100


class TestSolverProperties:
    def test_rational_mode_is_deterministic(self, e3):
        assert solve_supporting(e3) == solve_supporting(e3)
        assert solve_covering(e3) == solve_covering(e3)

    def test_reduction_shows_up_in_the_solution(self, e4):
        solution = solve_supporting(e4)
        assert solution.reduction_trace.eliminated == ("c", "b")
        assert solution.weight.values == (1, 0, 0)

    @settings(max_examples=40)
    @given(histogram_sets(max_symbols=4, max_members=4, max_length=10))
    def test_matches_oracle_and_certifies(self, hs):
        baseline = Fraction(hs.sample_length, len(hs.alphabet))
        for problem, solve in ((SUPPORTING, solve_supporting), (COVERING, solve_covering)):
            solution = solve(hs)
            assert solution.alpha == oracle_solve(hs, problem)[0]
            assert certify(solution, hs).passed
            if problem == SUPPORTING:
                assert solution.alpha >= baseline
            else:
                assert solution.alpha <= baseline
            # feasibility with at least one tight member
            assert solution.tight_members

    @settings(max_examples=25)
    @given(histogram_sets(max_symbols=4, max_members=4, max_length=10))
    def test_float_mode_tracks_rational_mode(self, hs):
        for solve in (solve_supporting, solve_covering):
            exact = solve(hs)
            approx = solve(hs, "float")
            assert abs(float(exact.alpha) - approx.alpha) <= 1e-6
            assert certify(approx, hs).passed

    @settings(max_examples=25)
    @given(histogram_sets(max_symbols=4, max_members=4, max_length=10))
    def test_skipping_reduction_changes_nothing(self, hs):
        for solve in (solve_supporting, solve_covering):
            assert solve(hs).alpha == solve(hs, use_reduction=False).alpha

    @settings(max_examples=25)
    @given(histogram_sets())
    def test_members_respect_their_own_weights(self, hs):
        supporting = solve_supporting(hs)
        covering = solve_covering(hs)
        for member in hs.members:
            assert pairing(supporting.weight, member) >= supporting.alpha
            assert pairing(covering.weight, member) <= covering.alpha


def _seeded_sets(count=40):
    for seed in range(count):
        yield random_histogram_set(random.Random(seed), max_symbols=6, max_members=8, max_length=30)


def _lp_shape(histograms, problem):
    """(distinct member rows, surviving symbols) of the matrix the LP sees."""
    rows, trace = reduce_fixpoint(histograms, problem)
    return len(distinct_rows(rows)[0]), len(trace.surviving)


def _member_row_value(histograms, problem, mode):
    """The value of the untransposed program: one ``w`` per distinct member.
    Its value is the supporting value plus one, or, for covering, one more
    than the largest count minus the covering value."""
    rows = distinct_rows(histograms.count_rows())[0]
    build = supporting_lp if problem == SUPPORTING else covering_lp
    lp, _ = build(rows)
    value = 1 / simplex_values(simplex_optimize(lp, mode), mode)[0]
    return value - 1 if problem == SUPPORTING else 1 + max(map(max, rows)) - value


SOLVERS = ((SUPPORTING, solve_supporting), (COVERING, solve_covering))


class TestShortSide:
    """With fewer distinct members than symbols the game is solved on the
    transposed matrix; values must not notice."""

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_values_match_the_member_row_program(self, mode):
        sides = set()
        for hs in _seeded_sets():
            for problem, solve in SOLVERS:
                k, n = _lp_shape(hs, problem)
                if n < 2:
                    continue
                sides.add(k < n)
                expected = _member_row_value(hs, problem, mode)
                alpha = solve(hs, mode).alpha
                if mode == "rational":
                    assert alpha == expected
                else:
                    assert abs(alpha - expected) <= 1e-9
        assert sides == {True, False}

    def test_the_program_has_the_shorter_side_as_rows(self, monkeypatch):
        programs = []

        def recording(lp, *args):
            result = simplex_optimize(lp, *args)
            programs.append((lp, result))
            return result

        monkeypatch.setattr(histrel.game, "simplex_optimize", recording)
        straddling = 0
        for hs in _seeded_sets():
            for problem, solve in SOLVERS:
                k, n = _lp_shape(hs, problem)
                if n < 2:
                    continue
                programs.clear()
                solve(hs)
                if len(hs.alphabet) == 2:  # both symbols survive: the closed form
                    assert programs == []
                    straddling += 1
                    continue
                [(lp, result)] = programs
                assert (len(lp.rows), len(lp.objective)) == (min(k, n), max(k, n))
                assert all(type(v) is int and v >= 1 for row in lp.rows for v in row)
                assert lp.objective == (1,) * max(k, n)
                assert lp.rhs == (1,) * min(k, n)
                # the simplex appends one slack per row after the program's columns
                assert len(result.solution_numerators) == len(result.cost_numerators) == k + n
        assert straddling > 0

    def test_transposed_solve_flags_alternate_optima(self):
        # both the returned weight and the uniform weight attain the value in
        # both problems: four distinct members over three symbols take the
        # member-row program, two over four the transposed one
        cases = [
            (make_set("abc", [(0, 8, 6), (6, 8, 0), (2, 6, 6), (6, 4, 4)]), Fraction(14, 3)),
            (make_set("abcd", [(4, 4, 0, 0), (0, 0, 4, 4)]), Fraction(2)),
        ]
        for hs, value in cases:
            uniform = Weight.uniform(hs.alphabet)
            for problem, solve in SOLVERS:
                k, n = len(hs.members), len(hs.alphabet)
                assert _lp_shape(hs, problem) == (k, n)
                solution = solve(hs)
                assert solution.alpha == value
                assert solution.weight != uniform
                extreme = min if problem == SUPPORTING else max
                assert extreme(pairing(uniform, m) for m in hs.members) == solution.alpha
                assert solution.alternate_optima
                assert certify(solution, hs).passed

    def test_seed_3_covering_flags_its_second_optimum(self):
        # members (11, 7, 1), (15, 2, 2), (2, 16, 1): the returned weight
        # (0, 0, 1) caps them at 2, and so does (0, e, 1 - e) for e <= 1/15
        hs = random_histogram_set(random.Random(3), 6, 8, 30)
        assert _lp_shape(hs, COVERING) == (3, 3)
        solution = solve_covering(hs)
        assert solution.weight.values == (0, 0, 1)
        other = Weight(hs.alphabet, (0, Fraction(1, 15), Fraction(14, 15)))
        assert max(pairing(other, m) for m in hs.members) == solution.alpha == 2
        assert solution.alternate_optima
        assert certify(solution, hs).passed


class TestZeroValue:
    """A symbol no member uses caps the covering value at zero. The normalized
    program's value stays positive: ``c`` on the member rows, where covering
    is solved on ``c - counts``, and 1 on the transpose, where it is solved as
    supporting on ``counts + 1``."""

    @pytest.mark.parametrize("mode", ["rational", "float"])
    @pytest.mark.parametrize(
        "counts",
        [
            [(3, 5, 0), (6, 2, 0), (4, 4, 0), (1, 7, 0)],  # k >= n: untransposed
            [(3, 1, 0, 4), (1, 3, 0, 4)],  # k < n: transposed
        ],
    )
    def test_dead_symbol_gives_covering_value_zero(self, counts, mode):
        hs = make_set("abcd"[: len(counts[0])], counts)
        solution = solve_covering(hs, mode, use_reduction=False)
        assert solution.alpha == pytest.approx(0, abs=1e-9)
        # the point mass on the dead symbol c is the only weight that reaches zero
        assert solution.weight.values == pytest.approx([int(v == 0) for v in counts[0]], abs=1e-9)
        assert certify(solution, hs).passed
