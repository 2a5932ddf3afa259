"""Supporting and covering solvers with dual certificates.

The supporting problem maximizes the worst-case pairing over the weight
simplex; the covering problem minimizes the best case. Both are solved on
the reduced alphabet as von Neumann's normalized program of one positive
integer matrix ``P``: maximize ``1 . w`` subject to ``P^T w <= 1`` and
``w >= 0``, from the all-slack basis (G. B. Dantzig, "A proof of the
equivalence of the programming problem and the game problem", 1951;
V. Chvatal, *Linear Programming*, 1983, ch. 15). Its value is ``1 / sum(w)``;
``w`` and the slack duals, each scaled by it, are the optimal distributions
over the rows and the columns of ``P``. The count matrix is shifted by one
or subtracted from one more than its largest count to make ``P`` positive.
The returned weight is zero-padded back to the full alphabet, and the member
distribution certifies the value by complementary slackness. Two shortcuts
skip the program: a reduction that leaves one symbol, whose smallest
(covering: largest) count is the value and whose dual is the point mass on
the first member with that count, and one that leaves both symbols of a
two-symbol set, whose members then straddle the middle and which the even
weight solves at half the sample length.
``make_solution`` is where every solution is certified: it and ``certify``
share one computation, in which one pairing of the weight with every member
gives the tight sets and the certificate, each a comparison of a pairing
with the value made by ``Field``. A solution that fails the certificate
raises ``CertificationFailure`` instead of being returned.

The program is built on the shorter side of the distinct count matrix: with
fewer distinct members than symbols, the transposed matrix is solved for the
opposite problem (the minimax theorem makes the values equal), and weight
and member distribution swap roles. The value never depends on that choice;
on instances with several optimal weights the returned vertex can.
A program's ``alternate_optima`` is a warning read off the final basis:
``False`` does not prove the weight unique.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    COVERING,
    RATIONAL,
    SUPPORTING,
    ArithmeticMode,
    Field,
    HistogramSet,
    Number,
    ProblemMode,
    Weight,
    _on_simplex,
    _spread,
    distinct_rows,
    require_problem_mode,
)
from .errors import AlphabetMismatch, CertificationFailure, NumericalFailure, ValidationError
from .reduce import ReductionTrace, empty_trace, reduce_fixpoint
from .simplex import SimplexResult, StandardFormLP, simplex_optimize


@dataclass(frozen=True)
class DualWeight:
    """A probability vector over the members of a histogram set; the
    private ``_scaled`` keeps its ``Field.scaled`` numerators, as a
    ``Weight`` does."""

    values: tuple[Number, ...]
    mode: ArithmeticMode = RATIONAL

    def __post_init__(self):
        field = Field.for_mode(self.mode)
        values = tuple(self.values)
        if not values:
            raise ValidationError("dual weight needs at least one component")
        _on_simplex(self, values, field, "dual")


@dataclass(frozen=True)
class GameSolution:
    """One solved variational problem; the solvers and ``make_solution``
    return only solutions that passed ``certify``'s clauses.

    ``tight_members`` are the members whose pairing equals the value;
    ``tight_symbols`` carry positive weight. ``alternate_optima`` warns that
    other optimal weights may exist, in which case downstream scores depend
    on which optimum is used.
    """

    alpha: Number
    weight: Weight
    dual: DualWeight
    tight_members: tuple[int, ...]
    tight_symbols: tuple[int, ...]
    mode: ProblemMode
    reduction_trace: ReductionTrace
    alternate_optima: bool = False


@dataclass(frozen=True)
class CertificateCheck:
    clause: str
    passed: bool
    violation: float = 0.0
    detail: str = ""


@dataclass(frozen=True)
class CertificateReport:
    mode: ProblemMode
    passed: bool
    checks: tuple[CertificateCheck, ...]
    max_violation: float

    def failures(self) -> tuple[CertificateCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


def supporting_lp(rows: Sequence[Sequence[int]]) -> tuple[StandardFormLP, int]:
    """Normalized program of ``rows + 1``, and the offset 1: the program's
    value is the supporting value of ``rows`` plus one (shifting every count
    shifts the value, since a weight sums to one; the shift makes the value
    positive)."""
    return _normalized_lp([[v + 1 for v in row] for row in rows]), 1


def covering_lp(rows: Sequence[Sequence[int]]) -> tuple[StandardFormLP, int]:
    """Normalized program of ``c - rows``, and ``c``, one more than the
    largest count: the program's value is ``c`` minus the covering value of
    ``rows``, since the weight that minimizes the best case maximizes the
    worst case of ``c - rows``."""
    c = 1 + max(map(max, rows))
    return _normalized_lp([[c - v for v in row] for row in rows]), c


def _normalized_lp(P) -> StandardFormLP:
    """Maximize ``1 . w`` subject to ``P^T w <= 1`` and ``w >= 0``, for a
    positive integer matrix ``P``: one row per column of ``P``, one ``w``
    per row of ``P``. The simplex appends one slack per column of ``P``."""
    return StandardFormLP((1,) * len(P), tuple(zip(*P)), (1,) * len(P[0]))


def extract_dual(result: SimplexResult, rows: Sequence[Sequence[int]], field: Field) -> tuple:
    """Distribution over the rows of ``rows`` from an optimal normalized
    program: ``w`` scaled by ``1 / sum(w)``, where ``sum(w)`` is the
    reciprocal of the program's positive value. Each entry is one
    ``field.quotient`` of the result's numerators of ``w`` by their sum:
    integers in rational mode, where that sum is the objective's numerator,
    and in float mode the left-to-right sum of ``w`` and the same divisions."""
    numerators = result.solution_numerators[: len(rows)]
    total = sum(numerators)
    return tuple(field.quotient(v, total) for v in numerators)


def make_solution(
    alpha: Number,
    weight: Weight,
    dual: DualWeight,
    histograms: HistogramSet,
    problem: ProblemMode,
    trace: ReductionTrace | None = None,
    *,
    alternate_optima: bool = False,
) -> GameSolution:
    """Assemble a solution and certify it against ``histograms``.

    One pairing of the weight with every member gives both the tight sets
    and the certificate. Raises ``CertificationFailure`` naming the failed
    clauses, or a symbol that ``trace`` eliminated but the weight carries,
    so every solution this returns is certified, and ``NumericalFailure``
    for float-mode counts beyond the float range.
    """
    require_problem_mode(problem)
    if trace is None:
        trace = empty_trace(histograms.alphabet.symbols)
    if weight.alphabet != histograms.alphabet:
        raise AlphabetMismatch("weight and histogram set use different alphabets")
    tight_members, tight_symbols, report = _certified(alpha, weight, dual, histograms, problem)
    if not report.passed:
        clauses = ", ".join(c.clause for c in report.failures())
        raise CertificationFailure(f"{problem} solution fails: {clauses}")
    weighted = {histograms.alphabet.symbols[j] for j in tight_symbols}
    for symbol in trace.eliminated:
        if symbol in weighted:
            raise CertificationFailure(f"{problem} solution weighs eliminated symbol {symbol!r}")
    return GameSolution(
        alpha, weight, dual, tight_members, tight_symbols, problem, trace, alternate_optima
    )


def solve_supporting(
    histograms: HistogramSet,
    arithmetic: ArithmeticMode = RATIONAL,
    *,
    use_reduction: bool = True,
) -> GameSolution:
    """Maximize the worst-case pairing over the weight simplex.

    Returns the value, one optimal weight (zero on every symbol the
    threshold reduction eliminated), and a certifying member distribution.
    The value never falls below ``|T| / |V|``. ``use_reduction=False``
    solves the program on the full alphabet, with neither shortcut.
    """
    return _solve_game(histograms, SUPPORTING, arithmetic, use_reduction)


def solve_covering(
    histograms: HistogramSet,
    arithmetic: ArithmeticMode = RATIONAL,
    *,
    use_reduction: bool = True,
) -> GameSolution:
    """Minimize the best-case pairing over the weight simplex.

    The value never exceeds ``|T| / |V|``.
    """
    return _solve_game(histograms, COVERING, arithmetic, use_reduction)


def solve_binary(
    histograms: HistogramSet, arithmetic: ArithmeticMode = RATIONAL
) -> tuple[GameSolution, GameSolution]:
    """``solve_supporting`` and ``solve_covering`` of a two-symbol set;
    ``ValidationError`` otherwise. No library code calls it; it goes when
    ``perfbench/spans.py`` stops wrapping ``io.solve_binary`` (ROADMAP item 1)."""
    if len(histograms.alphabet) != 2:
        raise ValidationError(f"need a two-symbol alphabet, got {len(histograms.alphabet)} symbols")
    return solve_supporting(histograms, arithmetic), solve_covering(histograms, arithmetic)


def _solve_game(histograms, problem, arithmetic, use_reduction) -> GameSolution:
    field = Field.for_mode(arithmetic)
    field.require_counts_fit(histograms.sample_length)
    alphabet = histograms.alphabet
    if use_reduction:
        restricted, trace = reduce_fixpoint(histograms, problem)
    else:
        restricted, trace = histograms.count_rows(), empty_trace(alphabet.symbols)
    kept = set(trace.surviving)  # alphabet order: the column order of the restricted rows
    surviving = [j for j, s in enumerate(alphabet.symbols) if s in kept]

    if len(surviving) == 1:
        column = histograms._columns[surviving[0]]
        best = (min if problem == SUPPORTING else max)(column)
        # The simplex is a point: the value is the extreme count there, and
        # every optimal weight of the original problem is the point mass.
        # The dual is the point mass on the first member with that count.
        alpha, weight_values, alternate = field.of(best), (field.one,), False
        dual_values = _spread((field.one,), (column.index(best),), len(column), field.zero)
    else:
        unique_rows, origins = distinct_rows(restricted)
        if use_reduction and len(alphabet) == 2:
            # Both symbols survive exactly when the members straddle the
            # middle: the even weight pairs to half the sample length with
            # every member, and it is the only optimum exactly when both
            # strict straddle directions occur.
            alpha, weight_values = field.of(histograms.sample_length) / 2, (field.one / 2,) * 2
            dual_unique = _balance_dual(unique_rows, alpha, field)
            alternate = not (
                any(a > b for a, b in unique_rows) and any(b > a for a, b in unique_rows)
            )
        else:
            alpha, weight_values, dual_unique, alternate = _solve_lp(unique_rows, problem, field)
        # duplicates were collapsed before solving: the first occurrence holds their mass
        dual_values = _spread(dual_unique, origins, len(histograms.members), field.zero)
    weight_values = _spread(weight_values, surviving, len(alphabet), field.zero)
    weight = _built(problem, "weight-simplex", Weight, alphabet, weight_values, arithmetic)
    dual = _built(problem, "dual-simplex", DualWeight, dual_values, arithmetic)
    return make_solution(
        alpha, weight, dual, histograms, problem, trace, alternate_optima=alternate
    )


def _built(problem, clause, make, *args):
    """``make(*args)`` for a solver-built weight or dual: one that float
    round-off put off its simplex fails that certificate clause, like any
    other fault of a solution."""
    try:
        return make(*args)
    except ValidationError:
        raise CertificationFailure(f"{problem} solution fails: {clause}") from None


def _solve_lp(unique_rows, problem, field: Field):
    """Solve the game as the normalized program of the ``k x n`` count
    matrix, on its shorter side.

    With at least as many distinct members as symbols, the program is built
    on the member rows and has ``n`` rows. Otherwise the transposed matrix
    is solved for the opposite problem (minimax: supporting on ``M`` is
    covering on ``M^T`` and vice versa), with ``k`` rows. With the value
    ``v`` of the normalized program, ``v * w`` is the distribution over the
    rows of the solved matrix, and ``v * y``, with ``y`` minus the slack
    reduced costs, the distribution over its columns; both are read off the
    result's numerators, one quotient per entry. Returns ``(alpha,
    weight, member distribution, alternate_optima)``; ``alternate_optima``
    flags a symbol that could enter the weight at no cost: a symbol slack
    basic at zero, or, transposed, a nonbasic symbol column with zero
    reduced cost.
    """
    k, n = len(unique_rows), len(unique_rows[0])
    flipped = k < n
    if flipped:
        rows = tuple(zip(*unique_rows))
        lp_problem = COVERING if problem == SUPPORTING else SUPPORTING
    else:
        rows, lp_problem = unique_rows, problem
    build = supporting_lp if lp_problem == SUPPORTING else covering_lp
    lp, offset = build(rows)
    result = simplex_optimize(lp, field.mode)
    # the objective is V / denominator, so the program's value is denominator / V
    objective, denominator = result.objective_numerator, result.denominator
    value = field.quotient(denominator, objective)
    alpha = value - offset if lp_problem == SUPPORTING else offset - value
    height = len(rows)
    row_side = field.cleared(extract_dual(result, rows, field))
    # the value times y, where y = -c / denominator: -c / V
    slack_duals = [-c for c in result.cost_numerators[height:]]
    column_side = field.cleared(field.divided(slack_duals, objective))
    basic = set(result.basis)
    if flipped:
        zero_costs = field.near((result.cost_numerators[:height], denominator))
        return alpha, row_side, column_side, any(i not in basic for i in zero_costs)
    zero_slacks = field.near((result.solution_numerators[height:], denominator))
    return alpha, column_side, row_side, any(height + s in basic for s in zero_slacks)


def _balance_dual(rows, half, field: Field) -> list:
    """A member distribution of a straddling two-symbol set whose weighted
    column sums both equal ``half``, half the sample length.

    All mass goes to the first balanced member if there is one. Otherwise it
    is split between the first member with the largest second count and the
    first with the largest first count; these straddle the middle, so their
    first counts differ.
    """
    balanced = next((i for i, row in enumerate(rows) if row[0] == row[1]), None)
    if balanced is not None:
        return _spread((field.one,), (balanced,), len(rows), field.zero)
    heavy_one = max(range(len(rows)), key=lambda i: rows[i][1])
    heavy_zero = max(range(len(rows)), key=lambda i: rows[i][0])
    low, high = rows[heavy_one][0], rows[heavy_zero][0]
    shares = ((high - half) / (high - low), (half - low) / (high - low))
    return _spread(shares, (heavy_one, heavy_zero), len(rows), field.zero)


def certify(solution: GameSolution, histograms: HistogramSet) -> CertificateReport:
    """Check a solution against its set; failures are reported, never raised.

    Clauses: weight and dual lie on their simplices, the weight is feasible
    for the value, members with positive dual mass are tight, symbols with
    positive weight have dual column sums equal to the value, the primal
    and dual values both equal the claimed value, and the value lies on the
    right side of the uniform weight's ``|T| / |V|``.
    """
    if solution.weight.alphabet != histograms.alphabet:
        return _structure_failure(solution.mode, "alphabet differs")
    try:
        return _certified(solution.alpha, solution.weight, solution.dual, histograms, solution.mode)[2]
    except NumericalFailure as exc:  # float mode, counts beyond the float range
        return _structure_failure(solution.mode, str(exc))


def _structure_failure(problem: ProblemMode, detail: str) -> CertificateReport:
    check = CertificateCheck("structure", False, float("inf"), detail)
    return CertificateReport(problem, False, (check,), float("inf"))


def _certified(alpha, weight, dual, histograms, problem):
    """``(tight_members, tight_symbols, report)`` of a claimed solution, from
    one pairing of the weight with every member and one of the dual with
    every symbol. The tight sets and every clause compare those pairings with
    ``alpha`` through ``Field.gaps``; each violation is one quotient's float,
    ``inf`` beyond the float range. Raises ``NumericalFailure`` for float-mode
    counts beyond the float range.
    """
    field = Field.for_mode(weight.mode)
    field.require_counts_fit(histograms.sample_length)
    rows = histograms.count_rows()
    weight_scaled = weight._scaled
    member_gaps, member_scale = field.gaps(field.pairings(weight_scaled, rows), alpha)
    tight_members = tuple(field.near((member_gaps, member_scale)))
    tight_symbols = tuple(field.support(weight_scaled))
    if len(dual.values) != len(rows):
        return tight_members, tight_symbols, _structure_failure(problem, "dual length differs")
    checks: list[CertificateCheck] = []

    def add(clause: str, excess, scale, detail: str = "") -> None:
        """A clause whose violation is ``excess / scale``, with ``scale > 0``."""
        try:
            violation = max(0.0, excess / scale)
        except OverflowError:  # an integer quotient beyond the float range; within() is exact
            violation = float("inf")
        checks.append(CertificateCheck(clause, field.within(excess, scale), violation, detail))

    dual_scaled = dual._scaled
    for clause, (numerators, denominator) in (("weight-simplex", weight_scaled), ("dual-simplex", dual_scaled)):
        add(clause, max(abs(sum(numerators) - denominator), -min(numerators), 0), denominator)

    # the supporting claims flip for covering: min/max swap and so do the signs
    sign = 1 if problem == SUPPORTING else -1
    first, last = (min, max) if sign == 1 else (max, min)
    column_gaps, column_scale = field.gaps(field.pairings(dual_scaled, histograms._columns), alpha)
    primal_gap, dual_gap = first(member_gaps), last(column_gaps)
    add("primal-feasibility", max(-sign * primal_gap, 0), member_scale)
    add("value-equality-primal", abs(primal_gap), member_scale)
    add("dual-feasibility", max(sign * dual_gap, 0), column_scale)
    add("value-equality-dual", abs(dual_gap), column_scale)

    slack_members = max((abs(member_gaps[i]) for i in field.support(dual_scaled)), default=0)
    add("slackness-members", slack_members, member_scale, "positive dual mass on a non-tight member")
    slack_symbols = max((abs(column_gaps[v]) for v in tight_symbols), default=0)
    add("slackness-symbols", slack_symbols, column_scale, "positive weight on a slack dual column")
    uniform = field.of(histograms.sample_length) / len(histograms.alphabet)
    (uniform_gap,), uniform_scale = field.gaps(field.scaled([uniform]), alpha)
    add("uniform-bound", max(sign * uniform_gap, 0), uniform_scale, "value beyond |T| / |V|")

    passed = all(c.passed for c in checks)
    max_violation = max((c.violation for c in checks), default=0.0)
    return tight_members, tight_symbols, CertificateReport(problem, passed, tuple(checks), max_violation)
