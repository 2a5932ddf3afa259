"""Supporting and covering solvers with dual certificates.

The supporting problem maximizes the worst-case pairing over the weight
simplex; the covering problem minimizes the best case. Both are solved as
equality-form programs on the reduced alphabet, the returned weight is
zero-padded back to the full alphabet, and the row duals of the optimal
basis normalize to a distribution over members that certifies the value by
complementary slackness. ``make_solution`` is where every solution is
certified: one pairing of the weight with every member gives the tight sets
and the certificate, and a solution that fails it raises
``CertificationFailure`` instead of being returned.

The program is built on the shorter side of the distinct count matrix: with
more distinct members than symbols, the transposed matrix is solved for the
opposite problem (the minimax theorem makes the values equal), and weight
and member distribution swap roles. The value never depends on that choice;
on instances with several optimal weights the returned vertex can.
``alternate_optima`` is a warning read off the final basis: ``False`` does
not prove the weight unique.
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
    distinct_rows,
    require_problem_mode,
)
from .errors import AlphabetMismatch, CertificationFailure, EmptySet, ValidationError
from .reduce import ReductionTrace, empty_trace, reduce_fixpoint
from .simplex import SimplexResult, StandardFormLP, simplex_optimize


@dataclass(frozen=True)
class DualWeight:
    """A probability vector over the members of a histogram set."""

    values: tuple[Number, ...]
    mode: ArithmeticMode = RATIONAL

    def __post_init__(self):
        field = Field.for_mode(self.mode)
        values = tuple(self.values)
        if not values:
            raise ValidationError("dual weight needs at least one component")
        object.__setattr__(self, "values", _on_simplex(values, field, "dual"))


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


def supporting_lp(rows: Sequence[Sequence[int]]) -> tuple[StandardFormLP, tuple[int, ...]]:
    """Equality-form program for the supporting value.

    Variables are ``x`` (one per symbol), the value, then one surplus per
    member row. The starting basis holds every surplus plus ``x_0``, which is
    feasible because the member counts are nonnegative.
    """
    k, n = len(rows), len(rows[0])
    basis = tuple(n + 1 + i for i in range(k)) + (0,)
    return _game_lp(rows, 1), basis


def covering_lp(rows: Sequence[Sequence[int]]) -> tuple[StandardFormLP, tuple[int, ...]]:
    """Equality-form program for the covering value (the value is minimized,
    so the objective carries a negated value variable).

    The starting basis holds the value, ``x_0``, and every surplus except the
    one for a row maximizing the first component, which keeps all surpluses
    nonnegative at the start.
    """
    k, n = len(rows), len(rows[0])
    anchor = max(range(k), key=lambda i: (rows[i][0], -i))
    basis = (n, 0) + tuple(n + 1 + i for i in range(k) if i != anchor)
    return _game_lp(rows, -1), basis


def _game_lp(rows, sign: int) -> StandardFormLP:
    """Maximize ``sign * value`` subject to ``sign * (row . x - value) == s_i``
    per member row and ``sum(x) == 1``; ``sign`` is 1 for supporting and -1
    for covering. Every entry is a plain integer."""
    k, n = len(rows), len(rows[0])
    lp_rows = []
    for i, row in enumerate(rows):
        surplus = [0] * k
        surplus[i] = -1
        lp_rows.append(tuple(sign * v for v in row) + (-sign,) + tuple(surplus))
    lp_rows.append((1,) * n + (0,) * (k + 1))
    objective = (0,) * n + (sign,) + (0,) * k
    rhs = (0,) * k + (1,)
    return StandardFormLP(objective, tuple(lp_rows), rhs)


def extract_dual(
    result: SimplexResult, rows: Sequence[Sequence[int]], arithmetic: ArithmeticMode = RATIONAL
) -> DualWeight:
    """Dual distribution over member rows from an optimal basis.

    The negated row multipliers of the member constraints are nonnegative at
    an optimum and normalize to a distribution. They can all vanish only when
    the covering value is zero; the fallback then places uniform mass on the
    tight rows, which certifies the same value.
    """
    field = Field.for_mode(arithmetic)
    raw = [-y for y in result.row_duals[: len(rows)]]
    raw = [field.zero if field.close(v, field.zero) else v for v in raw]
    total = sum(raw)
    if field.positive(total):
        values = [v / total for v in raw]
    else:
        n = len(rows[0])
        xs = result.solution[:n]
        alpha = result.solution[n]
        tight = [field.close(p, alpha) for p in field.pairings(xs, rows)]
        if not any(tight):
            raise ValidationError("no tight member row to anchor the dual")
        share = field.share(sum(tight))
        values = [share if t else field.zero for t in tight]
    return DualWeight(tuple(values), arithmetic)


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
    clauses, so every solution this returns is certified.
    """
    require_problem_mode(problem)
    if trace is None:
        trace = empty_trace(histograms.alphabet.symbols)
    if weight.alphabet != histograms.alphabet:
        raise AlphabetMismatch("weight and histogram set use different alphabets")
    field = Field.for_mode(weight.mode)
    pairings = field.pairings(weight.values, histograms.count_rows())
    solution = GameSolution(
        alpha=alpha,
        weight=weight,
        dual=dual,
        tight_members=tuple(i for i, p in enumerate(pairings) if field.close(p, alpha)),
        tight_symbols=tuple(j for j, v in enumerate(weight.values) if field.positive(v)),
        mode=problem,
        reduction_trace=trace,
        alternate_optima=alternate_optima,
    )
    report = _certificate(solution, histograms, pairings, field)
    if not report.passed:
        clauses = ", ".join(c.clause for c in report.failures())
        raise CertificationFailure(f"{problem} solution fails: {clauses}")
    return solution


def solve_supporting(
    histograms: HistogramSet,
    arithmetic: ArithmeticMode = RATIONAL,
    *,
    use_reduction: bool = True,
) -> GameSolution:
    """Maximize the worst-case pairing over the weight simplex.

    Returns the value, one optimal vertex weight (zero on every symbol the
    threshold reduction eliminated), and a certifying member distribution.
    The value never falls below ``|T| / |V|``.
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


def _solve_game(histograms, problem, arithmetic, use_reduction) -> GameSolution:
    require_problem_mode(problem)
    field = Field.for_mode(arithmetic)
    if not histograms.members:
        raise EmptySet("cannot solve an empty histogram set")
    field.require_counts_fit(histograms.sample_length)
    alphabet = histograms.alphabet
    if use_reduction and len(alphabet) >= 2:
        restricted, trace = reduce_fixpoint(histograms, problem)
    else:
        restricted, trace = histograms.count_rows(), empty_trace(alphabet.symbols)
    surviving = [alphabet.index(s) for s in trace.surviving]
    unique_rows, origins = distinct_rows(restricted)

    if len(surviving) == 1:
        extreme = min if problem == SUPPORTING else max
        best, dual_unique = _extreme_mass(unique_rows, 0, extreme, field)
        # The simplex is a point: the value is the extreme count there, and
        # every optimal weight of the original problem is the point mass.
        alpha = field.of(best)
        weight = Weight.point_mass(alphabet, surviving[0], arithmetic)
        alternate = False
    else:
        alpha, weight_values, dual_unique, alternate = _solve_lp(unique_rows, problem, field)
        weight = _padded_weight(weight_values, surviving, alphabet, field)

    dual_values = _spread_over_members(dual_unique, origins, len(histograms.members), field)
    dual = DualWeight(dual_values, arithmetic)
    return make_solution(
        alpha, weight, dual, histograms, problem, trace, alternate_optima=alternate
    )


def _solve_lp(unique_rows, problem, field: Field):
    """Solve the game on the shorter side of the ``k x n`` count matrix.

    With more distinct members than symbols, the transposed matrix is solved
    for the opposite problem (minimax: supporting on ``M`` is covering on
    ``M^T`` and vice versa), so the program has ``n + 1`` rows instead of
    ``k + 1``. There the primal is the member distribution and the row duals
    are the weight. Returns ``(alpha, weight, member distribution,
    alternate_optima)``; ``alternate_optima`` flags a symbol that could enter
    the weight at no cost: a nonbasic weight column with zero reduced cost,
    or, transposed, a symbol row whose surplus is basic at zero.
    """
    k, n = len(unique_rows), len(unique_rows[0])
    flipped = k > n
    if flipped:
        rows = tuple(zip(*unique_rows))
        lp_problem = COVERING if problem == SUPPORTING else SUPPORTING
    else:
        rows, lp_problem = unique_rows, problem
    build = supporting_lp if lp_problem == SUPPORTING else covering_lp
    lp, basis = build(rows)
    result = simplex_optimize(lp, field.mode, basis=basis)
    width = len(rows[0])
    alpha = result.solution[width]
    primal = result.solution[:width]
    row_dual = extract_dual(result, rows, field.mode).values
    basic = set(result.basis)
    if flipped:
        surplus = range(k + 1, k + 1 + n)
        alternate = any(s in basic and field.close(result.solution[s], field.zero) for s in surplus)
        return alpha, row_dual, primal, alternate
    alternate = any(
        j not in basic and field.close(result.reduced_costs[j], field.zero) for j in range(n)
    )
    return alpha, primal, row_dual, alternate


def _extreme_mass(unique_rows, column: int, extreme, field: Field):
    """Uniform mass on the distinct rows attaining the ``extreme`` (``min`` or
    ``max``) count in one column; returns that count and the mass per
    distinct row."""
    counts = [row[column] for row in unique_rows]
    best = extreme(counts)
    share = field.share(counts.count(best))
    return best, tuple(share if v == best else field.zero for v in counts)


def _padded_weight(values, surviving, alphabet, field):
    full = [field.zero] * len(alphabet)
    for pos, j in enumerate(surviving):
        full[j] = values[pos]
    return Weight(alphabet, tuple(full), field.mode)


def _spread_over_members(dual_unique, origins, member_count, field):
    """Duplicates were collapsed before solving; their mass sits on the first
    occurrence and the copies keep zero."""
    values = [field.zero] * member_count
    for u, origin in enumerate(origins):
        values[origin] = dual_unique[u]
    return tuple(values)


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
    field = Field.for_mode(solution.weight.mode)
    pairings = field.pairings(solution.weight.values, histograms.count_rows())
    return _certificate(solution, histograms, pairings, field)


def _structure_failure(problem: ProblemMode, detail: str) -> CertificateReport:
    check = CertificateCheck("structure", False, float("inf"), detail)
    return CertificateReport(problem, False, (check,), float("inf"))


def _certificate(solution, histograms, pairings, field: Field) -> CertificateReport:
    """The certificate clauses, given the weight's pairing with every member."""
    checks: list[CertificateCheck] = []

    def add(clause: str, violation, detail: str = "") -> None:
        checks.append(
            CertificateCheck(
                clause=clause,
                passed=violation <= field.tol,
                violation=max(0.0, float(violation)),
                detail=detail,
            )
        )

    weight, dual, alpha = solution.weight, solution.dual, solution.alpha
    if len(dual.values) != len(histograms.members):
        return _structure_failure(solution.mode, "dual length differs")

    add("weight-simplex", max(abs(sum(weight.values) - 1), -min(weight.values), 0))
    add("dual-simplex", max(abs(sum(dual.values) - 1), -min(dual.values), 0))

    # the supporting claims flip for covering: min/max swap and so do the signs
    sign = 1 if solution.mode == SUPPORTING else -1
    first, last = (min, max) if sign == 1 else (max, min)
    columns = field.pairings(dual.values, zip(*histograms.count_rows()))
    primal_value, dual_value = first(pairings), last(columns)
    add("primal-feasibility", max(sign * (alpha - primal_value), 0))
    add("value-equality-primal", abs(primal_value - alpha))
    add("dual-feasibility", max(sign * (dual_value - alpha), 0))
    add("value-equality-dual", abs(dual_value - alpha))

    slack_members = max(
        (abs(pairings[i] - alpha) for i, d in enumerate(dual.values) if field.positive(d)),
        default=0,
    )
    add("slackness-members", slack_members, "positive dual mass on a non-tight member")
    slack_symbols = max(
        (abs(columns[v] - alpha) for v, w in enumerate(weight.values) if field.positive(w)),
        default=0,
    )
    add("slackness-symbols", slack_symbols, "positive weight on a slack dual column")
    baseline = field.of(histograms.sample_length) / len(histograms.alphabet)
    add("uniform-bound", max(sign * (baseline - alpha), 0), "value beyond |T| / |V|")

    passed = all(c.passed for c in checks)
    max_violation = max((c.violation for c in checks), default=0.0)
    return CertificateReport(solution.mode, passed, tuple(checks), max_violation)
