"""Randomized cross-checks of the solvers against a brute-force oracle.

Every property the library promises at desk scale is checked here on seeded
random instances plus a handful of pinned cases, so one command answers "is
this build trustworthy": values match the oracle exactly, bounds hold,
certificates pass, reduction is sound, the straddling binary closed form
agrees with the program on the full alphabet and dominant binary sets show
the closed form's facts, and float mode tracks rational mode.

The oracle, ``oracle_solve``, is exhaustive support enumeration (L. S.
Shapley and R. N. Snow, "Basic solutions of discrete games", 1950), exact
and capped at ``ORACLE_MAX_SYMBOLS`` symbols and ``ORACLE_MAX_MEMBERS``
members. It shares the integer linear solve with the main path (it reads the
system's solution of the one fraction-free LU, not the transpose's) but
never its pivoting. ``run_verification`` checks its bounds before any solve.

``classify_binary`` tags the paper's case split of two-symbol sets: a
dominant first or second component, or members that straddle the middle.
"""

from __future__ import annotations

import random
import string
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .core import (
    COVERING,
    FLOAT,
    RATIONAL,
    SUPPORTING,
    Alphabet,
    HistogramSet,
    ProblemMode,
    Weight,
    _solve_integer,
    require_problem_mode,
)
from .errors import CapExceeded, CertificationFailure, NumericalFailure, ValidationError
from .game import DualWeight, certify, make_solution, solve_covering, solve_supporting
from .reduce import reduce_fixpoint

ORACLE_MAX_SYMBOLS = 6
ORACLE_MAX_MEMBERS = 8
FLOAT_AGREEMENT = 1e-6

ZERO_DOMINANT = "zero_dominant"
ONE_DOMINANT = "one_dominant"
MIXED = "mixed"

E1 = ("ab", 10, ((7, 3), (6, 4)))
E2 = ("ab", 10, ((4, 6), (7, 3)))
E3 = ("abc", 6, ((3, 2, 1), (1, 2, 3)))
E4 = ("abc", 6, ((4, 1, 1), (3, 2, 1)))

TARGETED = (
    ("E1", E1, Fraction(6), Fraction(4)),
    ("E2", E2, Fraction(5), Fraction(5)),
    ("E3", E3, Fraction(2), Fraction(2)),
    ("E4", E4, Fraction(3), Fraction(1)),
)


def fixture_set(spec) -> HistogramSet:
    labels, _, rows = spec
    return HistogramSet.from_counts(Alphabet(tuple(labels)), rows)


@dataclass
class PropertyStat:
    name: str
    trials: int = 0
    failures: int = 0
    worst: float = 0.0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, violation: float = 0.0, note: str = "") -> None:
        self.trials += 1
        if not ok:
            self.failures += 1
            if note and len(self.notes) < 5:
                self.notes.append(note)
        self.worst = max(self.worst, violation)

    @property
    def passed(self) -> bool:
        return self.failures == 0


@dataclass
class VerificationReport:
    seed: int
    trials: int
    properties: dict[str, PropertyStat]

    @property
    def passed(self) -> bool:
        return all(stat.passed for stat in self.properties.values())

    def lines(self) -> list[str]:
        out = []
        for stat in self.properties.values():
            status = "PASS" if stat.passed else "FAIL"
            line = f"{status} {stat.name}: {stat.trials - stat.failures}/{stat.trials}"
            if stat.worst:
                line += f" (worst violation {stat.worst:.3g})"
            out.append(line)
            out.extend(f"     - {note}" for note in stat.notes)
        return out


def _equalize(vectors: Sequence[Sequence[int]]) -> tuple[list[Fraction], Fraction] | None:
    """Distribution over positions making every vector's weighted sum equal.

    Solves ``vector . u = value`` for each vector together with
    ``sum(u) = 1``; returns ``(u, value)`` or None when the bordered system
    is singular. Nonnegativity is NOT checked here.
    """
    r = len(vectors[0])
    matrix = [[*vec, -1] for vec in vectors]
    matrix.append([1] * r + [0])
    rhs = [0] * len(vectors) + [1]
    solved = _solve_integer(matrix, rhs)
    if solved is None:
        return None
    det, numerators, _ = solved
    values = [Fraction(v, det) for v in numerators]
    return values[:r], values[r]


def oracle_solve(
    histograms: HistogramSet, problem: ProblemMode
) -> tuple[Fraction, Weight, DualWeight]:
    """Exact optimum by exhaustive equal-size support enumeration.

    For every pair of supports (symbols, members) of equal size the bordered
    equalizing systems are solved exactly; a candidate is kept when both
    sides are nonnegative and the optimality inequalities hold off the
    supports. The first equilibrium in enumeration order is returned - the
    value is unique even though the weight need not be.
    """
    require_problem_mode(problem)
    n = len(histograms.alphabet)
    k = len(histograms.members)
    if n > ORACLE_MAX_SYMBOLS:
        raise CapExceeded(f"oracle handles at most {ORACLE_MAX_SYMBOLS} symbols, got {n}")
    if k > ORACLE_MAX_MEMBERS:
        raise CapExceeded(f"oracle handles at most {ORACLE_MAX_MEMBERS} members, got {k}")
    rows = histograms.count_rows()
    supporting = problem == SUPPORTING

    for size in range(1, min(n, k) + 1):
        for symbols in combinations(range(n), size):
            for members in combinations(range(k), size):
                weight_side = _equalize([[rows[i][j] for j in symbols] for i in members])
                if weight_side is None:
                    continue
                xs, value = weight_side
                if any(x < 0 for x in xs):
                    continue
                member_side = _equalize([[rows[i][j] for i in members] for j in symbols])
                if member_side is None:
                    continue
                qs, value_dual = member_side
                if value_dual != value or any(q < 0 for q in qs):
                    continue
                if not _off_support_optimal(rows, symbols, members, xs, qs, value, supporting):
                    continue
                weight_values = [Fraction(0)] * n
                for pos, j in enumerate(symbols):
                    weight_values[j] = xs[pos]
                dual_values = [Fraction(0)] * k
                for pos, i in enumerate(members):
                    dual_values[i] = qs[pos]
                return (
                    value,
                    Weight(histograms.alphabet, tuple(weight_values), RATIONAL),
                    DualWeight(tuple(dual_values), RATIONAL),
                )
    raise NumericalFailure("support enumeration found no equilibrium")


def _off_support_optimal(rows, symbols, members, xs, qs, value, supporting) -> bool:
    member_set = set(members)
    symbol_set = set(symbols)
    for i, row in enumerate(rows):
        if i in member_set:
            continue
        paired = sum(x * row[j] for x, j in zip(xs, symbols))
        if supporting:
            if paired < value:
                return False
        elif paired > value:
            return False
    for j in range(len(rows[0])):
        if j in symbol_set:
            continue
        column = sum(q * rows[i][j] for q, i in zip(qs, members))
        if supporting:
            if column > value:
                return False
        elif column < value:
            return False
    return True


def random_histogram_set(
    rng: random.Random, max_symbols: int = 4, max_members: int = 5, max_length: int = 12
) -> HistogramSet:
    """Uniform-ish random instance within the given caps (at least two
    symbols, so both the reduction and the binary split stay exercised)."""
    n = rng.randint(2, max_symbols)
    t = rng.randint(1, max_length)
    k = rng.randint(1, max_members)
    alphabet = Alphabet(tuple(string.ascii_lowercase[:n]))
    rows = []
    for _ in range(k):
        cuts = sorted(rng.sample(range(t + n - 1), n - 1))
        counts, prev = [], -1
        for cut in cuts + [t + n - 1]:
            counts.append(cut - prev - 1)
            prev = cut
        rows.append(tuple(counts))
    return HistogramSet.from_counts(alphabet, rows, t)


def classify_binary(histograms: HistogramSet) -> str:
    """The case tag of a two-symbol set: ``ZERO_DOMINANT`` or ``ONE_DOMINANT``
    when that component is the larger in every member, ``MIXED`` otherwise;
    ``ValidationError`` for any other alphabet. The three tags are mutually
    exclusive and exhaustive."""
    if len(histograms.alphabet) != 2:
        raise ValidationError(f"need a two-symbol alphabet, got {len(histograms.alphabet)} symbols")
    rows = histograms.count_rows()
    if all(row[0] > row[1] for row in rows):
        return ZERO_DOMINANT
    if all(row[1] > row[0] for row in rows):
        return ONE_DOMINANT
    return MIXED


def _stat(stats: dict[str, PropertyStat], name: str) -> PropertyStat:
    if name not in stats:
        stats[name] = PropertyStat(name)
    return stats[name]


@contextmanager
def _certified(stats: dict[str, PropertyStat], label: str):
    """The solvers raise on a solution that fails its certificate; count that
    as a failed trial and go on with the next instance."""
    try:
        yield
    except CertificationFailure as exc:
        _stat(stats, "certified-solutions").record(False, note=f"{label}: {exc}")


def check_instance(histograms: HistogramSet, stats: dict[str, PropertyStat], label: str) -> None:
    """Run the full property battery on one instance (rational oracles plus a
    float-agreement check)."""
    t, n = histograms.sample_length, len(histograms.alphabet)
    baseline = Fraction(t, n)

    for problem, solve in ((SUPPORTING, solve_supporting), (COVERING, solve_covering)):
        oracle_alpha, oracle_weight, oracle_dual = oracle_solve(histograms, problem)
        solution = solve(histograms)

        _stat(stats, f"alpha-match-{problem}").record(
            solution.alpha == oracle_alpha,
            note=f"{label}: solver {solution.alpha} vs oracle {oracle_alpha}",
        )

        if problem == SUPPORTING:
            ok = solution.alpha >= baseline
        else:
            ok = solution.alpha <= baseline
        _stat(stats, f"uniform-bound-{problem}").record(
            ok, note=f"{label}: alpha {solution.alpha} vs baseline {baseline}"
        )

        report = certify(solution, histograms)
        _stat(stats, f"certificate-{problem}").record(
            report.passed,
            violation=report.max_violation,
            note=f"{label}: {[c.clause for c in report.failures()]}",
        )

        oracle_solution = make_solution(
            oracle_alpha, oracle_weight, oracle_dual, histograms, problem
        )
        oracle_report = certify(oracle_solution, histograms)
        _stat(stats, f"oracle-self-certifies-{problem}").record(
            oracle_report.passed, violation=oracle_report.max_violation, note=label
        )

        unreduced = solve(histograms, use_reduction=False)
        _stat(stats, f"reduction-alpha-{problem}").record(
            unreduced.alpha == solution.alpha,
            note=f"{label}: reduced {solution.alpha} vs unreduced {unreduced.alpha}",
        )

        _, trace = reduce_fixpoint(histograms, problem)
        eliminated = {histograms.alphabet.index(s) for s in trace.eliminated}
        oracle_zero = all(oracle_weight.values[j] == 0 for j in eliminated)
        solver_zero = all(solution.weight.values[j] == 0 for j in eliminated)
        _stat(stats, f"eliminated-weightless-{problem}").record(
            oracle_zero and solver_zero, note=label
        )

        float_solution = solve(histograms, FLOAT)
        gap = abs(float(solution.alpha) - float_solution.alpha)
        _stat(stats, f"float-agreement-{problem}").record(
            gap <= FLOAT_AGREEMENT, violation=gap, note=f"{label}: gap {gap}"
        )

        # an exact dot product of its own, independent of Field.pairings
        for member in histograms.members:
            paired = sum(w * c for w, c in zip(solution.weight.values, member.counts))
            ok = paired >= solution.alpha if problem == SUPPORTING else paired <= solution.alpha
            _stat(stats, f"member-score-contract-{problem}").record(
                ok, note=f"{label}: member {member.counts}"
            )

    if n == 2:
        _check_binary_agreement(histograms, stats, label)


def _check_binary_agreement(histograms, stats, label) -> None:
    """Both solvers on a two-symbol set. A straddling set's closed form
    must agree with the program on the full alphabet (``use_reduction=False``),
    and its member distribution must balance both columns at half the sample
    length. A dominant set must show the closed form's facts: with dominant
    column ``d``, the supporting weight is the point mass on ``d`` at the
    minimum of that column, the covering weight the point mass on the other
    symbol at the maximum of its column, neither flags an alternate optimum,
    and each member distribution's weighted column reproduces that extreme."""
    tag = classify_binary(histograms)
    sup_fast, cov_fast = solve_supporting(histograms), solve_covering(histograms)
    rows = histograms.count_rows()

    def weighted(solution, column):
        return sum(d * row[column] for d, row in zip(solution.dual.values, rows))

    if tag == MIXED:
        sup_lp = solve_supporting(histograms, use_reduction=False)
        cov_lp = solve_covering(histograms, use_reduction=False)
        _stat(stats, "binary-alpha-agreement").record(
            sup_fast.alpha == sup_lp.alpha and cov_fast.alpha == cov_lp.alpha,
            note=f"{label}: fast ({sup_fast.alpha},{cov_fast.alpha}) lp ({sup_lp.alpha},{cov_lp.alpha})",
        )
        if not sup_fast.alternate_optima:
            _stat(stats, "binary-forced-weights").record(
                sup_fast.weight.values == sup_lp.weight.values
                and cov_fast.weight.values == cov_lp.weight.values,
                note=f"{label}: fast {sup_fast.weight.values} lp {sup_lp.weight.values}",
            )
        half = Fraction(histograms.sample_length, 2)
        _stat(stats, "binary-dual-identity").record(
            weighted(sup_fast, 0) == half and weighted(sup_fast, 1) == half, note=label
        )
    else:
        dominant = 0 if tag == ZERO_DOMINANT else 1
        for solution, column, extreme in ((sup_fast, dominant, min), (cov_fast, 1 - dominant, max)):
            best = extreme(row[column] for row in rows)
            _stat(stats, "binary-dominant-facts").record(
                solution.alpha == best
                and solution.weight.values == tuple(int(j == column) for j in (0, 1))
                and solution.alternate_optima is False,
                note=f"{label}: {solution.mode} alpha {solution.alpha} weight {solution.weight.values}",
            )
            _stat(stats, "binary-dual-identity").record(
                weighted(solution, column) == best, note=f"{label}: {solution.mode}"
            )
    for solution in (sup_fast, cov_fast):
        report = certify(solution, histograms)
        _stat(stats, "binary-certificates").record(
            report.passed, violation=report.max_violation, note=label
        )


def binary_sweep(stats: dict[str, PropertyStat], sample_length: int = 10) -> None:
    """All two-member sets at one sample length, closed form against the LP."""
    alphabet = Alphabet(("0", "1"))
    for a in range(sample_length + 1):
        for b in range(sample_length + 1):
            rows = ((a, sample_length - a), (b, sample_length - b))
            histograms = HistogramSet.from_counts(alphabet, rows, sample_length)
            label = f"sweep ({a},{b})"
            with _certified(stats, label):
                _check_binary_agreement(histograms, stats, label)


def _require_sweep_bounds(trials, max_symbols, max_members, max_length) -> None:
    """Each bound is named with its ``histrel verify`` flag; every cap is checked first."""
    bounds = (
        ("trials", "--trials", trials, 0, None),
        ("max_symbols", "--max-v", max_symbols, 2, ORACLE_MAX_SYMBOLS),
        ("max_members", "--max-m", max_members, 1, ORACLE_MAX_MEMBERS),
        ("max_length", "--max-t", max_length, 1, None),
    )
    for name, flag, value, _, cap in bounds:
        if cap is not None and value > cap:
            raise CapExceeded(f"the oracle caps {name} ({flag}) at {cap}, got {value}")
    for name, flag, value, least, _ in bounds:
        if value < least:
            raise ValidationError(f"verification needs {name} ({flag}) >= {least}, got {value}")


def run_verification(
    trials: int = 100,
    seed: int = 1,
    *,
    max_symbols: int = 4,
    max_members: int = 5,
    max_length: int = 12,
    instance: HistogramSet | None = None,
) -> VerificationReport:
    """Deterministic verification sweep; same seed, same report. With an
    ``instance``, only that set is checked. Before any solve, a bound beyond
    an oracle cap raises ``CapExceeded`` and one below its least value
    (``trials >= 0``, ``max_symbols >= 2``, ``max_members >= 1``,
    ``max_length >= 1``) ``ValidationError``; the oracle, which runs before
    the solvers, raises ``CapExceeded`` for an instance beyond its caps."""
    _require_sweep_bounds(trials, max_symbols, max_members, max_length)
    stats: dict[str, PropertyStat] = {}
    if instance is not None:
        with _certified(stats, "input instance"):
            check_instance(instance, stats, "input instance")
        return VerificationReport(seed=seed, trials=0, properties=stats)

    for name, spec, expect_sup, expect_cov in TARGETED:
        histograms = fixture_set(spec)
        with _certified(stats, name):
            check_instance(histograms, stats, name)
            sup = solve_supporting(histograms)
            cov = solve_covering(histograms)
            _stat(stats, "targeted-values").record(
                sup.alpha == expect_sup and cov.alpha == expect_cov,
                note=f"{name}: got ({sup.alpha},{cov.alpha}) expected ({expect_sup},{expect_cov})",
            )

    rng = random.Random(seed)
    for trial in range(trials):
        histograms = random_histogram_set(rng, max_symbols, max_members, max_length)
        with _certified(stats, f"trial {trial}"):
            check_instance(histograms, stats, f"trial {trial}")

    binary_sweep(stats)
    return VerificationReport(seed=seed, trials=trials, properties=stats)
