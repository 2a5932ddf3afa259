"""Independent checker for ``histrel solve`` and ``histrel score`` outputs.

It reads the JSON the program wrote and recomputes everything with its own
arithmetic; it imports nothing from ``histrel``. Each check returns a list of
problems, empty when the output is correct.

Profiles are checked by weak duality. For each problem the weight and the
dual lie on their simplices, the extreme member pairing under the weight
(min for supporting, max for covering) equals ``alpha``, and the extreme
dual-weighted column sum (max for supporting, min for covering) equals
``alpha``; finally ``alpha_sup >= |T|/|V| >= alpha_cov``. Rational outputs
are checked exactly, on integer numerators over one common denominator.
Float outputs are checked with a tolerance relative to ``|T|``.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Float certificates of the solve-float shape are off by at most about a
# dozen ulps of alpha; 1e-12 * |T| leaves a wide margin above that while
# staying far below any error that changes a decision.
FLOAT_RTOL = 1e-12

PROBLEMS = ("supporting", "covering")


def _exact(value) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"{value!r} is not an exact value")
    return Fraction(value)


def _inexact(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _scaled(values: list[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of ``values`` over their least common denominator."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _certify_exact(problem: str, solution: dict, rows, problems: list[str]) -> Fraction:
    alpha = _exact(solution["alpha"])
    weight, weight_den = _scaled([_exact(v) for v in solution["weight"]])
    dual, dual_den = _scaled([_exact(v) for v in solution["dual"]])
    if min(weight) < 0 or sum(weight) != weight_den:
        problems.append(f"{problem}: weight is off the simplex")
    if min(dual) < 0 or sum(dual) != dual_den:
        problems.append(f"{problem}: dual is off the simplex")
    pairings = [sum(w * m for w, m in zip(weight, row)) for row in rows]
    columns = [sum(d * row[j] for d, row in zip(dual, rows) if d) for j in range(len(weight))]
    supporting = problem == "supporting"
    primal = min(pairings) if supporting else max(pairings)
    dual_value = max(columns) if supporting else min(columns)
    if Fraction(primal, weight_den) != alpha:
        problems.append(f"{problem}: extreme member pairing {Fraction(primal, weight_den)} != alpha {alpha}")
    if Fraction(dual_value, dual_den) != alpha:
        problems.append(f"{problem}: extreme dual column sum {Fraction(dual_value, dual_den)} != alpha {alpha}")
    return alpha


def _certify_float(problem: str, solution: dict, rows, tol: float, problems: list[str]) -> float:
    alpha = _inexact(solution["alpha"])
    weight = [_inexact(v) for v in solution["weight"]]
    dual = [_inexact(v) for v in solution["dual"]]
    if min(weight) < -FLOAT_RTOL or abs(math.fsum(weight) - 1.0) > FLOAT_RTOL:
        problems.append(f"{problem}: weight is off the simplex")
    if min(dual) < -FLOAT_RTOL or abs(math.fsum(dual) - 1.0) > FLOAT_RTOL:
        problems.append(f"{problem}: dual is off the simplex")
    pairings = [math.fsum(w * m for w, m in zip(weight, row)) for row in rows]
    columns = [math.fsum(d * row[j] for d, row in zip(dual, rows)) for j in range(len(weight))]
    supporting = problem == "supporting"
    primal = min(pairings) if supporting else max(pairings)
    dual_value = max(columns) if supporting else min(columns)
    if abs(primal - alpha) > tol:
        problems.append(f"{problem}: extreme member pairing {primal!r} != alpha {alpha!r}")
    if abs(dual_value - alpha) > tol:
        problems.append(f"{problem}: extreme dual column sum {dual_value!r} != alpha {alpha!r}")
    return alpha


def check_profile(doc: dict, mode: str, alphabet: list[str], length: int, rows: list[list[int]]) -> list[str]:
    """Problems with a weight profile solved from ``rows`` in ``mode``."""
    problems: list[str] = []
    try:
        if doc.get("mode") != mode:
            return [f"mode {doc.get('mode')!r}, expected {mode!r}"]
        if doc.get("alphabet") != alphabet or doc.get("sample_length") != length:
            return ["alphabet or sample length differs from the input"]
        if doc.get("histograms") != rows:
            return ["member histograms differ from the input"]
        for problem in PROBLEMS:
            solution = doc[problem]
            if len(solution["weight"]) != len(alphabet) or len(solution["dual"]) != len(rows):
                return [f"{problem}: weight or dual has the wrong length"]
        if mode == "rational":
            alphas = [_certify_exact(p, doc[p], rows, problems) for p in PROBLEMS]
            uniform, slack = Fraction(length, len(alphabet)), 0
        else:
            tol = FLOAT_RTOL * length
            alphas = [_certify_float(p, doc[p], rows, tol, problems) for p in PROBLEMS]
            uniform, slack = length / len(alphabet), tol
        if not alphas[0] >= uniform - slack or not alphas[1] <= uniform + slack:
            problems.append(f"values {alphas} violate alpha_sup >= |T|/|V| >= alpha_cov")
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        problems.append(f"malformed profile: {exc!r}")
    return problems


class ScoreKey:
    """What a score report is checked against: a profile already checked
    with ``check_profile``, with its weights as integer numerators."""

    def __init__(self, profile: dict):
        self.alphabet = profile["alphabet"]
        self.length = profile["sample_length"]
        self.alphas = [_exact(profile[p]["alpha"]) for p in PROBLEMS]
        self.weights = [_scaled([_exact(v) for v in profile[p]["weight"]]) for p in PROBLEMS]


def check_scores(
    report: dict, key: ScoreKey, histograms: list[list[int]], member_rows: list[int]
) -> list[str]:
    """Problems with a rational score report for samples with ``histograms``;
    the rows at ``member_rows`` hold training members."""
    problems: list[str] = []
    try:
        if report.get("mode") != "rational":
            return [f"mode {report.get('mode')!r}, expected 'rational'"]
        if report.get("alphabet") != key.alphabet or report.get("sample_length") != key.length:
            return ["alphabet or sample length differs from the profile"]
        alpha_sup, alpha_cov = key.alphas
        if _exact(report["alpha_supporting"]) != alpha_sup or _exact(report["alpha_covering"]) != alpha_cov:
            return ["report values differ from the profile"]
        samples = report["samples"]
        if len(samples) != len(histograms):
            return [f"{len(samples)} score rows for {len(histograms)} samples"]
        members = set(member_rows)
        (sup, sup_den), (cov, cov_den) = key.weights
        for i, (row, counts) in enumerate(zip(samples, histograms)):
            if row["index"] != i + 1 or row["histogram"] != counts:
                problems.append(f"row {i + 1}: index or histogram differs from the sample")
                continue
            relevance = Fraction(sum(w * c for w, c in zip(sup, counts)), sup_den)
            irrelevance = Fraction(sum(w * c for w, c in zip(cov, counts)), cov_den)
            expected = {
                "relevance": relevance,
                "irrelevance": irrelevance,
                "relevance_ratio": relevance / alpha_sup if alpha_sup else None,
                "irrelevance_ratio": irrelevance / alpha_cov if alpha_cov else None,
            }
            for name, value in expected.items():
                got = row[name]
                if (None if got is None else _exact(got)) != value:
                    problems.append(f"row {i + 1}: {name} {got!r}, expected {value}")
            flags = (row["meets_support"], row["within_cover"])
            if flags != (relevance >= alpha_sup, irrelevance <= alpha_cov):
                problems.append(f"row {i + 1}: flags {flags} disagree with the scores")
            if i in members and flags != (True, True):
                problems.append(f"row {i + 1}: a training member is not flagged as one")
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        problems.append(f"malformed score report: {exc!r}")
    return problems
