"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
All randomness is seeded, so every run checks the identical instance corpus.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

from histrel import (
    COVERING,
    SUPPORTING,
    HistogramSet,
    certify,
    load_histogram_set,
    load_profile,
    reduce_fixpoint,
    score_profile,
    solve_binary,
    solve_covering,
    solve_profile,
    solve_supporting,
)
from histrel.binary import MIXED, ZERO_DOMINANT, classify_binary
from histrel.cli import main as cli_main
from histrel.io import dumps_score_report
from histrel.oracle import oracle_solve
from histrel.verify import random_histogram_set

from conftest import make_set, pairing

SEED = 20240901
TRIALS = 200
BINARY_TRIALS = 200

E1_CSV = "a,a,a,a,a,a,a,b,b,b\na,a,a,a,a,a,b,b,b,b\n"
E4_CSV = "a,a,a,a,b,c\na,a,a,b,b,c\n"


@dataclass
class SolvedInstance:
    histograms: HistogramSet
    supporting: object
    covering: object
    oracle_supporting: tuple
    oracle_covering: tuple


def _verdict(number: int, name: str, violations: list[str]) -> None:
    status = "PASS" if not violations else "FAIL"
    print(f"ACCEPTANCE criterion {number} ({name}): {status}")
    for note in violations[:10]:
        print(f"  - {note}")
    assert not violations, f"criterion {number} ({name}) has {len(violations)} violations"


@pytest.fixture(scope="module")
def corpus():
    """The 200 seeded instances of criterion 1, solved once and shared."""
    rng = random.Random(SEED)
    start = time.monotonic()
    solved = []
    for _ in range(TRIALS):
        hs = random_histogram_set(rng, max_symbols=4, max_members=5, max_length=12)
        solved.append(
            SolvedInstance(
                histograms=hs,
                supporting=solve_supporting(hs),
                covering=solve_covering(hs),
                oracle_supporting=oracle_solve(hs, SUPPORTING),
                oracle_covering=oracle_solve(hs, COVERING),
            )
        )
    elapsed = time.monotonic() - start
    return solved, elapsed


@pytest.fixture(scope="module")
def binary_corpus():
    """All 121 two-member sweeps at |T| = 10 plus 200 random binary sets."""
    start = time.monotonic()
    sets = []
    for a in range(11):
        for b in range(11):
            sets.append(make_set("01", [(a, 10 - a), (b, 10 - b)]))
    rng = random.Random(SEED + 1)
    for _ in range(BINARY_TRIALS):
        t = rng.randint(1, 20)
        k = rng.randint(1, 5)
        rows = []
        for _ in range(k):
            zeros = rng.randint(0, t)
            rows.append((zeros, t - zeros))
        sets.append(make_set("01", rows))
    solved = [
        (
            hs,
            solve_binary(hs),
            solve_supporting(hs, use_reduction=False),
            solve_covering(hs, use_reduction=False),
        )
        for hs in sets
    ]
    elapsed = time.monotonic() - start
    return solved, elapsed


def test_criterion_1_oracle_equivalence(corpus):
    solved, elapsed = corpus
    violations = []
    for idx, item in enumerate(solved):
        if item.supporting.alpha != item.oracle_supporting[0]:
            violations.append(
                f"instance {idx}: supporting {item.supporting.alpha} "
                f"!= oracle {item.oracle_supporting[0]}"
            )
        if item.covering.alpha != item.oracle_covering[0]:
            violations.append(
                f"instance {idx}: covering {item.covering.alpha} "
                f"!= oracle {item.oracle_covering[0]}"
            )
    if elapsed >= 60.0:
        violations.append(f"runtime {elapsed:.1f}s exceeds the 60s budget")
    _verdict(1, f"oracle equivalence, {TRIALS} instances in {elapsed:.1f}s", violations)


def test_criterion_2_uniform_bounds(corpus):
    solved, _ = corpus
    violations = []
    for idx, item in enumerate(solved):
        hs = item.histograms
        baseline = Fraction(hs.sample_length, len(hs.alphabet))
        if item.supporting.alpha < baseline:
            violations.append(f"instance {idx}: supporting {item.supporting.alpha} < {baseline}")
        if item.covering.alpha > baseline:
            violations.append(f"instance {idx}: covering {item.covering.alpha} > {baseline}")
    _verdict(2, "uniform-weight bounds", violations)


def test_criterion_3_binary_closed_form(binary_corpus):
    solved, elapsed = binary_corpus
    violations = []
    for idx, (hs, (fast_sup, fast_cov), lp_sup, lp_cov) in enumerate(solved):
        if fast_sup.alpha != lp_sup.alpha or fast_cov.alpha != lp_cov.alpha:
            violations.append(
                f"set {idx}: closed form ({fast_sup.alpha},{fast_cov.alpha}) "
                f"!= LP ({lp_sup.alpha},{lp_cov.alpha})"
            )
        forced = not fast_sup.alternate_optima
        if forced and (
            fast_sup.weight.values != lp_sup.weight.values
            or fast_cov.weight.values != lp_cov.weight.values
        ):
            violations.append(f"set {idx}: forced weights differ")
    if elapsed >= 30.0:
        violations.append(f"runtime {elapsed:.1f}s exceeds the 30s budget")
    _verdict(
        3, f"binary closed form, {len(solved)} sets in {elapsed:.1f}s", violations
    )


def test_criterion_4_reduction_soundness(corpus):
    solved, _ = corpus
    violations = []
    for idx, item in enumerate(solved):
        hs = item.histograms
        for problem, solution, oracle in (
            (SUPPORTING, item.supporting, item.oracle_supporting),
            (COVERING, item.covering, item.oracle_covering),
        ):
            unreduced = (
                solve_supporting(hs, use_reduction=False)
                if problem == SUPPORTING
                else solve_covering(hs, use_reduction=False)
            )
            if unreduced.alpha != solution.alpha:
                violations.append(
                    f"instance {idx}: {problem} reduced {solution.alpha} "
                    f"!= unreduced {unreduced.alpha}"
                )
            _, trace = reduce_fixpoint(hs, problem)
            oracle_weight = oracle[1]
            for symbol in trace.eliminated:
                j = hs.alphabet.index(symbol)
                if solution.weight.values[j] != 0 or oracle_weight.values[j] != 0:
                    violations.append(
                        f"instance {idx}: eliminated symbol {symbol} carries weight"
                    )
    _verdict(4, "reduction soundness", violations)


def test_criterion_5_duality_certificates(corpus, binary_corpus):
    solved, _ = corpus
    binary_solved, _ = binary_corpus
    violations = []
    for idx, item in enumerate(solved):
        for solution in (item.supporting, item.covering):
            report = certify(solution, item.histograms)
            if not report.passed:
                clauses = [c.clause for c in report.failures()]
                violations.append(f"instance {idx}: {solution.mode} fails {clauses}")
    for idx, (hs, (fast_sup, fast_cov), _, _) in enumerate(binary_solved):
        for solution in (fast_sup, fast_cov):
            if not certify(solution, hs).passed:
                violations.append(f"binary set {idx}: {solution.mode} certificate fails")
        rows = hs.count_rows()
        tag = classify_binary(hs)
        if tag == ZERO_DOMINANT:
            column = sum(d * r[0] for d, r in zip(fast_sup.dual.values, rows))
            if column != min(r[0] for r in rows):
                violations.append(f"binary set {idx}: minimum identity fails")
        elif tag == MIXED:
            half = Fraction(hs.sample_length, 2)
            for j in (0, 1):
                column = sum(d * r[j] for d, r in zip(fast_sup.dual.values, rows))
                if column != half:
                    violations.append(f"binary set {idx}: balance identity fails at {j}")
    _verdict(5, "duality certificates", violations)


def test_criterion_6_scoring_contract(corpus):
    solved, _ = corpus
    violations = []
    for idx, item in enumerate(solved):
        for member in item.histograms.members:
            if pairing(item.supporting.weight, member) < item.supporting.alpha:
                violations.append(f"instance {idx}: member below the supporting value")
            if pairing(item.covering.weight, member) > item.covering.alpha:
                violations.append(f"instance {idx}: member above the covering value")
    profile = solve_profile(make_set("ab", [(4, 6), (7, 3)]))
    samples = make_set("ab", [(i, 10 - i) for i in range(11)])
    report = score_profile(profile, samples)
    for row in report.rows:
        if row.relevance != 5 or row.irrelevance != 5:
            violations.append(f"E2 histogram {row.histogram} scores {row.relevance}")
    _verdict(6, "scoring contract", violations)


def test_criterion_7_pipeline_fidelity(tmp_path):
    violations = []
    fixtures = {"E1": (E1_CSV, make_set("ab", [(7, 3), (6, 4)])),
                "E4": (E4_CSV, make_set("abc", [(4, 1, 1), (3, 2, 1)]))}
    for name, (csv_text, expected_set) in fixtures.items():
        samples = tmp_path / f"{name}.csv"
        samples.write_text(csv_text)
        hs_path = tmp_path / f"{name}.hs.json"
        profile_path = tmp_path / f"{name}.profile.json"
        scores_path = tmp_path / f"{name}.scores.json"

        if cli_main(["ingest", str(samples), "-o", str(hs_path)]) != 0:
            violations.append(f"{name}: ingest failed")
            continue
        if load_histogram_set(str(hs_path)) != expected_set:
            violations.append(f"{name}: ingested set differs from the fixture")
        if cli_main(["solve", str(hs_path), "-o", str(profile_path)]) != 0:
            violations.append(f"{name}: solve failed")
            continue
        loaded = load_profile(str(profile_path))  # re-certifies on load
        if loaded != solve_profile(expected_set):
            violations.append(f"{name}: profile differs from the in-process solve")
        if cli_main(["score", str(profile_path), str(samples), "-o", str(scores_path)]) != 0:
            violations.append(f"{name}: score failed")
            continue
        in_process = dumps_score_report(
            score_profile(loaded, expected_set)
        )
        if scores_path.read_text() != in_process:
            violations.append(f"{name}: score file differs from the in-process report")
        on_disk = json.loads(scores_path.read_text())
        if any(not row["meets_support"] or not row["within_cover"] for row in on_disk["samples"]):
            violations.append(f"{name}: a member fails its own flags")
    _verdict(7, "pipeline fidelity", violations)
