"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checker  # noqa: E402
import generate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

CLI = run.import_histrel()["histrel.cli"]


def solve(tmp_path, rows, mode):
    alphabet = generate.alphabet_of(len(rows[0]))
    path, output = str(tmp_path / "set.json"), str(tmp_path / "profile.json")
    generate.write_histogram_set(path, alphabet, sum(rows[0]), rows)
    assert CLI.main(["solve", path, "--mode", mode, "-o", output]) == 0
    with open(output, encoding="utf-8") as handle:
        return json.load(handle), alphabet


@pytest.mark.parametrize("problem", checker.PROBLEMS)
@pytest.mark.parametrize("sign", (1, -1))
def test_checker_rejects_alpha_nudged_in_rational_mode(tmp_path, problem, sign):
    rows = generate.multinomial_rows(random.Random(3), 4, 6, 12)
    doc, alphabet = solve(tmp_path, rows, "rational")
    assert checker.check_profile(doc, "rational", alphabet, 12, rows) == []
    nudged = Fraction(doc[problem]["alpha"]) + sign * Fraction(1, 12 * 4)
    doc[problem]["alpha"] = str(nudged)
    assert checker.check_profile(doc, "rational", alphabet, 12, rows)


@pytest.mark.parametrize("problem", checker.PROBLEMS)
@pytest.mark.parametrize("sign", (1, -1))
def test_checker_rejects_alpha_nudged_past_the_float_tolerance(tmp_path, problem, sign):
    # A one-ulp nudge is not detectable in float mode: the solver's own
    # certificates are off by about a dozen ulps, so the smallest nudge the
    # relative tolerance must catch is one just past it.
    rows = generate.multinomial_rows(random.Random(4), 26, 80, 400)
    doc, alphabet = solve(tmp_path, rows, "float")
    assert checker.check_profile(doc, "float", alphabet, 400, rows) == []
    doc[problem]["alpha"] += sign * 2 * checker.FLOAT_RTOL * 400
    assert checker.check_profile(doc, "float", alphabet, 400, rows)


def test_checker_rejects_member_histogram_mismatch(tmp_path):
    rows = generate.multinomial_rows(random.Random(5), 3, 4, 9)
    doc, alphabet = solve(tmp_path, rows, "rational")
    doc["histograms"][0][0] += 1
    assert checker.check_profile(doc, "rational", alphabet, 9, rows)


@pytest.fixture
def scored(tmp_path):
    workload = workloads.Score("tiny", "", symbols=4, members=5, length=12, batch=30, member_rows=5, pool=1)
    (call,) = workload.setup(random.Random(6), str(tmp_path), CLI.main)
    output = str(tmp_path / "scores.json")
    assert CLI.main(call.argv + ["-o", output]) == 0
    with open(output, encoding="utf-8") as handle:
        report = json.load(handle)
    assert call.check(report) == []
    return call, report


@pytest.mark.parametrize("field", ("relevance", "irrelevance"))
def test_checker_rejects_score_off_by_one(scored, field):
    call, report = scored
    row = report["samples"][7]
    row[field] = str(Fraction(row[field]) + 1)
    assert call.check(report)


def test_checker_rejects_histogram_off_by_one(scored):
    call, report = scored
    report["samples"][3]["histogram"][0] += 1
    assert call.check(report)


def test_checker_rejects_unflagged_member(scored):
    call, report = scored
    members = [i for i, row in enumerate(report["samples"]) if row["meets_support"]]
    report["samples"][members[0]]["meets_support"] = False
    assert call.check(report)


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            out[name] = handle.read()
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_under_a_fixed_seed(tmp_path, name):
    workload = dataclasses.replace(workloads.WORKLOADS[name], pool=3)
    first, second, other = (str(tmp_path / d) for d in ("a", "b", "c"))
    run.set_up(workload, 11, first, CLI.main)
    run.set_up(workload, 11, second, CLI.main)
    run.set_up(workload, 12, other, CLI.main)
    assert _files(first) == _files(second)
    assert _files(first) != _files(other)


def test_staircase_leaves_one_symbol_per_problem():
    from histrel import Alphabet, HistogramSet, reduce_fixpoint

    rows = generate.staircase_rows(random.Random(1), 26, 50, 10**6, 1.2)
    assert all(sum(row) == 10**6 and min(row) > 0 for row in rows)
    histograms = HistogramSet.from_counts(Alphabet(tuple(generate.alphabet_of(26))), rows)
    for problem in checker.PROBLEMS:
        _rows, trace = reduce_fixpoint(histograms, problem)
        assert len(trace.surviving) == 1


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrinks runs to a few calls on small pools."""
    monkeypatch.setattr(run, "SETUPS", 1)
    monkeypatch.setattr(run, "WARMUP_CALLS", 1)
    monkeypatch.setattr(run, "MIN_CALLS", 3)
    monkeypatch.setattr(run, "COUNT_CALLS", 2)
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    for name, workload in list(workloads.WORKLOADS.items()):
        monkeypatch.setitem(workloads.WORKLOADS, name, dataclasses.replace(workload, pool=3))


def run_tiny(capsys, name, trace):
    assert run.main(["--workload", name, "--seed", "1", "--seconds", "0.01", "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _declared(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric(tiny, capsys, name, trace):
    outcome = run_tiny(capsys, name, trace)
    expected = _declared("per_layer" if trace else "end_to_end")
    assert expected == (run.PER_LAYER if trace else run.END_TO_END)
    assert {k: v["unit"] for k, v in outcome["metrics"].items()} == expected
    assert outcome["correct"] and outcome["failed"] == 0 and outcome["attempted"] >= 1
    if trace:
        metrics = outcome["metrics"]
        layers = sum(metrics[m]["value"] for m in run.spans.SELF_TIME_METRIC.values())
        assert layers == pytest.approx(metrics["trace.call_ms"]["value"] / 1000)


def test_counts_repeat_exactly(tiny, capsys):
    first, second = (run_tiny(capsys, "solve-exact", 1)["metrics"] for _ in range(2))
    for name in run.PER_CALL_COUNTS + ("io.bytes_written",):
        assert first[name]["value"] == second[name]["value"], name
    assert first["simplex.pivots"]["value"] > 0
