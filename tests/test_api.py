"""The names the ``histrel`` package exports."""

from __future__ import annotations

import importlib

import pytest

import histrel
import histrel.io
from histrel import ValidationError, solve_covering, solve_supporting
from histrel.game import solve_binary

PUBLIC = {
    # types and constants
    "Alphabet", "COVERING", "CertificateReport", "DualWeight", "FLOAT", "FLOAT_EPS",
    "GameSolution", "Histogram", "HistogramSet", "RATIONAL", "ReductionStep",
    "ReductionTrace", "SUPPORTING", "Sample", "ScoreReport", "Weight", "WeightProfile",
    # errors
    "AlphabetMismatch", "CapExceeded", "CertificationFailure", "EmptySet",
    "HistrelError", "IterationCapExceeded", "LengthMismatch", "NumericalFailure",
    "ParseError", "UnknownSymbol", "ValidationError",
    # solving, certifying and scoring
    "build_histogram", "certify", "irrelevance_score", "make_solution", "reduce_fixpoint",
    "relevance_score", "solve_covering", "solve_supporting",
    # files
    "ingest_samples", "load_histogram_set", "load_profile", "save_histogram_set",
    "save_profile", "save_score_report", "score_profile", "solve_profile",
}  # fmt: skip

# helpers no longer exported, each with the module that still has it
MODULE_ONLY = {
    "MIXED": "verify",
    "ONE_DOMINANT": "verify",
    "ZERO_DOMINANT": "verify",
    "classify_binary": "verify",
    "distinct_rows": "core",
    "oracle_solve": "verify",
    "SimplexResult": "simplex",
    "StandardFormLP": "simplex",
    "simplex_optimize": "simplex",
    "solve_binary": "game",
}


def test_the_exported_names_are_pinned():
    assert len(PUBLIC) == 44
    assert len(histrel.__all__) == len(set(histrel.__all__)) == len(PUBLIC)
    assert set(histrel.__all__) == PUBLIC
    for name in histrel.__all__:
        getattr(histrel, name)


def test_helpers_stay_importable_from_their_modules_only():
    for name, module in MODULE_ONLY.items():
        assert name not in histrel.__all__
        assert not hasattr(histrel, name), name
        getattr(importlib.import_module(f"histrel.{module}"), name)


# removed names, each with the module or class that had it (the oracle's
# module folded into ``histrel.verify``); the tests keep reference versions of
# the first three
REMOVED = {
    "pairing": "histrel.core",
    "oracle_grid": "histrel.verify",
    "reducible_symbols": "histrel.reduce",
    "count": histrel.Histogram,
    "value": histrel.Weight,
    "NotBinary": "histrel.errors",
}


def test_removed_helpers_stay_removed():
    for name, owner in REMOVED.items():
        owner = importlib.import_module(owner) if isinstance(owner, str) else owner
        assert not hasattr(owner, name), (owner, name)
    for module in ("binary", "oracle"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"histrel.{module}")


def test_solve_binary_is_the_two_solvers_on_a_two_symbol_set_only(e1, e4):
    # module-only: perfbench/spans.py wraps it as io.solve_binary
    assert histrel.io.solve_binary is solve_binary
    assert solve_binary(e1) == (solve_supporting(e1), solve_covering(e1))
    with pytest.raises(ValidationError, match="need a two-symbol alphabet, got 3 symbols"):
        solve_binary(e4)
