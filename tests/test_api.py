"""The names the ``histrel`` package exports."""

from __future__ import annotations

import importlib

import histrel

PUBLIC = {
    # types and constants
    "Alphabet", "COVERING", "CertificateReport", "DualWeight", "FLOAT", "FLOAT_EPS",
    "GameSolution", "Histogram", "HistogramSet", "RATIONAL", "ReductionStep",
    "ReductionTrace", "SUPPORTING", "Sample", "ScoreReport", "Weight", "WeightProfile",
    # errors
    "AlphabetMismatch", "CapExceeded", "CertificationFailure", "EmptySet",
    "HistrelError", "IterationCapExceeded", "LengthMismatch", "NotBinary",
    "NumericalFailure", "ParseError", "UnknownSymbol", "ValidationError",
    # solving, certifying and scoring
    "build_histogram", "certify", "irrelevance_score", "make_solution", "reduce_fixpoint",
    "relevance_score", "solve_binary", "solve_covering", "solve_supporting",
    # files
    "ingest_samples", "load_histogram_set", "load_profile", "save_histogram_set",
    "save_profile", "save_score_report", "score_profile", "solve_profile",
}  # fmt: skip

# helpers no longer exported, each with the module that still has it
MODULE_ONLY = {
    "MIXED": "binary",
    "ONE_DOMINANT": "binary",
    "ZERO_DOMINANT": "binary",
    "classify_binary": "binary",
    "distinct_rows": "core",
    "oracle_solve": "oracle",
    "SimplexResult": "simplex",
    "StandardFormLP": "simplex",
    "simplex_optimize": "simplex",
}


def test_the_exported_names_are_pinned():
    assert len(histrel.__all__) == len(set(histrel.__all__)) == len(PUBLIC)
    assert set(histrel.__all__) == PUBLIC
    for name in histrel.__all__:
        getattr(histrel, name)


def test_helpers_stay_importable_from_their_modules_only():
    for name, module in MODULE_ONLY.items():
        assert name not in histrel.__all__
        assert not hasattr(histrel, name), name
        getattr(importlib.import_module(f"histrel.{module}"), name)


# removed helpers, each with the module or class that had it; the tests keep
# reference versions of the first three
REMOVED = {
    "pairing": "histrel.core",
    "oracle_grid": "histrel.oracle",
    "reducible_symbols": "histrel.reduce",
    "count": histrel.Histogram,
    "value": histrel.Weight,
}


def test_removed_helpers_stay_removed():
    for name, owner in REMOVED.items():
        owner = importlib.import_module(owner) if isinstance(owner, str) else owner
        assert not hasattr(owner, name), (owner, name)
