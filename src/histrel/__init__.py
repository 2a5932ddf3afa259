"""Supporting/covering weights for histogram sets and relevance scoring.

The library solves two variational problems over a set of sample histograms
(the best guaranteed pairing and the tightest cap on pairings), certifies the
results by complementary slackness, and uses the optimal weights to score how
relevant new samples are to the set.
"""

from .core import (
    COVERING,
    FLOAT,
    FLOAT_EPS,
    RATIONAL,
    SUPPORTING,
    Alphabet,
    Histogram,
    HistogramSet,
    Sample,
    Weight,
    build_histogram,
    irrelevance_score,
    relevance_score,
)
from .errors import (
    AlphabetMismatch,
    CapExceeded,
    CertificationFailure,
    EmptySet,
    HistrelError,
    IterationCapExceeded,
    LengthMismatch,
    NumericalFailure,
    ParseError,
    UnknownSymbol,
    ValidationError,
)
from .game import (
    CertificateReport,
    DualWeight,
    GameSolution,
    certify,
    make_solution,
    solve_covering,
    solve_supporting,
)
from .io import (
    ScoreReport,
    WeightProfile,
    ingest_samples,
    load_histogram_set,
    load_profile,
    save_histogram_set,
    save_profile,
    save_score_report,
    score_profile,
    solve_profile,
)
from .reduce import ReductionStep, ReductionTrace, reduce_fixpoint

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "AlphabetMismatch",
    "CapExceeded",
    "CertificateReport",
    "CertificationFailure",
    "COVERING",
    "DualWeight",
    "EmptySet",
    "FLOAT",
    "FLOAT_EPS",
    "GameSolution",
    "Histogram",
    "HistogramSet",
    "HistrelError",
    "IterationCapExceeded",
    "LengthMismatch",
    "NumericalFailure",
    "ParseError",
    "RATIONAL",
    "ReductionStep",
    "ReductionTrace",
    "Sample",
    "ScoreReport",
    "SUPPORTING",
    "UnknownSymbol",
    "ValidationError",
    "Weight",
    "WeightProfile",
    "build_histogram",
    "certify",
    "ingest_samples",
    "irrelevance_score",
    "load_histogram_set",
    "load_profile",
    "make_solution",
    "reduce_fixpoint",
    "relevance_score",
    "save_histogram_set",
    "save_profile",
    "save_score_report",
    "score_profile",
    "solve_covering",
    "solve_profile",
    "solve_supporting",
]
