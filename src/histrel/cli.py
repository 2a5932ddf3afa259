"""Command-line surface: ingest, solve, score, verify.

Exit codes are stable per error class so shell pipelines can branch on them;
see ``EXIT_CODES``. A file named on the command line that cannot be opened,
read or written is a usage error that names the path as given, and so is a
failed write to standard output, named ``<stdout>``. The default
arithmetic mode is rational and can be overridden per call with ``--mode``
or globally with the ``HISTREL_MODE`` environment variable. ``run_verification``
checks ``histrel verify``'s bounds; the parser reads the oracle caps for its help.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .core import FLOAT, RATIONAL, Alphabet
from .errors import (
    AlphabetMismatch,
    CapExceeded,
    CertificationFailure,
    EmptySet,
    HistrelError,
    LengthMismatch,
    NumericalFailure,
    ParseError,
    UnknownSymbol,
    ValidationError,
)
from .io import (
    _require_csv_labels,
    dumps_histogram_set,
    dumps_profile,
    dumps_score_report,
    ingest_samples,
    load_profile,
    save_histogram_set,
    save_profile,
    save_score_report,
    score_profile,
    solve_profile,
)
from .verify import ORACLE_MAX_MEMBERS, ORACLE_MAX_SYMBOLS, run_verification

EXIT_CODES = {
    "ok": 0,
    "unexpected": 1,
    "usage": 2,
    "parse": 10,
    "unknown-symbol": 11,
    "length-mismatch": 12,
    "alphabet-mismatch": 13,
    "empty-set": 14,
    "numerical-failure": 15,
    "cap-exceeded": 16,
    "certification-failure": 17,
    "verification-failed": 18,
    "validation": 19,
}

_ERROR_CODE_ORDER = (
    (ParseError, "parse"),
    (UnknownSymbol, "unknown-symbol"),
    (LengthMismatch, "length-mismatch"),
    (AlphabetMismatch, "alphabet-mismatch"),
    (EmptySet, "empty-set"),
    (NumericalFailure, "numerical-failure"),
    (CapExceeded, "cap-exceeded"),
    (CertificationFailure, "certification-failure"),
    (ValidationError, "validation"),
)


def _exit_code_for(exc: HistrelError) -> int:
    for kind, name in _ERROR_CODE_ORDER:
        if isinstance(exc, kind):
            return EXIT_CODES[name]
    return EXIT_CODES["unexpected"]


def _default_mode() -> str:
    return os.environ.get("HISTREL_MODE", RATIONAL)


def _parse_alphabet(spec: str | None) -> Alphabet | None:
    if spec is None:
        return None
    labels = [tok.strip() for tok in spec.split(",")]  # an empty label is a parse error, not dropped
    return Alphabet(_require_csv_labels(labels, "'--alphabet'"))


def _emit(artifact, output: str | None, dumps, save) -> None:
    """Write ``dumps(artifact)`` to stdout, or ``save`` it to the output path."""
    if output is None or output == "-":
        text = dumps(artifact)
        try:
            sys.stdout.write(text)
            sys.stdout.flush()  # so a full device fails here, not at interpreter exit
        except OSError as exc:
            _drop_stdout()
            raise OSError(exc.errno, exc.strerror, "<stdout>") from exc
    else:
        save(artifact, output)


def _drop_stdout() -> None:
    """Point stdout's descriptor at the null device after a failed write.

    The bytes that the write left in stdout's buffer would otherwise fail again
    in the interpreter's exit flush, which prints a second error and exits 120.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # an in-memory stream has no descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command's parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="histrel",
        description="Supporting/covering weights for histogram sets and relevance scoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="read samples and emit a histogram-set file")
    ingest.add_argument("samples", help="CSV sample file (or an existing histogram JSON)")
    ingest.add_argument("-o", "--output", help="output path (default: stdout)")
    ingest.add_argument(
        "--alphabet",
        help="comma-separated labels; inferred from the data (sorted) when omitted",
    )
    ingest.set_defaults(func=cmd_ingest)

    solve = sub.add_parser("solve", help="solve both problems and emit a weight profile")
    solve.add_argument("input", help="histogram-set JSON (or CSV samples)")
    solve.add_argument("-o", "--output", help="output path (default: stdout)")
    # no default: main reads HISTREL_MODE on every call
    solve.add_argument("--mode", choices=(RATIONAL, FLOAT))
    solve.add_argument("--alphabet", help="alphabet override for CSV input")
    solve.set_defaults(func=cmd_solve)

    score = sub.add_parser("score", help="score samples against a weight profile")
    score.add_argument("profile", help="weight-profile JSON")
    score.add_argument("samples", help="CSV sample file or histogram JSON")
    score.add_argument("-o", "--output", help="output path (default: stdout)")
    score.set_defaults(func=cmd_score)

    verify = sub.add_parser("verify", help="run the oracle-equivalence property suite")
    verify.add_argument("input", nargs="?", help="optional instance file to verify alone")
    verify.add_argument("--trials", type=int, default=100)
    verify.add_argument("--seed", type=int, default=1)
    verify.add_argument(
        "--max-v", type=int, default=4, help=f"largest alphabet (2..{ORACLE_MAX_SYMBOLS})"
    )
    verify.add_argument(
        "--max-m", type=int, default=5, help=f"largest member count (1..{ORACLE_MAX_MEMBERS})"
    )
    verify.add_argument("--max-t", type=int, default=12, help="largest sample length")
    verify.set_defaults(func=cmd_verify)

    return parser


def cmd_ingest(args) -> int:
    histograms = ingest_samples(args.samples, _parse_alphabet(args.alphabet))
    _emit(histograms, args.output, dumps_histogram_set, save_histogram_set)
    return EXIT_CODES["ok"]


def cmd_solve(args) -> int:
    histograms = ingest_samples(args.input, _parse_alphabet(args.alphabet))
    profile = solve_profile(histograms, args.mode)
    _emit(profile, args.output, dumps_profile, save_profile)
    return EXIT_CODES["ok"]


def cmd_score(args) -> int:
    profile = load_profile(args.profile)
    samples = ingest_samples(args.samples, profile.histograms.alphabet)
    report = score_profile(profile, samples)
    _emit(report, args.output, dumps_score_report, save_score_report)
    return EXIT_CODES["ok"]


def cmd_verify(args) -> int:
    instance = ingest_samples(args.input) if args.input else None
    report = run_verification(
        trials=args.trials,
        seed=args.seed,
        max_symbols=args.max_v,
        max_members=args.max_m,
        max_length=args.max_t,
        instance=instance,
    )
    for line in report.lines():
        print(line)
    print("verification:", "PASS" if report.passed else "FAIL")
    return EXIT_CODES["ok"] if report.passed else EXIT_CODES["verification-failed"]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "mode", RATIONAL) is None:
        args.mode = _default_mode()
        # argparse checks choices only on given flags
        if args.mode not in (RATIONAL, FLOAT):
            choices = f"choose from {RATIONAL!r}, {FLOAT!r}"
            parser.error(f"invalid HISTREL_MODE {args.mode!r} ({choices})")
    try:
        return args.func(args)
    except HistrelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)
    except OSError as exc:
        if exc.filename is None:  # neither a file named on the command line nor stdout
            raise
        print(f"error: {exc.strerror}: {exc.filename!r}", file=sys.stderr)
        return EXIT_CODES["usage"]


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
