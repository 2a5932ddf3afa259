"""File ingestion, serialization, and the solve/score pipeline.

Formats are deliberately small: sample files are plain CSV (one sample per
line, comma-separated single-token symbols), histogram sets and all derived
artifacts are JSON. Rational values serialize as exact ``p/q`` strings,
floats as shortest round-trip decimals, so rational-mode files round-trip
bit-exactly. Every file write writes as ``open(path, "w")`` does; one to a
regular file or a new one is whole-file atomic, and one to an existing
target that is not a regular file (a named pipe, a terminal, ``/dev/stdout``)
goes to that target in place.

A histogram set's counts become decimal text once, one compact row text per
member (``HistogramSet._row_texts``): the ``input_sha256`` digest and the
histogram-set and profile writers are all built from those texts. The digest
is CPython's builtin SHA-256, which gives ``hashlib.sha256``'s bytes without
loading OpenSSL, as ``random`` takes its SHA-512.

Each artifact is one ``%`` template over texts written once, laid out as
``json.dumps(tree, indent=2)`` lays out the artifact's tree: every label and
string by json's own escaper, every number by ``Field.texts``, each list by
``_list_text`` and each count list from its row text.
"""

from __future__ import annotations

import errno
import json
import os
import re
import stat
import sys
from dataclasses import dataclass
from functools import cached_property

try:  # hashlib loads OpenSSL's libcrypto, about 3.7 MB resident, for one short digest
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from .core import (
    COVERING,
    FLOAT,
    RATIONAL,
    SUPPORTING,
    Alphabet,
    ArithmeticMode,
    Field,
    HistogramSet,
    Number,
    Weight,
    _SURROGATE,
    _counter,
)
from .errors import (
    AlphabetMismatch,
    CertificationFailure,
    EmptySet,
    LengthMismatch,
    ParseError,
    UnknownSymbol,
    ValidationError,
)
# io calls neither certify nor solve_binary: perfbench/spans.py wraps both as
# io attributes, and both imports go when it stops (ROADMAP item 1)
from .game import (
    DualWeight,
    GameSolution,
    certify,
    make_solution,
    solve_binary,
    solve_covering,
    solve_supporting,
)
from .reduce import ReductionStep, ReductionTrace

PROFILE_FORMAT = "histrel-profile/1"
SCORES_FORMAT = "histrel-scores/1"

FLAGS_NOTE = (
    "meets_support (relevance >= supporting value) and within_cover "
    "(irrelevance <= covering value) are a reporting convention, not part of "
    "the scores themselves; every member of the solved set satisfies both."
)


def read_text(path: str) -> str:
    """A UTF-8 file's text without a leading byte-order mark. Text that does
    not decode is a ``ParseError``; any ``OSError`` names ``path``."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(None, f"{path!r} is not UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as ``open(path, "w")`` would: through a
    symbolic link to its target, not into a file the caller may not write,
    and leaving an existing file its own mode and a new one ``0o666`` less
    the umask. An existing target that is not a regular file (a named pipe,
    a terminal, ``/dev/stdout``) is opened and written in place. A regular
    file or a new one is written whole or not at all: a temporary file
    beside the target is renamed over it, and a failed write leaves none.
    Any ``OSError`` names ``path``."""
    try:
        try:
            existing = os.stat(path)
        except FileNotFoundError:
            existing = None
        if existing is not None and not stat.S_ISREG(existing.st_mode):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            return
        target = os.path.realpath(path)
        if existing is not None and not os.access(target, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        tmp = os.path.join(os.path.dirname(target), f".histrel-{os.urandom(8).hex()}.tmp")
        # the kernel applies the umask to the requested 0o666
        fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            if existing is not None:
                os.chmod(tmp, stat.S_IMODE(existing.st_mode))
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


_escape = json.encoder.encode_basestring_ascii  # json.dumps' string writer (ensure_ascii)


def _list_text(texts: list[str], indent: str) -> str:
    """A JSON list of item texts already written, laid out as ``json.dumps(...,
    indent=2)`` lays it out on a line indented by ``indent``."""
    if not texts:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(texts) + "\n" + indent + "]"


def _number_text(field: Field, value) -> str:
    """``value``'s JSON text by ``Field.texts``, from ``Field._ratio(value)``."""
    numerator, denominator = field._ratio(value)
    return field.texts(([numerator], denominator))[0]


_BOOL_TEXT = {True: "true", False: "false"}


# ---------------------------------------------------------------------------
# histogram sets
# ---------------------------------------------------------------------------


_HISTOGRAM_KEYS = ("alphabet", "sample_length", "histograms")
_JSON_TYPE_NAMES = {list: "list", dict: "object", bool: "boolean", str: "string"}


def _require_type(value, kind: type, what: str):
    """Return ``value`` if it is the JSON list, object, boolean or string ``kind`` asks for."""
    if not isinstance(value, kind):
        raise ParseError(None, f"{what} is not a JSON {_JSON_TYPE_NAMES[kind]}")
    return value


def _require_strings(value, what: str) -> tuple[str, ...]:
    """Return a JSON list of strings as a tuple; labels are never coerced."""
    items = tuple(_require_type(value, list, what))
    for item in items:
        _require_type(item, str, f"{what} entry {item!r}")
    return items


def _require_integers(value, what: str) -> list[int]:
    """Return a JSON list of integers; booleans and integral floats are not integers."""
    items = _require_type(value, list, what)
    for item in items:
        if type(item) is not int:
            raise ParseError(None, f"{what} entry {item!r} is not a JSON integer")
    return items


def _require_keys(obj, keys, what: str) -> None:
    _require_type(obj, dict, what)
    for key in keys:
        if key not in obj:
            raise ParseError(None, f"{what} is missing the {key!r} key")


def _require_csv_labels(value, what: str = "'alphabet'") -> tuple[str, ...]:
    """Alphabet labels, each one a token that ``_ingest_csv`` can read back
    from a UTF-8 file."""
    labels = _require_strings(value, what)
    for label in labels:
        clean = label.strip() == label and label.splitlines() == [label]
        if "," in label or not clean or _SURROGATE.search(label):
            raise ParseError(None, f"{what} entry {label!r} is not a CSV symbol token")
    return labels


def histogram_set_from_json(obj: dict) -> HistogramSet:
    _require_keys(obj, _HISTOGRAM_KEYS, "histogram file")
    alphabet = Alphabet(_require_csv_labels(obj["alphabet"]))
    sample_length = obj["sample_length"]
    if type(sample_length) is not int:  # exact type: a bool is no integer
        raise ParseError(None, f"'sample_length' {sample_length!r} is not a JSON integer")
    rows = _require_type(obj["histograms"], list, "'histograms'")
    for i, row in enumerate(rows, start=1):
        _require_type(row, list, f"'histograms' row {i}")
    if not rows:
        raise EmptySet("histogram file lists no histograms")
    try:
        return HistogramSet.from_counts(alphabet, rows, sample_length)
    except ValidationError:
        # Histogram tests every count; look for a wrong JSON type only now,
        # so a valid file pays no second pass over its counts
        for i, row in enumerate(rows, start=1):
            _require_integers(row, f"'histograms' row {i}")
        raise


def _histogram_keys_text(histograms: HistogramSet) -> str:
    """The histogram-set keys as ``json.dumps(tree, indent=2)`` writes them
    at a tree's top level, each member's count list from its row text."""
    labels = _list_text([*map(_escape, histograms.alphabet.symbols)], "  ")
    rows = [row.replace(",", ",\n      ") for row in histograms._row_texts]
    return '"alphabet": %s,\n  "sample_length": %d,\n  "histograms": [\n    [\n      %s\n    ]\n  ]' % (
        labels, histograms.sample_length, "\n    ],\n    [\n      ".join(rows)
    )


def dumps_histogram_set(histograms: HistogramSet) -> str:
    return "{\n  " + _histogram_keys_text(histograms) + "\n}\n"


def digest_histogram_set(histograms: HistogramSet) -> str:
    """SHA-256 of the set's canonical JSON text, written from the row texts:
    ``{"alphabet":[labels],"histograms":[[counts],...],"sample_length":T}``,
    keys sorted and no spaces, as ``json.dumps(tree, sort_keys=True, separators=(",", ":"))``."""
    canonical = (
        '{"alphabet":' + json.dumps(histograms.alphabet.symbols, separators=(",", ":"))
        + ',"histograms":[[' + "],[".join(histograms._row_texts)
        + ']],"sample_length":%d}' % histograms.sample_length
    )
    return sha256(canonical.encode("ascii")).hexdigest()


def save_histogram_set(histograms: HistogramSet, path: str) -> None:
    atomic_write_text(path, dumps_histogram_set(histograms))


def _parse_json_text(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"invalid JSON: {exc.msg}") from None
    except ValueError:  # int() refuses a literal longer than its digit limit
        limit = sys.get_int_max_str_digits()
        raise ParseError(None, f"invalid JSON: an integer has more than {limit} digits") from None
    except RecursionError:
        raise ParseError(None, "invalid JSON: nested too deeply") from None


def load_histogram_set(path: str) -> HistogramSet:
    return histogram_set_from_json(_parse_json_text(read_text(path)))


def ingest_samples(path: str, alphabet: Alphabet | None = None) -> HistogramSet:
    """Read samples from CSV (or an already-built histogram JSON file).

    CSV rows become one histogram each; every row must have the length of the
    first row. Without an explicit alphabet the symbols are inferred from the
    data and ordered lexicographically. A leading byte-order mark is dropped
    before the format is told: a file whose first character other than
    whitespace is ``{`` is histogram JSON, and its parse errors say so.
    """
    text = read_text(path)
    if text.lstrip().startswith("{"):
        try:
            histograms = histogram_set_from_json(_parse_json_text(text))
        except ParseError as exc:
            hint = "a file starting with '{' is read as histogram JSON, not as CSV"
            raise ParseError(exc.line, f"{exc.reason} ({hint})") from None
        if alphabet is not None and histograms.alphabet != alphabet:
            raise AlphabetMismatch(
                f"file alphabet {histograms.alphabet.symbols} differs from {alphabet.symbols}"
            )
        return histograms
    return _ingest_csv(text, alphabet)


# the characters besides LF and CR at which str.splitlines breaks a line
_LINE_BREAK = re.compile("[\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


def _ingest_csv(text: str, alphabet: Alphabet | None) -> HistogramSet:
    """Rows end at LF, into which ``read_text`` has turned CRLF and CR; a
    token holding any other line break is a ``ParseError`` at its line.
    Whitespace around a line or a token (what ``str.strip`` removes) is ignored.

    A *clean* line, printable and without an ASCII space, is split once and
    never stripped or searched: U+0020 is the only whitespace character
    Python counts as printable and no line break is printable, so stripping
    it or its tokens removes nothing and it holds no line break. Its empty
    tokens are the ones ``",,"`` or a comma at either end makes.
    """
    rows: list[tuple[int, list[str]]] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if line.isprintable() and " " not in line:
            if not line:
                continue
            if ",," in line or line[0] == "," or line[-1] == ",":
                raise ParseError(lineno, "empty symbol token")
            rows.append((lineno, line.split(",")))
            continue
        line = line.strip()
        if not line:
            continue
        tokens = [*map(str.strip, line.split(","))]
        if "" in tokens:
            raise ParseError(lineno, "empty symbol token")
        if not line.isprintable() and _LINE_BREAK.search(line):  # line breaks are unprintable
            broken = next(filter(_LINE_BREAK.search, tokens), None)
            if broken is not None:
                raise ParseError(lineno, f"symbol token {broken!r} holds a line break")
        rows.append((lineno, tokens))
    if not rows:
        raise EmptySet("sample file contains no rows")
    expected = len(rows[0][1])
    for lineno, tokens in rows:
        if len(tokens) != expected:
            raise LengthMismatch(line=lineno, expected=expected, actual=len(tokens))
    if alphabet is None:
        alphabet = Alphabet(tuple(sorted(set().union(*(tokens for _, tokens in rows)))))
    count = _counter(alphabet)
    members = []
    for lineno, tokens in rows:
        try:
            members.append(count(tokens))
        except UnknownSymbol as exc:
            raise UnknownSymbol(exc.label, position=exc.position, line=lineno) from None
    return HistogramSet(alphabet, expected, tuple(members))


# ---------------------------------------------------------------------------
# weight profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightProfile:
    """Both solved problems for one histogram set, as a persistable unit.

    Both solutions were certified against ``histograms`` when they were made.
    """

    histograms: HistogramSet
    supporting: GameSolution
    covering: GameSolution
    mode: ArithmeticMode
    input_digest: str


def solve_profile(histograms: HistogramSet, arithmetic: ArithmeticMode = RATIONAL) -> WeightProfile:
    """Solve both problems with ``solve_supporting`` and ``solve_covering``
    and bundle the results, which raise ``CertificationFailure`` rather than
    return a solution that fails its certificate.
    """
    return WeightProfile(
        histograms=histograms,
        supporting=solve_supporting(histograms, arithmetic),
        covering=solve_covering(histograms, arithmetic),
        mode=arithmetic,
        input_digest=digest_histogram_set(histograms),
    )


def _solution_text(solution: GameSolution, field: Field) -> str:
    """The solution as ``json.dumps(tree, indent=2)`` writes it in a profile,
    each weight and dual written by ``Field.texts`` from the numerators it keeps."""
    trace = solution.reduction_trace
    steps = [_list_text([_escape(s.symbol), "%d" % s.pass_index], "        ") for s in trace.steps]
    return (
        '{\n    "alpha": %s,\n    "weight": %s,\n    "dual": %s,\n    "tight_members": %s,'
        '\n    "tight_symbols": %s,\n    "alternate_optima": %s,'
        '\n    "reduction": {\n      "steps": %s,\n      "surviving": %s\n    }\n  }'
    ) % (
        _number_text(field, solution.alpha),
        _list_text(field.texts(solution.weight._scaled), "    "),
        _list_text(field.texts(solution.dual._scaled), "    "),
        _list_text([*map(str, solution.tight_members)], "    "),
        _list_text([*map(str, solution.tight_symbols)], "    "),
        _BOOL_TEXT[solution.alternate_optima],
        _list_text(steps, "      "),
        _list_text([*map(_escape, trace.surviving)], "      "),
    )


def _solution_from_json(obj, problem, histograms: HistogramSet, field: Field) -> GameSolution:
    keys = ("alpha", "weight", "dual", "tight_members", "tight_symbols")
    _require_keys(obj, keys, f"{problem} solution")

    def numbers(key):
        what = f"'{problem}.{key}'"
        return tuple(field.decode(v, f"{what} entry") for v in _require_type(obj[key], list, what))

    alpha = field.decode(obj["alpha"], f"'{problem}.alpha'")
    weight = Weight(histograms.alphabet, numbers("weight"), field.mode)
    dual = DualWeight(numbers("dual"), field.mode)
    reduction = _require_type(obj.get("reduction", {}), dict, f"'{problem}.reduction'")
    steps = []
    for step in _require_type(reduction.get("steps", []), list, f"'{problem}.reduction.steps'"):
        if not (
            isinstance(step, list)
            and len(step) == 2
            and isinstance(step[0], str)
            and type(step[1]) is int
            and step[1] >= 1
        ):
            raise ParseError(
                None, f"'{problem}.reduction.steps' entry {step!r} is not [symbol, pass >= 1]"
            )
        steps.append(ReductionStep(symbol=step[0], mode=problem, pass_index=step[1]))
    symbols = histograms.alphabet.symbols
    surviving = _require_strings(
        reduction.get("surviving", list(symbols)), f"'{problem}.reduction.surviving'"
    )
    if not surviving or sorted([s.symbol for s in steps] + list(surviving)) != sorted(symbols):
        raise ParseError(
            None,
            f"'{problem}.reduction' does not list each alphabet symbol once, "
            "as eliminated or surviving, with at least one surviving",
        )
    trace = ReductionTrace(tuple(steps), surviving)
    # read every field before certifying: a wrong-typed one is a parse error either way
    alternate = _require_type(
        obj.get("alternate_optima", False), bool, f"'{problem}.alternate_optima'"
    )
    stored = [
        _require_integers(obj[key], f"'{problem}.{key}'")
        for key in ("tight_members", "tight_symbols")
    ]
    solution = make_solution(
        alpha, weight, dual, histograms, problem, trace, alternate_optima=alternate
    )
    if stored != [list(solution.tight_members), list(solution.tight_symbols)]:
        raise CertificationFailure(f"stored tight sets for {problem} do not match the data")
    return solution


def profile_from_json(obj: dict) -> WeightProfile:
    fmt = obj.get("format") if isinstance(obj, dict) else None
    if fmt != PROFILE_FORMAT:
        raise ParseError(None, f"not a weight profile (format {fmt!r})")
    _require_keys(obj, _HISTOGRAM_KEYS + ("mode", "supporting", "covering"), "profile")
    if obj["mode"] not in (RATIONAL, FLOAT):
        raise ParseError(None, f"'mode' {obj['mode']!r} is not {RATIONAL!r} or {FLOAT!r}")
    field = Field.for_mode(obj["mode"])
    histograms = histogram_set_from_json(obj)
    field.require_counts_fit(histograms.sample_length)
    provenance = _require_type(obj.get("provenance", {}), dict, "'provenance'")
    supporting = _solution_from_json(obj["supporting"], SUPPORTING, histograms, field)
    covering = _solution_from_json(obj["covering"], COVERING, histograms, field)
    digest = _require_type(provenance.get("input_sha256", ""), str, "'provenance.input_sha256'")
    # checked last, so a damaged solution is reported as such first
    if digest and digest != digest_histogram_set(histograms):
        raise CertificationFailure("stored input_sha256 does not match the profile's histograms")
    return WeightProfile(histograms, supporting, covering, field.mode, digest)


def dumps_profile(profile: WeightProfile) -> str:
    """The profile as ``json.dumps(tree, indent=2) + "\n"`` writes its tree:
    ``format``, ``mode``, the histogram-set keys, ``provenance``
    (``input_sha256``), then ``supporting`` and ``covering``, each with
    ``alpha``, ``weight``, ``dual``, the tight sets, ``alternate_optima`` and
    ``reduction``; numbers are exact ``p/q`` strings or floats, by the mode."""
    field = Field.for_mode(profile.mode)
    return (
        '{\n  "format": %s,\n  "mode": %s,\n  %s,\n  "provenance": {\n    "input_sha256": %s\n  },'
        '\n  "supporting": %s,\n  "covering": %s\n}\n'
    ) % (
        _escape(PROFILE_FORMAT),
        _escape(profile.mode),
        _histogram_keys_text(profile.histograms),
        _escape(profile.input_digest),
        _solution_text(profile.supporting, field),
        _solution_text(profile.covering, field),
    )


def save_profile(profile: WeightProfile, path: str) -> None:
    atomic_write_text(path, dumps_profile(profile))


def load_profile(path: str) -> WeightProfile:
    return profile_from_json(_parse_json_text(read_text(path)))


# ---------------------------------------------------------------------------
# score reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScoreRow:
    index: int
    histogram: tuple[int, ...]
    relevance: Number
    irrelevance: Number
    relevance_ratio: Number | None
    irrelevance_ratio: Number | None
    meets_support: bool
    within_cover: bool


@dataclass(frozen=True)
class ScoreReport:
    """A batch's scores as columns: each sample's counts (``histograms``),
    the ``Field.pairings`` of the supporting and the covering weight with
    them (``relevances``, ``irrelevances``: numerators over one denominator)
    and the flags. ``rows``, a ``ScoreRow`` per sample, is built on first access."""

    alphabet: Alphabet
    sample_length: int
    mode: ArithmeticMode
    alpha_supporting: Number
    alpha_covering: Number
    histograms: tuple[tuple[int, ...], ...]
    relevances: tuple[list, Number]
    irrelevances: tuple[list, Number]
    meets_support: tuple[bool, ...]
    within_cover: tuple[bool, ...]

    def _columns(self, values, missing):
        """Each sample's histogram, scores, ratios and flags; a column of scores
        or ratios, as ``(numerators, denominator)``, is ``values(column)``,
        and a ratio to a zero value ``missing``."""
        field = Field.for_mode(self.mode)

        def column(scaled):
            return [missing] * len(self.histograms) if scaled is None else values(scaled)

        return zip(
            self.histograms, column(self.relevances), column(self.irrelevances),
            column(field.ratios(self.relevances, self.alpha_supporting)),
            column(field.ratios(self.irrelevances, self.alpha_covering)),
            self.meets_support, self.within_cover,
        )

    @cached_property
    def rows(self) -> tuple[ScoreRow, ...]:
        quotient = Field.for_mode(self.mode).quotient

        def numbers(scaled):
            numerators, denominator = scaled
            return [quotient(n, denominator) for n in numerators]

        columns = self._columns(numbers, None)
        return tuple(ScoreRow(i, *row) for i, row in enumerate(columns, start=1))


def score_profile(profile: WeightProfile, samples: HistogramSet) -> ScoreReport:
    """Score every sample histogram against a solved profile.

    Relevance pairs against the supporting weight, irrelevance against the
    covering weight; ratios divide by the respective value (omitted when the
    value is zero, within the profile's tolerance). Flags compare with that
    tolerance, the one the certificates were checked at (exactly zero in
    rational mode), so every member of the solved set meets both. Every
    comparison with a value is ``Field``'s, the one the certificates make,
    and is made on the integer numerators of the pairings in rational mode.
    The report keeps the pairings' numerators; ``ScoreReport.rows`` divides them out.
    """
    solved = profile.histograms
    if samples.alphabet != solved.alphabet:
        raise AlphabetMismatch("sample alphabet differs from the profile alphabet")
    if samples.sample_length != solved.sample_length:
        raise LengthMismatch(expected=solved.sample_length, actual=samples.sample_length)
    field = Field.for_mode(profile.mode)
    sup, cov = profile.supporting, profile.covering
    counts = samples.count_rows()
    relevances = field.pairings(sup.weight._scaled, counts)
    irrelevances = field.pairings(cov.weight._scaled, counts)
    (sup_gaps, sup_scale), (cov_gaps, cov_scale) = (
        field.gaps(relevances, sup.alpha), field.gaps(irrelevances, cov.alpha)
    )
    within = field.within
    return ScoreReport(
        alphabet=solved.alphabet,
        sample_length=solved.sample_length,
        mode=profile.mode,
        alpha_supporting=sup.alpha,
        alpha_covering=cov.alpha,
        histograms=counts,
        relevances=relevances,
        irrelevances=irrelevances,
        meets_support=tuple(within(-gap, sup_scale) for gap in sup_gaps),
        within_cover=tuple(within(gap, cov_scale) for gap in cov_gaps),
    )


def dumps_score_report(report: ScoreReport) -> str:
    """``json.dumps(tree, indent=2)`` of the report's tree: a header template
    that ends by opening ``"samples"``, then each sample by one row template
    from the columns."""
    field = Field.for_mode(report.mode)
    head = (
        '{\n  "format": %s,\n  "mode": %s,\n  "alphabet": %s,\n  "sample_length": %d,'
        '\n  "alpha_supporting": %s,\n  "alpha_covering": %s,\n  "flags_note": %s,'
        '\n  "samples": [\n    '
    ) % (
        _escape(SCORES_FORMAT),
        _escape(report.mode),
        _list_text([*map(_escape, report.alphabet.symbols)], "  "),
        report.sample_length,
        _number_text(field, report.alpha_supporting),
        _number_text(field, report.alpha_covering),
        _escape(FLAGS_NOTE),
    )
    row = (
        '{\n      "index": %d,\n      "histogram": [\n        '
        + ",\n        ".join(["%d"] * len(report.alphabet))
        + '\n      ],\n      "relevance": %s,\n      "irrelevance": %s,'
        '\n      "relevance_ratio": %s,\n      "irrelevance_ratio": %s,'
        '\n      "meets_support": %s,\n      "within_cover": %s\n    }'
    )
    columns = report._columns(field.texts, "null")
    rows = [
        row % (i, *histogram, *texts, _BOOL_TEXT[meets], _BOOL_TEXT[within])
        for i, (histogram, *texts, meets, within) in enumerate(columns, start=1)
    ]
    if not rows:
        return head.rstrip() + "]\n}\n"
    # one join copies the rows once, the header with the first
    rows[0] = head + rows[0]
    rows[-1] += "\n  ]\n}\n"
    return ",\n    ".join(rows)


def save_score_report(report: ScoreReport, path: str) -> None:
    atomic_write_text(path, dumps_score_report(report))
