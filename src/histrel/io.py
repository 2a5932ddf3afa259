"""File ingestion, serialization, and the solve/score pipeline.

Formats are deliberately small: sample files are plain CSV (one sample per
line, comma-separated single-token symbols), histogram sets and all derived
artifacts are JSON. Rational values serialize as exact ``p/q`` strings,
floats as shortest round-trip decimals, so rational-mode files round-trip
bit-exactly. All file writes are whole-file atomic and otherwise write as
``open(path, "w")`` does.

A histogram set's counts become decimal text once, one compact row text per
member (``HistogramSet._row_texts``): the ``input_sha256`` digest and the
histogram-set and profile writers are all built from those texts.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import re
import secrets
import stat
import sys
from dataclasses import dataclass
from functools import cached_property

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
    _counter,
    _float_text,
    require_arithmetic,
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
    """Write a temporary file beside ``path`` and rename it over ``path``,
    as ``open(path, "w")`` would write: through a symbolic link to its
    target, not into a file the caller may not write, and leaving an
    existing file its own mode and a new one ``0o666`` less the umask. A
    failed write leaves no temporary file, and its ``OSError`` names ``path``."""
    target = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(target), f".histrel-{secrets.token_hex(8)}.tmp")
    try:
        if os.path.exists(target) and not os.access(target, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        # the kernel applies the umask to the requested 0o666
        fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            try:
                os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
            except FileNotFoundError:
                pass  # a new file
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


_escape = json.encoder.encode_basestring_ascii  # json.dumps' string writer (ensure_ascii)


class _JsonText(str):
    """JSON text that ``_json_text`` writes as it stands, already indented for its place."""


# each scalar type's JSON text as json.dumps writes it, and a _JsonText's
# own text; for these exact types repr is int.__repr__ and float.__repr__
_SCALAR_TEXT = {
    _JsonText: str,
    str: _escape,
    int: repr,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_text(value, newline: str = "\n") -> str:
    """Exactly ``json.dumps(value, indent=2)`` for the trees the writers
    build: dicts with string keys, lists, and JSON scalars.

    ``indent`` turns off json's C encoder, so this writer dispatches on type
    instead, and a list holding one scalar type is written by one ``join``
    over ``map``, without Python work per element.
    """
    kind = type(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        texts = _item_texts(value.values(), inner)
        items = [_escape(key) + ": " + text for key, text in zip(value, texts)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join(_item_texts(value, inner)) + newline + "]"
    scalar = _SCALAR_TEXT.get(kind)
    if scalar is None:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    return scalar(value)


def _item_texts(values, newline: str):
    """The JSON texts of a container's items, each written at ``newline``."""
    kinds = set(map(type, values))
    scalar = _SCALAR_TEXT.get(kinds.pop()) if len(kinds) == 1 else None
    if scalar is not None:
        return map(scalar, values)
    text_of = _SCALAR_TEXT.get
    return [text(v) if (text := text_of(type(v))) else _json_text(v, newline) for v in values]


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
    """Alphabet labels, each one a token that ``_ingest_csv`` can read back."""
    labels = _require_strings(value, what)
    for label in labels:
        if "," in label or label.strip() != label or label.splitlines() != [label]:
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


def _histogram_tree(histograms: HistogramSet) -> dict:
    """The histogram-set keys of a tree: the labels, the sample length, and
    ``"histograms"``, one count list per member, already written from the row
    texts as ``json.dumps(..., indent=2)`` writes them at a tree's top level."""
    rows = [row.replace(",", ",\n      ") for row in histograms._row_texts]
    block = "[\n    [\n      " + "\n    ],\n    [\n      ".join(rows) + "\n    ]\n  ]"
    return {
        "alphabet": list(histograms.alphabet.symbols),
        "sample_length": histograms.sample_length,
        "histograms": _JsonText(block),
    }


def dumps_histogram_set(histograms: HistogramSet) -> str:
    return _json_text(_histogram_tree(histograms)) + "\n"


def digest_histogram_set(histograms: HistogramSet) -> str:
    """SHA-256 of the set's canonical JSON text, written from the row texts:
    ``{"alphabet":[labels],"histograms":[[counts],...],"sample_length":T}``,
    keys sorted and no spaces, as ``json.dumps(tree, sort_keys=True, separators=(",", ":"))``."""
    canonical = (
        '{"alphabet":' + json.dumps(histograms.alphabet.symbols, separators=(",", ":"))
        + ',"histograms":[[' + "],[".join(histograms._row_texts)
        + ']],"sample_length":%d}' % histograms.sample_length
    )
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


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
    require_arithmetic(arithmetic)
    return WeightProfile(
        histograms=histograms,
        supporting=solve_supporting(histograms, arithmetic),
        covering=solve_covering(histograms, arithmetic),
        mode=arithmetic,
        input_digest=digest_histogram_set(histograms),
    )


def _solution_to_json(solution: GameSolution, field: Field) -> dict:
    """The solution's tree, each weight and dual written by ``Field.texts``
    from the numerators it keeps, as one list indented for its place in a profile."""

    def vector(held):
        return _JsonText("[\n      " + ",\n      ".join(field.texts(held._scaled)) + "\n    ]")

    return {
        "alpha": field.encode(solution.alpha),
        "weight": vector(solution.weight),
        "dual": vector(solution.dual),
        "tight_members": list(solution.tight_members),
        "tight_symbols": list(solution.tight_symbols),
        "alternate_optima": solution.alternate_optima,
        "reduction": {
            "steps": [[s.symbol, s.pass_index] for s in solution.reduction_trace.steps],
            "surviving": list(solution.reduction_trace.surviving),
        },
    }


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
    return _json_text({
        "format": PROFILE_FORMAT,
        "mode": profile.mode,
        **_histogram_tree(profile.histograms),
        "provenance": {"input_sha256": profile.input_digest},
        "supporting": _solution_to_json(profile.supporting, field),
        "covering": _solution_to_json(profile.covering, field),
    }) + "\n"


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
    """``json.dumps(tree, indent=2)`` of the report's tree: the header by
    ``_json_text``, each sample by one row template from the columns."""
    field = Field.for_mode(report.mode)
    header = _json_text({
        "format": SCORES_FORMAT,
        "mode": report.mode,
        "alphabet": list(report.alphabet.symbols),
        "sample_length": report.sample_length,
        "alpha_supporting": field.encode(report.alpha_supporting),
        "alpha_covering": field.encode(report.alpha_covering),
        "flags_note": FLAGS_NOTE,
    })
    row = (
        '{\n      "index": %d,\n      "histogram": [\n        '
        + ",\n        ".join(["%d"] * len(report.alphabet))
        + '\n      ],\n      "relevance": %s,\n      "irrelevance": %s,'
        '\n      "relevance_ratio": %s,\n      "irrelevance_ratio": %s,'
        '\n      "meets_support": %s,\n      "within_cover": %s\n    }'
    )
    flag = _SCALAR_TEXT[bool]
    columns = report._columns(field.texts, "null")
    rows = [
        row % (i, *histogram, *texts, flag(meets), flag(within))
        for i, (histogram, *texts, meets, within) in enumerate(columns, start=1)
    ]
    # the header's closing "\n}" reopens for the samples; one join copies the rows once
    rows[0] = header[:-2] + ',\n  "samples": [\n    ' + rows[0]
    rows[-1] += "\n  ]\n}\n"
    return ",\n    ".join(rows)


def save_score_report(report: ScoreReport, path: str) -> None:
    atomic_write_text(path, dumps_score_report(report))
