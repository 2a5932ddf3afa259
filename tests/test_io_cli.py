from __future__ import annotations

import errno
import hashlib
import json
import math
import os
import random
import stat
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import cached_property, partial
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import histrel.io
import histrel.simplex
import histrel.verify
from histrel import (
    Alphabet,
    AlphabetMismatch,
    CertificationFailure,
    EmptySet,
    Histogram,
    HistogramSet,
    HistrelError,
    LengthMismatch,
    ParseError,
    ReductionStep,
    ReductionTrace,
    ScoreReport,
    UnknownSymbol,
    ValidationError,
    Weight,
    ingest_samples,
    irrelevance_score,
    load_histogram_set,
    load_profile,
    relevance_score,
    save_histogram_set,
    save_profile,
    score_profile,
    solve_profile,
)
from histrel.cli import EXIT_CODES, _exit_code_for, main
from histrel.core import FLOAT_EPS, Field
from histrel.io import (
    FLAGS_NOTE,
    PROFILE_FORMAT,
    SCORES_FORMAT,
    _ingest_csv,
    _require_csv_labels,
    digest_histogram_set,
    dumps_histogram_set,
    dumps_profile,
    dumps_score_report,
    histogram_set_from_json,
    profile_from_json,
)
from histrel.verify import random_histogram_set
from conftest import make_set

E1_CSV = "a,a,a,a,a,a,a,b,b,b\na,a,a,a,a,a,b,b,b,b\n"
E4_CSV = "a,a,a,a,b,c\na,a,a,b,b,c\n"
STRADDLING_CSV = "a,b,a\nb,b,a\n"  # (2, 1) and (1, 2): both games weigh a and b 1/2 each
BIG = 10**400  # beyond the float range
NESTED = "[" * 100_000 + "]" * 100_000  # deeper than json.loads recurses
# a set whose first member can become (5, 0, 1) with both solutions still certified
STALE_DIGEST_ROWS = [(4, 1, 1), (3, 2, 1), (2, 2, 2)]
# a standard output whose buffer keeps the bytes of a failed write
KEEPS_FAILED_BYTES = (
    "import io, sys\n"
    "class Raw(io.FileIO):\n"
    "    def write(self, data):\n"
    "        return super().write(data)\n"
    "sys.stdout = io.TextIOWrapper(io.BufferedWriter(Raw(1, 'w', closefd=False)))\n"
)

# supporting reduction traces of the E4 profile (c then b eliminated, a
# surviving) that do not list each alphabet symbol once, or that number a
# pass below 1, each with the field its parse error names
TRACES_OFF_THE_ALPHABET = {
    "foreign-trace": ("supporting.reduction", {"steps": [["zzz", 7]], "surviving": ["q"]}),
    "missing-symbol": ("supporting.reduction", {"steps": [["c", 1]], "surviving": ["a"]}),
    "eliminated-and-surviving": (
        "supporting.reduction",
        {"steps": [["c", 1], ["b", 2]], "surviving": ["a", "b"]},
    ),
    "surviving-twice": (
        "supporting.reduction",
        {"steps": [["c", 1], ["b", 2]], "surviving": ["a", "a"]},
    ),
    "eliminated-twice": (
        "supporting.reduction",
        {"steps": [["c", 1], ["c", 2]], "surviving": ["a", "b"]},
    ),
    "none-surviving": (
        "supporting.reduction",
        {"steps": [["a", 1], ["b", 1], ["c", 2]], "surviving": []},
    ),
    "default-steps": ("supporting.reduction", {"surviving": ["a"]}),
    "pass-zero": (
        "supporting.reduction.steps",
        {"steps": [["c", 0], ["b", 2]], "surviving": ["a"]},
    ),
    "pass-negative": (
        "supporting.reduction.steps",
        {"steps": [["c", 1], ["b", -2]], "surviving": ["a"]},
    ),
}


def trace_damage(reduction, profile):
    profile["supporting"]["reduction"] = reduction


def retype(problem, key, profile):
    """Write ``problem.key``'s numbers as the JSON type the profile's mode
    rejects: floats in a rational profile, strings in a float one."""
    as_wrong = str if profile["mode"] == "float" else lambda v: float(Fraction(v))
    value = profile[problem][key]
    profile[problem][key] = [*map(as_wrong, value)] if isinstance(value, list) else as_wrong(value)


# profile numbers of a type no profile holds, and the field each error names
NUMBER_DAMAGE = {
    "alpha-type": ("'supporting.alpha'", partial(retype, "supporting", "alpha")),
    "weight-type": ("'supporting.weight' entry", partial(retype, "supporting", "weight")),
    "dual-type": ("'covering.dual' entry", partial(retype, "covering", "dual")),
    "boolean-alpha": ("'covering.alpha' True", lambda p: p["covering"].update(alpha=True)),
    "null-weight": ("'supporting.weight' entry None", lambda p: p["supporting"].update(weight=[None])),
    "underscore-weight": (
        "'supporting.weight' entry '5_0e-2'",
        lambda p: p["supporting"]["weight"].__setitem__(1, "5_0e-2"),
    ),
}

# rational number strings that Fraction parses but no profile holds: a
# profile writes each value as str(Fraction), and E4's supporting weight is (1, 0, 0)
UNWRITTEN_RATIONALS = {"decimal": "1.0", "padded": " 1", "signed": "+1"}

# every character str.strip removes except LF, which ends a row, and CR, which
# read_text turns into LF; it holds every line break but LF and CR
STRIPPED = (
    "\t\v\f\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005"
    "\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)
CSV_LABELS = ("a", "b", "ab", "\xe9", "{", "a b", "a\tb", "a\x00b", "a\x1cb", "a\u3000b")


def _per_token_ingest_csv(text: str, alphabet: Alphabet | None) -> HistogramSet:
    """The reference reading of a sample CSV text: strip every line and every
    token, search every token for a line break, then count each row symbol by
    symbol with ``tuple.count`` into the checked ``Histogram`` and
    ``HistogramSet`` constructors, independently of the library's counter.
    ``io._ingest_csv`` must give the same result, or raise the same error, on
    every text."""
    rows = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        tokens = tuple(map(str.strip, line.split(",")))
        if "" in tokens:
            raise ParseError(lineno, "empty symbol token")
        # a stripped token neither starts nor ends with a line break
        broken = next((token for token in tokens if len(token.splitlines()) > 1), None)
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
    members = []
    for lineno, tokens in rows:
        for position, token in enumerate(tokens, start=1):
            if token not in alphabet.symbols:
                raise UnknownSymbol(token, position=position, line=lineno)
        members.append(Histogram(alphabet, tuple(map(tokens.count, alphabet.symbols))))
    return HistogramSet(alphabet, expected, tuple(members))


def random_csv_text(rng: random.Random) -> str:
    """A small CSV text of padded, empty, unknown and multi-character tokens
    in rows that mostly, but not always, share one length."""
    pads = rng.choice([" ", " \t", STRIPPED])

    def pad() -> str:
        return "".join(rng.choices(pads, k=rng.choice([0, 0, 0, 1, 2])))

    def token() -> str:
        if rng.random() < 0.05:
            return pad()  # empty, or empty once stripped
        return pad() + rng.choice(CSV_LABELS) + pad()

    width = rng.randint(1, 4)
    lines = []
    for _ in range(rng.randint(0, 5)):
        if rng.random() < 0.1:
            lines.append(pad())  # a blank line
            continue
        length = width + (rng.choice([-1, 1]) if width > 1 and rng.random() < 0.05 else 0)
        lines.append(pad() + ",".join(token() for _ in range(length)) + pad())
    return "\n".join(lines) + rng.choice(["", "\n"])


def _ingest_outcome(ingest, text: str, alphabet: Alphabet | None):
    """The histogram set ``ingest`` reads, or its error's type and message."""
    try:
        return ingest(text, alphabet)
    except HistrelError as exc:
        return type(exc), str(exc)


class TestIngest:
    def test_csv_counts(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("a,a,b\na,b,b\n")
        hs = ingest_samples(str(path))
        assert hs.sample_length == 3
        assert hs.count_rows() == ((2, 1), (1, 2))

    def test_padded_tokens_count_as_their_labels(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(" a, a ,b\n\ta,b\t, b \n")
        hs = ingest_samples(str(path))
        assert hs.alphabet.symbols == ("a", "b")
        assert hs.count_rows() == ((2, 1), (1, 2))

    def test_length_mismatch_reports_the_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("a,a,b\na,b,b,a\n")
        with pytest.raises(LengthMismatch) as err:
            ingest_samples(str(path))
        assert err.value.line == 2

    def test_json_round_trip_is_the_identity(self, tmp_path, e1):
        path = tmp_path / "hs.json"
        save_histogram_set(e1, str(path))
        loaded = load_histogram_set(str(path))
        assert loaded == e1
        assert dumps_histogram_set(loaded) == path.read_text()

    def test_ingest_accepts_histogram_json(self, tmp_path, e1):
        path = tmp_path / "hs.json"
        save_histogram_set(e1, str(path))
        assert ingest_samples(str(path)) == e1

    def test_inferred_alphabet_is_sorted(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("z,y\nx,z\n")
        assert ingest_samples(str(path)).alphabet.symbols == ("x", "y", "z")

    def test_explicit_alphabet_rejects_strays(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("a,c\n")
        with pytest.raises(UnknownSymbol) as err:
            ingest_samples(str(path), Alphabet(("a", "b")))
        assert err.value.line == 1 and err.value.position == 2

    @pytest.mark.parametrize(
        "text, label, line, position",
        [
            ("a,b,a,b\na,y,x,y\n", "y", 2, 2),  # the first stray repeats
            ("b,a,b,a\nz,x,a,z\n", "z", 2, 1),  # strays before known labels
        ],
        ids=["repeated", "leading"],
    )
    def test_first_of_several_strays_is_reported(self, tmp_path, text, label, line, position):
        path = tmp_path / "s.csv"
        path.write_text(text)
        with pytest.raises(UnknownSymbol) as err:
            ingest_samples(str(path), Alphabet(("a", "b")))
        assert (err.value.label, err.value.line, err.value.position) == (label, line, position)

    @pytest.mark.parametrize(
        "text", ["a,b,a\nb,c,a\n", "a,b,a\n\u3000b ,\tc\xa0, a \n"], ids=["clean", "padded"]
    )
    def test_an_unknown_symbol_is_placed_alike_on_clean_and_padded_lines(self, tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with pytest.raises(UnknownSymbol) as err:
            ingest_samples(str(path), Alphabet(("a", "b")))
        assert (err.value.label, err.value.line, err.value.position) == ("c", 2, 2)
        assert str(err.value) == "unknown symbol 'c' (line 2, position 2)"

    def test_every_text_reads_as_the_per_token_reference_reads_it(self):
        whitespace = {chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()}
        assert whitespace - set(STRIPPED) == {"\n", "\r"}
        rng = random.Random(20)
        kinds = Counter()
        for _ in range(3000):
            text = random_csv_text(rng)
            labels = rng.sample(("a", "b", "ab", "\xe9", "{", "a b"), rng.randint(1, 6))
            for alphabet in (None, Alphabet(tuple(labels))):
                want = _ingest_outcome(_per_token_ingest_csv, text, alphabet)
                assert _ingest_outcome(_ingest_csv, text, alphabet) == want, (text, alphabet)
                if isinstance(want, HistogramSet):
                    kinds["read"] += 1
                elif want[0] is ParseError:
                    kinds["line break" if "line break" in want[1] else "empty token"] += 1
                else:
                    kinds[want[0].__name__] += 1
        # every outcome occurs often, so the texts reach every branch of both readers
        assert set(kinds) == {
            "read", "line break", "empty token", "EmptySet", "LengthMismatch", "UnknownSymbol"
        }
        assert min(kinds.values()) >= 50, kinds

    def test_empty_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("\n\n")
        with pytest.raises(EmptySet):
            ingest_samples(str(path))

    def test_empty_token(self, tmp_path):
        path = tmp_path / "s.csv"
        # inner, leading and trailing, on clean lines and on padded ones
        for text in ["a,,b\n", ",a,b\n", "a,b,\nb,b,a\n", "a, ,b\n", "\t,a,b\n", "a,b,\t\n"]:
            path.write_text(text)
            with pytest.raises(ParseError, match="^line 1: empty symbol token$"):
                ingest_samples(str(path))

    def test_a_csv_starting_with_a_brace_is_read_as_histogram_json(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(" {,a\na,{\n")
        with pytest.raises(ParseError) as err:
            ingest_samples(str(path))
        assert err.value.line == 1
        assert str(err.value).startswith("line 1: invalid JSON: ")
        assert "a file starting with '{' is read as histogram JSON" in str(err.value)
        path.write_text("[,a\na,[\n")
        assert ingest_samples(str(path)).alphabet.symbols == ("[", "a")

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("{}\n", "histogram file is missing the 'alphabet' key"),
            ('{"alphabet": "ab", "sample_length": 1, "histograms": []}', "'alphabet' is not a JSON list"),
            ('{"alphabet": ["a"], "sample_length": 1, "histograms": [1]}', "'histograms' row 1 is not a JSON list"),
        ],
    )
    def test_valid_json_that_is_no_histogram_file_gets_the_brace_hint(self, tmp_path, capsys, text, reason):
        path = tmp_path / "s.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            ingest_samples(str(path))
        hint = "(a file starting with '{' is read as histogram JSON, not as CSV)"
        assert str(err.value) == f"{reason} {hint}"
        assert main(["ingest", str(path)]) == 10
        assert capsys.readouterr().err == f"error: {reason} {hint}\n"

    @pytest.mark.parametrize(
        "sample_length, rows, reason",
        [
            ('"2"', "[[1, 1]]", "'sample_length' '2' is not a JSON integer"),
            ("2.0", "[[1, 1]]", "'sample_length' 2.0 is not a JSON integer"),
            ("true", "[[1, 0]]", "'sample_length' True is not a JSON integer"),
            ("2", "[[1, true]]", "'histograms' row 1 entry True is not a JSON integer"),
            ("2", "[[1, 1], [1.0, 1]]", "'histograms' row 2 entry 1.0 is not a JSON integer"),
            ("2", '[[2, 0], ["1", 1]]', "'histograms' row 2 entry '1' is not a JSON integer"),
        ],
    )
    def test_wrong_json_types_in_a_histogram_file_are_parse_errors(
        self, tmp_path, capsys, sample_length, rows, reason
    ):
        text = f'{{"alphabet": ["a", "b"], "sample_length": {sample_length}, "histograms": {rows}}}\n'
        path = tmp_path / "h.json"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            load_histogram_set(str(path))
        assert str(err.value) == reason
        # the commands read samples as CSV, so their message adds the brace hint
        hint = "(a file starting with '{' is read as histogram JSON, not as CSV)"
        for args in (["ingest", str(path)], ["solve", str(path), "-o", str(tmp_path / "p.json")]):
            assert main(args) == 10
            assert capsys.readouterr().err == f"error: {reason} {hint}\n"
        # and the same data inside a profile is the same parse error
        profile = json.loads(dumps_profile(solve_profile(make_set("ab", [(1, 1), (2, 0)]))))
        profile.update(json.loads(text))
        (tmp_path / "profile.json").write_text(json.dumps(profile))
        (tmp_path / "s.csv").write_text("a,b\n")
        assert main(["score", str(tmp_path / "profile.json"), str(tmp_path / "s.csv")]) == 10
        assert capsys.readouterr().err == f"error: {reason}\n"

    def test_a_negative_integer_count_stays_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        path.write_text('{"alphabet": ["a", "b"], "sample_length": 2, "histograms": [[1, 1], [3, -1]]}')
        with pytest.raises(ValidationError, match="nonnegative integers, got -1"):
            load_histogram_set(str(path))
        assert main(["ingest", str(path)]) == 19

    def test_crlf_rows_are_accepted(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"a,b\r\nb,a\r\n")
        assert ingest_samples(str(path)).count_rows() == ((1, 1), (1, 1))
        path.write_bytes(b"a,b\rb,b\r")  # universal newlines: a lone CR ends a row too
        assert ingest_samples(str(path)).count_rows() == ((1, 1), (0, 2))

    @pytest.mark.parametrize(
        "brk", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_only_lf_ends_a_row(self, tmp_path, brk):
        assert len(f"a{brk}b".splitlines()) == 2
        path = tmp_path / "s.csv"
        path.write_text(f"a,b\nb,a{brk}b,a\nb,b\n", encoding="utf-8", newline="")
        with pytest.raises(ParseError) as err:
            ingest_samples(str(path))
        assert err.value.line == 2
        assert repr(f"a{brk}b") in str(err.value)

    def test_a_line_break_inside_a_token_is_reported_at_its_lf_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("a,b\fb,a\nb,b,a,a\n", newline="")
        with pytest.raises(ParseError, match="^line 1: "):
            ingest_samples(str(path))

    @pytest.mark.parametrize("brk", ["\v", "\x85", "\u2028"])
    def test_a_line_break_inside_a_token_of_a_padded_line_is_a_parse_error(self, tmp_path, brk):
        path = tmp_path / "s.csv"
        path.write_text(f"a,b,a\n\ta, b{brk}b ,a \n", encoding="utf-8", newline="")
        with pytest.raises(ParseError) as err:
            ingest_samples(str(path))
        assert str(err.value) == f"line 2: symbol token {'b' + brk + 'b'!r} holds a line break"

    def test_a_line_break_at_a_tokens_edge_is_stripped_with_it(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("a,b,a\n\ta ,\vb,a\n b\x85,b,\u2028a\n", encoding="utf-8", newline="")
        assert ingest_samples(str(path)).count_rows() == ((2, 1), (2, 1), (1, 2))

    def test_only_a_line_holding_a_break_has_its_tokens_searched(self, monkeypatch):
        searched, pattern = [], histrel.io._LINE_BREAK

        def search(text):
            searched.append(text)
            return pattern.search(text)

        monkeypatch.setattr(histrel.io, "_LINE_BREAK", SimpleNamespace(search=search))
        _ingest_csv("a,b,a\n\ta,\tb,a\n b,\vb ,a\n", None)
        # the clean line is never searched, the padded lines once each, and
        # the tokens of the line whose break sits at a token's edge
        assert searched == ["a,\tb,a", "b,\vb ,a", "b", "b", "a"]

    @pytest.mark.parametrize(
        "text",
        ['{"alphabet": ["a", "b"], "sample_length": 3, "histograms": [[2, 1], [1, 2]]}', "a,b,a\nb,b,a\n"],
        ids=["json", "csv"],
    )
    def test_a_byte_order_mark_is_dropped(self, tmp_path, text):
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        histograms = ingest_samples(str(marked))
        assert histograms.alphabet.symbols == ("a", "b")
        assert histograms == ingest_samples(str(plain))
        if text.startswith("{"):
            assert load_histogram_set(str(marked)) == histograms

    def test_text_that_is_not_utf8_is_a_parse_error(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"\xff\xfea,b\n")
        with pytest.raises(ParseError, match="not UTF-8"):
            ingest_samples(str(path))
        with pytest.raises(ParseError, match="not UTF-8"):
            load_histogram_set(str(path))
        with pytest.raises(ParseError, match="not UTF-8"):
            load_profile(str(path))

    def test_a_missing_file_is_an_os_error_naming_it(self, tmp_path):
        path = str(tmp_path / "missing.csv")
        with pytest.raises(FileNotFoundError) as err:
            ingest_samples(path)
        assert err.value.filename == path


def histogram_set_to_json(histograms) -> dict:
    """Reference: the histogram set's JSON tree, one count list per member."""
    return {
        "alphabet": list(histograms.alphabet.symbols),
        "sample_length": histograms.sample_length,
        "histograms": [list(m.counts) for m in histograms.members],
    }


def json_number(value, mode):
    """Reference: a number's JSON value, the exact ``p/q`` string in rational mode."""
    return str(Fraction(value)) if mode == "rational" else float(value)


def profile_to_json(profile) -> dict:
    """Reference: the profile's JSON tree, each number by ``json_number``
    from the values the solutions hold."""
    encode = partial(json_number, mode=profile.mode)

    def solution_to_json(solution):
        return {
            "alpha": encode(solution.alpha),
            "weight": [encode(v) for v in solution.weight.values],
            "dual": [encode(v) for v in solution.dual.values],
            "tight_members": list(solution.tight_members),
            "tight_symbols": list(solution.tight_symbols),
            "alternate_optima": solution.alternate_optima,
            "reduction": {
                "steps": [[s.symbol, s.pass_index] for s in solution.reduction_trace.steps],
                "surviving": list(solution.reduction_trace.surviving),
            },
        }

    return {
        "format": PROFILE_FORMAT,
        "mode": profile.mode,
        **histogram_set_to_json(profile.histograms),
        "provenance": {"input_sha256": profile.input_digest},
        "supporting": solution_to_json(profile.supporting),
        "covering": solution_to_json(profile.covering),
    }


def score_report_to_json(report) -> dict:
    """Reference: the score report's JSON tree, built from ``report.rows``."""
    encode = partial(json_number, mode=report.mode)

    def opt(value):
        return None if value is None else encode(value)

    return {
        "format": SCORES_FORMAT,
        "mode": report.mode,
        "alphabet": list(report.alphabet.symbols),
        "sample_length": report.sample_length,
        "alpha_supporting": encode(report.alpha_supporting),
        "alpha_covering": encode(report.alpha_covering),
        "flags_note": FLAGS_NOTE,
        "samples": [
            {
                "index": row.index,
                "histogram": list(row.histogram),
                "relevance": encode(row.relevance),
                "irrelevance": encode(row.irrelevance),
                "relevance_ratio": opt(row.relevance_ratio),
                "irrelevance_ratio": opt(row.irrelevance_ratio),
                "meets_support": row.meets_support,
                "within_cover": row.within_cover,
            }
            for row in report.rows
        ],
    }


def canonical_digest(histograms) -> str:
    """Reference: the SHA-256 of the set's tree by ``json.dumps``, keys sorted, compact."""
    canonical = json.dumps(histogram_set_to_json(histograms), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def assert_written_as_json_dumps(histograms, mode) -> dict:
    """A set, its profile and the report scoring its own members are each
    written as ``json.dumps(tree, indent=2)``, and the set's digest is the
    reference's; returns the report's reference tree."""
    profile = solve_profile(histograms, mode)
    assert digest_histogram_set(histograms) == profile.input_digest == canonical_digest(histograms)
    for text, tree in (
        (dumps_histogram_set(histograms), histogram_set_to_json(histograms)),
        (dumps_profile(profile), profile_to_json(profile)),
    ):
        assert text == json.dumps(tree, indent=2) + "\n"
    report = score_profile(profile, histograms)
    reference = score_report_to_json(report)
    assert dumps_score_report(report) == json.dumps(reference, indent=2) + "\n"
    return reference


# sets at |T| = 10**12, whose scores, ratios and ratio operands are large
# integers: weights with 13-digit denominators, which float mode does not
# certify at this size, and point masses, which it does; and a rational set
# whose 401-digit counts no double holds
HUGE_T_SETS = {
    "beyond-float": [(BIG, BIG, 1), (BIG + 1, BIG - 1, 1)],
    "mixed": [
        (6 * 10**11 + 7, 10**11 - 3, 3 * 10**11 - 4),
        (10**11 + 5, 6 * 10**11 - 2, 3 * 10**11 - 3),
        (4 * 10**11 + 3, 4 * 10**11 - 1, 2 * 10**11 - 2),
    ],
    "dominant": [
        (715680001258, 259353632337, 24966366405),
        (749007359810, 201227384192, 49765255998),
        (988686302384, 5568204335, 5745493281),
        (836788579369, 81888079603, 81323341028),
    ],
}


def is_csv_label(label: str) -> bool:
    try:
        _require_csv_labels([label])
    except ParseError:
        return False
    return True


# characters that JSON escapes or that need care: a quote, a backslash,
# controls, non-ASCII and non-BMP characters; the labels that ingest would
# not read back, with a line break or a surrogate, are filtered out by the
# library's own rule
LABEL_CHARACTERS = st.one_of(
    st.sampled_from('"\\\t\x00\x01\x1b\x7f\x85/ '),
    st.characters(max_codepoint=0x7F),
    st.characters(min_codepoint=0x80, max_codepoint=0xFFFF),
    st.characters(min_codepoint=0x10000),
    st.characters(categories=["Cs"]),
)
DRAWN_LABELS = st.text(LABEL_CHARACTERS, min_size=1, max_size=5).filter(is_csv_label)


@st.composite
def escaped_sets(draw) -> HistogramSet:
    """A small set over drawn labels; its members permute one count row."""
    labels = draw(st.lists(DRAWN_LABELS, min_size=1, max_size=4, unique=True))
    size = len(labels)
    first = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size).filter(any))
    rows = [first, *draw(st.lists(st.permutations(first), max_size=2))]
    return HistogramSet.from_counts(Alphabet(tuple(labels)), rows)


class TestWriter:
    """The artifact writers are ``json.dumps(tree, indent=2)``, byte for byte."""

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_fixture_and_random_sets(self, mode, e1, e2, e3, e4):
        sets = [e1, e2, e3, e4] + [random_histogram_set(random.Random(seed)) for seed in range(300)]
        for histograms in sets:
            assert_written_as_json_dumps(histograms, mode)

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_escaped_labels(self, mode):
        alphabet = Alphabet(('q"uote', "back\\slash", "in\tner", "é", "字"))
        histograms = HistogramSet.from_counts(alphabet, [(3, 1, 0, 2, 1), (0, 2, 2, 1, 2)])
        assert_written_as_json_dumps(histograms, mode)

    @settings(max_examples=40, deadline=None)
    @given(escaped_sets())
    def test_drawn_labels_are_written_as_json_dumps(self, histograms):
        for mode in ("rational", "float"):
            profile = solve_profile(histograms, mode)
            report = score_profile(profile, histograms)
            for text, read, written in (
                (dumps_histogram_set(histograms), histogram_set_from_json, histograms),
                (dumps_profile(profile), profile_from_json, profile),
                (dumps_score_report(report), dict, score_report_to_json(report)),
            ):
                tree = json.loads(text)
                assert text == json.dumps(tree, indent=2) + "\n"
                assert read(tree) == written

    @pytest.mark.parametrize("mode", ["rational", "float"])
    @pytest.mark.parametrize(
        "labels, rows",
        [("a", [(5,)]), ("a", [(5,), (5,)]), ("abc", [(3, 1, 2)])],
        ids=["one-symbol-one-member", "one-symbol", "one-member"],
    )
    def test_one_symbol_and_one_member_sets(self, mode, labels, rows):
        assert_written_as_json_dumps(make_set(labels, rows), mode)

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_null_ratios_at_a_zero_covering_value(self, mode):
        tree = assert_written_as_json_dumps(make_set("ab", [(6, 0)]), mode)
        assert tree["samples"][0]["irrelevance_ratio"] is None

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_null_ratios_at_a_round_off_zero_covering_value(self, mode):
        histograms = make_set(
            "abcdef", [(0, 2, 1, 0, 1, 0), (1, 1, 0, 1, 1, 0), (3, 0, 1, 0, 0, 0), (0, 2, 1, 1, 0, 0)]
        )
        tree = assert_written_as_json_dumps(histograms, mode)
        assert all(row["irrelevance_ratio"] is None for row in tree["samples"])
        assert all(row["relevance_ratio"] is not None for row in tree["samples"])

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_an_empty_report_lists_no_samples(self, mode):
        one = Field.for_mode(mode).one
        report = ScoreReport(Alphabet(("a", "b")), 2, mode, one, one, (), ([], 1), ([], 1), (), ())
        text = dumps_score_report(report)
        assert text == json.dumps(score_report_to_json(report), indent=2) + "\n"
        assert '"samples": []' in text

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_integer_and_zero_scores(self, mode, e1, e2):
        five = score_profile(solve_profile(e2, mode), make_set("ab", [(i, 10 - i) for i in range(11)]))
        zero = score_profile(solve_profile(e1, mode), make_set("ab", [(0, 10), (10, 0)]))
        for report, score in ((five, '"5"'), (zero, '"0"')):
            text = dumps_score_report(report)
            assert text == json.dumps(score_report_to_json(report), indent=2) + "\n"
            assert mode == "float" or f'"relevance": {score},' in text

    @pytest.mark.parametrize(
        "name, mode",
        [
            ("mixed", "rational"),
            ("dominant", "rational"),
            ("dominant", "float"),
            ("beyond-float", "rational"),
        ],
    )
    def test_a_set_at_a_huge_sample_length(self, name, mode):
        tree = assert_written_as_json_dumps(make_set("abc", HUGE_T_SETS[name]), mode)
        if mode == "rational":
            assert max(len(row["relevance_ratio"]) for row in tree["samples"]) > 24


class TestProfiles:
    def test_round_trip_is_exact(self, tmp_path, e4):
        profile = solve_profile(e4)
        path = tmp_path / "p.json"
        save_profile(profile, str(path))
        loaded = load_profile(str(path))
        assert loaded == profile
        assert dumps_profile(loaded) == path.read_text()

    def test_e4_profile_contents(self, e4):
        profile = solve_profile(e4)
        assert profile.supporting.alpha == 3
        assert profile.covering.alpha == 1
        assert profile.supporting.reduction_trace.eliminated == ("c", "b")
        assert profile.covering.reduction_trace.eliminated == ("a",)

    def test_only_straddling_binary_sets_take_the_closed_form(self, e1, e2):
        # E1 is dominant: the reduction eliminates one symbol in pass 1
        profile = solve_profile(e1)
        assert profile.supporting.reduction_trace == ReductionTrace(
            (ReductionStep("b", "supporting", 1),), ("a",)
        )
        assert profile.covering.reduction_trace == ReductionTrace(
            (ReductionStep("a", "covering", 1),), ("b",)
        )
        assert profile.supporting.alpha == 6
        assert profile.covering.alpha == 4
        # E2 straddles: the closed form runs and records no reduction
        profile = solve_profile(e2)
        assert profile.supporting.reduction_trace.steps == ()
        assert profile.covering.reduction_trace.steps == ()
        assert profile.supporting.alpha == profile.covering.alpha == 5

    def test_tampered_profile_fails_certification(self, tmp_path, e1):
        path = tmp_path / "p.json"
        save_profile(solve_profile(e1), str(path))
        data = json.loads(path.read_text())
        data["supporting"]["alpha"] = "7"
        path.write_text(json.dumps(data))
        with pytest.raises(CertificationFailure):
            load_profile(str(path))

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_histograms_that_no_longer_match_the_digest_fail_the_load(self, tmp_path, mode):
        # the edited member still meets both certificates: only the digest tells
        data = profile_to_json(solve_profile(make_set("abc", STALE_DIGEST_ROWS), mode))
        data["histograms"][0] = [5, 0, 1]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        with pytest.raises(CertificationFailure, match="stored input_sha256 does not match"):
            load_profile(str(path))
        del data["provenance"]  # no stored digest, nothing to compare
        path.write_text(json.dumps(data))
        loaded = load_profile(str(path))
        assert loaded.input_digest == "" and loaded.histograms.count_rows()[0] == (5, 0, 1)

    def test_alpha_nudged_below_the_pairing_denominator_fails_the_load(self, tmp_path):
        # the load compares integer pairing numerators over D, the lcm of the
        # weight's denominators, with alpha by cross-multiplying; a stored
        # alpha off by less than 1/D must still fail it
        path = tmp_path / "p.json"
        nudged = 0
        for seed in range(40):
            histograms = random_histogram_set(
                random.Random(seed), max_symbols=6, max_members=8, max_length=30
            )
            profile = solve_profile(histograms)
            for problem in ("supporting", "covering"):
                solution = getattr(profile, problem)
                denominator = math.lcm(*(v.denominator for v in solution.weight.values))
                if denominator == 1:
                    continue
                nudged += 1
                for nudge in (
                    Fraction(1, 2 * denominator),
                    Fraction(-1, 3 * denominator),
                    Fraction(1, 7 * denominator**2 + 1),
                ):
                    data = profile_to_json(profile)
                    data[problem]["alpha"] = str(solution.alpha + nudge)
                    path.write_text(json.dumps(data))
                    with pytest.raises(CertificationFailure):
                        load_profile(str(path))
        assert nudged > 20

    @pytest.mark.parametrize("name", ["e3", "e4"])
    def test_solve_and_load_pair_once_per_problem(self, tmp_path, monkeypatch, request, name):
        histograms = request.getfixturevalue(name)
        calls = []
        pairings = Field.pairings

        def counted(field, scaled, rows):
            numerators, _denominator = scaled
            calls.append(len(numerators))
            return pairings(field, scaled, rows)

        monkeypatch.setattr(Field, "pairings", counted)
        path = tmp_path / "p.json"
        profile = solve_profile(histograms)
        # per problem: the weight (one entry per symbol) with every member,
        # then the dual (one entry per member) with every symbol
        symbols, members = len(histograms.alphabet), len(histograms.members)
        assert symbols != members
        assert calls == [symbols, members] * 2
        save_profile(profile, str(path))
        calls.clear()
        load_profile(str(path))
        assert calls == [symbols, members] * 2

    @pytest.mark.parametrize("name", ["e3", "e4"])
    def test_solve_and_write_format_each_count_once(self, monkeypatch, request, name):
        histograms = request.getfixturevalue(name)
        formatted = []
        row_texts = HistogramSet._row_texts.func

        def counted(histogram_set):
            formatted.append(len(histogram_set.members))
            return row_texts(histogram_set)

        texts = cached_property(counted)
        texts.__set_name__(HistogramSet, "_row_texts")
        monkeypatch.setattr(HistogramSet, "_row_texts", texts)
        profile = solve_profile(histograms)
        text = dumps_profile(profile)
        # the digest formats each member once, and the writer reuses those texts
        assert formatted == [len(histograms.members)]
        assert text == json.dumps(profile_to_json(profile), indent=2) + "\n"

    def test_each_weight_and_dual_is_scaled_once(self, monkeypatch, tmp_path, e1, e2, e3, e4):
        # the weight and the dual keep the numerators their check computed:
        # certifying, writing, loading and scoring scale neither again, and
        # the certificate's uniform bound is the one other call
        scaled, exact_runs = [], []
        real_scaled, real_pivoting = Field.scaled, histrel.simplex._optimal_dictionary

        def counted(field, values):
            scaled.append(len(values))
            return real_scaled(field, values)

        def pivoting(lp, field):
            exact_runs.append(field.exact)
            return real_pivoting(lp, field)

        monkeypatch.setattr(Field, "scaled", counted)
        monkeypatch.setattr(histrel.simplex, "_optimal_dictionary", pivoting)
        rng = random.Random(14)
        sets = [e1, e2, e3, e4, *(random_histogram_set(random.Random(s), 6, 8, 30) for s in range(20))]
        sets += [random_histogram_set(rng, 6, 8, 10**12) for _ in range(8)]
        path, fallbacks = str(tmp_path / "p.json"), 0
        for histograms in sets:
            scaled.clear()
            exact_runs.clear()
            profile = solve_profile(histograms)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(dumps_profile(profile))
            # exact pivoting scales its final dictionary once
            assert len(scaled) == 6 + sum(exact_runs)
            fallbacks += sum(exact_runs)
            scaled.clear()
            score_profile(load_profile(path), histograms)
            assert len(scaled) == 6
        assert fallbacks > 0

    def test_float_profile_round_trips(self, tmp_path, e4):
        profile = solve_profile(e4, "float")
        path = tmp_path / "p.json"
        save_profile(profile, str(path))
        loaded = load_profile(str(path))
        assert loaded.supporting.alpha == pytest.approx(3.0, abs=1e-9)
        assert dumps_profile(loaded) == path.read_text()


class TestScoring:
    def test_e1_profile_scores(self, e1):
        profile = solve_profile(e1)
        samples = make_set("ab", [(5, 5), (7, 3)])
        report = score_profile(profile, samples)
        first, second = report.rows
        assert first.relevance == 5 and not first.meets_support
        assert first.irrelevance == 5 and not first.within_cover
        assert second.relevance == 7 and second.meets_support
        assert second.irrelevance == 3 and second.within_cover
        assert first.relevance_ratio == Fraction(5, 6)

    def test_e2_profile_scores_everything_at_five(self, e2):
        profile = solve_profile(e2)
        samples = make_set("ab", [(i, 10 - i) for i in range(11)])
        report = score_profile(profile, samples)
        assert all(row.relevance == 5 and row.irrelevance == 5 for row in report.rows)

    def test_alphabet_mismatch(self, e1):
        profile = solve_profile(e1)
        with pytest.raises(AlphabetMismatch):
            score_profile(profile, make_set("xy", [(7, 3)]))

    def test_length_mismatch(self, e1):
        profile = solve_profile(e1)
        with pytest.raises(LengthMismatch):
            score_profile(profile, make_set("ab", [(2, 3)]))

    def test_zero_covering_value_omits_the_ratio(self):
        profile = solve_profile(make_set("ab", [(6, 0)]))
        report = score_profile(profile, make_set("ab", [(4, 2)]))
        assert report.rows[0].irrelevance_ratio is None
        assert dumps_score_report(report)  # serializes despite the null

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_round_off_zero_covering_value_omits_the_ratio(self, mode):
        # symbol f never occurs, so the covering value is 0; the float LP
        # returns it as 2.2e-16, which must not turn into finite ratios
        histograms = make_set(
            "abcdef", [(0, 2, 1, 0, 1, 0), (1, 1, 0, 1, 1, 0), (3, 0, 1, 0, 0, 0), (0, 2, 1, 1, 0, 0)]
        )
        profile = solve_profile(histograms, mode)
        assert abs(profile.covering.alpha) <= FLOAT_EPS
        report = score_profile(profile, histograms)
        assert all(row.irrelevance_ratio is None for row in report.rows)
        assert all(row.relevance_ratio is not None for row in report.rows)

    def test_tight_members_are_the_members_scoring_the_value(self):
        # the profile's tight sets and the report's scores compare with
        # alpha through the same Field.gaps, exactly in rational mode
        for seed in range(100):
            hs = random_histogram_set(random.Random(seed), 6, 8, 30)
            profile = solve_profile(hs)
            rows = score_profile(profile, hs).rows
            sup, cov = profile.supporting, profile.covering
            assert sup.tight_members == tuple(i for i, r in enumerate(rows) if r.relevance == sup.alpha)
            assert cov.tight_members == tuple(i for i, r in enumerate(rows) if r.irrelevance == cov.alpha)

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_rows_hold_the_scores_ratios_and_flags(self, mode):
        tol = 0 if mode == "rational" else FLOAT_EPS

        def ratio(score, alpha):
            if abs(alpha) <= tol:
                return None
            return Fraction(score, alpha) if mode == "rational" else score / alpha

        for seed in range(300):
            hs = random_histogram_set(random.Random(seed))
            profile = solve_profile(hs, mode)
            sup, cov = profile.supporting, profile.covering
            report = score_profile(profile, hs)
            assert report.rows is report.rows
            assert [row.index for row in report.rows] == list(range(1, len(hs.members) + 1))
            for row, sample in zip(report.rows, hs.members, strict=True):
                relevance = relevance_score(sample, sup.weight)
                irrelevance = irrelevance_score(sample, cov.weight)
                assert row.histogram == sample.counts
                assert repr(row.relevance) == repr(relevance)
                assert repr(row.irrelevance) == repr(irrelevance)
                assert repr(row.relevance_ratio) == repr(ratio(relevance, sup.alpha))
                assert repr(row.irrelevance_ratio) == repr(ratio(irrelevance, cov.alpha))
                assert row.meets_support == (sup.alpha - relevance <= tol)
                assert row.within_cover == (irrelevance - cov.alpha <= tol)

    def test_float_profiles_flag_every_own_member(self):
        # float values carry rounding error; the flags accept what certify accepts
        for seed in range(20):
            hs = random_histogram_set(
                random.Random(seed), max_symbols=6, max_members=8, max_length=30
            )
            report = score_profile(solve_profile(hs, "float"), hs)
            assert all(row.meets_support and row.within_cover for row in report.rows), seed


class TestCli:
    def run(self, *argv) -> int:
        return main(list(argv))

    def test_pipeline_matches_in_process_results(self, tmp_path, e1):
        samples = tmp_path / "e1.csv"
        samples.write_text(E1_CSV)
        hs_path = tmp_path / "hs.json"
        profile_path = tmp_path / "profile.json"
        scores_path = tmp_path / "scores.json"

        assert self.run("ingest", str(samples), "-o", str(hs_path)) == 0
        assert load_histogram_set(str(hs_path)) == e1

        assert self.run("solve", str(hs_path), "-o", str(profile_path)) == 0
        assert load_profile(str(profile_path)) == solve_profile(e1)

        assert self.run("score", str(profile_path), str(samples), "-o", str(scores_path)) == 0
        scored = json.loads(scores_path.read_text())
        assert [row["relevance"] for row in scored["samples"]] == ["7", "6"]
        assert all(row["meets_support"] for row in scored["samples"])

    def test_exit_codes(self, tmp_path):
        bad_length = tmp_path / "bad.csv"
        bad_length.write_text("a,b\na,b,a\n")
        assert self.run("ingest", str(bad_length)) == EXIT_CODES["length-mismatch"]

        empty = tmp_path / "empty.json"
        empty.write_text('{"alphabet": ["a"], "sample_length": 1, "histograms": []}')
        assert self.run("solve", str(empty)) == EXIT_CODES["empty-set"]

        stray = tmp_path / "stray.csv"
        stray.write_text("a,z\n")
        assert self.run("ingest", str(stray), "--alphabet", "a,b") == EXIT_CODES["unknown-symbol"]

        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        assert self.run("solve", str(garbled)) == EXIT_CODES["parse"]

    @pytest.mark.parametrize(
        "text",
        ['{"alphabet": ["a", "b"], "sample_length": 3, "histograms": [[2, 1], [1, 2]]}', "a,b,a\nb,b,a\n"],
        ids=["json", "csv"],
    )
    def test_a_byte_order_mark_changes_no_output_byte(self, tmp_path, capsys, text):
        outputs = []
        for encoding in ("utf-8", "utf-8-sig"):
            path = tmp_path / f"{encoding}.in"
            path.write_text(text, encoding=encoding)
            assert self.run("solve", str(path)) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["alphabet"] == ["a", "b"]

    def test_a_byte_order_mark_on_a_profile_changes_no_output_byte(self, tmp_path, capsys, e1):
        samples = tmp_path / "e1.csv"
        samples.write_text(E1_CSV)
        text = dumps_profile(solve_profile(e1))
        outputs = []
        for encoding in ("utf-8", "utf-8-sig"):
            path = tmp_path / f"{encoding}.json"
            path.write_text(text, encoding=encoding)
            assert self.run("score", str(path), str(samples)) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @staticmethod
    def one_error_line(capsys) -> str:
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize(
        "argv",
        [
            ["ingest", "{missing}"],
            ["solve", "{missing}"],
            ["score", "{missing}", "{csv}"],
            ["score", "{profile}", "{missing}"],
            ["verify", "{missing}"],
            ["solve", "{directory}"],
        ],
        ids=["ingest", "solve", "score-profile", "score-samples", "verify", "directory"],
    )
    def test_an_unreadable_input_is_a_usage_error_naming_it(self, tmp_path, capsys, e1, argv):
        paths = {
            "missing": str(tmp_path / "missing.json"),
            "csv": str(tmp_path / "e1.csv"),
            "profile": str(tmp_path / "p.json"),
            "directory": str(tmp_path),
        }
        (tmp_path / "e1.csv").write_text(E1_CSV)
        save_profile(solve_profile(e1), paths["profile"])
        argv = [arg.format(**paths) for arg in argv]
        assert self.run(*argv) == EXIT_CODES["usage"]
        unreadable = paths["directory"] if argv[1] == paths["directory"] else paths["missing"]
        assert unreadable in self.one_error_line(capsys)

    @pytest.mark.parametrize("target", ["missing/p.json", "out"], ids=["no-directory", "a-directory"])
    def test_an_unwritable_output_is_a_usage_error_naming_it(self, tmp_path, capsys, target):
        samples = tmp_path / "e1.csv"
        samples.write_text(E1_CSV)
        (tmp_path / "out").mkdir()
        output = str(tmp_path / target)
        assert self.run("solve", str(samples), "-o", output) == EXIT_CODES["usage"]
        err = self.one_error_line(capsys)
        assert f"'{output}'" in err and ".histrel-" not in err
        # no temporary file is left next to the output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["e1.csv", "out"]

    @pytest.mark.parametrize("failing", ["write", "flush"])
    @pytest.mark.parametrize("command", ["ingest", "solve", "score"])
    def test_a_failed_write_to_stdout_is_a_usage_error(
        self, tmp_path, monkeypatch, capsys, e1, command, failing
    ):
        class FullStdout:
            """A standard output on a full device, such as ``> /dev/full``:
            large outputs fail in ``write``, small ones when flushed."""

            def write(self, text):
                if failing == "write":
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return len(text)

            def flush(self):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        samples, profile = tmp_path / "e1.csv", tmp_path / "p.json"
        samples.write_text(E1_CSV)
        save_profile(solve_profile(e1), str(profile))
        argv = {
            "ingest": ["ingest", str(samples)],
            "solve": ["solve", str(samples)],
            "score": ["score", str(profile), str(samples)],
        }[command]
        monkeypatch.setattr("sys.stdout", FullStdout())
        assert self.run(*argv) == EXIT_CODES["usage"]
        err = self.one_error_line(capsys)
        assert "No space left on device" in err and "'<stdout>'" in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
    @pytest.mark.parametrize("size", ["small", "large"])
    @pytest.mark.parametrize("stdout", ["standard", "keeps-failed-bytes"])
    def test_a_process_writing_to_a_full_device_exits_2(self, tmp_path, stdout, size):
        """``histrel ingest samples.csv > /dev/full`` as a process, whose
        interpreter flushes stdout again at exit. The second stdout is a
        buffered writer that keeps the bytes of a failed write, so that exit
        flush retries them."""
        samples = tmp_path / "samples.csv"
        # a small output fails when flushed, a large one already in write
        samples.write_text(E1_CSV * (1 if size == "small" else 200))
        prelude = {"standard": "", "keeps-failed-bytes": KEEPS_FAILED_BYTES}[stdout]
        code = prelude + "from histrel.cli import console_main\nconsole_main()\n"
        src = os.path.dirname(os.path.dirname(histrel.verify.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        with open("/dev/full", "wb") as full:
            done = subprocess.run(
                [sys.executable, "-W", "error", "-c", code, "ingest", str(samples)],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
                timeout=60,
            )
        assert done.stderr == "error: No space left on device: '<stdout>'\n"
        assert done.returncode == EXIT_CODES["usage"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
    @pytest.mark.parametrize("stdout", ["standard", "keeps-failed-bytes"])
    def test_the_module_entry_point_on_a_full_device_exits_2(self, tmp_path, stdout):
        """``python -m histrel.cli ingest samples.csv > /dev/full``: after the
        failed write, stdout's descriptor points at the null device, so the
        interpreter's exit flush neither fails again nor reports it. The
        second stdout, installed by a ``sitecustomize`` module, keeps the
        bytes of a failed write, so that exit flush retries them."""
        samples = tmp_path / "samples.csv"
        samples.write_text(E1_CSV)
        src = os.path.dirname(os.path.dirname(histrel.verify.__file__))
        paths = [src, os.environ.get("PYTHONPATH", "")]
        if stdout == "keeps-failed-bytes":
            (tmp_path / "sitecustomize.py").write_text(KEEPS_FAILED_BYTES)
            paths.insert(0, str(tmp_path))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        with open("/dev/full", "wb") as full:
            done = subprocess.run(
                [sys.executable, "-W", "error", "-m", "histrel.cli", "ingest", str(samples)],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
                timeout=60,
            )
        assert done.returncode == EXIT_CODES["usage"]
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "'<stdout>'" in lines[0]
        assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr

    def test_a_bare_histrel_error_exits_unexpected(self, tmp_path, monkeypatch, capsys):
        assert _exit_code_for(HistrelError("no subclass")) == EXIT_CODES["unexpected"]

        def fail(*args):
            raise HistrelError("no subclass")

        monkeypatch.setattr("histrel.cli.ingest_samples", fail)
        assert self.run("ingest", str(tmp_path / "e1.csv")) == EXIT_CODES["unexpected"]
        assert self.one_error_line(capsys) == "error: no subclass\n"

    def test_an_os_error_naming_no_file_is_raised(self, tmp_path, monkeypatch, capsys):
        def fail(*args):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr("histrel.cli.ingest_samples", fail)
        with pytest.raises(OSError) as raised:
            self.run("ingest", str(tmp_path / "e1.csv"))
        assert raised.value.errno == errno.EIO and raised.value.filename is None
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["solve", "score-profile", "score-samples"])
    def test_an_input_that_is_not_utf8_is_a_parse_error(self, tmp_path, capsys, e1, command):
        latin = tmp_path / "latin.csv"
        latin.write_bytes(b"\xff\xfea,b\n")
        samples, profile = tmp_path / "e1.csv", tmp_path / "p.json"
        samples.write_text(E1_CSV)
        save_profile(solve_profile(e1), str(profile))
        argv = {
            "solve": ["solve", str(latin)],
            "score-profile": ["score", str(latin), str(samples)],
            "score-samples": ["score", str(profile), str(latin)],
        }[command]
        assert self.run(*argv) == EXIT_CODES["parse"]
        assert "not UTF-8" in self.one_error_line(capsys)

    def test_mode_flag_and_environment_default(self, tmp_path, monkeypatch, e1):
        hs_path = tmp_path / "hs.json"
        save_histogram_set(e1, str(hs_path))
        out = tmp_path / "p.json"
        assert self.run("solve", str(hs_path), "--mode", "float", "-o", str(out)) == 0
        assert json.loads(out.read_text())["mode"] == "float"

        # the parser is built once per process; the variable is read on every call
        monkeypatch.setenv("HISTREL_MODE", "float")
        assert self.run("solve", str(hs_path), "-o", str(out)) == 0
        assert json.loads(out.read_text())["mode"] == "float"
        monkeypatch.delenv("HISTREL_MODE")
        assert self.run("solve", str(hs_path), "-o", str(out)) == 0
        assert json.loads(out.read_text())["mode"] == "rational"
        monkeypatch.setenv("HISTREL_MODE", "flaot")
        with pytest.raises(SystemExit) as exc:
            self.run("solve", str(hs_path), "-o", str(out))
        assert exc.value.code == EXIT_CODES["usage"]

    def test_verify_subcommand_smoke(self, capsys):
        assert self.run("verify", "--trials", "3", "--seed", "5") == 0
        out = capsys.readouterr().out
        assert "verification: PASS" in out

    @pytest.mark.parametrize(
        "flag, value, code",
        [
            ("--max-v", "7", "cap-exceeded"),
            ("--max-m", "9", "cap-exceeded"),
            ("--max-v", "1", "validation"),
            ("--max-m", "0", "validation"),
            ("--max-t", "0", "validation"),
            ("--trials", "-3", "validation"),
        ],
    )
    def test_verify_bounds_are_checked(self, capsys, flag, value, code):
        status = self.run("verify", "--trials", "1", flag, value)
        assert status == EXIT_CODES[code]
        assert f"({flag}) " in self.one_error_line(capsys)

    def test_verify_on_a_set_beyond_the_oracle_caps(self, tmp_path, capsys):
        path = tmp_path / "seven.csv"
        path.write_text("a,b,c,d,e,f,g\n")
        assert self.run("verify", str(path)) == EXIT_CODES["cap-exceeded"]
        assert "oracle handles at most 6 symbols, got 7" in self.one_error_line(capsys)

    def test_tolerance_flag_is_gone(self, tmp_path, e1):
        hs_path = tmp_path / "hs.json"
        save_histogram_set(e1, str(hs_path))
        with pytest.raises(SystemExit) as exc:
            self.run("solve", str(hs_path), "--mode", "float", "--tol", "0.1")
        assert exc.value.code == EXIT_CODES["usage"]

    def test_score_of_a_profile_with_a_stale_digest_is_a_certification_failure(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        data = profile_to_json(solve_profile(make_set("abc", STALE_DIGEST_ROWS)))
        data["histograms"][0] = [5, 0, 1]
        path.write_text(json.dumps(data))
        samples = tmp_path / "s.csv"
        samples.write_text("a,a,b,c,a,a\n")
        assert self.run("score", str(path), str(samples)) == EXIT_CODES["certification-failure"]
        assert "stored input_sha256 does not match" in self.one_error_line(capsys)

    def test_verify_on_a_one_symbol_set(self, tmp_path, capsys):
        path = tmp_path / "hs.json"
        path.write_text('{"alphabet": ["a"], "sample_length": 3, "histograms": [[3], [3]]}')
        assert self.run("verify", str(path)) == 0
        assert "verification: PASS" in capsys.readouterr().out

    def test_number_labels_in_a_histogram_file_are_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "hs.json"
        path.write_text('{"alphabet": ["a", 1], "sample_length": 2, "histograms": [[1, 1]]}')
        assert self.run("solve", str(path)) == EXIT_CODES["parse"]
        assert "'alphabet' entry 1" in capsys.readouterr().err

    def test_verify_counts_an_uncertified_solution_as_a_failure(self, monkeypatch, capsys):
        solve = histrel.verify.oracle_solve

        def uniform_weight(histograms, problem):
            alpha, _, dual = solve(histograms, problem)
            return alpha, Weight.uniform(histograms.alphabet), dual

        monkeypatch.setattr(histrel.verify, "oracle_solve", uniform_weight)
        assert self.run("verify", "--trials", "1") == EXIT_CODES["verification-failed"]
        captured = capsys.readouterr()
        assert "FAIL certified-solutions" in captured.out
        assert "E1: supporting solution fails" in captured.out
        assert "verification: FAIL" in captured.out
        assert captured.err == ""

    def test_float_weight_off_the_simplex_is_a_certification_failure(self, tmp_path, capsys):
        # the 20th draw (5 symbols, 8 members, |T| = 77 605 488): float round-off
        # puts a member weight of the supporting solve below -FLOAT_EPS
        rng = random.Random(13)
        for _ in range(20):
            histograms = random_histogram_set(rng, 6, 8, 10**8)
        path = tmp_path / "hs.json"
        save_histogram_set(histograms, str(path))
        solved = self.run("solve", str(path), "--mode", "float")
        assert solved == EXIT_CODES["certification-failure"]
        assert "supporting solution fails: dual-simplex" in capsys.readouterr().err
        # verification counts it as a failed trial instead of stopping
        assert self.run("verify", str(path)) == EXIT_CODES["verification-failed"]
        captured = capsys.readouterr()
        assert "input instance: supporting solution fails: dual-simplex" in captured.out
        assert captured.err == ""

    def test_verify_checks_a_set_beyond_the_float_range_in_rational_mode(self, tmp_path, capsys):
        t = 10**400
        path = tmp_path / "big.json"
        save_histogram_set(make_set("abc", [(t - 5, 3, 2), (1, t - 2, 1)]), str(path))
        assert self.run("verify", str(path)) == EXIT_CODES["verification-failed"]
        lines = capsys.readouterr().out.splitlines()
        failed = [line for line in lines if line.startswith("FAIL")]
        assert failed == ["FAIL float-agreement-supporting: 0/1", "FAIL float-agreement-covering: 0/1"]
        assert "     - input instance: counts exceed the float range; use rational mode" in lines
        assert "PASS alpha-match-covering: 1/1" in lines
        assert "PASS certified-solutions: 1/1" in lines

    @pytest.mark.parametrize(
        "label",
        ["", " a", "a ", "a\n", "a\rb", "a\u2028b", "a,b", "\ud800"],
        ids=[
            "empty", "leading", "trailing", "newline", "return", "line-separator", "comma",
            "surrogate",
        ],
    )
    def test_labels_no_sample_csv_can_carry_are_a_parse_error(self, tmp_path, capsys, label):
        path = tmp_path / "hs.json"
        data = {"alphabet": [label, "c"], "sample_length": 2, "histograms": [[1, 1]]}
        path.write_text(json.dumps(data))
        assert self.run("solve", str(path)) == EXIT_CODES["parse"]
        assert f"'alphabet' entry {label!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ingest", "solve"])
    # "c\udcff" is how Python decodes the byte 0xff of a non-UTF-8 argument
    @pytest.mark.parametrize("label", ["c\x1cd", "c\nd", "c\u2028d", "c\udcff"])
    def test_an_alphabet_option_no_file_can_carry_is_a_parse_error(
        self, tmp_path, capsys, command, label
    ):
        output = tmp_path / "x.json"
        missing = str(tmp_path / "missing.csv")  # the labels are checked before any file is read
        argv = (command, missing, "--alphabet", f"a,b,{label}", "-o", str(output))
        assert self.run(*argv) == EXIT_CODES["parse"]
        assert f"'--alphabet' entry {label!r}" in self.one_error_line(capsys)
        assert not output.exists()

    @pytest.mark.parametrize("command", ["ingest", "solve"])
    @pytest.mark.parametrize("spec", ["a,,b", "a,b,", ",", ""], ids=["inner", "trailing", "comma", "blank"])
    def test_an_empty_alphabet_option_label_is_a_parse_error(self, tmp_path, capsys, command, spec):
        samples = tmp_path / "s.csv"
        samples.write_text("a,b\nb,a\n")
        output = tmp_path / "x.json"
        argv = (command, str(samples), "--alphabet", spec, "-o", str(output))
        assert self.run(*argv) == EXIT_CODES["parse"]
        assert "'--alphabet' entry ''" in self.one_error_line(capsys)
        assert not output.exists()

    @pytest.mark.parametrize("existing", [True, False], ids=["existing", "dangling"])
    def test_an_output_symlink_is_written_through(self, tmp_path, existing):
        # like open(path, "w"): the link stays a link, and its target, in
        # another directory here, gets the bytes and keeps its mode
        samples = tmp_path / "e1.csv"
        samples.write_text(E1_CSV)
        (tmp_path / "elsewhere").mkdir()
        target = tmp_path / "elsewhere" / "target.json"
        if existing:
            target.write_text("")
            target.chmod(0o640)
        link = tmp_path / "link.json"
        link.symlink_to(target)
        assert self.run("solve", str(samples), "-o", str(link)) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == dumps_profile(solve_profile(ingest_samples(str(samples))))
        if existing:
            assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["e1.csv", "elsewhere", "link.json"]
        assert [p.name for p in target.parent.iterdir()] == ["target.json"]

    @pytest.mark.skipif(os.geteuid() == 0, reason="open(path, 'w') succeeds for root too")
    def test_a_read_only_output_is_a_usage_error_naming_it(self, tmp_path, capsys):
        samples = tmp_path / "e1.csv"
        samples.write_text(E1_CSV)
        output = tmp_path / "read-only.json"
        output.write_text("kept")
        output.chmod(0o444)
        assert self.run("solve", str(samples), "-o", str(output)) == EXIT_CODES["usage"]
        assert f"'{output}'" in self.one_error_line(capsys)
        assert output.read_text() == "kept"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["e1.csv", "read-only.json"]

    def test_a_read_only_output_is_refused_before_open_is_tried(self, tmp_path, capsys, monkeypatch):
        # open(path, "w") succeeds for root, so the writer asks os.access first;
        # reporting the target unwritable runs that refusal for any user
        samples = tmp_path / "e1.csv"
        samples.write_text(E1_CSV)
        output = tmp_path / "read-only.json"
        output.write_text("kept")
        refused, access = os.path.realpath(output), os.access
        monkeypatch.setattr(os, "access", lambda path, mode: path != refused and access(path, mode))
        assert self.run("solve", str(samples), "-o", str(output)) == EXIT_CODES["usage"]
        err = self.one_error_line(capsys)
        assert f"'{output}'" in err and os.strerror(errno.EACCES) in err
        assert output.read_text() == "kept"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["e1.csv", "read-only.json"]

    @pytest.mark.parametrize("umask, created", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_a_written_file_gets_the_mode_open_would_give_it(self, tmp_path, umask, created):
        # a new file gets 0o666 less the umask, and an existing file keeps its mode
        samples = tmp_path / "e1.csv"
        samples.write_text(E1_CSV)
        existing = tmp_path / "existing.json"
        existing.write_text("")
        existing.chmod(0o640)
        previous = os.umask(umask)
        try:
            for output in ("new.json", "existing.json"):
                assert self.run("solve", str(samples), "-o", str(tmp_path / output)) == 0
        finally:
            os.umask(previous)
        assert stat.S_IMODE((tmp_path / "new.json").stat().st_mode) == created
        assert stat.S_IMODE(existing.stat().st_mode) == 0o640

    def test_profile_with_an_empty_label_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        histograms = HistogramSet.from_counts(Alphabet(("", "b")), [(1, 1)])
        save_profile(solve_profile(histograms), str(path))
        samples = tmp_path / "s.csv"
        samples.write_text("b,b\n")
        assert self.run("score", str(path), str(samples)) == EXIT_CODES["parse"]
        assert "'alphabet' entry ''" in capsys.readouterr().err

    def test_verify_on_a_single_instance(self, tmp_path, capsys, e4):
        hs_path = tmp_path / "hs.json"
        save_histogram_set(e4, str(hs_path))
        assert self.run("verify", str(hs_path)) == 0
        assert "alpha-match-supporting" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "mode, damage",
        [
            ("rational", lambda p: p.pop("alphabet")),
            ("rational", lambda p: p["supporting"].pop("tight_members")),
            ("rational", lambda p: p["covering"].update(alpha="abc")),
            ("float", lambda p: p["supporting"].update(alpha="nan?")),
            ("rational", lambda p: p.update(covering=5)),
        ],
        ids=["no-alphabet", "no-tight-members", "rational-alpha", "float-alpha", "not-an-object"],
    )
    def test_malformed_profile_is_a_parse_error(self, tmp_path, e1, mode, damage):
        path = tmp_path / "p.json"
        data = json.loads(dumps_profile(solve_profile(e1, mode)))
        damage(data)
        path.write_text(json.dumps(data))
        samples = tmp_path / "e1.csv"
        samples.write_text(E1_CSV)
        assert self.run("score", str(path), str(samples)) == EXIT_CODES["parse"]

    def test_profile_that_is_not_an_object_is_a_parse_error(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("[1, 2]")
        samples = tmp_path / "e1.csv"
        samples.write_text(E1_CSV)
        assert self.run("score", str(path), str(samples)) == EXIT_CODES["parse"]

    @pytest.mark.parametrize(
        "counts, length",
        [([[1.9, 1.1, 0]], 2), ([[True, 0]], 1), ([[1, 1]], 2.0)],
        ids=["fractional", "boolean", "float-length"],
    )
    def test_non_integer_counts_are_rejected(self, tmp_path, counts, length):
        path = tmp_path / "hs.json"
        alphabet = list("abc"[: len(counts[0])])
        path.write_text(
            json.dumps({"alphabet": alphabet, "sample_length": length, "histograms": counts})
        )
        assert self.run("solve", str(path)) == EXIT_CODES["parse"]

    def test_non_integer_profile_counts_are_rejected(self, tmp_path, e4):
        path = tmp_path / "p.json"
        data = json.loads(dumps_profile(solve_profile(e4)))
        data["histograms"][0] = [4.9, 1, 1]
        path.write_text(json.dumps(data))
        samples = tmp_path / "e4.csv"
        samples.write_text(E4_CSV)
        assert self.run("score", str(path), str(samples)) == EXIT_CODES["parse"]

    @pytest.mark.parametrize(
        "labels, rows",
        [
            ("abc", [[BIG, BIG, 1], [BIG + 1, BIG - 1, 1]]),
            ("abc", [[2 * BIG, 0, 1], [2 * BIG - 1, 1, 1]]),
            ("ab", [[BIG, BIG + 1], [BIG + 1, BIG]]),
        ],
        ids=["lp", "single-survivor", "binary"],
    )
    def test_counts_beyond_the_float_range(self, tmp_path, capsys, labels, rows):
        path = tmp_path / "big.json"
        hs = {"alphabet": list(labels), "sample_length": sum(rows[0]), "histograms": rows}
        path.write_text(json.dumps(hs))
        assert self.run("solve", str(path), "--mode", "float") == EXIT_CODES["numerical-failure"]
        assert "rational" in capsys.readouterr().err
        assert self.run("solve", str(path)) == 0
        assert json.loads(capsys.readouterr().out)["mode"] == "rational"

    def test_float_profile_with_counts_beyond_the_float_range(self, tmp_path, capsys, e4):
        data = json.loads(dumps_profile(solve_profile(e4, "float")))
        data.update(sample_length=6 * BIG, histograms=[[4 * BIG, BIG, BIG], [3 * BIG, 2 * BIG, BIG]])
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        # a profile file is also a histogram file of its own members
        assert self.run("score", str(path), str(path)) == EXIT_CODES["numerical-failure"]
        assert "rational" in capsys.readouterr().err

    def test_an_integer_beyond_the_digit_limit_is_a_parse_error(self, tmp_path, capsys):
        huge = "1" + "0" * 5000  # longer than int() reads from text by default
        path = tmp_path / "huge.json"
        path.write_text(
            '{"alphabet": ["a", "b"], "sample_length": 2%s, "histograms": [[%s, %s]]}'
            % (huge[1:], huge, huge)
        )
        for command in ("solve", "ingest"):
            assert self.run(command, str(path)) == EXIT_CODES["parse"]
            err = capsys.readouterr().err
            assert "invalid JSON: an integer has more than" in err
            assert "read as histogram JSON" in err

    def test_a_profile_holding_an_integer_beyond_the_digit_limit_is_a_parse_error(
        self, tmp_path, capsys, e4
    ):
        text = dumps_profile(solve_profile(e4))
        path = tmp_path / "p.json"
        path.write_text(text.replace('"sample_length": 6', '"sample_length": 6' + "0" * 5000, 1))
        samples = tmp_path / "e4.csv"
        samples.write_text(E4_CSV)
        assert self.run("score", str(path), str(samples)) == EXIT_CODES["parse"]
        assert "invalid JSON: an integer has more than" in capsys.readouterr().err

    def test_json_nested_too_deeply_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "nested.json"
        path.write_text('{"alphabet": %s, "sample_length": 1, "histograms": [[1]]}' % NESTED)
        for command in ("solve", "ingest"):
            assert self.run(command, str(path)) == EXIT_CODES["parse"]
            err = capsys.readouterr().err
            assert "invalid JSON: nested too deeply" in err
            assert "read as histogram JSON" in err

    def test_a_profile_nested_too_deeply_is_a_parse_error(self, tmp_path, capsys, e4):
        text = dumps_profile(solve_profile(e4))
        path = tmp_path / "p.json"
        path.write_text(text.replace('"sample_length": 6', '"sample_length": ' + NESTED, 1))
        samples = tmp_path / "e4.csv"
        samples.write_text(E4_CSV)
        assert self.run("score", str(path), str(samples)) == EXIT_CODES["parse"]
        assert "invalid JSON: nested too deeply" in capsys.readouterr().err

    def test_invalid_environment_mode_is_a_usage_error(self, tmp_path, monkeypatch, capsys, e1):
        hs_path = tmp_path / "hs.json"
        save_histogram_set(e1, str(hs_path))
        monkeypatch.setenv("HISTREL_MODE", "flaot")
        with pytest.raises(SystemExit) as exc:
            self.run("solve", str(hs_path))
        assert exc.value.code == EXIT_CODES["usage"]
        assert "HISTREL_MODE" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode, field, damage",
        [
            *[("rational", *case) for case in [
                ("supporting.reduction", lambda p: p["supporting"].update(reduction=5)),
                ("supporting.reduction.steps", lambda p: p["supporting"]["reduction"].update(steps=7)),
                (
                    "supporting.reduction.steps",
                    lambda p: p["supporting"]["reduction"].update(steps=[["a", "x"]]),
                ),
                ("provenance", lambda p: p.update(provenance=[])),
                ("alphabet", lambda p: p.update(alphabet=5)),
                ("'alphabet' entry 3", lambda p: p.update(alphabet=["a", "b", 3])),
                (
                    "supporting.reduction.steps",
                    lambda p: p["supporting"]["reduction"].update(steps=[[1, 1]]),
                ),
                (
                    "covering.reduction.surviving",
                    lambda p: p["covering"]["reduction"].update(surviving=["a", 2]),
                ),
                ("provenance.input_sha256", lambda p: p["provenance"].update(input_sha256=5)),
                ("'histograms' row 1", lambda p: p["histograms"].__setitem__(0, 5)),
                ("supporting.tight_members", lambda p: p["supporting"].update(tight_members=3)),
                ("supporting.weight", lambda p: p["supporting"].update(weight="1/3")),
                (
                    "covering.alternate_optima",
                    lambda p: p["covering"].update(alternate_optima="false"),
                ),
                ("mode", lambda p: p.update(mode="banana")),
                # E4's covering tight members are [0, 1], its supporting tight symbols [0]
                (
                    "'covering.tight_members' entry False is not a JSON integer",
                    lambda p: p["covering"].update(tight_members=[False, True]),
                ),
                (
                    "'covering.tight_members' entry 0.0 is not a JSON integer",
                    lambda p: p["covering"].update(tight_members=[0.0, 1]),
                ),
                (
                    "'supporting.tight_symbols' entry False is not a JSON integer",
                    lambda p: p["supporting"].update(tight_symbols=[False]),
                ),
                (
                    "'supporting.tight_symbols' entry '0' is not a JSON integer",
                    lambda p: p["supporting"].update(tight_symbols=["0"]),
                ),
                *[
                    (field, partial(trace_damage, reduction))
                    for field, reduction in TRACES_OFF_THE_ALPHABET.values()
                ],
            ]],
            *[(mode, *case) for mode in ("rational", "float") for case in NUMBER_DAMAGE.values()],
            *[
                (
                    "rational",
                    f"'supporting.weight' entry {text!r}",
                    partial(lambda text, p: p["supporting"]["weight"].__setitem__(0, text), text),
                )
                for text in UNWRITTEN_RATIONALS.values()
            ],
            ("float", "'supporting.alpha'", lambda p: p["supporting"].update(alpha=BIG)),
        ],
        ids=[
            "reduction",
            "steps",
            "step-entry",
            "provenance",
            "alphabet",
            "alphabet-entry",
            "step-symbol",
            "surviving-entry",
            "input-digest",
            "row",
            "tight-members",
            "weight",
            "alternate-optima",
            "unknown-mode",
            "tight-booleans",
            "tight-float",
            "tight-boolean",
            "tight-string",
            *TRACES_OFF_THE_ALPHABET,
            *[f"{mode}-{case}" for mode in ("rational", "float") for case in NUMBER_DAMAGE],
            *[f"rational-{case}-weight" for case in UNWRITTEN_RATIONALS],
            "float-alpha-beyond-the-float-range",
        ],
    )
    def test_wrong_typed_profile_field_is_a_parse_error(
        self, tmp_path, capsys, e4, mode, field, damage
    ):
        path = tmp_path / "p.json"
        data = json.loads(dumps_profile(solve_profile(e4, mode)))
        damage(data)
        path.write_text(json.dumps(data))
        samples = tmp_path / "e4.csv"
        samples.write_text(E4_CSV)
        assert self.run("score", str(path), str(samples)) == EXIT_CODES["parse"]
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "csv, surviving",
        [(STRADDLING_CSV, ["b"]), (E4_CSV, ["b", "c"])],
        ids=["straddling", "e4"],
    )
    def test_a_trace_eliminating_a_weighted_symbol_fails_certification(
        self, tmp_path, capsys, csv, surviving
    ):
        samples = tmp_path / "s.csv"
        samples.write_text(csv)
        data = json.loads(dumps_profile(solve_profile(ingest_samples(str(samples)))))
        trace_damage({"steps": [["a", 1]], "surviving": surviving}, data)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        assert self.run("score", str(path), str(samples)) == EXIT_CODES["certification-failure"]
        assert "supporting solution weighs eliminated symbol 'a'" in capsys.readouterr().err

    def test_stored_tight_sets_that_do_not_match_fail_certification(self, tmp_path, capsys):
        samples = tmp_path / "s.csv"
        samples.write_text(STRADDLING_CSV)
        data = json.loads(dumps_profile(solve_profile(ingest_samples(str(samples)))))
        assert data["supporting"]["tight_members"] == [0, 1]
        data["supporting"]["tight_members"] = [0]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        message = "stored tight sets for supporting do not match the data"
        with pytest.raises(CertificationFailure, match=message):
            load_profile(str(path))
        assert self.run("score", str(path), str(samples)) == EXIT_CODES["certification-failure"]
        assert message in self.one_error_line(capsys)

    def test_scoring_histogram_json_over_another_alphabet_is_an_alphabet_mismatch(
        self, tmp_path, capsys
    ):
        samples = tmp_path / "s.csv"
        samples.write_text(STRADDLING_CSV)
        profile = tmp_path / "p.json"
        assert self.run("solve", str(samples), "-o", str(profile)) == 0
        other = tmp_path / "other.json"
        other.write_text('{"alphabet": ["a", "c"], "sample_length": 3, "histograms": [[2, 1]]}')
        assert self.run("score", str(profile), str(other)) == EXIT_CODES["alphabet-mismatch"]
        assert "file alphabet ('a', 'c') differs from ('a', 'b')" in self.one_error_line(capsys)

    def test_a_profile_without_reduction_traces_still_loads(self, tmp_path, e4):
        data = json.loads(dumps_profile(solve_profile(e4)))
        for problem in ("supporting", "covering"):
            del data[problem]["reduction"]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        profile = load_profile(str(path))
        assert profile.supporting.reduction_trace == ReductionTrace((), ("a", "b", "c"))
