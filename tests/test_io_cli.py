from __future__ import annotations

import errno
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import partial

import pytest

import histrel.verify
from histrel import (
    Alphabet,
    AlphabetMismatch,
    CertificationFailure,
    EmptySet,
    HistogramSet,
    LengthMismatch,
    ParseError,
    ReductionStep,
    ReductionTrace,
    UnknownSymbol,
    Weight,
    ingest_samples,
    load_histogram_set,
    load_profile,
    save_histogram_set,
    save_profile,
    score_profile,
    solve_profile,
)
from histrel.cli import EXIT_CODES, main
from histrel.core import FLOAT_EPS, Field
from histrel.io import (
    _json_text,
    dumps_histogram_set,
    dumps_profile,
    dumps_score_report,
    histogram_set_to_json,
    profile_to_json,
    score_report_to_json,
)
from histrel.verify import random_histogram_set
from conftest import make_set

E1_CSV = "a,a,a,a,a,a,a,b,b,b\na,a,a,a,a,a,b,b,b,b\n"
E4_CSV = "a,a,a,a,b,c\na,a,a,b,b,c\n"
STRADDLING_CSV = "a,b,a\nb,b,a\n"  # (2, 1) and (1, 2): both games weigh a and b 1/2 each
BIG = 10**400  # beyond the float range

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

    def test_empty_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("\n\n")
        with pytest.raises(EmptySet):
            ingest_samples(str(path))

    def test_empty_token(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("a,,b\n")
        with pytest.raises(ParseError):
            ingest_samples(str(path))

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


def artifact_trees(histograms, mode) -> list:
    """The JSON trees of a set, its profile, and the report scoring its own members."""
    profile = solve_profile(histograms, mode)
    report = score_profile(profile, histograms)
    return [histogram_set_to_json(histograms), profile_to_json(profile), score_report_to_json(report)]


class TestWriter:
    """The artifact writer is ``json.dumps(tree, indent=2)``, byte for byte."""

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_fixture_and_random_sets(self, mode, e1, e2, e3, e4):
        sets = [e1, e2, e3, e4] + [random_histogram_set(random.Random(seed)) for seed in range(300)]
        for histograms in sets:
            for tree in artifact_trees(histograms, mode):
                assert _json_text(tree) == json.dumps(tree, indent=2)

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_escaped_labels(self, mode):
        alphabet = Alphabet(('q"uote', "back\\slash", "in\tner", "é", "字"))
        histograms = HistogramSet.from_counts(alphabet, [(3, 1, 0, 2, 1), (0, 2, 2, 1, 2)])
        for tree in artifact_trees(histograms, mode):
            assert _json_text(tree) == json.dumps(tree, indent=2)

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_null_ratios_at_a_zero_covering_value(self, mode):
        trees = artifact_trees(make_set("ab", [(6, 0)]), mode)
        assert trees[2]["samples"][0]["irrelevance_ratio"] is None
        for tree in trees:
            assert _json_text(tree) == json.dumps(tree, indent=2)

    def test_scalars_and_empty_containers(self):
        tree = {
            "floats": [float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 0.1],
            "mixed": [True, False, None, 7, -3, "s", 2.5, [], {}, (1, "t")],
            "empty": {},
            "nested": [[[]], {"k": [{}]}],
        }
        assert _json_text(tree) == json.dumps(tree, indent=2)


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
        prelude = {
            "standard": "",
            "keeps-failed-bytes": (
                "import io, sys\n"
                "class Raw(io.FileIO):\n"
                "    def write(self, data):\n"
                "        return super().write(data)\n"
                "sys.stdout = io.TextIOWrapper(io.BufferedWriter(Raw(1, 'w', closefd=False)))\n"
            ),
        }[stdout]
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
    def test_verify_bounds_are_checked(self, flag, value, code):
        status = self.run("verify", "--trials", "1", flag, value)
        assert status == EXIT_CODES[code]

    def test_tolerance_flag_is_gone(self, tmp_path, e1):
        hs_path = tmp_path / "hs.json"
        save_histogram_set(e1, str(hs_path))
        with pytest.raises(SystemExit) as exc:
            self.run("solve", str(hs_path), "--mode", "float", "--tol", "0.1")
        assert exc.value.code == EXIT_CODES["usage"]

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

    @pytest.mark.parametrize(
        "label",
        ["", " a", "a ", "a\n", "a\rb", "a\u2028b", "a,b"],
        ids=["empty", "leading", "trailing", "newline", "return", "line-separator", "comma"],
    )
    def test_labels_no_sample_csv_can_carry_are_a_parse_error(self, tmp_path, capsys, label):
        path = tmp_path / "hs.json"
        data = {"alphabet": [label, "c"], "sample_length": 2, "histograms": [[1, 1]]}
        path.write_text(json.dumps(data))
        assert self.run("solve", str(path)) == EXIT_CODES["parse"]
        assert f"'alphabet' entry {label!r}" in capsys.readouterr().err

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
        assert self.run("solve", str(path)) == EXIT_CODES["validation"]

    def test_non_integer_profile_counts_are_rejected(self, tmp_path, e4):
        path = tmp_path / "p.json"
        data = json.loads(dumps_profile(solve_profile(e4)))
        data["histograms"][0] = [4.9, 1, 1]
        path.write_text(json.dumps(data))
        samples = tmp_path / "e4.csv"
        samples.write_text(E4_CSV)
        assert self.run("score", str(path), str(samples)) == EXIT_CODES["validation"]

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

    def test_invalid_environment_mode_is_a_usage_error(self, tmp_path, monkeypatch, capsys, e1):
        hs_path = tmp_path / "hs.json"
        save_histogram_set(e1, str(hs_path))
        monkeypatch.setenv("HISTREL_MODE", "flaot")
        with pytest.raises(SystemExit) as exc:
            self.run("solve", str(hs_path))
        assert exc.value.code == EXIT_CODES["usage"]
        assert "HISTREL_MODE" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, damage",
        [
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
        ],
    )
    def test_wrong_typed_profile_field_is_a_parse_error(self, tmp_path, capsys, e4, field, damage):
        path = tmp_path / "p.json"
        data = json.loads(dumps_profile(solve_profile(e4)))
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

    def test_a_profile_without_reduction_traces_still_loads(self, tmp_path, e4):
        data = json.loads(dumps_profile(solve_profile(e4)))
        for problem in ("supporting", "covering"):
            del data[problem]["reduction"]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        profile = load_profile(str(path))
        assert profile.supporting.reduction_trace == ReductionTrace((), ("a", "b", "c"))
