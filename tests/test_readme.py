"""README claims that code can check: the library example, the canonical
input of ``input_sha256`` and the exit codes."""

from __future__ import annotations

import hashlib
import re
from fractions import Fraction
from pathlib import Path

import histrel.errors
from histrel.cli import EXIT_CODES, _exit_code_for
from histrel.errors import HistrelError
from histrel.io import digest_histogram_set, load_histogram_set

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def section(heading: str) -> str:
    """The README text under ``heading`` up to the next heading of any level."""
    body = README.split(f"\n{heading}\n", 1)[1]
    return re.split(r"\n#+ ", body, maxsplit=1)[0]


def test_the_library_example_computes_what_its_comments_state():
    code = re.search(r"```python\n(.*?)```", section("## Library example"), re.S).group(1)
    namespace: dict = {}
    exec(code, namespace)
    checked = 0
    for line in code.splitlines():
        solved = re.fullmatch(r"(\w+) = .*#\s*alpha (\d+), weight (\([\d, ]+\))", line)
        scored = re.fullmatch(r"(\S.*?)\s+#\s*(Fraction\([\d, ]+\)).*", line)
        if solved:
            name, alpha, weight = solved.groups()
            assert namespace[name].alpha == int(alpha), line
            assert namespace[name].weight.values == eval(weight), line
        elif scored:
            expression, value = scored.groups()
            assert eval(expression, namespace) == eval(value, {"Fraction": Fraction}), line
        checked += bool(solved or scored)
    assert checked == 4


def test_the_stated_canonical_input_is_what_input_sha256_hashes(tmp_path):
    formats = section("### File formats")
    example = re.search(r"```json\n(.*?)\n```", formats, re.S).group(1)
    canonical = re.search(r"`(\{\"alphabet\":[^`]*)`", formats).group(1)
    path = tmp_path / "set.json"
    path.write_text(example)
    expected = hashlib.sha256(canonical.encode("ascii")).hexdigest()
    assert digest_histogram_set(load_histogram_set(str(path))) == expected


def table_codes() -> list[int]:
    return [int(code) for code in re.findall(r"^\| (\d+) \|", section("### Exit codes"), re.M)]


def test_the_exit_code_table_lists_exactly_the_cli_codes():
    codes = table_codes()
    assert codes == sorted(set(codes))
    assert codes == sorted(EXIT_CODES.values())


def test_every_error_class_exits_with_a_listed_code_other_than_unexpected():
    kinds = [
        kind
        for kind in vars(histrel.errors).values()
        if isinstance(kind, type) and issubclass(kind, HistrelError) and kind is not HistrelError
    ]
    assert kinds
    for kind in kinds:
        code = _exit_code_for(kind.__new__(kind))  # constructors differ; only the class matters
        assert code in table_codes() and code != EXIT_CODES["unexpected"], kind.__name__
