"""README claims that code can check: the library example and the exit codes."""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path

from histrel.cli import EXIT_CODES

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


def test_the_exit_code_table_lists_exactly_the_cli_codes():
    codes = [int(code) for code in re.findall(r"^\| (\d+) \|", section("### Exit codes"), re.M)]
    assert codes == sorted(set(codes))
    assert codes == sorted(EXIT_CODES.values())
