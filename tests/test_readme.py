"""The README's Python examples run, and print the numbers they quote."""

import ast
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
QUOTED = re.compile(r"#\s*(\d+\.\d+)")


def python_block(heading: str) -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_simulation_from_python_block(capsys):
    source = python_block("Simulation from Python")
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        quoted = QUOTED.search(lines[stmt.end_lineno - 1])
        code = ast.get_source_segment(source, stmt)
        if quoted and isinstance(stmt, ast.Expr):
            value = eval(code, namespace)
            decimals = len(quoted.group(1).split(".")[1])
            assert f"{value:.{decimals}f}" == quoted.group(1), code
            checked.append(quoted.group(1))
        else:
            exec(code, namespace)
    capsys.readouterr()
    assert checked, "the block quotes no number"
