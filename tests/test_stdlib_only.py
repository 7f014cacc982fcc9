"""The package imports nothing outside the standard library and itself.

pyproject.toml declares no dependencies and the README promises
pure-Python arithmetic; the test extras (cryptography among them) are
installed where the suite runs, so a stray import of one would still
pass every other test.
"""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "trr"


def imported_modules(path: pathlib.Path):
    """Top-level name of each absolute import in the module at path."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_stdlib_and_trr():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules under {PACKAGE}"
    foreign = [(path.name, name) for path in modules
               for name in imported_modules(path)
               if name != "trr" and name not in sys.stdlib_module_names]
    assert not foreign
