"""Every module-level name in the package is read somewhere, and every
module-level import in src/ and tests/ is read by its own module.

A function, class or constant that no code in src/, tests/ or trrbench/
loads is dead weight: it still has to be read, kept in step with the
protocol and trusted by the next reader.  So is an import its module
never uses.  These tests name each one, so a change that leaves a name
behind fails the fast suite.  A name counts as read when some module
loads it as a name or as an attribute, however it was imported; dunders
such as __all__ are left out.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "trr"
READERS = ("src", "tests", "trrbench")


def defined_names(tree: ast.Module):
    """Names a module binds at its top level by def, class or assignment."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield stmt.name
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [
                stmt.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        yield node.id


def loaded_names(tree: ast.Module):
    """Every name the module loads, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            yield node.attr


def imported_names(tree: ast.Module):
    """Names a module binds at its top level by import; `import a.b`
    binds a."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                yield alias.asname or alias.name.split(".")[0]


def parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_module_level_name_is_read():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules under {PACKAGE}"
    read = {name for top in READERS for path in (ROOT / top).rglob("*.py")
            for name in loaded_names(parse(path))}
    unread = [f"{path.stem}.{name}" for path in modules
              for name in defined_names(parse(path))
              if not (name.startswith("__") and name.endswith("__"))
              and name not in read]
    assert not unread


def test_every_module_level_import_is_read():
    unread = []
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(
            (ROOT / "tests").rglob("*.py")):
        tree = parse(path)
        unread += [f"{path.relative_to(ROOT)}: {name}" for name in
                   sorted(set(imported_names(tree)) - set(loaded_names(tree)))]
    assert not unread


def raised_names(tree: ast.Module):
    """Names of what the module raises: `raise X(...)` or `raise X`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id
            elif isinstance(exc, ast.Attribute):
                yield exc.attr


def test_every_error_type_is_raised():
    # a merged or dropped error must not leave its type behind
    from trr import errors
    types = [obj for obj in vars(errors).values() if isinstance(obj, type)
             and issubclass(obj, Exception) and obj.__module__ == errors.__name__]
    assert types, "no error types in trr.errors"
    raised = {name for path in PACKAGE.glob("*.py")
              for name in raised_names(parse(path))}
    raised_types = [cls for cls in types if cls.__name__ in raised]
    unraised = [cls.__name__ for cls in types
                if not any(issubclass(r, cls) for r in raised_types)]
    assert not unraised
