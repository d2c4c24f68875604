"""No module of the package imports a name it never uses.  The package's
`__init__` re-exports the names listed in its `__all__`, so those count as
used there.  Checked with the standard-library `ast`, since the suite needs no
linter."""
from __future__ import annotations

import ast
from pathlib import Path

import evacregret

PACKAGE = Path(evacregret.__file__).parent


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name bound by a module-level import, with its line number."""
    names: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, plus the strings of its `__all__`."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used_names(tree)
    return [
        f"line {line}: {name}"
        for name, line in sorted(_imported_names(tree).items(), key=lambda kv: kv[1])
        if name not in used
    ]


def test_checker_finds_an_unused_import():
    source = "import json\nfrom typing import Optional, Union\nx: Optional[int] = None\n"
    assert unused_imports(source) == ["line 1: json", "line 2: Union"]
    assert unused_imports("from .a import b\n__all__ = ['b']\n") == []


def test_no_unused_imports_in_package():
    found = {
        path.name: unused
        for path in sorted(PACKAGE.glob("*.py"))
        if (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
