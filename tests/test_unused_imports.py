"""No module of the package imports a name it never uses, and no private
module-level name is defined that no module of the package reads.  The
package's `__init__` re-exports the names listed in its `__all__`, so those
count as used there.  Checked with the standard-library `ast`, since the suite
needs no linter."""
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


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each module-level `_`-prefixed function, class or constant, with its
    line number; dunder names are not private."""
    names: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def _read_names(tree: ast.Module) -> set[str]:
    """Names the module reads: as a `Name`, an `Attribute` or an import."""
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private module-level names, over modules given by name and
    source, that no module reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(_read_names, trees.values()))
    return [
        f"{module} line {line}: {name}"
        for module, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in read
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


def test_checker_finds_an_unread_private_name():
    sources = {
        "a": "_LIMIT = 3\n_SEEN: int = 0\n__all__ = []\n"
             "def _helper():\n    return _LIMIT\n"
             "def _orphan():\n    pass\nclass _Unused:\n    pass\n",
        "b": "from .a import _helper\nimport a\nx = a._SEEN\n",
    }
    assert unread_private_names(sources) == ["a line 6: _orphan", "a line 8: _Unused"]


def test_no_unread_private_names_in_package():
    sources = {
        path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))
    }
    assert unread_private_names(sources) == []
