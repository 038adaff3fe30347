"""Every private name a package module defines at module level is used in
the package.

Beside tests/test_imports.py, this stands in for a linter's dead-code rule:
a private (``_name``) function, class or constant defined at the top level
of a module under src/ must be read somewhere under src/, by name, as an
attribute or through an import.  A helper that only the tests call is dead
code.  Dunder names (``__all__``) are not private.
"""

import ast
from pathlib import Path

import completequadrics

SRC = Path(completequadrics.__file__).resolve().parent.parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_definitions(tree) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if _private(name)}


def references(tree) -> set:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def unused_private(trees: dict) -> list:
    used = set().union(*map(references, trees.values()))
    return sorted((path, name) for path, tree in trees.items()
                  for name in private_definitions(tree) - used)


def test_no_unused_private_definitions():
    trees = {str(p.relative_to(SRC)): ast.parse(p.read_text()) for p in sorted(SRC.rglob("*.py"))}
    assert trees
    assert unused_private(trees) == []


def test_unused_private_reported():
    trees = {
        "a.py": ast.parse(
            "_LIMIT = 3\n"
            "_TABLE: dict = {}\n"
            "__all__ = ['f']\n"
            "class _Spare: pass\n"
            "def _helper(): return _LIMIT\n"
            "def f(x): return x._attr\n"
        ),
        "b.py": ast.parse("from a import _helper\ndef _attr(): pass\n"),
    }
    assert unused_private(trees) == [("a.py", "_Spare"), ("a.py", "_TABLE")]
