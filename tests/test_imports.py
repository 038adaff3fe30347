"""Every name a package module, demo or test module imports is used there.

The repository runs no linter, so this stands in for its unused-import
rule.  `from __future__` imports and lines marked `# noqa: F401` (aliases
kept for other code to read) are skipped; a name listed in a module's
__all__ counts as used.
"""

import ast
from pathlib import Path

import pytest

import completequadrics

PACKAGE = Path(completequadrics.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
# package modules keep their bare file name as the test id
MODULES = [path for folder in (PACKAGE, ROOT / "demos", ROOT / "tests") for path in sorted(folder.glob("*.py"))]


def module_id(path: Path) -> str:
    return path.name if path.parent == PACKAGE else "%s/%s" % (path.parent.name, path.name)


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=module_id)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_reported():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from math import comb, gcd  # noqa: F401\n"
        "from operator import add\n"
        "__all__ = ['add']\n"
        "print(os.sep)\n"
    )
    assert unused_imports(source) == [(2, "system")]
