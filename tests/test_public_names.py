"""Every public function a package module defines at module level has a
reader outside the tests.

Beside tests/test_private_names.py, this stands in for a linter's dead-code
rule on public API.  A public function defined at the top level of a module
under src/ must meet one of three conditions: code under src/ reads it,
outside its own body; the package exports it in completequadrics.__all__;
or the benchmark tracer reports it (bench/tracer.py, REPORTED).  A function
that only the tests call is dead code.
"""

import ast
import importlib.util
from pathlib import Path

import completequadrics
from test_private_names import references

PACKAGE = Path(completequadrics.__file__).resolve().parent
TRACER_PATH = PACKAGE.parent.parent / "bench" / "tracer.py"


def _reported() -> set:
    # "module.function" of each name the tracer reports, read without
    # installing it
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {".".join(name.split(".")[:2]) for name in tracer.REPORTED}


def _exported() -> set:
    # "module.function" of each function completequadrics.__all__ names
    return {"%s.%s" % (getattr(completequadrics, name).__module__.rpartition(".")[2], name)
            for name in completequadrics.__all__}


def unread_public(trees: dict, kept: set) -> list:
    """(module, name) of each public top-level function in trees, keyed by
    module name, that no other top-level statement of any tree reads and
    that kept, a set of "module.name", does not hold."""
    reads = [(top, references(top)) for tree in trees.values() for top in tree.body]
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name.startswith("_"):
                continue
            if "%s.%s" % (module, node.name) in kept:
                continue
            if not any(node.name in names for top, names in reads if top is not node):
                unread.append((module, node.name))
    return sorted(unread)


def test_every_public_function_has_a_reader():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert trees
    assert unread_public(trees, _exported() | _reported()) == []


def test_unread_public_reported():
    trees = {
        "a": ast.parse(
            "def used(): return 1\n"
            "def exported(): pass\n"
            "def recursive(n): return recursive(n - 1) if n else 0\n"
            "def orphan(): pass\n"
            "def _private(): pass\n"
            "class Public: pass\n"
        ),
        "b": ast.parse("from a import used\ndef reader(): return used()\n"),
    }
    assert unread_public(trees, {"a.exported", "b.reader"}) == [("a", "orphan"), ("a", "recursive")]
