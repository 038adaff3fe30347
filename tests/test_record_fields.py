"""Records declare their fields once, in ``_fields``.

One ``Record.__init__`` binds the constructor arguments of every record from
``_fields`` and ``_defaults``: the plain records write no ``__init__`` of
their own, and the records that check or transform their input end theirs
with one ``Record.__init__`` call, so no module but ``_value`` touches
``set_field``.  tests/test_records.py pins arity, keywords, defaults, repr,
equality and hash record by record; this module pins the binding rules and
the source layout.
"""

import ast
from pathlib import Path

import pytest

import completequadrics
from completequadrics._value import Record
from completequadrics.chambers import ChamberReport
from completequadrics.pencils import DegenerationCount

PACKAGE = Path(completequadrics.__file__).parent

PLAIN = {
    "chambers.py": {"RegionSpec", "ChamberReport", "_Placement"},
    "chowform.py": {"PluckerVector"},
    "pencils.py": {"BinaryForm", "DegenerationCount"},
    "picard.py": {"ConeMembership", "TableRow"},
    "verify.py": {"CheckResult"},
}
CHECKED = {
    "picard.py": {"DivisorClass", "CurveClass"},
    "quadrics.py": {"SymmetricForm"},
    "chowform.py": {"ProjectivePoint"},
    "pencils.py": {"Pencil"},
    "schubert.py": {"SchubertClass"},
}


def _records():
    # (module file, class node) for every class deriving from Record
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(b, ast.Name) and b.id == "Record" for b in node.bases):
                yield path.name, node


def _methods(node):
    return {item.name: item for item in node.body if isinstance(item, ast.FunctionDef)}


def _is_record_init(stmt) -> bool:
    call = stmt.value if isinstance(stmt, ast.Expr) else None
    return (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and call.func.attr == "__init__" and isinstance(call.func.value, ast.Name)
            and call.func.value.id == "Record")


def test_only_checked_records_write_init():
    plain, checked = {}, {}
    for name, node in _records():
        target = checked if "__init__" in _methods(node) else plain
        target.setdefault(name, set()).add(node.name)
    assert plain == PLAIN
    assert checked == CHECKED


def test_checked_records_end_in_record_init():
    ends = {}
    for name, node in _records():
        for method in ("__init__", "_make"):
            body = _methods(node).get(method)
            if body is not None:
                # _make returns the record its last call but one built
                last = body.body[-2] if method == "_make" else body.body[-1]
                ends[node.name, method] = _is_record_init(last)
    assert ends == dict.fromkeys(
        [(c, "__init__") for group in CHECKED.values() for c in group]
        + [("SchubertClass", "_make")], True)


def test_only_value_names_set_field():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Name) and node.id == "set_field") or (
                    isinstance(node, ast.alias) and node.name == "set_field"):
                found.add(path.name)
    assert found == {"_value.py"}


@pytest.mark.parametrize("args, kwargs, message", [
    ((1, 2, 3), {}, "DegenerationCount takes 2 fields, 3 given"),
    ((1,), {}, "DegenerationCount missing field 'distinct'"),
    ((), {"distinct": 2}, "DegenerationCount missing field 'total'"),
    ((1, 2), {"extra": 3}, "DegenerationCount got an unknown field 'extra'"),
    ((1,), {"total": 1, "distinct": 2}, "DegenerationCount got a repeated field 'total'"),
    ((1, 2), {"total": 1}, "DegenerationCount got a repeated field 'total'"),
], ids=["too-many", "missing-positional", "missing-keyword", "unknown", "repeated-with-keywords",
        "repeated-after-positions"])
def test_binding_errors(args, kwargs, message):
    with pytest.raises(TypeError) as info:
        DegenerationCount(*args, **kwargs)
    assert str(info.value) == message


def test_keywords_defaults_and_positions_bind_alike():
    full = ChamberReport(1, "ray H1", frozenset(), "empty", None, (), None)
    assert ChamberReport(1, "ray H1", frozenset(), "empty", None) == full
    assert ChamberReport(1, "ray H1", base_locus=frozenset(), model_label=None,
                         base_locus_label="empty") == full
    assert ChamberReport(chamber_id=1, position="ray H1", base_locus=frozenset(),
                         base_locus_label="empty", model_label=None, notes=()) == full
    with pytest.raises(TypeError, match="missing field 'model_label'"):
        ChamberReport(1, "ray H1", frozenset(), "empty", notes=())
    # binding reads the shared defaults and never writes them
    assert Record._defaults == {} and ChamberReport._defaults == {"notes": (), "certificate": None}
