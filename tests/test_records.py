"""The package's immutable records, and what importing the package loads.

Every record type keeps the semantics of a frozen record class: value
equality within one type only, the hash of the tuple of its fields, a
``Name(field=value, ...)`` repr, and no assignment or deletion.  The reprs
below were recorded before the records became plain classes.  The value
classes SymmetricForm, ProjectivePoint and SchubertClass are records too.
"""

import ast
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import completequadrics
from completequadrics.chambers import REGIONS, ChamberReport, RegionSpec
from completequadrics.chowform import PluckerVector, ProjectivePoint
from completequadrics.pencils import BinaryForm, DegenerationCount, Pencil
from completequadrics.picard import ConeMembership, CurveClass, DivisorClass, TableRow
from completequadrics.quadrics import SymmetricForm
from completequadrics.schubert import SchubertClass
from completequadrics.verify import CheckResult

SRC = pathlib.Path(completequadrics.__file__).resolve().parent.parent


def _pencil():
    return Pencil(SymmetricForm.diagonal([1, 2]), SymmetricForm.diagonal([3, -1]))


_CONES_8 = ((("H1", "H2", "E2"), (">=", ">=", ">=")), (("H2", "H3", "E2"), (">=", ">=", ">=")))

# one instance of each record type, with its field names and values
RECORDS = [
    (DivisorClass(3, "E", (1, "1/2", -2)),
     {"n": 3, "basis": "E", "coeffs": (Fraction(1), Fraction(1, 2), Fraction(-2))}),
    (CurveClass(3, (0, 1, "-3/4")),
     {"n": 3, "coeffs": (Fraction(0), Fraction(1), Fraction(-3, 4))}),
    (ConeMembership(True, False), {"contains": True, "interior": False}),
    (TableRow("G", (Fraction(1), Fraction(2)), "X3"),
     {"curve": "G", "entries": (Fraction(1), Fraction(2)), "cover": "X3"}),
    (_pencil(), {"q0": SymmetricForm.diagonal([1, 2]), "q1": SymmetricForm.diagonal([3, -1])}),
    (BinaryForm((Fraction(1), Fraction(-2))), {"coeffs": (Fraction(1), Fraction(-2))}),
    (DegenerationCount(4, 3), {"total": 4, "distinct": 3}),
    (PluckerVector(2, 2, (Fraction(1), Fraction(0), Fraction(-1, 2))),
     {"n": 2, "k": 2, "coords": (Fraction(1), Fraction(0), Fraction(-1, 2))}),
    (RegionSpec(8, _CONES_8, ("H1", "H3", "E2"), frozenset({"E2"}), True),
     {"chamber_id": 8, "cones": _CONES_8,
      "position_basis": ("H1", "H3", "E2"), "base_locus": frozenset({"E2"}),
      "exclude_nef": True}),
    (ChamberReport(2, "interior", frozenset({"E13"}), "E1 cap E3", "P9*", ("a",), None),
     {"chamber_id": 2, "position": "interior", "base_locus": frozenset({"E13"}),
      "base_locus_label": "E1 cap E3", "model_label": "P9*", "notes": ("a",),
      "certificate": None}),
    (CheckResult("chow-identity", "a statement", True, "ok"),
     {"name": "chow-identity", "statement": "a statement", "passed": True, "details": "ok"}),
    (SymmetricForm.diagonal([1, "1/2"]), {"n": 1, "ints": ((2, 0), (0, 1)), "den": 2}),
    (ProjectivePoint((0, 2, -4)), {"coords": (Fraction(0), Fraction(1), Fraction(-2))}),
    (SchubertClass(1, 3, {(2,): 1, (1, 1): 2}), {"k": 1, "n": 3, "_terms": (((1, 1), 2), ((2,), 1))}),
]
IDS = [type(r).__name__ for r, _ in RECORDS]

# constructors that take other arguments than the fields they set
MAKE = {
    SymmetricForm: lambda n, ints, den: SymmetricForm([[Fraction(x, den) for x in r] for r in ints]),
    SchubertClass: lambda k, n, _terms: SchubertClass(k, n, dict(_terms)),
}


def _make(record, *args, **kwargs):
    return MAKE.get(type(record), type(record))(*args, **kwargs)


def test_every_record_type_is_covered():
    assert len({type(r) for r, _ in RECORDS}) == 14
    assert RECORDS[8][0] == REGIONS[7]


def test_import_loads_neither_dataclasses_nor_inspect():
    # -S keeps the interpreter's site hooks from importing either module first
    code = (
        "import sys; sys.path.insert(0, %r)\n"
        "import completequadrics, completequadrics.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))" % str(SRC)
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_fields_in_order(record, fields):
    assert tuple(getattr(record, name) for name in fields) == tuple(fields.values())


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_hash_is_hash_of_field_tuple(record, fields):
    values = tuple(fields.values())
    assert hash(record) == hash(values)
    assert {record: 1}[_make(record, *values)] == 1


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_equal_only_to_same_type(record, fields):
    values = tuple(fields.values())
    assert record == _make(record, *values)
    assert record != values
    assert values != record
    assert record.__eq__(values) is NotImplemented
    assert record != object()


def test_equal_fields_of_another_type_differ():
    assert ConeMembership(3, 4) != DegenerationCount(3, 4)
    assert DegenerationCount(3, 4) != ConeMembership(3, 4)
    assert hash(ConeMembership(3, 4)) == hash(DegenerationCount(3, 4))
    assert len({ConeMembership(3, 4), DegenerationCount(3, 4)}) == 2


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(record, fields):
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record, fields", [
    (r, f) for r, f in RECORDS if type(r) not in MAKE
], ids=[i for (r, _), i in zip(RECORDS, IDS) if type(r) not in MAKE])
def test_positional_arity_is_checked(record, fields):
    values = tuple(fields.values())
    # every type but BinaryForm has at least two fields without a default
    with pytest.raises(TypeError):
        type(record)(*values[:1] if len(values) > 1 else ())
    with pytest.raises(TypeError):
        type(record)(*values, None)


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_keyword_construction(record, fields):
    assert _make(record, **fields) == record


def test_defaults():
    spec = RegionSpec(1, (), (), frozenset())
    assert spec.exclude_nef is False
    report = ChamberReport(1, "interior", frozenset(), "empty", None)
    assert report.notes == () and report.certificate is None
    assert CheckResult("n", "s", True).details == ""


@pytest.mark.parametrize("record, text", [
    (DivisorClass(3, "E", (1, "1/2", -2)),
     "DivisorClass(n=3, basis='E', coeffs=(Fraction(1, 1), Fraction(1, 2), Fraction(-2, 1)))"),
    (CurveClass(3, (0, 1, "-3/4")),
     "CurveClass(n=3, coeffs=(Fraction(0, 1), Fraction(1, 1), Fraction(-3, 4)))"),
    (ChamberReport(2, "interior", frozenset({"E13"}), "E1 cap E3", "P9*", notes=("a",),
                   certificate={"basis": ["H1", "H3", "P"]}),
     "ChamberReport(chamber_id=2, position='interior', base_locus=frozenset({'E13'}), "
     "base_locus_label='E1 cap E3', model_label='P9*', notes=('a',), "
     "certificate={'basis': ['H1', 'H3', 'P']})"),
    (CheckResult("chow-identity", "a statement", True),
     "CheckResult(name='chow-identity', statement='a statement', passed=True, details='')"),
    (DegenerationCount(total=4, distinct=3), "DegenerationCount(total=4, distinct=3)"),
    (PluckerVector(n=2, k=2, coords=(Fraction(1), Fraction(-1, 2), Fraction(0))),
     "PluckerVector(n=2, k=2, coords=(Fraction(1, 1), Fraction(-1, 2), Fraction(0, 1)))"),
    (ConeMembership(True, False), "ConeMembership(contains=True, interior=False)"),
    (BinaryForm((Fraction(1),)), "BinaryForm(coeffs=(Fraction(1, 1),))"),
    (SymmetricForm.diagonal([1, "1/2"]), "SymmetricForm(n=1, ints=((2, 0), (0, 1)), den=2)"),
    (ProjectivePoint((0, 2, -4)), "ProjectivePoint(0, 1, -2)"),
    (SchubertClass(1, 3, {(2,): 1, (1, 1): 2}), "SchubertClass(k=1, n=3, 2s[1, 1] + s[2])"),
])
def test_repr_pinned(record, text):
    assert repr(record) == text


def test_unhashable_field_makes_record_unhashable():
    report = ChamberReport(1, "interior", frozenset(), "empty", None, certificate={"a": 1})
    with pytest.raises(TypeError):
        hash(report)
    assert report == ChamberReport(1, "interior", frozenset(), "empty", None, certificate={"a": 1})


def test_cached_det_form_outside_equality_and_hash():
    p, q = _pencil(), _pencil()
    form = p.det_form
    assert p.det_form is form and "det_form" in vars(p) and "det_form" not in vars(q)
    assert p == q and hash(p) == hash(q) == hash((p.q0, p.q1))
    assert "det_form" not in repr(p)


def test_constructor_checks_kept_in_order():
    with pytest.raises(ValueError, match="unknown basis"):
        DivisorClass(1, "Q", (1,))
    with pytest.raises(ValueError, match="need n >= 2"):
        DivisorClass(1, "H", (1,))
    with pytest.raises(ValueError, match="expected 3 coefficients"):
        DivisorClass(3, "H", (1, 2))
    with pytest.raises(ValueError, match="need n >= 2"):
        CurveClass(1, (5,))
    with pytest.raises(ValueError, match="need n >= 2"):
        CurveClass(0, ())
    with pytest.raises(ValueError, match="not a string"):
        CurveClass(3, "123")
    with pytest.raises(ValueError, match="share an ambient space"):
        Pencil(SymmetricForm.diagonal([0, 0]), SymmetricForm.diagonal([1, 1, 1]))
    with pytest.raises(ValueError, match="zero form"):
        Pencil(SymmetricForm.diagonal([0, 0]), SymmetricForm.diagonal([1, 1]))
    with pytest.raises(ValueError, match="proportional"):
        Pencil(SymmetricForm.diagonal([1, 2]), SymmetricForm.diagonal([2, 4]))


def test_only_record_defines_setattr_or_delattr():
    # every immutable class of the package derives from Record instead
    found = []
    for path in sorted((SRC / "completequadrics").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                found += [(path.name, node.name, item.name) for item in node.body
                          if isinstance(item, ast.FunctionDef)
                          and item.name in ("__setattr__", "__delattr__")]
    assert found == [("_value.py", "Record", "__setattr__"), ("_value.py", "Record", "__delattr__")]
