"""Picard lattice tests.

The reference intersection table is frozen below and compared against the
table regenerated from H columns plus lattice relations; the canonical
class is checked through two independent derivations (closed nef-basis form
versus blowup discrepancies).
"""

import ast
import itertools
import pathlib
import random
from fractions import Fraction

import pytest

import completequadrics
from completequadrics import exact, picard
from completequadrics.exact import InconsistentSystem, UnderdeterminedSystem, ff_det, solve_exact
from completequadrics.picard import (
    BASES,
    CURVE_TABLE_X3,
    E1_3,
    E2_3,
    E3_3,
    H1_3,
    H2_3,
    H3_3,
    ConeMembership,
    CurveClass,
    DivisorClass,
    canonical,
    class_P,
    cone_membership,
    convert,
    curves_x3,
    derive_class_from_pairings,
    facet_rows,
    integer_h,
    is_fano,
    pair,
    table_x3,
    xi,
)

# reference values: rows G, G*, C1, C1*, C2, C3, C1_2, L2 against
# H1, H2, H3, E1, E2, E3
REFERENCE_TABLE = {
    "G": (1, 2, 3, 0, 0, 4),
    "Gstar": (3, 2, 1, 4, 0, 0),
    "C1": (0, 1, 2, -1, 0, 3),
    "C1star": (0, 2, 1, -2, 3, 0),
    "C2": (1, 0, 0, 2, -1, 0),
    "C3": (1, 2, 0, 0, 3, -2),
    "C12": (0, 1, 0, -1, 2, -1),
    "L2": (0, 0, 1, 0, -1, 2),
}

REFERENCE_COVERS = {
    "G": "X3",
    "Gstar": "X3",
    "C1": "E1",
    "C1star": "E1",
    "C2": "E2",
    "C3": "E3",
    "C12": "E13",
    "L2": "E2",
}


def cartan(n):
    # the A_n Cartan matrix, written out
    return [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]


def mixed(n):
    # columns H_1, E_1, .., E_{n-1} in H coordinates: the Cartan columns with
    # E_n replaced by H_1
    return [[int(i == 0)] + row[:-1] for i, row in enumerate(cartan(n))]


def basis_matrix(n, basis):
    # columns: the basis vectors in H coordinates
    if basis == "H":
        return [[int(i == j) for j in range(n)] for i in range(n)]
    return cartan(n) if basis == "E" else mixed(n)


def unit(n, j):
    return tuple(int(i == j) for i in range(n))


def columns_in_h(n, basis):
    # the matrix whose column j is basis vector j converted to H
    cols = [convert(DivisorClass(n, basis, unit(n, j)), "H").coeffs for j in range(n)]
    return [list(row) for row in zip(*cols)]


def _inverse(m):
    # rows of the inverse of a nonsingular square matrix: row i solves
    # x m = e_i, that is m^T x = e_i
    n = len(m)
    return tuple(tuple(solve_exact(list(zip(*m)), [int(i == j) for j in range(n)])) for i in range(n))


def fl_curve(n, j):
    # the flag curve Fl_j, dual to H_j
    return CurveClass(n, tuple(int(i == j - 1) for i in range(n)))


def test_duality_pairings():
    for n in (2, 3, 4, 5):
        for j in range(1, n + 1):
            flj = fl_curve(n, j)
            for i in range(1, n + 1):
                h = DivisorClass(n, "H", tuple(int(a == i - 1) for a in range(n)))
                assert pair(flj, h) == (1 if i == j else 0)
                e = DivisorClass(n, "E", tuple(int(a == i - 1) for a in range(n)))
                expected = 2 * (i == j) - (i == j + 1) - (i == j - 1)
                assert pair(flj, e) == expected
        # the boundary-to-nef change of basis is the A_n Cartan matrix
        assert ff_det(columns_in_h(n, "E")) == n + 1


def test_conversions_match_blowup_presentation():
    assert convert(H2_3, "mixed").coeffs == (2, -1, 0)
    assert convert(H3_3, "mixed").coeffs == (3, -2, -1)
    assert convert(E3_3, "mixed").coeffs == (4, -3, -2)
    assert convert(E1_3, "H").coeffs == (2, -1, 0)
    assert convert(E2_3, "H").coeffs == (-1, 2, -1)
    assert convert(convert(H2_3, "E"), "H") == H2_3


@pytest.mark.parametrize("seed", range(10))
def test_conversion_roundtrip(seed):
    rng = random.Random(seed)
    n = rng.choice([2, 3, 4, 5])
    d = DivisorClass(n, "H", tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)))
    for basis in ("E", "mixed"):
        there = convert(d, basis)
        assert convert(there, "H") == d
    assert convert(convert(d, "E"), "mixed") == convert(d, "mixed")


@pytest.mark.parametrize("n", range(2, 9))
def test_e_inverse_is_inverse_cartan(n):
    # the E basis matrix is the A_n Cartan matrix, whose inverse has a closed form
    assert columns_in_h(n, "E") == cartan(n)
    closed = tuple(
        tuple(Fraction(min(i, j) * (n + 1 - max(i, j)), n + 1) for j in range(1, n + 1))
        for i in range(1, n + 1)
    )
    assert _inverse(cartan(n)) == closed
    # column j of the inverse is H_j in E coordinates
    for j in range(n):
        h_j = DivisorClass(n, "H", tuple(int(i == j) for i in range(n)))
        assert convert(h_j, "E").coeffs == tuple(row[j] for row in closed)


def test_mixed_basis_matrix():
    # columns H_1, E_1, .., E_{n-1}: the Cartan columns with E_n replaced by H_1
    for n in range(2, 7):
        assert columns_in_h(n, "mixed") == mixed(n)
        assert columns_in_h(n, "H") == basis_matrix(n, "H")
        # and back: H_j in the mixed basis is column j of the inverse
        for j in range(n):
            h_j = DivisorClass(n, "H", unit(n, j))
            assert list(convert(h_j, "mixed").coeffs) == solve_exact(mixed(n), unit(n, j))


def test_basis_matrix_errors():
    with pytest.raises(ValueError, match="need n >= 2"):
        derive_class_from_pairings([], 1, basis="bogus")
    with pytest.raises(ValueError, match="unknown basis"):
        derive_class_from_pairings([], 3, basis="bogus")


def test_facet_rows_are_integer_inverse_rows():
    # in either orientation of the triple, so for either sign of its det
    for triple in ((H1_3, H3_3, class_P()), (H3_3, H1_3, class_P())):
        cols = [integer_h(g) for g in triple]
        rows = facet_rows(*cols)
        assert all(type(x) is int for row in rows for x in row)
        matrix = [[c[i] for c in cols] for i in range(3)]
        # each row is a positive multiple of a row of the inverse
        product = [[sum(rows[i][k] * matrix[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
        assert all((product[i][j] > 0) if i == j else (product[i][j] == 0) for i in range(3) for j in range(3))
    # P + 4 E2 = 6 H2
    with pytest.raises(ValueError, match="linearly dependent"):
        facet_rows(integer_h(H2_3), integer_h(class_P()), integer_h(E2_3))


def test_integer_h_is_a_positive_multiple():
    d = DivisorClass(3, "E", (Fraction(1, 2), Fraction(1, 3), 0))
    h = integer_h(d)
    assert all(type(x) is int for x in h)
    assert h == [4, 1, -2]
    assert [Fraction(x, 6) for x in h] == list(convert(d, "H").coeffs)


def test_integer_h_clears_only_the_h_denominators():
    # E = (1/2, 1, 1/2) has H = (0, 1, 0): scaling the E coordinates by
    # their lcm 2 gives (0, 2, 0), which integer_h must reduce
    d = DivisorClass(3, "E", (Fraction(1, 2), 1, Fraction(1, 2)))
    assert convert(d, "H").coeffs == (0, 1, 0)
    assert integer_h(d) == [0, 1, 0]


@pytest.mark.parametrize("n", [*range(2, 7), 50, 100])
def test_convert_round_trips_every_basis(n):
    # each basis matrix is invertible (a singular one raises here), so the
    # coordinates it maps to h are the only ones; its nonzero entries by row
    sparse = {}
    for other in BASES:
        assert solve_exact(basis_matrix(n, other), [0] * n) == [0] * n
        sparse[other] = [[(j, x) for j, x in enumerate(row) if x] for row in basis_matrix(n, other)]
    rng = random.Random(700 + n)
    for _ in range(8):
        for basis in BASES:
            coeffs = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
            d = DivisorClass(n, basis, coeffs)
            h = convert(d, "H").coeffs
            for other in BASES:
                there = convert(d, other)
                assert there.basis == other
                assert [sum(x * there.coeffs[j] for j, x in row) for row in sparse[other]] == list(h)
                assert convert(there, basis) == d
                for third in BASES:
                    assert convert(there, third) == convert(d, third)


def test_convert_and_effective_membership_solve_nothing(monkeypatch):
    # the Cartan relation is run forwards and backwards: no conversion and
    # no effective-cone test reaches a linear solve, at any n
    def refuse(*args, **kwargs):
        raise AssertionError("solve_exact called")

    for module in (exact, picard):
        monkeypatch.setattr(module, "solve_exact", refuse)
    rng = random.Random(1300)
    for n in range(2, 101):
        for basis in BASES:
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
            d = DivisorClass(n, basis, coeffs)
            for other in BASES:
                assert convert(convert(d, other), basis) == d
            cone_membership(d, "eff")


def test_effective_membership_builds_no_class(monkeypatch):
    # the signs come from the integer recurrence on integer_h, with no
    # converted DivisorClass in between
    rng = random.Random(1400)
    classes = [DivisorClass(n, basis, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)])
               for n in (2, 3, 7, 100) for basis in BASES]
    expected = [cone_membership(d, "eff") for d in classes]

    def refuse(*args, **kwargs):
        raise AssertionError("DivisorClass built")

    monkeypatch.setattr(DivisorClass, "__init__", refuse)
    assert [cone_membership(d, "eff") for d in classes] == expected


def test_movable_membership_matches_solve_exact():
    pieces = [
        [convert(g, "H").coeffs for g in triple]
        for triple in ((H1_3, H2_3, H3_3), (H1_3, H3_3, class_P()))
    ]
    for h in itertools.product(range(-3, 7), repeat=3):
        coords = [solve_exact([[c[i] for c in cols] for i in range(3)], h) for cols in pieces]
        expected = ConeMembership(
            any(all(x >= 0 for x in xs) for xs in coords),
            any(all(x > 0 for x in xs) for xs in coords),
        )
        assert cone_membership(DivisorClass(3, "H", h), "mov") == expected, h


@pytest.mark.parametrize("n", range(2, 13))
def test_effective_membership_matches_e_coordinates(n):
    rng = random.Random(900 + n)
    for k in range(48):
        # interior, boundary (some E coordinates zero) and outside classes,
        # handed over in each basis
        kind = k % 3
        e = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)]
        if kind == 1:
            for i in rng.sample(range(n), rng.randint(1, n - 1)):
                e[i] = 0
        elif kind == 2:
            e[rng.randrange(n)] = Fraction(-rng.randint(1, 9), rng.randint(1, 4))
        d = convert(DivisorClass(n, "E", e), BASES[k // 3 % 3])
        oracle = solve_exact(cartan(n), convert(d, "H").coeffs)
        assert oracle == e
        expected = ConeMembership(all(c >= 0 for c in oracle), all(c > 0 for c in oracle))
        assert expected == ConeMembership(kind != 2, kind == 0)
        assert cone_membership(d, "eff") == expected, (n, d)


def test_canonical_class_n3():
    k_blow = canonical(3, "blowup")
    k_nef = canonical(3, "nefbasis")
    assert k_nef.coeffs == (-2, -1, -2)
    assert k_blow == k_nef
    assert convert(k_blow, "mixed").coeffs == (-10, 5, 2)


@pytest.mark.parametrize("n", range(2, 9))
def test_canonical_methods_agree_and_fano(n):
    assert canonical(n, "blowup") == canonical(n, "nefbasis")
    assert is_fano(n)


def test_intermediate_space_canonical_consistency():
    # -10 H1 + 5 E1, the canonical class of the one-blowup space X(1),
    # rewrites to -5 H2 inside the full lattice
    d = DivisorClass(3, "mixed", (-10, 5, 0))
    assert convert(d, "H").coeffs == (0, -5, 0)


def test_table_x3_against_reference():
    rows = table_x3()
    assert [r.curve for r in rows] == [name for name, _, _ in CURVE_TABLE_X3]
    for row in rows:
        assert row.entries == REFERENCE_TABLE[row.curve], row.curve
        assert row.cover == REFERENCE_COVERS[row.curve]


def test_class_P_pairings():
    curves = curves_x3()
    p = class_P()
    assert convert(p, "mixed").coeffs == (12, -6, -4)
    assert pair(curves["R2"], p) == 4
    assert pair(curves["C1star"], p) == 0
    assert pair(curves["C3"], p) == 0
    assert pair(curves["C12"], p) == -2


def test_cone_membership():
    ample = DivisorClass(3, "H", (1, 1, 1))
    assert cone_membership(ample, "nef") == cone_membership(ample, "nef")
    assert cone_membership(ample, "nef").interior
    assert cone_membership(ample, "eff").contains
    p = class_P()
    assert not cone_membership(p, "nef").contains
    assert cone_membership(p, "mov").contains
    assert cone_membership(p, "eff").contains
    assert cone_membership(E2_3, "eff").contains
    assert not cone_membership(E2_3, "nef").contains
    assert not cone_membership(E2_3, "mov").contains
    assert pair(fl_curve(3, 1), E2_3) == -1
    # nef implies nonnegative pairing with every flag curve
    for j in (1, 2, 3):
        assert pair(fl_curve(3, j), ample) >= 0
    with pytest.raises(ValueError):
        cone_membership(DivisorClass(4, "H", (1, 1, 1, 1)), "mov")


def test_movable_walls():
    # the shared wall of the two simplicial pieces is in the cone
    wall = DivisorClass(3, "H", (1, 0, 1))
    m = cone_membership(wall, "mov")
    assert m.contains and not m.interior


def test_derive_class_from_pairings_test_curves():
    curves = curves_x3()
    g, c2, l2 = curves["G"], curves["C2"], curves["L2"]
    h2 = derive_class_from_pairings([(g, 2), (c2, 0), (l2, 0)], n=3, basis="mixed")
    assert h2.coeffs == (2, -1, 0)
    h3 = derive_class_from_pairings([(g, 3), (c2, 0), (l2, 1)], n=3, basis="mixed")
    assert h3.coeffs == (3, -2, -1)
    assert convert(h2, "H") == H2_3
    assert convert(h3, "H") == H3_3


def test_derive_class_flags_bad_systems():
    curves = curves_x3()
    g, c2 = curves["G"], curves["C2"]
    with pytest.raises(UnderdeterminedSystem):
        derive_class_from_pairings([(g, 2), (g, 2), (c2, 0)], n=3)
    with pytest.raises(InconsistentSystem):
        derive_class_from_pairings([(g, 2), (g, 3), (c2, 0)], n=3)


def test_derive_class_with_no_conditions_is_underdetermined():
    for n, basis in ((3, "H"), (4, "mixed")):
        with pytest.raises(UnderdeterminedSystem, match="solution set has %d free variables" % n):
            derive_class_from_pairings([], n, basis)


def test_xi_involution():
    assert xi(H1_3) == H3_3
    assert xi(H2_3) == H2_3
    assert convert(xi(E1_3), "E") == E3_3
    assert xi(xi(class_P())) == class_P()
    assert xi(class_P()) == class_P()
    k = canonical(3)
    assert xi(k) == k
    rng = random.Random(7)
    for _ in range(10):
        d = DivisorClass(3, "H", tuple(Fraction(rng.randint(-5, 5)) for _ in range(3)))
        assert xi(xi(d)) == d
        assert cone_membership(d, "nef").contains == cone_membership(xi(d), "nef").contains
        assert cone_membership(d, "eff").contains == cone_membership(xi(d), "eff").contains


def test_pair_requires_matching_n():
    with pytest.raises(ValueError):
        pair(fl_curve(2, 1), H1_3)


def test_json_roundtrip():
    d = DivisorClass(3, "mixed", ("12", "-6", "-4"))
    assert DivisorClass.from_json(d.to_json()) == d
    c = CurveClass(3, ("1", "2", "1"))
    assert CurveClass.from_json(c.to_json()) == c
    assert d.to_json()["coeffs"] == ["12", "-6", "-4"]


def _importers(name):
    # the package modules that import name or read it as an attribute
    package = pathlib.Path(completequadrics.__file__).resolve().parent
    users = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            imported = isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names)
            if imported or (isinstance(node, ast.Attribute) and node.attr == name):
                users.add(path.name)
    return users


def test_only_picard_inverts_a_matrix():
    # solve_exact, the one rational solver, has one reader: a class derived
    # from curve pairings.  Conversions between bases and facet rows solve
    # nothing, and no other routine back-substitutes
    assert _importers("solve_exact") == {"picard.py"}
    assert _callers("solve_exact") == {"picard.derive_class_from_pairings"}
    assert _callers("_back_substitute") == {"exact.solve_exact"}


def test_no_per_minor_eliminations_outside_exact():
    # compounds and Pluecker vectors take their minors from one Laplace pass
    # (quadrics._int_minors, chowform._int_plucker): the general determinant
    # ff_det is read only by check_boundary_numbers, and imported elsewhere
    # only as the two aliases the benchmark tracer restores
    assert _callers("ff_det") == {"verify.check_boundary_numbers"}
    assert _importers("ff_det") == {"pencils.py", "quadrics.py", "verify.py"}


def test_one_place_checks_form_entries():
    # SymmetricForm reads its entries through exact._int_rows, as raw bases
    # (plucker, chow_eval) and the other raw matrices do, so no kernel that
    # takes a form checks it again
    assert "quadrics.SymmetricForm" in _callers("_int_rows")
    assert _importers("_int_rows") == {"chowform.py", "quadrics.py"}


def _callers(name):
    # "module.function" for each top-level function of the package that
    # reads name, "module." for a read outside every function
    package = pathlib.Path(completequadrics.__file__).resolve().parent
    users = set()
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            scope = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else ""
            for node in ast.walk(top):
                if getattr(node, "id", None) == name or getattr(node, "attr", None) == name:
                    users.add("%s.%s" % (path.stem, scope))
    return users


KERNEL_CALLERS = {
    "int_det_poly": {"pencils._det_binary"},
    "_interpolate": {"exact._kronecker"},
    "_kronecker": {"exact.int_det_poly", "chowform._compound_poly", "chowform.wedge2_example_matrix"},
    "_compound_poly": {"chowform._family_limit"},
    "_sym_det": {"exact.int_det_poly", "exact._symmetric_det"},
    "_int_det": {"exact.int_det_poly", "exact._symmetric_det", "exact.ff_det"},
}


def test_one_rank_checked_pencil_draw():
    # random_form tests its M by an elimination; the one pencil draw that
    # calls it rebuilds a member whose determinant form certified nothing,
    # so a second rank-checked pencil draw fails here
    assert _callers("random_form") == {"pencils._certified_pencil", "verify.check_chow_identity"}


@pytest.mark.parametrize("name, user", [("int_det_poly", "pencils.py"), ("_interpolate", None),
                                        ("_kronecker", "chowform.py"), ("_compound_poly", None),
                                        ("_sym_det", None), ("_int_det", None)])
def test_one_caller_per_kernel(name, user):
    # pencil determinant forms are the one use of int_det_poly; the digit
    # unpacking of _kronecker serves it, the Chow-form limits' compounds
    # (_compound_poly) and the wedge example's Kronecker read of the flag
    # parameters, and only _kronecker interpolates; every family limit takes
    # its compound through _family_limit, so a second limit path fails here;
    # the symmetric elimination serves int_det_poly and _symmetric_det, and
    # at a zero pivot both give way to _int_det, the integer core of ff_det;
    # user is the one module outside the kernel's own that reads it, if any
    assert _importers(name) == ({user} if user else set())
    assert _callers(name) == KERNEL_CALLERS[name]
