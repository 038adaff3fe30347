"""Divisor and curve lattices of the space of complete quadrics on P^n.

The Picard group has the nef basis H_1..H_n (pullbacks of the hyperplane
classes under the n wedge maps) and the boundary classes E_1..E_n related by

    E_i = 2 H_i - H_{i-1} - H_{i+1},   with H_0 = H_{n+1} = 0,

so the boundary-to-nef change of basis is the Cartan matrix of type A_n (its
determinant is n+1).  No basis matrix is stored: the coordinates are
scaled to integers once by the lcm of their denominators, conversion into H
applies the relation, and conversion out of H runs it backwards, in O(n)
integer additions with no solve.  Curves are written in the basis
Fl_1..Fl_n dual to the H_i; all intersection pairings reduce to this
duality, which lets the whole X_3 intersection table be regenerated from
its H columns alone.

A class is placed against a cone by the signs of its coordinates in the
cone's generators, read from its integer H vector (integer_h), a positive
multiple of its H coordinates.  For the nef and effective cones these are
that vector and its E coordinates times n + 1 (_scaled_e).  For a
triple of generators on the n = 3 space they are the vector's dot products
with the triple's facet rows (facet_rows): signed cross products of the
generators' integer H vectors, positive multiples of the rows of the
inverse generator matrix.  The movable cone and the chamber classifier
(chambers._plane_table) both read them, so neither solves anything.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd

from ._value import Record
from .exact import UnderdeterminedSystem, clear_denominators, format_rat, parse_rat, solve_exact
from .quadrics import quadric_space_dim, stratum_codim

BASES = ("H", "mixed", "E")


def _rational_coeffs(coeffs, n: int) -> tuple:
    # a string is iterable too, and "123" would read as (1, 2, 3)
    if isinstance(coeffs, (str, bytes)):
        raise ValueError("coefficients must be a sequence of rationals, not a string")
    out = tuple(parse_rat(c) for c in coeffs)
    if len(out) != n:
        raise ValueError("expected %d coefficients" % n)
    return out


class DivisorClass(Record):
    """Divisor class on the space of complete quadrics of P^n.

    basis "H" is H_1..H_n, basis "E" is E_1..E_n, and basis "mixed" is the
    blowup presentation H_1, E_1, .., E_{n-1}.
    """

    _fields = ("n", "basis", "coeffs")

    def __init__(self, n: int, basis: str, coeffs: tuple):
        if basis not in BASES:
            raise ValueError("unknown basis %r" % (basis,))
        if n < 2:
            raise ValueError("need n >= 2")
        Record.__init__(self, n, basis, _rational_coeffs(coeffs, n))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "basis": self.basis,
            "coeffs": [format_rat(c) for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, data: dict):
        return cls(int(data["n"]), data["basis"], data["coeffs"])


class CurveClass(Record):
    """Curve class in the basis Fl_1..Fl_n dual to the nef basis."""

    _fields = ("n", "coeffs")

    def __init__(self, n: int, coeffs: tuple):
        if n < 2:
            raise ValueError("need n >= 2")
        Record.__init__(self, n, _rational_coeffs(coeffs, n))

    def to_json(self) -> dict:
        return {"n": self.n, "basis": "Fl", "coeffs": [format_rat(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict):
        if data.get("basis", "Fl") != "Fl":
            raise ValueError("curve classes use the Fl basis")
        return cls(int(data["n"]), data["coeffs"])


def _into_h(basis: str, x) -> tuple:
    """(g, L): integers with g / L the H coordinates of the class with
    coordinates x in the named basis, L the lcm of the denominators of x.
    x is scaled by L once; in basis E or mixed the Cartan relation then runs
    in integers.  The mixed basis H_1, E_1, .., E_{n-1} reads as x_1 H_1
    plus the E coordinates (x_2, .., x_n, 0), padded here with
    e_0 = e_{n+1} = 0."""
    (x,), scale = clear_denominators([x])
    if basis == "H":
        return x, scale
    e = [0, *x, 0] if basis == "E" else [0, *x[1:], 0, 0]
    g = [2 * e[i] - e[i - 1] - e[i + 1] for i in range(1, len(e) - 1)]
    if basis == "mixed":
        g[0] += x[0]
    return g, scale


def _from_h(basis: str, g, scale: int) -> tuple:
    """Coordinates in basis E or mixed of the class with H coordinates
    g / scale, g integers: the Cartan relation run backwards in integers
    (_scaled_e), with no solve."""
    n = len(g)
    e = _scaled_e(g)
    if basis == "mixed":
        # E_n = (n+1)H_1 - sum_{j<n} (n+1-j)E_j moves the E_n coordinate
        # onto H_1 and the E_j
        e = [(n + 1) * e[-1], *(x - (n + 1 - j) * e[-1] for j, x in enumerate(e[:-1], 1))]
    return tuple(Fraction(x, (n + 1) * scale) for x in e)


def _scaled_e(h) -> list:
    """n + 1 times the E coordinates of the class with H coordinates h, in
    integers when h is: the Cartan relation run backwards, row by row.  Row
    1 of the inverse Cartan matrix, (n+1-j)/(n+1), dotted with h gives e_1;
    then row i gives e_{i+1} = 2e_i - e_{i-1} - h_i."""
    n = len(h)
    e = [0, sum((n + 1 - j) * x for j, x in enumerate(h, 1))]
    for i in range(1, n):
        e.append(2 * e[i] - e[i - 1] - (n + 1) * h[i - 1])
    return e[1:]


def convert(d: DivisorClass, basis: str) -> DivisorClass:
    """Rewrite a divisor class in another named basis (exactly)."""
    if basis not in BASES:
        raise ValueError("unknown basis %r" % (basis,))
    if basis == d.basis:
        return d
    g, scale = _into_h(d.basis, d.coeffs)
    if basis == "H":
        return DivisorClass(d.n, basis, tuple(Fraction(x, scale) for x in g))
    return DivisorClass(d.n, basis, _from_h(basis, g, scale))


def pair(c: CurveClass, d: DivisorClass) -> Fraction:
    """Intersection number curve . divisor via Fl_j . H_i = delta_ij."""
    if c.n != d.n:
        raise ValueError("mismatched ambient dimensions")
    h = convert(d, "H").coeffs
    return sum(ci * hi for ci, hi in zip(c.coeffs, h))


class ConeMembership(Record):
    _fields = ("contains", "interior")


def cone_membership(d: DivisorClass, cone: str) -> ConeMembership:
    """Membership in the nef, effective or (n=3) movable cone.

    Each cone is read through one or more coordinate systems of the class,
    all from its integer H vector: the class is inside when every coordinate
    of some system is >= 0, and interior when every one is > 0.  nef: the H
    coordinates; eff: the E coordinates; mov (n=3 only): the cone generated
    by H_1, H_2, H_3 and P, the union of the simplicial cones (H_1,H_2,H_3)
    and (H_1,H_3,P), so its H coordinates and its coordinates in H_1, H_3,
    P (through facet_rows).  Points of the shared internal wall (H_1,H_3)
    are therefore not flagged interior.
    """
    h = integer_h(d)
    if cone == "nef":
        systems = [h]
    elif cone == "eff":
        systems = [_scaled_e(h)]
    elif cone == "mov":
        if d.n != 3:
            raise ValueError("movable cone data is only available for n = 3")
        rows = facet_rows(*(integer_h(g) for g in (H1_3, H3_3, class_P())))
        systems = [h, [sum(map(operator.mul, row, h)) for row in rows]]
    else:
        raise ValueError("unknown cone %r" % (cone,))
    return ConeMembership(any(all(x >= 0 for x in xs) for xs in systems),
                          any(all(x > 0 for x in xs) for xs in systems))


def canonical(n: int, method: str = "nefbasis") -> DivisorClass:
    """Canonical class, in H coordinates.

    method "nefbasis" uses the closed form -2H_1 - H_2 - .. - H_{n-1} - 2H_n;
    method "blowup" assembles -(N+1) H_1 + sum_i (codim_i - 1) E_i from the
    iterated-blowup discrepancies and converts.  The two agree for every n.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if method == "nefbasis":
        coeffs = [Fraction(-1)] * n
        coeffs[0] = Fraction(-2)
        coeffs[-1] = Fraction(-2)
        return DivisorClass(n, "H", tuple(coeffs))
    if method == "blowup":
        big_n = quadric_space_dim(n)
        mixed = [Fraction(-(big_n + 1))]
        mixed += [Fraction(stratum_codim(n, i) - 1) for i in range(1, n)]
        return convert(DivisorClass(n, "mixed", tuple(mixed)), "H")
    raise ValueError("unknown method %r" % (method,))


def is_fano(n: int) -> bool:
    """True when the anticanonical class has strictly positive nef coordinates."""
    k = canonical(n, "nefbasis")
    return all(-c > 0 for c in k.coeffs)


def derive_class_from_pairings(rows, n: int, basis: str = "H") -> DivisorClass:
    """Solve for the divisor class with prescribed curve pairings.

    rows is a list of (CurveClass, value) conditions; the class is expressed
    in the requested basis.  Curve sets that do not span raise
    UnderdeterminedSystem, contradictory conditions raise InconsistentSystem.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    # the basis vectors in H coordinates (DivisorClass checks the basis)
    cols = [convert(DivisorClass(n, basis, [int(i == j) for i in range(n)]), "H").coeffs
            for j in range(n)]
    mat = []
    rhs = []
    for curve, value in rows:
        if curve.n != n:
            raise ValueError("curve lives on the wrong space")
        mat.append([sum(c * x for c, x in zip(curve.coeffs, col)) for col in cols])
        rhs.append(parse_rat(value))
    if not mat:
        raise UnderdeterminedSystem("solution set has %d free variables" % n)
    return DivisorClass(n, basis, tuple(solve_exact(mat, rhs)))


def xi(d: DivisorClass) -> DivisorClass:
    """The duality involution on n = 3 classes: swaps H_1 and H_3."""
    if d.n != 3:
        raise ValueError("the duality involution is implemented for n = 3")
    h = convert(d, "H").coeffs
    return convert(DivisorClass(3, "H", (h[2], h[1], h[0])), d.basis)


# -- named n = 3 classes -----------------------------------------------------

H1_3 = DivisorClass(3, "H", (1, 0, 0))
H2_3 = DivisorClass(3, "H", (0, 1, 0))
H3_3 = DivisorClass(3, "H", (0, 0, 1))
E1_3 = DivisorClass(3, "E", (1, 0, 0))
E2_3 = DivisorClass(3, "E", (0, 1, 0))
E3_3 = DivisorClass(3, "E", (0, 0, 1))


def class_P() -> DivisorClass:
    """The extra movable generator 2(2H_1 - H_2 + 2H_3) on the n = 3 space."""
    return DivisorClass(3, "H", (4, -2, 4))


def _cross(a, b) -> tuple:
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def facet_rows(a, b, c) -> tuple:
    """Integer rows giving the signs of a class's coordinates in a, b, c.

    a, b, c are integer H vectors on the n = 3 space.  The rows are
    sign(det) (b x c, c x a, a x b), det = a . (b x c): the rows of the
    adjugate of the matrix with columns a, b, c, signed so that they are
    |det| times the rows of its inverse.  Row i dotted with the H vector of
    a class is |det| times the class's i-th coordinate in a, b, c.  Raises
    ValueError when the vectors are linearly dependent.
    """
    rows = (_cross(b, c), _cross(c, a), _cross(a, b))
    det = sum(map(operator.mul, a, rows[0]))
    if not det:
        raise ValueError("generators %r are linearly dependent" % ((a, b, c),))
    return tuple(tuple(x if det > 0 else -x for x in row) for row in rows)


def integer_h(d: DivisorClass) -> list:
    """H coordinates of d times the lcm of their denominators, the integer
    vector that facet_rows are dotted with: g // gcd(L, *g) for the H
    coordinates g / L of _into_h."""
    g, scale = _into_h(d.basis, d.coeffs)
    c = gcd(scale, *g)
    return [x // c for x in g]


# order, Fl coordinates and covered locus of the n = 3 test curves; the
# curve names follow the geometry: G/G* pencils of quadrics and of dual
# quadrics, C_i families inside the boundary divisors, L2 a marked-line
# pencil, C12 the family sweeping the rank-1-with-degenerate-marking locus
CURVE_TABLE_X3 = (
    ("G", (1, 2, 3), "X3"),
    ("Gstar", (3, 2, 1), "X3"),
    ("C1", (0, 1, 2), "E1"),
    ("C1star", (0, 2, 1), "E1"),
    ("C2", (1, 0, 0), "E2"),
    ("C3", (1, 2, 0), "E3"),
    ("C12", (0, 1, 0), "E13"),
    ("L2", (0, 0, 1), "E2"),
)

CURVE_DISPLAY = {
    "G": "G",
    "Gstar": "G*",
    "C1": "C1",
    "C1star": "C1*",
    "C2": "C2",
    "C3": "C3",
    "C12": "C1,2",
    "L2": "L2",
}


def curves_x3() -> dict:
    """Named n = 3 curve classes, including the auxiliary rank-2 pencil R2."""
    out = {name: CurveClass(3, coeffs) for name, coeffs, _ in CURVE_TABLE_X3}
    out["R2"] = CurveClass(3, (1, 2, 1))
    return out


class TableRow(Record):
    # entries: pairings with H1, H2, H3, E1, E2, E3
    _fields = ("curve", "entries", "cover")


def table_x3():
    """The full 8 x 6 intersection table of the n = 3 space.

    Only the H columns are stored (they are the Fl coordinates of the
    curves); the E columns are recomputed through the lattice relations, so
    the table is a derived object, not a transcription.
    """
    divisors = [H1_3, H2_3, H3_3, E1_3, E2_3, E3_3]
    rows = []
    for name, coeffs, cover in CURVE_TABLE_X3:
        c = CurveClass(3, coeffs)
        rows.append(TableRow(name, tuple(pair(c, d) for d in divisors), cover))
    return rows
