"""Chow forms of quadrics in wedge coordinates.

The k-th compound of a quadric Q is a quadric form on the Pluecker
coordinates of (k-1)-planes: evaluating it on plucker(B) gives exactly
det(B^T Q B), so its zero locus is the variety of tangent (k-1)-planes.
This module evaluates that identity, follows Chow forms along degenerating
one-parameter families, and detects which wedge powers stay constant along
coordinate flag degenerations (the mechanism behind the boundary
contractions of the space of complete quadrics).

Rational evaluation runs on Python integers: plucker and chow_eval share
one scaling of the basis and its maximal minors by int_det (_int_plucker),
chow_eval takes the integer minors of the scaled form, sums the quadratic
form in integers and builds one Fraction at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
import operator

from ._value import Record, set_field
from .exact import (
    MPoly, _is_rational, clear_denominators, int_det, int_det_poly, k_subsets, mat_mul,
    mat_transpose,
)
from .quadrics import SymmetricForm, _int_minors, _minor_rows, compound


class ProjectivePoint(Record):
    """Point of a projective space with a canonical rational normalization.

    Coordinates are scaled to coprime integers whose first nonzero entry is
    positive, so equal points compare equal as tuples.
    """

    __slots__ = _fields = ("coords",)

    def __init__(self, coords):
        coords = [Fraction(c) for c in coords]
        if not any(coords):
            raise ValueError("projective point needs a nonzero coordinate")
        (ints,), _ = clear_denominators([coords])
        g = gcd(*ints)
        if next(v for v in ints if v) < 0:
            g = -g
        set_field(self, "coords", tuple(Fraction(v // g) for v in ints))

    def __repr__(self):
        return "ProjectivePoint(%s)" % (", ".join(str(c) for c in self.coords))


class PluckerVector(Record):
    """Maximal minors of a basis matrix, in lexicographic subset order."""

    _fields = ("n", "k", "coords")

    def __init__(self, n: int, k: int, coords: tuple):
        set_field(self, "n", n)
        set_field(self, "k", k)
        set_field(self, "coords", coords)


def plucker(basis) -> PluckerVector:
    """Pluecker vector of the span of the columns of an (n+1) x k rational
    matrix, which has full column rank exactly when some maximal minor is
    nonzero."""
    n, k, minors, den = _int_plucker(basis)
    return PluckerVector(n=n, k=k, coords=tuple(Fraction(m, den) for m in minors))


def _int_plucker(basis) -> tuple:
    """(n, k, minors, den) for an (n+1) x k rational basis, in integers.

    The basis is scaled once by the lcm L of its denominators; minors are
    int_det of the scaled rows on each k-subset, in lexicographic order, and
    the Pluecker coordinates are minors / den with den = L**k.
    """
    b = [list(r) for r in basis]
    if not _is_rational(b):
        raise TypeError("plucker expects rational entries")
    k = len(b[0]) if b else 0
    minors, den = [], 1
    if k:
        ints, scale = clear_denominators(b)
        minors = [int_det([ints[i] for i in s]) for s in k_subsets(len(b), k)]
        den = scale ** k
    if not any(minors):
        raise ValueError("basis must have full column rank")
    return len(b) - 1, k, minors, den


def chow_eval(q: SymmetricForm, k: int, basis) -> Fraction:
    """Evaluate the k-th Chow form of a rational form q on the span of basis.

    Equals det of the restricted form: p^T compound(q, k) p = det(B^T Q B)
    with p = plucker(B).  Zero exactly when the (k-1)-plane is tangent.

    Neither p nor the compound matrix is built in Fractions.  With Lb and L
    the lcms of the denominators of B and q, v = Lb**k p holds the integer
    maximal minors of Lb B, and C = L**k compound(q, k) the integer minors
    int_det(L Q[S, T]).  C is symmetric, so the form is summed in integers
    over the pairs S <= T only, as sum_S v_S (C_SS v_S + 2 sum_{T > S} C_ST v_T),
    and divided once by Lb**(2k) L**k.  Neither side of the identity is
    computed from the other.
    """
    if not _is_rational(q.rows):
        raise TypeError("chow_eval expects a rational form")
    _, kb, v, lv = _int_plucker(basis)
    if kb != k:
        raise ValueError("basis spans a plane of the wrong dimension")
    minor, den = _int_minors(q.rows, k)
    c = _minor_rows(q.n, k, minor)
    total = 0
    for s, (vs, row) in enumerate(zip(v, c)):
        if vs:
            total += vs * (row[s] * vs + 2 * sum(map(operator.mul, row[s + 1:], v[s + 1:])))
    return Fraction(total, lv * lv * den)


def chow_limit(q0: SymmetricForm, q1: SymmetricForm, k: int) -> ProjectivePoint:
    """Limit of the k-th Chow forms of q0 + t*q1 as t -> 0.

    The compound matrix of the pencil has polynomial entries; dividing out
    the largest common power of t and then setting t = 0 gives the limit
    point in the projectivized space of wedge-coordinate quadrics.  The
    coordinates are the limit matrix entries in row-major order (no radical
    is taken, so a nonreduced limit keeps its multiplicity structure).

    Both forms are scaled to integers by one lcm L, so each minor is
    int_det_poly of the scaled submatrices; that multiplies every entry by
    L**k, a positive factor the projective point drops.
    """
    if q0.n != q1.n:
        raise ValueError("forms must share an ambient space")
    size = q0.n + 1
    ints, _ = clear_denominators(q0.rows + q1.rows)
    a, b = ints[:size], ints[size:]

    def minor(s, t):
        return int_det_poly([[a[i][j] for j in t] for i in s], [[b[i][j] for j in t] for i in s])

    entries = [e for row in _minor_rows(q0.n, k, minor) for e in row]
    vals = [next(d for d, c in enumerate(e) if c) for e in entries if any(e)]
    if not vals:
        raise ValueError("family has identically vanishing k-th minors")
    shift = min(vals)
    return ProjectivePoint([e[shift] for e in entries])


def limit_support_coefficients(point: ProjectivePoint) -> dict:
    """Read a limit point as a quadric polynomial in Pluecker coordinates.

    Maps index pairs (i, j) with i <= j to the coefficient of p_i p_j in the
    quadratic form whose symmetric matrix has the point's coordinates; only
    nonzero monomials are reported.
    """
    m2 = len(point.coords)
    m = int(m2 ** 0.5)
    if m * m != m2:
        raise ValueError("coordinate vector is not a flattened square matrix")
    out = {}
    for i in range(m):
        for j in range(i, m):
            c = point.coords[i * m + j] if i == j else 2 * point.coords[i * m + j]
            if c:
                out[(i, j)] = c
    return out


# -- flag degenerations ------------------------------------------------------


def _wedge_vars(n: int):
    return tuple("t%d" % j for j in range(1, n + 1)) + tuple("q%d" % r for r in range(1, n + 1))


def _wedge_q_limit(n: int, k: int, live: tuple):
    """Compound of M^T q M with the common q-monomial content removed, at q = 0.

    M is unipotent upper-triangular with the live t_j in slot (j, j+1) and
    q = diag(1, q1, q1 q2, ...) scans across all coordinate hyperplane
    flags at once.
    """
    vars = _wedge_vars(n)
    one = MPoly.constant(1, vars)
    zero = MPoly(vars)
    size = n + 1
    m = [[one if i == j else zero for j in range(size)] for i in range(size)]
    for j in live:
        m[j - 1][j] = MPoly.variable("t%d" % j, vars)
    d = [one]
    for r in range(1, size):
        d.append(d[-1] * MPoly.variable("q%d" % r, vars))
    qmat = [[d[i] if i == j else zero for j in range(size)] for i in range(size)]
    big = mat_mul(mat_transpose(m), mat_mul(qmat, m))
    qnames = ["q%d" % r for r in range(1, size)]
    comp = _divide_content(compound(SymmetricForm(big), k).rows, qnames)
    return SymmetricForm([[e.substitute_zero(qnames) for e in row] for row in comp])


def _divide_content(rows, names):
    """Divide every entry of an MPoly matrix by the largest monomial in the
    named variables that divides all of its nonzero entries."""
    nonzero = [e for row in rows for e in row if not e.is_zero()]
    shift = [min(e.min_exponent(v) for e in nonzero) if v in names else 0
             for v in nonzero[0].vars]
    return [[e if e.is_zero() else e.divide_monomial(shift) for e in row] for row in rows]


def flag_wedge(n: int, k: int, j: int):
    """Limit k-th Chow form along the flag degeneration moved by t_j.

    Returns (matrix, constant): the limit wedge-coordinate quadric as a
    matrix over MPoly in t_j, and whether it is projectively independent of
    t_j.  The limit is constant exactly when j != k, which is what makes
    the k-th wedge map contract the j-th flag curve.
    """
    if not (1 <= k <= n and 1 <= j <= n):
        raise ValueError("k and j must lie in 1..n")
    name = "t%d" % j
    limit = SymmetricForm(_divide_content(_wedge_q_limit(n, k, (j,)).rows, [name]))
    constant = all(e.degree_in(name) <= 0 for row in limit.rows for e in row)
    return limit, constant


def wedge2_example_matrix() -> SymmetricForm:
    """The limit second wedge of a fully degenerating flag family on P^3.

    All three flag parameters are live; the result is the rank-one outer
    product v v^T with v = (1, t2, 0, t1*t2, 0, 0).  Rank-one consistency
    forces the (2,2) entry (1-indexed) to be t2^2: it is the square of the
    (1,2) entry divided by the (1,1) entry, not a unit.
    """
    return _wedge_q_limit(3, 2, (1, 2, 3))
