"""Chow forms of quadrics in wedge coordinates.

The k-th compound of a quadric Q is a quadric form on the Pluecker
coordinates of (k-1)-planes: evaluating it on plucker(B) gives exactly
det(B^T Q B), so its zero locus is the variety of tangent (k-1)-planes.
This module evaluates that identity, follows Chow forms along degenerating
one-parameter families, and detects which wedge powers stay constant along
coordinate flag degenerations (the mechanism behind the boundary
contractions of the space of complete quadrics).

Rational evaluation runs on Python integers: plucker and chow_eval share
one scaling of the basis and its maximal minors (_int_plucker), chow_eval
takes the integer compound of the form's integer matrix
(quadrics._int_minors), sums the quadratic form in integers and builds one
Fraction at the end.  No minor is a determinant of its own: both take
each 2 x 2 minor by its two products and build every higher level of minors
by Laplace expansion from the one below, with the same cached subset
tables.  Every limit is one kernel, _family_limit: the lowest x-order of
the compound of a symmetric integer matrix polynomial and its coefficient,
from one integer compound at x = 2^K (_compound_poly) read back as base-2^K
digits by exact._kronecker, which also reads the three flag parameters of
wedge2_example_matrix from one _flag_limit.  flag_wedge compares integer
Pluecker vectors.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, isqrt, prod
import itertools
import operator

from ._value import Record
from .exact import _int_rows, _kronecker
from .quadrics import SymmetricForm, _int_minors, _laplace_cols


class ProjectivePoint(Record):
    """Point of a projective space with a canonical rational normalization.

    Coordinates are ints or Fractions, else TypeError; they are scaled to
    coprime ints whose first nonzero entry is positive, so equal points
    compare equal as tuples.
    """

    __slots__ = _fields = ("coords",)

    def __init__(self, coords):
        (ints,), _ = _int_rows([coords])
        if not any(ints):
            raise ValueError("projective point needs a nonzero coordinate")
        g = gcd(*ints)
        if next(v for v in ints if v) < 0:
            g = -g
        Record.__init__(self, tuple(v // g for v in ints))

    def __repr__(self):
        return "ProjectivePoint(%s)" % (", ".join(str(c) for c in self.coords))


class PluckerVector(Record):
    """Maximal minors of a basis matrix, in lexicographic subset order."""

    _fields = ("n", "k", "coords")


def plucker(basis) -> PluckerVector:
    """Pluecker vector of the span of the columns of an (n+1) x k rational
    matrix, which has full column rank exactly when some maximal minor is
    nonzero."""
    n, k, minors, den = _int_plucker(basis)
    return PluckerVector(n=n, k=k, coords=tuple(Fraction(m, den) for m in minors))


def _int_plucker(basis, size=None) -> tuple:
    """(n, k, minors, den) for an (n+1) x k rational basis, in integers.

    The rows are read once (exact._int_rows); with size given, a basis of
    another row count raises ValueError before any minor is built.  The
    basis is scaled once by the lcm L of its denominators to B; minors
    are det B[S, :] on each k-subset S, in lexicographic order, and the
    Pluecker coordinates are minors / den with den = L**k.  The minors on
    the first j columns are built for j = 1..k: at j = 2 each is taken by
    its two products, b_r[0] b_s[1] - b_r[1] b_s[0] for rows r < s, and
    above it each j x j minor is expanded along column j - 1 into the
    (j-1)-minors of the level before, with the subset tables of the
    compound (quadrics._laplace_cols).
    """
    ints, scale = _int_rows(basis)
    if size is not None and len(ints) != size:
        raise ValueError("basis row count must be n+1")
    k = len(ints[0]) if ints else 0
    minors, den = [], 1
    if k:
        size = len(ints)
        minors = ([r[0] * s[1] - r[1] * s[0] for r, s in itertools.combinations(ints, 2)]
                  if k > 1 else [r[0] for r in ints])
        for j in range(3, k + 1):
            col = [r[j - 1] for r in ints]
            neg = [-x for x in col]
            # the expansion along the last of j columns carries (-1)**(j-1)
            signed = col + neg if j % 2 else neg + col
            minors = [sum(map(operator.mul, entries(signed), sub(minors)))
                      for entries, sub in _laplace_cols(size, j)]
        den = scale ** k
    if not any(minors):
        raise ValueError("basis must have full column rank")
    return len(ints) - 1, k, minors, den


def chow_eval(q: SymmetricForm, k: int, basis) -> Fraction:
    """Evaluate the k-th Chow form of a rational form q on the span of basis.

    Equals det of the restricted form: p^T compound(q, k) p = det(B^T Q B)
    with p = plucker(B).  Zero exactly when the (k-1)-plane is tangent.
    basis must have n + 1 rows, as for restrict.

    Neither p nor the compound matrix is built in Fractions.  With Lb the
    lcm of the denominators of B, v = Lb**k p holds the integer maximal
    minors of Lb B (_int_plucker), and C = q.den**k compound(q, k) the
    integer minors of q.ints from one Laplace pass (quadrics._int_minors).
    C is symmetric, so the form is summed in integers over the pairs S <= T
    only, as sum_S v_S (C_SS v_S + 2 sum_{T > S} C_ST v_T), and divided
    once by Lb**(2k) q.den**k.  Neither side of the identity is computed
    from the other.
    """
    _, kb, v, lv = _int_plucker(basis, q.n + 1)
    if kb != k:
        raise ValueError("basis spans a plane of the wrong dimension")
    c = _int_minors(q.ints, k)
    total = 0
    for s, (vs, row) in enumerate(zip(v, c)):
        if vs:
            total += vs * (row[s] * vs + 2 * sum(map(operator.mul, row[s + 1:], v[s + 1:])))
    return Fraction(total, lv * lv * q.den ** k)


def _compound_poly(coeffs, deg: int, k: int) -> list:
    """Rows of the k-th compound of the symmetric integer matrix polynomial
    C_0 + C_1 x + ... + C_d x^d, with coeffs = [C_0, ..., C_d], each entry
    as the deg + 1 coefficients of a k x k minor, lowest first; deg bounds
    the degree of every minor.

    With S_ij = sum_d |C_d[i][j]|, the sum of the absolute coefficients of
    a product of polynomials is at most the product of theirs, so a minor
    on rows R and columns T has at most per(S[R, T]), and so at most the
    product over R of the row sums of S.  H, the product of the k largest
    row sums, bounds every coefficient of every minor, and exact._kronecker
    reads the entries S <= T as balanced base-2^K digits of one integer
    compound (quadrics._int_minors) at x = 2^K, or, past its bit limit,
    interpolates them from the compounds at x = 0..deg.  Each is mirrored.
    """
    sums = sorted(sum(map(abs, itertools.chain(*entries))) for entries in zip(*coeffs))
    bound = prod(sums[-k:])

    def values_at(x):
        powers = [x ** d for d in range(len(coeffs))]
        matrix = [[sum(map(operator.mul, entry, powers)) for entry in zip(*rows)] for rows in zip(*coeffs)]
        return [v for a, row in enumerate(_int_minors(matrix, k)) for v in row[a:]]

    entries = iter(_kronecker(values_at, deg, bound))
    size = comb(len(coeffs[0]), k)
    rows = [[None] * size for _ in range(size)]
    for a in range(size):
        for b in range(a, size):
            rows[a][b] = rows[b][a] = next(entries)
    return rows


def _family_limit(coeffs, deg: int, k: int) -> tuple:
    """(order, rows): the lowest power x^order at which the k-th compound of
    C_0 + C_1 x + ... + C_d x^d, coeffs = [C_0, ..., C_d], with minors of
    degree at most deg, has a nonzero entry, and that coefficient's rows,
    from one _compound_poly; ValueError when every k-minor vanishes."""
    rows = _compound_poly(coeffs, deg, k)
    for order in range(deg + 1):
        limit = [[e[order] for e in row] for row in rows]
        if any(map(any, limit)):
            return order, limit
    raise ValueError("family has identically vanishing k-th minors")


def chow_limit(q0: SymmetricForm, q1: SymmetricForm, k: int) -> ProjectivePoint:
    """Limit of the k-th Chow forms of q0 + t*q1 as t -> 0.

    The compound matrix of the pencil has polynomial entries; dividing out
    the largest common power of t and then setting t = 0 gives the limit
    point in the projectivized space of wedge-coordinate quadrics.  The
    coordinates are the limit matrix entries in row-major order (no radical
    is taken, so a nonreduced limit keeps its multiplicity structure).

    The limit is _family_limit of [q0.ints, q1.ints], of degree k in t.
    With d0, d1 the dens, A + tB = d0 (q0 + (d1 / d0) t q1): its lowest
    coefficient is that of q0 + t*q1 times the positive factor
    d0**k (d1 / d0)**order, which the projective point drops.
    """
    if q0.n != q1.n:
        raise ValueError("forms must share an ambient space")
    _, rows = _family_limit([q0.ints, q1.ints], k, k)
    return ProjectivePoint([e for row in rows for e in row])


def limit_support_coefficients(point: ProjectivePoint) -> dict:
    """Read a limit point as a quadric polynomial in Pluecker coordinates.

    Maps index pairs (i, j) with i <= j to the coefficient of p_i p_j in the
    quadratic form whose symmetric matrix has the point's coordinates; only
    nonzero monomials are reported.
    """
    m2 = len(point.coords)
    m = isqrt(m2)
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
#
# M is the unipotent upper-triangular matrix with t_j in slot (j-1, j), and
# D = diag(1, x, x^2, ..., x^n) scans across the coordinate hyperplane flags
# as x -> 0.  The k-th compound of M^T D M is a polynomial in x whose lowest
# term, x^(k(k-1)/2), belongs to the subset {0..k-1} alone, so its limit is
# the rank-one form v v^T with v the Pluecker vector of the first k rows of
# M (Cauchy-Binet).  flag_wedge reads constancy off v; the wedge-contraction
# check compares v v^T with the limit _flag_limit takes directly.


def _flag_matrix(n: int, ts) -> list:
    """The unipotent (n+1) x (n+1) flag matrix with ts[j-1] in slot (j-1, j)."""
    m = [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
    for j, t in enumerate(ts, 1):
        m[j - 1][j] = t
    return m


def _flag_plucker(n: int, k: int, ts) -> list:
    """Integer Pluecker vector of the first k rows of the flag matrix."""
    return _int_plucker(zip(*_flag_matrix(n, ts)[:k]))[2]


def _flag_limit(n: int, k: int, ts) -> list:
    """Rows of the x -> 0 limit of the k-th compound of M^T D M, in integers.

    M^T D M = sum_d x^d m_d m_d^T over the rows m_d of the flag matrix M, so
    _family_limit takes the coefficient matrices m_d m_d^T; each entry is a
    polynomial in x of degree at most n + (n-1) + ... + (n-k+1).  The limit
    is the lowest coefficient, which must be that of x^(k(k-1)/2), or this
    raises AssertionError.
    """
    low = k * (k - 1) // 2
    coeffs = [[[x * y for y in row] for x in row] for row in _flag_matrix(n, ts)]
    order, rows = _family_limit(coeffs, sum(range(n - k + 1, n + 1)), k)
    if order != low:
        raise AssertionError("lowest term is x^%d, not x^%d" % (order, low))
    return rows


def flag_wedge(n: int, k: int, j: int) -> bool:
    """Whether the limit k-th Chow form along the flag degeneration moved by
    t_j is projectively independent of t_j.

    The limit is v v^T with v = _flag_plucker(n, k, t), where only t_j is
    nonzero.  v is affine in t_j, which sits in one entry of M, and its
    first coordinate is 1, so v is projectively constant exactly when
    v(t_j = 0) == v(t_j = 1).  That holds exactly when j != k, which is what
    makes the k-th wedge map contract the j-th flag curve.
    """
    if not (1 <= k <= n and 1 <= j <= n):
        raise ValueError("k and j must lie in 1..n")

    def v(t):
        ts = [0] * n
        ts[j - 1] = t
        return _flag_plucker(n, k, ts)

    return v(0) == v(1)


def wedge2_example_matrix() -> list:
    """The limit second wedge of a fully degenerating flag family on P^3,
    each entry a dict from exponent tuples in (t1, t2, t3) to nonzero
    integer coefficients: v v^T with v = (1, t2, 0, t1*t2, 0, 0), so
    rank-one consistency forces entry (2,2) (1-indexed) to be t2^2, the
    square of entry (1,2) over entry (1,1), not a unit.

    Each t_j lies in one row and one column of M^T D M, so every entry has
    degree at most 2 in each t_j, and t1^a t2^b t3^c -> X^(a + 3b + 9c) is
    one-to-one: digit i of _flag_limit(3, 2, (X, X^3, X^9)), read by
    exact._kronecker, is the coefficient of t1^(i % 3) t2^(i // 3 % 3)
    t3^(i // 9).  M^T D M has nonnegative coefficients, so the row sums of
    M^T M at t = (1, 1, 1) are the sums _compound_poly bounds by, and the
    two largest bound every coefficient.
    """
    def values_at(x):
        return [e for row in _flag_limit(3, 2, (x, x ** 3, x ** 9)) for e in row]

    sums = sorted(sum(r[i] * sum(r) for r in _flag_matrix(3, (1, 1, 1))) for i in range(4))
    entries = iter(_kronecker(values_at, 26, sums[-1] * sums[-2]))
    return [[{(i % 3, i // 3 % 3, i // 9): c for i, c in enumerate(next(entries)) if c}
             for _ in range(6)] for _ in range(6)]
