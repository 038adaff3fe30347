"""Exact rational arithmetic with fraction-free linear algebra.

Scalars are fractions.Fraction at the interface.  Polynomials in one
variable are coefficient sequences, lowest degree first.  Matrices are plain
sequences of rows of rational entries, ints or Fractions.  Elimination is
Bareiss fraction-free elimination, so every intermediate value stays an
integer; the only divisions performed are exact.

Raw matrices enter the integer kernels through one entry, _int_rows: it
checks the rows (ragged rows raise ValueError, an entry that is not an int
or a Fraction TypeError) and returns them as fresh lists of ints times L,
the lcm of their denominators (clear_denominators), with L = 1 after one
type pass when every entry is an int.  ff_det, mat_rank, solve_exact and
distinct_root_count read their input there, as do quadrics._int_basis,
quadrics.SymmetricForm, chowform._int_plucker and chowform.ProjectivePoint;
mat_mul only checks its factors there and multiplies them as they are.
Integers the package has drawn and certified itself skip it: the Chow-form
identity check of the verify module hands its symmetric integer matrices
straight to _symmetric_det.

Rational work runs on Python integers wherever it can.  _echelon, a
rank-revealing Bareiss elimination, is the one general elimination routine:
mat_rank, solve_exact and _int_det, the integer determinant of ff_det, run
it on integers.  ff_det of a rational matrix is the determinant of the
scaled matrix over the scale to the n-th power.  int_det_poly gives the
coefficients of a pencil's determinant form det(A + tB), for symmetric A
and B, from _sym_det, a symmetric Bareiss elimination over the upper
triangle that takes two steps a pass (Bareiss's two-step method, Math.
Comp. 22, 1968: three products and one exact division an entry where two
single steps take four and two) and seeks no pivot: at a zero pivot it
gives the matrix to _int_det, as _symmetric_det does.

Integer polynomials are read from one evaluation (Kronecker substitution,
_kronecker): with every coefficient bounded by H and 2^K > 2H, the value at
x = 2^K holds all of them as balanced base-2^K digits.  Hadamard's
inequality gives H for a pencil's determinant, and row sums of absolute
coefficients give it for the minors of a matrix polynomial
(chowform._compound_poly) and for chowform.wedge2_example_matrix, so one
elimination of A + 2^K B, or one compound at 2^K, replaces one per point.
From n = _STAGE_MIN_N on, int_det_poly runs the first 2n/3 steps of that
elimination at the narrower width their minors need, and repacks the
trailing entries at 2^K for the rest.
That path is taken while the packed length deg * K is at most
_KRONECKER_BITS (3200), near the measured one-width crossover of
3100-4800 bits and under the staged one of about 6000.
Past it, CPython's quadratic big-integer division makes the one evaluation
slower than deg + 1 small ones, so the values at x = 0..deg are interpolated
(_interpolate, whose one caller is _kronecker).  poly_gcd runs a primitive
integer remainder sequence instead of a Euclidean gcd over Fraction.
distinct_root_count certifies a squarefree polynomial by one gcd modulo the
prime 2^30 - 35, whose residues fit in one 30-bit CPython digit, and reads
the squarefree degree from poly_gcd only when that certificate fails.  A
quadric form is stored as an integer matrix and one denominator
(quadrics.SymmetricForm), which the Chow-form layers read as they are:
quadrics.compound and chowform.plucker build all their minors in one
Laplace pass over shared sub-minors, not one elimination each, and
quadrics.restrict and chowform.chow_eval each take one integer product.
ff_det's one caller in the package is verify.check_boundary_numbers.
"""

from __future__ import annotations

from fractions import Fraction
import itertools
import math
import operator


class ExactLinalgError(Exception):
    pass


class InconsistentSystem(ExactLinalgError):
    """Linear system has no solution."""


class UnderdeterminedSystem(ExactLinalgError):
    """Linear system has a positive-dimensional solution set."""


def parse_rat(s) -> Fraction:
    """Parse "p/q", "p" or a decimal such as "0.5" (also accepts ints and
    floats, but not booleans or None) into a Fraction in lowest terms.

    Exponent notation is rejected in text: "1e5000" would build a 5001-digit
    integer before anything could check its size.  A float is read from its
    shortest repr, exponent included ("1e-05" is 1/100000): a finite float
    has at most about 309 digits.
    """
    if isinstance(s, Fraction):
        return s
    if s is None:
        raise ValueError("null is not a number")
    if isinstance(s, bool):
        raise ValueError("a boolean is not a number: %r" % s)
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, float):
        return Fraction(repr(s))
    text = str(s).strip()
    if "e" in text or "E" in text:
        raise ValueError("exponent notation is not accepted: %r" % text)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator: %r" % text) from None


def format_rat(x: Fraction) -> str:
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    return str(Fraction(x))


def _primitive(cs):
    # integer coefficients divided by their content, the leading one positive
    g = math.gcd(*cs)
    if cs and cs[-1] < 0:
        g = -g
    return [c // g for c in cs]


def _trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _pseudo_remainder(a, b):
    """lc(b)^k * a mod b for integer coefficient lists, b nonzero."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(r) > db:
        lr = r[-1]
        shift = len(r) - 1 - db
        r = [lb * x for x in r]
        for i, y in enumerate(b):
            r[shift + i] -= lr * y
        r.pop()  # the leading coefficient cancelled
        while r and not r[-1]:
            r.pop()
    return r


def poly_gcd(a, b) -> list:
    """Primitive gcd of two integer polynomials by a primitive remainder sequence.

    Polynomials are coefficient sequences, lowest degree first; the result
    is a list with coprime integer coefficients and a positive leading
    coefficient, empty when both inputs are zero.  Dividing every remainder
    by its content keeps the coefficients as small as the gcd allows, where
    a Euclidean gcd over Fraction lets them grow.
    """
    a, b = _primitive(_trim(a)), _primitive(_trim(b))
    while b:
        r = _pseudo_remainder(a, b)
        a, b = b, _primitive(r)
    return a


# the prime of the squarefree certificate in distinct_root_count: the
# largest below 2^30, so every residue is one 30-bit CPython digit and a
# product of two residues at most two; the certificate holds for any prime
_CERT_P = (1 << 30) - 35


def _gcd_degree_mod_p(a, b) -> int:
    """Degree of gcd(a, b) over the integers mod _CERT_P, for coefficient
    lists reduced mod _CERT_P and trimmed there, a nonzero.

    lc(b) is a unit mod _CERT_P, so the integer pseudo-remainder reduced mod
    _CERT_P is a unit times the remainder of a by b there.
    """
    while b:
        a, b = b, _trim([c % _CERT_P for c in _pseudo_remainder(a, b)])
    return len(a) - 1


def distinct_root_count(coeffs) -> tuple[int, int]:
    """Return (degree, number of distinct complex roots) of a nonzero polynomial.

    coeffs are its rational coefficients, lowest degree first; trailing
    zeros are dropped, so the degree is that of the polynomial, not the
    length of the sequence.  The distinct-root count is the degree of the
    squarefree part p / gcd(p, p'), so no root finding or factoring is
    involved.

    A squarefree polynomial is certified modulo the prime P = 2^30 - 35 first.
    With a the integer polynomial, when P does not divide lc(a) and
    gcd(a mod P, a' mod P) is a constant, the integer gcd g is a constant
    too: lc(g) divides lc(a), so reducing mod P keeps the degree of g.  In
    every other case the primitive remainder sequence of poly_gcd gives the
    exact answer.
    """
    (a,), _ = _int_rows([coeffs])
    a = _trim(a)
    if not a:
        raise ValueError("zero polynomial has no well-defined root count")
    degree = len(a) - 1
    da = [i * c for i, c in enumerate(a)][1:]
    if a[-1] % _CERT_P and not _gcd_degree_mod_p(
            [c % _CERT_P for c in a], _trim([c % _CERT_P for c in da])):
        return (degree, degree)
    return (degree, degree - (len(poly_gcd(a, da)) - 1))


# -- matrices ---------------------------------------------------------------


def _int_rows(m) -> tuple:
    """(rows, L): the rows of a rational matrix (a vector as one row) as
    fresh lists of ints, times L, the lcm of the entries' denominators.

    The one entry where raw matrices reach the integer kernels.  Ragged rows
    raise ValueError, an entry whose type is not int or Fraction (a bool, a
    float, a str) TypeError.  All-int rows are returned after one type pass
    with L = 1; the kernels eliminate the lists in place, never the input.
    """
    rows = [list(r) for r in m]
    if len(set(map(len, rows))) > 1:
        raise ValueError("matrix rows must have equal length")
    types = set(map(type, itertools.chain.from_iterable(rows)))
    if types <= {int}:
        return rows, 1
    if not types <= {int, Fraction}:
        raise TypeError("entries must be ints or Fractions")
    return clear_denominators(rows)


def mat_mul(a, b):
    """Matrix product of matrices with rational or integer entries; an
    all-integer product has int entries."""
    a, b = [list(r) for r in a], [list(r) for r in b]
    # _int_rows only checks the factors here: the product is a plain sum of
    # products, independent of the scaling the integer kernels use
    _int_rows(a), _int_rows(b)
    if not a or not b:
        return []
    if len(a[0]) != len(b):
        raise ValueError("shape mismatch in matrix product")
    bt = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in bt] for row in a]


def clear_denominators(rows):
    """Scale a rational matrix to integers.

    Returns (L * rows as lists of ints, L) with L the least common multiple
    of the entries' denominators.
    """
    # a list, not a generator: CPython 3.11 leaks about 100 bytes on every
    # math.lcm(*generator) call
    scale = math.lcm(*[x.denominator for r in rows for x in r])
    return [[x.numerator * (scale // x.denominator) for x in r] for r in rows], scale


def _echelon(a, cols):
    """Bareiss-eliminate an integer matrix in place to row echelon form;
    return the pivot columns and the sign of the row swaps.

    Pivots are sought in the first cols columns, skipping a column with no
    pivot left; later columns (a right-hand side) are carried along.  Each
    step divides by the previous pivot, exactly (Bareiss, Math. Comp. 22,
    1968), so entries stay integers.  Entries below pivots are stale.
    """
    rows = len(a)
    pivots = []
    sign = prev = 1
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        if not a[r][c]:
            swap = next((i for i in range(r + 1, rows) if a[i][c]), None)
            if swap is None:
                continue
            a[r], a[swap] = a[swap], a[r]
            sign = -sign
        pivot = a[r][c]
        pivot_row = a[r][c + 1:]
        for i in range(r + 1, rows):
            row = a[i]
            f = row[c]
            row[c + 1:] = [(pivot * x - f * y) // prev for x, y in zip(row[c + 1:], pivot_row)]
        prev = pivot
        pivots.append(c)
    return pivots, sign


def _back_substitute(a, n, col):
    """Solve the first n rows of a full-rank _echelon result against column
    col.  With d the last pivot, d x is integral (Cramer's rule), so only
    exact integer divisions are taken before the final x = (d x) / d."""
    d = a[n - 1][n - 1]
    y = [0] * n
    for k in range(n - 1, -1, -1):
        row = a[k]
        y[k] = (d * row[col] - sum(map(operator.mul, row[k + 1:n], y[k + 1:]))) // row[k]
    return [Fraction(v, d) for v in y]


def _sym_det(u, stage=None):
    """Determinant of a symmetric integer matrix by symmetric two-step
    Bareiss elimination, or None at a zero pivot.

    u holds the upper triangle, u[i] = [a_ii, a_i,i+1, ..., a_i,n-1], and is
    eliminated in place.  A Bareiss step keeps the trailing block symmetric,
    so only its entries j >= i are updated.  The pivot of step k is the
    leading principal minor of k + 1 rows, and each step divides exactly by
    the one before while no pivot is zero.  No pivot is sought: at a zero
    pivot the elimination stops and returns None, and the caller takes the
    general elimination (_int_det) of the full matrix.

    Steps k and k + 1 run as one pass (Bareiss's two-step method, Math.
    Comp. 22, 1968).  With p the last pivot and a = a_kk, b = a_k,k+1,
    c = a_k+1,k+1, the pivot of step k + 1 is c0 = (ac - b^2) / p; row
    i >= k + 2 takes e_i = (b a_ki - a a_k+1,i) / p and
    g_i = (b a_k+1,i - c a_ki) / p, and its entry j >= i becomes
    (c0 a_ij + e_i a_k+1,j + g_i a_kj) / p, three products and one division
    where two single steps take four and two.  Each quotient is a minor
    (Sylvester's identity), so every division is exact, and rows k + 2 on
    hold what two single steps give; row k + 1 is left as it was, a pivot
    row no later step reads.  Both pivots a and c0
    are tested, so None is returned on exactly the matrices a single-step
    elimination stops on.  A step left over runs alone: the last one, which
    updates one entry, and the one before step s of a stage.

    stage = (s, widen) runs steps 0..s-1 on a narrower packing of the matrix
    (int_det_poly): before step s, widen(u, prev) rewrites the trailing rows
    u[s:] in place and returns the new last pivot.
    """
    n = len(u)
    prev = 1
    s, widen = stage or (n, None)
    k = 0
    while k < n - 1:
        if k == s:
            prev = widen(u, prev)
        row = u[k]
        a = row[0]
        if not a:
            return None
        if k + 2 == n or k + 1 == s:
            for i in range(k + 1, n):
                f = row[i - k]
                u[i] = [(a * x - f * y) // prev for x, y in zip(u[i], row[i - k:])]
            prev = a
            k += 1
            continue
        nxt = u[k + 1]
        b, c = row[1], nxt[0]
        c0 = (a * c - b * b) // prev
        if not c0:
            return None
        for i in range(k + 2, n):
            x, y = row[i - k], nxt[i - k - 1]
            e = (b * x - a * y) // prev
            g = (b * y - c * x) // prev
            u[i] = [(c0 * z + e * w + g * v) // prev for z, w, v in zip(u[i], nxt[i - k - 1:], row[i - k:])]
        prev = c0
        k += 2
    return u[n - 1][0]


def _int_det(a) -> int:
    """Determinant of a square integer matrix, eliminated in place by
    _echelon: the sign of its row swaps times its last pivot, or 0 when a
    column has no pivot."""
    n = len(a)
    pivots, sign = _echelon(a, n)
    return sign * a[n - 1][n - 1] if len(pivots) == n else 0


def _symmetric_det(rows) -> int:
    """Determinant of a symmetric integer matrix: _sym_det of a copy of its
    upper triangle, or, at a zero pivot, _int_det of a copy of the rows."""
    det = _sym_det([list(r[i:]) for i, r in enumerate(rows)])
    return _int_det([list(r) for r in rows]) if det is None else det


def _is_symmetric(a) -> bool:
    # square, and each row equals its column; stops at the first that does
    # not, and a short row makes the strict zip raise
    return len(a[0]) == len(a) and all(map(operator.eq, map(tuple, a), zip(*a, strict=True)))


def _interpolate(values) -> list:
    """Integer coefficients, lowest degree first, of the polynomial of
    degree <= d with integer coefficients that takes values[t] at t = 0..d.

    Newton's divided differences: at the nodes 0..d each step divides by an
    integer j, and the quotient is an integer because the polynomial has
    integer coefficients.  The list has d + 1 entries, trailing zeros kept.
    """
    c = list(values)
    n = len(c) - 1
    for j in range(1, n + 1):
        for i in range(n, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) // j
    coeffs = [c[n]]
    for k in range(n - 1, -1, -1):
        # coeffs <- coeffs * (t - k) + c[k]
        coeffs = [x - k * y for x, y in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += c[k]
    return coeffs


# Largest predicted packed length deg * K, in bits, for which _kronecker
# reads a polynomial's coefficients from one evaluation at x = 2^K.  Below
# it one symmetric elimination of a pencil was up to 4x faster than n + 1
# eliminations and an interpolation, 2 x 2 pairs included, and about level
# just under it; above it CPython's quadratic big-integer division makes it
# slower.  With the two-step elimination of _sym_det at one width, the two
# paths crossed at about 3100 bits for 6 x 6 pairs of 85-100-bit entries, 3400 for entries
# of 30 bits, 4200 for random_form pencils and 4800 for entries of 3 bits
# (one core of a shared 2-vCPU Xeon machine, Python 3.11.7); staged from
# n = _STAGE_MIN_N on, random_form pencils crossed at about 6000 bits.
# Compounds of a pencil (chowform._compound_poly) cross over near the limit
# too: with 64-bit entries, one compound at 2^K took about as long as
# k + 1 small ones at n = 9, k = 7 (3318 packed bits), and 1.3-1.4x as long
# at n = 10, k = 9 (5481 bits).  The largest pencil of the pencil-ladder
# benchmark (P^16) packs at most 2567 bits, that of cq pencil --n 40 --k 1
# 15960.  int_det_poly stages its one elimination (_STAGE_MIN_N) only under
# this limit.  Past it, forcing the staged evaluation through beat the
# per-point path for cq pencil --n 25 --k 1 (5850 bits, 0.82x; one width
# 1.45x) and lost at --n 31 (9331 bits, 1.6x; one width 2.8x) and --n 40
# (2.7x; one width 4.6x).
_KRONECKER_BITS = 3200

# Smallest n at which int_det_poly runs steps 0..s-1, s = 2n/3, of its one
# elimination of A + 2^K B at the narrower 2^k0 that the minors of those
# steps need, then repacks the trailing block at 2^K.  Per determinant, on
# the pencil-ladder pencils (16 seeds a size, one core of a shared 2-vCPU
# Xeon machine, Python 3.11.7), against one width throughout, both on the
# two-step elimination: 1.13-1.15x at n = 9..11, where the repack costs more
# than the narrow steps save; 0.97x at n = 12, 0.93x at 13, 0.91x at 14,
# 0.85x at 15, 0.81x at 16 and 0.79x at 17.
# Splitting at n/2 took 3-9% longer than at 2n/3 for n = 12..17, at 3n/4
# 0-5% longer and at n/3 15-33% longer; rounding s to an even step, so that
# no single step precedes the repack, was level within 1%.
_STAGE_MIN_N = 12


def _balanced_digits(v: int, k: int, count: int, what: str) -> list:
    """The count balanced base-2^k digits of v, each in [-2^(k-1), 2^(k-1)),
    lowest first.  A value with a nonzero remainder after them lies past
    their range, and raises ExactLinalgError naming what it is rather than
    being truncated."""
    mask, half, base = (1 << k) - 1, 1 << (k - 1), 1 << k
    digits = []
    for _ in range(count):
        d = v & mask
        if d >= half:
            d -= base
        digits.append(d)
        v = (v - d) >> k
    if v:
        raise ExactLinalgError("%s exceeds its coefficient bound" % what)
    return digits


def _kronecker(values_at, deg: int, bound: int) -> list:
    """Coefficients of integer polynomials p_1, ..., p_m of degree at most
    deg, each a list of deg + 1 integers, lowest degree first.

    values_at(x) returns the values p_1(x), ..., p_m(x) at an integer x, and
    bound is at least the absolute value of every coefficient.  With
    K = bitlen(bound) + 1, 2^(K-1) > bound, so one call at x = 2^K holds
    every coefficient as a balanced base-2^K digit (Kronecker substitution,
    _balanced_digits); a value with a nonzero remainder after deg + 1
    digits exceeds the bound, and raises ExactLinalgError rather than being
    truncated.  That one call is taken while the predicted packed length
    deg * K is at most _KRONECKER_BITS.  Past it, values_at runs at
    x = 0..deg and each polynomial is rebuilt by _interpolate.
    """
    k = bound.bit_length() + 1
    if deg * k > _KRONECKER_BITS:
        return [_interpolate(v) for v in zip(*[values_at(x) for x in range(deg + 1)])]
    return [_balanced_digits(v, k, deg + 1, "determinant form") for v in values_at(1 << k)]


def _pencil_upper(a, b, t) -> list:
    # the upper triangle of A + tB, as _sym_det takes it
    return [[x + t * y for x, y in zip(ra[i:], rb[i:])] for i, (ra, rb) in enumerate(zip(a, b))]


def _widen(u, prev: int, s: int, k0: int, t: int) -> int:
    """Carry a symmetric elimination of A + 2^k0 B after s steps over to
    A + tB: each trailing entry of u[s:] and the last pivot prev, minors of
    at most s + 1 rows, is read as s + 2 balanced base-2^k0 digits and
    evaluated at t.  Rewrites u[s:] in place and returns the new pivot."""
    def repack(v):
        value = 0
        for d in reversed(_balanced_digits(v, k0, s + 2, "pencil minor")):
            value = value * t + d
        return value

    u[s:] = [[repack(v) for v in row] for row in u[s:]]
    return repack(prev)


def int_det_poly(a, b) -> list:
    """Integer coefficients of det(A + tB), lowest degree first.

    A and B are symmetric integer matrices of one size n, as a pencil's
    forms are, or this raises ValueError; the list has n + 1 entries,
    trailing zeros included.

    The rows are multilinear, so c_j, the coefficient of t^j, is a sum of
    determinants with j rows from B and the others from A, and Hadamard's
    inequality bounds the sum of all |c_j| by H = prod_i (|a_i| + |b_i|)
    over the rows, each norm rounded up (isqrt + 1).  _kronecker reads the
    n + 1 coefficients from one symmetric elimination (_sym_det) of
    A + 2^K B, an elimination of (nK)-bit integers instead of n + 1 of small
    ones, or, past its bit limit, from one elimination at each t = 0..n.
    Where _sym_det meets a zero pivot, A + tB at the same t is eliminated
    by _int_det, the general elimination of ff_det.

    From n = _STAGE_MIN_N on, that one elimination runs in two widths.
    Before Bareiss step s = 2n/3 every entry is a minor of A + xB on at
    most s + 1 rows, a polynomial of degree s + 1 or less in x whose
    coefficients the product of the s + 1 largest row norms bounds; with k0
    its bit length plus one, steps 0..s-1 run on A + 2^k0 B, two a pass,
    and step s - 1 alone where s is odd, so that a pass ends at step s: its
    entries there are the minors of the single-step elimination (Bareiss,
    Math. Comp. 22, 1968), and the bound holds for them.  Each trailing
    entry and the last pivot are then read as s + 2 balanced base-2^k0
    digits (a remainder raises ExactLinalgError) and evaluated at 2^K, and
    steps s..n-2 finish at full width.  A leading minor vanishes at 2^k0
    exactly when it vanishes as a polynomial, its coefficients being under
    the bound, and so exactly when it vanishes at 2^K: both widths meet the
    same zero pivots.  Without one, the determinant is the integer one
    width gives, and its coefficients come out bit-identical; with one, the
    staged elimination returns None as the one-width one would.
    """
    n = len(a)
    if not (a and len(b) == n and _is_symmetric(a) and _is_symmetric(b)):
        raise ValueError("int_det_poly expects symmetric matrices of one size")
    norms = [math.isqrt(sum(map(operator.mul, ra, ra))) + math.isqrt(sum(map(operator.mul, rb, rb))) + 2
             for ra, rb in zip(a, b)]
    # k0 = 0 below _STAGE_MIN_N, where no step is staged
    s = 2 * n // 3
    k0 = math.prod(sorted(norms)[-s - 1:]).bit_length() + 1 if n >= _STAGE_MIN_N else 0

    def det_at(t):
        # staged at the one evaluation x = 2^K; the points t = 0..n past
        # _KRONECKER_BITS lie far below 2^k0 > 2^(s+2)
        if k0 and t > 1 << k0:
            det = _sym_det(_pencil_upper(a, b, 1 << k0), (s, lambda u, prev: _widen(u, prev, s, k0, t)))
        else:
            det = _sym_det(_pencil_upper(a, b, t))
        if det is None:
            det = _int_det([[x + t * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
        return [det]

    return _kronecker(det_at, n, math.prod(norms))[0]


def ff_det(m):
    """Determinant of a square rational matrix: one Bareiss elimination
    (_int_det) of the matrix scaled to integers by L (_int_rows), over L to
    the n-th power."""
    a, scale = _int_rows(m)
    n = len(a)
    if n == 0:
        raise ValueError("empty matrix")
    if len(a[0]) != n:
        raise ValueError("determinant of a non-square matrix")
    return Fraction(_int_det(a), scale ** n)


def mat_rank(m) -> int:
    """Rank of a matrix with Fraction entries, from its integer elimination."""
    ints, _ = _int_rows(m)
    if not ints:
        return 0
    return len(_echelon(ints, len(ints[0]))[0])


def solve_exact(a, b):
    """Solve A x = b exactly over the rationals.

    Returns the unique solution vector.  Raises InconsistentSystem when no
    solution exists and UnderdeterminedSystem when the solution set has
    free variables; this function never guesses.  [A | b] is read and
    scaled to integers at once (_int_rows).
    """
    a, b = list(a), list(b)
    if len(a) != len(b):
        raise ValueError("rhs length mismatch")
    aug, _ = _int_rows([[*row, v] for row, v in zip(a, b)])
    rows = len(aug)
    cols = len(aug[0]) - 1 if rows else 0
    pivots, _ = _echelon(aug, cols)
    for i in range(len(pivots), rows):
        if aug[i][cols]:
            raise InconsistentSystem("no solution")
    if len(pivots) < cols:
        raise UnderdeterminedSystem("solution set has %d free variables" % (cols - len(pivots)))
    return _back_substitute(aug, cols, cols) if cols else []
