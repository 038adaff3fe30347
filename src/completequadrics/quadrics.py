"""Quadric forms, rank strata and complete-quadric flags.

A quadric on P^n is a nonzero symmetric (n+1) x (n+1) matrix with rational
entries.  The rank-<= i locus inside the P(N) of all quadrics
(N = C(n+2,2) - 1) has codimension (n+1-i)(n+2-i)/2, and a degenerate
quadric carries marking data on its singular locus: a complete quadric is a
flag of forms, each living on the singular locus of the previous one.

A form is stored as an integer matrix and one denominator (SymmetricForm),
and every kernel computes in those integers.  The k-th compound, the matrix
of all k x k minors, is taken in one Laplace pass: level 2 is taken by the
two products of each 2 x 2 minor, and each higher level of minors expands
into the level below along one row, over subset tables that are built on
first use and cached per shape (_int_minors).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import struct
from fractions import Fraction

from ._value import Record
from .exact import (
    _echelon,
    _int_rows,
    _is_symmetric,
    parse_rat,
)
from .exact import ff_det  # noqa: F401  bench/test_bench.py traces and restores this alias


class SymmetricForm(Record):
    """Symmetric matrix of a quadric form on P^n (matrix size n+1), stored
    as ints / den: ints a tuple of integer rows, den a positive int coprime
    to their content.  The pair is canonical, so forms are equal exactly
    when their entries are.  The kernels read ints and den; rows is the view
    as numbers, ints itself when den is 1 and Fractions otherwise.

    The constructor reads its rows through exact._int_rows, which raises
    TypeError on an entry that is not an int or a Fraction and scales the
    rows by the lcm of their denominators; symmetry is tested after it, on
    the scaled rows.  _unchecked(ints, den) builds a form from integer
    rows the package computed, symmetric by construction, with neither test
    (random_form, restrict, compound, pencils._sym_outer and the moving
    forms of verify.check_chow_limits).
    """

    __slots__ = _fields = ("n", "ints", "den")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        m = len(rows)
        if m == 0 or any(len(r) != m for r in rows):
            raise ValueError("quadric matrix must be square and nonempty")
        ints, den = _int_rows(rows)
        if not _is_symmetric(ints):
            raise ValueError("matrix is not symmetric")
        Record.__init__(self, m - 1, tuple(map(tuple, ints)), den)

    @classmethod
    def _unchecked(cls, ints, den=1):
        # ints: a nonempty square symmetric matrix of ints; den > 0
        g = math.gcd(den, *itertools.chain.from_iterable(ints)) if den != 1 else 1
        if g != 1:
            ints, den = [[x // g for x in r] for r in ints], den // g
        form = cls.__new__(cls)
        Record.__init__(form, len(ints) - 1, tuple(map(tuple, ints)), den)
        return form

    @property
    def rows(self) -> tuple:
        den = self.den
        return self.ints if den == 1 else tuple(tuple(Fraction(x, den) for x in r) for r in self.ints)

    @classmethod
    def from_rational(cls, rows):
        return cls([[parse_rat(x) for x in r] for r in rows])

    @classmethod
    def diagonal(cls, entries):
        entries = [parse_rat(x) for x in entries]
        m = len(entries)
        return cls([[entries[i] if i == j else Fraction(0) for j in range(m)] for i in range(m)])

    @classmethod
    def from_json(cls, data: dict):
        form = cls.from_rational(data["matrix"])
        if "n" in data and int(data["n"]) != form.n:
            raise ValueError("declared n does not match matrix size")
        return form


def restrict(q: SymmetricForm, basis) -> SymmetricForm:
    """Restrict a rational form on P^n to the subspace spanned by the
    columns of basis.

    basis is an (n+1) x k rational matrix of rank k; the result is the k x k
    form B^T Q B on the P^(k-1) it spans.  B is scaled to integers by the
    lcm Lb of its denominators (_int_basis), so B^T Q B is the integer
    product (_int_congruence) of Lb B and q.ints over q.den Lb**2.
    """
    cols, lb = _int_basis(basis, q.n + 1)
    return SymmetricForm._unchecked(_int_congruence(q.ints, cols), q.den * lb * lb)


def _independent(b, cols: int) -> bool:
    # the columns of b are independent: one elimination of a copy of b
    return len(_echelon([r[:] for r in b], cols)[0]) == cols


def _int_basis(basis, size: int) -> tuple:
    """(columns of Lb B, Lb) for a basis B of a subspace of a space of
    dimension size, Lb the lcm of its denominators.

    Raw rows are read and scaled by exact._int_rows, which raises on ragged
    rows and non-rational entries.  Raises ValueError unless B has size rows
    and k >= 1 independent columns, the rank read from one elimination of a
    copy of Lb B.
    """
    bi, lb = _int_rows(basis)
    if len(bi) != size:
        raise ValueError("basis row count must be n+1")
    k = len(bi[0]) if bi else 0
    if k == 0:
        raise ValueError("empty basis")
    if not _independent(bi, k):
        raise ValueError("basis columns are linearly dependent")
    return list(zip(*bi)), lb


def _int_congruence(a, cols) -> list:
    """Rows of B^T A B for a symmetric integer matrix A and the columns of an
    integer B; each entry i <= j is summed once and mirrored."""
    # the columns of A B
    acols = [[sum(map(operator.mul, row, col)) for row in a] for col in cols]
    k = len(cols)
    rows = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            rows[i][j] = rows[j][i] = sum(map(operator.mul, cols[i], acols[j]))
    return rows


def compound(q: SymmetricForm, k: int) -> SymmetricForm:
    """k-th compound: the symmetric matrix of all k x k minors.

    Rows and columns are indexed by the lexicographically ordered k-element
    subsets of {0..n}; entry (S, T) is det Q[S, T].  The rank of the
    compound of a rank-r rational form is C(r, k).

    The integer minors of q.ints come from one Laplace pass (_int_minors),
    and each entry is such a minor over q.den**k.
    """
    return SymmetricForm._unchecked(_int_minors(q.ints, k), q.den ** k)


def _int_minors(ints, k: int) -> list:
    """Rows of the k-th compound of a symmetric integer matrix A, in
    lexicographic subset order: entry (S, T) is det A[S, T].

    The minors are built level by level.  Level 2 is taken by its two
    products, r_s[c] r_t[d] - r_s[d] r_t[c] for rows s < t and columns
    c < d (_laplace_pairs).  Above it, a j x j minor on rows R and columns
    T expands along the first row of R into the (j-1)-minors on the tail
    R[1:], which level j - 1 already holds.  Every row set at level j is
    the tail of a k-subset, so that level only needs the j-subsets of
    range(k - j, size), over all column j-subsets (_laplace_rows,
    _laplace_cols).  det A[S, T] = det A[T, S] for a symmetric A, so level
    k takes only the pairs S <= T and mirrors them.
    """
    size = len(ints)
    if not 1 <= k <= size:
        raise ValueError("k out of range")
    if k == 1:
        return ints
    pairs = _laplace_pairs(size)
    # at level k, row a (the subset S) only needs the columns T >= S
    level = [[rs[c] * rt[d] - rs[d] * rt[c] for c, d in (pairs[a:] if k == 2 else pairs)]
             for a, (rs, rt) in enumerate(itertools.combinations(ints[k - 2:], 2))]
    if k > 2:
        # each row followed by its negation, which the column getters pick
        # the alternating cofactor signs from
        signed = [[*r, *[-x for x in r]] for r in ints]
        for j in range(3, k + 1):
            cols = _laplace_cols(size, j)
            level = [[sum(map(operator.mul, entries(signed[s]), minors(level[tail])))
                      for entries, minors in (cols[a:] if j == k else cols)]
                     for a, (s, tail) in enumerate(_laplace_rows(size, k, j))]
    return [[level[b][a - b] for b in range(a)] + row for a, row in enumerate(level)]


@functools.cache
def _laplace_pairs(size: int) -> tuple:
    """The column pairs (c, d), c < d, of range(size) in lexicographic
    order: the columns of level 2 in _int_minors."""
    return tuple(itertools.combinations(range(size), 2))


@functools.cache
def _laplace_rows(size: int, k: int, j: int) -> tuple:
    """(R[0], index of R[1:]) for each j-subset R of range(k - j, size),
    j >= 3 (level 2 is taken by its products), in lexicographic order; the
    index is that of the tail among the (j-1)-subsets of
    range(k - j + 1, size), the rows of level j - 1 in _int_minors."""
    tails = {t: i for i, t in enumerate(itertools.combinations(range(k - j + 1, size), j - 1))}
    return tuple((r[0], tails[r[1:]]) for r in itertools.combinations(range(k - j, size), j))


@functools.cache
def _laplace_cols(size: int, j: int) -> tuple:
    """(entries, minors) getters for each j-subset T of range(size), j >= 3,
    in lexicographic order, for the expansion of a j x j minor along one line
    (level 2 is taken by its products, with no getters).

    For a line x followed by its negation (2 * size values), entries picks
    (-1)**i x[T[i]], i = 0..j-1; for a list of the (j-1)-minors on all
    (j-1)-subsets of range(size), minors picks those on T without T[i].  The
    sum of their products is the cofactor expansion along x.
    """
    index = {t: i for i, t in enumerate(itertools.combinations(range(size), j - 1))}
    return tuple(
        (operator.itemgetter(*[x + size * (i % 2) for i, x in enumerate(t)]),
         operator.itemgetter(*[index[t[:i] + t[i + 1:]] for i in range(j)]))
        for t in itertools.combinations(range(size), j)
    )


def stratum_codim(n: int, i: int) -> int:
    """Codimension of the rank-<= i locus in the space of quadrics on P^n."""
    if not 1 <= i <= n + 1:
        raise ValueError("rank bound out of range")
    return (n + 1 - i) * (n + 2 - i) // 2


def quadric_space_dim(n: int) -> int:
    """Dimension N of the projective space of quadrics on P^n."""
    return math.comb(n + 2, 2) - 1


def _small_ints(rng, count: int) -> list:
    """count draws, each equal to one call of rng.randint(-3, 3), read from
    the same Mersenne Twister words in the same order.

    randint(-3, 3) is -3 + _randbelow(7), and for random.Random _randbelow(7)
    reads getrandbits(3) until a value below 7 comes up; this runs that loop
    inline, so the draws and the generator state after them are those of
    count randint calls, without their per-call overhead.
    """
    bits = rng.getrandbits
    out = []
    for _ in range(count):
        r = bits(3)
        while r == 7:
            r = bits(3)
        out.append(r - 3)
    return out


def _randbelow(rng, n: int) -> int:
    """rng.randrange(n), read from the same Mersenne Twister words.

    For random.Random, randrange(n), randint(a, a + n - 1) - a and the index
    that choice takes from n items all come from _randbelow(n): getrandbits
    of n's bit length, drawn until a value below n comes up.  This runs that
    loop without the calls around it, as _small_ints does for randint(-3, 3).
    """
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _int_matrix(rng, rows: int, cols: int) -> list:
    """Random rows x cols integer matrix, entries in -3..3.

    The package's only random-matrix draw.  Entries are the draws of
    rng.randint(-3, 3), replayed by _small_ints, row by row.
    """
    count = rows * cols
    flat = _small_ints(rng, count)
    return [flat[i:i + cols] for i in range(0, count, cols)]


def _random_basis(rng, rows: int, cols: int) -> list:
    """Random rows x cols integer matrix of rank cols, entries in -3..3.

    The first of the matrices _int_matrix draws whose columns are
    independent: the invertible M of random_form and the points and
    subspaces that pencil tangencies and the Chow-form identity are counted
    on.  More columns than rows can never be independent, so that shape
    raises ValueError before anything is drawn.
    """
    if cols > rows:
        raise ValueError("a %d x %d matrix cannot have rank %d" % (rows, cols, cols))
    b = _int_matrix(rng, rows, cols)
    while not _independent(b, cols):
        b = _int_matrix(rng, rows, cols)
    return b


def _congruent_form(n: int, r: int, seed: int, draw) -> SymmetricForm:
    # M^T D M on P^n, with D = diag(d_0, .., d_(r-1), 0, .., 0) and then M
    # drawn from random.Random(seed): each d_k is rng.choice of these six,
    # replayed by _randbelow, and M is draw(rng, n + 1, n + 1)
    rng = random.Random(seed)
    size = n + 1
    d = [(1, 2, 3, -1, -2, 5)[_randbelow(rng, 6)] for _ in range(r)]
    m = draw(rng, size, size)
    # Row i of M^T D M is the sum over k < r of m_ki times row k of D M, each
    # row held as one int of size signed 32-bit lanes, sum_j v_j 2^(32j).
    # Every entry has |sum_k d_k m_ki m_kj| <= 45r < 2^31 (|d_k| <= 5,
    # |m_kj| <= 3), so no lane of a sum carries into the next.  struct packs
    # a row as two's-complement lanes; XOR with the flip, 2^31 in every lane,
    # then subtracting it gives the lane sum.  Adding the flip back makes
    # every lane nonnegative, and XOR with it returns the two's-complement
    # lanes that struct unpacks.
    fmt = "<%di" % size
    flip = int.from_bytes(b"\0\0\0\x80" * size, "little")
    packed = [dk * ((int.from_bytes(struct.pack(fmt, *row), "little") ^ flip) - flip)
              for dk, row in zip(d, m)]
    return SymmetricForm._unchecked(
        [struct.unpack(fmt, ((sum(map(operator.mul, col, packed)) + flip) ^ flip).to_bytes(4 * size, "little"))
         for col in zip(*m[:r])])


def random_form(n: int, r: int, seed: int) -> SymmetricForm:
    """Deterministic pseudorandom integer form on P^n of exact rank r.

    Built as M^T D M with M a random invertible integer matrix (_random_basis)
    and D diagonal with exactly r nonzero entries, so the rank is exact by
    congruence.  The entries are the integer sums of M^T D M, so den is 1.
    """
    if not 1 <= r <= n + 1:
        raise ValueError("rank out of range")
    return _congruent_form(n, r, seed, _random_basis)


def _first_smooth_form(n: int, seed: int) -> SymmetricForm:
    """M^T D M on P^n from the first M that random_form(n, n + 1, seed) draws,
    with no test of M.

    D has no zero entry, so det(M^T D M) = det D (det M)^2 is nonzero exactly
    when M is invertible, and then this is random_form(n, n + 1, seed).  A
    caller that computes the determinant anyway certifies the form by it and
    saves the elimination; on a zero determinant it calls random_form.
    """
    return _congruent_form(n, n + 1, seed, _int_matrix)
