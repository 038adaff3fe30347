"""Quadric forms, rank strata and complete-quadric flags.

A quadric on P^n is a nonzero symmetric (n+1) x (n+1) matrix; entries may be
rational or polynomial.  The rank-<= i locus inside the P(N) of all quadrics
(N = C(n+2,2) - 1) has codimension (n+1-i)(n+2-i)/2, and a degenerate
quadric carries marking data on its singular locus: a complete quadric is a
flag of forms, each living on the singular locus of the previous one.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    Rat,
    ff_det,
    format_rat,
    int_det,
    k_subsets,
    mat_mul,
    mat_rank,
    mat_transpose,
    parse_rat,
)


class SymmetricForm:
    """Symmetric matrix of a quadric form on P^n (matrix size n+1)."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        m = len(rows)
        if m == 0 or any(len(r) != m for r in rows):
            raise ValueError("quadric matrix must be square and nonempty")
        for i in range(m):
            for j in range(i + 1, m):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("matrix is not symmetric")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "n", m - 1)

    def __setattr__(self, name, value):
        raise AttributeError("SymmetricForm is immutable")

    @classmethod
    def from_rational(cls, rows):
        return cls([[parse_rat(x) for x in r] for r in rows])

    @classmethod
    def diagonal(cls, entries):
        entries = [parse_rat(x) for x in entries]
        m = len(entries)
        return cls([[entries[i] if i == j else Fraction(0) for j in range(m)] for i in range(m)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if isinstance(other, SymmetricForm):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash(self.rows)

    def is_rational(self) -> bool:
        return all(isinstance(x, (int, Fraction)) for r in self.rows for x in r)

    def evaluate(self, v):
        """Value of the form at a vector: v^T Q v."""
        if len(v) != self.n + 1:
            raise ValueError("vector length mismatch")
        return sum(self.rows[i][j] * v[i] * v[j] for i in range(self.n + 1) for j in range(self.n + 1))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "matrix": [[format_rat(x) for x in r] for r in self.rows],
        }

    @classmethod
    def from_json(cls, data: dict):
        form = cls.from_rational(data["matrix"])
        if "n" in data and int(data["n"]) != form.n:
            raise ValueError("declared n does not match matrix size")
        return form

    def __repr__(self):
        return "SymmetricForm(n=%d, rows=%r)" % (self.n, self.rows)


def form_rank(q: SymmetricForm) -> int:
    """Rank of the quadric's matrix (rational entries only)."""
    return mat_rank(q.rows)


def restrict(q: SymmetricForm, basis) -> SymmetricForm:
    """Restrict a form on P^n to the subspace spanned by the columns of basis.

    basis is an (n+1) x k rational matrix of rank k; the result is the k x k
    form B^T Q B on the P^(k-1) it spans.
    """
    b = [list(r) for r in basis]
    if len(b) != q.n + 1:
        raise ValueError("basis row count must be n+1")
    k = len(b[0]) if b else 0
    if k == 0:
        raise ValueError("empty basis")
    if mat_rank(b) != k:
        raise ValueError("basis columns are linearly dependent")
    return SymmetricForm(mat_mul(mat_transpose(b), mat_mul(q.rows, b)))


def compound(q: SymmetricForm, k: int) -> SymmetricForm:
    """k-th compound: the symmetric matrix of all k x k minors.

    Rows and columns are indexed by the lexicographically ordered k-element
    subsets of {0..n}; entry (S, T) is det Q[S, T].  The rank of the
    compound of a rank-r rational form is C(r, k).
    """
    if not 1 <= k <= q.n + 1:
        raise ValueError("k out of range")
    subsets = k_subsets(q.n + 1, k)
    if k == 1:
        return SymmetricForm(q.rows)
    rows = []
    for s in subsets:
        row = []
        for t in subsets:
            row.append(ff_det([[q.rows[i][j] for j in t] for i in s]))
        rows.append(row)
    return SymmetricForm(rows)


def stratum_codim(n: int, i: int) -> int:
    """Codimension of the rank-<= i locus in the space of quadrics on P^n."""
    if not 1 <= i <= n + 1:
        raise ValueError("rank bound out of range")
    return (n + 1 - i) * (n + 2 - i) // 2


def quadric_space_dim(n: int) -> int:
    """Dimension N of the projective space of quadrics on P^n."""
    return math.comb(n + 2, 2) - 1


def random_form(n: int, r: int, seed: int) -> SymmetricForm:
    """Deterministic pseudorandom rational form on P^n of exact rank r.

    Built as M^T D M with M a random invertible integer matrix and D diagonal
    with exactly r nonzero entries, so the rank is exact by congruence.
    """
    if not 1 <= r <= n + 1:
        raise ValueError("rank out of range")
    rng = random.Random(seed)
    size = n + 1
    d = [rng.choice([1, 2, 3, -1, -2, 5]) if i < r else 0 for i in range(size)]
    while True:
        m = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
        if int_det(m):
            break
    # (M^T D M)_ij = sum over k < r of d_k m_ki m_kj, in integers
    cols = list(zip(*m[:r]))
    rows = [[None] * size for _ in range(size)]
    for i in range(size):
        di = [dk * x for dk, x in zip(d, cols[i])]
        for j in range(i, size):
            rows[i][j] = rows[j][i] = Fraction(sum(x * y for x, y in zip(di, cols[j])))
    return SymmetricForm(rows)


def kernel_basis(q: SymmetricForm):
    """Echelon basis of the kernel of a rational form, as matrix columns.

    The basis is canonical: each vector carries a 1 in its own free-variable
    slot and 0 in the others, so two forms with the same kernel get the same
    basis.  Returns an (n+1) x d matrix, d = n+1-rank.
    """
    size = q.n + 1
    a = [[Fraction(x) for x in row] for row in q.rows]
    # row-reduce to identify pivot columns
    pivots = []
    r = 0
    for c in range(size):
        pivot = next((i for i in range(r, size) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = Fraction(1) / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(size):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(size) if c not in pivots]
    cols = []
    for fc in free:
        v = [Fraction(0)] * size
        v[fc] = Fraction(1)
        for row, pc in enumerate(pivots):
            v[pc] = -a[row][fc]
        cols.append(v)
    return [[cols[j][i] for j in range(len(cols))] for i in range(size)]


@dataclass(frozen=True)
class StratumDescriptor:
    """Rank stratum of quadrics on P^n: forms of rank exactly i."""

    n: int
    i: int

    def __post_init__(self):
        if not 1 <= self.i <= self.n + 1:
            raise ValueError("rank out of range")

    @property
    def codim(self) -> int:
        return stratum_codim(self.n, self.i)

    def contains(self, q: SymmetricForm) -> bool:
        return q.n == self.n and form_rank(q) == self.i


class CompleteQuadric:
    """Flag of forms, each living on the singular locus of the previous one.

    Form i+1 is a quadric on Sing(form i) = P(ker form i), which has
    projective dimension ambient_i - rank_i; ambient dimensions therefore
    strictly decrease along the flag.
    """

    __slots__ = ("forms",)

    def __init__(self, forms):
        forms = tuple(forms)
        if not forms:
            raise ValueError("flag must contain at least one form")
        for i, f in enumerate(forms):
            if not isinstance(f, SymmetricForm):
                raise TypeError("flag entries must be SymmetricForm")
            rank = form_rank(f)
            if rank < 1:
                raise ValueError("flag forms must be nonzero")
            if i + 1 < len(forms):
                expected = f.n - rank
                if expected < 0:
                    raise ValueError("rank exceeds ambient dimension")
                if forms[i + 1].n != expected:
                    raise ValueError(
                        "form %d must live on a P^%d (got P^%d)" % (i + 1, expected, forms[i + 1].n)
                    )
        object.__setattr__(self, "forms", forms)

    def __setattr__(self, name, value):
        raise AttributeError("CompleteQuadric is immutable")

    @property
    def n(self) -> int:
        return self.forms[0].n

    def rank_sequence(self):
        return tuple(form_rank(f) for f in self.forms)

    def is_full(self) -> bool:
        """True when the last form is nonsingular, i.e. the flag is complete."""
        last = self.forms[-1]
        return form_rank(last) == last.n + 1

    def to_json(self) -> dict:
        return {"flag": [f.to_json() for f in self.forms]}

    @classmethod
    def from_json(cls, data: dict):
        return cls([SymmetricForm.from_json(f) for f in data["flag"]])

    def __eq__(self, other):
        if isinstance(other, CompleteQuadric):
            return self.forms == other.forms
        return NotImplemented

    def __hash__(self):
        return hash(self.forms)

    def __repr__(self):
        return "CompleteQuadric(ranks=%r, n=%d)" % (self.rank_sequence(), self.n)


def random_complete_quadric(n: int, ranks, seed: int) -> CompleteQuadric:
    """Random flag with the given rank sequence on P^n."""
    rng = random.Random(seed)
    forms = []
    ambient = n
    for r in ranks:
        forms.append(random_form(ambient, r, rng.randrange(1 << 30)))
        ambient = ambient - r
    return CompleteQuadric(forms)
