"""Exact rational and polynomial arithmetic with fraction-free linear algebra.

Scalars are fractions.Fraction at the interface.  Univariate polynomials
(Poly1) are dense coefficient lists, multivariate polynomials (MPoly) are
sparse exponent-tuple maps, and matrices are plain sequences of rows whose
entries all live in a single ring (Fraction, Poly1 or MPoly).  Determinants
use Bareiss fraction-free elimination, so every intermediate value stays in
the entry ring; the only divisions performed are exact.  Beside the Bareiss
kernels there is one rational Gauss-Jordan routine, _rref, which mat_rank,
solve_exact and mat_inverse run on.

Rational work runs on Python integers wherever it can.  clear_denominators
scales a rational matrix by the lcm of its denominators and int_det is the
one integer Bareiss kernel: ff_det of a rational matrix is int_det of the
scaled matrix over the scale to the n-th power, the pencil module evaluates
det(A + tB) at integer points with it and interpolates, and
distinct_root_count runs a primitive integer remainder sequence instead of a
Euclidean gcd over Fraction.  mat_mul of two rational matrices multiplies
the scaled integer matrices and divides once by the product of the scales.

Over Poly1 and MPoly, ff_det keeps its own Bareiss loop, the oracle the
integer paths are tested against.  Its first step would divide by the unit,
so it divides nothing; for a 2 x 2 matrix that step is the whole
elimination.  MPoly ring operations build their results through the private
MPoly._make, which only drops zero coefficients, where the public
constructor validates every exponent tuple and coefficient again.
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
    floats) into a Fraction in lowest terms.

    Exponent notation is rejected in text: "1e5000" would build a 5001-digit
    integer before anything could check its size.  A float is read from its
    shortest repr, exponent included ("1e-05" is 1/100000): a finite float
    has at most about 309 digits.
    """
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, float):
        return Fraction(repr(s))
    text = str(s).strip()
    if "e" in text or "E" in text:
        raise ValueError("exponent notation is not accepted: %r" % text)
    return Fraction(text)


def format_rat(x: Fraction) -> str:
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    return str(Fraction(x))


def _coerce_scalar(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    return None


class Poly1:
    """Dense univariate polynomial over Fraction.

    Coefficients are stored lowest degree first with trailing zeros trimmed,
    so equal polynomials compare equal.  The zero polynomial has degree -1.
    """

    __slots__ = ("var", "coeffs")

    def __init__(self, coeffs=(), var="t"):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "var", var)

    def __setattr__(self, name, value):
        raise AttributeError("Poly1 is immutable")

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def _check(self, other):
        if self.coeffs and other.coeffs and self.var != other.var:
            raise ValueError("mixed polynomial variables %r, %r" % (self.var, other.var))

    def _wrap(self, other):
        c = _coerce_scalar(other)
        if c is not None:
            return Poly1([c], var=self.var)
        if isinstance(other, Poly1):
            return other
        return None

    def __add__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly1(
            [self.coefficient(i) + other.coefficient(i) for i in range(n)],
            var=self.var if self.coeffs else other.var,
        )

    __radd__ = __add__

    def __neg__(self):
        return Poly1([-c for c in self.coeffs], var=self.var)

    def __sub__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        self._check(other)
        if not self.coeffs or not other.coeffs:
            return Poly1([], var=self.var if self.coeffs else other.var)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly1(out, var=self.var)

    __rmul__ = __mul__

    def __pow__(self, m: int):
        if m < 0:
            raise ValueError("negative power")
        out = Poly1([1], var=self.var)
        for _ in range(m):
            out = out * self
        return out

    def __eq__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs and (not self.coeffs or not other.coeffs or self.var == other.var)

    def __hash__(self):
        return hash((self.var if self.coeffs else "", self.coeffs))

    def derivative(self):
        return Poly1([i * c for i, c in enumerate(self.coeffs)][1:], var=self.var)

    def valuation(self) -> int:
        """Largest m with var**m dividing self; 0 for the zero polynomial."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return 0

    def shift_down(self, m: int):
        """Divide by var**m; requires valuation >= m."""
        if any(self.coeffs[i] for i in range(min(m, len(self.coeffs)))):
            raise ValueError("not divisible by %s**%d" % (self.var, m))
        return Poly1(self.coeffs[m:], var=self.var)

    def __divmod__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree()
        lead = other.coeffs[-1]
        quo = [Fraction(0)] * max(0, len(rem) - d)
        while len(rem) - 1 >= d and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            q = rem[-1] / lead
            k = len(rem) - 1 - d
            quo[k] = q
            for i in range(d + 1):
                rem[k + i] -= q * other.coeffs[i]
        return Poly1(quo, var=self.var), Poly1(rem, var=self.var)

    def exact_div(self, other):
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def monic(self):
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return Poly1([c / lead for c in self.coeffs], var=self.var)

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                bits.append(format_rat(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else format_rat(c) + "*")
                bits.append("%s%s" % (head, self.var if i == 1 else "%s^%d" % (self.var, i)))
        return " + ".join(bits).replace("+ -", "- ")


def poly_gcd(a: Poly1, b: Poly1) -> Poly1:
    """Monic gcd over the rationals by the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, divmod(a, b)[1]
    return a.monic()


def _primitive(cs):
    # integer coefficients divided by their content; cs is nonzero, trimmed
    g = math.gcd(*cs)
    return [c // g for c in cs]


def _pseudo_remainder(a, b):
    """lc(b)^k * a mod b for integer coefficient lists, deg a >= deg b >= 0."""
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


def _gcd_degree(a, b) -> int:
    """Degree of gcd(a, b) by a primitive integer remainder sequence.

    Dividing every remainder by its content keeps the coefficients as small
    as the gcd allows, where a Euclidean gcd over Fraction lets them grow.
    """
    while b:
        r = _pseudo_remainder(a, b)
        a, b = b, _primitive(r) if r else []
    return len(a) - 1


def distinct_root_count(p: Poly1) -> tuple[int, int]:
    """Return (degree, number of distinct complex roots) of a nonzero polynomial.

    The distinct-root count is the degree of the squarefree part
    p / gcd(p, p'), so no root finding or factoring is involved.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no well-defined root count")
    if p.degree() == 0:
        return (0, 0)
    (a,), _ = clear_denominators([p.coeffs])
    a = _primitive(a)
    da = [i * c for i, c in enumerate(a)][1:]
    return (p.degree(), p.degree() - _gcd_degree(a, _primitive(da)))


class MPoly:
    """Sparse multivariate polynomial over Fraction.

    terms maps exponent tuples (one slot per variable in vars) to nonzero
    coefficients.  All operands of a binary operation must share vars.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        object.__setattr__(self, "vars", tuple(vars))
        clean = {}
        for exps, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                e = tuple(int(x) for x in exps)
                if len(e) != len(self.vars):
                    raise ValueError("exponent tuple length mismatch")
                if any(x < 0 for x in e):
                    raise ValueError("negative exponent")
                clean[e] = clean.get(e, Fraction(0)) + c
        object.__setattr__(self, "terms", {e: c for e, c in clean.items() if c})

    @classmethod
    def _make(cls, vars, terms):
        # ring operations build terms from validated operands: the exponents
        # are already int tuples of the right length and the coefficients
        # Fractions, so only the zero coefficients need dropping
        p = object.__new__(cls)
        object.__setattr__(p, "vars", vars)
        object.__setattr__(p, "terms", {e: c for e, c in terms.items() if c})
        return p

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    @classmethod
    def constant(cls, c, vars):
        vars = tuple(vars)
        return cls(vars, {tuple([0] * len(vars)): Fraction(c)})

    @classmethod
    def variable(cls, name, vars):
        vars = tuple(vars)
        e = [0] * len(vars)
        e[vars.index(name)] = 1
        return cls(vars, {tuple(e): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _wrap(self, other):
        c = _coerce_scalar(other)
        if c is not None:
            return MPoly.constant(c, self.vars)
        if isinstance(other, MPoly):
            if other.vars != self.vars:
                raise ValueError("mixed variable rings")
            return other
        return None

    def __add__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms[e] + c if e in terms else c
        return MPoly._make(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._make(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                terms[e] = terms[e] + c if e in terms else c
        return MPoly._make(self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, m: int):
        if m < 0:
            raise ValueError("negative power")
        out = MPoly.constant(1, self.vars)
        for _ in range(m):
            out = out * self
        return out

    def __eq__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def degree_in(self, name: str) -> int:
        """Highest exponent of one variable; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def min_exponent(self, name: str) -> int:
        """Smallest exponent of one variable over the nonzero terms."""
        if not self.terms:
            raise ValueError("zero polynomial")
        i = self.vars.index(name)
        return min(e[i] for e in self.terms)

    def divide_monomial(self, exps):
        """Exactly divide by vars**exps (a monomial)."""
        exps = tuple(int(x) for x in exps)
        terms = {}
        for e, c in self.terms.items():
            ne = tuple(a - b for a, b in zip(e, exps))
            if any(x < 0 for x in ne):
                raise ValueError("not divisible by the monomial")
            terms[ne] = c
        return MPoly(self.vars, terms)

    def substitute_zero(self, names):
        """Set each named variable to 0, dropping every term that uses one."""
        idx = [self.vars.index(n) for n in names]
        terms = {e: c for e, c in self.terms.items() if all(e[i] == 0 for i in idx)}
        return MPoly(self.vars, terms)

    def _leading(self):
        # lex leading term
        e = max(self.terms)
        return e, self.terms[e]

    def exact_div(self, other):
        """Exact division (long division in lex order; raises if inexact)."""
        other = self._wrap(other)
        if other is None or other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = self
        quo = MPoly(self.vars)
        de, dc = other._leading()
        while not rem.is_zero():
            re, rc = rem._leading()
            qe = tuple(a - b for a, b in zip(re, de))
            if any(x < 0 for x in qe):
                raise ValueError("inexact multivariate division")
            t = MPoly._make(self.vars, {qe: rc / dc})
            quo = quo + t
            rem = rem - t * other
        return quo

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                v if k == 1 else "%s^%d" % (v, k) for v, k in zip(self.vars, e) if k
            )
            if not mono:
                bits.append(format_rat(c))
            elif c == 1:
                bits.append(mono)
            elif c == -1:
                bits.append("-" + mono)
            else:
                bits.append(format_rat(c) + "*" + mono)
        return " + ".join(bits).replace("+ -", "- ")


# -- matrices ---------------------------------------------------------------


def _rows(m):
    return [list(r) for r in m]


def _zero_like(x):
    return x * 0


def _exact_div(a, b):
    if isinstance(a, (int, Fraction)):
        return Fraction(a) / b
    return a.exact_div(b)


def mat_transpose(m):
    m = _rows(m)
    return [list(col) for col in zip(*m)]


def _is_rational(rows) -> bool:
    return all(isinstance(x, (int, Fraction)) for r in rows for x in r)


def mat_mul(a, b):
    """Matrix product.  Two rational operands are multiplied in integers:
    (La a)(Lb b) over La Lb, with La, Lb the lcms of their denominators."""
    a, b = _rows(a), _rows(b)
    if not a or not b:
        return []
    if len(a[0]) != len(b):
        raise ValueError("shape mismatch in matrix product")
    if _is_rational(a) and _is_rational(b):
        (ia, la), (ib, lb) = clear_denominators(a), clear_denominators(b)
        scale = la * lb
        ibt = list(zip(*ib))
        return [[Fraction(sum(map(operator.mul, row, col)), scale) for col in ibt] for row in ia]
    bt = list(zip(*b))
    out = []
    for row in a:
        out.append([sum((x * y for x, y in zip(row, col)), _zero_like(row[0])) for col in bt])
    return out


def clear_denominators(rows):
    """Scale a rational matrix to integers.

    Returns (L * rows as lists of ints, L) with L the least common multiple
    of the entries' denominators.
    """
    # a list, not a generator: CPython 3.11 leaks about 100 bytes on every
    # math.lcm(*generator) call
    scale = math.lcm(*[x.denominator for r in rows for x in r])
    return [[x.numerator * (scale // x.denominator) for x in r] for r in rows], scale


def int_det(m) -> int:
    """Determinant of a square integer matrix by Bareiss elimination.

    Each step divides by the previous pivot, and Bareiss (Math. Comp. 22,
    1968) shows the quotient is exact, so every entry stays an integer, a
    minor of the input.  Rows are swapped past zero pivots.
    """
    a = [list(r) for r in m]
    n = len(a)
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(r) != n for r in a):
        raise ValueError("determinant of a non-square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = a[k][k + 1:]
        pivot = a[k][k]
        for i in range(k + 1, n):
            row = a[i]
            f = row[k]
            row[k + 1:] = [(pivot * x - f * y) // prev for x, y in zip(row[k + 1:], pivot_row)]
        prev = pivot
    return sign * a[n - 1][n - 1]


def ff_det(m):
    """Determinant by Bareiss fraction-free elimination with row pivoting.

    Works verbatim over Fraction, Poly1 and MPoly entries: every division
    performed is exact in the entry ring.  A rational matrix is scaled to
    integers and handed to int_det.
    """
    a = _rows(m)
    n = len(a)
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(r) != n for r in a):
        raise ValueError("determinant of a non-square matrix")
    if n == 1:
        return a[0][0]
    if _is_rational(a):
        ints, scale = clear_denominators(a)
        return Fraction(int_det(ints), scale ** n)
    zero = _zero_like(a[0][0])
    sign = 1
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return zero
        pivot = a[k][k]
        pivot_row = a[k][k + 1:]
        for i in range(k + 1, n):
            row = a[i]
            f = row[k]
            step = [pivot * x - f * y for x, y in zip(row[k + 1:], pivot_row)]
            if k:  # the divisor of the first step is the unit
                step = [_exact_div(x, prev) for x in step]
            row[k + 1:] = step
            row[k] = zero
        prev = pivot
    d = a[n - 1][n - 1]
    return d if sign == 1 else -d


def _rref(a, cols):
    """Gauss-Jordan reduce a rational matrix in place; return its pivot columns.

    Pivots are sought in the first cols columns only, so columns past them
    (an augmented right-hand side) are carried along.  Row i of the result
    has a leading 1 in column pivots[i], and that column is zero elsewhere.
    """
    rows = len(a)
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = Fraction(1) / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def mat_rank(m) -> int:
    """Rank of a matrix with Fraction entries (exact Gaussian elimination)."""
    a = _rows(m)
    if not a:
        return 0
    for row in a:
        for x in row:
            if not isinstance(x, (int, Fraction)):
                raise TypeError("mat_rank expects rational entries")
    return len(_rref(a, len(a[0])))


def mat_inverse(m) -> tuple:
    """Rows of the inverse of a nonsingular square rational matrix, from one
    Gauss-Jordan elimination of [m | I]."""
    a = _rows(m)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse of a non-square matrix")
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    if len(_rref(aug, n)) < n:
        raise ValueError("singular matrix has no inverse")
    return tuple(tuple(row[n:]) for row in aug)


def solve_exact(a, b):
    """Solve A x = b exactly over the rationals.

    Returns the unique solution vector.  Raises InconsistentSystem when no
    solution exists and UnderdeterminedSystem when the solution set has
    free variables; this function never guesses.
    """
    a = _rows(a)
    b = [Fraction(x) for x in b]
    if len(a) != len(b):
        raise ValueError("rhs length mismatch")
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [[Fraction(x) for x in a[i]] + [b[i]] for i in range(rows)]
    pivots = _rref(aug, cols)
    for i in range(len(pivots), rows):
        if aug[i][cols]:
            raise InconsistentSystem("no solution")
    if len(pivots) < cols:
        raise UnderdeterminedSystem("solution set has %d free variables" % (cols - len(pivots)))
    x = [Fraction(0)] * cols
    for row, c in enumerate(pivots):
        x[c] = aug[row][cols]
    return x


def k_subsets(n: int, k: int):
    """Lexicographically ordered k-element subsets of range(n)."""
    return list(itertools.combinations(range(n), k))
