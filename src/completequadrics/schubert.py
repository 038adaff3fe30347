"""Schubert classes on Grassmannians of projective subspaces.

G(k, n) parametrizes k-planes in P^n, so classes live in a box with k+1
rows and n-k columns.  Only the structure needed downstream is implemented:
integer combinations of Schubert classes, the Pieri rule for multiplying by
sigma_1, the Poincare duality pairing in complementary codimension, and the
Pluecker degree as the top self-intersection of sigma_1.
"""

from __future__ import annotations

import math
import operator

from ._value import Record


def grass_dim(k: int, n: int) -> int:
    """Dimension of G(k, n), the area of the Schubert box."""
    if not 0 <= k < n:
        raise ValueError("need 0 <= k < n")
    return (k + 1) * (n - k)


def _strip_zeros(parts: tuple) -> tuple:
    end = len(parts)
    while end and not parts[end - 1]:
        end -= 1
    return parts[:end]


def _integer(x) -> int:
    # operator.index, which takes a bool as 0 or 1; a boolean is not a
    # number here, as in exact.parse_rat
    if isinstance(x, bool):
        raise TypeError("a boolean is not an integer: %r" % (x,))
    return operator.index(x)


def _normalize_partition(parts) -> tuple:
    parts = _strip_zeros(tuple(_integer(p) for p in parts))
    if any(p < 0 for p in parts):
        raise ValueError("partition parts must be nonnegative")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError("partition parts must be weakly decreasing")
    return parts


def _check_box(parts: tuple, k: int, n: int):
    if len(parts) > k + 1:
        raise ValueError("partition has more than k+1 rows")
    if parts and parts[0] > n - k:
        raise ValueError("partition is wider than n-k columns")


class SchubertClass(Record):
    """Integer combination of Schubert classes on a fixed G(k, n)."""

    __slots__ = _fields = ("k", "n", "_terms")

    def __init__(self, k: int, n: int, terms=None):
        grass_dim(k, n)  # raises unless 0 <= k < n
        clean = {}
        for parts, coeff in (terms or {}).items():
            parts = _normalize_partition(parts)
            _check_box(parts, k, n)
            coeff = _integer(coeff)
            if coeff:
                clean[parts] = clean.get(parts, 0) + coeff
        Record.__init__(self, k, n, tuple(sorted((p, c) for p, c in clean.items() if c)))

    @classmethod
    def _make(cls, k: int, n: int, terms: dict) -> "SchubertClass":
        # class operations build terms from validated operands: the parts
        # are already weakly decreasing positive ints inside the box, so only
        # the zero coefficients and the order need fixing
        out = object.__new__(cls)
        Record.__init__(out, k, n, tuple(sorted((p, c) for p, c in terms.items() if c)))
        return out

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def coefficient(self, parts) -> int:
        parts = _normalize_partition(parts)
        return dict(self._terms).get(parts, 0)

    def codim(self):
        """Common codimension of all terms, or None if zero or mixed."""
        sizes = {sum(p) for p, _ in self._terms}
        if len(sizes) != 1:
            return None
        return sizes.pop()

    def _compatible(self, other):
        if (self.k, self.n) != (other.k, other.n):
            raise ValueError("classes live on different Grassmannians")

    def __add__(self, other):
        self._compatible(other)
        merged = dict(self._terms)
        for p, c in other._terms:
            merged[p] = merged.get(p, 0) + c
        return SchubertClass._make(self.k, self.n, merged)

    def __rmul__(self, scalar: int):
        scalar = _integer(scalar)  # a Fraction, float or bool raises TypeError
        return SchubertClass._make(self.k, self.n, {p: scalar * c for p, c in self._terms})

    def __repr__(self):
        if not self._terms:
            return "SchubertClass(k=%d, n=%d, 0)" % (self.k, self.n)
        body = " + ".join(
            "%ds%s" % (c, list(p)) if c != 1 else "s%s" % (list(p),)
            for p, c in self._terms
        )
        return "SchubertClass(k=%d, n=%d, %s)" % (self.k, self.n, body)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "terms": {",".join(str(x) for x in p) if p else "0": c for p, c in self._terms},
        }


def sigma(k: int, n: int, *parts) -> SchubertClass:
    """The single Schubert class of the given partition on G(k, n)."""
    return SchubertClass(k, n, {tuple(parts): 1})


def pieri1(cls: SchubertClass) -> SchubertClass:
    """Multiply by sigma_1: add one box in every legal way."""
    out = {}
    rows, cols = cls.k + 1, cls.n - cls.k
    for parts, coeff in cls._terms:
        # a box ends a row narrower than the box and than the row above, or
        # starts the first empty row
        for i, part in enumerate(parts):
            if part < cols and (i == 0 or parts[i - 1] > part):
                grown = parts[:i] + (part + 1,) + parts[i + 1:]
                out[grown] = out.get(grown, 0) + coeff
        if len(parts) < rows:
            grown = parts + (1,)
            out[grown] = out.get(grown, 0) + coeff
    return SchubertClass._make(cls.k, cls.n, out)


def sigma1_power(k: int, n: int, m: int) -> SchubertClass:
    """sigma_1^m on G(k, n)."""
    if m < 0:
        raise ValueError("negative power")
    cls = sigma(k, n)
    for _ in range(m):
        cls = pieri1(cls)
    return cls


def _dual_partition(parts: tuple, k: int, n: int) -> tuple:
    rows, cols = k + 1, n - k
    padded = list(parts) + [0] * (rows - len(parts))
    return _normalize_partition(tuple(cols - padded[rows - 1 - i] for i in range(rows)))


def duality_pair(a: SchubertClass, b: SchubertClass) -> int:
    """Intersection number of two classes of complementary codimension.

    Schubert classes pair to 1 exactly when their partitions are
    complementary in the box, so the pairing is a sum of products of
    matching coefficients.
    """
    a._compatible(b)
    ca, cb = a.codim(), b.codim()
    if ca is None or cb is None:
        raise ValueError("pairing needs homogeneous classes")
    if ca + cb != grass_dim(a.k, a.n):
        raise ValueError("codimensions are not complementary")
    bterms = dict(b._terms)
    return sum(
        coeff * bterms.get(_dual_partition(parts, a.k, a.n), 0)
        for parts, coeff in a._terms
    )


def sigma1_power_degree(k: int, n: int, m: int) -> int:
    """Top self-intersection sigma_1^m on G(k, n); m must be the dimension.

    This is the degree of the Grassmannian in its Pluecker embedding.
    """
    d = grass_dim(k, n)
    if m != d:
        raise ValueError("power must equal dim G(k, n) = %d" % d)
    top = sigma1_power(k, n, m)
    full_box = tuple([n - k] * (k + 1))
    if top.terms != {full_box: top.coefficient(full_box)}:
        raise ValueError("top power is not a multiple of the point class")
    return top.coefficient(full_box)


def rectangle_tableaux(rows: int, cols: int) -> int:
    """Standard Young tableaux of a rows x cols rectangle (hook lengths)."""
    hooks = 1
    for i in range(rows):
        for j in range(cols):
            hooks *= (rows - i) + (cols - j) - 1
    return math.factorial(rows * cols) // hooks


def p_dot_r2() -> int:
    """Pairing of the movable-cone generator P with the rank-2 pencil curve.

    On the space of complete quadric surfaces the curve of pencils of rank-2
    quadrics maps to a line-pair family whose class in G(1, 3) pairs with
    half of P as sigma_2 + sigma_11 against sigma_1^2, giving 2; the factor
    of 2 in P itself makes the intersection number 4.
    """
    half = sigma(1, 3, 2) + sigma(1, 3, 1, 1)
    return 2 * duality_pair(half, sigma1_power(1, 3, 2))
