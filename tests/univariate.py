"""Polynomials in one variable t, as an independent oracle for the tests.

A polynomial is a list of int or Fraction coefficients, lowest degree
first, with no trailing zeros, so the zero polynomial is [].  Integer
coefficients stay ints, which keeps the oracle fast on integer matrices.
Products are convolutions and determinants are cofactor expansions:
nothing here evaluates at points or interpolates, so it shares no code or
method with exact.int_det_poly.
"""

import functools


def poly(*coeffs):
    """The polynomial with the given coefficients, lowest degree first."""
    cs = list(coeffs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def add(a, b):
    if len(a) < len(b):
        a, b = b, a
    return poly(*[x + y for x, y in zip(a, b)], *a[len(b):])


def neg(a):
    return [-x for x in a]


def mul(*factors):
    """The product of the factors; the empty product is 1."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f))
        for i, x in enumerate(out):
            for j, y in enumerate(f):
                prod[i + j] += x * y
        out = poly(*prod)
    return out


def power(a, m):
    return mul(*[a] * m)


def det(m):
    """Determinant of a square matrix of polynomials by cofactor expansion
    along the first remaining row, each minor of the trailing rows taken
    once per set of remaining columns."""
    n = len(m)

    @functools.lru_cache(maxsize=None)
    def minor(cols):
        if not cols:
            return [1]
        row = m[n - len(cols)]
        total = []
        for i, c in enumerate(cols):
            if row[c]:
                term = mul(row[c], minor(cols[:i] + cols[i + 1:]))
                total = add(total, term if i % 2 == 0 else neg(term))
        return total

    return minor(tuple(range(n)))


def pencil(a, b):
    """The matrix A + tB as polynomial entries."""
    return [[poly(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def padded(p, length):
    """The coefficients of p as a list of the given length, zeros appended."""
    return p + [0] * (length - len(p))
