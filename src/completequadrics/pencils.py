"""Degeneration counting in pencils of quadrics.

det(s Q0 + t Q1) is a binary form of degree m+1 for a pencil on P^m; its
roots on the (s:t) line are the degenerate members, with the root at
infinity covering the case of a singular Q1.  Restricting a pencil to a
subspace counts the members tangent to it.  These counts realize the
intersection numbers of the test curves of the n = 3 space directly, which
is what ties the lattice pairings of the picard module to geometry.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cached_property

from ._value import Record
from .exact import distinct_root_count, int_det_poly
from .exact import ff_det  # noqa: F401  bench/test_bench.py traces and restores this alias
from .quadrics import (
    SymmetricForm,
    _first_smooth_form,
    _int_basis,
    _int_congruence,
    _random_basis,
    _randbelow,
    _small_ints,
    random_form,
)


class DegeneratePencilError(ValueError):
    """Pencil (or restricted pencil) carries no degeneration count."""


def _flat(rows):
    return [x for row in rows for x in row]


def _proportional(fa, fb) -> bool:
    # fa, fb: the entries of two matrices of one shape, flattened
    if not any(fb):
        return not any(fa)
    i = next(j for j, v in enumerate(fb) if v)
    # cross-multiplied: fa[i] / fb[i] would be float division on int entries
    return all(x * fb[i] == fa[i] * y for x, y in zip(fa, fb))


class Pencil(Record):
    """Pencil s Q0 + t Q1 of quadrics on a common P^m."""

    _fields = ("q0", "q1")

    def __init__(self, q0: SymmetricForm, q1: SymmetricForm):
        if q0.n != q1.n:
            raise ValueError("pencil members must share an ambient space")
        f0, f1 = _flat(q0.ints), _flat(q1.ints)
        if not any(f0) or not any(f1):
            raise DegeneratePencilError("pencil member is the zero form")
        if _proportional(f0, f1):
            raise DegeneratePencilError("pencil members are proportional")
        Record.__init__(self, q0, q1)

    @cached_property
    def _det_ints(self) -> list:
        # the integer coefficients of det(A + tB), computed on first use and
        # kept, with L the common denominator and A = L Q0, B = L Q1 integral:
        # L^size times those of det(Q0 + tQ1), with the same zeros and roots.
        # Like det_form, kept in the instance __dict__, outside the fields,
        # so equality and the hash still read q0 and q1 only; a raise is not
        # kept.
        a, b, _ = _scaled(self.q0, self.q1)
        return _det_binary(a, b)

    @cached_property
    def det_form(self) -> BinaryForm:
        """det(s Q0 + t Q1), computed on first use and kept: the kept
        integer coefficients over L^size."""
        denom = math.lcm(self.q0.den, self.q1.den) ** (self.q0.n + 1)
        return BinaryForm(tuple(Fraction(x, denom) for x in self._det_ints))


class BinaryForm(Record):
    """Homogeneous binary form sum c_d s^(deg-d) t^d, coeffs = (c_0, .., c_deg)."""

    _fields = ("coeffs",)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def _scaled(q0: SymmetricForm, q1: SymmetricForm) -> tuple:
    # (L Q0, L Q1, L) as integer rows, L the lcm of both forms' denominators;
    # a form whose den is L is handed through as its ints
    scale = math.lcm(q0.den, q1.den)
    return (*(q.ints if q.den == scale else [[x * (scale // q.den) for x in r] for r in q.ints]
              for q in (q0, q1)), scale)


def _det_binary(a, b) -> list:
    # the integer coefficients of det(A + tB) for symmetric integer matrices
    # A and B, lowest degree first, as the binary form det(sA + tB) has them
    coeffs = int_det_poly(a, b)
    if not any(coeffs):
        raise DegeneratePencilError("every member of the pencil is singular")
    return coeffs


def pencil_det_form(p: Pencil) -> BinaryForm:
    """The binary form det(s Q0 + t Q1), of degree m+1 when not identically zero."""
    return p.det_form


class DegenerationCount(Record):
    # total: with multiplicity, including the member at infinity
    _fields = ("total", "distinct")


def _count_binary_roots(coeffs) -> DegenerationCount:
    # roots of the binary form with these coefficients (c_0, .., c_d) on the
    # (s:t) line: dehomogenize at s = 1, then (0:1) is an extra root exactly
    # when the top coefficient vanishes
    at_infinity = 1 if coeffs[-1] == 0 else 0
    _, finite_distinct = distinct_root_count(coeffs)
    return DegenerationCount(total=len(coeffs) - 1, distinct=finite_distinct + at_infinity)


def count_degenerations(p: Pencil) -> DegenerationCount:
    """Number of singular members of the pencil, with and without multiplicity.

    Counted on the kept integer coefficients of det(A + tB), a positive
    multiple of the determinant form, so no Fraction is built.
    """
    return _count_binary_roots(p._det_ints)


def count_tangencies(p: Pencil, basis) -> DegenerationCount:
    """Number of pencil members tangent to the subspace spanned by basis.

    Tangency of a member to the subspace means its restriction there is
    singular, so this is the degeneration count of the restricted pencil.
    On a positive-dimensional subspace a projectively constant restriction
    is flagged as degenerate (the count would carry spurious multiplicity);
    on a point every restriction is a scalar pencil and the count is the
    single member through the point.

    The basis is read, scaled by its lcm Lb and rank-checked once, with the
    checks and messages of restrict (quadrics._int_basis), and its integer
    columns are counted by _tangencies.
    """
    cols, _ = _int_basis(basis, p.q0.n + 1)
    return _tangencies(p, cols)


def _tangencies(p: Pencil, cols) -> DegenerationCount:
    """count_tangencies on the span of integer columns cols, which the
    caller has certified independent: _family_counts passes its _random_basis
    draw straight here.

    The pencil is restricted once, in integers: with B the matrix of cols,
    B^T (q0.ints) B and B^T (q1.ints) B are the restrictions of Q0 and Q1
    (restrict) times positive factors, which change no zero test, no
    proportionality test and, rescaling s and t, no root of their
    determinant form.
    """
    r0, r1 = _int_congruence(p.q0.ints, cols), _int_congruence(p.q1.ints, cols)
    f0, f1 = _flat(r0), _flat(r1)
    if not any(f0) or not any(f1):
        raise DegeneratePencilError("a pencil member restricts to zero")
    if len(cols) >= 2 and _proportional(f0, f1):
        raise DegeneratePencilError("restricted pencil is projectively constant")
    return _count_binary_roots(_det_binary(r0, r1))


_TRIES = 64  # draws before a builder is given up


def _retry(builder, rng):
    last = None
    for _ in range(_TRIES):
        try:
            return builder(rng)
        except DegeneratePencilError as exc:
            last = exc
    raise DegeneratePencilError("no generic draw found: %s" % (last,))


def _pencil_seeds(r) -> tuple:
    # the seeds of Q0 and Q1: the draws of r.randrange(1 << 30), replayed by
    # _randbelow
    return _randbelow(r, 1 << 30), _randbelow(r, 1 << 30)


def _certified_pencil(r, m: int) -> Pencil:
    # two smooth forms on P^m, from the seeds of _pencil_seeds, certified by
    # the integer determinant coefficients a count of their degenerations
    # takes (Pencil._det_ints).  Both forms are built from the first M of
    # their random_form streams with no elimination (_first_smooth_form), so
    # both are integral and c_0 = det Q0, c_(m+1) = det Q1.  These are
    # nonzero exactly when the first M of Q0, of Q1, is invertible, and then
    # that form is random_form's.  With both nonzero the pencil keeps its
    # coefficients; a member with a zero coefficient is rebuilt through
    # random_form from its seed, and both are when the candidates raise, so
    # the members are random_form's of the two seeds in every case.
    s0, s1 = _pencil_seeds(r)
    q0, q1 = _first_smooth_form(m, s0), _first_smooth_form(m, s1)
    try:
        p = Pencil(q0, q1)
        c0, *_, c1 = p._det_ints
    except DegeneratePencilError:
        return Pencil(random_form(m, m + 1, s0), random_form(m, m + 1, s1))
    if c0 and c1:
        return p
    return Pencil(q0 if c0 else random_form(m, m + 1, s0), q1 if c1 else random_form(m, m + 1, s1))


def random_pencil(m: int, seed: int) -> Pencil:
    """Random pencil of smooth quadrics on P^m with a nonzero determinant form."""
    return _retry(lambda r: _certified_pencil(r, m), random.Random(seed))


def marking_pencil(n: int, k: int, seed: int) -> Pencil:
    """Random pencil of marking quadrics on P^(n-k), for boundary index k.

    A rank-k quadric on P^n is marked on its singular locus P^(n-k).
    """
    if not 1 <= k <= n - 1:
        raise ValueError("k must lie in 1..n-1")
    return random_pencil(n - k, seed)


def bk_number(n: int, k: int, seed: int) -> int:
    """Degeneration count of marking_pencil(n, k, seed).

    A pencil of markings degenerates n-k+1 times, the intersection number
    of the marking curve with the next boundary divisor.
    """
    return count_degenerations(marking_pencil(n, k, seed)).total


def _sym_outer(u, v):
    # symmetric matrix of the product of two integer linear forms u, v:
    # entry (i, j) is (u_i v_j + u_j v_i) / 2, symmetric in i and j
    size = len(u)
    return SymmetricForm._unchecked(
        [[u[i] * v[j] + u[j] * v[i] for j in range(size)] for i in range(size)], 2)


def _rank2_product_pencil(rng, m: int) -> Pencil:
    """Pencil u * v_t on P^m with u fixed and v_t moving (a pencil of split forms)."""
    size = m + 1

    def build(r):
        u, v0, v1 = (_small_ints(r, size) for _ in range(3))
        return Pencil(_sym_outer(u, v0), _sym_outer(u, v1))

    return _retry(build, rng)


# one row per pencil family of the n = 3 table, drawn in this order: the
# pencil draw, the m of the P^m it draws on, and the entries the pencil
# counts as (label curve.divisor, k): its tangency count with the span of k
# random vectors, or for k None its degeneration count.  G is a pencil of
# smooth quadric surfaces, C1 one of marking conics on a fixed double plane,
# C2 a fixed plane times a pencil of planes, and L2 two fixed planes with one
# of the two marked points on their axis moving.
_FAMILIES = (
    (_certified_pencil, 3, (("G.H1", 1), ("G.H2", 2), ("G.H3", 3), ("G.E3", None))),
    (_certified_pencil, 2, (("C1.H2", 1), ("C1.H3", 2), ("C1.E3", None))),
    (_rank2_product_pencil, 3, (("C2.H1", 1),)),
    (_rank2_product_pencil, 1, (("L2.H3", 1),)),
)

# entries counted on no family of their own: each reads the count of the
# entry it repeats
_REPEATS = {"Gstar.E1": "G.E3", "C1star.E2": "C1.E3", "C3.E2": "C1.E3", "C1star.H3": "C1.H2"}

# table entry -> (curve name, divisor name) for the cross-module comparison
DIRECT_CHECK_PAIRS = {label: tuple(label.split(".")) for label in
                      [label for *_, entries in _FAMILIES for label, _ in entries] + [*_REPEATS]}


def _family_counts(r, draw, m, entries) -> dict:
    # one draw of the family's pencil and of its subspaces, counted; a
    # subspace is a certified _random_basis draw, so its columns go straight
    # to _tangencies
    p = draw(r, m)
    return {label: count_degenerations(p).total if k is None
            else _tangencies(p, list(zip(*_random_basis(r, m + 1, k)))).total for label, k in entries}


def direct_table_counts(seed: int) -> dict:
    """13 entries of the n = 3 table: 9 counted on one pencil per family, 4 repeats.

    Each row of _FAMILIES is one retried draw, from one seeded stream, of a
    pencil and of the subspaces its tangencies are counted on; a degenerate
    draw redraws the whole family.  C1star, C3 and Gstar build no family of
    their own, so their entries read the counts they repeat: Gstar.E1 that
    of G.E3, C1star.E2 and C3.E2 that of C1.E3, and C1star.H3 that of C1.H2.
    Totals count multiplicity so generic position is only needed to keep
    the draws nondegenerate.
    """
    rng = random.Random(seed)
    counts = {}
    for draw, m, entries in _FAMILIES:
        counts.update(_retry(lambda r: _family_counts(r, draw, m, entries), rng))
    counts.update((label, counts[source]) for label, source in _REPEATS.items())
    return counts
