"""Core arithmetic tests.

ff_det is checked against an independent cofactor-expansion oracle over
the rationals and, at rational points, over polynomials in one variable
(tests/univariate.py), int_det_poly against the same polynomial oracle,
and mat_rank and solve_exact against the largest nonvanishing minor, also where the
elimination skips columns; the inverse solve_exact gives column by column by
multiplying back; root counts against explicit factorizations and the
integer gcd against a Euclidean gcd over Fraction.  The symmetric
two-step elimination is checked against the general one (ff_det on
integers), also where a zero pivot sends it to the general one, and against
the single-step loop it replaced (one_step_sym_det), value for value and
None for None, also at the step where a stage repacks; int_det_poly against
per-point ff_det interpolated over Fraction (it rejects non-symmetric or
mismatched pairs), on both sides of the packed bit length where it stops
reading all coefficients from one elimination, and so is its staged
elimination (narrow first steps, one repack): through a zero pivot in
either stage, with digits near the narrow bound, and at a narrowed width,
which must raise; and the mod-P squarefree certificate against the
remainder sequence alone.
Raw input is checked where it enters: a float or a bool raises TypeError and
ragged rows raise ValueError, in the kernels and in the callers that pass
raw matrices, vectors or scalars through.
"""

import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from completequadrics import chambers, exact, pencils, verify
from completequadrics.chambers import classify_segment
from completequadrics.chowform import ProjectivePoint, chow_eval
from completequadrics.exact import (
    InconsistentSystem,
    UnderdeterminedSystem,
    clear_denominators,
    distinct_root_count,
    ff_det,
    int_det_poly,
    format_rat,
    mat_mul,
    mat_rank,
    parse_rat,
    poly_gcd,
    solve_exact,
)
from completequadrics.picard import DivisorClass
from completequadrics.quadrics import SymmetricForm, restrict
from univariate import mul, padded, pencil, poly, power
import univariate


def cofactor_det(m):
    # independent oracle: expansion along the first row, no divisions at all
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if not m[0][j]:
            continue
        minor = [[m[i][c] for c in range(n) if c != j] for i in range(1, n)]
        term = m[0][j] * cofactor_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


small_rat = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def rat_matrix(n):
    return st.lists(st.lists(small_rat, min_size=n, max_size=n), min_size=n, max_size=n)


@settings(max_examples=60, deadline=None)
@given(rat_matrix(3))
def test_ff_det_matches_cofactor_rational(m):
    assert ff_det(m) == cofactor_det(m)


@settings(max_examples=25, deadline=None)
@given(rat_matrix(4))
def test_ff_det_matches_cofactor_rational_4x4(m):
    assert ff_det(m) == cofactor_det(m)


int_entry = st.integers(min_value=-50, max_value=50)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.lists(int_entry, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_int_det_matches_cofactor(m):
    # the determinant of an integer matrix is an integer, as a Fraction
    d = ff_det(m)
    assert type(d) is Fraction and d.denominator == 1
    assert d == cofactor_det(m)


def test_int_det_zero_pivots():
    # a zero pivot forces a row swap, whose sign must be kept
    assert ff_det([[0, 1, 2], [3, 4, 5], [6, 7, 9]]) == cofactor_det([[0, 1, 2], [3, 4, 5], [6, 7, 9]])
    assert ff_det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert ff_det([[0, 1], [0, 2]]) == 0
    with pytest.raises(ValueError, match="non-square"):
        ff_det([[1, 2]])
    with pytest.raises(ValueError, match="non-square"):
        ff_det([[]])
    with pytest.raises(ValueError, match="empty"):
        ff_det([])


def _upper(m):
    return [list(r[i:]) for i, r in enumerate(m)]


def _sparse_symmetric(rng, n):
    # entries mostly zero, so zero pivots and zero trailing diagonals occur
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.4:
                m[i][j] = m[j][i] = rng.randint(-3, 3)
    return m


def test_sym_det_matches_int_det_on_sparse_symmetric():
    # sparse draws meet zero pivots, where _sym_det stops with None and
    # _symmetric_det takes the general elimination of a copy of the rows
    kinds = set()
    for seed in range(400):
        rng = random.Random(1500 + seed)
        m = _sparse_symmetric(rng, rng.randint(1, 8))
        kept = [r[:] for r in m]
        d = exact._symmetric_det(m)
        assert type(d) is int
        assert d == ff_det(m), m
        assert m == kept
        straight = exact._sym_det(_upper(m))
        assert straight in (None, d)
        kinds.add("fallback" if straight is None else "straight")
        kinds.add("singular" if d == 0 else "nonsingular")
    assert kinds == {"fallback", "straight", "singular", "nonsingular"}


@pytest.mark.parametrize("m, det, taken", [
    # taken: the step whose pivot, a leading principal minor, is the first
    # to vanish before the last step; a00 = 0 beside a nonzero a22
    ([[0, 1, 0], [1, 0, 2], [0, 2, 3]], -3, [0]),
    # every diagonal entry zero
    ([[0, 1], [1, 0]], -1, [0]),
    ([[0, 0, 2], [0, 0, 3], [2, 3, 0]], 0, [0]),
    # after the first step the trailing diagonal is all zero
    ([[1, 1, 1], [1, 1, 2], [1, 2, 1]], -1, [1]),
    # zero trailing rows: at the first step, and after one
    ([[0, 0], [0, 0]], 0, [0]),
    ([[0, 0, 0], [0, 0, 4], [0, 4, 0]], 0, [0]),
    ([[2, 4, 6], [4, 8, 12], [6, 12, 18]], 0, [1]),
    # singular beside a zero pivot
    ([[0, 0], [0, 5]], 0, [0]),
    ([[1, 1, 0], [1, 1, 0], [0, 0, 3]], 0, [1]),
    # one entry: the last pivot is the determinant, zero or not
    ([[7]], 7, []),
    ([[0]], 0, []),
])
def test_sym_det_forced_branches(m, det, taken):
    assert cofactor_det(m) == det
    minors = [cofactor_det([r[:k + 1] for r in m[:k + 1]]) for k in range(len(m) - 1)]
    assert taken == [k for k, x in enumerate(minors) if not x][:1]
    assert exact._sym_det(_upper(m)) == (None if taken else det)
    assert exact._symmetric_det(m) == det


def one_step_sym_det(u, stage=None):
    # oracle: the single-step symmetric Bareiss elimination, one pivot and
    # one exact division a step, with the stage and the None of _sym_det
    n = len(u)
    prev = 1
    s, widen = stage or (0, None)
    for k in range(n - 1):
        if k == s and widen:
            prev = widen(u, prev)
        row = u[k]
        pivot = row[0]
        if not pivot:
            return None
        for i in range(k + 1, n):
            f = row[i - k]
            u[i] = [(pivot * x - f * y) // prev for x, y in zip(u[i], row[i - k:])]
        prev = pivot
    return u[n - 1][0]


def _both_sym_dets(m, s=None):
    # (_sym_det, oracle) on copies of the upper triangle of m; with a step s,
    # each also gives the last pivot and the trailing rows u[s:] it reaches
    # before step s, through a widen that keeps the width
    results = []
    for sym_det in (exact._sym_det, one_step_sym_det):
        seen = []
        stage = (s, lambda u, prev: seen.append((prev, [r[:] for r in u[s:]])) or prev) if s else None
        results.append((sym_det(_upper(m), stage), seen))
    return results


def _zero_leading_minor(rng, n, r):
    # a leading r x r block P D P^T, with P unit lower triangular and D
    # diagonal, d_r-1 = 0: its leading principal minors are d_0 ... d_j, so
    # the first to vanish has r rows (step r - 1); the rows and columns past
    # the block are drawn, so the whole matrix can be nonsingular
    m = _dense_symmetric(rng, n, 3)
    p = [[1 if i == j else rng.randint(-2, 2) if j < i else 0 for j in range(r)] for i in range(r)]
    d = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(r - 1)] + [0]
    for i in range(r):
        for j in range(r):
            m[i][j] = sum(p[i][k] * d[k] * p[j][k] for k in range(r))
    return m


@pytest.mark.parametrize("n", range(1, 14))
def test_sym_det_matches_the_one_step_oracle(n):
    # dense and sparse draws, eliminated whole and with a stage at every
    # step s, whose widen records the pivot and trailing rows at step s: the
    # two-step passes reach the one-step values there, after a single step
    # where s is odd, and return None on the same matrices
    rng = random.Random("one-step:%d" % n)
    outcomes = set()
    for draw in (_dense_symmetric, _sparse_symmetric):
        for _ in range(30):
            m = draw(rng, n)
            whole = _both_sym_dets(m)
            assert whole[0] == whole[1], m
            det = whole[0][0]
            assert det is None or det == ff_det(m)
            outcomes.add(det is None)
            for s in range(1, n - 1):
                staged = _both_sym_dets(m, s)
                assert staged[0] == staged[1], (m, s)
                assert staged[0][0] == det and (det is None or len(staged[0][1]) == 1)
    assert outcomes == ({False} if n == 1 else {False, True})


@pytest.mark.parametrize("n", range(2, 14))
def test_sym_det_zero_leading_minor_in_either_step_of_a_pair(n):
    # a first vanishing leading minor of r rows is the pivot of step r - 1:
    # the a of a pass when r - 1 is even, its c0 when r - 1 is odd, and
    # either under a stage that shifts the pairing; _sym_det and the oracle
    # both return None, and _symmetric_det takes the general elimination
    rng = random.Random("zero-minor:%d" % n)
    dets = []
    for r in range(1, n):
        m = _zero_leading_minor(rng, n, r)
        minors = [ff_det([row[:k + 1] for row in m[:k + 1]]) for k in range(n)]
        assert [k for k, x in enumerate(minors) if not x][:1] == [r - 1]
        assert _both_sym_dets(m) == [(None, [])] * 2
        for s in range(1, n - 1):
            staged = _both_sym_dets(m, s)
            assert staged[0] == staged[1] and staged[0][0] is None
            assert len(staged[0][1]) == (s < r)
        dets.append(exact._symmetric_det(m))
        assert dets[-1] == minors[-1]
    assert any(dets)


def test_sym_det_matches_the_one_step_oracle_on_ladder_pencils(monkeypatch):
    # the benchmark's ladder pool, P^4..P^16 x seeds 0..15, with int_det_poly
    # held to one width at every size and then staged at every size: each
    # elimination it runs gives what the one-step oracle gives on a copy,
    # and both widths read the same coefficients
    pencil_pool = [pencils.random_pencil(m, seed) for m in range(4, 17) for seed in range(16)]
    assert all(p.q0.den == p.q1.den == 1 for p in pencil_pool)
    pool = [(p.q0.ints, p.q1.ints) for p in pencil_pool]
    sym_det = exact._sym_det
    staged = []

    def both(u, stage=None):
        expected = one_step_sym_det([r[:] for r in u], stage)
        det = sym_det(u, stage)
        assert det == expected is not None
        staged.append(stage is not None)
        return det

    monkeypatch.setattr(exact, "_sym_det", both)
    forms = []
    for stage_min_n in (18, 1):
        monkeypatch.setattr(exact, "_STAGE_MIN_N", stage_min_n)
        forms.append([int_det_poly(a, b) for a, b in pool])
    assert forms[0] == forms[1]
    assert staged == [False] * 208 + [True] * 208


def _interpolation_oracle(a, b):
    # per-point ff_det at t = 0..n, interpolated by Lagrange over Fraction
    n = len(a)
    values = [ff_det([[x + t * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
              for t in range(n + 1)]
    coeffs = [Fraction(0)] * (n + 1)
    for i, v in enumerate(values):
        basis = [Fraction(1)]
        denom = 1
        for j in range(n + 1):
            if j != i:
                basis = [x - j * y for x, y in zip([0] + basis, basis + [0])]
                denom *= i - j
        coeffs = [c + Fraction(v, denom) * x for c, x in zip(coeffs, basis)]
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]


def _asymmetric(rng, n):
    # entries in -3..3, with a_0,n-1 != a_n-1,0 once n > 1
    m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    if n > 1:
        m[0][n - 1] = m[n - 1][0] + 1
    return m


@pytest.mark.parametrize("shape", ["both", "only_a", "only_b", "neither"])
def test_int_det_poly_matches_per_point_oracle(shape):
    # symmetric pairs match the oracle; a pair with a non-symmetric member
    # is rejected, except at n = 1, where every matrix is symmetric
    rng = random.Random("pencil:" + shape)
    rejected = 0
    for _ in range(60):
        n = rng.randint(1, 7)
        a, b = _sparse_symmetric(rng, n), _sparse_symmetric(rng, n)
        if shape in ("only_b", "neither"):
            a = _asymmetric(rng, n)
        if shape in ("only_a", "neither"):
            b = _asymmetric(rng, n)
        if shape != "both" and n > 1:
            with pytest.raises(ValueError, match="symmetric"):
                int_det_poly(a, b)
            rejected += 1
            continue
        coeffs = int_det_poly(a, b)
        assert coeffs == _interpolation_oracle(a, b)
        assert len(coeffs) == n + 1 and all(type(c) is int for c in coeffs)
    assert bool(rejected) == (shape != "both")


def test_int_det_poly_takes_the_symmetric_path_for_symmetric_pairs(monkeypatch):
    calls = []
    sym_det = exact._sym_det
    monkeypatch.setattr(exact, "_sym_det", lambda u: calls.append(len(u)) or sym_det(u))
    sym = [[1, 2], [2, 0]]
    assert int_det_poly(sym, [[0, 1], [1, 1]]) == [-4, -3, -1]
    assert calls == [2]
    with pytest.raises(ValueError, match="symmetric"):
        int_det_poly(sym, [[0, 1], [0, 1]])
    assert calls == [2]
    with pytest.raises(ValueError):
        int_det_poly([], [])
    # ragged or non-square input raises as ff_det does
    for ragged in ([[1, 2, 3], [2, 5, 6], [3, 6]], [[1, 2], [2, 3, 4]], [[1, 2]], [[]], [[], []]):
        with pytest.raises(ValueError):
            int_det_poly(ragged, ragged)


def _packed_bits(a, b):
    # n K, K = bitlen(H) + 1, H the product over the rows of the rounded-up
    # norms |a_i| + |b_i|: the length int_det_poly dispatches on
    bound = 1
    for ra, rb in zip(a, b):
        bound *= math.isqrt(sum(x * x for x in ra)) + math.isqrt(sum(y * y for y in rb)) + 2
    return len(a) * (bound.bit_length() + 1)


def _counted_stages(monkeypatch):
    # the size of each _sym_det call, and the step of each repack its stage makes
    calls, repacks = [], []
    sym_det = exact._sym_det

    def spy(u, stage=None):
        calls.append(len(u))
        if stage:
            s, widen = stage
            stage = (s, lambda u, prev: repacks.append(s) or widen(u, prev))
        return sym_det(u, stage)

    monkeypatch.setattr(exact, "_sym_det", spy)
    return calls, repacks


def _counted_sym_det(monkeypatch):
    return _counted_stages(monkeypatch)[0]


def _diag(*entries):
    return [[x if i == j else 0 for j in range(len(entries))] for i, x in enumerate(entries)]


def _pair_of_bits(n, bits):
    # symmetric pair with every entry +-(2^bits - 1), signs from a fixed draw
    rng = random.Random(bits * 100 + n)
    top = (1 << bits) - 1
    a, b = ([[0] * n for _ in range(n)] for _ in range(2))
    for m in (a, b):
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.choice((-top, top))
    return a, b


# pairs int_det_poly reads from one elimination, with their coefficients:
# each name says what the pair tests in the base-2^K digit split
E = 1 << 40
KRONECKER_PAIRS = {
    "negative": ([[-3, 1], [1, 2]], [[-1, 0], [0, 4]], [-7, -14, -4]),
    "singular_b": ([[2, 1, 0], [1, -3, 1], [0, 1, 5]], [[0, 0, 0], [0, 1, 2], [0, 2, -1]], [-37, 9, -10, 0]),
    "zero_b": ([[2, 1], [1, 3]], [[0, 0], [0, 0]], [5, 0, 0]),
    "zero_a": ([[0, 0], [0, 0]], [[1, 2], [2, -3]], [0, 0, -7]),
    # every member singular: a kernel vector common to A and B
    "all_singular": ([[1, 2], [2, 4]], [[-2, -4], [-4, -8]], [0, 0, 0]),
    "all_singular_3": ([[1, 0, 1], [0, 2, 2], [1, 2, 3]], [[0, 1, 1], [1, 0, 1], [1, 1, 2]], [0] * 4),
    "one_by_one": ([[7]], [[-5]], [7, -5]),
    "one_by_one_zero_b": ([[-9]], [[0]], [-9, 0]),
    "one_by_one_zero": ([[0]], [[0]], [0, 0]),
    # a coefficient within a few percent of the bound H, of either sign
    "near_bound_low": (_diag(-E, -E, -E), _diag(0, 0, 0), [-E ** 3, 0, 0, 0]),
    "near_bound_high": (_diag(0, 0, 0), _diag(E, -E, E), [0, 0, 0, -E ** 3]),
    "near_bound_mixed": (_diag(E - 1, -E), _diag(-E, E - 1), [-E * (E - 1), (E - 1) ** 2 + E ** 2, -E * (E - 1)]),
}


@pytest.mark.parametrize("name", sorted(KRONECKER_PAIRS))
def test_int_det_poly_kronecker_digits(monkeypatch, name):
    a, b, expected = KRONECKER_PAIRS[name]
    n = len(a)
    calls = _counted_sym_det(monkeypatch)
    coeffs = int_det_poly(a, b)
    assert calls == [n]
    assert coeffs == expected == _interpolation_oracle(a, b) == padded(univariate.det(pencil(a, b)), n + 1)
    assert all(type(c) is int for c in coeffs)


def test_int_det_poly_checks_the_digits_are_exhausted(monkeypatch):
    # a determinant past the coefficient bound leaves digits above the
    # n + 1 read off, and is refused rather than truncated
    monkeypatch.setattr(exact, "_sym_det", lambda u: 1 << 4000)
    with pytest.raises(exact.ExactLinalgError, match="bound"):
        int_det_poly([[1, 0], [0, 1]], [[0, 1], [1, 0]])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 16])
def test_int_det_poly_just_under_the_bit_limit(monkeypatch, n):
    # the largest entry size whose pair still packs into one elimination,
    # and the next one, which takes n + 1; from n = 12 on the one is staged
    bits = 1
    while _packed_bits(*_pair_of_bits(n, bits + 1)) <= exact._KRONECKER_BITS:
        bits += 1
    for size, points in ((bits, 1), (bits + 1, n + 1)):
        a, b = _pair_of_bits(n, size)
        assert (_packed_bits(a, b) <= exact._KRONECKER_BITS) == (points == 1)
        calls = _counted_sym_det(monkeypatch)
        assert int_det_poly(a, b) == _interpolation_oracle(a, b)
        assert calls == [n] * points


@pytest.mark.parametrize("n, bits", [(1, 4000), (2, 1000), (4, 400), (7, 120), (12, 30)])
def test_int_det_poly_over_the_bit_limit_takes_each_point(monkeypatch, n, bits):
    a, b = _pair_of_bits(n, bits)
    assert _packed_bits(a, b) > exact._KRONECKER_BITS
    calls = _counted_sym_det(monkeypatch)
    assert int_det_poly(a, b) == _interpolation_oracle(a, b)
    assert calls == [n] * (n + 1)


# -- the staged elimination of int_det_poly ------------------------------------


def _dense_symmetric(rng, n, top=9):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(-top, top)
    return m


def _block_diag(m1, m2):
    size = len(m1) + len(m2)
    return [[(m1[i][j] if i < len(m1) and j < len(m1) else
              m2[i - len(m1)][j - len(m1)] if i >= len(m1) and j >= len(m1) else 0)
             for j in range(size)] for i in range(size)]


@pytest.mark.parametrize("n", range(exact._STAGE_MIN_N - 1, 18))
def test_staged_int_det_poly_matches_the_oracle(monkeypatch, n):
    # one repack at step 2n/3 from _STAGE_MIN_N on, none below it
    rng = random.Random("staged:%d" % n)
    for sparse in (False, True):
        draw = _sparse_symmetric if sparse else _dense_symmetric
        a, b = draw(rng, n), draw(rng, n)
        calls, repacks = _counted_stages(monkeypatch)
        assert int_det_poly(a, b) == _interpolation_oracle(a, b)
        if n < exact._STAGE_MIN_N:
            assert (calls, repacks) == ([n], [])
        elif not sparse:
            assert (calls, repacks) == ([n], [2 * n // 3])


def _stage_pair(rng, n, first, second):
    # A and B block diagonal, blocks of sizes s = 2n/3 and n - s drawn by
    # first and second, so after s steps the trailing block is det(M1) M2:
    # a move the second block needs is taken at step s or later
    s = 2 * n // 3
    return tuple(_block_diag(first(rng, s), second(rng, n - s)) for _ in range(2))


def _zero_first_diagonal(rng, size):
    # a_00 = 0 beside a nonzero a_11
    m = _dominant(rng, size)
    m[0][0] = 0
    return m


def _zero_diagonal(rng, size):
    m = _dense_symmetric(rng, size, 3)
    for i in range(size):
        m[i][i] = 0
    m[0][1] = m[1][0] = 5
    return m


def _dominant(rng, size, low=40):
    m = _dense_symmetric(rng, size, 3)
    for i in range(size):
        m[i][i] = low + i
    return m


def _staged_fallback(monkeypatch, a, b):
    # (calls, repacks, fallbacks) of int_det_poly on a pencil of the
    # Kronecker path, fallbacks the size of each matrix _int_det eliminates;
    # read before the oracle, whose ff_det runs _int_det too
    calls, repacks = _counted_stages(monkeypatch)
    fallbacks = []
    int_det = exact._int_det
    monkeypatch.setattr(exact, "_int_det", lambda m: fallbacks.append(len(m)) or int_det(m))
    coeffs = int_det_poly(a, b)
    counts = (calls[:], repacks[:], fallbacks[:])
    assert coeffs == _interpolation_oracle(a, b)
    return counts


@pytest.mark.parametrize("n", range(12, 18))
def test_staged_int_det_poly_exchanges_in_either_stage(monkeypatch, n):
    # a zero leading diagonal entry is a zero pivot: at step 0, on the
    # narrow packing, or at step s, after the repack; either way the one
    # evaluation at 2^K takes the general elimination of A + 2^K B
    s = 2 * n // 3
    rng = random.Random("exchange:%d" % n)
    for first, second, repacks in ((_zero_first_diagonal, _dominant, []), (_dominant, _zero_first_diagonal, [s])):
        a, b = _stage_pair(rng, n, first, second)
        assert _staged_fallback(monkeypatch, a, b) == ([n], repacks, [n])


@pytest.mark.parametrize("n", range(12, 18))
def test_staged_int_det_poly_congruence(monkeypatch, n):
    # an all-zero trailing diagonal, which a symmetric elimination cannot
    # pivot on by any exchange: at step 0 and at step s the one evaluation
    # takes the general elimination, whose row swaps find a pivot
    s = 2 * n // 3
    rng = random.Random("congruence:%d" % n)
    a, b = _zero_diagonal(rng, n), _zero_diagonal(rng, n)
    assert _staged_fallback(monkeypatch, a, b) == ([n], [], [n])
    a, b = _stage_pair(rng, n, _dominant, _zero_diagonal)
    assert _staged_fallback(monkeypatch, a, b) == ([n], [s], [n])


@pytest.mark.parametrize("n, bits", [(12, 22), (13, 18), (14, 16), (15, 14), (16, 12), (17, 10)])
@pytest.mark.parametrize("signs", ["low", "high", "mixed"])
def test_staged_int_det_poly_near_the_bound(monkeypatch, n, bits, signs):
    # diagonal pairs whose minors at the repack fill their digits: with
    # E = 2^bits - 3 every norm rounds up to 2^bits - 1, so k0 - 1 =
    # bits (s + 1), and the digit E^(s+1) lies within 4% of the balanced
    # range 2^(k0-1); at each n = 12..17 the pair packs under
    # _KRONECKER_BITS and the pair with entries 4 times as large does not
    e = (1 << bits) - 3
    s = 2 * n // 3
    alt = [(-1) ** i for i in range(n)]
    diag = {"low": ([-e] * n, [0] * n), "high": ([0] * n, [e * x for x in alt]),
            "mixed": ([e * (x > 0) for x in alt], [-e * (x < 0) for x in alt])}[signs]
    a, b = (_diag(*d) for d in diag)
    assert _packed_bits(a, b) <= exact._KRONECKER_BITS < _packed_bits(*(_diag(*(4 * x for x in d)) for d in diag))
    digits = []
    read = exact._balanced_digits
    monkeypatch.setattr(exact, "_balanced_digits", lambda v, k, count, what: (
        digits.extend((k, abs(d)) for d in read(v, k, count, what)) if what == "pencil minor" else None)
        or read(v, k, count, what))
    calls, repacks = _counted_stages(monkeypatch)
    assert int_det_poly(a, b) == _interpolation_oracle(a, b) == padded(univariate.det(pencil(a, b)), n + 1)
    assert (calls, repacks) == ([n], [s])
    k0, top = max(digits)
    assert k0 == bits * (s + 1) + 1 and top == e ** (s + 1) > 0.96 * 2 ** (k0 - 1)


def test_staged_int_det_poly_dispatch(monkeypatch):
    # one repack for a pencil of the benchmark's ladder from P^11 on, none
    # below _STAGE_MIN_N, and none past _KRONECKER_BITS, where every point
    # takes its own elimination
    for m in range(8, 17):
        p = pencils.random_pencil(m, 3)
        assert p.q0.den == p.q1.den == 1
        a, b = p.q0.ints, p.q1.ints
        calls, repacks = _counted_stages(monkeypatch)
        int_det_poly(a, b)
        assert calls == [m + 1]
        assert repacks == ([2 * (m + 1) // 3] if m + 1 >= exact._STAGE_MIN_N else [])
    for n, bits in ((12, 30), (17, 16)):
        a, b = _pair_of_bits(n, bits)
        assert _packed_bits(a, b) > exact._KRONECKER_BITS
        calls, repacks = _counted_stages(monkeypatch)
        assert int_det_poly(a, b) == _interpolation_oracle(a, b)
        assert (calls, repacks) == ([n] * (n + 1), [])


def test_drawn_pencils_take_no_general_elimination(monkeypatch):
    # the benchmark's ladder pencils (P^4..P^16, seeds 0..15) and those of
    # check_boundary_numbers(seeds=20) meet no zero pivot, so int_det_poly
    # never hands them to _int_det, and the ff_det values the check
    # compares their forms with share no code with those forms
    results = []
    sym_det = exact._sym_det
    monkeypatch.setattr(exact, "_sym_det", lambda u, *stage: results.append(sym_det(u, *stage)) or results[-1])
    for m in range(4, 17):
        for seed in range(16):
            pencils.random_pencil(m, seed)
    ladder = results[:]
    del results[:]
    assert verify.check_boundary_numbers(seeds=20).passed
    assert len(ladder) >= 13 * 16 and len(results) >= 9 * 20
    assert None not in ladder + results


def test_staged_int_det_poly_refuses_a_narrow_packing(monkeypatch):
    # every norm k0 is sized by read as 2: the minors at the repack leave a
    # remainder after their s + 2 digits, and raise there, before the full
    # width could read a wrong determinant, at every n = 12..17, either
    # parity of s; each pair is positive definite (each diagonal entry
    # 200 + i above its row's off-diagonal sum, at most 48), so no leading
    # minor of A + xB, x >= 0, vanishes before the repack
    rng = random.Random("narrow")
    monkeypatch.setattr(exact, "sorted", lambda norms: [2] * len(norms), raising=False)
    for n in range(12, 18):
        a, b = _dominant(rng, n, 200), _dominant(rng, n, 200)
        calls, repacks = _counted_stages(monkeypatch)
        with pytest.raises(exact.ExactLinalgError, match="pencil minor exceeds its coefficient bound"):
            int_det_poly(a, b)
        assert (calls, repacks) == ([n], [2 * n // 3])


def test_int_det_poly_rejects_mismatched_sizes():
    # zipping A with B would drop the extra rows and columns of the larger
    eye3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for a, b in ((eye3, [[2, 0], [0, 2]]), ([[2, 0], [0, 2]], eye3), (eye3, [[1]] * 3)):
        with pytest.raises(ValueError, match="one size"):
            int_det_poly(a, b)


def test_clear_denominators():
    rows = [[Fraction(1, 2), Fraction(2, 3)], [Fraction(-5, 6), 4]]
    ints, scale = clear_denominators(rows)
    assert scale == 6
    assert ints == [[3, 4], [-5, 24]]
    assert all(type(x) is int for r in ints for x in r)
    assert clear_denominators([[1, 2]]) == ([[1, 2]], 1)


# -- the one validate-and-scale entry: exact._int_rows ------------------------


@pytest.mark.parametrize("rows", [[[True, 1]], [[1, 2], [3, False]], [[1, "2"]], [[Fraction(1, 2), "3"]]],
                         ids=["bool", "bool-late", "str", "str-beside-fraction"])
def test_int_rows_refuses_a_non_rational_entry(rows):
    with pytest.raises(TypeError):
        exact._int_rows(rows)


@pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1], [2, 3]], [[Fraction(1, 2)], []]])
def test_int_rows_refuses_ragged_rows(rows):
    with pytest.raises(ValueError, match="equal length"):
        exact._int_rows(rows)


def test_int_rows_scales_fraction_rows_by_their_lcm():
    ints, scale = exact._int_rows(((Fraction(1, 2), 1), (Fraction(2, 3), Fraction(-5, 6))))
    assert (ints, scale) == ([[3, 6], [4, -5]], 6)
    assert all(type(x) is int for r in ints for x in r)
    # integral Fractions scale by 1 but still come back as ints
    ints, scale = exact._int_rows([[Fraction(4, 2), 3]])
    assert (ints, scale) == ([[2, 3]], 1) and type(ints[0][0]) is int
    assert exact._int_rows([]) == ([], 1)


def test_int_rows_returns_int_rows_as_copies():
    # _echelon and _sym_det eliminate in place, so the rows handed back must
    # be fresh lists even when no entry needs scaling
    m = [[0, 2, 1], [2, 0, 3], [1, 3, 5]]
    kept = [r[:] for r in m]
    rows, scale = exact._int_rows(m)
    assert (rows, scale) == (kept, 1)
    assert rows is not m and all(a is not b for a, b in zip(rows, m))
    exact._echelon(rows, 3)
    rows[0][0] = 99
    assert m == kept
    rows, _ = exact._int_rows(((1, 2), (3, 4)))
    assert rows == [[1, 2], [3, 4]] and all(type(r) is list for r in rows)


def test_kernels_leave_integer_arguments_unmodified():
    # each argument needs a row swap or a scaled copy on the way in
    m = [[0, 1, 2], [1, 0, 3], [2, 3, 0]]
    basis = [[0, 1], [1, 0], [1, 1]]
    coeffs = [0, 0, 1, 2, 1]
    kept = [[r[:] for r in m], [r[:] for r in basis], coeffs[:]]
    q = SymmetricForm(m)
    assert ff_det(m) == cofactor_det(m) == 12
    # B^T Q B for the columns (0, 1, 1) and (1, 0, 1), and its determinant
    assert restrict(q, basis).rows == ((6, 6), (6, 4))
    assert chow_eval(q, 2, basis) == -12
    # t^2 (t + 1)^2
    assert distinct_root_count(coeffs) == (4, 2)
    assert [m, basis, coeffs] == kept


@settings(max_examples=40, deadline=None)
@given(rat_matrix(5))
def test_ff_det_rational_is_scaled_int_det(m):
    ints, scale = clear_denominators(m)
    d = ff_det(m)
    assert isinstance(d, Fraction)
    assert d == ff_det(ints) / scale ** 5 == cofactor_det(m)


@pytest.mark.parametrize("seed", range(12))
def test_int_det_poly_matches_univariate_cofactor(seed):
    # oracle: cofactor expansion of A + tB over polynomials in t, for
    # symmetric A and B; a singular B leaves a zero top coefficient, which
    # the list keeps
    rng = random.Random(800 + seed)
    size = rng.randint(1, 5)
    a, b = ([[0] * size for _ in range(size)] for _ in range(2))
    for m in (a, b):
        for i in range(size):
            for j in range(i, size):
                m[i][j] = m[j][i] = rng.randint(-9, 9)
    if seed % 3 == 0:
        for i in range(size):
            b[0][i] = b[i][0] = 0
    coeffs = int_det_poly(a, b)
    assert coeffs == padded(univariate.det(pencil(a, b)), size + 1)
    assert all(type(c) is int for c in coeffs)


# distinct points, more than the degree of any determinant below (at most
# 3 x 2 = 6), so agreement at all of them is agreement as polynomials
POINTS = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(-5, 3)]


def at(p, t):
    # the value of a coefficient list at t, by Horner's rule
    value = Fraction(0)
    for c in reversed(p):
        value = value * t + c
    return value


def random_poly1(rng, deg=2):
    # a polynomial in the one variable t
    return poly(*[rng.randint(-3, 3) for _ in range(deg + 1)])


def assert_ff_det_matches_cofactor_poly(m):
    # ff_det of m at each point against the cofactor determinant over
    # polynomials in t, taken at that point
    det = univariate.det(m)
    for t in POINTS:
        assert ff_det([[at(p, t) for p in row] for row in m]) == at(det, t)


@pytest.mark.parametrize("seed", range(12))
def test_ff_det_matches_cofactor_poly1(seed):
    rng = random.Random(seed)
    assert_ff_det_matches_cofactor_poly([[random_poly1(rng) for _ in range(3)] for _ in range(3)])


@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("seed", range(6))
def test_ff_det_matches_cofactor_small_polynomial(size, seed):
    # a zero corner forces a row swap first, whose sign ff_det must keep
    rng = random.Random(700 + seed)
    m = [[random_poly1(rng) for _ in range(size)] for _ in range(size)]
    assert_ff_det_matches_cofactor_poly(m)
    m[0][0] = poly()
    assert_ff_det_matches_cofactor_poly(m)


def test_ff_det_singular_and_permutation():
    assert ff_det([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 0
    # column of zeros below a zero pivot
    assert ff_det([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(2)]]) == 0
    # pivoting must track the sign of the row swap
    p = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert ff_det(p) == -1
    # the second column has no pivot after the first step
    assert ff_det([[1, 2, 3], [2, 4, 5], [3, 6, 7]]) == 0
    # rational entries only, a 1 x 1 matrix included; a bool is not one
    for m in ([[0.5, 1], [1, 0.5]], [[0.5]], [[True]]):
        with pytest.raises(TypeError):
            ff_det(m)


@pytest.mark.parametrize("entry", [3, Fraction(1, 2), 0, -7])
def test_ff_det_1x1_is_the_entry_as_a_fraction(entry):
    det = ff_det([[entry]])
    assert det == entry and type(det) is Fraction


_HALF_FORM = SymmetricForm.diagonal([1, 2])

# raw input that enters the exact kernels: a float or a bool is no rational
# entry (TypeError) and ragged rows are no matrix (ValueError), wherever the
# rows are read (exact._int_rows) or a vector enters beside them
RAW_INPUT = [
    ("mat_mul-float", lambda: mat_mul([[0.5]], [[2]]), TypeError),
    ("solve_exact-float-rhs", lambda: solve_exact([[1]], [0.1]), TypeError),
    ("solve_exact-bool", lambda: solve_exact([[True]], [1]), TypeError),
    ("root_count-bool", lambda: distinct_root_count([True, True]), TypeError),
    ("solve_exact-float", lambda: solve_exact([[0.5]], [1]), TypeError),
    ("root_count-float", lambda: distinct_root_count([0.5, 1]), TypeError),
    ("mat_rank-long-second-row", lambda: mat_rank([[1], [2, 3]]), ValueError),
    ("mat_rank-short-second-row", lambda: mat_rank([[1, 2, 3], [4, 5]]), ValueError),
    ("mat_rank-short-last-row", lambda: mat_rank([[1, 2], [3]]), ValueError),
    ("restrict-short-row", lambda: restrict(_HALF_FORM, [[1, 0], [0]]), ValueError),
    ("restrict-long-row", lambda: restrict(_HALF_FORM, [[1], [0, 1]]), ValueError),
    ("classify_segment-bool", lambda: classify_segment(True), ValueError),
    ("point-bool", lambda: ProjectivePoint([True, 0]), TypeError),
]


@pytest.mark.parametrize("call, error", [c[1:] for c in RAW_INPUT], ids=[c[0] for c in RAW_INPUT])
def test_raw_input_is_checked(call, error):
    with pytest.raises(error):
        call()


def test_classify_segment_reads_a_float_as_parse_rat_does(monkeypatch):
    # the divisor classified for t = 0.1 is 1/10 H1 + 9/10 H3, not the binary float's
    monkeypatch.setattr(chambers, "classify", lambda d: d)
    assert classify_segment(0.1) == DivisorClass(3, "H", ("1/10", 0, "9/10"))


def test_mat_rank_examples():
    assert mat_rank([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 1
    assert mat_rank([[Fraction(0)] * 3] * 3) == 0
    assert mat_rank([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)], [Fraction(1), Fraction(1)]]) == 2


def minor_rank(m):
    # oracle: the size of the largest nonvanishing minor, by cofactor expansion
    for k in range(min(len(m), len(m[0])), 0, -1):
        for rs in itertools.combinations(range(len(m)), k):
            for cs in itertools.combinations(range(len(m[0])), k):
                if cofactor_det([[m[i][j] for j in cs] for i in rs]):
                    return k
    return 0


@pytest.mark.parametrize("seed", range(30))
def test_mat_rank_matches_minor_oracle(seed):
    # a product of an r x d and a d x c factor, so small d gives deficient rank
    rng = random.Random(700 + seed)
    rows, cols, inner = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
    f = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(inner)] for _ in range(rows)]
    g = [[Fraction(rng.randint(-2, 2)) for _ in range(cols)] for _ in range(inner)]
    m = mat_mul(f, g)
    assert mat_rank(m) == minor_rank(m)


def _trimmed(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def fraction_remainder(a, b):
    # a mod b by long division over Fraction; b nonzero and trimmed
    rem = _trimmed(Fraction(c) for c in a)
    while len(rem) >= len(b):
        q = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        for i, y in enumerate(b):
            rem[shift + i] -= q * y
        rem = _trimmed(rem)
    return rem


def fraction_gcd(a, b):
    # oracle: the monic gcd by the Euclidean algorithm over Fraction
    a, b = _trimmed(Fraction(c) for c in a), _trimmed(Fraction(c) for c in b)
    while b:
        a, b = b, fraction_remainder(a, b)
    return [c / a[-1] for c in a]


def test_distinct_root_count_factored():
    p = mul(poly(1, 0, 1), power(poly(-3, 1), 2))
    assert distinct_root_count(p) == (4, 3)
    assert distinct_root_count(power(poly(-1, 1), 5)) == (5, 1)
    assert distinct_root_count([7]) == (0, 0)
    # trailing zeros are a root at infinity, which the caller counts
    assert distinct_root_count([6, -5, 1, 0]) == (2, 2)
    assert distinct_root_count([Fraction(3, 2), 0, Fraction(-3, 2), 0, 0]) == (2, 2)
    assert distinct_root_count([7, 0]) == (0, 0)
    for zero in ([], [0], [Fraction(0), 0]):
        with pytest.raises(ValueError):
            distinct_root_count(zero)


@pytest.mark.parametrize("seed", range(10))
def test_distinct_root_count_random_products(seed):
    # oracle: build the polynomial from explicit linear factors
    rng = random.Random(300 + seed)
    roots = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))]
    mults = [rng.randint(1, 3) for _ in roots]
    p = mul(*[power(poly(-r, 1), m) for r, m in zip(roots, mults)])
    assert distinct_root_count(p) == (sum(mults), len(set(roots)))


@pytest.mark.parametrize("seed", range(40))
def test_distinct_root_count_matches_fraction_gcd(seed):
    # oracle: the squarefree part p / gcd(p, p') by the Euclidean gcd over
    # Fraction, on products of rational roots with a rational leading factor
    rng = random.Random(500 + seed)
    cs = poly(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)))
    for _ in range(rng.randint(1, 6)):
        root = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        cs = mul(cs, power(poly(-root, 1), rng.randint(1, 3)))
    if rng.random() < 0.5:
        cs = mul(cs, poly(Fraction(rng.randint(1, 5), rng.randint(1, 3)), 0, 1))
    derivative = [i * c for i, c in enumerate(cs)][1:]
    squarefree_degree = len(cs) - len(fraction_gcd(cs, derivative))
    assert distinct_root_count(cs) == (len(cs) - 1, squarefree_degree)


P = exact._CERT_P  # the certificate's prime


def _reference_root_count(cs):
    # the primitive remainder sequence alone, without the certificate
    (a,), _ = clear_denominators([list(cs)])
    a = _trimmed(a)
    derivative = [i * c for i, c in enumerate(a)][1:]
    return (len(a) - 1, len(a) - len(poly_gcd(a, derivative)))


@pytest.mark.parametrize("coeffs, count, falls_back", [
    # a repeated root: gcd(a, a') is not constant mod P either
    (mul(poly(-1, 1), poly(-1, 1), poly(2, 1)), (3, 2), True),
    # t (t - P) is squarefree over Q, but t^2 mod P
    ([0, -P, 1], (2, 2), True),
    # a leading coefficient divisible by P: P t^2 - 1 and 2P t^3 + t
    ([-1, 0, P], (2, 2), True),
    ([0, 1, 0, 2 * P], (3, 3), True),
    ([Fraction(-1, 3), 0, Fraction(P, 3)], (2, 2), True),
    # squarefree, certified without the remainder sequence
    (mul(poly(-1, 1), poly(-2, 1), poly(1, 0, 1)), (4, 4), False),
    ([Fraction(1, 2), Fraction(-3, 4), 5], (2, 2), False),
    ([0, 1], (1, 1), False),
    ([7], (0, 0), False),
])
def test_distinct_root_count_certificate_and_fallback(coeffs, count, falls_back):
    with mock.patch.object(exact, "poly_gcd", wraps=exact.poly_gcd) as spy:
        assert distinct_root_count(coeffs) == count
    assert spy.call_count == falls_back
    assert _reference_root_count(coeffs) == count


def test_distinct_root_count_agrees_with_poly_gcd_on_products():
    rng = random.Random(2300)
    fallbacks = []
    for _ in range(200):
        cs = poly(rng.choice([1, -1, 2, 3, -6, P]))
        for _ in range(rng.randint(1, 4)):
            root = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
            cs = mul(cs, power(poly(-root, 1), rng.randint(1, 3)))
        if rng.random() < 0.3:
            cs = mul(cs, poly(rng.randint(1, 4), 0, 1))
        with mock.patch.object(exact, "poly_gcd", wraps=exact.poly_gcd) as spy:
            assert distinct_root_count(cs) == _reference_root_count(cs)
        fallbacks.append(spy.call_count)
    # both the certificate and the remainder sequence answered some
    assert set(fallbacks) == {0, 1}


def test_poly_gcd_divides_both():
    a = [int(c) for c in mul(poly(-1, 1), poly(2, 1), poly(2, 1))]
    b = [int(c) for c in mul(poly(2, 1), poly(-5, 1))]
    g = poly_gcd(a, b)
    assert g == [2, 1]
    assert fraction_remainder(a, g) == [] and fraction_remainder(b, g) == []
    assert poly_gcd([], []) == []
    assert poly_gcd([0, 0], [-3, -6, 0]) == [1, 2]
    # random products with a common factor: the primitive gcd with a
    # positive leading coefficient is the Fraction gcd scaled to integers
    rng = random.Random(900)
    for _ in range(30):
        common, f, h = (
            poly(*[rng.randint(-5, 5) for _ in range(rng.randint(0, 3))])
            for _ in range(3)
        )
        a, b = ([int(c) for c in mul(common, x)] for x in (f, h))
        g = poly_gcd(a, b)
        if not g:
            assert not a and not b
            continue
        assert math.gcd(*g) == 1 and g[-1] > 0
        assert [Fraction(c, g[-1]) for c in g] == fraction_gcd(a, b)


def test_solve_exact_unique():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(-1)]]
    assert solve_exact(a, [Fraction(5), Fraction(1)]) == [Fraction(2), Fraction(1)]


def test_solve_exact_flags():
    singular = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    with pytest.raises(InconsistentSystem):
        solve_exact(singular, [Fraction(1), Fraction(3)])
    with pytest.raises(UnderdeterminedSystem):
        solve_exact(singular, [Fraction(1), Fraction(2)])
    # overdetermined but consistent: unique solution is still returned
    tall = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert solve_exact(tall, [Fraction(3), Fraction(4), Fraction(7)]) == [3, 4]


@settings(max_examples=40, deadline=None)
@given(rat_matrix(3), st.lists(small_rat, min_size=3, max_size=3))
def test_solve_exact_roundtrip(a, x):
    b = [sum(a[i][j] * x[j] for j in range(3)) for i in range(3)]
    try:
        got = solve_exact(a, b)
    except UnderdeterminedSystem:
        assert ff_det(a) == 0
        return
    assert got == [Fraction(v) for v in x]


def test_solve_exact_pivot_rows_found_by_swaps():
    # a zero first row and a zero leading entry make the elimination swap
    # rows, and the two rows past the pivots are consistent
    tall = [[0, 0, 0], [0, 0, 3], [2, 1, 0], [4, 5, 1], [1, 0, 1]]
    x = [Fraction(1, 2), Fraction(-2, 3), Fraction(5)]
    assert solve_exact(tall, [sum(c * v for c, v in zip(row, x)) for row in tall]) == x


def test_skipped_pivot_columns_examples():
    # a zero leading column and a repeated column: the pivots sit in columns
    # 1 and 3
    m = [[0, 1, 1, 2], [0, 2, 2, 5], [0, 3, 3, 7]]
    assert mat_rank(m) == minor_rank(m) == 2
    assert ff_det([r[:3] for r in m]) == ff_det([r[1:] for r in m]) == 0
    # the right side is inconsistent only in the last row, below the skipped
    # leading column
    a = [[0, 1], [0, 2], [0, 3]]
    with pytest.raises(InconsistentSystem):
        solve_exact(a, [1, 2, 4])
    with pytest.raises(UnderdeterminedSystem):
        solve_exact(a, [1, 2, 3])


@pytest.mark.parametrize("seed", range(30))
def test_skipped_pivot_columns_match_minor_oracle(seed):
    # a rank-deficient product with a zero column and a repeated column put in
    # at random places, so pivot columns are not contiguous; a random right
    # side is inconsistent exactly when it raises the rank
    rng = random.Random(1100 + seed)
    rows, inner = rng.randint(1, 4), rng.randint(1, 3)
    f = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(inner)] for _ in range(rows)]
    g = [[Fraction(rng.randint(-2, 2)) for _ in range(inner)] for _ in range(inner)]
    cols = [list(col) for col in zip(*mat_mul(f, g))]
    cols.insert(rng.randint(0, len(cols)), [Fraction(0)] * rows)
    cols.insert(rng.randint(0, len(cols)), list(rng.choice(cols)))
    a = [list(row) for row in zip(*cols)]
    rank = minor_rank(a)
    assert mat_rank(a) == rank
    if rows == len(cols):
        assert ff_det(clear_denominators(a)[0]) == cofactor_det(a) == 0
    b = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rows)]
    consistent = minor_rank([row + [v] for row, v in zip(a, b)]) == rank
    with pytest.raises(UnderdeterminedSystem if consistent else InconsistentSystem):
        solve_exact(a, b)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(rat_matrix))
def test_solve_exact_columns_invert_a_matrix(a):
    # column j of the inverse solves A x = e_j; a singular A has no solution
    # or free variables at every e_j
    n = len(a)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    if ff_det(a) == 0:
        for e in identity:
            with pytest.raises(exact.ExactLinalgError):
                solve_exact(a, e)
        return
    inverse = [list(r) for r in zip(*[solve_exact(a, e) for e in identity])]
    assert mat_mul(a, inverse) == mat_mul(inverse, a) == identity


def fraction_product(a, b):
    # oracle: the plain sum of Fraction products
    return [[sum((Fraction(x) * Fraction(y) for x, y in zip(row, col)), Fraction(0))
             for col in zip(*b)] for row in a]


@pytest.mark.parametrize("seed", range(20))
def test_mat_mul_rational_matches_fraction_sum(seed):
    rng = random.Random(600 + seed)
    p, q, r = (rng.randint(1, 5) for _ in range(3))

    def entry():
        if rng.random() < 0.3:
            return rng.randint(-4, 4)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 15))

    a = [[entry() for _ in range(q)] for _ in range(p)]
    b = [[entry() for _ in range(r)] for _ in range(q)]
    assert mat_mul(a, b) == fraction_product(a, b)
    # a product that reduces to lowest terms
    half = [[Fraction(1, 2), Fraction(1, 3)]]
    assert mat_mul(half, [[Fraction(2)], [Fraction(3)]]) == [[Fraction(2)]]


def test_rat_serialization():
    assert format_rat(Fraction(-3, 6)) == "-1/2"
    assert parse_rat("-1/2") == Fraction(-1, 2)
    assert parse_rat("4") == 4
    assert parse_rat(" 0.5 ") == Fraction(1, 2)
    assert parse_rat(-7) == -7
    # a float is read exactly from its repr, exponent included
    assert parse_rat(0.00001) == Fraction(1, 100000)
    assert parse_rat(1e16) == 10 ** 16
    assert format_rat(Fraction(4)) == "4"


@pytest.mark.parametrize("flag", [True, False])
def test_parse_rat_rejects_booleans(flag):
    # bool is an int to isinstance; a JSON true is not a coefficient
    with pytest.raises(ValueError, match="boolean"):
        parse_rat(flag)


def test_parse_rat_zero_denominator_is_a_value_error():
    # Fraction raises ZeroDivisionError, whose message names no input
    with pytest.raises(ValueError, match=r"^zero denominator: '-3/0'$"):
        parse_rat(" -3/0 ")


@pytest.mark.parametrize("text", ["1e5000", "1E3", "2.5e-1", "-1e2", "nan", "inf"])
def test_parse_rat_rejects_exponents_and_floats(text):
    # "1e5000" would otherwise build a 5001-digit integer before any size check
    with pytest.raises(ValueError):
        parse_rat(text)


def test_mat_transpose_mul():
    # (AB)^T = B^T A^T, each transpose taken by zip
    a = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    b = [[Fraction(1)], [Fraction(1)]]
    assert mat_mul(a, b) == [[3], [7]]
    assert mat_mul(list(zip(*b)), list(zip(*a))) == [[3, 7]]
