"""Quadric form tests.

Rank strata codimensions are checked against an independent Jacobian-rank
oracle: the rank-<= i locus is parametrized by B -> B^T B and the rank of
the differential at a random smooth point gives the stratum dimension.
"""

import itertools
import math
import operator
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from completequadrics.exact import _is_symmetric, ff_det, mat_mul, mat_rank
from completequadrics import pencils, quadrics
from completequadrics.quadrics import (
    SymmetricForm,
    _int_minors,
    _random_basis,
    _small_ints,
    compound,
    quadric_space_dim,
    random_form,
    restrict,
    stratum_codim,
)


def minor_matrix(rows, k):
    # oracle: k x k minor matrix of an arbitrary rectangular matrix
    rs = list(itertools.combinations(range(len(rows)), k))
    cs = list(itertools.combinations(range(len(rows[0])), k))
    return [[ff_det([[rows[i][j] for j in t] for i in s]) for t in cs] for s in rs]


def test_symmetric_form_validation():
    with pytest.raises(ValueError):
        SymmetricForm([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(1)]])
    q = SymmetricForm.diagonal([1, 0, 0, 0])
    assert q.n == 3
    assert mat_rank(q.rows) == 1
    # the value v^T Q v is the restriction of Q to the point v
    assert restrict(q, [[Fraction(2)], [0], [0], [0]]).rows == ((4,),)


def test_public_constructor_checks_its_input():
    for bad in ([[1.0, 0], [0, 1]], [[True, 0], [0, 1]], [[1, "1/2"], ["1/2", 0]], [[1, None], [None, 1]]):
        with pytest.raises(TypeError):
            SymmetricForm(bad)
    for bad in ([[1, 2], [3, 1]], [[0, Fraction(1, 2)], [Fraction(1, 3), 0]], [[1, 0, 0], [0, 1, 0], [1, 0, 1]]):
        with pytest.raises(ValueError, match="not symmetric"):
            SymmetricForm(bad)


def assert_passes_constructor_checks(q):
    # what SymmetricForm(rows) tests and stores, read off a form the package
    # built through SymmetricForm._unchecked, which skips those tests
    assert type(q) is SymmetricForm
    assert type(q.ints) is tuple and all(type(r) is tuple for r in q.ints)
    assert len(q.ints) == q.n + 1 and all(len(r) == q.n + 1 for r in q.ints)
    assert all(type(x) is int for r in q.ints for x in r)
    assert type(q.den) is int and q.den > 0
    assert math.gcd(q.den, *itertools.chain(*q.ints)) == 1
    assert _is_symmetric(q.ints)
    assert SymmetricForm(q.rows) == q


def test_package_built_forms_pass_the_constructor_checks():
    rng = random.Random(30)
    for seed in range(40):
        for n in range(1, 7):
            for r in range(1, n + 2):
                q = random_form(n, r, 1000 * seed + 10 * n + r)
                assert_passes_constructor_checks(q)
            # an integer and a rational form, each compounded at every k and
            # restricted to random rational subspaces of every dimension
            for q in (q, rational_form(rng, n + 1)):
                for k in range(1, n + 2):
                    assert_passes_constructor_checks(compound(q, k))
                    b = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k)]
                         for _ in range(n + 1)]
                    if mat_rank(b) == k:
                        assert_passes_constructor_checks(restrict(q, b))
        for size in range(1, 7):
            u, v = _small_ints(rng, size), _small_ints(rng, size)
            assert_passes_constructor_checks(pencils._sym_outer(u, v))
            # every entry even, so the denominator 2 divides out
            assert_passes_constructor_checks(pencils._sym_outer(u, [2 * x for x in v]))


def test_form_is_one_canonical_integer_matrix_and_denominator():
    # entries ints / den, den > 0 coprime to the content of ints, for random
    # rational symmetric matrices with denominators up to 12, negative
    # entries and zero matrices; small shapes and values, so that many
    # pairs have equal entries
    rng = random.Random(33)
    forms = []
    for _ in range(400):
        size = rng.randint(1, 2)
        rows = [[None] * size for _ in range(size)]
        zero = rng.random() < 0.1
        for i in range(size):
            for j in range(i, size):
                x = 0 if zero else Fraction(rng.randint(-3, 3), rng.randint(1, 12))
                # the same value as an int or a Fraction
                rows[i][j] = rows[j][i] = int(x) if x.denominator == 1 and rng.random() < 0.5 else x
        q = SymmetricForm(rows)
        assert type(q.den) is int and q.den > 0
        assert all(type(x) is int for r in q.ints for x in r)
        assert math.gcd(q.den, *itertools.chain(*q.ints)) == 1
        assert q.rows == tuple(map(tuple, rows))
        for c in (1, 2, 7, 12):
            scaled = SymmetricForm._unchecked([[c * x for x in r] for r in q.ints], c * q.den)
            assert scaled == q and (scaled.ints, scaled.den) == (q.ints, q.den)
        forms.append((rows, q))
    equal = 0
    for (rows_a, a), (rows_b, b) in itertools.combinations(forms, 2):
        assert (a == b) == (rows_a == rows_b)
        if a == b:
            assert hash(a) == hash(b)
            equal += 1
    assert equal > 100


def test_form_json_roundtrip():
    q = SymmetricForm.from_rational([["1", "1/2"], ["1/2", "0"]])
    assert SymmetricForm.from_json({"n": 1, "matrix": [["1", "1/2"], ["1/2", "0"]]}) == q
    assert SymmetricForm.from_json({"matrix": [[1, 0.5], [0.5, 0]]}) == q
    with pytest.raises(ValueError):
        SymmetricForm.from_json({"n": 3, "matrix": [["1", "0"], ["0", "1"]]})


def test_compound_diagonal():
    q = SymmetricForm.diagonal([1, 2, 3])
    assert compound(q, 2) == SymmetricForm.diagonal([2, 3, 6])
    eye4 = SymmetricForm.diagonal([1, 1, 1, 1])
    assert compound(eye4, 2) == SymmetricForm.diagonal([1] * 6)
    assert compound(eye4, 1) == eye4
    assert compound(eye4, 4) == SymmetricForm.diagonal([1])


@pytest.mark.parametrize("seed", range(10))
def test_compound_rank_binomial(seed):
    rng = random.Random(seed)
    n = rng.choice([2, 3, 4])
    r = rng.randint(1, n + 1)
    q = random_form(n, r, seed=1000 + seed)
    for k in range(1, n + 2):
        assert mat_rank(compound(q, k).rows) == math.comb(r, k)


@pytest.mark.parametrize("seed", range(8))
def test_compound_congruence_cauchy_binet(seed):
    # compound(B^T Q B) = compound(B)^T compound(Q) compound(B)
    rng = random.Random(50 + seed)
    q = random_form(3, 4, seed=2000 + seed)
    k = rng.choice([2, 3])
    b = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(4)]
    if mat_rank(b) != 3:
        return
    rq = restrict(q, b)
    lhs = compound(rq, k).rows
    cb = minor_matrix(b, k)
    rhs = mat_mul(list(zip(*cb)), mat_mul(compound(q, k).rows, cb))
    assert [list(r) for r in lhs] == rhs


def per_pair_compound(q, k):
    # oracle: one ff_det for every pair (S, T), both halves computed
    subsets = list(itertools.combinations(range(q.n + 1), k))
    return [[ff_det([[q.rows[i][j] for j in t] for i in s]) for t in subsets] for s in subsets]


def random_symmetric(size, entry):
    rows = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            rows[i][j] = rows[j][i] = entry()
    return SymmetricForm(rows)


def rational_form(rng, size):
    return random_symmetric(size, lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 12)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("make", [rational_form])
def test_compound_matches_per_pair_oracle(make, seed, n):
    q = make(random.Random(1000 * n + seed), n + 1)
    for k in range(1, n + 2):
        rows = compound(q, k).rows
        expect = per_pair_compound(q, k)
        assert [list(r) for r in rows] == expect
        # the same printed entries, so the same cq chow output
        assert [[repr(x) for x in r] for r in rows] == [[repr(x) for x in r] for r in expect]
        assert all(type(x) is type(y) for r, e in zip(rows, expect) for x, y in zip(r, e))


def test_compound_rational_denominators_and_ints():
    # integer entries next to Fractions, and an lcm far above every entry's
    # own denominator
    q = SymmetricForm([[1, Fraction(1, 7), 0], [Fraction(1, 7), Fraction(2, 11), 3], [0, 3, Fraction(-5, 13)]])
    for k in (2, 3):
        rows = compound(q, k).rows
        assert [list(r) for r in rows] == per_pair_compound(q, k)
        assert all(type(x) is Fraction for r in rows for x in r)


def symmetric_int_matrices(rng):
    # random symmetric integer matrices of size 1..7: small entries, a zero
    # row and column, a singular one (a row repeated) and 60-bit entries
    for size in range(1, 8):
        small = random_symmetric(size, lambda: rng.randint(-5, 5)).rows
        wide = random_symmetric(size, lambda: rng.randint(-2 ** 60, 2 ** 60)).rows
        zero = [list(r) for r in small]
        z = rng.randrange(size)
        for i in range(size):
            zero[i][z] = zero[z][i] = 0
        yield small
        yield wide
        yield zero
        if size > 1:
            # row and column 1 copied from row and column 0: rank <= size - 1
            dup = [list(r) for r in wide]
            for i in range(size):
                dup[i][1] = dup[i][0]
            dup[1] = list(dup[0])
            yield dup


def test_int_minors_match_per_minor_int_det():
    # the Laplace pass against one integer determinant (ff_det) per minor,
    # both halves, for every k
    for rows in symmetric_int_matrices(random.Random(19)):
        rows = [list(r) for r in rows]
        size = len(rows)
        for k in range(1, size + 1):
            subsets = list(itertools.combinations(range(size), k))
            expect = [[ff_det([[rows[i][j] for j in t] for i in s]) for t in subsets] for s in subsets]
            assert _int_minors(rows, k) == expect, (rows, k)


def test_compound_scales_by_the_denominators(monkeypatch):
    # compound hands _int_minors the form's integer matrix, the form times
    # the lcm den = 6 of its denominators, and divides the integer minors by
    # den**k
    handed = []

    def recorded(ints, k):
        handed.append(ints)
        return _int_minors(ints, k)

    monkeypatch.setattr(quadrics, "_int_minors", recorded)
    q = SymmetricForm([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), 1]])
    assert compound(q, 1) == q
    assert (q.ints, q.den) == (((3, 2), (2, 6)), 6)
    c = compound(q, 2)
    assert c.rows == ((Fraction(14, 36),),)
    assert (c.ints, c.den) == (((7,),), 18)
    assert handed == [((3, 2), (2, 6))] * 2


@pytest.mark.parametrize("n", [1, 3])
def test_compound_k_out_of_range(n):
    q = random_form(n, n + 1, seed=n)
    for k in (-2, 0, n + 2):
        with pytest.raises(ValueError, match="k out of range"):
            compound(q, k)


def test_import_builds_no_laplace_tables():
    # the subset tables are built on first use, not at import
    code = (
        "import completequadrics\n"
        "from completequadrics import quadrics\n"
        "print([f.cache_info().currsize for f in\n"
        "       (quadrics._laplace_pairs, quadrics._laplace_rows, quadrics._laplace_cols)])\n"
    )
    src = pathlib.Path(quadrics.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0]\n"
    compound(random_form(3, 4, seed=1), 3)
    assert quadrics._laplace_pairs.cache_info().currsize > 0
    assert quadrics._laplace_rows.cache_info().currsize > 0


def test_restrict_basic():
    q = SymmetricForm.diagonal([1, 2, 3, 4])
    b = [[1, 0], [0, 1], [0, 0], [0, 0]]
    assert restrict(q, b) == SymmetricForm.diagonal([1, 2])
    with pytest.raises(ValueError):
        restrict(q, [[1, 2], [2, 4], [0, 0], [0, 0]])


def test_stratum_codim_closed_form():
    assert stratum_codim(3, 1) == 6
    assert stratum_codim(3, 2) == 3
    assert stratum_codim(3, 3) == 1
    assert stratum_codim(3, 4) == 0
    assert stratum_codim(2, 1) == 3
    with pytest.raises(ValueError):
        stratum_codim(3, 0)


@pytest.mark.parametrize("n,i", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)])
def test_stratum_codim_jacobian_oracle(n, i):
    # parametrize the stratum by psi(B) = B^T B and read off the rank of the
    # differential d psi(B)[delta] = delta^T B + B^T delta at a random point
    rng = random.Random(31 * n + i)
    size = n + 1
    while True:
        b = [[Fraction(rng.randint(-3, 3)) for _ in range(size)] for _ in range(i)]
        if mat_rank(b) == i:
            break
    pairs = [(p, q) for p in range(size) for q in range(p, size)]
    jac_cols = []
    for a in range(i):
        for c in range(size):
            delta = [[Fraction(int(r == a and s == c)) for s in range(size)] for r in range(i)]
            img = mat_mul(list(zip(*delta)), b)
            img2 = mat_mul(list(zip(*b)), delta)
            sym = [[img[p][q] + img2[p][q] for q in range(size)] for p in range(size)]
            jac_cols.append([sym[p][q] for (p, q) in pairs])
    rank = mat_rank(list(zip(*jac_cols)))
    codim = quadric_space_dim(n) + 1 - rank
    assert codim == stratum_codim(n, i)


@pytest.mark.parametrize("n,r,seed", [(2, 1, 5), (3, 2, 6), (3, 4, 7), (4, 3, 8)])
def test_random_form_rank_and_determinism(n, r, seed):
    q1 = random_form(n, r, seed)
    q2 = random_form(n, r, seed)
    assert q1 == q2
    assert mat_rank(q1.rows) == r
    assert random_form(n, r, seed + 1) != q1


# references: the three draws _random_basis replaced, each reading the
# generator in the same order, entries row by row
def invertible_reference(rng, size):
    # the M of random_form, redrawn until its determinant is nonzero
    while True:
        m = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
        if ff_det(m):
            return m


def point_reference(rng, size):
    while True:
        v = [[Fraction(rng.randint(-3, 3))] for _ in range(size)]
        if any(x[0] for x in v):
            return v


def subspace_reference(rng, size, k):
    while True:
        b = [[Fraction(rng.randint(-3, 3)) for _ in range(k)] for _ in range(size)]
        if mat_rank(b) == k:
            return b


@pytest.mark.parametrize("rows", range(1, 9))
def test_random_basis_matches_replaced_draws(rows):
    for seed in range(200):
        for cols in range(1, rows + 1):
            refs = [lambda r: subspace_reference(r, rows, cols)]
            if cols == 1:
                refs.append(lambda r: point_reference(r, rows))
            if cols == rows:
                refs.append(lambda r: invertible_reference(r, rows))
            rng = random.Random(seed)
            b = _random_basis(rng, rows, cols)
            assert all(type(x) is int for r in b for x in r)
            assert mat_rank(b) == cols
            for ref in refs:
                old = random.Random(seed)
                assert ref(old) == b
                assert old.getstate() == rng.getstate()


@pytest.mark.parametrize("count", [0, 1, 7, 289])
def test_small_ints_replay_randint(count):
    # _small_ints stands in for randint(-3, 3) only while CPython's randint
    # reads the generator this way; a release that changes it fails here
    for seed in range(1000):
        rng, old = random.Random(seed), random.Random(seed)
        assert _small_ints(rng, count) == [old.randint(-3, 3) for _ in range(count)]
        assert rng.getstate() == old.getstate()


class _NoDraws:
    def __getattr__(self, name):
        raise AssertionError("the generator was read")


@pytest.mark.parametrize("rows,cols", [(0, 1), (1, 2), (3, 4), (2, 5)])
def test_random_basis_rejects_more_columns_than_rows(rows, cols):
    # such a draw is never of full column rank, so it would be redrawn
    # forever; the shape raises before anything is drawn
    with pytest.raises(ValueError, match="cannot have rank"):
        _random_basis(_NoDraws(), rows, cols)


def congruent_reference(d, m):
    # oracle: (M^T D M)_ij = sum over k < r of d_k m_ki m_kj, entry by entry
    # for j >= i and mirrored
    cols = list(zip(*m[:len(d)]))
    size = len(cols)
    rows = [[None] * size for _ in range(size)]
    for i in range(size):
        di = [dk * x for dk, x in zip(d, cols[i])]
        for j in range(i, size):
            rows[i][j] = rows[j][i] = sum(map(operator.mul, di, cols[j]))
    return rows


@pytest.mark.parametrize("n", range(21))
@pytest.mark.parametrize("draw", [quadrics._int_matrix, _random_basis])
def test_congruent_form_matches_entry_sums(n, draw):
    # the packed-lane product against the plain sums, for every rank r, on
    # the M the draw returned and the d_k that rng.choice draws before it
    drawn = []

    def recorded(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    for r in range(1, n + 2):
        for seed in range(30):
            q = quadrics._congruent_form(n, r, seed, recorded)
            rng = random.Random(seed)
            d = [rng.choice([1, 2, 3, -1, -2, 5]) for _ in range(r)]
            assert q.den == 1
            assert [list(row) for row in q.ints] == congruent_reference(d, drawn[-1]), (n, r, seed)


@pytest.mark.parametrize("n", range(21))
def test_congruent_form_reaches_the_lane_bound(n, monkeypatch):
    # every d_k = 5 and every m_kj = 3 s_j with signs s_j of both kinds:
    # entry (i, j) is 45 r s_i s_j, the largest |entry| the lanes must hold,
    # positive and negative
    size = n + 1
    signs = [(-1) ** (j // 2) for j in range(size)]
    monkeypatch.setattr(quadrics, "_randbelow", lambda rng, k: 5)
    for r in range(1, size + 1):
        q = quadrics._congruent_form(n, r, 0, lambda rng, rows, cols: [[3 * s for s in signs]] * rows)
        assert [list(row) for row in q.ints] == [[45 * r * si * sj for sj in signs] for si in signs], (n, r)
