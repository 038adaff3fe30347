"""Chow form tests.

The central identity -- evaluating the k-th compound on a Pluecker vector
equals the determinant of the restricted form -- is checked on seeded random
(form, subspace) pairs; degeneration limits are checked against expected
wedge-coordinate supports computed from the defining minors.
"""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from completequadrics import chowform, exact, quadrics, verify
from completequadrics.exact import ff_det, mat_rank
from completequadrics.chowform import (
    PluckerVector,
    ProjectivePoint,
    chow_eval,
    chow_limit,
    flag_wedge,
    limit_support_coefficients,
    plucker,
    wedge2_example_matrix,
)
from completequadrics.quadrics import SymmetricForm, compound, random_form, restrict
import univariate


def random_basis(rng, n, k):
    while True:
        b = [[Fraction(rng.randint(-3, 3)) for _ in range(k)] for _ in range(n + 1)]
        if mat_rank(b) == k:
            return b


@pytest.mark.parametrize("n", [2, 3, 4])
def test_chow_eval_equals_restricted_determinant(n):
    rng = random.Random(97 * n)
    for trial in range(6):
        q = random_form(n, rng.randint(1, n + 1), seed=5000 + 10 * n + trial)
        for k in range(1, n + 1):
            b = random_basis(rng, n, k)
            assert chow_eval(q, k, b) == ff_det(restrict(q, b).rows)


def outcome(f, *args):
    try:
        return str(f(*args))
    except (ValueError, TypeError) as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def pinned_lines():
    # seeded rational forms (half rank-controlled and rescaled by
    # non-unit denominators, half with random rational entries) and
    # rational bases, a quarter of them with a dependent column
    rng = random.Random(1010)
    lines = []
    for n in range(2, 6):
        size = n + 1
        for trial in range(4):
            if trial % 2:
                rows = [[None] * size for _ in range(size)]
                for i in range(size):
                    for j in range(i, size):
                        rows[i][j] = rows[j][i] = Fraction(rng.randint(-6, 6), rng.randint(1, 7))
                q = SymmetricForm(rows)
            else:
                base = random_form(n, rng.randint(1, size), seed=rng.randint(0, 10 ** 6))
                den = [rng.randint(1, 5) for _ in range(size)]
                q = SymmetricForm([[Fraction(x, den[i] * den[j]) for j, x in enumerate(row)]
                                   for i, row in enumerate(base.rows)])
            for k in range(1, size + 1):
                span = rng.choice([1, 4])
                b = [[Fraction(rng.randint(-span, span), rng.randint(1, 5)) for _ in range(k)]
                     for _ in range(size)]
                if rng.random() < 0.25:
                    # a dependent last column (the zero column when k = 1)
                    for row in b:
                        row[-1] = 2 * row[0] if k > 1 else Fraction(0)
                lines.append("%d %d %d" % (n, trial, k))
                lines.append(outcome(chow_eval, q, k, b))
                lines.append(outcome(chow_eval, q, k % size + 1, b))
                lines.append(outcome(lambda: plucker(b).coords))
                lines.append(outcome(lambda: restrict(q, b).rows))
    return lines


def test_values_pinned():
    # chow_eval, plucker and restrict values and error messages, n = 2..5
    # and every k, against a digest recorded from the per-minor rational
    # evaluation (ff_det per minor, rational mat_mul, Fraction double sum)
    lines = pinned_lines()
    assert len(lines) == 360
    assert sum(line.startswith("ValueError: basis must have full") for line in lines) == 69
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "fcb420c4a323186bac0e3b129321835499eba0d24886f663767e1a8435805eee"


def test_rank_check_before_dimension_check():
    q = random_form(3, 4, seed=7)
    dependent = [[Fraction(1), Fraction(2)], [Fraction(1, 2), Fraction(1)], [0, 0], [3, 6]]
    for k in (1, 2, 3):
        with pytest.raises(ValueError, match="full column rank"):
            chow_eval(q, k, dependent)
    with pytest.raises(ValueError, match="wrong dimension"):
        chow_eval(q, 3, [[1, 0], [0, 1], [0, 0], [0, 0]])


def test_chow_eval_checks_row_count_first():
    # zip(v, c) would pair a too-short or too-long Pluecker vector with the
    # compound rows; restrict rejects the same bases
    q = SymmetricForm.diagonal([1, 2, 3])
    for k, b in ((1, [[1], [2], [3], [4]]), (1, [[1], [2]]), (2, [[1, 0], [0, 1]]),
                 (1, [[0], [0]])):
        with pytest.raises(ValueError, match="basis row count must be n\\+1"):
            chow_eval(q, k, b)
        with pytest.raises(ValueError, match="basis row count must be n\\+1"):
            restrict(q, b)


def test_chow_eval_reads_the_basis_once(monkeypatch):
    # the caller's rows go straight to one _int_rows pass, which the row
    # count is read from; no copy is made before it only to count them
    seen = []
    read = chowform._int_rows
    monkeypatch.setattr(chowform, "_int_rows", lambda m: seen.append(m) or read(m))
    q = SymmetricForm.diagonal([1, 2, 3])
    basis = ((1, 0), (0, 1), (Fraction(1, 2), 1))
    assert chow_eval(q, 2, basis) == ff_det(restrict(q, basis).rows)
    assert len(seen) == 1 and seen[0] is basis


@pytest.mark.parametrize("b", [[[1, 2], [3], [4, 5]], [[1], [2, 3], [4]]])
def test_ragged_basis_rejected(b):
    with pytest.raises(ValueError, match="equal length"):
        plucker(b)
    for k in (1, 2):
        with pytest.raises(ValueError, match="equal length"):
            chow_eval(SymmetricForm.diagonal([1, 2, 3]), k, b)


def test_int_plucker_matches_per_subset_int_det():
    # the Laplace pass against one integer determinant (ff_det) per k-subset
    # of rows, on integer bases with small and 60-bit entries and a zero
    # row; a basis whose last column repeats the first has rank k - 1 and
    # is rejected
    rng = random.Random(23)
    for size in range(1, 8):
        for k in range(1, size + 1):
            for bound in (3, 2 ** 60):
                b = [[rng.randint(-bound, bound) for _ in range(k)] for _ in range(size)]
                b[rng.randrange(size)] = [0] * k
                minors = [ff_det([b[i] for i in s]) for s in itertools.combinations(range(size), k)]
                if any(minors):
                    assert chowform._int_plucker(b) == (size - 1, k, minors, 1), b
                else:
                    with pytest.raises(ValueError, match="full column rank"):
                        chowform._int_plucker(b)
                if k > 1:
                    for row in b:
                        row[-1] = row[0]
                    with pytest.raises(ValueError, match="full column rank"):
                        chowform._int_plucker(b)
    half = [[Fraction(1, 2), 0], [0, Fraction(1, 3)], [1, 1]]
    assert chowform._int_plucker(half) == (2, 2, [6, 18, -12], 36)


def test_level_two_minors_take_no_laplace_tables(monkeypatch):
    # every 2 x 2 minor of a compound or a Pluecker vector is taken by its
    # two products: the expansion getters serve levels j >= 3 only
    calls = []
    real = quadrics._laplace_cols

    def recorded(size, j):
        calls.append(j)
        return real(size, j)

    monkeypatch.setattr(quadrics, "_laplace_cols", recorded)
    monkeypatch.setattr(chowform, "_laplace_cols", recorded)
    for size in range(2, 8):
        q = random_form(size - 1, size, seed=size)
        for k in range(2, size + 1):
            compound(q, k)
            # a Vandermonde basis has full column rank
            chow_eval(q, k, [[(i + 1) ** j for j in range(k)] for i in range(size)])
    assert calls and min(calls) == 3


def test_int_entry_basis():
    q = random_form(3, 4, seed=8)
    for k, b in ((1, [[1], [2], [0], [-1]]), (2, [[1, 0], [2, 1], [0, 3], [-1, 0]])):
        rational = [[Fraction(x) for x in row] for row in b]
        assert plucker(b) == plucker(rational)
        assert chow_eval(q, k, b) == chow_eval(q, k, rational) == ff_det(restrict(q, b).rows)
        assert restrict(q, b) == restrict(q, rational)


def test_non_rational_form_rejected():
    # a form holds ints and Fractions only, so the kernels that take one do
    # not check its entries: SymmetricForm refuses any other entry, also a
    # symmetric one, before it tests symmetry
    q = random_form(2, 3, seed=4)
    for bad in (0.5, 1j, "1", None, True):
        for rows in ([[bad]], [[1, bad, 0], [bad, 1, 0], [0, 0, 1]], [[1, bad], [0, 1]]):
            with pytest.raises(TypeError):
                SymmetricForm(rows)
        # a raw basis is still checked where it enters the kernel
        basis = [[1, 0], [0, bad], [0, 0]]
        for kernel in (plucker, lambda b: restrict(q, b), lambda b: chow_eval(q, 2, b)):
            with pytest.raises(TypeError):
                kernel(basis)
    # int entries are rational: such a form equals, and hashes like, its
    # Fraction twin
    ints = [[2, -1, 0], [-1, 3, 4], [0, 4, 0]]
    twin = SymmetricForm([[Fraction(x) for x in row] for row in ints])
    assert SymmetricForm(ints) == twin and hash(SymmetricForm(ints)) == hash(twin)


def test_limit_support_needs_a_square_length():
    for m2 in (2, 3, 5, 8, 15, 17):
        with pytest.raises(ValueError, match="flattened square matrix"):
            limit_support_coefficients(ProjectivePoint([1] * m2))


def test_chow_eval_does_not_use_the_restriction(monkeypatch):
    # Cauchy-Binet would let the left side be computed as det(B^T Q B),
    # which would make the chow-form-identity check a tautology
    def refuse(*args, **kwargs):
        raise AssertionError("chow_eval must not form B^T Q B")

    monkeypatch.setattr(quadrics, "restrict", refuse)
    monkeypatch.setattr(exact, "mat_mul", refuse)
    F = Fraction
    q = SymmetricForm([[F(1, 2), F(-1, 3), F(0), F(2)],
                       [F(-1, 3), F(5, 4), F(1, 6), F(0)],
                       [F(0), F(1, 6), F(-2), F(3, 5)],
                       [F(2), F(0), F(3, 5), F(7, 9)]])
    b2 = [[F(1), F(0)], [F(1, 2), F(2, 3)], [F(-3), F(1)], [F(0), F(5, 7)]]
    b3 = [[F(1), F(0), F(2)], [F(1, 2), F(2, 3), F(0)], [F(-3), F(1), F(1, 4)],
          [F(0), F(5, 7), F(-1)]]
    assert chow_eval(q, 2, b2) == F(-1194743, 31752)
    assert chow_eval(q, 3, b3) == F(28381374319, 114307200)


def test_plucker_coordinates_lex():
    b = [[1, 0], [0, 1], [0, 0], [0, 0]]
    p = plucker(b)
    assert isinstance(p, PluckerVector)
    assert p.coords == (1, 0, 0, 0, 0, 0)
    assert p.n == 3 and p.k == 2
    with pytest.raises(ValueError):
        plucker([[1, 2], [2, 4], [0, 0]])


def test_is_tangent_contained_plane():
    # a plane inside the quadric is tangent: the restriction vanishes
    q = SymmetricForm.diagonal([1, -1, 0, 0])
    b = [[0, 0], [0, 0], [1, 0], [0, 1]]
    assert chow_eval(q, 2, b) == 0


def test_is_tangent_conic_line():
    q = SymmetricForm.diagonal([1, 1, -1])
    tangent_at_p = [[1, 0], [0, 1], [0, 1]]
    secant = [[1, 0], [0, 1], [0, 0]]
    assert chow_eval(q, 2, tangent_at_p) == 0
    assert chow_eval(q, 2, secant) != 0
    with pytest.raises(ValueError):
        chow_eval(q, 1, tangent_at_p)


def scaled(q, lam):
    return SymmetricForm([[lam * x for x in row] for row in q.rows])


def test_minors_proportional_scaling():
    # every k x k minor of lam * Q is lam^k times the minor of Q
    a = random_form(3, 4, seed=31)
    for lam in (Fraction(3), Fraction(-1), Fraction(-2, 5)):
        for k in (2, 3):
            big, small = compound(scaled(a, lam), k).rows, compound(a, k).rows
            for row_b, row_s in zip(big, small):
                for x, y in zip(row_b, row_s):
                    assert x == lam ** k * y


def test_minors_proportional_none():
    # diag(1,1,1,1) and diag(1,1,1,2) differ by no scale, nor do their minors
    c_eye = compound(SymmetricForm.diagonal([1, 1, 1, 1]), 3).rows
    c_other = compound(SymmetricForm.diagonal([1, 1, 1, 2]), 3).rows
    assert c_eye[0][0] * c_other[3][3] != c_eye[3][3] * c_other[0][0]
    # rank below k: every 2 x 2 minor vanishes, at every scale
    for q in (SymmetricForm.diagonal([1, 0, 0, 0]), SymmetricForm.diagonal([0, 0, 0, 5])):
        for lam in (Fraction(1), Fraction(-1), Fraction(7)):
            assert all(x == 0 for row in compound(scaled(q, lam), 2).rows for x in row)


def test_projective_point_normalization():
    p = ProjectivePoint([Fraction(2, 3), Fraction(-4, 3)])
    assert p.coords == (1, -2)
    assert all(type(c) is int for c in p.coords)
    assert ProjectivePoint([-2, 4]) == p
    with pytest.raises(ValueError):
        ProjectivePoint([0, 0])


def rank2_family(a, b, c):
    q0 = SymmetricForm.from_rational(
        [[0, "1/2", 0, 0], ["1/2", 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    )
    q1 = SymmetricForm(
        [
            [Fraction(0)] * 4,
            [Fraction(0)] * 4,
            [Fraction(0), Fraction(0), Fraction(a), Fraction(b, 2)],
            [Fraction(0), Fraction(0), Fraction(b, 2), Fraction(c)],
        ]
    )
    return q0, q1


def rank1_family(a, b, c, d, e, f):
    q0 = SymmetricForm.diagonal([1, 0, 0, 0])
    half = Fraction(1, 2)
    q1 = SymmetricForm(
        [
            [Fraction(0)] * 4,
            [Fraction(0), Fraction(a), b * half, c * half],
            [Fraction(0), b * half, Fraction(d), e * half],
            [Fraction(0), c * half, e * half, Fraction(f)],
        ]
    )
    return q0, q1


def proportional_support(got: dict, expected: dict) -> bool:
    if set(got) != set(expected):
        return False
    items = sorted(expected)
    k0 = items[0]
    return all(got[k] * expected[k0] == got[k0] * expected[k] for k in items)


@pytest.mark.parametrize("abc", [(1, 0, 0), (2, 3, 5), (-1, 7, 2), (0, 1, 0)])
def test_chow_limit_rank2_family(abc):
    # a plane pair degenerating from smooth quadrics: the limit Chow form in
    # line coordinates is the double of the singular line, supported on p0^2
    q0, q1 = rank2_family(*abc)
    pt = chow_limit(q0, q1, 2)
    assert limit_support_coefficients(pt) == {(0, 0): 1}


@pytest.mark.parametrize(
    "coeffs",
    [(1, 2, 3, 4, 5, 6), (1, 0, 0, 1, 0, 1), (2, -1, 0, 3, 0, -5), (0, 1, 1, 0, 1, 0)],
)
def test_chow_limit_rank1_family(coeffs):
    # double plane with marking conic a y^2 + b yz + c yw + d z^2 + e zw + f w^2:
    # the limit is that conic rewritten in the line coordinates p0, p1, p2
    a, b, c, d, e, f = coeffs
    q0, q1 = rank1_family(*coeffs)
    pt = chow_limit(q0, q1, 2)
    expected = {
        k: v
        for k, v in {
            (0, 0): Fraction(a),
            (0, 1): Fraction(b),
            (0, 2): Fraction(c),
            (1, 1): Fraction(d),
            (1, 2): Fraction(e),
            (2, 2): Fraction(f),
        }.items()
        if v
    }
    assert proportional_support(limit_support_coefficients(pt), expected)


def test_chow_limit_identically_singular():
    q0 = SymmetricForm.diagonal([1, 0, 0, 0])
    with pytest.raises(ValueError, match="identically vanishing"):
        chow_limit(q0, q0, 2)


def family_coeffs(q0, q1):
    # [A, B]: both forms scaled to integers by one lcm, as chow_limit takes them
    ints, _ = exact.clear_denominators(q0.rows + q1.rows)
    return [ints[:q0.n + 1], ints[q0.n + 1:]]


@pytest.mark.parametrize("family, args, order", [
    (rank2_family, (2, 3, 5), 0),  # q0 = x0 x1 has a nonzero 2 x 2 minor
    (rank1_family, (1, 2, 3, 4, 5, 6), 1),  # q0 = x0^2 has none
])
def test_family_limit_order(family, args, order):
    coeffs = family_coeffs(*family(*args))
    got, rows = chowform._family_limit(coeffs, 2, 2)
    assert got == order
    expected = [[e[order] for e in row] for row in chowform._compound_poly(coeffs, 2, 2)]
    assert rows == expected and any(map(any, rows))
    assert ProjectivePoint([e for row in rows for e in row]) == chow_limit(*family(*args), 2)


@pytest.mark.parametrize("n", [1, 3])
def test_chow_limit_k_out_of_range(n):
    q0, q1 = random_form(n, n + 1, seed=n), random_form(n, 1, seed=n + 10)
    for k in (-2, 0, n + 2):
        with pytest.raises(ValueError, match="k out of range"):
            chow_limit(q0, q1, k)


def per_minor_chow_limit(q0, q1, k):
    # oracle: every minor of q0 + t q1, both halves, by cofactor expansion
    # over polynomials in t; the common power of t divided out, then t = 0
    pencil = univariate.pencil(q0.rows, q1.rows)
    subsets = list(itertools.combinations(range(q0.n + 1), k))
    minors = [univariate.det([[pencil[i][j] for j in u] for i in s])
              for s in subsets for u in subsets]
    if not any(minors):
        raise ValueError("identically vanishing")
    shift = min(next(d for d, c in enumerate(e) if c) for e in minors if e)
    coords = [e[shift] if len(e) > shift else 0 for e in minors]
    return ProjectivePoint(coords), shift


def random_rational_form(rng, n, rank):
    # M^T D M with rational M and rank-many nonzero rational weights in D
    size = n + 1
    m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(size)] for _ in range(rank)]
    d = [Fraction(rng.choice([1, -2, 3, 5]), rng.randint(1, 3)) for _ in range(rank)]
    return SymmetricForm(
        [[sum(d[r] * m[r][i] * m[r][j] for r in range(rank)) for j in range(size)] for i in range(size)]
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chow_limit_matches_per_minor_oracle(n):
    rng = random.Random(70 + n)
    shifted = vanishing = 0
    for rank in range(1, n + 2):
        q0 = random_rational_form(rng, n, rank)
        # a generic q1; q1 = c q0 + w w^T, whose minors past rank + 1 vanish;
        # and q1 = c q0, whose minors past the rank vanish
        w = random_rational_form(rng, n, 1)
        scaled = [[Fraction(-2, 3) * x for x in row] for row in q0.rows]
        for q1 in (
            random_rational_form(rng, n, n + 1),
            SymmetricForm([[x + y for x, y in zip(r0, r1)] for r0, r1 in zip(scaled, w.rows)]),
            SymmetricForm(scaled),
        ):
            for k in range(1, n + 2):
                try:
                    expected, shift = per_minor_chow_limit(q0, q1, k)
                except ValueError:
                    vanishing += 1
                    with pytest.raises(ValueError, match="identically vanishing"):
                        chow_limit(q0, q1, k)
                    continue
                shifted += shift > 0
                assert chow_limit(q0, q1, k) == expected
    assert shifted and vanishing


# v = (1, t2, 0, t1*t2, 0, 0) as exponent tuples in (t1, t2, t3), None for 0
WEDGE2_V = [(0, 0, 0), (0, 1, 0), None, (1, 1, 0), None, None]


def test_wedge2_example_matrix_outer_product():
    m = wedge2_example_matrix()
    for i, vi in enumerate(WEDGE2_V):
        for j, vj in enumerate(WEDGE2_V):
            expected = {} if None in (vi, vj) else {tuple(a + b for a, b in zip(vi, vj)): 1}
            assert m[i][j] == expected
    # spot entries, 1-indexed positions (1,2), (1,4), (2,4)
    assert m[0][1] == {(0, 1, 0): 1}
    assert m[0][3] == {(1, 1, 0): 1}
    assert m[1][3] == {(1, 2, 0): 1}
    # rank-one consistency forces (2,2) = t2^2 (the square of (1,2) over (1,1))
    assert m[1][1] == {(0, 2, 0): 1}
    assert m[1][1] != {(0, 0, 0): 1}


def grid_poly(values: dict) -> dict:
    # oracle: {exponent tuple: coefficient} of the integer polynomial of
    # degree <= 2 in each variable that takes values[t] at every t in
    # {0, 1, 2}^3, interpolated one axis at a time
    for axis in range(3):
        # the slot of each key on this axis turns from a grid value of the
        # variable into its exponent
        lines = {}
        for t, v in values.items():
            lines.setdefault(t[:axis] + t[axis + 1:], [0, 0, 0])[t[axis]] = v
        values = {rest[:axis] + (e,) + rest[axis:]: c
                  for rest, line in lines.items() for e, c in enumerate(exact._interpolate(line))}
    return {e: c for e, c in values.items() if c}


def test_wedge2_example_matrix_matches_grid_oracle(monkeypatch):
    # one direct limit, read by Kronecker substitution, against the limits at
    # the 27 points of {0, 1, 2}^3 interpolated in each flag parameter
    grid = {t: chowform._flag_limit(3, 2, t) for t in itertools.product(range(3), repeat=3)}
    expected = [[grid_poly({t: m[r][c] for t, m in grid.items()}) for c in range(6)] for r in range(6)]
    real, read = chowform._flag_limit, exact._kronecker
    calls, bounds = [], []
    monkeypatch.setattr(chowform, "_flag_limit", lambda n, k, ts: calls.append((n, k)) or real(n, k, ts))
    monkeypatch.setattr(chowform, "_kronecker", lambda f, deg, bound: (
        deg == 26 and bounds.append(bound)) or read(f, deg, bound))
    assert wedge2_example_matrix() == expected
    assert calls == [(3, 2)]
    # the bound is the one _compound_poly takes for the flag family at t = (1, 1, 1)
    assert bounds == [minor_bound(flag_coeffs(3, (1, 1, 1)), 2)]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_flag_wedge_constant_iff_j_differs(n):
    for k in range(1, n + 1):
        for j in range(1, n + 1):
            assert flag_wedge(n, k, j) is (j != k), (n, k, j)


def outer(v):
    return [[x * y for y in v] for x in v]


def test_flag_wedge_surviving_parameter():
    # along t2 the second wedge limit on P^3 moves: v = (1, t2, 0, 0, 0, 0);
    # along t1 it stays v = (1, 0, 0, 0, 0, 0)
    assert flag_wedge(3, 2, 2) is False
    for t in range(4):
        v = chowform._flag_plucker(3, 2, (0, t, 0))
        assert v == [1, t, 0, 0, 0, 0]
        limit = chowform._flag_limit(3, 2, (0, t, 0))
        assert limit == outer(v)
        assert limit[0][1] == t and limit[1][1] == t * t
    assert flag_wedge(3, 2, 1) is True
    for t in range(4):
        assert chowform._flag_plucker(3, 2, (t, 0, 0)) == [1, 0, 0, 0, 0, 0]
        assert chowform._flag_limit(3, 2, (t, 0, 0)) == outer([1, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        flag_wedge(3, 2, 5)


def test_flag_limit_matches_plucker_outer_product():
    # the direct limit is v v^T at generic integer parameters, and the
    # Pluecker vector is normalized: v_{0..k-1} = 1
    rng = random.Random(31)
    for n in range(1, 5):
        for k in range(1, n + 1):
            ts = [rng.randint(-4, 4) for _ in range(n)]
            v = chowform._flag_plucker(n, k, ts)
            assert v[0] == 1
            assert chowform._flag_limit(n, k, ts) == outer(v)


@pytest.mark.parametrize("shift", [-1, 1])
def test_flag_limit_neighbouring_coefficients_fail(monkeypatch, shift):
    # a limit read from x^(k(k-1)/2 - 1) or x^(k(k-1)/2 + 1) instead: at
    # every (n, k) either the lowest term is not x^(k(k-1)/2) or the matrix
    # is not v v^T; every coefficient moved up raises (tests/test_verify.py
    # runs the check on both mutants)
    real = exact._kronecker

    def shifted(values_at, deg, bound):
        return [[0] + c[:-1] if shift < 0 else c[1:] + [0] for c in real(values_at, deg, bound)]

    monkeypatch.setattr(chowform, "_kronecker", shifted)
    for n in range(2, 5):
        ts = range(2, n + 2)
        for k in range(1, n + 1):
            try:
                limit = chowform._flag_limit(n, k, ts)
            except AssertionError:
                continue
            assert shift > 0 and limit != outer(chowform._flag_plucker(n, k, ts)), (n, k)


def test_wedge_check_takes_the_direct_compound(monkeypatch):
    # Cauchy-Binet would give the limit as v v^T outright, which would make
    # the rank-one comparison a tautology: the limit side must come from the
    # integer minors of M^T D M, and the Pluecker side must not
    def refuse(*args, **kwargs):
        raise AssertionError("direct compound taken")

    monkeypatch.setattr(chowform, "_int_minors", refuse)
    res = verify.check_wedge_contraction(max_n=2)
    assert not res.passed and res.details == "n=2 k=1 direct compound taken"
    assert [flag_wedge(3, 2, j) for j in (1, 2, 3)] == [True, False, True]
    assert chowform._flag_plucker(3, 2, (1, 2, 3)) == [1, 2, 0, 2, 0, 0]


# -- the compound of a matrix polynomial --------------------------------------


def per_point_compound(coeffs, deg, k):
    # oracle: the integer compound at x = 0..deg, each entry interpolated
    def at(x):
        return [[sum(c[i][j] * x ** d for d, c in enumerate(coeffs)) for j in range(len(coeffs[0]))]
                for i in range(len(coeffs[0]))]

    tables = [quadrics._int_minors(at(x), k) for x in range(deg + 1)]
    size = len(tables[0])
    return [[exact._interpolate([t[a][b] for t in tables]) for b in range(size)] for a in range(size)]


def minor_bound(coeffs, k):
    # the product of the k largest row sums of S, S_ij = sum_d |C_d[i][j]|
    sums = sorted(sum(abs(c[i][j]) for c in coeffs for j in range(len(c))) for i in range(len(coeffs[0])))
    bound = 1
    for s in sums[-k:]:
        bound *= s
    return bound


def random_symmetric(rng, size, top):
    m = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            m[i][j] = m[j][i] = rng.randint(-top, top)
    return m


def diag(*entries):
    return [[x if i == j else 0 for j in range(len(entries))] for i, x in enumerate(entries)]


def flag_coeffs(n, ts):
    return [[[x * y for y in row] for x in row] for row in chowform._flag_matrix(n, ts)]


E = 1 << 40
# (coefficient matrices C_0..C_d, degree of the k-minors, k)
COMPOUND_CASES = {
    "pencil_k1": ([[[2, -1], [-1, 3]], [[0, 4], [4, -5]]], 1, 1),
    "pencil_k2": ([[[2, -1], [-1, 3]], [[0, 4], [4, -5]]], 2, 2),
    "pencil_mid": ([[[1, 2, 0], [2, -3, 1], [0, 1, 4]], [[-2, 0, 1], [0, 1, 1], [1, 1, 0]]], 2, 2),
    "zero_b": ([[[3, 1, 0], [1, 2, 1], [0, 1, -1]], [[0] * 3] * 3], 3, 3),
    "zero_a": ([[[0] * 3] * 3, [[3, 1, 0], [1, 2, 1], [0, 1, -1]]], 3, 3),
    "zero_middle": ([diag(1, -2, 3), [[0] * 3] * 3, [[0, 1, 1], [1, 0, 1], [1, 1, 0]]], 6, 2),
    # a coefficient equal to the bound H, of either sign: a digit that
    # K = bitlen(H) would misread as H - 2^K or 2^K - H
    "near_bound_high": ([diag(E, E, E), diag(0, 0, 0)], 3, 3),
    "near_bound_low": ([diag(0, 0, 0), diag(-E, E, E)], 3, 3),
    "near_bound_k1": ([[[E]], [[0]]], 1, 1),
    "near_bound_k1_low": ([[[0]], [[-E]]], 1, 1),
    "near_bound_k2": ([diag(E, -E), diag(0, 0)], 2, 2),
    "mixed_signs": ([diag(E, -E), diag(E - 1, 1 - E)], 2, 2),
    "flag_k1": (flag_coeffs(3, (2, -3, 4)), 3, 1),
    "flag_k2": (flag_coeffs(3, (2, -3, 4)), 5, 2),
    "flag_full": (flag_coeffs(3, (-5, 7, -1)), 6, 4),
}


@pytest.mark.parametrize("name", sorted(COMPOUND_CASES))
def test_compound_poly_matches_per_point_oracle(monkeypatch, name):
    coeffs, deg, k = COMPOUND_CASES[name]
    calls = []
    real = quadrics._int_minors
    monkeypatch.setattr(chowform, "_int_minors", lambda m, j: calls.append(j) or real(m, j))
    rows = chowform._compound_poly(coeffs, deg, k)
    assert rows == per_point_compound(coeffs, deg, k)
    assert calls == [k]
    if name.startswith("near_bound"):
        assert max(abs(c) for row in rows for e in row for c in e) == minor_bound(coeffs, k)
    assert all(len(e) == deg + 1 and all(type(c) is int for c in e) for row in rows for e in row)


@pytest.mark.parametrize("seed", range(6))
def test_compound_poly_random_pencils_and_flags(seed):
    rng = random.Random(4100 + seed)
    size = rng.randint(1, 5)
    top = rng.choice([1, 9, 1 << 20])
    pencil = [random_symmetric(rng, size, top) for _ in range(2)]
    for k in range(1, size + 1):
        assert chowform._compound_poly(pencil, k, k) == per_point_compound(pencil, k, k)
    n = size - 1 or 1
    flags = flag_coeffs(n, [rng.randint(-top, top) for _ in range(n)])
    for k in range(1, n + 2):
        deg = sum(range(n - k + 1, n + 1))
        assert chowform._compound_poly(flags, deg, k) == per_point_compound(flags, deg, k)


def _packed(coeffs, deg, k):
    return deg * (minor_bound(coeffs, k).bit_length() + 1)


@pytest.mark.parametrize("size, k", [(2, 1), (2, 2), (3, 2), (4, 3), (5, 5)])
def test_compound_poly_one_compound_under_the_bit_limit(monkeypatch, size, k):
    # the largest entry size whose pencil still packs into one compound at
    # x = 2^K, then the next, which takes one at each x = 0..k
    def pencil(bits):
        return [diag(*[(1 << bits) - 1] * size), random_symmetric(random.Random(bits), size, (1 << bits) - 1)]

    bits = 1
    while _packed(pencil(bits + 1), k, k) <= exact._KRONECKER_BITS:
        bits += 1
    real = quadrics._int_minors
    for entry_bits, points in ((bits, 1), (bits + 1, k + 1)):
        coeffs = pencil(entry_bits)
        assert (_packed(coeffs, k, k) <= exact._KRONECKER_BITS) == (points == 1)
        calls = []
        monkeypatch.setattr(chowform, "_int_minors", lambda m, j: calls.append(j) or real(m, j))
        assert chowform._compound_poly(coeffs, k, k) == per_point_compound(coeffs, k, k)
        assert calls == [k] * points


def test_limits_take_one_compound(monkeypatch):
    real = quadrics._int_minors
    calls = []
    monkeypatch.setattr(chowform, "_int_minors", lambda m, j: calls.append(j) or real(m, j))
    chow_limit(SymmetricForm([[1, 2], [2, 0]]), SymmetricForm([[0, 1], [1, 3]]), 2)
    assert calls == [2]
    calls.clear()
    chowform._flag_limit(4, 3, (2, 3, 4, 5))
    assert calls == [3]
    # past the bit limit: k + 1 compounds for the pencil, deg + 1 for the flag
    calls.clear()
    big = 1 << 2000
    chow_limit(SymmetricForm([[big, 1], [1, 0]]), SymmetricForm([[0, big], [big, 3]]), 2)
    assert calls == [2] * 3
    calls.clear()
    ts = (1 << 300, 3, -(1 << 300), 5)
    limit = chowform._flag_limit(4, 3, ts)
    assert calls == [3] * (4 + 3 + 2 + 1)
    assert limit == outer(chowform._flag_plucker(4, 3, ts))


def test_compound_poly_refuses_digits_past_the_bound(monkeypatch):
    # a minor past the coefficient bound leaves digits above the deg + 1
    # read off, and is refused rather than truncated
    monkeypatch.setattr(chowform, "_int_minors", lambda m, j: [[1 << 4000] * len(m)] * len(m))
    with pytest.raises(exact.ExactLinalgError, match="bound"):
        chowform._compound_poly([[[1, 0], [0, 1]], [[0, 1], [1, 0]]], 1, 1)
