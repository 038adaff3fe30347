"""Pencil degeneration counts, with the lattice pairings as cross-check."""

import hashlib
import math
import random
from fractions import Fraction
from unittest import mock

import pytest

from completequadrics import exact, pencils, picard, quadrics
from completequadrics.exact import mat_mul, mat_rank
from completequadrics.pencils import (
    DIRECT_CHECK_PAIRS,
    DegeneratePencilError,
    DegenerationCount,
    Pencil,
    _det_binary,
    _sym_outer,
    bk_number,
    count_degenerations,
    count_tangencies,
    direct_table_counts,
    pencil_det_form,
    random_pencil,
)
from completequadrics.quadrics import SymmetricForm, random_form, restrict
import univariate


def diag(*entries):
    size = len(entries)
    return SymmetricForm(
        [[Fraction(entries[i]) if i == j else Fraction(0) for j in range(size)] for i in range(size)]
    )


I4 = diag(1, 1, 1, 1)


class TestDetForm:
    def test_diagonal_pencil_matches_product_of_linear_factors(self):
        # det(s I + t diag(1,2,3,4)) = (s+t)(s+2t)(s+3t)(s+4t); expanding the
        # product of linear polynomials is the independent route
        form = pencil_det_form(Pencil(I4, diag(1, 2, 3, 4)))
        prod = univariate.mul(*[univariate.poly(1, k) for k in (1, 2, 3, 4)])
        assert form.coeffs == tuple(prod)
        assert form.coeffs == (1, 10, 35, 50, 24)
        assert len(form.coeffs) - 1 == 4

    def test_identically_singular_pencil_rejected(self):
        q0 = diag(1, 0, 0)
        q1 = diag(0, 1, 0)
        with pytest.raises(DegeneratePencilError):
            pencil_det_form(Pencil(q0, q1))

    def test_binary_form_json(self):
        form = pencil_det_form(Pencil(diag(1, 1), SymmetricForm([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])))
        assert [str(c) for c in form.coeffs] == ["1", "0", "-1"]


def cofactor_det_form(p):
    # oracle: cofactor expansion over polynomials in t, no elimination and
    # no interpolation; both forms are scaled to integers by the lcm L of
    # their denominators first, which scales the determinant by L^(m+1)
    scale = math.lcm(*[x.denominator for q in (p.q0, p.q1) for r in q.rows for x in r])
    a, b = ([[int(x * scale) for x in r] for r in q.rows] for q in (p.q0, p.q1))
    det = univariate.det(univariate.pencil(a, b))
    return tuple(Fraction(c, scale ** (p.q0.n + 1)) for c in univariate.padded(det, p.q0.n + 2))


class TestDetFormOracle:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_random_pencils_match_poly1_bareiss(self, m):
        for seed in range(20):
            p = random_pencil(m, seed)
            form = pencil_det_form(p)
            assert form.coeffs == cofactor_det_form(p)
            assert all(isinstance(c, Fraction) for c in form.coeffs)

    def test_half_integer_pencils_match_poly1_bareiss(self):
        # restrictions to subspaces and pencils built from _sym_outer carry
        # denominators, so the common denominator of the integer path is > 1
        rng = random.Random(11)
        half = Fraction(1, 2)
        checked = 0
        for _ in range(40):
            size = rng.randint(2, 5)
            p = random_pencil(size - 1, rng.randrange(1 << 30))
            basis = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(size - 1)]
                     for _ in range(size)]
            if mat_rank(basis) < size - 1:
                continue
            scaled = Pencil(SymmetricForm([[x * half for x in r] for r in p.q0.rows]), p.q1)
            assert pencil_det_form(scaled).coeffs == cofactor_det_form(scaled)
            checked += 1
            try:
                restricted = Pencil(restrict(p.q0, basis), restrict(p.q1, basis))
            except DegeneratePencilError:
                continue
            assert pencil_det_form(restricted).coeffs == cofactor_det_form(restricted)
            checked += 1
        for _ in range(20):
            u, v0, v1 = ([rng.randint(-3, 3) for _ in range(2)] for _ in range(3))
            try:
                pencil = Pencil(_sym_outer(u, v0), _sym_outer(u, v1))
            except DegeneratePencilError:
                continue
            assert pencil.q0.den in (1, 2)
            expected = cofactor_det_form(pencil)
            if any(expected):
                assert pencil_det_form(pencil).coeffs == expected
                checked += 1
            else:
                with pytest.raises(DegeneratePencilError):
                    pencil_det_form(pencil)
        assert checked > 60

    def test_members_with_different_dens_match_the_cofactor_oracle(self):
        # the kept coefficients are det(q0.ints + t q1.ints) with no common
        # rescale, so c_j is d0^(size-j) d1^j times the t^j coefficient of
        # det(Q0 + tQ1): the form divides that back out, and the roots only
        # scale by d0/d1 > 0, so the count is the oracle form's

        # a double root at t = -1/2 and a root at infinity, with dens 2 and 1
        double = Pencil(diag(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)), diag(1, 1, 0))
        assert count_degenerations(double) == DegenerationCount(total=3, distinct=2)
        # random pencils on P^1..P^6 with one member divided by 2, 3 or 5,
        # or each by its own den
        pool = [double]
        for m in range(1, 7):
            for seed in range(4):
                p = random_pencil(m, seed)
                pool += [Pencil(SymmetricForm._unchecked(p.q0.ints, d0), SymmetricForm._unchecked(p.q1.ints, d1))
                         for d0, d1 in ((2, 1), (1, 3), (5, 1), (2, 3))]
        assert sum(p.q0.den != p.q1.den for p in pool) > 80
        for p in pool:
            size = p.q0.n + 1
            assert p._det_ints == univariate.padded(univariate.det(univariate.pencil(p.q0.ints, p.q1.ints)), size + 1)
            form = cofactor_det_form(p)
            assert pencil_det_form(p).coeffs == form
            _, finite = exact.distinct_root_count(list(form))
            assert count_degenerations(p) == DegenerationCount(total=size, distinct=finite + (form[-1] == 0))

    def test_identically_singular_half_integer_pencil_rejected(self):
        # u*v0 and u*v1 on P^2 have rank <= 2, so every member is singular
        u = [1, 2, -1]
        p = Pencil(_sym_outer(u, [3, 0, 1]), _sym_outer(u, [0, 1, 1]))
        assert not any(cofactor_det_form(p))
        with pytest.raises(DegeneratePencilError):
            pencil_det_form(p)
        # a raise is not cached: the second call eliminates and raises again
        with mock.patch.object(pencils, "int_det_poly", wraps=pencils.int_det_poly) as spy:
            with pytest.raises(DegeneratePencilError):
                pencil_det_form(p)
        assert spy.call_count == 1


def test_ladder_pencil_outputs_pinned():
    # the pencils on P^4..P^16 of seeds 0..15, the pool of the benchmark's
    # pencil-ladder workload: determinant forms and degeneration counts,
    # recorded before the symmetric elimination and the squarefree
    # certificate replaced the general paths
    lines = []
    for m in range(4, 17):
        for seed in range(16):
            p = random_pencil(m, seed)
            c = count_degenerations(p)
            lines.append(repr((m, seed, [str(x) for x in pencil_det_form(p).coeffs], c.total, c.distinct)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "ca035469265334d94eb3ad7cb80a5b169a6538a1da2681892d6b65f946ff6982"


def first_m_invertible(m, form_seed):
    # oracle: the first M that random_form(m, m + 1, form_seed) draws,
    # through choice and randint, tested by rank
    rng = random.Random(form_seed)
    for _ in range(m + 1):
        rng.choice([1, 2, 3, -1, -2, 5])
    first = [[Fraction(rng.randint(-3, 3)) for _ in range(m + 1)] for _ in range(m + 1)]
    return mat_rank(first) == m + 1


def candidate_rejected(m, seed):
    # the first draw of random_pencil(m, seed) has a form whose first M is
    # singular, so its candidate pencil is rebuilt through random_form
    rng = random.Random(seed)
    seeds = rng.randrange(1 << 30), rng.randrange(1 << 30)
    return not all(first_m_invertible(m, s) for s in seeds)


def candidate_raises(m, seed):
    # the candidate pencil of the first draw of random_pencil(m, seed), from
    # the two first Ms with no test, is degenerate or has no determinant form
    seeds = pencils._pencil_seeds(random.Random(seed))
    try:
        pencil_det_form(Pencil(*(quadrics._first_smooth_form(m, s) for s in seeds)))
    except DegeneratePencilError:
        return True
    return False


def rank_checked_pencil(r, m):
    # oracle: the pencil of the two seeds _certified_pencil draws, each form
    # built by random_form, which tests each M by an elimination
    s0, s1 = pencils._pencil_seeds(r)
    return Pencil(random_form(m, m + 1, s0), random_form(m, m + 1, s1))


def draw_outcome(draw, rng, m):
    # the forms and determinant form of one pencil draw, or what it raised
    try:
        p = draw(rng, m)
    except DegeneratePencilError as exc:
        return DegeneratePencilError, str(exc)
    return p.q0.rows, p.q1.rows, pencil_det_form(p)


class TestCertifiedDraw:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_rank_checked_draw(self, m):
        # same forms, same determinant form, or the same raise, and the same
        # generator state as the draw that tests each M by an elimination.
        # random_form runs once for each member whose first M is singular,
        # and twice when the candidate raised; a candidate that raises with
        # both Ms invertible is rebuilt and raises again.
        # random_pencil(1, 5), (2, 4), (3, 11) and (4, 20) are rebuilt draws.
        rebuilt = set()
        for seed in range(200):
            r, ref = random.Random(seed), random.Random(seed)
            with mock.patch.object(pencils, "random_form", wraps=pencils.random_form) as spy:
                got = draw_outcome(pencils._certified_pencil, r, m)
            assert got == draw_outcome(rank_checked_pencil, ref, m), seed
            assert r.getstate() == ref.getstate()
            seeds = pencils._pencil_seeds(random.Random(seed))
            singular = sum(not first_m_invertible(m, s) for s in seeds)
            assert spy.call_count == (2 if candidate_raises(m, seed) else singular), seed
            if singular:
                rebuilt.add(seed)
        assert rebuilt >= {1: {5}, 2: {4}, 3: {11}, 4: {20}}.get(m, set())

    @pytest.mark.parametrize("m, seed", [(1, 5), (1, 11), (2, 4), (3, 11), (4, 20)])
    def test_one_singular_member_rebuilds_that_member_only(self, m, seed):
        # exactly one first M is singular (the oracle names which), so the
        # member drawn from the other is kept and one random_form call
        # rebuilds this one, from its own seed
        seeds = pencils._pencil_seeds(random.Random(seed))
        singular = [not first_m_invertible(m, s) for s in seeds]
        assert sum(singular) == 1
        with mock.patch.object(pencils, "random_form", wraps=pencils.random_form) as spy:
            p = pencils._certified_pencil(random.Random(seed), m)
        spy.assert_called_once_with(m, m + 1, seeds[singular.index(True)])
        assert p == rank_checked_pencil(random.Random(seed), m)


class TestDetFormKept:
    def test_bk_number_takes_one_form_per_draw(self):
        # the certificate of the draw and the degeneration count share one
        # elimination; a candidate with a singular first M costs one more
        cases = [(1, 0), (1, 5), (2, 4), (3, 0), (3, 5), (3, 11), (4, 20), (6, 0), (6, 5)]
        rejected = [candidate_rejected(m, seed) for m, seed in cases]
        assert any(rejected) and not all(rejected)
        for (m, seed), extra in zip(cases, rejected):
            with mock.patch.object(pencils, "int_det_poly", wraps=pencils.int_det_poly) as spy:
                assert bk_number(m + 1, 1, seed) == m + 1
            assert spy.call_count == 1 + extra, (m, seed)

    @pytest.mark.parametrize("n, eliminations", [(40, 41), (17, 1)])
    def test_pencil_eliminations_by_size(self, n, eliminations):
        # cq pencil --n 40 --k 1, the largest shape the CLI admits, packs
        # past exact._KRONECKER_BITS and takes one elimination per point;
        # the largest pencil of the benchmark's ladder (P^16) takes one
        calls = []
        sym_det = exact._sym_det
        with mock.patch.object(exact, "_sym_det", lambda u, *stage: calls.append(len(u)) or sym_det(u, *stage)):
            assert bk_number(n, 1, 0) == n
        assert calls == [n] * eliminations

    def test_kept_form_matches_fresh_elimination(self):
        for m in (1, 2, 5):
            for seed in (0, 3):
                p = random_pencil(m, seed)
                fresh = _det_binary(p.q0.ints, p.q1.ints)
                assert p._det_ints == fresh
                assert pencil_det_form(p).coeffs == tuple(Fraction(x) for x in fresh)

    def test_equality_and_hash_ignore_kept_form(self):
        p = random_pencil(3, 7)
        fresh = Pencil(p.q0, p.q1)
        assert p._det_ints
        assert "_det_ints" in vars(p) and "_det_ints" not in vars(fresh)
        assert p == fresh and hash(p) == hash(fresh)
        assert p._det_ints == fresh._det_ints

    def test_smooth_draw_needs_no_form_check(self):
        # the certified draw keeps the integer coefficients it was accepted
        # by, whose ends det Q0 and det Q1 are nonzero, and builds no
        # Fraction form; a rebuilt draw keeps no coefficients
        for m in range(1, 7):
            for seed in range(50):
                p = pencils._certified_pencil(random.Random(seed), m)
                assert ("_det_ints" in vars(p)) != candidate_rejected(m, seed), (m, seed)
                coeffs = pencil_det_form(p).coeffs
                assert coeffs[0] == exact.ff_det(p.q0.rows) != 0, (m, seed)
                assert coeffs[-1] == exact.ff_det(p.q1.rows) != 0, (m, seed)

    @pytest.mark.parametrize("m", range(1, 17))
    def test_degeneration_count_builds_no_fraction(self, m, monkeypatch):
        # the draw and the count read the kept integer coefficients; the
        # Fraction form is built only when asked for, on each call
        made = []
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        for seed in range(3):
            with monkeypatch.context() as patch:
                patch.setattr(Fraction, "__new__", counted)
                p = random_pencil(m, seed)
                c = count_degenerations(p)
            assert made == [], (m, seed)
            assert c.total == m + 1
            form = pencil_det_form(p)
            assert p.q0.den == p.q1.den == 1
            assert form.coeffs == tuple(map(Fraction, _det_binary(p.q0.ints, p.q1.ints)))
            assert all(type(x) is Fraction for x in form.coeffs)
            assert pencil_det_form(p) == form

    def test_pencil_stays_frozen(self):
        p = random_pencil(2, 1)
        with pytest.raises(AttributeError):
            p.q0 = p.q1


def fraction_random_form(n, r, seed):
    # oracle: the Fraction construction M^T D M through mat_mul, with the
    # same draws from the generator and invertibility tested by rank
    rng = random.Random(seed)
    size = n + 1
    d = [Fraction(rng.choice([1, 2, 3, -1, -2, 5])) if i < r else Fraction(0) for i in range(size)]
    while True:
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(size)] for _ in range(size)]
        if mat_rank(m) == size:
            break
    diag = [[d[i] if i == j else Fraction(0) for j in range(size)] for i in range(size)]
    return SymmetricForm(mat_mul([list(col) for col in zip(*m)], mat_mul(diag, m)))


@pytest.mark.parametrize(
    "n,r,seed",
    [(0, 1, 3), (1, 1, 0), (1, 2, 4), (2, 3, 9), (3, 2, 17), (3, 4, 123456789),
     (4, 5, 5), (5, 3, 2024), (6, 7, 1), (8, 9, 77)],
)
def test_random_form_matches_fraction_construction(n, r, seed):
    q = random_form(n, r, seed)
    assert q == fraction_random_form(n, r, seed)
    assert q.den == 1


def randint_rank2_pencil(rng, m):
    # oracle: the draws of pencils._rank2_product_pencil through randint,
    # retried on a degenerate pencil as that draw is
    size = m + 1

    def build(r):
        u = [r.randint(-3, 3) for _ in range(size)]
        v0 = [r.randint(-3, 3) for _ in range(size)]
        v1 = [r.randint(-3, 3) for _ in range(size)]
        return Pencil(_sym_outer(u, v0), _sym_outer(u, v1))

    return pencils._retry(build, rng)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_rank2_product_pencil_matches_randint_draws(m):
    for seed in range(100):
        rng, old = random.Random(seed), random.Random(seed)
        p = pencils._rank2_product_pencil(rng, m)
        ref = randint_rank2_pencil(old, m)
        assert p == ref
        assert all(type(x) is int for q in (p.q0, p.q1) for x in pencils._flat(q.ints))
        assert {p.q0.den, p.q1.den} <= {1, 2}
        assert rng.getstate() == old.getstate()


class TestPencilValidation:
    def test_proportional_members_rejected(self):
        with pytest.raises(DegeneratePencilError):
            Pencil(diag(1, 2), diag(2, 4))

    def test_proportional_integer_members_rejected(self):
        # int entries, which SymmetricForm accepts: 1/49 * 49 != 1 in floats
        q0 = SymmetricForm([[1, 7], [7, 5]])
        q1 = SymmetricForm([[49, 343], [343, 245]])
        with pytest.raises(DegeneratePencilError, match="proportional"):
            Pencil(q0, q1)

    def test_zero_member_rejected(self):
        with pytest.raises(DegeneratePencilError):
            Pencil(diag(0, 0), diag(1, 2))

    def test_mismatched_ambient_rejected(self):
        with pytest.raises(ValueError):
            Pencil(diag(1, 2), diag(1, 2, 3))


class TestCounts:
    def test_simple_pencil_all_distinct(self):
        c = count_degenerations(Pencil(I4, diag(1, 2, 3, 4)))
        assert (c.total, c.distinct) == (4, 4)

    def test_root_at_infinity_counted(self):
        # det = s (s+t)(s+2t)(s+3t): top t-coefficient vanishes, so the
        # member Q1 itself is singular and counts as the fourth root
        c = count_degenerations(Pencil(I4, diag(1, 2, 3, 0)))
        assert (c.total, c.distinct) == (4, 4)

    def test_multiple_root_detected(self):
        c = count_degenerations(Pencil(I4, diag(1, 1, 2, 3)))
        assert (c.total, c.distinct) == (4, 3)

    def test_random_pencil_total_is_ambient_plus_one(self):
        for m in (1, 2, 3, 4):
            for seed in (0, 1, 7):
                c = count_degenerations(random_pencil(m, seed))
                assert c.total == m + 1
                assert 1 <= c.distinct <= c.total


class TestTangencies:
    PENCIL = Pencil(I4, diag(1, 2, 3, 4))

    @staticmethod
    def coordinate_subspace(size, k):
        return [[Fraction(1) if j == i else Fraction(0) for j in range(k)] for i in range(size)]

    def test_point_counts_one_member(self):
        c = count_tangencies(self.PENCIL, self.coordinate_subspace(4, 1))
        assert (c.total, c.distinct) == (1, 1)

    def test_line_counts_two(self):
        c = count_tangencies(self.PENCIL, self.coordinate_subspace(4, 2))
        assert (c.total, c.distinct) == (2, 2)

    def test_plane_counts_three(self):
        c = count_tangencies(self.PENCIL, self.coordinate_subspace(4, 3))
        assert (c.total, c.distinct) == (3, 3)

    def test_zero_restriction_flagged(self):
        q0 = SymmetricForm(
            [[Fraction(0), Fraction(1), Fraction(0)],
             [Fraction(1), Fraction(0), Fraction(0)],
             [Fraction(0), Fraction(0), Fraction(1)]]
        )
        p = Pencil(q0, diag(1, 1, 1))
        with pytest.raises(DegeneratePencilError):
            count_tangencies(p, self.coordinate_subspace(3, 1))

    def test_constant_restriction_flagged(self):
        p = Pencil(diag(1, 1, 2), diag(2, 2, 3))
        with pytest.raises(DegeneratePencilError):
            count_tangencies(p, self.coordinate_subspace(3, 2))

    def test_rank_deficient_basis_rejected(self):
        bad = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)],
               [Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]
        with pytest.raises(ValueError):
            count_tangencies(self.PENCIL, bad)


def restricted_form_tangencies(p, basis):
    # oracle: count_tangencies as it restricted each member to a
    # SymmetricForm and counted the roots of the Fraction determinant form
    # of the restricted pencil, every step as it was before the pencil was
    # restricted in integers
    r0, r1 = restrict(p.q0, basis), restrict(p.q1, basis)
    f0 = [x for row in r0.rows for x in row]
    f1 = [x for row in r1.rows for x in row]
    if not any(f0) or not any(f1):
        raise DegeneratePencilError("a pencil member restricts to zero")
    if r0.n >= 1:
        i = next(j for j, v in enumerate(f1) if v)
        if all(x * f1[i] == f0[i] * y for x, y in zip(f0, f1)):
            raise DegeneratePencilError("restricted pencil is projectively constant")
    size = r0.n + 1
    ints, scale = exact.clear_denominators(r0.rows + r1.rows)
    coeffs = exact.int_det_poly(ints[:size], ints[size:])
    if not any(coeffs):
        raise DegeneratePencilError("every member of the pencil is singular")
    coeffs = [Fraction(x, scale ** size) for x in coeffs]
    _, finite = exact.distinct_root_count(coeffs)
    return DegenerationCount(total=size, distinct=finite + (coeffs[-1] == 0))


def outcome(count, p, basis):
    # the count, or the type and message of what the count raised
    try:
        return count(p, basis)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


class TestIntegerTangencies:
    def test_direct_table_draws_match_restricted_forms(self):
        # every pencil and subspace direct_table_counts counts tangencies on,
        # the raising draws that its families retry included; the families
        # hand the integer columns of their drawn subspaces straight to the
        # integer core, which must agree with the oracle on their rows
        raised = []
        core = pencils._tangencies

        def checked(p, cols):
            got = outcome(lambda p, _: core(p, cols), p, None)
            assert got == outcome(restricted_form_tangencies, p, [list(r) for r in zip(*cols)])
            raised.append(isinstance(got, tuple))
            return core(p, cols)

        with mock.patch.object(pencils, "_tangencies", checked):
            for seed in range(128):
                direct_table_counts(seed)
        # each seed counts 7 tangency entries; the surplus are retried draws
        assert raised.count(False) == 128 * 7 and any(raised)

    CASES = {
        # q0 restricts to zero on the point e2
        "zero member": (Pencil(diag(1, 1, 0), diag(0, 1, 1)), [[0], [0], [1]]),
        # diag(1, 1) and diag(2, 2) on the line e0 e1
        "constant": (Pencil(diag(1, 1, 0), diag(2, 2, 1)), [[1, 0], [0, 1], [0, 0]]),
        # on a point every restriction is a scalar, proportional or not
        "point": (Pencil(diag(1, 1, 0), diag(2, 2, 1)), [[1], [0], [0]]),
        # every restriction to the span of e0, e1, e2 has e2 in its kernel
        "all singular": (Pencil(diag(1, 0, 0, 1),
                                SymmetricForm([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]])),
                         [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]]),
        "dependent": (Pencil(diag(1, 2, 3), diag(3, 1, 2)), [[1, 2], [1, 2], [0, 0]]),
        "row count": (Pencil(diag(1, 2, 3), diag(3, 1, 2)), [[1, 0], [0, 1]]),
        "empty": (Pencil(diag(1, 2, 3), diag(3, 1, 2)), [[], [], []]),
        "no rows": (Pencil(diag(1, 2, 3), diag(3, 1, 2)), []),
        "ragged": (Pencil(diag(1, 2, 3), diag(3, 1, 2)), [[1, 0], [0], [0, 1]]),
        "float": (Pencil(diag(1, 2, 3), diag(3, 1, 2)), [[1.0], [0], [0]]),
        # rational members and basis, a double root and one at infinity
        "rational": (Pencil(SymmetricForm([[Fraction(1, 2), 0, 0], [0, Fraction(1, 3), 0], [0, 0, 1]]),
                            SymmetricForm([[Fraction(1, 2), Fraction(1, 5), 0], [Fraction(1, 5), 0, 0],
                                           [0, 0, Fraction(-2, 7)]])),
                     [[Fraction(1, 2), 0], [Fraction(2, 3), 1], [0, Fraction(-1, 4)]]),
        # det(s Q0 + t Q1) = -t^2 on the line e0 e1
        "double root": (Pencil(diag(1, 0, 1), SymmetricForm([[0, 1, 0], [1, 0, 0], [0, 0, 1]])),
                        [[1, 0], [0, 1], [0, 0]]),
        "at infinity": (Pencil(diag(1, 1, 1), diag(0, 1, 2)), [[1, 0], [0, 1], [0, 1]]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_built_cases_match_restricted_forms(self, case):
        p, basis = self.CASES[case]
        got = outcome(count_tangencies, p, basis)
        assert got == outcome(restricted_form_tangencies, p, basis)
        if case in ("point", "rational", "double root", "at infinity"):
            assert isinstance(got, DegenerationCount)
        else:
            assert isinstance(got, tuple)


class TestBoundaryPencilNumbers:
    def test_matches_closed_form(self):
        for n, k in ((3, 1), (3, 2), (4, 1), (4, 3), (5, 2), (6, 1), (6, 5)):
            for seed in range(5):
                assert bk_number(n, k, seed) == n - k + 1

    def test_k_range_enforced(self):
        with pytest.raises(ValueError):
            bk_number(3, 0, 0)
        with pytest.raises(ValueError):
            bk_number(3, 3, 0)


EXPECTED_DIRECT = {
    "G.H1": 1,
    "G.H2": 2,
    "G.H3": 3,
    "G.E3": 4,
    "C1.H2": 1,
    "C1.H3": 2,
    "C1.E3": 3,
    "C1star.E2": 3,
    "C1star.H3": 1,
    "C3.E2": 3,
    "C2.H1": 1,
    "L2.H3": 1,
    "Gstar.E1": 4,
}


class TestDirectTableCounts:
    def test_counts_match_frozen_values(self):
        for seed in (0, 1, 2, 17):
            assert direct_table_counts(seed) == EXPECTED_DIRECT

    def test_counts_match_lattice_pairings(self):
        # the same numbers must come out of the intersection pairing; the
        # two computations share no code path
        curves = picard.curves_x3()
        divisors = {
            "H1": picard.H1_3, "H2": picard.H2_3, "H3": picard.H3_3,
            "E1": picard.E1_3, "E2": picard.E2_3, "E3": picard.E3_3,
        }
        counts = direct_table_counts(5)
        assert set(counts) == set(DIRECT_CHECK_PAIRS)
        for label, (curve, divisor) in DIRECT_CHECK_PAIRS.items():
            assert counts[label] == picard.pair(curves[curve], divisors[divisor]), label

    def test_one_pencil_draw_per_family(self):
        # spies on the pencil draws of the families, on the pencils the
        # counts are taken on and on the attempts of each retried builder:
        # when no builder is retried, a seed draws one pencil per family,
        # every count of a family is taken on its pencil, and each repeated
        # entry equals the entry it repeats.  A repeat that draws a pencil
        # of its own, or a tangency entry counted on a fresh pencil, draws
        # a fifth.
        draws, counted, attempts = [], [], []

        def drawing(draw):
            def wrapper(r, m):
                p = draw(r, m)
                draws.append((draw.__name__, m, p))
                return p

            return wrapper

        def counting(fn):
            def wrapper(p, *rest):
                counted.append(p)
                return fn(p, *rest)

            return wrapper

        retry = pencils._retry

        def retrying(builder, rng):
            tries = []
            out = retry(lambda r: tries.append(r) or builder(r), rng)
            attempts.append(len(tries))
            return out

        families = tuple((drawing(draw), m, entries) for draw, m, entries in pencils._FAMILIES)
        clean = 0
        with mock.patch.object(pencils, "_FAMILIES", families), \
                mock.patch.object(pencils, "_retry", retrying), \
                mock.patch.object(pencils, "_tangencies", counting(pencils._tangencies)), \
                mock.patch.object(pencils, "count_degenerations", counting(count_degenerations)):
            for seed in range(32):
                del draws[:], counted[:], attempts[:]
                counts = direct_table_counts(seed)
                if set(attempts) != {1}:
                    continue
                clean += 1
                assert [(name, m) for name, m, _ in draws] == [
                    ("_certified_pencil", 3), ("_certified_pencil", 2),
                    ("_rank2_product_pencil", 3), ("_rank2_product_pencil", 1)], seed
                family = [next(i for i, (*_, q) in enumerate(draws) if q is p) for p in counted]
                assert family == [0, 0, 0, 0, 1, 1, 1, 2, 3], seed
                for label, source in (("Gstar.E1", "G.E3"), ("C1star.E2", "C1.E3"),
                                      ("C3.E2", "C1.E3"), ("C1star.H3", "C1.H2")):
                    assert counts[label] == counts[source], (seed, label)
        # 19 of the 32 seeds retry no builder
        assert clean == 19

    def test_draws_pinned(self):
        # totals hold by construction, so only the drawn pencils and
        # subspaces show a change in how the entries are drawn; this digest
        # covers every argument handed to the two counting functions, a
        # subspace as the rows of the columns the tangency core receives
        seen = []

        def recording(name, fn):
            def wrapper(p, *rest):
                forms = [[[str(x) for x in row] for row in q.rows] for q in (p.q0, p.q1)]
                basis = [[str(x) for x in row] for row in zip(*rest[0])] if rest else None
                seen.append(repr((name, forms, basis)))
                return fn(p, *rest)

            return wrapper

        with mock.patch.object(pencils, "_tangencies", recording("t", pencils._tangencies)), \
                mock.patch.object(pencils, "count_degenerations", recording("d", count_degenerations)):
            for seed in range(16):
                direct_table_counts(seed)
        # 9 counts per seed and 3 on draws that were retried; recorded when
        # the entries went from one draw each to one draw per family
        assert len(seen) == 147
        digest = hashlib.sha256("\n".join(seen).encode()).hexdigest()
        assert digest == "8729e46aab5c5c0d58ba9c70f897b223f62ab8ffd24a8fa22076330e2a098e49"
