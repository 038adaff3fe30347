"""The bundled verification checks: quick-scale smoke runs, and the result
each check reports at every failure exit."""

import random
from fractions import Fraction

import pytest

from completequadrics import chambers, chowform, exact, pencils, picard, quadrics, schubert, verify
from completequadrics.chambers import ChamberReport
from completequadrics.pencils import DegenerationCount
from completequadrics.picard import DivisorClass, TableRow

EXPECTED_ORDER = [
    "chow-form-identity",
    "intersection-table",
    "degeneration-counts",
    "boundary-pencil-numbers",
    "canonical-class",
    "class-derivation",
    "rank2-curve-pairing",
    "wedge-contraction",
    "chow-limits",
    "chamber-partition",
    "degree-gap-disclosure",
]


def test_run_all_quick_passes():
    results = verify.run_all(seed=1, quick=True)
    assert [r.name for r in results] == EXPECTED_ORDER
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_result_json_shape():
    res = verify.check_table()
    js = res.to_json()
    assert set(js) == {"name", "statement", "passed", "details"}
    assert js["passed"] is True


def test_statements_are_informative():
    for res in verify.run_all(seed=2, quick=True):
        assert len(res.statement) > 20
        assert res.name == res.name.lower()


# -- failing checks ------------------------------------------------------------
#
# Each case forces one failure exit of a check by patching what the check
# reads, and pins the result the check reports there.  The statements and
# details were recorded before each check named itself once; that of
# degeneration-counts was restated when it came to count one pencil per family.

STATEMENTS = {
    "chow-form-identity": (
        "plucker(B)^T compound(Q,k) plucker(B) = det(B^T Q B) for random forms and "
        "subspaces, n in {2,3,4}, all k"),
    "intersection-table": "8-curve x 6-divisor intersection table recomputed from the pairing",
    "degeneration-counts": (
        "one pencil per family counts 9 table entries (G.H1, G.H2, G.H3 and C1.H2, C1.H3, "
        "C2.H1, L2.H3 by tangencies, G.E3 and C1.E3 by degenerations), and each count "
        "matches the intersection pairing over 2 seeds, as do Gstar.E1, C1star.E2, C3.E2 "
        "and C1star.H3 at the counts of G.E3, C1.E3, C1.E3 and C1.H2 that they repeat"),
    "boundary-pencil-numbers": (
        "random marking pencils on P^(n-k) degenerate n-k+1 times, n <= 2; each "
        "determinant form has top coefficient det Q1 and value det(Q0 - Q1/2) at (1 : -1/2)"),
    "canonical-class": (
        "canonical class from the blowup formula equals the nef-basis closed form, "
        "2 <= n <= 2, and -K is ample"),
    "class-derivation": "H2 = 2H1 - E1 and H3 = 3H1 - 2E1 - E2 derived from curve pairings",
    "rank2-curve-pairing": (
        "2<sigma2+sigma11, sigma1^2> = 4 in G(1,3), matching the lattice pairing of P "
        "with the rank-2 curve; sigma1^4 matches the tableaux count"),
    "wedge-contraction": (
        "flag_wedge(n,k,j) is projectively constant iff j != k for 2 <= n <= 2; the "
        "n=3, k=2 limit is the rank-one outer product"),
    "chow-limits": (
        "rank-2 limits are supported on p0^2; rank-1 limits reproduce the marking conic "
        "in line coordinates, 1 random draws each"),
    "chamber-partition": (
        "classification examples land in regions 1, 2 and 7; on every face of the "
        "arrangement of the classifier's planes, exactly one region accepts each "
        "effective class and none a non-effective one, all eight own a face, "
        "classification commutes with duality, contains every curve-forced locus and "
        "has an empty locus exactly on the nef cone"),
}


def _fake_report(chamber_id):
    return ChamberReport(chamber_id, "interior", frozenset(), "empty", None)


def _patch_identity(mp):
    mp.setattr(chowform, "chow_eval", lambda q, k, b: Fraction(1))
    mp.setattr(verify, "_symmetric_det", lambda rows: 2)


def _patch_table_rows(mp):
    rows = picard.table_x3()
    mp.setattr(picard, "table_x3", lambda: rows[1:])


def _patch_table_entry(mp):
    rows = picard.table_x3()
    mp.setattr(picard, "table_x3", lambda: [TableRow("G", (1, 2, 3, 0, 0, 5), "X3")] + rows[1:])


def _patch_counts(mp):
    real = pencils.direct_table_counts

    def counts(seed):
        out = real(seed)
        out["C3.E2"] += seed
        return out

    mp.setattr(pencils, "direct_table_counts", counts)


def _patch_ff_det(mp, off):
    real = verify.ff_det
    mp.setattr(verify, "ff_det", lambda rows: real(rows) + off(rows))


def _patch_canonical_blowup(mp):
    real = picard.canonical
    mp.setattr(picard, "canonical", lambda n, method="nefbasis": (
        DivisorClass(n, "H", (0,) * n) if method == "blowup" else real(n, method)))


def _patch_canonical_n3(mp):
    real = picard.canonical
    mp.setattr(picard, "canonical", lambda n, method="nefbasis": (
        picard.H1_3 if n == 3 else real(n, method)))


def _patch_convert_mixed(mp):
    real = picard.convert
    mp.setattr(picard, "convert", lambda d, basis: (
        DivisorClass(3, "mixed", (0, 0, 0)) if basis == "mixed" else real(d, basis)))


def _patch_wedge_matrix(mp):
    rows = chowform.wedge2_example_matrix()
    rows[2][2] = dict(rows[0][0])
    mp.setattr(chowform, "wedge2_example_matrix", lambda: rows)


def _patch_limit_order(mp, shift):
    # _flag_limit reads the coefficient of x^(k(k-1)/2 + shift)
    real = exact._kronecker
    mp.setattr(chowform, "_kronecker", lambda values_at, deg, bound: [
        [0] + c[:-1] if shift < 0 else c[1:] + [0] for c in real(values_at, deg, bound)])


def _patch_plucker_rows(mp):
    # v taken from rows 1..k of the flag matrix instead of rows 0..k-1
    mp.setattr(chowform, "_flag_plucker", lambda n, k, ts: chowform._int_plucker(
        zip(*chowform._flag_matrix(n, ts)[1:k + 1]))[2])


def _patch_classify(mp, wrong):
    real = chambers.classify
    mp.setattr(chambers, "classify", lambda d: _fake_report(8) if wrong(d) else real(d))


def _patch_placements(mp, which, **fields):
    # the placements of the sign patterns which(signs, placement) selects get
    # the given fields; every other pattern keeps its own
    real = chambers._placement

    def placement(signs):
        found = real(signs)
        if not which(signs, found):
            return found
        values = {f: getattr(found, f) for f in found._fields}
        values.update(fields)
        return chambers._Placement(**values)

    mp.setattr(chambers, "_placement", placement)


def _patch_escape(mp, h):
    # the pattern of h, an effective class, gets no report and no failure
    signs = chambers._plane_signs(h)
    _patch_placements(mp, lambda s, p: s == signs, report=None, failure=None)


def _strict_effective_cone(mp):
    # the boundary of the effective cone, where the union example lies, is
    # read as not effective
    mp.setattr(chambers, "_EFF", (chambers._EFF[0], (">", ">", ">")))


def _patch_face_census(mp):
    real = chambers.face_census

    def census():
        out = real()
        out["chamber_faces"]["6"] = 0
        return out

    mp.setattr(chambers, "face_census", census)


def _boundary():
    return verify.check_boundary_numbers(seeds=1, max_n=2)


def _canonical():
    return verify.check_canonical(max_n=2)


def _wedge():
    return verify.check_wedge_contraction(max_n=2)


def _limits():
    return verify.check_chow_limits(draws=1, seed=0)


def _named(*h):
    return repr(DivisorClass(3, "H", tuple(Fraction(x) for x in h)))


_ZERO_MIXED = "DivisorClass(n=3, basis='mixed', coeffs=(%s))" % ", ".join(["Fraction(0, 1)"] * 3)

FAILURES = [
    ("identity-mismatch", "chow-form-identity", _patch_identity,
     lambda: verify.check_chow_identity(seed=0, min_pairs=1), "mismatch at n=2 k=1: 1 != 2"),
    ("table-row-set", "intersection-table", _patch_table_rows, verify.check_table,
     "row set differs"),
    ("table-row", "intersection-table", _patch_table_entry, verify.check_table,
     "row G: TableRow(curve='G', entries=(1, 2, 3, 0, 0, 5), cover='X3') vs (1, 2, 3, 0, 0, 4)"),
    ("direct-count", "degeneration-counts", _patch_counts,
     lambda: verify.check_direct_counts(seeds=2), "C3.E2: counted 4, pairing 3 (seed 1)"),
    ("boundary-total", "boundary-pencil-numbers",
     lambda mp: mp.setattr(pencils, "count_degenerations", lambda p: DegenerationCount(0, 0)),
     _boundary, "n=2 k=1 seed=0: 0 degenerations"),
    ("boundary-top", "boundary-pencil-numbers", lambda mp: _patch_ff_det(mp, lambda rows: 1),
     _boundary, "n=2 k=1 seed=0: top coefficient is not det Q1"),
    # only the midpoint determinant is taken of a list of lists; q1.ints is a tuple
    ("boundary-value", "boundary-pencil-numbers",
     lambda mp: _patch_ff_det(mp, lambda rows: isinstance(rows, list)),
     _boundary, "n=2 k=1 seed=0: value at (1 : -1/2) is not det(Q0 - Q1/2)"),
    ("canonical-routes", "canonical-class", _patch_canonical_blowup, _canonical,
     "n=2 routes differ"),
    ("canonical-fano", "canonical-class",
     lambda mp: mp.setattr(picard, "is_fano", lambda n: False), _canonical, "n=2 not Fano"),
    ("canonical-nef", "canonical-class", _patch_canonical_n3, _canonical,
     "n=3 nef coefficients wrong"),
    ("canonical-mixed", "canonical-class", _patch_convert_mixed, _canonical,
     "n=3 mixed coefficients wrong"),
    ("class-derivation", "class-derivation",
     lambda mp: mp.setattr(picard, "derive_class_from_pairings",
                           lambda rows, n, basis: DivisorClass(3, "mixed", (0, 0, 0))),
     verify.check_class_derivation, _ZERO_MIXED + " " + _ZERO_MIXED),
    ("rank2", "rank2-curve-pairing", lambda mp: mp.setattr(schubert, "p_dot_r2", lambda: 2),
     verify.check_rank2_pairing, ""),
    ("wedge-constant", "wedge-contraction",
     lambda mp: mp.setattr(chowform, "flag_wedge", lambda n, k, j: True),
     _wedge, "n=2 k=1 j=1 constant=True"),
    ("wedge-limit-below", "wedge-contraction", lambda mp: _patch_limit_order(mp, -1), _wedge,
     "n=2 k=1 lowest term is x^1, not x^0"),
    ("wedge-limit-above", "wedge-contraction", lambda mp: _patch_limit_order(mp, 1), _wedge,
     "n=2 k=1 limit is not v v^T"),
    ("wedge-plucker-rows", "wedge-contraction", _patch_plucker_rows, _wedge,
     "n=2 k=1 limit is not v v^T"),
    ("wedge-rank-one", "wedge-contraction", _patch_wedge_matrix, _wedge,
     "entry (2,2) not rank one"),
    ("limits-rank2", "chow-limits",
     lambda mp: mp.setattr(chowform, "limit_support_coefficients", lambda pt: {}),
     _limits, "rank-2 support at [1, 1, -5]"),
    ("limits-rank1", "chow-limits",
     lambda mp: mp.setattr(chowform, "limit_support_coefficients", lambda pt: {(0, 0): 1}),
     _limits, "rank-1 support at [-1, 3, 2, 1, -1, 2]"),
    ("chamber-nef", "chamber-partition",
     lambda mp: _patch_classify(mp, lambda d: d.coeffs == (1, 1, 1)),
     verify.check_chamber_partition, "nef example misclassified"),
    ("chamber-flip", "chamber-partition",
     lambda mp: _patch_classify(mp, lambda d: d.coeffs == (5, -2, 5)),
     verify.check_chamber_partition, "flip example misclassified"),
    ("chamber-union", "chamber-partition",
     lambda mp: _patch_classify(mp, lambda d: d.basis == "E"),
     verify.check_chamber_partition, "union example misclassified"),
    # a duality that fixes every class passes the two self-dual examples
    ("chamber-xi-identity", "chamber-partition", lambda mp: mp.setattr(picard, "xi", lambda d: d),
     verify.check_chamber_partition, "union example's dual misclassified"),
    ("chamber-census", "chamber-partition",
     lambda mp: mp.setattr(chambers, "REGIONS", chambers.REGIONS + (chambers.REGIONS[0],)),
     verify.check_chamber_partition, "regions [1, 1] accept " + _named(0, 0, 1)),
    ("chamber-non-effective", "chamber-partition",
     lambda mp: _patch_placements(mp, lambda s, p: p.failure == "class is not effective",
                                  accepted=(3,)),
     verify.check_chamber_partition, "regions [3] accept non-effective " + _named(0, 0, -1)),
    ("chamber-unseen", "chamber-partition", _patch_face_census,
     verify.check_chamber_partition, "chamber 6 owns no face"),
    ("chamber-escape-face", "chamber-partition", lambda mp: _patch_escape(mp, (0, 0, 1)),
     verify.check_chamber_partition,
     "effective class escaped the chamber cover: " + _named(0, 0, 1)),
    ("chamber-escape-example", "chamber-partition", lambda mp: _patch_escape(mp, (1, 1, 1)),
     verify.check_chamber_partition,
     "effective class escaped the chamber cover: " + _named(1, 1, 1)),
    ("chamber-not-effective", "chamber-partition", _strict_effective_cone,
     verify.check_chamber_partition, "class is not effective"),
]


@pytest.fixture
def fresh_placements():
    # placements are cached per sign pattern; none built under a patch outlives it
    chambers._placement.cache_clear()
    yield
    chambers._placement.cache_clear()


@pytest.mark.parametrize("name, patch, check, details", [c[1:] for c in FAILURES],
                         ids=[c[0] for c in FAILURES])
def test_failure_reported(fresh_placements, monkeypatch, name, patch, check, details):
    patch(monkeypatch)
    res = check()
    assert (res.name, res.statement, res.passed, res.details) == (
        name, STATEMENTS[name], False, details)


def test_every_check_with_a_failure_exit_is_forced():
    # degree-gap-disclosure has no failure exit
    names = {c[1] for c in FAILURES}
    assert names == set(STATEMENTS) == set(EXPECTED_ORDER) - {"degree-gap-disclosure"}


def test_boundary_numbers_draw_each_pencil_once(monkeypatch):
    # the pencil for (n, k, seed) depends on m = n - k alone: one draw per
    # m = 1..max_n - 1 and seed, (max_n - 1) * seeds in all
    draws = []
    draw = pencils.random_pencil
    monkeypatch.setattr(pencils, "random_pencil", lambda m, seed: draws.append((m, seed)) or draw(m, seed))
    assert verify.check_boundary_numbers(seeds=2, max_n=4).passed
    assert draws == [(m, seed) for m in range(1, 4) for seed in range(2)]


def test_chow_identity_draws_are_randrange_draws(monkeypatch):
    # each form's seed is the draw of rng.randrange(1 << 30), read from the
    # generator between the subspaces of _random_basis
    seeds = []
    form = quadrics.random_form
    monkeypatch.setattr(quadrics, "random_form", lambda n, r, seed: seeds.append(seed) or form(n, r, seed))
    for seed in range(40):
        del seeds[:]
        assert verify.check_chow_identity(seed=seed, min_pairs=9).passed
        rng, expected = random.Random(seed), []
        for n, k in [(n, k) for n in (2, 3, 4) for k in range(1, n + 1)]:
            expected.append(rng.randrange(1 << 30))
            quadrics._random_basis(rng, n + 1, k)
        assert seeds == expected, seed


def test_chow_identity_rhs_is_the_restricted_determinant(monkeypatch):
    # the integer right-hand side of every pair equals ff_det of the form
    # restricted by the public restrict, on the pair's own draws
    pairs, rhs = [], []
    evaluate, det = chowform.chow_eval, verify._symmetric_det
    monkeypatch.setattr(chowform, "chow_eval", lambda q, k, b: pairs.append((q, b)) or evaluate(q, k, b))
    monkeypatch.setattr(verify, "_symmetric_det", lambda rows: rhs.append(det(rows)) or rhs[-1])
    for seed in range(4):
        del pairs[:], rhs[:]
        assert verify.check_chow_identity(seed=seed, min_pairs=18).passed
        assert len(pairs) == len(rhs) == 18
        for (q, b), value in zip(pairs, rhs):
            assert type(value) is int and value == exact.ff_det(quadrics.restrict(q, b).rows), seed


def test_chow_identity_eliminates_only_its_draws(monkeypatch):
    # the only eliminations of an identity pair are the rank checks of its
    # two draws, the M of random_form and the subspace: the subspace is not
    # rank-checked again and the restricted form is not run through a
    # general elimination
    drawn, eliminated = [], []
    draw, echelon = quadrics._int_matrix, exact._echelon

    def spy(a, cols):
        eliminated.append([r[:] for r in a])
        return echelon(a, cols)

    monkeypatch.setattr(quadrics, "_int_matrix", lambda rng, rows, cols: drawn.append(draw(rng, rows, cols)) or drawn[-1])
    monkeypatch.setattr(quadrics, "_echelon", spy)
    monkeypatch.setattr(exact, "_echelon", spy)
    for seed in range(8):
        del drawn[:], eliminated[:]
        assert verify.check_chow_identity(seed=seed, min_pairs=1).passed
        # one pass over the nine (n, k), each pair two draws or more
        assert len(drawn) >= 18
        assert eliminated == drawn, seed


def test_chow_limit_draws_are_randint_draws(monkeypatch):
    # the coefficients of both families are the draws of rng.randint(-5, 5),
    # read off the q1 each family hands to chow_limit
    seen = []
    limit = chowform.chow_limit
    monkeypatch.setattr(chowform, "chow_limit", lambda q0, q1, k: seen.append(q1.rows) or limit(q0, q1, k))
    for seed in range(40):
        del seen[:]
        assert verify.check_chow_limits(draws=4, seed=seed).passed
        rng, expected = random.Random(seed), []
        for _ in range(4):
            for count in (3, 6):
                co = [rng.randint(-5, 5) for _ in range(count)]
                expected.append(co if any(co) else [1] + co[1:])
        got = []
        for rows in seen:
            if len(got) % 2 == 0:  # rank 2: a p2^2 + b p2 p3 + c p3^2
                got.append([rows[2][2], 2 * rows[2][3], rows[3][3]])
            else:
                got.append([rows[1][1], 2 * rows[1][2], 2 * rows[1][3], rows[2][2], 2 * rows[2][3], rows[3][3]])
        assert got == expected, seed
