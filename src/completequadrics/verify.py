"""Named verification checks for the library's headline computations.

Each check certifies one mathematical statement end to end and returns a
CheckResult.  A check states its name and its human-readable statement once,
in a functools.partial of CheckResult, and every exit passes only whether it
passed and its details.  The acceptance test suite and the verify-all
command both drive these functions; scales are parameters so interactive
runs can be light while the acceptance gate runs the full sizes.

direct_count_entries is the one place that sets each pencil count beside
the lattice pairing of its table entry; check_direct_counts,
`cq pencil --verify-table` and the intersection-table demo all read it.
"""

from __future__ import annotations

import functools
import operator
import random
from fractions import Fraction

from . import chambers, chowform, pencils, picard, quadrics, schubert
from ._value import Record
from .exact import _symmetric_det, ff_det


class CheckResult(Record):
    _fields = ("name", "statement", "passed", "details")
    _defaults = {"details": ""}

    def to_json(self) -> dict:
        return {f: getattr(self, f) for f in self._fields}


def check_chow_identity(seed: int = 0, min_pairs: int = 100) -> CheckResult:
    """Wedge-coordinate evaluation equals the restricted determinant.

    The left-hand side is the public chowform.chow_eval of the form and the
    basis B.  The right-hand side is taken in integers from the same draws,
    with no second rank check: random_form's den is 1 and _random_basis has
    certified B, so det(B^T Q B) is the symmetric integer determinant
    (exact._symmetric_det) of the congruence
    quadrics._int_congruence(q.ints, columns of B).  The two sides share no
    computation.
    """
    result = functools.partial(CheckResult, "chow-form-identity", (
        "plucker(B)^T compound(Q,k) plucker(B) = det(B^T Q B) for random "
        "forms and subspaces, n in {2,3,4}, all k"
    ))
    rng = random.Random(seed)
    combos = [(n, k) for n in (2, 3, 4) for k in range(1, n + 1)]
    done = 0
    while done < min_pairs:
        for n, k in combos:
            # the seed is the draw of rng.randrange(1 << 30), replayed
            q = quadrics.random_form(n, n + 1, quadrics._randbelow(rng, 1 << 30))
            b = quadrics._random_basis(rng, n + 1, k)
            lhs = chowform.chow_eval(q, k, b)
            rhs = _symmetric_det(quadrics._int_congruence(q.ints, list(zip(*b))))
            if lhs != rhs:
                return result(False, "mismatch at n=%d k=%d: %s != %s" % (n, k, lhs, rhs))
            done += 1
    return result(True, "%d pairs" % done)


_EXPECTED_TABLE = {
    "G": ((1, 2, 3, 0, 0, 4), "X3"),
    "Gstar": ((3, 2, 1, 4, 0, 0), "X3"),
    "C1": ((0, 1, 2, -1, 0, 3), "E1"),
    "C1star": ((0, 2, 1, -2, 3, 0), "E1"),
    "C2": ((1, 0, 0, 2, -1, 0), "E2"),
    "C3": ((1, 2, 0, 0, 3, -2), "E3"),
    "C12": ((0, 1, 0, -1, 2, -1), "E13"),
    "L2": ((0, 0, 1, 0, -1, 2), "E2"),
}


def check_table() -> CheckResult:
    """All 48 intersection numbers, E-columns derived through the lattice."""
    result = functools.partial(
        CheckResult, "intersection-table",
        "8-curve x 6-divisor intersection table recomputed from the pairing")
    rows = {row.curve: row for row in picard.table_x3()}
    if set(rows) != set(_EXPECTED_TABLE):
        return result(False, "row set differs")
    for name, (entries, cover) in _EXPECTED_TABLE.items():
        got = tuple(int(x) for x in rows[name].entries)
        if got != entries or rows[name].cover != cover:
            return result(False, "row %s: %r vs %r" % (name, rows[name], entries))
    return result(True, "48 entries")


def direct_count_entries(seed: int) -> list:
    """(label, count, pairing) for each table entry of
    pencils.direct_table_counts at one seed, a repeated entry with the count
    of the entry it repeats, in DIRECT_CHECK_PAIRS order; pairing is the
    lattice pairing of the entry's curve and divisor, which the count should
    equal."""
    counts = pencils.direct_table_counts(seed)
    curves = picard.curves_x3()
    return [(label, counts[label], picard.pair(curves[curve], chambers.GENERATORS[divisor]))
            for label, (curve, divisor) in pencils.DIRECT_CHECK_PAIRS.items()]


def check_direct_counts(seeds: int = 20) -> CheckResult:
    """Pencil degeneration counts equal the corresponding lattice pairings."""
    result = functools.partial(CheckResult, "degeneration-counts", (
        "one pencil per family counts 9 table entries (G.H1, G.H2, G.H3 and "
        "C1.H2, C1.H3, C2.H1, L2.H3 by tangencies, G.E3 and C1.E3 by "
        "degenerations), and each count matches the intersection pairing over "
        "%d seeds, as do Gstar.E1, C1star.E2, C3.E2 and C1star.H3 at the "
        "counts of G.E3, C1.E3, C1.E3 and C1.H2 that they repeat" % seeds
    ))
    for seed in range(seeds):
        for label, count, pairing in direct_count_entries(seed):
            if count != pairing:
                return result(False, "%s: counted %d, pairing %s (seed %d)"
                              % (label, count, pairing, seed))
    return result(True, "%d seeds x 9 entries counted on 4 pencils" % seeds)


def check_boundary_numbers(seeds: int = 20, max_n: int = 10) -> CheckResult:
    """Marking-pencil degeneration totals follow the closed form n-k+1.

    The total is the degree of the determinant form, so it holds by
    construction; each form f is also checked against determinants taken
    directly, by the general elimination of ff_det on the integer matrices
    of the two random_form members (den 1): its top coefficient is det Q1,
    and 2^(m+1) f(1 : -1/2), at a point that is not an interpolation node,
    is det(2 Q0 - Q1).  The form comes from the symmetric elimination
    exact._sym_det, which shares no code with ff_det unless it meets a zero
    pivot and gives way to ff_det's own exact._int_det; no pencil drawn here
    meets one.

    The pencil and its closed form depend on m = n - k alone, so each m is
    drawn once per seed; a failure names n = m + 1 and k = 1, which
    `cq pencil --n m+1 --k 1 --seed s` replays.
    """
    result = functools.partial(CheckResult, "boundary-pencil-numbers", (
        "random marking pencils on P^(n-k) degenerate n-k+1 times, n <= %d; "
        "each determinant form has top coefficient det Q1 and value "
        "det(Q0 - Q1/2) at (1 : -1/2)" % max_n
    ))
    for m in range(1, max_n):
        for seed in range(seeds):
            p = pencils.random_pencil(m, seed)
            form = pencils.pencil_det_form(p)
            got = pencils.count_degenerations(p).total
            mid = [[2 * x - y for x, y in zip(r0, r1)] for r0, r1 in zip(p.q0.ints, p.q1.ints)]
            value = sum(c * ((-1) ** d << m + 1 - d) for d, c in enumerate(form.coeffs))
            if got != m + 1:
                problem = "%d degenerations" % got
            elif form.coeffs[-1] != ff_det(p.q1.ints):
                problem = "top coefficient is not det Q1"
            elif value != ff_det(mid):
                problem = "value at (1 : -1/2) is not det(Q0 - Q1/2)"
            else:
                continue
            return result(False, "n=%d k=1 seed=%d: %s" % (m + 1, seed, problem))
    return result(True)


def check_canonical(max_n: int = 8) -> CheckResult:
    """Both canonical-class routes agree and the spaces are Fano."""
    result = functools.partial(CheckResult, "canonical-class", (
        "canonical class from the blowup formula equals the nef-basis closed "
        "form, 2 <= n <= %d, and -K is ample" % max_n
    ))
    for n in range(2, max_n + 1):
        a = picard.canonical(n, "blowup")
        b = picard.canonical(n, "nefbasis")
        if picard.convert(a, "H") != picard.convert(b, "H"):
            return result(False, "n=%d routes differ" % n)
        if not picard.is_fano(n):
            return result(False, "n=%d not Fano" % n)
    k3 = picard.canonical(3, "nefbasis")
    if picard.convert(k3, "H").coeffs != (-2, -1, -2):
        return result(False, "n=3 nef coefficients wrong")
    if picard.convert(k3, "mixed").coeffs != (-10, 5, 2):
        return result(False, "n=3 mixed coefficients wrong")
    return result(True)


def check_class_derivation() -> CheckResult:
    """Divisor classes recovered from their test-curve intersection numbers."""
    result = functools.partial(
        CheckResult, "class-derivation",
        "H2 = 2H1 - E1 and H3 = 3H1 - 2E1 - E2 derived from curve pairings")
    curves = picard.curves_x3()
    g, c2, l2 = curves["G"], curves["C2"], curves["L2"]
    h2 = picard.derive_class_from_pairings([(g, 2), (c2, 0), (l2, 0)], n=3, basis="mixed")
    h3 = picard.derive_class_from_pairings([(g, 3), (c2, 0), (l2, 1)], n=3, basis="mixed")
    ok = (
        h2.coeffs == (2, -1, 0)
        and h3.coeffs == (3, -2, -1)
        and picard.convert(h2, "H") == picard.H2_3
        and picard.convert(h3, "H") == picard.H3_3
    )
    return result(ok, "" if ok else "%r %r" % (h2, h3))


def check_rank2_pairing() -> CheckResult:
    """The movable generator pairs with the rank-2 pencil curve to 4."""
    result = functools.partial(CheckResult, "rank2-curve-pairing", (
        "2<sigma2+sigma11, sigma1^2> = 4 in G(1,3), matching the lattice "
        "pairing of P with the rank-2 curve; sigma1^4 matches the tableaux count"
    ))
    lattice = picard.pair(picard.curves_x3()["R2"], picard.class_P())
    ok = (
        schubert.p_dot_r2() == 4
        and lattice == 4
        and schubert.sigma1_power_degree(1, 3, 4) == 2
        and schubert.rectangle_tableaux(2, 2) == 2
        and schubert.sigma1_power_degree(1, 4, 6) == 5
        and schubert.rectangle_tableaux(2, 3) == 5
    )
    return result(ok)


def check_wedge_contraction(max_n: int = 4) -> CheckResult:
    """The k-th wedge limit is constant exactly on the non-k flag directions.

    For each (n, k) the limit taken directly, from the compound of M^T D M
    as a polynomial in x, is compared with v v^T for the Pluecker vector v of
    the first k rows of M, at t = (2, 3, ..., n + 1); neither side is
    computed from the other.
    """
    result = functools.partial(CheckResult, "wedge-contraction", (
        "flag_wedge(n,k,j) is projectively constant iff j != k for "
        "2 <= n <= %d; the n=3, k=2 limit is the rank-one outer product" % max_n
    ))
    for n in range(2, max_n + 1):
        ts = range(2, n + 2)
        for k in range(1, n + 1):
            v = chowform._flag_plucker(n, k, ts)
            try:
                limit = chowform._flag_limit(n, k, ts)
            except AssertionError as exc:
                return result(False, "n=%d k=%d %s" % (n, k, exc))
            if limit != [[x * y for y in v] for x in v]:
                return result(False, "n=%d k=%d limit is not v v^T" % (n, k))
            for j in range(1, n + 1):
                constant = chowform.flag_wedge(n, k, j)
                if constant != (j != k):
                    return result(False, "n=%d k=%d j=%d constant=%s" % (n, k, j, constant))
    m = chowform.wedge2_example_matrix()
    # v = (1, t2, 0, t1*t2, 0, 0) as exponent tuples in (t1, t2, t3), None for 0
    v = [(0, 0, 0), (0, 1, 0), None, (1, 1, 0), None, None]
    for i in range(6):
        for j in range(6):
            expected = {} if None in (v[i], v[j]) else {tuple(map(operator.add, v[i], v[j])): 1}
            if m[i][j] != expected:
                return result(False, "entry (%d,%d) not rank one" % (i, j))
    return result(True, (
        "entry (2,2) of the limit matrix is t2^2, as the rank-one structure "
        "forces; a transcription showing 1 there is inconsistent"
    ))


def _proportional_support(got: dict, expected: dict) -> bool:
    if set(got) != set(expected):
        return False
    items = sorted(expected)
    k0 = items[0]
    return all(got[k] * expected[k0] == got[k0] * expected[k] for k in items)


def check_chow_limits(draws: int = 20, seed: int = 0) -> CheckResult:
    """Limit Chow forms of the two basic degenerating families."""
    result = functools.partial(CheckResult, "chow-limits", (
        "rank-2 limits are supported on p0^2; rank-1 limits reproduce the "
        "marking conic in line coordinates, %d random draws each" % draws
    ))
    rng = random.Random(seed)
    # the draws of rng.randint(-5, 5), replayed
    draw = functools.partial(quadrics._randbelow, rng, 11)
    rank2_q0 = quadrics.SymmetricForm.from_rational(
        [[0, "1/2", 0, 0], ["1/2", 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    )
    rank1_q0 = quadrics.SymmetricForm.diagonal([1, 0, 0, 0])

    # the moving forms, as twice their integer rows over den 2: symmetric by
    # construction, so built unchecked, as random_form's forms are
    def rank2(a, b, c):
        q1 = quadrics.SymmetricForm._unchecked(
            [
                [0, 0, 0, 0],
                [0, 0, 0, 0],
                [0, 0, 2 * a, b],
                [0, 0, b, 2 * c],
            ],
            2,
        )
        return rank2_q0, q1

    def rank1(a, b, c, d, e, f):
        q1 = quadrics.SymmetricForm._unchecked(
            [
                [0, 0, 0, 0],
                [0, 2 * a, b, c],
                [0, b, 2 * d, e],
                [0, c, e, 2 * f],
            ],
            2,
        )
        return rank1_q0, q1

    for _ in range(draws):
        abc = [draw() - 5 for _ in range(3)]
        if not any(abc):
            abc[0] = 1
        pt = chowform.chow_limit(*rank2(*abc), 2)
        if chowform.limit_support_coefficients(pt) != {(0, 0): 1}:
            return result(False, "rank-2 support at %r" % (abc,))

        co = [draw() - 5 for _ in range(6)]
        if not any(co):
            co[0] = 1
        pt = chowform.chow_limit(*rank1(*co), 2)
        pairs = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
        expected = {p: Fraction(v) for p, v in zip(pairs, co) if v}
        if not _proportional_support(chowform.limit_support_coefficients(pt), expected):
            return result(False, "rank-1 support at %r" % (co,))
    return result(True)


def check_chamber_partition() -> CheckResult:
    """The eight-region classifier is a partition with its symmetries, on
    one class of every face of its planes' arrangement."""
    result = functools.partial(CheckResult, "chamber-partition", (
        "classification examples land in regions 1, 2 and 7; on every face of "
        "the arrangement of the classifier's planes, exactly one region accepts "
        "each effective class and none a non-effective one, all eight own a "
        "face, classification commutes with duality, contains every "
        "curve-forced locus and has an empty locus exactly on the nef cone"
    ))
    examples = (
        ("nef", picard.DivisorClass(3, "H", (1, 1, 1)), 1, frozenset()),
        ("flip", picard.DivisorClass(3, "H", (5, -2, 5)), 2, frozenset({"E13"})),  # H1 + H3 + P
        ("union", picard.DivisorClass(3, "E", (1, 1, 0)), 7, frozenset({"E1", "E2"})),
    )
    # the inputs are fixed, so any error the classifier raises is a failure;
    # each example's image under picard.xi lands in the mirrored chamber
    # with the mirrored locus (the union example, 7 -> 6, is not self-dual)
    try:
        for label, d, chamber_id, locus in examples:
            report = chambers.classify(d)
            if (report.chamber_id, report.base_locus) != (chamber_id, locus):
                return result(False, "%s example misclassified" % label)
            mirror = chambers.classify(picard.xi(d))
            if (mirror.chamber_id, mirror.base_locus) != (
                    chambers._XI_CHAMBER[chamber_id], chambers._xi_pieces(locus)):
                return result(False, "%s example's dual misclassified" % label)
        census = chambers.face_census()
    except (AssertionError, RuntimeError, ValueError) as exc:
        return result(False, str(exc))
    faces, owned = census["faces"], sorted(census["chamber_faces"].items())
    for cid, count in owned:
        if not count:
            return result(False, "chamber %s owns no face" % cid)
    return result(True, "%d faces (%s); effective faces per chamber %s; %d non-effective "
                  "faces, accepted by no region" % (
                      sum(faces.values()), ", ".join("%d %s" % (n, kind) for kind, n in faces.items()),
                      " ".join("%s:%d" % item for item in owned), census["non_effective"]))


def check_degree_gap() -> CheckResult:
    """Scope disclosure for the one enumerative number not computed here."""
    return CheckResult("degree-gap-disclosure", (
        "deg Chow2(1,X3) = 92 is not reproduced: it needs the full "
        "intersection ring of the space, beyond the lattice-level pairings "
        "implemented here; the remaining checks stand in as the suite"
    ), True, "documented in README")


def run_all(seed: int = 0, quick: bool = False) -> list:
    """Run every check in order; quick mode shrinks the sampling sizes of the
    chow-form-identity, degeneration-counts, boundary-pencil-numbers and
    chow-limits checks.  The others are exhaustive or fixed, and the same in
    both modes and at every seed."""
    pairs, seeds, draws = (30, 3, 5) if quick else (100, 20, 20)
    return [
        check_chow_identity(seed=seed, min_pairs=pairs),
        check_table(),
        check_direct_counts(seeds=seeds),
        check_boundary_numbers(seeds=seeds),
        check_canonical(),
        check_class_derivation(),
        check_rank2_pairing(),
        check_wedge_contraction(),
        check_chow_limits(draws=draws, seed=seed),
        check_chamber_partition(),
        check_degree_gap(),
    ]
