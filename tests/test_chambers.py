"""Chamber classifier: region ownership, duality, and census invariants."""

import functools
import hashlib
import itertools
import json
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import completequadrics
from completequadrics import chambers, quadrics
from completequadrics.chambers import (
    GENERATORS,
    MODEL_CHOW,
    MODEL_FLIP,
    MODEL_P9,
    MODEL_P9_DUAL,
    MODEL_P_RAY,
    MODEL_SMALL,
    MODEL_X3,
    REGIONS,
    RegionSpec,
    accepting_regions,
    chamber_census,
    classify,
    classify_segment,
    face_census,
    FORCING_CURVES,
    forced_base_loci,
    locus_label,
    locus_subset,
)
from completequadrics.exact import InconsistentSystem, solve_exact
from completequadrics.picard import (
    ConeMembership,
    DivisorClass,
    class_P,
    cone_membership,
    convert,
    curves_x3,
    integer_h,
    pair,
    xi,
)
from test_picard import _inverse, cartan

SRC = pathlib.Path(completequadrics.__file__).resolve().parent.parent


def H(a, b, c):
    return DivisorClass(3, "H", (Fraction(a), Fraction(b), Fraction(c)))


def E(a, b, c):
    return DivisorClass(3, "E", (Fraction(a), Fraction(b), Fraction(c)))


def plus(d1, d2):
    a, b = convert(d1, "H"), convert(d2, "H")
    return DivisorClass(d1.n, "H", tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


P = class_P()


class TestChamberExamples:
    def test_nef_interior(self):
        r = classify(H(1, 1, 1))
        assert (r.chamber_id, r.base_locus, r.model_label) == (1, frozenset(), MODEL_X3)

    def test_flip_chamber(self):
        r = classify(plus(H(1, 0, 1), P))
        assert r.chamber_id == 2
        assert r.base_locus == frozenset({"E13"})
        assert r.model_label == MODEL_FLIP

    def test_union_wall_e1_e2(self):
        r = classify(E(1, 1, 0))
        assert r.chamber_id == 7
        assert r.base_locus == frozenset({"E1", "E2"})
        assert r.position == "wall E1,E2"

    def test_one_representative_per_chamber(self):
        reps = {
            1: H(1, 1, 1),
            2: plus(H(1, 0, 1), P),
            3: plus(H(0, 0, 1), plus(E(0, 0, 1), P)),
            4: plus(H(1, 0, 0), plus(E(1, 0, 0), P)),
            5: plus(P, E(1, 0, 1)),
            6: plus(H(0, 0, 1), E(0, 1, 1)),
            7: plus(H(1, 0, 0), E(1, 1, 0)),
            8: plus(H(1, 1, 0), E(0, 1, 0)),
        }
        for cid, d in reps.items():
            assert classify(d).chamber_id == cid, cid
            assert accepting_regions(d) == [cid]


class TestWallOwnership:
    def test_flip_chamber_owns_its_nef_facing_walls(self):
        assert classify(plus(H(1, 0, 0), P)).chamber_id == 2
        assert classify(plus(H(0, 0, 1), P)).chamber_id == 2

    def test_p_ray_belongs_to_flip_chamber(self):
        r = classify(P)
        assert (r.chamber_id, r.position) == (2, "ray P")
        assert r.model_label == MODEL_P_RAY
        assert r.base_locus == frozenset({"E13"})
        assert r.notes  # the ray value is flagged as inherited

    def test_boundary_rays_of_effective_cone(self):
        assert classify(E(1, 0, 0)).chamber_id == 4
        assert classify(E(0, 0, 1)).chamber_id == 3
        # the E2 ray falls to the region whose half-open walls include it
        r = classify(E(0, 1, 0))
        assert (r.chamber_id, r.position) == (8, "ray E2")
        assert r.base_locus == frozenset({"E2"})

    def test_lower_boundary_wall(self):
        assert classify(E(1, 0, 1)).chamber_id == 5

    def test_side_boundary_walls(self):
        assert classify(E(0, 1, 1)).chamber_id == 6
        assert classify(E(1, 1, 0)).chamber_id == 7

    def test_h3_e2_wall_goes_to_region_eight(self):
        r = classify(plus(H(0, 0, 1), E(0, 1, 0)))
        assert (r.chamber_id, r.position) == (8, "wall H3,E2")
        r = classify(plus(H(1, 0, 0), E(0, 1, 0)))
        assert (r.chamber_id, r.position) == (8, "wall H1,E2")

    def test_h3_e3_wall_goes_to_region_three(self):
        assert classify(plus(H(0, 0, 1), E(0, 0, 1))).chamber_id == 3
        assert classify(plus(H(1, 0, 0), E(1, 0, 0))).chamber_id == 4


class TestNefBoundaryModels:
    def test_rays(self):
        assert classify(H(1, 0, 0)).model_label == MODEL_P9
        assert classify(H(0, 1, 0)).model_label == MODEL_CHOW
        assert classify(H(0, 0, 1)).model_label == MODEL_P9_DUAL

    def test_small_contraction_wall(self):
        r = classify(H(2, 0, 5))
        assert (r.chamber_id, r.position, r.model_label) == (1, "wall H1,H3", MODEL_SMALL)
        assert r.certificate == {"pair(C12,D)": "0"}

    def test_unnamed_nef_faces(self):
        r = classify(H(1, 1, 0))
        assert r.chamber_id == 1 and r.model_label is None and r.notes


class TestSegment:
    def test_open_segment(self):
        for t in (Fraction(1, 2), Fraction(1, 3), Fraction(9, 10)):
            r = classify_segment(t)
            assert (r.chamber_id, r.model_label) == (1, MODEL_SMALL)
            assert r.certificate == {"pair(C12,D)": "0"}

    def test_endpoints_hand_off_to_rays(self):
        assert classify_segment(1).model_label == MODEL_P9
        assert classify_segment(0).model_label == MODEL_P9_DUAL

    def test_outside_rejected(self):
        with pytest.raises(ValueError):
            classify_segment(Fraction(3, 2))
        with pytest.raises(ValueError):
            classify_segment(Fraction(-1, 2))

    def test_certifying_pairing_is_literally_zero(self):
        d = H(Fraction(1, 3), 0, Fraction(2, 3))
        assert pair(curves_x3()["C12"], d) == 0


class TestForcedLoci:
    def test_nef_forces_nothing(self):
        assert forced_base_loci(H(1, 1, 1)) == frozenset()
        assert forced_base_loci(H(1, 0, 0)) == frozenset()

    def test_negative_c2_pairing_forces_e2(self):
        d = E(0, 1, 0)
        assert pair(curves_x3()["C2"], d) < 0
        assert "E2" in forced_base_loci(d)

    def test_p_forces_the_intersection_locus(self):
        # pair(C12, P) = -2, so the curve class sweeping E1 n E3 certifies
        # that locus on the P ray; the classifier reports the same pieces
        assert pair(curves_x3()["C12"], P) == -2
        assert forced_base_loci(P) == frozenset({"E13"})
        assert forced_base_loci(P) == classify(P).base_locus

    def test_forced_always_inside_reported(self):
        for d in (E(1, 0, 0), E(0, 1, 0), E(2, 1, 3), plus(H(1, 0, 1), P), H(0, 1, 0)):
            assert locus_subset(forced_base_loci(d), classify(d).base_locus)


class TestLocusAlgebra:
    def test_intersection_piece_inside_divisors(self):
        assert locus_subset({"E13"}, {"E1"})
        assert locus_subset({"E13"}, {"E3"})
        assert locus_subset({"E13"}, {"E13"})

    def test_divisor_not_inside_smaller_pieces(self):
        assert not locus_subset({"E1"}, {"E13"})
        assert not locus_subset({"E1"}, {"E2", "E3"})
        assert locus_subset({"E1", "E3"}, {"E1", "E3"})

    def test_labels(self):
        assert locus_label(frozenset()) == "empty"
        assert locus_label({"E13"}) == "E1 cap E3"
        assert locus_label({"E2", "E3"}) == "E2 cup E3"


class TestValidation:
    def test_zero_class_rejected(self):
        with pytest.raises(ValueError):
            classify(H(0, 0, 0))

    def test_non_effective_rejected(self):
        with pytest.raises(ValueError):
            classify(H(-1, 0, 0))

    def test_wrong_space_rejected(self):
        with pytest.raises(ValueError):
            classify(DivisorClass(2, "H", (Fraction(1), Fraction(1))))


class TestCensus:
    def test_census_runs_and_hits_every_chamber(self):
        result = chamber_census(2000, seed=7)
        assert result["samples"] == 2000
        assert result["all_eight_hit"]
        assert sum(result["chamber_counts"].values()) == 2000

    def test_census_deterministic(self):
        assert chamber_census(300, seed=3) == chamber_census(300, seed=3)

    def test_census_needs_samples(self):
        with pytest.raises(ValueError):
            chamber_census(0, seed=1)

    def test_duality_on_explicit_walls(self):
        # both orientations of each asymmetric wall, mapped onto each other
        pairs = [
            (plus(H(0, 0, 1), E(0, 1, 0)), plus(H(1, 0, 0), E(0, 1, 0))),
            (E(0, 1, 1), E(1, 1, 0)),
            (E(1, 0, 0), E(0, 0, 1)),
        ]
        for d, expected_mirror in pairs:
            got = classify(xi(d))
            assert got.chamber_id == classify(expected_mirror).chamber_id
            assert got.base_locus == classify(expected_mirror).base_locus

    def test_report_json_shape(self):
        data = classify(H(1, 1, 1)).to_json()
        assert data["chamber"] == 1
        assert data["base_locus_pieces"] == []
        assert data["model"] == MODEL_X3


# -- the solve_exact classifier, kept as the oracle of the integer one ---------

GEN_H = {name: convert(g, "H").coeffs for name, g in GENERATORS.items()}
GEN_ORDER = ("H1", "H2", "H3", "P", "E1", "E2", "E3")


def oracle_coords(h, gens):
    matrix = [[GEN_H[g][i] for g in gens] for i in range(3)]
    try:
        return solve_exact(matrix, list(h))
    except InconsistentSystem:
        return None


def oracle_cone(h, gens, flags):
    coords = oracle_coords(h, gens)
    if coords is None:
        return False
    for value, flag in zip(coords, flags):
        if flag == ">=" and value < 0:
            return False
        if flag == ">" and value <= 0:
            return False
    return True


def oracle_accepting(h):
    nef = all(c >= 0 for c in h)
    return [
        spec
        for spec in REGIONS
        if not (spec.exclude_nef and nef) and any(oracle_cone(h, g, f) for g, f in spec.cones)
    ]


def oracle_position(spec, h):
    coords = oracle_coords(h, spec.position_basis)
    support = [g for g, c in zip(spec.position_basis, coords) if c != 0]
    if len(support) == 3:
        return "interior"
    if len(support) == 1:
        return "ray %s" % support[0]
    support.sort(key=GEN_ORDER.index)
    return "wall %s,%s" % (support[0], support[1])


def half_integer_box(low, high):
    steps = [Fraction(k, 2) for k in range(2 * low, 2 * high + 1)]
    return itertools.product(steps, repeat=3)


BOX = (-3, 6)


class TestIntegerClassifier:
    def test_box_covers_every_ray_and_wall(self):
        triples = {spec.position_basis for spec in REGIONS}
        triples |= {gens for spec in REGIONS for gens, _ in spec.cones}
        for gens in triples:
            # each ray's generator and a point inside each wall
            points = [GEN_H[g] for g in gens]
            points += [[x + y for x, y in zip(GEN_H[a], GEN_H[b])] for a, b in itertools.combinations(gens, 2)]
            for point in points:
                assert all(BOX[0] <= x <= BOX[1] for x in point), (gens, point)

    def test_agrees_with_solve_exact_oracle(self):
        e_basis = cartan(3)
        curves = curves_x3()
        seen = set()
        for h in half_integer_box(*BOX):
            d = DivisorClass(3, "H", h)
            accepted = oracle_accepting(h)
            assert accepting_regions(d) == [spec.chamber_id for spec in accepted], h
            forced = {piece for name, piece in FORCING_CURVES if pair(curves[name], d) < 0}
            assert forced_base_loci(d) == forced, h
            effective = all(c >= 0 for c in solve_exact(e_basis, list(h)))
            if not any(h) or not effective:
                with pytest.raises(ValueError):
                    classify(d)
                continue
            spec = accepted[0]
            report = classify(d)
            assert (report.chamber_id, report.position) == (spec.chamber_id, oracle_position(spec, h)), h
            assert report.base_locus == spec.base_locus
            seen.add((report.chamber_id, report.position))
        # every chamber is met on its interior and on some wall or ray
        assert {cid for cid, pos in seen if pos == "interior"} == set(range(1, 9))
        assert {cid for cid, pos in seen if pos != "interior"} == set(range(1, 9))

    def test_movable_cone_is_chambers_one_and_two(self):
        # picard's movable cone and the chamber table agree: Mov is the
        # closure of the chambers with empty or E1 cap E3 base locus
        checked = 0
        for h in half_integer_box(-4, 4):
            if not any(h):
                continue
            d = DivisorClass(3, "H", h)
            try:
                inside = classify(d).chamber_id in (1, 2)
            except ValueError:  # not effective
                inside = False
            assert cone_membership(d, "mov").contains == inside, h
            checked += 1
        assert checked == 4912

    def test_cone_membership_on_every_face(self):
        # one class of each nonzero face: the cones of picard agree with the
        # chamber table; Eff is the effective classes, Nef chamber 1 and Mov
        # chambers 1 and 2, each interior only inside its chambers
        faces = list(itertools.chain(*chambers._faces()[1:]))
        assert len(faces) == 230
        for h in faces:
            d = DivisorClass(3, "H", h)
            try:
                report = classify(d)
                effective, chamber, interior = True, report.chamber_id, report.position == "interior"
            except ValueError:  # not effective
                effective, chamber, interior = False, None, False
            assert cone_membership(d, "eff").contains == effective, h
            nef, mov = chamber == 1, chamber in (1, 2)
            assert cone_membership(d, "nef") == ConeMembership(nef, nef and interior), h
            assert cone_membership(d, "mov") == ConeMembership(mov, mov and interior), h


# -- the row-based classifier, kept as the reference of the sign patterns ------

MODELS_ON_NEF_FACES = {
    "interior": MODEL_X3,
    "ray H1": MODEL_P9,
    "ray H2": MODEL_CHOW,
    "ray H3": MODEL_P9_DUAL,
    "wall H1,H3": MODEL_SMALL,
}


@functools.cache
def reference_rows(gens):
    # the rows of the inverse generator matrix, each solved for and scaled
    # by the lcm of its denominators: the oracle of picard.facet_rows.  Its
    # inputs are the gens tuple and the constant GEN_H, so it is solved once
    # per triple and kept, as tuples
    matrix = [[GEN_H[g][i] for g in gens] for i in range(3)]
    return tuple(tuple(x * math.lcm(*(y.denominator for y in row)) for x in row) for row in _inverse(matrix))


def dot(row, h):
    return sum(a * x for a, x in zip(row, h))


def reference_cone_accepts(h, gens, flags):
    for row, flag in zip(reference_rows(gens), flags):
        value = dot(row, h)
        if value < 0 or (value == 0 and flag == ">"):
            return False
    return True


def reference_position(spec, h):
    support = [g for g, row in zip(spec.position_basis, reference_rows(spec.position_basis)) if dot(row, h)]
    if len(support) == 3:
        return "interior"
    if len(support) == 1:
        return "ray %s" % support[0]
    support.sort(key=GEN_ORDER.index)
    return "wall %s,%s" % (support[0], support[1])


def reference_answers(d):
    """accepting_regions, forced_base_loci and classify's answer, from rows."""
    h = integer_h(d)
    nef = all(c >= 0 for c in h)
    accepted = [
        spec
        for spec in REGIONS
        if not (spec.exclude_nef and nef) and any(reference_cone_accepts(h, g, f) for g, f in spec.cones)
    ]
    curves = curves_x3()
    forced = frozenset(piece for name, piece in FORCING_CURVES if dot(curves[name].coeffs, h) < 0)
    if not any(h) or not reference_cone_accepts(h, ("E1", "E2", "E3"), (">=",) * 3):
        return [spec.chamber_id for spec in accepted], forced, ValueError
    spec = accepted[0]
    position = reference_position(spec, h)
    model, certificate = None, None
    if spec.chamber_id == 1:
        model = MODELS_ON_NEF_FACES.get(position)
        if position == "wall H1,H3":
            certificate = {"pair(C12,D)": str(pair(curves["C12"], d))}
    elif spec.chamber_id == 2:
        model = {"ray P": MODEL_P_RAY, "interior": MODEL_FLIP}.get(position)
    report = (spec.chamber_id, position, spec.base_locus, model, certificate)
    return [spec.chamber_id for spec in accepted], forced, report


def assert_matches_row_reference(d):
    accepted, forced, expected = reference_answers(d)
    assert accepting_regions(d) == accepted, d
    assert forced_base_loci(d) == forced, d
    if expected is ValueError:
        with pytest.raises(ValueError):
            classify(d)
        return
    r = classify(d)
    got = (r.chamber_id, r.position, r.base_locus, r.model_label, r.certificate)
    assert got == expected, d
    assert r.base_locus_label == locus_label(r.base_locus)


class TestSignPatternPlacement:
    def test_plane_table(self):
        normals, facets, forcing = chambers._plane_table()
        # 11 triples of 3 facet rows each, on 11 distinct primitive planes
        assert len(facets) == 11 and len(normals) == len(set(normals)) == 11
        assert {plane for rows in facets.values() for plane, _ in rows} == set(range(11))
        assert len(forcing) == len(FORCING_CURVES)
        # each facet row is a positive multiple of its orientation times its plane
        # the E triple's rows: 4 times the inverse Cartan matrix
        e_rows = [[4 * x for x in row] for row in _inverse(cartan(3))]
        for gens, rows in facets.items():
            source = e_rows if gens == ("E1", "E2", "E3") else reference_rows(gens)
            for row, (plane, orient) in zip(source, rows):
                scale = next(r // (orient * x) for r, x in zip(row, normals[plane]) if x)
                assert scale > 0 and list(row) == [scale * orient * x for x in normals[plane]]

    def test_public_results_match_the_row_reference(self):
        for h in half_integer_box(-4, 6):
            assert_matches_row_reference(DivisorClass(3, "H", h))
        # at most one placement per face of the arrangement of 11 planes
        assert chambers._placement.cache_info().currsize <= 4 * 11 * 10 + 3

    def test_every_face_matches_the_row_reference(self):
        # one class of each of the 231 sign patterns, so every placement the
        # classifier can build is compared with the solved row reference
        faces = list(itertools.chain(*chambers._faces()))
        assert len(faces) == 231
        for h in faces:
            assert_matches_row_reference(DivisorClass(3, "H", h))

    def test_wall_certificate_is_not_shared(self):
        a, b = classify(H(2, 0, 5)), classify(H(2, 0, 5))
        assert a == b and a.certificate is not b.certificate

    def test_accepting_regions_returns_a_fresh_list(self):
        accepting_regions(H(1, 1, 1)).append(9)
        assert accepting_regions(H(1, 1, 1)) == [1]


# -- integer draws against the Fraction draws they replaced --------------------

def fraction_draw(rng, i):
    """Sample i of a census as the Fraction code drew it, in H coordinates."""
    if i % 2 == 0:
        spec = REGIONS[(i // 2) % 8]
        gens, flags = spec.cones[rng.randrange(len(spec.cones))]
        while True:
            coeffs = [Fraction(rng.randint(1 if f == ">" else 0, 6), rng.choice((1, 1, 2))) for f in flags]
            if spec.chamber_id == 1 and not any(coeffs):
                continue
            if spec.exclude_nef and coeffs[2] == 0:
                continue
            h = [sum(c * GEN_H[g][k] for c, g in zip(coeffs, gens)) for k in range(3)]
            return DivisorClass(3, "H", tuple(h))
    while True:
        coeffs = tuple(
            Fraction(0) if rng.random() < 0.15 else Fraction(rng.randint(1, 12), rng.choice((1, 1, 3)))
            for _ in range(3)
        )
        if any(coeffs):
            return convert(DivisorClass(3, "E", coeffs), "H")


def integer_draw(rng, i):
    """Sample i of a census: its integer H vector h and the denominator den
    that h is the class's H vector times."""
    if i % 2 == 0:
        return chambers._sample_region(rng, (i // 2) % 8 + 1), 2
    return chambers._sample_effective(rng), 3


def test_integer_draws_equal_the_fraction_draws():
    for seed in range(4):
        ours, theirs = random.Random(seed), random.Random(seed)
        for i in range(400):
            h, den = integer_draw(ours, i)
            assert all(type(x) is int for x in h)
            assert [Fraction(x, den) for x in h] == list(fraction_draw(theirs, i).coeffs)
        assert ours.random() == theirs.random()


def randint_draw(rng, i):
    """Sample i of a census as the randint, choice and randrange code drew it:
    its H vector times den, and den."""
    if i % 2 == 0:
        spec = REGIONS[(i // 2) % 8]
        gens, flags = spec.cones[rng.randrange(len(spec.cones))]
        while True:
            coeffs = []
            for flag in flags:
                low = 1 if flag == ">" else 0
                coeffs.append(rng.randint(low, 6) * (2 // rng.choice((1, 1, 2))))
            if spec.chamber_id == 1 and not any(coeffs):
                continue
            if spec.exclude_nef and coeffs[2] == 0:
                continue
            break
        den = 2
    else:
        while True:
            coeffs = [
                0 if rng.random() < 0.15 else rng.randint(1, 12) * (3 // rng.choice((1, 1, 3)))
                for _ in range(3)
            ]
            if any(coeffs):
                break
        gens, den = ("E1", "E2", "E3"), 3
    cols = [chambers._GEN_H[g] for g in gens]
    return [sum(c * col[k] for c, col in zip(coeffs, cols)) for k in range(3)], den


def test_replayed_draws_equal_the_randint_draws():
    # the samplers read getrandbits through _randbelow; the vectors and the
    # generator state after them are those of the library calls
    for seed in range(1000):
        ours, theirs = random.Random(seed), random.Random(seed)
        for i in range(16):
            assert integer_draw(ours, i) == randint_draw(theirs, i), (seed, i)
        assert ours.getstate() == theirs.getstate(), seed


def test_randbelow_is_randrange():
    for n in (1, 2, 3, 6, 7, 12, 1000):
        ours, theirs = random.Random(n), random.Random(n)
        assert [chambers._randbelow(ours, n) for _ in range(200)] == [theirs.randrange(n) for _ in range(200)]
        assert ours.getstate() == theirs.getstate()
    # the one replay helper, shared with the quadric and pencil draws: the
    # D entries of random_form, the seeds of _certified_pencil and
    # check_chow_identity, and the coefficients of check_chow_limits
    assert chambers._randbelow is quadrics._randbelow
    replays = (
        (lambda r: (1, 2, 3, -1, -2, 5)[quadrics._randbelow(r, 6)], lambda r: r.choice([1, 2, 3, -1, -2, 5])),
        (lambda r: quadrics._randbelow(r, 1 << 30), lambda r: r.randrange(1 << 30)),
        (lambda r: quadrics._randbelow(r, 11) - 5, lambda r: r.randint(-5, 5)),
    )
    for seed in range(1000):
        for ours_draw, their_draw in replays:
            ours, theirs = random.Random(seed), random.Random(seed)
            assert [ours_draw(ours) for _ in range(8)] == [their_draw(theirs) for _ in range(8)], seed
            assert ours.getstate() == theirs.getstate(), seed


# sha256 of json.dumps([chamber_census(50, s)["chamber_counts"] for s in
# range(128)], sort_keys=True), recorded with the Fraction draws and the
# row-based classifier
CENSUS_POOL_DIGEST = "a868d865c86341761c45375735d232e7bc2b2a6f9bac2c9e7084184d6c87c1e7"


def test_census_counts_pinned():
    counts = [chamber_census(50, s)["chamber_counts"] for s in range(128)]
    assert hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest() == CENSUS_POOL_DIGEST


# -- the census's placements against the public API and the full check ------

def census_draws(samples, seed):
    """The classes chamber_census(samples, seed) draws, in order."""
    rng = random.Random(seed)
    draws = [integer_draw(rng, i) for i in range(samples)]
    return [DivisorClass(3, "H", tuple(Fraction(x, den) for x in h)) for h, den in draws]


def recorded_lookups(monkeypatch, run):
    """The (sign pattern, placement) of each _placement call while run()
    runs."""
    lookups = []
    real = chambers._placement

    def placement(signs):
        found = real(signs)
        lookups.append((signs, found))
        return found

    with monkeypatch.context() as patch:
        patch.setattr(chambers, "_placement", placement)
        run()
    return lookups


def without_certificate(report):
    return tuple(getattr(report, f) for f in report._fields if f != "certificate")


def xi_image(report):
    # chamber, locus, position and model of a report's mirror under xi
    return (chambers._XI_CHAMBER[report.chamber_id], chambers._xi_pieces(report.base_locus),
            chambers._xi_position(report.position),
            chambers._XI_MODEL.get(report.model_label, report.model_label))


def test_census_reads_what_the_public_api_returns(monkeypatch):
    # a sample reads one placement: its class's, which holds what the public
    # calls return for the class
    seeds = range(16)
    lookups = recorded_lookups(monkeypatch, lambda: [chamber_census(50, s) for s in seeds])
    draws = [d for s in seeds for d in census_draws(50, s)]
    assert len(lookups) == len(draws)
    for d, (signs, own) in zip(draws, lookups):
        assert signs == chambers._signs(d), d
        assert list(own.accepted) == accepting_regions(d), d
        assert without_certificate(own.report) == without_certificate(classify(d)), d
        assert own.forced == forced_base_loci(d), d


def test_full_check_reads_what_the_public_api_returns(monkeypatch):
    # a full check reads its class's placement and the mirror's: the second
    # from the reversed vector, which holds what classify returns for xi(d)
    for h in itertools.chain(*chambers._faces()[1:]):
        d = DivisorClass(3, "H", h)
        if chambers._placement(chambers._signs(d)).failure is not None:
            continue
        lookups = recorded_lookups(monkeypatch, lambda: chambers._full_check(h))
        report, mirror = classify(d), classify(xi(d))
        assert [signs for signs, _ in lookups] == [chambers._signs(d), chambers._signs(xi(d))], h
        assert without_certificate(lookups[0][1].report) == without_certificate(report), h
        assert without_certificate(lookups[1][1].report) == without_certificate(mirror), h
        assert xi_image(report) == (mirror.chamber_id, mirror.base_locus, mirror.position,
                                    mirror.model_label), h


def test_census_builds_no_class_per_sample(monkeypatch):
    # a passing sample reads its pattern from the integer vector its draw
    # holds: no class, Fraction or integer_h per sample, and one placement
    calls = {"integer_h": 0, "DivisorClass": 0, "Fraction": 0}

    def counted(name):
        real = getattr(chambers, name)

        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    for name in calls:
        monkeypatch.setattr(chambers, name, counted(name))
    lookups = recorded_lookups(monkeypatch, lambda: chamber_census(50, 3))
    assert calls == {"integer_h": 0, "DivisorClass": 0, "Fraction": 0}
    assert len(lookups) == 50
    assert not hasattr(chambers, "xi")


def test_checked_report_depends_on_the_sign_pattern_alone():
    # _full_check reads a class through its sign pattern alone: a full check
    # of any effective integer class, or of its H vector times den, gives
    # the report of the listed face of its pattern
    faces = {chambers._plane_signs(v): v for v in itertools.chain(*chambers._faces())}
    checked = 0
    for h in itertools.product(range(-6, 7), repeat=3):
        signs = chambers._plane_signs(h)
        effective = any(h) and min(convert(DivisorClass(3, "H", h), "E").coeffs) >= 0
        assert effective == (chambers._placement(signs).failure is None), h
        if not effective:
            continue
        face = chambers._full_check(faces[signs])
        for den in (1, 2, 3):
            assert chambers._full_check(tuple(den * x for x in h)) == face, (h, den)
            checked += 1
    assert checked == 3 * 764


def test_census_counts_equal_a_full_check_per_sample():
    # the benchmark's census pool, counted by placement and again by a full
    # check of every sample
    def full_check_counts(seed):
        # the draws of chamber_census(50, seed), each counted by _full_check
        rng = random.Random(seed)
        counts = {str(cid): 0 for cid in range(1, 9)}
        for i in range(50):
            counts[str(chambers._full_check(integer_draw(rng, i)[0]).chamber_id)] += 1
        return counts

    census = [chamber_census(50, s)["chamber_counts"] for s in range(128)]
    assert census == [full_check_counts(s) for s in range(128)]


def test_census_runs_no_full_check(monkeypatch):
    # face_census is the one place the partition is checked; the census only
    # counts, and its counts stay those pinned above
    def refuse(*args):
        raise AssertionError("_full_check called")

    monkeypatch.setattr(chambers, "_full_check", refuse)
    counts = [chamber_census(50, s)["chamber_counts"] for s in range(128)]
    assert hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest() == CENSUS_POOL_DIGEST


def test_reversed_h_vector_has_the_mirror_signs():
    # the full check takes the mirror's pattern from the reversed integer H
    # vector; on walls and rays too, it is the pattern of xi(d)
    checked = 0
    for h in half_integer_box(-4, 4):
        if not any(h):
            continue
        d = DivisorClass(3, "H", h)
        assert chambers._plane_signs(integer_h(d)[::-1]) == chambers._signs(xi(d)), h
        checked += 1
    assert checked == 4912


# -- every partition failure exit, forced on the first effective face ----------

@pytest.fixture
def first_face():
    """The first effective face face_census checks, as a class; found
    without filling the placement cache, which a test may patch REGIONS
    under."""
    h = next(h for h in itertools.chain(*chambers._faces()[1:])
             if chambers._placement.__wrapped__(chambers._plane_signs(h)).failure is None)
    d = chambers._named(h)
    # a nef class off the H1 = H3 plane, so its mirror has another sign
    # pattern, checked after it
    assert h == (0, 0, 1) and d == H(0, 0, 1)
    return d


@pytest.fixture
def fresh_placements():
    chambers._placement.cache_clear()
    chambers._cone_tests.cache_clear()
    yield
    chambers._placement.cache_clear()
    chambers._cone_tests.cache_clear()


def census_failure():
    with pytest.raises(AssertionError) as info:
        face_census()
    return str(info.value)


def replaced(record, **fields):
    values = {f: getattr(record, f) for f in record._fields}
    values.update(fields)
    return type(record)(**values)


def patch_placement(monkeypatch, d, change):
    # the placement of d's sign pattern gets the fields change(placement)
    # returns; every other pattern keeps its own
    real = chambers._placement
    target = chambers._signs(d)

    def placement(signs):
        found = real(signs)
        return replaced(found, **change(found)) if signs == target else found

    monkeypatch.setattr(chambers, "_placement", placement)


def test_several_regions_accept(monkeypatch, fresh_placements, first_face):
    monkeypatch.setattr(chambers, "REGIONS", REGIONS + (REGIONS[0],))
    assert census_failure() == "regions [1, 1] accept %r" % (first_face,)


@pytest.mark.parametrize("field, value, message", [
    ("chamber_id", 5, "duality maps chamber 1 to 5 at %r"),
    ("base_locus", frozenset({"E2"}), "duality breaks base locus at %r"),
    ("position", "ray P", "duality breaks position at %r"),
    ("model_label", MODEL_FLIP, "duality breaks model label at %r"),
])
def test_duality_breaks(monkeypatch, first_face, field, value, message):
    mirror = xi(first_face)
    patch_placement(monkeypatch, mirror, lambda p: {"report": replaced(p.report, **{field: value})})
    assert census_failure() == message % (first_face,)


def test_forced_locus_exceeds_reported(monkeypatch, first_face):
    patch_placement(monkeypatch, first_face, lambda p: {"forced": frozenset({"E2"})})
    assert census_failure() == "forced locus exceeds reported locus at %r" % (first_face,)


@pytest.mark.parametrize("mirrored", [False, True], ids=["class", "mirror"])
def test_class_escapes_the_cover(monkeypatch, first_face, mirrored):
    # the error names the class whose placement has no report
    d = xi(first_face) if mirrored else first_face
    patch_placement(monkeypatch, d, lambda p: {"report": None, "failure": None})
    with pytest.raises(RuntimeError) as info:
        face_census()
    assert str(info.value) == "effective class escaped the chamber cover: %r" % (d,)


def test_census_escaped_cover_raises(monkeypatch):
    # a draw without a report fails in the census too, named by its class
    d = census_draws(1, 0)[0]
    patch_placement(monkeypatch, d, lambda p: {"report": None, "failure": None})
    with pytest.raises(RuntimeError) as info:
        chamber_census(1, 0)
    assert str(info.value) == "effective class escaped the chamber cover: %r" % (d,)


def test_empty_locus_differs_from_nef(monkeypatch, fresh_placements, first_face):
    spec = REGIONS[0]
    moved = RegionSpec(spec.chamber_id, spec.cones, spec.position_basis, frozenset({"E2"}))
    monkeypatch.setattr(chambers, "REGIONS", (moved,) + REGIONS[1:])
    assert census_failure() == "empty locus must coincide with nef at %r" % (first_face,)


def test_import_builds_no_rows_or_placements():
    # plane table, cone tests, reports and placements are built on first
    # use, not at import, so the benchmark's set-up time cannot absorb them
    code = (
        "import completequadrics\n"
        "from completequadrics import chambers\n"
        "caches = (chambers._plane_table, chambers._cone_tests, chambers._report_for,\n"
        "          chambers._placement)\n"
        "print([f.cache_info().currsize for f in caches])\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0, 0]\n"


# -- the constant tables: built in integers, and never read stale --------------

@pytest.fixture
def cold_tables():
    """Every table the classifier builds on first use, cleared before and
    after the test."""
    caches = (chambers._plane_table, chambers._faces, chambers._cone_tests, chambers._placement)

    def clear():
        for cache in caches:
            cache.cache_clear()

    clear()
    yield
    clear()


def test_cold_census_solves_nothing(monkeypatch, cold_tables):
    # the plane table comes from integer cross products of the generators'
    # H vectors (facet_rows): no Picard conversion and no linear solve,
    # wherever a module holds them
    from completequadrics import exact, picard

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError("%s called" % name)
        return call

    for name in ("convert", "solve_exact"):
        for module in (exact, picard, chambers):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse(name))
    normals, facets, forcing = chambers._plane_table()
    assert len(normals) == 11
    assert chamber_census(50, 0)["samples"] == 50
    assert face_census()["non_effective"] == 141
    assert chambers._placement.cache_info().currsize > 0


def test_dependent_generators_are_refused(monkeypatch, cold_tables):
    # P + 4 E2 = 6 H2: the triple has no facet rows
    spec = REGIONS[0]
    bad = RegionSpec(spec.chamber_id, spec.cones, ("H2", "P", "E2"), spec.base_locus)
    monkeypatch.setattr(chambers, "REGIONS", (bad,) + REGIONS[1:])
    with pytest.raises(ValueError, match="linearly dependent"):
        chambers._plane_table()


def test_patched_regions_change_the_answers(monkeypatch, fresh_placements):
    # the nef cone with strict walls no longer owns its boundary; a cone is
    # compiled under its own key, so the old cone's tests are not read
    assert accepting_regions(H(1, 1, 0)) == [1]
    chambers._placement.cache_clear()
    spec = REGIONS[0]
    strict = RegionSpec(spec.chamber_id, ((("H1", "H2", "H3"), (">", ">", ">")),), spec.position_basis,
                        spec.base_locus)
    monkeypatch.setattr(chambers, "REGIONS", (strict,) + REGIONS[1:])
    assert accepting_regions(H(1, 1, 0)) == []
    assert accepting_regions(H(1, 1, 1)) == [1]


def test_patched_plane_table_changes_the_answers(monkeypatch, fresh_placements):
    # the fixture clears the compiled cone tests along with the placements,
    # so a plane table with the nef cone's first facet reversed is read
    normals, facets, forcing = chambers._plane_table()
    (plane, orient), *rest = facets[("H1", "H2", "H3")]
    flipped = dict(facets)
    flipped[("H1", "H2", "H3")] = ((plane, -orient), *rest)
    monkeypatch.setattr(chambers, "_plane_table", lambda: (normals, flipped, forcing))
    assert accepting_regions(H(1, 1, 1)) == []
    # E2 + E3, which region 6 owns, now lies in the reversed nef cone too
    assert accepting_regions(H(-1, 1, 1)) == [1, 6]
