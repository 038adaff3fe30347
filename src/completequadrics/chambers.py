"""Stable-base-locus chambers of the effective cone, n = 3.

The effective cone of the space of complete quadric surfaces is cut into
eight regions; inside each, the stable base locus of every divisor is the
same configuration of boundary divisors.  Each region is the cone over a
triangle of named generators, with half-open walls deciding ownership of
shared faces.

The classifier solves no linear system, per class or at set-up.  The facet
rows of a generator triple (a, b, c) are the cross products b x c, c x a and
a x b of its integer H vectors, signed by det(a, b, c) (picard.facet_rows):
positive multiples of the rows of the inverse generator matrix.  These rows,
for each triple named in REGIONS and for the effective cone over E1, E2, E3,
and every forcing-curve pairing lie on one of eleven planes through the
origin.  A class's sign pattern is the signs of the dot products of any
positive multiple of its integer H vector with the eleven plane normals:
each public call scales the H vector to integers once (picard.integer_h);
the censuses read the integer vector a face or a draw holds, and face_census
the mirror's as that vector reversed.  Region, position, nef and effectivity
tests and forced loci are then read from one placement per sign pattern,
built on first use and cached; each cone's test is compiled once into
(plane, orientation, strict) facets (_cone_tests).  The eleven planes cut
R^3 into exactly 231 faces (_faces), so at most 231 placements exist.  Wall
points therefore resolve exactly and deterministically, and face_census
checks the partition on one class of every face.  For the same reason
chamber_census only counts its draws: a drawn class has the sign pattern,
and so the answers, of a face.

The duality involution (H1 <-> H3, E1 <-> E3) permutes the regions as
(3 4)(6 7) and fixes the rest; the region data below is arranged so the
classification commutes with it everywhere, including on walls and rays.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from fractions import Fraction

from ._value import Record
from .exact import parse_rat
from .picard import (
    CURVE_TABLE_X3,
    DivisorClass,
    E1_3,
    E2_3,
    E3_3,
    H1_3,
    H2_3,
    H3_3,
    _cross,
    class_P,
    convert,
    curves_x3,
    facet_rows,
    integer_h,
    pair,
)
from .quadrics import _randbelow

GENERATORS = {
    "H1": H1_3,
    "H2": H2_3,
    "H3": H3_3,
    "P": class_P(),
    "E1": E1_3,
    "E2": E2_3,
    "E3": E3_3,
}

_GEN_ORDER = tuple(GENERATORS)
# the generators' H coordinates, all integers
_GEN_H = {name: tuple(int(c) for c in convert(d, "H").coeffs) for name, d in GENERATORS.items()}

# E13 stands for the surface E1 n E3 inside either divisor
_LOCUS_LABEL = {
    frozenset(): "empty",
    frozenset({"E13"}): "E1 cap E3",
    frozenset({"E1"}): "E1",
    frozenset({"E3"}): "E3",
    frozenset({"E2"}): "E2",
    frozenset({"E1", "E3"}): "E1 cup E3",
    frozenset({"E2", "E3"}): "E2 cup E3",
    frozenset({"E1", "E2"}): "E1 cup E2",
}


def locus_label(pieces) -> str:
    return _LOCUS_LABEL[frozenset(pieces)]


def locus_subset(forced, reported) -> bool:
    """Containment of locus unions as point sets, not as piece sets.

    E13 lies inside both E1 and E3, so a forced E13 is covered by either;
    a full divisor piece is only covered by itself.
    """
    rep = frozenset(reported)
    for piece in forced:
        if piece in rep:
            continue
        if piece == "E13" and ("E1" in rep or "E3" in rep):
            continue
        return False
    return True


class RegionSpec(Record):
    # cones: acceptance cones, tuples (generator names, per-coordinate flags),
    # flag ">=" closed or ">" strict; a point is accepted by the region if
    # some cone accepts it (and, for the last region, it is not nef).
    # position_basis: generator names used only for reporting.
    _fields = ("chamber_id", "cones", "position_basis", "base_locus", "exclude_nef")
    _defaults = {"exclude_nef": False}


REGIONS = (
    RegionSpec(1, ((("H1", "H2", "H3"), (">=", ">=", ">=")),), ("H1", "H2", "H3"), frozenset()),
    RegionSpec(2, ((("H1", "H3", "P"), (">=", ">=", ">")),), ("H1", "H3", "P"), frozenset({"E13"})),
    RegionSpec(3, ((("H3", "E3", "P"), (">=", ">", ">=")),), ("H3", "E3", "P"), frozenset({"E3"})),
    RegionSpec(4, ((("H1", "E1", "P"), (">=", ">", ">=")),), ("H1", "E1", "P"), frozenset({"E1"})),
    RegionSpec(5, ((("P", "E1", "E3"), (">=", ">", ">")),), ("P", "E1", "E3"), frozenset({"E1", "E3"})),
    RegionSpec(6, ((("H3", "E2", "E3"), (">=", ">", ">")),), ("H3", "E2", "E3"), frozenset({"E2", "E3"})),
    RegionSpec(7, ((("H1", "E1", "E2"), (">=", ">", ">")),), ("H1", "E1", "E2"), frozenset({"E1", "E2"})),
    RegionSpec(
        8,
        ((("H1", "H2", "E2"), (">=", ">=", ">=")), (("H2", "H3", "E2"), (">=", ">=", ">="))),
        ("H1", "H3", "E2"),
        frozenset({"E2"}),
        exclude_nef=True,
    ),
)

MODEL_X3 = "X3"
MODEL_P9 = "P9 = Hilb^((x+1)^2)(P3)"
MODEL_P9_DUAL = "P9*"
MODEL_CHOW = "Chow2(1,X3)"
MODEL_SMALL = "C/(Z/2)"
MODEL_FLIP = "X3+ (flip)"
MODEL_P_RAY = "G(2,5)/(Z/2)"


class ChamberReport(Record):
    # position: "interior", "ray X" or "wall X,Y" in the region's triple
    _fields = ("chamber_id", "position", "base_locus", "base_locus_label", "model_label",
               "notes", "certificate")
    _defaults = {"notes": (), "certificate": None}

    def to_json(self) -> dict:
        return {
            "chamber": self.chamber_id,
            "position": self.position,
            "base_locus_pieces": sorted(self.base_locus),
            "base_locus": self.base_locus_label,
            "model": self.model_label,
            "notes": list(self.notes),
            "certificate": self.certificate,
        }


# the effective cone is the cone over the boundary divisors
_EFF = (("E1", "E2", "E3"), (">=", ">=", ">="))
_NEF = (("H1", "H2", "H3"), (">=", ">=", ">="))


@functools.cache
def _plane_table() -> tuple:
    """The distinct planes of the classifier's rows, and where each row lies.

    The facet rows of each generator triple in REGIONS or _EFF are
    picard.facet_rows of the generators' integer H vectors; the
    forcing-curve rows are the curves' Fl coordinates.  Each row is a
    positive or negative multiple of one of a few primitive integer normals
    (11 of them for 33 facet rows).  Returns the normals, the (plane index,
    orientation) pair of each triple's rows, and the (plane index,
    orientation, piece) of each forcing curve: a row's dot product with a
    class has the sign of orientation times the sign of the plane's.  Built
    on first use, from the integer vectors in _GEN_H and CURVE_TABLE_X3
    alone.
    """
    normals = {}

    def place(row):
        orient = 1 if next(x for x in row if x) > 0 else -1
        g = math.gcd(*row)
        normal = tuple(orient * x // g for x in row)
        return normals.setdefault(normal, len(normals)), orient

    triples = [gens for spec in REGIONS for gens, _ in spec.cones]
    triples += [spec.position_basis for spec in REGIONS] + [_EFF[0]]
    facets = {gens: tuple(map(place, facet_rows(*(_GEN_H[g] for g in gens))))
              for gens in dict.fromkeys(triples)}
    fl = {name: coeffs for name, coeffs, _ in CURVE_TABLE_X3}
    forcing = tuple(place(fl[name]) + (piece,) for name, piece in FORCING_CURVES)
    return tuple(normals), facets, forcing


@functools.cache
def _cone_tests(cone) -> tuple:
    """A cone (generator names, flags), compiled once from _plane_table:
    one (plane index, orientation, strict) per facet.

    Keyed by the cone itself, so a cone of a patched REGIONS or _EFF gets
    its own entry; clear it together with _plane_table.
    """
    gens, flags = cone
    return tuple((plane, orient, flag == ">") for (plane, orient), flag in zip(_plane_table()[1][gens], flags))


def _signs(d: DivisorClass) -> tuple:
    """The sign pattern of a class: _plane_signs of its integer H vector."""
    if d.n != 3:
        raise ValueError("chamber decomposition is for the n = 3 space")
    return _plane_signs(integer_h(d))


def _plane_signs(h) -> tuple:
    """Signs of an integer H vector against each plane normal; a positive
    multiple of the vector has the same signs."""
    x, y, z = h
    return tuple([((v := a * x + b * y + c * z) > 0) - (v < 0) for a, b, c in _plane_table()[0]])


@functools.cache
def _faces() -> tuple:
    """One integer H vector per face of the planes' arrangement, by dimension.

    Returns (apex, rays, 2-faces, chambers), each a tuple of vectors with
    distinct sign patterns; a face's dimension is read off its count of zero
    signs: all for the apex, two or more for a ray, one for a 2-face, none
    for a chamber.  Rays are +- the cross product of each pair of normals.
    The normals span R^3, so each 2-face is a sector of its plane bounded by
    two rays, and their sum lies inside it.  Each chamber has a 2-face facet
    f, on the plane with normal n: every other plane's dot product with f
    is a nonzero integer, so m f + n and m f - n, with m above every
    |n . n'|, lie in the two chambers on either side of f.  The apex is the
    sum of opposite rays.  Euler's relation on the sphere, rays - 2-faces +
    chambers = 2, is checked.  Built on first use.
    """
    normals = _plane_table()[0]
    found = {}
    for a, b in itertools.combinations(normals, 2):
        c = _cross(a, b)
        for v in (c, tuple(-x for x in c)):
            found.setdefault(_plane_signs(v), v)
    for u, v in itertools.combinations(list(found.values()), 2):
        w = tuple(map(operator.add, u, v))
        found.setdefault(_plane_signs(w), w)
    # |n . n'| <= max |n|^2
    m = 1 + max(x * x + y * y + z * z for x, y, z in normals)
    for signs, f in list(found.items()):
        if signs.count(0) == 1:
            n = normals[signs.index(0)]
            for s in (1, -1):
                w = tuple(m * x + s * y for x, y in zip(f, n))
                found.setdefault(_plane_signs(w), w)
    by_dim = ([], [], [], [])
    for signs, v in found.items():
        zeros = signs.count(0)
        by_dim[0 if zeros == len(normals) else 1 if zeros > 1 else 3 - zeros].append(v)
    sizes = tuple(map(len, by_dim[1:]))
    if sizes[0] - sizes[1] + sizes[2] != 2:
        raise RuntimeError("faces break Euler's relation: %d rays, %d 2-faces, %d chambers" % sizes)
    return tuple(map(tuple, by_dim))


def _cone_accepts(signs, cone) -> bool:
    # a strict facet needs a positive oriented sign, a closed one a nonnegative
    for plane, orient, strict in _cone_tests(cone):
        if orient * signs[plane] < strict:
            return False
    return True


def _position(spec: RegionSpec, signs) -> str:
    facets = _plane_table()[1][spec.position_basis]
    support = [g for g, (plane, _) in zip(spec.position_basis, facets) if signs[plane]]
    if len(support) == 3:
        return "interior"
    if len(support) == 1:
        return "ray %s" % support[0]
    support.sort(key=_GEN_ORDER.index)
    return "wall %s,%s" % (support[0], support[1])


_NEF_MODELS = {
    "interior": MODEL_X3,
    "ray H1": MODEL_P9,
    "ray H2": MODEL_CHOW,
    "ray H3": MODEL_P9_DUAL,
    "wall H1,H3": MODEL_SMALL,
}


@functools.cache
def _report_for(spec: RegionSpec, position: str) -> ChamberReport:
    # one report per (region, position), shared by every sign pattern that
    # gets it, so it carries no certificate
    model = None
    notes = ()
    if spec.chamber_id == 1:
        model = _NEF_MODELS.get(position)
        if position == "wall H1,H3":
            notes = ("small contraction; exceptional locus is E1 cap E3",)
        elif model is None:
            notes = ("nef boundary face; the induced contraction is not named here",)
    elif spec.chamber_id == 2:
        if position == "ray P":
            model = MODEL_P_RAY
            notes = (
                "base locus value on this ray taken from the surrounding region; "
                "the covering-curve pairings force the same locus here",
            )
        elif position == "interior":
            model = MODEL_FLIP
    return ChamberReport(
        chamber_id=spec.chamber_id,
        position=position,
        base_locus=spec.base_locus,
        base_locus_label=locus_label(spec.base_locus),
        model_label=model,
        notes=notes,
    )


class _Placement(Record):
    # one sign pattern's answers: the accepting chamber ids, classify's
    # report (None when it raises, with the ValueError message in failure,
    # or failure None when the class escaped the cover) and the forced pieces
    _fields = ("accepted", "report", "failure", "forced")


@functools.cache
def _placement(signs: tuple) -> _Placement:
    """Every public answer for one sign pattern, built once.

    The eleven planes cut R^3 into 231 faces (_faces), so the cache holds
    at most that many patterns.
    """
    nef = _cone_accepts(signs, _NEF)
    accepted = [
        spec
        for spec in REGIONS
        if not (spec.exclude_nef and nef) and any(_cone_accepts(signs, cone) for cone in spec.cones)
    ]
    forced = frozenset(piece for plane, orient, piece in _plane_table()[2] if orient * signs[plane] < 0)
    report = failure = None
    if not any(signs):
        failure = "zero class has no chamber"
    elif not _cone_accepts(signs, _EFF):
        failure = "class is not effective"
    elif accepted:
        report = _report_for(accepted[0], _position(accepted[0], signs))
    return _Placement(tuple(spec.chamber_id for spec in accepted), report, failure, forced)


def accepting_regions(d: DivisorClass) -> list:
    return list(_placement(_signs(d)).accepted)


def _reported(placement: _Placement, d: DivisorClass) -> ChamberReport:
    """The placement's shared report for the class d, or the error classify
    raises for it."""
    if placement.report is None:
        if placement.failure is not None:
            raise ValueError(placement.failure)
        raise RuntimeError("effective class escaped the chamber cover: %r" % (d,))
    return placement.report


def classify(d: DivisorClass) -> ChamberReport:
    """Locate an effective divisor class in the chamber decomposition."""
    report = _reported(_placement(_signs(d)), d)
    if report.model_label == MODEL_SMALL:
        # the small-contraction wall's certificate (the last field) is this
        # class's own pairing; the other fields are the shared report's
        certificate = {"pair(C12,D)": str(pair(curves_x3()["C12"], d))}
        return ChamberReport(*report._astuple(report)[:-1], certificate=certificate)
    return report


def classify_segment(t) -> ChamberReport:
    """Report for t*H1 + (1-t)*H3 on the closed segment 0 <= t <= 1.

    The open part is the small-contraction wall; the endpoints hand off to
    the ray reports of H1 and H3.  t is read by parse_rat, as the
    coefficients of a DivisorClass are.
    """
    t = parse_rat(t)
    if not 0 <= t <= 1:
        raise ValueError("t must lie in [0, 1]")
    d = DivisorClass(3, "H", (t, 0, 1 - t))
    return classify(d)


# covering curves and the locus piece each one sweeps: the curves of the
# n = 3 table whose cover is a boundary piece, not X3
FORCING_CURVES = tuple((name, cover) for name, _, cover in CURVE_TABLE_X3 if cover != "X3")


def forced_base_loci(d: DivisorClass) -> frozenset:
    """Locus pieces forced into the base locus by negative curve pairings.

    Each listed curve moves in a family covering its locus, so a divisor
    pairing negatively with it must contain the whole locus.
    """
    return _placement(_signs(d)).forced


_XI_GEN = {"H1": "H3", "H3": "H1", "E1": "E3", "E3": "E1"}
_XI_CHAMBER = {1: 1, 2: 2, 3: 4, 4: 3, 5: 5, 6: 7, 7: 6, 8: 8}
_XI_MODEL = {MODEL_P9: MODEL_P9_DUAL, MODEL_P9_DUAL: MODEL_P9}


def _xi_pieces(pieces) -> frozenset:
    return frozenset(_XI_GEN.get(p, p) for p in pieces)


def _xi_position(position: str) -> str:
    if position == "interior":
        return position
    kind, _, names = position.partition(" ")
    mapped = [_XI_GEN.get(g, g) for g in names.split(",")]
    mapped.sort(key=_GEN_ORDER.index)
    return "%s %s" % (kind, ",".join(mapped))


@functools.cache
def _h_rows(gens) -> tuple:
    # row i holds the i-th H coordinate of each generator in gens
    return tuple(zip(*(_GEN_H[g] for g in gens)))


def _drawn(coeffs, gens) -> list:
    # H coordinates of the class with coordinates coeffs in gens, both scaled by den
    a, b, c = coeffs
    return [a * x + b * y + c * z for x, y, z in _h_rows(gens)]


def _named(h, den: int = 1) -> DivisorClass:
    # the class whose H vector times den is h, built only to name it in a failure
    return DivisorClass(3, "H", tuple(Fraction(x, den) for x in h))


def _sample_region(rng, chamber_id: int) -> list:
    """A class from a region's cone, as its H vector times 2."""
    spec = REGIONS[chamber_id - 1]
    gens, flags = spec.cones[_randbelow(rng, len(spec.cones))]
    lows = [1 if flag == ">" else 0 for flag in flags]
    while True:
        # each coordinate is num / den with num in low..6 and den 1, 1 or 2
        # (randint, then choice); twice it is an integer
        coeffs = [(low + _randbelow(rng, 7 - low)) * (2, 2, 1)[_randbelow(rng, 3)] for low in lows]
        if spec.chamber_id == 1 and not any(coeffs):
            continue
        if spec.exclude_nef and coeffs[2] == 0:
            continue  # the E2 coordinate must be positive to leave the nef cone
        return _drawn(coeffs, gens)


def _sample_effective(rng) -> list:
    """A class with random nonnegative E coordinates, as its H vector times 3."""
    while True:
        # each E coordinate is 0 or num / den with num in 1..12 and den 1, 1
        # or 3 (randint, then choice); three times it is an integer
        coeffs = [
            0 if rng.random() < 0.15 else (1 + _randbelow(rng, 12)) * (3, 3, 1)[_randbelow(rng, 3)]
            for _ in range(3)
        ]
        if any(coeffs):
            return _drawn(coeffs, _EFF[0])


def _full_check(h) -> ChamberReport:
    """Run every partition check at one effective class; return its report.

    h is an integer H vector of the class.  Two placements are read,
    from the signs of h and of the reversed vector, the mirror's under
    picard.xi (H1 <-> H3).  They hold what accepting_regions, classify (apart
    from the small-wall certificate) and forced_base_loci return.  It checks
    that exactly one region accepts, that classification commutes with the
    duality involution, that curve-forced loci are contained in the reported
    locus, and that the locus is empty exactly on the nef cone; a class is
    built only to name it in a failure.
    """
    placement = _placement(_plane_signs(h))
    if len(placement.accepted) != 1:
        raise AssertionError("regions %r accept %r" % (list(placement.accepted), _named(h)))
    # _reported, which needs the class to name it, runs only without a report
    report = placement.report or _reported(placement, _named(h))

    dual = _placement(_plane_signs(h[::-1]))
    mirror = dual.report or _reported(dual, _named(h[::-1]))
    if mirror.chamber_id != _XI_CHAMBER[report.chamber_id]:
        raise AssertionError("duality maps chamber %d to %d at %r"
                             % (report.chamber_id, mirror.chamber_id, _named(h)))
    if mirror.base_locus != _xi_pieces(report.base_locus):
        raise AssertionError("duality breaks base locus at %r" % (_named(h),))
    if mirror.position != _xi_position(report.position):
        raise AssertionError("duality breaks position at %r" % (_named(h),))
    if mirror.model_label != _XI_MODEL.get(report.model_label, report.model_label):
        raise AssertionError("duality breaks model label at %r" % (_named(h),))

    if not locus_subset(placement.forced, report.base_locus):
        raise AssertionError("forced locus exceeds reported locus at %r" % (_named(h),))
    if (report.base_locus == frozenset()) != all(c >= 0 for c in h):
        raise AssertionError("empty locus must coincide with nef at %r" % (_named(h),))
    return report


def face_census() -> dict:
    """Check the partition on one class of every face of the arrangement.

    Every answer of the classifier depends only on a class's sign pattern,
    and _faces holds one vector of each pattern, so this covers every
    nonzero class.  Each effective face gets _full_check, every partition
    check; no region may accept a non-effective face.  Returns the face
    counts by dimension, the effective faces per chamber and the number of
    non-effective faces.
    """
    faces = _faces()
    counts = {cid: 0 for cid in range(1, 9)}
    non_effective = 0
    for h in itertools.chain(*faces[1:]):
        placement = _placement(_plane_signs(h))
        if placement.failure is None:
            counts[_full_check(h).chamber_id] += 1
        elif placement.accepted:
            raise AssertionError("regions %r accept non-effective %r"
                                 % (list(placement.accepted), _named(h)))
        else:
            non_effective += 1
    return {
        "faces": dict(zip(("apex", "rays", "2-faces", "chambers"), map(len, faces))),
        "chamber_faces": {str(cid): counts[cid] for cid in range(1, 9)},
        "non_effective": non_effective,
    }


def chamber_census(samples: int, seed: int) -> dict:
    """Count seeded random effective classes by the chamber that owns them.

    Alternates region-targeted samples (so every chamber is exercised) with
    uniform effective samples.  Each sample is an integer vector, its class's H
    vector times a fixed denominator, and is counted by its placement alone:
    its draw, its sign pattern and one placement lookup.  It checks nothing
    face_census does not: every check reads a class through its sign pattern
    alone, and face_census checks one class of every pattern.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    counts = {cid: 0 for cid in range(1, 9)}
    for i in range(samples):
        if i % 2 == 0:
            h, den = _sample_region(rng, (i // 2) % 8 + 1), 2
        else:
            h, den = _sample_effective(rng), 3
        placement = _placement(_plane_signs(h))
        counts[(placement.report or _reported(placement, _named(h, den))).chamber_id] += 1
    result = {
        "samples": samples,
        "chamber_counts": {str(cid): counts[cid] for cid in range(1, 9)},
        "all_eight_hit": all(counts[cid] > 0 for cid in range(1, 9)),
    }
    if samples >= 1000 and not result["all_eight_hit"]:
        raise AssertionError("some chamber was never sampled: %r" % (counts,))
    return result
