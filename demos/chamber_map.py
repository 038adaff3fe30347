"""A tour of the eight chambers of the effective cone for n = 3.

Walks the segment from H1 to H3 through the movable region, classifies one
divisor class per chamber, and finishes with the face census: the partition
property checked on one class of every face of the classifier's planes.
"""

from fractions import Fraction

from completequadrics import DivisorClass, classify, classify_segment
from completequadrics.chambers import face_census


def line(report):
    locus = report.base_locus_label
    model = report.model_label or "(no model claim)"
    return "chamber %d  %-12s locus %-14s %s" % (
        report.chamber_id, report.position, locus, model
    )


def main():
    print("walking t*H1 + (1-t)*H3 for t from 0 to 1:")
    for t in (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1):
        print("  t = %-4s" % t, line(classify_segment(t)))
    print()

    samples = [
        ("H1+H2+H3 (interior of nef)", DivisorClass(3, "H", (1, 1, 1))),
        ("H1+H3+P  (flipped side)", DivisorClass(3, "H", (5, -2, 5))),
        ("P ray", DivisorClass(3, "H", (4, -2, 4))),
        ("H3+E3 side", DivisorClass(3, "H", (0, -1, 3))),
        ("E1+E2", DivisorClass(3, "E", (1, 1, 0))),
        ("E2 ray", DivisorClass(3, "E", (0, 1, 0))),
    ]
    print("classifying sample divisor classes:")
    for name, d in samples:
        print("  %-28s" % name, line(classify(d)))
    print()

    census = face_census()
    print("census of the %d faces of the chamber planes:" % sum(census["faces"].values()))
    for cid in sorted(census["chamber_faces"], key=int):
        print("  chamber %s: %3d faces" % (cid, census["chamber_faces"][cid]))
    print("  non-effective faces, accepted by no region: %d" % census["non_effective"])


if __name__ == "__main__":
    main()
