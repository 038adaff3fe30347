"""The curve-divisor intersection table of the n = 3 space, three ways.

First the table itself, then a spot check that pencil families count
the same numbers geometrically, then the derivation of the nef classes H2
and H3 from nothing but their intersection numbers against three curves.
"""

from completequadrics import convert, curves_x3, derive_class_from_pairings, table_x3
from completequadrics.picard import CURVE_DISPLAY, H2_3, H3_3
from completequadrics.verify import direct_count_entries


def main():
    print("intersection numbers (rows: curves, columns: divisor classes)")
    print("%-6s %4s %4s %4s %4s %4s %4s   covers" % ("", "H1", "H2", "H3", "E1", "E2", "E3"))
    for row in table_x3():
        cells = " ".join("%4d" % e for e in row.entries)
        print("%-6s %s   %s" % (CURVE_DISPLAY[row.curve], cells, row.cover))
    print()

    entries = direct_count_entries(seed=0)
    print("13 of the entries, 9 recounted on one pencil per family (the other 4 repeat one):")
    for label, count, _ in sorted(entries):
        print("  %-10s counted %d" % (label, count))
    agree = all(count == pairing for _, count, pairing in entries)
    print("  every count equals the lattice pairing:", agree)
    print()

    curves = curves_x3()
    g, c2, l2 = curves["G"], curves["C2"], curves["L2"]
    h2 = derive_class_from_pairings([(g, 2), (c2, 0), (l2, 0)], n=3, basis="mixed")
    h3 = derive_class_from_pairings([(g, 3), (c2, 0), (l2, 1)], n=3, basis="mixed")
    print("classes recovered from prescribed pairings (mixed basis H1, E1, E2):")
    print("  H2 =", tuple(int(c) for c in h2.coeffs),
          " i.e. 2H1 - E1      ->", convert(h2, "H") == H2_3)
    print("  H3 =", tuple(int(c) for c in h3.coeffs),
          " i.e. 3H1 - 2E1 - E2 ->", convert(h3, "H") == H3_3)


if __name__ == "__main__":
    main()
