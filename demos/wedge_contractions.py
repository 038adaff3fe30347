"""Which flag directions does the k-th wedge construction contract?

For a one-parameter family of complete flags degenerating in the j-th step,
the induced family of k-th compound matrices either moves (j = k) or is
projectively constant (j != k). The 6 x 6 limit for n = 3, k = 2 is worked
out explicitly: it is the rank-one outer product of the wedge coordinates
of the limiting plane.
"""

from completequadrics import flag_wedge
from completequadrics.chowform import wedge2_example_matrix

NAMES = ("t1", "t2", "t3")


def entry_text(entry):
    """A {exponent tuple: coefficient} polynomial in t1, t2, t3, highest
    exponent tuple first, as "t1*t2^2"; the zero polynomial is "0"."""
    terms = []
    for exps, c in sorted(entry.items(), reverse=True):
        mono = "*".join(v if e == 1 else "%s^%d" % (v, e) for v, e in zip(NAMES, exps) if e)
        terms.append(mono if c == 1 and mono else "%d*%s" % (c, mono) if mono else str(c))
    return " + ".join(terms) or "0"


def main():
    print("projective constancy of the k-th wedge limit in the j-th direction:")
    for n in (2, 3, 4):
        print("  n = %d" % n)
        for k in range(1, n + 1):
            row = []
            for j in range(1, n + 1):
                row.append("const" if flag_wedge(n, k, j) else "moves")
            print("    k = %d : %s" % (k, "  ".join(row)))
    print("  (the family moves exactly when j = k)")
    print()

    m = wedge2_example_matrix()
    print("the n = 3, k = 2 limit matrix in wedge coordinates:")
    for row in m:
        print("   ", "  ".join("%-8s" % entry_text(e) for e in row))
    print()
    print("rank one: every entry is v_i * v_j for v = (1, t2, 0, t1 t2, 0, 0);")
    print("in particular entry (2,2) is t2^2, which the outer-product structure forces")


if __name__ == "__main__":
    main()
