"""Limits of Chow forms along two degenerating pencils of quadric surfaces.

Both families start at a smooth-looking member and head toward a rank-drop.
The limit of the family of Chow forms is supported on predictable monomials
in line (Pluecker) coordinates: a double hyperplane p0^2 for the rank-2
degeneration, and the marking conic of the kernel-plane quadric for the
rank-1 degeneration.
"""

from completequadrics import SymmetricForm, chow_limit, limit_support_coefficients


def show(title, q0, q1, k=2):
    pt = chow_limit(q0, q1, k)
    support = limit_support_coefficients(pt)
    print(title)
    print("  limit support in p_i p_j monomials:")
    for (i, j), c in sorted(support.items()):
        print("    p%d p%d : %s" % (i, j, c))
    print()


def main():
    # family 1: Q(t) = xy + t(z^2 + w^2), rank 2 at t = 0
    q0 = SymmetricForm.from_rational(
        [[0, "1/2", 0, 0], ["1/2", 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    )
    q1 = SymmetricForm.diagonal([0, 0, 1, 1])
    show("rank-2 limit of xy + t(z^2 + w^2):", q0, q1)

    # family 2: Q(t) = x^2 + t(y^2 + 3yz + zw), rank 1 at t = 0; the limit
    # remembers the quadric induced on the kernel plane {x = 0}
    q0 = SymmetricForm.diagonal([1, 0, 0, 0])
    q1 = SymmetricForm.from_rational(
        [
            [0, 0, 0, 0],
            [0, 1, "3/2", 0],
            [0, "3/2", 0, "1/2"],
            [0, 0, "1/2", 0],
        ]
    )
    show("rank-1 limit of x^2 + t(y^2 + 3yz + zw):", q0, q1)

    # the second support is proportional to the coefficients (1, 3, 1) of
    # the restricted form y^2 + 3yz + zw read in the kernel coordinates
    print("the rank-1 support is the kernel-plane quadric y^2 + 3yz + zw, up to scale")


if __name__ == "__main__":
    main()
