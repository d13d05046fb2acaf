"""Exact arithmetic for judging float answers, standard library only.

Every finite float is a dyadic rational, so ``fractions.Fraction`` reads each
entry of a matrix exactly, and Gaussian elimination over the rationals gives
its exact rank.  A system is exactly invertible when its assembled K has rank
ell; the dense oracle, which cuts singular values at a normwise threshold, can
disagree with that near the cut, and counting those disagreements tells a
numerical miss from a wrong theorem.
"""

from fractions import Fraction


def rank(M) -> int:
    """The exact rank of M, each entry read as a Fraction, by Gaussian elimination."""
    rows, r = [[Fraction(float(x)) for x in row] for row in M], 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r
