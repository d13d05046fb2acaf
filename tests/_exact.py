"""Exact arithmetic for judging float answers, standard library only.

Every finite float is a dyadic rational, so ``fractions.Fraction`` reads each
entry of a matrix exactly, and Gaussian elimination over the rationals gives
its exact rank.  A system is exactly invertible when its assembled K has rank
ell; the dense oracle, which cuts singular values at a normwise threshold, can
disagree with that near the cut, and counting those disagreements tells a
numerical miss from a wrong theorem.  Symmetric elimination over the rationals
likewise gives the exact inertia of a symmetric matrix, which judges its float
definiteness tag and nullity.
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


def inertia(M) -> tuple[int, int, int]:
    """(n+, n-, n0), the exact counts of positive, negative and zero eigenvalues of the
    symmetric M, by symmetric elimination over Fractions: each pivot's inertia adds to
    that of its Schur complement (Sylvester's law of inertia).  A nonzero leading diagonal
    entry is a 1 x 1 pivot; on a zero one, the first nonzero entry b of its row gives the
    2 x 2 pivot [[0, b], [b, c]], whose determinant -b^2 < 0 makes one eigenvalue positive
    and one negative; a zero row is a zero eigenvalue."""
    S, pos, neg, zero = [[Fraction(float(x)) for x in row] for row in M], 0, 0, 0
    while S:
        d, j = S[0][0], next((j for j in range(1, len(S)) if S[0][j]), None)
        if d:
            pivot, inv = [0], [[1 / d]]
            pos, neg = (pos + 1, neg) if d > 0 else (pos, neg + 1)
        elif j is None:
            zero += 1
            S = [row[1:] for row in S[1:]]
            continue
        else:
            b, c = S[0][j], S[j][j]
            pivot, inv = [0, j], [[-c / b ** 2, 1 / b], [1 / b, 0]]  # [[0, b], [b, c]]^{-1}
            pos, neg = pos + 1, neg + 1
        rest = [i for i in range(len(S)) if i not in pivot]
        S = [[S[r][c] - sum(S[r][p] * inv[a][b] * S[q][c] for a, p in enumerate(pivot)
                            for b, q in enumerate(pivot))
              for c in rest] for r in rest]
    return pos, neg, zero
