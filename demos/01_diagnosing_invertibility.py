"""Walk through the invertibility decision ladder on small systems.

A double saddle-point matrix couples three unknown groups:

    K = [[A,  B^T, 0  ],
         [B, -D,   C^T],
         [0,  C,   E  ]]

Whether K is invertible depends on how the kernels and ranges of the five
blocks interact.  This script builds a few systems by hand and shows which
rule of the ladder decides each one.
"""

import numpy as np

from dsaddle import (
    BlockSystem,
    Verdict,
    assemble,
    diagnose,
    necessary_conditions,
    oracle_invertible,
    permute_similar,
)


def show(title, sys):
    print(f"\n=== {title} ===")
    print("K =")
    print(assemble(sys).matrix)
    diag = diagnose(sys)
    print(f"verdict: {diag.verdict.value}   rule: {diag.rule}")
    print(f"dense oracle: invertible={oracle_invertible(sys)}")
    if diag.verdict is Verdict.SINGULAR:
        u = diag.witness
        resid = np.linalg.norm(assemble(sys).matrix @ u)
        print(f"kernel witness u = {np.round(u, 6)}  with ||K u|| = {resid:.2e}")
    return diag


# A positive definite leading block lets the two Schur complements decide.
pd_leading = BlockSystem(
    A=np.array([[2.0]]), B=np.array([[1.0]]), C=np.array([[1.0]]),
    D=np.array([[0.0]]), E=np.array([[3.0]]))
show("positive definite A: Schur complements S1, S2", pd_leading)

# The running example: A is singular (maximally so: null(A) = m), yet the
# system is invertible because E is.
running = BlockSystem(
    A=np.diag([0.0, 1.0]), B=np.array([[1.0, 0.0]]),
    C=np.array([[1.0]]), E=np.array([[2.0]]))
show("maximally rank-deficient A: the trailing block E decides", running)

# Dropping E to zero makes the same system singular, and the ladder returns
# an explicit kernel vector as the certificate.
dropped = BlockSystem(
    A=np.diag([0.0, 1.0]), B=np.array([[1.0, 0.0]]),
    C=np.array([[1.0]]), E=np.array([[0.0]]))
show("same system with E = 0: singular with certificate", dropped)

# If any necessary kernel condition fails, no further analysis is needed.
broken = BlockSystem(
    A=np.zeros((2, 2)), B=np.array([[0.0, 0.0]]), C=np.array([[1.0]]),
    D=np.array([[1.0]]), E=np.array([[1.0]]))
report = necessary_conditions(broken)
print("\n=== necessary conditions on a broken system ===")
for cond in ("N1", "N2", "N3"):
    print(f"{cond}: {'holds' if report.holds(cond) else 'FAILS'}")
show("failed necessary condition short-circuits", broken)

# The ladder is coherent under the block reversal that swaps the roles of
# (A, B) and (E, C^T): a definitive verdict never flips.
print("\n=== block reversal coherence ===")
reversed_sys = permute_similar(running)
print("original verdict: ", diagnose(running).verdict.value)
print("reversed verdict: ", diagnose(reversed_sys).verdict.value)
print("oracle on both:   ", oracle_invertible(running),
      oracle_invertible(reversed_sys))
