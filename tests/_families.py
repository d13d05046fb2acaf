"""Shared instance families for the test suite.

Each family is a deterministic stream of generated systems targeting one
hypothesis set of the decision rules.  Seeds are plain integers so failures
reproduce exactly.
"""

import numpy as np

from dsaddle import BlockSystem, GeneratorSpec, gen_instance

# dims cycled through by the families; kept small so the suite stays fast
DIM_CYCLE = (
    (4, 2, 3),
    (6, 3, 4),
    (5, 2, 2),
    (7, 4, 5),
    (3, 1, 2),
    (8, 3, 3),
)


def fixture_three_block() -> BlockSystem:
    """The 4 x 4 worked example with a hand-checkable inverse."""
    return BlockSystem(np.diag([0.0, 1.0]), np.array([[1.0, 0.0]]),
                       np.array([[1.0]]), np.array([[0.0]]), np.array([[2.0]]))


def cold_copy(system) -> BlockSystem:
    """A new system from the blocks of ``system``, holding no analysis yet."""
    return BlockSystem(*(getattr(system, name) for name in "ABCDE"))


def fixture_three_block_inverse() -> np.ndarray:
    return np.array([
        [0.5, 0.0, 1.0, -0.5],
        [0.0, 1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [-0.5, 0.0, 0.0, 0.5],
    ])


def max_deficient(seed, null_e=0, null_d=0, def_d="psd", rank_c=None):
    """Maximally rank-deficient leading block: null(A) = m, rank(B) = m.

    Satisfies the hypotheses of the congruence-based rules; E is singular
    exactly when null_e > 0 (kernel placed inside ran(C), so the necessary
    condition N3 keeps holding).
    """
    n, m, p = DIM_CYCLE[seed % len(DIM_CYCLE)]
    if rank_c is None:
        rank_c = min(p, m)
    spec = GeneratorSpec(n=n, m=m, p=p, null_a=m, rank_b=m, rank_c=rank_c,
                         null_e=null_e, null_d=null_d, def_d=def_d, seed=seed)
    return gen_instance(spec)


def psd_disjoint_ranges(seed):
    """A, D, E semidefinite with disjoint ranges of B and C^T (invertible)."""
    n, m, p = DIM_CYCLE[seed % len(DIM_CYCLE)]
    rank_b = max(1, m // 2)
    rank_c = min(m - rank_b, p)
    spec = GeneratorSpec(n=n, m=m, p=p, null_a=min(rank_b, 1), null_e=min(rank_c, 1),
                         rank_b=rank_b, rank_c=rank_c, require_r=True, seed=seed)
    return gen_instance(spec)


def direct_sum_singular(seed):
    """DS1 and DS2 hold while the ranges overlap: singular by construction."""
    n, m, p = DIM_CYCLE[seed % len(DIM_CYCLE)]
    rank_b = max(1, min(m, n) - 1) if min(m, n) > 1 else 1
    rank_c = max(1, min(p, m) - 1) if min(p, m) > 1 else 1
    spec = GeneratorSpec(n=n, m=m, p=p, null_a=rank_b, null_e=rank_c,
                         rank_b=rank_b, rank_c=rank_c,
                         require_ds1=True, require_ds2=True,
                         force_overlap_r=True, seed=seed)
    return gen_instance(spec)
