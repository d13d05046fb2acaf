"""Shared instance families for the test suite.

Each family is a deterministic stream of generated systems targeting one
hypothesis set of the decision rules.  Seeds are plain integers so failures
reproduce exactly.
"""

import importlib.util
import random
from pathlib import Path

import numpy as np

from dsaddle import BlockSystem, GenerationError, GeneratorSpec, gen_instance

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


def range_angle(theta, m=20) -> BlockSystem:
    """n = p = 1, A = E = 0, D = I_m, B = e_1 and C^T the unit vector at the
    angle theta to B in the (e_1, e_2) plane.  K is invertible for every
    theta > 0, but sigma_min(K) falls like theta^2 while the range tests read
    sin(theta), so near theta = 1e-8 the oracle's cut calls K singular while
    R fails and the overlap is still {0}."""
    e = np.eye(m)
    c = np.cos(theta) * e[:1] + np.sin(theta) * e[1:2]
    return BlockSystem(np.zeros((1, 1)), e[:, :1], c, e, np.zeros((1, 1)))


def random_systems(count, seed, deficient_every=0):
    """Seeded small gen_instance specs with random nullities, ranks and flags.

    With ``deficient_every`` = k > 0, every k-th system, the first included,
    is drawn maximally deficient instead: null(A) = rank(B) = m.
    """
    rng = np.random.default_rng(seed)
    made = 0
    while made < count:
        n, m, p = (int(d) for d in rng.integers(1, 8, size=3, endpoint=True))
        if deficient_every and made % deficient_every == 0:
            m = min(m, n)
            spec = GeneratorSpec(n, m, p, null_a=m, rank_b=m,
                                 rank_c=int(rng.integers(0, min(p, m), endpoint=True)),
                                 null_d=int(rng.integers(0, m, endpoint=True)),
                                 null_e=int(rng.integers(0, p, endpoint=True)),
                                 seed=made)
        else:
            rank_b = int(rng.integers(0, min(m, n), endpoint=True))
            rank_c = int(rng.integers(0, min(p, m), endpoint=True))
            ds1, ds2 = rng.random(2) < 1 / 3
            spec = GeneratorSpec(
                n, m, p, rank_b=rank_b, rank_c=rank_c,
                null_a=rank_b if ds1 else int(rng.integers(0, n, endpoint=True)),
                null_d=int(rng.integers(0, m, endpoint=True)),
                null_e=rank_c if ds2 else int(rng.integers(0, p, endpoint=True)),
                require_ds1=bool(ds1), require_ds2=bool(ds2),
                force_overlap_r=bool(rng.random() < 0.2 and rank_b and rank_c),
                def_a=str(rng.choice(["psd", "psd", "indefinite"])),
                def_d=str(rng.choice(["psd", "psd", "indefinite"])),
                seed=made)
        try:
            yield gen_instance(spec)[0]
        except (ValueError, GenerationError):  # an infeasible draw
            continue
        made += 1


EXTREME_ENTRIES = (0.0, 1.0, -1.0, 2.0, 0.5, 1e160, 1e-160, 1e300, -1e300, 1e-310)


def extreme_scale_systems(count, seed=0):
    """Systems with n, m, p drawn from 1..3 and entries from EXTREME_ENTRIES, A, D
    and E mirroring their upper triangle; a draw BlockSystem refuses is skipped."""
    rng = random.Random(seed)
    for _ in range(count):
        n, m, p = (rng.randint(1, 3) for _ in range(3))
        blocks = [np.array([[rng.choice(EXTREME_ENTRIES) for _ in range(c)] for _ in range(r)])
                  for r, c in ((n, n), (m, n), (p, m), (m, m), (p, p))]
        for i in (0, 3, 4):
            blocks[i] = np.triu(blocks[i]) + np.triu(blocks[i], 1).T
        try:
            yield BlockSystem(*blocks)
        except ValueError:
            continue


def noisy(system, rng):
    """A, D and E each plus symmetric noise of size 10^U(-13, -7)."""
    def perturbed(M):
        G = rng.standard_normal(M.shape)
        return M + 10.0 ** rng.uniform(-13, -7) * 0.5 * (G + G.T)
    return BlockSystem(perturbed(system.A), system.B, system.C, perturbed(system.D),
                       perturbed(system.E))


def answers_tool(name="answers"):
    """tools/<name>.py as a module; by default tools/answers.py, with its seeded
    corpora (``CORPORA``) and the table line of one system (``answer``)."""
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
