"""Same-answers table: what dsaddle decides on four seeded corpora.

    PYTHONPATH=src python tools/answers.py --seed 0 > answers.txt

prints one line per system: corpus and index, a digest of the five blocks,
the `diagnose` verdict and rule, the conditions, definiteness tags and ranks
it decided on, the dense oracle, whether the two agree, and the status of
every `verify_identities` entry.  The last lines give, per corpus and for
the whole table, a sha256 of the lines; per corpus also the number of
contradictions (a definite verdict the oracle disagrees with) and of
undetermined verdicts.  Two runs with the same seed print the same bytes, so
the table of one commit diffs against another's: run it once per checkout
with that checkout's ``src`` on ``PYTHONPATH``.

The corpora:

- ``family``: the instance families of ``tests/_families.py``;
- ``spec``: small `gen_instance` specs from `random_systems`, every third one
  maximally deficient (null(A) = rank(B) = m);
- ``hand``: small systems with entries from {0, +-1, 2, 0.5}, exact zero
  blocks and degenerate kernels included;
- ``noisy``: generated systems with noise of 10^U(-13, -7) on A, D and E,
  near the rank cut.

After them comes the ``graded`` table: families K(eps), each exactly singular
at eps = 0 and invertible for eps > 0, run over one grid of eps (``GRADED``,
``GRADED_EPS``).  One line per system, labelled ``graded:<family>:<eps>``, then
per family a summary: the first eps where the oracle and where ``diagnose``
answer invertible, and the number of wrong-side answers (a definite verdict the
oracle disagrees with).  The graded table is no member of ``CORPORA``.

Two more summary lines give, for hand and for graded, on how many systems the
dense oracle agrees with K's exact rank (``tests/_exact.py``), and one per
corpus counts the systems ``diagnose`` proves invertible and how many of them
``three_block_inverse`` and ``inverse_via_factorization`` accept (the reach of
the structured inverses); none of these enters a sha256.

The oracle is independent of dsaddle: K is invertible when its smallest
singular value passes rank_rtol * ell * sigma_max.  Systems are never
filtered: a contradiction is counted and shown, not hidden.
"""

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import _exact  # noqa: E402
from _families import (  # noqa: E402
    direct_sum_singular,
    fixture_three_block,
    max_deficient,
    noisy,
    psd_disjoint_ranges,
    random_systems,
    range_angle,
)
from dsaddle import DEFAULT_TOL, BlockSystem, PreconditionError, assemble, diagnose, \
    inverse_via_factorization, three_block_inverse, verify_identities  # noqa: E402

FAMILY_SEEDS = 12
SPEC_COUNT = 300
HAND_COUNT = 300
NOISY_COUNT = 600
HAND_VALUES = np.array([0.0, 1.0, -1.0, 2.0, 0.5])
TAGS = {"positive_definite": "pd", "positive_semidefinite": "psd",
        "indefinite": "indef", "not_symmetric": "asym"}


def family_corpus(seed):
    yield fixture_three_block()
    for s in range(seed * FAMILY_SEEDS, (seed + 1) * FAMILY_SEEDS):
        yield max_deficient(s)[0]
        yield max_deficient(s, null_e=1)[0]
        yield max_deficient(s, null_d=1, rank_c=1)[0]
        yield psd_disjoint_ranges(s)[0]
        yield direct_sum_singular(s)[0]


def spec_corpus(seed):
    return random_systems(SPEC_COUNT, [seed, 1], deficient_every=3)


def hand_corpus(seed):
    rng = np.random.default_rng([seed, 2])

    def symmetric(d):
        M = np.triu(rng.choice(HAND_VALUES, size=(d, d)))
        return M + np.triu(M, 1).T

    for _ in range(HAND_COUNT):
        n, m, p = (int(d) for d in rng.integers(1, 4, size=3, endpoint=True))
        yield BlockSystem(symmetric(n), rng.choice(HAND_VALUES, size=(m, n)),
                          rng.choice(HAND_VALUES, size=(p, m)), symmetric(m), symmetric(p))


def noisy_corpus(seed):
    rng = np.random.default_rng([seed, 3])
    return (noisy(s, rng) for s in random_systems(NOISY_COUNT, seed))


CORPORA = (("family", family_corpus), ("spec", spec_corpus), ("hand", hand_corpus),
           ("noisy", noisy_corpus))

GRADED_EPS = (1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 3e-5, 1e-4, 1e-3, 1e-2)


def _overlap(eps, D):
    """A = E = 0 (1 x 1), B = e_1 and C^T = e_1 + eps e_2: ran(B) and ran(C^T) meet at eps = 0."""
    return BlockSystem(np.zeros((1, 1)), np.eye(2, 1), [[1.0, eps]], D, np.zeros((1, 1)))


def _n3(eps, D):
    """The block reversal of N1_D0 and N1_D1: ker(C^T) and ker(E) meet at eps = 0."""
    return BlockSystem([[1.0]], [[1.0]], [[eps], [1.0]], D, np.diag([0.0, 1.0]))


# (family, K(eps)): N1 fails at eps = 0 with D = 0 (sigma_min(K) first order in eps) and
# with D = 1 (second order); N2 fails; the ranges overlap with D = I_2 and with D = 0;
# C^T leaves B at the angle eps; N3 fails with D = 0 and D = 1; and E = eps is singular
# at eps = 0, with A = 0 and D = 0 or 1
GRADED = (
    ("N1_D0", lambda eps: BlockSystem(np.diag([0.0, 1.0]), [[eps, 1.0]], [[1.0]], [[0.0]], [[1.0]])),
    ("N1_D1", lambda eps: BlockSystem(np.diag([0.0, 1.0]), [[eps, 1.0]], [[1.0]], [[1.0]], [[1.0]])),
    ("N2", lambda eps: BlockSystem(np.eye(2), np.diag([eps, 1.0]), [[0.0, 1.0]],
                                   np.diag([0.0, 1.0]), [[1.0]])),
    ("overlap_DI", lambda eps: _overlap(eps, np.eye(2))),
    ("overlap_D0", lambda eps: _overlap(eps, np.zeros((2, 2)))),
    ("range_angle", range_angle),
    ("N3_D0", lambda eps: _n3(eps, [[0.0]])),
    ("N3_D1", lambda eps: _n3(eps, [[1.0]])),
    ("E_D0", lambda eps: BlockSystem([[0.0]], [[1.0]], [[1.0]], [[0.0]], [[eps]])),
    ("E_D1", lambda eps: BlockSystem([[0.0]], [[1.0]], [[1.0]], [[1.0]], [[eps]])),
)


def oracle_invertible(system) -> bool:
    s = np.linalg.svd(assemble(system).matrix, compute_uv=False)
    return bool(s.min() > DEFAULT_TOL.rank_rtol * system.ell * s.max())


def exact_agrees(system) -> bool:
    """Whether the oracle agrees with K's exact rank: invertible exactly when it is ell."""
    return oracle_invertible(system) == (_exact.rank(assemble(system).matrix) == system.ell)


def blocks_digest(system) -> str:
    h = hashlib.sha256()
    for name in "ABCDE":
        h.update(np.ascontiguousarray(getattr(system, name)).tobytes())
    return h.hexdigest()[:12]


def answer(system):
    """The table line of one system and whether it is a contradiction."""
    oracle = oracle_invertible(system)
    fields = [blocks_digest(system), "x".join(map(str, system.dims))]
    try:
        report = diagnose(system).to_dict()
    except Exception as exc:  # an answer like any other, so it shows in the diff
        fields += [f"diagnose-error:{type(exc).__name__}", f"oracle={int(oracle)}"]
        return fields, False
    verdict = report["verdict"]
    contradiction = verdict != "undetermined" and (verdict == "invertible") != oracle
    fields += [verdict, str(report["rule"]),
               ",".join(c["id"] + ("+" if c["status"] == "holds" else "-")
                        for c in report["conditions"]),
               ",".join(f"{k}={TAGS[v]}" for k, v in report["definiteness"].items()),
               ",".join(f"r{k}={v}" for k, v in report["ranks"].items()),
               f"oracle={int(oracle)}",
               "CONTRADICTION" if contradiction else
               ("agree" if verdict != "undetermined" else "open")]
    try:
        fields.append(",".join(f"{e['id']}:{e['status']}" for e in verify_identities(system)))
    except Exception as exc:
        fields.append(f"verify-error:{type(exc).__name__}")
    return fields, contradiction


def accepts(constructor, system) -> bool:
    """Whether the structured inverse constructor returns an inverse for system."""
    try:
        constructor(system)
    except PreconditionError:
        return False
    return True


def graded_table():
    """The graded lines, and per family the first eps where the oracle and where
    diagnose answer invertible (None when neither does) and the wrong-side count."""
    lines, summary = [], {}
    for family, build in GRADED:
        first_oracle = first_diagnose = None
        wrong = 0
        for eps in GRADED_EPS:
            fields, contradiction = answer(build(eps))
            lines.append(" ".join([f"graded:{family}:{eps:g}", *fields]) + "\n")
            if first_oracle is None and "oracle=1" in fields:
                first_oracle = eps
            if first_diagnose is None and fields[2] == "invertible":
                first_diagnose = eps
            wrong += contradiction
        summary[family] = first_oracle, first_diagnose, wrong
    return lines, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="corpus seed (default 0)")
    args = parser.parse_args(argv)
    table = hashlib.sha256()
    summary, coverage = [], []
    for name, corpus in CORPORA:
        digest, count, contradictions, undetermined = hashlib.sha256(), 0, 0, 0
        proved = three_block = factorization = 0
        for i, system in enumerate(corpus(args.seed)):
            fields, contradiction = answer(system)
            line = " ".join([f"{name}:{i}", *fields]) + "\n"
            sys.stdout.write(line)
            digest.update(line.encode())
            table.update(line.encode())
            count += 1
            contradictions += contradiction
            undetermined += fields[2] == "undetermined"
            if fields[2] == "invertible":
                proved += 1
                three_block += accepts(three_block_inverse, system)
                factorization += accepts(inverse_via_factorization, system)
        summary.append(f"corpus {name} systems {count} contradictions {contradictions} "
                       f"undetermined {undetermined} sha256 {digest.hexdigest()}\n")
        coverage.append(f"coverage {name} ladder-invertible {proved} three_block {three_block} "
                        f"factorization {factorization}\n")
    lines, families = graded_table()
    sys.stdout.writelines(lines)
    table.update("".join(lines).encode())
    summary.append(f"graded systems {len(lines)} sha256 "
                   f"{hashlib.sha256(''.join(lines).encode()).hexdigest()}\n")
    for family, (first_oracle, first_diagnose, wrong) in families.items():
        oracle, diagnosed = ("none" if eps is None else f"{eps:g}"
                             for eps in (first_oracle, first_diagnose))
        summary.append(f"graded {family} oracle-invertible-from {oracle} "
                       f"diagnose-invertible-from {diagnosed} wrong-side {wrong}\n")
    hand = [exact_agrees(system) for system in hand_corpus(args.seed)]
    graded = [exact_agrees(build(eps)) for _, build in GRADED for eps in GRADED_EPS]
    for name, agree in (("hand", hand), ("graded", graded)):
        summary.append(f"exact {name} oracle-agrees {sum(agree)} of {len(agree)}\n")
    summary += coverage
    sys.stdout.writelines(summary)
    sys.stdout.write(f"table sha256 {table.hexdigest()}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
