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

from _families import (  # noqa: E402
    direct_sum_singular,
    fixture_three_block,
    max_deficient,
    noisy,
    psd_disjoint_ranges,
    random_systems,
)
from dsaddle import DEFAULT_TOL, BlockSystem, assemble, diagnose, \
    verify_identities  # noqa: E402

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


def oracle_invertible(system) -> bool:
    s = np.linalg.svd(assemble(system).matrix, compute_uv=False)
    return bool(s.min() > DEFAULT_TOL.rank_rtol * system.ell * s.max())


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="corpus seed (default 0)")
    args = parser.parse_args(argv)
    table = hashlib.sha256()
    summary = []
    for name, corpus in CORPORA:
        digest, count, contradictions, undetermined = hashlib.sha256(), 0, 0, 0
        for i, system in enumerate(corpus(args.seed)):
            fields, contradiction = answer(system)
            line = " ".join([f"{name}:{i}", *fields]) + "\n"
            sys.stdout.write(line)
            digest.update(line.encode())
            table.update(line.encode())
            count += 1
            contradictions += contradiction
            undetermined += fields[2] == "undetermined"
        summary.append(f"corpus {name} systems {count} contradictions {contradictions} "
                       f"undetermined {undetermined} sha256 {digest.hexdigest()}\n")
    sys.stdout.writelines(summary)
    sys.stdout.write(f"table sha256 {table.hexdigest()}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
