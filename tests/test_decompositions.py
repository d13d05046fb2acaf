"""Decomposition budgets of one call.

Every rule reads one analysis of the five blocks, so a diagnosis runs a
bounded number of eigen and singular-value decompositions whichever exit it
takes, and builds the condition report once.  The congruence route reads
the same analysis, so it decomposes D once per call, and the inverse
constructors read the decompositions it holds instead of factoring again.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

import dsaddle
import dsaddle.invertibility as invertibility
from dsaddle import GeneratorSpec, diagnose, gen_instance

# the six classes of the ladder benchmark, at one fifth of (100, 50, 25)
DIMS = (20, 10, 5)
CLASSES = (
    ("e_iff", dict(null_a=10, require_ds1=True), "e_iff"),
    ("e_iff_singular", dict(null_a=10, require_ds1=True, null_e=1), "e_iff"),
    ("schur_sufficient", {}, "schur_sufficient"),
    ("undetermined", dict(null_a=1, def_a="indefinite"), None),
    ("direct_sum_iff", dict(null_a=8, rank_b=8, require_ds1=True, rank_c=4, null_e=4,
                            require_ds2=True, force_overlap_r=True), "direct_sum_iff"),
    ("necessary_N1", dict(null_a=10, rank_b=9), "necessary:N1"),
)
BUDGET = 13
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def counts(monkeypatch):
    """Count svd / eigh / eigvalsh / norm(., 2) calls and condition reports."""
    counts = {"decompositions": 0, "condition_report": 0}

    def counting(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("svd", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name), "decompositions"))
    norm = np.linalg.norm

    def counting_norm(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:  # the spectral norm is an SVD
            counts["decompositions"] += 1
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    monkeypatch.setattr(invertibility, "condition_report",
                        counting(invertibility.condition_report, "condition_report"))
    return counts


@pytest.mark.parametrize("targets, rule", [c[1:] for c in CLASSES],
                         ids=[c[0] for c in CLASSES])
def test_diagnose_stays_within_budget(counts, targets, rule):
    for seed in range(3):
        system, _ = gen_instance(GeneratorSpec(*DIMS, seed=seed, **targets))
        counts.update(decompositions=0, condition_report=0)
        diagnosis = diagnose(system)
        assert diagnosis.rule == rule
        assert counts["decompositions"] <= BUDGET, counts
        assert counts["condition_report"] == 1



@pytest.mark.parametrize("name", ("inverse_via_factorization", "verify_identities",
                                  "factorize_transformed", "transformed_schur_complement"))
def test_congruence_route_decomposes_d_once(monkeypatch, name):
    """One eigh of the m x m block D per call, and one Cholesky factor of
    A + B^T (2I - D) B per factorization inverse."""
    counts = {"eigh_m": 0, "cho_factor": 0}
    eigh, cho_factor = np.linalg.eigh, sla.cho_factor

    def counting_eigh(a, *args, **kwargs):
        counts["eigh_m"] += np.shape(a) == (DIMS[1], DIMS[1])  # n, m, p differ
        return eigh(a, *args, **kwargs)

    def counting_cho_factor(*args, **kwargs):
        counts["cho_factor"] += 1
        return cho_factor(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(sla, "cho_factor", counting_cho_factor)
    call = getattr(dsaddle, name)
    for seed in range(3):
        # max_deficient-style: null(A) = rank(B) = m, so every call applies;
        # D's spectrum lies below 2, so alpha = 0.5 is admissible
        system, _ = gen_instance(GeneratorSpec(*DIMS, null_a=10, rank_b=10, rank_c=5,
                                               null_d=seed % 2, seed=seed))
        args = (system, 0.5) if name == "transformed_schur_complement" else (system,)
        counts.update(eigh_m=0, cho_factor=0)
        call(*args)
        assert counts["eigh_m"] <= 1, counts
        if name == "inverse_via_factorization":
            assert counts["cho_factor"] <= 1, counts


# numpy and scipy kernels a call can run; the spectral norm is an SVD
NUMPY_KERNELS = ("svd", "eigh", "eigvalsh", "solve", "inv", "cholesky", "qr", "lstsq")
SCIPY_KERNELS = ("solve", "cho_factor", "cho_solve")
KERNEL_BUDGETS = {
    "three_block_inverse": 6,
    "inverse_via_factorization": 5,
    "factorize_transformed": 4,
    "two_block_inverse": 5,
    "verify_identities": 22,
}


@pytest.mark.parametrize("name", KERNEL_BUDGETS)
def test_inverse_constructors_read_held_decompositions(monkeypatch, name):
    """Each constructor reads the decompositions of the one analysis, so it
    runs a fixed number of dense kernels, and none from scipy.linalg."""
    counts = {"numpy": 0, "scipy": 0}

    def counting(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for kernel in NUMPY_KERNELS:
        monkeypatch.setattr(np.linalg, kernel, counting(getattr(np.linalg, kernel), "numpy"))
    for kernel in SCIPY_KERNELS:
        monkeypatch.setattr(sla, kernel, counting(getattr(sla, kernel), "scipy"))
    norm = np.linalg.norm

    def counting_norm(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:
            counts["numpy"] += 1
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    call = getattr(dsaddle, name)
    for seed in range(3):
        # the max-deficient systems of the congruence test, where every call applies
        system, _ = gen_instance(GeneratorSpec(*DIMS, null_a=10, rank_b=10, rank_c=5,
                                               null_d=seed % 2, seed=seed))
        args = ((system.A, system.B, system.D) if name == "two_block_inverse"
                else (system,))
        counts.update(numpy=0, scipy=0)
        call(*args)
        assert counts["scipy"] == 0, counts
        assert counts["numpy"] <= KERNEL_BUDGETS[name], counts


def test_import_does_not_load_scipy_linalg():
    """Only the Matrix Market reader uses scipy, and it does not need scipy.linalg."""
    code = "import sys, dsaddle.cli; print('scipy.linalg' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
