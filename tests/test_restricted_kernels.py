"""Restricted kernel intersections against the stacked reference.

The analysis reads N1, N2, N3, the overlap ker(A (+) E) ∩ ker[B | C^T] and R
from the decompositions it already holds: it restricts the later blocks to
the near-kernel of the first one (R as ker(U⊥_B^T) ∩ ker(U⊥_C^T), U⊥ the left
singular vectors past the rank).  The public ``intersection_kernels`` stacks
the blocks and takes one SVD; it is the reference, and the analysis falls
back to it near the rank cut.  Patching the analysis back to the stacked SVD
must leave every verdict, rule, intersection dimension and direct-sum flag
unchanged, on clean systems and on systems with noise near the rank cut.
"""

import sys

import numpy as np
import pytest

from _families import cold_copy, direct_sum_singular, fixture_three_block, max_deficient, \
    noisy, psd_disjoint_ranges, random_systems
from dsaddle import BlockSystem, Verdict, assemble, diagnose, intersection_kernels, \
    range_intersection_trivial
from dsaddle.core import _Analysis, _analysis
from dsaddle.subspaces import _SVD, rank_threshold


def _complements(s):
    """U⊥^T of B and of C^T: ran(B) ∩ ran(C^T) is the intersection of their kernels."""
    return [svd.u[:, svd.rank:].T for svd in (_SVD(s.B), _SVD(s.C.T))]


STACKED = {
    "n1": lambda s: [s.A, s.B],
    "n2": lambda s: [s.B.T, s.D, s.C],
    "n3": lambda s: [s.C.T, s.E],
    "overlap": lambda s: [np.block([[s.A, np.zeros((s.n, s.p))], [np.zeros((s.p, s.n)), s.E]]),
                          np.hstack([s.B, s.C.T])],
    "r": _complements,
}


def _outcome(system):
    """What the ladder decides and the intersection facts it decides on."""
    diagnosis = diagnose(system)
    if diagnosis.verdict is Verdict.SINGULAR:
        # the bases may differ, so a witness need only be a unit kernel vector
        K = assemble(system).matrix
        w = diagnosis.witness
        assert np.linalg.norm(w) == pytest.approx(1.0)
        assert np.linalg.norm(K @ w) <= 1e-8 * np.linalg.norm(K, 2)
    an = _analysis(system, None)
    return (diagnosis.verdict, diagnosis.rule, an.n1.dim, an.n2.dim, an.n3.dim,
            an.overlap.dim, an.r.dim, an.ds1, an.ds2)


def _stacked_outcome(system):
    with pytest.MonkeyPatch.context() as mp:
        for name, blocks in STACKED.items():
            mp.setattr(_Analysis, name, property(
                lambda an, blocks=blocks: intersection_kernels(blocks(an.sys), an.tol)))
        return _outcome(cold_copy(system))


def _family_systems():
    yield fixture_three_block()
    for seed in range(12):
        yield max_deficient(seed)[0]
        yield max_deficient(seed, null_e=1)[0]
        yield max_deficient(seed, null_d=1, rank_c=1)[0]
        yield psd_disjoint_ranges(seed)[0]
        yield direct_sum_singular(seed)[0]


def _assert_same_outcomes(systems):
    for i, system in enumerate(systems):
        assert _outcome(cold_copy(system)) == _stacked_outcome(system), (i, system)


def test_families_match_stacked():
    _assert_same_outcomes(_family_systems())


def test_random_specs_match_stacked():
    _assert_same_outcomes(random_systems(150, seed=0))


def test_noisy_systems_match_stacked():
    rng = np.random.default_rng(1)
    _assert_same_outcomes(noisy(s, rng) for s in random_systems(150, seed=1))


def _stacked_calls(monkeypatch, system):
    """Number of stacked SVDs a cold diagnose of ``system`` runs."""
    calls = []

    def counting(mats, tol=None):
        calls.append(len(mats))
        return intersection_kernels(mats, tol)

    monkeypatch.setattr(sys.modules[_Analysis.__module__], "intersection_kernels", counting)
    diagnose(cold_copy(system))
    return len(calls)


def test_clean_system_takes_no_stacked_svd(monkeypatch):
    assert _stacked_calls(monkeypatch, max_deficient(1)[0]) == 0


def test_eigenvalue_near_cut_takes_stacked_svd(monkeypatch):
    """An eigenvalue of A at 10x the N1 cut is too near it to restrict."""
    B = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    cut = rank_threshold(1.0, (6, 4))  # ||A|| = ||B|| = 1, [A; B] is 6 x 4
    A = np.diag([1.0, 1.0, 10.0 * cut, 0.0])
    system = BlockSystem(A, B, np.array([[1.0, 1.0]]), None, np.array([[1.0]]))
    assert _stacked_calls(monkeypatch, system) == 1
    assert _outcome(cold_copy(system)) == _stacked_outcome(system)


def test_large_b_against_small_eigenvalue_takes_stacked_svd(monkeypatch):
    """Far from the cut, an eigenvalue of A can still hide a kernel vector.

    A = diag(0, 1e-2) and B = [1, -1e4]: x = (1, 1e-4) has ||A x|| = 1e-6
    and B x = 0, below the stacked cut of about 3e-6, so N1 fails.  The
    restricted matrix [0; B e1] alone has singular value 1 and would hold;
    the margin widened by ||B|| / 1e-2 sends the input to the stacked SVD.
    """
    system = BlockSystem(np.diag([0.0, 1e-2]), np.array([[1.0, -1e4]]),
                         np.array([[1.0]]), None, np.array([[1.0]]))
    assert _stacked_calls(monkeypatch, system) >= 1
    assert diagnose(cold_copy(system)).rule == "necessary:N1"
    assert _outcome(cold_copy(system)) == _stacked_outcome(system)


def test_range_intersection_near_its_cut_takes_stacked_svd(monkeypatch):
    """ran(B) and ran(C^T) at an angle of 5e-10 meet under the stacked cut of
    the two complements, [U⊥_B^T; U⊥_C^T] (4 x 3, sigma_min about
    theta / sqrt 2): the restricted sine theta lies within the margin of the
    cut, so R falls back to the stacked SVD and agrees with its reference."""
    theta = 5e-10
    system = BlockSystem(np.eye(1), np.array([[1.0], [0.0], [0.0]]),
                         np.array([[np.cos(theta), np.sin(theta), 0.0]]), None, np.eye(1))
    calls = []

    def counting(mats, tol=None):
        calls.append(len(mats))
        return intersection_kernels(mats, tol)

    monkeypatch.setattr(sys.modules[_Analysis.__module__], "intersection_kernels", counting)
    r = _analysis(system, None).r
    assert calls == [2]
    holds, witness = range_intersection_trivial(system.B, system.C.T)
    assert r.is_trivial == holds is False
    assert witness is not None and r.dim == 1
