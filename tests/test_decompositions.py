"""Decomposition budgets of one call, and of a session of calls.

Every rule reads one analysis of the five blocks, so a diagnosis runs a
bounded number of eigen and singular-value decompositions whichever exit it
takes, and builds the condition report once.  The system holds that
analysis, so later calls on the same system decompose nothing again: no
block, and neither the Schur complements S1 and S2 nor the reduced Hessian,
which the analysis holds too.  gen_instance reads its certificate from the
analysis the returned system holds, so a diagnose right after it decomposes
no block; tests that count a cold call take a cold_copy of the system.  The
congruence route reads the same analysis, so it decomposes D once per call.
The inverse constructors read R, V and a_tilde^{-1} from the eigh of A and the
SVD of B Q0 (Q0 A's kernel eigenvectors) that N1's restricted step ran, both
held: no eigh of a_tilde = A + B^T (2I - D) B, and no solve with B B^T or
Z^T A Z.  verify's reduced-Hessian projector is held there too, built once
by one solve with Z^T A Z, whose nonsingularity is the held N1, so no
eigvalsh tests it again.
The assembled matrix K is one more fact of that analysis: one eigvalsh of K
answers the oracle and ||K^{-1}||_2, and no eigenvectors of K are ever
needed.  verify inverts no matrix: it reads Z22 from one LU solve of K
against its m middle unit columns, and reads every spectral norm and
nonsingularity test of an n x n or ell x ell matrix through eigenvalues, so
it runs no SVD on such a matrix.  Witnesses are checked against the
largest block norm, so diagnose decomposes K only for the oracle.  N1-N3,
the overlap and R take one restricted-kernel step: each restricts the later
blocks to a kernel the analysis holds (for R, the complement U⊥^T of the
block of larger rank to the range of the other), so no stacked SVD runs on
clean inputs.  Each ladder exit has its own decomposition ceiling, and R
runs no SVD when B or C has rank m.  The factorization inverse, verify, the
factorization itself and the congruence transform, each cold after diagnose
and three_block_inverse, have a traced memory ceiling too.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

import dsaddle
import dsaddle.invertibility as invertibility
import dsaddle.subspaces as subspaces
from _families import cold_copy, direct_sum_singular, fixture_three_block, max_deficient, \
    psd_disjoint_ranges
from dsaddle import GeneratorSpec, assemble, default_alpha, dense_inverse_blocks, diagnose, \
    gen_instance, matrix_rank, oracle_invertible, three_block_inverse, verify_identities, \
    z22_nullity_bounds

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
# decompositions per diagnose on each class; the first four have rank B = m,
# so R takes no SVD there
BUDGETS = {"e_iff": 6, "e_iff_singular": 8, "schur_sufficient": 7, "undetermined": 6,
           "direct_sum_iff": 10, "necessary_N1": 8}
SESSION = ("diagnose", "three_block_inverse", "inverse_via_factorization", "verify_identities")
SESSION_BUDGET = 11
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def counts(monkeypatch):
    """Count svd / eigh / eigvalsh / norm(., 2) calls, those of them on an
    input of shape ``counts["square"]``, and condition reports; list the
    decomposed shapes in ``counts["shapes"]``, and those decomposed by the
    restricted kernel intersection in ``counts["restricted"]``."""
    counts = {"decompositions": 0, "on_square": 0, "square": None, "shapes": [],
              "restricted": [], "condition_report": 0}

    def counting(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def decomposition(x):
        counts["decompositions"] += 1
        counts["shapes"].append(np.shape(x))
        counts["on_square"] += np.shape(x) == counts["square"]
        if sys._getframe(2).f_code.co_name == "_restricted_kernel":  # past the wrapper
            counts["restricted"].append(np.shape(x))

    def counting_decomposition(fn):
        def wrapper(x, *args, **kwargs):
            decomposition(x)
            return fn(x, *args, **kwargs)
        return wrapper

    for name in ("svd", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting_decomposition(getattr(np.linalg, name)))
    norm = np.linalg.norm

    def counting_norm(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:  # the spectral norm is an SVD
            decomposition(x)
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    monkeypatch.setattr(invertibility, "condition_report",
                        counting(invertibility.condition_report, "condition_report"))
    return counts


@pytest.mark.parametrize("targets, rule, budget", [(*c[1:], BUDGETS[c[0]]) for c in CLASSES],
                         ids=[c[0] for c in CLASSES])
def test_diagnose_stays_within_budget(counts, targets, rule, budget):
    for seed in range(3):
        system, _ = gen_instance(GeneratorSpec(*DIMS, seed=seed, **targets))
        counts.update(decompositions=0, condition_report=0)
        diagnosis = diagnose(cold_copy(system))
        assert diagnosis.rule == rule
        assert counts["decompositions"] <= budget, counts
        assert counts["condition_report"] == 1


# decompositions of a diagnose right after gen_instance: only the facts no
# certificate reads, the Schur chain S1, S2 and the restricted matrix of the overlap
AFTER_GENERATION = {"e_iff": 0, "e_iff_singular": 1, "schur_sufficient": 2,
                    "undetermined": 0, "direct_sum_iff": 1, "necessary_N1": 0}


@pytest.mark.parametrize("label, targets, rule", CLASSES, ids=[c[0] for c in CLASSES])
def test_generated_system_holds_its_certificate_analysis(counts, label, targets, rule):
    """gen_instance certifies a system through the analysis the system then
    holds, so diagnose right after it decomposes no block again."""
    for seed in range(3):
        system, _ = gen_instance(GeneratorSpec(*DIMS, seed=seed, **targets))
        counts.update(decompositions=0, shapes=[], restricted=[])
        assert diagnose(system).rule == rule
        assert counts["decompositions"] == AFTER_GENERATION[label], counts["shapes"]
        if label != "schur_sufficient":
            assert counts["shapes"] == counts["restricted"], counts


@pytest.mark.parametrize("targets, rule", [c[1:] for c in CLASSES],
                         ids=[c[0] for c in CLASSES])
def test_diagnose_takes_no_stacked_kernel(monkeypatch, targets, rule):
    """N1-N3, the overlap and R are read by restriction to held decompositions,
    so on clean inputs no exit takes a kernel of a stacked matrix."""
    calls = []
    kernel_basis = subspaces.kernel_basis

    def recording_kernel_basis(M, *args, **kwargs):
        calls.append(np.shape(M))
        return kernel_basis(M, *args, **kwargs)

    monkeypatch.setattr(subspaces, "kernel_basis", recording_kernel_basis)
    for seed in range(3):
        system, _ = gen_instance(GeneratorSpec(*DIMS, seed=seed, **targets))
        calls.clear()
        assert diagnose(cold_copy(system)).rule == rule
        assert calls == [], calls


@pytest.mark.parametrize("name", ("inverse_via_factorization", "verify_identities",
                                  "factorize_transformed", "transformed_schur_complement"))
def test_congruence_route_decomposes_d_once(monkeypatch, name):
    """One eigh of the m x m block D per call on a fresh system, and per
    factorization inverse one eigh of an n x n input: A's, none of
    A + B^T (2I - D) B."""
    counts = {"eigh_m": 0, "eigh_n": 0}
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        counts["eigh_m"] += np.shape(a) == (DIMS[1], DIMS[1])  # n, m, p differ
        counts["eigh_n"] += np.shape(a) == (DIMS[0], DIMS[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    call = getattr(dsaddle, name)
    for seed in range(3):
        # max_deficient-style: null(A) = rank(B) = m, so every call applies;
        # D's spectrum lies below 2, so alpha = 0.5 is admissible
        system, _ = gen_instance(GeneratorSpec(*DIMS, null_a=10, rank_b=10, rank_c=5,
                                               null_d=seed % 2, seed=seed))
        system = cold_copy(system)
        args = (system, 0.5) if name == "transformed_schur_complement" else (system,)
        counts.update(eigh_m=0, eigh_n=0)
        call(*args)
        assert counts["eigh_m"] <= 1, counts
        if name == "inverse_via_factorization":
            assert counts["eigh_n"] <= 1, counts


# numpy and scipy kernels a call can run; the spectral norm is an SVD
NUMPY_KERNELS = ("svd", "eigh", "eigvalsh", "solve", "inv", "cholesky", "qr", "lstsq")
SCIPY_KERNELS = ("solve", "cho_factor", "cho_solve")
KERNEL_BUDGETS = {
    "three_block_inverse": 4,
    "inverse_via_factorization": 5,
    "factorize_transformed": 4,
    "two_block_inverse": 3,
    "verify_identities": 15,
}


@pytest.fixture()
def kernels(monkeypatch):
    """The numpy and the scipy kernel calls, listed by name; "norm2" is a
    spectral norm, which is an SVD."""
    kernels = {"numpy": [], "scipy": []}

    def listing(module, key, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            kernels[key].append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for kernel in NUMPY_KERNELS:
        listing(np.linalg, "numpy", kernel)
    for kernel in SCIPY_KERNELS:
        listing(sla, "scipy", kernel)
    norm = np.linalg.norm

    def listing_norm(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:
            kernels["numpy"].append("norm2")
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", listing_norm)
    return kernels


@pytest.mark.parametrize("name", KERNEL_BUDGETS)
def test_inverse_constructors_read_held_decompositions(kernels, name):
    """Each constructor reads the decompositions of the one analysis, so it
    runs a fixed number of dense kernels, and none from scipy.linalg."""
    call = getattr(dsaddle, name)
    for seed in range(3):
        # the max-deficient systems of the congruence test, where every call applies
        system, _ = gen_instance(GeneratorSpec(*DIMS, null_a=10, rank_b=10, rank_c=5,
                                               null_d=seed % 2, seed=seed))
        args = ((system.A, system.B, system.D) if name == "two_block_inverse"
                else (cold_copy(system),))
        kernels.update(numpy=[], scipy=[])
        call(*args)
        assert kernels["scipy"] == [], kernels
        assert len(kernels["numpy"]) <= KERNEL_BUDGETS[name], kernels


# tracemalloc peak, in KiB, of a cold call run after diagnose and three_block_inverse, as
# a session runs them, on one null(A) = m, DS1 system at (60, 30, 15): the factorization
# inverse forms only the blocks it keeps, and verify's congruence check forms one block of
# W^T K W - K~ at a time; the factorization's L and the congruence's W are each one placed
# ell x ell array with its unit diagonal set in place (congruence_transform at default_alpha)
PEAK_KIB = {"inverse_via_factorization": 195, "verify_identities": 185,
            "factorize_transformed": 285, "congruence_transform": 245}


@pytest.mark.parametrize("name", PEAK_KIB)
def test_session_call_stays_within_memory_ceiling(name):
    system, _ = gen_instance(GeneratorSpec(60, 30, 15, null_a=30, require_ds1=True, seed=1))
    system = cold_copy(system)
    diagnose(system)
    three_block_inverse(system)
    args = (default_alpha(system),) if name == "congruence_transform" else ()
    tracemalloc.start()
    try:
        getattr(dsaddle, name)(system, *args)
        peak = tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_KIB[name], peak


# every entry point whose second call on a system reads only what the first
# left in its analysis; verify_identities re-derives its identities by design,
# and z22_nullity_bounds reads an inverse the caller passes in
SECOND_CALLS = {
    "diagnose": diagnose,
    **{name: getattr(dsaddle, name) for name in (
        "schur_sufficient", "psd_ladder", "corollary_rules", "direct_sum_iff", "rank_b_iff",
        "rank_c_iff", "e_iff_rule", "psd_iff", "condition_report", "necessary_conditions",
        "oracle_invertible", "three_block_inverse", "inverse_via_factorization",
        "factorize_transformed")},
    **{name: lambda system, call=getattr(dsaddle, name): call(system, default_alpha(system))
       for name in ("congruence_transform", "transformed_schur_complement")},
}


def _call_once(call, system):
    try:
        call(system)
    except dsaddle.PreconditionError:
        pass


@pytest.mark.parametrize("targets, rule", [c[1:] for c in CLASSES],
                         ids=[c[0] for c in CLASSES])
def test_second_call_decomposes_nothing(kernels, targets, rule):
    """A second call of any entry point on the same system, a failed
    precondition included, runs no decomposition, solve or 2-norm: the Schur
    chain and the projector are held like every other fact."""
    decomposing = []
    for seed in range(3):
        system, _ = gen_instance(GeneratorSpec(*DIMS, seed=seed, **targets))
        for name, call in SECOND_CALLS.items():
            system = cold_copy(system)
            _call_once(call, system)
            kernels["numpy"] = []
            _call_once(call, system)
            if kernels["numpy"]:
                decomposing.append((seed, name, kernels["numpy"]))
    assert decomposing == []


@pytest.mark.parametrize("targets, rule", [c[1:] for c in CLASSES],
                         ids=[c[0] for c in CLASSES])
def test_assembled_matrix_is_decomposed_once(counts, targets, rule):
    """The oracle, a singular exit's witness check and kernel, and verify's
    congruence residual and ||K^{-1}||_2 all read one decomposition of K."""
    for seed in range(3):
        system, _ = gen_instance(GeneratorSpec(*DIMS, seed=seed, **targets))
        counts.update(on_square=0, square=(system.ell, system.ell))
        diagnosis = diagnose(system)
        oracle_invertible(system)
        assert diagnosis.rule == rule
        assert counts["on_square"] <= 1, (diagnosis.verdict, counts)
        counts["on_square"] = 0
        verify_identities(system)
        assert counts["on_square"] <= 1, counts
        counts["on_square"] = 0
        verify_identities(cold_copy(system))
        assert counts["on_square"] <= 1, counts


@pytest.mark.parametrize("targets, rule", [c[1:] for c in CLASSES],
                         ids=[c[0] for c in CLASSES])
def test_diagnose_takes_no_eigenvectors_of_k(monkeypatch, targets, rule):
    """Every exit, the singular e_iff one included, reads K through its
    eigenvalues alone: no eigh runs on an ell x ell input."""
    shapes = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    for seed in range(3):
        system, _ = gen_instance(GeneratorSpec(*DIMS, seed=seed, **targets))
        shapes.clear()
        assert diagnose(system).rule == rule
        oracle_invertible(system)
        assert (system.ell, system.ell) not in shapes, shapes


@pytest.mark.parametrize("targets, rule", [c[1:] for c in CLASSES],
                         ids=[c[0] for c in CLASSES])
def test_diagnose_decomposes_no_assembled_matrix(counts, targets, rule):
    """Without the oracle no exit, the singular ones included, runs an svd,
    eigh or eigvalsh on an ell x ell input."""
    for seed in range(3):
        system, _ = gen_instance(GeneratorSpec(*DIMS, seed=seed, **targets))
        counts.update(on_square=0, square=(system.ell, system.ell), shapes=[])
        assert diagnose(system).rule == rule
        assert counts["on_square"] == 0, counts["shapes"]


def test_session_decomposes_each_block_once(counts):
    """diagnose, both inverses and verify on one system read the analysis the
    system holds: A, B, D, E, K, the reduced Hessian Z^T A Z of the held
    projector and the restricted B V_0 of N1 (V_0 the null(A) = m kernel
    eigenvectors of A) are each decomposed once in the whole session, B V_0
    is the only restricted matrix decomposed, and the stacked [A; B] never
    is."""
    n, m, _ = DIMS
    for seed in range(3):
        system, _ = gen_instance(GeneratorSpec(*DIMS, null_a=10, rank_b=10, rank_c=5,
                                               null_d=seed % 2, seed=seed))
        system = cold_copy(system)
        counts.update(decompositions=0, shapes=[], restricted=[])
        for name in SESSION:
            getattr(dsaddle, name)(system)
        assert counts["decompositions"] <= SESSION_BUDGET, counts
        assert counts["shapes"].count((n + m, n)) == 0, counts
        assert counts["restricted"] == [(m, m)], counts


@pytest.mark.parametrize("targets, rule", [c[1:] for c in CLASSES],
                         ids=[c[0] for c in CLASSES])
def test_verify_solves_for_z22_alone(monkeypatch, targets, rule):
    """verify_identities inverts no matrix: Z22 is read from one solve with K
    against its m middle unit columns, and no other solve with K runs."""
    calls = {"inv": 0, "k_columns": []}
    inv, solve = np.linalg.inv, np.linalg.solve

    def counting_inv(a, *args, **kwargs):
        calls["inv"] += 1
        return inv(a, *args, **kwargs)

    def recording_solve(a, b, *args, **kwargs):
        if np.shape(a) == (sum(DIMS), sum(DIMS)):  # n, m, p and ell differ
            calls["k_columns"].append(np.shape(b)[1] if np.ndim(b) == 2 else 1)
        return solve(a, b, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    for seed in range(3):
        system, _ = gen_instance(GeneratorSpec(*DIMS, seed=seed, **targets))
        system = cold_copy(system)
        calls.update(inv=0, k_columns=[])
        entries = {e["id"]: e for e in verify_identities(system)}
        assert calls["inv"] == 0, calls
        solved = entries["nullity_bounds"]["status"] != "skipped"
        assert calls["k_columns"] == ([DIMS[1]] if solved else []), calls


@pytest.mark.parametrize("targets, rule", [c[1:] for c in CLASSES],
                         ids=[c[0] for c in CLASSES])
def test_verify_runs_no_svd_on_square_matrices(monkeypatch, targets, rule):
    """verify_identities reads the spectral norms and nonsingularity tests of
    its n x n and ell x ell matrices through eigenvalues: no svd and no
    norm(., 2) runs on such an input."""
    n, ell = DIMS[0], sum(DIMS)  # n, m, p and ell differ
    shapes = []
    svd, norm = np.linalg.svd, np.linalg.norm

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    def recording_norm(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:
            shapes.append(np.shape(x))
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(np.linalg, "norm", recording_norm)
    for seed in range(3):
        system, _ = gen_instance(GeneratorSpec(*DIMS, seed=seed, **targets))
        shapes.clear()
        verify_identities(cold_copy(system))
        assert not {(n, n), (ell, ell)} & set(shapes), shapes


def test_alpha_and_a_tilde_read_held_decompositions(counts):
    """After diagnose, the alpha interval and the congruence transform read the
    eigh of D that the system holds, and the two factorization calls read
    a_tilde^{-1} from the held eigh of A and D and N1's SVD of B Q0: no
    decomposition, and none of A + B^T (2I - D) B."""
    for seed in range(3):
        system, _ = gen_instance(GeneratorSpec(*DIMS, null_a=10, rank_b=10, rank_c=5,
                                               null_d=seed % 2, seed=seed))
        system = cold_copy(system)
        diagnose(system)
        counts.update(decompositions=0, shapes=[])
        dsaddle.congruence_transform(system, dsaddle.default_alpha(system))
        dsaddle.alpha_upper_bound(system)
        assert counts["decompositions"] == 0, counts
        dsaddle.factorize_transformed(system)
        dsaddle.inverse_via_factorization(system)
        assert counts["decompositions"] == 0, counts


def _reference_systems():
    yield fixture_three_block()
    for seed in range(6):
        for family in (max_deficient, psd_disjoint_ranges, direct_sum_singular):
            yield family(seed)[0]
        yield max_deficient(seed, null_e=1)[0]
        yield gen_instance(GeneratorSpec(6, 3, 2, seed=seed))[0]
        yield gen_instance(GeneratorSpec(5, 3, 3, null_a=2, def_a="indefinite", seed=seed))[0]


def test_k_eigh_matches_dense_references():
    """The oracle is the SVD rank of K, and ||K^{-1}||_2 from K's spectrum is
    the spectral norm of the LU inverse."""
    systems = list(_reference_systems())
    truths = [oracle_invertible(system) for system in systems]
    assert 0 < sum(truths) < len(systems)  # both verdicts are covered
    for system, truth in zip(systems, truths):
        assert truth == (matrix_rank(assemble(system).matrix) == system.ell)
        if truth:
            inv = dense_inverse_blocks(system)
            assert z22_nullity_bounds(system, inv).inverse_norm == \
                pytest.approx(np.linalg.norm(inv.full, 2), rel=1e-8)


def test_cli_loads_no_scipy_module(tmp_path):
    """numpy is the only runtime dependency: importing the CLI and running each
    subcommand, Matrix Market reads and writes included, loads no scipy module."""
    spec = tmp_path / "spec.json"
    spec.write_text('{"n": 6, "m": 3, "p": 2, "null_a": 3, "require_ds1": true, "seed": 1}')
    code = (
        "import sys, dsaddle.cli\n"
        "spec, out = sys.argv[1:]\n"
        "codes = [dsaddle.cli.main(['generate', '--spec', spec, '--out', out + '/blocks']),\n"
        "         dsaddle.cli.main(['diagnose', out + '/blocks']),\n"
        "         dsaddle.cli.main(['invert', out + '/blocks', '--out', out + '/inverse']),\n"
        "         dsaddle.cli.main(['verify', out + '/blocks'])]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code, str(spec), str(tmp_path)], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[0, 0, 0, 0] []"
