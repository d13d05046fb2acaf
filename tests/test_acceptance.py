"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import json
import time

import numpy as np
import pytest

from dsaddle import (
    BlockSystem,
    GeneratorSpec,
    PreconditionError,
    Verdict,
    assemble,
    congruence_transform,
    corollary_rules,
    dense_inverse_blocks,
    diagnose,
    direct_sum_iff,
    e_iff_rule,
    gen_instance,
    inner_inverse_residual,
    inverse_via_factorization,
    is_nonsingular,
    kernel_basis,
    oracle_invertible,
    projector_complement_residual,
    rank_b_iff,
    rank_c_iff,
    reduced_hessian_projector,
    reduced_projector_residual,
    three_block_inverse,
    transformed_schur_complement,
    two_block_inverse,
    weight_recovery_residual,
    z22_nullity_bounds,
)
from dsaddle.cli import main as cli_main

from _families import (
    direct_sum_singular,
    fixture_three_block,
    fixture_three_block_inverse,
    max_deficient,
    psd_disjoint_ranges,
)

WITNESS_RTOL = 1e-8
IDENTITY_RTOL = 1e-10


def report(num, ok, detail):
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def spectral_residual(sys, X):
    K = assemble(sys).matrix
    return np.linalg.norm(K @ X - np.eye(sys.ell), 2)


def witness_sound(sys, diag):
    K = assemble(sys).matrix
    u = diag.witness
    return (abs(np.linalg.norm(u) - 1.0) < 1e-12
            and np.linalg.norm(K @ u) <= WITNESS_RTOL * np.linalg.norm(K, 2))


def test_criterion_1_fixture_exactness():
    start = time.perf_counter()

    two = two_block_inverse(np.diag([0.0, 1.0]), np.array([[1.0, 0.0]]),
                            np.array([[3.0]]))
    expected_two = np.array([[3.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    khat = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, -3.0]])
    err_two = max(np.max(np.abs(two.full - expected_two)),
                  np.max(np.abs(two.full - np.linalg.inv(khat))))

    sys = fixture_three_block()
    three = three_block_inverse(sys)
    dense = np.linalg.inv(assemble(sys).matrix)
    err_three = max(np.max(np.abs(three.full - fixture_three_block_inverse())),
                    np.max(np.abs(three.full - dense)))

    elapsed = time.perf_counter() - start
    ok = err_two <= 1e-12 and err_three <= 1e-12 and elapsed < 1.0
    report(1, ok, f"max-entry errors {err_two:.2e}/{err_three:.2e}, {elapsed:.3f}s")


def _necessary_violation(seed):
    kind = seed % 3
    if kind == 0:
        spec = GeneratorSpec(n=5, m=2, p=3, null_a=2, rank_b=1, seed=seed)
    elif kind == 1:
        spec = GeneratorSpec(n=4, m=4, p=3, null_d=4, rank_b=1, rank_c=1,
                             require_r=True, seed=seed)
    else:
        spec = GeneratorSpec(n=4, m=3, p=3, null_e=2, rank_c=1, seed=seed)
    return gen_instance(spec)


def _schur_family(seed):
    spec = GeneratorSpec(n=4, m=3, p=2, null_a=0, null_d=seed % 2,
                         null_e=int(seed % 3 == 0), rank_b=2, rank_c=2,
                         def_d="indefinite" if seed % 5 == 0 else "psd",
                         seed=seed)
    return gen_instance(spec)


def _psd_family(seed):
    spec = GeneratorSpec(n=5, m=3, p=3, null_a=seed % 2, null_d=int(seed % 3 == 0),
                         null_e=int(seed % 4 == 0), rank_b=2 + seed % 2, rank_c=2,
                         seed=seed)
    return gen_instance(spec)


def _corollary_family(seed):
    kind = seed % 3
    if kind == 0:  # zero A, full or deficient rank B
        spec = GeneratorSpec(n=2, m=3, p=2, null_a=2, rank_b=2 - (seed // 3) % 2,
                             seed=seed)
    elif kind == 1:  # zero E
        spec = GeneratorSpec(n=3, m=3, p=2, null_e=2, rank_c=2 - (seed // 3) % 2,
                             seed=seed)
    else:  # zero D
        overlap = (seed // 3) % 2 == 1
        spec = GeneratorSpec(n=4, m=3, p=3, null_d=3,
                             rank_b=1, rank_c=1 if overlap else 2,
                             require_r=True, seed=seed)
    return gen_instance(spec)


def _rank_b_zero_e(seed):
    n, m, p = (4, 2, 2) if seed % 2 else (5, 3, 2)
    spec = GeneratorSpec(n=n, m=m, p=p, null_a=m, rank_b=m, rank_c=p,
                         null_e=p, seed=seed)
    return gen_instance(spec)


def _rank_c_zero_a(seed):
    n, m, p = (2, 2, 4) if seed % 2 else (2, 3, 5)
    spec = GeneratorSpec(n=n, m=m, p=p, null_a=n, rank_b=n, rank_c=m,
                         null_e=m, require_ds2=True, seed=seed)
    return gen_instance(spec)


def _e_iff_family(seed):
    return max_deficient(seed, null_e=int(seed % 3 == 0), null_d=seed % 2)


def test_criterion_2_diagnosis_soundness():
    start = time.perf_counter()
    families = {
        "necessary": _necessary_violation,
        "schur": _schur_family,
        "psd_ladder": _psd_family,
        "corollaries": _corollary_family,
        "direct_sum": lambda s: (psd_disjoint_ranges(s) if s % 2
                                 else direct_sum_singular(s)),
        "rank_b": lambda s: (_rank_b_zero_e(s) if s % 2
                             else max_deficient(s, rank_c=0)),
        "rank_c": _rank_c_zero_a,
        "e_iff": _e_iff_family,
    }
    checked = 0
    for name, family in families.items():
        for seed in range(200):
            sys, _ = family(seed)
            diag = diagnose(sys)
            if diag.verdict is Verdict.INVERTIBLE:
                assert oracle_invertible(sys), f"{name} seed {seed}: unsound invertible"
            elif diag.verdict is Verdict.SINGULAR:
                assert witness_sound(sys, diag), f"{name} seed {seed}: bad witness"
            checked += 1
    elapsed = time.perf_counter() - start
    ok = checked >= 1600 and elapsed < 30.0
    report(2, ok, f"{checked} diagnoses across {len(families)} families, "
                  f"no unsound verdicts, {elapsed:.1f}s")


def test_criterion_3_iff_rule_completeness():
    cases = {
        "corollaries": (_corollary_family, corollary_rules, 210),
        "direct_sum_iff": (
            lambda s: (direct_sum_singular(s) if s % 2 else
                       gen_instance(GeneratorSpec(
                           n=4, m=3, p=3, null_a=1, null_e=1, rank_b=1, rank_c=1,
                           require_ds1=True, require_ds2=True, require_r=True,
                           seed=s))),
            direct_sum_iff, 200),
        "rank_b_iff_zero_E": (_rank_b_zero_e, rank_b_iff, 200),
        "rank_c_iff_zero_A": (_rank_c_zero_a, rank_c_iff, 200),
        "e_iff": (_e_iff_family, e_iff_rule, 200),
    }
    mismatches = []
    total = 0
    for name, (family, rule, count) in cases.items():
        for seed in range(count):
            sys, _ = family(seed)
            verdict = rule(sys).verdict
            assert verdict is not Verdict.UNDETERMINED, \
                f"{name} seed {seed}: hypotheses unexpectedly inapplicable"
            truth = oracle_invertible(sys)
            if (verdict is Verdict.INVERTIBLE) != truth:
                mismatches.append((name, seed))
            total += 1
    report(3, not mismatches,
           f"{total} on-hypothesis instances, {len(mismatches)} oracle mismatches")


def test_criterion_4_identity_suite():
    rng = np.random.default_rng(0)
    worst = 0.0
    for seed in range(200):
        sys, _ = max_deficient(seed, null_d=int(seed % 3 == 0),
                               def_d="indefinite" if seed % 7 == 0 else "psd")
        proj = reduced_hessian_projector(sys.A, sys.B)
        if seed % 2:
            W = np.eye(sys.m)
        else:
            G = rng.standard_normal((sys.m, sys.m))
            W = G @ G.T + sys.m * np.eye(sys.m)
        lam = np.linalg.eigvalsh(sys.D)[-1]
        alpha = rng.uniform(0.1, 0.9) * (2.0 / lam if lam > 0 else 2.0)

        Kt, Wc = congruence_transform(sys, alpha)
        K = assemble(sys).matrix
        residuals = (
            weight_recovery_residual(sys.A, sys.B, W),
            inner_inverse_residual(sys.A, proj),
            projector_complement_residual(sys.B, kernel_basis(sys.B)),
            reduced_projector_residual(sys.A, proj),
            np.linalg.norm(Wc.matrix.T @ K @ Wc.matrix - Kt.matrix, 2)
            / np.linalg.norm(Kt.matrix, 2),
        )
        worst = max(worst, *residuals)
    assert worst <= IDENTITY_RTOL

    # violated hypotheses must raise, never return numbers
    A2, B2 = np.diag([0.0, 1.0]), np.array([[1.0, 0.0]])
    with pytest.raises(PreconditionError):
        weight_recovery_residual(np.eye(2), B2, np.eye(1))
    with pytest.raises(PreconditionError):
        inner_inverse_residual(np.eye(2), reduced_hessian_projector(np.eye(2), B2))
    degenerate = np.array([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(PreconditionError):
        projector_complement_residual(degenerate, kernel_basis(degenerate))
    with pytest.raises(PreconditionError):
        reduced_projector_residual(np.eye(2) + A2,
                                   reduced_hessian_projector(A2, B2))
    with pytest.raises(PreconditionError):
        congruence_transform(BlockSystem(A2, B2, np.ones((1, 1)),
                                         np.array([[4.0]]), np.ones((1, 1))), 1.0)
    report(4, worst <= IDENTITY_RTOL,
           f"5 identities x 200 instances, worst residual {worst:.2e}, "
           f"violations raise")


def test_criterion_5_inverse_constructors():
    shapes = ((6, 3, 4), (10, 4, 6), (14, 6, 8), (9, 2, 5))
    checked = 0
    worst_residual = 0.0
    worst_gap = 0.0
    for seed in range(60):
        n, m, p = shapes[seed % len(shapes)]
        spec = GeneratorSpec(n=n, m=m, p=p, null_a=m, rank_b=m,
                             null_d=int(seed % 3 == 0), rank_c=min(p, m) - seed % 2,
                             def_d="indefinite" if seed % 5 == 0 else "psd",
                             seed=seed)
        sys, _ = gen_instance(spec)
        K = assemble(sys).matrix
        cond = np.linalg.cond(K)
        assert cond <= 1e6, f"generator produced cond {cond:.1e}"

        a = three_block_inverse(sys)
        b = inverse_via_factorization(sys)
        worst_residual = max(worst_residual,
                             spectral_residual(sys, a.full),
                             spectral_residual(sys, b.full))
        assert not a.z22.any() and not a.z23.any()
        scale = np.linalg.norm(b.full, 2)
        assert np.linalg.norm(b.z22, 2) <= 1e-10 * scale
        assert np.linalg.norm(b.z23, 2) <= 1e-10 * scale
        for name in ("z11", "z12", "z13", "z22", "z23", "z33"):
            gap = np.linalg.norm(getattr(a, name) - getattr(b, name), 2)
            worst_gap = max(worst_gap, gap)
        checked += 1
    ok = worst_residual <= 1e-8 and worst_gap <= 1e-8
    report(5, ok, f"{checked} instances, worst ||KX-I|| {worst_residual:.2e}, "
                  f"worst constructor gap {worst_gap:.2e}")


def test_criterion_6_nullity_bounds():
    invertible_checked = 0
    corner_ok = True
    for d in (3, 4, 5, 6):
        for a in range(d + 1):
            for e in range(d + 1):
                if a + e > d:
                    continue  # no invertible system exists in that corner
                for seed in (0, 1, 2):
                    rank_b = a + (d - a - e) // 2
                    rank_c = d - rank_b
                    spec = GeneratorSpec(n=d, m=d, p=d, null_a=a, null_e=e,
                                         rank_b=rank_b, rank_c=rank_c,
                                         require_r=True, seed=seed)
                    sys, cert = gen_instance(spec)
                    assert oracle_invertible(sys)
                    bounds = z22_nullity_bounds(sys, dense_inverse_blocks(sys))
                    assert bounds.eq_base_holds, (d, a, e, seed)
                    assert cert.range_disjoint and bounds.eq_refined_holds, \
                        (d, a, e, seed)
                    if bounds.corner_expected:
                        corner_ok &= bounds.corner_zero_ok
                    invertible_checked += 1

    # the excluded corner is genuinely infeasible: null(A) + null(E) > m
    # always forces singularity
    for seed in range(5):
        spec = GeneratorSpec(n=4, m=4, p=4, null_a=3, null_e=3, rank_b=4,
                             rank_c=4, seed=seed)
        sys, _ = gen_instance(spec)
        assert not oracle_invertible(sys)

    ok = invertible_checked >= 200 and corner_ok
    report(6, ok, f"{invertible_checked} invertible sweep instances, bounds "
                  f"held everywhere, corner blocks vanish")


def test_criterion_7_schur_equivalence():
    agreements = 0
    total = 0
    for seed in range(200):
        sys, _ = max_deficient(seed, null_e=int(seed % 3 == 0), null_d=seed % 2)
        lam = np.linalg.eigvalsh(sys.D)[-1]
        bound = 2.0 / lam if lam > 0 else 4.0
        truth = oracle_invertible(sys)
        for factor in (0.2, 0.5, 0.9):
            S = transformed_schur_complement(sys, factor * bound)
            total += 1
            if is_nonsingular(S) == truth:
                agreements += 1
    report(7, agreements == total,
           f"sign agreement on {agreements}/{total} (instance, alpha) pairs")


def test_criterion_8_determinism(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"n": 5, "m": 2, "p": 3, "null_a": 2, "rank_b": 2, "null_e": 1,
         "seed": 3}))

    outputs = []
    for label in ("one", "two"):
        out_dir = tmp_path / label
        assert cli_main(["generate", "--spec", str(spec_path),
                         "--out", str(out_dir), "--seed", "9",
                         "--format", "json"]) == 0
        outputs.append({name: (out_dir / name).read_bytes()
                        for name in ("A.mtx", "B.mtx", "C.mtx", "D.mtx",
                                     "E.mtx", "certificate.json")})
    generate_identical = outputs[0] == outputs[1]
    capsys.readouterr()  # drain the generate payloads

    reports = []
    for _ in range(2):
        code = cli_main(["diagnose", str(tmp_path / "one"), "--format", "json"])
        reports.append(capsys.readouterr().out)
        assert code in (0, 1, 2)
    diagnose_identical = reports[0] == reports[1]

    report(8, generate_identical and diagnose_identical,
           "generate and diagnose reports byte-identical across runs")
