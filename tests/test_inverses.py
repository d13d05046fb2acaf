"""Projector identities, factorization and explicit inverse formulas."""

import numpy as np
import pytest

from dsaddle import (
    BlockSystem,
    InverseBlocks,
    PreconditionError,
    assemble,
    congruence_transform,
    default_alpha,
    dense_inverse_blocks,
    factorize_transformed,
    haar_orthogonal,
    inner_inverse_residual,
    inverse_via_factorization,
    kernel_basis,
    matrix_rank,
    nullity,
    oracle_invertible,
    projector_complement_residual,
    reduced_hessian_projector,
    reduced_projector_residual,
    three_block_inverse,
    transformed_schur_complement,
    two_block_inverse,
    verify_identities,
    weight_recovery_residual,
    z22_nullity_bounds,
)

from _families import direct_sum_singular, fixture_three_block, fixture_three_block_inverse, \
    max_deficient, psd_disjoint_ranges, random_systems

A2 = np.diag([0.0, 1.0])
B2 = np.array([[1.0, 0.0]])


class TestReducedHessianProjector:
    def test_hand_example(self):
        proj = reduced_hessian_projector(A2, B2)
        np.testing.assert_allclose(proj.V, np.diag([0.0, 1.0]), atol=1e-14)

    def test_full_column_rank_b_gives_zero(self):
        proj = reduced_hessian_projector(np.eye(2), np.eye(2))
        assert not proj.V.any() and proj.Z.dim == 0

    def test_identity_a_gives_kernel_projector(self):
        proj = reduced_hessian_projector(np.eye(3), np.array([[1.0, 0.0, 0.0]]))
        Z = proj.Z.basis
        np.testing.assert_allclose(proj.V, Z @ Z.T, atol=1e-14)

    def test_basis_independence(self):
        sys, _ = max_deficient(seed=2)
        proj = reduced_hessian_projector(sys.A, sys.B)
        Z = proj.Z.basis
        rotated = Z @ haar_orthogonal(Z.shape[1], np.random.default_rng(0))
        V_other = rotated @ np.linalg.solve(rotated.T @ sys.A @ rotated, rotated.T)
        np.testing.assert_allclose(proj.V, V_other, atol=1e-10)

    def test_annihilates_bt(self):
        sys, _ = max_deficient(seed=1)
        proj = reduced_hessian_projector(sys.A, sys.B)
        assert np.linalg.norm(proj.V @ sys.B.T) < 1e-12

    def test_rejects_overlapping_kernels(self):
        with pytest.raises(PreconditionError, match="intersect"):
            reduced_hessian_projector(np.zeros((2, 2)), np.array([[0.0, 0.0]]))

    def test_rejects_indefinite_a(self):
        with pytest.raises(PreconditionError, match="semidefinite"):
            reduced_hessian_projector(np.diag([1.0, -1.0]), B2)


class TestInnerInverse:
    def test_hand_example(self):
        proj = reduced_hessian_projector(A2, B2)
        assert inner_inverse_residual(A2, proj) == pytest.approx(0.0, abs=1e-14)

    def test_zero_a_with_square_b(self):
        proj = reduced_hessian_projector(np.zeros((2, 2)), np.eye(2))
        assert inner_inverse_residual(np.zeros((2, 2)), proj) == 0.0

    def test_error_when_direct_sum_fails(self):
        proj = reduced_hessian_projector(np.eye(2), B2)
        with pytest.raises(PreconditionError, match="direct sum"):
            inner_inverse_residual(np.eye(2), proj)

    def test_identities_on_generated_instances(self):
        for seed in range(20):
            sys, _ = max_deficient(seed=seed)
            proj = reduced_hessian_projector(sys.A, sys.B)
            assert inner_inverse_residual(sys.A, proj) <= 1e-10
            # A (I - VA) = (I - AV) A = 0 under the same hypotheses
            n = sys.n
            assert np.linalg.norm(sys.A @ (np.eye(n) - proj.V @ sys.A), 2) <= 1e-10
            assert np.linalg.norm((np.eye(n) - sys.A @ proj.V) @ sys.A, 2) <= 1e-10


class TestWeightRecovery:
    def test_diagonal_case_exact(self):
        w = 3.7
        res = weight_recovery_residual(A2, B2, np.array([[w]]))
        assert res <= 1e-14

    def test_random_instances_with_identity_weight(self):
        for seed in range(20):
            sys, _ = max_deficient(seed=seed)
            res = weight_recovery_residual(sys.A, sys.B, np.eye(sys.m))
            assert res <= 1e-10

    def test_nonsymmetric_invertible_weight(self):
        rng = np.random.default_rng(3)
        sys, _ = max_deficient(seed=6)
        W = np.eye(sys.m) + 0.3 * rng.standard_normal((sys.m, sys.m))
        assert weight_recovery_residual(sys.A, sys.B, W) <= 1e-9

    def test_wrong_nullity_raises(self):
        with pytest.raises(PreconditionError, match="null"):
            weight_recovery_residual(np.eye(2), B2, np.eye(1))

    def test_singular_weight_raises(self):
        with pytest.raises(PreconditionError, match="invertible"):
            weight_recovery_residual(A2, B2, np.zeros((1, 1)))


class TestProjectorComplement:
    def test_full_row_rank_identity(self):
        for seed in range(20):
            sys, _ = max_deficient(seed=seed)
            Z = kernel_basis(sys.B)
            assert projector_complement_residual(sys.B, Z) <= 1e-10

    def test_rank_deficient_b_raises(self):
        B = np.array([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(PreconditionError, match="row rank"):
            projector_complement_residual(B, kernel_basis(B))

    def test_wrong_kernel_raises(self):
        Z_wrong = kernel_basis(np.array([[0.0, 1.0]]))
        with pytest.raises(PreconditionError, match="kernel"):
            projector_complement_residual(B2, Z_wrong)


class TestReducedProjector:
    def test_identity_on_generated_instances(self):
        for seed in range(20):
            sys, _ = max_deficient(seed=seed)
            proj = reduced_hessian_projector(sys.A, sys.B)
            assert reduced_projector_residual(sys.A, proj) <= 1e-10

    def test_mismatched_a_raises(self):
        sys, _ = max_deficient(seed=0)
        proj = reduced_hessian_projector(sys.A, sys.B)
        other = sys.A + np.eye(sys.n)
        with pytest.raises(PreconditionError, match="built"):
            reduced_projector_residual(other, proj)


class TestTransformedSchur:
    def test_zero_d_shape(self):
        sys = fixture_three_block()
        S = transformed_schur_complement(sys, 1.0)
        np.testing.assert_allclose(S, [[-0.5, 0.5], [0.5, 1.5]], atol=1e-14)
        # determinant oracle: S invertible matches K invertible
        assert np.abs(np.linalg.det(S)) > 1e-12 and oracle_invertible(sys)

    def test_equivalence_across_alphas(self):
        for seed in range(12):
            singular = seed % 2 == 1
            sys, _ = max_deficient(seed=seed, null_e=1 if singular else 0,
                                   null_d=seed % 3 == 0)
            bound = 2.0 / max(np.linalg.eigvalsh(sys.D)[-1], 1e-9)
            alphas = [f * min(bound, 4.0) for f in (0.2, 0.5, 0.9)]
            for alpha in alphas:
                S = transformed_schur_complement(sys, alpha)
                s = np.linalg.svd(S, compute_uv=False)
                s_ok = s[-1] > 1e-10 * max(S.shape) * s[0]
                assert s_ok == oracle_invertible(sys)

    def test_completes_transformed_matrix(self):
        # S is the Schur complement of the transformed matrix's leading
        # block: the 2 x 2 block LDL^T with it reconstructs the transform
        for seed in range(8):
            sys, _ = max_deficient(seed, null_d=seed % 2, null_e=seed % 3 == 0)
            lam = np.linalg.eigvalsh(sys.D)[-1]
            for factor in (0.3, 0.8):
                alpha = factor * (2.0 / lam if lam > 0 else 2.0)
                Kt, _ = congruence_transform(sys, alpha)
                S = transformed_schur_complement(sys, alpha)
                n, m, _ = sys.dims
                M = 2.0 * np.eye(m) - alpha * sys.D
                a_tilde = sys.A + alpha * sys.B.T @ M @ sys.B
                coupling = np.vstack([sys.B - alpha * sys.D @ sys.B,
                                      alpha * sys.C @ sys.B])
                L = np.eye(sys.ell)
                L[n:, :n] = coupling @ np.linalg.inv(a_tilde)
                mid = np.zeros((sys.ell, sys.ell))
                mid[:n, :n] = a_tilde
                mid[n:, n:] = S
                scale = np.linalg.norm(Kt.matrix, 2)
                assert np.linalg.norm(L @ mid @ L.T - Kt.matrix, 2) <= 1e-9 * scale

    def test_out_of_interval_alpha_raises(self):
        sys = BlockSystem(A2, B2, np.array([[1.0]]), np.array([[1.0]]),
                          np.array([[2.0]]))
        with pytest.raises(PreconditionError, match="admissible"):
            transformed_schur_complement(sys, 2.0)
        with pytest.raises(PreconditionError):
            transformed_schur_complement(sys, 0.0)


class TestFactorization:
    def test_zero_d_blocks(self):
        sys = fixture_three_block()
        fact = factorize_transformed(sys)
        np.testing.assert_allclose(fact.a_tilde, np.diag([2.0, 1.0]), atol=1e-14)
        np.testing.assert_array_equal(fact.b_one, sys.B)

    def test_reconstructs_transform(self):
        for seed in range(12):
            sys, _ = max_deficient(seed=seed, null_d=seed % 2)
            fact = factorize_transformed(sys)
            Kt, _ = congruence_transform(sys, 1.0)
            recon = fact.reconstruct()
            assert np.linalg.norm(recon - Kt.matrix, 2) \
                <= 1e-12 * max(np.linalg.norm(Kt.matrix, 2), 1.0)

    def test_rank_revealed_by_middle_factor(self):
        sys, _ = max_deficient(seed=4, null_e=1)
        fact = factorize_transformed(sys)
        K = assemble(sys).matrix
        assert matrix_rank(fact.mid) == matrix_rank(K) == sys.ell - 1

    def test_large_d_raises_with_bound(self):
        sys = BlockSystem(A2, B2, np.array([[1.0]]), np.array([[5.0]]),
                          np.array([[2.0]]))
        with pytest.raises(PreconditionError, match="lambda_max"):
            factorize_transformed(sys)

    def test_wrong_nullity_raises(self):
        sys = BlockSystem(np.eye(2), B2, np.array([[1.0]]), None, np.array([[2.0]]))
        with pytest.raises(PreconditionError, match="null"):
            factorize_transformed(sys)


class TestInverseViaFactorization:
    def test_running_example(self):
        inv = inverse_via_factorization(fixture_three_block())
        np.testing.assert_allclose(inv.full, fixture_three_block_inverse(), atol=1e-12)

    def test_matches_printed_triangular_inverse(self):
        # the inverse factors derived by block back-substitution must agree
        # with writing them directly in terms of a_tilde, B1 and C
        sys, _ = max_deficient(seed=7, null_d=1)
        fact = factorize_transformed(sys)
        n, m, p = sys.dims
        at_inv = np.linalg.inv(fact.a_tilde)
        upper = np.eye(sys.ell)
        upper[:n, n:n + m] = -at_inv @ fact.b_one.T
        upper[:n, n + m:] = -at_inv @ (sys.B + fact.b_one).T @ sys.C.T
        upper[n:n + m, n + m:] = sys.C.T
        mid_inv = np.zeros((sys.ell, sys.ell))
        mid_inv[:n, :n] = at_inv
        mid_inv[n:n + m, n:n + m] = -(2.0 * np.eye(m) - sys.D)
        mid_inv[n + m:, n + m:] = np.linalg.inv(sys.E)
        printed = upper @ mid_inv @ upper.T
        Kt, _ = congruence_transform(sys, 1.0)
        assert np.linalg.norm(printed @ Kt.matrix - np.eye(sys.ell), 2) <= 1e-8

    def test_decoupled_system_reduces_to_two_block(self):
        # C = 0 splits the system into the 2 x 2 saddle part and E
        sys, _ = max_deficient(seed=3, rank_c=0, null_d=1)
        inv = inverse_via_factorization(sys)
        tb = two_block_inverse(sys.A, sys.B, sys.D)
        np.testing.assert_allclose(inv.z11, tb.x11, atol=1e-10)
        np.testing.assert_allclose(inv.z12, tb.x12, atol=1e-10)
        np.testing.assert_allclose(inv.z33, np.linalg.inv(sys.E), atol=1e-10)
        assert np.linalg.norm(inv.z13) < 1e-12 and np.linalg.norm(inv.z23) < 1e-12

    def test_singular_e_raises(self):
        sys, _ = max_deficient(seed=5, null_e=1)
        with pytest.raises(PreconditionError, match="E"):
            inverse_via_factorization(sys)


def test_factorization_never_succeeds_alone():
    # null(A) = m and N1 force rank(B) = m and hence DS1, so whenever the
    # factorization applies the three-block formula applies too
    from dsaddle import GeneratorSpec, gen_instance
    rng = np.random.default_rng(11)
    factorized = 0
    for seed in range(300):
        m, p = (int(x) for x in rng.integers(1, 5, size=2))
        n = m + int(rng.integers(0, 4))
        spec = GeneratorSpec(n=n, m=m, p=p, null_a=m,
                             rank_b=int(rng.integers(0, m + 1)),
                             rank_c=int(rng.integers(0, min(p, m) + 1)),
                             null_d=int(rng.integers(0, m + 1)),
                             null_e=int(rng.integers(0, 2)),
                             def_d="indefinite" if seed % 4 == 0 else "psd", seed=seed)
        try:  # infeasible specs and inapplicable factorizations are skipped
            sys, _ = gen_instance(spec)
            inverse_via_factorization(sys)
        except (ValueError, PreconditionError):
            continue
        three_block_inverse(sys)
        factorized += 1
    assert factorized >= 20


class TestTwoBlockInverse:
    def test_fixture(self):
        tb = two_block_inverse(A2, B2, np.array([[3.0]]))
        expected = np.array([[3.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        np.testing.assert_allclose(tb.full, expected, atol=1e-13)
        khat = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, -3.0]])
        np.testing.assert_allclose(tb.full, np.linalg.inv(khat), atol=1e-12)

    def test_zero_d_top_left_is_projector(self):
        tb = two_block_inverse(A2, B2, np.zeros((1, 1)))
        proj = reduced_hessian_projector(A2, B2)
        np.testing.assert_allclose(tb.x11, proj.V, atol=1e-14)

    def test_zero_a_square_b(self):
        d = 2.5
        tb = two_block_inverse(np.zeros((1, 1)), np.array([[1.0]]),
                               np.array([[d]]))
        np.testing.assert_allclose(tb.full, [[d, 1.0], [1.0, 0.0]], atol=1e-13)

    def test_product_is_identity(self):
        for seed in range(10):
            sys, _ = max_deficient(seed=seed, null_d=seed % 2)
            tb = two_block_inverse(sys.A, sys.B, sys.D)
            khat = np.block([[sys.A, sys.B.T], [sys.B, -sys.D]])
            resid = np.linalg.norm(khat @ tb.full - np.eye(sys.n + sys.m), 2)
            assert resid <= 1e-10
            assert not tb.x22.any()

    def test_precondition_errors(self):
        with pytest.raises(PreconditionError):
            two_block_inverse(np.eye(2), B2, np.zeros((1, 1)))


class TestThreeBlockInverse:
    def test_running_example_blocks(self):
        inv = three_block_inverse(fixture_three_block())
        np.testing.assert_allclose(inv.z11, [[0.5, 0.0], [0.0, 1.0]], atol=1e-14)
        np.testing.assert_allclose(inv.z12, [[1.0], [0.0]], atol=1e-14)
        np.testing.assert_allclose(inv.z13, [[-0.5], [0.0]], atol=1e-14)
        np.testing.assert_allclose(inv.z33, [[0.5]], atol=1e-14)
        np.testing.assert_allclose(inv.full, fixture_three_block_inverse(), atol=1e-13)

    def test_matches_dense_oracle(self):
        for seed in range(10):
            sys, _ = max_deficient(seed=seed, null_d=seed % 3 == 0,
                                   def_d="indefinite" if seed % 3 == 1 else "psd")
            inv = three_block_inverse(sys)
            dense = dense_inverse_blocks(sys)
            np.testing.assert_allclose(inv.full, dense.full, atol=1e-8)
            assert not inv.z22.any() and not inv.z23.any()

    def test_zero_c_reduces_to_two_block(self):
        sys, _ = max_deficient(seed=8, rank_c=0, null_d=1)
        inv = three_block_inverse(sys)
        tb = two_block_inverse(sys.A, sys.B, sys.D)
        np.testing.assert_allclose(inv.z11, tb.x11, atol=1e-10)
        assert np.linalg.norm(inv.z13) < 1e-13

    def test_agreement_with_factorization(self):
        for seed in range(10):
            sys, _ = max_deficient(seed=seed, null_d=seed % 2)
            a = three_block_inverse(sys)
            b = inverse_via_factorization(sys)
            for name in ("z11", "z12", "z13", "z22", "z23", "z33"):
                np.testing.assert_allclose(getattr(a, name), getattr(b, name),
                                           atol=1e-8)

    def test_singular_e_raises(self):
        sys, _ = max_deficient(seed=2, null_e=1)
        with pytest.raises(PreconditionError, match="E"):
            three_block_inverse(sys)

    def test_symmetry_of_output(self):
        sys, _ = max_deficient(seed=6)
        X = three_block_inverse(sys).full
        np.testing.assert_allclose(X, X.T, atol=1e-14)


class TestNullityBounds:
    def test_running_example_corner(self):
        sys = fixture_three_block()
        report = z22_nullity_bounds(sys, dense_inverse_blocks(sys))
        assert report.null_a == 1 and report.null_e == 0
        assert report.null_z22 == 1 == report.m
        assert report.corner_expected and report.corner_zero_ok
        assert report.satisfied

    def test_pd_blocks_collapse_bounds(self):
        sys = BlockSystem(np.eye(2), np.array([[1.0, 0.0]]), np.array([[1.0]]),
                          np.array([[1.0]]), np.array([[2.0]]))
        report = z22_nullity_bounds(sys, dense_inverse_blocks(sys))
        assert report.null_z22 == 0 and report.upper_bound == 0
        assert report.satisfied

    def test_generated_sweep_with_disjoint_ranges(self):
        # null(A) = 1, null(E) = 1, m = 3, ranges disjoint: nullity pinned to 2
        from dsaddle import GeneratorSpec, gen_instance
        spec = GeneratorSpec(n=4, m=3, p=3, null_a=1, null_e=1, rank_b=1,
                             rank_c=1, null_d=0, require_r=True, seed=23)
        sys, cert = gen_instance(spec)
        assert cert.range_disjoint and oracle_invertible(sys)
        report = z22_nullity_bounds(sys, dense_inverse_blocks(sys))
        assert report.refined_lower == 2 and report.null_z22 == 2
        assert report.satisfied

    def test_singular_system_raises(self):
        singular = BlockSystem(np.zeros((1, 1)), np.zeros((1, 1)),
                               np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)))
        with pytest.raises(PreconditionError, match="invertible"):
            z22_nullity_bounds(singular, InverseBlocks.from_full(np.eye(3), (1, 1, 1)))


class TestVerifyIdentities:
    def test_all_pass_on_max_deficient(self):
        sys, _ = max_deficient(seed=0)
        entries = verify_identities(sys)
        by_id = {e["id"]: e for e in entries}
        for name in ("weight_recovery", "inner_inverse", "projector_complement",
                     "reduced_projector", "congruence", "nullity_bounds"):
            assert by_id[name]["status"] == "ok", by_id[name]

    def test_skips_with_reasons_when_hypotheses_fail(self):
        sys = BlockSystem(np.eye(2), B2, np.array([[1.0]]), None, np.array([[2.0]]))
        entries = verify_identities(sys)
        by_id = {e["id"]: e for e in entries}
        assert by_id["weight_recovery"]["status"] == "skipped"
        assert "null" in by_id["weight_recovery"]["reason"]
        assert by_id["congruence"]["status"] == "ok"


def _guarded_systems():
    """The instance families and 30 seeded gen_instance specs, every third
    one maximally deficient."""
    yield fixture_three_block()
    for seed in range(6):
        yield max_deficient(seed)[0]
        yield max_deficient(seed, null_e=1)[0]
        yield max_deficient(seed, null_d=1, rank_c=1)[0]
        yield psd_disjoint_ranges(seed)[0]
        yield direct_sum_singular(seed)[0]
    yield from random_systems(30, 13, deficient_every=3)


def test_blockwise_identities_match_dense_formulas():
    """verify's Z22 solve, thin congruence products and (n - m) x n projector
    residual, and the blockwise factorization inverse, agree with the dense
    formulas they replace: the LU inverse, W^T K W with the assembled W,
    ||Z Z^T A V - Z Z^T||_2, and K^{-1} by dense LU."""
    compared = dict.fromkeys(("nullity_bounds", "congruence", "reduced_projector",
                              "factorization"), 0)
    for sys in _guarded_systems():
        by_id = {e["id"]: e for e in verify_identities(sys)}
        K = assemble(sys).matrix
        if by_id["nullity_bounds"]["status"] != "skipped":
            detail = dict(by_id["nullity_bounds"]["detail"])
            dense = z22_nullity_bounds(sys, dense_inverse_blocks(sys)).to_dict()
            assert detail.pop("z22_norm") == pytest.approx(dense.pop("z22_norm"), rel=1e-8)
            assert detail == dense
            compared["nullity_bounds"] += 1
        Kt, W = congruence_transform(sys, default_alpha(sys))
        residual = (np.linalg.norm(W.matrix.T @ K @ W.matrix - Kt.matrix)
                    / np.linalg.norm(Kt.matrix))
        assert by_id["congruence"]["residual"] == pytest.approx(residual, rel=0, abs=1e-13)
        compared["congruence"] += 1
        if by_id["reduced_projector"]["status"] != "skipped":
            proj = reduced_hessian_projector(sys.A, sys.B)
            ZZt = proj.Z.basis @ proj.Z.basis.T
            residual = np.linalg.norm(ZZt @ sys.A @ proj.V - ZZt, 2)
            assert by_id["reduced_projector"]["residual"] == \
                pytest.approx(residual, rel=0, abs=1e-13)
            compared["reduced_projector"] += 1
        try:
            X = inverse_via_factorization(sys).full
        except PreconditionError:
            continue
        reference = dense_inverse_blocks(sys).full
        assert np.linalg.norm(X - reference) <= 1e-10 * np.linalg.norm(reference)
        compared["factorization"] += 1
    assert min(compared.values()) >= 10, compared
