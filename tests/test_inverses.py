"""Projector identities, factorization and explicit inverse formulas."""

import dataclasses
import re
from itertools import islice

import numpy as np
import pytest

from dsaddle import (
    BlockSystem,
    GeneratorSpec,
    InverseBlocks,
    PreconditionError,
    ReducedHessianProjector,
    SubspaceBasis,
    alpha_upper_bound,
    assemble,
    condition_report,
    congruence_transform,
    default_alpha,
    dense_inverse_blocks,
    factorize_transformed,
    gen_instance,
    gen_psd_with_nullity,
    gen_rank,
    haar_orthogonal,
    inner_inverse_residual,
    inverse_via_factorization,
    kernel_basis,
    matrix_rank,
    nullity,
    oracle_invertible,
    permute_similar,
    projector_complement_residual,
    range_basis,
    range_intersection_trivial,
    reduced_hessian_projector,
    reduced_projector_residual,
    three_block_inverse,
    TwoBlockInverse,
    transformed_schur_complement,
    two_block_inverse,
    verify_identities,
    weight_recovery_residual,
    z22_nullity_bounds,
)

from dsaddle.core import _HYPOTHESES, _projector_from_basis
from dsaddle.invertibility import _analysis, _first
from _families import cold_copy, direct_sum_singular, extreme_scale_systems, \
    fixture_three_block, fixture_three_block_inverse, max_deficient, psd_disjoint_ranges, \
    random_systems

A2 = np.diag([0.0, 1.0])
B2 = np.array([[1.0, 0.0]])
# A psd holds (its eigenvalue -1e-8 is inside the slack) and N1 holds at the stacked
# cut, yet Z = ker(B) = e1 gives Z^T A Z = A[0, 0] = 0
A_SCALED = np.array([[0.0, 1.0], [1.0, 1e8]])
B_SCALED = np.array([[0.0, 1e8]])


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

    @pytest.mark.parametrize("corner", [0.0, 1e-30])
    def test_numerically_singular_reduced_hessian_is_a_precondition_error(self, corner):
        """Z^T A Z = A[0, 0]: np.linalg.solve raised LinAlgError on 0, and on 1e-30,
        far under A's rank cut, it returned a V of norm 1e30."""
        A = A_SCALED.copy()
        A[0, 0] = corner
        with pytest.raises(PreconditionError, match="reduced Hessian"):
            reduced_hessian_projector(A, B_SCALED)
        with pytest.raises(PreconditionError, match="reduced Hessian"):
            reduced_projector_residual(A, ReducedHessianProjector(np.zeros((2, 2)),
                                                                  SubspaceBasis(np.eye(2)[:, :1])))

    @pytest.mark.parametrize("corner", [0.0, 1e-30])
    def test_verify_skips_the_identities_a_singular_reduced_hessian_stops(self, corner):
        """verify_identities raised LinAlgError on Z^T A Z = 0."""
        A = A_SCALED.copy()
        A[0, 0] = corner
        entries = verify_identities(BlockSystem(A, B_SCALED, np.array([[1.0]])))
        assert [(e["id"], e["status"]) for e in entries] == [
            ("weight_recovery", "skipped"), ("inner_inverse", "skipped"),
            ("projector_complement", "ok"), ("reduced_projector", "skipped"),
            ("congruence", "ok"), ("nullity_bounds", "skipped")]
        assert "reduced Hessian" in entries[1]["reason"]


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

    def test_wrong_shape_weight_raises(self):
        with pytest.raises(ValueError, match="W must be 1 x 1"):
            weight_recovery_residual(A2, B2, np.eye(2))

    def test_weight_whose_norm_underflows_is_read_scaled(self):
        # the identity holds exactly; ||W||_F would underflow to 0 and the
        # residual be 0/0, but both norms are read scaled by one power of two
        assert weight_recovery_residual(np.zeros((2, 2)), np.eye(2), 1e-200 * np.eye(2)) == 0.0


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

    def test_basis_of_the_wrong_dimension_raises(self):
        with pytest.raises(PreconditionError, match="dimensions of ker"):
            projector_complement_residual(B2, SubspaceBasis(np.eye(2)))

    def test_basis_of_another_ambient_space_is_a_partition_error(self):
        # no failed hypothesis: a Z of R^12 does not fit the partition of a B with n = 20
        B = gen_instance(GeneratorSpec(20, 10, 5, null_a=10, require_ds1=True, seed=1))[0].B
        t, _ = gen_instance(GeneratorSpec(12, 4, 3, null_a=4, require_ds1=True, seed=2))
        Z = reduced_hessian_projector(t.A, t.B).Z
        with pytest.raises(ValueError, match=r"Z must .* R\^20, got one of R\^12") as exc:
            projector_complement_residual(B, Z)
        assert type(exc.value) is ValueError

    def test_equals_the_n_by_n_form(self):
        """||Z^T Q||_2 is the n x n ||Q Q^T - (I - Z Z^T)||_2 to rounding, for kernel
        bases rotated and tilted out of ker(B) by up to 1e-10."""
        rng = np.random.default_rng(24)
        for n, m in ((5, 2), (12, 6), (30, 11), (40, 39)):
            B = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-3, 3)
            Q = np.linalg.qr(B.T)[0]
            for tilt in (0.0, 1e-12, 1e-10):
                rotation = np.linalg.qr(rng.standard_normal((n - m,) * 2))[0]
                Z = kernel_basis(B).basis @ rotation + tilt * rng.standard_normal((n, n - m))
                Z = SubspaceBasis(np.linalg.qr(Z)[0])
                dense = np.linalg.norm(Q @ Q.T - (np.eye(n) - Z.basis @ Z.basis.T), 2)
                assert projector_complement_residual(B, Z) == pytest.approx(dense, abs=1e-14)

    def test_a_basis_outside_the_kernel_is_refused(self):
        """A Z of the dimensions of ker(B) that B does not annihilate is refused, not
        read as a residual: a random subspace, and ker(B) tilted by 1e-6."""
        rng = np.random.default_rng(7)
        for n, m in ((6, 2), (20, 10), (35, 5)):
            B = rng.standard_normal((m, n))
            tilted = kernel_basis(B).basis + 1e-6 * rng.standard_normal((n, n - m))
            for Z in (rng.standard_normal((n, n - m)), tilted):
                with pytest.raises(PreconditionError, match="not a kernel basis"):
                    projector_complement_residual(B, SubspaceBasis(np.linalg.qr(Z)[0]))

    def test_kernel_check_past_the_window_raises_no_warning(self):
        """B Z past 2^(+-480) is read scaled with no overflow: a wrong Z of a B near the
        float maximum, whose ||B Z||_F exceeds it, is refused, and a B Z of subnormal
        entries, which the scaling brings up to 1, passes the check."""
        huge = np.diag([1.5e308, 1.5e308]) @ np.eye(2, 4)
        with pytest.raises(PreconditionError, match="not a kernel basis"):
            projector_complement_residual(huge, SubspaceBasis(np.eye(4)[:, :2]))
        tiny = np.array([[1.0, 0.0, 1e-320]])
        assert projector_complement_residual(tiny, SubspaceBasis(np.eye(3)[:, 1:])) < 1e-300

    def test_empty_b_has_zero_residual(self):
        # both projectors vanish: B^T (B B^T)^{-1} B and I - Z Z^T with Z = I
        assert projector_complement_residual(np.zeros((0, 3)), SubspaceBasis(np.eye(3))) == 0.0


class TestReducedProjector:
    def test_identity_on_generated_instances(self):
        for seed in range(20):
            sys, _ = max_deficient(seed=seed)
            proj = reduced_hessian_projector(sys.A, sys.B)
            assert reduced_projector_residual(sys.A, proj) <= 1e-10

    def test_mismatched_a_raises(self):
        sys, _ = max_deficient(seed=0)
        proj = reduced_hessian_projector(sys.A, sys.B)
        # V with an antisymmetric error of 1e-3 is no projector of its A either
        near, _ = gen_instance(GeneratorSpec(6, 3, 2, null_a=3, require_ds1=True, seed=1))
        near_proj = reduced_hessian_projector(near.A, near.B)
        V = near_proj.V.copy()
        V[0, 1] += 1e-3
        V[1, 0] -= 1e-3
        for A, P in ((sys.A + np.eye(sys.n), proj),
                     (near.A, ReducedHessianProjector(V, near_proj.Z))):
            with pytest.raises(PreconditionError, match="built"):
                reduced_projector_residual(A, P)

    def test_singular_reduced_hessian_raises(self):
        sys, _ = max_deficient(seed=0)
        proj = reduced_hessian_projector(sys.A, sys.B)
        with pytest.raises(PreconditionError, match="reduced Hessian"):
            reduced_projector_residual(np.zeros_like(sys.A), proj)


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
                                   null_d=int(seed % 3 == 0))
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
            sys, _ = max_deficient(seed, null_d=seed % 2, null_e=int(seed % 3 == 0))
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

    def test_alpha_that_overflows_is_refused(self):
        # D = 0 admits every alpha > 0, but -(1/alpha) M^{-1} overflows at 1e-320
        sys = BlockSystem(np.eye(2), np.array([[1.0, 0.0]]), np.array([[1.0]]))
        with pytest.raises(PreconditionError, match="alpha=1e-320 overflows"):
            transformed_schur_complement(sys, 1e-320)

    def test_none_takes_the_default_alpha(self):
        for seed in range(4):
            sys, _ = max_deficient(seed, null_d=seed % 2)
            np.testing.assert_array_equal(transformed_schur_complement(sys, None),
                                          transformed_schur_complement(sys, default_alpha(sys)))

    def test_is_exactly_symmetric(self):
        for seed in range(20):
            sys, _ = gen_instance(GeneratorSpec(20, 10, 5, null_a=10, require_ds1=True,
                                                null_d=seed % 3, seed=seed))
            S = transformed_schur_complement(sys, None)
            assert np.array_equal(S, S.T), seed

    def test_alpha_at_the_bound_raises(self):
        sys, _ = max_deficient(seed=0)
        with pytest.raises(PreconditionError, match="2I - alpha D is numerically singular"):
            transformed_schur_complement(sys, alpha_upper_bound(sys) * (1 - 1e-11))


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

    @pytest.mark.parametrize("call", [factorize_transformed, inverse_via_factorization])
    def test_two_minus_d_failing_the_cut_raises(self, call):
        """lambda_max(D) = 2 - 4e-13 admits alpha = 1, but 2I - D has the eigenvalue
        4e-13, under its rank cut: both constructors refuse, although the inverse
        reads 2I - D through its eigenvalues and never forms (2I - D)^{-1}."""
        sys = BlockSystem(np.diag([0.0, 0.0, 1.0]), np.eye(2, 3), np.array([[1.0, 0.0]]),
                          np.diag([2.0 - 4e-13, 0.0]), np.array([[1.0]]))
        with pytest.raises(PreconditionError, match="2I - alpha D is numerically singular"):
            call(sys)

    def test_result_shares_no_array_with_the_held_analysis(self):
        """Writing into one result leaves the next call on the system unchanged."""
        sys, _ = max_deficient(seed=1)
        first = factorize_transformed(sys)
        a_tilde, b_one = first.a_tilde.copy(), first.b_one.copy()
        first.a_tilde[:] = 0.0
        first.b_one[:] = 0.0
        second = factorize_transformed(sys)
        np.testing.assert_array_equal(second.a_tilde, a_tilde)
        np.testing.assert_array_equal(second.b_one, b_one)


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


# the four constructors, each called on one system
CONSTRUCTORS = {
    "three_block_inverse": three_block_inverse,
    "inverse_via_factorization": inverse_via_factorization,
    "factorize_transformed": factorize_transformed,
    "two_block_inverse": lambda system: two_block_inverse(system.A, system.B, system.D),
}


@pytest.mark.parametrize("name", CONSTRUCTORS)
def test_refused_hypothesis_forms_no_block_product(name):
    """An indefinite A is refused before any block product: with B at 1e200 and C at
    1e300, C^T E^{-1} C, C B and B^T B would each overflow, and under the suite's error
    filter a warning would raise in place of the constructor's own PreconditionError."""
    system = BlockSystem(np.diag([1.0, -1.0]), [[1e200, 0.0]], [[1e300]], [[1.0]], [[1.0]])
    with pytest.raises(PreconditionError, match="A must be positive semidefinite"):
        CONSTRUCTORS[name](system)


@pytest.mark.parametrize("name", ["three_block_inverse", "inverse_via_factorization"])
def test_accepted_system_that_overflows_is_refused(name):
    """Every hypothesis holds, but E = 1e-310 passes its own rank cut and
    E^{-1} = 1 / 1e-310 overflows: a PreconditionError, not a non-finite block."""
    system = BlockSystem([[0.0]], [[1.0]], [[1.0]], [[0.0]], [[1e-310]])
    with pytest.raises(PreconditionError, match="the result overflows floating point"):
        CONSTRUCTORS[name](system)


# every entry point that forms block products, with the arrays of its result
EXTREME_CALLS = {
    **{name: lambda s, call=call: call(s).blocks().values()
       for name, call in CONSTRUCTORS.items() if name != "factorize_transformed"},
    "factorize_transformed": lambda s: dataclasses.astuple(factorize_transformed(s))[:4],
    "transformed_schur_complement": lambda s: [transformed_schur_complement(s, None)],
    "congruence_transform": lambda s: [M.matrix
                                       for M in congruence_transform(s, default_alpha(s))],
    "verify_identities": lambda s: [e.get("residual", 0.0) for e in verify_identities(s)],
}


@pytest.mark.parametrize("name", EXTREME_CALLS)
def test_extreme_scale_blocks_give_finite_results_or_precondition_errors(name):
    """Entries from 1e-310 to 1e300 overflow block products, yet each entry point
    returns finite arrays or raises PreconditionError and, under the suite's error
    filter, warns nothing."""
    for system in extreme_scale_systems(300):
        try:
            arrays = EXTREME_CALLS[name](cold_copy(system))
        except PreconditionError:
            continue
        assert all(np.isfinite(M).all() for M in arrays), name


def test_dense_inverse_of_an_invertible_extreme_scale_system_is_finite():
    """The dense inverse, which dsaddle invert falls back to after the oracle, returns
    finite blocks or raises PreconditionError on every oracle-invertible draw."""
    for system in extreme_scale_systems(300):
        if not oracle_invertible(system):
            continue
        try:
            inv = dense_inverse_blocks(system)
        except PreconditionError:
            continue
        assert np.isfinite(inv.full).all()


def test_dense_inverse_whose_eigh_does_not_converge_is_a_precondition_error():
    """On draws 43 and 755 of the extreme-scale family, both singular by the oracle,
    eigh(K) does not converge: the dense inverse, and so the nullity bounds that read
    it, raise PreconditionError, not numpy's LinAlgError."""
    draws = dict(islice(enumerate(extreme_scale_systems(1500)), 756))
    for i in (43, 755):
        assert not oracle_invertible(draws[i]), i
        with pytest.raises(PreconditionError, match="no eigendecomposition"):
            dense_inverse_blocks(draws[i])


def _stacked_n1_system():
    """null(A) = m = 2 with N1 holding, and an eigenvalue 1e-8 of A above A's own
    rank cut but within the margin of the stacked [A; B] cut, so the stacked SVD
    decides N1 and the restricted B Q0 is never decomposed."""
    rng = np.random.default_rng(3)
    Q = haar_orthogonal(6, rng)
    A = Q @ np.diag([0.0, 0.0, 1e-8, 1.0, 2.0, 3.0]) @ Q.T
    return BlockSystem(0.5 * (A + A.T), rng.standard_normal((2, 6)), rng.standard_normal((1, 2)),
                       0.5 * np.eye(2), np.eye(1))


class TestEigenbasisFact:
    """R = G^{-T} Q0^T and V = Z L+^{-1} Z^T from A's eigenbasis are the three-block
    formula's R and V, and give a_tilde^{-1}, each to rounding relative to cond(a_tilde)."""

    @staticmethod
    def _check(sys):
        an = _analysis(sys, None)
        A, B, D, n, m = sys.A, sys.B, sys.D, sys.n, sys.m
        R, V = an.eigenbasis_rv
        a_tilde = A + B.T @ (2.0 * np.eye(m) - D) @ B
        bound = 1e-13 * np.linalg.cond(a_tilde)
        rel = lambda X, Y: np.linalg.norm(X - Y, 2) / np.linalg.norm(Y, 2)
        assert rel(V, _projector_from_basis(an.A, an.B.kernel)) <= bound
        assert rel(R, np.linalg.solve(B @ B.T, B @ (np.eye(n) - A @ V))) <= bound
        assert rel(V + R.T @ np.linalg.inv(2.0 * np.eye(m) - D) @ R, np.linalg.inv(a_tilde)) <= bound
        return an

    @pytest.mark.parametrize("kwargs", [dict(null_d=1), dict(def_d="psd"),
                                        dict(def_d="indefinite")], ids=["null", "psd", "indefinite"])
    def test_matches_the_projector_route(self, kwargs):
        for seed in range(6):
            an = self._check(max_deficient(seed, **kwargs)[0])
            assert an._n1[1] is not None  # G's SVD is the restricted step's

    def test_stacked_n1_decomposes_g(self):
        sys = _stacked_n1_system()
        an = _analysis(sys, None)
        assert an.A.nullity == sys.m and an.n1.is_trivial and an._n1[1] is None
        self._check(sys)
        K = assemble(sys).matrix
        for inverse in (three_block_inverse(sys), inverse_via_factorization(sys)):
            residual = np.linalg.norm(K @ inverse.full - np.eye(sys.ell), 2)
            assert residual <= 1e-13 * np.linalg.cond(K)


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

    @pytest.mark.parametrize("blocks, match", [
        ((np.zeros((2, 2)),) * 3, "X11 must be 20 x 20, got (2, 2)"),
        ((np.zeros((20, 20)), np.zeros((20, 2)), np.zeros((10, 10))), "X12 must be 20 x 10"),
        ((np.zeros((20, 20)), np.zeros((20, 10)), np.zeros((10, 20))), "X22 must be square"),
    ], ids=["x11", "x12", "x22"])
    def test_blocks_that_miss_dims_raise(self, blocks, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            TwoBlockInverse(*blocks, dims=(20, 10))

    @pytest.mark.parametrize("A, D, match", [
        (np.eye(3), np.zeros((1, 1)), "A must be 2 x 2"),
        (A2, np.zeros((2, 2)), "D must be 1 x 1"),
    ], ids=["a_shape", "d_shape"])
    def test_mismatched_blocks_raise(self, A, D, match):
        with pytest.raises(ValueError, match=match):
            two_block_inverse(A, B2, D)


def _loose_blocks():
    """Maximally deficient A (6 x 6, null(A) = 3) and B (3 x 6, full row rank),
    with a random D and a random G for an antisymmetric part."""
    rng = np.random.default_rng(0)
    return (gen_psd_with_nullity(6, 3, 1), gen_rank(3, 6, 3, 2),
            rng.standard_normal((3, 3)), rng.standard_normal((6, 6)))


def test_two_block_inverse_rejects_asymmetric_d():
    """The closed form holds for symmetric D only: with this D it returned X
    with ||[[A, B^T], [B, -D]] X - I||_F = 16.  Loose blocks are checked as a
    BlockSystem checks them, so D is rejected and its symmetric part inverts."""
    A, B, D, _ = _loose_blocks()
    with pytest.raises(ValueError, match="block D is not symmetric within tolerance"):
        two_block_inverse(A, B, D)
    S = 0.5 * (D + D.T)
    X = two_block_inverse(A, B, S).full
    assert np.linalg.norm(np.block([[A, B.T], [B, -S]]) @ X - np.eye(9)) <= 1e-10


@pytest.mark.parametrize("call", [
    lambda A, B, D: weight_recovery_residual(A, B, np.eye(3)),
    lambda A, B, D: reduced_hessian_projector(A, B),
    lambda A, B, D: inner_inverse_residual(A, reduced_hessian_projector(0.5 * (A + A.T), B)),
    lambda A, B, D: reduced_projector_residual(A, reduced_hessian_projector(0.5 * (A + A.T), B)),
    lambda A, B, D: two_block_inverse(A, B, D),
], ids=["weight_recovery", "projector", "inner_inverse", "reduced_projector", "two_block"])
def test_loose_functions_reject_asymmetric_a(call):
    """An asymmetric A is rejected before any hypothesis is read: weight recovery
    returned a residual of 0.57 for it, testing null(A) = m on A's symmetric
    part while N1 and the identity read A itself, and the reduced projector
    returned 0.004 for an antisymmetric part of 1e-6."""
    A, B, D, G = _loose_blocks()
    for scale in (0.3, 1e-6):
        with pytest.raises(ValueError, match="block A is not symmetric within tolerance"):
            call(A + scale * (G - G.T), B, 0.5 * (D + D.T))


def _two_systems():
    """s at (20, 10, 5) and t at (12, 4, 3), both with null(A) = m and DS1."""
    return tuple(gen_instance(GeneratorSpec(*dims, null_a=dims[1], require_ds1=True, seed=seed))[0]
                 for dims, seed in (((20, 10, 5), 1), ((12, 4, 3), 2)))


class TestPartitionRule:
    """Every matrix a public function takes is checked against one partition
    (n, m, p): a matrix of another system is a ValueError naming it."""

    @pytest.mark.parametrize("call", [
        lambda s, t: reduced_hessian_projector(s.A, t.B),
        lambda s, t: reduced_projector_residual(s.A, reduced_hessian_projector(t.A, t.B)),
        lambda s, t: inner_inverse_residual(s.A, reduced_hessian_projector(t.A, t.B)),
        lambda s, t: weight_recovery_residual(s.A, t.B, np.eye(4)),
    ], ids=["projector", "reduced_projector", "inner_inverse", "weight_recovery"])
    def test_foreign_a_is_named(self, call):
        """The first three read A against B or the projector, where numpy raised a
        matmul mismatch or is_direct_sum an ambient mismatch; weight recovery raised
        PreconditionError for null(A) = 10 against m = 4."""
        s, t = _two_systems()
        with pytest.raises(ValueError, match=r"^A must be 12 x 12, got \(20, 20\)$"):
            call(s, t)

    def test_nullity_bounds_reject_a_foreign_inverse(self):
        """It returned null_z22 = 10 and satisfied = True for t's 4 x 4 Z22."""
        s, t = _two_systems()
        with pytest.raises(ValueError, match="dims"):
            z22_nullity_bounds(s, three_block_inverse(t))
        assert z22_nullity_bounds(s, three_block_inverse(s)).satisfied

    def test_inverse_blocks_check_their_dims(self):
        """A 6 x 6 full matrix came out of six 2 x 2 blocks labelled (20, 10, 5)."""
        with pytest.raises(ValueError, match=r"^Z11 must be 20 x 20, got \(2, 2\)$"):
            InverseBlocks(*(np.zeros((2, 2)),) * 6, dims=(20, 10, 5))
        blocks = InverseBlocks(*(np.zeros((1, 1)),) * 6, dims=[1, 1, 1])
        assert blocks.dims == (1, 1, 1) and blocks.full.shape == (3, 3)

    def test_inverse_blocks_read_each_block_as_a_float_matrix(self):
        """A list block raised AttributeError and an integer block stayed integer."""
        blocks = InverseBlocks([[1.0]], [[0]], [[0]], [[2]], [[0]], [[1]], dims=(1, 1, 1))
        assert all(isinstance(Z, np.ndarray) and Z.dtype == float
                   for Z in blocks.blocks().values())
        two = TwoBlockInverse([[1]], [[0]], [[0]], dims=(1, 1))
        assert all(X.dtype == float for X in (two.x11, two.x12, two.x22))

    def test_a_non_finite_inverse_block_is_named(self):
        """A NaN Z22 was accepted, and z22_nullity_bounds then failed inside numpy."""
        one = [[1.0]]
        with pytest.raises(ValueError, match="^Z22 contains non-finite entries$"):
            InverseBlocks(one, one, one, [[np.nan]], one, one, dims=(1, 1, 1))
        with pytest.raises(ValueError, match="^X11 contains non-finite entries$"):
            TwoBlockInverse([[np.nan]], one, one, dims=(1, 1))

    def test_projector_checks_v_against_z(self):
        Z = SubspaceBasis(np.eye(12)[:, :8])
        with pytest.raises(ValueError, match=r"^V must be 12 x 12, got \(3, 3\)$"):
            ReducedHessianProjector(np.zeros((3, 3)), Z)
        with pytest.raises(ValueError, match="V must be square"):
            ReducedHessianProjector(np.zeros((12, 3)), Z)

    def test_factorization_reads_n1_from_the_table(self):
        """ker(A) ∩ ker(B) = span(e1) makes A + B^T (2I - D) B singular; the
        factorization reports it through the named hypothesis N1."""
        sys = BlockSystem(A2, np.array([[0.0, 1.0]]), np.array([[1.0]]), None, np.array([[2.0]]))
        holds, reason = _HYPOTHESES["N1"](_analysis(sys, None))
        assert not holds
        with pytest.raises(PreconditionError, match=re.escape(reason)):
            factorize_transformed(sys)


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
            sys, _ = max_deficient(seed=seed, null_d=int(seed % 3 == 0),
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

    def test_corner_reads_the_one_rank_cut(self):
        """In the null(A) = m, null(E) = 0 corner, a Z22 that the rank cut counts as
        zero (||Z22|| <= rank_rtol * m * ||K^-1||) meets the corner's Z22 = 0."""
        sys, _ = gen_instance(GeneratorSpec(12, 6, 3, null_a=6, require_ds1=True, seed=2))
        inv = three_block_inverse(sys)
        inverse_norm = 1.0 / np.abs(np.linalg.eigvalsh(assemble(sys).matrix)).min()
        z22 = 3e-10 * inverse_norm * np.eye(sys.m)
        report = z22_nullity_bounds(sys, dataclasses.replace(inv, z22=z22))
        assert report.corner_expected and report.null_z22 == report.m
        assert report.corner_zero_ok and report.satisfied

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

    def test_weight_recovery_keeps_its_rank_cut(self):
        """Under null(A) = m and N1, A + B^T W^{-1} B is nonsingular for every
        invertible W, but not to the rank cut when A's nonzero eigenvalues are
        small next to B^T W^{-1} B: here 1e-8 against 200 (D = 0, alpha = 1 and
        W^{-1} = 2I).  The oracle says invertible, and verify skips the identity
        rather than solve with the numerically singular completed matrix."""
        sys = BlockSystem(np.diag([0.0, 1e-8, 1e-8]), np.array([[10.0, 0.0, 0.0]]),
                          np.array([[1.0]]), np.array([[0.0]]), np.array([[1.0]]))
        an = _analysis(sys, None)
        assert an.A.nullity == sys.m and an.n1.is_trivial and an.k_nonsingular
        entry = verify_identities(sys)[0]
        assert (entry["id"], entry["status"]) == ("weight_recovery", "skipped")
        assert entry["reason"] == \
            "A + B^T W^{-1} B is numerically singular; hypotheses do not hold"

    @pytest.mark.parametrize("alpha", [1e155, 1e200, 1e308])
    def test_alpha_that_overflows_skips_the_scaled_identities(self, alpha):
        # D = 0 admits every alpha > 0; the squared entries of K~ overflow at 1e155 and
        # 1e200, where its norms are read scaled and congruence holds, while its entries
        # and W^{-1} B overflow at 1e308, where both are skipped with alpha in the reason
        sys, _ = gen_instance(GeneratorSpec(6, 3, 2, null_a=3, null_d=3, require_ds1=True,
                                            seed=1))
        by_id = {e["id"]: e for e in verify_identities(sys, alpha=alpha)}
        if alpha < 1e308:
            assert by_id["congruence"]["status"] == "ok", by_id["congruence"]
        else:
            assert by_id["congruence"]["status"] == "skipped"
            assert f"alpha={alpha!r}" in by_id["congruence"]["reason"]
        assert by_id["weight_recovery"]["status"] == "skipped"
        assert all(np.isfinite(e["residual"]) for e in by_id.values() if "residual" in e)
        assert {e["status"] for e in verify_identities(sys, alpha=1e100)} == {"ok", "skipped"}

    def test_weight_recovery_whose_scale_underflows_is_read_scaled(self):
        # A = 0 and B = I give W = I / (2 alpha), whose norm underflows to 0 at 1e200
        # unless read scaled by one power of two
        sys = BlockSystem(np.zeros((2, 2)), np.eye(2), np.array([[1.0, 0.0]]), None,
                          np.array([[1.0]]))
        entry = verify_identities(sys, alpha=1e200)[0]
        assert (entry["id"], entry["status"]) == ("weight_recovery", "ok")

    @pytest.mark.parametrize("k", [-990, -530, 530, 990])
    def test_statuses_survive_power_of_two_scaling(self, k):
        # past 2^(+-512) B B^T and every squared Frobenius norm over- or underflow, so
        # the row projector comes from a QR of B^T and each norm is read scaled
        sys, _ = gen_instance(GeneratorSpec(20, 10, 5, null_a=10, require_ds1=True, seed=1))
        scaled = BlockSystem(*(np.ldexp(getattr(sys, name), k) for name in "ABCDE"))
        for base, entry in zip(verify_identities(sys), verify_identities(scaled), strict=True):
            assert entry["id"] == base["id"]
            if entry["status"] == "skipped" and base["status"] != "skipped":
                assert "overflows" in entry["reason"], entry
                continue
            assert entry["status"] == base["status"], (base, entry)
            if base.get("residual"):  # no rounding-level residual underflows to 0
                assert 1e-2 < entry["residual"] / base["residual"] < 1e2, (base, entry)

    def test_ill_conditioned_full_row_rank_b(self):
        # B has rank 2 at the cut, but B B^T is singular to LU
        sys = BlockSystem([[2, 1e-9], [1e-9, 1]], [[-1, 1e-9], [2, 1e-9]],
                          [[2, 1], [1, 1e-9]], [[1, 1], [1, 0]], [[0.5, 1], [1, 2]])
        by_id = {e["id"]: e for e in verify_identities(sys)}
        assert by_id["projector_complement"]["status"] == "ok"
        assert by_id["nullity_bounds"]["status"] == "ok"


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
    """verify's Z22 solve, congruence strips, eigenvalue and Gram spectral
    norms, and the blockwise factorization inverse, agree with the dense
    formulas they replace: the LU inverse, W^T K W with the assembled W, the
    SVD norms of B^T (B B^T)^{-1} B - (I - Z Z^T) and Z Z^T A V - Z Z^T, and
    K^{-1} by dense LU."""
    compared = dict.fromkeys(("nullity_bounds", "congruence", "projector_complement",
                              "reduced_projector", "factorization"), 0)
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
        if by_id["projector_complement"]["status"] != "skipped":
            B, Z = sys.B, kernel_basis(sys.B).basis
            residual = np.linalg.norm(B.T @ np.linalg.solve(B @ B.T, B)
                                      - (np.eye(sys.n) - Z @ Z.T), 2)
            assert by_id["projector_complement"]["residual"] == \
                pytest.approx(residual, rel=0, abs=1e-12)
            compared["projector_complement"] += 1
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


def test_r_matches_the_stacked_test():
    """R read from the held singular vectors decides as the stacked test of the
    two range complements does, and a failing R carries a unit witness in both
    ranges; with rank(B) = m or rank(C) = m that witness is the first range
    vector of the other block, read with no SVD."""
    decided = {True: 0, False: 0}
    both_deficient = 0
    for system in _guarded_systems():
        for sys in (system, permute_similar(system)):
            report, an = condition_report(sys), _analysis(sys, None)
            holds, _ = range_intersection_trivial(sys.B, sys.C.T)
            assert report.holds("R") == holds
            decided[holds] += 1
            w = report.witness("R")
            assert (w is None) == holds
            if sys.m in (an.B.rank, an.Ct.rank):
                other = an.Ct if an.B.rank == sys.m else an.B
                first = _first(other.range)
                assert (w is None) == (first is None)
                assert w is None or w.tobytes() == first.tobytes()  # bit for bit
            else:
                both_deficient += 1
            if w is not None:
                assert np.linalg.norm(w) == pytest.approx(1.0, rel=1e-12)
                for M in (sys.B, sys.C.T):
                    U = range_basis(M).basis
                    assert np.linalg.norm(w - U @ (U.T @ w)) <= 1e-12
    assert min(decided.values()) >= 10, decided
    assert both_deficient >= 10, both_deficient
