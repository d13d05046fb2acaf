"""Block system assembly, permutation, congruence and rescaling."""

import warnings

import numpy as np
import pytest

from dsaddle import (
    AssembledMatrix,
    BlockSystem,
    GeneratorSpec,
    InverseBlocks,
    PreconditionError,
    ToleranceConfig,
    alpha_upper_bound,
    assemble,
    block_reversal_permutation,
    congruence_transform,
    default_alpha,
    diagnose,
    gen_instance,
    matrix_rank,
    permute_similar,
    rescale_middle,
    verify_identities,
)

from _families import fixture_three_block, max_deficient


def scalar_system(a, b, c, d, e):
    return BlockSystem(np.array([[a]]), np.array([[b]]), np.array([[c]]),
                       np.array([[d]]), np.array([[e]]))


class TestBlockSystem:
    def test_dims_and_optional_blocks(self):
        s = BlockSystem(np.eye(3), np.ones((2, 3)), np.ones((1, 2)))
        assert s.dims == (3, 2, 1) and s.ell == 6
        assert not s.D.any() and not s.E.any()
        assert repr(s) == "BlockSystem(n=3, m=2, p=1)"

    def test_rejects_asymmetric_diagonal_block(self):
        with pytest.raises(ValueError, match="symmetric"):
            BlockSystem(np.array([[0.0, 1.0], [0.0, 0.0]]), np.ones((1, 2)),
                        np.ones((1, 1)))

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_rejects_asymmetric_block_at_extreme_scale(self, scale):
        with pytest.raises(ValueError, match="symmetric"):
            BlockSystem(scale * np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones((1, 2)),
                        np.ones((1, 1)))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            BlockSystem(np.eye(2), np.ones((2, 3)), np.ones((1, 2)))
        with pytest.raises(ValueError):
            BlockSystem(np.eye(2), np.ones((2, 2)), np.ones((1, 3)))

    @pytest.mark.parametrize("blocks, match", [
        ((np.zeros((0, 0)), np.zeros((1, 0)), np.ones((1, 1))), "positive"),
        ((np.ones(2), np.ones((1, 2)), np.ones((1, 1))), r"A must be 2-dimensional, got shape \(2,\)"),
        ((np.ones((2, 3)), np.ones((1, 2)), np.ones((1, 1))), "A must be square"),
        ((np.eye(2), np.ones((1, 2)), np.ones((1, 1)), np.eye(2)), "D must be"),
        ((np.eye(2), np.ones((1, 2)), np.ones((1, 1)), None, np.eye(2)), "E must be"),
    ], ids=["empty_a", "vector_a", "rectangular_a", "d_shape", "e_shape"])
    def test_rejects_malformed_blocks(self, blocks, match):
        with pytest.raises(ValueError, match=match):
            BlockSystem(*blocks)

    def test_blocks_are_read_only(self):
        s = scalar_system(2.0, 1.0, 1.0, 0.0, 3.0)
        with pytest.raises(ValueError):
            s.A[0, 0] = 5.0
        with pytest.raises(AttributeError, match="immutable"):
            s.A = np.eye(1)

    @pytest.mark.parametrize("make", [AssembledMatrix, InverseBlocks.from_full],
                             ids=["assembled", "inverse_blocks"])
    def test_partition_must_match_the_matrix(self, make):
        with pytest.raises(ValueError, match="does not match dims"):
            make(np.eye(3), (2, 1, 1))
        # dims whose blocks (0, 0) and (2, 2) overlap, and dims read as (1, 0, 1)
        for matrix, dims in ((np.arange(16.0).reshape(4, 4), (-1, 2, 3)),
                             (np.zeros((3, 3)), (1.5, 0.5, 1))):
            with pytest.raises(ValueError, match=r"dims must be 3 positive integers, got \("):
                make(matrix, dims)

    def test_assembled_matrix_leaves_the_callers_array_writeable(self):
        M = np.eye(4)
        K = AssembledMatrix(M, (2, 1, 1))
        assert M.flags.writeable and not K.matrix.flags.writeable
        InverseBlocks.from_full(M, (2, 1, 1))
        assert M.flags.writeable

    def test_system_owns_its_blocks(self):
        """Each block is copied: the caller's array stays writeable, and
        editing it changes neither the system nor its diagnosis."""
        reference, _ = max_deficient(seed=1)
        blocks = [np.array(getattr(reference, name)) for name in "ABCDE"]
        s = BlockSystem(*blocks)
        for block in blocks:
            assert block.flags.writeable
            block[...] = 0.0
        for name in "ABCDE":
            np.testing.assert_array_equal(getattr(s, name), getattr(reference, name))
        assert diagnose(s).to_dict() == diagnose(reference).to_dict()


class TestAssemble:
    def test_scalar_example(self):
        K = assemble(scalar_system(2.0, 1.0, 1.0, 0.0, 3.0))
        assert K.ell == 3
        np.testing.assert_array_equal(K.matrix, [[2, 1, 0], [1, 0, 1], [0, 1, 3]])

    def test_all_zero(self):
        K = assemble(scalar_system(0, 0, 0, 0, 0)).matrix
        np.testing.assert_array_equal(K, np.zeros((3, 3)))

    def test_running_example(self):
        K = assemble(fixture_three_block()).matrix
        np.testing.assert_array_equal(
            K, [[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 1], [0, 0, 1, 2]])

    def test_middle_sign_is_negated(self):
        K = assemble(scalar_system(0.0, 0.0, 0.0, 4.0, 0.0)).matrix
        assert K[1, 1] == -4.0

    def test_symmetry_and_corner_blocks(self):
        s, _ = max_deficient(seed=11, null_d=1)
        K = assemble(s)
        np.testing.assert_allclose(K.matrix, K.matrix.T, atol=1e-14)
        assert not K.block(0, 2).any() and not K.block(2, 0).any()


class TestPermuteSimilar:
    def test_reversal_identity(self):
        s = fixture_three_block()
        Q = block_reversal_permutation(*s.dims)
        np.testing.assert_allclose(
            assemble(permute_similar(s)).matrix,
            Q @ assemble(s).matrix @ Q.T, atol=1e-14)

    def test_involution(self):
        s, _ = max_deficient(seed=5)
        back = permute_similar(permute_similar(s))
        for name in "ABCDE":
            np.testing.assert_array_equal(getattr(back, name), getattr(s, name))

    def test_eigenvalues_match(self):
        # oracle: dense symmetric eigensolver on both assemblies
        s, _ = max_deficient(seed=9, null_d=2)
        before = np.linalg.eigvalsh(assemble(s).matrix)
        after = np.linalg.eigvalsh(assemble(permute_similar(s)).matrix)
        np.testing.assert_allclose(before, after, atol=1e-10)

    def test_symmetric_permutation_when_outer_dims_match(self):
        Q = block_reversal_permutation(3, 2, 3)
        np.testing.assert_array_equal(Q, Q.T)
        np.testing.assert_array_equal(Q @ Q, np.eye(8))


class TestCongruence:
    def test_zero_d_leading_block(self):
        s = scalar_system(2.0, 3.0, 1.0, 0.0, 1.0)
        Kt, _ = congruence_transform(s, 1.0)
        assert Kt.block(0, 0)[0, 0] == pytest.approx(2.0 + 2.0 * 9.0)

    def test_running_example_matches_explicit_product(self):
        s = fixture_three_block()
        Kt, W = congruence_transform(s, 1.0)
        np.testing.assert_allclose(Kt.block(0, 0), np.diag([2.0, 1.0]), atol=1e-14)
        explicit = W.matrix.T @ assemble(s).matrix @ W.matrix
        np.testing.assert_allclose(Kt.matrix, explicit, atol=1e-12)

    def test_transform_is_symmetric_and_rank_preserving(self):
        for seed in range(6):
            s, _ = max_deficient(seed=seed, null_e=1, null_d=1)
            alpha = default_alpha(s)
            Kt, _ = congruence_transform(s, alpha)
            np.testing.assert_allclose(Kt.matrix, Kt.matrix.T, atol=1e-12)
            assert matrix_rank(Kt.matrix) == matrix_rank(assemble(s).matrix)

    def test_alpha_bounds(self):
        s = scalar_system(1.0, 1.0, 1.0, 8.0, 1.0)
        assert alpha_upper_bound(s) == pytest.approx(0.25)
        assert default_alpha(s) == pytest.approx(0.125)
        with pytest.raises(PreconditionError, match="admissible"):
            congruence_transform(s, 0.25)
        with pytest.raises(PreconditionError):
            congruence_transform(s, -1.0)

    def test_zero_d_unbounded_interval(self):
        s = scalar_system(1.0, 1.0, 1.0, 0.0, 1.0)
        assert alpha_upper_bound(s) == np.inf
        assert default_alpha(s) == 1.0
        congruence_transform(s, 100.0)  # any positive alpha is admissible

    def test_alpha_that_overflows_is_refused_with_no_warning(self):
        # D = 0 admits every alpha > 0, but alpha B^T (2I - alpha D) B overflows at 1e308
        s = BlockSystem(np.eye(2), np.array([[1.0, 0.0]]), np.array([[1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="alpha=1e\\+308 overflows"):
                congruence_transform(s, 1e308)

    def test_rounding_level_lambda_max_is_unconstrained(self):
        # D is negative semidefinite; its zero eigenvalue comes out as a tiny
        # positive number, which must not shrink the interval to (0, ~1e17)
        s, _ = gen_instance(GeneratorSpec(n=1, m=2, p=1, null_d=1,
                                          def_d="indefinite", seed=9))
        assert abs(np.linalg.eigvalsh(s.D)[-1]) < 1e-15
        assert alpha_upper_bound(s) == np.inf
        assert default_alpha(s) == 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entries = verify_identities(s)
        assert {e["id"]: e["status"] for e in entries}["congruence"] == "ok"

    def test_alpha_reads_the_callers_tolerance(self):
        # D's eigenvalue 3 is below the default rank cut of D (2e-10 * 1e12) but
        # past a 1e-13 one, where it bounds alpha by 2/3
        s = BlockSystem(np.eye(3), np.ones((2, 3)), np.ones((1, 2)),
                        np.diag([-1e12, 3.0]), np.eye(1))
        tol = ToleranceConfig(rank_rtol=1e-13)
        assert alpha_upper_bound(s, tol) == pytest.approx(2 / 3)
        assert default_alpha(s, tol) == pytest.approx(1 / 3)
        congruence_transform(s, default_alpha(s, tol), tol)
        assert alpha_upper_bound(s) == np.inf
        assert default_alpha(s) == 1.0

    def test_negative_definite_d_is_unconstrained(self):
        # 2I - alpha D stays positive definite for every alpha > 0
        s = scalar_system(1.0, 1.0, 1.0, -3.0, 1.0)
        assert alpha_upper_bound(s) == np.inf
        Kt, W = congruence_transform(s, 50.0)
        explicit = W.matrix.T @ assemble(s).matrix @ W.matrix
        np.testing.assert_allclose(Kt.matrix, explicit, atol=1e-9)


class TestRescaleMiddle:
    def test_beta_one_is_identity(self):
        s = fixture_three_block()
        r = rescale_middle(s, 1.0)
        for name in "ABCDE":
            np.testing.assert_array_equal(getattr(r, name), getattr(s, name))

    def test_d_scales_quadratically(self):
        s = scalar_system(1.0, 1.0, 1.0, 8.0, 1.0)
        r = rescale_middle(s, 0.5)
        assert r.D[0, 0] == pytest.approx(2.0)

    def test_matches_diagonal_congruence(self):
        s, _ = max_deficient(seed=4, null_d=1)
        beta = 0.3
        S = np.eye(s.ell)
        S[s.n:s.n + s.m] *= beta
        np.testing.assert_allclose(assemble(rescale_middle(s, beta)).matrix,
                                   S @ assemble(s).matrix @ S, atol=1e-12)

    def test_rank_preserved_and_witness_maps(self):
        # singular input stays singular under rescaling
        s = scalar_system(0.0, 0.0, 1.0, 1.0, 1.0)  # N1 fails, kernel e1
        r = rescale_middle(s, 2.0)
        K, Kr = assemble(s).matrix, assemble(r).matrix
        assert matrix_rank(K) == matrix_rank(Kr)
        u = np.array([1.0, 0.0, 0.0])
        scale = np.diag([1.0, 0.5, 1.0])
        assert np.linalg.norm(Kr @ (scale @ u)) < 1e-14

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            rescale_middle(fixture_three_block(), 0.0)
