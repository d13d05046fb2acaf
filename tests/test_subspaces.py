"""Unit and property tests for the subspace toolbox."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsaddle import (
    Definiteness,
    SubspaceBasis,
    ToleranceConfig,
    classify_definiteness,
    intersection_kernels,
    is_direct_sum,
    is_nonsingular,
    kernel_basis,
    matrix_rank,
    nullity,
    range_basis,
    range_intersection_trivial,
)
from dsaddle.subspaces import _SymEig, _singular_values, _spectral_norm


def random_rank_matrix(rng, rows, cols, rank):
    U = np.linalg.qr(rng.standard_normal((rows, max(rank, 1))))[0][:, :rank]
    V = np.linalg.qr(rng.standard_normal((cols, max(rank, 1))))[0][:, :rank]
    s = rng.uniform(0.5, 2.0, size=rank)
    return (U * s) @ V.T if rank else np.zeros((rows, cols))


class TestKernelBasis:
    def test_identity_has_trivial_kernel(self):
        assert kernel_basis(np.eye(3)).dim == 0

    def test_zero_matrix_has_full_kernel(self):
        Z = kernel_basis(np.zeros((2, 2)))
        assert Z.dim == 2 and Z.ambient_dim == 2

    def test_row_vector_kernel_is_e2(self):
        # oracle: SVD of the 1 x 2 matrix [1 0] puts the kernel on e2
        Z = kernel_basis(np.array([[1.0, 0.0]]))
        assert Z.dim == 1
        np.testing.assert_allclose(np.abs(Z.basis[:, 0]), [0.0, 1.0], atol=1e-14)

    def test_empty_row_matrix(self):
        Z = kernel_basis(np.zeros((0, 3)))
        assert Z.dim == 3

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            kernel_basis(np.array([[np.nan, 0.0]]))


class TestIntersections:
    def test_identity_forces_trivial(self):
        assert intersection_kernels([np.eye(2), np.zeros((2, 2))]).dim == 0

    def test_two_row_vectors(self):
        # stacking [1 0] and [0 1] gives the identity, so the kernel is {0}
        got = intersection_kernels([np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])])
        assert got.dim == 0

    def test_zero_matrices(self):
        assert intersection_kernels([np.zeros((3, 3)), np.zeros((3, 3))]).dim == 3

    def test_column_mismatch_raises(self):
        with pytest.raises(ValueError):
            intersection_kernels([np.eye(2), np.eye(3)])

    def test_empty_list_raises(self):
        with pytest.raises(ValueError):
            intersection_kernels([])


class TestRangeIntersection:
    def test_orthogonal_ranges(self):
        ok, witness = range_intersection_trivial(np.array([[1.0], [0.0]]),
                                                 np.array([[0.0], [1.0]]))
        assert ok and witness is None

    def test_identical_ranges_with_witness(self):
        ok, witness = range_intersection_trivial(np.array([[1.0], [0.0]]),
                                                 np.array([[2.0], [0.0]]))
        assert not ok
        np.testing.assert_allclose(np.abs(witness), [1.0, 0.0], atol=1e-14)

    def test_full_range_overlaps_any_direction(self):
        # rank(B) = 2 and rank(C^T) = 1 but the stack has rank 2 < 3
        ok, witness = range_intersection_trivial(np.eye(2), np.array([[1.0], [1.0]]))
        assert not ok
        assert np.linalg.norm(witness) == pytest.approx(1.0)

    def test_row_mismatch_raises(self):
        with pytest.raises(ValueError):
            range_intersection_trivial(np.eye(2), np.eye(3))


class TestDirectSum:
    def test_coordinate_axes(self):
        e1 = SubspaceBasis(np.array([[1.0], [0.0]]))
        e2 = SubspaceBasis(np.array([[0.0], [1.0]]))
        assert is_direct_sum(e1, e2)

    def test_repeated_axis_fails(self):
        e1 = SubspaceBasis(np.array([[1.0], [0.0]]))
        assert not is_direct_sum(e1, e1)

    def test_oblique_pair(self):
        # span{e1 + e2} and span{e2} are independent and fill the plane
        diag = SubspaceBasis.from_spanning(np.array([[1.0], [1.0]]))
        e2 = SubspaceBasis(np.array([[0.0], [1.0]]))
        assert is_direct_sum(diag, e2)

    def test_ambient_mismatch_raises(self):
        with pytest.raises(ValueError):
            is_direct_sum(SubspaceBasis(np.eye(2)), SubspaceBasis(np.eye(3)))


class TestDefiniteness:
    def test_identity_is_pd(self):
        assert classify_definiteness(np.eye(3)) is Definiteness.POSITIVE_DEFINITE

    def test_semidefinite(self):
        assert classify_definiteness(np.diag([1.0, 0.0])) is Definiteness.POSITIVE_SEMIDEFINITE

    def test_indefinite(self):
        assert classify_definiteness(np.diag([1.0, -1.0])) is Definiteness.INDEFINITE

    def test_zero_matrix_is_psd(self):
        assert classify_definiteness(np.zeros((2, 2))) is Definiteness.POSITIVE_SEMIDEFINITE

    @pytest.mark.parametrize("small, tag", [
        (1.5e-10, Definiteness.POSITIVE_SEMIDEFINITE),
        (-5e-11, Definiteness.POSITIVE_SEMIDEFINITE),
        (-1.5e-10, Definiteness.INDEFINITE),
    ])
    def test_eigenvalue_below_rank_cut(self, small, tag):
        # the rank cut of a 2 x 2 matrix with norm 1 is 2e-10: small is a zero
        # eigenvalue for the nullity, so M is not positive definite; a negative
        # one below the fixed slack of 1e-10 still makes M indefinite
        M = np.diag([1.0, small])
        assert nullity(M) == 1
        assert classify_definiteness(M) is tag

    def test_asymmetric(self):
        assert classify_definiteness(np.array([[1.0, 2.0], [0.0, 1.0]])) \
            is Definiteness.NOT_SYMMETRIC

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_asymmetric_at_extreme_scale(self, scale):
        # both Frobenius norms of the symmetry test square every entry, so
        # unscaled they overflow to inf or underflow to 0 together
        assert classify_definiteness(scale * np.array([[1.0, 2.0], [0.0, 1.0]])) \
            is Definiteness.NOT_SYMMETRIC

    def test_empty_matrix_is_pd(self):
        assert classify_definiteness(np.zeros((0, 0))) is Definiteness.POSITIVE_DEFINITE

    def test_held_eigendecomposition_tests_no_symmetry(self, monkeypatch):
        # BlockSystem has tested A, D and E, and every other _SymEig input is
        # symmetric by construction; only classify_definiteness reads raw input
        import dsaddle.subspaces as subspaces
        calls = []
        symmetric = subspaces._symmetric
        monkeypatch.setattr(subspaces, "_symmetric", lambda M: calls.append(M) or symmetric(M))
        tags = [_SymEig(np.diag(d)).definiteness for d in ([1.0, 2.0], [1.0, 0.0], [1.0, -1.0])]
        assert tags == [Definiteness.POSITIVE_DEFINITE, Definiteness.POSITIVE_SEMIDEFINITE,
                        Definiteness.INDEFINITE]
        assert calls == []
        assert classify_definiteness(np.array([[1.0, 2.0], [0.0, 1.0]])) \
            is Definiteness.NOT_SYMMETRIC
        assert len(calls) == 1

    def test_pd_tag_implies_psd_tag(self):
        assert Definiteness.POSITIVE_DEFINITE.is_psd
        assert Definiteness.POSITIVE_SEMIDEFINITE.is_psd
        assert not Definiteness.INDEFINITE.is_psd


@pytest.mark.parametrize("check, match", [
    (classify_definiteness, "square matrix"),
    (is_nonsingular, "square matrices only"),
], ids=["definiteness", "nonsingularity"])
def test_square_only_checks_reject_a_rectangle(check, match):
    with pytest.raises(ValueError, match=match):
        check(np.ones((2, 3)))


class TestSubspaceBasis:
    @pytest.mark.parametrize("basis, match", [
        (np.ones(3), "2-d array"),
        (np.eye(2, 3), "more basis columns"),
        (np.ones((2, 1)), "not orthonormal"),
        (np.array([[1.0, 1e-7], [0.0, 1.0]]), "not orthonormal"),
        (np.array([[np.nan], [0.0]]), "not orthonormal"),
        (np.array([[np.inf], [0.0]]), "not orthonormal"),
    ], ids=["one_dimensional", "wide", "unnormalised", "oblique", "nan", "inf"])
    def test_rejects(self, basis, match):
        with pytest.raises(ValueError, match=match):
            SubspaceBasis(basis)

    @pytest.mark.parametrize("scale, off", [
        (1.0 + 4e-6, 0.0), (1.0 + 6e-6, 0.0), (1.0, 5e-9), (1.0, 2e-8), (1.0, 0.0),
    ])
    def test_orthonormality_check_is_allclose(self, scale, off):
        # the diagonal of the Gram matrix may miss 1 by 1e-8 + 1e-5, the rest
        # may miss 0 by 1e-8, as np.allclose(gram, I, atol=1e-8) decides
        basis = np.array([[scale, off], [0.0, 1.0], [0.0, 0.0]])
        if np.allclose(basis.T @ basis, np.eye(2), atol=1e-8):
            assert SubspaceBasis(basis).dim == 2
        else:
            with pytest.raises(ValueError, match="not orthonormal"):
                SubspaceBasis(basis)


class TestToleranceConfig:
    def test_defaults_are_in_range(self):
        tol = ToleranceConfig()
        assert 0 < tol.rank_rtol < 1 and 0 < tol.residual_rtol < 1

    def test_rejects_out_of_range_fields(self):
        with pytest.raises(ValueError, match="rank_rtol"):
            ToleranceConfig(rank_rtol=0.0)
        with pytest.raises(ValueError, match="residual_rtol"):
            ToleranceConfig(residual_rtol=1.5)

    def test_replace_returns_new_config(self):
        tight = ToleranceConfig().replace(rank_rtol=1e-12)
        assert tight.rank_rtol == 1e-12
        assert ToleranceConfig().rank_rtol == 1e-10


class TestNullity:
    @pytest.mark.parametrize("matrix, expected", [
        (np.eye(4), 0),
        (np.zeros((3, 3)), 3),
        (np.diag([1.0, 0.0, 2.0]), 1),
    ])
    def test_examples(self, matrix, expected):
        assert nullity(matrix) == expected


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), rows=st.integers(1, 7), cols=st.integers(1, 7),
       data=st.data())
def test_rank_nullity_and_kernel_residual(seed, rows, cols, data):
    rank = data.draw(st.integers(0, min(rows, cols)))
    M = random_rank_matrix(np.random.default_rng(seed), rows, cols, rank)

    assert matrix_rank(M) + nullity(M) == cols

    Z = kernel_basis(M)
    assert Z.dim == cols - rank
    if Z.dim:
        tol = ToleranceConfig()
        scale = max(np.linalg.norm(M, 2), 1.0)
        assert np.linalg.norm(M @ Z.basis, 2) <= tol.residual_rtol * scale
        np.testing.assert_allclose(Z.basis.T @ Z.basis, np.eye(Z.dim), atol=1e-10)

    single = intersection_kernels([M])
    assert single.dim == Z.dim


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), rows=st.integers(1, 6), data=st.data())
def test_range_intersection_symmetry_and_witness(seed, rows, data):
    rng = np.random.default_rng(seed)
    cols1 = data.draw(st.integers(1, 5))
    cols2 = data.draw(st.integers(1, 5))
    M1 = random_rank_matrix(rng, rows, cols1, data.draw(st.integers(0, min(rows, cols1))))
    M2 = random_rank_matrix(rng, rows, cols2, data.draw(st.integers(0, min(rows, cols2))))

    ok12, w12 = range_intersection_trivial(M1, M2)
    ok21, _ = range_intersection_trivial(M2, M1)
    assert ok12 == ok21

    if not ok12:
        # witness must be a unit vector nearly inside both column spans
        assert np.linalg.norm(w12) == pytest.approx(1.0)
        for M in (M1, M2):
            _, res, _, _ = np.linalg.lstsq(M, w12, rcond=None)
            misfit = np.sqrt(res[0]) if res.size else np.linalg.norm(
                M @ np.linalg.lstsq(M, w12, rcond=None)[0] - w12)
            assert misfit <= 1e-8


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), dim=st.integers(1, 7), data=st.data())
def test_direct_sum_is_symmetric(seed, dim, data):
    rng = np.random.default_rng(seed)
    k1 = data.draw(st.integers(0, dim))
    k2 = data.draw(st.integers(0, dim))
    U = range_basis(rng.standard_normal((dim, k1))) if k1 else SubspaceBasis.trivial(dim)
    W = range_basis(rng.standard_normal((dim, k2))) if k2 else SubspaceBasis.trivial(dim)
    assert is_direct_sum(U, W) == is_direct_sum(W, U)


def test_first_decomposition_fixes_eigenvalues(monkeypatch):
    """Nullity, the 2-norm and the kernel all read the one eigh; the
    eigenvalues the nullity was read from stay."""
    seen = []
    for name in ("eigh", "eigvalsh"):
        def counting(a, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            seen.append(_name)
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    rng = np.random.default_rng(0)
    M = random_rank_matrix(rng, 6, 4, 4)
    sym = _SymEig(M @ M.T)
    eigenvalues = sym.eigenvalues
    nullity_first, norm = sym.nullity, sym.norm
    assert nullity_first == 2 and norm == pytest.approx(np.linalg.norm(M, 2) ** 2)
    assert sym.kernel.dim == nullity_first
    assert sym.eigenvalues is eigenvalues and sym.nullity == nullity_first
    assert seen == ["eigh"]


def _seeded_matrices():
    """Thin, wide, square, symmetric, zero and empty matrices, seeded."""
    rng = np.random.default_rng(7)
    for rows, cols in ((9, 4), (4, 9), (7, 7), (30, 12), (12, 30), (25, 25)):
        yield rng.standard_normal((rows, cols))
        yield random_rank_matrix(rng, rows, cols, min(rows, cols) // 2)
    for dim in (1, 6, 40):
        G = rng.standard_normal((dim, dim))
        yield G + G.T
        yield G @ G.T
    for shape in ((5, 3), (3, 5), (4, 4), (0, 3), (3, 0), (0, 0)):
        yield np.zeros(shape)


def test_spectral_norm_matches_the_svd():
    """||M||_2 read from eigenvalues, or from the smaller Gram matrix, is the
    largest singular value."""
    for M in _seeded_matrices():
        assert _spectral_norm(M) == pytest.approx(np.linalg.norm(M, 2), rel=1e-12), M.shape
        if M.shape[0] == M.shape[1] and (M == M.T).all():
            assert _spectral_norm(M, symmetric=True) == \
                pytest.approx(np.linalg.norm(M, 2), rel=1e-12)


def _counting_kernels(monkeypatch):
    seen = []
    for name in ("svd", "eigvalsh"):
        def counting(a, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            seen.append(_name)
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    return seen


def test_symmetric_nonsingularity_agrees_with_the_svd(monkeypatch):
    """Away from the rank cut (a factor 100 either side), the eigenvalue test
    of a symmetric matrix gives the SVD's verdict, and runs no SVD."""
    rng = np.random.default_rng(11)
    verdicts = set()
    for trial in range(60):
        dim = int(rng.integers(1, 12))
        lam = rng.choice([-1.0, 1.0], size=dim) * rng.uniform(0.5, 2.0, size=dim)
        cut = ToleranceConfig().rank_rtol * dim * np.abs(lam).max()
        if trial % 3 == 1:
            lam[0] = 0.0 if trial % 2 else cut / 100.0 * 10.0 ** rng.uniform(-4, 0)
        elif trial % 3 == 2:
            lam[0] = 100.0 * cut * 10.0 ** rng.uniform(0, 3)
        Q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        M = (Q * lam) @ Q.T
        M = 0.5 * (M + M.T)
        expected = matrix_rank(M) == M.shape[0]
        seen = _counting_kernels(monkeypatch)
        assert is_nonsingular(M) == expected, (lam, cut)
        assert seen == ["eigvalsh"]
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_asymmetric_input_takes_the_svd(monkeypatch):
    rng = np.random.default_rng(3)
    for M in (rng.standard_normal((6, 6)), np.triu(np.ones((4, 4))),
              np.diag([1.0, 0.0]) + np.eye(2, k=1)):
        expected = matrix_rank(M) == M.shape[0]
        seen = _counting_kernels(monkeypatch)
        assert is_nonsingular(M) == expected
        assert seen == ["svd"]


def test_entries_near_the_float_maximum_keep_a_finite_spectrum():
    """The symmetric part is halved before it is summed, so a finite symmetric M
    with entries of +-1e308, where M + M^T overflows, reads a finite spectrum
    and raises no overflow warning (pytest turns one into an error)."""
    M = np.array([[1e308, 0.0, 0.0], [0.0, 1.0, -1e308], [0.0, -1e308, 1.0]])
    eigenvalues = _SymEig(M).eigenvalues
    assert eigenvalues == pytest.approx([-1e308, 1e308, 1e308], rel=1e-12)
    assert _singular_values(M) == pytest.approx([1e308] * 3, rel=1e-12)
    assert is_nonsingular(M)
    assert classify_definiteness(M) is Definiteness.INDEFINITE
