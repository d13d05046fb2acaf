"""Rank-revealing subspace computations.

Kernels, ranges, kernel intersections, direct sums and definiteness
classification, all driven by the single rank policy in
:mod:`dsaddle.tolerances`.  A general matrix is read through one full SVD
and a symmetric one through one eigendecomposition; the singular values of a
symmetric matrix are the moduli of its eigenvalues, so both go through the
same rank cut.  Where only those values are needed, one ``eigvalsh`` reads a
symmetric matrix, and a spectral norm needs no SVD.  Kernel and range bases
are orthonormal by construction; the trivial subspace is represented
explicitly as a basis with zero columns, never as ``None``.
"""

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .tolerances import ToleranceConfig, resolve


def _as_matrix(M, name="matrix"):
    """Coerce to a 2-d float array and reject non-finite entries."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {A.shape}")
    if A.size and not np.isfinite(A).all():
        raise ValueError(f"{name} contains non-finite entries")
    return A


def rank_threshold(sigma_max, shape, tol: ToleranceConfig | None = None):
    """Cutoff below which singular values count as zero."""
    tol = resolve(tol)
    return tol.rank_rtol * max(shape[0], shape[1], 1) * sigma_max


def _above_cut(s, shape, tol: ToleranceConfig | None = None) -> np.ndarray:
    """Mask of the singular values that count as nonzero: the one rank cut."""
    return s > rank_threshold(s.max(initial=0.0), shape, tol)


def matrix_rank(M, tol: ToleranceConfig | None = None) -> int:
    M = _as_matrix(M)
    return int(_above_cut(np.linalg.svd(M, compute_uv=False), M.shape, tol).sum())


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a subspace of R^d, stored column-wise.

    ``basis`` has shape (ambient_dim, dim); dim == 0 encodes the trivial
    subspace {0}.
    """

    basis: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.basis, dtype=float)
        if B.ndim != 2:
            raise ValueError("basis must be a 2-d array of column vectors")
        object.__setattr__(self, "basis", B)
        B.setflags(write=False)
        if B.shape[1] > B.shape[0]:
            raise ValueError("more basis columns than ambient dimensions")
        if B.shape[1]:
            # the set np.allclose(B^T B, I, atol=1e-8) accepts, at a quarter of its cost
            I = np.eye(B.shape[1])
            if not (np.abs(B.T @ B - I) <= 1e-8 + 1e-5 * I).all():
                raise ValueError("basis columns are not orthonormal")

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def is_trivial(self) -> bool:
        return self.dim == 0

    @classmethod
    def trivial(cls, ambient_dim: int) -> "SubspaceBasis":
        return cls(np.zeros((ambient_dim, 0)))

    @classmethod
    def from_spanning(cls, columns, tol: ToleranceConfig | None = None) -> "SubspaceBasis":
        """Orthonormal basis of the column span of an arbitrary matrix."""
        return range_basis(columns, tol)


class Definiteness(Enum):
    POSITIVE_DEFINITE = "positive_definite"
    POSITIVE_SEMIDEFINITE = "positive_semidefinite"
    INDEFINITE = "indefinite"
    NOT_SYMMETRIC = "not_symmetric"

    @property
    def is_psd(self) -> bool:
        """True for the two nonnegative tags (definite implies semidefinite)."""
        return self in (Definiteness.POSITIVE_DEFINITE, Definiteness.POSITIVE_SEMIDEFINITE)


class _SVD:
    """One full SVD of a matrix M, read under the rank cut."""

    def __init__(self, M, tol: ToleranceConfig | None = None):
        M = _as_matrix(M)
        self.u, self.s, self.vh = np.linalg.svd(M, full_matrices=True)
        self.rank = int(_above_cut(self.s, M.shape, tol).sum())

    @cached_property
    def kernel(self) -> SubspaceBasis:
        return SubspaceBasis(self.vh[self.rank:].T.copy())

    @cached_property
    def range(self) -> SubspaceBasis:
        return SubspaceBasis(self.u[:, :self.rank].copy())

    @property
    def norm(self) -> float:
        """||M||_2, the largest singular value (0 for an empty M)."""
        return float(self.s.max(initial=0.0))

    @property
    def cokernel_pairs(self):
        """Singular values of M^T along the left singular vectors, zero past
        min(shape): ||M^T u_i|| for each column u_i of ``u``."""
        return np.pad(self.s, (0, self.u.shape[0] - self.s.size)), self.u


def kernel_basis(M, tol: ToleranceConfig | None = None) -> SubspaceBasis:
    """Orthonormal basis of ker(M) for a d2 x d1 matrix M.

    The kernel dimension is d1 - rank(M) under the global rank policy; empty
    and zero matrices are legal (a zero matrix has a full kernel).
    """
    return _SVD(M, tol).kernel


def range_basis(M, tol: ToleranceConfig | None = None) -> SubspaceBasis:
    """Orthonormal basis of ran(M) (the column space)."""
    return _SVD(M, tol).range


def nullity(M, tol: ToleranceConfig | None = None) -> int:
    """dim ker(M); satisfies rank(M) + nullity(M) = column count."""
    return _as_matrix(M).shape[1] - matrix_rank(M, tol)


def intersection_kernels(mats, tol: ToleranceConfig | None = None) -> SubspaceBasis:
    """Basis of the intersection of the kernels of several matrices.

    All matrices must have the same column count; the intersection is the
    kernel of the vertically stacked matrix, so one rank policy governs the
    whole decision.
    """
    mats = [_as_matrix(M, f"matrix {i}") for i, M in enumerate(mats)]
    if not mats:
        raise ValueError("need at least one matrix")
    d1 = mats[0].shape[1]
    for i, M in enumerate(mats[1:], start=1):
        if M.shape[1] != d1:
            raise ValueError(
                f"column count mismatch: matrix 0 has {d1} columns, "
                f"matrix {i} has {M.shape[1]}"
            )
    return kernel_basis(np.vstack(mats), tol)


# A restricted kernel intersection is kept only when every value it reads lies
# more than this factor away from the rank cut; nearer inputs take the stacked SVD.
_RESTRICT_MARGIN = 100.0


def _near_cut(values, cut, widen=1.0) -> bool:
    return bool(np.any((values > cut / _RESTRICT_MARGIN)
                       & (values < _RESTRICT_MARGIN * widen * cut)))


def _restricted_kernel(values, vectors, others, shape, scale,
                       tol: ToleranceConfig | None = None) -> tuple | None:
    """ker M1 ∩ ker M2 ∩ ... read from a held decomposition of M1, with the SVD
    (u, s, vh) of the restricted matrix (None when Q is empty), or None.

    ``values`` are ||M1 q|| for the orthonormal columns q of ``vectors``
    (|eigenvalues| with the eigenvectors of a symmetric M1).  With Q the
    columns whose value is at or below the cut, the intersection is
    Q ker([M2 Q; ...]), since ker M1 ∩ ker M2 = Q ker(M2 Q) for an
    orthonormal basis Q of ker M1.  A kept answer has every value of Q at or
    below cut / ``_RESTRICT_MARGIN``, so leaving diag(values_Q) out of the
    restricted matrix moves none of its singular values by more than that.
    The cut is that of the stacked matrix [M1; M2; ...]: its ``shape`` and
    ``scale``, the largest sigma_max of its blocks.

    Returns None when a value of M1 or a singular value of the restricted
    matrix lies within ``_RESTRICT_MARGIN`` of the cut; the caller then takes
    the stacked SVD.  The band above the cut widens by scale / mu, mu the
    smallest value of M1 past the cut: a unit x with a part b outside span(Q)
    has ||M1 x|| >= mu ||b||, while that part can cancel up to scale ||b|| of
    the rest, so only such a margin keeps the stacked and restricted
    dimensions equal.
    """
    cut = rank_threshold(scale, shape, tol)
    if _near_cut(values, cut):
        return None
    small = values <= cut
    Q = vectors[:, small]
    if not Q.shape[1]:
        return SubspaceBasis.trivial(vectors.shape[0]), None
    # the full vh keeps the kernel directions that a restricted matrix with
    # fewer rows than columns has beyond its singular values
    u, s, vh = np.linalg.svd(np.vstack([M @ Q for M in others]), full_matrices=True)
    if _near_cut(s, cut, 1.0 + scale / values[~small].min(initial=np.inf)):
        return None
    return SubspaceBasis(Q @ vh[int((s > cut).sum()):].T), (u, s, vh)


def range_intersection_trivial(Bmat, Ct, tol: ToleranceConfig | None = None):
    """Decide whether ran(B) and ran(C^T) intersect only in {0}.

    Both arguments must have the same number of rows (they map into the same
    space).  As ran(M) = ker(U⊥^T), U⊥ the left singular vectors of M past its
    rank, the intersection is the stacked kernel intersection of the two
    complements.  Returns ``(True, None)`` when it is {0}; otherwise
    ``(False, w)`` with a unit vector w lying in both ranges.
    """
    Bmat = _as_matrix(Bmat, "first matrix")
    Ct = _as_matrix(Ct, "second matrix")
    if Bmat.shape[0] != Ct.shape[0]:
        raise ValueError(f"row count mismatch: {Bmat.shape[0]} vs {Ct.shape[0]}")
    complements = [svd.u[:, svd.rank:].T for svd in (_SVD(Bmat, tol), _SVD(Ct, tol))]
    shared = intersection_kernels(complements, tol)
    return shared.is_trivial, None if shared.is_trivial else shared.basis[:, 0].copy()


def is_direct_sum(U: SubspaceBasis, W: SubspaceBasis, tol: ToleranceConfig | None = None) -> bool:
    """True when span(U) + span(W) is direct and fills the ambient space."""
    if U.ambient_dim != W.ambient_dim:
        raise ValueError(
            f"ambient dimension mismatch: {U.ambient_dim} vs {W.ambient_dim}"
        )
    d = U.ambient_dim
    if U.dim + W.dim != d:
        return False
    if U.dim == 0 or W.dim == 0:
        return True
    return matrix_rank(np.hstack([U.basis, W.basis]), tol) == d


# Fixed slacks: the symmetry test ||M - M^T||_F <= _SYM_RTOL ||M||_F validates
# input blocks, and an eigenvalue below -_NEG_RTOL ||M||_2 makes a block
# indefinite even under the rank cut, which K's cut need not share (semidefinite
# rules fired on singular K when such eigenvalues counted as zero).
_SYM_RTOL = _NEG_RTOL = 1e-10


@np.errstate(over="ignore")  # an overflowing norm is read again on the scaled M
def _symmetric(M) -> bool:
    """||M - M^T||_F <= _SYM_RTOL ||M||_F; both square every entry, so past ||M||_F
    = 2^(+-400) they are read on M scaled exactly by a power of two to max |m_ij| ~ 1."""
    norm = np.linalg.norm(M, "fro")
    if not 2.0 ** -400 < norm < 2.0 ** 400:
        M = np.ldexp(M, -np.frexp(np.abs(M).max(initial=0.0))[1])
        norm = np.linalg.norm(M, "fro")
    return bool(np.linalg.norm(M - M.T, "fro") <= _SYM_RTOL * norm)


def _symmetrized(X, copy=False):
    """X/2 + (X/2)^T into X, a fresh array, or with copy into a new one: it cannot overflow
    for a finite X, and is bit for bit 0.5 * (X + X^T) where that is finite and normal."""
    X = np.multiply(X, 0.5, out=None if copy else X)
    X += X.T
    return X


def _singular_values(M, symmetric=False) -> np.ndarray:
    """Singular values of M, unordered: for M symmetric by construction or by
    the symmetry test, the |eigenvalues| of one eigvalsh of its symmetric
    part, at half the cost of the SVD that reads any other M."""
    if symmetric or M.shape[0] == M.shape[1] and _symmetric(M):
        return np.abs(np.linalg.eigvalsh(_symmetrized(M, copy=True)))
    return np.linalg.svd(M, compute_uv=False)


def is_nonsingular(M, tol: ToleranceConfig | None = None) -> bool:
    """Square matrix test sigma_min > threshold under the global rank policy, with
    the singular values of a symmetric M read through one eigvalsh."""
    M = _as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ValueError("nonsingularity is defined for square matrices only")
    return bool(_above_cut(_singular_values(M), M.shape, tol).all())


def _spectral_norm(M, symmetric=False) -> float:
    """||M||_2 with no SVD: an asymmetric M as sqrt ||G||_2, G its smaller Gram matrix."""
    if symmetric or M.shape[0] == M.shape[1] and _symmetric(M):
        return float(_singular_values(M, True).max(initial=0.0))
    return float(np.sqrt(_spectral_norm(M @ M.T if M.shape[0] <= M.shape[1] else M.T @ M, True)))


class _SymEig:
    """One eigendecomposition of a symmetric matrix, read under the rank cut.

    Holds the ascending ``eigenvalues`` and ``eigenvectors`` of the symmetric
    part, and the mask ``nonzero`` of the eigenvalues past the rank cut.  From
    them come the definiteness tag, nullity, kernel, lambda_max, the 2-norm,
    nonsingularity and inverses.
    """

    def __init__(self, M, tol: ToleranceConfig | None = None):
        self.tol = resolve(tol)
        self.matrix = M = _as_matrix(M)
        if M.shape[0] != M.shape[1]:
            raise ValueError(f"definiteness needs a square matrix, got {M.shape}")
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(_symmetrized(M, copy=True))
        self.nonzero = _above_cut(np.abs(self.eigenvalues), M.shape, self.tol)

    @cached_property
    def definiteness(self) -> Definiteness:
        """Strongest true tag among PD, PSD and indefinite for an M its caller
        knows symmetric.  PD needs every eigenvalue past the rank cut, as
        nullity 0 does."""
        if self.matrix.shape[0] == 0:
            return Definiteness.POSITIVE_DEFINITE
        lam, nonzero = self.eigenvalues, self.nonzero
        if lam[0] < -_NEG_RTOL * np.abs(lam).max() or (lam[nonzero] < 0.0).any():
            return Definiteness.INDEFINITE
        if nonzero.all():
            return Definiteness.POSITIVE_DEFINITE
        return Definiteness.POSITIVE_SEMIDEFINITE

    @property
    def nullity(self) -> int:
        return int((~self.nonzero).sum())

    @property
    def nonsingular(self) -> bool:
        return self.nullity == 0

    @cached_property
    def kernel(self) -> SubspaceBasis:
        return SubspaceBasis(self.eigenvectors[:, ~self.nonzero])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1]) if self.eigenvalues.size else 0.0

    @property
    def norm(self) -> float:
        """||M||_2 of the symmetric part, the largest |eigenvalue|."""
        return float(np.abs(self.eigenvalues).max(initial=0.0))

    @property
    def pairs(self):
        """|eigenvalues| with their eigenvectors, ||M q|| for each column q."""
        return np.abs(self.eigenvalues), self.eigenvectors

    def inverse_of(self, values) -> np.ndarray:
        """Q diag(1 / values) Q^T over the eigenvectors Q, symmetrized."""
        return _symmetrized((self.eigenvectors / values) @ self.eigenvectors.T)

    @cached_property
    def inverse(self) -> np.ndarray:
        return self.inverse_of(self.eigenvalues)


def classify_definiteness(M, tol: ToleranceConfig | None = None) -> Definiteness:
    """Strongest true tag among PD, PSD, indefinite, not-symmetric.

    The zero matrix classifies positive semidefinite; an empty matrix is
    vacuously positive definite.
    """
    eig = _SymEig(M, tol)
    return eig.definiteness if _symmetric(eig.matrix) else Definiteness.NOT_SYMMETRIC
