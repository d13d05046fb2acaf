"""Rank-revealing subspace computations.

Kernels, ranges, kernel intersections, direct sums and definiteness
classification, all driven by the single rank policy in
:mod:`dsaddle.tolerances`.  A general matrix is read through one full SVD
and a symmetric one through one eigendecomposition; the singular values of a
symmetric matrix are the moduli of its eigenvalues, so both go through the
same rank cut.  Kernel and range bases are orthonormal by construction; the
trivial subspace is represented explicitly as a basis with zero columns,
never as ``None``.
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
            gram = B.T @ B
            if not np.allclose(gram, np.eye(B.shape[1]), atol=1e-8):
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

    def solve(self, w) -> np.ndarray:
        """Minimum-norm x with M x = w, for w in the numerical range of M."""
        r = self.rank
        return self.vh[:r].T @ ((self.u[:, :r].T @ w) / self.s[:r])


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


def _shared_direction(U: SubspaceBasis, W: SubspaceBasis, tol: ToleranceConfig | None = None):
    """Unit vector in span(U) ∩ span(W), or None when they meet only in {0}.

    U a = W b with (a, b) != 0 forces both sides nonzero because the bases
    have independent columns, so one kernel of [U | -W] both decides the
    question and yields the shared direction.
    """
    if U.is_trivial or W.is_trivial:
        return None
    null = kernel_basis(np.hstack([U.basis, -W.basis]), tol)
    if null.is_trivial:
        return None
    w = U.basis @ null.basis[:U.dim, 0]
    return w / np.linalg.norm(w)


def range_intersection_trivial(Bmat, Ct, tol: ToleranceConfig | None = None):
    """Decide whether ran(B) and ran(C^T) intersect only in {0}.

    Both arguments must have the same number of rows (they map into the same
    space).  Returns ``(True, None)`` when the orthonormal range bases are
    jointly independent; otherwise ``(False, w)`` with a unit vector w lying
    in both ranges.
    """
    Bmat = _as_matrix(Bmat, "first matrix")
    Ct = _as_matrix(Ct, "second matrix")
    if Bmat.shape[0] != Ct.shape[0]:
        raise ValueError(
            f"row count mismatch: {Bmat.shape[0]} vs {Ct.shape[0]}"
        )
    w = _shared_direction(range_basis(Bmat, tol), range_basis(Ct, tol), tol)
    return w is None, w


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


class _SymEig:
    """One eigendecomposition of a symmetric matrix, read under the rank cut.

    Gives the definiteness tag, nullity, kernel, lambda_max, nonsingularity
    and the inverse.  The decomposition is of the symmetric part, and it runs
    only when a fact needs it: an asymmetric matrix is tagged without one.
    """

    def __init__(self, M, tol: ToleranceConfig | None = None):
        self.tol = resolve(tol)
        self.matrix = _as_matrix(M)
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError(f"definiteness needs a square matrix, got {self.matrix.shape}")

    @cached_property
    def _eigh(self):
        M = self.matrix
        lam, vecs = np.linalg.eigh(0.5 * (M + M.T))
        return lam, vecs, _above_cut(np.abs(lam), M.shape, self.tol)

    @property
    def symmetric(self) -> bool:
        M = self.matrix
        return np.linalg.norm(M - M.T, "fro") <= self.tol.sym_rtol * np.linalg.norm(M, "fro")

    @cached_property
    def definiteness(self) -> Definiteness:
        """Strongest true tag among PD, PSD, indefinite, not-symmetric."""
        M, tol = self.matrix, self.tol
        if M.shape[0] == 0:
            return Definiteness.POSITIVE_DEFINITE
        if not self.symmetric:
            return Definiteness.NOT_SYMMETRIC
        eigs = self._eigh[0]
        scale = float(np.max(np.abs(eigs)))
        lam_min = float(eigs[0])
        if lam_min > tol.psd_rtol * scale:
            return Definiteness.POSITIVE_DEFINITE
        if lam_min >= -tol.psd_rtol * scale:
            return Definiteness.POSITIVE_SEMIDEFINITE
        return Definiteness.INDEFINITE

    @property
    def nullity(self) -> int:
        return int((~self._eigh[2]).sum())

    @property
    def nonsingular(self) -> bool:
        return self.nullity == 0

    @cached_property
    def kernel(self) -> SubspaceBasis:
        _, vecs, nonzero = self._eigh
        return SubspaceBasis(vecs[:, ~nonzero])

    @property
    def lambda_max(self) -> float:
        lam = self._eigh[0]
        return float(lam[-1]) if lam.size else 0.0

    @cached_property
    def inverse(self) -> np.ndarray:
        lam, vecs, _ = self._eigh
        inv = (vecs / lam) @ vecs.T
        return 0.5 * (inv + inv.T)


def classify_definiteness(M, tol: ToleranceConfig | None = None) -> Definiteness:
    """Strongest true tag among PD, PSD, indefinite, not-symmetric.

    The zero matrix classifies positive semidefinite; an empty matrix is
    vacuously positive definite.
    """
    return _SymEig(M, tol).definiteness
