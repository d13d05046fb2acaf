"""Constructive machinery for systems with a maximally rank-deficient
leading block: the reduced-Hessian projector, the identities it satisfies,
a block factorization of the congruence-transformed matrix, and explicit
closed-form inverses, together with nullity bounds on the middle block of
the inverse.

All identity helpers return relative residuals and raise
:class:`~dsaddle.errors.PreconditionError` when their hypotheses fail, so a
violated hypothesis can never masquerade as a small number.
"""

from dataclasses import asdict, dataclass
from types import SimpleNamespace

import numpy as np

from .core import BlockSystem, assemble, _checked_alpha, _congruence, _m_inverse
from .errors import PreconditionError
from .invertibility import _analysis, is_nonsingular
from .subspaces import SubspaceBasis, _above_cut, _as_matrix, is_direct_sum
from .tolerances import ToleranceConfig, resolve


# ---------------------------------------------------------------------------
# hypotheses, each checked in one place
# ---------------------------------------------------------------------------

_HYPOTHESES = {
    "A psd": lambda an: (an.A.definiteness.is_psd, "A must be positive semidefinite"),
    "null(A) = m": lambda an: (
        an.A.nullity == an.sys.B.shape[0],
        f"null(A) = {an.A.nullity} must equal the row count m = {an.sys.B.shape[0]} of B"),
    "N1": lambda an: (an.n1.is_trivial, "ker(A) and ker(B) must intersect only in {0}"),
    "DS1": lambda an: (an.ds1,
                       "ker(A) and ker(B) must form a direct sum of the whole space"),
    "E nonsingular": lambda an: (an.E.nonsingular, "E must be nonsingular"),
    "K invertible": lambda an: (an.k_nonsingular,
                                "nullity bounds apply to invertible systems only"),
}


def _require(an, *names):
    """Raise PreconditionError naming the first hypothesis that fails."""
    for name in names:
        holds, message = _HYPOTHESES[name](an)
        if not holds:
            raise PreconditionError(message)


def _blocks(tol, **blocks):
    """Analysis of loose blocks, passed by name, outside a BlockSystem."""
    return _analysis(SimpleNamespace(**{k: _as_matrix(v, k) for k, v in blocks.items()}), tol)


# ---------------------------------------------------------------------------
# reduced-Hessian projector and its identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReducedHessianProjector:
    """V = Z (Z^T A Z)^{-1} Z^T for an orthonormal kernel basis Z of B.

    V is symmetric positive semidefinite, satisfies V B^T = 0, and does not
    depend on which orthonormal basis of ker(B) is used.  Z^T A Z is the
    reduced Hessian familiar from null-space methods.
    """

    V: np.ndarray
    Z: SubspaceBasis

    def __post_init__(self):
        V = np.asarray(self.V, dtype=float)
        V.setflags(write=False)
        object.__setattr__(self, "V", V)


def _projector_from_basis(A, Z: SubspaceBasis, tol: ToleranceConfig):
    if Z.dim == 0:
        return np.zeros((A.shape[0], A.shape[0]))
    H = Z.basis.T @ A @ Z.basis
    if not is_nonsingular(H, tol):
        raise PreconditionError(
            "reduced Hessian Z^T A Z is numerically singular; "
            "ker(A) and ker(B) must intersect trivially with A semidefinite"
        )
    V = Z.basis @ np.linalg.solve(H, Z.basis.T)
    return 0.5 * (V + V.T)


def _projector(an, *hypotheses) -> ReducedHessianProjector:
    """The projector over Z = ker(B) from B's SVD, once A is semidefinite and
    the named hypotheses hold; the analysis holds it after the first build."""
    _require(an, "A psd", *hypotheses)
    if an.projector is None:
        Z = an.B.kernel
        an.projector = ReducedHessianProjector(_projector_from_basis(an.sys.A, Z, an.tol), Z)
    return an.projector


def reduced_hessian_projector(A, B, tol: ToleranceConfig | None = None) -> ReducedHessianProjector:
    """Build the projector from the blocks A and B.

    Requires A positive semidefinite and ker(A) ∩ ker(B) = {0}, which
    together make the reduced Hessian positive definite.  With a trivial
    kernel of B the projector is the zero matrix.
    """
    return _projector(_blocks(tol, A=A, B=B), "N1")


def _inner_inverse(an, proj: ReducedHessianProjector, direct_sum: bool) -> float:
    """Residual of A = A V A, given whether ker(A) (+) ker(B) = R^n."""
    _require(an, "A psd")
    if not direct_sum:
        raise PreconditionError(
            "ker(A) and ker(B) must form a direct sum of the whole space "
            "(this pins null(A) to the number of rows of B)"
        )
    A = an.sys.A
    norm = np.linalg.norm(A, "fro")
    if norm == 0.0:
        return 0.0
    return float(np.linalg.norm(A - A @ proj.V @ A, "fro") / norm)


def inner_inverse_residual(A, proj: ReducedHessianProjector,
                           tol: ToleranceConfig | None = None) -> float:
    """Relative residual of the inner-inverse identity A = A V A.

    Holds when A is positive semidefinite and ker(A) (+) ker(B) spans the
    whole space (the maximally rank-deficient setting); both hypotheses are
    enforced.
    """
    an = _blocks(tol, A=A)
    return _inner_inverse(an, proj, is_direct_sum(an.A.kernel, proj.Z, an.tol))


def _weight_recovery(an, W, winv_b=None) -> float:
    """Residual of the identity, solving with W unless W^{-1} B is given."""
    m = an.sys.B.shape[0]
    W = _as_matrix(W, "W")
    if W.shape != (m, m):
        raise ValueError(f"W must be {m} x {m}, got {W.shape}")
    _require(an, "null(A) = m", "N1")
    A, B = an.sys.A, an.sys.B
    if winv_b is None:
        if not is_nonsingular(W, an.tol):
            raise PreconditionError("W must be invertible")
        winv_b = np.linalg.solve(W, B)
    X = A + B.T @ winv_b
    if not is_nonsingular(X, an.tol):
        raise PreconditionError(
            "A + B^T W^{-1} B is numerically singular; hypotheses do not hold"
        )
    recovered = B @ np.linalg.solve(X, B.T)
    return float(np.linalg.norm(recovered - W, "fro") / np.linalg.norm(W, "fro"))


def weight_recovery_residual(A, B, W, tol: ToleranceConfig | None = None) -> float:
    """Residual of the weight-recovery identity B (A + B^T W^{-1} B)^{-1} B^T = W.

    For A positive semidefinite with null(A) equal to the row count of B,
    ker(A) ∩ ker(B) = {0}, and any invertible W, the completed matrix
    A + B^T W^{-1} B is invertible and compressing its inverse by B recovers
    W exactly.
    """
    return _weight_recovery(_blocks(tol, A=A, B=B), W)


def _projector_complement(an, Z: SubspaceBasis) -> float:
    B = an.sys.B
    m, n = B.shape
    if an.B.rank != m:
        raise PreconditionError("B must have full row rank")
    if Z.ambient_dim != n or Z.dim != n - m:
        raise PreconditionError("Z does not have the dimensions of ker(B)")
    if Z.dim and np.linalg.norm(B @ Z.basis, 2) > an.tol.residual_rtol * an.B.s[0]:
        raise PreconditionError("Z is not a kernel basis of B")
    row_proj = B.T @ np.linalg.solve(B @ B.T, B)
    complement = np.eye(n) - Z.basis @ Z.basis.T
    return float(np.linalg.norm(row_proj - complement, 2))


def projector_complement_residual(B, Z: SubspaceBasis,
                                  tol: ToleranceConfig | None = None) -> float:
    """Residual of B^T (B B^T)^{-1} B = I - Z Z^T for full-row-rank B.

    Z must be an orthonormal basis of ker(B); both the rank of B and the
    kernel property of Z are enforced.
    """
    return _projector_complement(_blocks(tol, B=B), Z)


def _fixed_point_residual(A, proj: ReducedHessianProjector) -> float:
    """||Z^T A V - Z^T||_2, which equals ||Z Z^T A V - Z Z^T||_2 for orthonormal Z."""
    if proj.Z.dim == 0:
        return 0.0
    Zt = proj.Z.basis.T
    return float(np.linalg.norm(Zt @ A @ proj.V - Zt, 2))


def reduced_projector_residual(A, proj: ReducedHessianProjector,
                               tol: ToleranceConfig | None = None) -> float:
    """Residual of Z Z^T A V = Z Z^T, the fixed-point property of V on ker(B)."""
    tol = resolve(tol)
    A = _as_matrix(A, "A")
    V_check = _projector_from_basis(A, proj.Z, tol)
    scale = max(np.linalg.norm(proj.V, 2), 1e-300)
    if np.linalg.norm(V_check - proj.V, 2) > tol.residual_rtol * max(scale, 1.0):
        raise PreconditionError("projector was not built from this A")
    return _fixed_point_residual(A, proj)


# ---------------------------------------------------------------------------
# transformed Schur complement and block factorization
# ---------------------------------------------------------------------------

def transformed_schur_complement(sys: BlockSystem, alpha: float,
                                 tol: ToleranceConfig | None = None) -> np.ndarray:
    """Schur complement of the congruence-transformed matrix.

    With M = 2I - alpha D, returns the (m+p) square matrix

        [[-(1/alpha) M^{-1},  M^{-1} C^T        ],
         [ C M^{-1},          E - alpha C M^{-1} C^T]].

    Under the hypotheses A, D positive semidefinite, the three necessary
    kernel conditions, and null(A) = m, this matrix is invertible exactly
    when the full system is; the equivalence holds for every admissible
    alpha in (0, 2/lambda_max(D)).
    """
    D = _analysis(sys, tol).D
    Minv = _m_inverse(D, _checked_alpha(D, alpha))
    m, p = sys.m, sys.p
    S = np.zeros((m + p, m + p))
    S[:m, :m] = -(1.0 / alpha) * Minv
    S[:m, m:] = Minv @ sys.C.T
    S[m:, :m] = sys.C @ Minv
    S[m:, m:] = sys.E - alpha * sys.C @ Minv @ sys.C.T
    return S


@dataclass(frozen=True)
class TransformedFactorization:
    """Block L * mid * L^T factorization of the transformed matrix at alpha = 1.

    ``a_tilde`` is A + B^T (2I - D) B, ``b_one`` is B - D B, ``L`` is unit
    lower block triangular and ``mid`` is blockdiag(a_tilde, -(2I-D)^{-1}, E).
    The middle factor carries the rank: rank(mid) equals the rank of the
    transformed matrix and of the original system.
    """

    a_tilde: np.ndarray
    b_one: np.ndarray
    L: np.ndarray
    mid: np.ndarray
    dims: tuple[int, int, int]

    def reconstruct(self) -> np.ndarray:
        return self.L @ self.mid @ self.L.T


def factorize_transformed(sys: BlockSystem, tol: ToleranceConfig | None = None) -> TransformedFactorization:
    """Factor the alpha = 1 congruence transform of the system.

    Hypotheses (enforced): A positive semidefinite, null(A) = m,
    ker(A) ∩ ker(B) = {0}, and lambda_max(D) < 2.  E may be singular; its
    rank deficiency then shows up in the middle factor.
    """
    an = _analysis(sys, tol)
    a_tilde, b_one, L21, L31 = _factor_blocks(an)
    n, m, p = sys.dims
    ell = sys.ell
    L = np.eye(ell)
    L[n:n + m, :n] = L21
    L[n + m:, :n] = L31
    L[n + m:, n:n + m] = -sys.C
    mid = np.zeros((ell, ell))
    mid[:n, :n] = a_tilde.matrix
    mid[n:n + m, n:n + m] = -_m_inverse(an.D, 1.0)
    mid[n + m:, n + m:] = sys.E
    return TransformedFactorization(a_tilde.matrix, b_one, L, mid, sys.dims)


def _factor_blocks(an):
    """a_tilde's held eigendecomposition (nonsingularity and inverse), b_one,
    and the blocks L21 and L31 of the unit triangular factor (L32 is -C) at
    alpha = 1."""
    _require(an, "A psd", "null(A) = m")
    _checked_alpha(an.D, 1.0)  # lambda_max(D) < 2
    # with A psd and 2I - D positive definite, ker(a_tilde) = ker(A) ∩ ker(B),
    # so a nonsingular a_tilde is the condition N1
    a_tilde = an.a_tilde
    if not a_tilde.nonsingular:
        raise PreconditionError("ker(A) and ker(B) must intersect only in {0}: "
                                "A + B^T (2I - D) B is numerically singular")
    B, C, D = an.sys.B, an.sys.C, an.sys.D
    b_one = B - D @ B
    return a_tilde, b_one, b_one @ a_tilde.inverse, C @ B @ a_tilde.inverse


# ---------------------------------------------------------------------------
# explicit inverses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InverseBlocks:
    """Symmetric 3 x 3 block partition of an inverse.

    Only the upper blocks are stored; the assembled matrix mirrors them, so
    the result is symmetric by construction.
    """

    z11: np.ndarray
    z12: np.ndarray
    z13: np.ndarray
    z22: np.ndarray
    z23: np.ndarray
    z33: np.ndarray
    dims: tuple[int, int, int]

    @classmethod
    def from_full(cls, M, dims) -> "InverseBlocks":
        M = _as_matrix(M, "inverse")
        n, m, p = dims
        if M.shape != (n + m + p, n + m + p):
            raise ValueError(f"matrix shape {M.shape} does not match dims {dims}")
        sym = lambda X: 0.5 * (X + X.T)
        return cls(
            z11=sym(M[:n, :n]),
            z12=M[:n, n:n + m].copy(),
            z13=M[:n, n + m:].copy(),
            z22=sym(M[n:n + m, n:n + m]),
            z23=M[n:n + m, n + m:].copy(),
            z33=sym(M[n + m:, n + m:]),
            dims=(int(n), int(m), int(p)),
        )

    @property
    def full(self) -> np.ndarray:
        n, m, p = self.dims
        X = np.zeros((n + m + p, n + m + p))
        X[:n, :n] = self.z11
        X[:n, n:n + m] = self.z12
        X[:n, n + m:] = self.z13
        X[n:n + m, :n] = self.z12.T
        X[n:n + m, n:n + m] = self.z22
        X[n:n + m, n + m:] = self.z23
        X[n + m:, :n] = self.z13.T
        X[n + m:, n:n + m] = self.z23.T
        X[n + m:, n + m:] = self.z33
        return X

    def blocks(self) -> dict:
        return {"Z11": self.z11, "Z12": self.z12, "Z13": self.z13,
                "Z22": self.z22, "Z23": self.z23, "Z33": self.z33}


@dataclass(frozen=True)
class TwoBlockInverse:
    """Inverse of the 2 x 2 block matrix [[A, B^T], [B, -D]].

    The trailing block is exactly zero by construction.
    """

    x11: np.ndarray
    x12: np.ndarray
    x22: np.ndarray
    dims: tuple[int, int]

    @property
    def full(self) -> np.ndarray:
        n, m = self.dims
        X = np.zeros((n + m, n + m))
        X[:n, :n] = self.x11
        X[:n, n:] = self.x12
        X[n:, :n] = self.x12.T
        X[n:, n:] = self.x22
        return X


def two_block_inverse(A, B, D, tol: ToleranceConfig | None = None) -> TwoBlockInverse:
    """Closed-form inverse of [[A, B^T], [B, -D]].

    Hypotheses: A positive semidefinite, null(A) = m, and
    ker(A) (+) ker(B) = R^n.  With V the reduced-Hessian projector and
    R = (B B^T)^{-1} B (I - A V), the inverse is

        [[R^T D R + V,  R^T],
         [R,            0  ]].

    B has full row rank under these hypotheses, so (B B^T)^{-1} B is read
    from the SVD of B; the Gram matrix B B^T is never formed.
    """
    tol = resolve(tol)
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    D = _as_matrix(D, "D")
    m, n = B.shape
    if A.shape != (n, n):
        raise ValueError(f"A must be {n} x {n}, got {A.shape}")
    if D.shape != (m, m):
        raise ValueError(f"D must be {m} x {m}, got {D.shape}")
    x11, R = _two_block(_blocks(tol, A=A, B=B), D)
    return TwoBlockInverse(x11, R.T.copy(), np.zeros((m, m)), (n, m))


def _two_block(an, D):
    """Leading block R^T D R + V of the two-block inverse, and R.  B has full
    row rank m here, so (B B^T)^{-1} B = U S^{-1} V_m^T from B = U S V_m^T."""
    A, m = an.sys.A, an.sys.B.shape[0]
    proj = _projector(an, "null(A) = m", "DS1")
    u, s, vh = an.B.u, an.B.s, an.B.vh
    R = (u / s[:m]) @ (vh[:m] @ (np.eye(A.shape[0]) - A @ proj.V))
    x11 = R.T @ D @ R + proj.V
    return 0.5 * (x11 + x11.T), R


def three_block_inverse(sys: BlockSystem, tol: ToleranceConfig | None = None) -> InverseBlocks:
    """Closed-form inverse of the full system for nonsingular E.

    Hypotheses: A positive semidefinite, null(A) = m,
    ker(A) (+) ker(B) = R^n, and E nonsingular; D is unrestricted.  The
    middle diagonal block and its coupling to E are exactly zero:

        [[T,   R^T, S^T   ],
         [R,   0,   0     ],      T = R^T (D + C^T E^{-1} C) R + V
         [S,   0,   E^{-1}]],     R = (B B^T)^{-1} B (I - A V),  S = -E^{-1} C R

    Eliminating E leaves the two-block system with middle block
    D + C^T E^{-1} C, whose inverse supplies T and R.
    """
    an = _analysis(sys, tol)
    m, p = sys.m, sys.p
    _require(an, "E nonsingular")
    Einv = an.E.inverse
    T, R = _two_block(an, sys.D + sys.C.T @ Einv @ sys.C)
    return InverseBlocks(
        z11=T,
        z12=R.T.copy(),
        z13=(-Einv @ (sys.C @ R)).T.copy(),
        z22=np.zeros((m, m)),
        z23=np.zeros((m, p)),
        z33=Einv.copy(),  # the analysis keeps E^{-1} for later calls
        dims=sys.dims,
    )


def inverse_via_factorization(sys: BlockSystem, tol: ToleranceConfig | None = None) -> InverseBlocks:
    """Inverse assembled blockwise from the alpha = 1 factorization.

    With W the congruence, K^{-1} = W L^{-T} mid^{-1} L^{-1} W^T = G^T mid^{-1} G
    for G = L^{-1} W^T.  The block rows of G follow from L21, L31 and
    L32 = -C by block back-substitution, and mid^{-1} is
    blockdiag(a_tilde^{-1}, -(2I - D), E^{-1}), so

        K^{-1} = G1^T a_tilde^{-1} G1 - G2^T (2I - D) G2 + G3^T E^{-1} G3

    with a_tilde^{-1} from the eigendecomposition that decides its
    nonsingularity.  G1 = [I, B^T, 0] makes the first term
    [[a_tilde^{-1}, T], [T^T, B T]] with T = a_tilde^{-1} B^T, and G2 is zero
    past its first n + m columns, so only the G3 term is a full product.
    Requires the factorization hypotheses plus nonsingular E.
    """
    an = _analysis(sys, tol)
    a_tilde, _, L21, L31 = _factor_blocks(an)
    _require(an, "E nonsingular")
    n, m, p = sys.dims
    B, C = sys.B, sys.C
    L3 = -C @ L21 - L31  # L32 L21 - L31
    G2 = np.hstack([-L21, np.eye(m) - L21 @ B.T])
    G3 = np.hstack([L3, L3 @ B.T + C, np.eye(p)])
    T = a_tilde.inverse @ B.T
    K_inv = G3.T @ an.E.inverse @ G3
    K_inv[:n + m, :n + m] += (np.block([[a_tilde.inverse, T], [T.T, B @ T]])
                              - G2.T @ (2.0 * np.eye(m) - sys.D) @ G2)
    return InverseBlocks.from_full(K_inv, sys.dims)


def dense_inverse_blocks(sys: BlockSystem) -> InverseBlocks:
    """Reference inverse by dense LU of the assembled matrix, every block of
    it; :func:`verify_identities` solves for Z22 alone with the same LU."""
    K = assemble(sys).matrix
    return InverseBlocks.from_full(np.linalg.inv(K), sys.dims)


# ---------------------------------------------------------------------------
# nullity bounds on the middle block of the inverse
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NullityBoundReport:
    """Checked nullity bounds for the middle diagonal block of the inverse.

    For an invertible system, null(Z22) always lies between
    min(max(null(A), null(E)), m) and null(A) + null(E); when the ranges of
    B and C^T meet only in {0} the lower bound sharpens to
    min(null(A) + null(E), m).  With nonsingular E the bounds collapse to
    min(null(A), m) <= null(Z22) <= null(A), and the null(A) = m corner
    forces Z22 = 0.
    """

    null_a: int
    null_e: int
    null_z22: int
    m: int
    lower_bound: int
    upper_bound: int
    eq_base_holds: bool
    range_disjoint: bool
    refined_lower: int | None
    eq_refined_holds: bool | None
    remark_holds: bool | None
    corner_expected: bool
    corner_zero_ok: bool | None
    z22_norm: float
    inverse_norm: float

    @property
    def satisfied(self) -> bool:
        return (self.eq_base_holds
                and self.eq_refined_holds in (None, True)
                and self.remark_holds in (None, True)
                and self.corner_zero_ok in (None, True))

    def to_dict(self):
        return {**asdict(self), "satisfied": self.satisfied}


def z22_nullity_bounds(sys: BlockSystem, inv: InverseBlocks,
                       tol: ToleranceConfig | None = None) -> NullityBoundReport:
    """Verify the nullity bounds of the middle inverse block.

    ``inv`` may come from any constructor or from dense inversion; only its
    Z22 is read.  The nullity of Z22 follows the global rank policy measured
    against its own largest singular value, except that a block vanishing
    relative to the whole inverse (``inverse_norm`` = ||K^{-1}||_2 =
    1 / min |lambda(K)|, from the eigenvalues of K) counts as nullity m.
    """
    return _z22_bounds(_analysis(sys, tol), inv.z22)


def _z22_bounds(an, z22) -> NullityBoundReport:
    _require(an, "K invertible")
    tol = an.tol
    null_a = an.A.nullity
    null_e = an.E.nullity
    m = an.sys.m

    inverse_norm = float(1.0 / an.k_moduli.min())
    # one SVD of Z22 gives its 2-norm (the largest singular value) and its rank
    s = np.linalg.svd(z22, compute_uv=False)
    z22_norm = float(s.max(initial=0.0))
    if z22_norm <= tol.rank_rtol * max(m, 1) * inverse_norm:
        null_z22 = m
    else:
        null_z22 = m - int(_above_cut(s, z22.shape, tol).sum())

    lower = min(max(null_a, null_e), m)
    upper = null_a + null_e
    eq_base = lower <= null_z22 <= upper

    range_disjoint = an.r_witness is None
    refined = min(null_a + null_e, m) if range_disjoint else None
    eq_refined = (refined <= null_z22) if range_disjoint else None

    remark = None
    if null_e == 0:
        remark = min(null_a, m) <= null_z22 <= null_a
    corner = (null_a == m and null_e == 0)
    corner_ok = (z22_norm <= tol.rank_rtol * inverse_norm) if corner else None

    return NullityBoundReport(
        null_a=null_a, null_e=null_e, null_z22=null_z22, m=m,
        lower_bound=lower, upper_bound=upper, eq_base_holds=eq_base,
        range_disjoint=range_disjoint, refined_lower=refined,
        eq_refined_holds=eq_refined, remark_holds=remark,
        corner_expected=corner, corner_zero_ok=corner_ok,
        z22_norm=z22_norm, inverse_norm=inverse_norm,
    )


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

def verify_identities(sys: BlockSystem, tol: ToleranceConfig | None = None,
                      alpha: float | None = None) -> list[dict]:
    """Recompute every identity on one system and report residuals.

    Returns a list of entries {"id", "status", ...} where status is "ok"
    (residual within ``residual_rtol``), "failed", or "skipped" with a
    reason when the identity's hypotheses do not hold for this system.
    Each identity works on its blocks: the projector is the one the analysis
    holds, W^T K W adds two thin products to K, and Z22 comes from one LU
    solve of K against its m middle unit columns.
    """
    an = _analysis(sys, tol)
    tol = an.tol
    alpha = _checked_alpha(an.D, alpha)
    n, m = sys.n, sys.m
    entries = []

    def residual_entry(name, fn):
        try:
            res = fn()
        except PreconditionError as exc:
            entries.append({"id": name, "status": "skipped", "reason": str(exc)})
            return
        status = "ok" if res <= tol.residual_rtol else "failed"
        entries.append({"id": name, "status": status, "residual": float(res)})

    def congruence():
        # W = I + N with N = alpha B in block (2, 1): K W adds K[:, mid] N to the
        # first n columns of K, and W^T (K W) adds N^T (K W)[mid] to its first n rows
        Kt, W = _congruence(sys, alpha)
        N = W.block(1, 0)
        KW = an.K.copy()
        KW[:, :n] += an.K[:, n:n + m] @ N
        KW[:n] += N.T @ KW[n:n + m]
        KW -= Kt.matrix
        return float(np.linalg.norm(KW) / max(np.linalg.norm(Kt.matrix), 1e-300))

    # W = M^{-1} / alpha, so W^{-1} B = alpha M B in closed form
    residual_entry("weight_recovery", lambda: _weight_recovery(
        an, _m_inverse(an.D, alpha) / alpha, alpha * (2.0 * np.eye(m) - alpha * sys.D) @ sys.B))
    # Z = ker(B) from the analysis, so the direct sum is the analysis' DS1
    residual_entry("inner_inverse", lambda: _inner_inverse(an, _projector(an, "N1"), an.ds1))
    residual_entry("projector_complement",
                   lambda: _projector_complement(an, an.B.kernel))
    residual_entry("reduced_projector",
                   lambda: _fixed_point_residual(sys.A, _projector(an, "N1")))
    residual_entry("congruence", congruence)

    try:
        _require(an, "K invertible")
        z22 = np.linalg.solve(an.K, np.eye(sys.ell, m, -n))[n:n + m]
        bounds = _z22_bounds(an, 0.5 * (z22 + z22.T))
        entries.append({"id": "nullity_bounds",
                        "status": "ok" if bounds.satisfied else "failed",
                        "detail": bounds.to_dict()})
    except PreconditionError as exc:
        entries.append({"id": "nullity_bounds", "status": "skipped", "reason": str(exc)})
    return entries
