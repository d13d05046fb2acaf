"""Constructive machinery for systems with a maximally rank-deficient
leading block: the reduced-Hessian projector, the identities it satisfies,
a block factorization of the congruence-transformed matrix, and explicit
closed-form inverses, together with nullity bounds on the middle block of
the inverse.

All identity helpers return relative residuals and raise
:class:`~dsaddle.core.PreconditionError` when their hypotheses fail, so a
violated hypothesis can never masquerade as a small number.
"""

from dataclasses import asdict, dataclass, fields
from types import SimpleNamespace

import numpy as np

from .core import AssembledMatrix, BlockSystem, PreconditionError, _analysis, _block, \
    _checked_alpha, _congruence, _dims, _finite, _m_inverse, _m_spectrum, _partition, _place, \
    _projector_from_basis, _require, assemble
from .subspaces import SubspaceBasis, ToleranceConfig, _SymEig, _above_cut, _as_matrix, _norm, \
    _singular_values, _spectral_norm, _symmetrized, is_direct_sum, is_nonsingular, rank_threshold

__all__ = ["InverseBlocks", "NullityBoundReport", "ReducedHessianProjector",
           "TransformedFactorization", "TwoBlockInverse", "dense_inverse_blocks",
           "factorize_transformed", "inner_inverse_residual", "inverse_via_factorization",
           "projector_complement_residual", "reduced_hessian_projector",
           "reduced_projector_residual", "three_block_inverse", "transformed_schur_complement",
           "two_block_inverse", "verify_identities", "weight_recovery_residual",
           "z22_nullity_bounds"]


def _blocks(tol, **blocks):
    """Analysis of loose blocks passed by name, each checked as a BlockSystem checks
    it, the partition rule included; the named hypotheses of dsaddle.core
    read m from B, so they apply to it."""
    blocks = {k: _block(v, k) for k, v in blocks.items()}
    _partition(blocks)
    return _analysis(SimpleNamespace(**blocks), tol)


def _fro_ratio(num, den) -> float:
    """||num||_F / ||den||_F, each a sequence of arrays read as one vector: the _norm of their
    _norms.  den is a list; num may be a generator, whose arrays are then formed, measured
    and dropped in turn."""
    num, den = (_norm(np.fromiter(map(_norm, Ms), float)) for Ms in (num, den))
    return float(num / den) if num else 0.0


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
        _partition({"V": V}, n=self.Z.ambient_dim)
        V.setflags(write=False)
        object.__setattr__(self, "V", V)


def _projector(an, *hypotheses) -> ReducedHessianProjector:
    """The projector over Z = ker(B) that the analysis holds, once A is
    semidefinite and the named hypotheses hold."""
    _require(an, "A psd", *hypotheses)
    return ReducedHessianProjector(an.projector, an.B.kernel)


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
    return _fro_ratio([A - A @ proj.V @ A], [A])


def inner_inverse_residual(A, proj: ReducedHessianProjector,
                           tol: ToleranceConfig | None = None) -> float:
    """Relative residual of the inner-inverse identity A = A V A.

    Holds when A is positive semidefinite and ker(A) (+) ker(B) spans the
    whole space (the maximally rank-deficient setting); both hypotheses are
    enforced.
    """
    an = _blocks(tol, V=proj.V, A=A)
    return _inner_inverse(an, proj, is_direct_sum(an.A.kernel, proj.Z, an.tol))


@np.errstate(all="ignore")
def _weight_recovery(an, W=None, alpha=None, X=None) -> float:
    """Residual of the identity for W, or, given alpha, for W = M^{-1} / alpha with
    M = 2I - alpha D, where A + B^T W^{-1} B is the congruence's (1,1) block X.  A value
    that overflows makes the identity inapplicable, not a NaN or a warning."""
    if alpha is not None:
        W = _m_inverse(an.D, alpha) / alpha
    _finite(alpha, W, X)
    _require(an, "null(A) = m", "N1")
    A, B = an.sys.A, an.sys.B
    if X is None:
        if not is_nonsingular(W, an.tol):
            raise PreconditionError("W must be invertible")
        X = _finite(alpha, A + B.T @ np.linalg.solve(W, B))[0]
    if not is_nonsingular(X, an.tol):
        raise PreconditionError(
            "A + B^T W^{-1} B is numerically singular; hypotheses do not hold"
        )
    recovered = B @ np.linalg.solve(X, B.T)
    return float(_finite(alpha, _fro_ratio([recovered - W], [W]))[0])


def weight_recovery_residual(A, B, W, tol: ToleranceConfig | None = None) -> float:
    """Residual of the weight-recovery identity B (A + B^T W^{-1} B)^{-1} B^T = W.

    For A positive semidefinite with null(A) equal to the row count of B,
    ker(A) ∩ ker(B) = {0}, and any invertible W, the completed matrix
    A + B^T W^{-1} B is invertible and compressing its inverse by B recovers
    W exactly.
    """
    an = _blocks(tol, A=A, B=B, W=W)
    return _weight_recovery(an, an.sys.W)


def _projector_complement(an, Z: SubspaceBasis) -> float:
    B = an.sys.B
    m, n = B.shape
    if Z.ambient_dim != n:
        raise ValueError(f"Z must be a basis of a subspace of R^{n}, got one of R^{Z.ambient_dim}")
    _require(an, "rank(B) = m")
    if Z.dim != n - m:
        raise PreconditionError("Z does not have the dimensions of ker(B)")
    # ||B Z||_2 <= ||B Z||_F, so the SVD runs only when the Frobenius norm fails
    BZ = B @ Z.basis
    if all(_norm(BZ, order) > an.tol.residual_rtol * an.B.norm for order in (None, 2)):
        raise PreconditionError("Z is not a kernel basis of B")
    # B^T (B B^T)^{-1} B = Q Q^T from a fresh QR of B^T, which squares neither the
    # condition nor the scale of B as B B^T would; B's held SVD would only check that SVD.
    # Q Q^T and I - Z Z^T are orthogonal projectors of equal rank m, so the norm of their
    # difference is the sine of their largest principal angle, ||Z^T Q||_2
    Q = np.linalg.qr(B.T)[0]
    return _spectral_norm(Z.basis.T @ Q)


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
    return _spectral_norm(Zt @ A @ proj.V - Zt)


def reduced_projector_residual(A, proj: ReducedHessianProjector,
                               tol: ToleranceConfig | None = None) -> float:
    """Residual of Z Z^T A V = Z Z^T, the fixed-point property of V on ker(B)."""
    an = _blocks(tol, V=proj.V, A=A)
    # no analysis has decided N1 for this A: _projector_from_basis tests Z^T A Z
    scale = max(_spectral_norm(proj.V), 1.0)
    if _spectral_norm(_projector_from_basis(an.A, proj.Z) - proj.V) > an.tol.residual_rtol * scale:
        raise PreconditionError("projector was not built from this A")
    return _fixed_point_residual(an.sys.A, proj)


# ---------------------------------------------------------------------------
# transformed Schur complement and block factorization
# ---------------------------------------------------------------------------

def transformed_schur_complement(sys: BlockSystem, alpha: float | None,
                                 tol: ToleranceConfig | None = None) -> np.ndarray:
    """Schur complement of the congruence-transformed matrix.

    With M = 2I - alpha D, returns the (m+p) square matrix

        [[-(1/alpha) M^{-1},  M^{-1} C^T        ],
         [ C M^{-1},          E - alpha C M^{-1} C^T]].

    Under the hypotheses A, D positive semidefinite, the three necessary
    kernel conditions, and null(A) = m, this matrix is invertible exactly
    when the full system is; the equivalence holds for every admissible
    alpha in (0, 2/lambda_max(D)).  ``None`` takes :func:`dsaddle.core.default_alpha`.
    """
    D = _analysis(sys, tol).D
    alpha = _checked_alpha(D, alpha)
    with np.errstate(all="ignore"):  # _finite refuses an alpha that overflows
        Minv = _m_inverse(D, alpha)
        CM = sys.C @ Minv
        S11, S22 = _finite(alpha, -(1.0 / alpha) * Minv,
                           _symmetrized(sys.E - alpha * CM @ sys.C.T))
    return _place((sys.m, sys.p), {(0, 0): S11, (1, 0): CM, (1, 1): S22}, mirror=True)


@dataclass(frozen=True)
class TransformedFactorization:
    """Block L * mid * L^T factorization of the transformed matrix at alpha = 1.

    ``a_tilde`` is A + B^T (2I - D) B, ``b_one`` is B - D B, ``L`` is unit
    lower block triangular and ``mid`` is blockdiag(a_tilde, -(2I-D)^{-1}, E).
    The middle factor carries the rank: rank(mid) equals the rank of the
    transformed matrix and of the original system.  L's blocks b_one a_tilde^{-1}
    and C B a_tilde^{-1} read a_tilde^{-1} = V + S^T S, with
    S = (2I - Lambda_D)^{-1/2} Q_D^T R, from the eigendecompositions of A and D;
    a_tilde itself is never decomposed.
    """

    a_tilde: np.ndarray
    b_one: np.ndarray
    L: np.ndarray
    mid: np.ndarray
    dims: tuple[int, int, int]

    def reconstruct(self) -> np.ndarray:
        return self.L @ self.mid @ self.L.T


@np.errstate(all="ignore")  # _finite refuses a factor that overflows
def factorize_transformed(sys: BlockSystem, tol: ToleranceConfig | None = None) -> TransformedFactorization:
    """Factor the alpha = 1 congruence transform of the system.

    Hypotheses (enforced): A positive semidefinite, null(A) = m,
    ker(A) ∩ ker(B) = {0}, and lambda_max(D) < 2.  E may be singular; its
    rank deficiency then shows up in the middle factor.
    """
    an = _analysis(sys, tol)
    a_tilde, b_one, _, L21, L31 = _factor_blocks(an, leading=True)
    L = _place(sys.dims, {(1, 0): L21, (2, 0): L31, (2, 1): -sys.C})
    np.fill_diagonal(L, 1.0)
    mid = _place(sys.dims, {(0, 0): _symmetrized(a_tilde), (1, 1): -_m_inverse(an.D, 1.0),
                            (2, 2): sys.E})
    return TransformedFactorization(*_finite(None, a_tilde, b_one, L, mid), sys.dims)


def _factor_blocks(an, *hypotheses, leading=False):
    """a_tilde (None unless leading) and b_one = B - D B of the congruence at alpha = 1,
    then a_tilde^{-1}, L21 = b_one a_tilde^{-1} and L31 = C B a_tilde^{-1} of the unit
    triangular factor (L32 is -C), formed once its hypotheses, 2I - D past the rank cut
    and then the named ones hold.  A R^T = 0, B R^T = I and B V = 0 make
    a_tilde^{-1} = V + R^T (2I - D)^{-1} R, with R and V from A's held eigenbasis.  With
    Q_D and Lambda_D from D's held eigh, 2 - lambda > 0 under lambda_max(D) < 2, so the
    second term is the one product S^T S for S = (2I - Lambda_D)^{-1/2} Q_D^T R and
    a_tilde^{-1} is symmetric as formed; the inverse of 2I - D is not formed."""
    _require(an, "A psd", "null(A) = m", "lambda_max(D) < 2", "N1")
    mu = _m_spectrum(an.D, 1.0)
    _require(an, *hypotheses)
    a_tilde, b_one, cb = _congruence(an.sys, 1.0, leading)
    R, V = an.eigenbasis_rv
    S = (an.D.eigenvectors.T @ R) / np.sqrt(mu)[:, None]
    a_inv = S.T @ S
    a_inv += V
    return a_tilde, b_one, a_inv, b_one @ a_inv, cb @ a_inv


# ---------------------------------------------------------------------------
# explicit inverses
# ---------------------------------------------------------------------------

class _UpperBlocks:
    """The upper blocks of a symmetric block partition, one dataclass field each
    beside dims, named by letter, block row and block column (z12 is block
    (1, 2)).  Only they are stored; the assembled matrix mirrors them, so the
    result is symmetric by construction."""

    def _upper(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "dims"}

    def __post_init__(self):
        upper = self._upper()
        diagonal = sum(name[1] == name[2] for name in upper)  # one size per diagonal block
        object.__setattr__(self, "dims", _dims(self.dims, diagonal))
        for name, M in upper.items():
            object.__setattr__(self, name, _as_matrix(M, name.upper()))
        _partition(self.blocks(), **dict(zip("nmp", self.dims)))

    @property
    def full(self) -> np.ndarray:
        return _place(self.dims, {(int(k[1]) - 1, int(k[2]) - 1): M
                                  for k, M in self._upper().items()}, mirror=True)

    def blocks(self) -> dict:
        return {name.upper(): M for name, M in self._upper().items()}

    @classmethod
    def _of(cls, dims, **upper):
        """The blocks a constructor formed, refused with PreconditionError unless each is
        finite: an input that meets every hypothesis may still overflow."""
        _finite(None, *upper.values())
        return cls(**upper, dims=dims)


@dataclass(frozen=True)
class InverseBlocks(_UpperBlocks):
    """Symmetric 3 x 3 block partition of an inverse."""

    z11: np.ndarray
    z12: np.ndarray
    z13: np.ndarray
    z22: np.ndarray
    z23: np.ndarray
    z33: np.ndarray
    dims: tuple[int, int, int]

    @classmethod
    def from_full(cls, M, dims) -> "InverseBlocks":
        part = AssembledMatrix(_as_matrix(M, "inverse"), dims)
        block = lambda i, j: part.block(i, j).copy()
        sym = lambda i: _symmetrized(block(i, i))
        return cls(sym(0), block(0, 1), block(0, 2), sym(1), block(1, 2), sym(2), part.dims)


@dataclass(frozen=True)
class TwoBlockInverse(_UpperBlocks):
    """Inverse of the 2 x 2 block matrix [[A, B^T], [B, -D]].

    The trailing block is exactly zero by construction.
    """

    x11: np.ndarray
    x12: np.ndarray
    x22: np.ndarray
    dims: tuple[int, int]


@np.errstate(all="ignore")  # _UpperBlocks._of refuses a block that overflows
def two_block_inverse(A, B, D, tol: ToleranceConfig | None = None) -> TwoBlockInverse:
    """Closed-form inverse of [[A, B^T], [B, -D]].

    Hypotheses: A positive semidefinite, null(A) = m, and
    ker(A) (+) ker(B) = R^n.  With V the reduced-Hessian projector and
    R = (B B^T)^{-1} B (I - A V), the inverse is

        [[R^T D R + V,  R^T],
         [R,            0  ]].

    R = G^{-T} Q0^T and V come from the eigendecomposition of A, with Q0 its
    kernel eigenvectors and G = B Q0; B B^T is never formed.
    """
    an = _blocks(tol, A=A, B=B, D=D)
    m, n = an.sys.B.shape
    x11, R = _two_block(an)
    return TwoBlockInverse._of((n, m), x11=x11, x12=R.T.copy(), x22=np.zeros((m, m)))


def _two_block(an, coupled=False):
    """R^T D R + V, the leading block of the two-block inverse, and R from the analysis'
    eigenbasis, once the hypotheses hold; coupled, E nonsingular first, D is D + C^T E^{-1} C."""
    _require(an, *("E nonsingular",) * coupled, "A psd", "null(A) = m", "DS1")
    D = an.sys.D + an.sys.C.T @ an.E.inverse @ an.sys.C if coupled else an.sys.D
    R, V = an.eigenbasis_rv
    return _symmetrized(R.T @ D @ R + V), R


@np.errstate(all="ignore")  # _UpperBlocks._of refuses a block that overflows
def three_block_inverse(sys: BlockSystem, tol: ToleranceConfig | None = None) -> InverseBlocks:
    """Closed-form inverse of the full system for nonsingular E.

    Hypotheses: A positive semidefinite, null(A) = m,
    ker(A) (+) ker(B) = R^n, and E nonsingular; D is unrestricted.  The
    middle diagonal block and its coupling to E are exactly zero:

        [[T,   R^T, S^T   ],
         [R,   0,   0     ],      T = R^T (D + C^T E^{-1} C) R + V
         [S,   0,   E^{-1}]],     R = (B B^T)^{-1} B (I - A V),  S = -E^{-1} C R

    Eliminating E leaves the two-block system with middle block
    D + C^T E^{-1} C, whose inverse supplies T and R, both read as in
    :func:`two_block_inverse`.
    """
    an = _analysis(sys, tol)
    T, R = _two_block(an, coupled=True)
    Einv = an.E.inverse
    return InverseBlocks._of(
        sys.dims,
        z11=T,
        z12=R.T.copy(),
        z13=(-Einv @ (sys.C @ R)).T.copy(),
        z22=np.zeros((sys.m, sys.m)),
        z23=np.zeros((sys.m, sys.p)),
        z33=Einv.copy(),  # the analysis keeps E^{-1} for later calls
    )


@np.errstate(all="ignore")  # _UpperBlocks._of refuses a block that overflows
def inverse_via_factorization(sys: BlockSystem, tol: ToleranceConfig | None = None) -> InverseBlocks:
    """Inverse assembled blockwise from the alpha = 1 factorization.

    With W the congruence, K^{-1} = W L^{-T} mid^{-1} L^{-1} W^T = G^T mid^{-1} G
    for G = L^{-1} W^T.  The block rows of G follow from L21, L31 and
    L32 = -C by block back-substitution, and mid^{-1} is
    blockdiag(a_tilde^{-1}, -(2I - D), E^{-1}), so

        K^{-1} = G1^T a_tilde^{-1} G1 - G2^T (2I - D) G2 + G3^T E^{-1} G3

    with G1 = [I, B^T, 0], G2 = [-L21, H2, 0] and G3 = [L3, H3, I], where
    L3 = L32 L21 - L31, H2 = I - L21 B^T and H3 = L3 B^T + C.  Each block the
    result keeps is formed from its own products, and no stacked G, no
    (n + m) square block and no ell x ell matrix is:

        Z11 = a_tilde^{-1} + L3^T E^{-1} L3 - L21^T (2I - D) L21
        Z12 = a_tilde^{-1} B^T + L3^T E^{-1} H3 + ((2I - D) L21)^T H2
        Z22 = B a_tilde^{-1} B^T + H3^T E^{-1} H3 - H2^T (2I - D) H2
        Z13 = (E^{-1} L3)^T,  Z23 = (E^{-1} H3)^T,  Z33 = E^{-1}.

    Requires the factorization hypotheses plus nonsingular E.
    """
    an = _analysis(sys, tol)
    a_inv, L21, L31 = _factor_blocks(an, "E nonsingular")[2:]
    B, C, Einv = sys.B, sys.C, an.E.inverse
    I = np.eye(sys.m)
    M = 2.0 * I - sys.D
    L3 = -C @ L21 - L31
    H2, H3 = I - L21 @ B.T, L3 @ B.T + C
    EL3, EH3, ML21, T = Einv @ L3, Einv @ H3, M @ L21, a_inv @ B.T
    z11 = a_inv  # a fresh array, summed into in place
    z11 += L3.T @ EL3
    z11 -= L21.T @ ML21
    return InverseBlocks._of(
        sys.dims,
        z11=_symmetrized(z11),
        z12=T + L3.T @ EH3 + ML21.T @ H2,
        z13=EL3.T.copy(),
        z22=_symmetrized(B @ T + H3.T @ EH3 - H2.T @ (M @ H2)),
        z23=EH3.T.copy(),
        z33=Einv.copy(),
    )


@np.errstate(all="ignore")  # _finite refuses a Q L^{-1} Q^T that overflows
def dense_inverse_blocks(sys: BlockSystem) -> InverseBlocks:
    """Reference inverse Q L^{-1} Q^T from one eigh of the assembled matrix.  It is
    symmetric as formed, so its upper blocks stand for it: an LU inverse is not, and on
    an ill-conditioned K its upper blocks, mirrored, miss K X = I far past rounding.  A
    zero eigenvalue, one whose reciprocal overflows, or an eigh of K that does not
    converge raises PreconditionError."""
    try:
        eig = _SymEig(assemble(sys).matrix)
    except np.linalg.LinAlgError as exc:
        raise PreconditionError(f"K has no eigendecomposition: {exc}") from exc
    return InverseBlocks.from_full(*_finite(None, eig.inverse), sys.dims)


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
    if inv.dims != sys.dims:
        raise ValueError(f"inverse dims {inv.dims} do not match the system's {sys.dims}")
    return _z22_bounds(_analysis(sys, tol), inv.z22)


def _z22_bounds(an, z22) -> NullityBoundReport:
    _require(an, "K invertible")
    tol = an.tol
    null_a = an.A.nullity
    null_e = an.E.nullity
    m = an.sys.m

    inverse_norm = float(1.0 / an.k_moduli.min())
    s = _singular_values(z22)
    z22_norm = float(s.max(initial=0.0))
    if z22_norm <= rank_threshold(inverse_norm, (m, m), tol):
        null_z22 = m
    else:
        null_z22 = m - int(_above_cut(s, z22.shape, tol).sum())

    lower = min(max(null_a, null_e), m)
    upper = null_a + null_e
    eq_base = lower <= null_z22 <= upper

    range_disjoint = an.r.is_trivial
    refined = min(null_a + null_e, m) if range_disjoint else None
    eq_refined = (refined <= null_z22) if range_disjoint else None

    remark = None
    if null_e == 0:
        remark = min(null_a, m) <= null_z22 <= null_a
    corner = (null_a == m and null_e == 0)
    corner_ok = (null_z22 == m) if corner else None

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
    holds, W^T K W and K~ are compared on the five blocks of the first n rows
    and columns, where alone they differ from K, each formed from A, B, C, D
    and E, measured and dropped in turn, Z22 comes from one LU solve of K
    against its m middle unit columns, and no SVD runs on a symmetric matrix.
    """
    an = _analysis(sys, tol)
    tol = an.tol
    alpha = _checked_alpha(an.D, alpha)
    n, m = sys.n, sys.m
    with np.errstate(all="ignore"):  # the blocks weight_recovery and congruence read
        K11, K21, K31 = _congruence(sys, alpha)
    entries = []

    def residual_entry(name, fn):
        try:
            res = fn()
        except PreconditionError as exc:
            entries.append({"id": name, "status": "skipped", "reason": str(exc)})
            return
        status = "ok" if res <= tol.residual_rtol else "failed"
        entries.append({"id": name, "status": status, "residual": float(res)})

    @np.errstate(all="ignore")  # _finite turns a value alpha overflows into a skip
    def congruence():
        # W = I + N with N = alpha B in block (2, 1): K W adds K[:, mid] N to the first n
        # columns of K and W^T (K W) adds N^T (K W)[mid] to its first n rows, nothing else,
        # so W^T K W - K~ is zero past the five blocks those rows and columns hold
        A, B, C, D, E = (getattr(sys, k) for k in "ABCDE")
        N = alpha * B

        def residual_blocks():  # (2,1), (3,1), (1,2), (1,3), then the n x n (1,1)
            yield B - D @ N - K21
            yield C @ N - K31
            yield B.T - N.T @ D - K21.T
            yield N.T @ C.T - K31.T
            r11 = B.T @ N
            r11 += A
            r11 += N.T @ (B - D @ N)
            r11 -= K11
            yield r11

        # over ||K~||_F: its five changed blocks and the trailing blocks of K
        norm_kt = [K11, K21, K21, K31, K31, D, C, C, E]
        return _finite(alpha, _fro_ratio(residual_blocks(), norm_kt))[0]

    residual_entry("weight_recovery", lambda: _weight_recovery(an, alpha=alpha, X=K11))
    # Z = ker(B) from the analysis, so the direct sum is the analysis' DS1
    residual_entry("inner_inverse", lambda: _inner_inverse(an, _projector(an, "N1"), an.ds1))
    residual_entry("projector_complement",
                   lambda: _projector_complement(an, an.B.kernel))
    residual_entry("reduced_projector",
                   lambda: _fixed_point_residual(sys.A, _projector(an, "N1")))
    residual_entry("congruence", congruence)
    del K11, K21, K31  # before the nullity bounds form K and solve it

    try:
        _require(an, "K invertible")
        z22 = np.linalg.solve(an.K, np.eye(sys.ell, m, -n))[n:n + m]
        bounds = _z22_bounds(an, _symmetrized(z22))
        entries.append({"id": "nullity_bounds",
                        "status": "ok" if bounds.satisfied else "failed",
                        "detail": bounds.to_dict()})
    except PreconditionError as exc:
        entries.append({"id": "nullity_bounds", "status": "skipped", "reason": str(exc)})
    return entries
