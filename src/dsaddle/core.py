"""Block data model for symmetric double saddle-point systems.

A system holds the five blocks A (n x n), B (m x n), C (p x m), D (m x m)
and E (p x p).  Assembly produces the (n+m+p) square matrix

    K = [[A,  B^T, 0  ],
         [B, -D,   C^T],
         [0,  C,   E  ]]

D is stored as given; the assembler applies the minus sign, which keeps the
stored blocks aligned with how applications supply them and avoids
double-negation mistakes.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .subspaces import _SymEig, _above_cut, _as_matrix
from .tolerances import ToleranceConfig, resolve


def _check_symmetric(M, name, tol: ToleranceConfig):
    if not _SymEig(M, tol).symmetric:
        raise ValueError(f"block {name} is not symmetric within tolerance")


class BlockSystem:
    """Validated, immutable container for the five blocks.

    D and E may be omitted (``None``), meaning zero blocks of the matching
    size.  Dimensions must satisfy n, m, p >= 1.
    """

    __slots__ = ("A", "B", "C", "D", "E")

    def __init__(self, A, B, C, D=None, E=None, tol: ToleranceConfig | None = None):
        tol = resolve(tol)
        A = _as_matrix(A, "A")
        B = _as_matrix(B, "B")
        C = _as_matrix(C, "C")
        n = A.shape[0]
        m = B.shape[0]
        p = C.shape[0]
        if min(n, m, p) < 1:
            raise ValueError(f"dimensions must be positive, got n={n}, m={m}, p={p}")
        if A.shape != (n, n):
            raise ValueError(f"A must be square, got {A.shape}")
        if B.shape != (m, n):
            raise ValueError(f"B must be {m} x {n} to match A, got {B.shape}")
        if C.shape != (p, m):
            raise ValueError(f"C must be {p} x {m} to match B, got {C.shape}")
        D = np.zeros((m, m)) if D is None else _as_matrix(D, "D")
        E = np.zeros((p, p)) if E is None else _as_matrix(E, "E")
        if D.shape != (m, m):
            raise ValueError(f"D must be {m} x {m}, got {D.shape}")
        if E.shape != (p, p):
            raise ValueError(f"E must be {p} x {p}, got {E.shape}")
        _check_symmetric(A, "A", tol)
        _check_symmetric(D, "D", tol)
        _check_symmetric(E, "E", tol)
        for name, block in (("A", A), ("B", B), ("C", C), ("D", D), ("E", E)):
            block = np.ascontiguousarray(block)
            block.setflags(write=False)
            object.__setattr__(self, name, block)

    def __setattr__(self, name, value):
        raise AttributeError("BlockSystem is immutable")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[0]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def ell(self) -> int:
        return self.n + self.m + self.p

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.n, self.m, self.p)

    def __repr__(self):
        return f"BlockSystem(n={self.n}, m={self.m}, p={self.p})"


@dataclass(frozen=True)
class AssembledMatrix:
    """Dense square matrix together with its (n, m, p) partition."""

    matrix: np.ndarray
    dims: tuple[int, int, int]

    def __post_init__(self):
        M = np.ascontiguousarray(np.asarray(self.matrix, dtype=float))
        n, m, p = self.dims
        if M.shape != (n + m + p, n + m + p):
            raise ValueError(f"matrix shape {M.shape} does not match dims {self.dims}")
        M.setflags(write=False)
        object.__setattr__(self, "matrix", M)
        object.__setattr__(self, "dims", (int(n), int(m), int(p)))

    @property
    def ell(self) -> int:
        return self.matrix.shape[0]

    def _offsets(self):
        n, m, p = self.dims
        return (0, n, n + m, n + m + p)

    def block(self, i: int, j: int) -> np.ndarray:
        """Partition block (i, j) with i, j in {0, 1, 2}."""
        off = self._offsets()
        return self.matrix[off[i]:off[i + 1], off[j]:off[j + 1]]


def assemble(sys: BlockSystem) -> AssembledMatrix:
    """Dense K = [[A, B^T, 0], [B, -D, C^T], [0, C, E]]."""
    n, m, p = sys.dims
    K = np.zeros((sys.ell, sys.ell))
    K[:n, :n] = sys.A
    K[:n, n:n + m] = sys.B.T
    K[n:n + m, :n] = sys.B
    K[n:n + m, n:n + m] = -sys.D
    K[n:n + m, n + m:] = sys.C.T
    K[n + m:, n:n + m] = sys.C
    K[n + m:, n + m:] = sys.E
    return AssembledMatrix(K, sys.dims)


def block_reversal_permutation(n: int, m: int, p: int) -> np.ndarray:
    """Orthogonal permutation Q with Q [x; y; z] = [z; y; x].

    Q maps the (n, m, p) partition to (p, m, n); conjugation K -> Q K Q^T
    swaps the roles of the outer blocks while fixing the middle one.  Q is
    symmetric exactly when n == p, but Q Q^T = I always holds, so the
    conjugated matrix is similar (and congruent) to the original.
    """
    ell = n + m + p
    Q = np.zeros((ell, ell))
    Q[:p, n + m:] = np.eye(p)
    Q[p:p + m, n:n + m] = np.eye(m)
    Q[p + m:, :n] = np.eye(n)
    return Q


def permute_similar(sys: BlockSystem, tol: ToleranceConfig | None = None) -> BlockSystem:
    """System whose assembly is the block reversal of the original.

    Swaps (A, B, C, E) -> (E, C^T, B^T, A) and keeps D in the middle, so

        assemble(permute_similar(s)) = Q assemble(s) Q^T

    with Q from :func:`block_reversal_permutation`.  Applying the operation
    twice returns the original system.
    """
    return BlockSystem(sys.E, sys.C.T, sys.B.T, sys.D, sys.A, tol=tol)


def lambda_max_sym(M) -> float:
    """Largest eigenvalue of a symmetric matrix (0 for an empty one)."""
    return _SymEig(M).lambda_max


def _alpha_bound(D: _SymEig) -> float:
    """2 / lambda_max(D), or inf when no eigenvalue of D is positive past D's
    rank cut: a rounding-level lambda_max does not constrain alpha."""
    lam, _, nonzero = D._eigh
    return 2.0 / lam[-1] if lam[-1] > 0.0 and nonzero[-1] else np.inf


def _checked_alpha(D: _SymEig, alpha: float | None = None) -> float:
    """alpha checked against the admissible interval, or its midpoint
    (1 when the interval is unbounded) for ``None``."""
    bound = _alpha_bound(D)
    if alpha is None:
        return 1.0 if np.isinf(bound) else bound / 2.0
    if not 0.0 < alpha < bound:
        raise PreconditionError(
            f"alpha={float(alpha)!r} is outside the admissible interval "
            f"(0, {float(bound)!r}) = (0, 2/lambda_max(D))"
        )
    return alpha


def alpha_upper_bound(sys: BlockSystem) -> float:
    """Upper end of the admissible scaling interval (inf when unconstrained).

    The congruence transform needs 2 I - alpha D positive definite, which
    constrains alpha only when D has a positive eigenvalue that passes the
    rank cut.
    """
    return _alpha_bound(_SymEig(sys.D))


def default_alpha(sys: BlockSystem) -> float:
    """Midpoint of the admissible interval, or 1 when it is unbounded."""
    return _checked_alpha(_SymEig(sys.D))


def _m_inverse(D: _SymEig, alpha: float) -> np.ndarray:
    """M^{-1} = (2I - alpha D)^{-1} = Q diag(1 / (2 - alpha lambda_i)) Q^T from
    D's eigenpairs; M is singular when some |2 - alpha lambda_i| fails the
    rank cut."""
    lam, Q, _ = D._eigh
    mu = 2.0 - alpha * lam
    if not _above_cut(np.abs(mu), D.matrix.shape, D.tol).all():
        raise PreconditionError("2I - alpha D is numerically singular; "
                                "alpha is too close to the interval boundary")
    inv = (Q / mu) @ Q.T
    return 0.5 * (inv + inv.T)


def congruence_transform(sys: BlockSystem, alpha: float,
                         tol: ToleranceConfig | None = None):
    """Congruence W^T K W that makes the leading block positive definite.

    W = [[I, 0, 0], [alpha B, I, 0], [0, 0, I]] and the transformed matrix
    has blocks

        (1,1) = A + alpha B^T (2I - alpha D) B
        (2,1) = B - alpha D B       (3,1) = alpha C B
        (2,2) = -D                  (3,2) = C          (3,3) = E.

    Returns ``(K_tilde, W)`` as :class:`AssembledMatrix` values over the same
    partition.  alpha must lie strictly inside (0, 2/lambda_max(D)); for
    D = 0 any positive alpha is admissible.
    """
    return _congruence(sys, _checked_alpha(_SymEig(sys.D, tol), alpha))


def _congruence(sys: BlockSystem, alpha: float):
    """:func:`congruence_transform` for an alpha the caller has checked."""
    n, m, _ = sys.dims
    B, D = sys.B, sys.D
    Kt = assemble(sys).matrix.copy()
    Kt[:n, :n] += alpha * B.T @ (2.0 * np.eye(m) - alpha * D) @ B
    Kt[n:n + m, :n] -= alpha * D @ B
    Kt[n + m:, :n] = alpha * sys.C @ B
    Kt[:n, n:] = Kt[n:, :n].T
    W = np.eye(sys.ell)
    W[n:n + m, :n] = alpha * B
    return AssembledMatrix(Kt, sys.dims), AssembledMatrix(W, sys.dims)


def rescale_middle(sys: BlockSystem, beta: float,
                   tol: ToleranceConfig | None = None) -> BlockSystem:
    """Diagonal congruence diag(I, beta I, I) K diag(I, beta I, I).

    Returns the system with blocks (A, beta B, beta C, beta^2 D, E).
    Invertibility is preserved for every beta > 0; a kernel vector u of the
    original maps to diag(I, 1/beta I, I) u.  Useful for shrinking
    lambda_max(D) below a required bound without changing the verdict.
    """
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    return BlockSystem(sys.A, beta * sys.B, beta * sys.C,
                       beta * beta * sys.D, sys.E, tol=tol)
