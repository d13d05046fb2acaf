"""Block data model for symmetric double saddle-point systems, the block
analysis a system holds, and the congruence transform.

A system holds the five blocks A (n x n), B (m x n), C (p x m), D (m x m)
and E (p x p).  Assembly produces the (n+m+p) square matrix

    K = [[A,  B^T, 0  ],
         [B, -D,   C^T],
         [0,  C,   E  ]]

D is stored as given; the assembler applies the minus sign, which keeps the
stored blocks aligned with how applications supply them and avoids
double-negation mistakes.

A system holds one analysis per tolerance: every fact of its blocks, each
decomposition included, that the decisions of :mod:`dsaddle.invertibility` and
:mod:`dsaddle.inverses` read, so those decisions decompose no block themselves.
Both check their hypotheses by name against the one table here, and raise the
package's error types, defined here too.
"""

import weakref
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .subspaces import _SVD, Definiteness, SubspaceBasis, _SymEig, ToleranceConfig, _above_cut, \
    _as_matrix, _norm, _resolve, _restricted_kernel, _symmetric, _symmetrized, \
    intersection_kernels, is_nonsingular, rank_threshold

__all__ = ["AssembledMatrix", "BlockSystem", "GenerationError", "PreconditionError",
           "alpha_upper_bound", "assemble", "block_reversal_permutation", "congruence_transform",
           "default_alpha", "permute_similar", "rescale_middle"]


class PreconditionError(ValueError):
    """A mathematical hypothesis of the requested operation does not hold.

    Raised when the inputs are well formed but fail a condition the result
    would silently depend on (definiteness, nullity, an admissible interval).
    Distinguished from ValueError so callers can tell malformed arguments
    apart from violated hypotheses.
    """


class GenerationError(RuntimeError):
    """The instance generator exhausted its retry budget without hitting
    every requested target."""


# dense entries one block may hold, 4096^2 (128 MiB of floats): desk-scale inputs
# stay far below it, and a file or spec past it is refused before any allocation
_MAX_ENTRIES = 1 << 24


def _within_bound(rows, cols, what):
    """A ValueError naming the bound when a rows x cols block would exceed it."""
    if rows * cols > _MAX_ENTRIES:
        raise ValueError(f"{what} of {rows}x{cols} exceeds the bound of "
                         f"{_MAX_ENTRIES} dense entries per block")


def _block(M, name):
    """Block ``name`` as a float matrix; a square A, D or E must be symmetric."""
    M = _as_matrix(M, name)
    if name in ("A", "D", "E") and M.shape[0] == M.shape[1] and not _symmetric(M):
        raise ValueError(f"block {name} is not symmetric within tolerance")
    return M


# the partition rule: each shape in (n, m, p), for the blocks of K, a weight W, V, K^{-1}
# and the inverse X of [[A, B^T], [B, -D]]
_PARTITION = {"A": "nn", "B": "mn", "C": "pm", "D": "mm", "E": "pp", "W": "mm", "V": "nn",
              "Z11": "nn", "Z12": "nm", "Z13": "np", "Z22": "mm", "Z23": "mp", "Z33": "pp",
              "X11": "nn", "X12": "nm", "X22": "mm"}


def _partition(blocks: dict, **sizes) -> dict:
    """The sizes given or read from the matrices, B first (it fixes m and n); a
    ValueError names the first matrix that does not fit _PARTITION."""
    for name in sorted(blocks, key=lambda k: k not in "BC"):
        shape, (r, c) = blocks[name].shape, _PARTITION[name]
        want = sizes.setdefault(r, shape[0]), sizes.setdefault(c, shape[1])
        if shape != want:
            need = "square" if r == c and shape[0] != shape[1] else "%d x %d" % want
            raise ValueError(f"{name} must be {need}, got {shape}")
    return sizes


def _slices(sizes) -> list:
    """The index range of each block of a partition into consecutive sizes."""
    ends = list(accumulate(sizes, initial=0))
    return [slice(a, b) for a, b in zip(ends, ends[1:])]


def _place(sizes, blocks: dict, mirror=False) -> np.ndarray:
    """The square matrix partitioned by sizes with blocks[(i, j)] in block (i, j) and
    zeros elsewhere; mirror also writes each off-diagonal block's transpose in (j, i)."""
    cut = _slices(sizes)
    out = np.zeros((cut[-1].stop,) * 2)
    for (i, j), M in blocks.items():
        out[cut[i], cut[j]] = M
        if mirror and i != j:
            out[cut[j], cut[i]] = M.T
    return out


def _dims(dims, count=3) -> tuple:
    """dims as count positive ints, as BlockSystem sizes its blocks; a ValueError
    names dims otherwise."""
    dims = tuple(dims)
    if len(dims) != count or not all(isinstance(d, (int, np.integer))
                                     and not isinstance(d, bool) and d > 0 for d in dims):
        raise ValueError(f"dims must be {count} positive integers, got {dims}")
    return tuple(map(int, dims))


class BlockSystem:
    """Validated, immutable container for the five blocks.

    D and E may be omitted (``None``), meaning zero blocks of the matching
    size.  Dimensions must satisfy n, m, p >= 1.  Blocks are private
    read-only copies.  The system holds one block analysis per
    :class:`ToleranceConfig`, which every entry point reads, so keep one
    system across calls to decompose its blocks once.
    """

    __slots__ = ("A", "B", "C", "D", "E", "_analyses", "__weakref__")

    def __init__(self, A, B, C, D=None, E=None):
        blocks = {k: _block(M, k) for k, M in zip("ABCDE", (A, B, C, D, E)) if M is not None}
        sizes = _partition(blocks)
        if min(sizes.values()) < 1:
            raise ValueError("dimensions must be positive, got n={n}, m={m}, p={p}".format(**sizes))
        blocks.setdefault("D", np.zeros((sizes["m"],) * 2))
        blocks.setdefault("E", np.zeros((sizes["p"],) * 2))
        for name, block in blocks.items():
            block = np.array(block, order="C")
            block.setflags(write=False)
            object.__setattr__(self, name, block)
        object.__setattr__(self, "_analyses", {})

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
        dims = _dims(self.dims)
        # a read-only view: the caller's own array stays writeable
        M = np.ascontiguousarray(np.asarray(self.matrix, dtype=float)).view()
        if M.shape != (sum(dims),) * 2:
            raise ValueError(f"matrix shape {M.shape} does not match dims {dims}")
        M.setflags(write=False)
        object.__setattr__(self, "matrix", M)
        object.__setattr__(self, "dims", dims)

    @property
    def ell(self) -> int:
        return self.matrix.shape[0]

    def block(self, i: int, j: int) -> np.ndarray:
        """Partition block (i, j) with i, j in {0, 1, 2}."""
        cut = _slices(self.dims)
        return self.matrix[cut[i], cut[j]]


def assemble(sys: BlockSystem) -> AssembledMatrix:
    """Dense K = [[A, B^T, 0], [B, -D, C^T], [0, C, E]]."""
    K = _place(sys.dims, {(0, 0): sys.A, (1, 0): sys.B, (1, 1): -sys.D, (2, 1): sys.C,
                          (2, 2): sys.E}, mirror=True)
    return AssembledMatrix(K, sys.dims)


def block_reversal_permutation(n: int, m: int, p: int) -> np.ndarray:
    """Orthogonal permutation Q with Q [x; y; z] = [z; y; x].

    Q maps the (n, m, p) partition to (p, m, n); conjugation K -> Q K Q^T
    swaps the roles of the outer blocks while fixing the middle one.  Q is
    symmetric exactly when n == p, but Q Q^T = I always holds, so the
    conjugated matrix is similar (and congruent) to the original.
    """
    return np.eye(n + m + p)[np.r_[n + m:n + m + p, n:n + m, :n]]


def permute_similar(sys: BlockSystem) -> BlockSystem:
    """System whose assembly is the block reversal of the original.

    Swaps (A, B, C, E) -> (E, C^T, B^T, A) and keeps D in the middle, so

        assemble(permute_similar(s)) = Q assemble(s) Q^T

    with Q from :func:`block_reversal_permutation`.  Applying the operation
    twice returns the original system.
    """
    return BlockSystem(sys.E, sys.C.T, sys.B.T, sys.D, sys.A)


def _alpha_bound(D: _SymEig) -> float:
    """2 / lambda_max(D), or inf when no eigenvalue of D is positive past D's
    rank cut: a rounding-level lambda_max does not constrain alpha."""
    lam, nonzero = D.eigenvalues, D.nonzero
    with np.errstate(over="ignore"):  # a subnormal lambda_max gives inf: unconstrained too
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


def _finite(alpha, *values):
    """The values, each checked finite (None passes): a value that overflows or is 0/0
    makes an identity, a transform or an inverse inapplicable, at the scale alpha when one
    is given.  min and max propagate NaN, so two reductions read each value in place, with
    no boolean temporary of its size."""
    if not all(v is None or -np.inf < np.min(v, initial=0.0) and np.max(v, initial=0.0) < np.inf
               for v in values):
        raise PreconditionError("the result overflows floating point" if alpha is None
                                else f"alpha={float(alpha)!r} overflows the scaled blocks")
    return values


def alpha_upper_bound(sys: BlockSystem, tol: ToleranceConfig | None = None) -> float:
    """Upper end of the admissible scaling interval (inf when unconstrained).

    The congruence transform needs 2 I - alpha D positive definite, which
    constrains alpha only when D has a positive eigenvalue that passes the
    rank cut.
    """
    return _alpha_bound(_analysis(sys, tol).D)


def default_alpha(sys: BlockSystem, tol: ToleranceConfig | None = None) -> float:
    """Midpoint of the admissible interval, or 1 when it is unbounded."""
    return _checked_alpha(_analysis(sys, tol).D)


def _m_spectrum(D: _SymEig, alpha: float) -> np.ndarray:
    """The eigenvalues 2 - alpha lambda_i of M = 2I - alpha D, along D's
    eigenvectors; M is singular when some |2 - alpha lambda_i| fails the
    rank cut."""
    mu = 2.0 - alpha * D.eigenvalues
    if not _above_cut(np.abs(mu), D.matrix.shape, D.tol).all():
        raise PreconditionError("2I - alpha D is numerically singular; "
                                "alpha is too close to the interval boundary")
    return mu


def _m_inverse(D: _SymEig, alpha: float) -> np.ndarray:
    """M^{-1} = (2I - alpha D)^{-1} = Q diag(1 / (2 - alpha lambda_i)) Q^T from
    D's eigenpairs."""
    return D.inverse_of(_m_spectrum(D, alpha))


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
    alpha = _checked_alpha(_analysis(sys, tol).D, alpha)
    with np.errstate(all="ignore"):  # _finite refuses an alpha that overflows
        K11, K21, K31, N = _finite(alpha, *_congruence(sys, alpha), alpha * sys.B)
    Kt = _place(sys.dims, {(0, 0): K11, (1, 0): K21, (2, 0): K31, (1, 1): -sys.D,
                           (2, 1): sys.C, (2, 2): sys.E}, mirror=True)
    W = _place(sys.dims, {(1, 0): N})
    np.fill_diagonal(W, 1.0)
    return AssembledMatrix(Kt, sys.dims), AssembledMatrix(W, sys.dims)


def _congruence(sys: BlockSystem, alpha: float, leading=True) -> tuple:
    """The blocks (1,1), (2,1) and (3,1) of W^T K W for an alpha the caller has checked:
    past them and their mirror, W^T K W equals K.  (1,1), None unless leading, is
    A + alpha B^T (2I - alpha D) B, formed as A + alpha B^T (B + (2,1))."""
    B = sys.B
    K21 = B - alpha * sys.D @ B
    return (sys.A + alpha * B.T @ (B + K21) if leading else None), K21, alpha * sys.C @ B


@np.errstate(all="ignore")  # an inf ||V||_F against a cut that underflows to 0 is refused
def _projector_from_basis(A: _SymEig, Z: SubspaceBasis):
    """V = Z (Z^T A Z)^{-1} Z^T, symmetrized, for the held eigh of A (0 for dim Z = 0), refused
    unless ||V||_F, which bounds 1 / lambda_min(Z^T A Z), is under 1 / A's rank cut."""
    try:
        V = _symmetrized(Z.basis @ np.linalg.solve(Z.basis.T @ A.matrix @ Z.basis, Z.basis.T))
    except np.linalg.LinAlgError:  # Z^T A Z exactly singular
        V = None
    if V is None or not _norm(V) * rank_threshold(A.norm, A.matrix.shape, A.tol) < 1:
        raise PreconditionError("reduced Hessian Z^T A Z is numerically singular; ker(A) and "
                                "ker(B) must intersect trivially with A semidefinite")
    return V


class _Analysis:
    """Facts about one system under one tolerance, each computed on first use.

    Blocks are read by attribute, so an object holding only the blocks a
    caller asks about (such as a namespace with A and B) can be analysed too.
    A :class:`BlockSystem` holds its analyses (see :func:`_analysis`); each refers
    back by a weak proxy, so it is freed with the system, not by the cyclic GC.
    """

    def __init__(self, sys, tol: ToleranceConfig):
        self.sys = sys
        self.tol = tol

    A = cached_property(lambda an: _SymEig(an.sys.A, an.tol))
    D = cached_property(lambda an: _SymEig(an.sys.D, an.tol))
    E = cached_property(lambda an: _SymEig(an.sys.E, an.tol))
    B = cached_property(lambda an: _SVD(an.sys.B, an.tol))
    Ct = cached_property(lambda an: _SVD(an.sys.C.T, an.tol))
    K = cached_property(lambda an: assemble(an.sys).matrix)
    # |eigenvalues| of K from one eigvalsh: the oracle and ||K^{-1}||_2
    k_moduli = cached_property(lambda an: np.abs(np.linalg.eigvalsh(an.K)))
    k_nonsingular = property(lambda an: bool(_above_cut(an.k_moduli, an.K.shape, an.tol).all()))

    @cached_property
    @np.errstate(all="ignore")  # a V whose bound is not finite takes the solve
    def projector(self):
        """V over Z = ker(B) for readers requiring A psd and N1: eigenbasis_rv's where null(A)
        = m, A's eigenvalues A0 under the cut, which it drops, move it by ||V||_F ||A0||_2 <
        residual_rtol / 2 relative and _projector_from_basis's cut passes it, else that solve."""
        A = self.A
        if _hold(self, ["null(A) = m"]):
            V, a0 = self.eigenbasis_rv[1], np.abs(A.eigenvalues[~A.nonzero]).max(initial=0.0)
            if _norm(V) * max(rank_threshold(A.norm, A.matrix.shape, A.tol),
                              2 * a0 / self.tol.residual_rtol) < 1:
                return V
        return _projector_from_basis(A, self.B.kernel)

    @cached_property
    @np.errstate(all="ignore")  # an R or V that overflows is refused or passed over
    def eigenbasis_rv(self):
        """R and V of the structured inverses from A's held eigh, for a reader that
        requires A psd, null(A) = m and N1 (null-space elimination).  With Q0, Q+ and
        L+ the kernel eigenvectors, the others and their eigenvalues, G = B Q0 is
        nonsingular: R = G^{-T} Q0^T has A R^T = 0 and B R^T = I, and
        V = Z L+^{-1} Z^T over the basis Z = Q+ - R^T B Q+ of ker(B), as Z^T A Z = L+.
        L+ > 0 under A psd, so V is the one product Y Y^T with Y = Z L+^{-1/2},
        symmetric as formed.  A restricted N1 has SVD'd G already (its Q is A's
        kernel when N1 holds)."""
        A, B = self.A, self.sys.B
        Q0, Qp = A.eigenvectors[:, ~A.nonzero], A.eigenvectors[:, A.nonzero]
        u, s, vh = self._n1[1] or np.linalg.svd(B @ Q0)
        R = (u / s) @ (vh @ Q0.T)
        Y = (Qp - R.T @ (B @ Qp)) / np.sqrt(A.eigenvalues[A.nonzero])
        return R, Y @ Y.T

    @cached_property
    @np.errstate(all="ignore")  # an S1 or S2 that overflows certifies nothing
    def schur_nonsingular(self) -> bool:
        """S1 = D + B A^{-1} B^T and then S2 = E + C S1^{-1} C^T nonsingular, with
        A^{-1} read from A's held eigh and S1 tested and inverted through one eigh."""
        s, lam, Q = self.sys, self.A.eigenvalues, self.A.eigenvectors
        BQ = s.B @ Q
        S1 = s.D + (BQ / lam) @ BQ.T
        if not np.isfinite(S1).all() or not (s1 := _SymEig(S1, self.tol)).nonsingular:
            return False
        S2 = s.E + s.C @ s1.inverse @ s.C.T
        return bool(np.isfinite(S2).all()) and is_nonsingular(S2, self.tol)

    # N1..N3, the overlap and R restrict the later blocks to the near-kernel of the
    # first, read from its held decomposition; near the rank cut the stacked SVD decides.
    # Each is a basis and the restricted matrix's SVD (None where the stacked SVD decides)
    def _intersection(self, pairs, norms, stacked, others):
        shape = (sum(M.shape[0] for M in stacked), stacked[0].shape[1])
        return (_restricted_kernel(*pairs, others, shape, max(norms), self.tol)
                or (intersection_kernels(stacked, self.tol), None))

    # N1 keeps the SVD of B Q0 for eigenbasis_rv
    _n1 = cached_property(lambda an: an._intersection(
        an.A.pairs, (an.A.norm, an.B.norm), [an.sys.A, an.sys.B], [an.sys.B]))
    n1 = property(lambda an: an._n1[0])
    n2 = cached_property(lambda an: an._intersection(
        an.B.cokernel_pairs, (an.B.norm, an.D.norm, an.Ct.norm),
        [an.sys.B.T, an.sys.D, an.sys.C], [an.sys.D, an.sys.C])[0])
    n3 = cached_property(lambda an: an._intersection(
        an.E.pairs, (an.Ct.norm, an.E.norm), [an.sys.C.T, an.sys.E], [an.sys.C.T])[0])

    @cached_property
    def overlap(self):
        """ker(A (+) E) ∩ ker[B | C^T] in R^(n+p): each (x, z) in it has A x = 0,
        E z = 0 and B x + C^T z = 0, so [x; 0; z] is a kernel vector of K."""
        s, a, e = self.sys, self.A.pairs, self.E.pairs
        couple = np.hstack([s.B, s.C.T])
        diag = lambda X, Y: _place((s.n, s.p), {(0, 0): X, (1, 1): Y})
        return self._intersection((np.concatenate([a[0], e[0]]), diag(a[1], e[1])),
                                  (self.A.norm, self.E.norm, self.B.norm, self.Ct.norm),
                                  [diag(s.A, s.E), couple], [couple])[0]

    @cached_property
    def r(self):
        """ran(B) ∩ ran(C^T) = ker(U⊥_S^T) ∩ ker(U⊥_L^T), U⊥ a block's left singular
        vectors past its rank, restricted to ran(S), S the block of smaller rank
        (C^T on a tie); U⊥_L^T on ran(S) has the sines of the principal angles
        between the ranges as singular values.  L of rank m gives ran(S), no SVD."""
        S, L = (self.B, self.Ct) if self.B.rank < self.Ct.rank else (self.Ct, self.B)
        m, perp = S.u.shape[0], L.u[:, L.rank:].T
        if L.rank == m:
            return S.range
        return self._intersection((1.0 * (np.arange(m) >= S.rank), S.u), (1.0,),
                                  [S.u[:, S.rank:].T, perp], [perp])[0]

    # A sum of two subspaces is direct exactly when they meet only in {0}, and
    # then it fills R^n exactly when the dimensions add up to n:
    # null(A) + null(B) = n is null(A) = rank(B), likewise for E and C^T.
    @property
    def ds1(self) -> bool:
        return self.n1.is_trivial and self.A.nullity == self.B.rank

    @property
    def ds2(self) -> bool:
        return self.n3.is_trivial and self.E.nullity == self.Ct.rank


def _analysis(sys, tol) -> _Analysis:
    """The analysis a BlockSystem holds for tol (made on first use), else a fresh one."""
    tol = _resolve(tol)
    if not isinstance(sys, BlockSystem):
        return _Analysis(sys, tol)
    an = sys._analyses.get(tol)
    if an is None:
        an = sys._analyses[tol] = _Analysis(weakref.proxy(sys), tol)
    return an


def _block_hypotheses(k):
    """The definiteness, nonsingularity and zero tests of the diagonal block k."""
    return {
        f"{k} psd": lambda an: (getattr(an, k).definiteness.is_psd,
                                f"{k} must be positive semidefinite"),
        f"{k} pd": lambda an: (getattr(an, k).definiteness is Definiteness.POSITIVE_DEFINITE,
                               f"{k} must be positive definite"),
        f"{k} nonsingular": lambda an: (getattr(an, k).nonsingular, f"{k} must be nonsingular"),
        f"{k} = 0": lambda an: (not getattr(an.sys, k).any(), f"{k} must be the zero block"),
    }


# the named hypotheses, each checked in one place for the ladder rows of dsaddle.invertibility
# and the constructors of dsaddle.inverses: name -> predicate on an analysis, giving whether
# it holds and the reason a constructor gives when it fails; m is read from B, so analyses of
# loose blocks work too
_HYPOTHESES = {
    **_block_hypotheses("A"), **_block_hypotheses("D"), **_block_hypotheses("E"),
    "N1": lambda an: (an.n1.is_trivial, "ker(A) and ker(B) must intersect only in {0}"),
    "N2": lambda an: (an.n2.is_trivial, "ker(B^T), ker(D) and ker(C) must intersect only in {0}"),
    "N3": lambda an: (an.n3.is_trivial, "ker(C^T) and ker(E) must intersect only in {0}"),
    **{f"{c} fails": lambda an, c=c: (not getattr(an, c.lower()).is_trivial, f"{c} must fail")
       for c in ("N1", "N2", "N3")},
    "R": lambda an: (an.r.is_trivial, "ran(B) and ran(C^T) must intersect only in {0}"),
    "DS1": lambda an: (an.ds1, "ker(A) and ker(B) must form a direct sum of the whole space"),
    "DS2": lambda an: (an.ds2, "ker(E) and ker(C^T) must form a direct sum of the whole space"),
    "overlap = {0}": lambda an: (an.overlap.is_trivial,
                                 "ker(A (+) E) and ker[B | C^T] must intersect only in {0}"),
    "null(A) = m": lambda an: (
        an.A.nullity == an.sys.B.shape[0],
        f"null(A) = {an.A.nullity} must equal the row count m = {an.sys.B.shape[0]} of B"),
    "rank(B) = m": lambda an: (an.B.rank == an.sys.B.shape[0], "B must have full row rank"),
    "rank(C) = m": lambda an: (an.Ct.rank == an.sys.B.shape[0], "C^T must have full row rank"),
    **{f"{a} >= {b}": lambda an, a=a, b=b: (getattr(an.sys, a) >= getattr(an.sys, b),
                                            f"{a} must be at least {b}")
       for a, b in ("mn", "mp")},
    "lambda_max(D) < 2": lambda an: (_alpha_bound(an.D) > 1.0,
                                     "lambda_max(D) must be below 2, so that alpha = 1 is "
                                     "admissible"),
    "S1, S2 nonsingular": lambda an: (an.schur_nonsingular, "the Schur complements "
                                      "D + B A^{-1} B^T and E + C S1^{-1} C^T must be nonsingular"),
    "K invertible": lambda an: (an.k_nonsingular,
                                "nullity bounds apply to invertible systems only"),
}


def _hold(an, names) -> bool:
    """Whether every named hypothesis holds; a side that is None never holds."""
    return names is not None and all(_HYPOTHESES[name](an)[0] for name in names)


def _require(an, *names):
    """Raise PreconditionError naming the first hypothesis that fails."""
    for name in names:
        holds, reason = _HYPOTHESES[name](an)
        if not holds:
            raise PreconditionError(reason)


def rescale_middle(sys: BlockSystem, beta: float) -> BlockSystem:
    """Diagonal congruence diag(I, beta I, I) K diag(I, beta I, I).

    Returns the system with blocks (A, beta B, beta C, beta^2 D, E).
    Invertibility is preserved for every beta > 0; a kernel vector u of the
    original maps to diag(I, 1/beta I, I) u.  Useful for shrinking
    lambda_max(D) below a required bound without changing the verdict.
    """
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    return BlockSystem(sys.A, beta * sys.B, beta * sys.C, beta * beta * sys.D, sys.E)
