"""Seeded generators for block systems with prescribed rank structure.

Every draw goes through ``numpy.random.default_rng`` keyed by the spec seed
and the retry counter, so identical requests produce bitwise-identical
blocks.  Kernels and ranges are carved out of Haar-random orthogonal frames,
which keeps the requested subspace relations exact by construction; a
post-hoc certificate re-verifies every target with the subspaces module and
a missed target triggers a bounded retry with an advanced seed.

Nonzero singular values and eigenvalues are drawn from [0.5, 2] so assembled
systems stay well conditioned and residual tolerances remain meaningful.
"""

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .core import BlockSystem, GenerationError, _analysis, _within_bound
from .subspaces import Definiteness, ToleranceConfig, _symmetrized

__all__ = ["GeneratorSpec", "InstanceCertificate", "gen_instance", "gen_psd_with_nullity",
           "gen_rank", "haar_orthogonal"]

SPECTRUM_LOW = 0.5
SPECTRUM_HIGH = 2.0
DEFAULT_MAX_RETRIES = 32


def haar_orthogonal(d, rng) -> np.ndarray:
    """Haar-distributed orthogonal matrix via sign-fixed QR."""
    if d == 0:
        return np.zeros((0, 0))
    G = rng.standard_normal((d, d))
    Q, R = np.linalg.qr(G)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs


def _spectrum(rng, count, definiteness="psd"):
    """Nonzero eigenvalue draws; 'indefinite' flips alternate signs."""
    values = rng.uniform(SPECTRUM_LOW, SPECTRUM_HIGH, size=count)
    if definiteness == "indefinite" and count:
        values[::2] *= -1.0
    return values


def _symmetric_from_frame(Q, kernel_cols, eigenvalues):
    """Symmetric matrix with kernel spanned by the selected frame columns."""
    d = Q.shape[0]
    mask = np.ones(d, dtype=bool)
    mask[list(kernel_cols)] = False
    vectors = Q[:, mask]
    return _symmetrized((vectors * eigenvalues) @ vectors.T)


def gen_psd_with_nullity(d, k, seed) -> np.ndarray:
    """d x d positive semidefinite matrix with nullity exactly k.

    Eigenvalues are k zeros plus d-k draws from [0.5, 2], conjugated by a
    Haar-random orthogonal matrix.
    """
    if not 0 <= k <= d:
        raise ValueError(f"nullity {k} out of range for dimension {d}")
    rng = np.random.default_rng(seed)
    Q = haar_orthogonal(d, rng)
    return _symmetric_from_frame(Q, range(k), _spectrum(rng, d - k))


def gen_rank(m, n, r, seed) -> np.ndarray:
    """m x n matrix of rank exactly r with singular values in [0.5, 2]."""
    if not 0 <= r <= min(m, n):
        raise ValueError(f"rank {r} out of range for shape ({m}, {n})")
    rng = np.random.default_rng(seed)
    U = haar_orthogonal(m, rng)[:, :r]
    V = haar_orthogonal(n, rng)[:, :r]
    s = _spectrum(rng, r)
    return (U * s) @ V.T


@dataclass(frozen=True)
class GeneratorSpec:
    """Targets for one generated instance.

    ``rank_b``/``rank_c`` default to full rank.  Definiteness targets are
    "psd" (semidefinite with the prescribed nullity, definite when it is
    zero) or "indefinite".  Flags request subspace relations:

        require_ds1       ker(A) (+) ker(B) = R^n   (forces null_a = rank_b)
        require_ds2       ker(E) (+) ker(C^T) = R^p (forces null_e = rank_c)
        require_r         ran(B) and ran(C^T) meet only in {0}
        force_overlap_r   ran(B) and ran(C^T) share a direction
    """

    n: int
    m: int
    p: int
    null_a: int = 0
    null_d: int = 0
    null_e: int = 0
    rank_b: int | None = None
    rank_c: int | None = None
    require_ds1: bool = False
    require_ds2: bool = False
    require_r: bool = False
    force_overlap_r: bool = False
    def_a: str = "psd"
    def_d: str = "psd"
    def_e: str = "psd"
    seed: int = 0

    def resolved(self) -> "GeneratorSpec":
        spec = self
        if spec.rank_b is None:
            spec = replace(spec, rank_b=min(spec.m, spec.n))
        if spec.rank_c is None:
            spec = replace(spec, rank_c=min(spec.p, spec.m))
        return spec

    def validate(self) -> "GeneratorSpec":
        _check_types(vars(self))
        spec = self.resolved()
        n, m, p = spec.n, spec.m, spec.p
        if min(n, m, p) < 1:
            raise ValueError(f"dimensions must be positive, got ({n}, {m}, {p})")
        _within_bound(max(n, m, p), max(n, m, p), "a block")
        problems = []
        if not 0 <= spec.null_a <= n:
            problems.append(f"null_a={spec.null_a} out of [0, {n}]")
        if not 0 <= spec.null_d <= m:
            problems.append(f"null_d={spec.null_d} out of [0, {m}]")
        if not 0 <= spec.null_e <= p:
            problems.append(f"null_e={spec.null_e} out of [0, {p}]")
        if not 0 <= spec.rank_b <= min(m, n):
            problems.append(f"rank_b={spec.rank_b} out of [0, {min(m, n)}]")
        if not 0 <= spec.rank_c <= min(p, m):
            problems.append(f"rank_c={spec.rank_c} out of [0, {min(p, m)}]")
        if spec.require_r and spec.force_overlap_r:
            problems.append("require_r and force_overlap_r are mutually exclusive")
        if spec.require_r and spec.rank_b + spec.rank_c > m:
            problems.append(
                f"require_r impossible: rank_b + rank_c = "
                f"{spec.rank_b + spec.rank_c} exceeds m = {m}"
            )
        if spec.force_overlap_r and (spec.rank_b < 1 or spec.rank_c < 1):
            problems.append("force_overlap_r needs rank_b >= 1 and rank_c >= 1")
        if spec.require_ds1 and spec.null_a != spec.rank_b:
            problems.append(
                f"require_ds1 needs null_a = rank_b, got {spec.null_a} != {spec.rank_b}"
            )
        if spec.require_ds2 and spec.null_e != spec.rank_c:
            problems.append(
                f"require_ds2 needs null_e = rank_c, got {spec.null_e} != {spec.rank_c}"
            )
        for name in ("def_a", "def_d", "def_e"):
            if getattr(spec, name) not in ("psd", "indefinite"):
                problems.append(f"{name} must be 'psd' or 'indefinite'")
        if spec.seed < 0:
            problems.append("seed must be a non-negative integer")
        if spec.def_a == "indefinite" and spec.null_a == spec.n:
            problems.append("indefinite A impossible with null_a = n")
        if spec.def_d == "indefinite" and spec.null_d == spec.m:
            problems.append("indefinite D impossible with null_d = m")
        if spec.def_e == "indefinite" and spec.null_e == spec.p:
            problems.append("indefinite E impossible with null_e = p")
        if problems:
            raise ValueError("infeasible generator spec: " + "; ".join(problems))
        return spec

    def to_dict(self) -> dict:
        return asdict(self.resolved())

    @classmethod
    def from_dict(cls, data: dict) -> "GeneratorSpec":
        """Spec from decoded JSON; field types are checked, never coerced."""
        if not isinstance(data, dict):
            raise ValueError("a generator spec must be a JSON object")
        unknown, missing = set(data) - set(cls.__dataclass_fields__), {"n", "m", "p"} - set(data)
        if unknown or missing:
            raise ValueError(f"unknown generator spec fields: {sorted(unknown)}" if unknown
                             else f"generator spec misses the fields {sorted(missing)}")
        _check_types(data)
        return cls(**data)


def _check_types(values: dict) -> None:
    """A ValueError for the first spec field whose value is not of the field's type,
    never a coercion.  An int field takes a numpy integer but no bool, as dims do."""
    for name, value in values.items():
        expected = GeneratorSpec.__dataclass_fields__[name].type
        fits = isinstance(value, (expected, np.integer) if issubclass(int, expected) else expected)
        # bool is a subclass of int, but a flag is no count
        if not fits or (isinstance(value, bool) and expected is not bool):
            raise ValueError(f"generator spec field {name!r} must be of type "
                             f"{getattr(expected, '__name__', expected)}, got {value!r}")


@dataclass(frozen=True)
class InstanceCertificate:
    """Facts about a generated instance, re-verified post hoc."""

    dims: tuple[int, int, int]
    null_a: int
    null_d: int
    null_e: int
    rank_b: int
    rank_c: int
    definiteness: dict = field(default_factory=dict)
    n1: bool = False
    n2: bool = False
    n3: bool = False
    ds1: bool = False
    ds2: bool = False
    range_disjoint: bool = False
    seed: int = 0
    attempt: int = 0

    def to_dict(self) -> dict:
        return {**asdict(self), "dims": list(self.dims)}


def _measure(sys: BlockSystem, tol: ToleranceConfig | None, seed, attempt) -> InstanceCertificate:
    an = _analysis(sys, tol)
    return InstanceCertificate(
        dims=sys.dims,
        null_a=an.A.nullity,
        null_d=an.D.nullity,
        null_e=an.E.nullity,
        rank_b=an.B.rank,
        rank_c=an.Ct.rank,
        definiteness={k: getattr(an, k).definiteness.value for k in "ADE"},
        n1=an.n1.is_trivial,
        n2=an.n2.is_trivial,
        n3=an.n3.is_trivial,
        ds1=an.ds1,
        ds2=an.ds2,
        range_disjoint=an.r.is_trivial,
        seed=seed,
        attempt=attempt,
    )


def _certificate_mismatches(spec: GeneratorSpec, cert: InstanceCertificate) -> list:
    tag_matches = {
        "psd": lambda v: Definiteness(v).is_psd,
        "indefinite": lambda v: Definiteness(v) is Definiteness.INDEFINITE,
    }
    problems = [name for name in ("null_a", "null_d", "null_e", "rank_b", "rank_c")
                if getattr(cert, name) != getattr(spec, name)]
    for block, target in (("A", spec.def_a), ("D", spec.def_d), ("E", spec.def_e)):
        if not tag_matches[target](cert.definiteness[block]):
            problems.append(f"definiteness of {block}")
    if spec.require_ds1 and not cert.ds1:
        problems.append("ds1")
    if spec.require_ds2 and not cert.ds2:
        problems.append("ds2")
    if spec.require_r and not cert.range_disjoint:
        problems.append("range_disjoint")
    if spec.force_overlap_r and cert.range_disjoint:
        problems.append("range_overlap")
    return problems


def _build(spec: GeneratorSpec, rng) -> BlockSystem:
    n, m, p = spec.n, spec.m, spec.p

    # Frames: ker(A) takes the leading columns, ker(B) the trailing ones, so
    # the two kernels are disjoint whenever null_a <= rank_b and fill the
    # space exactly when null_a = rank_b.
    Qn = haar_orthogonal(n, rng)
    row_frame = Qn[:, :spec.rank_b]

    Qm = haar_orthogonal(m, rng)
    Ub = Qm[:, :spec.rank_b]
    if spec.require_r:
        Vc = Qm[:, spec.rank_b:spec.rank_b + spec.rank_c]
    elif spec.force_overlap_r:
        start = min(spec.rank_b, m - (spec.rank_c - 1)) if spec.rank_c > 1 else 1
        cols = [0] + [start + j for j in range(spec.rank_c - 1)]
        Vc = Qm[:, cols]
    else:
        Vc = haar_orthogonal(m, rng)[:, :spec.rank_c]

    B = (Ub * _spectrum(rng, spec.rank_b)) @ row_frame.T

    A = _symmetric_from_frame(Qn, range(spec.null_a),
                              _spectrum(rng, n - spec.null_a, spec.def_a))

    # C places ran(C) on the leading columns of a frame of R^p; E reuses the
    # same frame with its kernel inside ran(C), which keeps ker(C^T) and
    # ker(E) disjoint whenever null_e <= rank_c.
    Qp = haar_orthogonal(p, rng)
    Uc = Qp[:, :spec.rank_c]
    C = (Uc * _spectrum(rng, spec.rank_c)) @ Vc.T
    E = _symmetric_from_frame(Qp, range(spec.null_e),
                              _spectrum(rng, p - spec.null_e, spec.def_e))

    Qd = haar_orthogonal(m, rng)
    D = _symmetric_from_frame(Qd, range(spec.null_d),
                              _spectrum(rng, m - spec.null_d, spec.def_d))
    return BlockSystem(A, B, C, D, E)


def gen_instance(spec: GeneratorSpec, tol: ToleranceConfig | None = None):
    """Generate a block system meeting every target in the spec.

    Returns ``(system, certificate)``.  Identical spec and seed give
    bitwise-identical blocks.  Targets are re-verified after construction;
    a generic draw that misses one is retried with an advanced sub-seed, and
    exhausting the budget raises :class:`~dsaddle.core.GenerationError`
    rather than silently relaxing a target.
    """
    spec = spec.validate()
    last_problems = []
    for attempt in range(DEFAULT_MAX_RETRIES):
        rng = np.random.default_rng([spec.seed, attempt])
        sys = _build(spec, rng)
        cert = _measure(sys, tol, spec.seed, attempt)
        last_problems = _certificate_mismatches(spec, cert)
        if not last_problems:
            return sys, cert
    raise GenerationError(
        f"generator missed targets {last_problems} after {DEFAULT_MAX_RETRIES} attempts "
        f"for spec {spec.to_dict()!r}"
    )
