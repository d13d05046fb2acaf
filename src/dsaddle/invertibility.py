"""Invertibility decision ladder for double saddle-point systems.

Each rule checks its own hypotheses numerically and returns a
:class:`Diagnosis`: a definitive verdict (invertible with the rule that
fired, or singular with a unit kernel witness) or "undetermined" when the
hypotheses do not apply.  Rules never raise on inapplicable input, so the
ladder always terminates with a report.

Condition identifiers used throughout:

    N1   ker(A) ∩ ker(B)           = {0}
    N2   ker(B^T) ∩ ker(D) ∩ ker(C) = {0}
    N3   ker(C^T) ∩ ker(E)         = {0}
    R    ran(B) ∩ ran(C^T)         = {0}
    DS1  ker(A) (+) ker(B)   = R^n   (direct sum)
    DS2  ker(E) (+) ker(C^T) = R^p   (direct sum)

N1, N2, N3 are necessary for invertibility; a failure of any of them yields
an explicit kernel vector of the assembled matrix.
"""

import weakref
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .core import BlockSystem, assemble
from .subspaces import Definiteness, _SVD, _SymEig, _above_cut, _restricted_kernel, \
    _shared_direction, intersection_kernels, matrix_rank
from .tolerances import ToleranceConfig, resolve

CONDITION_ORDER = ("N1", "N2", "N3", "R", "DS1", "DS2")


class Verdict(Enum):
    INVERTIBLE = "invertible"
    SINGULAR = "singular"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class ConditionEntry:
    """Outcome of one condition check, with a unit witness when it fails.

    The witness lives in the condition's own space (an intersection vector
    for N1..N3, a shared range direction for R); embedding into the full
    system is done by the rule that uses it.
    """

    cond_id: str
    holds: bool
    witness: np.ndarray | None = None

    def to_dict(self):
        entry = {"id": self.cond_id, "status": "holds" if self.holds else "fails"}
        if self.witness is not None:
            entry["witness"] = [float(x) for x in self.witness]
        return entry


@dataclass
class ConditionReport:
    """Per-condition results plus definiteness tags and achieved ranks."""

    entries: dict = field(default_factory=dict)
    definiteness: dict = field(default_factory=dict)
    ranks: dict = field(default_factory=dict)

    def holds(self, cond_id: str) -> bool:
        return self.entries[cond_id].holds

    def witness(self, cond_id: str):
        return self.entries[cond_id].witness

    def to_dict(self):
        ordered = [self.entries[c].to_dict() for c in CONDITION_ORDER if c in self.entries]
        return {
            "conditions": ordered,
            "definiteness": {k: v.value for k, v in self.definiteness.items()},
            "ranks": {k: int(v) for k, v in self.ranks.items()},
        }


@dataclass(frozen=True)
class Diagnosis:
    """Verdict plus the rule that fired, the report, and certificates."""

    verdict: Verdict
    rule: str | None
    report: ConditionReport
    witness: np.ndarray | None = None
    oracle_check: bool | None = None

    def to_dict(self):
        out = {"verdict": self.verdict.value, "rule": self.rule}
        out.update(self.report.to_dict())
        if self.witness is not None:
            out["witness"] = [float(x) for x in self.witness]
        if self.oracle_check is not None:
            out["oracle_check"] = bool(self.oracle_check)
        return out


def _unit(v):
    v = np.asarray(v, dtype=float).ravel()
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise RuntimeError("zero vector cannot serve as a witness")
    return v / norm


def _first(basis):
    """Unit witness of a nontrivial subspace, None for the trivial one."""
    return None if basis.is_trivial else _unit(basis.basis[:, 0])


def _fact(compute):
    """A lazily computed fact of the analysed blocks."""
    return cached_property(lambda an: compute(an.sys, an.tol))


def _a_tilde(s):
    """A + B^T (2I - D) B, the leading block of the alpha = 1 congruence transform."""
    M = s.A + s.B.T @ (2.0 * np.eye(s.B.shape[0]) - s.D) @ s.B
    return 0.5 * (M + M.T)


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

    A = _fact(lambda s, tol: _SymEig(s.A, tol))
    D = _fact(lambda s, tol: _SymEig(s.D, tol))
    E = _fact(lambda s, tol: _SymEig(s.E, tol))
    B = _fact(lambda s, tol: _SVD(s.B, tol))
    Ct = _fact(lambda s, tol: _SVD(s.C.T, tol))
    K = _fact(lambda s, tol: assemble(s).matrix)
    # |eigenvalues| of K from one eigvalsh: the oracle and ||K^{-1}||_2
    k_moduli = cached_property(lambda an: np.abs(np.linalg.eigvalsh(an.K)))
    k_nonsingular = property(lambda an: bool(_above_cut(an.k_moduli, an.K.shape, an.tol).all()))
    a_tilde = _fact(lambda s, tol: _SymEig(_a_tilde(s), tol))
    # the reduced-Hessian projector over ker(B), built once by dsaddle.inverses
    projector = None

    # N1..N3 restrict the other blocks to the near-kernel of the first, read
    # from the decomposition held for it; near the rank cut the stacked SVD decides
    def _intersection(self, pairs, norms, stacked, others):
        shape = (sum(M.shape[0] for M in stacked), stacked[0].shape[1])
        basis = None if pairs is None else _restricted_kernel(*pairs, others, shape,
                                                              max(norms), self.tol)
        return intersection_kernels(stacked, self.tol) if basis is None else basis

    n1 = cached_property(lambda an: an._intersection(
        an.A.pairs, (an.A.norm, an.B.norm), [an.sys.A, an.sys.B], [an.sys.B]))
    n2 = cached_property(lambda an: an._intersection(
        an.B.cokernel_pairs, (an.B.norm, an.D.norm, an.Ct.norm),
        [an.sys.B.T, an.sys.D, an.sys.C], [an.sys.D, an.sys.C]))
    n3 = cached_property(lambda an: an._intersection(
        an.E.pairs, (an.Ct.norm, an.E.norm), [an.sys.C.T, an.sys.E], [an.sys.C.T]))

    @cached_property
    def overlap(self):
        """ker(A (+) E) ∩ ker[B | C^T] in R^(n+p): each (x, z) in it has A x = 0,
        E z = 0 and B x + C^T z = 0, so [x; 0; z] is a kernel vector of K."""
        s, a, e = self.sys, self.A.pairs, self.E.pairs
        pairs = None if a is None or e is None else (
            np.concatenate([a[0], e[0]]), _direct_sum(a[1], e[1]))
        couple = np.hstack([s.B, s.C.T])
        return self._intersection(pairs, (self.A.norm, self.E.norm, self.B.norm, self.Ct.norm),
                                  [_direct_sum(s.A, s.E), couple], [couple])

    @cached_property
    def r_witness(self):
        """Shared unit direction of ran(B) and ran(C^T); None when R holds."""
        return _shared_direction(self.B.range, self.Ct.range, self.tol)

    # A sum of two subspaces is direct exactly when they meet only in {0}, and
    # then it fills R^n exactly when the dimensions add up to n:
    # null(A) + null(B) = n is null(A) = rank(B), likewise for E and C^T.
    @property
    def ds1(self) -> bool:
        return self.n1.is_trivial and self.A.nullity == self.B.rank

    @property
    def ds2(self) -> bool:
        return self.n3.is_trivial and self.E.nullity == self.Ct.rank

    def entry(self, cond_id: str) -> ConditionEntry:
        if cond_id in ("DS1", "DS2"):
            return ConditionEntry(cond_id, getattr(self, cond_id.lower()))
        w = self.r_witness if cond_id == "R" else _first(getattr(self, cond_id.lower()))
        # a copy, so that editing a report cannot reach the analysis it was read from
        return ConditionEntry(cond_id, w is None, None if w is None else w.copy())


def _direct_sum(M1, M2):
    """The block diagonal matrix diag(M1, M2)."""
    out = np.zeros(np.add(M1.shape, M2.shape))
    out[:M1.shape[0], :M1.shape[1]], out[M1.shape[0]:, M1.shape[1]:] = M1, M2
    return out


def _analysis(sys, tol) -> _Analysis:
    """The analysis a BlockSystem holds for tol (made on first use), else a fresh one."""
    tol = resolve(tol)
    if not isinstance(sys, BlockSystem):
        return _Analysis(sys, tol)
    an = sys._analyses.get(tol)
    if an is None:
        an = sys._analyses[tol] = _Analysis(weakref.proxy(sys), tol)
    return an


def _facts(sys, tol, report):
    """The report a rule decides on and this system's analysis."""
    an = _analysis(sys, tol)
    return (condition_report(sys, an.tol) if report is None else report), an


def _singular(an, rule, witness, report):
    """A singular diagnosis when the witness is a kernel vector of K, else
    undetermined: no witness, or ||K u|| above residual_rtol times the largest
    block norm (at most ||K||_2), marks an input at the rank threshold."""
    if witness is None:
        return _undetermined(report)
    u = _unit(witness)
    scale = max(an.A.norm, an.D.norm, an.E.norm, an.B.norm, an.Ct.norm, 1e-300)
    if np.linalg.norm(an.K @ u) > an.tol.residual_rtol * scale:
        return _undetermined(report)
    return Diagnosis(Verdict.SINGULAR, rule, report, witness=u)


def _invertible(rule, report):
    return Diagnosis(Verdict.INVERTIBLE, rule, report)


def _undetermined(report):
    return Diagnosis(Verdict.UNDETERMINED, None, report)


def is_nonsingular(M, tol: ToleranceConfig | None = None) -> bool:
    """Square matrix test sigma_min > threshold under the global rank policy."""
    M = np.asarray(M, dtype=float)
    if M.shape[0] != M.shape[1]:
        raise ValueError("nonsingularity is defined for square matrices only")
    return matrix_rank(M, tol) == M.shape[0]


def condition_report(sys: BlockSystem, tol: ToleranceConfig | None = None) -> ConditionReport:
    """Evaluate every condition the rules consult, in one pass."""
    an = _analysis(sys, tol)
    return ConditionReport(
        entries={c: an.entry(c) for c in CONDITION_ORDER},
        definiteness={k: getattr(an, k).definiteness for k in "ADE"},
        ranks={"B": an.B.rank, "C": an.Ct.rank},
    )


def _embed(sys, x=0.0, y=0.0, z=0.0):
    """Place block-space vectors into a full-length vector [x; y; z]."""
    u = np.empty(sys.ell)
    u[:sys.n], u[sys.n:sys.n + sys.m], u[sys.n + sys.m:] = x, y, z
    return u


def necessary_conditions(sys: BlockSystem, tol: ToleranceConfig | None = None) -> ConditionReport:
    """Check the three kernel-intersection conditions N1, N2, N3.

    Any failure certifies singularity: a nonzero x in ker(A) ∩ ker(B) gives
    the kernel vector [x; 0; 0], a nonzero y in the N2 intersection gives
    [0; y; 0], and a nonzero z in the N3 intersection gives [0; 0; z].
    """
    an = _analysis(sys, tol)
    return ConditionReport(entries={c: an.entry(c) for c in ("N1", "N2", "N3")})


def _necessary_failure(an, report):
    """The singular (or, past the witness check, undetermined) diagnosis of
    the first failed necessary condition; None when all three hold."""
    for cond_id, embed in (("N1", "x"), ("N2", "y"), ("N3", "z")):
        if not report.holds(cond_id):
            u = _embed(an.sys, **{embed: report.witness(cond_id)})
            return _singular(an, f"necessary:{cond_id}", u, report)
    return None


def schur_sufficient(sys: BlockSystem, tol: ToleranceConfig | None = None, *,
                     report: ConditionReport | None = None) -> Diagnosis:
    """Sufficient test through the two Schur complements.

    When A is numerically nonsingular, forms S1 = D + B A^{-1} B^T and, when
    S1 is nonsingular, S2 = E + C S1^{-1} C^T.  Both nonsingular certifies
    invertibility.  The rule is one-sided: anything else is undetermined.
    """
    report, an = _facts(sys, tol, report)
    if not an.A.nonsingular:
        return _undetermined(report)
    s1 = sys.D + sys.B @ np.linalg.solve(sys.A, sys.B.T)
    if not is_nonsingular(s1, an.tol):
        return _undetermined(report)
    s2 = sys.E + sys.C @ np.linalg.solve(s1, sys.C.T)
    if not is_nonsingular(s2, an.tol):
        return _undetermined(report)
    return _invertible("schur_sufficient", report)


def _all_psd(report, *names):
    return all(report.definiteness[name].is_psd for name in names)


def psd_ladder(sys: BlockSystem, tol: ToleranceConfig | None = None, *,
               report: ConditionReport | None = None) -> Diagnosis:
    """Sufficient conditions under semidefinite diagonal blocks.

    Requires A, D, E positive semidefinite and N2.  Fires the first case
    that matches:

      case 1: A positive definite and N3        -> invertible
      case 2: E positive definite and N1        -> invertible
      case 3: R together with N3 and N1         -> invertible
    """
    report, _ = _facts(sys, tol, report)
    if not _all_psd(report, "A", "D", "E") or not report.holds("N2"):
        return _undetermined(report)
    if report.definiteness["A"] is Definiteness.POSITIVE_DEFINITE and report.holds("N3"):
        return _invertible("psd_ladder:case1", report)
    if report.definiteness["E"] is Definiteness.POSITIVE_DEFINITE and report.holds("N1"):
        return _invertible("psd_ladder:case2", report)
    if report.holds("R") and report.holds("N3") and report.holds("N1"):
        return _invertible("psd_ladder:case3", report)
    return _undetermined(report)


def _overlap_witness(an):
    """The first overlap vector (x, z) as the kernel vector [x; 0; z]; None for {0}."""
    v = _first(an.overlap)
    return None if v is None else _embed(an.sys, x=v[:an.sys.n], z=v[an.sys.n:])


def _semidefinite_verdict(an, rule, report):
    """Decide K for A, D and E positive semidefinite.

    A kernel vector (x, y, z) of K then has A x = 0, D y = 0 and E z = 0: the
    three quadratic forms add up to zero.  So null(K) = dim N2 + dim of the
    overlap ker(A (+) E) ∩ ker[B | C^T], and K is invertible exactly when N2
    holds and the overlap is {0}; a singular verdict carries [0; y; 0] or the
    first overlap vector [x; 0; z].
    """
    if not report.holds("N2"):
        return _singular(an, rule, _embed(an.sys, y=report.witness("N2")), report)
    if an.overlap.is_trivial:
        return _invertible(rule, report)
    return _singular(an, rule, _overlap_witness(an), report)


# name, zero block, positive definite blocks, size test
_COROLLARIES = (
    ("corollary_b_full_rank", "A", "DE", lambda sys: sys.m >= sys.n),
    ("corollary_c_full_rank", "E", "AD", lambda sys: sys.m >= sys.p),
    ("corollary_middle_kernels", "D", "AE", lambda sys: True),
)


def corollary_rules(sys: BlockSystem, tol: ToleranceConfig | None = None, *,
                    report: ConditionReport | None = None) -> Diagnosis:
    """Three if-and-only-if special cases with one zero diagonal block.

      A = 0, D and E positive definite, m >= n:  invertible iff rank(B) = n
      E = 0, A and D positive definite, m >= p:  invertible iff rank(C) = p
      D = 0, A and E positive definite:          invertible iff
                                                 ker(B^T) ∩ ker(C) = {0}

    Each is the semidefinite verdict, with overlap ker(B), ker(C^T) or {0}:
    a singular one carries [x; 0; 0], [0; 0; z] or N2's [0; y; 0].
    """
    report, an = _facts(sys, tol, report)
    pd = Definiteness.POSITIVE_DEFINITE
    for name, zero, definite, size in _COROLLARIES:
        if not getattr(sys, zero).any() and size(sys) \
                and all(report.definiteness[k] is pd for k in definite):
            return _semidefinite_verdict(an, name, report)
    return _undetermined(report)


def direct_sum_iff(sys: BlockSystem, tol: ToleranceConfig | None = None, *,
                   report: ConditionReport | None = None) -> Diagnosis:
    """Range-overlap test that becomes definitive under direct sums.

    Hypotheses: A, D, E positive semidefinite with N1, N3 and N2 holding.
    R then implies invertibility.  When R fails while both DS1 and DS2 hold,
    the system is singular: B maps ker(A) onto ran(B) and C^T maps ker(E)
    onto ran(C^T), so a shared direction B x = -C^T z has x in ker(A) and z
    in ker(E).  The witness is the first overlap vector [x; 0; z].
    """
    report, an = _facts(sys, tol, report)
    if not _all_psd(report, "A", "D", "E"):
        return _undetermined(report)
    if not (report.holds("N1") and report.holds("N3") and report.holds("N2")):
        return _undetermined(report)
    if report.holds("R"):
        return _invertible("direct_sum_iff", report)
    if not (report.holds("DS1") and report.holds("DS2")):
        return _undetermined(report)
    return _singular(an, "direct_sum_iff", _overlap_witness(an), report)


def _full_row_rank_rule(sys, tol, report, mirrored):
    """:func:`rank_b_iff`, or with ``mirrored`` the same rule on the block
    reversal Q K Q^T, read from this system's facts: the reversal swaps N1
    with N3, DS1 with DS2, rank(B) with rank(C), A with E and n with p."""
    report, an = _facts(sys, tol, report)
    name, n3, ds1, a, e, outer, rank = (
        ("rank_c_iff", "N1", "DS2", "E", "A", sys.p, "C") if mirrored else
        ("rank_b_iff", "N3", "DS1", "A", "E", sys.n, "B"))
    applicable = (report.holds(n3) and outer >= sys.m
                  and report.ranks[rank] == sys.m and report.holds(ds1)
                  and report.definiteness[a].is_psd)
    if not applicable:
        return _undetermined(report)
    if report.holds("R"):
        return _invertible(name, report)
    if getattr(sys, e).any():
        return _undetermined(report)
    return _singular(an, name, _overlap_witness(an), report)


def rank_b_iff(sys: BlockSystem, tol: ToleranceConfig | None = None, *,
               report: ConditionReport | None = None) -> Diagnosis:
    """Range-overlap rule for full-row-rank B, definitive when E = 0.

    Hypotheses: N3, n >= m, rank(B) = m, DS1, and A positive semidefinite.
    R implies invertibility.  When E is the zero block and R fails, the
    system is singular: by DS1 a shared direction B x = -C^T z has x in
    ker(A), and the witness is the first overlap vector [x; 0; z].
    """
    return _full_row_rank_rule(sys, tol, report, mirrored=False)


def rank_c_iff(sys: BlockSystem, tol: ToleranceConfig | None = None, *,
               report: ConditionReport | None = None) -> Diagnosis:
    """Mirror of :func:`rank_b_iff` acting through the block reversal.

    Applies the full-row-rank rule to the reversed system (hypotheses become
    N1, p >= m, rank(C) = m, DS2, E positive semidefinite; the zero block is
    A).  Its witness is the first overlap vector [x; 0; z], z in ker(E) by DS2.
    """
    return _full_row_rank_rule(sys, tol, report, mirrored=True)


def e_iff_rule(sys: BlockSystem, tol: ToleranceConfig | None = None, *,
               report: ConditionReport | None = None) -> Diagnosis:
    """For a maximally rank-deficient leading block, E decides.

    Hypotheses: A and D positive semidefinite, N1, N2, N3, null(A) = m and
    lambda_max(D) < 2.  The system is then invertible exactly when E is
    nonsingular.  By N1, B maps ker(A) onto R^m, so the witness of a
    singular verdict is the first overlap vector [x; 0; z].  When
    lambda_max(D) >= 2, rescale first (see :func:`dsaddle.core.rescale_middle`).
    """
    report, an = _facts(sys, tol, report)
    hypotheses = (report.definiteness["A"].is_psd and report.definiteness["D"].is_psd
                  and report.holds("N1") and report.holds("N2") and report.holds("N3")
                  and an.A.nullity == sys.m and an.D.lambda_max < 2.0)
    if not hypotheses:
        return _undetermined(report)
    if an.E.nonsingular:
        return _invertible("e_iff", report)
    return _singular(an, "e_iff", _overlap_witness(an), report)


def psd_iff(sys: BlockSystem, tol: ToleranceConfig | None = None, *,
            report: ConditionReport | None = None) -> Diagnosis:
    """The semidefinite if-and-only-if: with A, D and E positive
    semidefinite, K is invertible exactly when N2 holds and
    ker(A (+) E) ∩ ker[B | C^T] = {0}, since null(K) is the sum of their
    dimensions.  Anything else is undetermined."""
    report, an = _facts(sys, tol, report)
    if not _all_psd(report, "A", "D", "E"):
        return _undetermined(report)
    return _semidefinite_verdict(an, "psd_iff", report)


def oracle_invertible(sys: BlockSystem, tol: ToleranceConfig | None = None) -> bool:
    """Ground truth from the eigenvalues of the assembled matrix."""
    return _analysis(sys, tol).k_nonsingular


_RULES = (schur_sufficient, e_iff_rule, corollary_rules, rank_b_iff,
          rank_c_iff, direct_sum_iff, psd_ladder, psd_iff)


def diagnose(sys: BlockSystem, tol: ToleranceConfig | None = None,
             with_oracle: bool = False) -> Diagnosis:
    """Run the whole ladder and return the first definitive verdict.

    Order: the necessary conditions (any failure short-circuits to
    singular, or undetermined when its witness fails), then schur_sufficient,
    e_iff_rule, corollary_rules, rank_b_iff, rank_c_iff, direct_sum_iff,
    psd_ladder, psd_iff.  The order is fixed so reports are reproducible.
    Every rule, and every later call on the same system and tolerance, reads
    the one analysis the system holds.
    With ``with_oracle`` the dense ground truth is attached to the diagnosis.
    """
    an = _analysis(sys, tol)
    report = condition_report(sys, an.tol)
    verdicts = (rule(sys, an.tol, report=report) for rule in _RULES)
    result = _necessary_failure(an, report) or next(
        (d for d in verdicts if d.verdict is not Verdict.UNDETERMINED), _undetermined(report))
    if with_oracle:
        result = replace(result, oracle_check=an.k_nonsingular)
    return result
