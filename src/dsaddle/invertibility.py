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
    # |eigenvalues| of K from one eigvalsh: the oracle, ||K||_2 and ||K^{-1}||_2
    k_moduli = cached_property(lambda an: np.abs(np.linalg.eigvalsh(an.K)))
    k_nonsingular = property(lambda an: bool(_above_cut(an.k_moduli, an.K.shape, an.tol).all()))
    a_tilde = _fact(lambda s, tol: _SymEig(_a_tilde(s), tol))

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
    """Build a singular diagnosis, insisting the witness is genuine."""
    u = _unit(witness)
    residual = np.linalg.norm(an.K @ u)
    if residual > an.tol.residual_rtol * max(an.k_moduli.max(), 1e-300):
        raise RuntimeError(
            f"rule {rule} constructed a witness with residual {residual:.3e} "
            f"above tolerance; this indicates an input at the rank threshold"
        )
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


def _is_zero_block(M) -> bool:
    return not np.any(M)


def condition_report(sys: BlockSystem, tol: ToleranceConfig | None = None) -> ConditionReport:
    """Evaluate every condition the rules consult, in one pass."""
    an = _analysis(sys, tol)
    return ConditionReport(
        entries={c: an.entry(c) for c in CONDITION_ORDER},
        definiteness={k: getattr(an, k).definiteness for k in "ADE"},
        ranks={"B": an.B.rank, "C": an.Ct.rank},
    )


def _embed(sys, x=None, y=None, z=None):
    """Place block-space vectors into a full-length vector [x; y; z]."""
    u = np.zeros(sys.ell)
    if x is not None:
        u[:sys.n] = x
    if y is not None:
        u[sys.n:sys.n + sys.m] = y
    if z is not None:
        u[sys.n + sys.m:] = z
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
    """Singular diagnosis from the first failed necessary condition, if any."""
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


def corollary_rules(sys: BlockSystem, tol: ToleranceConfig | None = None, *,
                    report: ConditionReport | None = None) -> Diagnosis:
    """Three if-and-only-if special cases with one zero diagonal block.

      A = 0, D and E positive definite, m >= n:  invertible iff rank(B) = n
      E = 0, A and D positive definite, m >= p:  invertible iff rank(C) = p
      D = 0, A and E positive definite:          invertible iff
                                                 ker(B^T) ∩ ker(C) = {0}

    When a corollary applies the verdict is definitive; singular verdicts
    carry the witness from the corresponding kernel.
    """
    report, an = _facts(sys, tol, report)
    pd = Definiteness.POSITIVE_DEFINITE

    if _is_zero_block(sys.A) and sys.m >= sys.n \
            and report.definiteness["D"] is pd and report.definiteness["E"] is pd:
        if report.ranks["B"] == sys.n:
            return _invertible("corollary_b_full_rank", report)
        x = an.B.kernel.basis[:, 0]
        return _singular(an, "corollary_b_full_rank", _embed(sys, x=x), report)

    if _is_zero_block(sys.E) and sys.m >= sys.p \
            and report.definiteness["A"] is pd and report.definiteness["D"] is pd:
        if report.ranks["C"] == sys.p:
            return _invertible("corollary_c_full_rank", report)
        z = an.Ct.kernel.basis[:, 0]
        return _singular(an, "corollary_c_full_rank", _embed(sys, z=z), report)

    if _is_zero_block(sys.D) \
            and report.definiteness["A"] is pd and report.definiteness["E"] is pd:
        # with D = 0 the middle condition is N2 itself
        if report.holds("N2"):
            return _invertible("corollary_middle_kernels", report)
        return _singular(an, "corollary_middle_kernels",
                         _embed(sys, y=report.witness("N2")), report)

    return _undetermined(report)


def _first_part(vector, part_one: np.ndarray, part_two: np.ndarray):
    """u1 of vector = u1 + u2 with u_i in span(part_i) of a direct sum."""
    coeff = np.linalg.solve(np.hstack([part_one, part_two]), vector)
    return part_one @ coeff[:part_one.shape[1]]


def _overlap_witness(an, split_x: bool, split_z: bool):
    """Kernel vector [x; 0; -z] from the shared direction w = B x = C^T z of R.

    Row two vanishes for any such pair.  Rows one and three need A x = 0 and
    E z = 0: a side that is split keeps only its ker(A) part along DS1 (ker(E)
    part along DS2), which leaves B x (C^T z) unchanged; a side left whole
    must face a zero diagonal block.
    """
    w = an.r_witness
    x, z = an.B.solve(w), an.Ct.solve(w)
    if split_x:
        x = _first_part(x, an.A.kernel.basis, an.B.kernel.basis)
    if split_z:
        z = _first_part(z, an.E.kernel.basis, an.Ct.kernel.basis)
    return _embed(an.sys, x=x, z=-z)


def direct_sum_iff(sys: BlockSystem, tol: ToleranceConfig | None = None, *,
                   report: ConditionReport | None = None) -> Diagnosis:
    """Range-overlap test that becomes definitive under direct sums.

    Hypotheses: A, D, E positive semidefinite with N1, N3 and N2 holding.
    R then implies invertibility.  When R fails while both DS1 and DS2 hold,
    the system is singular: for a shared direction w = B x = C^T z, splitting
    x along ker(A) (+) ker(B) and z along ker(E) (+) ker(C^T) leaves
    w = B x1 = C^T z1, and [x1; 0; -z1] is a kernel vector.
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
    witness = _overlap_witness(an, split_x=True, split_z=True)
    return _singular(an, "direct_sum_iff", witness, report)


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
    if not _is_zero_block(getattr(sys, e)):
        return _undetermined(report)
    witness = _overlap_witness(an, split_x=not mirrored, split_z=mirrored)
    return _singular(an, name, witness, report)


def rank_b_iff(sys: BlockSystem, tol: ToleranceConfig | None = None, *,
               report: ConditionReport | None = None) -> Diagnosis:
    """Range-overlap rule for full-row-rank B, definitive when E = 0.

    Hypotheses: N3, n >= m, rank(B) = m, DS1, and A positive semidefinite.
    R implies invertibility.  When E is the zero block and R fails, the
    system is singular with witness [x1; 0; -z] built from a shared range
    direction w = B x = C^T z and the ker(A) component x1 of x.
    """
    return _full_row_rank_rule(sys, tol, report, mirrored=False)


def rank_c_iff(sys: BlockSystem, tol: ToleranceConfig | None = None, *,
               report: ConditionReport | None = None) -> Diagnosis:
    """Mirror of :func:`rank_b_iff` acting through the block reversal.

    Applies the full-row-rank rule to the reversed system (hypotheses become
    N1, p >= m, rank(C) = m, DS2, E positive semidefinite; the zero block is
    A).  Its witness pulls back through the permutation as [x; 0; -z1], with
    z1 the ker(E) component of z.
    """
    return _full_row_rank_rule(sys, tol, report, mirrored=True)


def e_iff_rule(sys: BlockSystem, tol: ToleranceConfig | None = None, *,
               report: ConditionReport | None = None) -> Diagnosis:
    """For a maximally rank-deficient leading block, E decides.

    Hypotheses: A and D positive semidefinite, N1, N2, N3, null(A) = m and
    lambda_max(D) < 2.  The system is then invertible exactly when E is
    nonsingular.  A singular verdict's witness is [x; 0; z] with z in ker(E),
    Q the null(A) = m kernel basis of A and x = Q c for the c solving
    B Q c = -C^T z; B Q is nonsingular by N1.  When lambda_max(D) >= 2,
    rescale the system first (see :func:`dsaddle.core.rescale_middle`).
    """
    report, an = _facts(sys, tol, report)
    hypotheses = (report.definiteness["A"].is_psd and report.definiteness["D"].is_psd
                  and report.holds("N1") and report.holds("N2") and report.holds("N3")
                  and an.A.nullity == sys.m and an.D.lambda_max < 2.0)
    if not hypotheses:
        return _undetermined(report)
    if an.E.nonsingular:
        return _invertible("e_iff", report)
    z = an.E.kernel.basis[:, 0]
    Q = an.A.kernel.basis
    x = Q @ np.linalg.solve(sys.B @ Q, -sys.C.T @ z)
    return _singular(an, "e_iff", _embed(sys, x=x, z=z), report)


def oracle_invertible(sys: BlockSystem, tol: ToleranceConfig | None = None) -> bool:
    """Ground truth from the eigenvalues of the assembled matrix."""
    return _analysis(sys, tol).k_nonsingular


_RULES = (schur_sufficient, e_iff_rule, corollary_rules, rank_b_iff,
          rank_c_iff, direct_sum_iff, psd_ladder)


def diagnose(sys: BlockSystem, tol: ToleranceConfig | None = None,
             with_oracle: bool = False) -> Diagnosis:
    """Run the whole ladder and return the first definitive verdict.

    Order: the necessary conditions (any failure short-circuits to
    singular), then schur_sufficient, e_iff_rule, corollary_rules,
    rank_b_iff, rank_c_iff, direct_sum_iff, psd_ladder.  The order is fixed
    so reports are reproducible.  Every rule, and every later call on the
    same system and tolerance, reads the one analysis the system holds.
    With ``with_oracle`` the dense ground truth is attached to the diagnosis.
    """
    an = _analysis(sys, tol)
    report = condition_report(sys, an.tol)
    result = _necessary_failure(an, report)
    if result is None:
        for rule in _RULES:
            candidate = rule(sys, an.tol, report=report)
            if candidate.verdict is not Verdict.UNDETERMINED:
                result = candidate
                break
        else:
            result = _undetermined(report)
    if with_oracle:
        result = replace(result, oracle_check=an.k_nonsingular)
    return result
