"""Invertibility decision ladder for double saddle-point systems.

This module decides only: every fact it reads, each decomposition included,
is held by the analysis of the system (see :mod:`dsaddle.core`).  Each rule is
a row of one table: named hypotheses, read from that analysis through the
table in :mod:`dsaddle.core` that the inverse constructors check too, and a
decide step.  A rule returns a :class:`Diagnosis`: invertible with the rule
that fired, singular with a unit kernel witness (one rule picks it for every
row), or "undetermined" when no row decides.  The first row that decides ends
the walk, a singular one whose witness fails its check as undetermined.  Rules
never raise on inapplicable input, so the ladder always ends with a report.

Condition identifiers used throughout:

    N1   ker(A) ∩ ker(B)           = {0}
    N2   ker(B^T) ∩ ker(D) ∩ ker(C) = {0}
    N3   ker(C^T) ∩ ker(E)         = {0}
    R    ran(B) ∩ ran(C^T)         = {0}
    DS1  ker(A) (+) ker(B)   = R^n   (direct sum)
    DS2  ker(E) (+) ker(C^T) = R^p   (direct sum)

N1, N2, N3 are necessary for invertibility and head the ladder: a failure of
any of them yields an explicit kernel vector of the assembled matrix.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import BlockSystem, _analysis, _hold
from .subspaces import ToleranceConfig, _norm

__all__ = ["ConditionEntry", "ConditionReport", "Diagnosis", "Verdict", "condition_report",
           "corollary_rules", "diagnose", "direct_sum_iff", "e_iff_rule", "necessary_conditions",
           "oracle_invertible", "psd_iff", "psd_ladder", "rank_b_iff", "rank_c_iff",
           "schur_sufficient"]

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

    def to_dict(self):
        out = {"verdict": self.verdict.value, "rule": self.rule}
        out.update(self.report.to_dict())
        if self.witness is not None:
            out["witness"] = [float(x) for x in self.witness]
        return out


def _unit(v):
    """v / ||v||: every v is a column of an orthonormal basis, or one placed into
    a full-length vector by :func:`_embed`, so its norm is never zero."""
    v = np.asarray(v, dtype=float).ravel()
    return v / np.linalg.norm(v)


def _first(basis):
    """Unit witness of a nontrivial subspace, None for the trivial one."""
    return None if basis.is_trivial else _unit(basis.basis[:, 0])


def _entry(an, cond_id: str) -> ConditionEntry:
    """The entry of one condition, read from the analysis."""
    if cond_id in ("DS1", "DS2"):
        return ConditionEntry(cond_id, getattr(an, cond_id.lower()))
    w = _first(getattr(an, cond_id.lower()))
    return ConditionEntry(cond_id, w is None, w)


def _singular(an, rule, witness, report):
    """A singular diagnosis when the witness is a kernel vector of K, else
    undetermined: no witness, or ||K u|| above residual_rtol times the largest
    block norm (at most ||K||_2), marks an input at the rank threshold."""
    if witness is None:
        return _undetermined(report)
    u = _unit(witness)
    scale = max(an.A.norm, an.D.norm, an.E.norm, an.B.norm, an.Ct.norm, 1e-300)
    if _norm(an.K @ u) > an.tol.residual_rtol * scale:
        return _undetermined(report)
    return Diagnosis(Verdict.SINGULAR, rule, report, witness=u)


def _undetermined(report):
    return Diagnosis(Verdict.UNDETERMINED, None, report)


def condition_report(sys: BlockSystem, tol: ToleranceConfig | None = None) -> ConditionReport:
    """Evaluate every condition the rules consult, in one pass."""
    an = _analysis(sys, tol)
    return ConditionReport(
        entries={c: _entry(an, c) for c in CONDITION_ORDER},
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
    return ConditionReport(entries={c: _entry(an, c) for c in ("N1", "N2", "N3")})


_PSD = ("A psd", "D psd", "E psd")
# with A, D and E semidefinite, null(K) = dim N2 + dim of the overlap
_PSD_IFF = ("N2", "overlap = {0}")

# The ladder in diagnose order.  A row is a rule name, the hypotheses that make
# it apply and its decide step: invertible when the third names hold, else
# singular when the fourth hold (a None side never holds), else undetermined.
# The _c_ rows and case2 are the _b_ rows and case1 read on the block reversal.
_LADDER = (
    *((f"necessary:{c}", (f"{c} fails",), None, ()) for c in ("N1", "N2", "N3")),
    ("schur_sufficient", ("A nonsingular",), ("S1, S2 nonsingular",), None),
    ("e_iff", ("A psd", "D psd", "N1", "N2", "N3", "null(A) = m"), ("E nonsingular",), ()),
    ("corollary_b_full_rank", ("A = 0", "m >= n", "D pd", "E pd"), _PSD_IFF, ()),
    ("corollary_c_full_rank", ("E = 0", "m >= p", "D pd", "A pd"), _PSD_IFF, ()),
    ("corollary_middle_kernels", ("D = 0", "A pd", "E pd"), _PSD_IFF, ()),
    ("rank_b_iff", ("N3", "rank(B) = m", "DS1", "A psd"), ("R",), ("E = 0",)),
    ("rank_c_iff", ("N1", "rank(C) = m", "DS2", "E psd"), ("R",), ("A = 0",)),
    ("direct_sum_iff", (*_PSD, "N1", "N3", "N2"), ("R",), ("DS1", "DS2")),
    ("psd_ladder:case1", (*_PSD, "N2"), ("A pd", "N3"), None),
    ("psd_ladder:case2", ("E psd", "D psd", "A psd", "N2"), ("E pd", "N1"), None),
    ("psd_ladder:case3", (*_PSD, "N2"), ("R", "N3", "N1"), None),
    ("psd_iff", _PSD, _PSD_IFF, ()),
)


def _kernel_witness(an):
    """The witness of every singular verdict: the first failing N1, N2 or N3 as
    [x; 0; 0], [0; y; 0] or [0; 0; z], else the first overlap vector [x; 0; z]
    (None for {0}), which has A x = 0, E z = 0 and B x + C^T z = 0."""
    for cond_id, block in (("n1", "x"), ("n2", "y"), ("n3", "z")):
        w = _first(getattr(an, cond_id))
        if w is not None:
            return _embed(an.sys, **{block: w})
    v = _first(an.overlap)
    return None if v is None else _embed(an.sys, x=v[:an.sys.n], z=v[an.sys.n:])


def _walk(an, report, prefix=""):
    """The verdict of the first row named from ``prefix`` that decides, where a
    failed witness ends the walk as undetermined; undetermined when none does."""
    for name, hypotheses, invertible_if, singular_if in _LADDER:
        if not name.startswith(prefix) or not _hold(an, hypotheses):
            continue
        if _hold(an, invertible_if):
            return Diagnosis(Verdict.INVERTIBLE, name, report)
        if _hold(an, singular_if):
            return _singular(an, name, _kernel_witness(an), report)
    return _undetermined(report)


def _view(sys, tol, prefix):
    """The ladder rows named from ``prefix`` (all of them for ""), decided on this
    system's report: a public rule, or diagnose."""
    an = _analysis(sys, tol)
    return _walk(an, condition_report(sys, an.tol), prefix)


def schur_sufficient(sys: BlockSystem, tol: ToleranceConfig | None = None) -> Diagnosis:
    """Sufficient test through the two Schur complements.

    When A is numerically nonsingular, forms S1 = D + B A^{-1} B^T and, when
    S1 is nonsingular, S2 = E + C S1^{-1} C^T.  Both nonsingular certifies
    invertibility.  The rule is one-sided: anything else is undetermined.
    """
    return _view(sys, tol, "schur_sufficient")


def psd_ladder(sys: BlockSystem, tol: ToleranceConfig | None = None) -> Diagnosis:
    """Sufficient conditions under semidefinite diagonal blocks.

    Requires A, D, E positive semidefinite and N2.  Fires the first case
    that matches:

      case 1: A positive definite and N3        -> invertible
      case 2: E positive definite and N1        -> invertible
      case 3: R together with N3 and N1         -> invertible
    """
    return _view(sys, tol, "psd_ladder:")


def corollary_rules(sys: BlockSystem, tol: ToleranceConfig | None = None) -> Diagnosis:
    """Three if-and-only-if special cases with one zero diagonal block.

      A = 0, D and E positive definite, m >= n:  invertible iff rank(B) = n
      E = 0, A and D positive definite, m >= p:  invertible iff rank(C) = p
      D = 0, A and E positive definite:          invertible iff
                                                 ker(B^T) ∩ ker(C) = {0}

    Each is the semidefinite verdict, with overlap ker(B), ker(C^T) or {0}:
    a singular one carries [x; 0; 0], [0; 0; z] or N2's [0; y; 0].
    """
    return _view(sys, tol, "corollary_")


def direct_sum_iff(sys: BlockSystem, tol: ToleranceConfig | None = None) -> Diagnosis:
    """Range-overlap test that becomes definitive under direct sums.

    Hypotheses: A, D, E positive semidefinite with N1, N3 and N2 holding.
    R then implies invertibility.  When R fails while both DS1 and DS2 hold,
    the system is singular: B maps ker(A) onto ran(B) and C^T maps ker(E)
    onto ran(C^T), so a shared direction B x = -C^T z has x in ker(A) and z
    in ker(E).  The witness is the first overlap vector [x; 0; z].
    """
    return _view(sys, tol, "direct_sum_iff")


def rank_b_iff(sys: BlockSystem, tol: ToleranceConfig | None = None) -> Diagnosis:
    """Range-overlap rule for full-row-rank B, definitive when E = 0.

    Hypotheses: N3, rank(B) = m (so n >= m), DS1, and A positive semidefinite.
    R implies invertibility.  When E is the zero block and R fails, the
    system is singular: by DS1 a shared direction B x = -C^T z has x in
    ker(A), and the witness is the first overlap vector [x; 0; z].
    """
    return _view(sys, tol, "rank_b_iff")


def rank_c_iff(sys: BlockSystem, tol: ToleranceConfig | None = None) -> Diagnosis:
    """Mirror of :func:`rank_b_iff` acting through the block reversal.

    Applies the full-row-rank rule to the reversed system (hypotheses become
    N1, rank(C) = m (so p >= m), DS2, E positive semidefinite; the zero block is
    A).  Its witness is the first overlap vector [x; 0; z], z in ker(E) by DS2.
    """
    return _view(sys, tol, "rank_c_iff")


def e_iff_rule(sys: BlockSystem, tol: ToleranceConfig | None = None) -> Diagnosis:
    """For a maximally rank-deficient leading block, E decides.

    Hypotheses: A and D positive semidefinite, N1, N2, N3 and null(A) = m.
    The system is then invertible exactly when E is nonsingular.  The paper
    also asks lambda_max(D) < 2, but :func:`dsaddle.core.rescale_middle`
    reaches that bound keeping K's invertibility and every other hypothesis,
    so the verdict does not depend on it.  By N1, B maps ker(A) onto R^m, so
    the witness of a singular verdict is the first overlap vector [x; 0; z].
    """
    return _view(sys, tol, "e_iff")


def psd_iff(sys: BlockSystem, tol: ToleranceConfig | None = None) -> Diagnosis:
    """The semidefinite if-and-only-if: with A, D and E positive
    semidefinite, K is invertible exactly when N2 holds and
    ker(A (+) E) ∩ ker[B | C^T] = {0}, since null(K) is the sum of their
    dimensions.  Anything else is undetermined."""
    return _view(sys, tol, "psd_iff")


def oracle_invertible(sys: BlockSystem, tol: ToleranceConfig | None = None) -> bool:
    """Ground truth from the eigenvalues of the assembled matrix."""
    return _analysis(sys, tol).k_nonsingular


def diagnose(sys: BlockSystem, tol: ToleranceConfig | None = None) -> Diagnosis:
    """Run the whole ladder and return the first definitive verdict.

    Order: the necessary conditions N1, N2, N3, then schur_sufficient,
    e_iff_rule, corollary_rules, rank_b_iff, rank_c_iff, direct_sum_iff,
    psd_ladder, psd_iff.  The first row that decides ends the walk; a singular
    one whose witness fails its check answers undetermined.  The order is
    fixed so reports are reproducible.  Every rule, and every later call on
    the same system and tolerance, reads the one analysis the system holds,
    :func:`oracle_invertible` included.
    """
    return _view(sys, tol, "")
