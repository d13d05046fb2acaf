"""Invertibility decision ladder for double saddle-point systems.

This module decides only: every fact it reads, each decomposition included,
is held by the analysis of the system (see :mod:`dsaddle.core`).  Each rule is
a row of one table: named hypotheses, read from that analysis, and a decide
step.  A rule returns a :class:`Diagnosis`: a definitive verdict (invertible
with the rule that fired, or singular with a unit kernel witness) or
"undetermined" when the hypotheses do not apply.  Rules never raise on
inapplicable input, so the ladder always terminates with a report.  The
inverse constructors check the same named hypotheses.

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

import re
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import BlockSystem, _alpha_bound, _analysis
from .errors import PreconditionError
from .subspaces import Definiteness
from .tolerances import ToleranceConfig

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
    if np.linalg.norm(an.K @ u) > an.tol.residual_rtol * scale:
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


def _necessary_failure(an, report):
    """The singular (or, past the witness check, undetermined) diagnosis of
    the first failed necessary condition; None when all three hold."""
    for cond_id, embed in (("N1", "x"), ("N2", "y"), ("N3", "z")):
        if not report.holds(cond_id):
            u = _embed(an.sys, **{embed: report.witness(cond_id)})
            return _singular(an, f"necessary:{cond_id}", u, report)
    return None


# ---------------------------------------------------------------------------
# named hypotheses, each checked in one place: the ladder rows and the
# constructors of dsaddle.inverses read the same entries
# ---------------------------------------------------------------------------

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


# name -> predicate on an analysis, giving whether the hypothesis holds and the
# reason a constructor gives when it fails; m is read from B, so analyses of
# loose blocks work too
_HYPOTHESES = {
    **_block_hypotheses("A"), **_block_hypotheses("D"), **_block_hypotheses("E"),
    "N1": lambda an: (an.n1.is_trivial, "ker(A) and ker(B) must intersect only in {0}"),
    "N2": lambda an: (an.n2.is_trivial, "ker(B^T), ker(D) and ker(C) must intersect only in {0}"),
    "N3": lambda an: (an.n3.is_trivial, "ker(C^T) and ker(E) must intersect only in {0}"),
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
    return all(_HYPOTHESES[name](an)[0] for name in names)


def _require(an, *names):
    """Raise PreconditionError naming the first hypothesis that fails."""
    for name in names:
        holds, reason = _HYPOTHESES[name](an)
        if not holds:
            raise PreconditionError(reason)


# The block reversal Q K Q^T (see dsaddle.core.permute_similar) swaps these
# names and fixes D, m, N2, R and the overlap, so a rule read on the reversed
# system is its row with the names swapped, read on the system itself.
_SWAP = {"A": "E", "B": "C", "n": "p", "N1": "N3", "DS1": "DS2"}
_SWAP.update({v: k for k, v in _SWAP.items()})
_SWAP_WORD = re.compile(r"\b(?:%s)\b" % "|".join(_SWAP))


def _reversed(row, name):
    """The row ``row`` applied to the block reversal, named ``name``."""
    swap = lambda h: _SWAP_WORD.sub(lambda w: _SWAP[w[0]], h)
    return (name, *(names and tuple(map(swap, names)) for names in row[1:]))


_PSD = ("A psd", "D psd", "E psd")
# with A, D and E semidefinite, null(K) = dim N2 + dim of the overlap
_PSD_IFF = ("N2", "overlap = {0}")
_COROLLARY_B = ("corollary_b_full_rank", ("A = 0", "m >= n", "D pd", "E pd"), _PSD_IFF, ())
_RANK_B = ("rank_b_iff", ("N3", "rank(B) = m", "DS1", "A psd"), ("R",), ("E = 0",))
_CASE_1 = ("psd_ladder:case1", (*_PSD, "N2"), ("A pd", "N3"), None)

# The ladder in diagnose order.  A row is a rule name, the hypotheses that make
# it apply and its decide step: invertible when the third names hold, else
# singular when the fourth hold (never when None), else undetermined.
_LADDER = (
    ("schur_sufficient", ("A nonsingular",), ("S1, S2 nonsingular",), None),
    ("e_iff", ("A psd", "D psd", "N1", "N2", "N3", "null(A) = m", "lambda_max(D) < 2"),
     ("E nonsingular",), ()),
    _COROLLARY_B, _reversed(_COROLLARY_B, "corollary_c_full_rank"),
    ("corollary_middle_kernels", ("D = 0", "A pd", "E pd"), _PSD_IFF, ()),
    _RANK_B, _reversed(_RANK_B, "rank_c_iff"),
    ("direct_sum_iff", (*_PSD, "N1", "N3", "N2"), ("R",), ("DS1", "DS2")),
    _CASE_1, _reversed(_CASE_1, "psd_ladder:case2"),
    ("psd_ladder:case3", (*_PSD, "N2"), ("R", "N3", "N1"), None),
    ("psd_iff", _PSD, _PSD_IFF, ()),
)


def _kernel_witness(an):
    """N2's [0; y; 0] when N2 fails, else the first overlap vector [x; 0; z]
    (None for {0}), which has A x = 0, E z = 0 and B x + C^T z = 0."""
    if not an.n2.is_trivial:
        return _embed(an.sys, y=_first(an.n2))
    v = _first(an.overlap)
    return None if v is None else _embed(an.sys, x=v[:an.sys.n], z=v[an.sys.n:])


def _walk(an, report, prefix=""):
    """The first definite verdict of the ladder rows whose names start with
    ``prefix``, or undetermined when none decides."""
    for name, hypotheses, invertible_if, singular_if in _LADDER:
        if not name.startswith(prefix) or not _hold(an, hypotheses):
            continue
        if _hold(an, invertible_if):
            return Diagnosis(Verdict.INVERTIBLE, name, report)
        if singular_if is not None and _hold(an, singular_if):
            diagnosis = _singular(an, name, _kernel_witness(an), report)
            if diagnosis.verdict is Verdict.SINGULAR:
                return diagnosis
    return _undetermined(report)


def _view(sys, tol, prefix):
    """A public rule: its ladder rows, decided on this system's report."""
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

    Hypotheses: A and D positive semidefinite, N1, N2, N3, null(A) = m and
    lambda_max(D) < 2.  The system is then invertible exactly when E is
    nonsingular.  By N1, B maps ker(A) onto R^m, so the witness of a
    singular verdict is the first overlap vector [x; 0; z].  When
    lambda_max(D) >= 2, rescale first (see :func:`dsaddle.core.rescale_middle`).
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

    Order: the necessary conditions (any failure short-circuits to
    singular, or undetermined when its witness fails), then schur_sufficient,
    e_iff_rule, corollary_rules, rank_b_iff, rank_c_iff, direct_sum_iff,
    psd_ladder, psd_iff.  The order is fixed so reports are reproducible.
    Every rule, and every later call on the same system and tolerance, reads
    the one analysis the system holds, :func:`oracle_invertible` included.
    """
    an = _analysis(sys, tol)
    report = condition_report(sys, an.tol)
    return _necessary_failure(an, report) or _walk(an, report)
