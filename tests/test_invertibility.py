"""Rule-by-rule tests for the invertibility decision ladder."""

import ast
import dataclasses
import gc
import weakref
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsaddle.inverses as inverses
import dsaddle.invertibility as invertibility
from dsaddle import (
    DEFAULT_TOL,
    BlockSystem,
    Definiteness,
    GeneratorSpec,
    Verdict,
    assemble,
    condition_report,
    corollary_rules,
    diagnose,
    direct_sum_iff,
    e_iff_rule,
    gen_instance,
    necessary_conditions,
    oracle_invertible,
    permute_similar,
    psd_iff,
    psd_ladder,
    rank_b_iff,
    rank_c_iff,
    rescale_middle,
    schur_sufficient,
    three_block_inverse,
    verify_identities,
)

from _families import (
    answers_tool,
    cold_copy,
    direct_sum_singular,
    extreme_scale_systems,
    fixture_three_block,
    max_deficient,
    noisy,
    psd_disjoint_ranges,
    random_systems,
    range_angle,
)
from dsaddle.core import _HYPOTHESES, _analysis
from dsaddle.subspaces import nullity, rank_threshold


def scalar_system(a, b, c, d, e):
    return BlockSystem(np.array([[a]]), np.array([[b]]), np.array([[c]]),
                       np.array([[d]]), np.array([[e]]))


def witness_is_sound(sys, diag, rtol=1e-8):
    K = assemble(sys).matrix
    u = diag.witness
    assert u is not None and np.linalg.norm(u) == pytest.approx(1.0)
    return np.linalg.norm(K @ u) <= rtol * np.linalg.norm(K, 2)


# the public rules in the order diagnose tries them, after the necessary conditions
PUBLIC_RULES = (schur_sufficient, e_iff_rule, corollary_rules, rank_b_iff, rank_c_iff,
                direct_sum_iff, psd_ladder, psd_iff)


class TestNecessaryConditions:
    def test_all_zero_blocks_fail_n1(self):
        report = necessary_conditions(scalar_system(0, 0, 0, 0, 0))
        assert not report.holds("N1")
        np.testing.assert_allclose(np.abs(report.witness("N1")), [1.0])

    def test_pd_a_satisfies_n1(self):
        report = necessary_conditions(scalar_system(1.0, 0.0, 1.0, 1.0, 1.0))
        assert report.holds("N1")

    def test_full_rank_bt_satisfies_n2(self):
        report = necessary_conditions(scalar_system(2.0, 1.0, 1.0, 0.0, 3.0))
        assert report.holds("N2")

    def test_diagnose_short_circuits_with_embedded_witness(self):
        sys = BlockSystem(np.zeros((2, 2)), np.array([[0.0, 0.0]]),
                          np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))
        diag = diagnose(sys)
        assert diag.verdict is Verdict.SINGULAR
        assert diag.rule == "necessary:N1"
        assert witness_is_sound(sys, diag)


class TestSchurSufficient:
    def test_identity_blocks(self):
        # S1 = I and S2 = I, both invertible
        diag = schur_sufficient(scalar_system(1.0, 0.0, 0.0, 1.0, 1.0))
        assert diag.verdict is Verdict.INVERTIBLE
        # an indefinite D is no obstacle as long as the chain stays regular
        diag = schur_sufficient(scalar_system(1.0, 0.0, 0.0, -1.0, 1.0))
        assert diag.verdict is Verdict.INVERTIBLE

    def test_singular_a_is_undetermined(self):
        diag = schur_sufficient(scalar_system(0.0, 1.0, 1.0, 0.0, 1.0))
        assert diag.verdict is Verdict.UNDETERMINED

    def test_scalar_chain(self):
        sys = scalar_system(2.0, 1.0, 1.0, 0.0, 3.0)
        diag = schur_sufficient(sys)
        # S1 = 0 + 1/2, S2 = 3 + 1/(1/2) = 5; determinant oracle agrees
        assert diag.verdict is Verdict.INVERTIBLE
        assert np.linalg.det(assemble(sys).matrix) != pytest.approx(0.0)

    def test_sound_on_random_pd_leading_block(self):
        for seed in range(40):
            spec = GeneratorSpec(n=4, m=3, p=2, null_a=0, null_d=1, null_e=1,
                                 rank_b=2, rank_c=2, seed=seed)
            sys, _ = gen_instance(spec)
            diag = schur_sufficient(sys)
            if diag.verdict is Verdict.INVERTIBLE:
                assert oracle_invertible(sys)

    def test_overflowing_schur_complement_certifies_nothing(self):
        # S1 = D + B A^{-1} B^T = 1e320 overflows, so the Schur test is inconclusive
        # and the walk goes on to the corollary the oracle agrees with
        sys = scalar_system(1.0, 1e160, 1.0, 0.0, 1.0)
        assert schur_sufficient(sys).verdict is Verdict.UNDETERMINED
        diag = diagnose(sys)
        assert (diag.verdict, diag.rule) == (Verdict.SINGULAR, "corollary_middle_kernels")
        assert not oracle_invertible(sys)


class TestPsdLadder:
    def test_case1_pd_leading_block(self):
        sys = BlockSystem(np.eye(2), np.array([[1.0, 0.0]]), np.array([[1.0]]),
                          np.array([[0.0]]), np.array([[1.0]]))
        diag = psd_ladder(sys)
        assert diag.verdict is Verdict.INVERTIBLE and diag.rule == "psd_ladder:case1"

    def test_case2_running_example(self):
        sys = fixture_three_block()
        diag = psd_ladder(sys)
        assert diag.verdict is Verdict.INVERTIBLE and diag.rule == "psd_ladder:case2"
        assert oracle_invertible(sys)

    def test_case3_disjoint_ranges(self):
        sys, cert = psd_disjoint_ranges(seed=1)
        assert cert.range_disjoint
        diag = psd_ladder(sys)
        assert diag.verdict is Verdict.INVERTIBLE
        assert diag.rule.startswith("psd_ladder")
        assert oracle_invertible(sys)

    def test_indefinite_d_is_undetermined(self):
        sys = scalar_system(1.0, 1.0, 1.0, -1.0, 1.0)
        assert psd_ladder(sys).verdict is Verdict.UNDETERMINED

    def test_a_with_kernel_below_the_cut_is_not_definite(self):
        """An eigenvalue of A that fails the N1 cut is zero for the tags too:
        A is semidefinite, N1 fails and case 1 does not fire."""
        sys = BlockSystem(np.diag([1.0, 1.5e-10]), np.array([[1.0, 0.0]]),
                          np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))
        report = condition_report(sys)
        assert report.definiteness["A"] is Definiteness.POSITIVE_SEMIDEFINITE
        assert not report.holds("N1")
        assert psd_ladder(sys).verdict is not Verdict.INVERTIBLE
        assert diagnose(sys).rule == "necessary:N1"
        assert not oracle_invertible(sys)


class TestCorollaries:
    def test_rank_b_deficient_is_singular(self):
        sys = scalar_system(0.0, 0.0, 1.0, 1.0, 1.0)
        diag = corollary_rules(sys)
        assert diag.verdict is Verdict.SINGULAR
        assert diag.rule == "corollary_b_full_rank"
        assert witness_is_sound(sys, diag)

    def test_rank_b_full_is_invertible(self):
        sys = scalar_system(0.0, 1.0, 0.0, 1.0, 1.0)
        diag = corollary_rules(sys)
        assert diag.verdict is Verdict.INVERTIBLE
        assert np.abs(np.linalg.det(assemble(sys).matrix)) > 1e-12

    def test_rank_c_direction(self):
        invertible = scalar_system(1.0, 1.0, 1.0, 1.0, 0.0)
        assert corollary_rules(invertible).verdict is Verdict.INVERTIBLE
        singular = scalar_system(1.0, 1.0, 0.0, 1.0, 0.0)
        diag = corollary_rules(singular)
        assert diag.verdict is Verdict.SINGULAR and witness_is_sound(singular, diag)

    def test_middle_kernel_corollary(self):
        invertible = scalar_system(1.0, 1.0, 0.0, 0.0, 1.0)
        diag = corollary_rules(invertible)
        assert diag.verdict is Verdict.INVERTIBLE
        assert diag.rule == "corollary_middle_kernels"
        # m = 2 with B^T and C both annihilating e2
        singular = BlockSystem(np.eye(1), np.array([[1.0], [0.0]]),
                               np.array([[1.0, 0.0]]), np.zeros((2, 2)), np.eye(1))
        diag = corollary_rules(singular)
        assert diag.verdict is Verdict.SINGULAR and witness_is_sound(singular, diag)

    def test_no_corollary_applies(self):
        assert corollary_rules(fixture_three_block()).verdict is Verdict.UNDETERMINED

    def test_pd_blocks_with_zero_d_generically_invertible(self):
        # independent kernel placements make ker(B^T) and ker(C) meet only
        # in {0} for generic draws, so the middle-kernel corollary fires
        for seed in range(10):
            spec = GeneratorSpec(n=4, m=3, p=3, null_d=3, rank_b=2, rank_c=2,
                                 seed=seed)
            sys, _ = gen_instance(spec)
            diag = corollary_rules(sys)
            assert diag.verdict is Verdict.INVERTIBLE
            assert diag.rule == "corollary_middle_kernels"
            assert oracle_invertible(sys)


class TestDirectSumIff:
    def test_invertible_when_ranges_disjoint(self):
        sys, _ = psd_disjoint_ranges(seed=2)
        assert direct_sum_iff(sys).verdict is Verdict.INVERTIBLE

    def test_subsumes_ladder_case3(self):
        case3_seen = 0
        for seed in range(8):
            sys, _ = psd_disjoint_ranges(seed=seed)
            ladder = psd_ladder(sys)
            if ladder.rule == "psd_ladder:case3":
                case3_seen += 1
                assert direct_sum_iff(sys).verdict is Verdict.INVERTIBLE
        assert case3_seen > 0

    def test_spec_singular_example(self):
        # aligned ranges with both direct sums holding
        sys = BlockSystem(np.diag([0.0, 1.0]), np.array([[1.0, 0.0]]),
                          np.array([[1.0], [0.0]]), np.array([[0.0]]),
                          np.diag([0.0, 1.0]))
        diag = direct_sum_iff(sys)
        assert diag.verdict is Verdict.SINGULAR
        assert witness_is_sound(sys, diag)
        expected = np.zeros(5)
        expected[0], expected[3] = 1.0, -1.0
        got = diag.witness * np.sign(diag.witness[0])
        np.testing.assert_allclose(got, expected / np.sqrt(2.0), atol=1e-12)

    def test_generated_singular_family(self):
        for seed in range(10):
            sys, _ = direct_sum_singular(seed)
            diag = direct_sum_iff(sys)
            assert diag.verdict is Verdict.SINGULAR
            assert witness_is_sound(sys, diag)
            assert not oracle_invertible(sys)

    def test_r_failing_with_a_trivial_overlap_is_undetermined(self):
        """b and c are unit vectors of R^20 at the angle 6e-9: R, which compares
        orthonormal range bases, fails at its unit-scale cut, while the overlap,
        cut at the scale of [B | C^T] with the stacked shape, keeps the
        smallest singular value of [b | c], about 4.2e-9, and stays trivial.  The
        singular step then has no witness, so the rule answers undetermined."""
        theta = 6e-9
        b, c = np.zeros((20, 1)), np.zeros((20, 1))
        b[0], c[:2, 0] = 1.0, (np.cos(theta), np.sin(theta))
        sys = BlockSystem(np.zeros((1, 1)), b, c.T, np.eye(20), np.zeros((1, 1)))
        report = condition_report(sys)
        assert not report.holds("R") and report.holds("DS1") and report.holds("DS2")
        assert invertibility._analysis(sys, None).overlap.is_trivial
        diag = direct_sum_iff(sys)
        assert (diag.verdict, diag.rule, diag.witness) == (Verdict.UNDETERMINED, None, None)

    def test_undetermined_when_direct_sum_fails(self):
        # ranges overlap but ker(A) + ker(B) does not fill R^n
        sys = BlockSystem(np.diag([1.0, 1.0, 0.0]), np.array([[1.0, 0.0, 0.0]]),
                          np.array([[1.0]]), np.array([[0.0]]), np.array([[0.0]]))
        assert direct_sum_iff(sys).verdict is Verdict.UNDETERMINED


class TestRankBIff:
    def test_invertible_needs_decoupled_c(self):
        # rank(B) = m makes ran(B) everything, so R forces C = 0
        sys, _ = max_deficient(seed=3, rank_c=0)
        diag = rank_b_iff(sys)
        assert diag.verdict is Verdict.INVERTIBLE
        assert oracle_invertible(sys)

    def test_zero_e_overlap_is_singular(self):
        n, m, p = 4, 2, 2
        spec = GeneratorSpec(n=n, m=m, p=p, null_a=m, rank_b=m, rank_c=p,
                             null_e=p, require_ds2=True, seed=17)
        sys, cert = gen_instance(spec)
        assert not cert.range_disjoint and not sys.E.any()
        diag = rank_b_iff(sys)
        assert diag.verdict is Verdict.SINGULAR
        assert witness_is_sound(sys, diag)
        assert not oracle_invertible(sys)

    def test_rank_deficient_b_undetermined(self):
        spec = GeneratorSpec(n=4, m=2, p=2, null_a=1, rank_b=1, rank_c=2, seed=5)
        sys, _ = gen_instance(spec)
        assert rank_b_iff(sys).verdict is Verdict.UNDETERMINED


class TestRankCIff:
    def test_mirrors_rank_b_on_reversed_system(self):
        for seed in (0, 4, 9):
            sys, _ = max_deficient(seed=seed, rank_c=0)
            mirrored = permute_similar(sys)
            direct = rank_b_iff(sys).verdict
            assert rank_c_iff(mirrored).verdict == direct

    def test_zero_a_overlap_is_singular(self):
        spec = GeneratorSpec(n=2, m=2, p=5, null_a=2, rank_b=2, rank_c=2,
                             null_e=2, require_ds1=True, require_ds2=True,
                             seed=13)
        sys, _ = gen_instance(spec)
        assert not sys.A.any()
        diag = rank_c_iff(sys)
        assert diag.verdict is Verdict.SINGULAR
        assert witness_is_sound(sys, diag)
        assert not oracle_invertible(sys)

    def test_small_p_undetermined(self):
        sys = BlockSystem(np.zeros((1, 1)), np.array([[1.0], [0.0]]),
                          np.ones((1, 2)), np.eye(2), np.ones((1, 1)))
        assert rank_c_iff(sys).verdict is Verdict.UNDETERMINED


class TestEIffRule:
    def test_running_example_invertible(self):
        diag = e_iff_rule(fixture_three_block())
        assert diag.verdict is Verdict.INVERTIBLE and diag.rule == "e_iff"

    def test_zero_e_singular_with_assembled_kernel_witness(self):
        sys = BlockSystem(np.diag([0.0, 1.0]), np.array([[1.0, 0.0]]),
                          np.array([[1.0]]), np.array([[0.0]]), np.array([[0.0]]))
        diag = e_iff_rule(sys)
        assert diag.verdict is Verdict.SINGULAR
        assert witness_is_sound(sys, diag)

    def test_large_d_decided_without_rescaling(self):
        """lambda_max(D) = 5 leaves the verdict to E, as on its rescaling below 2."""
        sys = BlockSystem(np.diag([0.0, 1.0]), np.array([[1.0, 0.0]]),
                          np.array([[1.0]]), np.array([[5.0]]), np.array([[2.0]]))
        shrunk = rescale_middle(sys, 0.5)
        for system in (sys, shrunk):
            diag = e_iff_rule(system)
            assert (diag.verdict, diag.rule) == (Verdict.INVERTIBLE, "e_iff")
        assert oracle_invertible(sys) == oracle_invertible(shrunk) is True

    def test_singular_e_family(self):
        for seed in range(8):
            sys, cert = max_deficient(seed=seed, null_e=1)
            assert cert.n3  # kernel of E placed inside ran(C)
            diag = e_iff_rule(sys)
            assert diag.verdict is Verdict.SINGULAR
            assert witness_is_sound(sys, diag)


class TestPsdIff:
    def test_decides_a_system_the_other_rules_leave_open(self):
        # hand-valued, A, D and E semidefinite, R fails and neither direct sum holds
        sys = BlockSystem(np.array([[0.5, 0.0, -1.0], [0.0, 0.5, 0.0], [-1.0, 0.0, 2.0]]),
                          np.array([[-1.0, 0.0, 2.0], [0.0, 0.0, -1.0]]),
                          np.array([[2.0, -1.0]]), np.diag([0.0, 1.0]), np.zeros((1, 1)))
        report = condition_report(sys)
        assert all(report.definiteness[k].is_psd for k in "ADE") and not report.holds("R")
        for rule in PUBLIC_RULES[:-1]:
            assert rule(sys).verdict is Verdict.UNDETERMINED, rule.__name__
        diag = diagnose(sys)
        assert (diag.verdict, diag.rule, oracle_invertible(sys)) == \
            (Verdict.INVERTIBLE, "psd_iff", True)

    def test_singular_witness_is_the_first_overlap_vector(self):
        # ker(A) = ker(E) = span(e1) and B e1 = C^T e1: the overlap is (e1, -e1)
        sys = BlockSystem(np.diag([0.0, 1.0]), np.array([[1.0, 0.0]]),
                          np.array([[1.0], [0.0]]), np.array([[0.0]]), np.diag([0.0, 1.0]))
        diag = psd_iff(sys)
        assert diag.verdict is Verdict.SINGULAR and diag.rule == "psd_iff"
        assert witness_is_sound(sys, diag)
        got = diag.witness * np.sign(diag.witness[0])
        np.testing.assert_allclose(got, np.array([1.0, 0.0, 0.0, -1.0, 0.0]) / np.sqrt(2.0),
                                   atol=1e-12)

    def test_indefinite_block_is_undetermined(self):
        sys = BlockSystem(np.diag([0.0, -1.0]), np.array([[1.0, 0.0]]),
                          np.array([[1.0], [0.0]]), np.array([[1.0]]), np.diag([0.0, -1.0]))
        assert psd_iff(sys).verdict is Verdict.UNDETERMINED


class TestLadderTable:
    def test_diagnose_is_the_first_definite_public_rule(self):
        """Where N1-N3 hold, diagnose answers as the first public rule, in the
        documented order, with a definite verdict, or undetermined when none
        has one: on random_systems specs, the test families and hand-valued
        systems (entries from {0, +-1, 2, 0.5})."""
        checked = 0
        for name, corpus in answers_tool().CORPORA:
            if name == "noisy":
                continue
            for system in islice(corpus(1), 150):
                if not all(necessary_conditions(system).holds(c) for c in ("N1", "N2", "N3")):
                    continue
                views = [rule(system).to_dict() for rule in PUBLIC_RULES]
                expected = next((v for v in views if v["verdict"] != "undetermined"), views[-1])
                assert diagnose(system).to_dict() == expected, name
                checked += 1
        assert checked >= 200

    @pytest.mark.parametrize("theta", [5e-9, 6e-9, 7e-9])
    def test_a_singular_row_whose_witness_fails_ends_the_walk(self, theta):
        """On the range-angle system R fails, so direct_sum_iff proves singular,
        but the overlap is still {0} and no witness exists: diagnose answers
        undetermined rather than psd_iff's invertible against the oracle."""
        system = range_angle(theta)
        assert not oracle_invertible(system)
        assert diagnose(system).verdict is Verdict.UNDETERMINED
        assert direct_sum_iff(system).verdict is Verdict.UNDETERMINED

    def test_every_singular_view_carries_a_kernel_witness(self):
        """Every singular verdict of every public rule on the hand and spec
        corpora carries a sound witness, on systems failing N1 or N3 too, where
        the witness is that condition's vector."""
        checked = failing = 0
        for name, corpus in answers_tool().CORPORA:
            if name not in ("hand", "spec"):
                continue
            for system in corpus(1):
                report = necessary_conditions(system)
                for rule in PUBLIC_RULES:
                    diag = rule(system)
                    if diag.verdict is Verdict.SINGULAR:
                        assert witness_is_sound(system, diag), (name, rule.__name__)
                        checked += 1
                        failing += not (report.holds("N1") and report.holds("N3"))
        assert checked >= 200 and failing >= 100

    def test_every_hypothesis_name_is_in_the_table(self):
        used = {h for _, *groups in invertibility._LADDER for names in groups if names
                for h in names}
        calls = [node for node in ast.walk(ast.parse(Path(inverses.__file__).read_text()))
                 if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) in ("_require", "_projector")]
        required = {arg.value for call in calls for arg in call.args
                    if isinstance(arg, ast.Constant)}
        assert {"rank(B) = m", "lambda_max(D) < 2", "K invertible"} <= required
        assert used | required <= set(_HYPOTHESES)

    def test_block_reversal_renames_rows(self):
        rows = {row[0]: row[1:] for row in invertibility._LADDER}
        assert rows["rank_c_iff"] == (("N1", "rank(C) = m", "DS2", "E psd"),
                                      ("R",), ("A = 0",))
        assert rows["corollary_c_full_rank"] == (("E = 0", "m >= p", "D pd", "A pd"),
                                                 ("N2", "overlap = {0}"), ())
        assert rows["psd_ladder:case2"] == (("E psd", "D psd", "A psd", "N2"),
                                            ("E pd", "N1"), None)

    def test_no_invertible_exit_is_shadowed_but_case3(self):
        """A row decides invertible in diagnose only if no earlier row needs a
        subset of its hypotheses, its invertible side and N1-N3 (which hold past
        the ladder's necessary rows).  psd_ladder:case3 is the one such row: where
        it decides invertible, direct_sum_iff already has, so it fires only
        through the psd_ladder view."""
        facts = [(name, {*hypotheses, *(invertible_if or ())})
                 for name, hypotheses, invertible_if, _ in invertibility._LADDER]
        shadowed = [(later, earlier) for j, (later, holds) in enumerate(facts)
                    for earlier, needs in facts[:j] if needs <= holds | {"N1", "N2", "N3"}]
        assert shadowed == [("psd_ladder:case3", "direct_sum_iff")]


def _oracle_nullity(sys):
    """null(K) from an SVD of the assembled matrix under the default rank cut."""
    s = np.linalg.svd(assemble(sys).matrix, compute_uv=False)
    return int((s <= DEFAULT_TOL.rank_rtol * sys.ell * s.max()).sum())


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_semidefinite_nullity_is_n2_plus_overlap(seed):
    """With A, D and E semidefinite, null(K) = dim N2 + dim(ker(A (+) E) ∩
    ker[B | C^T]), psd_iff decides K, and every singular witness is sound."""
    for sys in random_systems(4, seed):
        if not all(tag.is_psd for tag in condition_report(sys).definiteness.values()):
            continue
        an = invertibility._analysis(sys, None)
        nullity_k = _oracle_nullity(sys)
        assert an.n2.dim + an.overlap.dim == nullity_k
        for diag in (psd_iff(sys), diagnose(sys)):
            assert diag.verdict is (Verdict.SINGULAR if nullity_k else Verdict.INVERTIBLE)
            if nullity_k:
                assert witness_is_sound(sys, diag)


def test_witness_failing_its_check_is_undetermined():
    # under rank_rtol 1e-6, A's eigenvalue 1e-7 counts as zero, so N1 fails, but
    # ||K u|| = 1e-7 for its witness u = e2, above residual_rtol times every block norm
    sys = BlockSystem(np.diag([1.0, 1e-7]), np.array([[1.0, 0.0]]), np.array([[1.0]]),
                      np.array([[0.0]]), np.array([[1.0]]))
    tol = dataclasses.replace(DEFAULT_TOL, rank_rtol=1e-6)
    assert not condition_report(sys, tol).holds("N1")
    diag = diagnose(sys, tol)
    assert (diag.verdict, diag.rule, diag.witness) == (Verdict.UNDETERMINED, None, None)


def test_diagnose_reports_on_extreme_scale_blocks():
    """Entries from 1e-310 to 1e300 overflow products such as the Schur
    complements, yet diagnose ends with a report on every system and, under the
    suite's error filter, warns nothing."""
    verdicts = {diagnose(system).verdict for system in extreme_scale_systems(300)}
    assert verdicts == set(Verdict)


def test_tags_read_the_rank_cut_on_noisy_systems():
    """With noise near the rank cut on A, D and E, a positive definite tag
    still means nullity 0 and positive eigenvalues, and an indefinite tag
    exactly an eigenvalue below -cut or below -1e-10 ||M||_2, as decided
    from each block independently."""
    rng = np.random.default_rng(2)
    for system in (noisy(s, rng) for s in random_systems(200, seed=2)):
        tags = condition_report(system).definiteness
        for name in "ADE":
            M = getattr(system, name)
            lam = np.linalg.eigvalsh(M)
            norm = np.abs(lam).max()
            negative = bool(lam[0] < -min(rank_threshold(norm, M.shape), 1e-10 * norm))
            assert (tags[name] is Definiteness.INDEFINITE) == negative, (name, lam)
            if tags[name] is Definiteness.POSITIVE_DEFINITE:
                assert nullity(M) == 0 and lam[0] > 0, (name, lam)


class TestOracle:
    def test_examples(self):
        assert oracle_invertible(scalar_system(1.0, 0.0, 0.0, -1.0, 1.0))
        assert not oracle_invertible(scalar_system(0, 0, 0, 0, 0))
        assert oracle_invertible(fixture_three_block())


class TestDiagnose:
    def test_ladder_prefers_schur_for_pd_a(self):
        diag = diagnose(scalar_system(2.0, 1.0, 1.0, 0.0, 3.0))
        assert diag.verdict is Verdict.INVERTIBLE
        assert diag.rule == "schur_sufficient"

    def test_undetermined_system(self):
        # indefinite singular A and indefinite singular E defeat every rule
        sys = BlockSystem(np.diag([0.0, -1.0]), np.array([[1.0, 0.0]]),
                          np.array([[1.0], [0.0]]), np.array([[1.0]]),
                          np.diag([0.0, -1.0]))
        diag = diagnose(sys)
        assert diag.verdict is Verdict.UNDETERMINED
        assert not oracle_invertible(sys)  # undetermined is allowed either way

    def test_json_payload_shape(self):
        payload = diagnose(fixture_three_block()).to_dict()
        assert payload["verdict"] == "invertible"
        ids = [entry["id"] for entry in payload["conditions"]]
        assert ids == ["N1", "N2", "N3", "R", "DS1", "DS2"]
        assert payload["definiteness"]["A"] == "positive_semidefinite"
        assert payload["ranks"] == {"B": 1, "C": 1}

    def test_block_near_the_float_maximum_keeps_a_finite_spectrum(self):
        """D[0, 0] = 1e308 overflowed D + D^T: D read a NaN spectrum, was tagged
        psd, and e_iff answered invertible where the oracle says singular.
        Halved before it is summed, D's spectrum stays finite.  The norm of K u
        in the singular witness check, whose square overflows, is read on K u
        scaled by a power of two, so no warning is raised (the suite's filter
        makes one an error) and N2's witness is kept, as the oracle agrees."""
        system, _ = gen_instance(GeneratorSpec(6, 3, 2, null_a=3, require_ds1=True, seed=3))
        D = system.D.copy()
        D[0, 0] = 1e308
        system = BlockSystem(system.A, system.B, system.C, D, system.E)
        diag = diagnose(system)
        assert (diag.verdict, diag.rule) == (Verdict.SINGULAR, "necessary:N2")
        assert np.isfinite(_analysis(system, None).D.eigenvalues).all()
        assert not oracle_invertible(system)

    def test_soundness_over_mixed_families(self):
        families = (
            lambda seed: max_deficient(seed % 6, null_e=seed % 2),
            lambda seed: psd_disjoint_ranges(seed % 6),
            lambda seed: direct_sum_singular(seed % 6),
        )
        for seed in range(18):
            sys, _ = families[seed % 3](seed)
            diag = diagnose(sys)
            if diag.verdict is Verdict.INVERTIBLE:
                assert oracle_invertible(sys)
            elif diag.verdict is Verdict.SINGULAR:
                assert witness_is_sound(sys, diag)

    def test_permutation_coherence(self):
        for seed in range(12):
            sys, _ = max_deficient(seed % 6, null_e=seed % 2)
            one = diagnose(sys).verdict
            other = diagnose(permute_similar(sys)).verdict
            definitive = {Verdict.INVERTIBLE, Verdict.SINGULAR}
            if one in definitive and other in definitive:
                assert one == other


class TestHeldAnalysis:
    def test_freed_with_its_system(self):
        """The analysis refers back weakly, so with the cyclic collector off
        the system and its decompositions go with the last reference."""
        sys = cold_copy(max_deficient(seed=3, null_d=1)[0])
        enabled = gc.isenabled()
        gc.disable()
        try:
            diagnose(sys)
            verify_identities(sys)
            refs = weakref.ref(sys), weakref.ref(invertibility._analysis(sys, None))
            del sys
            assert [ref() for ref in refs] == [None, None]
        finally:
            if enabled:
                gc.enable()

    def test_each_tolerance_has_its_own_analysis(self):
        # ker(A) ∩ ker(B) = span(e2) under the looser rank cut only
        blocks = (np.diag([1.0, 1e-9]), np.array([[1.0, 0.0]]), np.array([[1.0]]),
                  np.array([[0.0]]), np.array([[1.0]]))
        tols = (DEFAULT_TOL, dataclasses.replace(DEFAULT_TOL, rank_rtol=1e-8), DEFAULT_TOL)
        held = BlockSystem(*blocks)
        seen = [diagnose(held, tol).to_dict() for tol in tols]
        assert seen == [diagnose(BlockSystem(*blocks), tol).to_dict() for tol in tols]
        assert (seen[0]["rule"], seen[1]["rule"]) == ("schur_sufficient", "necessary:N1")

    def test_editing_results_leaves_later_calls_unchanged(self):
        sys = direct_sum_singular(1)[0]
        before = diagnose(sys).to_dict()
        diagnose(sys).report.witness("R")[:] = 0.0
        assert diagnose(sys).to_dict() == before
        sys = max_deficient(seed=1)[0]
        before = three_block_inverse(sys).z33.copy()
        three_block_inverse(sys).z33[:] = 0.0
        np.testing.assert_array_equal(three_block_inverse(sys).z33, before)
