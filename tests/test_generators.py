"""Determinism and target fidelity of the instance generators."""

import numpy as np
import pytest

from dsaddle import (
    BlockSystem,
    Definiteness,
    GeneratorSpec,
    classify_definiteness,
    gen_instance,
    gen_psd_with_nullity,
    gen_rank,
    haar_orthogonal,
    matrix_rank,
    nullity,
)


class TestPsdWithNullity:
    def test_zero_nullity_is_pd(self):
        M = gen_psd_with_nullity(3, 0, seed=1)
        assert classify_definiteness(M) is Definiteness.POSITIVE_DEFINITE

    def test_full_nullity_is_zero_matrix(self):
        np.testing.assert_array_equal(gen_psd_with_nullity(3, 3, seed=1),
                                      np.zeros((3, 3)))

    def test_prescribed_nullity(self):
        M = gen_psd_with_nullity(3, 1, seed=5)
        assert nullity(M) == 1
        assert classify_definiteness(M) is Definiteness.POSITIVE_SEMIDEFINITE

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            gen_psd_with_nullity(3, 4, seed=0)

    def test_spectrum_confined(self):
        eigs = np.linalg.eigvalsh(gen_psd_with_nullity(6, 2, seed=9))
        nonzero = eigs[np.abs(eigs) > 1e-12]
        assert np.all((nonzero >= 0.5) & (nonzero <= 2.0))


class TestGenRank:
    def test_zero_rank(self):
        np.testing.assert_array_equal(gen_rank(2, 3, 0, seed=0), np.zeros((2, 3)))
        assert haar_orthogonal(0, np.random.default_rng(0)).shape == (0, 0)

    def test_full_rank(self):
        M = gen_rank(3, 5, 3, seed=2)
        assert matrix_rank(M) == 3

    def test_rank_one_is_outer_product(self):
        M = gen_rank(4, 4, 1, seed=3)
        s = np.linalg.svd(M, compute_uv=False)
        assert matrix_rank(M) == 1
        assert 0.5 <= s[0] <= 2.0

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            gen_rank(2, 3, 3, seed=0)


class TestGenInstance:
    def test_certificate_matches_targets(self):
        spec = GeneratorSpec(n=4, m=2, p=2, null_a=2, rank_b=2, require_ds1=True,
                             null_e=0, seed=11)
        sys, cert = gen_instance(spec)
        assert cert.null_a == 2 == sys.m
        assert cert.ds1 and cert.rank_b == 2
        assert Definiteness(cert.definiteness["E"]) is Definiteness.POSITIVE_DEFINITE

    def test_bitwise_determinism(self):
        spec = GeneratorSpec(n=5, m=3, p=4, null_a=1, rank_b=2, rank_c=2,
                             null_e=1, null_d=1, seed=77)
        first, cert1 = gen_instance(spec)
        second, cert2 = gen_instance(spec)
        for name in "ABCDE":
            assert np.array_equal(getattr(first, name), getattr(second, name))
        assert cert1.to_dict() == cert2.to_dict()

    def test_different_seeds_differ(self):
        base = dict(n=5, m=3, p=4, null_a=1, rank_b=2, rank_c=2)
        one, _ = gen_instance(GeneratorSpec(**base, seed=1))
        two, _ = gen_instance(GeneratorSpec(**base, seed=2))
        assert not np.array_equal(one.A, two.A)

    def test_forced_overlap(self):
        spec = GeneratorSpec(n=4, m=3, p=3, rank_b=2, rank_c=2,
                             force_overlap_r=True, seed=5)
        _, cert = gen_instance(spec)
        assert not cert.range_disjoint

    def test_required_disjoint_ranges(self):
        spec = GeneratorSpec(n=4, m=4, p=3, rank_b=2, rank_c=2, require_r=True,
                             seed=6)
        _, cert = gen_instance(spec)
        assert cert.range_disjoint

    def test_indefinite_target(self):
        spec = GeneratorSpec(n=4, m=2, p=2, def_a="indefinite", seed=8)
        sys, cert = gen_instance(spec)
        assert Definiteness(cert.definiteness["A"]) is Definiteness.INDEFINITE

    def test_infeasible_combinations_rejected(self):
        with pytest.raises(ValueError, match="require_r"):
            GeneratorSpec(n=4, m=2, p=3, rank_b=2, rank_c=2,
                          require_r=True).validate()
        with pytest.raises(ValueError, match="require_ds1"):
            GeneratorSpec(n=4, m=2, p=2, null_a=1, rank_b=2,
                          require_ds1=True).validate()
        with pytest.raises(ValueError, match="null_a"):
            GeneratorSpec(n=3, m=2, p=2, null_a=4).validate()
        with pytest.raises(ValueError, match="mutually exclusive"):
            GeneratorSpec(n=4, m=4, p=2, rank_b=1, rank_c=1, require_r=True,
                          force_overlap_r=True).validate()

    @pytest.mark.parametrize("overrides, match", [
        (dict(n=0), "dimensions must be positive"),
        (dict(null_d=3), "null_d=3"),
        (dict(null_e=3), "null_e=3"),
        (dict(rank_b=3), "rank_b=3"),
        (dict(rank_c=3), "rank_c=3"),
        (dict(force_overlap_r=True, rank_b=0), "force_overlap_r needs"),
        (dict(force_overlap_r=True, rank_c=0), "force_overlap_r needs"),
        (dict(require_ds2=True, null_e=1, rank_c=2), "require_ds2"),
        (dict(def_a="bad"), "def_a must be"),
        (dict(def_d="bad"), "def_d must be"),
        (dict(def_e="bad"), "def_e must be"),
        (dict(seed=-1), "seed must be"),
        (dict(def_e="indefinite", null_e=2), "indefinite E impossible"),
    ])
    def test_each_infeasible_field_is_named(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            GeneratorSpec(**{"n": 4, "m": 2, "p": 2, **overrides}).validate()

    @pytest.mark.parametrize("spec, message", [
        (GeneratorSpec(3, 1, 1, null_a=1.5), "'null_a' must be of type int, got 1.5"),
        (GeneratorSpec(3, 1, 1, rank_b="1"), "'rank_b' must be of type int | None, got '1'"),
        (GeneratorSpec(True, 1, 1), "'n' must be of type int, got True"),
    ], ids=["float", "str", "bool"])
    def test_spec_built_in_python_has_its_field_types_checked(self, spec, message):
        """gen_instance refuses a wrongly typed field by name, as from_dict does,
        rather than failing inside numpy."""
        with pytest.raises(ValueError) as refused:
            gen_instance(spec)
        assert str(refused.value) == f"generator spec field {message}"

    def test_numpy_integer_fields_are_counts(self):
        spec = GeneratorSpec(np.int64(3), np.int32(1), 1, rank_b=np.int64(1))
        assert gen_instance(spec)[1].dims == (3, 1, 1)

    def test_spec_roundtrip(self):
        spec = GeneratorSpec(n=4, m=2, p=3, null_e=1, rank_c=2, seed=42)
        again = GeneratorSpec.from_dict(spec.to_dict())
        assert again.to_dict() == spec.to_dict()
        with pytest.raises(ValueError, match="unknown"):
            GeneratorSpec.from_dict({"n": 2, "m": 2, "p": 2, "bogus": 1})
        with pytest.raises(ValueError, match="JSON object"):
            GeneratorSpec.from_dict([2, 2, 2])


def _system(A, B, C, D, E):
    return BlockSystem(*(np.array(M, dtype=float) for M in (A, B, C, D, E)))


# (missed target, spec, a fixed system whose certificate misses that target alone)
MISSES = (
    ("definiteness of A", GeneratorSpec(2, 1, 1, def_a="indefinite"),
     _system(np.eye(2), [[0, 1]], [[1]], [[1]], [[1]])),
    ("ds1", GeneratorSpec(2, 1, 1, null_a=1, require_ds1=True),
     _system(np.diag([0, 1]), [[0, 1]], [[1]], [[1]], [[1]])),
    ("ds2", GeneratorSpec(2, 1, 2, null_e=1, require_ds2=True),
     _system(np.eye(2), [[0, 1]], [[0], [1]], [[1]], np.diag([0, 1]))),
    ("range_disjoint", GeneratorSpec(2, 2, 1, rank_b=1, rank_c=1, require_r=True),
     _system(np.eye(2), [[1, 0], [0, 0]], [[1, 0]], np.eye(2), [[1]])),
    ("range_overlap", GeneratorSpec(2, 2, 1, rank_b=1, rank_c=1, force_overlap_r=True),
     _system(np.eye(2), [[1, 0], [0, 0]], [[0, 1]], np.eye(2), [[1]])),
)


@pytest.mark.parametrize("target, spec, system", MISSES, ids=[m[0] for m in MISSES])
def test_a_missed_target_is_retried_then_named(monkeypatch, target, spec, system):
    """Every attempt draws from the next sub-seed (spec seed, attempt); when all
    DEFAULT_MAX_RETRIES miss, the error names the missed target and nothing else."""
    from dsaddle import GenerationError, generators

    sub_seeds = []

    def build(spec, rng):
        sub_seeds.append(tuple(rng.bit_generator.seed_seq.entropy))
        return system

    monkeypatch.setattr(generators, "_build", build)
    with pytest.raises(GenerationError) as exc:
        gen_instance(spec)
    assert sub_seeds == [(spec.seed, attempt) for attempt in range(generators.DEFAULT_MAX_RETRIES)]
    assert f"missed targets {[target]!r} after {generators.DEFAULT_MAX_RETRIES} attempts" \
        in str(exc.value)
