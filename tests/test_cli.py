"""End-to-end command line tests, run in process through main() except where
a malformed file could crash the process."""

import json
import logging
import os
import random
import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from dsaddle import GeneratorSpec, gen_instance, load_block_system, read_matrix, \
    save_block_system
from dsaddle.cli import main

from _families import extreme_scale_systems, fixture_three_block, fixture_three_block_inverse


@pytest.fixture()
def fixture_dir(tmp_path):
    directory = tmp_path / "blocks"
    save_block_system(directory, fixture_three_block())
    return directory


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDiagnose:
    def test_invertible_exit_zero(self, fixture_dir, capsys):
        code, out, _ = run_cli(capsys, "diagnose", str(fixture_dir))
        assert code == 0
        assert "verdict: invertible" in out

    def test_json_format(self, fixture_dir, capsys):
        code, out, _ = run_cli(capsys, "diagnose", str(fixture_dir), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "invertible"
        assert payload["schema"] == "dsaddle.diagnosis/1"

    def test_singular_exit_one(self, tmp_path, capsys):
        from dsaddle import BlockSystem
        singular = BlockSystem(np.zeros((1, 1)), np.zeros((1, 1)),
                               np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)))
        save_block_system(tmp_path / "s", singular)
        code, out, _ = run_cli(capsys, "diagnose", str(tmp_path / "s"))
        assert code == 1
        assert "singular" in out

    def test_undetermined_exit_two(self, tmp_path, capsys):
        from dsaddle import BlockSystem
        sys = BlockSystem(np.diag([0.0, -1.0]), np.array([[1.0, 0.0]]),
                          np.array([[1.0], [0.0]]), np.array([[1.0]]),
                          np.diag([0.0, -1.0]))
        save_block_system(tmp_path / "u", sys)
        code, _, _ = run_cli(capsys, "diagnose", str(tmp_path / "u"))
        assert code == 2

    def test_witness_failing_its_check_exits_two(self, tmp_path, capsys):
        # N1 fails under --tol-rank 1e-6, but its witness is no kernel vector of K
        from dsaddle import BlockSystem
        sys = BlockSystem(np.diag([1.0, 1e-7]), np.array([[1.0, 0.0]]), np.array([[1.0]]),
                          np.array([[0.0]]), np.array([[1.0]]))
        save_block_system(tmp_path / "t", sys)
        code, out, err = run_cli(capsys, "diagnose", str(tmp_path / "t"), "--tol-rank", "1e-6")
        assert code == 2
        assert "verdict: undetermined" in out and "condition N1: fails" in out
        assert err == ""

    def test_block_near_the_float_maximum_is_singular_with_no_warning(self, tmp_path, capsys):
        # ||K u|| of N2's witness overflows when squared and is read scaled
        save_block_system(tmp_path / "blk", _near_float_maximum())
        code, out, err = run_cli(capsys, "diagnose", str(tmp_path / "blk"))
        assert (code, err) == (1, "")
        assert "rule: necessary:N2" in out

    def test_missing_directory_is_data_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "diagnose", str(tmp_path / "nope"))
        assert code == 65
        assert "missing" in err

    def test_report_bytes_are_deterministic(self, fixture_dir, capsys):
        _, first, _ = run_cli(capsys, "diagnose", str(fixture_dir), "--format", "json")
        _, second, _ = run_cli(capsys, "diagnose", str(fixture_dir), "--format", "json")
        assert first == second

    def test_usage_error_exit_64(self, capsys):
        code, _, _ = run_cli(capsys, "diagnose")
        assert code == 64

    def test_exit_code_independent_of_format(self, fixture_dir, capsys):
        text_code, _, _ = run_cli(capsys, "diagnose", str(fixture_dir))
        json_code, _, _ = run_cli(capsys, "diagnose", str(fixture_dir),
                                  "--format", "json")
        assert text_code == json_code == 0


class TestInvert:
    def test_writes_inverse_and_manifest(self, fixture_dir, tmp_path, capsys):
        out_dir = tmp_path / "inv"
        code, out, _ = run_cli(capsys, "invert", str(fixture_dir),
                               "--out", str(out_dir), "--format", "json")
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["constructor"] == "three_block"
        assert manifest["spectral_residual"] < 1e-10
        full = np.zeros((4, 4))
        n, m = 2, 1
        full[:n, :n] = read_matrix(out_dir / "Z11.mtx")
        full[:n, n:n + m] = read_matrix(out_dir / "Z12.mtx")
        full[:n, n + m:] = read_matrix(out_dir / "Z13.mtx")
        full[n:n + m, n:n + m] = read_matrix(out_dir / "Z22.mtx")
        full[n:n + m, n + m:] = read_matrix(out_dir / "Z23.mtx")
        full[n + m:, n + m:] = read_matrix(out_dir / "Z33.mtx")
        full = np.triu(full) + np.triu(full, 1).T
        np.testing.assert_allclose(full, fixture_three_block_inverse(), atol=1e-12)

    def test_overflowing_system_falls_back_to_the_dense_inverse(self, tmp_path, capsys):
        """Draw 80 of the extreme-scale family, dims (2, 1, 1), is invertible with
        null(A) = 0, so the three-block inverse is refused before it forms
        D + C^T E^{-1} C, which overflows at C = -1e300; under the suite's error filter
        a warning would exit 70."""
        system = next(islice(extreme_scale_systems(81), 80, None))
        assert system.dims == (2, 1, 1)
        save_block_system(tmp_path / "blk", system)
        code, out, err = run_cli(capsys, "invert", str(tmp_path / "blk"),
                                 "--out", str(tmp_path / "inv"), "--format", "json")
        assert (code, err, json.loads(out)["constructor"]) == (0, "", "dense")

    def test_dense_inverse_is_the_last_constructor(self, tmp_path, capsys, caplog):
        from dsaddle import BlockSystem
        # invertible but A is indefinite, so no structured formula applies
        sys = BlockSystem(np.array([[-2.0]]), np.array([[1.0]]),
                          np.array([[1.0]]), np.array([[0.0]]), np.array([[3.0]]))
        save_block_system(tmp_path / "blk", sys)
        with caplog.at_level(logging.INFO, logger="dsaddle.cli"):
            code, _, err = run_cli(capsys, "invert", str(tmp_path / "blk"),
                                   "--out", str(tmp_path / "o"))
        assert (code, err) == (0, "")
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["constructor"] == "dense"
        assert manifest["spectral_residual"] < 1e-10
        assert [r.levelno for r in caplog.records] == [logging.INFO]

    def test_dense_inverse_of_an_ill_conditioned_system_meets_k_x_eq_i(self, tmp_path, capsys):
        """cond(K) = 4.5e8: the upper blocks of an LU inverse, mirrored, missed K X = I
        by 0.74 while the LU inverse itself missed it by 7.5e-9."""
        from dsaddle import BlockSystem, oracle_invertible
        sys = BlockSystem(np.array([[0.0, -1.0], [-1.0, 2.0]]), np.array([[3.0, -1.0]]),
                          np.array([[3.0], [1e8], [1e8]]), np.array([[0.0]]),
                          np.array([[2.0, 3.0, 1.0], [3.0, 1.0, 1e-9], [1.0, 1e-9, 2.0]]))
        assert oracle_invertible(sys)
        save_block_system(tmp_path / "blk", sys)
        code, _, err = run_cli(capsys, "invert", str(tmp_path / "blk"),
                               "--out", str(tmp_path / "o"))
        assert (code, err) == (0, "")
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["constructor"] == "dense"
        assert manifest["spectral_residual"] < 1e-6

    def test_dense_fallback_refuses_a_singular_system(self, tmp_path, capsys):
        from dsaddle import GeneratorSpec, diagnose, gen_instance
        system, _ = gen_instance(GeneratorSpec(20, 10, 5, null_a=10, require_ds1=True,
                                               null_e=1, seed=3))
        assert diagnose(system).verdict.value == "singular"
        save_block_system(tmp_path / "blk", system)
        code, out, err = run_cli(capsys, "invert", str(tmp_path / "blk"),
                                 "--out", str(tmp_path / "o"))
        assert code == 65 and out == ""
        assert err.splitlines() == ["the system is singular: no inverse exists"]
        assert not (tmp_path / "o").exists()

    def test_block_near_the_float_maximum_is_refused_as_singular(self, tmp_path, capsys):
        """D[0, 0] = 1e308 meets the three-block hypotheses, which force an invertible
        K in exact arithmetic only: K is singular under the rank cut, as diagnose
        says, so no inverse is written."""
        save_block_system(tmp_path / "blk", _near_float_maximum())
        code, out, err = run_cli(capsys, "invert", str(tmp_path / "blk"),
                                 "--out", str(tmp_path / "o"))
        assert (code, out) == (65, "")
        assert err.splitlines() == ["the system is singular: no inverse exists"]
        assert not (tmp_path / "o").exists()


def _near_float_maximum():
    """A generated (6, 3, 2) system with D[0, 0] = 1e308."""
    from dsaddle import BlockSystem
    system, _ = gen_instance(GeneratorSpec(6, 3, 2, null_a=3, require_ds1=True, seed=3))
    D = system.D.copy()
    D[0, 0] = 1e308
    return BlockSystem(system.A, system.B, system.C, D, system.E)


class TestGenerate:
    def write_spec(self, tmp_path, **overrides):
        data = {"n": 4, "m": 2, "p": 3, "null_a": 2, "rank_b": 2, "null_e": 1,
                "seed": 5}
        data.update(overrides)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        return path

    def test_generates_instance_and_certificate(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        out_dir = tmp_path / "inst"
        code, _, _ = run_cli(capsys, "generate", "--spec", str(spec),
                             "--out", str(out_dir), "--seed", "7")
        assert code == 0
        cert = json.loads((out_dir / "certificate.json").read_text())
        assert cert["null_a"] == 2 and cert["seed"] == 7
        loaded = load_block_system(out_dir)
        assert loaded.dims == (4, 2, 3)

    def test_repeat_runs_are_byte_identical(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        dirs = (tmp_path / "a", tmp_path / "b")
        for d in dirs:
            code, _, _ = run_cli(capsys, "generate", "--spec", str(spec),
                                 "--out", str(d), "--seed", "7")
            assert code == 0
        for name in ("A.mtx", "B.mtx", "C.mtx", "D.mtx", "E.mtx",
                     "certificate.json"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_infeasible_spec_is_data_error(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, null_a=9)
        code, _, err = run_cli(capsys, "generate", "--spec", str(spec),
                               "--out", str(tmp_path / "x"))
        assert code == 65
        assert "null_a" in err


class TestVerify:
    def test_identities_pass_on_fixture(self, fixture_dir, capsys):
        code, out, _ = run_cli(capsys, "verify", str(fixture_dir), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        status = {e["id"]: e["status"] for e in payload["identities"]}
        assert status["weight_recovery"] == "ok"
        assert status["congruence"] == "ok"

    def test_alpha_override(self, fixture_dir, capsys):
        code, out, _ = run_cli(capsys, "verify", str(fixture_dir), "--alpha", "0.5")
        assert code == 0
        assert "congruence: ok" in out

    def test_inadmissible_alpha_is_data_error(self, tmp_path, capsys):
        from dsaddle import BlockSystem
        sys = BlockSystem(np.diag([0.0, 1.0]), np.array([[1.0, 0.0]]),
                          np.array([[1.0]]), np.array([[1.0]]), np.array([[2.0]]))
        save_block_system(tmp_path / "blk", sys)
        for alpha in ("5.0", "nan"):
            code, _, err = run_cli(capsys, "verify", str(tmp_path / "blk"),
                                   "--alpha", alpha)
            assert code == 65 and "admissible" in err
            assert "np.float64(" not in err  # the bound prints as a plain float

    def test_singular_system_skips_bounds(self, tmp_path, capsys):
        from dsaddle import BlockSystem
        # singular (E = 0 kills invertibility) but the projector identities
        # still hold and are verified
        sys = BlockSystem(np.diag([0.0, 1.0]), np.array([[1.0, 0.0]]),
                          np.array([[1.0]]), np.array([[0.0]]), np.array([[0.0]]))
        save_block_system(tmp_path / "blk", sys)
        code, out, _ = run_cli(capsys, "verify", str(tmp_path / "blk"),
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        status = {e["id"]: e["status"] for e in payload["identities"]}
        assert status["nullity_bounds"] == "skipped"
        assert status["weight_recovery"] == "ok"

    @pytest.mark.parametrize("alpha", ["1e155", "1e200", "1e308"])
    def test_alpha_that_overflows_prints_strict_json(self, tmp_path, capsys, alpha):
        from dsaddle import GeneratorSpec, gen_instance
        sys, _ = gen_instance(GeneratorSpec(6, 3, 2, null_a=3, null_d=3, require_ds1=True,
                                            seed=1))
        save_block_system(tmp_path / "blk", sys)
        code, out, err = run_cli(capsys, "verify", str(tmp_path / "blk"), "--alpha", alpha,
                                 "--format", "json")

        def reject(token):
            raise AssertionError(f"{token} is not JSON")

        payload = json.loads(out, parse_constant=reject)
        status = {e["id"]: e["status"] for e in payload["identities"]}
        # below 1e308 no value of K~ overflows and its norms are read scaled
        assert (code, err, status["congruence"]) == \
            (0, "", "skipped" if alpha == "1e308" else "ok")

    @pytest.mark.parametrize("k", [None, -990, -530, 530, 990])
    def test_extreme_scales_and_ill_conditioned_b_exit_zero(self, tmp_path, capsys, k):
        from dsaddle import BlockSystem, GeneratorSpec, gen_instance
        if k is None:  # B B^T singular to LU although rank(B) = m at the cut
            sys = BlockSystem([[2, 1e-9], [1e-9, 1]], [[-1, 1e-9], [2, 1e-9]],
                              [[2, 1], [1, 1e-9]], [[1, 1], [1, 0]], [[0.5, 1], [1, 2]])
        else:
            base, _ = gen_instance(GeneratorSpec(20, 10, 5, null_a=10, require_ds1=True,
                                                 seed=1))
            sys = BlockSystem(*(np.ldexp(getattr(base, name), k) for name in "ABCDE"))
        save_block_system(tmp_path / "blk", sys)
        code, out, err = run_cli(capsys, "verify", str(tmp_path / "blk"), "--format", "json")
        assert (code, err) == (0, ""), err
        assert json.loads(out)["all_passed"] is True

    def test_failing_identities_exit_one(self, tmp_path, capsys):
        from dsaddle import GeneratorSpec, gen_instance
        sys, _ = gen_instance(GeneratorSpec(6, 3, 2, null_a=3, require_ds1=True, seed=1))
        save_block_system(tmp_path / "blk", sys)
        # no rounding-level residual passes a bound of 1e-300
        code, out, _ = run_cli(capsys, "verify", str(tmp_path / "blk"),
                               "--tol-residual", "1e-300", "--format", "json")
        payload = json.loads(out)
        status = [e["status"] for e in payload["identities"]]
        assert (code, payload["all_passed"], status.count("failed")) == (1, False, 4)

    def test_degenerate_system_keeps_congruence_only(self, tmp_path, capsys):
        from dsaddle import BlockSystem
        # indefinite singular A defeats every projector hypothesis; only the
        # congruence identity (which holds unconditionally) still computes
        sys = BlockSystem(np.diag([1.0, -1.0, 0.0]),
                          np.array([[0.0, 0.0, 0.0]]), np.array([[0.0]]),
                          np.array([[0.0]]), np.array([[0.0]]))
        save_block_system(tmp_path / "blk", sys)
        code, out, _ = run_cli(capsys, "verify", str(tmp_path / "blk"),
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        status = {e["id"]: e["status"] for e in payload["identities"]}
        assert status.pop("congruence") == "ok"
        assert all(v == "skipped" for v in status.values())


COMPLEX_MTX = "%%MatrixMarket matrix array complex general\n1 1\n1.0 2.0\n"

# (case, argv with {blocks}/{spec}/{out} placeholders, spec override, exit code):
# bad tolerances, and a residual tolerance where no residual is read, are usage errors;
# bad spec fields, files and paths are data errors.  None of them writes anything
MALFORMED = (
    ("tol_rank_zero", ["diagnose", "{blocks}", "--tol-rank", "0"], None, 64),
    ("tol_rank_nan", ["diagnose", "{blocks}", "--tol-rank", "nan"], None, 64),
    ("tol_residual_one", ["verify", "{blocks}", "--tol-residual", "1"], None, 64),
    ("invert_tol_residual", ["invert", "{blocks}", "--out", "{out}", "--tol-residual", "1e-6"],
     None, 64),
    ("generate_tol_residual",
     ["generate", "--spec", "{spec}", "--out", "{out}", "--tol-residual", "1e-6"], None, 64),
    ("spec_string_dimension", ["generate", "--spec", "{spec}", "--out", "{out}"],
     {"n": "5"}, 65),
    ("spec_float_nullity", ["generate", "--spec", "{spec}", "--out", "{out}"],
     {"null_a": 2.5}, 65),
    ("spec_int_flag", ["generate", "--spec", "{spec}", "--out", "{out}"],
     {"require_ds1": 1}, 65),
    ("complex_block", ["diagnose", "{complex}"], None, 65),
    ("out_is_existing_file", ["invert", "{blocks}", "--out", "{spec}"], None, 65),
    ("spec_is_directory", ["generate", "--spec", "{blocks}", "--out", "{out}"], None, 65),
    # 26.8 GiB of dense frame, refused before any allocation
    ("spec_past_the_size_bound", ["generate", "--spec", "{spec}", "--out", "{out}"],
     {"n": 60000, "m": 2, "p": 2}, 65),
)


@pytest.mark.parametrize("argv, override, expected", [c[1:] for c in MALFORMED],
                         ids=[c[0] for c in MALFORMED])
def test_malformed_input_exit_codes(tmp_path, capsys, argv, override, expected):
    save_block_system(tmp_path / "blocks", fixture_three_block())
    save_block_system(tmp_path / "complex", fixture_three_block())
    (tmp_path / "complex" / "C.mtx").write_text(COMPLEX_MTX)
    spec = {"n": 4, "m": 2, "p": 3, "null_a": 2, "seed": 5}
    spec.update(override or {})
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    paths = {"blocks": tmp_path / "blocks", "complex": tmp_path / "complex",
             "spec": tmp_path / "spec.json", "out": tmp_path / "out"}
    code, out, _ = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    assert code == expected
    assert out == ""
    assert not paths["out"].exists()


def _short_symmetric(matrix):
    # the lower triangle column by column, without its last value
    values = [float(matrix[i, j]) for j in range(len(matrix)) for i in range(j, len(matrix))]
    return (f"%%MatrixMarket matrix array real symmetric\n{len(matrix)} {len(matrix)}\n"
            + "".join(f"{v!r}\n" for v in values[:-1]))


# (case, block file, its new content given the old one): a size line of 0,
# a non-square symmetric size and a short symmetric array crashed the process
# or were read with made-up entries; the last two pin exit 65 for bad entries
MALFORMED_FILES = (
    ("zero_dimension", "A.mtx", lambda old: "%%MatrixMarket matrix array real general\n0 3\n"),
    ("symmetric_non_square", "E.mtx",
     lambda old: "%%MatrixMarket matrix array real symmetric\n5 6\n" + "1\n" * 21),
    ("symmetric_array_short", "A.mtx",
     lambda old: _short_symmetric(fixture_three_block().A)),
    ("coordinate_index_out_of_range", "B.mtx",
     lambda old: "%%MatrixMarket matrix coordinate real general\n1 2 1\n1 3 1.0\n"),
    ("array_entry_count_too_large", "C.mtx", lambda old: old + "1.0\n"),
)


@pytest.mark.parametrize("name, content", [c[1:] for c in MALFORMED_FILES],
                         ids=[c[0] for c in MALFORMED_FILES])
def test_malformed_matrix_file_exits_65(tmp_path, name, content):
    directory = tmp_path / "blocks"
    save_block_system(directory, fixture_three_block())
    path = directory / name
    path.write_text(content(path.read_text()))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "dsaddle.cli", "diagnose", str(directory)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 65, (proc.returncode, proc.stderr)
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


# tokens a mutation writes in place of one: none makes a size line larger than 7 x 7
TOKENS = ("0", "-1", "2", "7", "1.5", "-0.0", "1e308", "-1e308", "1e-320", "nan", "inf",
          "x", "%", "", "3 3", "1 2 3")
BANNER_WORDS = ("array", "coordinate", "real", "double", "integer", "pattern", "complex",
                "general", "symmetric", "skew-symmetric", "hermitian", "vector")
SPEC_VALUES = (-1, 0, 1, 2, 3, 5, 1.5, "2", True, False, None, [], "psd", "indefinite")


def _mutated(path, rng):
    """The file's text, or that of its matrix as a coordinate file, with one line
    deleted, duplicated or cut, or one token replaced."""
    text = path.read_text()
    if rng.random() < 0.3:
        M = read_matrix(path)
        text = (f"%%MatrixMarket matrix coordinate real general\n{M.shape[0]} {M.shape[1]} "
                f"{M.size}\n" + "".join(f"{i + 1} {j + 1} {float(v)!r}\n"
                                       for (i, j), v in np.ndenumerate(M)))
    lines = text.splitlines(keepends=True)
    k, kind = rng.randrange(len(lines)), rng.randrange(4)
    if kind == 0:
        del lines[k]
    elif kind == 1:
        lines.insert(k, lines[rng.randrange(len(lines))])
    elif kind == 2:
        lines[k] = lines[k][:rng.randrange(len(lines[k]) + 1)]
    else:
        words = lines[k].split() or [""]
        words[rng.randrange(len(words))] = rng.choice(BANNER_WORDS if k == 0 else TOKENS)
        lines[k] = " ".join(words) + "\n"
    return "".join(lines)


def test_mutated_inputs_exit_with_a_defined_code(tmp_path, capsys):
    """Seeded mutations of valid block files and spec JSON, over all four
    subcommands, exit 0, 1, 2, 64 or 65: never 70, the code of a bug.  None
    raises a numpy floating-point warning, which the suite makes an error."""
    rng = random.Random(0)
    bases = [fixture_three_block(), gen_instance(GeneratorSpec(6, 3, 2, null_a=3,
                                                              require_ds1=True, seed=1))[0]]
    spec = {"n": 4, "m": 2, "p": 3, "null_a": 2, "rank_b": 2, "null_e": 1, "seed": 5}
    for k, base in enumerate(bases):
        save_block_system(tmp_path / f"blocks{k}", base)
    codes, out = {}, str(tmp_path / "out")
    for case in range(300):
        directory, restore = tmp_path / f"blocks{case % 2}", None
        command = rng.choice(("diagnose", "invert", "verify", "generate"))
        if command == "generate":
            mutated = dict(spec)
            if rng.random() < 0.2:
                mutated.pop(rng.choice(list(mutated)))
            else:
                mutated[rng.choice(list(GeneratorSpec.__dataclass_fields__))] = \
                    rng.choice(SPEC_VALUES)
            text = json.dumps(mutated)
            (tmp_path / "spec.json").write_text(text[:rng.randrange(len(text) - 5, len(text) + 1)])
            argv = ["generate", "--spec", str(tmp_path / "spec.json"), "--out", out]
        else:
            path = directory / f"{rng.choice('ABCDE')}.mtx"
            restore = path, path.read_text()
            if rng.random() < 0.1:
                path.unlink()
            else:
                path.write_text(_mutated(path, rng))
            argv = [command, str(directory)] + {
                "diagnose": [], "invert": ["--out", out],
                "verify": ["--alpha", rng.choice(("0.5", "5.0", "nan", "1e300"))] * rng.randrange(2),
            }[command]
        code = main(argv + ["--format", rng.choice(("text", "json"))])
        codes.setdefault(code, argv)
        if restore:
            restore[0].write_text(restore[1])
    capsys.readouterr()
    assert set(codes) <= {0, 1, 2, 64, 65}, codes


def test_unexpected_error_exit_70(fixture_dir, capsys, monkeypatch):
    # a bug must not exit 1, the code for a singular verdict
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("dsaddle.cli.diagnose", broken)
    code, out, err = run_cli(capsys, "diagnose", str(fixture_dir))
    assert code == 70
    assert out == ""
    assert "diagnose" in err and "boom" in err and len(err.splitlines()) == 1


class TestRunConfig:
    def test_run_accepts_config_directly(self, fixture_dir, capsys):
        from dsaddle.cli import build_parser, run
        code = run(build_parser().parse_args(["diagnose", str(fixture_dir),
                                              "--format", "json"]))
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["verdict"] == "invertible"

    def test_no_tolerance_flags_run_under_the_default(self, fixture_dir, capsys, monkeypatch):
        import dsaddle.cli
        from dsaddle import DEFAULT_TOL
        args = dsaddle.cli.build_parser().parse_args(["diagnose", str(fixture_dir)])
        assert (args.tol_rank, args.tol_residual) == \
            (DEFAULT_TOL.rank_rtol, DEFAULT_TOL.residual_rtol)
        seen, real = [], dsaddle.cli.diagnose

        def diagnose(system, tol):
            seen.append(tol)
            return real(system, tol)

        monkeypatch.setattr(dsaddle.cli, "diagnose", diagnose)
        code, _, _ = run_cli(capsys, "diagnose", str(fixture_dir))
        assert code == 0 and seen == [DEFAULT_TOL]

    def test_text_and_json_carry_same_facts(self, fixture_dir, capsys):
        _, text_out, _ = run_cli(capsys, "diagnose", str(fixture_dir))
        _, json_out, _ = run_cli(capsys, "diagnose", str(fixture_dir),
                                 "--format", "json")
        payload = json.loads(json_out)
        assert f"verdict: {payload['verdict']}" in text_out
        assert f"rule: {payload['rule']}" in text_out
        for entry in payload["conditions"]:
            assert f"condition {entry['id']}: {entry['status']}" in text_out
        for name, rank in payload["ranks"].items():
            assert f"rank {name}: {rank}" in text_out
