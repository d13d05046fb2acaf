"""End-to-end command line tests, run in process through main()."""

import json

import numpy as np
import pytest

from dsaddle import load_block_system, read_matrix, save_block_system
from dsaddle.cli import main

from _families import fixture_three_block, fixture_three_block_inverse


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

    def test_dense_fallback_requires_flag(self, tmp_path, capsys):
        from dsaddle import BlockSystem
        # invertible but A is indefinite, so no structured formula applies
        sys = BlockSystem(np.array([[-2.0]]), np.array([[1.0]]),
                          np.array([[1.0]]), np.array([[0.0]]), np.array([[3.0]]))
        save_block_system(tmp_path / "blk", sys)
        code, _, err = run_cli(capsys, "invert", str(tmp_path / "blk"),
                               "--out", str(tmp_path / "o1"))
        assert code == 65 and "--allow-dense" in err
        code, _, err = run_cli(capsys, "invert", str(tmp_path / "blk"),
                               "--out", str(tmp_path / "o2"), "--allow-dense")
        assert code == 0 and "dense" in err


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
# bad tolerances are usage errors, bad spec fields, files and paths are data errors
MALFORMED = (
    ("tol_rank_zero", ["diagnose", "{blocks}", "--tol-rank", "0"], None, 64),
    ("tol_rank_nan", ["diagnose", "{blocks}", "--tol-rank", "nan"], None, 64),
    ("tol_residual_one", ["verify", "{blocks}", "--tol-residual", "1"], None, 64),
    ("spec_string_dimension", ["generate", "--spec", "{spec}", "--out", "{out}"],
     {"n": "5"}, 65),
    ("spec_float_nullity", ["generate", "--spec", "{spec}", "--out", "{out}"],
     {"null_a": 2.5}, 65),
    ("spec_int_flag", ["generate", "--spec", "{spec}", "--out", "{out}"],
     {"require_ds1": 1}, 65),
    ("complex_block", ["diagnose", "{complex}"], None, 65),
    ("out_is_existing_file", ["invert", "{blocks}", "--out", "{spec}"], None, 65),
    ("spec_is_directory", ["generate", "--spec", "{blocks}", "--out", "{out}"], None, 65),
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
        from dsaddle.cli import RunConfig, run
        code = run(RunConfig(command="diagnose", input_dir=str(fixture_dir),
                             fmt="json"))
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["verdict"] == "invertible"

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
