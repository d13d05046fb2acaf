"""CLI transcript: what every ``dsaddle`` subcommand prints, writes and exits with.

    PYTHONPATH=src python tools/cli_answers.py > cli_answers.txt

runs ``dsaddle.cli.main(argv)`` in process over a fixed corpus and prints one
line per invocation: the argv, the exit code, and a sha256 of stdout, of
stderr and of the files the invocation wrote.  A ``verify`` report (exit 0, 1
or 2) adds its ordered ``id:status`` list, so a status that changes reads apart
from residual digits that move.  Before anything is printed or hashed, each
invocation's own output directory is replaced by ``<out>`` and the temporary
directory that holds the corpus by ``<tmp>``, in argv, stdout and stderr
alike; the written files are hashed by their paths relative to ``<out>``.  So
no line depends on its position, and a line added or removed moves no other.
The last line is a sha256 of all the lines.  Two runs print the same bytes,
so the transcript of one commit diffs against another's: run it once per
checkout with that checkout's ``src`` on ``PYTHONPATH``.

The corpus:

- ``fixture``: the 4 x 4 worked example of ``tests/_families.py``;
- ``invertible``, ``singular``, ``undetermined``: seeded ``gen_instance``
  systems on which ``diagnose`` exits 0, 1 and 2;
- ``no_d``: the ``invertible`` system without ``D.mtx`` (a zero D);
- ``no_a``: the fixture without ``A.mtx``;
- ``scaled``: blocks whose entries span eight orders of magnitude, where
  ``A psd`` and N1 hold under their cuts but Z^T A Z = 0 for Z = ker(B);
- ``angle``: ``tests/_families.py``'s range-angle system at theta = 6e-9,
  which the oracle calls singular while ``direct_sum_iff`` proves singular
  with no witness, so ``diagnose`` exits 2 and ``invert`` 65;
- ``overflow``: A = C = E = 1, D = 0 and B = 1e160, whose Schur complement
  S1 = D + B A^{-1} B^T overflows, so the Schur test is inconclusive and
  ``diagnose`` answers singular by a corollary;
- ``scale``: draw 80 of ``tests/_families.py``'s extreme-scale family, dims
  (2, 1, 1) with entries from 1e-310 to 1e300, invertible with null(A) = 0, so
  ``invert`` refuses the three-block inverse before D + C^T E^{-1} C overflows
  and writes the dense one.

Each system runs every subcommand in both formats, plus ``--alpha`` and the
tolerance flags; ``generate`` runs on a feasible, an infeasible and a missing
spec, and on a spec with a float ``n`` and one with a string ``seed`` that
``--seed`` replaces; a bad tolerance, an unknown subcommand and a bad
``--format`` are usage errors.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from itertools import islice
from pathlib import Path
from unittest import mock

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from _families import extreme_scale_systems, fixture_three_block, range_angle  # noqa: E402
from dsaddle import BlockSystem, GeneratorSpec, gen_instance, save_block_system  # noqa: E402
from dsaddle.cli import main as dsaddle_main  # noqa: E402

PLACEHOLDER, OUT_PLACEHOLDER = "<tmp>", "<out>"
GENERATED = (
    ("invertible", GeneratorSpec(6, 3, 2, null_a=3, require_ds1=True, seed=1)),
    ("singular", GeneratorSpec(6, 3, 2, null_a=3, require_ds1=True, null_e=1, seed=1)),
    ("undetermined", GeneratorSpec(6, 3, 2, null_a=1, def_a="indefinite", seed=1)),
)
SPEC = {"n": 4, "m": 2, "p": 3, "null_a": 2, "rank_b": 2, "null_e": 1, "seed": 5}


def build_corpus(root: Path) -> dict:
    """Write every input under root; return the paths the argv templates name."""
    systems = {"fixture": fixture_three_block()}
    systems.update((name, gen_instance(spec)[0]) for name, spec in GENERATED)
    systems["no_d"], systems["no_a"] = systems["invertible"], systems["fixture"]
    systems["scaled"] = BlockSystem(np.array([[0.0, 1.0], [1.0, 1e8]]), np.array([[0.0, 1e8]]),
                                    np.array([[1.0]]))
    systems["angle"] = range_angle(6e-9)
    systems["overflow"] = BlockSystem([[1.0]], [[1e160]], [[1.0]], [[0.0]], [[1.0]])
    systems["scale"] = next(islice(extreme_scale_systems(81), 80, None))
    paths = {name: root / name for name in systems}
    for name, system in systems.items():
        save_block_system(paths[name], system)
    (paths["no_d"] / "D.mtx").unlink()
    (paths["no_a"] / "A.mtx").unlink()
    paths["spec"] = root / "spec.json"
    paths["spec"].write_text(json.dumps(SPEC), encoding="utf-8")
    paths["infeasible"] = root / "infeasible.json"
    paths["infeasible"].write_text(json.dumps({**SPEC, "null_a": 9}), encoding="utf-8")
    paths["missing_spec"] = root / "missing.json"
    for name, field in (("float_n", {"n": 4.5}), ("string_seed", {"seed": "x"})):
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps({**SPEC, **field}), encoding="utf-8")
    return paths


def system_invocations(*names):
    """The argv templates that run every subcommand on each named system."""
    for name in names:
        for fmt in ("text", "json"):
            yield ["diagnose", f"{{{name}}}", "--format", fmt]
            yield ["invert", f"{{{name}}}", "--out", "{out}", "--format", fmt]
            yield ["verify", f"{{{name}}}", "--format", fmt]
        yield ["diagnose", f"{{{name}}}", "--tol-rank", "1e-6"]
        yield ["diagnose", f"{{{name}}}", "--tol-rank", "1e-12", "--tol-residual", "1e-6"]
        yield ["verify", f"{{{name}}}", "--tol-residual", "1e-300", "--format", "json"]
        for alpha in ("0.5", "5.0", "nan"):
            yield ["verify", f"{{{name}}}", "--alpha", alpha]


def invocations():
    """argv templates; {out} is a fresh output directory per invocation."""
    yield from system_invocations("fixture", "invertible", "singular", "undetermined", "no_d",
                                  "no_a", "scaled", "angle", "overflow", "scale")
    for fmt in ("text", "json"):
        yield ["generate", "--spec", "{spec}", "--out", "{out}", "--format", fmt]
        yield ["generate", "--spec", "{spec}", "--out", "{out}", "--seed", "7", "--format", fmt]
    yield ["generate", "--spec", "{spec}", "--out", "{out}", "--tol-rank", "1e-8"]
    yield ["generate", "--spec", "{infeasible}", "--out", "{out}"]
    yield ["generate", "--spec", "{missing_spec}", "--out", "{out}"]
    yield ["generate", "--spec", "{float_n}", "--out", "{out}"]
    yield ["generate", "--spec", "{string_seed}", "--out", "{out}", "--seed", "7"]
    # usage errors
    yield ["diagnose", "{fixture}", "--tol-rank", "0"]
    yield ["diagnose", "{fixture}", "--tol-rank", "nan"]
    yield ["verify", "{fixture}", "--tol-residual", "1"]
    yield ["frobnicate", "{fixture}"]
    yield ["diagnose", "{fixture}", "--format", "xml"]
    yield ["invert", "{fixture}"]
    yield []
    for command in ("diagnose", "invert", "generate", "verify"):
        yield [command, "--help"]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def files_digest(out: Path) -> str:
    if not out.exists():
        return "none"
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(f"{path.relative_to(out)}\n".encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def statuses(argv, report: str) -> str:
    """The ordered id:status list of a verify report, JSON or text ("id: status ...")."""
    if "json" in argv:
        pairs = [(e["id"], e["status"]) for e in json.loads(report)["identities"]]
    else:
        pairs = [line.split(": ", 1) for line in report.splitlines()]
    return ",".join(f"{name}:{rest.split()[0]}" for name, rest in pairs)


def run(argv, root: str, out_dir: str) -> str:
    """The transcript line of one invocation, its output directory read as <out>."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = dsaddle_main(argv)

    def placed(text):
        return text.replace(out_dir, OUT_PLACEHOLDER).replace(root, PLACEHOLDER)

    out, err = (placed(s.getvalue()).encode() for s in (stdout, stderr))
    fields = [json.dumps(list(map(placed, argv))), f"exit={code}",
              f"stdout={digest(out)}", f"stderr={digest(err)}"]
    if argv[:1] == ["verify"] and "--help" not in argv and code in (0, 1, 2):
        fields.append(f"identities={statuses(argv, out.decode())}")
    return " ".join(fields)


def main() -> int:
    table = hashlib.sha256()
    # argparse wraps --help at the terminal width
    with mock.patch.dict(os.environ, COLUMNS="80"), tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        paths = build_corpus(root)
        for i, template in enumerate(invocations()):
            out = root / "out" / f"{i:03d}"
            argv = [arg.format(out=out, **paths) for arg in template]
            line = f"{run(argv, tmp, str(out))} files={files_digest(out)}\n"
            sys.stdout.write(line)
            table.update(line.encode())
    sys.stdout.write(f"transcript sha256 {table.hexdigest()}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
