"""CLI transcript: what every ``dsaddle`` subcommand prints, writes and exits with.

    PYTHONPATH=src python tools/cli_answers.py > cli_answers.txt

runs ``dsaddle.cli.main(argv)`` in process over a fixed corpus and prints one
line per invocation: the argv, the exit code, and a sha256 of stdout, of
stderr and of the files the invocation wrote.  A ``verify`` report (exit 0, 1
or 2) adds its ordered ``id:status`` list, so a status that changes reads apart
from residual digits that move.  The temporary directory that
holds the corpus is replaced by ``<tmp>`` before anything is printed or
hashed.  The last line is a sha256 of all the lines.  Two runs print the same
bytes, so the transcript of one commit diffs against another's: run it once
per checkout with that checkout's ``src`` on ``PYTHONPATH``.

The corpus:

- ``fixture``: the 4 x 4 worked example of ``tests/_families.py``;
- ``invertible``, ``singular``, ``undetermined``: seeded ``gen_instance``
  systems on which ``diagnose`` exits 0, 1 and 2;
- ``no_d``: the ``invertible`` system without ``D.mtx`` (a zero D);
- ``no_a``: the fixture without ``A.mtx``.

Each system runs every subcommand in both formats, plus ``--alpha``,
``--allow-dense`` and the tolerance flags; ``generate`` runs on a feasible,
an infeasible and a missing spec; a bad tolerance, an unknown subcommand and
a bad ``--format`` are usage errors.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from _families import fixture_three_block  # noqa: E402
from dsaddle import GeneratorSpec, gen_instance, save_block_system  # noqa: E402
from dsaddle.cli import main as dsaddle_main  # noqa: E402

PLACEHOLDER = "<tmp>"
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
    return paths


def invocations():
    """argv templates; {out} is a fresh output directory per invocation."""
    for name in ("fixture", "invertible", "singular", "undetermined", "no_d", "no_a"):
        for fmt in ("text", "json"):
            yield ["diagnose", f"{{{name}}}", "--format", fmt]
            yield ["invert", f"{{{name}}}", "--out", "{out}", "--format", fmt]
            yield ["invert", f"{{{name}}}", "--out", "{out}", "--allow-dense", "--format", fmt]
            yield ["verify", f"{{{name}}}", "--format", fmt]
        yield ["diagnose", f"{{{name}}}", "--tol-rank", "1e-6"]
        yield ["diagnose", f"{{{name}}}", "--tol-rank", "1e-12", "--tol-residual", "1e-6"]
        yield ["verify", f"{{{name}}}", "--tol-residual", "1e-300", "--format", "json"]
        for alpha in ("0.5", "5.0", "nan"):
            yield ["verify", f"{{{name}}}", "--alpha", alpha]
    for fmt in ("text", "json"):
        yield ["generate", "--spec", "{spec}", "--out", "{out}", "--format", fmt]
        yield ["generate", "--spec", "{spec}", "--out", "{out}", "--seed", "7", "--format", fmt]
    yield ["generate", "--spec", "{spec}", "--out", "{out}", "--tol-rank", "1e-8"]
    yield ["generate", "--spec", "{infeasible}", "--out", "{out}"]
    yield ["generate", "--spec", "{missing_spec}", "--out", "{out}"]
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


def run(argv, root: str) -> str:
    """The transcript line of one invocation."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = dsaddle_main(argv)
    out, err = (s.getvalue().replace(root, PLACEHOLDER).encode() for s in (stdout, stderr))
    fields = [json.dumps([a.replace(root, PLACEHOLDER) for a in argv]), f"exit={code}",
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
            line = f"{run(argv, tmp)} files={files_digest(out)}\n"
            sys.stdout.write(line)
            table.update(line.encode())
    sys.stdout.write(f"transcript sha256 {table.hexdigest()}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
