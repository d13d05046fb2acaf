"""Command-line front end.

Subcommands:

    diagnose   run the invertibility ladder on a directory of block files
    invert     write the three-block inverse where it applies, else the dense one
    generate   build a seeded random instance from a JSON spec
    verify     recompute every identity on an instance and report residuals

Exit codes: 0 success (for diagnose: invertible), 1 singular (diagnose) or a
failed identity (verify), 2 undetermined, 64 usage error, 65 data error,
70 internal error (an unexpected exception, reported on one stderr line).
Reports are emitted as text or canonical JSON; the text is rendered from the
JSON payload, so both carry the same facts, and identical inputs produce
byte-identical JSON.  Handlers read the argparse namespace of build_parser.
"""

import argparse
import json
import logging
import sys as _sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .core import GenerationError, PreconditionError, assemble
from .generators import GeneratorSpec, gen_instance
from .inverses import dense_inverse_blocks, three_block_inverse, verify_identities
from .invertibility import Verdict, diagnose, oracle_invertible
from .mmio import canonical_json, load_block_system, save_block_system, \
    save_inverse_blocks, write_json
from .subspaces import DEFAULT_TOL, ToleranceConfig, _spectral_norm

EXIT_INVERTIBLE = 0
EXIT_SINGULAR = 1
EXIT_UNDETERMINED = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_SOFTWARE = 70

_log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(_sys.stderr)
        _sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _tolerance(field):
    """Argument type for one ToleranceConfig field, checked by the config itself."""
    def parse(text):
        try:
            return getattr(replace(DEFAULT_TOL, **{field: float(text)}), field)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dsaddle",
                     description="invertibility analysis for double saddle-point systems")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, residual=False):
        p.add_argument("--tol-rank", type=_tolerance("rank_rtol"), default=DEFAULT_TOL.rank_rtol,
                       help="relative rank tolerance (default 1e-10)")
        if residual:  # only diagnose and verify accept a residual: a witness, an identity
            p.add_argument("--tol-residual", type=_tolerance("residual_rtol"),
                           default=DEFAULT_TOL.residual_rtol,
                           help="relative residual tolerance (default 1e-8)")
        p.add_argument("--format", dest="fmt", choices=("text", "json"),
                       default="text", help="report format")

    p = sub.add_parser("diagnose", help="decide invertibility of a block system")
    p.add_argument("input_dir", help="directory holding A.mtx, B.mtx, C.mtx [D.mtx E.mtx]")
    add_common(p, residual=True)

    p = sub.add_parser("invert", help="compute the inverse, structured where possible")
    p.add_argument("input_dir")
    p.add_argument("--out", dest="out_dir", required=True, help="output directory")
    add_common(p)

    p = sub.add_parser("generate", help="generate a seeded random instance")
    p.add_argument("--spec", dest="spec_path", required=True,
                   help="JSON file with generator targets")
    p.add_argument("--out", dest="out_dir", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    add_common(p)

    p = sub.add_parser("verify", help="recompute identities and report residuals")
    p.add_argument("input_dir")
    p.add_argument("--alpha", type=float, default=None,
                   help="congruence scaling (default: interval midpoint)")
    add_common(p, residual=True)
    return parser


def _emit(args, payload: dict, text_lines) -> None:
    if args.fmt == "json":
        _sys.stdout.write(canonical_json(payload))
    else:
        _sys.stdout.write("\n".join(text_lines) + "\n")


def _diagnosis_text(payload: dict) -> list:
    lines = [f"verdict: {payload['verdict']}"]
    if payload["rule"]:
        lines.append(f"rule: {payload['rule']}")
    for entry in payload["conditions"]:
        lines.append(f"condition {entry['id']}: {entry['status']}")
    for name, tag in payload["definiteness"].items():
        lines.append(f"definiteness {name}: {tag}")
    for name, rank in payload["ranks"].items():
        lines.append(f"rank {name}: {rank}")
    if "witness" in payload:
        lines.append("witness: " + " ".join(f"{x:.17g}" for x in payload["witness"]))
    return lines


def _cmd_diagnose(args, tol: ToleranceConfig) -> int:
    result = diagnose(load_block_system(args.input_dir), tol)
    payload = {"schema": "dsaddle.diagnosis/1", **result.to_dict()}
    _emit(args, payload, _diagnosis_text(payload))
    return {Verdict.INVERTIBLE: EXIT_INVERTIBLE,
            Verdict.SINGULAR: EXIT_SINGULAR,
            Verdict.UNDETERMINED: EXIT_UNDETERMINED}[result.verdict]


def _cmd_invert(args, tol: ToleranceConfig) -> int:
    system = load_block_system(args.input_dir)
    if not oracle_invertible(system, tol):
        _sys.stderr.write("the system is singular: no inverse exists\n")
        return EXIT_DATA
    # inverse_via_factorization is no fallback: null(A) = m and N1 force
    # rank(B) = m and so DS1, so its hypotheses imply the three-block ones.
    try:
        inv, constructor = three_block_inverse(system, tol), "three_block"
    except PreconditionError as exc:
        _log.info("dense inverse: %s", exc)
        inv, constructor = dense_inverse_blocks(system), "dense"

    misfit = assemble(system).matrix @ inv.full
    misfit[np.diag_indices_from(misfit)] -= 1.0  # K X - I
    manifest = {
        "schema": "dsaddle.inverse-manifest/1",
        "constructor": constructor,
        "dims": list(system.dims),
        "spectral_residual": float(_spectral_norm(misfit)),
        "max_entry_residual": float(np.max(np.abs(misfit))),
    }
    save_inverse_blocks(args.out_dir, inv, manifest)
    _emit(args, manifest, [
        f"constructor: {manifest['constructor']}",
        f"spectral residual of K X - I: {manifest['spectral_residual']:.3e}",
        f"written to: {args.out_dir}",
    ])
    return 0


def _cmd_generate(args, tol: ToleranceConfig) -> int:
    spec = GeneratorSpec.from_dict(json.loads(Path(args.spec_path).read_text(encoding="utf-8")))
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    system, certificate = gen_instance(spec, tol)
    out = Path(args.out_dir)
    save_block_system(out, system)
    payload = {"schema": "dsaddle.certificate/1", **certificate.to_dict()}
    write_json(out / "certificate.json", payload)
    _emit(args, payload,
          [f"instance written to: {args.out_dir}"]
          + [f"{k}: {v}" for k, v in sorted(payload.items())
             if k not in ("schema", "definiteness")])
    return 0


def _cmd_verify(args, tol: ToleranceConfig) -> int:
    entries = verify_identities(load_block_system(args.input_dir), tol, alpha=args.alpha)
    failed = [e for e in entries if e["status"] == "failed"]
    computed = [e for e in entries if e["status"] != "skipped"]
    payload = {"schema": "dsaddle.verify/1", "identities": entries,
               "all_passed": not failed and bool(computed)}
    lines = []
    for entry in payload["identities"]:
        if entry["status"] == "skipped":
            lines.append(f"{entry['id']}: skipped ({entry['reason']})")
        elif "residual" in entry:
            lines.append(f"{entry['id']}: {entry['status']} "
                         f"(residual {entry['residual']:.3e})")
        else:
            lines.append(f"{entry['id']}: {entry['status']}")
    _emit(args, payload, lines)
    if failed:
        return 1
    return 0 if computed else EXIT_UNDETERMINED


def run(args) -> int:
    """Execute one invocation parsed by build_parser and return its exit code."""
    handlers = {
        "diagnose": _cmd_diagnose,
        "invert": _cmd_invert,
        "generate": _cmd_generate,
        "verify": _cmd_verify,
    }
    try:
        tol = ToleranceConfig(args.tol_rank, getattr(args, "tol_residual", DEFAULT_TOL.residual_rtol))
        return handlers[args.command](args, tol)
    except (OSError, ValueError, GenerationError) as exc:
        _sys.stderr.write(f"dsaddle {args.command}: {exc}\n")
        return EXIT_DATA
    except Exception as exc:  # never let a bug exit with a verdict's code
        _log.debug("dsaddle %s failed", args.command, exc_info=True)
        _sys.stderr.write(f"dsaddle {args.command}: internal error: "
                          f"{type(exc).__name__}: {exc}\n")
        return EXIT_SOFTWARE


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
