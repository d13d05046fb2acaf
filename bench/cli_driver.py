"""Traced stand-in for ``python -m dsaddle.cli``, run in a fresh interpreter.

    python -X importtime bench/cli_driver.py --spans OUT.json -- <cli args>

Times ``import dsaddle.cli``, installs the benchmark tracer (package layers,
mmio reads and writes, kernels), calls ``dsaddle.cli.main(argv)`` and writes
the spans to OUT.json.  The CLI's own stdout and exit code pass through, so
the caller checks a traced process exactly like an untraced one.
"""

import time

STARTED = time.time()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main():
    args = sys.argv[1:]
    if len(args) < 3 or args[0] != "--spans" or args[2] != "--":
        sys.stderr.write("usage: cli_driver.py --spans OUT.json -- <cli args>\n")
        return 64
    spans_path, argv = args[1], args[3:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    t0 = time.perf_counter()
    import dsaddle.cli
    import_ms = (time.perf_counter() - t0) * 1e3

    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = 0
    try:
        code = dsaddle.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        Path(spans_path).write_text(json.dumps({
            "started": STARTED, "import_ms": import_ms, "spans": tracer.spans,
        }), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
