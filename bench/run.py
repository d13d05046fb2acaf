"""dsaddle benchmark: end-to-end and per-layer metrics for three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` and BENCHMARK.json for why each exists):

    ladder-175   one ``diagnose`` per operation at (n, m, p) = (100, 50, 25),
                 six construction classes in equal shares, one exit each
    session-525  diagnose -> three_block_inverse -> inverse_via_factorization
                 -> verify_identities on one system at (300, 150, 75)
    cli-35       one fresh ``python -m dsaddle.cli`` process per operation
                 at (20, 10, 5), rotating generate / diagnose / invert / verify

Each run pins BLAS to one thread for itself and its children, sets up
``SETUP_REPEATS`` times (fresh-interpreter ``import dsaddle``, input
generation with the dense oracle, warm-up) and reports the median, then runs
a closed loop for ``--seconds`` and checks every operation's output.  The
loop ends at the first whole rotation of the workload's classes after the
time is up, so every class has the same share.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half traced, prints the per-layer metrics, and writes the
spans to ``.bench_work/spans-<workload>-seed<N>.json``.  The last line of
stdout is the result object; the line before it is the run record.
"""

import os

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
TAIL_SAMPLES = 10
MiB = 2 ** 20


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ladder-175", "session-525", "cli-35"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def set_up(workload, seed, workdir, tracer):
    """Set up SETUP_REPEATS times; every repeat must give the same inputs."""
    durations, digests = [], set()
    work = None
    if tracer:
        tracer.op = "setup"
        tracer.install()
    try:
        for _ in range(SETUP_REPEATS):
            work = None
            gc.collect()
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import dsaddle"], env=child_env(),
                           cwd=ROOT, check=True)
            work = workload(seed, workdir, ROOT)
            work.build()
            work.warm_up()
            durations.append(time.perf_counter() - t0)
            digests.add(work.inputs_sha256)
    finally:
        if tracer:
            tracer.uninstall()
            tracer.op = None
    if len(digests) != 1:
        raise RuntimeError(f"one seed gave different inputs across set-ups: {digests}")
    return work, durations


def timed_phase(work, seconds, first_op, tracer=None):
    """Closed loop from op ``first_op`` until ``seconds`` pass, in whole rotations.

    Returns the (op id, ms) pairs, the failures and the wall time of the loop.
    """
    ops = []            # (op id, duration in ms)
    problems = []
    gc.collect()
    start = time.perf_counter()
    deadline = start + seconds
    i = first_op
    while True:
        prepared = work.prepare(i)
        if tracer:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            result, error = work.run(prepared), None
        except Exception as exc:  # an operation that raises counts as failed
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.op = None
        if error is None:
            try:
                error = work.check(prepared, result)
            except Exception as exc:  # output too malformed to check
                error = f"unexpected output: {type(exc).__name__}: {exc}"
        ops.append((i, elapsed * 1e3))
        if error:
            problems.append(f"op {i} ({work.op_class(i)}): {error}")
        i += 1
        if (i - first_op) % work.rotation == 0 and time.perf_counter() >= deadline:
            break
    return ops, problems, time.perf_counter() - start


def tail(durations):
    """Highest percentile with TAIL_SAMPLES samples above it, its rank, and the count."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= TAIL_SAMPLES:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_SAMPLES - 1], 100.0 * (n - TAIL_SAMPLES) / n, TAIL_SAMPLES


def end_to_end(work, ops, problems, wall, setup_durations):
    durations = [ms for _, ms in ops]
    tail_ms, tail_pct, above = tail(durations)
    # The CLI workload's memory is its largest child; the others run in-process.
    peak_kb = getattr(work, "peak_rss_kb", None) \
        or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": len(ops) / wall,
        "op_p50_ms": statistics.median(durations),
        "op_tail_ms": tail_ms,
        "ok_frac": (len(ops) - len(problems)) / len(ops),
        "setup_s": statistics.median(setup_durations),
        "peak_rss_mb": peak_kb / 1024,
    }
    return metrics, {"op_tail_percentile": tail_pct, "op_tail_samples_above": above}


PER_OP_KEYS = (
    "kernel.svd_calls", "kernel.eig_calls", "kernel.solve_calls", "kernel.factor_calls",
    "kernel.busy_ms", "kernel.mflop_computed", "kernel.mbyte_computed",
    "subspaces.calls", "invertibility.condition_report_calls",
    "invertibility.condition_report_ms", "inverses.three_block_ms",
    "inverses.factorization_ms", "inverses.verify_ms", "inverses.oracle_ms",
    "inverses.precondition_errors", "core.blocksystem_ms",
    "mmio.read_ms", "mmio.write_ms", "mmio.files", "mmio.bytes",
)


def per_layer(work, spans, traced_ops, untraced_ops, exits):
    """Per-layer metrics of the traced phase, per operation unless named otherwise.

    Metrics per ``ladder-175`` exit are named after ``exits`` and read 0 on the
    other workloads.
    """
    counters = tracing.op_counters(spans)
    ids = [i for i, _ in traced_ops]
    op_ms = dict(traced_ops)

    def mean(key, among):
        return sum(counters.get(i, {}).get(key, 0) for i in among) / len(among) if among else 0

    metrics = {key: mean(key, ids) for key in PER_OP_KEYS}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_ms"] = mean(f"{layer}.self_ms", ids)
    for label in exits:
        among = [i for i in ids if work.op_class(i) == label]
        for key in [f"kernel.{kind}_calls" for kind in tracing.KERNEL_COUNTERS] + \
                ["kernel.busy_ms", "kernel.mflop_computed", "kernel.mbyte_computed"]:
            metrics[f"{key}.{label}"] = mean(key, among)
        metrics[f"invertibility.condition_report_calls.{label}"] = \
            mean("invertibility.condition_report_calls", among)
        metrics[f"invertibility.diagnose_ms.{label}"] = statistics.median(
            [counters.get(i, {}).get("invertibility.diagnose_ms", 0.0) for i in among]) \
            if among else 0.0
    metrics["kernel.share"] = metrics["kernel.busy_ms"] * len(ids) / sum(op_ms.values())

    gen_ms = [(end - start) / 1e6 for name, start, end, _, op, _ in spans
              if name == "generators.gen_instance" and op is not None]
    metrics["generators.gen_instance_ms"] = statistics.median(gen_ms) if gen_ms else 0.0
    metrics["generators.attempts_per_instance"] = statistics.fmean(work.attempts)
    processes = getattr(work, "processes", [])
    for key in ("interpreter_ms", "dsaddle_cli_ms", "scipy_ms"):
        metrics[f"import.{key}"] = statistics.median(p[key] for p in processes) \
            if processes else 0.0
    metrics["mem.pool_mb"] = work.pool_bytes / MiB
    metrics["trace.overhead_frac"] = (statistics.median(op_ms.values())
                                      / statistics.median(ms for _, ms in untraced_ops) - 1)
    return metrics


def src_facts():
    files = sorted((SRC / "dsaddle").glob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        commit = out.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": h.hexdigest(), "src_lines": lines}


def run(args):
    import numpy
    import scipy

    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS[args.workload]
    bench_work = ROOT / ".bench_work"
    workdir = bench_work / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    try:
        work, setup_durations = set_up(workload, args.seed, workdir, tracer)
        if not args.trace:
            ops, problems, wall = timed_phase(work, args.seconds, 0)
            metrics, tail_facts = end_to_end(work, ops, problems, wall, setup_durations)
            record.update(tail_facts)
            declared_metrics = declared["end_to_end"]
        else:
            untraced, problems, _ = timed_phase(work, args.seconds / 2, 0)
            first = len(untraced)
            if work.name == "cli-35":
                work.traced = True
                traced, more, _ = timed_phase(work, args.seconds / 2, first)
                spans = work.spans
            else:
                tracer.install()
                try:
                    traced, more, _ = timed_phase(work, args.seconds / 2, first, tracer)
                finally:
                    tracer.uninstall()
                spans = tracer.spans
            problems += more
            ops = untraced + traced
            metrics = per_layer(work, spans, traced, untraced,
                                [label for label, _, _ in workloads.Ladder.classes])
            bench_work.mkdir(exist_ok=True)
            spans_path = bench_work / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                              "spans": spans}), encoding="utf-8")
            record["spans_file"] = str(spans_path.relative_to(ROOT))
            declared_metrics = declared["per_layer"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = [m["name"] for m in declared_metrics]
    if set(names) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(names) ^ set(metrics))}")
    record.update({
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_env": {var: os.environ[var] for var in BLAS_ENV},
        **src_facts(),
        "inputs_sha256": work.inputs_sha256,
        "setup_runs_s": setup_durations,
        "ops": len(ops), "fail_frac": len(problems) / len(ops),
        "failures": problems[:5],
    })
    if hasattr(work, "exits"):
        record["exits"] = work.exits
    result = {
        "correct": not problems, "attempted": len(ops), "failed": len(problems),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared_metrics},
    }
    for name in names:
        sys.stderr.write(f"{name:48s} {metrics[name]:14.6g} "
                         f"{result['metrics'][name]['unit']}\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "dsaddle" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no dsaddle sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    run(args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
