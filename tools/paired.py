"""Paired per-operation timing of two dsaddle checkouts on the benchmark's inputs.

    python tools/paired.py --parent PARENT --change CHANGE --workload session-525 \
        --ops 60 --label session-525

PARENT and CHANGE are checkouts holding ``src/dsaddle`` (a ``git archive`` of
a commit will do; the same directory twice is an A/A run).  Both packages are
imported into one process as ``pkga`` (parent) and ``pkgb`` (change) from a
temporary directory of two symlinks, which works because every import inside
the package is relative.  The inputs are built once by the parent's
``bench/workloads.py``, with the parent package as ``dsaddle``.  Each
operation then runs both packages on the same input in random order, checks
each output with the workload's own ``check``, and keeps the ratio of the
change's wall time to the parent's; a ratio below 1 means the change is
faster.  The report is the median ratio with a bootstrap 95% interval, and
the median per order (parent first, change first), which shows any bias of
running first or second.  Next to it stand the source lines of each side
(``src/dsaddle/*.py`` as ``wc -l`` counts them), and the median ``tracemalloc``
peak of each side (``parent_peak_mib``, ``change_peak_mib``) over a few more
operations, run after the timed ones and untimed, since tracing slows every
allocation.  It is printed and written to ``BENCH_<label>.json`` in the working
directory.  BLAS is pinned to one thread, as in ``bench/run.py``.

Only the in-process workloads ``ladder-175`` and ``session-525`` are
supported: ``cli-35`` starts a fresh interpreter per operation.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BOOTSTRAP = 2000
PEAK_OPS = 5  # untimed operations per side under tracemalloc


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True, choices=("ladder-175", "session-525"))
    parser.add_argument("--ops", type=int, default=60, help="operations, each run by both")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--label", help="names BENCH_<label>.json (default: the workload)")
    args = parser.parse_args(argv)
    if args.ops < 1 or args.seed < 0:
        parser.error("--ops must be >= 1 and --seed >= 0")
    return args


def load_packages(parent, change, links):
    """pkga and pkgb from the src/dsaddle of each checkout, via symlinks in links."""
    for name, root in (("pkga", parent), ("pkgb", change)):
        (links / name).symlink_to((root / "src" / "dsaddle").resolve(), target_is_directory=True)
    sys.path.insert(0, str(links))
    return importlib.import_module("pkga"), importlib.import_module("pkgb")


def src_loc(root):
    """Lines of the checkout's src/dsaddle/*.py, counted as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (root / "src" / "dsaddle").glob("*.py"))


def traced_peak(run, prepared):
    """Peak traced memory of one operation, in MiB."""
    gc.collect()
    tracemalloc.start()
    try:
        run(prepared)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def median_interval(ratios, rng):
    """Median of the ratios and the 2.5 and 97.5 percentiles of its bootstrap."""
    ratios = np.asarray(ratios)
    if not ratios.size:
        return None, None, None
    medians = np.median(rng.choice(ratios, size=(BOOTSTRAP, ratios.size)), axis=1)
    return float(np.median(ratios)), *map(float, np.percentile(medians, [2.5, 97.5]))


def main(argv=None):
    args = parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "links").mkdir()
        packages = load_packages(args.parent, args.change, tmp / "links")
        sys.modules["dsaddle"] = packages[0]
        sys.path.insert(0, str((args.parent / "bench").resolve()))
        import workloads
        workload = workloads.WORKLOADS[args.workload](args.seed, tmp / "work", args.parent)
        workload.build()
        for package in packages:
            workloads.dsaddle = package
            workload.warm_up()

        rng = np.random.default_rng([args.seed, 7])
        seconds = [[], []]
        first = []
        failures = []
        for i in range(args.ops):
            prepared = workload.prepare(i)
            order = rng.permutation(2)
            for which in order:
                workloads.dsaddle = packages[which]
                gc.collect()
                t0 = time.perf_counter()
                result = workload.run(prepared)
                seconds[which].append(time.perf_counter() - t0)
                problem = workload.check(prepared, result)
                if problem:
                    failures.append({"op": i, "package": "ab"[which], "problem": problem})
            first.append(int(order[0]))

        peaks = [[], []]
        for i in range(PEAK_OPS):
            prepared = workload.prepare(i)
            for which in rng.permutation(2):
                workloads.dsaddle = packages[which]
                peaks[which].append(traced_peak(workload.run, prepared))

    ratios = np.array(seconds[1]) / np.array(seconds[0])
    first = np.array(first)
    boot = np.random.default_rng([args.seed, 11])
    median, low, high = median_interval(ratios, boot)
    report = {
        "label": args.label or args.workload,
        "workload": args.workload,
        "seed": args.seed,
        "ops": args.ops,
        "ratio_median": median,
        "ratio_ci95": [low, high],
        "ratio_median_parent_first": median_interval(ratios[first == 0], boot)[0],
        "ratio_median_change_first": median_interval(ratios[first == 1], boot)[0],
        "parent_op_ms_median": float(np.median(seconds[0]) * 1e3),
        "change_op_ms_median": float(np.median(seconds[1]) * 1e3),
        "parent_peak_mib": float(np.median(peaks[0])),
        "change_peak_mib": float(np.median(peaks[1])),
        "parent_src_loc": src_loc(args.parent),
        "change_src_loc": src_loc(args.change),
        "failures": failures,
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "machine": platform.machine(), "cpus": os.cpu_count()},
    }
    path = Path(f"BENCH_{report['label']}.json")
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{args.workload}: change / parent per op {median:.4f} [{low:.4f}, {high:.4f}] "
          f"over {args.ops} ops; parent first {report['ratio_median_parent_first']}, "
          f"change first {report['ratio_median_change_first']}; traced peak "
          f"{report['parent_peak_mib']:.3f} -> {report['change_peak_mib']:.3f} MiB; src LOC "
          f"{report['parent_src_loc']} -> {report['change_src_loc']}; "
          f"{len(failures)} failed checks -> {path}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
