"""Self-tests of the benchmark; exits non-zero when one fails.

    python3 bench/selftest.py

1. A short run of each workload on two seeds has no failed operation.
2. Two traced ``ladder-175`` runs on one seed give identical kernel and
   condition-report counts, and ``condition_report`` runs twice on the
   undetermined and direct_sum_iff exits (both pass through the reversed
   report of ``rank_c_iff``) and once on the other four.
3. One seed always gives the same input digest; two seeds give different ones.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads before numpy is imported

BENCH = Path(__file__).resolve().parent
SHORT_SECONDS = "1"


def bench(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", SHORT_SECONDS, "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=180)
    if out.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def check_no_failures():
    for workload in ("ladder-175", "session-525", "cli-35"):
        for seed in (1, 2):
            result, record = bench(workload, seed, 0)
            assert result["correct"] and result["failed"] == 0, (workload, seed, record["failures"])
            assert record["fail_frac"] == 0.0


def check_traced_counts_repeat():
    first, _ = bench("ladder-175", 3, 1)
    second, _ = bench("ladder-175", 3, 1)
    counts = {name: m["value"] for name, m in first["metrics"].items()
              if name.startswith("kernel.") and "_calls" in name
              or name.startswith("invertibility.condition_report_calls")}
    again = {name: second["metrics"][name]["value"] for name in counts}
    assert counts == again, {k: (counts[k], again[k]) for k in counts if counts[k] != again[k]}
    for label, _, _ in workloads().Ladder.classes:
        expected = 2 if label in ("undetermined", "direct_sum_iff") else 1
        got = counts[f"invertibility.condition_report_calls.{label}"]
        assert got == expected, (label, got)


def workloads():
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    import workloads as module
    return module


def check_digests():
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for name, workload in workloads().WORKLOADS.items():
            digests = []
            for seed in (5, 5, 6):
                work = workload(seed, Path(tmp) / f"{name}-{len(digests)}", run.ROOT)
                work.build()
                digests.append(work.inputs_sha256)
            assert digests[0] == digests[1], (name, "same seed, different inputs")
            assert digests[0] != digests[2], (name, "different seeds, same inputs")


def main():
    failed = 0
    for test in (check_digests, check_no_failures, check_traced_counts_repeat):
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
