"""tools/paired.py, the instrument that compares two checkouts op by op, runs end
to end: an A/A pass of this checkout on ladder-175 for 3 ops, with the traced
memory peak of each side, and on cli-35 for 4 ops, one CLI process per side and
op, whose peaks are null."""

import json
import os
import sys
from pathlib import Path

import pytest

import dsaddle
from _families import answers_tool

ROOT = Path(__file__).resolve().parents[1]
REPORT_KEYS = {"label", "workload", "seed", "ops", "ratio_median", "ratio_ci95",
               "ratio_median_parent_first", "ratio_median_change_first", "parent_op_ms_median",
               "change_op_ms_median", "parent_peak_mib", "change_peak_mib", "parent_src_loc",
               "change_src_loc", "failures", "host"}


def _a_over_a(monkeypatch, tmp_path, workload, ops):
    """The report of an A/A run of this checkout."""
    # the tool pins BLAS threads, puts its package links and bench/ on sys.path, and
    # loads the two packages as pkga and pkgb, the parent's also as dsaddle, and
    # bench/workloads.py; each of these is undone after the run
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setitem(sys.modules, "dsaddle", dsaddle)
    monkeypatch.chdir(tmp_path)
    try:
        code = answers_tool("paired").main(["--parent", str(ROOT), "--change", str(ROOT),
                                            "--workload", workload, "--ops", str(ops)])
    finally:
        for name in [name for name in sys.modules
                     if name.split(".")[0] in ("pkga", "pkgb", "workloads")]:
            del sys.modules[name]
    assert code == 0
    report = json.loads((tmp_path / f"BENCH_{workload}.json").read_text())
    assert set(report) == REPORT_KEYS
    assert report["failures"] == [] and report["ops"] == ops
    assert report["parent_src_loc"] == report["change_src_loc"] > 0
    assert report["ratio_ci95"][0] <= report["ratio_median"] <= report["ratio_ci95"][1]
    return report


def test_a_over_a_pass_on_ladder(monkeypatch, tmp_path):
    report = _a_over_a(monkeypatch, tmp_path, "ladder-175", 3)
    # one commit on both sides: the same operations allocate alike
    assert report["parent_peak_mib"] > 0
    assert report["change_peak_mib"] == pytest.approx(report["parent_peak_mib"], rel=0.05)


def test_a_over_a_pass_on_cli(monkeypatch, tmp_path):
    # each op starts one CLI process per side, each checked by the workload's check
    report = _a_over_a(monkeypatch, tmp_path, "cli-35", 4)
    assert report["parent_peak_mib"] is None and report["change_peak_mib"] is None
    assert report["parent_op_ms_median"] > 0 and report["change_op_ms_median"] > 0
