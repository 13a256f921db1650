"""Tests of the benchmark's own checker.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import dataclasses
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from checker import objective_and_residual  # noqa: E402
from nonconvex_mm import kkt_residual  # noqa: E402
from tracer import NullTracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def solve_first_case(name, tmp_path):
    workload = WORKLOADS[name]
    ctx = workload.prepare([0], tmp_path)
    s = workload.setup(0, ctx, NullTracer())[0]
    return workload, ctx, s, workload.solve(s, NullTracer(), time.perf_counter)


@pytest.mark.parametrize("name", ["logistic-dense", "cccp-ls-box"])
def test_perturbed_iterate_is_counted_as_failed(name, tmp_path):
    workload, ctx, s, out = solve_first_case(name, tmp_path)
    tally = run.Tally(workload, ctx)
    tally.add([(s, out)])
    assert (tally.attempted, tally.failed) == (1, 0)

    w = out.w.copy()
    w[np.argmax(np.abs(w))] *= 0.99
    tally.add([(s, dataclasses.replace(out, w=w))])
    assert (tally.attempted, tally.failed) == (2, 1)


def test_mm_residual_agrees_with_library(tmp_path):
    _, _, s, out = solve_first_case("logistic-dense", tmp_path)
    data = s.loss.data
    _, resid = objective_and_residual(s.loss.kind, data.X, data.y, s.case.penalty,
                                      s.params, out.w)
    assert resid == pytest.approx(kkt_residual(out.w, s.problem), rel=1e-6, abs=1e-12)


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "logistic-dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
