"""The benchmark's tracer (``perfbench/tracer.py``) patches solver functions
by module attribute name.  Renaming one of them must fail here, not only in
the benchmark's smoke run."""

import importlib.util
from pathlib import Path

import numpy as np

from nonconvex_mm import (
    CccpConfig,
    Dataset,
    LeastSquaresLoss,
    MmConfig,
    ProblemInstance,
    ScadPenalty,
    dc_problem_from_penalty,
    run_cccp,
    run_mm,
)
from nonconvex_mm import cccp, diagnostics, mm

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_solve_of_each_solver_runs_under_the_tracer_patches():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 6))
    loss = LeastSquaresLoss(Dataset(X=X, y=X @ rng.normal(size=6), task="regression"))
    pen = ScadPenalty(lam=0.1, theta=3.7)
    originals = [getattr(mod, name) for mod, name in (
        (mm, "step_a"), (mm, "step_b"), (mm, "subgradient_residual"),
        (mm, "kkt_residual"), (diagnostics, "kkt_residual"), (cccp, "cccp_step"),
        (cccp, "least_squares_strong_convexity"))]
    tracer = _tracer_module().Tracer()
    with tracer.patched_modules():
        mm_trace = run_mm(ProblemInstance(loss=loss, penalty=pen), MmConfig(max_iter=5))
        prob = dc_problem_from_penalty(loss, pen, box=(-1.0, 1.0))
        cccp_trace = run_cccp(prob, CccpConfig(max_iter=3))
    assert mm_trace.num_steps() > 0 and cccp_trace.num_steps() > 0
    assert {"cccp.step", "losses.strong_convexity"} <= set(tracer.name)
    assert tracer.counts["cccp.inner_iters"] == sum(cccp_trace.meta["inner_iterations"])
    assert originals == [mm.step_a, mm.step_b, mm.subgradient_residual, mm.kkt_residual,
                         diagnostics.kkt_residual, cccp.cccp_step,
                         cccp.least_squares_strong_convexity]
