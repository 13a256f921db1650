"""Per-layer metrics of one traced sweep.

Every metric is reported on every workload; a layer the workload's path
never reaches reads 0.  Iterations are solver iterations: MM steps for
the MM workloads, inner proximal-gradient steps for CCCP.
"""

from __future__ import annotations

import statistics

import numpy as np

# name -> (unit, better)
PER_LAYER = {
    "losses.value.calls": ("count", "lower"),
    "losses.value.s": ("s", "lower"),
    "losses.gradient.calls": ("count", "lower"),
    "losses.gradient.s": ("s", "lower"),
    "losses.matvecs_per_iter": ("count", "lower"),
    "losses.bytes_per_iter.computed": ("B", "lower"),
    "losses.lipschitz.s": ("s", "lower"),
    "losses.strong_convexity.s": ("s", "lower"),
    "cccp.dc_problem.s": ("s", "lower"),
    "penalties.prox.calls": ("count", "lower"),
    "penalties.prox.s": ("s", "lower"),
    "penalties.prox.ns_per_coord": ("ns", "lower"),
    "penalties.deriv.calls": ("count", "lower"),
    "penalties.deriv.s": ("s", "lower"),
    "mm.step.calls": ("count", "lower"),
    "mm.step.self_s": ("s", "lower"),
    "mm.run_mm.self_s": ("s", "lower"),
    "mm.iters": ("count", "lower"),
    "mm.mu": ("1", "lower"),
    "diagnostics.subgradient_residual.calls": ("count", "lower"),
    "diagnostics.subgradient_residual.s": ("s", "lower"),
    "diagnostics.kkt_residual.calls": ("count", "lower"),
    "diagnostics.kkt_residual.s": ("s", "lower"),
    "diagnostics.cert_share": ("ratio", "lower"),
    "cccp.step.calls": ("count", "lower"),
    "cccp.step.s": ("s", "lower"),
    "cccp.inner_iters": ("count", "lower"),
    "cccp.inner_per_outer": ("count", "lower"),
    "data_io.read_libsvm.s": ("s", "lower"),
    "data_io.read_libsvm.mb_per_s": ("MB/s", "higher"),
    "data_io.synth_generate.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _design_bytes(X) -> int:
    if hasattr(X, "indptr"):
        return X.data.nbytes + X.indices.nbytes + X.indptr.nbytes
    return X.nbytes


def per_layer(tracer, outcomes, traced_solve_s: float, untraced_solve_s: float,
              input_bytes: int) -> dict[str, float]:
    """Reduce one traced sweep to the metrics in ``PER_LAYER``."""
    tot = tracer.layer_totals()

    def get(name, field):
        return float(tot[name][field]) if name in tot else 0.0

    mm_iters = sum(o.iters for _, o in outcomes if o.mu is not None)
    inner = tracer.counts["cccp.inner_iters"]
    solver_iters = mm_iters + inner
    matvecs = 2 * get("losses.gradient", "calls") + get("losses.value", "calls")
    x_bytes = statistics.mean(_design_bytes(s.loss.data.X) for s, _ in outcomes)
    solve_s = get("mm.run_mm", "s") + get("cccp.run_cccp", "s")
    mus = [o.mu for _, o in outcomes if o.mu is not None]
    m = {
        "losses.value.calls": get("losses.value", "calls"),
        "losses.value.s": get("losses.value", "s"),
        "losses.gradient.calls": get("losses.gradient", "calls"),
        "losses.gradient.s": get("losses.gradient", "s"),
        "losses.matvecs_per_iter": _ratio(matvecs, solver_iters),
        "losses.bytes_per_iter.computed": _ratio(matvecs, solver_iters) * x_bytes,
        "losses.lipschitz.s": get("losses.lipschitz", "s"),
        "losses.strong_convexity.s": get("losses.strong_convexity", "s"),
        "cccp.dc_problem.s": get("cccp.dc_problem", "s"),
        "penalties.prox.calls": get("penalties.prox", "calls"),
        "penalties.prox.s": get("penalties.prox", "s"),
        "penalties.prox.ns_per_coord": 1e9 * _ratio(get("penalties.prox", "s"),
                                                    tracer.counts["penalties.prox.coords"]),
        "penalties.deriv.calls": get("penalties.deriv", "calls"),
        "penalties.deriv.s": get("penalties.deriv", "s"),
        "mm.step.calls": get("mm.step", "calls"),
        "mm.step.self_s": get("mm.step", "self_s"),
        "mm.run_mm.self_s": get("mm.run_mm", "self_s"),
        "mm.iters": float(mm_iters),
        "mm.mu": float(np.median(mus)) if mus else 0.0,
        "diagnostics.subgradient_residual.calls": get("diagnostics.subgradient_residual", "calls"),
        "diagnostics.subgradient_residual.s": get("diagnostics.subgradient_residual", "s"),
        "diagnostics.kkt_residual.calls": get("diagnostics.kkt_residual", "calls"),
        "diagnostics.kkt_residual.s": get("diagnostics.kkt_residual", "s"),
        "diagnostics.cert_share": _ratio(tracer.top_level_seconds("diagnostics."), solve_s),
        "cccp.step.calls": get("cccp.step", "calls"),
        "cccp.step.s": get("cccp.step", "s"),
        "cccp.inner_iters": float(inner),
        "cccp.inner_per_outer": _ratio(inner, get("cccp.step", "calls")),
        "data_io.read_libsvm.s": get("data_io.read_libsvm", "s"),
        "data_io.read_libsvm.mb_per_s": _ratio(input_bytes / 1e6, get("data_io.read_libsvm", "s")),
        "data_io.synth_generate.s": get("data_io.synth_generate", "s"),
        "trace.overhead_s": traced_solve_s - untraced_solve_s,
    }
    return m
