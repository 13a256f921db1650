"""Inputs at extreme scales fail with a clear error or return a trace."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from nonconvex_mm import (
    CccpConfig,
    Dataset,
    LeastSquaresLoss,
    LogisticLoss,
    MmConfig,
    ProblemInstance,
    ScadPenalty,
    SyntheticSpec,
    certify,
    dc_problem_from_penalty,
    make_penalty,
    run_cccp,
    run_mm,
    synth_generate,
)
from nonconvex_mm.cli import main
from nonconvex_mm.data_io import write_libsvm

_DECADES = st.floats(-300.0, 300.0)


def _solves(loss, pen):
    """Each public solve of the property: run_mm under both schemes and,
    for least squares, run_cccp with a box."""
    prob = ProblemInstance(loss=loss, penalty=pen)
    for scheme in ("a", "b"):
        yield lambda s=scheme: run_mm(prob, MmConfig(scheme=s, max_iter=20,
                                                     record_iterates=False))
    if loss.kind == "ls":
        yield lambda: run_cccp(dc_problem_from_penalty(loss, pen, box=(-2.0, 2.0)),
                               CccpConfig(max_iter=5, inner_max_iter=50))


def _clear(call) -> None:
    """Run one public call; a ValueError or FloatingPointError must carry a
    message, and any other exception escapes and fails the test.

    numpy's overflow warnings are silenced, as in the other tests that
    drive a solve into overflow on purpose: the solvers report it as a
    non-finite objective (an error at the start, a "nonfinite" stop
    later) or a non-finite step norm or residual in the trace.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            trace = call()
    except (ValueError, FloatingPointError) as exc:
        assert str(exc)
        return
    stop = trace.meta["stop_reason"]
    assert len(trace) >= 1 and stop in ("tol", "budget", "nonfinite")
    assert trace.converged == (stop == "tol")
    if stop == "tol":
        # the certified residual the stop rule tested: for CCCP the
        # linearization gap plus the last inner residual
        stopped = trace.residual[-1] + trace.meta.get("inner_residuals", [0.0])[-1]
        assert stopped <= trace.meta["tol"]


# a design near 1e-162 has subnormal sums of squares: least squares raised
# ARPACK's "Starting vector is zero", and logistic loss ran with
# L_f = 5e-324 and warned that mu <= L_f
@example(rows=(-162.0, -162.0), cols=(0.0, 0.0), target=0.0, sparse=False,
         loss_kind="ls", seed=0)
@example(rows=(-162.0, -162.0), cols=(0.0, 0.0), target=0.0, sparse=True,
         loss_kind="ls", seed=1)
@example(rows=(-162.0, -162.0), cols=(0.0, 0.0), target=0.0, sparse=False,
         loss_kind="logistic", seed=2)
@example(rows=(-161.0, -163.0), cols=(0.0, -1.0), target=0.0, sparse=True,
         loss_kind="logistic", seed=3)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows=st.tuples(_DECADES, _DECADES), cols=st.tuples(_DECADES, _DECADES),
       target=_DECADES, sparse=st.booleans(), loss_kind=st.sampled_from(["ls", "logistic"]),
       seed=st.integers(0, 2**32 - 1))
def test_extreme_scales_fail_clearly_or_return_a_trace(rows, cols, target, sparse,
                                                       loss_kind, seed):
    # row and column scales spread between two powers of ten each, from
    # 1e-300 to 1e300; entries whose product leaves double range are part
    # of the input.  No ZeroDivisionError, OverflowError, ArpackError or
    # LinAlgError may reach the caller.
    rng = np.random.default_rng(seed)
    n, p = 12, 5
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        X = (rng.normal(size=(n, p)) * np.logspace(*rows, n)[:, None]
             * np.logspace(*cols, p))
    if loss_kind == "ls":
        y, task, make = rng.normal(size=n) * 10.0 ** target, "regression", LeastSquaresLoss
    else:
        y, task, make = rng.choice([-1.0, 1.0], size=n), "classification", LogisticLoss
    try:
        loss = make(Dataset(X=sp.csr_matrix(X) if sparse else X, y=y, task=task))
    except ValueError as exc:
        assert str(exc)
        return
    for call in _solves(loss, ScadPenalty(lam=0.1, theta=3.7)):
        _clear(call)


def _huge_least_squares() -> Dataset:
    # a design scaled by 1e150: mu is near 1e300, so every step is tiny
    # while the KKT residual is near 1e284 or more
    rng = np.random.default_rng(0)
    X = rng.normal(size=(50, 20)) * 1e150
    return Dataset(X=X, y=X @ (rng.random(20) < 0.3), task="regression")


def test_huge_scale_run_does_not_report_convergence():
    # the steps are tiny at a large KKT residual, so a stop on the step
    # norm would report convergence here
    prob = ProblemInstance(loss=LeastSquaresLoss(_huge_least_squares()),
                           penalty=ScadPenalty(lam=0.1, theta=3.7))
    trace = run_mm(prob, MmConfig())
    assert trace.meta["stop_reason"] != "tol" and not trace.converged
    assert trace.meta["kkt"] > trace.meta["tol"]
    assert not certify(trace).passed


def test_huge_scale_libsvm_solve_exits_2_and_diagnose_fails(tmp_path):
    path = tmp_path / "huge.libsvm"
    write_libsvm(_huge_least_squares(), path)
    args = ["--data", str(path), "--loss", "ls", "--penalty", "scad", "--scheme", "a"]
    assert main(["solve", *args]) == 2
    assert main(["diagnose", *args]) != 0


@pytest.mark.parametrize("kind,shape,scheme", [("scad", {"theta": 3.7}, "a"),
                                               ("mcp", {"gamma": 3.0}, "b"),
                                               ("log_eps", {"eps": 1.0}, "b")],
                         ids=["scad", "mcp", "log_eps"])
def test_tiny_design_huge_target_run_emits_no_runtime_warning(kind, shape, scheme):
    # ||d||^2 along a step overflows near 1e308 and MCP's quadratic piece
    # squares iterates near 1e155: neither may warn, while the run ends on
    # its budget with a trace
    rng = np.random.default_rng(0)
    loss = LeastSquaresLoss(Dataset(X=rng.normal(size=(40, 8)) * 1e-10,
                                    y=rng.normal(size=40) * 1e150, task="regression"))
    prob = ProblemInstance(loss=loss, penalty=make_penalty(kind, 0.1, **shape))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trace = run_mm(prob, MmConfig(scheme=scheme, max_iter=60, tol=0))
        # step norms reach 1e158, whose squares overflow
        cert = certify(trace)
    ours = [f"{w.filename}:{w.lineno}: {w.message}" for w in caught
            if issubclass(w.category, RuntimeWarning) and "nonconvex_mm" in w.filename]
    assert not ours, ours[:3]
    assert trace.meta["stop_reason"] == "budget" and len(trace) == 61
    assert np.isfinite(cert.worst_descent)


@pytest.mark.parametrize("kind, shape", [("scad", {"theta": 3.7}), ("mcp", {"gamma": 3.0})],
                         ids=["scad", "mcp"])
def test_tiny_design_huge_target_cccp_run_has_a_finite_objective_column(kind, shape):
    # an iterate near -7e299 overflows ||w||^2; with no ridge that term is
    # not formed, where 0 * inf made F NaN and the NaN rows passed certify
    d, _ = synth_generate(SyntheticSpec(n=80, p=10, sparsity=3, noise_sd=0.1, seed=0,
                                        task="regression"))
    data = Dataset(X=d.X * 1e-150, y=d.y * 1e150, task="regression")
    prob = dc_problem_from_penalty(LeastSquaresLoss(data), make_penalty(kind, 0.1, **shape))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run_cccp(prob, CccpConfig(max_iter=200))
        cert = certify(trace)
    assert trace.meta["stop_reason"] == "tol" and trace.num_steps() == 2
    assert np.all(np.isfinite(trace.objective)) and trace.objective[-1] > 1e297
    assert np.isfinite(prob.objective(trace.final_w))
    assert cert.passed and np.isfinite(cert.worst_descent)
