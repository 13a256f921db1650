"""Inputs at extreme scales fail with a clear error or return a trace."""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from nonconvex_mm import (
    CccpConfig,
    Dataset,
    LeastSquaresLoss,
    LogisticLoss,
    MmConfig,
    ProblemInstance,
    ScadPenalty,
    dc_problem_from_penalty,
    run_cccp,
    run_mm,
)

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
    assert len(trace) >= 1 and trace.meta["stop_reason"] in ("tol", "budget", "nonfinite")


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
