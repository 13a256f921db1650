"""The iterate store of a trace: rows kept by their nonzeros, read back as
fresh dense arrays equal to the iterates the solvers visited."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from nonconvex_mm import (
    CccpConfig,
    Dataset,
    IterateTrace,
    LeastSquaresLoss,
    MmConfig,
    ProblemInstance,
    ScadPenalty,
    cccp_step,
    certify,
    dc_problem_from_penalty,
    rate_fit,
    run_cccp,
    run_mm,
)
from nonconvex_mm.mm import SparseIterates

from test_mm import logistic_problem, ls_problem, reference_run


def _assert_rows_equal(store, rows):
    """Each read row has the bits of the oracle row with -0.0 read as +0.0."""
    assert len(store) == len(rows)
    for got, want in zip(store, rows):
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == (want + 0.0).tobytes()


def _mm_runs():
    yield "ls-scad-a", ls_problem(np.random.default_rng(3), n=40, p=30,
                                  penalty=ScadPenalty(lam=0.2, theta=3.7)), "a"
    yield "logistic-log_eps-b", logistic_problem(), "b"


@pytest.mark.parametrize("name,prob,scheme", list(_mm_runs()),
                         ids=[name for name, _, _ in _mm_runs()])
def test_run_mm_iterates_are_the_oracle_loops_iterates(name, prob, scheme):
    trace = run_mm(prob, MmConfig(scheme=scheme, max_iter=60, tol=1e-9))
    rows, W, _ = reference_run(prob, scheme, trace.mu[1:], 1e-9, trace.beta[1:])
    assert list(zip(trace.objective, trace.step_norm, trace.residual)) == rows
    # the rows are sparse, so the store keeps less than a dense copy
    assert any(np.count_nonzero(w) < prob.p for w in W[1:])
    _assert_rows_equal(trace.iterates, W)
    _assert_rows_equal([trace.iterates[k] for k in range(len(W))], W)
    _assert_rows_equal([trace.iterates[-1]], [W[-1]])
    _assert_rows_equal([trace.iterates[-len(W)]], [W[0]])
    for sl in (slice(None), slice(2, 7), slice(-4, None), slice(None, None, -3),
               slice(5, 2), slice(len(W) + 3, None)):
        _assert_rows_equal(trace.iterates[sl], W[sl])
    for k, (got, want) in enumerate(zip(trace.iterates, W)):
        assert np.array_equal(got, want), k
    np.testing.assert_array_equal(trace.iterates[-1], trace.final_w)
    with pytest.raises(IndexError):
        trace.iterates[len(W)]
    with pytest.raises(IndexError):
        trace.iterates[-len(W) - 1]


def test_run_cccp_iterates_are_the_oracle_loops_iterates():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 12))
    w_true = np.where(rng.random(12) < 0.4, 2.0, 0.0)
    loss = LeastSquaresLoss(Dataset(X=X, y=X @ w_true + 0.1 * rng.normal(size=60),
                                    task="regression"))
    prob = dc_problem_from_penalty(loss, ScadPenalty(lam=0.3, theta=3.7), box=(-1.5, 1.5))
    cfg = CccpConfig(max_iter=30)
    trace = run_cccp(prob, cfg)
    # the outer loop of run_cccp
    w = prob.project(np.zeros(prob.p))
    W = [w]
    for _ in range(cfg.max_iter):
        w_next, _ = cccp_step(w, prob, cfg)
        W.append(w_next)
        if np.max(np.abs(w_next - w)) <= cfg.tol:
            break
        w = w_next
    assert any(np.count_nonzero(w) < prob.p for w in W[1:])
    _assert_rows_equal(trace.iterates, W)
    _assert_rows_equal(trace.iterates[-3:], W[-3:])


def test_a_read_row_is_a_fresh_copy():
    prob = ls_problem(np.random.default_rng(3), n=40, p=30,
                      penalty=ScadPenalty(lam=0.2, theta=3.7))
    trace = run_mm(prob, MmConfig(max_iter=10, tol=0.0))
    before = [w.copy() for w in trace.iterates]
    trace.iterates[3][:] = 7.0
    trace.iterates[-1][0] = 7.0
    trace.iterates[1:4][0][:] = 7.0
    for w in trace.iterates:
        w += 1.0
    _assert_rows_equal(trace.iterates, before)


def _odd_rows():
    rng = np.random.default_rng(8)
    rows = [np.where(rng.random(6) < 0.5, rng.normal(size=6), 0.0) for _ in range(25)]
    rows[0] = np.zeros(6)
    rows[3][[1, 4]] = [np.nan, -np.inf]
    rows[7][2] = 5e-324
    rows[9] = np.array([-0.0, 1.0, 0.0, -0.0, 0.0, 2.0])
    return rows


def test_iterates_passed_at_construction_read_as_the_list_did():
    rows = _odd_rows()
    tr = IterateTrace(iterates=rows)
    assert isinstance(tr.iterates, SparseIterates)
    assert len(tr.iterates) == len(rows)
    for got, want in zip(tr.iterates, rows):
        assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(tr.iterates[-2], rows[-2])
    assert [len(r) for r in tr.iterates[::4]] == [6] * len(rows[::4])
    # a zero comes back as +0.0, -0.0 included
    assert not np.signbit(tr.iterates[9][[0, 2, 3, 4]]).any()
    # IterateTrace() and record_iterates=False still record nothing
    assert IterateTrace().iterates is None
    prob = ls_problem(np.random.default_rng(1))
    assert run_mm(prob, MmConfig(max_iter=3, record_iterates=False)).iterates is None


def _converged_trace(iterates):
    tr = IterateTrace(iterates=iterates)
    n = len(iterates)
    tr.iters = list(range(n))
    tr.objective = [float(n - k) for k in range(n)]
    tr.step_norm = [0.0] + [float(np.linalg.norm(iterates[k] - iterates[k - 1]))
                            for k in range(1, n)]
    tr.residual = [0.0] * n
    tr.elapsed_sec = [0.0] * n
    tr.final_w = iterates[-1]
    tr.converged = True
    tr.meta = {"gamma": 1e-3, "mu": 1.0, "lipschitz": 1.0, "residual_lipschitz": 1.0,
               "descent_slack": 0.0, "descent_tol": 1e-9, "bound_tol": 1e-8}
    return tr


@pytest.mark.parametrize("decay", [lambda k: 0.7**k, lambda k: 1.0 / (k + 1)],
                         ids=["linear", "sublinear"])
def test_rate_fit_and_certify_read_the_store_as_the_list(decay):
    rows = [np.array([decay(k), 0.0, -decay(k) / 3, 0.0]) for k in range(60)]
    rows.append(np.zeros(4))
    stored = _converged_trace(rows)
    listed = _converged_trace(rows)
    listed.iterates = list(rows)
    assert isinstance(stored.iterates, SparseIterates)
    assert rate_fit(stored) == rate_fit(listed)
    assert certify(stored) == certify(listed)


def test_a_row_must_be_one_dimensional_and_of_the_trace_length():
    store = SparseIterates([np.zeros(3)])
    with pytest.raises(ValueError, match="length 4, expected 3"):
        store.append(np.zeros(4))
    with pytest.raises(ValueError, match="1-dimensional"):
        store.append(np.zeros((1, 3)))
    with pytest.raises(ValueError, match="1-dimensional"):
        IterateTrace(iterates=[np.float64(1.0)])
    assert len(store) == 1


def test_a_wide_sparse_run_keeps_a_tenth_of_its_dense_rows():
    rng = np.random.default_rng(11)
    n, p = 50, 50_000
    X = sp.random(n, p, density=0.01, format="csr", random_state=rng,
                  data_rvs=rng.standard_normal)
    w_true = np.zeros(p)
    w_true[rng.choice(p, size=5, replace=False)] = 1.0
    loss = LeastSquaresLoss(Dataset(X=X, y=X @ w_true + 0.1 * rng.normal(size=n),
                                    task="regression"))
    prob = ProblemInstance(loss=loss, penalty=ScadPenalty(lam=0.02, theta=3.7))
    loss.lipschitz  # set-up, outside the measurement
    tracemalloc.start()
    try:
        trace = run_mm(prob, MmConfig(max_iter=40, tol=0.0))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    rows = len(trace.iterates)
    assert rows == 41
    assert 0 < max(np.count_nonzero(w) for w in trace.iterates) < p // 100
    # the live trace, final_w included, against its iterates as dense rows
    assert held < rows * p * 8 / 10
