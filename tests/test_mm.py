import collections
import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from nonconvex_mm import (
    CappedL1Penalty,
    Dataset,
    LeastSquaresLoss,
    LogEpsilonPenalty,
    LogisticLoss,
    McpPenalty,
    MmConfig,
    ProblemInstance,
    UnsupportedPenaltyError,
    kkt_residual,
    linearized_penalty_value,
    make_penalty,
    quad_surrogate_value,
    reweighted_l1_weights,
    run_mm,
    step_a,
    step_b,
    subgradient_residual,
    synth_generate,
    SyntheticSpec,
    certify,
)

from nonconvex_mm import mm as mm_module
from nonconvex_mm.mm import _curvature_search

from helpers import soft_threshold_bisect


def ls_problem(rng, n=30, p=8, penalty=None):
    X = rng.normal(size=(n, p))
    y = rng.normal(size=n)
    loss = LeastSquaresLoss(Dataset(X=X, y=y, task="regression"))
    return ProblemInstance(loss=loss, penalty=penalty or McpPenalty(lam=0.3, gamma=2.5))


def logistic_problem(seed=42, lam=0.2, eps=1.0):
    spec = SyntheticSpec(n=100, p=20, sparsity=4, noise_sd=0.5, seed=seed,
                         task="classification")
    data, _ = synth_generate(spec)
    return ProblemInstance(loss=LogisticLoss(data),
                           penalty=LogEpsilonPenalty(lam=lam, eps=eps))


# -------------------------------------------------------------- surrogates
def test_surrogate_tight_at_anchor():
    rng = np.random.default_rng(0)
    prob = ls_problem(rng)
    anchor = rng.normal(size=8)
    assert quad_surrogate_value(anchor, anchor, 2.0, prob.loss) == pytest.approx(
        prob.loss.value(anchor), rel=1e-15)
    with pytest.raises(ValueError, match="^w and anchor have different lengths$"):
        quad_surrogate_value(anchor, anchor[:-1], 2.0, prob.loss)


def test_surrogate_exact_for_matched_curvature():
    # scalar least squares has curvature exactly 1, so mu = 1 reproduces f
    loss = LeastSquaresLoss(Dataset(X=np.array([[1.0]]), y=np.array([0.7]),
                                    task="regression"))
    for w in (-2.0, 0.0, 1.3, 5.0):
        assert quad_surrogate_value([w], [0.2], 1.0, loss) == pytest.approx(
            loss.value([w]), rel=1e-14)


def test_surrogate_majorizes_loss():
    rng = np.random.default_rng(1)
    prob = ls_problem(rng)
    mu = 1.1 * prob.loss.lipschitz
    anchor = rng.normal(size=8)
    for _ in range(1000):
        w = rng.normal(size=8) * 3
        assert quad_surrogate_value(w, anchor, mu, prob.loss) >= prob.loss.value(w) - 1e-10


@pytest.mark.parametrize("mu", [0.0, -1.0, math.nan, math.inf])
def test_surrogate_rejects_nonpositive_or_nonfinite_mu(mu):
    # nan and inf used to pass through as a nan or inf surrogate value
    prob = ls_problem(np.random.default_rng(0))
    with pytest.raises(ValueError, match="mu must be positive and finite"):
        quad_surrogate_value(np.ones(8), np.zeros(8), mu, prob.loss)


def test_linearized_penalty_tight_and_majorizing():
    pen = McpPenalty(lam=0.8, gamma=2.0)
    rng = np.random.default_rng(2)
    anchor = rng.normal(size=6)
    assert linearized_penalty_value(anchor, anchor, pen) == pytest.approx(
        pen.reg_value(anchor), rel=1e-14)
    for _ in range(500):
        w = rng.normal(size=6) * 3
        assert linearized_penalty_value(w, anchor, pen) >= pen.reg_value(w) - 1e-12


def test_linearized_penalty_at_zero_anchor_is_weighted_l1():
    pen = LogEpsilonPenalty(lam=0.6, eps=0.3)
    w = np.array([0.5, -1.0, 2.0])
    expected = 0.6 / 0.3 * np.sum(np.abs(w))
    assert linearized_penalty_value(w, np.zeros(3), pen) == pytest.approx(expected)


def test_linearized_penalty_rejects_capped():
    with pytest.raises(UnsupportedPenaltyError):
        linearized_penalty_value(np.ones(2), np.zeros(2), CappedL1Penalty(lam=1.0, theta=1.0))
    with pytest.raises(ValueError, match="^w and anchor have different lengths$"):
        linearized_penalty_value(np.ones(2), np.zeros(3), McpPenalty(lam=1.0, gamma=2.0))


# -------------------------------------------------------------------- steps
def test_step_a_fixed_point_at_critical_origin():
    # lam / eps above the gradient's sup norm makes 0 critical
    prob = logistic_problem(lam=5.0, eps=1.0)
    out = step_a(np.zeros(prob.p), prob, 1.01 * prob.loss.lipschitz)
    np.testing.assert_allclose(out, np.zeros(prob.p))


def test_step_a_reduces_to_gradient_step_for_vanishing_penalty():
    rng = np.random.default_rng(3)
    prob = ls_problem(rng, penalty=McpPenalty(lam=1e-14, gamma=2.0))
    w = rng.normal(size=8)
    mu = 1.5 * prob.loss.lipschitz
    expected = w - prob.loss.gradient(w) / mu
    np.testing.assert_allclose(step_a(w, prob, mu), expected, atol=1e-12)


def test_step_a_matches_grid_on_1d_toy():
    loss = LeastSquaresLoss(Dataset(X=np.array([[1.5]]), y=np.array([2.0]),
                                    task="regression"))
    pen = McpPenalty(lam=0.8, gamma=2.0)
    prob = ProblemInstance(loss=loss, penalty=pen)
    mu = 1.01 * loss.lipschitz
    w = np.array([0.3])
    out = step_a(w, prob, mu)
    grid = np.arange(-5.0, 5.0001, 1e-4)
    objs = [quad_surrogate_value([g], w, mu, loss) + pen.reg_value([g]) for g in grid]
    assert abs(out[0] - grid[int(np.argmin(objs))]) <= 1e-3


def test_step_b_zero_input():
    prob = logistic_problem(lam=5.0, eps=1.0)
    np.testing.assert_allclose(step_b(np.zeros(prob.p), prob, 2 * prob.loss.lipschitz),
                               np.zeros(prob.p))


def test_step_b_no_shrinkage_when_weights_vanish():
    # all |w_i| beyond lam*gamma makes every MCP weight zero
    rng = np.random.default_rng(4)
    prob = ls_problem(rng, penalty=McpPenalty(lam=0.1, gamma=1.0))
    w = np.sign(rng.normal(size=8)) * rng.uniform(1.0, 2.0, size=8)
    mu = 1.2 * prob.loss.lipschitz
    z = w - prob.loss.gradient(w) / mu
    np.testing.assert_allclose(step_b(w, prob, mu), z, atol=1e-14)


def test_step_b_matches_bisection_oracle():
    prob = logistic_problem()
    mu = 1.01 * prob.loss.lipschitz
    rng = np.random.default_rng(5)
    for _ in range(20):
        w = rng.normal(size=prob.p) * rng.uniform(0.1, 2.0)
        w[rng.random(prob.p) < 0.3] = 0.0
        out = step_b(w, prob, mu)
        z = w - prob.loss.gradient(w) / mu
        omega = reweighted_l1_weights(w, 1.0, 0.2)
        for i in range(prob.p):
            ref = soft_threshold_bisect(float(z[i]), float(omega[i]), mu)
            assert abs(out[i] - ref) <= 1e-10


def test_step_b_rejects_capped():
    rng = np.random.default_rng(6)
    prob = ls_problem(rng, penalty=CappedL1Penalty(lam=0.5, theta=1.0))
    with pytest.raises(UnsupportedPenaltyError):
        step_b(np.zeros(8), prob, 1.0)


def test_reweighted_weights():
    np.testing.assert_allclose(reweighted_l1_weights(np.zeros(3), 0.5, 1.0),
                               np.full(3, 2.0))
    assert reweighted_l1_weights(np.array([1e12]), 0.5, 1.0)[0] < 1e-11
    assert reweighted_l1_weights(np.array([0.5]), 0.5, 1.0)[0] == pytest.approx(1.0)
    pen = LogEpsilonPenalty(lam=0.7, eps=0.2)
    w = np.array([0.0, 0.4, -1.3])
    np.testing.assert_allclose(reweighted_l1_weights(w, 0.2, 0.7),
                               pen.deriv(np.abs(w)), rtol=1e-15)
    for epsilon in (0.0, -0.5):
        with pytest.raises(ValueError, match="^epsilon must be positive$"):
            reweighted_l1_weights(w, epsilon, 0.7)


# ------------------------------------------------------------------ run_mm
def test_run_converges_to_zero_under_heavy_penalty():
    prob = logistic_problem(lam=5.0, eps=1.0)
    trace = run_mm(prob, MmConfig(scheme="a", max_iter=50, tol=1e-12))
    assert trace.converged and trace.num_steps() <= 2
    np.testing.assert_allclose(trace.final_w, np.zeros(prob.p))


def test_run_orthonormal_design_one_step_solution():
    # X^T X / n = I makes z = X^T y / n independent of w, so with mu = L_f = 1
    # the run lands on prox(z) after one step and stays there
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.normal(size=(12, 4)))
    X = q * np.sqrt(12)
    y = rng.normal(size=12) * 2
    loss = LeastSquaresLoss(Dataset(X=X, y=y, task="regression"))
    assert loss.lipschitz == pytest.approx(1.0, rel=1e-7)
    pen = McpPenalty(lam=0.5, gamma=2.0)
    prob = ProblemInstance(loss=loss, penalty=pen)
    with pytest.warns(UserWarning):
        trace = run_mm(prob, MmConfig(scheme="a", rho=1.0, max_iter=10, tol=1e-14))
    what = X.T @ y / 12
    expected = pen.prox(what, 1.0)
    np.testing.assert_allclose(trace.final_w, expected, atol=1e-12)
    assert trace.converged and trace.num_steps() <= 2


def test_run_descent_and_square_summability():
    prob = logistic_problem()
    for scheme in ("a", "b"):
        cfg = MmConfig(scheme=scheme, rho=1.01, max_iter=400, tol=1e-10)
        trace = run_mm(prob, cfg)
        mu, lf = trace.meta["mu"], trace.meta["lipschitz"]
        gamma = mu - lf
        drops = -np.diff(trace.objective)
        steps = np.asarray(trace.step_norm[1:])
        assert np.all(drops >= 0.5 * gamma * steps**2 - 1e-9)
        total_sq = float(np.sum(steps**2))
        budget = 2.0 / gamma * (trace.objective[0] - trace.final_objective)
        assert total_sq <= budget + 1e-6


def test_subproblem_first_order_conditions():
    prob = logistic_problem()
    mu = 1.01 * prob.loss.lipschitz
    rng = np.random.default_rng(8)
    w = rng.normal(size=prob.p)
    z = w - prob.loss.gradient(w) / mu
    # scheme a: 0 in mu*(v - z) + d r(v)
    v = step_a(w, prob, mu)
    pen = prob.penalty
    for i in range(prob.p):
        iv = pen.subdiff_interval(float(v[i]))
        g = mu * (v[i] - z[i])
        assert max(0.0, max(g + iv.lo, -(g + iv.hi))) <= 1e-8
    # scheme b: 0 in mu*(v - z) + omega_i * d|v_i|
    vb = step_b(w, prob, mu)
    omega = pen.deriv(np.abs(w))
    for i in range(prob.p):
        g = mu * (vb[i] - z[i])
        lo, hi = (-omega[i], omega[i]) if vb[i] == 0 else (
            np.sign(vb[i]) * omega[i], np.sign(vb[i]) * omega[i])
        assert max(0.0, max(g + lo, -(g + hi))) <= 1e-8


def test_fixed_point_implies_criticality():
    prob = logistic_problem()
    trace = run_mm(prob, MmConfig(scheme="b", max_iter=5000, tol=1e-13))
    assert trace.converged
    w = trace.final_w
    nxt = step_b(w, prob, trace.meta["mu"])
    assert np.max(np.abs(nxt - w)) <= 1e-12
    assert kkt_residual(w, prob) <= 1e-8


def test_cross_scheme_agreement_small():
    prob = logistic_problem()
    finals = []
    for scheme in ("a", "b"):
        trace = run_mm(prob, MmConfig(scheme=scheme, max_iter=5000, tol=1e-12))
        finals.append(trace.final_objective)
    fa, fb = finals
    assert abs(fa - fb) <= 1e-4 * (1.0 + abs(fa))


def test_nonfinite_abort_when_mu_too_small():
    rng = np.random.default_rng(9)
    prob = ls_problem(rng, n=40, p=10)
    cfg = MmConfig(scheme="a", rho=0.05, max_iter=2000, tol=0.0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.warns(UserWarning):
        trace = run_mm(prob, cfg)
    # the partial trace survives: every row finite, the run neither converged
    # nor used its budget, and final_w is the last finite iterate
    assert trace.meta["stop_reason"] == "nonfinite"
    assert not trace.converged and 1 <= trace.num_steps() < cfg.max_iter
    assert np.all(np.isfinite(trace.objective)) and np.all(np.isfinite(trace.residual))
    np.testing.assert_array_equal(trace.final_w, trace.iterates[-1])
    assert np.isfinite(trace.meta["kkt"])
    assert trace.meta["kkt"] == kkt_residual(trace.final_w, prob)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(prob.objective(step_a(trace.final_w, prob, trace.meta["mu"])))


def test_nonfinite_objective_at_start_raises():
    prob = ls_problem(np.random.default_rng(9))
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="starting point"):
        run_mm(prob, MmConfig(), w0=np.full(prob.p, 1e200))


def test_trace_records_and_objective_monotone():
    prob = logistic_problem()
    trace = run_mm(prob, MmConfig(scheme="a", max_iter=100, tol=1e-10))
    n = len(trace.iters)
    assert trace.iters == list(range(n))
    assert len(trace.objective) == len(trace.step_norm) == len(trace.residual) == n
    assert len(trace.elapsed_sec) == n and len(trace.iterates) == n
    assert all(a >= b - 1e-12 for a, b in zip(trace.objective, trace.objective[1:]))
    assert trace.step_norm[0] == 0.0
    np.testing.assert_array_equal(trace.final_w, trace.iterates[-1])


def test_scheme_b_step_cheaper_than_scheme_a():
    # directional timing claim only: the linearized update is one weighted
    # soft-threshold, while the exact log prox also solves a quadratic per
    # coordinate; with a tiny n the per-step cost is dominated by that
    # difference, which is about 15% of a step here, so the two steps are
    # timed alternately and a drift in machine speed hits both alike
    import time

    rng = np.random.default_rng(10)
    n, p = 5, 50_000
    X = rng.normal(size=(n, p))
    y = rng.choice([-1.0, 1.0], size=n)
    loss = LogisticLoss(Dataset(X=X, y=y, task="classification"))
    prob = ProblemInstance(loss=loss, penalty=LogEpsilonPenalty(lam=0.1, eps=0.5))
    mu = 1.01 * loss.lipschitz
    w = rng.normal(size=p)

    def timed(fun):
        t0 = time.perf_counter()
        fun(w, prob, mu)
        return time.perf_counter() - t0

    for _ in range(15):  # warm up both paths
        timed(step_a)
        timed(step_b)
    times = np.array([(timed(step_a), timed(step_b)) for _ in range(15)])
    assert np.median(times[:, 1]) <= np.median(times[:, 0])


# ------------------------------------------------------ run_mm vs its parts
def _oracle_problems():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(40, 15))
    w_true = np.where(rng.random(15) < 0.3, rng.normal(size=15) * 2, 0.0)
    y_reg = X @ w_true + 0.3 * rng.normal(size=40)
    y_cls = np.where(X @ w_true + 0.5 * rng.normal(size=40) >= 0, 1.0, -1.0)
    for design in (X, sp.csr_matrix(X)):
        yield "ls", LeastSquaresLoss(Dataset(X=design, y=y_reg, task="regression"))
        yield "logistic", LogisticLoss(Dataset(X=design, y=y_cls, task="classification"))


_ORACLE_PENALTIES = [("log", {"theta": 1.0}), ("log_eps", {"eps": 0.5}),
                     ("scad", {"theta": 3.7}), ("mcp", {"gamma": 3.0}),
                     ("capped_l1", {"theta": 1.0})]


class AnchoredLoss:
    """A loss whose gradient at the anchor y is the given g_y, so the public
    one-step functions take the step from y that run_mm takes."""

    def __init__(self, loss, y, g_y):
        self.inner, self.kind, self.data = loss, loss.kind, loss.data
        self.lipschitz = loss.lipschitz
        self.y, self.g_y = y, g_y

    def gradient(self, w):
        return self.g_y if np.array_equal(w, self.y) else self.inner.gradient(w)


def reference_run(prob, scheme, mus, tol, betas=None):
    """The MM loop written with the public one-step functions only, taking
    step k with the surrogate weight mus[k] from the anchor
    y = w + betas[k] (w - w_prev) with the gradient
    (1 + betas[k]) grad f(w) - betas[k] grad f(w_prev) there (y = w when
    betas[k] is 0 or betas is None), and stopping, as run_mm does, once a
    step's certified residual ||B|| is at most tol.  Returns the trace rows,
    the list of iterates visited and the final kkt residual."""
    step = step_a if scheme == "a" else step_b
    w = w_prev = np.zeros(prob.p)
    rows = [(prob.objective(w), 0.0, kkt_residual(w, prob))]
    iterates = [w]
    for mu, beta in zip(mus, betas or [0.0] * len(mus)):
        y, anchored = w, prob
        if beta > 0.0:
            y = w + beta * (w - w_prev)
            g_y = (1.0 + beta) * prob.loss.gradient(w) - beta * prob.loss.gradient(w_prev)
            anchored = ProblemInstance(loss=AnchoredLoss(prob.loss, y, g_y),
                                       penalty=prob.penalty)
        w_next = step(y, anchored, mu)
        report = subgradient_residual(w_next, y, anchored, mu, scheme)
        delta = w_next - w
        rows.append((prob.objective(w_next), float(np.linalg.norm(delta)), report.B_norm))
        assert report.kkt == kkt_residual(w_next, prob)
        w_prev, w = w, w_next
        iterates.append(w)
        if report.B_norm <= tol:
            break
    return rows, iterates, kkt_residual(w, prob)


@pytest.mark.parametrize("kind,shape", _ORACLE_PENALTIES, ids=[k for k, _ in _ORACLE_PENALTIES])
def test_run_mm_bitwise_equals_reference_loop(kind, shape):
    pen = make_penalty(kind, 0.1, **shape)
    schemes = ("a", "b") if pen.supports_linearization else ("a",)
    extrapolated = 0
    for (loss_kind, loss), scheme in itertools.product(_oracle_problems(), schemes):
        prob = ProblemInstance(loss=loss, penalty=pen)
        trace = run_mm(prob, MmConfig(scheme=scheme, max_iter=60, tol=1e-9,
                                      record_iterates=False))
        assert trace.mu[0] is None and trace.beta[0] is None
        assert trace.converged == (trace.meta["stop_reason"] == "tol")
        rows, W, kkt = reference_run(prob, scheme, trace.mu[1:], 1e-9, trace.beta[1:])
        assert list(zip(trace.objective, trace.step_norm, trace.residual)) == rows, (
            loss_kind, scheme)
        np.testing.assert_array_equal(trace.final_w, W[-1])
        assert trace.meta["kkt"] == kkt
        extrapolated += sum(b > 0.0 for b in trace.beta[1:])
    assert extrapolated > 0


# ------------------------------------------------------- curvature search
def spread_ls_problem():
    # column scales over 1.5 decades: the curvature along one step says
    # little about the next, so an unchecked start would not majorize
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 12)) * np.logspace(0, 1.5, 12)
    y = X @ np.where(rng.random(12) < 0.4, rng.normal(size=12), 0.0)
    y += 0.3 * rng.normal(size=60)
    return ProblemInstance(loss=LeastSquaresLoss(Dataset(X=X, y=y, task="regression")),
                           penalty=McpPenalty(lam=0.05, gamma=2.5))


@pytest.mark.parametrize("scheme", ["a", "b"])
@pytest.mark.parametrize("loss_kind", ["ls", "logistic"])
def test_every_mu_k_is_capped_and_majorizes(scheme, loss_kind):
    prob = spread_ls_problem() if loss_kind == "ls" else logistic_problem()
    trace = run_mm(prob, MmConfig(scheme=scheme, max_iter=500, tol=1e-10))
    mu, gamma = trace.meta["mu"], trace.meta["gamma"]
    assert gamma == mu - trace.meta["lipschitz"] > 0
    mus = trace.mu[1:]
    assert trace.mu[0] is None and len(mus) == trace.num_steps() > 10
    assert all(gamma < mu_k <= mu for mu_k in mus)
    # the first step starts at the cap L_f, where mu itself is used
    assert mus[0] == mu
    # the curvature search leaves the loose global bound behind
    assert min(mus) < mu
    assert any(b > 0.0 for b in trace.beta[1:])
    assert_majorizes_at_anchors(prob, trace)


def assert_majorizes_at_anchors(prob, trace):
    """Each step's Q_f with weight mu_k - gamma majorizes f at the step's
    output, about its anchor y_k = w_k + beta_k (w_k - w_{k-1}), wherever
    run_mm certifies that: at every plain step, and at an extrapolated one
    only for least squares, where the gradient it uses at y is grad f(y).
    certify() checks the descent and the bound of every row."""
    gamma, W = trace.meta["gamma"], trace.iterates
    for k, (mu_k, beta) in enumerate(zip(trace.mu[1:], trace.beta[1:])):
        if beta > 0.0 and prob.loss.kind != "ls":
            continue
        y = W[k] + beta * (W[k] - W[k - 1]) if beta > 0.0 else W[k]
        f_next = prob.loss.value(W[k + 1])
        q = quad_surrogate_value(W[k + 1], y, mu_k - gamma, prob.loss)
        assert q >= f_next - 1e-12 * (1.0 + abs(f_next))


_LINEARIZABLE = [(kind, shape) for kind, shape in _ORACLE_PENALTIES if kind != "capped_l1"]


# an extrapolated logistic step whose surrogate about y, read with the
# exact f(y) and grad f(y), falls below f at k = 5
@example(loss_kind="logistic", scheme="b", penalty=("log", {"theta": 1.0}), lam=0.1,
         decades=0.0, sparse=False, seed=1)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(loss_kind=st.sampled_from(["ls", "logistic"]), scheme=st.sampled_from(["a", "b"]),
       penalty=st.sampled_from(_LINEARIZABLE), lam=st.floats(-3, 0).map(lambda e: 10.0 ** e),
       decades=st.floats(0, 2), sparse=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_accelerated_run_is_certified_and_majorizes_at_each_anchor(
        loss_kind, scheme, penalty, lam, decades, sparse, seed):
    # column scales over up to 2 decades make the extrapolation overshoot,
    # so both accepted and rejected extrapolated steps occur
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(40, 10)) * np.logspace(0, decades, 10)
    w_true = np.where(rng.random(10) < 0.4, rng.normal(size=10), 0.0)
    margin = X @ w_true + 0.3 * rng.normal(size=40)
    design = sp.csr_matrix(X) if sparse else X
    if loss_kind == "ls":
        loss = LeastSquaresLoss(Dataset(X=design, y=margin, task="regression"))
    else:
        loss = LogisticLoss(Dataset(X=design, y=np.where(margin >= 0, 1.0, -1.0),
                                    task="classification"))
    kind, shape = penalty
    prob = ProblemInstance(loss=loss, penalty=make_penalty(kind, lam, **shape))
    trace = run_mm(prob, MmConfig(scheme=scheme, max_iter=80, tol=1e-10))
    cert = certify(trace)
    assert cert.passed, cert.failures
    assert_majorizes_at_anchors(prob, trace)
    # momentum is tried only where f does not ascend along it
    W = trace.iterates
    for k, beta in enumerate(trace.beta[1:]):
        if beta > 0.0:
            assert float(loss.gradient(W[k]) @ (W[k] - W[k - 1])) <= 0.0


def test_curvature_search_jumps_to_the_curvature_a_failed_trial_measured():
    prob = ls_problem(np.random.default_rng(15), n=50, p=10)
    loss, lf = prob.loss, prob.loss.lipschitz
    x = np.random.default_rng(16).normal(size=10)
    f, g = loss.value_and_grad(x)
    tried = []

    def trial(L):
        tried.append(L)
        x_next = x - g / L
        return x_next, loss.gradient(x_next)

    # the test measures twice a Rayleigh quotient of the Hessian, so 2 L_f
    # bounds it and the cap checks nothing here
    start, cap = 1e-6 * lf, 2.0 * lf
    L, (x_next, _), l_next, d, dd, bounded = _curvature_search(trial, x, g, start, cap, 0.0)
    # the direction -g does not depend on L, so the curvature the failed
    # first trial measured is the one along the second, which passes
    d_first = -g / start
    curv_first = float((loss.gradient(x + d_first) - g) @ d_first)
    measured = 2.0 * curv_first / float(d_first @ d_first)
    assert tried == [start, L] and start < L < cap
    assert L == pytest.approx(mm_module._CURVATURE_MARGIN * measured, rel=1e-12)
    # the next start is c times the curvature along the accepted step: L again
    assert bounded and l_next == pytest.approx(L, rel=1e-12)
    # the search hands back the step it took, and its squared norm
    np.testing.assert_array_equal(d, x_next - x)
    assert dd == float(d @ d)
    # the accepted L majorizes f at x_next
    assert loss.value(x_next) <= f + float(g @ d) + 0.5 * L * dd + 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_curvature_search_doubles_after_a_nonfinite_trial(bad):
    # a trial whose gradient is not finite measures no curvature: L
    # doubles, and the search still ends
    prob = ls_problem(np.random.default_rng(15), n=50, p=10)
    loss, lf = prob.loss, prob.loss.lipschitz
    x = np.random.default_rng(16).normal(size=10)
    g = loss.gradient(x)
    tried = []

    def trial(L):
        tried.append(L)
        x_next = x - g / L
        if len(tried) <= 3:
            # a curvature of nan, or of +inf along every coordinate
            return x_next, g + bad * np.sign(x_next - x)
        return x_next, loss.gradient(x_next)

    start, cap = 1e-3 * lf, 2.0 * lf
    L, (x_next, g_next), *_ = _curvature_search(trial, x, g, start, cap, 0.0)
    assert tried[:4] == [start, 2 * start, 4 * start, 8 * start]
    # the last trial passed the check itself, short of the cap
    d = x_next - x
    assert L == tried[-1] < cap and float((g_next - g) @ d) <= 0.5 * L * float(d @ d)
    assert len(tried) <= 6


@pytest.mark.parametrize("scheme", ["a", "b"])
def test_logistic_run_wastes_few_curvature_trials(scheme):
    trace = run_mm(logistic_problem(), MmConfig(scheme=scheme, max_iter=500, tol=1e-10))
    assert trace.converged and certify(trace).passed
    assert trace.meta["loss_evals"] <= 1.3 * trace.num_steps()
    assert trace.meta["lf_curvature_failures"] == 0


@pytest.mark.parametrize("scheme", ["a", "b"])
@pytest.mark.parametrize("field, factor", [("rho", 1.0), ("rho", 0.9), ("mu_override", 1.0),
                                           ("mu_override", 0.8)])
def test_run_mm_without_slack_is_the_fixed_mu_loop(scheme, field, factor):
    # gamma = mu - L_f <= 0 pins the search at L_f: every step uses mu itself
    prob = ls_problem(np.random.default_rng(17), n=60, p=12)
    value = factor * prob.loss.lipschitz if field == "mu_override" else factor
    with pytest.warns(UserWarning):
        trace = run_mm(prob, MmConfig(scheme=scheme, max_iter=40, tol=1e-9,
                                      **{field: value}))
    mu = trace.meta["mu"]
    assert trace.mu[1:] == [mu] * trace.num_steps()
    assert trace.meta["loss_evals"] == trace.num_steps()
    rows, W, kkt = reference_run(prob, scheme, [mu] * 40, 1e-9)
    assert list(zip(trace.objective, trace.step_norm, trace.residual)) == rows
    np.testing.assert_array_equal(trace.final_w, W[-1])
    assert trace.meta["kkt"] == kkt


@pytest.mark.parametrize("scheme", ["a", "b"])
@pytest.mark.parametrize("scale", [1e3, 0.0], ids=["overshoot", "stall"])
def test_rejected_extrapolation_restarts_into_the_plain_loop(scheme, scale, monkeypatch):
    # the gradient at y scaled so the step from there is wrong by design:
    # an overshooting step fails the descent check; one that stalls at y
    # descends but fails the subgradient bound
    base = logistic_problem()
    affine = mm_module._gradient_at_y
    monkeypatch.setattr(mm_module, "_gradient_at_y", lambda *args: scale * affine(*args))
    trace = run_mm(base, MmConfig(scheme=scheme, max_iter=100, tol=1e-9))
    steps = trace.num_steps()
    assert trace.converged and steps > 20
    assert certify(trace).passed
    # every try is skipped or rejected and restarts the momentum at t = 1,
    # so the step after it is plain too and the run tries every second step
    assert trace.meta["extrapolated_steps"] == 0
    assert trace.meta["restarts"] == steps // 2
    assert trace.beta[1:] == [0.0] * steps
    rows, W, kkt = reference_run(base, scheme, trace.mu[1:], 1e-9)
    assert list(zip(trace.objective, trace.step_norm, trace.residual)) == rows
    np.testing.assert_array_equal(trace.final_w, W[-1])


def test_restart_counts_add_up_on_an_accelerated_run(monkeypatch):
    base = logistic_problem()
    loss = CountingLoss(base.loss)
    prob = ProblemInstance(loss=loss, penalty=base.penalty)
    trials = 0
    search = mm_module._curvature_search

    def counted_search(trial, *args):
        def counted(L):
            nonlocal trials
            trials += 1
            return trial(L)
        return search(counted, *args)
    monkeypatch.setattr(mm_module, "_curvature_search", counted_search)
    trace = run_mm(prob, MmConfig(scheme="b", max_iter=500, tol=1e-10))
    betas = np.asarray(trace.beta[1:])
    meta = trace.meta
    assert meta["extrapolated_steps"] == np.count_nonzero(betas) > 0
    assert meta["restarts"] > 0
    assert np.all(betas <= 0.6)
    # the gradient at y costs no evaluation: past the start, every one is
    # a trial of a curvature search
    assert meta["loss_evals"] == trials >= trace.num_steps()
    assert loss.calls == {"value_and_grad": trials + 1}


@pytest.mark.parametrize("sparse", [False, True])
def test_gradient_at_y_is_exact_for_least_squares(sparse):
    # the least-squares gradient is affine in w, so the one expression
    # run_mm uses at y = w + beta (w - w_prev) is grad f(y) up to rounding
    rng = np.random.default_rng(13)
    X = rng.normal(size=(40, 12)) * np.logspace(0, 1, 12)
    loss = LeastSquaresLoss(Dataset(X=sp.csr_matrix(X) if sparse else X,
                                    y=rng.normal(size=40), task="regression"))
    w, w_prev = rng.normal(size=12), rng.normal(size=12)
    g, g_prev = loss.gradient(w), loss.gradient(w_prev)
    for beta in (0.0, 0.3, 0.6, 1.0):
        ref = loss.gradient(w + beta * (w - w_prev))
        g_y = mm_module._gradient_at_y(beta, g, g_prev)
        assert np.linalg.norm(g_y - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("scheme", ["a", "b"])
@pytest.mark.parametrize("loss_kind", ["ls", "logistic"])
@pytest.mark.parametrize("noise", [0.0, 0.5], ids=["affine", "perturbed"])
def test_every_row_residual_certifies_the_kkt_distance(scheme, loss_kind, noise,
                                                       monkeypatch):
    # for any gradient g_y at y, B_y(z) = grad f(z) + mu_k (y - z) - g_y is
    # in the subdifferential of F at z, so the residual each row records
    # bounds the exact KKT distance there; a perturbed g_y checks "any"
    prob = spread_ls_problem() if loss_kind == "ls" else logistic_problem()
    if noise:
        rng = np.random.default_rng(20)
        affine = mm_module._gradient_at_y

        def perturbed(*args):
            g_y = affine(*args)
            return g_y * (1.0 + noise * rng.standard_normal(g_y.shape))
        monkeypatch.setattr(mm_module, "_gradient_at_y", perturbed)
    trace = run_mm(prob, MmConfig(scheme=scheme, max_iter=300, tol=1e-10))
    assert trace.meta["extrapolated_steps"] > 0
    assert certify(trace).passed
    W = trace.iterates
    assert kkt_residual(W[0], prob) <= trace.residual[0] * (1.0 + 1e-9) + 1e-15
    # B holds mu_k (w_{k-1} - w_k): its rounding error, not the KKT distance,
    # sets the floor the residual can be read to
    eps = np.finfo(float).eps
    for k in range(1, len(trace)):
        slack = eps * trace.mu[k] * (np.linalg.norm(W[k]) + np.linalg.norm(W[k - 1]))
        assert kkt_residual(W[k], prob) <= trace.residual[k] * (1.0 + 1e-9) + slack


@pytest.mark.parametrize("make, field, value, why", [
    (lambda: ls_problem(np.random.default_rng(17), n=60, p=12), "rho", 1.0,
     "majorization is not strict"),
    (logistic_problem, "rho", 0.5, "loose Frobenius bound.*certify"),
    (logistic_problem, "mu_override", 0.1, "loose Frobenius bound.*certify"),
])
def test_warning_without_slack_says_the_step_is_pinned(make, field, value, why):
    prob = make()
    with pytest.warns(UserWarning, match=rf"<= L_f=.*every step is pinned at mu, "
                                         rf"with no curvature search; no extrapolation "
                                         rf"is tried; .*{why}"):
        run_mm(prob, MmConfig(scheme="a", max_iter=3, **{field: value}))


class CountingLoss:
    """Forwards to a loss and counts each evaluation entry point."""

    def __init__(self, loss):
        self.inner, self.kind, self.data = loss, loss.kind, loss.data
        self.lipschitz = loss.lipschitz
        self.calls = collections.Counter()

    def value_and_grad(self, w):
        self.calls["value_and_grad"] += 1
        return self.inner.value_and_grad(w)

    def value(self, w):
        self.calls["value"] += 1
        return self.inner.value(w)

    def gradient(self, w):
        self.calls["gradient"] += 1
        return self.inner.gradient(w)


class UnderstatedLoss(CountingLoss):
    """A loss whose curvature bound is a fraction of the true one."""

    def __init__(self, loss, factor):
        super().__init__(loss)
        self.lipschitz = factor * loss.lipschitz


def test_understated_lipschitz_shows_as_curvature_failures():
    # the count is of <dg, d> > L_f ||d||^2, not of the search's own test
    # with L_f / 2, which fails on many steps of this run at the true L_f
    prob = ls_problem(np.random.default_rng(18), n=60, p=12)
    trace = run_mm(prob, MmConfig(max_iter=50, tol=1e-10))
    assert trace.meta["lf_curvature_failures"] == 0
    # half the top Gram eigenvalue: steps at that L_f find a curvature above it
    low = ProblemInstance(loss=UnderstatedLoss(prob.loss, 0.5), penalty=prob.penalty)
    trace = run_mm(low, MmConfig(max_iter=50, tol=1e-10))
    assert trace.meta["lf_curvature_failures"] > 0


@pytest.mark.parametrize("scheme", ["a", "b"])
def test_run_mm_evaluates_the_loss_once_per_step(scheme):
    base = logistic_problem()
    loss = CountingLoss(base.loss)
    prob = ProblemInstance(loss=loss, penalty=base.penalty)
    trace = run_mm(prob, MmConfig(scheme=scheme, max_iter=200, tol=1e-10))
    assert trace.num_steps() > 10
    # one evaluation per trial of the curvature search, plus the start
    assert trace.meta["loss_evals"] >= trace.num_steps()
    assert loss.calls == {"value_and_grad": trace.meta["loss_evals"] + 1}


def wide_sparse_problem(kind, shape, n=200, p=20_000, density=0.005, seed=0):
    """CSR least squares with p >> n and a planted 10-sparse +-1 signal."""
    rng = np.random.default_rng(seed)
    X = sp.random(n, p, density=density, format="csr", random_state=rng,
                  data_rvs=rng.standard_normal)
    w = np.zeros(p)
    w[rng.choice(p, size=10, replace=False)] = rng.choice([-1.0, 1.0], size=10)
    y = X @ w + 0.1 * rng.standard_normal(n)
    loss = LeastSquaresLoss(Dataset(X=X, y=y, task="regression"))
    loss.lipschitz
    return ProblemInstance(loss=loss, penalty=make_penalty(kind, lam=0.002, **shape))


@pytest.mark.parametrize("kind, shape, scheme, bound", [
    ("scad", {"theta": 3.7}, "a", 8.8),
    ("mcp", {"gamma": 3.0}, "a", 8.8),
    ("log", {"theta": 1.0}, "b", 10.7),
], ids=["scad-a", "mcp-a", "log-b"])
def test_solve_holds_few_p_vectors_at_its_peak(kind, shape, scheme, bound):
    # the solve's own tracemalloc peak in p-vectors (8p bytes): a step keeps
    # w, grad f(w), the trial's z, grad f(z) and d = z - x, a few
    # temporaries and, for an extrapolated try, y and g_y
    prob = wide_sparse_problem(kind, shape)
    config = MmConfig(scheme=scheme, max_iter=40, tol=0.0, record_iterates=False)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        trace = run_mm(prob, config)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert trace.num_steps() == 40
    assert peak / (8 * prob.p) < bound


def test_capped_l1_scheme_b_rejected_before_the_loop():
    loss = CountingLoss(ls_problem(np.random.default_rng(13)).loss)
    prob = ProblemInstance(loss=loss, penalty=CappedL1Penalty(lam=0.5, theta=1.0))
    with pytest.raises(UnsupportedPenaltyError, match="use scheme 'a'"):
        run_mm(prob, MmConfig(scheme="b"))
    assert loss.calls == {"value_and_grad": 1}


@pytest.mark.parametrize("scheme", ["a", "b"])
@pytest.mark.parametrize("mu", [0.0, -1.0])
def test_run_mm_rejects_nonpositive_mu(scheme, mu):
    prob = ls_problem(np.random.default_rng(13))
    with pytest.warns(UserWarning), pytest.raises(ValueError, match="mu must be positive"):
        run_mm(prob, MmConfig(scheme=scheme, mu_override=mu))


@pytest.mark.parametrize("scheme", ["a", "b"])
@pytest.mark.parametrize("field, value", [
    ("rho", math.nan), ("rho", math.inf), ("mu_override", math.nan), ("mu_override", math.inf),
])
def test_run_mm_rejects_nonfinite_mu(scheme, field, value):
    # mu = inf made a zero step that stopped as converged; mu = nan ended "nonfinite"
    prob = ls_problem(np.random.default_rng(13))
    with pytest.raises(ValueError, match="mu must be positive and finite"):
        run_mm(prob, MmConfig(scheme=scheme, **{field: value}))


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_config_rejects_nonfinite_tol(tol):
    with pytest.raises(ValueError, match="tol must be finite"):
        MmConfig(tol=tol)


def test_config_validation():
    with pytest.raises(ValueError):
        MmConfig(scheme="c")
    with pytest.raises(ValueError):
        MmConfig(max_iter=0)
    with pytest.raises(ValueError):
        MmConfig(rho=-1.0)
    prob = logistic_problem()
    with pytest.raises(ValueError):
        run_mm(prob, MmConfig(), w0=np.zeros(3))
