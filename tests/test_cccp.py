import numpy as np
import pytest

import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from nonconvex_mm import (
    CappedL1Penalty,
    CccpConfig,
    Dataset,
    DcProblem,
    LeastSquaresLoss,
    LogisticLoss,
    McpPenalty,
    MmConfig,
    ProblemInstance,
    ScadPenalty,
    SyntheticSpec,
    UnsupportedPenaltyError,
    cccp_step,
    certify,
    dc_decompose,
    dc_problem_from_penalty,
    least_squares_strong_convexity,
    run_cccp,
    run_mm,
    synth_generate,
)

from nonconvex_mm import cccp as cccp_module

from helpers import prox_gradient_reference, zeta_reference


def full_rank_ls(seed=0, n=100, p=20):
    spec = SyntheticSpec(n=n, p=p, sparsity=5, noise_sd=0.3, seed=seed,
                         task="regression")
    data, _ = synth_generate(spec)
    return LeastSquaresLoss(data)


def count_calls(loss, name):
    """Replace the loss method ``name`` by a wrapper; returns its call counter.
    A ``value_and_grad`` wrapper also counts the calls ``value`` and
    ``gradient`` make through it."""
    calls = [0]
    method = getattr(loss, name)

    def counting(w):
        calls[0] += 1
        return method(w)

    setattr(loss, name, counting)
    return calls


# ----------------------------------------------------------- decomposition
def test_mcp_decomposition_closed_form():
    kappa, h = dc_decompose(McpPenalty(lam=1.0, gamma=2.0))
    assert kappa == pytest.approx(1.0)
    for t in np.linspace(-1.9, 1.9, 41):
        assert h.value(t) == pytest.approx(t * t / 4.0, abs=1e-14)
    for t in (2.0, 3.5, -2.7):
        assert h.value(t) == pytest.approx(abs(t) - 1.0, abs=1e-14)
    assert h.value(0.0) == 0.0
    assert h.deriv(0.0) == 0.0


def test_scad_decomposition_beyond_flat_region():
    # lam=1, theta=3: kappa=1 and the flat value is (theta+1)*lam^2/2 = 2
    kappa, h = dc_decompose(ScadPenalty(lam=1.0, theta=3.0))
    assert kappa == pytest.approx(1.0)
    for t in (3.0, 4.0, 7.7):
        assert h.value(t) == pytest.approx(t - 2.0, rel=1e-14)


@pytest.mark.parametrize("kind,pen,params", [
    ("mcp", McpPenalty(lam=0.7, gamma=2.5), {"lam": 0.7, "gamma": 2.5}),
    ("scad", ScadPenalty(lam=0.7, theta=3.5), {"lam": 0.7, "theta": 3.5}),
    ("log", __import__("nonconvex_mm").LogPenalty(lam=0.7, theta=2.0),
     {"lam": 0.7, "theta": 2.0}),
])
def test_decomposition_exact_on_grid(kind, pen, params):
    kappa, h = dc_decompose(pen)
    t = np.linspace(-6.0, 6.0, 10_000)
    recon = kappa * np.abs(t) - h.value(t)
    np.testing.assert_allclose(recon, zeta_reference(kind, t, **params),
                               rtol=0, atol=1e-12)


def test_remainder_is_midpoint_convex():
    rng = np.random.default_rng(0)
    _, h = dc_decompose(ScadPenalty(lam=0.5, theta=4.0))
    for _ in range(500):
        t1, t2 = rng.uniform(-5, 5, size=2)
        mid = h.value(0.5 * (t1 + t2))
        assert mid <= 0.5 * h.value(t1) + 0.5 * h.value(t2) + 1e-12


def test_capped_l1_has_no_smooth_decomposition():
    with pytest.raises(UnsupportedPenaltyError):
        dc_decompose(CappedL1Penalty(lam=1.0, theta=1.0))


def test_gamma_zero_refused():
    loss = full_rank_ls()
    with pytest.raises(ValueError):
        DcProblem(loss=loss, l1_weight=0.5, remainder=None, gamma_u=0.0)


@pytest.mark.parametrize("field, value", [
    ("tol", np.nan), ("tol", np.inf), ("inner_tol", np.nan), ("inner_tol", np.inf),
])
def test_config_rejects_nonfinite_tolerances(field, value):
    # inner_tol = nan ran every inner solve to its budget yet reported it exact
    with pytest.raises(ValueError, match="tolerances must be finite"):
        CccpConfig(**{field: value})


@pytest.mark.parametrize("box", [
    (np.nan, 1.0), (-1.0, np.nan), (np.where(np.arange(20) == 3, np.nan, -1.0), 1.0),
])
def test_nan_box_bound_refused(box):
    loss = full_rank_ls()
    with pytest.raises(ValueError, match="NaN"):
        dc_problem_from_penalty(loss, McpPenalty(lam=0.2, gamma=3.0), box=box)


def test_infinite_box_bounds_allowed():
    loss = full_rank_ls(seed=8)
    pen = McpPenalty(lam=0.2, gamma=3.0)
    cfg = CccpConfig(tol=1e-10, inner_tol=1e-12, max_iter=300)
    free = run_cccp(dc_problem_from_penalty(loss, pen), cfg)
    boxed = run_cccp(dc_problem_from_penalty(loss, pen, box=(-np.inf, np.inf)), cfg)
    np.testing.assert_array_equal(boxed.final_w, free.final_w)


# -------------------------------------------------------------- inner solve
def test_convex_subproblem_orthonormal_design_is_soft_thresholding():
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.normal(size=(30, 6)))
    X = q * np.sqrt(30)
    y = rng.normal(size=30) * 2
    loss = LeastSquaresLoss(Dataset(X=X, y=y, task="regression"))
    kappa = 0.4
    prob = DcProblem(loss=loss, l1_weight=kappa, remainder=None, gamma_u=1.0)
    cfg = CccpConfig(inner_tol=1e-12)
    out, info = cccp_step(np.zeros(6), prob, cfg)
    what = X.T @ y / 30
    expected = np.sign(what) * np.maximum(np.abs(what) - kappa, 0.0)
    np.testing.assert_allclose(out, expected, atol=1e-10)
    assert not info.inexact


def test_cccp_step_fixed_point():
    loss = full_rank_ls(seed=2)
    prob = dc_problem_from_penalty(loss, McpPenalty(lam=0.3, gamma=3.0))
    cfg = CccpConfig(tol=1e-12, inner_tol=1e-12, max_iter=300)
    trace = run_cccp(prob, cfg)
    assert trace.converged
    out, _ = cccp_step(trace.final_w, prob, cfg)
    assert np.max(np.abs(out - trace.final_w)) <= 1e-9


def test_cccp_step_1d_grid_oracle():
    loss = LeastSquaresLoss(Dataset(X=np.array([[1.3]]), y=np.array([1.8]),
                                    task="regression"))
    pen = McpPenalty(lam=0.5, gamma=2.0)
    prob = dc_problem_from_penalty(loss, pen)
    cfg = CccpConfig(inner_tol=1e-12)
    w = np.array([0.4])
    out, _ = cccp_step(w, prob, cfg)
    gv = prob.v_grad(w)[0]
    grid = np.arange(-5.0, 5.0001, 1e-4)
    objs = [loss.value([g]) + prob.l1_weight * abs(g) - gv * g for g in grid]
    assert abs(out[0] - grid[int(np.argmin(objs))]) <= 1e-3


@pytest.mark.parametrize("ridge", [0.0, 0.4])
def test_inner_curvature_stays_between_gamma_u_and_the_cap(monkeypatch, ridge):
    loss = full_rank_ls(seed=12)
    prob = dc_problem_from_penalty(loss, McpPenalty(lam=0.25, gamma=3.0), ridge=ridge,
                                   box=(-1.0, 1.0))
    search = cccp_module._curvature_search
    accepted = []

    def recording(*args):
        out = search(*args)
        accepted.append(out[0])
        return out

    monkeypatch.setattr(cccp_module, "_curvature_search", recording)
    trace = run_cccp(prob, CccpConfig(tol=1e-10, inner_tol=1e-12, max_iter=300))
    assert trace.converged and certify(trace).passed
    cap = loss.lipschitz + ridge
    assert len(accepted) == sum(trace.meta["inner_iterations"]) > 0
    assert all(prob.gamma_u <= L <= cap for L in accepted)
    assert min(accepted) < cap
    # one gradient per trial of the search plus one at each inner start
    evals = trace.meta["inner_gradient_evals"]
    assert len(evals) == trace.num_steps()
    assert all(e >= it + 1 for e, it in zip(evals, trace.meta["inner_iterations"]))
    assert trace.mu == [None] * len(trace)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 6),
       kappa=st.floats(0.0, 3.0), stretch=st.floats(1.0, 20.0),
       box=st.sampled_from(["none", "finite", "half", "pinned"]))
def test_step_certificate_bounds_the_exact_residual(seed, p, kappa, stretch, box):
    # s(x) = x^T G x / 2 - c^T x with G PSD; the prox step from x with any
    # L >= gamma_u gives B = grad s(x+) - grad s(x) - L (x+ - x), a member of
    # the subproblem's subdifferential at x+, so ||B|| bounds the residual
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(rng.integers(1, 2 * p + 1), p))
    G = A.T @ A / A.shape[0]
    c = rng.normal(size=p)
    ev = np.linalg.eigvalsh(G)
    # L from gamma_u (floored at 1e-3) up to 11 times the top eigenvalue
    L = max(ev[0], 1e-3) * stretch if stretch < 10.0 else ev[-1] * (stretch - 9.0)
    lo = rng.uniform(-2.0, 0.5, size=p)
    bounds = {"none": None,
              "finite": (lo, lo + rng.uniform(0.0, 2.0, size=p)),
              "half": (lo, np.full(p, np.inf)),
              "pinned": (lo, lo.copy())}[box]
    x = rng.normal(size=p)
    if bounds is not None:
        x = np.clip(x, *bounds)
    g = G @ x - c
    x_next = cccp_module._soft_threshold(x - g / L, kappa / L, bounds)
    g_next = G @ x_next - c
    cert = float(np.linalg.norm(g_next - g - L * (x_next - x)))
    resid = cccp_module._subproblem_residual(x_next, g_next, kappa, bounds)
    scale = kappa + np.linalg.norm(g) + np.linalg.norm(g_next) + L * (
        np.linalg.norm(x) + np.linalg.norm(x_next))
    assert resid <= cert + 1e-12 * scale


def _inner_stop_problem(ridge):
    loss = full_rank_ls(seed=26)
    return dc_problem_from_penalty(loss, ScadPenalty(lam=0.2, theta=3.7), ridge=ridge,
                                   box=(-0.4, 0.4))


@pytest.mark.parametrize("ridge", [0.0, 0.3])
@pytest.mark.parametrize("inner_max_iter", [1, 3, 10_000])
def test_inner_solve_reports_the_exact_residual_and_gradient(ridge, inner_max_iter):
    prob = _inner_stop_problem(ridge)
    loss = prob.loss
    w = np.random.default_rng(27).uniform(-0.4, 0.4, size=prob.p)
    cfg = CccpConfig(inner_tol=1e-11, inner_max_iter=inner_max_iter)
    out, info = cccp_step(w, prob, cfg)
    grad_s = loss.gradient(out) + ridge * out - prob.v_grad(w)
    np.testing.assert_allclose(info.smooth_grad, grad_s, rtol=0, atol=1e-13)
    exact = cccp_module._subproblem_residual(out, info.smooth_grad, prob.l1_weight,
                                             prob.box)
    assert info.residual == exact
    assert info.inexact == (exact > cfg.inner_tol)
    if inner_max_iter == 10_000:
        assert not info.inexact and info.residual <= cfg.inner_tol
    else:
        assert info.iterations == inner_max_iter and info.inexact


def test_inner_solve_stops_at_the_first_step_its_certificate_passes(monkeypatch):
    prob = _inner_stop_problem(0.0)
    w = np.random.default_rng(28).uniform(-0.4, 0.4, size=prob.p)
    search, exact = cccp_module._curvature_search, cccp_module._subproblem_residual
    certs, residuals = [], []

    def recording_search(trial, x, g, *args):
        out = search(trial, x, g, *args)
        L, (x_next, g_next) = out[0], out[1][:2]
        certs.append(float(np.linalg.norm(g_next - g - L * (x_next - x))))
        return out

    def recording_residual(*args):
        residuals.append(exact(*args))
        return residuals[-1]

    monkeypatch.setattr(cccp_module, "_curvature_search", recording_search)
    monkeypatch.setattr(cccp_module, "_subproblem_residual", recording_residual)
    tol = 1e-11
    _, info = cccp_step(w, prob, CccpConfig(inner_tol=tol))
    first = next(k for k, c in enumerate(certs, start=1) if c <= tol)
    assert info.iterations == first == len(certs) > 1
    # the exact residual ran at the start point and to confirm the stop
    assert len(residuals) == 2 and residuals[0] > tol
    assert residuals[1] == info.residual <= certs[-1]


# ------------------------------------------------------ inner gradient paths
@pytest.mark.parametrize("sparse", [False, True])
def test_tall_least_squares_inner_loop_never_calls_loss_gradient(sparse):
    # p*p <= nnz(X): the inner gradient comes from the cached Gram pair
    rng = np.random.default_rng(20)
    X = rng.normal(size=(200, 15))
    if sparse:
        X = sp.csr_matrix(np.where(rng.random(X.shape) < 0.5, X, 0.0))
    y = np.asarray(X @ rng.normal(size=15)).ravel() + 0.1 * rng.normal(size=200)
    loss = LeastSquaresLoss(Dataset(X=X, y=y, task="regression"))
    prob = dc_problem_from_penalty(loss, ScadPenalty(lam=0.2, theta=3.7), box=(-1.0, 1.0))
    calls = count_calls(loss, "gradient")
    trace = run_cccp(prob, CccpConfig(tol=1e-10, inner_tol=1e-12, max_iter=300))
    assert trace.converged and certify(trace).passed
    assert calls[0] == 0
    assert sum(trace.meta["inner_gradient_evals"]) > trace.num_steps()


@pytest.mark.parametrize("box", [None, (-0.3, 0.3)])
@pytest.mark.parametrize("ridge", [0.0, 0.4])
def test_gram_path_matches_prox_gradient_reference(ridge, box):
    loss = full_rank_ls(seed=21)
    prob = dc_problem_from_penalty(loss, McpPenalty(lam=0.25, gamma=3.0), ridge=ridge,
                                   box=box)
    w = np.random.default_rng(22).uniform(-0.3, 0.3, size=prob.p)
    g_v = prob.v_grad(w)
    calls = count_calls(loss, "gradient")
    out, info = cccp_step(w, prob, CccpConfig(inner_tol=1e-12))
    assert calls[0] == 0 and not info.inexact
    gradient = loss.gradient
    ref = prox_gradient_reference(lambda x: gradient(x) + ridge * x - g_v,
                                  loss.lipschitz + ridge, prob.l1_weight, box,
                                  np.zeros(prob.p), tol=1e-14)
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-9)


def _logistic_ridge_problem():
    spec = SyntheticSpec(n=120, p=10, sparsity=4, noise_sd=0.0, seed=23,
                         task="classification")
    loss = LogisticLoss(synth_generate(spec)[0])
    return loss, dc_problem_from_penalty(loss, McpPenalty(lam=0.05, gamma=3.0),
                                         ridge=0.5)


def _wide_least_squares_ridge_problem():
    loss = full_rank_ls(seed=24, n=15, p=40)
    return loss, dc_problem_from_penalty(loss, ScadPenalty(lam=0.1, theta=3.7),
                                         ridge=0.5, gamma_u=0.5, box=(-2.0, 2.0))


@pytest.mark.parametrize("make", [_logistic_ridge_problem,
                                  _wide_least_squares_ridge_problem])
def test_design_path_calls_loss_gradient_and_certifies(make):
    loss, prob = make()
    calls = count_calls(loss, "gradient")
    trace = run_cccp(prob, CccpConfig(tol=1e-10, inner_tol=1e-12, max_iter=300))
    assert trace.converged and certify(trace).passed
    assert calls[0] == sum(trace.meta["inner_gradient_evals"]) > trace.num_steps()


@pytest.mark.parametrize("sparse", [False, True])
def test_gamma_u_bitwise_equal_to_the_certificate_on_a_fresh_dataset(sparse):
    loss = full_rank_ls(seed=25)
    X, y = loss.data.X, loss.data.y
    if sparse:
        X = sp.csr_matrix(X)
        loss = LeastSquaresLoss(Dataset(X=X, y=y, task="regression"))
    pen = McpPenalty(lam=0.3, gamma=3.0)
    run_cccp(dc_problem_from_penalty(loss, pen), CccpConfig(max_iter=3))
    gamma_u = dc_problem_from_penalty(loss, pen).gamma_u
    fresh = least_squares_strong_convexity(Dataset(X=X, y=y, task="regression"))
    gram = (X.T @ X) / loss.data.n
    assert gamma_u == fresh == float(np.linalg.eigvalsh(
        gram.toarray() if sparse else gram)[0])


# --------------------------------------------------------------- outer loop
def _tall_boxed_problem():
    loss = full_rank_ls(seed=29)
    return loss, dc_problem_from_penalty(loss, McpPenalty(lam=0.25, gamma=3.0),
                                         box=(-0.3, 0.3))


def _tall_ridge_problem():
    loss = full_rank_ls(seed=30, n=80, p=12)
    return loss, dc_problem_from_penalty(loss, ScadPenalty(lam=0.2, theta=3.7),
                                         ridge=0.4)


@pytest.mark.parametrize("make", [_tall_boxed_problem, _tall_ridge_problem,
                                  _wide_least_squares_ridge_problem,
                                  _logistic_ridge_problem])
def test_objective_column_matches_the_objective_at_every_iterate(make):
    _, prob = make()
    trace = run_cccp(prob, CccpConfig(tol=1e-10, inner_tol=1e-12, max_iter=300))
    assert trace.converged and certify(trace).passed and trace.num_steps() > 5
    for F, w in zip(trace.objective, trace.iterates):
        assert abs(F - prob.objective(w)) <= 1e-12 * max(1.0, abs(F))


@pytest.mark.parametrize("make", [_tall_boxed_problem, _tall_ridge_problem,
                                  _wide_least_squares_ridge_problem])
def test_least_squares_run_evaluates_the_loss_once_outside_the_inner_loop(make):
    loss, prob = make()
    evals = count_calls(loss, "value_and_grad")
    values = count_calls(loss, "value")
    trace = run_cccp(prob, CccpConfig(tol=1e-10, inner_tol=1e-12, max_iter=300))
    assert trace.converged and trace.num_steps() > 5
    assert values[0] == 0
    # the Gram path makes no loss evaluation in the inner loop; the design
    # path makes one per inner gradient
    inner = 0 if cccp_module._inner_gram(loss) is not None else sum(
        trace.meta["inner_gradient_evals"])
    assert evals[0] == 1 + inner


def test_pure_convex_case_matches_reference_solver():
    loss = full_rank_ls(seed=3, n=60, p=10)
    kappa = 0.3
    prob = DcProblem(loss=loss, l1_weight=kappa, remainder=None, gamma_u=0.5)
    trace = run_cccp(prob, CccpConfig(tol=1e-12, inner_tol=1e-12, max_iter=50))
    ref = prox_gradient_reference(loss.gradient, loss.lipschitz, kappa, None,
                                  np.zeros(10))
    ref_obj = loss.value(ref) + kappa * np.sum(np.abs(ref))
    assert trace.final_objective == pytest.approx(ref_obj, abs=1e-6)
    # the descent inequality holds with gamma_u in the purely convex case too
    cert = certify(trace)
    assert cert.passed and cert.worst_descent >= -1e-9


def test_mcp_run_descends_and_reaches_small_residual():
    loss = full_rank_ls(seed=4)
    prob = dc_problem_from_penalty(loss, McpPenalty(lam=0.25, gamma=3.0))
    trace = run_cccp(prob, CccpConfig(tol=1e-10, inner_tol=1e-12, max_iter=300))
    assert trace.converged
    objs = trace.objective
    assert all(a >= b - 1e-10 for a, b in zip(objs, objs[1:]))
    assert trace.residual[-1] <= 1e-6
    cert = certify(trace)
    assert cert.passed and cert.worst_descent >= -1e-9


def test_start_at_critical_point_terminates_immediately():
    loss = full_rank_ls(seed=5)
    prob = dc_problem_from_penalty(loss, McpPenalty(lam=0.25, gamma=3.0))
    cfg = CccpConfig(tol=1e-10, inner_tol=1e-12, max_iter=300)
    first = run_cccp(prob, cfg)
    again = run_cccp(prob, cfg, w0=first.final_w)
    assert again.converged and again.num_steps() == 1
    assert again.step_norm[1] <= 1e-10


def test_residual_bound_holds_on_every_step():
    loss = full_rank_ls(seed=6)
    prob = dc_problem_from_penalty(loss, ScadPenalty(lam=0.3, theta=3.7))
    trace = run_cccp(prob, CccpConfig(tol=1e-10, inner_tol=1e-11, max_iter=300))
    lv = prob.v_lipschitz()
    for k in range(1, len(trace.iters)):
        assert trace.residual[k] <= lv * trace.step_norm[k] + 1e-10
    assert certify(trace).passed
    # an inflated certificate on one step is caught by the library check
    trace.residual[1] = lv * trace.step_norm[1] + 1e-6
    cert = certify(trace)
    assert not cert.passed
    assert cert.worst_bound == pytest.approx(-1e-6, rel=1e-6)
    assert [f.split(":")[0] for f in cert.failures] == ["subgradient bound"]


def test_descent_check_vacuous_on_single_row():
    tr_loss = full_rank_ls(seed=7)
    prob = dc_problem_from_penalty(tr_loss, McpPenalty(lam=0.3, gamma=2.0))
    from nonconvex_mm import IterateTrace
    tr = IterateTrace()
    tr.append(0, prob.objective(np.zeros(prob.p)), 0.0, 0.0, 0.0)
    tr.meta = {"gamma": prob.gamma_u, "residual_lipschitz": prob.v_lipschitz(),
               "descent_slack": 2e-12, "descent_tol": 1e-12, "bound_tol": 1e-10}
    cert = certify(tr)
    assert cert.passed and cert.worst_descent == 0.0 and cert.worst_bound == 0.0


def test_box_constraint_feasible_exactly():
    loss = full_rank_ls(seed=8)
    box = (-0.5, 0.5)
    prob = dc_problem_from_penalty(loss, McpPenalty(lam=0.2, gamma=3.0), box=box)
    trace = run_cccp(prob, CccpConfig(tol=1e-10, inner_tol=1e-12, max_iter=300))
    for w in trace.iterates:
        assert np.all(w >= -0.5) and np.all(w <= 0.5)
    assert np.max(np.abs(trace.final_w)) <= 0.5


def test_ridge_changes_objective_and_is_recorded():
    loss = full_rank_ls(seed=9)
    pen = McpPenalty(lam=0.3, gamma=3.0)
    plain = dc_problem_from_penalty(loss, pen)
    ridged = dc_problem_from_penalty(loss, pen, ridge=0.7)
    w = np.full(loss.data.p, 0.3)
    assert ridged.objective(w) == pytest.approx(
        plain.objective(w) + 0.35 * float(w @ w))
    assert ridged.gamma_u == pytest.approx(plain.gamma_u + 0.7)


def test_dc_objective_reconstructs_penalized_objective():
    loss = full_rank_ls(seed=10)
    pen = McpPenalty(lam=0.4, gamma=2.5)
    dc = dc_problem_from_penalty(loss, pen)
    mm = ProblemInstance(loss=loss, penalty=pen)
    rng = np.random.default_rng(11)
    for _ in range(20):
        w = rng.normal(size=loss.data.p)
        assert dc.objective(w) == pytest.approx(mm.objective(w), rel=1e-12)


def test_lla_correspondence_on_1d_toy():
    # quadratic f with curvature exactly L_f: the CCCP inner subproblem is
    # solved by a single prox step, so CCCP and MM scheme (b) coincide
    loss = LeastSquaresLoss(Dataset(X=np.array([[1.0]]), y=np.array([1.2]),
                                    task="regression"))
    pen = McpPenalty(lam=0.3, gamma=2.0)
    mm_prob = ProblemInstance(loss=loss, penalty=pen)
    dc_prob = dc_problem_from_penalty(loss, pen)
    with pytest.warns(UserWarning):
        mm_trace = run_mm(mm_prob, MmConfig(scheme="b", rho=1.0, max_iter=40,
                                            tol=0.0),
                          w0=np.array([0.05]))
    dc_trace = run_cccp(dc_prob, CccpConfig(tol=0.0, inner_tol=1e-15, max_iter=40),
                        w0=np.array([0.05]))
    for wa, wb in zip(mm_trace.iterates, dc_trace.iterates):
        assert abs(float(wa[0]) - float(wb[0])) <= 1e-8
