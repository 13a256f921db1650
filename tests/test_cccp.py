from unittest import mock

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
    LogPenalty,
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

from helpers import prox_gradient_reference, qp_face_enumeration, zeta_reference


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


@pytest.mark.parametrize("field", ["l1_weight", "ridge"])
def test_negative_weight_refused(field):
    weights = {"l1_weight": 0.5, "ridge": 0.0, field: -0.1}
    name = field.replace("_", " ")
    with pytest.raises(ValueError, match=f"^{name} must be nonnegative$"):
        DcProblem(loss=full_rank_ls(), remainder=None, gamma_u=1.0, **weights)


def test_remainder_with_another_kappa_refused():
    # F takes r from the penalty's support sum, which is kappa*|t| - h(t)
    # only for the remainder's own kappa
    kappa, remainder = dc_decompose(McpPenalty(lam=0.4, gamma=2.5))
    message = f"^l1_weight 0.5 must equal the remainder's kappa {kappa!r}$"
    with pytest.raises(ValueError, match=message):
        DcProblem(loss=full_rank_ls(), l1_weight=0.5, remainder=remainder, gamma_u=1.0)


def test_config_rejects_tol_below_inner_tol():
    # each inner residual may sit near inner_tol, so gap + residual may
    # never reach a smaller tol: this pair would run all 200 outer steps
    data, _ = synth_generate(SyntheticSpec(n=80, p=15, sparsity=4, noise_sd=0.3, seed=3,
                                           task="classification"))
    prob = dc_problem_from_penalty(LogisticLoss(data), McpPenalty(lam=0.1, gamma=3.0),
                                   ridge=0.05)
    with pytest.raises(ValueError, match="^tol 1e-08 is below inner_tol 1e-06"):
        run_cccp(prob, CccpConfig(tol=1e-8, inner_tol=1e-6))
    # tol = 0 runs the budget, and equal tolerances may stop
    CccpConfig(tol=0.0, inner_tol=1e-6)
    CccpConfig(tol=1e-12, inner_tol=1e-12)


@pytest.mark.parametrize("field", ["max_iter", "inner_max_iter"])
def test_config_rejects_iteration_limits_below_one(field):
    with pytest.raises(ValueError, match="^iteration limits must be >= 1$"):
        CccpConfig(**{field: 0})


@pytest.mark.parametrize("field, value", [("max_iter", 2.5), ("inner_max_iter", 2.5),
                                          ("max_iter", 3.0), ("inner_max_iter", np.nan)])
def test_config_rejects_non_integer_iteration_limits(field, value):
    # inner_max_iter = 2.5 ran 3 proximal-gradient steps and reported the
    # start point's residual, since the budget test it == 2.5 never passed
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
        CccpConfig(**{field: value})
    assert getattr(CccpConfig(**{field: np.int64(3)}), field) == 3


@pytest.mark.parametrize("box", [(1.0, -1.0), (np.where(np.arange(20) == 5, 2.0, -1.0), 1.0)])
def test_box_lower_bound_above_its_upper_bound_refused(box):
    with pytest.raises(ValueError, match="^box lower bounds exceed upper bounds$"):
        dc_problem_from_penalty(full_rank_ls(), McpPenalty(lam=0.2, gamma=3.0), box=box)


@pytest.mark.parametrize("box", [
    (np.nan, 1.0), (-1.0, np.nan), (np.where(np.arange(20) == 3, np.nan, -1.0), 1.0),
])
def test_nan_box_bound_refused(box):
    loss = full_rank_ls()
    with pytest.raises(ValueError, match="NaN"):
        dc_problem_from_penalty(loss, McpPenalty(lam=0.2, gamma=3.0), box=box)


def test_infinite_box_bounds_allowed():
    # no box is the box (-inf, inf): the two give bitwise the same run, for
    # least squares (active-set inner solves) and for a logistic loss with a
    # ridge (proximal-gradient inner solves)
    cfg = CccpConfig(tol=1e-10, inner_tol=1e-12, max_iter=300)
    least_squares = full_rank_ls(seed=8)
    for make in (lambda box: dc_problem_from_penalty(
                     least_squares, McpPenalty(lam=0.2, gamma=3.0), box=box),
                 lambda box: _logistic_ridge_problem(box)[1]):
        free, boxed = (run_cccp(make(box), cfg) for box in (None, (-np.inf, np.inf)))
        assert free.converged and free.num_steps() > 1
        for column in ("iters", "objective", "step_norm", "residual", "mu", "beta"):
            assert getattr(boxed, column) == getattr(free, column), column
        assert len(boxed.iterates) == len(free.iterates)
        for got, want in zip(boxed.iterates, free.iterates):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(boxed.final_w, free.final_w)
        for key in ("kkt", "stop_reason", "any_inexact", "inner_residuals",
                    "inner_iterations", "inner_gradient_evals", "inner_patterns",
                    "inner_active_set_solved"):
            assert boxed.meta[key] == free.meta[key], key
    # the logistic run took proximal-gradient steps
    assert sum(free.meta["inner_iterations"]) > 0


@pytest.mark.parametrize("box, bound", [
    ((np.inf, np.inf), "lower"), ((-np.inf, -np.inf), "upper"),
    ((np.where(np.arange(20) == 4, np.inf, -1.0), np.inf), "lower"),
    ((-1.0, np.where(np.arange(20) == 7, -np.inf, 1.0)), "upper"),
])
def test_box_with_no_finite_value_refused(box, bound):
    # a lower bound of +inf or an upper bound of -inf leaves its coordinate
    # no finite value; such a box ran into a non-finite loss
    loss = full_rank_ls()
    with pytest.raises(ValueError, match=f"^box {bound} bounds must be"):
        dc_problem_from_penalty(loss, McpPenalty(lam=0.2, gamma=3.0), box=box)


@pytest.mark.parametrize("box", [None, (-1.0, 1.0), (np.zeros(20), 2.0), (2.0, np.inf)])
def test_problem_box_is_a_pair_of_float_arrays(box):
    prob = dc_problem_from_penalty(full_rank_ls(), McpPenalty(lam=0.2, gamma=3.0),
                                   box=box)
    lo, hi = prob.box
    for bound in (lo, hi):
        assert isinstance(bound, np.ndarray) and bound.dtype == float
        assert bound.shape == (prob.p,)
    if box is None:
        assert np.all(lo == -np.inf) and np.all(hi == np.inf)


@pytest.mark.parametrize("field", ["l1_weight", "ridge", "gamma_u"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_nonfinite_weight_refused(field, value):
    # l1_weight = nan and ridge = nan passed the sign checks, and the run
    # failed later with a non-finite objective at the start
    weights = {"l1_weight": 0.5, "ridge": 0.0, "gamma_u": 1.0, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        DcProblem(loss=full_rank_ls(), remainder=None, **weights)


def test_nonfinite_ridge_named_by_the_penalty_constructor():
    # it read "u must be certified strongly convex ... add a ridge"
    with pytest.raises(ValueError, match="^ridge must be finite"):
        dc_problem_from_penalty(full_rank_ls(), McpPenalty(lam=0.2, gamma=3.0),
                                ridge=np.nan)


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


def short_sparse_ls(seed=0, n=60, p=20):
    """A full-rank CSR least-squares loss with p*p > nnz(X): a Gram matvec
    costs more flops than the design's two matvecs, and its inner solves
    still take the Gram pair and the active-set solve."""
    rng = np.random.default_rng(seed)
    X = sp.random(n, p, density=0.3, random_state=seed, data_rvs=rng.standard_normal,
                  format="csr")
    y = np.asarray(X @ rng.normal(size=p)).ravel() + 0.3 * rng.normal(size=n)
    return LeastSquaresLoss(Dataset(X=X, y=y, task="regression"))


class CountingGram(np.ndarray):
    """A Gram matrix that counts its matrix-vector products."""

    matvecs = 0

    def __matmul__(self, other):
        CountingGram.matvecs += 1
        return np.asarray(self) @ other


@pytest.mark.parametrize("ridge", [0.0, 0.4])
def test_inner_curvature_stays_between_gamma_u_and_the_cap(monkeypatch, ridge):
    # for least squares, whatever the design, the active-set solve ends
    # every inner solve and no proximal-gradient step runs; for a logistic
    # loss proximal gradient runs to the end, and there the search leaves
    # the cap
    search = cccp_module._curvature_search
    accepted, trials = [], [0]

    def recording(trial, *args):
        def counting(L):
            trials[0] += 1
            return trial(L)

        out = search(counting, *args)
        accepted.append(out[0])
        return out

    monkeypatch.setattr(cccp_module, "_curvature_search", recording)
    mcp = McpPenalty(lam=0.25, gamma=3.0)
    # a logistic loss takes its modulus from a ridge
    for loss, pen, rho in ((full_rank_ls(seed=12), mcp, ridge),
                           (short_sparse_ls(seed=12), mcp, ridge),
                           (_logistic_ridge_problem()[0], McpPenalty(lam=0.05, gamma=3.0),
                            ridge + 0.5)):
        gram_path = isinstance(loss, LeastSquaresLoss)
        prob = dc_problem_from_penalty(loss, pen, ridge=rho, box=(-1.0, 1.0))
        if gram_path:
            # the certificate cached the Gram pair; count its matvecs
            G, b = loss.data.gram
            loss.data.__dict__["gram"] = (G.view(CountingGram), b)
        accepted.clear()
        trials[0] = CountingGram.matvecs = 0
        trace = run_cccp(prob, CccpConfig(tol=1e-10, inner_tol=1e-12, max_iter=300))
        assert trace.converged and certify(trace).passed
        assert trace.converged == (trace.meta["stop_reason"] == "tol")
        cap = loss.lipschitz + rho
        assert len(accepted) == sum(trace.meta["inner_iterations"])
        assert all(prob.gamma_u <= L <= cap for L in accepted)
        evals = trace.meta["inner_gradient_evals"]
        assert len(evals) == trace.num_steps()
        assert trace.mu == [None] * len(trace)
        if gram_path:
            # every Gram matvec of the inner solves is counted
            assert accepted == [] and sum(evals) == CountingGram.matvecs > 0
            assert trace.meta["inner_active_set_solved"] == [1] * trace.num_steps()
        else:
            # one gradient per trial of the search and one at each inner start
            assert sum(evals) == trials[0] + trace.num_steps()
            assert min(accepted) < cap and CountingGram.matvecs == 0
            assert sum(trace.meta["inner_patterns"]) == 0


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
    # no box is the box (-inf, inf), as a DcProblem normalizes it
    bounds = {"none": (np.full(p, -np.inf), np.full(p, np.inf)),
              "finite": (lo, lo + rng.uniform(0.0, 2.0, size=p)),
              "half": (lo, np.full(p, np.inf)),
              "pinned": (lo, lo.copy())}[box]
    x = np.clip(rng.normal(size=p), *bounds)
    g = G @ x - c
    # the prox of kappa/L |.|_1 plus the box: soft-threshold, then clamp
    x_next = np.clip(cccp_module._soft_threshold(x - g / L, kappa / L), *bounds)
    g_next = G @ x_next - c
    cert = float(np.linalg.norm(g_next - g - L * (x_next - x)))
    resid = cccp_module._subproblem_residual(x_next, g_next, kappa, bounds)
    scale = kappa + np.linalg.norm(g) + np.linalg.norm(g_next) + L * (
        np.linalg.norm(x) + np.linalg.norm(x_next))
    assert resid <= cert + 1e-12 * scale


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 5), lam=st.floats(0.01, 1.0),
       ridge=st.sampled_from([0.0, 0.3]),
       box=st.sampled_from(["none", "finite", "half", "pinned"]))
def test_inner_solve_matches_the_face_enumeration_oracle(seed, p, lam, ridge, box):
    # on a least-squares loss the active-set solve ends the inner solve;
    # its output is the subproblem's minimizer
    rng = np.random.default_rng(seed)
    n = int(rng.integers(p + 1, 3 * p + 2))
    loss = LeastSquaresLoss(Dataset(X=rng.normal(size=(n, p)),
                                    y=2.0 * rng.normal(size=n), task="regression"))
    lo = rng.uniform(-2.0, 0.5, size=p)
    bounds = {"none": None,
              "finite": (lo, lo + rng.uniform(0.0, 2.0, size=p)),
              "half": (lo, np.full(p, np.inf)),
              "pinned": (lo, lo.copy())}[box]
    prob = dc_problem_from_penalty(loss, ScadPenalty(lam=lam, theta=3.7), ridge=ridge,
                                   box=bounds)
    # a random start point with zeros and coordinates at bounds starts on a
    # pattern that may be far from the answer; the cold start is w = 0
    w = rng.uniform(-2.0, 2.0, size=p)
    w[rng.random(p) < 0.3] = 0.0
    cfg = CccpConfig(inner_tol=1e-10)
    G, b = loss.data.gram
    Q = G + ridge * np.eye(p)
    lo, hi = (np.full(p, -np.inf), np.full(p, np.inf)) if prob.box is None else prob.box
    pattern_solve, states = cccp_module._pattern_solve, []

    def recording(G, ridge, kappa, b, state, box, grad_s):
        states.append(state.copy())
        return pattern_solve(G, ridge, kappa, b, state, box, grad_s)

    for start in (prob.project(w), prob.project(np.zeros(p))):
        states.clear()
        with mock.patch.object(cccp_module, "_pattern_solve", recording):
            out, info = cccp_step(start, prob, cfg)
        c = b + prob.v_grad(start)
        x_star = qp_face_enumeration(Q, c, prob.l1_weight, prob.box)
        exact = cccp_module._subproblem_residual(out, info.smooth_grad, prob.l1_weight,
                                                 prob.box)
        assert info.residual == exact <= cfg.inner_tol and not info.inexact
        scale = (np.linalg.norm(Q, 2) * np.linalg.norm(x_star) + np.linalg.norm(c)
                 + prob.l1_weight)
        np.testing.assert_allclose(info.smooth_grad, Q @ out - c, rtol=0,
                                   atol=1e-13 * scale)
        # strong convexity: ||x - x*|| <= dist(0, subdifferential at x) / gamma_u
        assert np.linalg.norm(out - x_star) <= (cfg.inner_tol + 1e-12 * scale) / prob.gamma_u
        # the active-set solve ends every solve whose start point is not the
        # answer, without a proximal-gradient step
        assert info.iterations == 0
        assert info.active_set_solved == (info.patterns > 0)
        assert len(states) <= info.patterns
        # a box that excludes 0 or pins a coordinate allows only some states
        for state in states:
            low, neg, zero, pos, up = (state == code for code in (
                cccp_module._LOW, cccp_module._NEG, cccp_module._ZERO, cccp_module._POS,
                cccp_module._UP))
            assert np.isfinite(lo[low]).all() and np.isfinite(hi[up]).all()
            assert np.all(lo[zero] <= 0.0) and np.all(hi[zero] >= 0.0)
            assert np.all(lo[neg] < np.minimum(hi[neg], 0.0))
            assert np.all(np.maximum(lo[pos], 0.0) < hi[pos])


@pytest.mark.parametrize("g00, c0, ridge, box, expected", [
    (1.0, 2.0, 0.0, None, 1.5),                 # the face minimizer c0 - kappa
    (1.0, 2.0, 1.0, None, 0.75),                # (c0 - kappa) / (1 + ridge)
    (1.0, 0.3, 0.0, None, None),                # c0 - kappa < 0 leaves the face
    (1.0, 2.0, 0.0, (-1.0, 1.0), None),         # leaves the box
    (1.0, 1.2, 0.0, (-1.0, 1.0), 0.7),
    (0.0, 2.0, 0.0, None, None),                # the free block is not positive definite
])
def test_face_solve_returns_the_face_minimizer_or_none(g00, c0, ridge, box, expected):
    # s(x) = x^T G x / 2 - c^T x + ridge |x|^2 / 2 with kappa = 0.5 on the
    # pattern (free and positive, zero): the pattern's point has x_0 =
    # (c0 - kappa) / (g00 + ridge) and x_1 = 0, and x_0 violates its state
    # (expected None) when it is negative or leaves the box
    G = np.array([[g00, 0.5], [0.5, 2.0]])
    c = np.array([c0, 3.0])
    lo, hi = (-np.inf, np.inf) if box is None else box
    bounds = (np.full(2, lo), np.full(2, hi))
    state = np.array([cccp_module._POS, cccp_module._ZERO])

    def grad_s(x):
        return G @ x + ridge * x - c

    out = cccp_module._pattern_solve(G, ridge, 0.5, c, state, bounds, grad_s)
    if g00 == 0.0:
        assert out is None      # the free block is not positive definite
        return
    x, g = out
    np.testing.assert_allclose(x, [(c0 - 0.5) / (g00 + ridge), 0.0], rtol=0, atol=1e-15)
    np.testing.assert_array_equal(g, grad_s(x))
    _, viol, _ = cccp_module._check_pattern(x, g, 0.5, bounds, state)
    assert (0 in viol) == (expected is None)
    if expected is not None:
        assert x[0] == pytest.approx(expected, abs=1e-15)


def test_pattern_solve_hands_posv_the_free_block_in_fortran_order():
    # the gather by flat index gives posv the block G[F, F] of the free
    # coordinates F, laid out in the Fortran order it factors in place
    rng = np.random.default_rng(31)
    Z = rng.normal(size=(40, 12))
    G = Z.T @ Z / 40
    state = rng.choice([cccp_module._NEG, cccp_module._ZERO, cccp_module._POS], size=12)
    free = np.flatnonzero(state & 1)
    c = rng.normal(size=12)
    bounds = (np.full(12, -np.inf), np.full(12, np.inf))
    dposv, seen = cccp_module.dposv, []

    def recording(A, *args, **kwargs):
        seen.append(A.copy(order="A"))
        return dposv(A, *args, **kwargs)

    with mock.patch.object(cccp_module, "dposv", recording):
        cccp_module._pattern_solve(G, 0.0, 0.5, c, state, bounds, lambda x: G @ x - c)
    (A,) = seen
    assert 2 <= free.size < 12 and A.flags.f_contiguous
    reference = G[np.ix_(free, free)].T
    assert A.tobytes(order="A") == reference.tobytes(order="A")


def test_murty_rule_moves_one_violator_when_exchanges_stop_helping():
    # an ill-conditioned G (condition number near 1800): the violator counts
    # run 4, 4, 3, 1, 4, 2, 1, 1, 4, 3, 2, so after three exchanges that do
    # not go below 1 violator the last four exchanges move one coordinate
    # each; the twelfth pattern's point, the answer, has none
    rng = np.random.default_rng(13)
    p, kappa = 4, 0.5
    A = rng.normal(size=(p, p)) * rng.uniform(0.1, 10, size=p)
    G = A.T @ A / p + 1e-3 * np.eye(p)
    b = 5 * rng.normal(size=p)
    box = (np.full(p, -1.0), np.full(p, 1.0))
    x0 = np.clip(2 * rng.normal(size=p), *box)
    x0[rng.random(p) < 0.4] = 0.0

    def grad_s(x):
        return G @ x - b

    check, counts, states = cccp_module._check_pattern, [], []

    def recording(x, g, kappa, box, state):
        states.append(state.copy())
        out = check(x, g, kappa, box, state)
        counts.append(out[1].size)
        return out

    g0 = grad_s(x0)
    with mock.patch.object(cccp_module, "_check_pattern", recording):
        (x, g, resid), patterns = cccp_module._active_set_solve(
            G, 0.0, kappa, b, box, x0, g0, grad_s, 1e-12, 100)
    assert counts == [4, 4, 3, 1, 4, 2, 1, 1, 4, 3, 2, 0] and patterns == 12
    moved = [int(np.count_nonzero(s != t)) for s, t in zip(states, states[1:])]
    assert moved == counts[:7] + [1, 1, 1, 1]
    assert resid <= 1e-12
    np.testing.assert_array_equal(g, grad_s(x))
    np.testing.assert_allclose(x, qp_face_enumeration(G, b, kappa, box), rtol=0, atol=1e-15)


def _reference_check(x, g, kappa, box, state):
    """The residual and violators as two formulas: the exact residual, and
    the directional derivatives g + hi (g + lo) of fixed coordinates."""
    lo, hi = box
    lo_s, hi_s = cccp_module._subdiff_interval(x, kappa, box)
    up, down = g + hi_s < 0.0, g + lo_s > 0.0
    free, pos = (state & 1).astype(bool), state == cccp_module._POS
    up = np.where(free, x > np.where(pos, hi, np.minimum(hi, 0.0)), up)
    down = np.where(free, x < np.where(pos, np.maximum(lo, 0.0), lo), down)
    viol = np.flatnonzero(up | down)
    return cccp_module._subproblem_residual(x, g, kappa, box), viol, up[viol]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 8),
       kappa=st.sampled_from([0.0, 0.5, 1.75]))
def test_pattern_check_matches_the_directional_derivative_test(seed, p, kappa):
    # the signs of r = clip(-g, lo, hi) + g are the signs of g + hi and g + lo
    # where -g leaves [lo, hi], and r is 0 inside, bit for bit: on points at
    # 0, at a bound and outside the box, with infinite, zero and pinned
    # bounds and infinite or NaN gradients, in any pattern state
    rng = np.random.default_rng(seed)
    lo = rng.choice([-np.inf, -1.0, 0.0, 0.5], size=p)
    hi = np.maximum(lo, rng.choice([np.inf, 1.0, 0.0, -0.5], size=p))
    pinned = rng.random(p) < 0.2
    hi[pinned] = lo[pinned] = np.where(np.isfinite(lo[pinned]), lo[pinned], 1.0)
    box = (lo, hi)
    x = np.select([rng.random(p) < 0.3, rng.random(p) < 0.4, rng.random(p) < 0.5],
                  [0.0, np.where(rng.random(p) < 0.5, lo, hi), rng.normal(size=p) * 3],
                  np.clip(rng.normal(size=p), lo, hi))
    x[~np.isfinite(x)] = 0.0
    g = np.select([rng.random(p) < 0.3, rng.random(p) < 0.1],
                  [rng.choice([kappa, -kappa, 0.0], size=p),
                   rng.choice([np.inf, -np.inf, np.nan], size=p)],
                  rng.normal(size=p) * 2)
    state = rng.integers(0, 5, size=p)
    with np.errstate(invalid="ignore"):
        resid, viol, up = cccp_module._check_pattern(x, g, kappa, box, state)
        ref_resid, ref_viol, ref_up = _reference_check(x, g, kappa, box, state)
    assert np.float64(resid).tobytes() == np.float64(ref_resid).tobytes()
    np.testing.assert_array_equal(viol, ref_viol)
    np.testing.assert_array_equal(up, ref_up)


def test_subproblem_residual_is_infinite_outside_the_box():
    # x_0 = 0 lies above its upper bound -0.5; the l1 interval at 0 holds
    # -g_0 = 0, so a residual blind to the box read 0 there
    box = (np.array([-2.0, -1.0]), np.array([-0.5, 1.0]))
    g = np.array([0.0, -0.3])
    assert cccp_module._subproblem_residual(np.array([0.0, 0.2]), g, 0.3, box) == np.inf
    assert cccp_module._subproblem_residual(np.array([-0.5, 0.2]), g, 0.3, box) == 0.0


def test_exhausted_pattern_budget_falls_back_to_proximal_gradient():
    # G = I: proximal gradient with L = 1 solves the subproblem in one step,
    # x = clip(c - kappa) = 1.  From the lower bound the pivoting moves each
    # coordinate one state per pattern (low, negative, zero, positive, up),
    # so it needs 5 patterns and a budget of 3 ends it short
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(30, 4)))
    X = q * np.sqrt(30)
    loss = LeastSquaresLoss(Dataset(X=X, y=X @ np.full(4, 3.0), task="regression"))
    prob = DcProblem(loss=loss, l1_weight=0.4, remainder=None, gamma_u=1.0, box=(-1.0, 1.0))
    w = np.full(4, -1.0)
    out, info = cccp_step(w, prob, CccpConfig(inner_tol=1e-12, inner_max_iter=3))
    assert (info.patterns, info.active_set_solved) == (3, 0)
    assert 0 < info.iterations <= 3
    assert not info.inexact and info.residual <= 1e-12
    np.testing.assert_allclose(out, np.ones(4), rtol=0, atol=1e-12)
    ended, full = cccp_step(w, prob, CccpConfig(inner_tol=1e-12))
    assert (full.patterns, full.active_set_solved, full.iterations) == (5, 1, 0)
    np.testing.assert_array_equal(ended, np.ones(4))


def _mcp_box_problem():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 8))
    y = X @ rng.normal(size=8) + 0.1 * rng.normal(size=40)
    loss = LeastSquaresLoss(Dataset(X=X, y=y, task="regression"))
    return dc_problem_from_penalty(loss, McpPenalty(lam=0.3, gamma=3.0), box=(-1.0, 1.0))


def test_pattern_with_no_violator_ends_the_inner_solve():
    # no finite-precision point reaches inner_tol = 1e-300.  The pivoting's
    # third pattern has no violator, so its point is the answer up to
    # rounding: it is returned flagged inexact, and no proximal-gradient
    # restart from w (5 steps end at a residual of about 0.03) replaces it
    prob = _mcp_box_problem()
    w = np.zeros(prob.p)
    out, info = cccp_step(w, prob, CccpConfig(inner_tol=1e-300, inner_max_iter=5))
    assert (info.iterations, info.active_set_solved, info.inexact) == (0, 1, True)
    assert info.residual <= 1e-15
    exact, full = cccp_step(w, prob, CccpConfig())
    assert (full.iterations, full.active_set_solved, full.inexact) == (0, 1, False)
    np.testing.assert_array_equal(out, exact)


def test_failed_cholesky_falls_back_to_proximal_gradient():
    # posv reports a free block that is not positive definite (info > 0):
    # the pivoting gives up and proximal gradient solves from the start point
    prob = _mcp_box_problem()
    w = np.zeros(prob.p)
    exact, _ = cccp_step(w, prob, CccpConfig())
    posv = cccp_module.dposv

    def failing(*args, **kwargs):
        return (*posv(*args, **kwargs)[:2], 1)

    with mock.patch.object(cccp_module, "dposv", failing):
        out, info = cccp_step(w, prob, CccpConfig())
    assert info.active_set_solved == 0 and info.iterations > 0
    assert not info.inexact and info.residual <= 1e-10
    np.testing.assert_allclose(out, exact, rtol=0, atol=1e-9)


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
    # proximal gradient stops at the first step whose ||B|| passes; its
    # exact residual runs at the start, to confirm a stop and at the budget.
    # The active-set solve checks the exact residual of each pattern's
    # point and stops at the first that passes; a start point with a free
    # coordinate is not a pattern's point, and is not checked
    search, exact = cccp_module._curvature_search, cccp_module._subproblem_residual
    pattern_solve, check = cccp_module._pattern_solve, cccp_module._check_pattern
    events = []

    def recording_search(trial, x, g, *args):
        out = search(trial, x, g, *args)
        L, (x_next, g_next) = out[0], out[1][:2]
        events.append(("cert", float(np.linalg.norm(g_next - g - L * (x_next - x)))))
        return out

    def recording_residual(*args):
        events.append(("residual", exact(*args)))
        return events[-1][1]

    def recording_pattern(*args):
        events.append(("pattern", None))
        return pattern_solve(*args)

    def recording_check(*args):
        out = check(*args)
        events.append(("residual", out[0]))
        return out

    monkeypatch.setattr(cccp_module, "_curvature_search", recording_search)
    monkeypatch.setattr(cccp_module, "_subproblem_residual", recording_residual)
    monkeypatch.setattr(cccp_module, "_check_pattern", recording_check)
    monkeypatch.setattr(cccp_module, "_pattern_solve", recording_pattern)
    tol = 1e-11
    gram_prob = _inner_stop_problem(0.0)
    logistic_prob = _logistic_ridge_problem((-0.4, 0.4))[1]
    for prob in (gram_prob, logistic_prob):
        events.clear()
        w = np.random.default_rng(28).uniform(-0.4, 0.4, size=prob.p)
        _, info = cccp_step(w, prob, CccpConfig(inner_tol=tol))
        kinds = [kind for kind, _ in events]
        certs = [v for kind, v in events if kind == "cert"]
        residuals = [v for kind, v in events if kind == "residual"]
        # every exact residual but the last missed; the last one stopped it
        assert all(r > tol for r in residuals[:-1])
        assert residuals[-1] == info.residual <= tol
        assert info.iterations == len(certs)
        if prob is gram_prob:
            # w has no zero and no coordinate at a bound: every pattern is
            # solved, and each solve is followed by its residual
            assert info.iterations == 0 and info.active_set_solved == 1
            assert kinds == ["pattern", "residual"] * info.patterns
            assert info.patterns > 1
        else:
            assert kinds[0] == "residual" and residuals[0] > tol
            assert info.patterns == info.active_set_solved == 0 and len(certs) > 1
            for before, kind in zip(events, kinds[1:]):
                if kind == "residual":
                    assert before[0] == "cert" and before[1] <= tol
            assert all(c > tol for c in certs[:-1])
            assert residuals[-1] <= certs[-1] <= tol


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


def _logistic_ridge_problem(box=None):
    spec = SyntheticSpec(n=120, p=10, sparsity=4, noise_sd=0.0, seed=23,
                         task="classification")
    loss = LogisticLoss(synth_generate(spec)[0])
    return loss, dc_problem_from_penalty(loss, McpPenalty(lam=0.05, gamma=3.0),
                                         ridge=0.5, box=box)


def _wide_least_squares_ridge_problem():
    loss = full_rank_ls(seed=24, n=15, p=40)
    return loss, dc_problem_from_penalty(loss, ScadPenalty(lam=0.1, theta=3.7),
                                         ridge=0.5, box=(-2.0, 2.0))


def _short_sparse_problem():
    loss = short_sparse_ls(seed=26)
    return loss, dc_problem_from_penalty(loss, McpPenalty(lam=0.25, gamma=3.0),
                                         box=(-1.0, 1.0))


@pytest.mark.parametrize("make", [_logistic_ridge_problem])
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


def test_ridge_alone_certifies_a_rank_deficient_design():
    # it raised "design is rank deficient", although a ridge > 0 is a
    # strong-convexity modulus by itself
    loss = full_rank_ls(seed=31, n=20, p=50)
    pen = ScadPenalty(lam=0.1, theta=3.7)
    with pytest.raises(ValueError, match="^design is rank deficient"):
        dc_problem_from_penalty(loss, pen)
    prob = dc_problem_from_penalty(loss, pen, ridge=0.1)
    assert prob.gamma_u == 0.1
    trace = run_cccp(prob, CccpConfig())
    assert trace.converged and certify(trace).passed
    # a full-rank design keeps ridge plus its bottom Gram eigenvalue
    tall = full_rank_ls(seed=25)
    assert (dc_problem_from_penalty(tall, pen, ridge=0.1).gamma_u
            == 0.1 + least_squares_strong_convexity(tall.data))


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
                                  _logistic_ridge_problem])
def test_run_evaluates_grad_v_once_per_iterate(make):
    # the grad v of the linearization gap is the next step's linearization:
    # K + 1 evaluations for K steps, each step the bits of a step that
    # evaluates its own
    _, prob = make()
    cfg = CccpConfig(tol=1e-10, inner_tol=1e-12, max_iter=300)
    with mock.patch.object(DcProblem, "v_grad", autospec=True,
                           side_effect=DcProblem.v_grad) as v_grad:
        trace = run_cccp(prob, cfg)
    assert trace.num_steps() > 5 and v_grad.call_count == trace.num_steps() + 1
    for k, (w, w_next) in enumerate(zip(trace.iterates, trace.iterates[1:])):
        out, info = cccp_step(w, prob, cfg)
        np.testing.assert_array_equal(out, w_next)
        assert info.residual == trace.meta["inner_residuals"][k]


def test_nonfinite_objective_at_the_start_point_refused():
    # f(0) = ||y||^2 / (2n) overflows for y of order 1e160
    rng = np.random.default_rng(0)
    loss = LeastSquaresLoss(Dataset(X=rng.normal(size=(30, 5)),
                                    y=rng.normal(size=30) * 1e160, task="regression"))
    prob = dc_problem_from_penalty(loss, ScadPenalty(lam=0.1, theta=3.7), box=(-1, 1))
    with np.errstate(over="ignore"), pytest.raises(
            FloatingPointError, match="^objective is not finite at the starting point$"):
        run_cccp(prob, CccpConfig())


def test_step_from_a_nan_start_point_is_flagged_inexact():
    # the step's residual is NaN there, and a NaN residual is no solve
    rng = np.random.default_rng(0)
    loss = LeastSquaresLoss(Dataset(X=rng.normal(size=(40, 6)), y=rng.normal(size=40),
                                    task="regression"))
    prob = dc_problem_from_penalty(loss, McpPenalty(lam=0.1, gamma=3.0), box=(-1.0, 1.0))
    w = np.zeros(6)
    w[2] = np.nan
    _, info = cccp_step(w, prob, CccpConfig())
    assert np.isnan(info.residual) and info.inexact


@pytest.mark.parametrize("make", [_tall_boxed_problem, _tall_ridge_problem,
                                  _wide_least_squares_ridge_problem,
                                  _short_sparse_problem])
def test_least_squares_run_evaluates_the_loss_once_outside_the_inner_loop(make):
    # a wide design (p > n) and a sparse one with p*p > nnz(X) too: every
    # least-squares inner solve works on the Gram pair, with no loss
    # evaluation and no proximal-gradient step.  The start point is 0,
    # whose f and grad f come from the Gram pair, so the loss is never
    # evaluated
    loss, prob = make()
    evals = count_calls(loss, "value_and_grad")
    values = count_calls(loss, "value")
    trace = run_cccp(prob, CccpConfig(tol=1e-10, inner_tol=1e-12, max_iter=300))
    assert trace.converged and trace.num_steps() > 5
    assert values[0] == 0 and evals[0] == 0
    assert trace.meta["inner_iterations"] == [0] * trace.num_steps()
    # only proximal gradient reads L_f, and its eigen-solve never runs
    assert "gram_top_eigenvalue" not in loss.data.__dict__


@pytest.mark.parametrize("make", [_tall_boxed_problem, _short_sparse_problem],
                         ids=["dense", "csr"])
def test_zero_start_takes_the_bits_of_value_and_grad_from_the_gram_pair(make):
    # at 0 the residual is -y, and X^T (-y) is the exact negation of X^T y
    # in the dense and the sparse kernel: the first row's F and grad f are
    # those of value_and_grad(0), and the second row's F, which carries
    # grad f(0) forward, is too
    loss, prob = make()
    zero = np.zeros(prob.p)
    f0, g0 = loss.value_and_grad(zero)
    np.testing.assert_array_equal(-loss.data.gram[1], g0)
    np.testing.assert_array_equal(np.signbit(-loss.data.gram[1]), np.signbit(g0))
    evals = count_calls(loss, "value_and_grad")
    cfg = CccpConfig(tol=1e-10, inner_tol=1e-12, max_iter=300)
    trace = run_cccp(prob, cfg)
    assert evals[0] == 0 and trace.num_steps() > 1
    assert trace.objective[0] == prob._objective_given_loss(zero, f0)[1]
    w1, info = cccp_step(zero, prob, cfg)
    # grad f(w1) = grad s(w1) + grad v(0), with no ridge
    f1 = f0 + 0.5 * float(np.vdot(g0 + info.smooth_grad + prob.v_grad(zero), w1))
    assert trace.objective[1] == prob._objective_given_loss(w1, f1)[1]


@pytest.mark.parametrize("start", ["nonzero-w0", "box-excludes-0"])
def test_least_squares_run_from_a_nonzero_start_evaluates_the_loss_once(start):
    loss = full_rank_ls(seed=29)
    pen = McpPenalty(lam=0.25, gamma=3.0)
    if start == "nonzero-w0":
        prob = dc_problem_from_penalty(loss, pen, box=(-0.3, 0.3))
        w0 = np.full(prob.p, 0.1)
    else:
        # the zero start projects onto the lower bound 0.05
        prob = dc_problem_from_penalty(loss, pen, box=(0.05, 0.3))
        w0 = None
    evals = count_calls(loss, "value_and_grad")
    trace = run_cccp(prob, CccpConfig(tol=1e-10, inner_tol=1e-12, max_iter=300), w0)
    assert evals[0] == 1 and trace.converged
    start_point = prob.project(np.zeros(prob.p) if w0 is None else w0)
    assert start_point.all()
    assert trace.objective[0] == prob.objective(start_point)


@pytest.mark.parametrize("make", [_tall_boxed_problem, _tall_ridge_problem,
                                  _wide_least_squares_ridge_problem,
                                  _logistic_ridge_problem])
@pytest.mark.parametrize("max_iter", [1, 300])
def test_run_records_the_exact_kkt_residual_at_its_final_iterate(make, max_iter):
    loss, prob = make()
    trace = run_cccp(prob, CccpConfig(tol=1e-10, inner_tol=1e-12, max_iter=max_iter))
    w = trace.final_w
    grad = loss.gradient(w) + prob.ridge * w - prob.v_grad(w)
    kkt = trace.meta["kkt"]
    assert abs(kkt - cccp_module._subproblem_residual(w, grad, prob.l1_weight,
                                                      prob.box)) <= 1e-12
    # the last inner residual plus the last linearization gap bounds it
    assert kkt <= trace.meta["inner_residuals"][-1] + trace.residual[-1] + 1e-15
    assert certify(trace).kkt == kkt


@pytest.mark.parametrize("make", [_tall_boxed_problem, _tall_ridge_problem,
                                  _wide_least_squares_ridge_problem,
                                  _short_sparse_problem, _logistic_ridge_problem])
def test_run_records_the_face_solves_of_every_inner_solve(make):
    loss, prob = make()
    evals = count_calls(loss, "value_and_grad")
    trace = run_cccp(prob, CccpConfig(tol=1e-10, inner_tol=1e-12, max_iter=300))
    meta = trace.meta
    patterns, solved = meta["inner_patterns"], meta["inner_active_set_solved"]
    steps = trace.num_steps()
    assert len(patterns) == len(solved) == len(meta["inner_iterations"]) == steps
    assert all(a in (0, 1) and a <= t for t, a in zip(patterns, solved))
    if isinstance(loss, LeastSquaresLoss):
        # the active-set solve ends every inner solve that has to move,
        # whatever the design's shape or sparsity
        assert solved == [int(t > 0) for t in patterns] and sum(solved) > 0
        assert meta["inner_iterations"] == [0] * steps
        # the zero start takes f and grad f from the Gram pair
        assert evals[0] == 0
    else:
        # other losses run proximal gradient only
        assert sum(patterns) == 0


@pytest.mark.parametrize("bad_call", [2, 4], ids=["step-1", "step-3"])
def test_nonfinite_objective_after_the_start_ends_the_run(bad_call):
    # loss.value is called once per iterate, the start point's first; from
    # its bad_call-th call on it returns inf, and that row is not recorded
    loss, prob = _logistic_ridge_problem()
    value, calls = loss.value, [0]

    def value_inf_from_bad_call(w):
        calls[0] += 1
        return np.inf if calls[0] >= bad_call else value(w)

    loss.value = value_inf_from_bad_call
    trace = run_cccp(prob, CccpConfig(tol=1e-10, inner_tol=1e-12, max_iter=300))
    assert trace.meta["stop_reason"] == "nonfinite" and not trace.converged
    assert trace.num_steps() == bad_call - 2
    assert np.all(np.isfinite(trace.objective)) and np.all(np.isfinite(trace.residual))
    np.testing.assert_array_equal(trace.final_w, trace.iterates[-1])
    # the rejected step's inner solve is not the trace's
    assert len(trace.meta["inner_residuals"]) == trace.num_steps()
    w = trace.final_w
    grad = loss.gradient(w) + prob.ridge * w - prob.v_grad(w)
    kkt = trace.meta["kkt"]
    assert np.isfinite(kkt)
    assert abs(kkt - cccp_module._subproblem_residual(w, grad, prob.l1_weight,
                                                      prob.box)) <= 1e-12
    assert certify(trace).passed


@pytest.mark.parametrize("box", [None, (-1.0, 1.0)])
def test_start_point_of_the_wrong_length_is_refused(box):
    loss = full_rank_ls(seed=31, n=40, p=10)
    prob = dc_problem_from_penalty(loss, ScadPenalty(lam=0.2, theta=3.7), box=box)
    with pytest.raises(ValueError, match="^w0 has length 11, expected 10$"):
        run_cccp(prob, CccpConfig(), w0=np.zeros(11))


@pytest.mark.parametrize("solver", ["mm", "cccp"])
@pytest.mark.parametrize("loss_kind", ["ls", "logistic"])
@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_nonfinite_start_point_is_refused_before_any_evaluation(solver, loss_kind, bad):
    # a least-squares solve evaluated X @ w0 first, where inf * 0 warns
    # "invalid value encountered in matmul", and only then refused the
    # objective with FloatingPointError
    task = "regression" if loss_kind == "ls" else "classification"
    data, _ = synth_generate(SyntheticSpec(n=60, p=12, sparsity=3, noise_sd=0.2, seed=1,
                                           task=task))
    loss = LeastSquaresLoss(data) if loss_kind == "ls" else LogisticLoss(data)
    pen = ScadPenalty(lam=0.2, theta=3.7)
    calls = [count_calls(loss, name) for name in ("value_and_grad", "value", "gradient")]
    w0 = np.zeros(12)
    w0[5] = bad
    with pytest.raises(ValueError, match="^w0 must be finite"):
        if solver == "mm":
            run_mm(ProblemInstance(loss=loss, penalty=pen), MmConfig(), w0)
        else:
            ridge = 0.0 if loss_kind == "ls" else 0.1
            run_cccp(dc_problem_from_penalty(loss, pen, ridge=ridge), CccpConfig(), w0)
    assert calls == [[0]] * 3


def test_infinite_start_entry_clamped_by_the_box_is_a_legal_start():
    # the point CCCP evaluates first is the projection of w0 onto the box
    loss = full_rank_ls(seed=31, n=40, p=10)
    prob = dc_problem_from_penalty(loss, ScadPenalty(lam=0.2, theta=3.7), box=(-1.0, 1.0))
    w0 = np.zeros(10)
    w0[3], w0[7] = np.inf, -np.inf
    trace = run_cccp(prob, CccpConfig(), w0=w0)
    assert trace.iterates[0][3] == 1.0 and trace.iterates[0][7] == -1.0
    assert trace.converged and certify(trace).passed


def test_inner_start_point_of_the_wrong_length_is_refused():
    # numpy refused it, with a broadcasting error
    loss = full_rank_ls(seed=31, n=40, p=6)
    prob = dc_problem_from_penalty(loss, ScadPenalty(lam=0.2, theta=3.7))
    with pytest.raises(ValueError, match="^w has length 3, expected 6$"):
        cccp_step(np.zeros(3), prob, CccpConfig())


@pytest.mark.parametrize("box", [None, (-1.0, 1.0)])
def test_box_methods_refuse_a_vector_of_the_wrong_length(box):
    # project returned p clamped copies of a length-1 vector, and feasible
    # compared it by broadcasting, True whatever p
    loss = full_rank_ls(seed=31, n=40, p=6)
    prob = dc_problem_from_penalty(loss, ScadPenalty(lam=0.2, theta=3.7), box=box)
    for method, w in ((prob.project, [5.0]), (prob.feasible, [0.0]), (prob.objective, [0.0])):
        with pytest.raises(ValueError, match="^w has length 1, expected 6$"):
            method(np.array(w))
    assert prob.feasible(np.zeros(6)) and prob.project(np.zeros((6, 1))).shape == (6,)


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
    # F includes the box's indicator
    outside = trace.final_w.copy()
    outside[0] = 0.6
    assert prob.objective(outside) == np.inf


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
    # at ridge 0 inside the box F is f + r with r the penalty's support sum,
    # so the same bits as run_mm's objective
    loss = full_rank_ls(seed=10)
    rng = np.random.default_rng(11)
    for pen in (McpPenalty(lam=0.4, gamma=2.5), ScadPenalty(lam=0.4, theta=3.7),
                LogPenalty(lam=0.4, theta=2.0)):
        dc = dc_problem_from_penalty(loss, pen, box=(-3.0, 3.0))
        mm = ProblemInstance(loss=loss, penalty=pen)
        for _ in range(40):
            # zeros, and magnitudes past the flat regions at |t| = 1 and 1.48
            w = rng.uniform(-3.0, 3.0, size=loss.data.p) * (rng.random(loss.data.p) < 0.7)
            assert dc.objective(w) == mm.objective(w)


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
