import functools
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nonconvex_mm import (
    CappedL1Penalty,
    CccpConfig,
    Dataset,
    IterateTrace,
    LeastSquaresLoss,
    LogEpsilonPenalty,
    LogisticLoss,
    McpPenalty,
    MmConfig,
    ProblemInstance,
    SyntheticSpec,
    UnsupportedPenaltyError,
    certify,
    dc_problem_from_penalty,
    finite_length,
    kkt_residual,
    make_penalty,
    rate_fit,
    run_cccp,
    run_mm,
    step_a,
    step_b,
    subgradient_residual,
    synth_generate,
)
from nonconvex_mm.diagnostics import _interval_distance, _linfit, _norm


def logistic_problem(lam=0.2, eps=1.0, seed=42):
    spec = SyntheticSpec(n=100, p=20, sparsity=4, noise_sd=0.5, seed=seed,
                         task="classification")
    data, _ = synth_generate(spec)
    return ProblemInstance(loss=LogisticLoss(data),
                           penalty=LogEpsilonPenalty(lam=lam, eps=eps))


def trace_from_iterates(iterates):
    tr = IterateTrace(iterates=[np.atleast_1d(np.asarray(w, dtype=float))
                                for w in iterates])
    n = len(iterates)
    tr.iters = list(range(n))
    tr.objective = [0.0] * n
    tr.step_norm = [0.0] + [
        float(np.linalg.norm(tr.iterates[k] - tr.iterates[k - 1])) for k in range(1, n)
    ]
    tr.residual = [0.0] * n
    tr.elapsed_sec = [0.0] * n
    tr.final_w = tr.iterates[-1]
    tr.converged = True
    return tr


_SHAPES = {"log": {"theta": 2.0}, "log_eps": {"eps": 0.5}, "scad": {"theta": 3.7},
           "mcp": {"gamma": 2.5}, "capped_l1": {"theta": 0.8}}


@functools.cache
def _loss(kind):
    if kind == "logistic":
        return logistic_problem().loss
    data, _ = synth_generate(SyntheticSpec(n=40, p=12, sparsity=3, noise_sd=0.3, seed=3))
    return LeastSquaresLoss(data)


# -------------------------------------------------------- subgradient report
@settings(max_examples=120, deadline=None, derandomize=True)
@given(loss_kind=st.sampled_from(["ls", "logistic"]), scheme=st.sampled_from(["a", "b"]),
       kind=st.sampled_from(sorted(_SHAPES)), lam=st.floats(-3, 1).map(lambda e: 10.0 ** e),
       mu_factor=st.floats(-1, 1).map(lambda e: 10.0 ** e),
       scale=st.floats(-3, 2).map(lambda e: 10.0 ** e), zero_share=st.floats(0, 1),
       seed=st.integers(0, 2**32 - 1))
def test_certified_subgradient_dominates_kkt(loss_kind, scheme, kind, lam, mu_factor,
                                             scale, zero_share, seed):
    # B is a member of the subdifferential at the MM step's output, so its
    # norm is at least the distance from 0 to that subdifferential
    assume(not (scheme == "b" and kind == "capped_l1"))
    loss = _loss(loss_kind)
    prob = ProblemInstance(loss=loss, penalty=make_penalty(kind, lam, **_SHAPES[kind]))
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(prob.p) * scale
    w[rng.random(prob.p) < zero_share] = 0.0
    mu = mu_factor * loss.lipschitz
    w_next = (step_a if scheme == "a" else step_b)(w, prob, mu)
    rep = subgradient_residual(w_next, w, prob, mu, scheme)
    kkt = kkt_residual(w_next, prob)
    assert rep.kkt == kkt
    assert rep.B_norm >= kkt - 1e-10 * (1.0 + kkt)



def test_fixed_point_gives_zero_certificate():
    prob = logistic_problem()
    w = np.zeros(prob.p)
    for scheme in ("a", "b"):
        rep = subgradient_residual(w, w, prob, 2.0, scheme)
        assert rep.B_norm == 0.0
        np.testing.assert_array_equal(rep.b_vector, np.zeros(prob.p))
        assert rep.bound == 0.0


def test_matched_curvature_gives_zero_A():
    # scalar least squares: H = 1, so A = (H - mu) * delta vanishes at mu = 1
    loss = LeastSquaresLoss(Dataset(X=np.array([[1.0]]), y=np.array([0.3]),
                                    task="regression"))
    prob = ProblemInstance(loss=loss, penalty=McpPenalty(lam=0.2, gamma=2.0))
    rep = subgradient_residual(np.array([1.7]), np.array([-0.4]), prob, 1.0, "a")
    assert rep.B_norm <= 1e-14


def test_residual_bounds_on_random_mm_steps():
    prob = logistic_problem()
    mu = 1.01 * prob.loss.lipschitz
    rng = np.random.default_rng(0)
    for _ in range(100):
        w = rng.normal(size=prob.p) * rng.uniform(0.1, 2.0)
        w[rng.random(prob.p) < 0.25] = 0.0
        for scheme, stepper in (("a", step_a), ("b", step_b)):
            w_next = stepper(w, prob, mu)
            rep = subgradient_residual(w_next, w, prob, mu, scheme)
            assert rep.B_norm <= rep.bound + 1e-8
            # one certified member always upper-bounds the set distance
            assert rep.kkt <= rep.B_norm + 1e-8


def test_scheme_b_bound_includes_penalty_curvature():
    prob = logistic_problem()
    mu = 1.01 * prob.loss.lipschitz
    w = np.full(prob.p, 0.5)
    w_next = step_b(w, prob, mu)
    rep = subgradient_residual(w_next, w, prob, mu, "b")
    lf = prob.loss.lipschitz
    lz = prob.penalty.deriv_lipschitz()
    step = float(np.linalg.norm(w_next - w))
    assert rep.bound == pytest.approx((mu + lf + lz) * step, rel=1e-12)
    rep_a = subgradient_residual(w_next, w, prob, mu, "a")
    assert rep_a.bound == pytest.approx((mu + lf) * step, rel=1e-12)


def test_scheme_b_rejected_for_capped():
    data, _ = synth_generate(SyntheticSpec(n=20, p=5, sparsity=2, seed=1,
                                           task="classification"))
    prob = ProblemInstance(loss=LogisticLoss(data),
                           penalty=CappedL1Penalty(lam=0.3, theta=1.0))
    # the refusal of step_b and run_mm: the certificate shares their check
    with pytest.raises(UnsupportedPenaltyError,
                       match="^capped_l1 penalty cannot be linearized; use scheme 'a'$"):
        subgradient_residual(np.zeros(5), np.zeros(5), prob, 1.0, "b")
    with pytest.raises(ValueError, match="^scheme must be 'a' or 'b'$"):
        subgradient_residual(np.zeros(5), np.zeros(5), prob, 1.0, "c")


@pytest.mark.parametrize("scheme", ["a", "b"])
@pytest.mark.parametrize("length", [3, 1])
def test_certificate_refuses_an_iterate_of_the_wrong_length(length, scheme):
    # length 3 cannot be broadcast against p = 5, and length 1 can: each is
    # refused by the name of the argument that is wrong
    data, _ = synth_generate(SyntheticSpec(n=20, p=5, sparsity=2, seed=1,
                                           task="classification"))
    prob = ProblemInstance(loss=LogisticLoss(data), penalty=LogEpsilonPenalty(lam=0.3, eps=1.0))
    with pytest.raises(ValueError, match=f"^w_next has length {length}, expected 5$"):
        subgradient_residual(np.full(length, 0.1), np.zeros(5), prob, 1.0, scheme)
    with pytest.raises(ValueError, match=f"^w has length {length}, expected 5$"):
        subgradient_residual(np.full(5, 0.1), np.zeros(length), prob, 1.0, scheme)


@pytest.mark.parametrize("scheme", ["a", "b"])
def test_certificate_bound_is_the_bound_the_run_certifies(scheme):
    # the constant run_mm writes and the bound subgradient_residual reports
    # come from one definition: they agree bit for bit on every step
    prob = logistic_problem()
    trace = run_mm(prob, MmConfig(scheme=scheme, max_iter=60, tol=0.0))
    W, meta = trace.iterates, trace.meta
    assert trace.num_steps() == 60 and sum(b > 0 for b in trace.beta[1:]) > 0
    for k in range(trace.num_steps()):
        rep = subgradient_residual(W[k + 1], W[k], prob, meta["mu"], scheme)
        assert rep.bound == meta["residual_lipschitz"] * trace.step_norm[k + 1]


@pytest.mark.parametrize("scheme", ["a", "b"])
@pytest.mark.parametrize("mu", [0.0, -1.0, np.inf, np.nan])
def test_certificate_refuses_a_weight_no_step_can_use(mu, scheme):
    # step_a, step_b and quad_surrogate_value refuse such a mu too: a
    # certificate at it would certify no step
    prob = logistic_problem()
    w_next = np.full(prob.p, 0.1)
    with pytest.raises(ValueError, match="^mu must be positive and finite, got "):
        subgradient_residual(w_next, np.zeros(prob.p), prob, mu, scheme)


# ------------------------------------------------------------- kkt residual
def test_origin_critical_when_gradient_inside_interval():
    prob = logistic_problem(lam=5.0, eps=1.0)  # zeta'(0) = 5 >> |grad|
    assert kkt_residual(np.zeros(prob.p), prob) == 0.0


def test_unpenalized_minimizer_with_flat_tail_penalty():
    # at the least-squares solution all |w_i| sit beyond lam*gamma, where the
    # MCP derivative is exactly zero, so the kkt residual vanishes
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 4))
    w_true = np.array([1.5, -2.0, 1.0, 2.5])
    y = X @ w_true
    loss = LeastSquaresLoss(Dataset(X=X, y=y, task="regression"))
    prob = ProblemInstance(loss=loss, penalty=McpPenalty(lam=0.01, gamma=2.0))
    assert kkt_residual(w_true, prob) <= 1e-12


def test_converged_run_has_small_kkt():
    prob = logistic_problem()
    trace = run_mm(prob, MmConfig(scheme="a", max_iter=5000, tol=1e-10))
    assert trace.converged
    assert kkt_residual(trace.final_w, prob) <= 1e-6


def test_kkt_capped_l1_interval_hull_at_kink():
    data, _ = synth_generate(SyntheticSpec(n=20, p=2, sparsity=1, seed=3,
                                           task="classification"))
    pen = CappedL1Penalty(lam=0.5, theta=1.0)
    prob = ProblemInstance(loss=LogisticLoss(data), penalty=pen)
    w = np.array([1.0, 0.0])  # first coordinate exactly at the kink
    g = prob.loss.gradient(w)
    d0 = np.maximum(0.0, np.maximum(g[0] + 0.0, -(g[0] + 0.5)))
    d1 = max(0.0, abs(g[1]) - 0.5)
    assert kkt_residual(w, prob) == pytest.approx(float(np.hypot(d0, d1)), rel=1e-12)


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e150, 1e300])
def test_norm_is_numpy_norm_where_finite_and_rescaled_past_overflow(scale):
    x = np.random.default_rng(7).normal(size=50) * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        n = _norm(x)
    if scale <= 1.0:
        assert n == float(np.linalg.norm(x))
    else:
        assert n == pytest.approx(scale * float(np.linalg.norm(x / scale)), rel=1e-14)
    assert _norm(np.array([np.inf, 1.0])) == np.inf
    assert np.isnan(_norm(np.array([np.nan, 1e200])))
    # the exact residual projects -g onto [lo, hi]: bit for bit the norm of
    # the componentwise max(0, g + lo, -(g + hi)), at infinite bounds, signed
    # zeros, NaN and entries near overflow too
    rng = np.random.default_rng(11)
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.7e308, -1.7e308])
    for _ in range(500):
        g, a, b = np.where(rng.random((3, 6)) < 0.4, rng.choice(edges, (3, 6)),
                           rng.normal(size=(3, 6)) * scale)
        lo, hi = np.fmin(a, b), np.fmax(a, b)
        with np.errstate(invalid="ignore", over="ignore"):
            got = _interval_distance(g, lo, hi)
            want = _norm(np.maximum(0.0, np.maximum(g + lo, -(g + hi))))
        assert repr(got) == repr(want)


def test_certificates_stay_finite_where_the_sum_of_squares_overflows():
    # rows from 1e100 to 1e114 and targets near 1e114: the gradient's
    # entries near 1e227 square past double range, its norm does not
    rng = np.random.default_rng(3)
    n, p = 12, 5
    X = rng.normal(size=(n, p)) * np.logspace(100, 114, n)[:, None]
    y = rng.normal(size=n) * 1e114
    prob = ProblemInstance(loss=LeastSquaresLoss(Dataset(X=X, y=y, task="regression")),
                           penalty=make_penalty("scad", 0.1, theta=3.7))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run_mm(prob, MmConfig(max_iter=5, record_iterates=False))
        kkt = kkt_residual(trace.final_w, prob)
    # at w = 0 the residual is || |X^T y / n| - lam ||, lam negligible here
    g0 = X.T @ (y / 1e114) / n
    assert trace.residual[0] == pytest.approx(1e114 * float(np.linalg.norm(g0)), rel=1e-12)
    assert np.all(np.isfinite(trace.residual)) and np.all(np.isfinite(trace.step_norm))
    assert trace.meta["kkt"] == kkt and np.isfinite(kkt)


# ------------------------------------------------------------ finite length
def test_finite_length_single_step():
    tr = trace_from_iterates([np.array([1.0, 0.0]), np.array([0.0, 0.0])])
    total, tail = finite_length(tr)
    assert total == pytest.approx(1.0)
    assert tail == 0.0


def test_finite_length_definitional_total():
    rng = np.random.default_rng(2)
    iterates = [rng.normal(size=3) for _ in range(11)]
    tr = trace_from_iterates(iterates)
    total, tail = finite_length(tr)
    assert total == pytest.approx(sum(tr.step_norm))
    assert tail <= total


def test_finite_length_empty_trace_rejected():
    with pytest.raises(ValueError):
        finite_length(IterateTrace())


def test_converged_run_tail_is_small():
    prob = logistic_problem()
    trace = run_mm(prob, MmConfig(scheme="b", max_iter=5000, tol=1e-12))
    assert trace.converged
    total, tail = finite_length(trace)
    assert tail <= 1e-4 * max(total, 1.0)


def test_residual_envelope_shrinks_on_converged_run():
    prob = logistic_problem()
    trace = run_mm(prob, MmConfig(scheme="b", max_iter=5000, tol=1e-12))
    res = np.asarray(trace.residual[1:])
    half = len(res) // 2
    assert res[half:].max() < res[:half].max()
    assert res[-1] <= 1e-6


# ---------------------------------------------------------------- certify
def guarded_trace(objective, step_norm, residual, gamma=1.0, lipschitz=2.0):
    """Hand-built trace carrying an MM-style guarantee in its meta."""
    tr = IterateTrace()
    for k, row in enumerate(zip(objective, step_norm, residual)):
        tr.append(k, *row, 0.0)
    tr.meta = {"gamma": gamma, "residual_lipschitz": lipschitz, "descent_slack": 0.0,
               "descent_tol": 1e-9, "bound_tol": 1e-8}
    return tr


def test_certify_passes_a_valid_hand_built_trace():
    # drops 1.0 and 0.5 against required 0.5 * 1 * 1 and 0.5 * 1 * 0.25
    cert = certify(guarded_trace([3.0, 2.0, 1.5], [0.0, 1.0, 0.5], [0.0, 1.5, 1.0]))
    assert cert.passed and cert.failures == ()
    assert cert.worst_descent == pytest.approx(0.375)
    assert cert.worst_bound == pytest.approx(0.0)
    assert cert.kkt is None and cert.rate is None
    assert (cert.length, cert.tail) == (1.5, 0.5)


def test_certify_catches_insufficient_descent():
    cert = certify(guarded_trace([3.0, 2.9], [0.0, 1.0], [0.0, 1.0]))
    assert not cert.passed
    assert cert.worst_descent == pytest.approx(-0.4)
    assert cert.failures == ("descent: step 1 margin -4.000e-01 < -1.000e-09",)


def test_certify_names_the_first_step_that_broke_the_rule():
    # step 1's margin -1e-6 is the worst, but inside its allowance 1e-5 * 1
    # + 1e-12; step 2's -1e-11 misses its allowance 1e-5 * 1e-9 + 1e-12
    trace = guarded_trace([3.0, 3.0 + 1e-6, 3.0 + 1e-6 + 1e-11], [0.0, 1.0, 1e-9],
                          [0.0, 0.0, 0.0], gamma=1e-30)
    trace.meta.update(descent_slack=1e-5, descent_tol=1e-12)
    cert = certify(trace)
    assert cert.failures == ("descent: step 2 margin -1.000e-11 < -1.010e-12",)
    assert cert.worst_descent == pytest.approx(-1e-6)


def test_certify_reads_the_descent_margin_in_the_safeguards_arithmetic():
    # (F_k - (gamma/2)||Delta||^2) - F_{k+1}: 1.0 - 5e-20 rounds to 1.0, so
    # no decrease is asked for below the rounding of F; F_k - F_{k+1} - 5e-20
    # read -5e-20
    cert = certify(guarded_trace([1.0, 1.0], [0.0, 1e-9], [0.0, 0.0], gamma=0.1))
    assert cert.worst_descent == 0.0 and cert.passed


def test_a_step_the_safeguard_accepted_reads_no_negative_descent_margin():
    # the logistic-dense benchmark's pool instance 2: its extrapolated step 41
    # passed the safeguard F_41 <= F_40 - (gamma/2)||Delta||^2, and read a
    # margin of -2.8e-17 where certify formed F_40 - F_41 - (gamma/2)||Delta||^2
    data, _ = synth_generate(SyntheticSpec(n=500, p=100, sparsity=10, noise_sd=0.5, seed=2,
                                           task="classification"))
    prob = ProblemInstance(loss=LogisticLoss(data),
                           penalty=make_penalty("log_eps", lam=0.1, eps=1.0))
    trace = run_mm(prob, MmConfig(scheme="b", tol=1e-8, max_iter=200_000))
    extrapolated = [k for k in range(1, len(trace)) if trace.beta[k] > 0]
    assert 41 in extrapolated
    for k in extrapolated:
        step = guarded_trace(trace.objective[k - 1:k + 1], [0.0, trace.step_norm[k]],
                             [0.0, 0.0], gamma=trace.meta["gamma"])
        assert certify(step).worst_descent >= 0.0


def test_certify_catches_violated_residual_bound():
    cert = certify(guarded_trace([3.0, 2.0], [0.0, 1.0], [0.0, 2.5]))
    assert not cert.passed
    assert cert.worst_bound == pytest.approx(-0.5)
    assert cert.failures == ("subgradient bound: step 1 margin -5.000e-01 < -1.000e-08",)


@pytest.mark.parametrize("field, index, failed", [
    ("objective", 2, ["descent"]),
    ("residual", 1, ["subgradient bound"]),
    ("residual", 2, ["subgradient bound", "kkt residual", "stopped on tol"]),
    ("inner_residuals", 1, ["kkt residual", "stopped on tol"]),
    ("kkt", None, ["kkt residual"]),
])
def test_certify_fails_a_nan(field, index, failed):
    # each test passes only on a number inside its bound: a NaN margin,
    # residual, inner residual or kkt fails the trace
    trace = guarded_trace([3.0, 2.0, 1.5], [0.0, 1.0, 0.5], [0.0, 1.5, 1.0])
    trace.meta.update(kkt=0.5, inner_residuals=[0.0, 0.0], stop_reason="tol", tol=2.0)
    assert certify(trace).passed
    if index is None:
        trace.meta[field] = np.nan
    else:
        column = trace.meta[field] if field == "inner_residuals" else getattr(trace, field)
        column[index] = np.nan
    names = ("descent", "subgradient bound", "kkt residual", "stopped on tol")
    got = [next(n for n in names if f.startswith(n)) for f in certify(trace).failures]
    assert got == failed


def test_certify_judges_a_cccp_trace_without_steps():
    # a CCCP run whose first step is not finite records the start row only
    trace = guarded_trace([3.0], [0.0], [0.0])
    trace.meta.update(kkt=0.5, inner_residuals=[], stop_reason="nonfinite", tol=1e-8)
    assert certify(trace).passed


def test_certify_single_row_trace_is_vacuous():
    cert = certify(guarded_trace([3.0], [0.0], [0.7]))
    assert cert.passed
    assert cert.worst_descent == 0.0 and cert.worst_bound == 0.0


def test_certify_mm_run_agrees_with_its_checks():
    prob = logistic_problem()
    trace = run_mm(prob, MmConfig(scheme="b", max_iter=5000, tol=1e-10))
    cert = certify(trace)
    assert cert.passed and trace.meta["stop_reason"] == "tol"
    assert cert.kkt == kkt_residual(trace.final_w, prob)
    assert cert.rate is not None


def test_certify_fails_a_tol_stop_above_its_tolerance():
    # "tol" promises that the certified residual the stop rule tested, plus
    # for CCCP the last inner residual, is at most meta["tol"]
    trace = run_mm(logistic_problem(), MmConfig(scheme="b", max_iter=5000, tol=1e-10))
    assert trace.meta["stop_reason"] == "tol" and certify(trace).passed
    trace.meta["tol"] = 0.5 * trace.residual[-1]
    assert [f.split(" at ")[0] for f in certify(trace).failures] == ["stopped on tol"]
    prob = dc_problem_from_penalty(_loss("ls"), McpPenalty(lam=0.1, gamma=3.0),
                                   box=(-1.0, 1.0))
    trace = run_cccp(prob, CccpConfig(tol=1e-8, inner_tol=1e-10))
    assert trace.meta["stop_reason"] == "tol" and certify(trace).passed
    trace.meta["inner_residuals"][-1] = 2e-8
    assert [f.split(" at ")[0] for f in certify(trace).failures] == ["stopped on tol"]
    trace.meta["stop_reason"] = "budget"
    assert certify(trace).passed


def test_certify_checks_a_cccp_kkt_against_the_bound_its_stop_rule_uses():
    # run_cccp certifies kkt <= gap + last inner residual.  Here the last
    # gap is 0 and kkt is about the inner residual, so a check against the
    # gap alone would fail a valid trace
    data, _ = synth_generate(SyntheticSpec(n=80, p=15, sparsity=4, noise_sd=0.3, seed=3,
                                           task="classification"))
    prob = dc_problem_from_penalty(LogisticLoss(data), McpPenalty(lam=0.1, gamma=3.0),
                                   ridge=0.05)
    trace = run_cccp(prob, CccpConfig(tol=1e-4, inner_tol=1e-6))
    assert trace.meta["stop_reason"] == "tol" and trace.num_steps() == 4
    assert trace.residual[-1] < trace.meta["kkt"] <= trace.meta["inner_residuals"][-1]
    assert certify(trace).passed
    stopped = trace.residual[-1] + trace.meta["inner_residuals"][-1]
    trace.meta["kkt"] = stopped + 2e-8
    assert [f.split(" exceeds ")[0] for f in certify(trace).failures] == [
        f"kkt residual {stopped + 2e-8:.3e}"]


def test_certify_reports_majorization_failure_for_small_rho():
    prob = logistic_problem()
    with pytest.warns(UserWarning):
        trace = run_mm(prob, MmConfig(scheme="a", rho=0.5, max_iter=50))
    cert = certify(trace)
    assert not cert.passed
    assert cert.gamma == pytest.approx(-0.5 * prob.loss.lipschitz)
    assert cert.failures[0].startswith("majorization: mu=")
    assert trace.meta["stop_reason"] == "budget"


# ----------------------------------------------------------------- rate fit
def test_rate_fit_exact_geometric():
    iterates = [np.array([0.5**k]) for k in range(60)] + [np.array([0.0])]
    fit = rate_fit(trace_from_iterates(iterates))
    assert fit.regime == "linear"
    assert fit.rate_constant == pytest.approx(0.5, abs=1e-6)
    assert fit.fit_quality >= 0.999


def test_rate_fit_exact_polynomial():
    iterates = [np.array([2.0])] + [np.array([1.0 / k]) for k in range(1, 61)] \
        + [np.array([0.0])]
    fit = rate_fit(trace_from_iterates(iterates))
    assert fit.regime == "sublinear"
    assert abs(fit.rate_constant - 1.0) <= 0.05


def test_rate_fit_finite_regime():
    iterates = [np.array([max(1.0 - 0.1 * k, 0.0)]) for k in range(40)]
    fit = rate_fit(trace_from_iterates(iterates))
    assert fit.regime == "finite"
    assert fit.rate_constant == 0.0


def test_rate_fit_short_trace_undetermined():
    iterates = [np.array([0.5**k]) for k in range(10)]
    fit = rate_fit(trace_from_iterates(iterates))
    assert fit.regime == "undetermined"
    # a single iterate has no error to fit
    fit = rate_fit(trace_from_iterates([np.array([1.0])]))
    assert fit.regime == "undetermined" and fit.fit_quality == 0.0


def test_rate_fit_of_a_constant_error_tail_is_undetermined():
    # iterates cycle on the unit circle around w* = 0, so every error is 1
    # exactly: log e has no variance, and neither model explains any of it
    assert _linfit(np.arange(5.0), np.zeros(5))[2] == 0.0
    corners = [np.array(c) for c in ([1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0])]
    trace = trace_from_iterates([corners[k % 4] for k in range(40)] + [np.zeros(2)])
    fit = rate_fit(trace)
    assert fit.regime == "undetermined" and fit.fit_quality == 0.0


def test_rate_fit_requires_iterates():
    tr = IterateTrace()
    tr.iters = [0]
    with pytest.raises(ValueError):
        rate_fit(tr)


def test_rate_fit_on_strongly_convex_mcp_run():
    spec = SyntheticSpec(n=100, p=20, sparsity=5, noise_sd=0.2, seed=7,
                         task="regression")
    data, _ = synth_generate(spec)
    prob = ProblemInstance(loss=LeastSquaresLoss(data),
                           penalty=McpPenalty(lam=0.2, gamma=3.0))
    trace = run_mm(prob, MmConfig(scheme="a", max_iter=3000, tol=1e-12))
    assert trace.converged
    fit = rate_fit(trace)
    assert fit.regime == "linear"
    assert 0.0 < fit.rate_constant < 1.0
    assert fit.fit_quality >= 0.9
