"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion; any assertion failure marks the criterion as failed.
"""

import os
import time

import numpy as np
import pytest

from nonconvex_mm import (
    CappedL1Penalty,
    CccpConfig,
    IterateTrace,
    LeastSquaresLoss,
    LogEpsilonPenalty,
    LogPenalty,
    LogisticLoss,
    McpPenalty,
    MmConfig,
    ProblemInstance,
    ScadPenalty,
    SyntheticSpec,
    certify,
    dc_problem_from_penalty,
    finite_length,
    kkt_residual,
    linearized_penalty_value,
    quad_surrogate_value,
    rate_fit,
    read_libsvm,
    run_cccp,
    run_mm,
    step_b,
    subgradient_residual,
    synth_generate,
    write_libsvm,
    write_trace,
)
from nonconvex_mm.cli import main as cli_main

from helpers import read_csv_columns, soft_threshold_bisect, zeta_reference

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "tiny.libsvm")


def report(criterion: int, detail: str) -> None:
    print(f"criterion {criterion:2d} PASS: {detail}")


def make_penalty(kind, rng):
    lam = float(rng.uniform(0.05, 0.3))
    if kind == "log":
        return LogPenalty(lam=lam, theta=float(rng.uniform(0.5, 3.0)))
    if kind == "scad":
        return ScadPenalty(lam=lam, theta=float(rng.uniform(2.5, 4.0)))
    return McpPenalty(lam=lam, gamma=float(rng.uniform(1.5, 4.0)))


def make_problem(i, rng):
    loss_kind = ("ls", "logistic")[i % 2]
    pen_kind = ("log", "scad", "mcp")[i % 3]
    n = int(rng.integers(50, 301))
    p = int(rng.integers(10, 101))
    spec = SyntheticSpec(
        n=n, p=p, sparsity=int(rng.integers(1, max(2, p // 5))),
        noise_sd=float(rng.uniform(0.1, 0.8)), seed=int(rng.integers(0, 2**31)),
        task="regression" if loss_kind == "ls" else "classification",
    )
    data, _ = synth_generate(spec)
    loss = LeastSquaresLoss(data) if loss_kind == "ls" else LogisticLoss(data)
    return ProblemInstance(loss=loss, penalty=make_penalty(pen_kind, rng))


@pytest.fixture(scope="module")
def descent_suite():
    """20 randomized problems, both schemes each, shared by criteria 1 and 4."""
    rng = np.random.default_rng(2024)
    runs = []
    t0 = time.perf_counter()
    for i in range(20):
        prob = make_problem(i, rng)
        for scheme in ("a", "b"):
            cfg = MmConfig(scheme=scheme, rho=1.01, max_iter=250, tol=1e-9)
            trace = run_mm(prob, cfg)
            runs.append((prob, scheme, trace))
    return runs, time.perf_counter() - t0


def test_criterion_1_descent(descent_suite):
    runs, elapsed = descent_suite
    worst = np.inf
    total_steps = 0
    for prob, scheme, trace in runs:
        gamma = trace.meta["mu"] - trace.meta["lipschitz"]
        drops = -np.diff(trace.objective)
        steps = np.asarray(trace.step_norm[1:])
        margins = drops - 0.5 * gamma * steps**2
        assert np.all(margins >= -1e-9)
        worst = min(worst, float(margins.min(initial=np.inf)))
        total_steps += steps.size
    assert elapsed < 60.0
    report(1, f"descent held on {total_steps} steps across 40 runs "
              f"(worst margin {worst:.2e}, {elapsed:.1f} s)")


def test_criterion_2_majorization():
    rng = np.random.default_rng(7)
    n_samples = 10_000
    worst_f, worst_r = np.inf, np.inf
    for task, loss_cls in (("regression", LeastSquaresLoss),
                           ("classification", LogisticLoss)):
        spec = SyntheticSpec(n=80, p=25, sparsity=5, noise_sd=0.4, seed=11, task=task)
        data, _ = synth_generate(spec)
        loss = loss_cls(data)
        mu = 1.01 * loss.lipschitz
        for _ in range(n_samples):
            anchor = rng.normal(size=25) * rng.uniform(0.2, 2.0)
            w = rng.normal(size=25) * rng.uniform(0.2, 3.0)
            gap = quad_surrogate_value(w, anchor, mu, loss) - loss.value(w)
            assert gap >= -1e-10
            worst_f = min(worst_f, gap)
        anchor = rng.normal(size=25)
        assert abs(quad_surrogate_value(anchor, anchor, mu, loss)
                   - loss.value(anchor)) <= 1e-10
    penalties = [LogPenalty(lam=0.3, theta=1.5), ScadPenalty(lam=0.3, theta=3.7),
                 McpPenalty(lam=0.3, gamma=2.5)]
    for pen in penalties:
        W = rng.normal(size=(n_samples, 25)) * 3
        A = rng.normal(size=(n_samples, 25)) * 2
        aa = np.abs(A)
        qr = np.sum(pen.value(aa) + pen.deriv(aa) * (np.abs(W) - aa), axis=1)
        rr = np.sum(pen.value(np.abs(W)), axis=1)
        gaps = qr - rr
        assert np.all(gaps >= -1e-10)
        worst_r = min(worst_r, float(gaps.min()))
        anchor = rng.normal(size=25)
        assert abs(linearized_penalty_value(anchor, anchor, pen)
                   - pen.reg_value(anchor)) <= 1e-10
    report(2, f"Q_f and Q_r majorize on 10^4 random (w, anchor) pairs/config "
              f"(worst gaps {worst_f:.2e}, {worst_r:.2e})")


def test_criterion_3_prox_oracle():
    cases = [
        ("log", LogPenalty(lam=0.4, theta=1.2), {"lam": 0.4, "theta": 1.2}),
        ("log_eps", LogEpsilonPenalty(lam=0.4, eps=0.3), {"lam": 0.4, "eps": 0.3}),
        ("scad", ScadPenalty(lam=0.4, theta=3.7), {"lam": 0.4, "theta": 3.7}),
        ("mcp", McpPenalty(lam=0.4, gamma=2.0), {"lam": 0.4, "gamma": 2.0}),
        ("capped_l1", CappedL1Penalty(lam=0.4, theta=1.0), {"lam": 0.4, "theta": 1.0}),
    ]
    rng = np.random.default_rng(13)
    t0 = time.perf_counter()
    checked = 0
    for kind, pen, params in cases:
        for _ in range(1000):
            u = float(rng.uniform(-2.0, 2.0))
            alpha = float(rng.uniform(0.05, 2.5))
            out = pen.prox(u, alpha)
            obj = (out - u) ** 2 / (2 * alpha) + pen.value(abs(out))
            hi = abs(u) + 1.0
            grid = np.arange(-hi, hi + 5e-5, 1e-4)
            gobj = (grid - u) ** 2 / (2 * alpha) + zeta_reference(kind, grid, **params)
            assert obj <= float(gobj.min()) + 1e-6
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(3, f"{checked} prox calls beat step-1e-4 grid search ({elapsed:.1f} s)")


def test_criterion_4_subgradient_bounds(descent_suite):
    runs, _ = descent_suite
    checked = 0
    for prob, scheme, trace in runs:
        mu = trace.meta["mu"]
        lf = trace.meta["lipschitz"]
        lz = prob.penalty.deriv_lipschitz()
        W = trace.iterates
        for k in range(len(W) - 1):
            rep = subgradient_residual(W[k + 1], W[k], prob, mu, scheme)
            step = float(np.linalg.norm(W[k + 1] - W[k]))
            assert rep.B_norm <= (mu + lf + lz) * step + 1e-8
            assert rep.kkt <= rep.B_norm + 1e-8
            checked += 1
    report(4, f"subgradient bound and kkt certificate held on {checked} MM steps")


@pytest.fixture(scope="module")
def criterion5_runs():
    spec = SyntheticSpec(n=200, p=50, sparsity=5, noise_sd=0.5, seed=42,
                         task="classification")
    data, _ = synth_generate(spec)
    prob = ProblemInstance(loss=LogisticLoss(data),
                           penalty=LogEpsilonPenalty(lam=0.2, eps=1.0))
    out = {}
    for scheme in ("a", "b"):
        t0 = time.perf_counter()
        trace = run_mm(prob, MmConfig(scheme=scheme, rho=1.01, max_iter=5000,
                                      tol=1e-12))
        out[scheme] = (trace, time.perf_counter() - t0)
    return prob, out


def test_criterion_5_convergence_and_criticality(criterion5_runs):
    prob, runs = criterion5_runs
    details = []
    for scheme, (trace, elapsed) in runs.items():
        assert trace.num_steps() <= 5000
        kkt = kkt_residual(trace.final_w, prob)
        assert kkt < 1e-6
        _, tail = finite_length(trace)
        assert tail <= 1e-4
        assert elapsed < 10.0
        details.append(f"{scheme}: {trace.num_steps()} iters, kkt {kkt:.1e}, "
                       f"tail {tail:.1e}, {elapsed:.1f} s")
    report(5, "; ".join(details))


def test_criterion_6_cross_scheme_agreement(criterion5_runs):
    _, runs = criterion5_runs
    fa = runs["a"][0].final_objective
    fb = runs["b"][0].final_objective
    gap = abs(fa - fb)
    assert gap <= 1e-4 * (1.0 + abs(fa))
    report(6, f"|F_a - F_b| = {gap:.2e} <= 1e-4 * (1 + |F_a|)")


def test_criterion_7_reweighted_l1_identity():
    spec = SyntheticSpec(n=120, p=30, sparsity=5, noise_sd=0.5, seed=3,
                         task="classification")
    data, _ = synth_generate(spec)
    lam, eps = 0.15, 0.4
    prob = ProblemInstance(loss=LogisticLoss(data),
                           penalty=LogEpsilonPenalty(lam=lam, eps=eps))
    mu = 1.01 * prob.loss.lipschitz
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        w = rng.normal(size=30) * rng.uniform(0.05, 2.0)
        w[rng.random(30) < 0.3] = 0.0
        out = step_b(w, prob, mu)
        z = w - prob.loss.gradient(w) / mu
        omega = lam / (np.abs(w) + eps)
        for i in range(30):
            ref = soft_threshold_bisect(float(z[i]), float(omega[i]), mu)
            worst = max(worst, abs(out[i] - ref))
    assert worst <= 1e-10
    report(7, f"scheme b equals per-coordinate bisection of the re-weighted-l1 "
              f"subproblem (worst gap {worst:.1e} over 100 states)")


def _trace_from_errors(errors):
    tr = IterateTrace(iterates=[np.array([e]) for e in errors] + [np.array([0.0])])
    n = len(tr.iterates)
    tr.iters = list(range(n))
    tr.objective = [0.0] * n
    tr.step_norm = [0.0] * n
    tr.residual = [0.0] * n
    tr.elapsed_sec = [0.0] * n
    tr.final_w = tr.iterates[-1]
    tr.converged = True
    return tr


def test_criterion_8_rate_regimes():
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

    geo = rate_fit(_trace_from_errors([0.5**k for k in range(60)]))
    assert geo.regime == "linear"
    assert abs(geo.rate_constant - 0.5) <= 1e-6
    poly = rate_fit(_trace_from_errors([2.0] + [1.0 / k for k in range(1, 61)]))
    assert poly.regime == "sublinear"
    assert abs(poly.rate_constant - 1.0) <= 0.05
    report(8, f"MCP run linear with rho={fit.rate_constant:.3f} "
              f"(quality {fit.fit_quality:.3f}); synthetic regimes recovered")


def test_criterion_9_cccp_suite():
    spec = SyntheticSpec(n=100, p=20, sparsity=5, noise_sd=0.3, seed=19,
                         task="regression")
    data, _ = synth_generate(spec)
    loss = LeastSquaresLoss(data)
    pen = McpPenalty(lam=0.25, gamma=3.0)
    cfg = CccpConfig(tol=1e-10, inner_tol=1e-12, max_iter=500)

    dc = dc_problem_from_penalty(loss, pen)
    trace = run_cccp(dc, cfg)
    assert trace.converged
    cert = certify(trace)
    assert cert.passed
    worst = cert.worst_descent
    lv = dc.v_lipschitz()
    for k in range(1, len(trace.iters)):
        assert trace.residual[k] <= lv * trace.step_norm[k] + 1e-10

    mm = run_mm(ProblemInstance(loss=loss, penalty=pen),
                MmConfig(scheme="a", max_iter=5000, tol=1e-12))
    gap = abs(trace.final_objective - mm.final_objective)
    assert gap <= 1e-4 * (1.0 + abs(trace.final_objective))

    boxed = dc_problem_from_penalty(loss, pen, box=(-0.5, 0.5))
    btrace = run_cccp(boxed, cfg)
    for w in btrace.iterates:
        assert np.all(w >= -0.5) and np.all(w <= 0.5)
    report(9, f"cccp descent (worst margin {worst:.2e}), residual bound, "
              f"|F_cccp - F_mm| = {gap:.2e}, box iterates feasible")


def test_criterion_10_io_contracts(tmp_path):
    # libsvm fixture round trip
    data = read_libsvm(FIXTURE)
    path = tmp_path / "echo.libsvm"
    write_libsvm(data, path)
    back = read_libsvm(path, force_p=data.p)
    np.testing.assert_array_equal(back.X.toarray(), data.X.toarray())
    np.testing.assert_array_equal(back.y, data.y)

    # trace CSV objective column nonincreasing
    spec = SyntheticSpec(n=100, p=20, sparsity=4, noise_sd=0.5, seed=5,
                         task="classification")
    d, _ = synth_generate(spec)
    prob = ProblemInstance(loss=LogisticLoss(d),
                           penalty=LogEpsilonPenalty(lam=0.2, eps=1.0))
    trace = run_mm(prob, MmConfig(scheme="b", max_iter=3000, tol=1e-10))
    csv_path = tmp_path / "trace.csv"
    write_trace(trace, "csv", csv_path)
    _, rows = read_csv_columns(csv_path)
    objs = [float(r[1]) for r in rows]
    assert all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(objs, objs[1:]))

    # identical seeds -> byte-identical outputs
    d1, _ = synth_generate(spec)
    d2, _ = synth_generate(spec)
    p1, p2 = tmp_path / "s1.libsvm", tmp_path / "s2.libsvm"
    write_libsvm(d1, p1)
    write_libsvm(d2, p2)
    assert p1.read_bytes() == p2.read_bytes()

    c1, c2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    flags = ["solve", "--n", "60", "--p", "12", "--sparsity", "3",
             "--noise-sd", "0.5", "--seed", "21", "--lambda", "0.2",
             "--epsilon", "1.0", "--tol", "1e-8", "--no-timing"]
    assert cli_main(flags + ["--out", str(c1)]) == 0
    assert cli_main(flags + ["--out", str(c2)]) == 0
    assert c1.read_bytes() == c2.read_bytes()
    report(10, "libsvm round trip exact; CSV objective nonincreasing; "
               "seeded outputs byte-identical")
