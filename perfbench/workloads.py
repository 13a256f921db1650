"""The benchmark's three workloads.

A workload is a pool of problem instances, each keyed by a data seed.
``--seed`` picks ``groups`` data seeds from the pool, so one benchmark
seed always gives the same inputs and every instance has a reference
objective in ``reference.json``.  One *group* is one data set; it is
solved once per penalty setting listed for the workload.

``setup`` is what a user pays before the first solve: generating or
reading the data, building the loss, penalty and DC problem, and the
first read of ``loss.lipschitz``.  ``solve`` is one call of ``run_mm``
or ``run_cccp``.  Both go through the library's public API only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from nonconvex_mm import (
    CccpConfig,
    LeastSquaresLoss,
    LogisticLoss,
    MmConfig,
    ProblemInstance,
    SyntheticSpec,
    dc_problem_from_penalty,
    make_penalty,
    read_libsvm,
    run_cccp,
    run_mm,
    synth_generate,
    write_libsvm,
)
from nonconvex_mm.losses import Dataset


@dataclass(frozen=True)
class Case:
    """One solve: a data seed and one penalty setting."""

    workload: str
    data_seed: int
    penalty: str          # kind accepted by make_penalty
    params: tuple         # ((name, value), ...) including lam

    @property
    def key(self) -> str:
        shape = ",".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.data_seed}/{self.penalty}({shape})"


@dataclass
class Solve:
    """A set-up problem ready to solve, plus what the checker needs."""

    case: Case
    problem: object           # ProblemInstance or DcProblem
    loss: object
    params: dict              # full penalty parameters, lam included
    box: tuple | None = None


@dataclass
class Outcome:
    """What one solve returned; the trace itself is not kept."""

    case: Case
    seconds: float
    iters: int
    converged: bool
    w: np.ndarray | None
    mu: float | None = None
    inner_iters: int = 0
    error: str | None = None


class Workload:
    name: str
    pool: int = 40            # data seeds with a recorded reference
    groups: int               # data seeds per benchmark run
    kkt_target: float         # certified tolerance the checker enforces

    def data_seeds(self, seed: int) -> list[int]:
        return sorted(random.Random(seed).sample(range(self.pool), self.groups))

    def penalties(self) -> list[tuple[str, tuple]]:
        raise NotImplementedError

    def cases(self, data_seed: int) -> list[Case]:
        return [Case(self.name, data_seed, kind, params)
                for kind, params in self.penalties()]

    def prepare(self, data_seeds, workdir: Path) -> dict:
        """Untimed work done once per run (e.g. writing input files)."""
        return {}

    def setup(self, data_seed: int, ctx: dict, tracer) -> list[Solve]:
        raise NotImplementedError

    def solve(self, s: Solve, tracer, clock) -> Outcome:
        raise NotImplementedError

    def input_errors(self, s: Solve, ctx: dict) -> list[str]:
        """Reasons the data the program loaded differs from what was written."""
        return []


def _mm_outcome(s: Solve, trace, seconds: float) -> Outcome:
    return Outcome(case=s.case, seconds=seconds, iters=trace.num_steps(),
                   converged=trace.converged, w=trace.final_w, mu=trace.meta["mu"])


class LogisticDense(Workload):
    """Dense logistic regression, epsilon-form LOG penalty, scheme b.

    Scheme b never calls ``prox``; the time goes to loss evaluations and
    the per-step certificates, and the iteration count is set by the
    loose Frobenius curvature bound.
    """

    name = "logistic-dense"
    groups = 6
    kkt_target = 2e-6
    n, p, sparsity, noise_sd = 500, 100, 10, 0.5
    lams = (0.1,)
    eps = 1.0
    config = MmConfig(scheme="b", tol=1e-8, max_iter=200_000)

    def penalties(self):
        return [("log_eps", (("lam", lam), ("eps", self.eps))) for lam in self.lams]

    def setup(self, data_seed, ctx, tracer):
        spec = SyntheticSpec(n=self.n, p=self.p, sparsity=self.sparsity,
                             noise_sd=self.noise_sd, seed=data_seed,
                             task="classification")
        with tracer.span("data_io.synth_generate"):
            data, _ = synth_generate(spec)
        loss = tracer.instrument_loss(LogisticLoss(data))
        with tracer.span("losses.lipschitz"):
            loss.lipschitz
        out = []
        for case in self.cases(data_seed):
            params = dict(case.params)
            pen = tracer.instrument_penalty(make_penalty(case.penalty, **params))
            out.append(Solve(case, ProblemInstance(loss=loss, penalty=pen), loss, params))
        return out

    def solve(self, s, tracer, clock):
        with tracer.span("mm.run_mm"):
            t0 = clock()
            trace = run_mm(s.problem, self.config)
            seconds = clock() - t0
        return _mm_outcome(s, trace, seconds)


def sparse_design(design_seed: int, data_seed: int, n: int, p: int, density: float,
                  k: int, noise_sd: float) -> Dataset:
    """CSR design with Gaussian nonzeros and a planted k-sparse +-1 signal.

    The matrix and the support come from ``design_seed``; the signal's
    signs and the noise come from ``data_seed``.
    """
    rng = np.random.Generator(np.random.Philox(key=design_seed))
    X = sp.random(n, p, density=density, format="csr", random_state=rng,
                  data_rvs=rng.standard_normal)
    support = rng.choice(p, size=k, replace=False)
    rng = np.random.Generator(np.random.Philox(key=data_seed, counter=1))
    w = np.zeros(p)
    w[support] = rng.choice([-1.0, 1.0], size=k)
    y = X @ w + noise_sd * rng.standard_normal(n)
    return Dataset(X=X, y=y, task="regression")


class SparseLsProx(Workload):
    """CSR least squares with p >> n under SCAD and MCP, scheme a.

    Scheme a applies the exact penalty prox to all p coordinates every
    step, while the gradient touches only the nonzeros, so one prox call
    costs several gradient calls.  The data goes through the libsvm
    reader, and ``mu`` comes from the power-iteration estimate of the top
    Gram eigenvalue, which is tight for this design.
    """

    name = "sparse-ls-prox"
    groups = 6
    kkt_target = 1e-7
    n, p, density, sparsity, noise_sd = 300, 2000, 0.05, 10, 0.1
    design_seed = 0
    lam = 0.02
    scad_theta, mcp_gamma = 3.7, 3.0
    config = MmConfig(scheme="a", tol=1e-8, max_iter=100_000)

    def penalties(self):
        return [("scad", (("lam", self.lam), ("theta", self.scad_theta))),
                ("mcp", (("lam", self.lam), ("gamma", self.mcp_gamma)))]

    def design(self, data_seed: int) -> Dataset:
        return sparse_design(self.design_seed, data_seed, self.n, self.p,
                             self.density, self.sparsity, self.noise_sd)

    def prepare(self, data_seeds, workdir):
        files = {}
        for ds in data_seeds:
            data = self.design(ds)
            path = workdir / f"{self.name}-{ds}.libsvm"
            write_libsvm(data, path)
            files[ds] = (path, data)
        return {"files": files, "input_bytes": sum(p.stat().st_size for p, _ in files.values())}

    def setup(self, data_seed, ctx, tracer):
        path, _ = ctx["files"][data_seed]
        with tracer.span("data_io.read_libsvm"):
            data = read_libsvm(path, task="regression", force_p=self.p)
        loss = tracer.instrument_loss(LeastSquaresLoss(data))
        with tracer.span("losses.lipschitz"):
            loss.lipschitz
        out = []
        for case in self.cases(data_seed):
            params = dict(case.params)
            pen = tracer.instrument_penalty(make_penalty(case.penalty, **params))
            out.append(Solve(case, ProblemInstance(loss=loss, penalty=pen), loss, params))
        return out

    def input_errors(self, s, ctx):
        _, written = ctx["files"][s.case.data_seed]
        read = s.loss.data
        if (read.X.shape != written.X.shape or (read.X != written.X).nnz
                or not np.array_equal(read.y, written.y)):
            return ["read_libsvm returned data that differs from the file written"]
        return []

    def solve(self, s, tracer, clock):
        with tracer.span("mm.run_mm"):
            t0 = clock()
            trace = run_mm(s.problem, self.config)
            seconds = clock() - t0
        return _mm_outcome(s, trace, seconds)


def ar1_design(data_seed: int, n: int, p: int, rho: float, signal,
               noise_sd: float, tracer) -> Dataset:
    """Gaussian design from ``synth_generate`` with AR(1)-correlated columns
    and the coefficients ``signal`` planted at evenly spaced columns."""
    spec = SyntheticSpec(n=n, p=p, sparsity=0, seed=data_seed)
    with tracer.span("data_io.synth_generate"):
        iid, _ = synth_generate(spec)
    Z = iid.X
    X = np.empty_like(Z)
    X[:, 0] = Z[:, 0]
    c = np.sqrt(1.0 - rho * rho)
    for j in range(1, p):
        X[:, j] = rho * X[:, j - 1] + c * Z[:, j]
    k = len(signal)
    w = np.zeros(p)
    w[p // (2 * k)::p // k] = signal
    rng = np.random.Generator(np.random.Philox(key=data_seed, counter=1))
    y = X @ w + noise_sd * rng.standard_normal(n)
    return Dataset(X=X, y=y, task="regression")


class CccpLsBox(Workload):
    """Box-constrained CCCP on AR(1)-correlated dense least squares.

    The inner proximal-gradient loop calls only ``loss.gradient``; no
    ``value`` or certificate runs inside a solve.  Set-up pays for the
    strong-convexity certificate of every DC problem.
    """

    name = "cccp-ls-box"
    groups = 5
    kkt_target = 1e-8
    n, p, rho, noise_sd = 2000, 100, 0.9, 0.1
    signal = (1.0, -1.0) * 5
    lam = 0.2
    scad_theta, mcp_gamma = 3.7, 3.0
    box = (-1.5, 1.5)
    config = CccpConfig()

    def penalties(self):
        return [("scad", (("lam", self.lam), ("theta", self.scad_theta))),
                ("mcp", (("lam", self.lam), ("gamma", self.mcp_gamma)))]

    def setup(self, data_seed, ctx, tracer):
        data = ar1_design(data_seed, self.n, self.p, self.rho, self.signal,
                          self.noise_sd, tracer)
        out = []
        for case in self.cases(data_seed):
            loss = tracer.instrument_loss(LeastSquaresLoss(data))
            params = dict(case.params)
            pen = tracer.instrument_penalty(make_penalty(case.penalty, **params))
            with tracer.span("cccp.dc_problem"):
                dcp = dc_problem_from_penalty(loss, pen, box=self.box)
            with tracer.span("losses.lipschitz"):
                loss.lipschitz
            out.append(Solve(case, dcp, loss, params, box=self.box))
        return out

    def solve(self, s, tracer, clock):
        with tracer.span("cccp.run_cccp"):
            t0 = clock()
            trace = run_cccp(s.problem, self.config)
            seconds = clock() - t0
        return Outcome(case=s.case, seconds=seconds, iters=trace.num_steps(),
                       converged=trace.converged and not trace.meta["any_inexact"],
                       w=trace.final_w, inner_iters=sum(trace.meta["inner_iterations"]))


WORKLOADS = {w.name: w for w in (LogisticDense(), SparseLsProx(), CccpLsBox())}
