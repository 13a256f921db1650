"""Majorize-minimize driver for F(w) = f(w) + sum_i zeta(|w_i|).

Each iteration replaces the smooth loss by the quadratic surrogate

    Q_f(w | a) = f(a) + <grad f(a), w - a> + (mu/2) ||w - a||^2,

with mu = rho * L_f (rho > 1 gives strict majorization), then takes one
of two exact minimization steps:

* scheme "a" -- minimize Q_f + r via the penalty's exact scalar prox,
  componentwise on z = w - grad f(w) / mu;
* scheme "b" -- additionally replace the penalty by its tangent-line
  majorant, which collapses the subproblem to weighted soft-thresholding
  with weights zeta'(|w_i|).

Scheme "b" with ``LogEpsilonPenalty`` is exactly iteratively re-weighted
l1 with weights lam / (|w_i| + eps).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import kkt_residual, subgradient_residual
from .penalties import Penalty, UnsupportedPenaltyError

__all__ = [
    "ProblemInstance",
    "MmConfig",
    "IterateTrace",
    "quad_surrogate_value",
    "linearized_penalty_value",
    "step_a",
    "step_b",
    "reweighted_l1_weights",
    "run_mm",
]


@dataclass(frozen=True)
class ProblemInstance:
    """A smooth loss plus a separable penalty; F = loss + penalty."""

    loss: object
    penalty: Penalty

    @property
    def p(self) -> int:
        return self.loss.data.p

    def objective(self, w) -> float:
        return self.loss.value(w) + self.penalty.reg_value(w)


@dataclass(frozen=True)
class MmConfig:
    """Solver knobs.

    ``rho`` scales the loss curvature bound into the surrogate weight
    mu = rho * L_f.  Values below 1 break majorization and are allowed
    only so the diagnostics can demonstrate the failure; both rho <= 1
    and an explicit ``mu_override`` below L_f trigger a warning.
    """

    scheme: str = "a"
    rho: float = 1.01
    mu_override: float | None = None
    max_iter: int = 1000
    tol: float = 1e-8
    record_iterates: bool = True

    def __post_init__(self):
        if self.scheme not in ("a", "b"):
            raise ValueError("scheme must be 'a' or 'b'")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tol < 0:
            raise ValueError("tol must be nonnegative")


@dataclass
class IterateTrace:
    """Per-iterate record of a solver run.

    Row k holds the objective at the k-th visited iterate, the step norm
    ||w^(k) - w^(k-1)|| (0 for the first row), a residual certificate for
    that iterate, and the cumulative wall time when it was produced.  The
    objective column is nonincreasing (up to evaluation roundoff once the
    per-step decrease falls below one ulp of F) for any valid
    majorization run.
    """

    iters: list[int] = field(default_factory=list)
    objective: list[float] = field(default_factory=list)
    step_norm: list[float] = field(default_factory=list)
    residual: list[float] = field(default_factory=list)
    elapsed_sec: list[float] = field(default_factory=list)
    iterates: list[np.ndarray] | None = None
    final_w: np.ndarray | None = None
    converged: bool = False
    meta: dict = field(default_factory=dict)

    def append(self, k: int, objective: float, step_norm: float,
               residual: float, elapsed: float, w=None) -> None:
        self.iters.append(int(k))
        self.objective.append(float(objective))
        self.step_norm.append(float(step_norm))
        self.residual.append(float(residual))
        self.elapsed_sec.append(float(elapsed))
        if self.iterates is not None and w is not None:
            self.iterates.append(np.array(w, dtype=float))

    def __len__(self) -> int:
        return len(self.iters)

    @property
    def final_objective(self) -> float:
        return self.objective[-1]

    def num_steps(self) -> int:
        return max(len(self.iters) - 1, 0)


def quad_surrogate_value(w, anchor, mu: float, loss) -> float:
    """Quadratic loss majorant Q_f(w | anchor) with weight mu."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    w = np.asarray(w, dtype=float).ravel()
    anchor = np.asarray(anchor, dtype=float).ravel()
    if w.shape != anchor.shape:
        raise ValueError("w and anchor have different lengths")
    d = w - anchor
    return loss.value(anchor) + float(loss.gradient(anchor) @ d) + 0.5 * mu * float(d @ d)


def linearized_penalty_value(w, anchor, penalty: Penalty) -> float:
    """Tangent-line penalty majorant Q_r(w | anchor)."""
    if not penalty.supports_linearization:
        raise UnsupportedPenaltyError(
            f"{penalty.kind} penalty cannot be linearized (derivative jumps)"
        )
    w = np.asarray(w, dtype=float).ravel()
    anchor = np.asarray(anchor, dtype=float).ravel()
    if w.shape != anchor.shape:
        raise ValueError("w and anchor have different lengths")
    aa = np.abs(anchor)
    return float(np.sum(penalty.value(aa) + penalty.deriv(aa) * (np.abs(w) - aa)))


def step_a(w, prob: ProblemInstance, mu: float) -> np.ndarray:
    """Exact minimizer of Q_f(. | w) + r: componentwise penalty prox."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    w = np.asarray(w, dtype=float).ravel()
    z = w - prob.loss.gradient(w) / mu
    return prob.penalty.prox(z, 1.0 / mu)


def step_b(w, prob: ProblemInstance, mu: float) -> np.ndarray:
    """Exact minimizer of Q_f(. | w) + Q_r(. | w): weighted soft-threshold."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    if not prob.penalty.supports_linearization:
        raise UnsupportedPenaltyError(
            f"{prob.penalty.kind} penalty cannot be linearized; use scheme 'a'"
        )
    w = np.asarray(w, dtype=float).ravel()
    z = w - prob.loss.gradient(w) / mu
    omega = prob.penalty.deriv(np.abs(w))
    return np.sign(z) * np.maximum(np.abs(z) - omega / mu, 0.0)


def reweighted_l1_weights(w, epsilon: float, lam: float) -> np.ndarray:
    """Classical re-weighted-l1 weights lam / (|w_i| + epsilon).

    These are exactly zeta'(|w_i|) for ``LogEpsilonPenalty(lam, epsilon)``,
    so scheme "b" under that penalty IS the re-weighted-l1 method.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return lam / (np.abs(np.asarray(w, dtype=float)) + epsilon)


def _resolve_mu(prob: ProblemInstance, config: MmConfig) -> tuple[float, float]:
    lf = prob.loss.lipschitz
    mu = config.mu_override if config.mu_override is not None else config.rho * lf
    if mu <= lf:
        warnings.warn(
            f"surrogate weight mu={mu:.6g} <= L_f={lf:.6g}: majorization is not "
            "strict and the descent guarantee degenerates",
            stacklevel=3,
        )
    return mu, lf


def run_mm(prob: ProblemInstance, config: MmConfig, w0=None) -> IterateTrace:
    """Run the majorize-minimize loop until the step's infinity norm
    drops to ``config.tol`` or ``config.max_iter`` steps were taken.
    ``trace.meta`` records which (``stop_reason``), the guarantee
    ``certify`` checks, and ``kkt`` at the final iterate.
    """
    mu, lf = _resolve_mu(prob, config)
    step = step_a if config.scheme == "a" else step_b
    w = np.zeros(prob.p) if w0 is None else np.asarray(w0, dtype=float).ravel().copy()
    if w.shape[0] != prob.p:
        raise ValueError(f"w0 has length {w.shape[0]}, expected {prob.p}")

    trace = IterateTrace(iterates=[] if config.record_iterates else None)
    trace.meta = {
        "scheme": config.scheme,
        "mu": mu,
        "lipschitz": lf,
        "rho": config.rho,
        "tol": config.tol,
        "penalty": {"kind": prob.penalty.kind, **prob.penalty.params()},
        "loss": prob.loss.kind,
    }
    t0 = time.perf_counter()
    f_curr = prob.objective(w)
    if not np.isfinite(f_curr):
        raise FloatingPointError("objective is not finite at the starting point")
    trace.append(0, f_curr, 0.0, kkt_residual(w, prob), time.perf_counter() - t0, w)

    for k in range(config.max_iter):
        w_next = step(w, prob, mu)
        report = subgradient_residual(w_next, w, prob, mu, config.scheme)
        f_next = prob.objective(w_next)
        if not np.isfinite(f_next):
            raise FloatingPointError(
                f"objective became non-finite at iteration {k + 1}; "
                "mu may be below the true gradient Lipschitz constant"
            )
        delta = w_next - w
        step_norm = float(np.linalg.norm(delta))
        trace.append(k + 1, f_next, step_norm, report.B_norm,
                     time.perf_counter() - t0, w_next)
        w = w_next
        if np.max(np.abs(delta), initial=0.0) <= config.tol:
            trace.converged = True
            break

    trace.final_w = w
    # the guarantee certify() checks; L_zeta enters only when r is linearized
    lz = prob.penalty.deriv_lipschitz() if config.scheme == "b" else 0.0
    trace.meta.update(stop_reason="tol" if trace.converged else "budget", kkt=report.kkt,
                      gamma=mu - lf, residual_lipschitz=mu + lf + lz,
                      descent_slack=0.0, descent_tol=1e-9, bound_tol=1e-8)
    return trace
