"""Majorize-minimize driver for F(w) = f(w) + sum_i zeta(|w_i|).

Each iteration replaces the smooth loss by the quadratic surrogate

    Q_f(w | a) = f(a) + <grad f(a), w - a> + (mu_k/2) ||w - a||^2,

then takes one of two exact minimization steps:

* scheme "a" -- minimize Q_f + r via the penalty's exact scalar prox,
  componentwise on z = w - grad f(w) / mu_k;
* scheme "b" -- additionally replace the penalty by its tangent-line
  majorant, which collapses the subproblem to weighted soft-thresholding
  with weights zeta'(|w_i|).

Scheme "b" with ``LogEpsilonPenalty`` is exactly iteratively re-weighted
l1 with weights lam / (|w_i| + eps).

mu = rho * L_f (or ``mu_override``) is the cap on the surrogate weight;
the weight a step actually uses is mu_k = L_k + gamma, with the descent
slack gamma = mu - L_f and L_k in [0, L_f] found by a certified
curvature search: starting from the curvature measured along the
previous step and doubling, the first L_k with

    <grad f(w+) - grad f(w), w+ - w> <= (L_k/2) ||w+ - w||^2

is taken; L_k = L_f (mu_k = mu) needs no check.  For the convex losses
here the test makes Q_f majorize f at the point taken, so every step
keeps the descent F(w) - F(w+) >= (gamma/2) ||w+ - w||^2 and the
subgradient bound (mu + L_f + L_zeta) ||w+ - w|| of a fixed-mu run.
With gamma <= 0 (rho <= 1 or ``mu_override`` <= L_f) the search is
pinned at L_f and every step uses mu.

With slack, each step first tries the same curvature-searched step from
the extrapolated anchor y = w + beta_k (w - w_prev) in place of w, with
the gradient g_y = (1 + beta_k) grad f(w) - beta_k grad f(w_prev) and,
for scheme "b", the weights zeta'(|y|).  g_y is grad f(y) for least
squares, whose gradient is affine, and an estimate of it for logistic
loss.  beta_k follows FISTA's t-sequence, capped at 0.6.  The step's
output z is accepted only if it keeps both guarantees of a plain step,
checked exactly:

    F(z) <= F(w) - (gamma/2) ||z - w||^2,
    ||B_y(z)|| <= (mu + L_f + L_zeta) ||z - w||,

where B_y(z) is grad f(z) plus the optimality term of the step from y.
Whatever g_y is, the prox step z = prox(y - g_y / mu_k) puts
mu_k (y - z) - g_y in the subdifferential of r at z, so B_y(z) is a
member of the subdifferential of F at z.  Only the curvature test at y
stops certifying majorization where g_y is not exact, and the safeguard
does not rely on it.  A rejected try restarts the momentum (t = 1) and
the plain step from w is taken.  This is the
monotone accelerated proximal gradient safeguard (Li & Lin, 2015); the
checked descent and subgradient bound are what the KL convergence
argument needs, so every row passes ``certify`` as a plain step does.
A momentum direction along which f ascends at w,
<grad f(w), w - w_prev> > 0, restarts without a try (the gradient
restart of O'Donoghue & Candes, 2015).  On sparse least squares such
tries failed the safeguard seven times as often as the others (26%
against 3.6%), and restarting there cut the loss evaluations by 14%.

``run_mm`` evaluates the loss once per trial: ``value_and_grad(w+)``
gives F(w+) for the trace and grad f(w+), which checks the curvature,
certifies the step and is carried into the next one (with zeta'(|w+|)
for scheme "b").  So a trial costs one ``X @ w``, one ``X.T @ r`` and,
for scheme "a", one prox; an accepted step adds one ``reg_value`` and
at most one ``penalty.deriv``.  An extrapolated try adds no evaluation
at y: g_y combines the two gradients already carried, for every loss.
The step certificate is built from these, and the exact KKT residual
only at the first and last iterate.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

# kkt_residual and subgradient_residual are not called here, but stay
# importable from this module: perfbench/tracer.py patches them on it
from .diagnostics import (_kkt_distance, _step_subgradient, kkt_residual,  # noqa: F401
                          subgradient_residual)
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

    ``rho`` scales the loss curvature bound into the cap on the
    surrogate weight, mu = rho * L_f; each step uses a weight mu_k <= mu
    certified by the curvature search (see the module docstring), and
    ``trace.mu`` records it.  The slack gamma = mu - L_f also lets a step
    be extrapolated under the safeguard of the module docstring, with no
    knob of its own.  Values of rho below 1 break majorization and are
    allowed only so the diagnostics can demonstrate the failure; both
    rho <= 1 and an explicit ``mu_override`` below L_f trigger a
    warning, pin every step at mu_k = mu and extrapolate none.
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
        if not 0 <= self.tol < np.inf:
            raise ValueError("tol must be finite and nonnegative")


@dataclass
class IterateTrace:
    """Per-iterate record of a solver run.

    Row k holds the objective at the k-th visited iterate, the step norm
    ||w^(k) - w^(k-1)|| (0 for the first row), a residual certificate for
    that iterate, the cumulative wall time when it was produced, the
    surrogate weight mu_k of the step that produced it (None for the
    first row and for solvers without one) and its extrapolation weight
    beta_k (0 for a plain step, None for the first row and for solvers
    that do not extrapolate).  The
    objective column is nonincreasing (up to evaluation roundoff once the
    per-step decrease falls below one ulp of F) for any valid
    majorization run.
    """

    iters: list[int] = field(default_factory=list)
    objective: list[float] = field(default_factory=list)
    step_norm: list[float] = field(default_factory=list)
    residual: list[float] = field(default_factory=list)
    elapsed_sec: list[float] = field(default_factory=list)
    mu: list[float | None] = field(default_factory=list)
    beta: list[float | None] = field(default_factory=list)
    iterates: list[np.ndarray] | None = None
    final_w: np.ndarray | None = None
    converged: bool = False
    meta: dict = field(default_factory=dict)

    def append(self, k: int, objective: float, step_norm: float,
               residual: float, elapsed: float, w=None, mu: float | None = None,
               beta: float | None = None) -> None:
        self.iters.append(int(k))
        self.objective.append(float(objective))
        self.step_norm.append(float(step_norm))
        self.residual.append(float(residual))
        self.elapsed_sec.append(float(elapsed))
        self.mu.append(None if mu is None else float(mu))
        self.beta.append(None if beta is None else float(beta))
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
    _check_mu(mu)
    w = np.asarray(w, dtype=float).ravel()
    anchor = np.asarray(anchor, dtype=float).ravel()
    if w.shape != anchor.shape:
        raise ValueError("w and anchor have different lengths")
    d = w - anchor
    f, g = loss.value_and_grad(anchor)
    return f + float(g @ d) + 0.5 * mu * float(d @ d)


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


def _check_mu(mu: float) -> None:
    if not 0 < mu < np.inf:
        raise ValueError(f"mu must be positive and finite, got {mu:g}")


def _check_step(mu: float, penalty: Penalty, linearize: bool) -> None:
    """The preconditions of one MM step; scheme "b" linearizes the penalty."""
    _check_mu(mu)
    if linearize and not penalty.supports_linearization:
        raise UnsupportedPenaltyError(
            f"{penalty.kind} penalty cannot be linearized; use scheme 'a'"
        )


def _soft_threshold(z: np.ndarray, thresh, box=None) -> np.ndarray:
    """sign(z) max(|z| - thresh, 0), then clamped to box = (lo, hi) when
    given: the exact prox of thresh * |.|_1 plus the box indicator."""
    out = np.abs(z)
    out -= thresh
    np.maximum(out, 0.0, out=out)
    np.copysign(out, z, out=out)
    if box is not None:
        np.maximum(out, box[0], out=out)
        np.minimum(out, box[1], out=out)
    return out


def _mm_update(w: np.ndarray, g: np.ndarray, mu: float, penalty: Penalty,
               omega: np.ndarray | None) -> np.ndarray:
    """Minimizer of Q_f(. | w) + r, or of Q_f(. | w) + Q_r(. | w) when the
    weights omega = zeta'(|w|) are given; g = grad f(w)."""
    z = np.divide(g, mu)
    np.subtract(w, z, out=z)
    if omega is None:
        return penalty.prox(z, 1.0 / mu)
    return _soft_threshold(z, omega / mu)


def step_a(w, prob: ProblemInstance, mu: float) -> np.ndarray:
    """Exact minimizer of Q_f(. | w) + r: componentwise penalty prox."""
    _check_step(mu, prob.penalty, linearize=False)
    w = np.asarray(w, dtype=float).ravel()
    return _mm_update(w, prob.loss.gradient(w), mu, prob.penalty, None)


def step_b(w, prob: ProblemInstance, mu: float) -> np.ndarray:
    """Exact minimizer of Q_f(. | w) + Q_r(. | w): weighted soft-threshold."""
    _check_step(mu, prob.penalty, linearize=True)
    w = np.asarray(w, dtype=float).ravel()
    return _mm_update(w, prob.loss.gradient(w), mu, prob.penalty,
                      prob.penalty.deriv(np.abs(w)))


def reweighted_l1_weights(w, epsilon: float, lam: float) -> np.ndarray:
    """Classical re-weighted-l1 weights lam / (|w_i| + epsilon).

    These are exactly zeta'(|w_i|) for ``LogEpsilonPenalty(lam, epsilon)``,
    so scheme "b" under that penalty IS the re-weighted-l1 method.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return lam / (np.abs(np.asarray(w, dtype=float)) + epsilon)


def _curvature_search(trial, x, g, L_start: float, L_max: float, L_min: float):
    """The first curvature L, from L_start clipped to [L_min, L_max] and
    doubling up to L_max, whose trial step passes the descent check.

    ``trial(L)`` returns a tuple that starts with x+ and grad f(x+) for
    the step taken with curvature L from x, where g = grad f(x).  L is
    accepted when <grad f(x+) - g, x+ - x> <= (L/2) ||x+ - x||^2, which
    for a convex f gives f(x+) <= f(x) + <g, x+ - x> + (L/2) ||x+ - x||^2;
    L_max, a global curvature bound, is accepted without the check.
    Returns (L, trial(L), the start for the next step): the curvature
    2 <grad f(x+) - g, x+ - x> / ||x+ - x||^2 measured along the step
    taken, or L when that is not positive (or not a number).
    """
    L = min(max(L_start, L_min), L_max)
    while True:
        out = trial(L)
        d = out[0] - x
        dd = float(d @ d)
        curv = float((out[1] - g) @ d)
        if L >= L_max or curv <= 0.5 * L * dd:
            break
        L = min(2.0 * L, L_max)
    measured = 2.0 * curv / dd if dd > 0.0 else 0.0
    return L, out, measured if measured > 0.0 else L


# Cap on the extrapolation weight beta_k, which otherwise follows FISTA's
# t-sequence: beta_k = (t_k - 1) / t_{k+1}, t_1 = 1, t_{k+1} = (1 +
# sqrt(1 + 4 t_k^2)) / 2.  The convergence theory of extrapolated proximal
# gradient needs sup beta_k < 1.  The value is measured, not derived: at
# 0.5 the rate fit of the MCP run in acceptance criterion 8 reads sublinear
# (its tail reaches the roundoff floor), and at 0.7 the logistic-dense
# benchmark pool takes 12% more loss evaluations (3567 against 3185) for 2%
# fewer on sparse-ls-prox (4118 against 4194).
_BETA_MAX = 0.6


def _gradient_at_y(beta: float, g: np.ndarray, g_prev: np.ndarray) -> np.ndarray:
    """The gradient an extrapolated try uses at y = w + beta (w - w_prev)."""
    return (1.0 + beta) * g - beta * g_prev


def _resolve_mu(prob: ProblemInstance, config: MmConfig) -> tuple[float, float]:
    lf = prob.loss.lipschitz
    mu = config.mu_override if config.mu_override is not None else config.rho * lf
    if mu <= lf:
        if prob.loss.kind == "logistic":
            why = ("for logistic loss L_f is the loose Frobenius bound, so mu may "
                   "still majorize f; certify(trace) checks the descent of every step")
        else:
            why = "majorization is not strict and the descent guarantee degenerates"
        warnings.warn(
            f"surrogate weight mu={mu:.6g} <= L_f={lf:.6g}: every step is pinned at "
            f"mu, with no curvature search; no extrapolation is tried; {why}",
            stacklevel=3,
        )
    return mu, lf


def run_mm(prob: ProblemInstance, config: MmConfig, w0=None) -> IterateTrace:
    """Run the majorize-minimize loop until the step's infinity norm
    drops to ``config.tol`` or ``config.max_iter`` steps were taken.

    With descent slack (gamma = mu - L_f > 0) each step first tries the
    safeguarded extrapolated step (see the module docstring) and falls
    back to the plain step from w when it is rejected; without slack
    every step is plain.  ``trace.mu`` holds each step's surrogate weight
    mu_k <= mu and ``trace.beta`` its extrapolation weight (0 for a plain
    step).  ``trace.meta`` records why the run stopped
    (``stop_reason``), the guarantee ``certify`` checks, ``kkt`` at the
    final iterate, ``loss_evals`` (the loss evaluations of the curvature
    searches, one per trial), ``extrapolated_steps`` (the
    accepted ones) and ``restarts`` (the momentum resets: rejected tries
    and those skipped by the gradient restart).

    A non-finite objective at the start raises ``FloatingPointError``.
    One later in the run ends it with ``stop_reason="nonfinite"``: the
    trace keeps every finite row, so the non-finite objective belongs to
    iteration ``len(trace)`` and ``final_w`` is the last finite iterate.
    """
    mu, lf = _resolve_mu(prob, config)
    loss, pen = prob.loss, prob.penalty
    linearize = config.scheme == "b"
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
        "penalty": {"kind": pen.kind, **pen.params()},
        "loss": loss.kind,
    }
    t0 = time.perf_counter()
    f_loss, g = loss.value_and_grad(w)
    f_curr = f_loss + pen.reg_value(w)
    if not np.isfinite(f_curr):
        raise FloatingPointError("objective is not finite at the starting point")
    trace.append(0, f_curr, 0.0, _kkt_distance(w, g, pen), time.perf_counter() - t0, w)
    _check_step(mu, pen, linearize)
    # the step from w needs g = grad f(w) and, for scheme b, omega = zeta'(|w|)
    omega = pen.deriv(np.abs(w)) if linearize else None
    # mu_k = L_k + gamma keeps the descent slack of mu = L_f + gamma; without
    # slack the search is pinned at L_f and no step is extrapolated
    gamma = mu - lf
    l_min = 0.0 if gamma > 0 else lf
    l_start = lf
    loss_evals = extrapolated = restarts = 0
    # the guarantee certify() checks, valid for every mu_k <= mu; L_zeta
    # enters only when r is linearized
    lz = pen.deriv_lipschitz() if linearize else 0.0
    bound_lipschitz = mu + lf + lz
    t = 1.0
    w_prev = g_prev = None

    def mm_step(x, g_x, omega_x):
        """The curvature-searched step from the anchor x: the new iterate,
        its loss gradient, F there, mu_k and the next search's start."""
        def trial(L):
            nonlocal loss_evals
            loss_evals += 1
            mu_k = mu if L >= lf else L + gamma
            z = _mm_update(x, g_x, mu_k, pen, omega_x)
            f_loss, g_z = loss.value_and_grad(z)
            return z, g_z, f_loss, mu_k

        _, (z, g_z, f_loss, mu_k), l_next = _curvature_search(
            trial, x, g_x, l_start, lf, l_min)
        return z, g_z, f_loss + pen.reg_value(z), mu_k, l_next

    def certificate(z, d, g_z, g_x, omega_x, mu_k):
        """zeta'(|z|) (scheme b) and ||B||, B the member of dF(z) that the
        step d = z - x from the anchor x gives: grad f(z) plus its prox
        optimality term."""
        omega_z = pen.deriv(np.abs(z)) if linearize else None
        _, B = _step_subgradient(z, d, g_z, g_x, mu_k,
                                 None if omega_x is None else omega_x - omega_z)
        return omega_z, float(np.linalg.norm(B))

    stop_reason = "budget"
    for k in range(config.max_iter):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = min((t - 1.0) / t_next, _BETA_MAX) if gamma > 0 else 0.0
        accepted = False
        if beta > 0.0:
            m = w - w_prev
            # gradient restart: momentum along which f ascends at w is not
            # tried (see the module docstring)
            if float(g @ m) <= 0.0:
                y = w + beta * m
                g_y = _gradient_at_y(beta, g, g_prev)
                omega_y = pen.deriv(np.abs(y)) if linearize else None
                z, g_z, f_z, mu_k, l_next = mm_step(y, g_y, omega_y)
                delta = z - w
                step = float(np.linalg.norm(delta))
                # the safeguard: the descent and the subgradient bound of a
                # plain step, checked exactly; a non-finite F(z) fails the first
                if f_z <= f_curr - 0.5 * gamma * step * step:
                    omega_z, res = certificate(z, z - y, g_z, g_y, omega_y, mu_k)
                    accepted = res <= bound_lipschitz * step
            if accepted:
                extrapolated += 1
            else:
                # restart the momentum (t = 1) and take the plain step
                restarts += 1
                beta, t_next = 0.0, 1.0
        if not accepted:
            z, g_z, f_z, mu_k, l_next = mm_step(w, g, omega)
            if not np.isfinite(f_z):
                stop_reason = "nonfinite"
                break
            delta = z - w
            step = float(np.linalg.norm(delta))
            omega_z, res = certificate(z, delta, g_z, g, omega, mu_k)
        trace.append(k + 1, f_z, step, res, time.perf_counter() - t0, z, mu_k, beta)
        w_prev, g_prev = w, g
        w, g, omega, f_curr = z, g_z, omega_z, f_z
        t, l_start = t_next, l_next
        if np.max(np.abs(delta), initial=0.0) <= config.tol:
            trace.converged = True
            stop_reason = "tol"
            break

    trace.final_w = w
    trace.meta.update(stop_reason=stop_reason, kkt=_kkt_distance(w, g, pen),
                      gamma=gamma, residual_lipschitz=bound_lipschitz,
                      descent_slack=0.0, descent_tol=1e-9, bound_tol=1e-8,
                      loss_evals=loss_evals, extrapolated_steps=extrapolated,
                      restarts=restarts)
    return trace
