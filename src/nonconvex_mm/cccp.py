"""Concave-convex procedure for box-constrained DC objectives.

The objective is split as  F = delta_box + u - v  with

    u(w) = f(w) + (ridge/2) ||w||^2 + kappa ||w||_1,
    v(w) = sum_i h(w_i),

where ``h`` is the convex remainder of a concave penalty:
h(t) = kappa*|t| - zeta(|t|) with kappa = zeta'(0).  Subtracting v from
the l1 part reconstructs the penalty exactly, so with ridge = 0 the DC
objective equals the MM objective f + r.

Each outer iteration linearizes v at the current point and solves the
resulting convex subproblem by proximal gradient with the exact prox of
kappa*|.|_1 + delta_box (soft-threshold then clamp, exact per
coordinate).  Each inner step 1/L_k comes from the certified curvature
search that ``run_mm`` uses, with L_k between the strong-convexity
modulus gamma_u and the global bound L_f + ridge.  Strong convexity of
u must be certified up front: either the least-squares Gram matrix has
full rank or an explicit ridge is added (which changes F and is
recorded as such).

The inner gradient of a least-squares loss is G x - (b + grad v(w)) +
ridge*x, with the Gram pair (G, b) = (X^T X / n, X^T y / n) cached on
the data set: p*p flops per evaluation.  That path runs when p*p <=
nnz(X) (p <= n for a dense design); otherwise, and for every other
loss, each evaluation calls ``loss.gradient``, which costs 2*nnz(X).
The strong-convexity certificate of a least-squares loss makes one
eigen-solve of the cached Gram matrix; an L_f first asked for after it
is the top of the same spectrum, so no Lanczos solve runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .losses import LeastSquaresLoss, least_squares_strong_convexity
from .mm import IterateTrace, _curvature_search
from .penalties import Penalty, UnsupportedPenaltyError

__all__ = [
    "ConvexRemainder",
    "DcProblem",
    "CccpConfig",
    "dc_decompose",
    "dc_problem_from_penalty",
    "cccp_step",
    "run_cccp",
]


@dataclass(frozen=True)
class ConvexRemainder:
    """h(t) = kappa*|t| - zeta(|t|): convex, h(0) = 0, h'(0) = 0."""

    penalty: Penalty
    kappa: float

    def value(self, t):
        t = np.abs(np.asarray(t, dtype=float))
        return self.kappa * t - self.penalty.value(t)

    def deriv(self, t):
        t = np.asarray(t, dtype=float)
        a = np.abs(t)
        return np.sign(t) * (self.kappa - self.penalty.deriv(a))

    def deriv_lipschitz(self) -> float:
        return self.penalty.deriv_lipschitz()


def dc_decompose(penalty: Penalty) -> tuple[float, ConvexRemainder]:
    """Split zeta(|t|) = kappa*|t| - h(t) with h convex and smooth.

    Requires a concave differentiable penalty (LOG / SCAD / MCP); the
    capped-l1 remainder would have a derivative jump.
    """
    if not penalty.supports_linearization:
        raise UnsupportedPenaltyError(
            f"{penalty.kind} penalty has no smooth DC decomposition"
        )
    kappa = penalty.deriv(0.0)
    return kappa, ConvexRemainder(penalty=penalty, kappa=kappa)


def _as_bounds(box, p: int):
    if box is None:
        return None
    lo, hi = box
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (p,)).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (p,)).copy()
    if np.isnan(lo).any() or np.isnan(hi).any():
        raise ValueError("box bounds must not be NaN")
    if np.any(lo > hi):
        raise ValueError("box lower bounds exceed upper bounds")
    return lo, hi


@dataclass(frozen=True)
class DcProblem:
    """Box-constrained DC objective with certified strong convexity."""

    loss: object
    l1_weight: float
    remainder: ConvexRemainder | None
    gamma_u: float
    ridge: float = 0.0
    box: tuple | None = None

    def __post_init__(self):
        if self.l1_weight < 0:
            raise ValueError("l1 weight must be nonnegative")
        if self.ridge < 0:
            raise ValueError("ridge must be nonnegative")
        if not self.gamma_u > 0:
            raise ValueError(
                "u must be certified strongly convex (gamma_u > 0); add a ridge "
                "or use a full-column-rank least-squares design"
            )
        object.__setattr__(self, "box", _as_bounds(self.box, self.loss.data.p))

    @property
    def p(self) -> int:
        return self.loss.data.p

    def project(self, w: np.ndarray) -> np.ndarray:
        if self.box is None:
            return w
        return np.clip(w, self.box[0], self.box[1])

    def feasible(self, w) -> bool:
        if self.box is None:
            return True
        lo, hi = self.box
        return bool(np.all(w >= lo) and np.all(w <= hi))

    def v_grad(self, w) -> np.ndarray:
        if self.remainder is None:
            return np.zeros(self.p)
        return self.remainder.deriv(w)

    def v_lipschitz(self) -> float:
        return 0.0 if self.remainder is None else self.remainder.deriv_lipschitz()

    def objective(self, w) -> float:
        """Full DC objective; +inf outside the box."""
        w = np.asarray(w, dtype=float).ravel()
        if not self.feasible(w):
            return float("inf")
        val = self.loss.value(w) + 0.5 * self.ridge * float(w @ w)
        val += self.l1_weight * float(np.sum(np.abs(w)))
        if self.remainder is not None:
            val -= float(np.sum(self.remainder.value(w)))
        return val


def dc_problem_from_penalty(loss, penalty: Penalty, box=None, ridge: float = 0.0,
                            gamma_u: float | None = None) -> DcProblem:
    """DC problem whose objective is f + r (plus optional ridge and box).

    ``gamma_u`` defaults to ridge plus, for least squares, the smallest
    Gram eigenvalue; pass it explicitly for other certified moduli.
    """
    kappa, remainder = dc_decompose(penalty)
    if gamma_u is None:
        gamma_u = ridge
        if isinstance(loss, LeastSquaresLoss):
            gamma_u += least_squares_strong_convexity(loss.data)
    return DcProblem(loss=loss, l1_weight=kappa, remainder=remainder,
                     gamma_u=gamma_u, ridge=ridge, box=box)


@dataclass(frozen=True)
class CccpConfig:
    max_iter: int = 200
    tol: float = 1e-8
    inner_tol: float = 1e-10
    inner_max_iter: int = 10_000

    def __post_init__(self):
        if min(self.max_iter, self.inner_max_iter) < 1:
            raise ValueError("iteration limits must be >= 1")
        if not (0 <= self.tol < np.inf and 0 < self.inner_tol < np.inf):
            raise ValueError("tolerances must be finite, with tol >= 0 and inner_tol > 0")


@dataclass(frozen=True)
class InnerSolveInfo:
    residual: float
    iterations: int
    inexact: bool
    gradient_evals: int


def _prox_l1_box(z: np.ndarray, thresh: float, box) -> np.ndarray:
    out = np.abs(z)
    out -= thresh
    np.maximum(out, 0.0, out=out)
    np.copysign(out, z, out=out)
    if box is not None:
        np.maximum(out, box[0], out=out)
        np.minimum(out, box[1], out=out)
    return out


def _subproblem_residual(x: np.ndarray, grad_s: np.ndarray, kappa: float, box) -> float:
    """Exact distance from 0 to the subdifferential of the convex subproblem.

    Per coordinate it is max(0, grad_s + lo, -(grad_s + hi)), where
    [lo, hi] is kappa times the subdifferential of |x_i|; a coordinate at
    its lower (upper) box bound drops the first (second) term.
    """
    below = np.where(x > 0, kappa, -kappa)
    below += grad_s
    above = np.where(x < 0, kappa, -kappa)
    above -= grad_s
    if box is not None:
        below[x <= box[0]] = 0.0
        above[x >= box[1]] = 0.0
    np.maximum(below, above, out=below)
    np.maximum(below, 0.0, out=below)
    return math.sqrt(below @ below)


def _inner_gram(loss):
    """The data set's cached (X^T X / n, X^T y / n) when ``loss`` is least
    squares and a Gram matvec (p*p flops) costs no more than the design's
    two matvecs (2*nnz(X) flops); None otherwise."""
    if not isinstance(loss, LeastSquaresLoss):
        return None
    X = loss.data.X
    nnz = X.nnz if sp.issparse(X) else X.size
    return loss.data.gram if X.shape[1] ** 2 <= nnz else None


def cccp_step(w, prob: DcProblem, cfg: CccpConfig) -> tuple[np.ndarray, InnerSolveInfo]:
    """Solve the linearized convex subproblem at w by proximal gradient.

    The smooth part is f + ridge minus the linearization of v; the prox
    part kappa*|.|_1 + delta_box has the exact clamp-after-soft-threshold
    prox.  Each step x -> prox(x - grad / L_k) takes its curvature L_k
    in [gamma_u, L_f + ridge] from ``_curvature_search``, starting at
    L_f + ridge.  Iterates until the subproblem's first-order residual
    drops to ``cfg.inner_tol``; if the budget runs out the best iterate
    is returned flagged inexact.

    For least squares with p*p <= nnz(X) the smooth gradient is
    G x - (b + grad v(w)) + ridge*x from the data set's cached Gram pair
    and ``loss.gradient`` is never called; otherwise every evaluation
    calls ``loss.gradient``.
    """
    w = np.asarray(w, dtype=float).ravel()
    g_v = prob.v_grad(w)
    ridge = prob.ridge
    lip = prob.loss.lipschitz + ridge
    gram = _inner_gram(prob.loss)
    b = None if gram is None else gram[1] + g_v
    evals = 0

    def grad_s(x):
        nonlocal evals
        evals += 1
        if gram is None:
            return prob.loss.gradient(x) + ridge * x - g_v
        out = gram[0] @ x
        out -= b
        if ridge:
            out += ridge * x
        return out

    def trial(L):
        x_next = _prox_l1_box(x - g / L, prob.l1_weight / L, prob.box)
        return x_next, grad_s(x_next)

    x = prob.project(w.copy())
    g = grad_s(x)
    L = lip
    for it in range(cfg.inner_max_iter + 1):
        resid = _subproblem_residual(x, g, prob.l1_weight, prob.box)
        if resid <= cfg.inner_tol or it == cfg.inner_max_iter:
            return x, InnerSolveInfo(resid, it, resid > cfg.inner_tol, evals)
        _, (x, g), L = _curvature_search(trial, x, g, L, lip, prob.gamma_u)


def run_cccp(prob: DcProblem, cfg: CccpConfig, w0=None) -> IterateTrace:
    """Outer CCCP loop; the trace's residual column holds the
    linearization-gap certificate ||grad v(w^(k-1)) - grad v(w^(k))||.
    ``trace.meta`` records the guarantee ``certify`` checks, the
    ``stop_reason`` ("tol" or "budget") and, per inner solve, its
    residual, steps and gradient evaluations.
    """
    w = np.zeros(prob.p) if w0 is None else np.asarray(w0, dtype=float).ravel().copy()
    w = prob.project(w)
    trace = IterateTrace(iterates=[])
    trace.meta = {
        "solver": "cccp",
        "gamma_u": prob.gamma_u,
        "l1_weight": prob.l1_weight,
        "ridge": prob.ridge,
        "v_lipschitz": prob.v_lipschitz(),
        "inner_tol": cfg.inner_tol,
        "inner_residuals": [],
        "inner_iterations": [],
        "inner_gradient_evals": [],
        "any_inexact": False,
        # the guarantee certify() checks; an inexact inner solve may give
        # back up to 2 * inner_tol * ||Delta|| of the descent
        "gamma": prob.gamma_u,
        "residual_lipschitz": prob.v_lipschitz(),
        "descent_slack": 2.0 * cfg.inner_tol, "descent_tol": 1e-12, "bound_tol": 1e-10,
    }
    t0 = time.perf_counter()
    f_curr = prob.objective(w)
    if not np.isfinite(f_curr):
        raise FloatingPointError("objective is not finite at the starting point")
    trace.append(0, f_curr, 0.0, 0.0, time.perf_counter() - t0, w)

    for k in range(cfg.max_iter):
        w_next, info = cccp_step(w, prob, cfg)
        trace.meta["inner_residuals"].append(info.residual)
        trace.meta["inner_iterations"].append(info.iterations)
        trace.meta["inner_gradient_evals"].append(info.gradient_evals)
        trace.meta["any_inexact"] = trace.meta["any_inexact"] or info.inexact
        delta = w_next - w
        cert = float(np.linalg.norm(prob.v_grad(w) - prob.v_grad(w_next)))
        trace.append(k + 1, prob.objective(w_next), float(np.linalg.norm(delta)),
                     cert, time.perf_counter() - t0, w_next)
        w = w_next
        if np.max(np.abs(delta), initial=0.0) <= cfg.tol:
            trace.converged = True
            break

    trace.final_w = w
    trace.meta["stop_reason"] = "tol" if trace.converged else "budget"
    return trace
