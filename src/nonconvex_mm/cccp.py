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

The inner loop stops on the prox step's own certificate.  With s the
smooth part of the subproblem, the step x -> x+ with curvature L_k gives

    B = grad s(x+) - grad s(x) - L_k (x+ - x),

a member of the subproblem's subdifferential at x+ (box normal cone
included), so ||B|| bounds the exact first-order residual from above
(the composite gradient mapping of Nesterov, 2013).  It is the scheme
"a" step certificate of ``run_mm``, built by the same kernel.  The exact
residual runs only at the start point, to confirm a stop on ||B|| <=
inner_tol or a face-solve candidate (below), and at the budget, so the
residual an inner solve reports is always the exact one.

For least squares the outer objective is carried, not re-evaluated: one
``value_and_grad`` at the start point gives f(w_0) and grad f(w_0), and
each outer step adds the exact quadratic identity

    f(w+) = f(w) + <grad f(w) + grad f(w+), w+ - w> / 2,

with grad f(w+) = grad s(w+) + grad v(w) - ridge*w+ from the inner
solve's last gradient.  So a least-squares solve makes one full-design
pass outside the inner loop.  The identity has no ||y||^2 term, so it
does not cancel when the fit is tight, as the Gram form w^T G w / 2 -
b^T w + ||y||^2 / (2n) would.  Other losses evaluate F at every outer
iterate.

The inner gradient of a least-squares loss is G x - (b + grad v(w)) +
ridge*x, with the Gram pair (G, b) = (X^T X / n, X^T y / n) cached on
the data set: p*p flops per evaluation.  That path runs when p*p <=
nnz(X) (p <= n for a dense design); otherwise, and for every other
loss, each evaluation calls ``loss.gradient``, which costs 2*nnz(X).
The strong-convexity certificate of a least-squares loss makes one
eigen-solve of the cached Gram matrix; an L_f first asked for after it
is the top of the same spectrum, so no Lanczos solve runs.

On the Gram path the subproblem is a quadratic plus kappa*|.|_1 and the
box, and proximal gradient identifies its active face (the signs of the
coordinates and which of them sit at a bound) in finitely many steps
(Hare & Lewis, 2004).  On that face the subproblem is one linear system.
So the inner loop also tries a face solve: at the start point, and after
each step that leaves the face of the previous step unchanged.  With F
the free coordinates (nonzero and strictly inside the box) it solves

    (G_FF + ridge*I) x_F = b'_F - kappa*sign(x_F) - G_FN x_N,

b' = b + grad v(w), by a Cholesky factorization (G + ridge*I is positive
definite, since gamma_u > 0 is certified), and keeps every other
coordinate at 0 or at its bound.  The candidate is returned only if it
keeps the face's signs, stays in the box and its exact residual, from
one Gram matvec, is at most inner_tol; otherwise proximal gradient goes
on from where it was.  The candidate depends on the face alone, so a
face that missed is not tried again until the iterates leave it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dposv

from .diagnostics import _interval_distance, _norm, _step_subgradient
from .losses import LeastSquaresLoss, least_squares_strong_convexity
from .mm import IterateTrace, SparseIterates, _curvature_search, _soft_threshold
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
        return self._objective_given_loss(w, self.loss.value(w))

    def _objective_given_loss(self, w: np.ndarray, f: float) -> float:
        """F(w) for a feasible w whose loss value f is already known."""
        val = f + 0.5 * self.ridge * float(w @ w)
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
    """Outer and inner budgets and tolerances.

    ``tol`` is in KKT units: the outer loop stops at the first step whose
    linearization gap ||grad v(w^(k-1)) - grad v(w^(k))|| plus its inner
    solve's exact residual is at most tol.  By the triangle inequality
    that sum bounds the box-aware KKT distance of the DC objective at the
    new iterate.  ``inner_tol`` ends each inner solve (see ``cccp_step``).
    """

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
    """How an inner solve ended.  ``residual`` is the exact first-order
    residual of the subproblem at the returned point, and ``smooth_grad``
    the gradient of its smooth part there.  ``iterations`` counts the
    proximal-gradient steps; ``face_tries`` the face solves tried and
    ``face_accepted`` (0 or 1) whether the returned point is one."""

    residual: float
    iterations: int
    inexact: bool
    gradient_evals: int
    face_tries: int = 0
    face_accepted: int = 0
    smooth_grad: np.ndarray | None = field(default=None, repr=False, compare=False)


def _subproblem_residual(x: np.ndarray, grad_s: np.ndarray, kappa: float, box) -> float:
    """Exact distance from 0 to grad_s + kappa * d|x| + N_box(x).

    [lo, hi] is kappa times the subdifferential of |x_i|; the normal cone
    of a coordinate at its lower (upper) box bound makes lo (hi) infinite.
    """
    lo = np.where(x > 0, kappa, -kappa)
    hi = np.where(x < 0, -kappa, kappa)
    if box is not None:
        lo[x <= box[0]] = -np.inf
        hi[x >= box[1]] = np.inf
    return _interval_distance(grad_s, lo, hi)


def _inner_gram(loss):
    """The data set's cached (X^T X / n, X^T y / n) when ``loss`` is least
    squares and a Gram matvec (p*p flops) costs no more than the design's
    two matvecs (2*nnz(X) flops); None otherwise."""
    if not isinstance(loss, LeastSquaresLoss):
        return None
    X = loss.data.X
    nnz = X.nnz if sp.issparse(X) else X.size
    return loss.data.gram if X.shape[1] ** 2 <= nnz else None


def _face(x: np.ndarray, box) -> np.ndarray:
    """The face of x: sign(x_i), or 2 (3) for a coordinate at its lower
    (upper) box bound."""
    face = np.sign(x)
    if box is not None:
        face[x <= box[0]] = 2.0
        face[x >= box[1]] = 3.0
    return face


def _face_solve(G: np.ndarray, ridge: float, kappa: float, x: np.ndarray,
                g: np.ndarray, face: np.ndarray, free: np.ndarray, box):
    """Minimizer of the subproblem on the face of x, or None when it
    leaves that face.

    The free coordinates F move by the Newton step of the face's
    quadratic, -(G_FF + ridge*I)^{-1} (g_F + kappa*sign(x_F)) with g the
    smooth gradient at x, which is the module docstring's system written
    from x; the others stay.  The step is one Cholesky solve (LAPACK
    ``posv``); a block that is not positive definite counts as a miss.
    """
    A = G[free][:, free]
    if ridge:
        A.flat[::free.size + 1] += ridge
    _, d, info = dposv(A, g[free] + kappa * face[free])
    if info != 0:
        return None
    x_free = x[free] - d
    lo, hi = (-np.inf, np.inf) if box is None else (box[0][free], box[1][free])
    if not (np.array_equal(np.sign(x_free), face[free]) and np.isfinite(x_free).all()
            and np.all(x_free >= lo) and np.all(x_free <= hi)):
        return None
    out = x.copy()
    out[free] = x_free
    return out


def cccp_step(w, prob: DcProblem, cfg: CccpConfig) -> tuple[np.ndarray, InnerSolveInfo]:
    """Solve the linearized convex subproblem at w by proximal gradient,
    ended on the Gram path by a certified face solve.

    The smooth part s is f + ridge minus the linearization of v; the prox
    part kappa*|.|_1 + delta_box has the exact clamp-after-soft-threshold
    prox.  Each step x -> prox(x - grad s(x) / L_k) takes its curvature
    L_k in [gamma_u, L_f + ridge] from ``_curvature_search``, starting at
    L_f + ridge.  The loop stops once the step's certificate
    ||grad s(x+) - grad s(x) - L_k (x+ - x)||, an upper bound on the exact
    residual, drops to ``cfg.inner_tol`` and the exact residual confirms
    it.  The exact residual also runs at the start point, which may
    already be a solution, and at the budget, where the last iterate is
    returned flagged inexact if it misses ``cfg.inner_tol``.  The returned
    info carries grad s at the returned point.

    For least squares with p*p <= nnz(X) the smooth gradient is
    G x - (b + grad v(w)) + ridge*x from the data set's cached Gram pair
    and ``loss.gradient`` is never called; otherwise every evaluation
    calls ``loss.gradient``.  On that Gram path a face solve (see the
    module docstring) is tried at the start point and after each step
    whose face equals the previous one's, unless that face already
    missed; the loop also stops once the exact residual of a face
    candidate, one more Gram matvec, is at most ``cfg.inner_tol``.
    """
    w = np.asarray(w, dtype=float).ravel()
    g_v = prob.v_grad(w)
    ridge, kappa, box, tol = prob.ridge, prob.l1_weight, prob.box, cfg.inner_tol
    lip = prob.loss.lipschitz + ridge
    gram = _inner_gram(prob.loss)
    b = None if gram is None else gram[1] + g_v
    evals = tries = accepted = 0

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
        x_next = _soft_threshold(x - g / L, kappa / L, box)
        return x_next, grad_s(x_next)

    def try_face():
        """(x, g, residual) of the face solve from x when it is certified,
        else of x itself; a face with no free coordinate has no solve."""
        nonlocal tries, accepted
        free = np.flatnonzero(np.abs(face) == 1.0)
        if free.size:
            tries += 1
            x_face = _face_solve(gram[0], ridge, kappa, x, g, face, free, box)
            if x_face is not None:
                g_face = grad_s(x_face)
                r = _subproblem_residual(x_face, g_face, kappa, box)
                if r <= tol:
                    accepted = 1
                    return x_face, g_face, r
        return x, g, resid

    x = prob.project(w.copy())
    g = grad_s(x)
    resid = _subproblem_residual(x, g, kappa, box)
    faces = gram is not None and resid > tol
    if faces:
        face = _face(x, box)
        x, g, resid = try_face()
        tried = True
    L = lip
    it = 0
    while resid > tol and it < cfg.inner_max_iter:
        it += 1
        L_step, (x_next, g_next), L = _curvature_search(trial, x, g, L, lip, prob.gamma_u)
        _, B = _step_subgradient(x_next, x_next - x, g_next, g, L_step, None)
        x, g = x_next, g_next
        if _norm(B) <= tol or it == cfg.inner_max_iter:
            resid = _subproblem_residual(x, g, kappa, box)
        if faces and resid > tol:
            face_next = _face(x, box)
            # the candidate depends on the face alone: one try per face
            if not np.array_equal(face_next, face):
                face, tried = face_next, False
            elif not tried:
                x, g, resid = try_face()
                tried = True
    return x, InnerSolveInfo(resid, it, resid > tol, evals, tries, accepted, g)


def run_cccp(prob: DcProblem, cfg: CccpConfig, w0=None) -> IterateTrace:
    """Outer CCCP loop; the trace's residual column holds the
    linearization-gap certificate ||grad v(w^(k-1)) - grad v(w^(k))||.
    The loop stops on "tol" at the first step where that gap plus the
    step's inner residual, a bound on the KKT distance of the DC
    objective at the new iterate, is at most ``cfg.tol``;
    ``trace.converged`` is set exactly then.
    ``trace.meta`` records the guarantee ``certify`` checks, ``tol``, the
    ``stop_reason`` ("tol" or "budget"), ``kkt`` (the exact residual of
    the DC objective at the final iterate) and, per inner solve, its
    residual, proximal-gradient steps, gradient evaluations, face solves
    tried and whether a face solve ended it.

    For least squares the objective column comes from one
    ``value_and_grad`` at the start point, carried forward by the exact
    quadratic identity of the module docstring with the gradient each
    inner solve returns; other losses evaluate ``prob.objective`` at
    every iterate.  ``kkt`` evaluates nothing: the last inner solve's
    gradient plus the last linearization gap is the DC objective's smooth
    gradient at the final iterate.
    """
    w = np.zeros(prob.p) if w0 is None else np.asarray(w0, dtype=float).ravel().copy()
    if w.shape[0] != prob.p:
        raise ValueError(f"w0 has length {w.shape[0]}, expected {prob.p}")
    w = prob.project(w)
    trace = IterateTrace(iterates=SparseIterates())
    trace.meta = {
        "solver": "cccp",
        "gamma_u": prob.gamma_u,
        "l1_weight": prob.l1_weight,
        "ridge": prob.ridge,
        "v_lipschitz": prob.v_lipschitz(),
        "tol": cfg.tol,
        "inner_tol": cfg.inner_tol,
        "inner_residuals": [],
        "inner_iterations": [],
        "inner_gradient_evals": [],
        "inner_face_tries": [],
        "inner_face_accepted": [],
        "any_inexact": False,
        # the guarantee certify() checks; an inexact inner solve may give
        # back up to 2 * inner_tol * ||Delta|| of the descent
        "gamma": prob.gamma_u,
        "residual_lipschitz": prob.v_lipschitz(),
        "descent_slack": 2.0 * cfg.inner_tol, "descent_tol": 1e-12, "bound_tol": 1e-10,
    }
    t0 = time.perf_counter()
    carry = isinstance(prob.loss, LeastSquaresLoss)
    if carry:
        f, g_f = prob.loss.value_and_grad(w)
        f_curr = prob._objective_given_loss(w, f)
    else:
        f_curr = prob.objective(w)
    if not np.isfinite(f_curr):
        raise FloatingPointError("objective is not finite at the starting point")
    trace.append(0, f_curr, 0.0, 0.0, time.perf_counter() - t0, w)
    g_v = prob.v_grad(w)

    for k in range(cfg.max_iter):
        w_next, info = cccp_step(w, prob, cfg)
        trace.meta["inner_residuals"].append(info.residual)
        trace.meta["inner_iterations"].append(info.iterations)
        trace.meta["inner_gradient_evals"].append(info.gradient_evals)
        trace.meta["inner_face_tries"].append(info.face_tries)
        trace.meta["inner_face_accepted"].append(info.face_accepted)
        trace.meta["any_inexact"] = trace.meta["any_inexact"] or info.inexact
        delta = w_next - w
        if carry:
            # grad f(w+) = grad s(w+) + grad v(w) - ridge * w+
            g_next = info.smooth_grad + g_v
            if prob.ridge:
                g_next -= prob.ridge * w_next
            f += 0.5 * float((g_f + g_next) @ delta)
            g_f = g_next
            f_next = prob._objective_given_loss(w_next, f)
        else:
            f_next = prob.objective(w_next)
        g_v_next = prob.v_grad(w_next)
        gap = g_v - g_v_next
        gap_norm = _norm(gap)
        trace.append(k + 1, f_next, _norm(delta), gap_norm, time.perf_counter() - t0,
                     w_next)
        w, g_v = w_next, g_v_next
        if gap_norm + info.residual <= cfg.tol:
            trace.converged = True
            break

    trace.final_w = w
    trace.meta["stop_reason"] = "tol" if trace.converged else "budget"
    trace.meta["kkt"] = _subproblem_residual(w, info.smooth_grad + gap, prob.l1_weight,
                                             prob.box)
    return trace
