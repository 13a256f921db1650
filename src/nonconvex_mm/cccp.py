"""Concave-convex procedure for box-constrained DC objectives.

The objective is split as  F = delta_box + u - v  with

    u(w) = f(w) + (ridge/2) ||w||^2 + kappa ||w||_1,
    v(w) = sum_i h(w_i),

where ``h`` is the convex remainder of a concave penalty:
h(t) = kappa*|t| - zeta(|t|) with kappa = zeta'(0), so u - v = f +
(ridge/2) ||w||^2 + r(w).  F is evaluated in that form, with r(w) the
penalty's support sum, the formula ``run_mm`` uses: with ridge = 0, inside
the box, F is the MM objective f + r to the bit.  No box means the box
(-inf, inf): ``DcProblem`` normalizes its box once, at construction,
into two float arrays of length p, and every routine below takes that
pair.

Each outer iteration linearizes v at the current point and solves the
resulting convex subproblem.  Strong convexity of u must be certified up
front: either the least-squares Gram matrix has full rank or an explicit
ridge is added (which changes F and is recorded as such).  An inner
solve ends only on the subproblem's exact first-order residual, so the
route to its answer is free.

For a least-squares loss the subproblem is a strictly convex quadratic
plus kappa*|.|_1 and the box, and an exact active-set method solves it:
block principal pivoting (Judice & Pires, 1994; Kim & Park, 2011).
Each coordinate has a state: at its lower bound, free and negative, at
zero, free and positive, or at its upper bound, in that order along the
line, and only the states its box allows.  With F the free coordinates,
a pattern of states is solved by one Cholesky factorization (G +
ridge*I is positive definite, since gamma_u > 0 is certified):

    (G_FF + ridge*I) x_F = b'_F - kappa*sign(x_F) - G_FN x_N,

b' = b + grad v(w), with every other coordinate at 0 or at its bound.
A free coordinate that leaves its open interval, or a fixed one whose
subgradient interval misses -grad s, is a violator and moves to the next
state its box allows on the violated side.  The fixed violators are the
nonzero entries of the vector whose norm is the exact residual, grad s
plus the point of the subgradient interval nearest -grad s, and an
entry's sign gives the side; so one vector per pattern point serves the
stop test and the exchange rule.  The pivoting starts from the
pattern of the start point.  A start point with no free coordinate is
that pattern's point and is checked as the first; at any other start
point grad s is not formed.  It exchanges every violator; after 3
exchanges that do not lower the fewest violators seen, it exchanges only
the last violator (Murty's rule) until the count falls below that.  It ends
when the pattern's point has an exact residual, from one Gram matvec, at
most inner_tol, or has no violator, and that point is returned.  A point
with no violator solves the subproblem up to rounding; it is flagged
inexact when its residual still misses inner_tol, and no proximal
gradient follows it.  After ``inner_max_iter`` patterns, or at a free
block that is not numerically positive definite, the inner solve falls
back to proximal gradient from the start point.

Proximal gradient, which runs the inner solve of every other loss, uses
the exact prox of kappa*|.|_1 + delta_box (soft-threshold then clamp,
exact per coordinate).  Each inner step 1/L_k comes from the certified
curvature search that ``run_mm`` uses, with L_k between the
strong-convexity modulus gamma_u and the global bound L_f + ridge.  The
loop stops on the prox step's own certificate.  With s the smooth part of the subproblem,
the step x -> x+ with curvature L_k gives

    B = grad s(x+) - grad s(x) - L_k (x+ - x),

a member of the subproblem's subdifferential at x+ (box normal cone
included), so ||B|| bounds the exact first-order residual from above
(the composite gradient mapping of Nesterov, 2013).  It is the scheme
"a" step certificate of ``run_mm``, built by the same kernel.  The exact
residual runs only at the start point, to confirm a stop on ||B|| <=
inner_tol, and at the budget, so the residual an inner solve reports is
always the exact one.

For least squares the outer objective is carried, not re-evaluated:
f(w_0) and grad f(w_0) are taken once, and each outer step adds the
exact quadratic identity

    f(w+) = f(w) + <grad f(w) + grad f(w+), w+ - w> / 2,

with grad f(w+) = grad s(w+) + grad v(w) - ridge*w+ from the inner
solve's last gradient.  At the zero start f(0) = ||y||^2 / (2n) and
grad f(0) = -b come from the Gram pair: the residual there is -y, and
X^T (-y) is the exact negation of X^T y, so they are the bits
``value_and_grad(0)`` returns.  Any other start point takes one
``value_and_grad``.  So a least-squares solve makes at most one
full-design pass, and none from 0.  The identity has no ||y||^2 term, so it
does not cancel when the fit is tight, as the Gram form w^T G w / 2 -
b^T w + ||y||^2 / (2n) would.  Other losses make one ``value_and_grad``
call at the start point and one ``loss.value`` call per outer step.

The inner gradient of a least-squares loss is G x - (b + grad v(w)) +
ridge*x, with the Gram pair (G, b) = (X^T X / n, X^T y / n) cached on
the data set: p*p flops per evaluation, whatever the shape or sparsity
of the design.  So a least-squares CCCP solve holds the p x p Gram pair,
which the default modulus of ``dc_problem_from_penalty`` forms anyway.
Every other loss calls ``loss.gradient`` for each evaluation, which
costs 2*nnz(X).
The strong-convexity certificate of a least-squares loss makes one
eigen-solve of the cached Gram matrix; an L_f first asked for after it
is the top of the same spectrum, so no Lanczos solve runs.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dposv

from .diagnostics import _interval_gap, _norm, _step_subgradient
from .losses import (LeastSquaresLoss, RankDeficientError, _vector,
                     least_squares_strong_convexity)
from .mm import (IterateTrace, SparseIterates, _curvature_search, _record, _Row,
                 _soft_threshold, _start_point)
from .penalties import Penalty, UnsupportedPenaltyError, _abs_interval

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


def _as_bounds(bounds, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The box bounds (lo, hi) as two float arrays of length p; None, no
    box, is (-inf, inf).  The only place a box may be None."""
    lo, hi = (-np.inf, np.inf) if bounds is None else bounds
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (p,)).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (p,)).copy()
    if np.isnan(lo).any() or np.isnan(hi).any():
        raise ValueError("box bounds must not be NaN")
    # each coordinate needs a finite value in its box
    if np.any(lo == np.inf):
        raise ValueError("box lower bounds must be below +inf")
    if np.any(hi == -np.inf):
        raise ValueError("box upper bounds must be above -inf")
    if np.any(lo > hi):
        raise ValueError("box lower bounds exceed upper bounds")
    return lo, hi


@dataclass(frozen=True)
class DcProblem:
    """Box-constrained DC objective with certified strong convexity.

    ``box`` is None or a pair (lo, hi) of scalars or length-p arrays.  It
    is normalized once, at construction, into two float arrays of length
    p, with no box being (-inf, inf), so ``prob.box`` is always that pair.
    ``l1_weight``, ``ridge`` and ``gamma_u`` must be finite, and a
    remainder's ``kappa`` must equal ``l1_weight``: F = f + (ridge/2)||w||^2
    + r(w) is u - v only then.
    """

    loss: object
    l1_weight: float
    remainder: ConvexRemainder | None
    gamma_u: float
    ridge: float = 0.0
    box: tuple | None = None

    def __post_init__(self):
        for name in ("l1_weight", "ridge", "gamma_u"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        for name in ("l1_weight", "ridge"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name.replace('_', ' ')} must be nonnegative")
        if self.remainder is not None and self.remainder.kappa != self.l1_weight:
            raise ValueError(f"l1_weight {self.l1_weight!r} must equal the remainder's "
                             f"kappa {self.remainder.kappa!r}")
        if not self.gamma_u > 0:
            raise ValueError(
                "u must be certified strongly convex (gamma_u > 0); add a ridge "
                "or use a full-column-rank least-squares design"
            )
        object.__setattr__(self, "box", _as_bounds(self.box, self.loss.data.p))

    @property
    def p(self) -> int:
        return self.loss.data.p

    def project(self, w) -> np.ndarray:
        """The point of the box nearest w, as a new array."""
        return np.clip(_vector(w, self.p), *self.box)

    def feasible(self, w) -> bool:
        w, (lo, hi) = _vector(w, self.p), self.box
        return bool(np.all(w >= lo) and np.all(w <= hi))

    def v_grad(self, w) -> np.ndarray:
        if self.remainder is None:
            return np.zeros(self.p)
        return self.remainder.deriv(w)

    def v_lipschitz(self) -> float:
        return 0.0 if self.remainder is None else self.remainder.deriv_lipschitz()

    def objective(self, w) -> float:
        """Full DC objective; +inf outside the box."""
        w = _vector(w, self.p)
        if not self.feasible(w):
            return float("inf")
        return self._objective_given_loss(w, self.loss.value(w))[1]

    def _objective_given_loss(self, w: np.ndarray, f: float) -> tuple[tuple | None, float]:
        """(support, F(w)), F = f + (ridge/2)||w||^2 + r(w) for a feasible w
        whose loss value f is already known; r(w) is the penalty's support
        sum, the formula of ``run_mm`` and ``reg_value``, and kappa*||w||_1
        with no remainder.  The support is the pair (indices, values) of
        w's nonzero entries that the support sum found, for a trace row;
        None with no remainder, which scans no support.  The ridge term is
        added only for a nonzero ridge: an ||w||^2 that overflows would
        make 0 * inf = NaN of it."""
        val = f + 0.5 * self.ridge * float(np.vdot(w, w)) if self.ridge else f
        if self.remainder is None:
            return None, val + self.l1_weight * float(np.sum(np.abs(w)))
        support, r = self.remainder.penalty._support_sum(w)
        return support, val + r


def dc_problem_from_penalty(loss, penalty: Penalty, box=None, ridge: float = 0.0) -> DcProblem:
    """DC problem whose objective is f + r (plus optional ridge and box).

    Its modulus ``gamma_u`` is ridge plus, for least squares, the smallest
    Gram eigenvalue; a ridge > 0 on a rank-deficient design is the
    modulus by itself.  A caller with another certified modulus builds
    ``DcProblem(..., gamma_u=...)`` directly.
    """
    kappa, remainder = dc_decompose(penalty)
    gamma_u = ridge
    if isinstance(loss, LeastSquaresLoss):
        try:
            gamma_u += least_squares_strong_convexity(loss.data)
        except RankDeficientError:
            # a singular Gram matrix adds nothing to the ridge's modulus
            if not ridge > 0:
                raise
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
    A tol in (0, inner_tol) is refused, since each inner residual may sit
    near inner_tol and the outer stop then never passes; tol = 0 runs the
    budget.
    """

    max_iter: int = 200
    tol: float = 1e-8
    inner_tol: float = 1e-10
    inner_max_iter: int = 10_000

    def __post_init__(self):
        for name in ("max_iter", "inner_max_iter"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if min(self.max_iter, self.inner_max_iter) < 1:
            raise ValueError("iteration limits must be >= 1")
        if not (0 <= self.tol < np.inf and 0 < self.inner_tol < np.inf):
            raise ValueError("tolerances must be finite, with tol >= 0 and inner_tol > 0")
        if 0 < self.tol < self.inner_tol:
            raise ValueError(f"tol {self.tol!r} is below inner_tol {self.inner_tol!r}, so "
                             "the outer stop may never pass; use tol = 0 to run the budget")


class InnerSolveInfo(NamedTuple):
    """How an inner solve ended.  ``residual`` is the exact first-order
    residual of the subproblem at the returned point, and ``smooth_grad``
    the gradient of its smooth part there.  ``iterations`` counts the
    proximal-gradient steps, ``gradient_evals`` the smooth-gradient
    evaluations; ``patterns`` the patterns of the active-set solve, the
    start point's included, and ``active_set_solved`` (0 or 1) whether the
    returned point is its answer.  ``inexact`` says whether the residual
    misses ``inner_tol``.  The fields before ``smooth_grad`` are, in their
    order, the inner-solve facts of a ``run_cccp`` row (``mm._Row``)."""

    residual: float
    iterations: int
    gradient_evals: int
    patterns: int
    active_set_solved: int
    inexact: bool
    smooth_grad: np.ndarray


def _subdiff_interval(x: np.ndarray, kappa: float, box):
    """[lo, hi], kappa times the subdifferential of |x_i|
    (``penalties._abs_interval``) plus the normal cone of the box, which
    makes lo (hi) infinite at a lower (upper) bound."""
    lo, hi = _abs_interval(x, kappa, kappa)
    lo[x <= box[0]] = -np.inf
    hi[x >= box[1]] = np.inf
    return lo, hi


def _subproblem_gap(x: np.ndarray, grad_s: np.ndarray, kappa: float, box):
    """(residual, r) of the subproblem at x: r the ``_interval_gap`` of
    grad_s and the ``_subdiff_interval`` at x, and the residual the exact
    distance from 0 to grad_s + kappa * d|x| + N_box(x), which is ||r||
    inside the box and +inf outside it, where the subproblem has no
    subgradient.  A NaN entry of x is not outside, so it gives NaN."""
    r = _interval_gap(grad_s, *_subdiff_interval(x, kappa, box))
    if (x < box[0]).any() or (x > box[1]).any():
        return float("inf"), r
    return _norm(r), r


def _subproblem_residual(x: np.ndarray, grad_s: np.ndarray, kappa: float, box) -> float:
    """The residual of ``_subproblem_gap``: exact distance from 0 to
    grad_s + kappa * d|x| + N_box(x), +inf outside the box."""
    return _subproblem_gap(x, grad_s, kappa, box)[0]


# The states of a coordinate in an active-set pattern, in the order of the
# values they allow: at the lower bound, free and negative, at zero, free
# and positive, at the upper bound.  The free states have the odd codes,
# and a free state's sign is its code minus _ZERO.
_LOW, _NEG, _ZERO, _POS, _UP = range(5)


def _allowed_states(box) -> np.ndarray:
    """(p, 5) mask of the states each coordinate's box allows: a pinned
    coordinate (lo == hi) has one, and a box that excludes 0 has neither
    zero nor the free state of the other sign."""
    lo, hi = box
    inside = lo < hi
    return np.stack([np.isfinite(lo) & (lo != 0.0), inside & (lo < 0.0),
                     (lo <= 0.0) & (hi >= 0.0), inside & (hi > 0.0),
                     inside & np.isfinite(hi) & (hi != 0.0)], axis=1)


def _pattern_of(x: np.ndarray, box) -> np.ndarray:
    """The state of each coordinate of a point x in the box."""
    state = np.where(x > 0, _POS, np.where(x < 0, _NEG, _ZERO))
    # a bound at 0 is the zero state; a pinned coordinate sits at lo
    state[(x >= box[1]) & (box[1] != 0.0)] = _UP
    state[(x <= box[0]) & (box[0] != 0.0)] = _LOW
    return state


def _pattern_solve(G: np.ndarray, ridge: float, kappa: float, b: np.ndarray,
                   state: np.ndarray, box, grad_s):
    """The point of an active-set pattern and the smooth gradient there,
    or None when the free block is not numerically positive definite.

    Coordinates at zero or at a bound take that value.  The free ones F
    solve the module docstring's system, written as the Newton step
    -(G_FF + ridge*I)^{-1} (g_F + kappa*sign_F) from the fixed part, g
    being grad s there (-b, with no matvec, when the fixed part is 0).
    The step is one Cholesky solve (LAPACK ``posv``) of the free block,
    gathered by one flat-index take, without an |F| x p slice.  Each
    gradient is one ``grad_s`` call.
    """
    x = np.zeros(b.size)
    for code, bound in zip((_LOW, _UP), box):
        at = state == code
        x[at] = bound[at]
    g = grad_s(x) if x.any() else -b
    free = np.flatnonzero(state & 1)
    if free.size:
        # one take by the flat index free[i] * p + free[j], built in place:
        # it peaks at twice the block, fancy indexing G[free[:, None], free]
        # at three times.  G is symmetric, so the transposed block is the
        # same matrix in the Fortran order that posv factors in place
        flat = np.empty((free.size, free.size), dtype=np.intp)
        flat[...] = free
        flat += (free * b.size)[:, None]
        A = G.take(flat).T
        if ridge:
            A.flat[::free.size + 1] += ridge
        _, d, info = dposv(A, g[free] + kappa * (state[free] - _ZERO), overwrite_a=1,
                           overwrite_b=1)
        if info != 0 or not np.isfinite(d).all():
            return None
        x[free] = -d
        g = grad_s(x)
    return x, g


def _check_pattern(x: np.ndarray, g: np.ndarray, kappa: float, box, state: np.ndarray):
    """(residual, violators, up) at the pattern's point x, where the smooth
    gradient is g: the exact residual (``_subproblem_residual``), the
    coordinates whose pattern state is violated, and for each whether it
    must move up the line (else down).

    Both come from ``_subproblem_gap``: its residual, and its vector r,
    the ``_interval_gap`` of g and the ``_subdiff_interval`` at x.  A fixed
    coordinate violates where r_i < 0 or r_i > 0, the signs of the
    directional derivatives g_i + hi_i and g_i + lo_i of the subproblem
    along +e_i and -e_i there, and moves up where r_i < 0.  A free one
    violates when it leaves its open interval, (lo, min(hi, 0)) if
    negative and (max(lo, 0), hi) if positive.
    """
    lo, hi = box
    resid, r = _subproblem_gap(x, g, kappa, box)
    up, down = r < 0.0, r > 0.0
    free = (state & 1).astype(bool)
    if free.any():
        pos = state == _POS
        up = np.where(free, x > np.where(pos, hi, np.minimum(hi, 0.0)), up)
        down = np.where(free, x < np.where(pos, np.maximum(lo, 0.0), lo), down)
    viol = np.flatnonzero(up | down)
    return resid, viol, up[viol]


def _active_set_solve(G: np.ndarray, ridge: float, kappa: float, b: np.ndarray, box,
                      x0: np.ndarray, grad_s, tol: float, budget: int):
    """Block principal pivoting (module docstring) from the pattern of the
    start point x0.

    Each pattern's point is checked once, by ``_check_pattern``.  A start
    point with no free coordinate is its own pattern's point, so it is
    checked as the first, with the smooth gradient there from one
    ``grad_s`` call; at any other start point no gradient is formed.
    Returns ((x, g, residual), patterns)
    for the first pattern whose point has an exact residual at most
    ``tol`` or no violator, or (None, patterns) after ``budget`` patterns
    or at a free block that is not numerically positive definite.
    """
    state = _pattern_of(x0, box)
    if (state & 1).any():
        x = g = None
    else:
        x, g = x0, grad_s(x0)
    fewest, backup, allowed = x0.size + 1, 3, None
    for patterns in range(1, budget + 1):
        if x is None:
            solved = _pattern_solve(G, ridge, kappa, b, state, box, grad_s)
            if solved is None:
                break
            x, g = solved
        resid, viol, up = _check_pattern(x, g, kappa, box, state)
        # no violator: the point solves the subproblem, and only rounding
        # can hold its residual above tol
        if resid <= tol or not viol.size:
            return (x, g, resid), patterns
        if viol.size < fewest:
            fewest, backup = viol.size, 3
        elif backup:
            backup -= 1
        else:
            # Murty's rule: only the last violator moves
            viol, up = viol[-1:], up[-1:]
        # each violator moves to the next state its box allows on its side
        step = np.where(up, 1, -1)
        ahead = (np.arange(5) - state[viol, None]) * step[:, None]
        if allowed is None:
            allowed = _allowed_states(box)
        state[viol] += step * np.where(allowed[viol] & (ahead > 0), ahead, 5).min(axis=1)
        x = None
    return None, patterns


def cccp_step(w, prob: DcProblem, cfg: CccpConfig, g_v=None) -> tuple[np.ndarray, InnerSolveInfo]:
    """Solve the linearized convex subproblem at w: for least squares by
    block principal pivoting, else (or when that misses) by proximal
    gradient.  ``g_v``, when given, is grad v(w), and the step uses it in
    place of ``prob.v_grad(w)``; it returns the same bits either way.  A
    ``g_v`` whose length is not p is refused, as w is.

    The smooth part s is f + ridge minus the linearization of v.  For
    least squares, whatever the design, the smooth gradient is
    G x - (b + grad v(w)) + ridge*x from the data set's cached Gram pair
    and ``loss.gradient`` is never called; for other losses every
    evaluation calls ``loss.gradient``.  For least squares the active-set
    solve of the module docstring runs from the pattern of the projected
    start point, with at most ``cfg.inner_max_iter`` patterns; it checks
    the start point, as its pattern's point, only when no coordinate of
    it is free.  Its point is returned when its exact residual is at
    most ``cfg.inner_tol`` or it has no violator; in the second case it
    is flagged inexact if it misses ``cfg.inner_tol``, and no proximal
    gradient step follows.

    When the pattern budget runs out or a free block is not numerically
    positive definite, and for every other loss, proximal gradient runs
    from the start point, whose exact residual it computes first: the
    start point may already be a solution.  The prox part kappa*|.|_1 +
    delta_box has the exact clamp-after-soft-threshold prox.
    Each step x -> prox(x - grad s(x) / L_k) takes its curvature L_k in
    [gamma_u, L_f + ridge] from ``_curvature_search``, starting at
    L_f + ridge.  The loop stops once the step's certificate
    ||grad s(x+) - grad s(x) - L_k (x+ - x)||, an upper bound on the exact
    residual, drops to ``cfg.inner_tol`` and the exact residual confirms
    it, or after ``cfg.inner_max_iter`` steps, where the last iterate is
    returned flagged inexact if it misses ``cfg.inner_tol``.  The
    returned info carries grad s at the returned point.
    """
    w = _vector(w, prob.p)
    g_v = prob.v_grad(w) if g_v is None else _vector(g_v, prob.p, "g_v")
    ridge, kappa, box, tol = prob.ridge, prob.l1_weight, prob.box, cfg.inner_tol
    gram = prob.loss.data.gram if isinstance(prob.loss, LeastSquaresLoss) else None
    b = None if gram is None else gram[1] + g_v
    evals = patterns = solved = 0

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
        x_next = _soft_threshold(x - g / L, kappa / L)
        np.clip(x_next, *box, out=x_next)
        return x_next, grad_s(x_next)

    x = prob.project(w)
    if gram is not None:
        answer, patterns = _active_set_solve(gram[0], ridge, kappa, b, box, x, grad_s,
                                             tol, cfg.inner_max_iter)
        if answer is not None:
            (x, g, resid), solved = answer, 1
    it = 0
    if not solved:
        # proximal gradient, from the start point, which may already solve
        g = grad_s(x)
        resid = _subproblem_residual(x, g, kappa, box)
        if resid > tol:
            # only proximal gradient steps need L_f, which may cost a Lanczos solve
            L = lip = prob.loss.lipschitz + ridge
        while resid > tol and it < cfg.inner_max_iter:
            it += 1
            L_step, (x_next, g_next), L, d, *_ = _curvature_search(trial, x, g, L, lip,
                                                                   prob.gamma_u)
            _, B = _step_subgradient(x_next, d, g_next, g, L_step, None)
            x, g = x_next, g_next
            if _norm(B) <= tol or it == cfg.inner_max_iter:
                resid = _subproblem_residual(x, g, kappa, box)
    # not <=: a NaN residual (from a NaN start point) is no solve
    return x, InnerSolveInfo(resid, it, evals, patterns, solved, not resid <= tol, g)


def run_cccp(prob: DcProblem, cfg: CccpConfig, w0=None) -> IterateTrace:
    """Outer CCCP loop; the trace's residual column holds the
    linearization-gap certificate ||grad v(w^(k-1)) - grad v(w^(k))||.
    Row 0 reads 0.0: no step has produced a gap there.  ``run_mm``'s row
    0 holds the start point's exact KKT distance; here that would cost
    one ``_subproblem_residual`` per solve (measured at about 3% of a
    30-step least-squares solve at p = 100) for a value no ``certify``
    test reads.
    The loop stops on "tol" at the first step where that gap plus the
    step's inner residual, a bound on the KKT distance of the DC
    objective at the new iterate, is at most ``cfg.tol``;
    ``trace.converged`` is set exactly then.
    ``trace.meta`` records the guarantee ``certify`` checks, ``tol``, the
    ``stop_reason`` ("tol", "budget" or "nonfinite"), ``kkt`` (the exact
    residual of the DC objective at the final iterate) and, per recorded
    step, its inner solve's residual, proximal-gradient steps, gradient
    evaluations, active-set patterns solved and whether the active-set
    point ended it (``inner_residuals`` and the four lists after it), and
    ``any_inexact``.  Each step's row carries its inner solve's info as
    its inner facts (``mm._Row``), and the lists are those facts over the
    recorded steps.

    The rows are recorded by ``mm._record``, the run loop ``run_mm``
    shares, with its stop rule.  The start point is the projection of w0
    onto the box, and one that is not finite is refused with
    ``ValueError`` before any evaluation; a finite box clamps an
    infinite entry of w0 to its bound.  A non-finite objective at the
    start raises ``FloatingPointError``.  One later in the run ends it
    with ``stop_reason="nonfinite"``: the trace keeps every finite row,
    with ``final_w`` the last finite iterate, and that step's inner
    solve, whose row is not recorded, is not listed in ``meta``.

    Every run starts from f and grad f at the start point: for a
    least-squares start at 0 from the Gram pair, and else from one
    ``value_and_grad``.  For least squares the objective column is then
    carried forward by the exact quadratic identity of the module
    docstring with the gradient each inner solve returns; other losses
    make one ``loss.value`` call per outer step.  Every row's F, and the
    support of its iterate that the trace stores, come from
    ``DcProblem._objective_given_loss`` of that loss value.  Every row
    carries the DC objective's smooth gradient at its iterate: grad f +
    ridge*w - grad v at the start point, and the inner solve's gradient
    plus the linearization gap after a step.  ``kkt`` reads the last
    row's, so it evaluates nothing.  grad v is evaluated once per
    iterate, K + 1 times for K steps: the grad v(w^(k)) of a
    linearization gap is handed to the next ``cccp_step``.
    """
    trace = IterateTrace(iterates=SparseIterates())
    trace.meta = {
        "solver": "cccp",
        "l1_weight": prob.l1_weight,
        "ridge": prob.ridge,
        "inner_tol": cfg.inner_tol,
    }
    carry = isinstance(prob.loss, LeastSquaresLoss)

    def rows(w):
        """The start point's row, then one row per outer step (see
        ``mm._record``)."""
        if carry and not w.any():
            # at 0 the residual is -y: f(0) = ||y||^2 / (2n) and grad f(0) = -b
            # are the bits value_and_grad(0) returns, with no pass over X
            data = prob.loss.data
            f, g_f = float(np.vdot(data.y, data.y)) / (2.0 * data.n), -data.gram[1]
        else:
            f, g_f = prob.loss.value_and_grad(w)
        g_v = prob.v_grad(w)
        support, F = prob._objective_given_loss(w, f)
        # the DC objective's smooth gradient at w, which ``kkt`` reads if the
        # run ends there
        yield _Row(w, g_f + prob.ridge * w - g_v, F, support=support)
        while True:
            w_next, info = cccp_step(w, prob, cfg, g_v)
            delta = w_next - w
            if carry:
                # grad f(w+) = grad s(w+) + grad v(w) - ridge * w+
                g_next = info.smooth_grad + g_v
                if prob.ridge:
                    g_next -= prob.ridge * w_next
                f += 0.5 * float(np.vdot(g_f + g_next, delta))
                g_f = g_next
            else:
                f = prob.loss.value(w_next)
            g_v_next = prob.v_grad(w_next)
            gap = g_v - g_v_next
            support, F = prob._objective_given_loss(w_next, f)
            # grad s(w+) plus the gap is the DC objective's smooth gradient at
            # w+, and the gap's norm is the residual; the inner solve's info
            # but its gradient is the row's inner facts
            yield _Row(w_next, info.smooth_grad + gap, F, _norm(delta), _norm(gap), None, None,
                       support, None, None, *info[:-1])
            w, g_v = w_next, g_v_next

    def kkt(w, g):
        """The exact residual at w, where the row's g is the smooth gradient."""
        return _subproblem_residual(w, g, prob.l1_weight, prob.box)

    # the guarantee: an inexact inner solve may give back up to 2 * inner_tol
    # * ||Delta|| of the descent
    facts = _record(trace, rows(_start_point(w0, prob.p, prob.project)), cfg.max_iter, cfg.tol,
                    kkt, (prob.gamma_u, prob.v_lipschitz(), 2.0 * cfg.inner_tol, 1e-12, 1e-10))
    trace.meta.update(
        inner_residuals=facts["inner_residual"], inner_iterations=facts["inner_iterations"],
        inner_gradient_evals=facts["inner_gradient_evals"], inner_patterns=facts["inner_patterns"],
        inner_active_set_solved=facts["inner_active_set_solved"],
        any_inexact=any(facts["inner_inexact"]))
    return trace
