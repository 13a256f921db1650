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
curvature search: the first L_k with

    <grad f(w+) - grad f(w), w+ - w> <= (L_k/2) ||w+ - w||^2

is taken; L_k = L_f (mu_k = mu) needs no check.  The search starts at
c = 1.1 times the curvature 2 <grad f(w+) - grad f(w), w+ - w> /
||w+ - w||^2 measured along the previous step, and a failed trial moves
L_k to c times the curvature it measured, which is above L_k (the
adaptive curvature of SpaRSA, Wright, Nowak & Figueiredo, 2009, and of
Nesterov's composite gradient method, 2013).  For the convex losses
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
The descent is tested as ``certify`` reads it, a margin
(``diagnostics._descent_margin``) of at least 0, so an accepted row
never reads a negative descent margin there.
A momentum direction along which f ascends at w,
<grad f(w), w - w_prev> > 0, restarts without a try (the gradient
restart of O'Donoghue & Candes, 2015).  Over the sparse-ls-prox
benchmark pool such tries fail the safeguard five times as often as the
others (25.6% against 5.2%), and the restart saves 4.6% of the loss
evaluations (3455 against 3620 without it); on logistic-dense it costs
0.5% (2193 against 2182), where 9 of 1580 tries are along an ascent.

``run_mm`` evaluates the loss once per trial: ``value_and_grad(w+)``
gives F(w+) for the trace and grad f(w+), which checks the curvature,
certifies the step and is carried into the next one (with zeta'(|w+|)
for scheme "b").  So a trial costs one ``X @ w``, one ``X.T @ r`` and,
for scheme "a", one prox; an accepted step adds one sum of zeta(|w+|)
and at most one evaluation of zeta'.  An extrapolated try adds no
evaluation at y: g_y combines the two gradients already carried, for
every loss.  The step certificate is built from these by the kernels of
``diagnostics``, and the exact KKT residual only at the first and last
iterate.

A step keeps few arrays of length p alive, with the bits of every trace
unchanged.  zeta(0) = 0, so the sum of zeta(|w+|) runs zeta on the
support of w+ only (``Penalty._support_sum``, which ``reg_value``
calls), and the trace row stores that support as it is.  The search
hands back its step d = w+ - anchor, in which the certificate scales by
mu_k in place; y is built in the buffer of the momentum w - w_prev.  A
failed trial's outputs, a rejected try's arrays and, once y and g_y are
built, w_prev and grad f(w_prev) are dropped before the next trial.

``run_mm`` and ``cccp.run_cccp`` each yield their rows as one named row
type, ``_Row``, and record them through one run loop, ``_record``.  A row
carries the iterate, its gradient, F, the step norm, the residual, mu_k,
beta_k and the iterate's support, and then the facts of the step that
produced it: here whether the step restarted the momentum and whether it
proved L_f too low, for CCCP how its inner solve ended.  ``_record``
commits a row's facts only when it records the row, so a row the stop
rule rejects leaves no trace, and each solver reads its ``meta`` counts
and lists off the facts of the recorded steps.  A new per-row fact is a
field of ``_Row`` that the solver's generator fills; ``_record`` needs no
change.
"""

from __future__ import annotations

import math
import numbers
import time
import warnings
from collections import defaultdict, namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

# kkt_residual and subgradient_residual are not called here, but stay
# importable from this module: perfbench/tracer.py patches them on it
from .diagnostics import (_check_mu, _check_step, _descent_margin, _kkt_distance,  # noqa: F401
                          _norm, _residual_lipschitz, _step_subgradient, _stop_quantity,
                          kkt_residual, subgradient_residual)
from .losses import _vector
from .penalties import LogEpsilonPenalty, Penalty, UnsupportedPenaltyError

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

    ``tol`` is in KKT units: the run stops at the first step whose
    certified residual ||B|| (see ``run_mm``) is at most tol, which bounds
    the distance from 0 to the subdifferential of F at the new iterate.

    ``record_iterates`` keeps every iterate in ``trace.iterates``, each
    stored by its nonzeros (see ``SparseIterates``), so a sparse run's
    trace costs O(nnz) memory per row, not O(p); False records none.
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
        if not isinstance(self.max_iter, numbers.Integral):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not 0 <= self.tol < np.inf:
            raise ValueError("tol must be finite and nonnegative")


class SparseIterates(Sequence):
    """The iterates of a trace, each row kept as the indices of its nonzero
    entries and the values there: O(nnz) memory per row in place of a
    dense copy's O(p).

    Reading gives fresh dense float arrays of length p, for an integer
    or negative index, a slice (a list) and iteration alike, so writing
    to one leaves the trace as it was.  Every zero entry comes back as
    +0.0: a -0.0, which the prox's ``copysign`` can leave in an iterate,
    is not stored.
    """

    def __init__(self, rows=()):
        self._p = None
        self._index: list[np.ndarray] = []
        self._value: list[np.ndarray] = []
        for w in rows:
            self.append(w)

    def append(self, w, support=None) -> None:
        """Store the iterate w.  ``support``, when given, is the pair (the
        indices of w's nonzero entries, w's values there) and is stored as
        it is, with no second scan of w."""
        w = np.asarray(w, dtype=float)
        if w.ndim != 1:
            raise ValueError(f"an iterate must be 1-dimensional, got shape {w.shape}")
        if self._p is None:
            self._p = w.shape[0]
        elif w.shape[0] != self._p:
            raise ValueError(f"iterate has length {w.shape[0]}, expected {self._p}")
        if support is None:
            # np.flatnonzero(w) gives the same indices but tests each float
            # through a per-element call, about ten times slower at p = 2000
            idx = (w != 0.0).nonzero()[0]
            support = idx, w[idx]
        self._index.append(support[0])
        self._value.append(support[1])

    def __len__(self) -> int:
        return len(self._index)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[j] for j in range(*k.indices(len(self)))]
        idx = self._index[k]
        w = np.zeros(self._p)
        w[idx] = self._value[k]
        return w


@dataclass
class IterateTrace:
    """Per-iterate record of a solver run.

    Row k holds the objective at the k-th visited iterate, the step norm
    ||w^(k) - w^(k-1)|| (0 for the first row), a residual certificate for
    that iterate, the cumulative wall time when it was produced, the
    surrogate weight mu_k of the step that produced it (None for the
    first row and for solvers without one) and its extrapolation weight
    beta_k (0 for a plain step, None for the first row and for solvers
    that do not extrapolate).  The first row's residual is the exact KKT
    distance for ``run_mm``, and 0.0 for ``run_cccp``, whose residual is
    a linearization gap that no step has produced yet.  The objective
    column is nonincreasing (up to evaluation roundoff once the per-step
    decrease falls below one ulp of F) for any valid majorization run.

    ``iterates`` is None when the run recorded none, else a
    ``SparseIterates``: row k reads as a fresh dense copy of the k-th
    iterate, with its zeros as +0.0.  An iterates list passed at
    construction is converted to one.
    """

    iters: list[int] = field(default_factory=list)
    objective: list[float] = field(default_factory=list)
    step_norm: list[float] = field(default_factory=list)
    residual: list[float] = field(default_factory=list)
    elapsed_sec: list[float] = field(default_factory=list)
    mu: list[float | None] = field(default_factory=list)
    beta: list[float | None] = field(default_factory=list)
    iterates: SparseIterates | None = None
    final_w: np.ndarray | None = None
    converged: bool = False
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.iterates is not None and not isinstance(self.iterates, SparseIterates):
            self.iterates = SparseIterates(self.iterates)

    def append(self, k: int, objective: float, step_norm: float,
               residual: float, elapsed: float, w=None, mu: float | None = None,
               beta: float | None = None, support=None) -> None:
        """Add row k; ``support`` goes with w to ``SparseIterates.append``."""
        self.iters.append(int(k))
        self.objective.append(float(objective))
        self.step_norm.append(float(step_norm))
        self.residual.append(float(residual))
        self.elapsed_sec.append(float(elapsed))
        self.mu.append(None if mu is None else float(mu))
        self.beta.append(None if beta is None else float(beta))
        if self.iterates is not None and w is not None:
            self.iterates.append(w, support)

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
    return f + float(np.vdot(g, d)) + 0.5 * mu * float(np.vdot(d, d))


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


def _soft_threshold(z: np.ndarray, thresh) -> np.ndarray:
    """sign(z) max(|z| - thresh, 0): the exact prox of thresh * |.|_1.

    It takes no box.  ``cccp`` clamps its output to the box, which gives
    the prox of thresh * |.|_1 plus the box indicator; no box there means
    the box (-inf, inf), normalized once when the ``DcProblem`` is built.
    """
    out = np.abs(z)
    out -= thresh
    np.maximum(out, 0.0, out=out)
    np.copysign(out, z, out=out)
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
    so scheme "b" under that penalty IS the re-weighted-l1 method.  They
    are that penalty's derivative, so its parameter checks apply: lam
    must be positive and finite, and lam / epsilon^2 finite.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    return LogEpsilonPenalty(lam, epsilon).deriv(np.abs(np.asarray(w, dtype=float)))


# The margin c of the curvature search: a search starts at c times the
# curvature measured along the previous accepted step, and a failed trial
# moves L to c times the curvature it measured.  Measured, not derived: over
# the 40 pool seeds of the two MM benchmark workloads, c = 1.1 took 2193 loss
# evaluations for 1873 steps on logistic-dense and 3455 for 2692 on
# sparse-ls-prox, against 2993 for 1928 and 3855 for 2845 when a search
# started at the measured curvature itself and doubled L after a failure.
# c = 1.02 took fewer steps but more evaluations (2256, 3531); from c = 1.15
# up the steps grow (1898, 2734 at 1.15; 2012, 3283 at 1.5).
_CURVATURE_MARGIN = 1.1


def _curvature_search(trial, x, g, L_start: float, L_max: float, L_min: float):
    """The first curvature L, from L_start clipped to [L_min, L_max], whose
    trial step passes the descent check.

    ``trial(L)`` returns a tuple that starts with x+ and grad f(x+) for
    the step taken with curvature L from x, where g = grad f(x).  L is
    accepted when <grad f(x+) - g, x+ - x> <= (L/2) ||x+ - x||^2, which
    for a convex f gives f(x+) <= f(x) + <g, x+ - x> + (L/2) ||x+ - x||^2;
    L_max, a global curvature bound, is accepted without the check.  A
    failed trial measured a curvature 2 <grad f(x+) - g, x+ - x> /
    ||x+ - x||^2 above L, and the next trial takes c times it
    (``_CURVATURE_MARGIN``), capped at L_max; L doubles instead when that
    measurement is not a finite number above L.  So L grows by at least
    the factor c per failed trial.  Both inner products are ``np.vdot``,
    the same BLAS dot as ``@``, which gives inf without a warning where
    the sum overflows.

    Returns (L, trial(L), the start for the next step, the step d = x+ -
    x, bounded).  The start is c times the curvature measured
    along the step taken, or L when that is not positive (or not a
    number).  ``bounded`` says whether <grad f(x+) - g, d> <= L_max
    ||d||^2, which holds whenever L_max is a Lipschitz constant of grad
    f; it can be false only for an L_max taken unchecked.  (The check
    itself may fail at a valid L_max: it asks for L/2 in place of L,
    which a convex f needs to majorize at L.)
    """
    L = min(max(L_start, L_min), L_max)
    while True:
        out = trial(L)
        d = out[0] - x
        dd = float(np.vdot(d, d))
        curv = float(np.vdot(out[1] - g, d))
        passed = curv <= 0.5 * L * dd
        if passed or L >= L_max:
            break
        # c times the curvature this trial measured, which is above L; L
        # doubles where that measurement is not a finite number above L
        jump = _CURVATURE_MARGIN * 2.0 * curv / dd if dd > 0.0 else math.nan
        L = min(jump if L < jump < math.inf else 2.0 * L, L_max)
        # the failed trial's arrays are dead; the next trial runs without them
        out = d = None
    measured = 2.0 * curv / dd if dd > 0.0 else 0.0
    bounded = passed or curv <= L_max * dd
    return L, out, _CURVATURE_MARGIN * measured if measured > 0.0 else L, d, bounded


# Cap on the extrapolation weight beta_k, which otherwise follows FISTA's
# t-sequence: beta_k = (t_k - 1) / t_{k+1}, t_1 = 1, t_{k+1} = (1 +
# sqrt(1 + 4 t_k^2)) / 2.  The convergence theory of extrapolated proximal
# gradient needs sup beta_k < 1.  The value is measured, not derived.  Over
# the benchmark pools (steps / loss evaluations), 0.6 takes 1873 / 2193 on
# logistic-dense and 2692 / 3455 on sparse-ls-prox; 0.7 takes 1918 / 2263
# and 2656 / 3389.  0.5 takes 1767 / 1941 (11.5% fewer evaluations) and
# 2748 / 3490 (1.0% more), but acceptance criterion 4 then fails (kkt 0.04924
# above B_norm 0.01872): it recomputes each step's certificate at the cap mu
# from the previous iterate, not from the mu_k and anchor the step used.
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


def _start_point(w0, p: int, project=np.copy) -> np.ndarray:
    """The point a run starts from, a new array: w0 (0 when None) through
    ``project``, a copy for ``run_mm`` and the box projection for
    ``run_cccp``.  It is refused unless finite, before any evaluation."""
    w = project(np.zeros(p) if w0 is None else _vector(w0, p, "w0"))
    if not np.isfinite(w).all():
        raise ValueError("w0 must be finite where the run starts")
    return w


# One row of a run, as a solver's generator yields it to ``_record``: the
# iterate w, the gradient g that ``kkt`` reads there, F(w), the step norm,
# the residual, the step's surrogate and extrapolation weights mu and beta,
# and w's nonzero pair for the trace (see ``SparseIterates.append``).  The
# fields from ``restart`` on are facts of the step that produced the row,
# None where the step has none to report:
# - run_mm: True where the step restarted the momentum, and True where its
#   plain step measured a curvature above L_f, so that the run keeps no
#   fact of an ordinary step;
# - run_cccp: how the step's inner solve ended, the fields of its
#   ``InnerSolveInfo`` but the gradient, in their order.
# A generator that runs hot builds its rows positionally: by keyword a row
# costs twice as much (0.95 against 0.46 us, Python 3.11 on a 2-vCPU VM),
# and a tuple 0.08 us.  step and res default to 0.0 and the 11 fields after
# them to None, so a new fact adds its name and one None.
_Row = namedtuple("_Row", "w g f step res mu beta support restart lf_failure inner_residual "
                  "inner_iterations inner_gradient_evals inner_patterns inner_active_set_solved "
                  "inner_inexact", defaults=(0.0, 0.0) + (None,) * 11)

# the index of a row's first step fact, and the facts of a row that has none
_FACTS = _Row._fields.index("restart")
_NO_FACTS = (None,) * (len(_Row._fields) - _FACTS)

# The meta keys of the guarantee ``certify`` checks, which ``_record`` writes
_GUARANTEE = ("gamma", "residual_lipschitz", "descent_slack", "descent_tol", "bound_tol")


def _record(trace: IterateTrace, rows, max_iter: int, tol: float, kkt, guarantee: tuple) -> dict:
    """Run a solver's generator of ``_Row``s into ``trace``: the one run
    loop of ``run_mm`` and ``run_cccp``.

    ``rows`` yields the start point's row, which fills no step fact, then
    one row per step.  A row is recorded with its elapsed time since the
    first row was asked for.  A row whose F is not finite is not
    recorded: at the start point it raises ``FloatingPointError``, later
    it ends the run with ``stop_reason="nonfinite"``.  Otherwise the run
    ends on ``"tol"``, with ``trace.converged`` set, at the first step
    whose stop quantity, ``diagnostics._stop_quantity`` of its residual
    and its inner residual (the quantity ``certify`` reads of the last
    row), is at most tol, or on ``"budget"`` after max_iter steps.
    ``rows`` is resumed only once its last row is recorded, and a row
    commits its step facts only when it is recorded, so a rejected row
    commits nothing.  ``final_w`` is the last recorded w.  ``meta`` takes
    the ``stop_reason``, the ``tol`` of the stop rule (``certify`` judges
    a ``"tol"`` stop against both) and ``kkt``, kkt(w, g) of the last
    row, computed once ``rows`` is closed and has freed its step's
    arrays; then the ``guarantee`` that ``certify`` checks, the values of
    the keys ``_GUARANTEE`` in their order.  No solver writes ``tol``
    itself.

    Returns the step facts of the recorded steps: a ``defaultdict(list)``
    from each fact's field name to its values, in row order, over the
    steps that filled it, so a fact no step filled reads as [].
    """
    t0 = time.perf_counter()
    stop_reason = "budget"
    facts = defaultdict(list)
    for k, row in zip(range(max_iter + 1), rows):
        if not math.isfinite(row.f):
            if not k:
                raise FloatingPointError("objective is not finite at the starting point")
            stop_reason = "nonfinite"
            break
        trace.append(k, row.f, row.step, row.res, time.perf_counter() - t0, row.w, row.mu,
                     row.beta, row.support)
        last = row
        if row[_FACTS:] != _NO_FACTS:
            for name, fact in zip(_Row._fields[_FACTS:], row[_FACTS:]):
                if fact is not None:
                    facts[name].append(fact)
        if k and _stop_quantity(row.res, row.inner_residual) <= tol:
            trace.converged, stop_reason = True, "tol"
            break
    rows.close()
    trace.final_w = last.w
    trace.meta.update(stop_reason=stop_reason, tol=tol, kkt=kkt(last.w, last.g))
    trace.meta.update(zip(_GUARANTEE, guarantee))
    return facts


def run_mm(prob: ProblemInstance, config: MmConfig, w0=None) -> IterateTrace:
    """Run the majorize-minimize loop until a step's certified residual
    drops to ``config.tol`` or ``config.max_iter`` steps were taken.

    The residual of a step is ||B||, B the member of the subdifferential
    of F at the new iterate that the step gives (``trace.residual``), so
    a run that stops on ``tol`` has certified dist(0, dF) <= tol at its
    final iterate.  ``trace.converged`` is set exactly then.

    With descent slack (gamma = mu - L_f > 0) each step first tries the
    safeguarded extrapolated step (see the module docstring) and falls
    back to the plain step from w when it is rejected; without slack
    every step is plain.  ``trace.mu`` holds each step's surrogate weight
    mu_k <= mu and ``trace.beta`` its extrapolation weight (0 for a plain
    step).  ``trace.meta`` records why the run stopped
    (``stop_reason``), the guarantee ``certify`` checks, ``kkt`` at the
    final iterate, ``loss_evals`` (the loss evaluations of the curvature
    searches, one per trial, the rejected last step's included) and,
    counted over the recorded steps, ``extrapolated_steps`` (those with
    beta_k > 0), ``restarts`` (the momentum resets: rejected tries and
    those skipped by the gradient restart) and
    ``lf_curvature_failures``: the plain steps taken unchecked at L_k =
    L_f along which <grad f(w+) - grad f(w), w+ - w> > L_f ||w+ - w||^2,
    each a proof that L_f (for least squares a Lanczos estimate, which
    can only be low) is no Lipschitz constant of grad f.  Extrapolated
    tries do not count: their gradient g_y is an estimate.  The last two
    are the ``restart`` and ``lf_failure`` facts of the rows (``_Row``).

    The rows are recorded by ``_record``, the run loop ``run_cccp``
    shares, which sets the stop rule: ``stop_reason`` is "tol", "budget"
    or "nonfinite".  A w0 that is not finite, a mu that is not positive
    and finite and a scheme "b" whose penalty cannot be linearized are
    refused before the loss is evaluated, and a non-finite objective at
    the start raises ``FloatingPointError``.  One later in the run ends it
    with ``stop_reason="nonfinite"``: the trace keeps every finite row, so
    the non-finite objective belongs to iteration ``len(trace)`` and
    ``final_w`` is the last finite iterate, where ``kkt`` is evaluated.

    Beyond the data and the trace, a run holds about 8.4 arrays of
    length p at its peak for scheme "a" and 10.4 for scheme "b" (see
    the end of the module docstring); ``tests/test_mm.py`` guards both.
    """
    mu, lf = _resolve_mu(prob, config)
    loss, pen = prob.loss, prob.penalty
    linearize = config.scheme == "b"
    trace = IterateTrace(iterates=SparseIterates() if config.record_iterates else None)
    trace.meta = {
        "scheme": config.scheme,
        "mu": mu,
        "lipschitz": lf,
        "rho": config.rho,
        "penalty": {"kind": pen.kind, **pen.params()},
        "loss": loss.kind,
    }
    # zeta' from the penalty's formula: every argument below is np.abs of a
    # float array, which the public deriv would only convert and sign-check
    zeta_prime = pen._deriv
    # mu_k = L_k + gamma keeps the descent slack of mu = L_f + gamma; without
    # slack the search is pinned at L_f and no step is extrapolated
    gamma = mu - lf
    l_min = 0.0 if gamma > 0 else lf
    # refused before any evaluation: a mu that is not positive and finite, and
    # scheme b with a penalty that cannot be linearized
    _check_step(mu, pen, linearize)
    # the bound certify() checks, valid for every mu_k <= mu
    bound_lipschitz = _residual_lipschitz(mu, lf, pen, linearize)
    loss_evals = 0

    def rows(w):
        """The start point's row, then one row per step from it (see
        ``_record``).  The run's state lives in this generator, so closing
        it frees every array of the last step."""
        f_loss, g = loss.value_and_grad(w)
        support, r_w = pen._support_sum(w)
        f_curr = f_loss + r_w
        yield _Row(w, g, f_curr, 0.0, _kkt_distance(w, g, pen), support=support)
        # the step from w needs g = grad f(w) and, for scheme b, omega = zeta'(|w|)
        omega = zeta_prime(np.abs(w)) if linearize else None
        # w_prev and g_prev are set once a step is taken, before any try reads
        # them: the first step has t = 1, so beta = 0
        l_start, t = lf, 1.0

        def mm_step(x, g_x, omega_x):
            """The curvature-searched step from the anchor x: the new iterate
            z, its loss gradient, F there, mu_k, the next search's start, the
            step d = z - x, whether the curvature along d is within
            L_f (see ``_curvature_search``) and z's support for the trace row."""
            def trial(L):
                nonlocal loss_evals
                loss_evals += 1
                mu_k = mu if L >= lf else L + gamma
                z = _mm_update(x, g_x, mu_k, pen, omega_x)
                f_loss, g_z = loss.value_and_grad(z)
                return z, g_z, f_loss, mu_k

            _, (z, g_z, f_loss, mu_k), l_next, d, bounded = _curvature_search(
                trial, x, g_x, l_start, lf, l_min)
            # r(z) as reg_value sums it: zeta on z's support only
            support, r_z = pen._support_sum(z)
            return z, g_z, f_loss + r_z, mu_k, l_next, d, bounded, support

        def certificate(z, d, g_z, g_x, omega_x, mu_k):
            """zeta'(|z|) (scheme b) and ||B||, B the member of dF(z) that the
            step d = z - x from the anchor x gives: grad f(z) plus its prox
            optimality term.  Overwrites d and omega_x, which no later step
            reads."""
            omega_z = None
            if linearize:
                omega_z = zeta_prime(np.abs(z))
                omega_x -= omega_z
            _, B = _step_subgradient(z, d, g_z, g_x, mu_k, omega_x)
            return omega_z, _norm(B)

        # Each step below returns its row, zeta'(|z|) for scheme b and the
        # next search's start; the arrays of a rejected try or a finished
        # certificate die on return.

        def extrapolated_step(beta):
            """The safeguarded step from y = w + beta (w - w_prev), None when the
            gradient restart skips it or the safeguard rejects it.  It drops
            w_prev and g_prev: they serve y and g_y only, and the next step's
            are w and g."""
            nonlocal w_prev, g_prev
            y, g_last = w - w_prev, g_prev
            w_prev = g_prev = None
            # gradient restart: momentum along which f ascends at w (or whose
            # slope is not a number) is not tried (see the module docstring)
            if not float(np.vdot(g, y)) <= 0.0:
                return None
            # y = w + beta m, in the buffer of the momentum m
            y *= beta
            y += w
            g_y = _gradient_at_y(beta, g, g_last)
            g_last = None
            omega_y = zeta_prime(np.abs(y)) if linearize else None
            z, g_z, f_z, mu_k, l_next, d, _, support = mm_step(y, g_y, omega_y)
            # the step from y is d; y itself is dead
            y = None
            step = _norm(z - w)
            # the safeguard: the descent and the subgradient bound of a plain
            # step, checked exactly in certify's arithmetic; a non-finite F(z)
            # fails the first
            if not _descent_margin(f_curr, f_z, step, gamma) >= 0.0:
                return None
            omega_z, res = certificate(z, d, g_z, g_y, omega_y, mu_k)
            if not res <= bound_lipschitz * step:
                return None
            # g_y is an estimate, so its curvature proves nothing about L_f
            return _Row(z, g_z, f_z, step, res, mu_k, beta, support), omega_z, l_next

        def plain_step(restart):
            """The step from w, after a restart of the momentum (``restart``
            True) or not (None); where F is not finite, it ends the run (see
            ``_record``) and no certificate is built.  grad f is exact at w,
            so a curvature above L_f along the step shows that L_f is no
            Lipschitz constant of grad f (the row's ``lf_failure``)."""
            z, g_z, f_z, mu_k, l_next, d, bounded, support = mm_step(w, g, omega)
            if not np.isfinite(f_z):
                return _Row(z, g_z, f_z), None, l_next
            step = _norm(d)
            omega_z, res = certificate(z, d, g_z, g, omega, mu_k)
            return (_Row(z, g_z, f_z, step, res, mu_k, 0.0, support, restart,
                         None if bounded else True), omega_z, l_next)

        while True:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = min((t - 1.0) / t_next, _BETA_MAX) if gamma > 0 else 0.0
            # a try that is skipped or rejected restarts the momentum (t = 1),
            # and the plain step is taken
            out = extrapolated_step(beta) if beta > 0.0 else None
            row, omega, l_start = out or plain_step(beta > 0.0 or None)
            yield row
            w_prev, g_prev = w, g
            w, g, f_curr, t = row.w, row.g, row.f, 1.0 if row.restart else t_next

    # the start point is held by the generator only: with no finite step,
    # final_w is the start point
    facts = _record(trace, rows(_start_point(w0, prob.p)), config.max_iter, config.tol,
                    lambda w, g: _kkt_distance(w, g, pen),
                    (gamma, bound_lipschitz, 0.0, 1e-9, 1e-8))
    # a step's beta is positive exactly when it is extrapolated
    trace.meta.update(loss_evals=loss_evals, extrapolated_steps=sum(b > 0 for b in trace.beta[1:]),
                      restarts=len(facts["restart"]),
                      lf_curvature_failures=len(facts["lf_failure"]))
    return trace
