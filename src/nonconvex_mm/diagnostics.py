"""Runtime checks for the convergence theory behind the MM solvers.

Everything here is a computable certificate:

* ``subgradient_residual`` builds the subdifferential member produced by
  one MM step and its Lipschitz bound (the iterate-gap lower bound on
  subgradients);
* ``kkt_residual`` measures the exact distance from 0 to the
  subdifferential of F, which vanishes precisely at critical points;
* ``finite_length`` sums step norms to evidence trajectory summability;
* ``rate_fit`` classifies the tail error decay of a converged run as
  finite / linear / sublinear, mirroring the KL-exponent regimes;
* ``certify`` checks a whole trace against the guarantee its solver
  recorded in ``trace.meta``.

``run_mm`` and ``cccp`` build their certificates from the same kernels:
``_step_subgradient`` (one step's subdifferential member),
``_interval_gap`` and its norm ``_interval_distance`` (the exact
residual) and ``_norm``.  ``_norm`` is the one vector norm of ``mm``,
``cccp``, ``losses`` and this module, and ``np.vdot`` their one inner
product of two vectors: the same BLAS dot as ``@``, so the same bits,
but an overflowing sum is inf with no floating-point warning.  The
solvers' run rules and ``certify`` share two definitions:
``_descent_margin``, which the MM safeguard tests, and
``_stop_quantity``, which the run loop stops on.  The guarantee of one
MM step has its home here too: ``_check_step`` holds its preconditions
(``_check_mu`` refuses a surrogate weight that is not positive and
finite, and scheme "b" needs a penalty that can be linearized), and
``_residual_lipschitz`` the constant of its subgradient bound.
``run_mm``, ``step_a``, ``step_b`` and ``subgradient_residual`` all
call them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .losses import _vector
from .penalties import UnsupportedPenaltyError

__all__ = [
    "Certificate",
    "ResidualReport",
    "RateFit",
    "certify",
    "subgradient_residual",
    "kkt_residual",
    "finite_length",
    "rate_fit",
    "FINITE",
    "LINEAR",
    "SUBLINEAR",
    "UNDETERMINED",
]

FINITE = "finite"
LINEAR = "linear"
SUBLINEAR = "sublinear"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class ResidualReport:
    """Subgradient certificate for one MM step.

    ``b_vector`` is the penalty-curvature correction (zero for scheme
    "a"), ``B_norm`` the norm of the certified subdifferential member,
    ``bound`` its theoretical Lipschitz bound, and ``kkt`` the exact
    subdifferential distance at the new iterate.
    """

    b_vector: np.ndarray
    B_norm: float
    bound: float
    kkt: float


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a 1-d array: bit for bit ``np.linalg.norm(x)``
    (the same BLAS dot) where that is finite.  ``np.vdot`` overflows to inf
    without a warning, and only then is x rescaled by its largest entry."""
    n = math.sqrt(np.vdot(x, x))
    if n == math.inf:
        scale = float(np.max(np.abs(x)))
        if scale < math.inf:
            y = x / scale
            n = scale * math.sqrt(np.vdot(y, y))
    return n


def _interval_gap(g: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The point of g + [lo, hi] nearest 0, coordinate by coordinate: the
    projection of -g onto [lo, hi] plus g.  Entry i is negative (positive)
    exactly when -g_i lies above hi_i (below lo_i), and 0 when -g_i is
    finite and inside; an infinite bound (a normal cone) drops its side."""
    return np.clip(-g, lo, hi) + g


def _interval_distance(g: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    """Distance from 0 to g + [lo, hi], the norm of ``_interval_gap``."""
    return _norm(_interval_gap(g, lo, hi))


def _kkt_distance(w: np.ndarray, g: np.ndarray, penalty) -> float:
    """Distance from 0 to g + the subdifferential of r at w."""
    return _interval_distance(g, *penalty.subdiff_interval(w))


def kkt_residual(w, prob) -> float:
    """Euclidean distance from 0 to the subdifferential of F at w.

    Componentwise: |g_i + sign(w_i) * zeta'(|w_i|)| off zero and
    max(0, |g_i| - zeta'(0)) at zero; the capped-l1 kink uses the
    two-sided interval hull.
    """
    w = np.asarray(w, dtype=float).ravel()
    return _kkt_distance(w, prob.loss.gradient(w), prob.penalty)


def _step_subgradient(w_next: np.ndarray, delta: np.ndarray, g_next: np.ndarray,
                      g: np.ndarray, mu: float,
                      d: np.ndarray | None) -> tuple[np.ndarray | None, np.ndarray]:
    """(b, B) of the step w -> w_next = w + delta with curvature mu, given
    the smooth part's gradients g at w and g_next at w_next.  ``delta`` is
    overwritten: b is built in its buffer, and B in a new one.

    ``d`` is zeta'(|w|) - zeta'(|w_next|) for scheme "b" and None for
    scheme "a" and the CCCP inner step, where b is None and B = A.
    """
    # grad Q(w_next | w) = g + mu * (w_next - w)
    A = g_next - g
    delta *= mu
    A -= delta
    if d is None:
        return None, A
    b = np.sign(w_next, out=delta)
    b *= d
    # at a zero coordinate sgn(0) is free in [-1, 1]: take A_i / d_i clipped
    # there; where d_i is 0, b_i = sgn(0) * d_i is already 0
    at_zero = w_next == 0.0
    at_zero &= d != 0.0
    free = at_zero.nonzero()[0]
    d_free = d[free]
    clipped = A[free] / d_free
    np.maximum(clipped, -1.0, out=clipped)
    np.minimum(clipped, 1.0, out=clipped)
    clipped *= d_free
    b[free] = clipped
    A -= b
    return b, A


def _check_mu(mu: float) -> None:
    """Refuse a surrogate weight mu that is not positive and finite: the
    one check of every MM step and certificate that takes a mu."""
    if not 0 < mu < np.inf:
        raise ValueError(f"mu must be positive and finite, got {mu:g}")


def _check_linearizable(penalty) -> None:
    """Refuse a penalty whose derivative is not continuous: the one check
    of every routine that linearizes the penalty (a scheme "b" step and
    its certificate, the tangent majorant ``linearized_penalty_value`` and
    the DC split ``cccp.dc_decompose``)."""
    if not penalty.supports_linearization:
        raise UnsupportedPenaltyError(f"{penalty.kind} penalty cannot be linearized; "
                                      "use scheme 'a'")


def _check_step(mu: float, penalty, linearize: bool) -> None:
    """The preconditions of one MM step and of its certificate: mu passes
    ``_check_mu``, and a penalty that scheme "b" linearizes passes
    ``_check_linearizable``."""
    _check_mu(mu)
    if linearize:
        _check_linearizable(penalty)


def _residual_lipschitz(mu: float, lf: float, penalty, linearize: bool) -> float:
    """The constant of an MM step's subgradient bound, ||B|| <= (mu + L_f
    + L_zeta) ||Delta||, where L_zeta enters only when the step linearizes
    the penalty: ``run_mm``'s ``meta["residual_lipschitz"]``."""
    return mu + lf + (penalty.deriv_lipschitz() if linearize else 0.0)


def subgradient_residual(w_next, w, prob, mu: float, scheme: str) -> ResidualReport:
    """Certificate produced by one MM step from w to w_next.

    Scheme "a" returns A = grad f(w_next) - grad Q_f(w_next | w), a
    member of the subdifferential of F at w_next with
    ||A|| <= (mu + L_f) ||w_next - w||.

    Scheme "b" subtracts the correction
    b_i = sgn(w_next_i) * (zeta'(|w_i|) - zeta'(|w_next_i|)); at zero
    coordinates the free scalar sgn(0) in [-1, 1] is chosen to minimize
    the component, which both certifies membership (the derivative is
    nonincreasing, so the whole sweep stays inside the subdifferential)
    and makes the report the tightest available.  The bound gains the
    penalty curvature term:  ||B|| <= (mu + L_f + L_zeta) ||Delta||.
    The bound's constant is ``_residual_lipschitz``, the one ``run_mm``
    certifies its steps against.

    What an MM step refuses is refused here, by ``_check_step``: a mu that
    is not positive and finite, and scheme "b" with a penalty that cannot
    be linearized (``UnsupportedPenaltyError``).  A scheme other than "a"
    or "b" raises ``ValueError``, and so does a w_next or a w whose length
    is not the problem's p, naming the argument.
    """
    pen = prob.penalty
    linearize = scheme == "b"
    _check_step(mu, pen, linearize)
    if scheme not in ("a", "b"):
        raise ValueError("scheme must be 'a' or 'b'")
    w_next = _vector(w_next, prob.p, "w_next")
    w = _vector(w, prob.p, "w")
    delta = w_next - w
    g_next = prob.loss.gradient(w_next)
    d = pen.deriv(np.abs(w)) - pen.deriv(np.abs(w_next)) if linearize else None
    bound = _residual_lipschitz(mu, prob.loss.lipschitz, pen, linearize) * _norm(delta)
    b, B = _step_subgradient(w_next, delta, g_next, prob.loss.gradient(w), mu, d)

    return ResidualReport(
        b_vector=np.zeros_like(B) if b is None else b,
        B_norm=_norm(B),
        bound=float(bound),
        kkt=_kkt_distance(w_next, g_next, pen),
    )


def finite_length(trace) -> tuple[float, float]:
    """Total trajectory length and the length of its second half.

    A convergent run has a tail that is a vanishing fraction of the
    total, evidencing summability of the step norms.
    """
    if len(trace.iters) == 0:
        raise ValueError("trace is empty")
    steps = np.asarray(trace.step_norm[1:], dtype=float)
    total = float(steps.sum())
    k = len(steps)
    tail = float(steps[(k + 1) // 2:].sum()) if k else 0.0
    return total, tail


def _linfit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line fit returning (slope, intercept, R^2)."""
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot <= 0.0:
        return float(slope), float(intercept), 0.0
    return float(slope), float(intercept), 1.0 - ss_res / ss_tot


@dataclass(frozen=True)
class RateFit:
    """Empirical convergence-regime classification of a trace tail."""

    regime: str
    rate_constant: float
    fit_quality: float


def rate_fit(trace) -> RateFit:
    """Classify the decay of e_k = ||w^(k) - w*|| on a converged trace.

    w* is the final iterate and the last 5 iterates are excluded to
    limit self-reference bias.  A geometric fit (log e vs k) and a
    polynomial fit (log e vs log k) compete on R^2; ``finite`` is
    reported when the error hits exactly zero, ``undetermined`` when
    neither model reaches R^2 = 0.8 or fewer than 20 errors remain.
    """
    if trace.iterates is None:
        raise ValueError("trace has no recorded iterates; run with record_iterates=True")
    W = trace.iterates
    if len(W) < 2:
        return RateFit(UNDETERMINED, float("nan"), 0.0)
    wstar = W[-1]
    # one dense row at a time: W[:-1] would hold every row at once
    errs = np.array([_norm(W[k] - wstar) for k in range(len(W) - 1)])
    usable = errs[: max(len(errs) - 5, 0)]
    if len(usable) < 20:
        return RateFit(UNDETERMINED, float("nan"), 0.0)
    if np.any(usable == 0.0):
        return RateFit(FINITE, 0.0, 1.0)

    start = len(usable) // 2
    ks = np.arange(start, len(usable), dtype=float)
    tail = usable[start:]
    logs = np.log(tail)

    slope, _, r2_lin = _linfit(ks, logs)
    rho = float(np.exp(slope))
    mask = ks > 0
    slope_p, _, r2_sub = _linfit(np.log(ks[mask]), logs[mask])
    exponent = -float(slope_p)

    lin_ok = 0.0 < rho < 1.0 and r2_lin >= 0.8
    sub_ok = exponent > 0.0 and r2_sub >= 0.8
    if lin_ok and (r2_lin >= r2_sub or not sub_ok):
        return RateFit(LINEAR, rho, min(max(r2_lin, 0.0), 1.0))
    if sub_ok:
        return RateFit(SUBLINEAR, exponent, min(max(r2_sub, 0.0), 1.0))
    return RateFit(UNDETERMINED, float("nan"), max(r2_lin, r2_sub, 0.0))


@dataclass(frozen=True)
class Certificate:
    """A trace checked against its solver's guarantee (see ``certify``).

    Margins are the worst over all steps, 0 for a trace without steps;
    ``kkt`` is None unless the solver recorded it, ``rate`` None unless
    the trace recorded iterates.
    """

    gamma: float
    worst_descent: float
    worst_bound: float
    kkt: float | None
    length: float
    tail: float
    rate: RateFit | None
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def _descent_margin(f_prev, f_next, step, gamma: float):
    """The sufficient-descent margin of a step of norm ``step`` from
    F_k = f_prev to F_{k+1} = f_next, as floats or as arrays of steps:
    (F_k - (gamma/2) ||Delta_k||^2) - F_{k+1}.

    The one arithmetic of the descent test: ``run_mm``'s safeguard accepts
    a step where it is at least 0, and ``certify`` fails a step where it is
    below minus its slack, so a step the safeguard accepted never reads a
    negative margin.  The subtraction a - b of two floats is at least 0
    exactly when b <= a, so the safeguard's test is F_{k+1} <= F_k -
    (gamma/2) ||Delta_k||^2.  A decrease (gamma/2) ||Delta_k||^2 too
    small to change F_k in floating point rounds away, so a step whose F
    does not rise then reads 0 or more: the floats cannot show that its
    descent failed.  (gamma/2) ||Delta_k||^2 is formed as 0.5 * gamma *
    ||Delta_k|| * ||Delta_k||, which stays finite wherever the term is,
    where squaring a step norm from about 1.3e154 up overflows.
    """
    return f_prev - 0.5 * gamma * step * step - f_next


def _stop_quantity(residual: float, inner_residual: float | None) -> float:
    """The quantity a solver's stop rule tests against ``tol``: a row's
    residual plus, for CCCP, its inner residual (None for an MM row).  The
    pair bounds the KKT distance at the row's iterate; ``mm._record``
    stops on it and ``certify`` checks the last recorded row's."""
    return residual + (inner_residual or 0.0)


def certify(trace) -> Certificate:
    """Check every step of a trace against the guarantee in ``trace.meta``.

    One rule judges descent and the subgradient bound: step k fails where
    its margin is below minus its allowance, and the failure names the
    first such step, its margin and its allowance.  The descent margin is
    ``_descent_margin`` (F_{k-1} - (gamma/2)||Delta_k||^2) - F_k, the one
    the MM safeguard tests, with the allowance descent_slack *
    ||Delta_k|| + descent_tol; the bound margin is residual_lipschitz *
    ||Delta_k|| - residual_k, with the allowance bound_tol.
    ``worst_descent`` and ``worst_bound`` are the smallest margins.
    The stop quantity is ``_stop_quantity`` of the last row, the one the
    solver's stop rule tests: the last residual, plus for CCCP the last
    inner residual, the pair bounding the KKT distance at the final
    iterate.  A recorded final ``kkt`` must not exceed it by 1e-8, and a
    run that stopped on ``"tol"`` fails when it exceeds ``meta["tol"]``.
    Each test passes only on a number inside its bound, so a NaN margin,
    residual, ``kkt`` or stop quantity fails.
    """
    meta = trace.meta
    gamma = meta["gamma"]
    total, tail = finite_length(trace)
    obj = np.asarray(trace.objective, dtype=float)
    steps = np.asarray(trace.step_norm[1:], dtype=float)
    # (name, margin, allowance) per step
    rules = (("descent", _descent_margin(obj[:-1], obj[1:], steps, gamma),
              meta["descent_slack"] * steps + meta["descent_tol"]),
             ("subgradient bound",
              meta["residual_lipschitz"] * steps - np.asarray(trace.residual[1:], dtype=float),
              np.full(steps.shape, meta["bound_tol"])))
    worst_descent, worst_bound = (float(m.min()) if len(steps) else 0.0 for _, m, _ in rules)
    kkt = meta.get("kkt")
    # a CCCP trace of no step has no inner residual
    stopped = _stop_quantity(trace.residual[-1], (meta.get("inner_residuals") or [None])[-1])

    failures = []
    if gamma <= 0:
        # only an MM surrogate weight can get here: DcProblem refuses gamma_u <= 0
        failures.append(f"majorization: mu={meta['mu']:.6g} <= L_f={meta['lipschitz']:.6g} "
                        "(gamma <= 0)")
    for name, margin, allowance in rules:
        broke = np.flatnonzero(~(margin >= -allowance))
        if broke.size:
            k = broke[0]
            failures.append(f"{name}: step {k + 1} margin {margin[k]:.3e} "
                            f"< -{allowance[k]:.3e}")
    if kkt is not None and len(steps) and not kkt <= stopped + 1e-8:
        failures.append(f"kkt residual {kkt:.3e} exceeds certificate {stopped:.3e}")
    if meta.get("stop_reason") == "tol" and not stopped <= meta["tol"]:
        failures.append(f"stopped on tol at a certified residual {stopped:.3e} "
                        f"> tol {meta['tol']:.3e}")
    rate = None if trace.iterates is None else rate_fit(trace)
    return Certificate(gamma, worst_descent, worst_bound, kkt, total, tail, rate,
                       tuple(failures))
