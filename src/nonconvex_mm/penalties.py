"""Separable nonconvex sparsity penalties with exact scalar proximal operators.

Each penalty is a scalar map ``zeta : [0, inf) -> [0, inf)`` applied
coordinatewise through the absolute value, ``r(w) = sum_i zeta(|w_i|)``.
Five families are provided:

* ``LogPenalty`` -- normalized logarithmic penalty
  ``lam * log(1 + theta*t) / log(theta + 1)``.
* ``LogEpsilonPenalty`` -- un-normalized logarithmic penalty
  ``lam * log(1 + t/eps)``; its derivative ``lam / (t + eps)`` is exactly
  the classical re-weighted-l1 weight.
* ``ScadPenalty`` -- smoothly clipped absolute deviation (three pieces).
* ``McpPenalty`` -- minimax concave penalty (quadratic then flat).
* ``CappedL1Penalty`` -- ``lam * min(t, theta)``; its derivative jumps at
  ``theta``, so linearization-based schemes reject it and only the exact
  prox path applies.

Every proximal operator is exact and closed-form.  It branches once on
the step ``alpha``: where the prox objective is convex in ``w`` it is a
threshold formula (soft thresholding, firm thresholding for MCP, the
three-piece SCAD threshold); where a middle piece is concave only its
endpoints compete, and a scalar threshold on ``|u|`` picks between them.
The log penalties have no closed-form threshold, so there the objective
decides, and only on the coordinates where it can go either way.  Ties
are broken towards the smallest magnitude.  The closed forms follow the
proximal maps of Gong et al., "A General Iterative Shrinkage and
Thresholding Algorithm for Non-convex Regularized Optimization Problems"
(ICML 2013), and firm thresholding as in Breheny & Huang (2011).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

__all__ = [
    "Penalty",
    "LogPenalty",
    "LogEpsilonPenalty",
    "ScadPenalty",
    "McpPenalty",
    "CappedL1Penalty",
    "SubgradientInterval",
    "UnsupportedPenaltyError",
    "make_penalty",
]


class UnsupportedPenaltyError(ValueError):
    """Raised when a penalty lacks the smoothness an operation requires."""


class SubgradientInterval(NamedTuple):
    """Closed interval(s) of subgradients, ``lo <= hi`` (floats or arrays)."""

    lo: float | np.ndarray
    hi: float | np.ndarray


def _check_nonneg(t: np.ndarray) -> None:
    # one reduction and no boolean temporary; fmin skips NaN, so a NaN
    # does not hide a negative entry, and NaN-only or empty input passes
    if np.fmin.reduce(t, axis=None, initial=0.0) < 0:
        raise ValueError("penalty evaluated at negative argument; pass |w_i|")


def _as_float_array(t) -> tuple[np.ndarray, bool]:
    arr = np.asarray(t, dtype=float)
    return arr, arr.ndim == 0


class Penalty:
    """Base class: scalar penalty with value, derivative, and exact prox.

    Subclasses are frozen dataclasses whose fields are ``lam`` and the
    shape parameters, each required positive and finite; a linearizable
    penalty's ``deriv_lipschitz()`` must be finite too.
    """

    kind = "base"
    # whether the derivative exists and is Lipschitz on [0, inf)
    supports_linearization = True
    lam: float

    def __post_init__(self):
        params = self.params()
        for name, value in params.items():
            if value <= 0:
                raise ValueError(f"{name} must be positive")
        # NaN passes the sign test; a float ** or / may raise on overflow
        # (LogPenalty's scale overflows into its deriv_lipschitz)
        try:
            constants = [*params.values()]
            if self.supports_linearization:
                constants.append(self.deriv_lipschitz())
            finite = all(map(math.isfinite, constants))
        except (OverflowError, ZeroDivisionError):
            finite = False
        if not finite:
            shape = ", ".join(f"{k}={v!r}" for k, v in params.items() if k != "lam")
            raise ValueError(
                f"{type(self).__name__}: {shape} with lam={self.lam!r} is out of range: "
                "every parameter and, for a linearizable penalty, the Lipschitz constant "
                "of its derivative must be finite in double precision"
            )

    # --- subclass surface -------------------------------------------------
    def _value(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _deriv(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _prox_magnitude(self, a: np.ndarray, alpha: float) -> np.ndarray:
        """argmin over w >= 0 of (w - a)^2 / (2*alpha) + zeta(w), for a 1-d
        array ``a = |u|``.  May overwrite and return ``a``.  NaN and +inf
        entries must map to themselves without floating-point warnings.
        """
        raise NotImplementedError

    # --- shared implementation --------------------------------------------
    def params(self) -> dict:
        """The dataclass fields: ``lam`` and the shape parameters."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def value(self, t):
        """Evaluate zeta(t) for t >= 0 (scalar or array)."""
        arr, scalar = _as_float_array(t)
        _check_nonneg(arr)
        out = self._value(arr)
        return float(out) if scalar else out

    def deriv(self, t):
        """Evaluate zeta'(t) for t >= 0 (scalar or array)."""
        arr, scalar = _as_float_array(t)
        _check_nonneg(arr)
        out = self._deriv(arr)
        return float(out) if scalar else out

    def deriv_lipschitz(self) -> float:
        """Lipschitz constant of zeta' on [0, inf)."""
        raise NotImplementedError

    def reg_value(self, w) -> float:
        """Full penalty r(w) = sum_i zeta(|w_i|)."""
        return self._support_sum(np.asarray(w, dtype=float).ravel())[1]

    def _support_sum(self, w: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], float]:
        """((idx, w[idx]), r(w)) for a 1-d float array w, idx the indices
        of its nonzero entries.

        zeta(0) = +0.0 for every family, so zeta runs on the support only;
        its values are scattered into a zero p-vector, which
        ``np.add.reduce`` sums in the same pairwise order, so to the same
        bits, as the p terms of a sum over every coordinate.
        """
        idx = (w != 0.0).nonzero()[0]
        vals = w[idx]
        terms = np.zeros(w.shape[0])
        terms[idx] = self._value(np.abs(vals))
        return (idx, vals), float(np.add.reduce(terms))

    def deriv_interval(self, t):
        """(lo, hi) arrays bracketing zeta' at each t >= 0.

        Coincides with (zeta'(t), zeta'(t)) wherever zeta is
        differentiable; subclasses widen it at kinks.
        """
        d = self.deriv(t)
        return d, d

    def subdiff_interval(self, u) -> SubgradientInterval:
        """Interval of the subdifferential of zeta(|.|) at u, componentwise.

        A scalar u gives float bounds, an array gives arrays of its shape.
        """
        arr, scalar = _as_float_array(u)
        lo_t, hi_t = self.deriv_interval(np.abs(arr))
        # u = +-0 takes lo from the negative side and hi from the positive
        # one: [-zeta'(0), zeta'(0)], the formula of cccp's interval
        lo = np.where(arr > 0, lo_t, -hi_t)
        hi = np.where(arr < 0, -lo_t, hi_t)
        if scalar:
            return SubgradientInterval(float(lo), float(hi))
        return SubgradientInterval(lo, hi)

    def prox(self, u, alpha: float):
        """Exact scalar prox: argmin_w (w - u)^2 / (2*alpha) + zeta(|w|).

        Works componentwise on arrays.  Among global minimizers the one
        with smallest magnitude is returned, and the output always
        satisfies |out| <= |u| with sign(out) in {0, sign(u)}.  +-inf
        maps to +-inf and NaN to NaN.
        """
        if not alpha > 0:
            raise ValueError("prox step alpha must be positive")
        arr, scalar = _as_float_array(u)
        flat = arr.reshape(-1)
        w = self._prox_magnitude(np.abs(flat), float(alpha))
        out = np.copysign(w, flat, out=w).reshape(arr.shape)
        return float(out) if scalar else out


def _keep_above(a: np.ndarray, thr: float, shift: float, cap: float) -> np.ndarray:
    """Prox magnitude when two candidates compete: ``a`` itself (the flat
    piece) where ``a > thr``, and the first piece's soft threshold
    ``min(max(a - shift, 0), cap)`` elsewhere.  Overwrites ``a``.
    """
    if thr <= shift:
        # the soft threshold is 0 at every a <= thr: hard thresholding
        a *= a > thr
        return a
    w = np.subtract(a, shift)
    np.maximum(w, 0.0, out=w)
    np.minimum(w, cap, out=w)
    np.copyto(w, a, where=a > thr)
    return w


def _log_prox_magnitude(a: np.ndarray, alpha: float, c: float, b: float) -> np.ndarray:
    """Prox magnitude of zeta(t) = c * log(1 + b*t).

    Stationary points solve b*w^2 + (1 - a*b)*w + (alpha*c*b - a) = 0.  Its
    larger root is ``a - 2*alpha*c / (t + sqrt(t^2 - q^2))`` with ``t = a +
    1/b`` and ``q = 2*sqrt(alpha*c)``.  As ``(sqrt(t+q) + sqrt(t-q))^2 =
    2*(t + sqrt(t^2 - q^2))``, it is evaluated as ``a - (q / (sqrt(t+q) +
    sqrt(t-q)))^2``: no cancellation, and t is never squared, so no finite
    input overflows.  For ``a > alpha*c*b`` the slope at 0 is negative and
    that root is the minimizer.  Below, 0 is the minimizer when the
    objective is convex (``alpha*c*b^2 <= 1``); otherwise, for ``a``
    between the double-root point ``q - 1/b`` and ``alpha*c*b``, 0 and the
    root are compared by objective.
    """
    ac = alpha * c
    q = 2.0 * math.sqrt(ac)
    # s = sqrt(t - q), clamped at 0: t < q only below the double-root
    # point, where the selection below keeps 0
    s = np.add(a, 1.0 / b - q)
    np.maximum(s, 0.0, out=s)
    np.sqrt(s, out=s)
    t = np.add(a, 1.0 / b + q)
    np.sqrt(t, out=t)
    t += s
    r = np.divide(q, t, out=t)
    r *= r
    np.subtract(a, r, out=r)
    np.maximum(r, 0.0, out=r)
    descend = a > ac * b
    if ac * b * b > 1.0:
        band = a >= q - 1.0 / b
        band ^= descend
        idx = np.flatnonzero(band)
        if idx.size:
            ri = r[idx]
            # the objective at the root minus the one at 0; a tie keeps 0
            gain = ri * (ri - 2.0 * a[idx]) / (2.0 * alpha) + c * np.log1p(b * ri)
            descend[idx] = gain < 0.0
    r *= descend
    return r


@dataclass(frozen=True)
class LogPenalty(Penalty):
    """Normalized log penalty lam * log(1 + theta*t) / log(theta + 1)."""

    lam: float
    theta: float
    kind = "log"

    @property
    def _scale(self) -> float:
        # log1p: log(theta + 1.0) is 0 for theta below half an ulp of 1
        return self.lam / math.log1p(self.theta)

    def _value(self, t):
        return self._scale * np.log1p(self.theta * t)

    def _deriv(self, t):
        # scale*theta / (1 + theta*t), built in its output buffer; out= keeps
        # a 0-d t an array, where a bare ufunc would return a scalar.  A
        # theta*t beyond the largest double is inf, where zeta' is a finite 0
        with np.errstate(over="ignore"):
            out = np.multiply(self.theta, t, out=np.empty_like(t))
        out += 1.0
        return np.divide(self._scale * self.theta, out, out=out)

    def deriv_lipschitz(self) -> float:
        # sup |zeta''| is attained at t = 0
        return self._scale * self.theta**2

    def _prox_magnitude(self, a, alpha):
        return _log_prox_magnitude(a, alpha, self._scale, self.theta)


@dataclass(frozen=True)
class LogEpsilonPenalty(Penalty):
    """Un-normalized log penalty lam * log(1 + t/eps).

    The derivative lam / (t + eps) makes linearized updates coincide with
    re-weighted-l1 iterations; lam * log(1 + a*t) with a = 1/eps is the
    same function.
    """

    lam: float
    eps: float
    kind = "log_eps"

    def _value(self, t):
        return self.lam * np.log1p(t / self.eps)

    def _deriv(self, t):
        return self.lam / (t + self.eps)

    def deriv_lipschitz(self) -> float:
        # not lam / eps**2: a float eps**2 raises OverflowError from about
        # eps = 1.3e154 up
        return self.lam / self.eps / self.eps

    def _prox_magnitude(self, a, alpha):
        return _log_prox_magnitude(a, alpha, self.lam, 1.0 / self.eps)


@dataclass(frozen=True)
class ScadPenalty(Penalty):
    """SCAD: linear up to lam, quadratic blend, then flat at (theta+1)*lam^2/2."""

    lam: float
    theta: float
    kind = "scad"

    def __post_init__(self):
        if self.theta <= 2:
            raise ValueError("SCAD requires theta > 2")
        super().__post_init__()

    def _value(self, t):
        lam, th = self.lam, self.theta
        # the middle piece is selected only up to theta*lam; clipping there
        # keeps its square finite at any t
        tm = np.minimum(t, th * lam)
        mid = -(tm * tm - 2.0 * th * lam * tm + lam * lam) / (2.0 * (th - 1.0))
        flat = (th + 1.0) * lam * lam / 2.0
        return np.where(t <= lam, lam * t, np.where(t <= th * lam, mid, flat))

    def _deriv(self, t):
        lam, th = self.lam, self.theta
        mid = (th * lam - t) / (th - 1.0)
        return np.where(t <= lam, lam, np.where(t <= th * lam, mid, 0.0))

    def deriv_lipschitz(self) -> float:
        return 1.0 / (self.theta - 1.0)

    def _prox_magnitude(self, a, alpha):
        lam, th = self.lam, self.theta
        den = th - 1.0 - alpha
        if den > 0:
            # convex: soft threshold up to (1+alpha)*lam, the middle piece's
            # stationary point up to theta*lam, identity beyond
            w = np.subtract(a, alpha * lam)
            np.maximum(w, 0.0, out=w)
            mid = np.multiply(a, (th - 1.0) / den)
            mid -= alpha * th * lam / den
            np.maximum(w, mid, out=w)
            np.minimum(w, a, out=w)
            return w
        # the middle piece is concave: the linear piece's soft threshold
        # (capped at lam) against the flat piece, which wins past the point
        # where the linear piece's prox value reaches (theta+1)*lam^2/2
        if alpha >= th + 1.0:
            thr = lam * math.sqrt(alpha * (th + 1.0))
        else:
            thr = lam * (th + 1.0 + alpha) / 2.0
        return _keep_above(a, thr, alpha * lam, lam)


@dataclass(frozen=True)
class McpPenalty(Penalty):
    """MCP: lam*(t - t^2/(2*lam*gamma)) up to lam*gamma, then flat."""

    lam: float
    gamma: float
    kind = "mcp"

    def _value(self, t):
        lam, g = self.lam, self.gamma
        # the quadratic piece is selected only below lam*g; clipping there
        # keeps its square finite at any t
        tm = np.minimum(t, lam * g)
        return np.where(t < lam * g, lam * tm - tm * tm / (2.0 * g), lam * lam * g / 2.0)

    def _deriv(self, t):
        lam, g = self.lam, self.gamma
        return np.where(t < lam * g, lam - t / g, 0.0)

    def deriv_lipschitz(self) -> float:
        return 1.0 / self.gamma

    def _prox_magnitude(self, a, alpha):
        lam, g = self.lam, self.gamma
        if alpha < g:
            # firm thresholding: min(max(a - alpha*lam, 0) / (1 - alpha/g), a)
            w = np.subtract(a, alpha * lam)
            np.maximum(w, 0.0, out=w)
            w *= 1.0 / (1.0 - alpha / g)
            np.minimum(w, a, out=w)
            return w
        # the quadratic piece is concave: 0 against the flat piece, whose
        # objective lam^2*g/2 beats a^2/(2*alpha) past lam*sqrt(alpha*g)
        return _keep_above(a, lam * math.sqrt(alpha * g), alpha * lam, 0.0)


@dataclass(frozen=True)
class CappedL1Penalty(Penalty):
    """Capped l1 penalty lam * min(t, theta); nondifferentiable at theta."""

    lam: float
    theta: float
    kind = "capped_l1"
    supports_linearization = False

    def _value(self, t):
        return self.lam * np.minimum(t, self.theta)

    def _deriv(self, t):
        if np.any(t == self.theta):
            raise UnsupportedPenaltyError(
                "capped-l1 derivative is undefined at t = theta; "
                "use subdiff_interval there"
            )
        return np.where(t < self.theta, self.lam, 0.0)

    def deriv_lipschitz(self) -> float:
        raise UnsupportedPenaltyError(
            "capped-l1 derivative jumps at theta, so no Lipschitz constant exists"
        )

    def deriv_interval(self, t):
        arr, scalar = _as_float_array(t)
        _check_nonneg(arr)
        lo = np.where(arr < self.theta, self.lam, 0.0)
        hi = np.where(arr <= self.theta, self.lam, 0.0)
        if scalar:
            return float(lo), float(hi)
        return lo, hi

    def _prox_magnitude(self, a, alpha):
        # the linear piece's soft threshold (capped at theta) against the
        # flat piece, which wins once the first's prox value exceeds lam*theta
        lam, th = self.lam, self.theta
        if alpha * lam >= 2.0 * th:
            thr = math.sqrt(2.0 * alpha * lam * th)
        else:
            thr = th + alpha * lam / 2.0
        return _keep_above(a, thr, alpha * lam, th)


_KINDS = {cls.kind: cls for cls in
          (LogPenalty, LogEpsilonPenalty, ScadPenalty, McpPenalty, CappedL1Penalty)}


def make_penalty(kind: str, lam: float, **shape) -> Penalty:
    """Construct a penalty by kind name; shape kwargs per class fields."""
    try:
        cls = _KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown penalty kind {kind!r}; choose from {sorted(_KINDS)}")
    return cls(lam=lam, **shape)
