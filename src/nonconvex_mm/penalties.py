"""Separable nonconvex sparsity penalties with exact scalar proximal operators.

Each penalty is a scalar map ``zeta : [0, inf) -> [0, inf)`` applied
coordinatewise through the absolute value, ``r(w) = sum_i zeta(|w_i|)``.
Four families are provided:

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

All proximal operators are computed exactly by candidate enumeration:
zero, the piece boundaries, and the stationary point of every
differentiable piece clipped to its interval.  Ties are broken towards
the smallest magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    if np.any(t < 0):
        raise ValueError("penalty evaluated at negative argument; pass |w_i|")


def _as_float_array(t) -> tuple[np.ndarray, bool]:
    arr = np.asarray(t, dtype=float)
    return arr, arr.ndim == 0


class Penalty:
    """Base class: scalar penalty with value, derivative, and exact prox."""

    kind = "base"
    lam: float

    # --- subclass surface -------------------------------------------------
    def _value(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _deriv(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _prox_candidates(self, absu: np.ndarray, alpha: float) -> list[np.ndarray]:
        """Nonnegative minimizer candidates for each entry of ``absu``."""
        raise NotImplementedError

    def params(self) -> dict:
        raise NotImplementedError

    # --- shared implementation --------------------------------------------
    @property
    def supports_linearization(self) -> bool:
        """Whether the derivative exists and is Lipschitz on [0, inf)."""
        return True

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
        w = np.asarray(w, dtype=float)
        return float(np.sum(self._value(np.abs(w))))

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
        d0 = self.deriv(0.0)
        lo = np.where(arr > 0, lo_t, np.where(arr < 0, -hi_t, -d0))
        hi = np.where(arr > 0, hi_t, np.where(arr < 0, -lo_t, d0))
        if scalar:
            return SubgradientInterval(float(lo), float(hi))
        return SubgradientInterval(lo, hi)

    def prox(self, u, alpha: float):
        """Exact scalar prox: argmin_w (w - u)^2 / (2*alpha) + zeta(|w|).

        Works componentwise on arrays.  Among global minimizers the one
        with smallest magnitude is returned, and the output always
        satisfies |out| <= |u| with sign(out) in {0, sign(u)}.
        """
        if alpha <= 0:
            raise ValueError("prox step alpha must be positive")
        arr, scalar = _as_float_array(u)
        absu = np.abs(arr)
        cands = [np.zeros_like(absu)] + self._prox_candidates(absu, float(alpha))
        stack = np.stack([np.clip(np.nan_to_num(c, nan=0.0), 0.0, absu) for c in cands])
        objs = (stack - absu) ** 2 / (2.0 * alpha) + self._value(stack)
        best = objs.min(axis=0)
        # tie-break: smallest-magnitude candidate within a hair of the minimum
        tied = objs <= best + 1e-12 * (1.0 + np.abs(best))
        w = np.where(tied, stack, np.inf).min(axis=0)
        out = np.sign(arr) * w
        return float(out) if scalar else out


@dataclass(frozen=True)
class LogPenalty(Penalty):
    """Normalized log penalty lam * log(1 + theta*t) / log(theta + 1)."""

    lam: float
    theta: float
    kind = "log"

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.theta <= 0:
            raise ValueError("theta must be positive")

    def params(self) -> dict:
        return {"lam": self.lam, "theta": self.theta}

    @property
    def _scale(self) -> float:
        return self.lam / math.log(self.theta + 1.0)

    def _value(self, t):
        return self._scale * np.log1p(self.theta * t)

    def _deriv(self, t):
        return self._scale * self.theta / (1.0 + self.theta * t)

    def deriv_lipschitz(self) -> float:
        # sup |zeta''| is attained at t = 0
        return self._scale * self.theta**2

    def _prox_candidates(self, absu, alpha):
        # stationary points solve theta*w^2 + (1 - theta*u)*w + (alpha*c*theta - u) = 0
        c = self._scale
        a = self.theta
        b = 1.0 - self.theta * absu
        const = alpha * c * self.theta - absu
        disc = b * b - 4.0 * a * const
        with np.errstate(invalid="ignore"):
            root = np.sqrt(np.where(disc >= 0, disc, np.nan))
        return [(-b + root) / (2.0 * a), (-b - root) / (2.0 * a), absu.copy()]


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

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.eps <= 0:
            raise ValueError("eps must be positive")

    def params(self) -> dict:
        return {"lam": self.lam, "eps": self.eps}

    def _value(self, t):
        return self.lam * np.log1p(t / self.eps)

    def _deriv(self, t):
        return self.lam / (t + self.eps)

    def deriv_lipschitz(self) -> float:
        return self.lam / self.eps**2

    def _prox_candidates(self, absu, alpha):
        # stationary points solve w^2 + (eps - u)*w + (alpha*lam - u*eps) = 0
        b = self.eps - absu
        const = alpha * self.lam - absu * self.eps
        disc = b * b - 4.0 * const
        with np.errstate(invalid="ignore"):
            root = np.sqrt(np.where(disc >= 0, disc, np.nan))
        return [(-b + root) / 2.0, (-b - root) / 2.0, absu.copy()]


@dataclass(frozen=True)
class ScadPenalty(Penalty):
    """SCAD: linear up to lam, quadratic blend, then flat at (theta+1)*lam^2/2."""

    lam: float
    theta: float
    kind = "scad"

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.theta <= 2:
            raise ValueError("SCAD requires theta > 2")

    def params(self) -> dict:
        return {"lam": self.lam, "theta": self.theta}

    def _value(self, t):
        lam, th = self.lam, self.theta
        mid = -(t * t - 2.0 * th * lam * t + lam * lam) / (2.0 * (th - 1.0))
        flat = (th + 1.0) * lam * lam / 2.0
        return np.where(t <= lam, lam * t, np.where(t <= th * lam, mid, flat))

    def _deriv(self, t):
        lam, th = self.lam, self.theta
        mid = (th * lam - t) / (th - 1.0)
        return np.where(t <= lam, lam, np.where(t <= th * lam, mid, 0.0))

    def deriv_lipschitz(self) -> float:
        return 1.0 / (self.theta - 1.0)

    def _prox_candidates(self, absu, alpha):
        lam, th = self.lam, self.theta
        cands = [
            np.clip(absu - alpha * lam, 0.0, lam),      # linear piece
            np.full_like(absu, lam),
            np.full_like(absu, th * lam),
            np.maximum(absu, th * lam),                  # flat piece
        ]
        den = th - 1.0 - alpha
        if abs(den) > 1e-14:
            mid = (absu * (th - 1.0) - alpha * th * lam) / den
            cands.append(np.clip(mid, lam, th * lam))
        return cands


@dataclass(frozen=True)
class McpPenalty(Penalty):
    """MCP: lam*(t - t^2/(2*lam*gamma)) up to lam*gamma, then flat."""

    lam: float
    gamma: float
    kind = "mcp"

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")

    def params(self) -> dict:
        return {"lam": self.lam, "gamma": self.gamma}

    def _value(self, t):
        lam, g = self.lam, self.gamma
        return np.where(t < lam * g, lam * t - t * t / (2.0 * g), lam * lam * g / 2.0)

    def _deriv(self, t):
        lam, g = self.lam, self.gamma
        return np.where(t < lam * g, lam - t / g, 0.0)

    def deriv_lipschitz(self) -> float:
        return 1.0 / self.gamma

    def _prox_candidates(self, absu, alpha):
        lam, g = self.lam, self.gamma
        cands = [
            np.full_like(absu, lam * g),
            np.maximum(absu, lam * g),                   # flat piece
        ]
        den = 1.0 - alpha / g
        if abs(den) > 1e-14:
            inner = (absu - alpha * lam) / den
            cands.append(np.clip(inner, 0.0, lam * g))
        return cands


@dataclass(frozen=True)
class CappedL1Penalty(Penalty):
    """Capped l1 penalty lam * min(t, theta); nondifferentiable at theta."""

    lam: float
    theta: float
    kind = "capped_l1"

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.theta <= 0:
            raise ValueError("theta must be positive")

    def params(self) -> dict:
        return {"lam": self.lam, "theta": self.theta}

    @property
    def supports_linearization(self) -> bool:
        return False

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

    def _prox_candidates(self, absu, alpha):
        lam, th = self.lam, self.theta
        return [
            np.clip(absu - alpha * lam, 0.0, th),        # linear piece
            np.full_like(absu, th),
            np.maximum(absu, th),                        # flat piece
        ]


_KINDS = {
    "log": LogPenalty,
    "log_eps": LogEpsilonPenalty,
    "scad": ScadPenalty,
    "mcp": McpPenalty,
    "capped_l1": CappedL1Penalty,
}


def make_penalty(kind: str, lam: float, **shape) -> Penalty:
    """Construct a penalty by kind name; shape kwargs per class fields."""
    try:
        cls = _KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown penalty kind {kind!r}; choose from {sorted(_KINDS)}")
    return cls(lam=lam, **shape)
