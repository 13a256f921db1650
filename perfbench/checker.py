"""Answer checker owned by the benchmark.

It shares no code with ``nonconvex_mm.diagnostics``: the objective F and
the first-order residual are recomputed here in plain numpy from the
design matrix, the targets and the penalty parameters.

* MM solves: distance from 0 to the subdifferential of
  F = f + sum_i zeta(|w_i|).
* CCCP solves: the same distance with the box normal cone added, so a
  coordinate held at a bound only has to push against it.

A solve fails when it raised, reported ``converged=False``, has a
residual above the workload's target, or ends with F above the
reference recorded from the seed commit by more than ``F_REL_TOL``
relative.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

F_REL_TOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def load_reference(directory: Path = REFERENCE_DIR) -> dict:
    """{workload: {case key: F}} from ``reference/<workload>.json``."""
    out = {}
    for path in sorted(directory.glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            out[path.stem] = json.load(fh)
    return out


def _loss_value_grad(kind: str, X, y: np.ndarray, w: np.ndarray):
    n = y.shape[0]
    z = np.asarray(X @ w).ravel()
    if kind == "ls":
        r = z - y
        return float(r @ r) / (2.0 * n), np.asarray(X.T @ r).ravel() / n
    m = y * z
    value = float(np.mean(np.logaddexp(0.0, -m)))
    # sigmoid(-m) written with tanh, which cannot overflow
    coef = -y * 0.5 * (1.0 - np.tanh(0.5 * m)) / n
    return value, np.asarray(X.T @ coef).ravel()


def _penalty_value_deriv(kind: str, params: dict, t: np.ndarray):
    """zeta(t) and zeta'(t) for t >= 0."""
    lam = params["lam"]
    if kind == "log_eps":
        eps = params["eps"]
        return lam * np.log1p(t / eps), lam / (t + eps)
    if kind == "scad":
        th = params["theta"]
        mid_v = -(t * t - 2.0 * th * lam * t + lam * lam) / (2.0 * (th - 1.0))
        value = np.where(t <= lam, lam * t,
                         np.where(t <= th * lam, mid_v, (th + 1.0) * lam * lam / 2.0))
        deriv = np.where(t <= lam, lam,
                         np.where(t <= th * lam, (th * lam - t) / (th - 1.0), 0.0))
        return value, deriv
    if kind == "mcp":
        g = params["gamma"]
        value = np.where(t < lam * g, lam * t - t * t / (2.0 * g), lam * lam * g / 2.0)
        return value, np.maximum(lam - t / g, 0.0)
    raise ValueError(f"checker has no formula for penalty {kind!r}")


def objective_and_residual(loss_kind: str, X, y, penalty_kind: str, params: dict,
                           w, box=None) -> tuple[float, float]:
    """F(w) and the first-order residual at w (box-projected when ``box``)."""
    w = np.asarray(w, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    f, g = _loss_value_grad(loss_kind, X, y, w)
    t = np.abs(w)
    zeta, dzeta = _penalty_value_deriv(penalty_kind, params, t)
    d0 = float(_penalty_value_deriv(penalty_kind, params, np.zeros(1))[1][0])
    # interval [lo, hi] of g + d/dw zeta(|w|) per coordinate
    s = np.sign(w) * dzeta
    lo = np.where(w == 0.0, g - d0, g + s)
    hi = np.where(w == 0.0, g + d0, g + s)
    if box is not None:
        if np.any(w < box[0]) or np.any(w > box[1]):
            return float(f + np.sum(zeta)), float("inf")
        # normal cone: [0, inf) at the upper bound, (-inf, 0] at the lower
        hi = np.where(w >= box[1], np.inf, hi)
        lo = np.where(w <= box[0], -np.inf, lo)
    dist = np.maximum(0.0, np.maximum(lo, -hi))
    return float(f + np.sum(zeta)), float(np.linalg.norm(dist))


def check_solve(case, loss_kind: str, X, y, params: dict, w, converged: bool,
                kkt_target: float, reference: dict, box=None,
                error: str | None = None) -> list[str]:
    """Reasons the solve failed; an empty list means it passed."""
    if error is not None:
        return [f"raised: {error}"]
    reasons = []
    if not converged:
        reasons.append("converged=False")
    F, resid = objective_and_residual(loss_kind, X, y, case.penalty, params, w, box)
    if not resid <= kkt_target:
        reasons.append(f"residual {resid:.3e} > target {kkt_target:.1e}")
    ref = reference.get(case.workload, {}).get(case.key)
    if ref is None:
        reasons.append(f"no reference objective for {case.key}")
    elif not F <= ref + F_REL_TOL * abs(ref):
        reasons.append(f"F={F!r} above reference {ref!r}")
    return reasons
