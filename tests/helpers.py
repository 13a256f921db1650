"""Independent oracles shared by the test modules.

Everything here re-derives expected behavior from first principles
(table formulas, grid search, candidate enumeration, finite differences,
bisection) without
touching the package's own minimization or derivative code paths, so a
bug cannot hide on both sides of an assertion.
"""

import math

import numpy as np
import scipy.sparse as sp


def zeta_reference(kind: str, t, **params):
    """Scalar penalty formulas, straight from the definitions."""
    t = np.abs(np.asarray(t, dtype=float))
    if kind == "log":
        lam, theta = params["lam"], params["theta"]
        return lam / math.log(theta + 1.0) * np.log(1.0 + theta * t)
    if kind == "log_eps":
        lam, eps = params["lam"], params["eps"]
        return lam * np.log(1.0 + t / eps)
    if kind == "scad":
        lam, theta = params["lam"], params["theta"]
        mid = -(t**2 - 2.0 * theta * lam * t + lam**2) / (2.0 * (theta - 1.0))
        return np.where(t <= lam, lam * t,
                        np.where(t <= theta * lam, mid, (theta + 1.0) * lam**2 / 2.0))
    if kind == "mcp":
        lam, gamma = params["lam"], params["gamma"]
        return np.where(t < lam * gamma, lam * (t - t**2 / (2.0 * lam * gamma)),
                        lam**2 * gamma / 2.0)
    if kind == "capped_l1":
        lam, theta = params["lam"], params["theta"]
        return lam * np.minimum(t, theta)
    raise ValueError(kind)


def prox_grid_oracle(kind: str, u: float, alpha: float, step: float = 1e-4,
                     margin: float = 1.0, **params) -> tuple[float, float]:
    """Brute-force scalar prox: grid minimum over [-|u|-margin, |u|+margin].

    Returns (argmin, min objective value).
    """
    hi = abs(u) + margin
    grid = np.arange(-hi, hi + step / 2, step)
    obj = (grid - u) ** 2 / (2.0 * alpha) + zeta_reference(kind, grid, **params)
    j = int(np.argmin(obj))
    return float(grid[j]), float(obj[j])


def prox_candidates(kind: str, absu: np.ndarray, alpha: float, **params) -> list:
    """Nonnegative minimizer candidates of (w - |u|)^2/(2*alpha) + zeta(w):
    the piece boundaries and the stationary point of every differentiable
    piece, clipped to its interval.  NaN marks a candidate that does not
    exist at that entry.
    """
    if kind in ("log", "log_eps"):
        # zeta = c*log(1 + b*t); stationary points solve
        # b*w^2 + (1 - b*u)*w + (alpha*c*b - u) = 0
        if kind == "log":
            c, b = params["lam"] / math.log(params["theta"] + 1.0), params["theta"]
        else:
            c, b = params["lam"], 1.0 / params["eps"]
        lin = 1.0 - b * absu
        const = alpha * c * b - absu
        disc = lin * lin - 4.0 * b * const
        with np.errstate(invalid="ignore"):
            root = np.sqrt(np.where(disc >= 0, disc, np.nan))
        return [(-lin + root) / (2.0 * b), (-lin - root) / (2.0 * b), absu.copy()]
    if kind == "scad":
        lam, th = params["lam"], params["theta"]
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
    if kind == "mcp":
        lam, g = params["lam"], params["gamma"]
        cands = [
            np.full_like(absu, lam * g),
            np.maximum(absu, lam * g),                   # flat piece
        ]
        den = 1.0 - alpha / g
        if abs(den) > 1e-14:
            cands.append(np.clip((absu - alpha * lam) / den, 0.0, lam * g))
        return cands
    if kind == "capped_l1":
        lam, th = params["lam"], params["theta"]
        return [
            np.clip(absu - alpha * lam, 0.0, th),        # linear piece
            np.full_like(absu, th),
            np.maximum(absu, th),                        # flat piece
        ]
    raise ValueError(kind)


def prox_enumeration(pen, u, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact prox of a package penalty by candidate enumeration.

    Evaluates the prox objective at zero and at every candidate of
    ``prox_candidates`` and keeps the best; among candidates within
    ``1e-12*(1 + |best|)`` of the minimum the smallest magnitude wins.
    Only the penalty's ``value`` is used.  Returns (argmin, min objective),
    arrays shaped like ``u``.
    """
    u = np.asarray(u, dtype=float)
    absu = np.abs(u)
    cands = [np.zeros_like(absu)] + prox_candidates(pen.kind, absu, alpha, **pen.params())
    stack = np.stack([np.clip(np.nan_to_num(c, nan=0.0), 0.0, absu) for c in cands])
    objs = (stack - absu) ** 2 / (2.0 * alpha) + pen.value(stack)
    best = objs.min(axis=0)
    tied = objs <= best + 1e-12 * (1.0 + np.abs(best))
    w = np.where(tied, stack, np.inf).min(axis=0)
    return np.sign(u) * w, best


def _zeta_kinks(kind: str, params: dict) -> list:
    """Points where zeta changes formula (its pieces' boundaries)."""
    if kind == "scad":
        return [params["lam"], params["theta"] * params["lam"]]
    if kind == "mcp":
        return [params["lam"] * params["gamma"]]
    if kind == "capped_l1":
        return [params["theta"]]
    return []


def prox_piece_changes(pen, alpha: float, lo: float, hi: float) -> np.ndarray:
    """|u| in [lo, hi] where the enumerated prox moves to another piece.

    The piece of w is 0 for w == 0, else the piece of zeta that holds w.
    It is scanned on a 300-point geometric grid and each change is
    narrowed by bisection; the returned points are the first |u| on the
    new piece, within 1e-13 relative of the change.  These are the
    thresholds a closed-form prox has to get right.
    """
    kinks = np.array(_zeta_kinks(pen.kind, pen.params()))

    def piece(a):
        w = np.abs(prox_enumeration(pen, a, alpha)[0])
        return np.where(w == 0.0, 0, 1 + np.searchsorted(kinks, w, side="left"))

    grid = np.geomspace(lo, hi, 300)
    pieces = piece(grid)
    at = np.flatnonzero(pieces[1:] != pieces[:-1])
    left, right = grid[at], grid[at + 1]
    p_left = pieces[at]
    while True:
        live = right - left > 1e-13 * right
        if not live.any():
            break
        mid = 0.5 * (left + right)
        same = piece(mid) == p_left
        left = np.where(live & same, mid, left)
        right = np.where(live & ~same, mid, right)
    return right


def fd_gradient(fun, w: np.ndarray) -> np.ndarray:
    """Central finite differences with h = 1e-5 * (1 + |w_i|)."""
    w = np.asarray(w, dtype=float)
    g = np.zeros_like(w)
    for i in range(w.size):
        h = 1e-5 * (1.0 + abs(w[i]))
        e = np.zeros_like(w)
        e[i] = h
        g[i] = (fun(w + e) - fun(w - e)) / (2.0 * h)
    return g


def soft_threshold_bisect(z: float, omega: float, mu: float, iters: int = 200) -> float:
    """Solve min_v mu/2 (v - z)^2 + omega |v| by bisecting the optimality
    condition; completely independent of any closed form.
    """
    if omega < 0 or mu <= 0:
        raise ValueError("need omega >= 0 and mu > 0")
    # 0 is optimal iff |mu * z| <= omega
    if abs(mu * z) <= omega:
        return 0.0
    s = 1.0 if z > 0 else -1.0

    def deriv(v):
        return mu * (v - z) + omega * s

    lo, hi = 0.0, abs(z)
    # derivative (along the sign branch) is increasing in |v|
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if deriv(s * mid) * s > 0:
            hi = mid
        else:
            lo = mid
    return s * 0.5 * (lo + hi)


def prox_gradient_reference(grad, lipschitz: float, l1: float, box, x0: np.ndarray,
                            tol: float = 1e-12, max_iter: int = 200_000) -> np.ndarray:
    """Plain proximal-gradient loop for min smooth + l1*|x|_1 + box indicator."""
    x = np.asarray(x0, dtype=float).copy()
    step = 1.0 / lipschitz
    for _ in range(max_iter):
        z = x - step * grad(x)
        x_new = np.sign(z) * np.maximum(np.abs(z) - l1 * step, 0.0)
        if box is not None:
            x_new = np.clip(x_new, box[0], box[1])
        if np.max(np.abs(x_new - x)) <= tol:
            return x_new
        x = x_new
    return x


def read_libsvm_lines(path, task: str = "classification", force_p=None):
    """Token-by-token libsvm reader: the package's former line loop.

    Returns (X as CSR, y).  Raises ``ValueError`` with the message the
    package's ``LibsvmFormatError`` carries for the same fault; it has no
    check for non-finite numbers or for indices beyond int32.
    """
    labels, indptr, indices, values = [], [0], [], []
    max_index = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            try:
                labels.append(float(tokens[0]))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad label {tokens[0]!r}")
            prev = 0
            for tok in tokens[1:]:
                try:
                    idx_str, val_str = tok.split(":", 1)
                    idx = int(idx_str)
                    val = float(val_str)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: bad feature token {tok!r}")
                if idx < 1:
                    raise ValueError(f"{path}:{lineno}: index {idx} is not 1-based")
                if idx <= prev:
                    raise ValueError(
                        f"{path}:{lineno}: indices must be strictly increasing "
                        f"({idx} after {prev})"
                    )
                prev = idx
                indices.append(idx - 1)
                values.append(val)
            max_index = max(max_index, prev)
            indptr.append(len(indices))
    if not labels:
        raise ValueError(f"{path}: no samples")
    p = force_p if force_p is not None else max_index
    if p < max_index:
        raise ValueError(f"{path}: feature index {max_index} exceeds forced p={p}")
    if p < 1:
        raise ValueError(f"{path}: no features present")
    X = sp.csr_matrix(
        (np.asarray(values), np.asarray(indices, dtype=np.int32), np.asarray(indptr)),
        shape=(len(labels), p),
    )
    y = np.asarray(labels)
    if task == "classification":
        seen = set(np.unique(y))
        if seen <= {-1.0, 1.0}:
            pass
        elif seen <= {0.0, 1.0}:
            y = np.where(y == 0.0, -1.0, 1.0)
        else:
            raise ValueError(
                f"{path}: classification labels must be in {{-1,+1}} or {{0,1}}, "
                f"got {sorted(seen)}"
            )
    return X, y


def read_csv_columns(path):
    """Line-by-line CSV reader that shares nothing with the package."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:] if ln]
    return header, rows
