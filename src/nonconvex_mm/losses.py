"""Smooth empirical losses with exact gradients and curvature constants.

Two losses are provided:

* ``LeastSquaresLoss`` -- f(w) = ||X w - y||^2 / (2n); the gradient's
  Lipschitz constant is the top eigenvalue of X^T X / n, found by Lanczos
  (ARPACK) to machine precision through matvecs only, on the smaller of
  the two Gram sides (X X^T / n has the same top eigenvalue, and is the
  smaller one when n < p), or read from the data set's Gram spectrum
  when a strong-convexity certificate has already computed it.
* ``LogisticLoss`` -- f(w) = mean(log(1 + exp(-y_i x_i^T w))) for labels
  in {-1, +1}; the working Lipschitz constant is sum(||x_i||^2) / (4n).

Both take the design of a ``Dataset``, a dense float ndarray or any
scipy sparse matrix, which it holds as a canonical float64 CSR, and are
immutable after construction, so instances can be shared freely across
concurrent solver runs.  ``value_and_grad`` is the one evaluation of a
loss: one ``X @ w`` and one ``X.T @ r``; ``value`` and ``gradient`` are
its two halves, and the solvers need nothing else of a loss (the
gradient at an extrapolated MM anchor is formed in ``run_mm``).  Both
share one constructor, which refuses data of another ``task`` than the
loss's (a class attribute) and builds the transposed design once, so a
sparse CSR design does not build a new CSC view on every gradient.

A ``Dataset`` caches the least-squares Gram pair (X^T X / n, X^T y / n),
its spectrum and its top eigenvalue the first time each is asked for.
The Gram matrix is formed only where it is needed anyway: by the
strong-convexity certificate, whose one eigen-solve gives both the
modulus (bottom eigenvalue) and the curvature bound (top eigenvalue),
and by the CCCP inner loop, which for every least-squares design uses
the pair in place of ``LeastSquaresLoss.gradient``.  A loss that is only
asked for its curvature (an MM set-up) gets it from Lanczos, which
costs vectors of length min(n, p), no p x p memory and a number of
matvec pairs that depends on the spectrum (how far the top eigenvalue
stands apart from the rest): 71 on each CSR design of the
``sparse-ls-prox`` benchmark (n 300, p 2000, 5% nonzero), counted as
calls of its ``LinearOperator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigsh

__all__ = [
    "Dataset",
    "LeastSquaresLoss",
    "LogisticLoss",
    "make_loss",
    "least_squares_strong_convexity",
]


def _is_sparse(X) -> bool:
    return sp.issparse(X)


@dataclass(frozen=True)
class Dataset:
    """Design matrix plus targets.

    ``task`` is "regression" (real targets) or "classification" (labels
    exactly in {-1, +1}).  X is held as a float ndarray, or as a float64
    CSR matrix in canonical form (sorted indices, no duplicate entries):
    a sparse X of another format, dtype or form is converted to a new
    one, and a canonical float64 CSR is kept as given, without a copy.
    A complex X or y is refused with ``ValueError`` naming it, whatever
    its imaginary part: the float cast would drop it.
    The fields are never reassigned, so the least-squares Gram pair
    ``gram``, its spectrum ``gram_spectrum`` and the top eigenvalue
    ``gram_top_eigenvalue`` are each computed at most once and then
    shared by every loss and problem made from this data set.
    """

    X: object  # (n, p) ndarray or scipy sparse matrix
    y: np.ndarray
    task: str

    def __post_init__(self):
        if self.task not in ("regression", "classification"):
            raise ValueError(f"unknown task {self.task!r}")
        X = self.X
        # read from the dtype alone: the float cast would drop an imaginary part
        if np.iscomplexobj(X):
            raise ValueError("design matrix has complex entries")
        if np.iscomplexobj(self.y):
            raise ValueError("targets have complex entries")
        if not _is_sparse(X):
            X = np.asarray(X, dtype=float)
            if X.ndim != 2:
                raise ValueError("design matrix must be 2-dimensional")
        elif not (X.format == "csr" and X.dtype == np.float64 and X.has_canonical_format):
            # the stored entries are what the curvature constants and the Gram
            # pair read, so a sparse X is held as a float64 CSR with each entry
            # stored once: a new matrix, which leaves the caller's as it was
            X = X.astype(np.float64).tocsr()
            X.sum_duplicates()
        if not np.all(np.isfinite(_entries(X))):
            raise ValueError("design matrix has non-finite entries")
        object.__setattr__(self, "X", X)
        y = np.asarray(self.y, dtype=float).ravel()
        object.__setattr__(self, "y", y)
        n, p = self.X.shape
        if n < 1 or p < 1:
            raise ValueError("need n >= 1 and p >= 1")
        if y.shape[0] != n:
            raise ValueError(f"targets have length {y.shape[0]}, expected {n}")
        if not np.all(np.isfinite(y)):
            raise ValueError("targets have non-finite entries")
        if self.task == "classification" and not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("classification labels must be exactly -1 or +1")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @cached_property
    def gram(self) -> tuple[np.ndarray, np.ndarray]:
        """(X^T X / n, X^T y / n) as read-only dense arrays.

        The Hessian and the linear term of the least-squares loss:
        grad f(w) = G w - b.  Costs one X^T X on first access and p*p
        floats kept for the life of the data set.
        """
        X = self.X
        with np.errstate(over="ignore", invalid="ignore"):
            G = (X.T @ X) / self.n
        if _is_sparse(G):
            G = G.toarray()
        G = np.asarray(G)
        if not np.isfinite(G).all():
            raise _scale_error(X, overflow=True)
        b = np.asarray(X.T @ self.y).ravel() / self.n
        G.flags.writeable = False
        b.flags.writeable = False
        return G, b

    @cached_property
    def gram_spectrum(self) -> np.ndarray:
        """All eigenvalues of X^T X / n in ascending order, read-only: one
        ``eigvalsh`` of ``gram[0]`` on first access.  A top eigenvalue
        below the normal range raises the design-scale error."""
        ev = np.linalg.eigvalsh(self.gram[0])
        _curvature(float(ev[-1]), self.X)
        ev.flags.writeable = False
        return ev

    @cached_property
    def gram_top_eigenvalue(self) -> float:
        """Top eigenvalue of X^T X / n, the least-squares curvature bound.

        The top of ``gram_spectrum`` when that is already computed (a
        strong-convexity certificate formed the Gram matrix); otherwise
        Lanczos (ARPACK) on the smaller Gram side, which is never formed:
        X^T X / n and X X^T / n share their nonzero eigenvalues, so with
        m = min(n, p) it runs on v -> X^T (X v) / n in R^p when p <= n and
        on v -> X (X^T v) / n in R^n when n < p.  Either way one iteration
        costs one matvec with X and one with X^T, and ARPACK keeps vectors
        of length m.  When m == 1 the one eigenvalue is ||X||_F^2 / n.
        All paths agree to machine precision; whichever runs first is kept
        for the life of the data set.
        """
        X, n, p = self.X, self.n, self.p
        # fro2 / n bounds the top eigenvalue from above; below the normal
        # range the Lanczos matvecs underflow (ARPACK then finds its start
        # vector zero)
        fro2_n = _curvature(_frobenius_sq(X) / n, X)
        if "gram_spectrum" in self.__dict__:
            return float(self.gram_spectrum[-1])
        m = min(n, p)
        if m == 1:
            # the smaller Gram matrix is 1x1, and eigsh needs k < m
            return fro2_n
        # outer @ (inner @ v) / n is X^T X v / n when p <= n, X X^T v / n else.
        # Lanczos runs on s times it, with s the power of two that brings
        # fro2 / n into [0.5, 1): ARPACK's convergence test is absolute below
        # about 3.7e-11, and matvecs near the underflow threshold lose digits.
        # Multiplying and dividing by s are exact
        s = math.ldexp(1.0, -math.frexp(fro2_n)[1])
        outer, inner = (X.T, X) if p <= n else (X, X.T)
        gram = LinearOperator((m, m), matvec=lambda v: outer @ ((inner @ v) * s) / n,
                              dtype=float)
        # a fixed generic start: the ones vector can be an eigenvector of the Gram
        v0 = np.random.default_rng(0).standard_normal(m)
        return _curvature(float(eigsh(gram, k=1, which="LA", v0=v0,
                                      return_eigenvectors=False)[0]) / s, X)


def _frobenius_sq(X) -> float:
    """||X||_F^2 as one ``np.vdot`` of the stored entries, without an n x p
    temporary; an overflowing sum is inf, with no warning.

    Raises a ValueError when it is 0 or not finite: the design is all
    zero, or its scale is so small or so large that the sum of squares
    underflows or overflows in double precision.
    """
    x = _entries(X)
    fro2 = float(np.vdot(x, x))
    if 0.0 < fro2 < np.inf:
        return fro2
    if not np.any(x):
        raise ValueError("all-zero design matrix: curvature constant degenerates to 0")
    raise _scale_error(X, overflow=bool(fro2))


_TINY = float(np.finfo(float).tiny)


def _curvature(c: float, X) -> float:
    """A curvature constant c of the design X, when c is a normal double.

    One below ``np.finfo(float).tiny`` (subnormal or 0) has lost its
    relative precision to underflow: a step 1/c or a weight rho*c built
    from it is wrong, so this raises the design-scale error instead.
    """
    if c >= _TINY:
        return c
    raise _scale_error(X, overflow=False)


def _entries(X) -> np.ndarray:
    """The stored entries of X as a flat view, without a copy."""
    return X.data if _is_sparse(X) else X.ravel(order="K")


def _scale_error(X, overflow: bool) -> ValueError:
    """The error for a nonzero design whose sums of squares overflow or
    underflow in double precision; it names the largest entry magnitude."""
    top = float(np.max(np.abs(_entries(X))))
    what = "overflow" if overflow else "underflow to 0 or below the normal range"
    return ValueError(
        f"design matrix scale out of range: its largest entry magnitude {top:.3g} "
        f"makes sums of squares of its entries {what} in double precision; rescale X"
    )


class RankDeficientError(ValueError):
    """A least-squares design whose Gram matrix is singular."""


def least_squares_strong_convexity(data: Dataset) -> float:
    """Smallest eigenvalue of X^T X / n.

    Certifies the strong-convexity modulus of the least-squares loss.
    Raises ``RankDeficientError`` if the Gram matrix is singular
    (rank-deficient design).
    Reads the bottom of the spectrum cached on ``data``; a curvature
    bound asked for afterwards reads the top of the same spectrum.
    """
    try:
        np.linalg.cholesky(data.gram[0])
    except np.linalg.LinAlgError:
        # a nonzero design whose squares underflow has an all-zero or
        # subnormal Gram matrix; the scale error names that instead
        _curvature(_frobenius_sq(data.X) / data.n, data.X)
        raise RankDeficientError(
            "design is rank deficient; least-squares loss is not strongly convex")
    return float(data.gram_spectrum[0])


def _vector(w, p: int, name: str = "w") -> np.ndarray:
    """w as a flat float array, refused unless it has length p; w itself
    when it already is one."""
    w = np.asarray(w, dtype=float).ravel()
    if w.shape[0] != p:
        raise ValueError(f"{name} has length {w.shape[0]}, expected {p}")
    return w


class _Loss:
    """What both losses share: ``data``, whose ``Dataset.task`` must be the
    loss's class attribute ``task`` (else ``_wrong_task`` is raised), the
    transposed design ``_xt``, and ``value`` and ``gradient``, the two
    halves of the subclass's ``value_and_grad``."""

    def __init__(self, data: Dataset):
        if data.task != self.task:
            raise ValueError(self._wrong_task)
        self.data = data
        self._xt = data.X.T

    def value(self, w) -> float:
        return self.value_and_grad(w)[0]

    def gradient(self, w) -> np.ndarray:
        return self.value_and_grad(w)[1]


class LeastSquaresLoss(_Loss):
    """f(w) = ||X w - y||^2 / (2n) on regression data."""

    kind = "ls"
    task = "regression"
    _wrong_task = "least-squares loss needs regression targets"

    def value_and_grad(self, w) -> tuple[float, np.ndarray]:
        """f(w) and grad f(w) from one residual r = X w - y."""
        w = _vector(w, self.data.p)
        r = np.asarray(self.data.X @ w).ravel() - self.data.y
        grad = np.asarray(self._xt @ r).ravel() / self.data.n
        return float(np.vdot(r, r)) / (2.0 * self.data.n), grad

    @property
    def lipschitz(self) -> float:
        """Top eigenvalue of X^T X / n, cached on the data set
        (``Dataset.gram_top_eigenvalue``)."""
        return self.data.gram_top_eigenvalue


class LogisticLoss(_Loss):
    """f(w) = mean(log(1 + exp(-y_i x_i^T w))) on {-1,+1} labels."""

    kind = "logistic"
    task = "classification"
    _wrong_task = "logistic loss needs classification labels"

    @cached_property
    def _neg_y(self) -> np.ndarray:
        return -self.data.y

    def value_and_grad(self, w) -> tuple[float, np.ndarray]:
        """f(w) and grad f(w) from one set of margins y_i x_i^T w."""
        w = _vector(w, self.data.p)
        n = self.data.n
        # z = -y * (X w), in place in the fresh product
        z = np.asarray(self.data.X @ w).ravel()
        z *= self._neg_y
        # one exp(-|z|) gives both the stable softplus log(1 + exp(z)) and
        # the sigmoid 1 / (1 + exp(-z)), which never overflow
        e = np.abs(z)
        np.negative(e, out=e)
        np.exp(e, out=e)
        sigmoid = np.where(z >= 0, 1.0, e)
        # z becomes softplus = max(z, 0) + log1p(e), then e becomes 1 + e
        np.maximum(z, 0.0, out=z)
        z += np.log1p(e)
        e += 1.0
        sigmoid /= e
        # the gradient's weights -y * sigmoid / n
        sigmoid *= self._neg_y
        sigmoid /= n
        return float(np.add.reduce(z) / n), np.asarray(self._xt @ sigmoid).ravel()

    @cached_property
    def lipschitz(self) -> float:
        return _curvature(_frobenius_sq(self.data.X) / (4.0 * self.data.n), self.data.X)


_LOSSES = {"ls": LeastSquaresLoss, "logistic": LogisticLoss}


def make_loss(kind: str, data: Dataset):
    """Construct a loss by kind name ('ls' or 'logistic')."""
    try:
        cls = _LOSSES[kind]
    except KeyError:
        raise ValueError(f"unknown loss kind {kind!r}; choose from {sorted(_LOSSES)}")
    return cls(data)
