"""Dataset ingestion, synthetic problem generation, trace serialization.

The libsvm text format is ``label idx:val idx:val ...`` with 1-based,
strictly increasing indices per line; ``#`` starts a comment.  Synthetic
problems use the counter-based Philox generator so identical specs are
bitwise reproducible, including across processes and parallel sweeps.

Traces serialize to CSV with the fixed column set
``iter,objective,step_norm,residual,elapsed_sec`` (floats in shortest
round-trip decimal) or to JSON carrying the same columns plus the solver
configuration echo.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .losses import Dataset
from .mm import IterateTrace

__all__ = [
    "SyntheticSpec",
    "LibsvmFormatError",
    "read_libsvm",
    "write_libsvm",
    "synth_generate",
    "write_trace",
    "read_trace_csv",
    "TRACE_COLUMNS",
]

TRACE_COLUMNS = ("iter", "objective", "step_norm", "residual", "elapsed_sec")


class LibsvmFormatError(ValueError):
    """Malformed libsvm input; the message carries the offending line number."""


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a reproducible synthetic sparse-recovery problem."""

    n: int
    p: int
    sparsity: int
    noise_sd: float = 0.0
    seed: int = 0
    task: str = "regression"

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise ValueError("need n >= 1 and p >= 1")
        if not 0 <= self.sparsity <= self.p:
            raise ValueError("sparsity must lie in [0, p]")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be nonnegative")
        if self.task not in ("regression", "classification"):
            raise ValueError(f"unknown task {self.task!r}")


def synth_generate(spec: SyntheticSpec) -> tuple[Dataset, np.ndarray]:
    """Gaussian design with a sparse ground-truth weight vector.

    Support indices, magnitudes (uniform on [0.5, 2]) and signs are all
    drawn from one Philox stream keyed by ``spec.seed``, so equal specs
    give bitwise-equal outputs.
    """
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    X = rng.standard_normal((spec.n, spec.p))
    true_w = np.zeros(spec.p)
    support = rng.choice(spec.p, size=spec.sparsity, replace=False)
    magnitudes = rng.uniform(0.5, 2.0, size=spec.sparsity)
    signs = rng.choice([-1.0, 1.0], size=spec.sparsity)
    true_w[support] = magnitudes * signs
    noise = spec.noise_sd * rng.standard_normal(spec.n)
    scores = X @ true_w + noise
    if spec.task == "regression":
        y = scores
    else:
        y = np.where(scores >= 0.0, 1.0, -1.0)
    return Dataset(X=X, y=y, task=spec.task), true_w


def _normalize_labels(raw: np.ndarray, path: str) -> np.ndarray:
    values = set(np.unique(raw))
    if values <= {-1.0, 1.0}:
        return raw
    if values <= {0.0, 1.0}:
        return np.where(raw == 0.0, -1.0, 1.0)
    raise LibsvmFormatError(
        f"{path}: classification labels must be in {{-1,+1}} or {{0,1}}, got {sorted(values)}"
    )


def read_libsvm(path, task: str = "classification", force_p: int | None = None) -> Dataset:
    """Parse a libsvm text file into a CSR-backed Dataset.

    ``p`` is the maximum feature index seen unless ``force_p`` pins it
    (for train/test consistency).
    """
    labels: list[float] = []
    indptr = [0]
    indices: list[int] = []
    values: list[float] = []
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
                raise LibsvmFormatError(f"{path}:{lineno}: bad label {tokens[0]!r}")
            prev = 0
            for tok in tokens[1:]:
                try:
                    idx_str, val_str = tok.split(":", 1)
                    idx = int(idx_str)
                    val = float(val_str)
                except ValueError:
                    raise LibsvmFormatError(f"{path}:{lineno}: bad feature token {tok!r}")
                if idx < 1:
                    raise LibsvmFormatError(f"{path}:{lineno}: index {idx} is not 1-based")
                if idx <= prev:
                    raise LibsvmFormatError(
                        f"{path}:{lineno}: indices must be strictly increasing "
                        f"({idx} after {prev})"
                    )
                prev = idx
                indices.append(idx - 1)
                values.append(val)
            max_index = max(max_index, prev)
            indptr.append(len(indices))
    if not labels:
        raise LibsvmFormatError(f"{path}: no samples")
    p = force_p if force_p is not None else max_index
    if p < max_index:
        raise LibsvmFormatError(f"{path}: feature index {max_index} exceeds forced p={p}")
    if p < 1:
        raise LibsvmFormatError(f"{path}: no features present")
    X = sp.csr_matrix(
        (np.asarray(values), np.asarray(indices, dtype=np.int32), np.asarray(indptr)),
        shape=(len(labels), p),
    )
    y = np.asarray(labels)
    if task == "classification":
        y = _normalize_labels(y, str(path))
    return Dataset(X=X, y=y, task=task)


def _fmt(x: float) -> str:
    return repr(float(x))


def write_libsvm(data: Dataset, path) -> None:
    """Write a Dataset in libsvm text form (zeros dropped, exact decimals)."""
    X = data.X
    dense = not sp.issparse(X)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(data.n):
            if data.task == "classification":
                label = "+1" if data.y[i] > 0 else "-1"
            else:
                label = _fmt(data.y[i])
            if dense:
                row = X[i]
                cols = np.nonzero(row)[0]
                feats = ((j + 1, row[j]) for j in cols)
            else:
                start, end = X.indptr[i], X.indptr[i + 1]
                feats = ((X.indices[k] + 1, X.data[k]) for k in range(start, end))
            parts = [label] + [f"{j}:{_fmt(v)}" for j, v in feats]
            fh.write(" ".join(parts) + "\n")


def write_trace(trace: IterateTrace, fmt: str, path) -> None:
    """Serialize a trace as CSV or JSON (fmt: 'csv' | 'json')."""
    if fmt == "csv":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(TRACE_COLUMNS) + "\n")
            for k in range(len(trace.iters)):
                fh.write(
                    f"{trace.iters[k]},{_fmt(trace.objective[k])},"
                    f"{_fmt(trace.step_norm[k])},{_fmt(trace.residual[k])},"
                    f"{_fmt(trace.elapsed_sec[k])}\n"
                )
    elif fmt == "json":
        meta = trace.meta or {}
        payload = {
            "iter": list(trace.iters),
            "objective": list(trace.objective),
            "step_norm": list(trace.step_norm),
            "residual": list(trace.residual),
            "elapsed_sec": list(trace.elapsed_sec),
            "mu": list(trace.mu),
            "beta": list(trace.beta),
            "converged": bool(trace.converged),
            "stop_reason": meta.get("stop_reason"),
            "final_w": None if trace.final_w is None else list(map(float, trace.final_w)),
            "config": {
                "scheme": meta.get("scheme"),
                "mu": meta.get("mu"),
                "lambda": (meta.get("penalty") or {}).get("lam"),
                "penalty": meta.get("penalty"),
                "loss": meta.get("loss"),
                "rho": meta.get("rho"),
                "tol": meta.get("tol"),
                "seed": meta.get("seed"),
            },
        }
        for key in ("rate_fit", "certificate"):
            if key in meta:
                payload[key] = meta[key]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown trace format {fmt!r}; use 'csv' or 'json'")


def read_trace_csv(path) -> dict[str, np.ndarray]:
    """Read back a trace CSV into column arrays keyed by header name."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    cols = {name: np.array([float(r[j]) for r in rows]) for j, name in enumerate(header)}
    return cols
