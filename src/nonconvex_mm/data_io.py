"""Dataset ingestion, synthetic problem generation, trace serialization.

The libsvm text format is ``label idx:val idx:val ...`` with 1-based,
strictly increasing indices per line and finite numbers; ``#`` starts a
comment.  The reader reads every number with numpy's C text parser
(``np.loadtxt``), the labels in one call and the feature tokens in
another, and checks the format on whole arrays; a line loop, reading with
the same parser, runs only to name the first offending line of a
malformed file.  Synthetic problems use the counter-based Philox
generator so identical specs are bitwise reproducible, including across
processes and parallel sweeps.

Traces serialize to CSV with the fixed column set
``iter,objective,step_norm,residual,elapsed_sec`` (floats in shortest
round-trip decimal) or to JSON carrying the same columns plus the solver
configuration echo.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from dataclasses import dataclass
from typing import NoReturn

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
        # NaN noise makes every classification score NaN, and every label -1
        if not 0 <= self.noise_sd < math.inf:
            raise ValueError(f"noise_sd must be finite and nonnegative, got {self.noise_sd!r}")
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


# CSR column indices are int32, so a 1-based index may be at most 2**31 - 1
_MAX_INDEX = int(np.iinfo(np.int32).max)


def read_libsvm(path, task: str = "classification", force_p: int | None = None) -> Dataset:
    """Parse a libsvm text file into a CSR-backed Dataset.

    ``p`` is the maximum feature index seen unless ``force_p`` pins it
    (for train/test consistency).

    Each line is split once into its label and its feature text.  Every
    number is then read by numpy's C text reader (``np.loadtxt``): the
    labels in one call, and all feature tokens in another, one token per
    row, split at ``:`` into an int64 index and a float value, so a token
    without exactly one ``:`` fails on its column count.  The row offsets
    are the cumulative per-row token counts.

    The format rules are checked on whole arrays: indices in
    [1, 2**31 - 1] and strictly increasing within each row, finite labels
    and values.  Only when a check fails or a token does not parse does a
    line loop run, with the same reader, to raise a ``LibsvmFormatError``
    naming the first offending line.
    """
    # per data line: its number, its label token and its feature text; three
    # lists rather than a list of tuples, whose memory CPython keeps on its
    # tuple free list after the call
    linenos, label_toks, feat_texts = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.partition("#")[0].strip().split(None, 1)
            if parts:
                linenos.append(lineno)
                label_toks.append(parts[0])
                feat_texts.append(parts[1] if len(parts) == 2 else "")
    if not linenos:
        raise LibsvmFormatError(f"{path}: no samples")
    try:
        labels = _load(label_toks, float)
        # np.loadtxt warns on input without rows, so a file of label-only
        # rows skips the call
        pairs = (_load((tok for feats in feat_texts for tok in feats.split()), _PAIR)
                 if any(feat_texts) else np.empty(0, dtype=_PAIR))
    except ValueError:
        _locate_error(path, linenos, label_toks, feat_texts)
    # a field of the structured array is a strided view that keeps all of it
    # alive, and csr_matrix would keep the view
    idx, values = pairs["index"], np.ascontiguousarray(pairs["value"])
    indptr = np.zeros(len(linenos) + 1, dtype=np.int64)
    np.cumsum([f.count(":") for f in feat_texts], out=indptr[1:])
    increasing = np.diff(idx) > 0
    starts = indptr[1:-1]
    increasing[starts[(starts > 0) & (starts < idx.size)] - 1] = True
    if not (np.all(increasing) and np.all(idx >= 1) and np.all(idx <= _MAX_INDEX)
            and np.all(np.isfinite(values)) and np.all(np.isfinite(labels))):
        _locate_error(path, linenos, label_toks, feat_texts)
    max_index = int(idx.max()) if idx.size else 0
    p = force_p if force_p is not None else max_index
    if p < max_index:
        raise LibsvmFormatError(f"{path}: feature index {max_index} exceeds forced p={p}")
    if p < 1:
        raise LibsvmFormatError(f"{path}: no features present")
    X = sp.csr_matrix((values, (idx - 1).astype(np.int32), indptr), shape=(len(linenos), p))
    y = labels
    if task == "classification":
        y = _normalize_labels(y, str(path))
    return Dataset(X=X, y=y, task=task)


# one feature token ``index:value``
_PAIR = np.dtype([("index", np.int64), ("value", float)])


def _load(tokens, dtype) -> np.ndarray:
    """One row per token, read by ``np.loadtxt``; ``ValueError`` where a
    token does not parse.

    numpy from 1.23, until that deprecation expired, read a float such as
    ``1.5`` into an integer field as 1 with a ``DeprecationWarning``; that
    warning raises here too.
    """
    delimiter = ":" if dtype is _PAIR else None
    with warnings.catch_warnings():
        warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
        try:
            return np.loadtxt(tokens, dtype=dtype, delimiter=delimiter, comments=None, ndmin=1)
        except DeprecationWarning as warning:
            raise ValueError(str(warning)) from None


# numpy's grammar of an integer field
_INTEGER = re.compile(r"[+-]?[0-9]+")
_INT64 = np.iinfo(np.int64)


def _feature(where: str, tok: str) -> tuple[int, float]:
    """(index, value) of one feature token, or its bad-token error.

    An index too wide for int64 is returned as a Python int, for the
    range checks to name; its value is read with index 0 in its place.
    """
    idx_str, _, val_str = tok.partition(":")
    wide = bool(_INTEGER.fullmatch(idx_str)) and not _INT64.min <= int(idx_str) <= _INT64.max
    try:
        idx, val = _load(["0:" + val_str if wide else tok], _PAIR).item(0)
    except ValueError:
        raise LibsvmFormatError(f"{where}: bad feature token {tok!r}") from None
    return (int(idx_str) if wide else idx), val


def _locate_error(path, linenos, label_toks, feat_texts) -> NoReturn:
    """Raise the ``LibsvmFormatError`` of the first offending line.

    Runs only after the parse or a whole-array check of ``read_libsvm``
    failed, and walks the data lines token by token in file order.  A
    line's tokens are read in one call, and one at a time only when that
    call fails.
    """
    for lineno, label, feats in zip(linenos, label_toks, feat_texts):
        where = f"{path}:{lineno}"
        try:
            value = _load([label], float).item(0)
        except ValueError:
            raise LibsvmFormatError(f"{where}: bad label {label!r}") from None
        if not math.isfinite(value):
            raise LibsvmFormatError(f"{where}: non-finite label {label!r}")
        toks = feats.split()
        try:
            pairs = _load(toks, _PAIR).tolist() if toks else []
        except ValueError:
            pairs = (_feature(where, tok) for tok in toks)
        prev = 0
        for tok, (idx, val) in zip(toks, pairs):
            if idx < 1:
                raise LibsvmFormatError(f"{where}: index {idx} is not 1-based")
            if idx > _MAX_INDEX:
                raise LibsvmFormatError(
                    f"{where}: index {idx} exceeds the largest supported index {_MAX_INDEX}"
                )
            if idx <= prev:
                raise LibsvmFormatError(
                    f"{where}: indices must be strictly increasing ({idx} after {prev})"
                )
            if not math.isfinite(val):
                raise LibsvmFormatError(f"{where}: non-finite value in {tok!r}")
            prev = idx
    raise AssertionError(f"{path}: the array checks failed but no line is at fault")


def _fmt(x: float) -> str:
    return repr(float(x))


def write_libsvm(data: Dataset, path) -> None:
    """Write a Dataset in libsvm text form (zeros dropped, exact decimals)."""
    X = sp.csr_matrix(data.X)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(data.n):
            if data.task == "classification":
                label = "+1" if data.y[i] > 0 else "-1"
            else:
                label = _fmt(data.y[i])
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
