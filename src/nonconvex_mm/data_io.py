"""Dataset ingestion, synthetic problem generation, trace serialization.

The libsvm text format is ``label idx:val idx:val ...`` with 1-based,
strictly increasing indices per line and finite numbers; ``#`` starts a
comment.  The reader tokenizes the whole file in one pass and checks the
format on whole arrays; a line loop runs only to name the first offending
line of a malformed file.  Synthetic
problems use the counter-based Philox generator so identical specs are
bitwise reproducible, including across processes and parallel sweeps.

Traces serialize to CSV with the fixed column set
``iter,objective,step_norm,residual,elapsed_sec`` (floats in shortest
round-trip decimal) or to JSON carrying the same columns plus the solver
configuration echo.
"""

from __future__ import annotations

import json
import math
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


# CSR column indices are int32, so a 1-based index may be at most 2**31 - 1
_MAX_INDEX = int(np.iinfo(np.int32).max)


def read_libsvm(path, task: str = "classification", force_p: int | None = None) -> Dataset:
    """Parse a libsvm text file into a CSR-backed Dataset.

    ``p`` is the maximum feature index seen unless ``force_p`` pins it
    (for train/test consistency).

    One tokenizing pass: each line is split once into its label and its
    feature text; the feature tokens of a block of lines are joined, ``:``
    is turned into a space, and the result is split once.  The indices
    and the values of the block are then converted by one ``np.array``
    each (Python's own ``int``/``float`` parsing, so the numbers are those
    of a token-by-token read), and the row offsets are the cumulative
    per-row token counts.

    The format rules are checked on whole arrays: one ``:`` per token,
    indices in [1, 2**31 - 1] and strictly increasing within each row,
    finite labels and values.  Only when a check fails or a conversion
    raises does a line loop run, to raise a ``LibsvmFormatError`` naming
    the first offending line.
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
        labels = np.array(label_toks, dtype=float)
        idx, values = _parse_features(feat_texts)
    except (ValueError, OverflowError):
        _locate_error(path, linenos, label_toks, feat_texts)
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


# feature text is converted per block of rows of about this many characters,
# so only one block's index and value strings (several bytes of Python
# objects per byte of text) are alive at once
_BLOCK_CHARS = 1 << 16


def _parse_features(feat_texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Indices (int64) and values (float) of all feature tokens in file order.

    Rows are joined and split in blocks of about ``_BLOCK_CHARS``
    characters, each converted by one ``np.array`` per kind.  Raises
    ``ValueError`` or ``OverflowError`` where a token does not parse.
    """
    idx_blocks, val_blocks = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    start, chars = 0, 0
    for stop, feats in enumerate(feat_texts, start=1):
        chars += len(feats)
        if chars >= _BLOCK_CHARS or stop == len(feat_texts):
            pieces = _index_value_pieces(" ".join(f for f in feat_texts[start:stop] if f))
            idx_blocks.append(np.array(pieces[0::2], dtype=np.int64))
            val_blocks.append(np.array(pieces[1::2], dtype=float))
            start, chars = stop, 0
    return np.concatenate(idx_blocks), np.concatenate(val_blocks)


def _index_value_pieces(feats: str) -> list[str]:
    """The feature tokens of ``feats`` split into [index, value, index, ...].

    Raises ``ValueError`` unless every token holds exactly one ':'.
    Printable ASCII text has no whitespace but ' ', and one ':' per token
    then leaves no room for a double space, so such text is split as it
    is; other text is first re-joined by single spaces.
    """
    if not feats:
        return []
    b = np.frombuffer(feats.encode("utf-8"), dtype=np.uint8)
    if not (b.min() >= ord(" ") and b.max() <= ord("~") and _one_colon_per_token(b)):
        feats = " ".join(feats.split())
        if not _one_colon_per_token(np.frombuffer(feats.encode("utf-8"), dtype=np.uint8)):
            raise ValueError("a feature token without exactly one ':'")
    return feats.replace(":", " ").split(" ")


def _one_colon_per_token(b: np.ndarray) -> bool:
    """Whether every token of the space-joined UTF-8 bytes ``b`` has one ':'.

    That holds exactly when the separators alternate ':', ' ', ':', ...,
    ':', i.e. each space lies between two consecutive colons.  ':' and ' '
    never occur inside a multi-byte UTF-8 sequence.
    """
    colons = np.flatnonzero(b == ord(":"))
    spaces = np.flatnonzero(b == ord(" "))
    return (colons.size == spaces.size + 1 and bool(np.all(colons[:-1] < spaces))
            and bool(np.all(spaces < colons[1:])))


def _locate_error(path, linenos, label_toks, feat_texts) -> NoReturn:
    """Raise the ``LibsvmFormatError`` of the first offending line.

    Runs only after a whole-array check of ``read_libsvm`` failed, and
    walks the data lines token by token in file order.
    """
    for lineno, label, feats in zip(linenos, label_toks, feat_texts):
        try:
            value = float(label)
        except ValueError:
            raise LibsvmFormatError(f"{path}:{lineno}: bad label {label!r}")
        if not math.isfinite(value):
            raise LibsvmFormatError(f"{path}:{lineno}: non-finite label {label!r}")
        prev = 0
        for tok in feats.split():
            try:
                idx_str, val_str = tok.split(":", 1)
                idx = int(idx_str)
                val = float(val_str)
            except ValueError:
                raise LibsvmFormatError(f"{path}:{lineno}: bad feature token {tok!r}")
            if idx < 1:
                raise LibsvmFormatError(f"{path}:{lineno}: index {idx} is not 1-based")
            if idx > _MAX_INDEX:
                raise LibsvmFormatError(
                    f"{path}:{lineno}: index {idx} exceeds the largest supported "
                    f"index {_MAX_INDEX}"
                )
            if idx <= prev:
                raise LibsvmFormatError(
                    f"{path}:{lineno}: indices must be strictly increasing "
                    f"({idx} after {prev})"
                )
            if not math.isfinite(val):
                raise LibsvmFormatError(f"{path}:{lineno}: non-finite value in {tok!r}")
            prev = idx
    raise AssertionError(f"{path}: the array checks failed but no line is at fault")


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
