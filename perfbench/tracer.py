"""Spans around the calls into each layer of ``nonconvex_mm``.

The program itself is not changed.  The traced run wraps

* the loss object's ``value`` and ``gradient`` and the penalty object's
  ``prox`` and ``deriv`` (instance attributes, set at set-up time);
* the module attributes ``run_mm`` and ``run_cccp`` look up:
  ``mm.step_a``/``mm.step_b``, ``mm.subgradient_residual``,
  ``mm.kkt_residual``, ``diagnostics.kkt_residual`` (called inside
  ``subgradient_residual``), ``cccp.cccp_step`` and
  ``cccp.least_squares_strong_convexity``;
* the benchmark's own calls (data generation and reading, the first
  ``lipschitz`` read, ``dc_problem_from_penalty``, each solve).

Each span is (name, start, end, parent); spans stay in memory and are
reduced to per-layer metrics when the sweep ends.  A layer's self time
is its span minus the spans directly under it.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class NullTracer:
    """Used by untimed and timed runs: records nothing."""

    @contextmanager
    def span(self, name):
        yield

    def instrument_loss(self, loss):
        return loss

    def instrument_penalty(self, penalty):
        return penalty


class Tracer:
    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def _open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn, count=None):
        """``fn`` inside a span; ``count(args, result)`` adds to counters."""
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(args, result)
            return result
        return traced

    def instrument_loss(self, loss):
        loss.value = self.wrap("losses.value", loss.value)
        loss.gradient = self.wrap("losses.gradient", loss.gradient)
        return loss

    def instrument_penalty(self, penalty):
        def coords(args, result):
            self.counts["penalties.prox.coords"] += np.size(args[0])
        # penalties are frozen dataclasses; instance attributes still shadow methods
        object.__setattr__(penalty, "prox", self.wrap("penalties.prox", penalty.prox, coords))
        object.__setattr__(penalty, "deriv", self.wrap("penalties.deriv", penalty.deriv))
        return penalty

    @contextmanager
    def patched_modules(self):
        mm = importlib.import_module("nonconvex_mm.mm")
        diagnostics = importlib.import_module("nonconvex_mm.diagnostics")
        cccp = importlib.import_module("nonconvex_mm.cccp")

        def inner(args, result):
            self.counts["cccp.inner_iters"] += result[1].iterations

        targets = [
            (mm, "step_a", "mm.step", None),
            (mm, "step_b", "mm.step", None),
            (mm, "subgradient_residual", "diagnostics.subgradient_residual", None),
            (mm, "kkt_residual", "diagnostics.kkt_residual", None),
            (diagnostics, "kkt_residual", "diagnostics.kkt_residual", None),
            (cccp, "cccp_step", "cccp.step", inner),
            (cccp, "least_squares_strong_convexity", "losses.strong_convexity", None),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in targets]
        try:
            for mod, attr, name, count in targets:
                setattr(mod, attr, self.wrap(name, getattr(mod, attr), count))
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    # --- reduction -------------------------------------------------------
    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, inclusive seconds and self seconds per span name."""
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros_like(dur)
        parent = np.asarray(self.parent, dtype=int)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, name in enumerate(self.name):
            t = out[name]
            t["calls"] += 1
            t["s"] += float(dur[i])
            t["self_s"] += float(dur[i] - child[i])
        return out

    def top_level_seconds(self, prefix: str) -> float:
        """Time in spans named ``prefix*`` that have no such ancestor."""
        total = 0.0
        for i, name in enumerate(self.name):
            if not name.startswith(prefix):
                continue
            j = self.parent[i]
            while j >= 0 and not self.name[j].startswith(prefix):
                j = self.parent[j]
            if j < 0:
                total += self.end[i] - self.start[i]
        return total
