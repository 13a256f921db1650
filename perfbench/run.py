"""Time-to-certified-tolerance benchmark for nonconvex-mm.

Run from the repository root:

    python3 perfbench/run.py --workload logistic-dense --seed 1 --seconds 24 --trace 0

It imports the solver from ``src/`` of the same checkout, pins the BLAS
to one thread, and for the chosen workload:

1. picks the run's problem instances from ``--seed`` (same seed, same
   inputs) and writes any input files under ``.perfbench_tmp/``;
2. sets up and solves its first data set once, untimed, as warm-up;
3. repeats timed sweeps (set-up plus every solve) until ``--seconds``
   have passed, each one building fresh data, losses and penalties;
   ``time_to_tol_s``, ``iters_to_tol`` and ``setup_s`` are medians over
   sweeps;
4. solves the data set whose solves ran longest once more under
   ``tracemalloc`` for ``peak_mem_mb`` (untimed);
5. checks every answer with the benchmark's own checker.

With ``--trace 1`` it alternates untraced and traced sweeps instead and
reports the per-layer metrics of the traced ones.  The last line of
standard output is the result object; the line before it records the
environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_tmp"
BLAS_THREADS = 1
# setup_s is a median over at least this many set-ups, more when set-up is cheap
MIN_SETUP_SAMPLES, MIN_SETUP_SECONDS, MAX_SETUP_SAMPLES = 5, 1.0, 50
WORKLOAD_NAMES = ("logistic-dense", "sparse-ls-prox", "cccp-ls-box")


def pin_blas_threads(n: int) -> None:
    """Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)


def blas_threads_in_use():
    """Thread count the loaded OpenBLAS reports, or None if unknown."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import platform
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads_in_use(),
        "blas_threads_requested": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


@contextmanager
def scratch_dir():
    """A private directory under the checkout's ``.perfbench_tmp/``, removed on exit."""
    path = WORKDIR / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:  # another run still uses it
            pass


def peak_solve_mb(workload, data_seed, ctx, tracer):
    """Largest tracemalloc peak over the solves of one data set, in MB.

    Tracing starts before set-up, so the data and the problem objects
    count; the peak is reset right before each solve.  tracemalloc
    slows allocation-heavy code about threefold, so this pass is never
    timed.  Returns (peak_mb, outcomes).
    """
    import tracemalloc
    tracemalloc.start()
    try:
        solves = workload.setup(data_seed, ctx, tracer)
        peak, outcomes = 0, []
        for s in solves:
            tracemalloc.reset_peak()
            outcomes.append((s, solve(workload, s, tracer)))
            peak = max(peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return peak / 1e6, outcomes


def solve(workload, s, tracer):
    """One solve; one that raises is recorded as a failed operation."""
    from workloads import Outcome
    try:
        return workload.solve(s, tracer, time.perf_counter)
    except Exception as exc:
        return Outcome(case=s.case, seconds=0.0, iters=0, converged=False, w=None,
                       error=f"{type(exc).__name__}: {exc}")


def sweep(workload, data_seeds, ctx, tracer):
    """Set up and solve every instance once; returns (setup_s, outcomes)."""
    setup_s = 0.0
    outcomes = []
    for ds in data_seeds:
        t0 = time.perf_counter()
        solves = workload.setup(ds, ctx, tracer)
        setup_s += time.perf_counter() - t0
        outcomes += [(s, solve(workload, s, tracer)) for s in solves]
    return setup_s, outcomes


class Tally:
    """Checks every solve's answer and counts attempts and failures."""

    def __init__(self, workload, ctx):
        from checker import load_reference
        self.workload, self.ctx = workload, ctx
        self.reference = load_reference()
        self.attempted = self.failed = 0

    def add(self, outcomes) -> None:
        from checker import check_solve
        for s, out in outcomes:
            data = s.loss.data
            reasons = self.workload.input_errors(s, self.ctx) + check_solve(
                out.case, s.loss.kind, data.X, data.y, s.params, out.w, out.converged,
                self.workload.kkt_target, self.reference, box=s.box, error=out.error)
            self.attempted += 1
            if reasons:
                self.failed += 1
                print(f"FAILED {out.case.workload} {out.case.key}: {'; '.join(reasons)}",
                      file=sys.stderr)


def median(values) -> float:
    return float(statistics.median(values))


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    from layers import PER_LAYER, per_layer
    from tracer import NullTracer, Tracer

    data_seeds = workload.data_seeds(seed)
    null = NullTracer()
    with scratch_dir() as workdir:
        ctx = workload.prepare(data_seeds, workdir)
        tally = Tally(workload, ctx)
        # untimed warm-up: the first BLAS call and lazy imports are slow once per process
        setup_s, outs = sweep(workload, data_seeds[:1], ctx, null)
        tally.add(outs)
        setups, solve_s, iters, traced = [], [], [], []
        start = time.perf_counter()
        while True:
            setup_s, outs = sweep(workload, data_seeds, ctx, null)
            setups.append(setup_s)
            solve_s.append(sum(o.seconds for _, o in outs))
            iters.append(sum(o.iters for _, o in outs))
            tally.add(outs)
            if trace:
                tr = Tracer()
                with tr.patched_modules():
                    _, outs = sweep(workload, data_seeds, ctx, tr)
                traced.append((tr, outs))
                tally.add(outs)
            if time.perf_counter() - start >= seconds:
                break
        if not trace:
            # memory grows with iterations (recorded iterates), so measure the
            # data set whose solves ran longest
            longest = max(outs, key=lambda so: so[1].iters + so[1].inner_iters)[1].case.data_seed
            peak_mb, outs = peak_solve_mb(workload, longest, ctx, null)
            tally.add(outs)
        while not trace and (len(setups) < MIN_SETUP_SAMPLES or (
                sum(setups) < MIN_SETUP_SECONDS and len(setups) < MAX_SETUP_SAMPLES)):
            t0 = time.perf_counter()
            for ds in data_seeds:
                workload.setup(ds, ctx, null)
            setups.append(time.perf_counter() - t0)

    if trace:
        untraced = median(solve_s)
        sweeps = [per_layer(tr, outs, sum(o.seconds for _, o in outs), untraced,
                            ctx.get("input_bytes", 0))
                  for tr, outs in traced]
        metrics = {name: {"value": median([m[name] for m in sweeps]), "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = {
            "time_to_tol_s": {"value": median(solve_s), "unit": "s"},
            "iters_to_tol": {"value": median(iters), "unit": "count"},
            "setup_s": {"value": median(setups), "unit": "s"},
            "peak_mem_mb": {"value": peak_mb, "unit": "MB"},
        }
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "nonconvex_mm" / "__init__.py").is_file():
        print(f"error: {SRC / 'nonconvex_mm'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    pin_blas_threads(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"environment": environment(args.seed),
                      "workload": args.workload, "trace": args.trace}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
