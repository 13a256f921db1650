"""Print one line per benchmark pool trace: its workload, its case key, a
SHA-256 of the trace and ``certify``'s verdict.

Every instance of every workload's pool (``range(w.pool)``) is built by
``perfbench/workloads.py``, with ``prepare`` writing its input files into
a temporary directory, and solved with the workload's own ``config``:
``run_mm`` for a ``ProblemInstance``, ``run_cccp`` for a ``DcProblem``.
The solver is imported from the source tree given (default ``src``), so
two trees that print the same lines gave every pool trace the same bits
and the same verdict.  The hash covers the objective, step norm,
residual, mu and beta columns, every iterate's bytes, ``final_w``,
``converged`` and ``meta`` as a sorted mapping with the type of each
value.  The verdict is ``pass`` or ``fail`` with the name of each failed
rule, then ``certify``'s worst descent and bound margins.  The BLAS is
pinned to one thread, as in the benchmark.  Informational; it gates
nothing.

    python tools/pool_hash.py [src]
"""

import hashlib
import os
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def canonical(value) -> str:
    """A text that fixes value's bits and type: floats by ``repr`` (which
    round-trips), arrays by their bytes, mappings sorted by key."""
    # imported here, once main has pinned the BLAS threads
    import numpy as np
    if isinstance(value, dict):
        items = ", ".join(f"{k!r}: {canonical(value[k])}" for k in sorted(value))
        return f"{{{items}}}"
    if isinstance(value, (list, tuple)):
        return f"{type(value).__name__}[{', '.join(map(canonical, value))}]"
    if isinstance(value, np.ndarray):
        return f"ndarray[{value.dtype}{value.shape}:{value.tobytes().hex()}]"
    return f"{type(value).__name__}:{value!r}"


def trace_hash(trace) -> str:
    h = hashlib.sha256()
    for name in ("objective", "step_norm", "residual", "mu", "beta"):
        h.update(f"{name}={canonical(getattr(trace, name))}\n".encode())
    for w in trace.iterates or ():
        h.update(w.tobytes())
    h.update(f"final_w={canonical(trace.final_w)}\n".encode())
    h.update(f"converged={canonical(trace.converged)}\n".encode())
    h.update(f"meta={canonical(trace.meta)}\n".encode())
    return h.hexdigest()


def verdict(cert) -> str:
    names = ",".join(f.split(":")[0] for f in cert.failures)
    head = "pass" if cert.passed else f"fail[{names}]"
    return f"{head} worst_descent={cert.worst_descent!r} worst_bound={cert.worst_bound!r}"


def main(src: str = "src") -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = Path(src).resolve()
    sys.path[:0] = [str(src), str(PERFBENCH)]
    import nonconvex_mm
    if Path(nonconvex_mm.__file__).resolve().parent.parent != src:
        raise SystemExit(f"nonconvex_mm imported from {nonconvex_mm.__file__}, not {src}")
    from nonconvex_mm import ProblemInstance, certify, run_cccp, run_mm
    from tracer import NullTracer
    from workloads import WORKLOADS

    tracer = NullTracer()
    for w in WORKLOADS.values():
        seeds = range(w.pool)
        with tempfile.TemporaryDirectory() as tmp:
            ctx = w.prepare(seeds, Path(tmp))
            for seed in seeds:
                for s in w.setup(seed, ctx, tracer):
                    solve = run_mm if isinstance(s.problem, ProblemInstance) else run_cccp
                    trace = solve(s.problem, w.config)
                    print(w.name, s.case.key, trace_hash(trace), verdict(certify(trace)),
                          flush=True)


if __name__ == "__main__":
    main(*sys.argv[1:])
