"""Record the reference objective of every pool instance of a workload.

Run from the repository root, once per workload (they may run in
parallel; each writes only ``reference/<workload>.json``):

    python3 perfbench/record_reference.py --workload logistic-dense

Each instance is set up and solved exactly as the benchmark does.  The
recorded value is the checker's own F at the final iterate.  The script
refuses to record an instance whose solve does not converge or whose
residual exceeds the workload's target, and prints the largest residual
seen so the target's margin can be judged.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=run.WORKLOAD_NAMES)
    args = ap.parse_args(argv)
    run.pin_blas_threads(run.BLAS_THREADS)
    sys.path.insert(0, str(run.SRC))
    from checker import REFERENCE_DIR, objective_and_residual
    from tracer import NullTracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    seeds = list(range(workload.pool))
    values, worst = {}, 0.0
    with run.scratch_dir() as workdir:
        ctx = workload.prepare(seeds, workdir)
        for ds in seeds:
            for s in workload.setup(ds, ctx, NullTracer()):
                t0 = time.perf_counter()
                out = workload.solve(s, NullTracer(), time.perf_counter)
                F, resid = objective_and_residual(s.loss.kind, s.loss.data.X, s.loss.data.y,
                                                  s.case.penalty, s.params, out.w, s.box)
                print(f"{s.case.key}: iters={out.iters} F={F!r} residual={resid:.2e} "
                      f"time={time.perf_counter() - t0:.2f}s", flush=True)
                if not out.converged or not resid <= workload.kkt_target:
                    print(f"error: {s.case.key} did not reach the target", file=sys.stderr)
                    return 1
                values[s.case.key] = F
                worst = max(worst, resid)

    with open(REFERENCE_DIR / f"{workload.name}.json", "w", encoding="utf-8") as fh:
        json.dump(values, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{workload.name}: {len(values)} instances, largest residual {worst:.2e}, "
          f"target {workload.kkt_target:.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
