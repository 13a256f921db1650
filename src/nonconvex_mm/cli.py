"""Command-line front end: solve, bench, and diagnose.

Flags mirror the math: --lambda, --theta, --gamma, --epsilon, --rho.
Exit codes: 0 converged (a certified KKT residual at most --tol) / 1
usage or input error, or a non-finite objective / 2 iteration budget
exhausted / 3 a diagnostic inequality failed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

import numpy as np

from .data_io import SyntheticSpec, read_libsvm, synth_generate, write_trace
from .diagnostics import certify
from .losses import make_loss
from .mm import IterateTrace, MmConfig, ProblemInstance, run_mm
from .penalties import make_penalty

__all__ = ["main", "build_parser"]

# CLI name -> (make_penalty kind, shape field, flag setting it, value when
# the flag is unset); only --theta is unset by default
_PENALTIES = {
    "log": ("log", "theta", "theta", 1.0),
    "log-eps": ("log_eps", "eps", "epsilon", None),
    "scad": ("scad", "theta", "theta", 3.7),
    "mcp": ("mcp", "gamma", "gamma", None),
    "capped-l1": ("capped_l1", "theta", "theta", 1.0),
}


class _Parser(argparse.ArgumentParser):
    """argparse that exits with code 1 on usage errors (not the default 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_common(sub: argparse.ArgumentParser) -> None:
    data = sub.add_argument_group("data")
    data.add_argument("--data", metavar="PATH", help="libsvm text file")
    data.add_argument("--n", type=int, default=200, help="synthetic sample count")
    data.add_argument("--p", type=int, default=50, help="synthetic dimension")
    data.add_argument("--sparsity", type=int, default=5, help="true nonzeros (synthetic)")
    data.add_argument("--noise-sd", type=float, default=0.1, help="synthetic noise level")
    data.add_argument("--seed", type=int, default=0, help="generator seed")

    model = sub.add_argument_group("model")
    model.add_argument("--loss", choices=("ls", "logistic"), default="logistic")
    model.add_argument("--penalty", choices=tuple(_PENALTIES), default="log-eps")
    model.add_argument("--lambda", dest="lam", type=float, default=0.1,
                       help="penalty weight")
    model.add_argument("--theta", type=float, default=None,
                       help="shape for log / scad / capped-l1")
    model.add_argument("--gamma", type=float, default=3.0, help="mcp shape")
    model.add_argument("--epsilon", type=float, default=0.5, help="log-eps offset")

    solver = sub.add_argument_group("solver")
    solver.add_argument("--scheme", choices=("a", "b"), default="b")
    solver.add_argument("--rho", type=float, default=1.01,
                        help="surrogate weight factor: mu = rho * L_f")
    solver.add_argument("--mu", type=float, default=None, help="override mu directly")
    solver.add_argument("--tol", type=float, default=1e-8,
                        help="stop when a step's certified KKT residual drops to this")
    solver.add_argument("--max-iter", type=int, default=5000)

    out = sub.add_argument_group("output")
    out.add_argument("--out", metavar="PATH", help="trace output file")
    out.add_argument("--format", choices=("csv", "json"), default="csv")
    out.add_argument("--weights-out", metavar="PATH",
                     help="write final w, one value per line (defaults to "
                          "<out>.weights for csv traces; json embeds it)")
    out.add_argument("--no-timing", action="store_true",
                     help="zero the elapsed_sec column for byte-reproducible output")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nonconvex-mm",
                     description="MM solvers for nonconvex-penalized smooth losses")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, descr in (
        ("solve", "run one MM solve and write its trace"),
        ("bench", "run schemes a and b on the same problem and compare"),
        ("diagnose", "run a solve and verify the convergence-theory inequalities"),
    ):
        _add_common(subs.add_parser(name, help=descr, description=descr))
    return parser


def _build_problem(args) -> ProblemInstance:
    task = "regression" if args.loss == "ls" else "classification"
    if args.data:
        data = read_libsvm(args.data, task=task)
    else:
        spec = SyntheticSpec(n=args.n, p=args.p, sparsity=args.sparsity,
                             noise_sd=args.noise_sd, seed=args.seed, task=task)
        data, _ = synth_generate(spec)
    kind, field, flag, unset = _PENALTIES[args.penalty]
    shape = getattr(args, flag)
    penalty = make_penalty(kind, args.lam, **{field: unset if shape is None else shape})
    return ProblemInstance(loss=make_loss(args.loss, data), penalty=penalty)


def _mm_config(args, scheme: str | None = None) -> MmConfig:
    return MmConfig(scheme=scheme or args.scheme, rho=args.rho, mu_override=args.mu,
                    max_iter=args.max_iter, tol=args.tol)


def _solve(prob: ProblemInstance, args, scheme: str | None = None,
           write_partial: bool = True) -> IterateTrace:
    """One run_mm with the CLI's trace settings.  A run stopped by a
    non-finite objective is an error; when ``write_partial`` (--out names
    a trace file) its partial trace is written out first."""
    trace = run_mm(prob, _mm_config(args, scheme))
    trace.meta["seed"] = args.seed
    if args.no_timing:
        trace.elapsed_sec = [0.0] * len(trace.elapsed_sec)
    if trace.meta["stop_reason"] == "nonfinite":
        if write_partial:
            _write_outputs(trace, args)
        raise FloatingPointError(
            f"objective became non-finite at iteration {len(trace)}; "
            "mu may be below the true gradient Lipschitz constant"
        )
    return trace


def _write_outputs(trace: IterateTrace, args) -> None:
    if args.out:
        write_trace(trace, args.format, args.out)
    weights_path = args.weights_out
    if weights_path is None and args.out and args.format == "csv":
        # JSON traces embed final_w; CSV traces get a sidecar file
        weights_path = args.out + ".weights"
    if weights_path:
        with open(weights_path, "w", encoding="utf-8") as fh:
            for v in trace.final_w:
                fh.write(repr(float(v)) + "\n")


def _cmd_solve(args) -> int:
    trace = _solve(_build_problem(args), args)
    _write_outputs(trace, args)
    print(f"scheme         : {args.scheme}")
    print(f"iterations     : {trace.num_steps()}")
    print(f"final objective: {trace.final_objective:.12g}")
    print(f"kkt residual   : {trace.meta['kkt']:.6g}")
    print(f"converged      : {trace.converged}")
    nnz = int(np.count_nonzero(trace.final_w))
    print(f"nonzeros       : {nnz} / {len(trace.final_w)}")
    return 0 if trace.converged else 2


def _pad(seq, length, fill):
    return list(seq) + [fill] * (length - len(seq))


def _cmd_bench(args) -> int:
    prob = _build_problem(args)
    schemes = ["a"]
    note = None
    if prob.penalty.supports_linearization:
        schemes.append("b")
    else:
        note = f"scheme b unsupported for {prob.penalty.kind}; running scheme a only"

    # --out names the combined CSV here, not a trace
    traces = [_solve(prob, args, s, write_partial=False) for s in schemes]

    by = dict(zip(schemes, traces))
    ta = by["a"]
    tb = by.get("b")
    rows = max(len(t.iters) for t in traces)
    obj_a = _pad(ta.objective, rows, ta.final_objective)
    ela_a = _pad(ta.elapsed_sec, rows, ta.elapsed_sec[-1])
    if tb is not None:
        obj_b = _pad(tb.objective, rows, tb.final_objective)
        ela_b = _pad(tb.elapsed_sec, rows, tb.elapsed_sec[-1])
    else:
        obj_b = [None] * rows
        ela_b = [0.0] * rows

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("iter,elapsed_sec,objective_a,objective_b\n")
            for k in range(rows):
                elapsed = max(ela_a[k], ela_b[k])
                b_cell = "" if obj_b[k] is None else repr(float(obj_b[k]))
                fh.write(f"{k},{elapsed!r},{float(obj_a[k])!r},{b_cell}\n")

    if note:
        print(note)
    print(f"{'scheme':<6} {'steps':>7} {'loss evals':>10} {'final kkt':>12}")
    for s, t in by.items():
        print(f"{s:<6} {t.num_steps():>7} {t.meta['loss_evals']:>10} {t.meta['kkt']:>12.6g}")
    if tb is not None:
        gap = abs(ta.final_objective - tb.final_objective)
        # reference optimum for error-vs-time plots: best of the two schemes
        ref = min(ta.final_objective, tb.final_objective)
        print(f"reference F* (best run): {ref:.12g}")
        print(f"|F_a - F_b|            : {gap:.6g}")
    else:
        print(f"final objective (a): {ta.final_objective:.12g}")
    return 0 if all(t.converged for t in traces) else 2


def _cmd_diagnose(args) -> int:
    trace = _solve(_build_problem(args), args)
    cert = certify(trace)
    report = asdict(cert)
    rate = report.pop("rate")
    if np.isnan(rate["rate_constant"]):
        rate["rate_constant"] = None
    trace.meta["rate_fit"] = rate
    trace.meta["certificate"] = {"passed": cert.passed, **report}
    _write_outputs(trace, args)

    fit = cert.rate
    print(f"gamma (mu - L_f)           : {cert.gamma:.6g}")
    print(f"worst descent margin       : {cert.worst_descent:.6g}")
    print(f"worst residual-bound margin: {cert.worst_bound:.6g}")
    print(f"trajectory length          : total {cert.length:.6g}, "
          f"second-half tail {cert.tail:.6g}")
    print(f"rate regime                : {fit.regime} "
          f"(constant {fit.rate_constant:.6g}, fit quality {fit.fit_quality:.3f})")
    print(f"final kkt residual         : {cert.kkt:.6g}")
    if cert.failures:
        print("FAILED checks:")
        for f in cert.failures:
            print(f"  - {f}")
        return 3
    print("all inequality checks passed")
    return 0 if trace.converged else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_diagnose(args)
    except (OSError, ValueError, FloatingPointError) as exc:
        print(f"nonconvex-mm: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
