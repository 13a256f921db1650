"""Command-line front end: solve, bench, and diagnose.

Flags mirror the math: --lambda, --theta, --gamma, --epsilon, --rho.
``solve`` and ``diagnose`` run one scheme and write its trace (--out,
--format, --weights-out).  ``bench`` runs both schemes (scheme a alone
for a penalty that cannot be linearized) and writes one combined CSV to
--out, where a run that stopped earlier repeats its last row; it takes
no --scheme, --format or --weights-out.

Exit codes: 0 converged (a certified KKT residual at most --tol) / 1
usage or input error, or a non-finite objective / 2 iteration budget
exhausted / 3 a diagnostic inequality failed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields

import numpy as np

from .data_io import SyntheticSpec, read_libsvm, synth_generate, write_trace
from .diagnostics import certify
from .losses import _LOSSES, make_loss
from .mm import IterateTrace, MmConfig, ProblemInstance, run_mm
from .penalties import _KINDS, make_penalty

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """argparse that exits with code 1 on usage errors (not the default 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_common(sub: argparse.ArgumentParser, one_trace: bool) -> None:
    """The flags every subcommand reads; ``one_trace`` adds the ones of a
    subcommand that runs one scheme and writes its trace."""
    data = sub.add_argument_group("data")
    data.add_argument("--data", metavar="PATH", help="libsvm text file")
    data.add_argument("--n", type=int, default=200, help="synthetic sample count")
    data.add_argument("--p", type=int, default=50, help="synthetic dimension")
    data.add_argument("--sparsity", type=int, default=5, help="true nonzeros (synthetic)")
    data.add_argument("--noise-sd", type=float, default=0.1, help="synthetic noise level")
    data.add_argument("--seed", type=int, default=0, help="generator seed")

    model = sub.add_argument_group("model")
    model.add_argument("--loss", choices=tuple(_LOSSES), default="logistic")
    model.add_argument("--penalty", choices=[k.replace("_", "-") for k in _KINDS],
                       default="log-eps")
    model.add_argument("--lambda", dest="lam", type=float, default=0.1,
                       help="penalty weight")
    # each shape flag's dest is a penalty field; unset, the penalty's default applies
    model.add_argument("--theta", type=float, help="shape for log / scad / capped-l1")
    model.add_argument("--gamma", type=float, help="mcp shape")
    model.add_argument("--epsilon", dest="eps", metavar="EPSILON", type=float,
                       help="log-eps offset")

    solver = sub.add_argument_group("solver")
    if one_trace:
        solver.add_argument("--scheme", choices=("a", "b"), default="b")
    solver.add_argument("--rho", type=float, default=1.01,
                        help="surrogate weight factor: mu = rho * L_f")
    solver.add_argument("--mu", type=float, default=None, help="override mu directly")
    solver.add_argument("--tol", type=float, default=1e-8,
                        help="stop when a step's certified KKT residual drops to this")
    solver.add_argument("--max-iter", type=int, default=5000)

    out = sub.add_argument_group("output")
    out.add_argument("--out", metavar="PATH", help="trace output file" if one_trace else
                     "combined CSV: iter, elapsed_sec and one objective column per scheme")
    if one_trace:
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
    for name, run, descr in (
        ("solve", _cmd_solve, "run one MM solve and write its trace"),
        ("bench", _cmd_bench, "run schemes a and b on the same problem and compare"),
        ("diagnose", _cmd_diagnose, "run a solve and verify the convergence-theory inequalities"),
    ):
        sub = subs.add_parser(name, help=descr, description=descr)
        _add_common(sub, one_trace=run is not _cmd_bench)
        sub.set_defaults(run=run)
    return parser


def _build_problem(args) -> ProblemInstance:
    task = _LOSSES[args.loss].task
    if args.data:
        data = read_libsvm(args.data, task=task)
    else:
        spec = SyntheticSpec(n=args.n, p=args.p, sparsity=args.sparsity,
                             noise_sd=args.noise_sd, seed=args.seed, task=task)
        data, _ = synth_generate(spec)
    kind = args.penalty.replace("-", "_")
    # lam and the shape field; an unset shape flag takes the penalty's default
    params = {f.name: v for f in fields(_KINDS[kind]) if (v := getattr(args, f.name)) is not None}
    return ProblemInstance(loss=make_loss(args.loss, data), penalty=make_penalty(kind, **params))


def _solve(prob: ProblemInstance, args, scheme: str | None = None,
           write_partial: bool = True) -> IterateTrace:
    """One run_mm with the CLI's trace settings.  A run stopped by a
    non-finite objective is an error; when ``write_partial`` (--out names
    a trace file) its partial trace is written out first."""
    trace = run_mm(prob, MmConfig(scheme=scheme or args.scheme, rho=args.rho,
                                  mu_override=args.mu, max_iter=args.max_iter, tol=args.tol))
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


def _cmd_bench(args) -> int:
    prob = _build_problem(args)
    schemes = "ab" if prob.penalty.supports_linearization else "a"
    traces = [_solve(prob, args, s, write_partial=False) for s in schemes]

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("iter,elapsed_sec,objective_a,objective_b\n")
            for k in range(max(map(len, traces))):
                # a run that stopped earlier repeats its last row; a scheme
                # that did not run leaves its column empty
                last = [(t, min(k, len(t) - 1)) for t in traces]
                elapsed = max(t.elapsed_sec[j] for t, j in last)
                objectives = ",".join(repr(float(t.objective[j])) for t, j in last)
                fh.write(f"{k},{elapsed!r},{objectives}{',' * (2 - len(last))}\n")

    finals = [t.final_objective for t in traces]
    if len(finals) == 2:
        # reference optimum for error-vs-time plots: best of the two schemes
        summary = [f"reference F* (best run): {min(finals):.12g}",
                   f"|F_a - F_b|            : {abs(finals[0] - finals[1]):.6g}"]
    else:
        print(f"scheme b unsupported for {prob.penalty.kind}; running scheme a only")
        summary = [f"final objective (a): {finals[0]:.12g}"]
    print(f"{'scheme':<6} {'steps':>7} {'loss evals':>10} {'final kkt':>12}")
    for s, t in zip(schemes, traces):
        print(f"{s:<6} {t.num_steps():>7} {t.meta['loss_evals']:>10} {t.meta['kkt']:>12.6g}")
    print("\n".join(summary))
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
        return args.run(args)
    except (OSError, ValueError, FloatingPointError) as exc:
        print(f"nonconvex-mm: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
