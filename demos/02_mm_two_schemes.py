"""Sparse logistic regression with the LOG penalty, solved two ways.

Scheme (a) majorizes only the loss and applies the penalty's exact prox;
scheme (b) additionally linearizes the penalty, which turns every update
into one weighted soft-threshold -- the classical iteratively
re-weighted l1 method.  Both descend monotonically and land on the same
objective value; (b) is cheaper per iteration because it never solves the
LOG prox's per-coordinate quadratic.
"""

import numpy as np

from nonconvex_mm import (
    LogEpsilonPenalty,
    LogisticLoss,
    MmConfig,
    ProblemInstance,
    SyntheticSpec,
    kkt_residual,
    run_mm,
    synth_generate,
    write_trace,
)

# a classification problem with 5 informative features out of 50
spec = SyntheticSpec(n=200, p=50, sparsity=5, noise_sd=0.5, seed=42,
                     task="classification")
data, w_true = synth_generate(spec)
print("true support:", np.flatnonzero(w_true))

loss = LogisticLoss(data)
penalty = LogEpsilonPenalty(lam=0.2, eps=1.0)
prob = ProblemInstance(loss=loss, penalty=penalty)
print(f"loss curvature bound L_f = {loss.lipschitz:.3f}; "
      f"surrogate weight cap mu = {1.01 * loss.lipschitz:.3f}")

traces = {}
for scheme in ("a", "b"):
    cfg = MmConfig(scheme=scheme, rho=1.01, max_iter=5000, tol=1e-12)
    tr = run_mm(prob, cfg)
    traces[scheme] = tr
    print(f"scheme ({scheme}): {tr.num_steps()} iterations, "
          f"F* = {tr.final_objective:.10f}, "
          f"kkt residual = {kkt_residual(tr.final_w, prob):.2e}, "
          f"support = {np.flatnonzero(tr.final_w)}, "
          f"per-step mu_k in [{min(tr.mu[1:]):.3f}, {max(tr.mu[1:]):.3f}]")

gap = abs(traces["a"].final_objective - traces["b"].final_objective)
print(f"\nthe two schemes agree: |F_a - F_b| = {gap:.2e}")

# every recorded objective value decreases -- the majorization guarantee
objs = np.asarray(traces["b"].objective)
print("objective monotone along the run:", bool(np.all(np.diff(objs) <= 1e-12)))

write_trace(traces["b"], "csv", "mm_scheme_b_trace.csv")
print("wrote mm_scheme_b_trace.csv (iter, objective, step_norm, residual, elapsed_sec)")
