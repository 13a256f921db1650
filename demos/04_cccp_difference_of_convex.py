"""The concave-convex procedure on a penalty-derived DC split.

Any concave differentiable penalty splits exactly as

    zeta(|t|) = kappa * |t| - h(t),       kappa = zeta'(0),

with h convex and smooth.  Minimizing f + r then becomes minimizing
u - v with u = f + kappa*||.||_1 (convex) and v = sum h(w_i) (convex,
smooth): each outer iteration linearizes v and solves a weighted-lasso
subproblem, optionally inside a box constraint.  On the same problem
this lands on the same objective value as the MM solver.
"""

import numpy as np

from nonconvex_mm import (
    CccpConfig,
    LeastSquaresLoss,
    McpPenalty,
    MmConfig,
    ProblemInstance,
    SyntheticSpec,
    certify,
    dc_decompose,
    dc_problem_from_penalty,
    run_cccp,
    run_mm,
    synth_generate,
)

np.set_printoptions(precision=3, suppress=True)

# ---------------------------------------------------- the decomposition
pen = McpPenalty(lam=1.0, gamma=2.0)
kappa, h = dc_decompose(pen)
print(f"MCP(lam=1, gamma=2): kappa = {kappa}")
for t in (0.0, 1.0, 2.0, 4.0):
    print(f"  t={t}: zeta={pen.value(t):.3f}  reconstructed="
          f"{kappa * t - h.value(t):.3f}  h={h.value(t):.3f}")

# ---------------------------------------------------------- solve a model
spec = SyntheticSpec(n=100, p=20, sparsity=5, noise_sd=0.3, seed=19,
                     task="regression")
data, _ = synth_generate(spec)
loss = LeastSquaresLoss(data)
pen = McpPenalty(lam=0.25, gamma=3.0)

dc = dc_problem_from_penalty(loss, pen)
print(f"\ncertified strong convexity of u: gamma_u = {dc.gamma_u:.4f}")

trace = run_cccp(dc, CccpConfig(tol=1e-10, inner_tol=1e-12, max_iter=300))
print(f"cccp: {trace.num_steps()} outer iterations, F* = {trace.final_objective:.10f}")
cert = certify(trace)
print(f"outer descent and residual bound hold: {cert.passed} "
      f"(worst descent margin {cert.worst_descent:.2e})")

mm = run_mm(ProblemInstance(loss=loss, penalty=pen),
            MmConfig(scheme="a", max_iter=5000, tol=1e-12))
print(f"mm-(a) on the same objective: F* = {mm.final_objective:.10f}")
print(f"|F_cccp - F_mm| = {abs(trace.final_objective - mm.final_objective):.2e}")

# ------------------------------------------------------- box constraints
boxed = dc_problem_from_penalty(loss, pen, box=(-0.5, 0.5))
btrace = run_cccp(boxed, CccpConfig(tol=1e-10, inner_tol=1e-12, max_iter=300))
w = btrace.final_w
print(f"\nbox [-0.5, 0.5]: max |w_i| = {np.max(np.abs(w)):.3f} "
      f"(every iterate feasible: "
      f"{all(np.all(np.abs(x) <= 0.5) for x in btrace.iterates)})")
print("solution:", w)
