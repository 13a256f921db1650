"""Checking the convergence theory numerically on a live run.

Four certificates back the solver's convergence story:

1. sufficient descent: each step decreases F by at least
   (mu - L_f)/2 * ||step||^2;
2. subgradient bound: every step hands us an element of the
   subdifferential at the new iterate whose norm is at most
   (mu + L_f + L_zeta) * ||step||, so vanishing steps force criticality;
3. finite length: the trajectory's total length is finite and its tail
   is a vanishing fraction of it;
4. rate regime: the error to the limit decays geometrically when the
   objective has enough local structure (a linear-rate regime).
"""

from nonconvex_mm import (
    LeastSquaresLoss,
    McpPenalty,
    MmConfig,
    ProblemInstance,
    SyntheticSpec,
    certify,
    run_mm,
    synth_generate,
)

spec = SyntheticSpec(n=100, p=20, sparsity=5, noise_sd=0.2, seed=7,
                     task="regression")
data, _ = synth_generate(spec)
prob = ProblemInstance(loss=LeastSquaresLoss(data),
                       penalty=McpPenalty(lam=0.2, gamma=3.0))

trace = run_mm(prob, MmConfig(scheme="a", rho=1.01, max_iter=3000, tol=1e-12))
print(f"run: {trace.num_steps()} steps, stopped on {trace.meta['stop_reason']}")

# run_mm recorded its guarantee in trace.meta; certify checks every step
cert = certify(trace)

# 1. sufficient descent margins
print(f"descent: gamma = mu - L_f = {cert.gamma:.4f}, "
      f"worst margin {cert.worst_descent:.2e} (must be >= -1e-9)")

# 2. subgradient bound
print(f"subgradient bound: worst (bound - ||A||) = {cert.worst_bound:.2e} (>= -1e-8)")
print(f"kkt residual at the last iterate: {cert.kkt:.2e}")

# 3. finite length
print(f"finite length: total {cert.length:.4f}, second-half tail {cert.tail:.2e}")

# 4. rate regime
fit = cert.rate
print(f"rate regime: {fit.regime}, contraction factor {fit.rate_constant:.4f}, "
      f"fit quality {fit.fit_quality:.4f}")
print(f"all certificates hold: {cert.passed}")
