"""Tour of the five nonconvex penalties and their exact scalar prox.

Each penalty interpolates between l1-like behavior near zero and a flat
(or nearly flat) tail, which is what removes the estimation bias of the
plain l1 norm.  The prox operators are exact and closed-form, with no
inner iterations: a threshold formula where the prox objective is convex
(soft, firm or SCAD thresholding), and a threshold on |u| between the two
competing pieces where it is not.
"""

import numpy as np

from nonconvex_mm import (
    CappedL1Penalty,
    LogEpsilonPenalty,
    LogPenalty,
    McpPenalty,
    ScadPenalty,
)

penalties = {
    "LOG (normalized)": LogPenalty(lam=1.0, theta=2.0),
    "LOG (epsilon)": LogEpsilonPenalty(lam=1.0, eps=0.5),
    "SCAD": ScadPenalty(lam=1.0, theta=3.7),
    "MCP": McpPenalty(lam=1.0, gamma=2.0),
    "capped-l1": CappedL1Penalty(lam=1.0, theta=1.5),
}

# ---------------------------------------------------------------- values
# All five rise linearly from the origin, like the l1 norm, but flatten out.
ts = np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0])
print("penalty values zeta(t)")
print("t:".ljust(18), "  ".join(f"{t:7.2f}" for t in ts))
for name, pen in penalties.items():
    print(name.ljust(18), "  ".join(f"{pen.value(t):7.3f}" for t in ts))

# ------------------------------------------------------------ derivatives
# The derivative is the per-coordinate weight a linearized (re-weighted l1)
# scheme would use; it decays to 0 so large coefficients stop being shrunk.
print("\nderivatives zeta'(t)  (the re-weighted-l1 weights)")
for name, pen in penalties.items():
    if name == "capped-l1":
        continue  # derivative jumps at theta, linearization unsupported
    print(name.ljust(18), "  ".join(f"{pen.deriv(t):7.3f}" for t in ts))

# ---------------------------------------------------------------- the prox
# Soft-thresholding (l1) shrinks everything by the same amount; nonconvex
# proxes leave large inputs untouched.
us = np.linspace(0.0, 4.0, 9)
alpha = 1.0
print(f"\nprox_alpha(u) at alpha = {alpha}  (l1 would give max(u - 1, 0))")
print("u:".ljust(18), "  ".join(f"{u:7.2f}" for u in us))
for name, pen in penalties.items():
    outs = pen.prox(us, alpha)
    print(name.ljust(18), "  ".join(f"{o:7.3f}" for o in outs))

# MCP beyond lam*gamma is completely flat, so the prox is the identity there:
mcp = penalties["MCP"]
print("\nMCP prox passes large inputs through unchanged:",
      mcp.prox(10.0, 1.0), "== 10.0")
