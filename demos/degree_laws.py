"""Exact finite-n degree laws next to their large-n limits.

Every pmf here is analytic; nothing is simulated.  The tables show how
fast the exact out-degree law lands on its limit as n grows, and check
two closed-form limit laws against their mixture-integral definitions.
"""

import numpy as np

from exchgraph import (ExponentialSeed, GammaSeed, PowerLawMixing, SeedDistribution,
                       limit_pmf, out_pmf_exact, total_variation)

spec = PowerLawMixing(alpha=1.0, beta=3.0)
seed = spec.limit_seed()      # the limit of n * theta; the degree limit is its Poisson mixture
ks = np.arange(61)

print("out-degree law for the power-law mixture (alpha=1, beta=3)")
print(f"{'n':>8}  TV(exact, limit)")
for n in (100, 1_000, 10_000):
    exact = out_pmf_exact(spec, n, ks)
    tv = total_variation(exact, limit_pmf(seed, ks))
    print(f"{n:>8}  {tv:.2e}")

print()
print("first orders of the limit pmf, with the k^-(beta) tail visible")
pmf = limit_pmf(seed, np.arange(9))
print("  k:   " + "  ".join(f"{k:>7d}" for k in range(9)))
print("  p_k: " + "  ".join(f"{p:7.4f}" for p in pmf))

# Two seeds give limit laws with elementary closed forms; the seed's own
# integral of the Poisson pmf is an independent route to each.
print()
geo = limit_pmf(ExponentialSeed(gamma=1.0), 3)
print(f"geometric check: p_3 = {geo:.6f}, 2^-4 = {2 ** -4:.6f}")

gamma_seed, orders = GammaSeed(r=2.5, gamma=0.7), np.arange(30)
nb, mix = limit_pmf(gamma_seed, orders), SeedDistribution._mixture_pmf(gamma_seed, orders)
print(f"negative binomial vs gamma-mixed Poisson, max gap k<30: {np.max(np.abs(nb - mix)):.2e}")
