"""GF(2) kernel of a random adjacency matrix and the dilution threshold.

The solution count N of A^T x = 0 is 2^(m - rank).  Its mean has a
closed form; at scale the normalized log-mean converges to a variational
rate, and for heavy-tailed bias seeds that rate crosses its baseline at
a critical dilution gamma_c.
"""

from exchgraph import (DiracMixing, EnsembleConfig, ExplicitRows, NoThresholdError,
                       PowerLawMixing, PowerLawSeed, expected_solutions,
                       gamma_critical, log_expected_solutions, mc_kernel_mean,
                       rank_gf2, rate_sup, sample_graph, threshold_bisection)

# census of one sampled replica
config = EnsembleConfig(n=40, mixing=PowerLawMixing(alpha=1.0, beta=3.0),
                        master_seed=3, replicas=1)
census = rank_gf2(sample_graph(config, 0).matrix)
print(f"one 40x40 replica: rank {census.rank}, "
      f"{census.n_solutions} kernel vectors, {census.s_hypercycles} nonzero")

# closed-form mean vs a direct replica average
dirac = EnsembleConfig(n=24, mixing=DiracMixing(lam=0.9), master_seed=3, replicas=20_000)
exact = expected_solutions(dirac)
mc = mc_kernel_mean(dirac)
print(f"mean solutions, 24x24 dirac bias: exact {exact:.3f}, "
      f"mc {mc.mean_solutions:.3f} +- {mc.se:.3f}")

# growth rate of the log-mean at three dilutions (rows per column = 1/gamma)
print()
print("normalized log-mean vs variational rate, dirac seed t0=1")
n = 400
for gamma in (0.5, 0.8, 1.0):
    m = int(round(n / gamma))
    lhs = log_expected_solutions(EnsembleConfig(n, DiracMixing(lam=1.0), ExplicitRows(m))) / n
    sup = rate_sup(PowerLawSeed(alpha=1.0, beta=1.5), gamma)  # heavy seed
    print(f"  gamma={gamma}: finite-n {lhs:.4f}, "
          f"heavy-seed rate {sup.i_gamma:.4f} "
          f"(exceeds baseline: {sup.exceeds_baseline})")

# threshold verdicts by seed tail
print()
for beta in (1.5, 3.0):
    seed = PowerLawSeed(alpha=1.0, beta=beta)
    try:
        gamma_c = gamma_critical(seed)
        print(f"beta={beta}: threshold at gamma_c = {gamma_c:.6f}")
    except NoThresholdError as exc:
        print(f"beta={beta}: {exc}")

_, trace = threshold_bisection(PowerLawSeed(alpha=1.0, beta=1.5))
flips = sum(1 for (_, a), (_, b) in zip(trace, trace[1:]) if a != b)
print(f"bisection probes: {len(trace)}, predicate flips along trace: {flips}")
