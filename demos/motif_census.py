"""Triad counts: closed-form moments against a seeded Monte Carlo run."""

from dataclasses import replace

from exchgraph import (EnsembleConfig, PowerLawMixing, mc_motifs,
                       mc_roots_leaves, mean_cycles, mean_feedback_loops,
                       mean_feedforward_loops, mean_leaves, mean_roots,
                       var_feedback_loops, var_feedforward_loops)

spec = PowerLawMixing(alpha=1.0, beta=3.0)
n = 100
config = EnsembleConfig(n=n, mixing=spec, master_seed=7)

mc = mc_motifs(replace(config, replicas=20_000))

print(f"triads at n={n}, power-law mixture (alpha=1, beta=3), 20000 replicas")
print(f"{'statistic':<18}{'analytic':>12}{'monte carlo':>14}{'z':>8}")
for name, exact, got, se in (
        ("feedback mean", mean_feedback_loops(config), mc.fbl_mean, mc.fbl_se),
        ("feedforward mean", mean_feedforward_loops(config), mc.ffl_mean, mc.ffl_se)):
    z = (got - exact) / se
    print(f"{name:<18}{exact:>12.4f}{got:>14.4f}{z:>8.2f}")
for name, exact, got in (
        ("feedback var", var_feedback_loops(config), mc.fbl_var),
        ("feedforward var", var_feedforward_loops(config), mc.ffl_var)):
    print(f"{name:<18}{exact:>12.4f}{got:>14.4f}{'':>8}")

print()
print("cycle means by length (analytic)")
for k in (2, 3, 4, 5):
    print(f"  k={k}: {mean_cycles(config, k):.4f}")

# sources (no in-edges) and sinks (no out-edges) at a larger size
config = EnsembleConfig(n=500, mixing=spec, master_seed=7)
rl = mc_roots_leaves(replace(config, replicas=1_000))
print()
print(f"roots at n=500: analytic {mean_roots(config):.2f}, "
      f"mc {rl.roots_mean:.2f} +- {rl.roots_se:.2f}")
print(f"leaves at n=500: analytic {mean_leaves(config):.2f}, "
      f"mc {rl.leaves_mean:.2f} +- {rl.leaves_se:.2f}")
