"""Largest sender degree: scaling, limit law, and the moment question.

For tail exponent beta > 2 the scaled maximum follows an inverse-power
(Frechet type) law with no upper cutoff.  For beta < 2, with the matched
row count n**(beta - 1), the bias cutoff at 1 caps the statistic at n and
the limit is the Frechet curve conditioned at that cutoff, continuous up
to it; the demo prints the observed mass near the cutoff beside the limit's.
"""

import math

from exchgraph import (EnsembleConfig, McEstimate, PowerFractionRows, PowerLawMixing,
                       competing_moment_constant, frechet_moment, hub_limit_cdf,
                       mc_hub, mc_hub_values, hub_atom_estimate)

# light-tail regime: beta = 3, scale sqrt(n)
config = EnsembleConfig(n=10_000, mixing=PowerLawMixing(alpha=1.0, beta=3.0),
                        master_seed=11, replicas=2_000)
report = mc_hub(config)
scaling = hub_limit_cdf(1.0, 3.0, config.n)
print(f"beta=3: scale b_n = {scaling.scale:.1f}, "
      f"limit params {report.to_json()['limit_cdf_params']}, "
      f"KS over {config.replicas} replicas = {report.ks_distance:.4f}")

# the first moment separates the two candidate constants
scaled = McEstimate.of(mc_hub_values(config) / math.sqrt(config.n))
a = frechet_moment(1.0, 2.0, 1.0)
b = competing_moment_constant(1.0, 3.0, 1.0)
print(f"scaled mean {scaled.mean:.4f} +- {scaled.se:.4f}; "
      f"candidates sqrt(pi) = {a:.4f} and 4 sqrt(pi) = {b:.4f}")

# heavy-tail regime: the conditioned cutoff law, no atom at the cutoff
config = EnsembleConfig(n=10_000, mixing=PowerLawMixing(alpha=1.0, beta=1.5),
                        row_rule=PowerFractionRows(1.0), master_seed=11,
                        replicas=100_000)
values = mc_hub_values(config)
mass, se = hub_atom_estimate(values, config.n)
scaling = hub_limit_cdf(1.0, 1.5, config.n)
limit_mass = 1.0 - scaling.cdf(0.99 * config.n / scaling.scale)
print(f"beta=1.5, {config.m} rows: mass within 1% of the cutoff = "
      f"{mass:.5f} +- {se:.5f}; limit 1 - G(0.99) = {limit_mass:.5f}")
