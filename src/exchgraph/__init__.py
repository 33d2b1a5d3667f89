"""Exchangeable random directed-graph ensembles.

Sampling, exact degree and motif laws, extreme-value behavior of the most
connected sender, and kernel counting over the two-element field, with
Monte Carlo validation of every closed form.
"""

from .degrees import (in_pmf_exact, limit_pmf, moment_transfer_check,
                      out_pmf_exact, tail_asymptote, total_variation)
from .ensemble import (BitMatrix, EnsembleConfig, ExplicitRows, FractionRows,
                       GraphSample, LogFractionRows, McEstimate, PowerFractionRows,
                       SquareRows, in_degrees, map_replicas, out_degrees,
                       read_edge_list, replica_values, sample_bias_matrix,
                       sample_graph, write_edge_list)
from .errors import (ConfigError, EnumerationBudgetError, ExchGraphError,
                     InversionError, NoThresholdError, ParameterError,
                     QuadratureError)
from .gf2 import (DegenerateTermWarning, Gf2Report, RateReport,
                  expected_solutions, gamma_critical, log_expected_solutions,
                  mc_kernel_mean, rank_gf2, rate_sup, theta_rate,
                  threshold_bisection)
from .hub import (HubLimit, HubReport, HubScaling, competing_moment_constant,
                  frechet_moment, hub_atom_estimate, hub_limit_cdf,
                  hub_statistic, mc_hub, mc_hub_values)
from .mixing import (DiracMixing, HierarchicalMixing, MixingSpec,
                     ModulatedPowerLawMixing, PowerLawMixing, SeedCdfMixing,
                     moment, sample_thetas, tail, xi)
from .motifs import (SubgraphPattern, connectivity_bound, count_cycles,
                     count_feedback_loops, count_feedforward_loops,
                     count_isolated, count_leaves, count_roots,
                     count_subgraph, mc_cycles, mc_motifs, mc_roots_leaves,
                     mean_cycles, mean_feedback_loops,
                     mean_feedforward_loops, mean_leaves, mean_roots,
                     mean_subgraph, var_feedback_loops,
                     var_feedforward_loops, weak_components)
from .seeds import (DiracSeed, ExponentialSeed, GammaSeed, HierarchicalSeed, LerchSeed,
                    ModulatedPowerLawSeed, ParetoTailSeed, PowerLawSeed, SeedDistribution)

__version__ = "0.1.0"
