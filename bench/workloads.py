"""The four benchmark workloads: configs, command sequences, expected spans.

A workload is a fixed sequence of CLI commands run one after another by a
single closed-loop client.  Only ``ensemble.master_seed`` depends on the
benchmark seed; sizes are fixed so the analytic outputs match the recorded
reference at every seed.

Standalone commands take their sizes from ``ensemble`` only, and their
per-command blocks carry only non-size knobs (``k_max``, ``ks_max``), so the
work stays the same if standalone commands start honouring their blocks.
Size overrides appear only in the ``mc`` config, whose suites already
honour them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

POWER_LAW_B3 = {"variant": "power_law", "alpha": 1.0, "beta": 3.0}
POWER_LAW_B15 = {"variant": "power_law", "alpha": 1.0, "beta": 1.5}
MODULATED = {"variant": "modulated_power_law", "alpha": 1.0, "beta": 2.5,
             "g_table": [[0.0, 1.0], [10.0, 2.0], [100.0, 0.5], [1000.0, 1.5]]}

# Hub KS tolerance shared by the mc hub suite and the standalone hub check.
HUB_KS_MAX = 0.08


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (command, config name, extra CLI arguments), run in this order
    commands: tuple
    # config name -> function of the seed giving the config dict
    configs: dict = field(repr=False)
    # spans that must record calls in the traced run
    expected_spans: tuple = ()

    def build_configs(self, seed: int) -> dict:
        return {key: make(seed) for key, make in self.configs.items()}


def _ensemble(n, mixing, seed, replicas):
    return {"n": n, "mixing": mixing, "master_seed": seed, "replicas": replicas}


_SAMPLE_SPANS = ("cli.main", "cli.cmd_sample", "ensemble.map_replicas",
                 "ensemble.sample_graph", "mixing.sample_thetas",
                 "ensemble.write_edge_list")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="sample_sparse",
        why="sample at n=2e4, power law beta=3, one replica: edge-list I/O "
            "and the O(m*n) passes dominate",
        commands=(("sample", "sample", ("--threads", "1")),),
        configs={"sample": lambda seed: {
            "ensemble": _ensemble(20_000, POWER_LAW_B3, seed, 1)}},
        expected_spans=_SAMPLE_SPANS,
    ),
    Workload(
        name="theta_modulated",
        why="sample at n=2000 for a modulated power law: theta sampling "
            "without a closed-form inverse dominates",
        commands=(("sample", "sample", ("--threads", "1")),),
        configs={"sample": lambda seed: {
            "ensemble": _ensemble(2000, MODULATED, seed, 2)}},
        expected_spans=_SAMPLE_SPANS,
    ),
    Workload(
        name="mc_validate",
        why="mc with all four suites at 2 threads, then hub: Monte Carlo "
            "kernels, many small graphs and the thread pool",
        commands=(("mc", "mc", ("--threads", "2")),
                  ("hub", "hub", ())),
        configs={
            "mc": lambda seed: {
                "ensemble": _ensemble(5000, POWER_LAW_B3, seed, 1000),
                # hub first: its large arrays then set the peak RSS, before
                # the degree suite's pool threads leave per-thread malloc
                # arenas whose reuse varies from run to run
                "tasks": ["hub", "degrees", "motifs", "gf2"],
                # Family-wise levels: the benchmark runs tens of seeds, so a
                # per-seed false alarm rate of 1% would fail some run by chance.
                "degrees": {"n": 100, "min_p": 1e-4},
                "motifs": {"n": 100, "z_max": 5.0},
                "gf2": {"n": 32, "replicas": 10_000, "z_max": 5.0},
                "hub": {"ks_max": HUB_KS_MAX},
            },
            "hub": lambda seed: {
                "ensemble": _ensemble(5000, POWER_LAW_B3, seed, 1000),
                "hub": {"ks_max": HUB_KS_MAX},
            },
        },
        expected_spans=(
            "cli.main", "cli.cmd_mc", "cli.cmd_hub", "ensemble.map_replicas",
            "ensemble.sample_graph", "mixing.sample_thetas",
            "ensemble.sample_bias_matrix", "degrees.out_pmf_exact",
            "mixing.log_row_prob", "mixing.moment", "mixing.xi",
            "gf2.log_expected_solutions", "gf2.mc_kernel_mean",
            "motifs.mc_motifs", "motifs.mc_roots_leaves", "hub.mc_hub",
            "hub.mc_hub_values"),
    ),
    Workload(
        name="exact_laws",
        why="degrees, motifs, gf2 and report at n=3000, power law beta=1.5: "
            "quadrature, xi and the GF(2) rank, no Monte Carlo",
        commands=(("degrees", "laws", ()), ("motifs", "laws", ()),
                  ("gf2", "laws", ()), ("report", "laws", ())),
        configs={"laws": lambda seed: {
            "ensemble": _ensemble(3000, POWER_LAW_B15, seed, 1),
            "degrees": {"k_max": 300}}},
        expected_spans=(
            "cli.main", "cli.cmd_degrees", "cli.cmd_motifs", "cli.cmd_gf2",
            "cli.cmd_report", "degrees.out_pmf_exact", "degrees.in_pmf_exact",
            "degrees.limit_pmf", "mixing.log_row_prob", "_numerics.log_quad",
            "_numerics.checked_quad", "mixing.xi", "mixing.moment",
            "gf2.log_expected_solutions", "gf2.rate_sup",
            "gf2.threshold_bisection", "gf2.rank_gf2", "ensemble.sample_graph",
            "seeds.PowerLawSeed.laplace", "seeds.PowerLawSeed.t_laplace",
            "motifs.var_feedback_loops", "motifs.var_feedforward_loops"),
    ),
)}
