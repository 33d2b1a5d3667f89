"""Command-line front end.

Seven subcommands share one JSON config file:

    exchgraph <sample|degrees|motifs|hub|gf2|report|mc>
        --config FILE [--seed N] [--out DIR]

The file is read in one pass through the JSON codec into a ``RunConfig``:
the ensemble, the ``tasks`` of ``mc``, ``output_dir`` and one typed block
per task, each key with its default written once on its field.
``sample`` writes one edge-list file per replica.  ``degrees``, ``motifs``,
``hub`` and ``gf2`` emit the matching analytic/Monte Carlo report for the
ensemble resized by the ``n``, ``rows`` and ``replicas`` of their block, as
the ``mc`` suites of the same name are.  ``report`` emits the regime summary
for any law whose limit seed is a power-law seed.  ``mc`` runs the validation
suites listed under ``tasks``.  Replicas are drawn one after another, in index order.

Exit codes: 0 success, 1 usage/configuration/I-O error, 2 statistical
failure.  Every JSON report embeds the resolved ensemble config and is
serialized with sorted keys and no timestamps, so a rerun of the same config
is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ._codec import JsonCodec
from ._numerics import special
from .degrees import (in_pmf_exact, limit_law_json, limit_pmf, out_pmf_exact,
                      total_variation, write_pmf_table)
from .ensemble import (EnsembleConfig, ExplicitRows, SquareRows, map_replicas,
                       out_degrees, sample_graph, write_edge_list)
from .errors import ConfigError, ExchGraphError, NoThresholdError
from .gf2 import (DegenerateTermWarning, expected_solutions,
                  log_expected_solutions, mc_kernel_mean, rank_gf2, rate_sup,
                  threshold_bisection, write_theta_grid)
from .hub import (competing_moment_constant, frechet_moment,
                  hub_atom_estimate, hub_limit_cdf, mc_hub, write_hub_cdf)
from .mixing import MixingSpec, moment
from .motifs import (connectivity_bound, mc_motifs, mc_roots_leaves,
                     mean_cycles, mean_feedback_loops, mean_feedforward_loops,
                     mean_leaves, mean_roots, var_feedback_loops,
                     var_feedforward_loops)
from .seeds import PowerLawSeed

__all__ = ["main"]

SCHEMA = "exchgraph/1"
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_STAT = 2

_TASK_NAMES = ("degrees", "motifs", "hub", "gf2", "report")
_SUITE_NAMES = ("degrees", "motifs", "hub", "gf2")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the exit-code contract reserves 2 for
    # statistical failure, so usage errors are remapped to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@dataclass(frozen=True)
class _Block(JsonCodec):
    """A task block: overrides of the ensemble's n, row count and replicas,
    then the keys its command and its ``mc`` suite read."""

    n: int | None = None
    rows: int | None = None
    replicas: int | None = None
    _least = {"n": 1, "rows": 1, "replicas": 1}     # key -> smallest value

    def __post_init__(self):
        for key, low in self._least.items():
            value = getattr(self, key)
            if value is not None and value < low:
                raise ConfigError(
                    f"{self._family} key {key!r} must be >= {low}, got {value!r}")

    def resize(self, ensemble: EnsembleConfig) -> EnsembleConfig:
        """The ensemble with this block's overrides; everything else carries over."""
        changes = {key: getattr(self, key) for key in ("n", "replicas")
                   if getattr(self, key) is not None}
        if self.rows is not None:
            changes["row_rule"] = ExplicitRows(m=self.rows)
        return replace(ensemble, **changes)


@dataclass(frozen=True)
class DegreesBlock(_Block, error=ConfigError, family="degrees block"):
    k_max: int = 30
    expected_mixing: MixingSpec | None = None
    min_p: float = 0.01
    tv_max: float | None = None
    _least = {**_Block._least, "k_max": 0}


@dataclass(frozen=True)
class MotifsBlock(_Block, error=ConfigError, family="motifs block"):
    cycle_lengths: tuple[int, ...] = (2, 3, 4)
    z_max: float = 4.0


@dataclass(frozen=True)
class HubBlock(_Block, error=ConfigError, family="hub block"):
    grid_points: int = 1000
    atom_threshold: float = 0.99
    ks_max: float = 0.05
    z_max: float = 3.0
    _least = {**_Block._least, "grid_points": 1}


@dataclass(frozen=True)
class Gf2Block(_Block, error=ConfigError, family="gf2 block"):
    gammas: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 1.0)
    grid_gamma: float | None = None     # None: the last gamma
    z_max: float = 4.0

    def __post_init__(self):
        super().__post_init__()
        if not self.gammas:
            raise ConfigError("gf2 block key 'gammas' must be non-empty")


@dataclass(frozen=True)
class RunConfig(JsonCodec, error=ConfigError, family="config"):
    """Resolved run: ensemble, task list, output directory, task blocks."""

    ensemble: EnsembleConfig
    tasks: tuple[str, ...] = _SUITE_NAMES     # only mc reads it
    output_dir: Path = Path(".")
    degrees: DegreesBlock = DegreesBlock()
    motifs: MotifsBlock = MotifsBlock()
    hub: HubBlock = HubBlock()
    gf2: Gf2Block = Gf2Block()

    def __post_init__(self):
        if not self.tasks or not set(self.tasks) <= set(_TASK_NAMES):
            raise ConfigError(f"'tasks' must be a non-empty list of names from "
                              f"{_TASK_NAMES}, got {list(self.tasks)}")


def _load_run_config(path: str, seed_override, out_override) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if isinstance(data, dict) and isinstance(data.get("ensemble"), dict):
        if seed_override is not None:
            data["ensemble"]["master_seed"] = seed_override
        if "master_seed" not in data["ensemble"]:
            raise ConfigError("no seed: set ensemble.master_seed or pass --seed")
    if isinstance(data, dict) and out_override:
        data["output_dir"] = out_override
    run = RunConfig.from_json(data)
    try:
        run.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot create output directory {run.output_dir}: {exc}") from exc
    return run


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {path}")


def _base_payload(config: EnsembleConfig) -> dict:
    return {"schema": SCHEMA, "config": config.to_json()}


# -- sample -----------------------------------------------------------------


def cmd_sample(run: RunConfig) -> int:
    cfg = run.ensemble
    paths = [run.output_dir / f"replica_{k:04d}.edges" for k in range(cfg.replicas)]

    def worker(sample):
        # written as drawn, so only the current replica holds a matrix
        write_edge_list(sample, cfg, paths[sample.replica_index])
        return sample.matrix.count_ones()

    edges = map_replicas(cfg, worker)
    for path in paths:
        print(f"wrote {path}")
    payload = _base_payload(cfg)
    payload["files"] = [path.name for path in paths]
    payload["edges_per_replica"] = edges
    _write_json(run.output_dir / "sample.json", payload)
    return EXIT_OK


# -- degrees ----------------------------------------------------------------


def cmd_degrees(run: RunConfig) -> int:
    cfg, k_max = run.degrees.resize(run.ensemble), run.degrees.k_max
    # a degree cannot exceed the row width n or the column height m
    ks = np.arange(min(k_max, cfg.n) + 1)
    exact_out = out_pmf_exact(cfg.mixing, cfg.n, ks)
    exact_in = in_pmf_exact(cfg, np.arange(min(k_max, cfg.m) + 1))
    seed = cfg.mixing.limit_seed()
    limit = limit_pmf(seed, ks)
    table = run.output_dir / "degrees_out_pmf.csv"
    write_pmf_table(table, ks, exact_out, limit)
    print(f"wrote {table}")
    payload = _base_payload(cfg)
    payload["degrees"] = {
        "k_max": k_max,
        "out_pmf_exact": [float(v) for v in exact_out],
        "in_pmf_exact": [float(v) for v in exact_in],
        "limit_pmf": [float(v) for v in limit],
        "limit_law": limit_law_json(seed),
        "tv_exact_vs_limit": float(total_variation(exact_out, limit)),
    }
    _write_json(run.output_dir / "degrees.json", payload)
    return EXIT_OK


# -- motifs -----------------------------------------------------------------


def cmd_motifs(run: RunConfig) -> int:
    cfg, lengths = run.motifs.resize(run.ensemble), run.motifs.cycle_lengths
    cycle_means = {k: mean_cycles(cfg, k) for k in lengths}
    table = run.output_dir / "motif_cycles.csv"
    with open(table, "w", encoding="ascii") as handle:
        handle.write("k,mean\n")
        for k in lengths:
            handle.write(f"{k},{cycle_means[k]:.10g}\n")
    print(f"wrote {table}")
    payload = _base_payload(cfg)
    payload["motifs"] = {
        "feedback_mean": mean_feedback_loops(cfg),
        "feedforward_mean": mean_feedforward_loops(cfg),
        "cycle_means": {str(k): cycle_means[k] for k in lengths},
        "roots_mean": mean_roots(cfg),
        "leaves_mean": mean_leaves(cfg),
        "feedback_var": var_feedback_loops(cfg),
        "feedforward_var": var_feedforward_loops(cfg),
        "isolated_bound": connectivity_bound(cfg),
    }
    _write_json(run.output_dir / "motifs.json", payload)
    return EXIT_OK


# -- hub --------------------------------------------------------------------


def cmd_hub(run: RunConfig) -> int:
    cfg = run.hub.resize(run.ensemble)
    report = mc_hub(cfg, grid_points=run.hub.grid_points)
    table = run.output_dir / "hub_cdf.csv"
    write_hub_cdf(report, table)
    print(f"wrote {table}")
    payload = _base_payload(cfg)
    block, scaling = report.to_json(), report.scaling
    if scaling and not math.isinf(scaling.limit.cutoff):
        threshold = run.hub.atom_threshold
        block["atom"] = {"threshold": threshold, **_atom(report, cfg.n, threshold)}
    elif scaling and scaling.limit.eta > 1.0:
        block["moment"] = _moment_comparison(report)
    payload["hub"] = block
    _write_json(run.output_dir / "hub.json", payload)
    return EXIT_OK


def _atom(report, n: int, threshold: float) -> dict:
    """Share of replicas whose hub exceeds threshold * n, its SE, and the
    reference probability of that event."""
    p_hat, se = hub_atom_estimate(report.values, n, threshold)
    return {"estimate": p_hat, "se": se,
            "reference_mass": 1.0 - report.reference_cdf(threshold * n / report.b_n)}


def _moment_comparison(report) -> dict:
    """First-moment check of the scaled hub against both candidate constants.

    Two closed forms circulate for the limit moment; they disagree, so the
    sampled mean arbitrates and the winner is recorded.
    """
    eta = report.scaling.limit.eta
    alpha_eff = report.scaling.limit.c_eta ** (1.0 / eta)
    scaled = report.values / report.b_n
    mean = float(scaled.mean())
    se = float(scaled.std(ddof=1) / math.sqrt(len(scaled)))
    frechet = frechet_moment(alpha_eff, eta, 1.0)
    competing = competing_moment_constant(alpha_eff, eta + 1.0, 1.0)
    z_f, z_c = _z_score(mean, se, frechet), _z_score(mean, se, competing)
    hit_f, hit_c = (z is not None and z <= 3.0 for z in (z_f, z_c))
    if hit_f and not hit_c:
        winner = "frechet_moment"
    elif hit_c and not hit_f:
        winner = "competing_constant"
    else:
        winner = "unresolved"
    return {
        "mc_mean": mean,
        "mc_se": se,
        "frechet_moment": frechet,
        "competing_constant": competing,
        "z_frechet": z_f,
        "z_competing": z_c,
        "winner": winner,
    }


# -- gf2 --------------------------------------------------------------------


def _threshold_verdict(seed) -> dict:
    try:
        value, trace = threshold_bisection(seed)
        return {"verdict": "threshold", "gamma_c": value, "probes": len(trace)}
    except NoThresholdError as exc:
        verdict = "no_threshold" if seed.mean_is_finite() else "indeterminate"
        return {"verdict": verdict, "gamma_c": None, "reason": str(exc)}


def cmd_gf2(run: RunConfig) -> int:
    cfg, task = run.gf2.resize(run.ensemble), run.gf2
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DegenerateTermWarning)
        log_mean = log_expected_solutions(cfg)
    linear = math.exp(log_mean) if log_mean < 700.0 else None
    census = rank_gf2(sample_graph(cfg, 0).matrix)
    payload = _base_payload(cfg)
    block = {
        "log_expected_solutions": log_mean,
        "expected_solutions": linear,
        "degenerate_terms": [str(w.message) for w in caught
                             if issubclass(w.category, DegenerateTermWarning)],
        "first_replica_census": census.to_json(),
    }
    # bounds this command's work; the mc suite, sized by its block, runs wider systems
    if cfg.m <= 64 and cfg.replicas >= 2:
        mc = mc_kernel_mean(cfg)
        block["mc"] = {"replicas": mc.replicas, "mean": mc.mean_solutions,
                       "se": mc.se}
    # with one shared bias the growth rate is not the iid Laplace transform's
    seed = cfg.mixing.limit_seed() if cfg.iid_rows else None
    if seed is None:
        block["rate"] = None
    else:
        rows = []
        for gamma in task.gammas:
            rep = rate_sup(seed, gamma)
            rows.append({"gamma": gamma, "I_gamma": rep.i_gamma,
                         "argmax_x": rep.argmax_x,
                         "exceeds_baseline": rep.exceeds_baseline})
        grid_gamma = task.gammas[-1] if task.grid_gamma is None else task.grid_gamma
        table = run.output_dir / "gf2_rate_grid.csv"
        write_theta_grid(rate_sup(seed, grid_gamma), table)
        print(f"wrote {table}")
        block["rate"] = {"seed": seed.to_json(), "sup_by_gamma": rows,
                         "grid_gamma": grid_gamma,
                         "threshold": _threshold_verdict(seed)}
    payload["gf2"] = block
    _write_json(run.output_dir / "gf2.json", payload)
    return EXIT_OK


# -- regime report ----------------------------------------------------------


def _edge_probability_asymptote(alpha: float, beta: float, n: int) -> float:
    if beta > 2.0:
        return alpha * (beta - 1.0) / ((beta - 2.0) * n)
    if beta == 2.0:
        return alpha * math.log(n) / n
    return alpha ** (beta - 1.0) * (beta - 1.0) / ((2.0 - beta) * n ** (beta - 1.0))


def _ratio_class(alpha: float, beta: float) -> dict:
    if beta > 3.0:
        lam = 3.0 * (beta - 2.0) ** 2 / ((beta - 3.0) * (beta - 1.0))
        return {"scaling": "constant", "lambda": lam}
    if beta == 3.0:
        return {"scaling": "log n", "lambda": None}
    if beta > 2.0:
        return {"scaling": f"n^{3.0 - beta:g}", "lambda": None}
    if beta == 2.0:
        return {"scaling": "n/(log n)^2", "lambda": None}
    return {"scaling": f"n^{beta - 1.0:g}", "lambda": None}


def _roots_class(alpha: float, beta: float) -> dict:
    if beta > 2.0:
        return {"scaling": "n"}
    if beta == 2.0:
        return {"scaling": f"n^{1.0 - alpha:g}"}
    c = (beta - 1.0) / (2.0 - beta) * alpha ** (beta - 1.0)
    return {"scaling": f"exp(-{c:g} n^{2.0 - beta:g})",
            "decay_constant": c, "decay_exponent": 2.0 - beta}


def cmd_report(run: RunConfig) -> int:
    cfg, spec = run.ensemble, run.ensemble.mixing
    if not cfg.iid_rows:
        raise ConfigError(f"regime report needs independent per-sender biases, "
                          f"but variant {cfg.variant!r} shares them across rows")
    seed = spec.limit_seed()
    if not isinstance(seed, PowerLawSeed):
        raise ConfigError(f"regime report needs a power_law limit seed, got a {seed.kind} seed")
    if cfg.n < 3:
        raise ConfigError(f"regime report compares triangle counts and needs n >= 3, "
                          f"got n={cfg.n}")
    alpha, beta, n = seed.alpha, seed.beta, cfg.n
    mu = moment(spec, n, 1)
    mu_asym = _edge_probability_asymptote(alpha, beta, n)
    square = replace(cfg, row_rule=SquareRows())
    fbl = mean_feedback_loops(square)
    ffl = mean_feedforward_loops(square)
    scaling = hub_limit_cdf(alpha, beta, n)
    payload = _base_payload(cfg)
    payload["report"] = {
        "alpha": alpha,
        "beta": beta,
        "n": n,
        "edge_probability": {
            "exact": mu,
            "asymptote": mu_asym,
            "relative_gap": abs(mu - mu_asym) / mu,
        },
        "triangles": {
            "feedback_mean": fbl,
            "feedforward_mean": ffl,
            "ratio": ffl / fbl,
            "ratio_class": _ratio_class(alpha, beta),
        },
        "roots_leaves": {
            "leaves_scaling": "n",
            "roots": _roots_class(alpha, beta),
        },
        "hub": {
            "tracked_senders": scaling.rows,
            "scale": scaling.scale,
            "limit": scaling.limit.to_json(),
        },
        "gf2_threshold": _threshold_verdict(seed),
    }
    _write_json(run.output_dir / "report.json", payload)
    return EXIT_OK


# -- validation suites ------------------------------------------------------


def _z_score(mc_value: float, se: float, exact: float) -> float | None:
    """|mc_value - exact| / se; for se = 0, 0.0 on a match and None on a miss.

    With no spread there is no z-score, and the means must agree to 1e-12
    relative: an exact mean taken out of log space is off by a few ulps of its
    log (2**16 comes back as 65535.999999999396, 9e-15 relative)."""
    if se > 0.0:
        return abs(mc_value - exact) / se
    return 0.0 if math.isclose(mc_value, exact, rel_tol=1e-12) else None


def _suite_degrees(run: RunConfig) -> dict:
    cfg, block = run.degrees.resize(run.ensemble), run.degrees
    expected_spec = block.expected_mixing or cfg.mixing
    pool_rows = cfg.iid_rows

    def worker(sample):
        degs = out_degrees(sample)
        if not pool_rows:
            degs = degs[:1]     # rows share a bias; only row 0 is iid across replicas
        return np.bincount(degs, minlength=cfg.n + 1)

    counts = np.sum(map_replicas(cfg, worker), axis=0)
    draws = int(counts.sum())
    pmf = np.asarray(out_pmf_exact(expected_spec, cfg.n, np.arange(cfg.n + 1)))
    expected = draws * pmf
    obs_bins, exp_bins = [], []
    o_acc = e_acc = 0.0
    for k in range(cfg.n + 1):
        o_acc += counts[k]
        e_acc += expected[k]
        if e_acc >= 5.0:
            obs_bins.append(o_acc)
            exp_bins.append(e_acc)
            o_acc = e_acc = 0.0
    if (o_acc or e_acc) and obs_bins:
        obs_bins[-1] += o_acc
        exp_bins[-1] += e_acc
    df = len(obs_bins) - 1
    if df < 1:
        raise ConfigError("degree suite needs enough draws for two bins")
    stat = float(sum((o - e) ** 2 / e for o, e in zip(obs_bins, exp_bins)))
    p_value = float(special.chdtrc(df, stat))
    tv = total_variation(counts / draws, pmf)
    ok = p_value >= block.min_p
    if block.tv_max is not None:
        ok = ok and tv <= block.tv_max
    return {"pass": bool(ok), "p_value": p_value, "chi_square": stat,
            "bins": len(obs_bins), "draws": draws, "tv": tv}


def _suite_motifs(run: RunConfig) -> dict:
    cfg, z_max = run.motifs.resize(run.ensemble), run.motifs.z_max
    # the replica count also goes as the second argument, where the span
    # recorder of bench/tracer.py reads it
    rep = mc_motifs(cfg, cfg.replicas)
    rl = mc_roots_leaves(cfg, cfg.replicas)
    checks = {
        "feedback": _z_score(rep.fbl_mean, rep.fbl_se, mean_feedback_loops(cfg)),
        "feedforward": _z_score(rep.ffl_mean, rep.ffl_se, mean_feedforward_loops(cfg)),
        "roots": _z_score(rl.roots_mean, rl.roots_se, mean_roots(cfg)),
        "leaves": _z_score(rl.leaves_mean, rl.leaves_se, mean_leaves(cfg)),
    }
    ok = all(z is not None and z <= z_max for z in checks.values())
    return {"pass": bool(ok), "z_scores": checks, "z_max": z_max,
            "replicas": cfg.replicas}


def _suite_hub(run: RunConfig) -> dict:
    cfg, block = run.hub.resize(run.ensemble), run.hub
    report = mc_hub(cfg, grid_points=block.grid_points)
    ks_max = block.ks_max
    result = {"ks_distance": report.ks_distance, "ks_max": ks_max,
              "b_n": report.b_n, "m_n": report.m_n}
    ok = report.ks_distance <= ks_max
    if report.scaling and not math.isinf(report.scaling.limit.cutoff):
        atom = _atom(report, cfg.n, block.atom_threshold)
        z = _z_score(atom["estimate"], atom["se"], atom["reference_mass"])
        result["atom"] = {**atom, "z": z, "z_max": block.z_max}
        ok = ok and z is not None and z <= block.z_max
    result["pass"] = bool(ok)
    return result


def _suite_gf2(run: RunConfig) -> dict:
    cfg, z_max = run.gf2.resize(run.ensemble), run.gf2.z_max
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateTermWarning)
        exact = expected_solutions(cfg)
    if math.isinf(exact):
        return {"pass": False, "reason": "exact mean overflows; shrink n"}
    rep = mc_kernel_mean(cfg)
    z = _z_score(rep.mean_solutions, rep.se, exact)
    miss = {} if z is not None else {"reason": "all replicas agree and miss the exact mean"}
    return {"pass": bool(z is not None and z <= z_max), "mean": rep.mean_solutions, "se": rep.se,
            "exact": exact, "z": z, "z_max": z_max, "replicas": cfg.replicas, **miss}


_SUITES = {
    "degrees": _suite_degrees,
    "motifs": _suite_motifs,
    "hub": _suite_hub,
    "gf2": _suite_gf2,
}


def cmd_mc(run: RunConfig) -> int:
    if run.ensemble.replicas < 100:
        raise ConfigError("mc needs at least 100 replicas")
    suites = [name for name in run.tasks if name in _SUITE_NAMES]
    if not suites:
        raise ConfigError("mc needs at least one of the validation suites "
                          f"{_SUITE_NAMES} in 'tasks'")
    results = {}
    for name in suites:
        results[name] = outcome = _SUITES[name](run)
        print(f"{name}: {'pass' if outcome['pass'] else 'FAIL'}")
    overall = all(outcome["pass"] for outcome in results.values())
    payload = _base_payload(run.ensemble)
    payload["suites"] = results
    payload["pass"] = overall
    _write_json(run.output_dir / "mc.json", payload)
    return EXIT_OK if overall else EXIT_STAT


# -- entry point ------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="exchgraph",
                     description="exchangeable digraph ensembles: sampling, "
                                 "analytic laws, and Monte Carlo validation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("sample", "degrees", "motifs", "hub", "gf2", "report", "mc"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True,
                         help="JSON run configuration")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override ensemble.master_seed")
        cmd.add_argument("--out", default=None,
                         help="override output_dir")
        cmd.add_argument("--threads", type=int, default=1,
                         help="ignored; replicas run in order")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        run = _load_run_config(args.config, args.seed, args.out)
        # looked up by name at call time, so a rebound cmd_* is the one run
        return globals()[f"cmd_{args.command}"](run)
    except ExchGraphError as exc:
        print(f"exchgraph: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"exchgraph: i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
