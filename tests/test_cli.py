"""CLI front end: config handling, artifacts, exit codes, determinism."""

import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import exchgraph
from exchgraph import cli
from exchgraph.cli import main

SEED = 20260821


def _write_config(tmp_path, name="cfg.json", **overrides):
    data = {
        "ensemble": {
            "n": 60,
            "mixing": {"variant": "power_law", "alpha": 1.0, "beta": 3.0},
            "master_seed": SEED,
            "replicas": 3,
        },
        "output_dir": str(tmp_path / "out"),
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def _read_out(tmp_path, filename):
    return (tmp_path / "out" / filename).read_bytes()


# -- sample -----------------------------------------------------------------


def test_sample_writes_one_file_per_replica(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["sample", "--config", str(cfg)]) == 0
    payload = json.loads(_read_out(tmp_path, "sample.json"))
    assert payload["schema"] == "exchgraph/1"
    assert payload["files"] == [f"replica_{k:04d}.edges" for k in range(3)]
    assert payload["config"]["master_seed"] == SEED
    body = _read_out(tmp_path, "replica_0000.edges").decode()
    header = [line for line in body.splitlines() if line.startswith("#")]
    edges = [line for line in body.splitlines() if line and not line.startswith("#")]
    assert len(header) >= 2
    assert len(edges) == payload["edges_per_replica"][0]


def test_sample_empty_graph_has_header_and_no_edges(tmp_path):
    cfg = _write_config(tmp_path)
    data = json.loads(cfg.read_text())
    data["ensemble"]["mixing"] = {"variant": "dirac", "lambda": 0.0}
    data["ensemble"]["replicas"] = 1
    cfg.write_text(json.dumps(data))
    assert main(["sample", "--config", str(cfg)]) == 0
    body = _read_out(tmp_path, "replica_0000.edges").decode()
    assert all(line.startswith("#") for line in body.splitlines() if line)


def test_sample_reruns_are_byte_identical(tmp_path):
    cfg = _write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["sample", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["sample", "--config", str(cfg), "--out", str(out_b)]) == 0
    for name in ("replica_0000.edges", "replica_0002.edges", "sample.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_sample_thread_count_does_not_change_output(tmp_path):
    cfg = _write_config(tmp_path)
    out_a, out_b = tmp_path / "t1", tmp_path / "t4"
    assert main(["sample", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["sample", "--config", str(cfg), "--out", str(out_b),
                 "--threads", "4"]) == 0
    for path in sorted(out_a.iterdir()):
        assert path.read_bytes() == (out_b / path.name).read_bytes()


def test_seed_flag_overrides_config(tmp_path):
    cfg = _write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["sample", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["sample", "--config", str(cfg), "--out", str(out_b),
                 "--seed", "7"]) == 0
    assert json.loads((out_b / "sample.json").read_text())["config"]["master_seed"] == 7
    assert ((out_a / "replica_0000.edges").read_bytes()
            != (out_b / "replica_0000.edges").read_bytes())


# -- analytic reports -------------------------------------------------------


def test_degrees_report_and_table(tmp_path):
    cfg = _write_config(tmp_path, degrees={"k_max": 12})
    assert main(["degrees", "--config", str(cfg)]) == 0
    payload = json.loads(_read_out(tmp_path, "degrees.json"))
    block = payload["degrees"]
    assert len(block["out_pmf_exact"]) == 13
    assert block["tv_exact_vs_limit"] < 0.1
    assert block["limit_law"]["kind"] == "power_law_tail"
    table = _read_out(tmp_path, "degrees_out_pmf.csv").decode().splitlines()
    assert len(table) == 14  # header + 13 orders


@pytest.mark.parametrize("ensemble,m", [
    ({"n": 20}, 20),
    ({"n": 40, "row_rule": {"kind": "fraction", "delta": 0.5}}, 20),
])
def test_degrees_ranges_stop_at_row_width_and_column_height(tmp_path, ensemble, m):
    # the default k_max = 30 exceeds m = 20 in both cases, and n = 20 in the first
    cfg = _write_config(tmp_path)
    data = json.loads(cfg.read_text())
    data["ensemble"].update(ensemble)
    cfg.write_text(json.dumps(data))
    assert main(["degrees", "--config", str(cfg)]) == 0
    block = json.loads(_read_out(tmp_path, "degrees.json"))["degrees"]
    assert block["k_max"] == 30
    assert len(block["out_pmf_exact"]) == len(block["limit_pmf"]) == min(30, ensemble["n"]) + 1
    assert len(block["in_pmf_exact"]) == m + 1
    assert sum(block["in_pmf_exact"]) == pytest.approx(1.0, abs=1e-9)


def test_degrees_on_lerch_seed_cdf(tmp_path):
    # the row polynomial integrates the seed density down to t ~ 1e-9, so
    # the density must hold its tolerance there
    cfg = _write_config(tmp_path, degrees={"k_max": 12})
    data = json.loads(cfg.read_text())
    data["ensemble"].update(n=12, mixing={
        "variant": "seed_cdf", "seed": {"kind": "lerch", "alpha": 1.5, "s": 2.5}})
    cfg.write_text(json.dumps(data))
    assert main(["degrees", "--config", str(cfg)]) == 0
    block = json.loads(_read_out(tmp_path, "degrees.json"))["degrees"]
    assert block["limit_law"]["kind"] == "lerch_zipf"
    assert sum(block["out_pmf_exact"]) == pytest.approx(1.0, abs=1e-8)


_MODULATED = {"variant": "modulated_power_law", "alpha": 1.0, "beta": 2.5,
              "g_table": [[0, 1], [10, 2], [100, 0.5], [1000, 1.5]]}


def _seed_cdf(**seed):
    return {"variant": "seed_cdf", "seed": seed}


# one mixing law per kind of limit law that degrees.json writes, and its frozen form
_LIMIT_LAWS = {
    "poisson": ({"variant": "dirac", "lambda": 2.0}, {"kind": "poisson", "lam": 2.0}),
    "geometric": (_seed_cdf(kind="exponential", gamma=1.3), {"kind": "geometric", "gamma": 1.3}),
    "negative_binomial": (_seed_cdf(kind="gamma", r=2.0, gamma=0.5),
                          {"kind": "negative_binomial", "r": 2.0, "gamma": 0.5}),
    "power_law_tail": ({"variant": "power_law", "alpha": 1.0, "beta": 3.0},
                       {"kind": "power_law_tail", "alpha": 1.0, "beta": 3.0}),
    "lerch_zipf": (_seed_cdf(kind="lerch", alpha=1.5, s=2.5),
                   {"kind": "lerch_zipf", "alpha": 1.5, "s": 2.5}),
    "hierarchical_mixture": ({"variant": "hierarchical", "A": 1.0, "beta": 3.0, "gamma_exp": 4.5},
                             {"kind": "hierarchical_mixture", "A": 1.0, "beta": 3.0,
                              "gamma_exp": 4.5}),
    "poisson_mixture": (_MODULATED, {"kind": "poisson_mixture", "seed": {
        "kind": "modulated_power_law", "alpha": 1.0, "beta": 2.5,
        "g_table": [[0.0, 1.0], [10.0, 2.0], [100.0, 0.5], [1000.0, 1.5]]}}),
}


@pytest.mark.parametrize("kind", sorted(_LIMIT_LAWS))
def test_degrees_writes_the_limit_law_in_its_report_form(tmp_path, kind):
    mixing, wire = _LIMIT_LAWS[kind]
    cfg = _write_config(tmp_path, degrees={"k_max": 4}, ensemble={
        "n": 12, "mixing": mixing, "master_seed": SEED})
    assert main(["degrees", "--config", str(cfg)]) == 0
    assert json.loads(_read_out(tmp_path, "degrees.json"))["degrees"]["limit_law"] == wire


def test_degrees_on_modulated_power_law_writes_its_limit_law(tmp_path):
    # the limit is the Poisson mixture of the family's seed, 0.23 / n off in TV
    cfg = _write_config(tmp_path, degrees={"k_max": 40}, ensemble={
        "n": 40, "mixing": _MODULATED, "master_seed": SEED, "replicas": 3})
    assert main(["degrees", "--config", str(cfg)]) == 0
    block = json.loads(_read_out(tmp_path, "degrees.json"))["degrees"]
    seed = {**_MODULATED, "g_table": [[float(t), float(g)] for t, g in _MODULATED["g_table"]]}
    del seed["variant"]
    assert block["limit_law"] == {"kind": "poisson_mixture",
                                  "seed": {"kind": "modulated_power_law", **seed}}
    assert 0.0 < block["tv_exact_vs_limit"] < 0.3 / 40
    assert sum(block["out_pmf_exact"]) == pytest.approx(1.0, abs=1e-9)
    assert sum(block["in_pmf_exact"]) == pytest.approx(1.0, abs=1e-9)
    table = _read_out(tmp_path, "degrees_out_pmf.csv").decode().splitlines()
    assert table[0] == "k,exact,limit,abs_diff" and len(table) == 42
    assert all(",," not in line and line.count(",") == 3 for line in table[1:])


def test_hub_and_gf2_on_modulated_power_law(tmp_path):
    # the hub scale and curve come from the seed's power tail, the rate from its
    # transforms; at n = 400 the hub, near t = n**(2/3) = 54, sits where g is
    # still far from its last value, so its KS distance to the curve is large
    cfg = _write_config(tmp_path, ensemble={
        "n": 400, "mixing": _MODULATED, "master_seed": SEED, "replicas": 200},
        gf2={"n": 16, "gammas": [0.5, 1.0]})
    assert main(["hub", "--config", str(cfg)]) == 0
    hub = json.loads(_read_out(tmp_path, "hub.json"))["hub"]
    c_eta, eta = cli.MixingSpec.from_json(_MODULATED).limit_seed().power_tail()
    assert hub["limit_cdf_params"] == {"c_eta": c_eta, "eta": eta} and eta == 1.5
    assert hub["m_n"] == 400 and hub["b_n"] == pytest.approx(400 ** (1 / 1.5), rel=1e-15)
    assert main(["gf2", "--config", str(cfg)]) == 0
    rate = json.loads(_read_out(tmp_path, "gf2.json"))["gf2"]["rate"]
    assert rate["seed"]["kind"] == "modulated_power_law"
    assert [row["gamma"] for row in rate["sup_by_gamma"]] == [0.5, 1.0]
    assert rate["threshold"]["verdict"] == "no_threshold"     # a finite mean at beta > 2


@pytest.mark.parametrize("mixing", [
    {"variant": "modulated_power_law", "alpha": 1e-3, "beta": 60.0, "g_table": [[0, 1], [10, 2]]},
    {"variant": "modulated_power_law", "alpha": 1e-3, "beta": 120.0, "g_table": [[0, 1], [10, 2]]},
    {"variant": "power_law", "alpha": 1e-3, "beta": 150.0},
], ids=["modulated-60", "modulated-120", "power_law-150"])
def test_steep_power_laws_run_with_finite_outputs(tmp_path, mixing):
    # Z, (n / alpha)**(beta - 1) and an unscaled incomplete gamma passed the float range
    # here: NaN in the JSON, or an OverflowError
    cfg = _write_config(tmp_path, ensemble={"n": 100, "mixing": mixing, "master_seed": SEED,
                                            "replicas": 2})
    for command in ("sample", "degrees", "motifs", "gf2"):
        assert main([command, "--config", str(cfg)]) == 0
        json.loads(_read_out(tmp_path, f"{command}.json"), parse_constant=pytest.fail)
    for table in (tmp_path / "out").glob("*.csv"):
        assert not {"nan", "inf"} & set(table.read_text().replace(",", " ").split())


def test_motifs_report_fields(tmp_path):
    cfg = _write_config(tmp_path, motifs={"cycle_lengths": [2, 3]})
    assert main(["motifs", "--config", str(cfg)]) == 0
    block = json.loads(_read_out(tmp_path, "motifs.json"))["motifs"]
    assert set(block["cycle_means"]) == {"2", "3"}
    assert block["feedforward_mean"] > block["feedback_mean"]
    assert block["feedback_var"] > 0
    table = _read_out(tmp_path, "motif_cycles.csv").decode().splitlines()
    assert table[0] == "k,mean"
    assert len(table) == 3


def test_motifs_on_a_rectangular_ensemble(tmp_path):
    """Copies need their out-edges on the m senders.  At n = 6, m = 3 and a
    Dirac bias of 1/2 that gives perm(3, 3) / 3 / 8 = 0.25 feedback loops,
    perm(3, 2) * 4 / 8 = 3 feedforward ones and perm(3, 2) / 2 / 4 = 0.75
    2-cycles (20 000 sampled replicas: 0.249 and 3.01 for the first two).
    The two disjoint 3-cycles on the senders give a feedback variance of
    2 (1/8)(7/8); enumerating the 2**18 equally likely sender rows gives the
    feedforward variance 243/32.  With p0 = 1/64, q = 1/2 and q2 = 1/4 the
    isolated-node count has E X = 99/256 and E[X**2] = 4083/8192, so the
    bound is 1 - (E X)**2 / E[X**2] = 7621/10888."""
    cfg = _write_config(tmp_path, motifs={"cycle_lengths": [2, 3]})
    data = json.loads(cfg.read_text())
    data["ensemble"].update(n=6, mixing={"variant": "dirac", "lambda": 3.0},
                            row_rule={"kind": "explicit", "m": 3})
    cfg.write_text(json.dumps(data))
    assert main(["motifs", "--config", str(cfg)]) == 0
    block = json.loads(_read_out(tmp_path, "motifs.json"))["motifs"]
    assert block["feedback_mean"] == pytest.approx(0.25, rel=1e-12)
    assert block["feedforward_mean"] == pytest.approx(3.0, rel=1e-12)
    assert block["cycle_means"]["2"] == pytest.approx(0.75, rel=1e-12)
    assert block["cycle_means"]["3"] == block["feedback_mean"]
    assert block["feedback_var"] == pytest.approx(0.21875, rel=1e-12)
    assert block["feedforward_var"] == pytest.approx(243 / 32, rel=1e-12)
    assert block["isolated_bound"] == pytest.approx(7621 / 10888, rel=1e-12)


def test_hub_report_records_moment_winner(tmp_path):
    cfg = _write_config(tmp_path)
    data = json.loads(cfg.read_text())
    data["ensemble"].update(n=500, replicas=400)
    cfg.write_text(json.dumps(data))
    assert main(["hub", "--config", str(cfg)]) == 0
    block = json.loads(_read_out(tmp_path, "hub.json"))["hub"]
    assert block["ks_distance"] < 0.12
    assert block["limit_cdf_params"] == {"c_eta": 1.0, "eta": 2.0}
    moment = block["moment"]
    assert moment["winner"] == "frechet_moment"
    assert moment["frechet_moment"] == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert moment["competing_constant"] == pytest.approx(4 * math.sqrt(math.pi), rel=1e-12)
    lines = _read_out(tmp_path, "hub_cdf.csv").decode().splitlines()
    assert lines[0] == "x,F_emp,F_limit"


def test_hub_moment_check_with_zero_spread(tmp_path):
    """alpha just under n = 4 gives every sender a bias near 1, so every hub is
    4 and every scaled hub 2.0: with no spread, z is null on a miss and no
    constant wins."""
    cfg = _write_config(tmp_path, ensemble={
        "n": 4, "mixing": {"variant": "power_law", "alpha": 3.999, "beta": 3.0},
        "master_seed": 1, "replicas": 200})
    assert main(["hub", "--config", str(cfg)]) == 0
    moment = json.loads(_read_out(tmp_path, "hub.json"))["hub"]["moment"]
    assert moment["mc_mean"] == 2.0 and moment["mc_se"] == 0.0
    assert moment["z_frechet"] is None and moment["z_competing"] is None
    assert moment["winner"] == "unresolved"


def test_gf2_threshold_on_a_pareto_seed(tmp_path):
    """The shifted Pareto transforms are closed-form, so an infinite-mean
    Pareto seed reaches its threshold verdict."""
    cfg = _write_config(tmp_path, ensemble={
        "n": 16, "mixing": {"variant": "seed_cdf",
                            "seed": {"kind": "pareto_tail", "alpha": 1.0, "eta": 0.5}},
        "master_seed": SEED, "replicas": 3})
    assert main(["gf2", "--config", str(cfg)]) == 0
    block = json.loads(_read_out(tmp_path, "gf2.json"))["gf2"]
    assert block["rate"]["threshold"]["verdict"] == "threshold"


def test_gf2_report_fields(tmp_path):
    cfg = _write_config(tmp_path)
    data = json.loads(cfg.read_text())
    data["ensemble"]["n"] = 40
    data["gf2"] = {"gammas": [0.3, 1.0]}
    cfg.write_text(json.dumps(data))
    assert main(["gf2", "--config", str(cfg)]) == 0
    block = json.loads(_read_out(tmp_path, "gf2.json"))["gf2"]
    assert block["log_expected_solutions"] > 0
    census = block["first_replica_census"]
    assert census["rows"] == 40 and census["cols"] == 40
    rate = block["rate"]
    assert [row["gamma"] for row in rate["sup_by_gamma"]] == [0.3, 1.0]
    assert rate["threshold"]["verdict"] == "no_threshold"
    lines = _read_out(tmp_path, "gf2_rate_grid.csv").decode().splitlines()
    assert lines[0] == "x,theta"


def test_gf2_includes_mc_for_narrow_systems(tmp_path):
    cfg = _write_config(tmp_path)
    data = json.loads(cfg.read_text())
    data["ensemble"].update(n=20, replicas=500)
    cfg.write_text(json.dumps(data))
    assert main(["gf2", "--config", str(cfg)]) == 0
    block = json.loads(_read_out(tmp_path, "gf2.json"))["gf2"]
    exact = block["expected_solutions"]
    assert abs(block["mc"]["mean"] - exact) < 5.0 * block["mc"]["se"]


def test_standalone_commands_honour_their_blocks(tmp_path):
    """A gf2 block that shrinks n brings the m <= 64 Monte Carlo into range."""
    cfg = _write_config(tmp_path, gf2={"n": 32, "gammas": [1.0]})
    data = json.loads(cfg.read_text())
    data["ensemble"].update(n=200, replicas=500)
    cfg.write_text(json.dumps(data))
    assert main(["gf2", "--config", str(cfg)]) == 0
    payload = json.loads(_read_out(tmp_path, "gf2.json"))
    assert payload["config"]["n"] == 32
    assert payload["gf2"]["first_replica_census"]["cols"] == 32
    block = payload["gf2"]["mc"]
    assert abs(block["mean"] - payload["gf2"]["expected_solutions"]) < 5.0 * block["se"]



# keys of the multi-row exact laws, which every variant averages over its shared draw
_MULTI_ROW_KEYS = {
    "degrees": ("in_pmf_exact",),
    "motifs": ("feedback_mean", "roots_mean", "leaves_mean", "feedback_var",
               "feedforward_var", "isolated_bound"),
    "gf2": ("log_expected_solutions", "expected_solutions"),
}
# keys of independent-row theory, null when the rows share a bias
_IID_ONLY_KEYS = {"degrees": (), "motifs": (), "gf2": ("rate",)}


@pytest.mark.parametrize("variant,mixing,n", [
    ("partially_exchangeable", {"variant": "power_law", "alpha": 2.0, "beta": 2.5}, 60),
    ("completely_exchangeable", {"variant": "power_law", "alpha": 2.0, "beta": 2.5}, 60),
    ("hierarchical", {"variant": "hierarchical", "A": 1.0, "beta": 3.0,
                      "gamma_exp": 4.5}, 12),
])
def test_shared_bias_laws_hold_values(tmp_path, variant, mixing, n):
    """The in-degree law, the pattern, root and leaf means, the variances, the
    connectivity bound and the GF(2) mean hold values under every variant.  The
    GF(2) rate assumes iid row biases and is null when the rows share a bias
    (or its cutoff)."""
    cfg = _write_config(tmp_path, gf2={"gammas": [1.0]})
    data = json.loads(cfg.read_text())
    data["ensemble"].update(n=n, mixing=mixing, variant=variant, replicas=1)
    cfg.write_text(json.dumps(data))
    for command, keys in _MULTI_ROW_KEYS.items():
        assert main([command, "--config", str(cfg)]) == 0
        block = json.loads(_read_out(tmp_path, f"{command}.json"))[command]
        assert all(block[key] is not None for key in keys), command
        nulls = [block[key] is None for key in _IID_ONLY_KEYS[command]]
        assert nulls == [variant != "partially_exchangeable"] * len(nulls), command


# -- regime report ----------------------------------------------------------


def _report_for(tmp_path, beta, n=1000):
    cfg = _write_config(tmp_path, name=f"cfg_{beta}.json")
    data = json.loads(cfg.read_text())
    data["ensemble"]["n"] = n
    data["ensemble"]["mixing"]["beta"] = beta
    cfg.write_text(json.dumps(data))
    assert main(["report", "--config", str(cfg)]) == 0
    return json.loads(_read_out(tmp_path, "report.json"))["report"]


def test_report_constant_ratio_regime(tmp_path):
    rep = _report_for(tmp_path, 4.0)
    assert rep["triangles"]["ratio_class"]["scaling"] == "constant"
    assert rep["triangles"]["ratio_class"]["lambda"] == pytest.approx(4.0)
    assert rep["roots_leaves"]["roots"]["scaling"] == "n"
    assert rep["gf2_threshold"]["verdict"] == "no_threshold"
    assert rep["edge_probability"]["relative_gap"] < 0.05


def test_report_power_ratio_regime(tmp_path):
    rep = _report_for(tmp_path, 2.5)
    assert rep["triangles"]["ratio_class"]["scaling"] == "n^0.5"


def test_report_log_ratio_regime(tmp_path):
    rep = _report_for(tmp_path, 3.0)
    assert rep["triangles"]["ratio_class"]["scaling"] == "log n"
    assert rep["gf2_threshold"]["verdict"] == "no_threshold"
    assert rep["hub"]["limit"]["eta"] == 2.0
    assert rep["hub"]["scale"] == pytest.approx(math.sqrt(1000.0))


def test_report_heavy_regime_has_threshold(tmp_path):
    rep = _report_for(tmp_path, 1.5)
    assert rep["triangles"]["ratio_class"]["scaling"] == "n^0.5"
    assert rep["gf2_threshold"]["verdict"] == "threshold"
    assert rep["gf2_threshold"]["gamma_c"] == pytest.approx(0.8575992, abs=1e-4)
    roots = rep["roots_leaves"]["roots"]
    assert roots["decay_exponent"] == pytest.approx(0.5)
    assert rep["hub"]["limit"]["cutoff"] == 1.0


def test_report_boundary_regime_is_indeterminate(tmp_path):
    rep = _report_for(tmp_path, 2.0)
    assert rep["triangles"]["ratio_class"]["scaling"] == "n/(log n)^2"
    assert rep["gf2_threshold"]["verdict"] == "indeterminate"
    assert rep["roots_leaves"]["roots"]["scaling"] == "n^0"


def test_hub_and_report_read_the_power_law_seed_of_a_seed_cdf_law(tmp_path):
    """seed_cdf(power_law(1, 1.5)) is the power law, so at the matched pairing
    m = floor(n**0.5) both commands give the pure family's scaling and limit."""
    blocks = []
    for name, mixing in (("pure", dict(_PL3, beta=1.5)), ("seed_cdf", {
            "variant": "seed_cdf", "seed": {"kind": "power_law", "alpha": 1.0, "beta": 1.5}})):
        cfg = _write_config(tmp_path, name=f"{name}.json", ensemble={
            "n": 400, "mixing": mixing, "row_rule": {"kind": "explicit", "m": 20},
            "master_seed": SEED, "replicas": 200})
        out = tmp_path / name
        assert main(["hub", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
        blocks.append((json.loads((out / "hub.json").read_text())["hub"],
                       json.loads((out / "report.json").read_text())["report"]))
    (hub_pure, report_pure), (hub_seed, report_seed) = blocks
    for key in ("m_n", "b_n", "L", "limit_cdf_params"):
        assert hub_seed[key] == hub_pure[key]
    assert hub_pure["L"] == 1.0 and hub_pure["m_n"] == 20
    for key in ("alpha", "beta", "hub", "gf2_threshold", "roots_leaves"):
        assert report_seed[key] == report_pure[key]
    assert report_seed["triangles"]["ratio_class"] == report_pure["triangles"]["ratio_class"]
    assert report_seed["edge_probability"]["exact"] == pytest.approx(
        report_pure["edge_probability"]["exact"], rel=1e-12)


def test_report_rejects_other_mixing_families(tmp_path):
    cfg = _write_config(tmp_path)
    data = json.loads(cfg.read_text())
    data["ensemble"]["mixing"] = {"variant": "dirac", "lambda": 1.0}
    cfg.write_text(json.dumps(data))
    assert main(["report", "--config", str(cfg)]) == 1


@pytest.mark.parametrize("variant,mixing", [
    ("completely_exchangeable", {"variant": "power_law", "alpha": 1.0, "beta": 3.0}),
    ("hierarchical", {"variant": "hierarchical", "A": 1.0, "beta": 3.0, "gamma_exp": 4.5}),
])
def test_report_refuses_shared_bias_variants(tmp_path, capsys, variant, mixing):
    """The regime classes, the hub limit and the GF(2) verdict are
    independent-row theory, so the report names the variant and stops."""
    cfg = _write_config(tmp_path, ensemble={"n": 500, "mixing": mixing, "variant": variant,
                                            "master_seed": SEED})
    assert main(["report", "--config", str(cfg)]) == 1
    assert f"variant {variant!r}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


# -- validation harness -----------------------------------------------------


def _mc_config(tmp_path, **extra):
    data = {
        "ensemble": {
            "n": 120,
            "mixing": {"variant": "power_law", "alpha": 1.0, "beta": 3.0},
            "master_seed": SEED,
            "replicas": 400,
        },
        "tasks": ["degrees", "motifs", "hub", "gf2"],
        "output_dir": str(tmp_path / "out"),
        "motifs": {"replicas": 2000},
        "hub": {"ks_max": 0.15},
        "gf2": {"n": 24, "replicas": 4000},
    }
    data.update(extra)
    path = tmp_path / "mc.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_mc_all_suites_pass(tmp_path):
    cfg = _mc_config(tmp_path)
    assert main(["mc", "--config", str(cfg)]) == 0
    payload = json.loads(_read_out(tmp_path, "mc.json"))
    assert payload["pass"] is True
    assert set(payload["suites"]) == {"degrees", "motifs", "hub", "gf2"}
    assert payload["suites"]["degrees"]["p_value"] >= 0.01
    assert payload["suites"]["gf2"]["z"] <= 4.0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mc_motifs_suite_on_a_rectangular_block(tmp_path, seed):
    """Thirty senders among sixty nodes: the triple, root and leaf counts of
    the m x n draws meet their rectangular means."""
    cfg = _mc_config(tmp_path, tasks=["motifs"], motifs={"n": 60, "rows": 30})
    data = json.loads(cfg.read_text())
    data["ensemble"]["master_seed"] = seed
    cfg.write_text(json.dumps(data))
    assert main(["mc", "--config", str(cfg)]) == 0
    suite = json.loads(_read_out(tmp_path, "mc.json"))["suites"]["motifs"]
    assert suite["pass"] is True and suite["replicas"] == 400


@pytest.mark.parametrize("variant,mixing", [
    ("completely_exchangeable", {"variant": "power_law", "alpha": 2.0, "beta": 2.5}),
    ("hierarchical", {"variant": "hierarchical", "A": 1.0, "beta": 3.0, "gamma_exp": 4.5}),
])
def test_mc_degree_suite_keeps_row_zero_under_shared_biases(tmp_path, variant, mixing):
    """Rows that share a bias draw are not independent, so the degree suite
    keeps one row per replica; its marginal law is the per-row mixture."""
    cfg = _mc_config(tmp_path, tasks=["degrees"], ensemble={
        "n": 60, "mixing": mixing, "variant": variant, "master_seed": SEED, "replicas": 400})
    assert main(["mc", "--config", str(cfg)]) == 0
    suite = json.loads(_read_out(tmp_path, "mc.json"))["suites"]["degrees"]
    assert suite["pass"] is True and suite["draws"] == 400


def test_mc_and_hub_reruns_are_byte_identical(tmp_path):
    cfg = _mc_config(tmp_path, motifs={"n": 40, "replicas": 500},
                     gf2={"n": 16, "replicas": 1000})
    outs = [tmp_path / name for name in ("t1", "t1_again", "t2")]
    for out, threads in zip(outs, ("1", "1", "2")):
        assert main(["mc", "--config", str(cfg), "--out", str(out),
                     "--threads", threads]) == 0
        assert main(["hub", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("mc.json", "hub.json", "hub_cdf.csv"):
        first = (outs[0] / name).read_bytes()
        assert all((out / name).read_bytes() == first for out in outs[1:])


def test_mc_mismatched_expected_law_fails(tmp_path):
    """Harness self-test: a wrong reference law must trip the fail exit code."""
    cfg = _mc_config(tmp_path, tasks=["degrees"],
                     degrees={"expected_mixing": {"variant": "dirac",
                                                  "lambda": 4.0}})
    assert main(["mc", "--config", str(cfg)]) == 2
    payload = json.loads(_read_out(tmp_path, "mc.json"))
    assert payload["pass"] is False
    assert payload["suites"]["degrees"]["p_value"] < 1e-6


def test_mc_gf2_suite_runs_beyond_64_senders(tmp_path):
    """Seventy senders fill two words per column; the suite runs and compares
    as at any width, at the default z_max."""
    cfg = _mc_config(tmp_path, tasks=["gf2"], gf2={"n": 70, "replicas": 2000}, ensemble={
        "n": 120, "mixing": {"variant": "dirac", "lambda": 30}, "master_seed": SEED,
        "replicas": 400})
    assert main(["mc", "--config", str(cfg)]) == 0
    payload = json.loads(_read_out(tmp_path, "mc.json"))
    suite = payload["suites"]["gf2"]
    assert payload["pass"] is True and suite["pass"] is True
    assert suite["z_max"] == 4.0 and suite["replicas"] == 2000 and suite["se"] > 0.0
    # 2**-n sum_j C(n, j) (1 + 7**-j)**n at theta = 3/7: within 1e-12 of 2
    assert suite["exact"] == pytest.approx(2.0, rel=1e-12)


def _zero_spread_gf2_config(tmp_path):
    # a null bias law leaves every replica's kernel at exactly 2**16, while the
    # exact mean comes out of log space as 65535.999999999396
    return _mc_config(tmp_path, tasks=["gf2"], gf2={"n": 32, "rows": 16}, ensemble={
        "n": 200, "mixing": {"variant": "dirac", "lambda": 0}, "master_seed": SEED,
        "replicas": 200})


def test_mc_gf2_suite_with_zero_spread_compares_the_means(tmp_path):
    assert main(["mc", "--config", str(_zero_spread_gf2_config(tmp_path))]) == 0
    suite = json.loads(_read_out(tmp_path, "mc.json"))["suites"]["gf2"]
    assert suite["se"] == 0.0 and suite["mean"] == 2.0 ** 16
    assert suite["exact"] != suite["mean"]
    assert suite["z"] == 0.0 and suite["pass"] is True


def test_mc_gf2_suite_with_zero_spread_still_fails_a_real_miss(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "expected_solutions", lambda config: 2.0 ** 16 * (1 + 1e-9))
    assert main(["mc", "--config", str(_zero_spread_gf2_config(tmp_path))]) == 2
    payload = json.loads(_read_out(tmp_path, "mc.json"))     # strict JSON: no inf or NaN
    suite = payload["suites"]["gf2"]
    assert payload["pass"] is False and suite["pass"] is False
    assert suite["z"] is None and "miss the exact mean" in suite["reason"]


def test_hub_suite_passes_on_conditioned_heavy_tail_law(tmp_path):
    """beta = 1.5 at its matched pairing is checked against the conditioned curve."""
    cfg = _mc_config(tmp_path, tasks=["hub"], hub={})
    data = json.loads(cfg.read_text())
    data["ensemble"].update(
        n=10_000, replicas=1000,
        mixing={"variant": "power_law", "alpha": 1.0, "beta": 1.5},
        row_rule={"kind": "power_fraction", "delta": 1.0})
    cfg.write_text(json.dumps(data))
    assert main(["mc", "--config", str(cfg)]) == 0
    suite = json.loads(_read_out(tmp_path, "mc.json"))["suites"]["hub"]
    assert suite["ks_distance"] <= suite["ks_max"] == 0.05
    assert suite["atom"]["reference_mass"] == pytest.approx(
        1.0 - math.exp(-(0.99 ** -0.5 - 1.0)), rel=1e-12)

    assert main(["hub", "--config", str(cfg)]) == 0
    rows = _read_out(tmp_path, "hub_cdf.csv").decode().splitlines()[1:]
    for row in rows:
        x, _, f_limit = (float(v) for v in row.split(","))
        if x < 1.0:
            assert f_limit == pytest.approx(math.exp(-(x ** -0.5 - 1.0)),
                                            rel=1e-9, abs=1e-300)


def test_mc_gf2_suite_refuses_an_exact_mean_past_the_float_range(tmp_path, monkeypatch):
    # a null bias law at n = 1100 has E N = 2**1100; the suite fails with its
    # reason before any Monte Carlo runs
    monkeypatch.setattr(cli, "mc_kernel_mean", lambda config: pytest.fail("Monte Carlo ran"))
    cfg = _mc_config(tmp_path, tasks=["gf2"], gf2={"n": 1100}, ensemble={
        "n": 200, "mixing": {"variant": "dirac", "lambda": 0}, "master_seed": SEED,
        "replicas": 200})
    assert main(["mc", "--config", str(cfg)]) == 2
    payload = json.loads(_read_out(tmp_path, "mc.json"))
    assert payload["pass"] is False
    assert payload["suites"]["gf2"] == {"pass": False, "reason": "exact mean overflows; shrink n"}


def test_mc_without_a_suite_names_the_suites(tmp_path, capsys):
    cfg = _mc_config(tmp_path, tasks=["report"])
    assert main(["mc", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "validation suites" in err
    assert all(repr(name) in err for name in ("degrees", "motifs", "hub", "gf2"))


def test_mc_rejects_few_replicas(tmp_path):
    cfg = _mc_config(tmp_path)
    data = json.loads(cfg.read_text())
    data["ensemble"]["replicas"] = 50
    cfg.write_text(json.dumps(data))
    assert main(["mc", "--config", str(cfg)]) == 1


# -- error handling ---------------------------------------------------------


def test_missing_config_file_is_usage_error(tmp_path):
    assert main(["degrees", "--config", str(tmp_path / "nope.json")]) == 1


def test_malformed_json_is_usage_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["degrees", "--config", str(path)]) == 1


def test_unknown_task_is_usage_error(tmp_path):
    cfg = _write_config(tmp_path, tasks=["bogus"])
    assert main(["degrees", "--config", str(cfg)]) == 1


def test_missing_seed_is_usage_error(tmp_path):
    cfg = _write_config(tmp_path)
    data = json.loads(cfg.read_text())
    del data["ensemble"]["master_seed"]
    cfg.write_text(json.dumps(data))
    assert main(["degrees", "--config", str(cfg)]) == 1


_PL3 = {"variant": "power_law", "alpha": 1.0, "beta": 3.0}


@pytest.mark.parametrize("command, edit, named", [
    ("mc", lambda d: d.update(tasks=["degrees"], degrees={"expected_mixing": {
        "variant": "power_law", "alpha": 1.0}}), ("power_law mixing", "'beta'")),
    ("degrees", lambda d: d["ensemble"]["mixing"].update(alpha="x"),
     ("power_law mixing", "'alpha'")),
    ("degrees", lambda d: d["ensemble"].update(mixing={
        "variant": "seed_cdf", "seed": {"kind": "gamma", "r": 2.0}}),
     ("gamma seed", "'gamma'")),
    ("sample", lambda d: d["ensemble"].update(mixing={
        "variant": "dirac", "lambda": 2, "lam": 5}), ("dirac mixing", "'lam'")),
    ("hub", lambda d: d.update(hub={"chunk": 7, "replica": 5000}), ("hub", "'chunk'")),
    ("sample", lambda d: d["ensemble"].update(replica=7), ("ensemble", "'replica'")),
    ("sample", lambda d: d.update(hubs={}), ("'hubs'",)),
    ("degrees", lambda d: d.update(degrees={"k_max": "x"}), ("degrees block", "'k_max'")),
    ("degrees", lambda d: d.update(degrees={"n": "x"}), ("degrees block", "'n'")),
    ("motifs", lambda d: d.update(motifs={"cycle_lengths": "ab"}),
     ("motifs block", "'cycle_lengths'")),
    ("gf2", lambda d: d.update(gf2={"gammas": 0.5}), ("gf2 block", "'gammas'")),
    ("sample", lambda d: d.update(gf2={"gammas": []}), ("gf2 block", "'gammas'")),
    ("hub", lambda d: d.update(hub={"grid_points": None}), ("hub block", "'grid_points'")),
    ("hub", lambda d: d.update(hub={"grid_points": 0}), ("hub block", "'grid_points'")),
    ("sample", lambda d: d.update(output_dir=5), ("config", "'output_dir'")),
    ("sample", lambda d: d.update(ensemble=[1, 2]), ("ensemble config", "[1, 2]")),
    ("sample", lambda d: d["ensemble"].update(n=40.5), ("ensemble config", "'n'")),
    ("sample", lambda d: d["ensemble"].update(replicas=True),
     ("ensemble config", "'replicas'")),
    ("degrees", lambda d: d.update(degrees={"k_max": 2.7}), ("degrees block", "'k_max'")),
    ("degrees", lambda d: d.update(degrees={"k_max": -3}), ("degrees block", "'k_max'")),
], ids=["expected_mixing_without_beta", "non_numeric_alpha", "seed_missing_key",
        "unknown_mixing_key", "unknown_block_keys", "unknown_ensemble_key",
        "unknown_top_level_key", "non_numeric_k_max", "non_numeric_block_n",
        "string_cycle_lengths", "scalar_gammas", "empty_gammas", "null_grid_points",
        "zero_grid_points", "numeric_output_dir", "list_ensemble",
        "fractional_ensemble_n", "boolean_replicas", "fractional_k_max",
        "negative_k_max"])
def test_malformed_config_objects_exit_one_naming_kind_and_key(
        tmp_path, capsys, command, edit, named):
    data = {"ensemble": {"n": 60, "mixing": dict(_PL3), "master_seed": SEED,
                         "replicas": 200},
            "output_dir": str(tmp_path / "out")}
    edit(data)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("exchgraph: error:")
    assert all(text in err for text in named)


def test_missing_required_flag_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["degrees"])
    assert exc.value.code == 1


def _run_python(code, *args):
    """stdout of ``code`` run in a fresh interpreter that imports this exchgraph."""
    src = str(Path(exchgraph.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                         text=True, check=True, env=env)
    return out.stdout


def test_cli_import_leaves_scipy_integrate_out(tmp_path):
    # the power-law closed forms need no integrator at non-integer beta
    cfg = _write_config(tmp_path, degrees={"k_max": 12})
    data = json.loads(cfg.read_text())
    data["ensemble"]["mixing"]["beta"] = 1.5
    cfg.write_text(json.dumps(data))
    code = ("import sys, exchgraph.cli\n"
            "print('scipy.integrate' in sys.modules)\n"
            "for command in ('gf2', 'report'):\n"
            "    assert exchgraph.cli.main([command, '--config', sys.argv[1]]) == 0\n"
            "print('scipy.integrate' in sys.modules)\n")
    out = _run_python(code, str(cfg))
    assert out.split()[0] == "False"
    assert out.split()[-1] == "False"


def test_power_law_motifs_and_mc_never_load_scipy_integrate(tmp_path):
    # every order these commands need has a closed form, at integer beta too;
    # degrees still loads it, for the limit pmf at k <= beta - 1
    motifs = _write_config(tmp_path, "motifs.json")
    data = json.loads(motifs.read_text())
    data["ensemble"]["mixing"]["beta"] = 1.5
    motifs.write_text(json.dumps(data))
    mc = _mc_config(tmp_path, motifs={"replicas": 200}, gf2={"n": 24, "replicas": 400})
    code = ("import sys, exchgraph.cli\n"
            "assert exchgraph.cli.main(['motifs', '--config', sys.argv[1]]) == 0\n"
            "assert exchgraph.cli.main(['mc', '--config', sys.argv[2]]) == 0\n"
            "print('scipy.integrate' in sys.modules)\n")
    assert _run_python(code, str(motifs), str(mc)).split()[-1] == "False"


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats alone costs about a third of the import time of the CLI;
    # scipy.sparse serves only weak_components, which imports it itself;
    # scipy.special and scipy.integrate load on first use (_numerics)
    names = ("scipy.stats", "scipy.sparse", "scipy.special", "scipy.integrate")
    code = f"import sys, exchgraph.cli; print([n for n in {names!r} if n in sys.modules])"
    assert _run_python(code).strip() == "[]"


def test_sample_and_hub_never_load_scipy_special(tmp_path):
    # each command starts a fresh interpreter, so for a short sample run the
    # import is most of the cost; the hub kernel screens rows at n = 2000,
    # and at n = 200 most replicas leave it for NumPy's binomials
    modulated = {"variant": "modulated_power_law", "alpha": 1.0, "beta": 2.5,
                 "g_table": [[0.0, 1.0], [10.0, 2.0], [100.0, 0.5]]}
    args = []
    for command, ensemble in [("sample", {}), ("sample", {"mixing": modulated}),
                              ("hub", {"n": 200, "replicas": 100}),
                              ("hub", {"n": 2000, "replicas": 100})]:
        cfg = _write_config(tmp_path, f"cfg{len(args)}.json")
        data = json.loads(cfg.read_text())
        data["ensemble"].update(ensemble)
        cfg.write_text(json.dumps(data))
        args += [command, str(cfg)]
    code = ("import sys, exchgraph.cli\n"
            "for command, path in zip(sys.argv[1::2], sys.argv[2::2]):\n"
            "    assert exchgraph.cli.main([command, '--config', path]) == 0\n"
            "print('scipy.special' in sys.modules)\n")
    assert _run_python(code, *args).split()[-1] == "False"


def test_motifs_gf2_and_report_never_load_scipy(tmp_path):
    # the special functions these reach take NumPy and math on power-law
    # configs; beta = 3 walks from a0 = 0, beta = 1.5 from a0 = 1/2
    args = []
    for beta in (1.5, 3.0):
        cfg = _write_config(tmp_path, f"beta{beta}.json")
        data = json.loads(cfg.read_text())
        data["ensemble"]["mixing"]["beta"] = beta
        cfg.write_text(json.dumps(data))
        args += [command for name in ("motifs", "gf2", "report") for command in (name, str(cfg))]
    code = ("import sys, exchgraph.cli\n"
            "for command, path in zip(sys.argv[1::2], sys.argv[2::2]):\n"
            "    assert exchgraph.cli.main([command, '--config', path]) == 0\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n")
    assert _run_python(code, *args).splitlines()[-1] == "[]"


def test_public_names_resolve():
    # a stale __all__ entry breaks only the star import that reads it
    for info in pkgutil.iter_modules(exchgraph.__path__):
        module = importlib.import_module(f"exchgraph.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (info.name, missing)
        exec(f"from exchgraph.{info.name} import *", {})
    namespace = {}
    exec("from exchgraph import *", namespace)
    assert "sample_graph" in namespace
