"""Acceptance checks: one pass/fail line per shipped guarantee.

Every statistical check runs at the fixed master seed below, so each
line is deterministic.  Tolerances are the advertised bounds, not tuned
margins.
"""

import itertools
import json
import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from exchgraph.cli import main
from exchgraph.degrees import in_pmf_exact, limit_pmf, out_pmf_exact, total_variation
from exchgraph.ensemble import (BitMatrix, EnsembleConfig, ExplicitRows,
                                PowerFractionRows, map_replicas, sample_graph)
from exchgraph.errors import NoThresholdError
from exchgraph.gf2 import (DegenerateTermWarning, expected_solutions,
                           log_expected_solutions, rank_gf2, rate_sup,
                           threshold_bisection)
from exchgraph.hub import (competing_moment_constant, frechet_moment,
                           hub_atom_estimate, hub_limit_cdf, mc_hub,
                           mc_hub_values)
from exchgraph.mixing import DiracMixing, PowerLawMixing, log_row_prob
from exchgraph.motifs import (count_feedback_loops, count_feedforward_loops,
                              count_leaves, count_roots, mc_motifs,
                              mc_roots_leaves, mean_feedback_loops,
                              mean_feedforward_loops, mean_leaves, mean_roots,
                              var_feedback_loops, var_feedforward_loops)
from exchgraph.seeds import (DiracSeed, ExponentialSeed, GammaSeed, LerchSeed, PowerLawSeed,
                             SeedDistribution)

SEED = 20260821


def _dense_matrices(n, m):
    """Yield (weight-exponent rows, dense array) for every binary m x n matrix."""
    for rows in itertools.product(range(2 ** n), repeat=m):
        dense = np.array([[(r >> j) & 1 for j in range(n)] for r in rows],
                         dtype=np.uint8)
        yield rows, dense


def _exhaustive_kernel_mean(spec, n, m):
    probs = [math.exp(log_row_prob(spec, n, r)) for r in range(n + 1)]
    total = 0.0
    for rows, dense in _dense_matrices(n, m):
        weight = 1.0
        for r in rows:
            weight *= probs[bin(r).count("1")]
        total += weight * rank_gf2(BitMatrix.from_dense(dense)).n_solutions
    return total


def test_criterion_01_kernel_mean_exhaustive_oracle():
    """Closed-form mean solution count equals full enumeration, n,m <= 3.

    Also certifies the order-zero term of the sum: dropping it at the
    balanced bias theta = 1/2 would give 0.75 where enumeration gives 1.75.
    """
    start = time.monotonic()
    specs = [DiracMixing(lam=0.6),
             PowerLawMixing(alpha=1.0, beta=3.0),
             PowerLawMixing(alpha=1.0, beta=1.5)]
    for spec in specs:
        sizes = (1, 2, 3) if isinstance(spec, DiracMixing) else (2, 3)
        for n in sizes:  # power-law mixing needs n > alpha
            for m in (1, 2, 3):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DegenerateTermWarning)
                    got = expected_solutions(EnsembleConfig(n, spec, ExplicitRows(m)))
                ref = _exhaustive_kernel_mean(spec, n, m)
                assert got == pytest.approx(ref, rel=1e-8), (spec, n, m)

    balanced = DiracMixing(lam=1.0)  # theta = 1/2 at n = 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateTermWarning)
        full = expected_solutions(EnsembleConfig(2, balanced))
    truncated = full - 2.0 ** -2 * (1.0 + 1.0) ** 2
    ref = _exhaustive_kernel_mean(balanced, 2, 2)
    assert full == pytest.approx(ref, rel=1e-12)
    assert full == pytest.approx(1.75, rel=1e-12)
    assert truncated == pytest.approx(0.75, rel=1e-12)
    assert time.monotonic() - start < 10.0


def test_criterion_02_degree_law_convergence():
    """Exact finite-n pmfs sit within stated TV of their limit laws at n=1e4."""
    start = time.monotonic()
    spec = PowerLawMixing(alpha=1.0, beta=3.0)
    n = 10_000
    ks = np.arange(101)

    out_exact = out_pmf_exact(spec, n, ks)
    out_limit = limit_pmf(spec.limit_seed(), ks)
    assert total_variation(out_exact, out_limit) < 0.01

    in_exact = in_pmf_exact(EnsembleConfig(n, spec), ks)
    in_limit = limit_pmf(DiracSeed(t0=2.0), ks)
    assert total_variation(in_exact, in_limit) < 0.005
    assert time.monotonic() - start < 60.0


def test_criterion_03_worked_pmf_identities():
    """Closed-form limit pmfs agree with their independent quadrature routes."""
    ks = np.arange(31)
    geo = limit_pmf(ExponentialSeed(gamma=1.0), ks)
    assert np.max(np.abs(geo - 2.0 ** -(ks + 1.0))) <= 1e-15

    seed = GammaSeed(r=2.5, gamma=0.7)
    nb, mixed = limit_pmf(seed, ks), SeedDistribution._mixture_pmf(seed, ks)
    assert np.max(np.abs(nb - mixed)) <= 1e-8

    ks20 = np.arange(21)
    seed = LerchSeed(alpha=1.5, s=2.5)
    lerch, mixed = limit_pmf(seed, ks20), SeedDistribution._mixture_pmf(seed, ks20)
    assert np.max(np.abs(lerch - mixed)) <= 1e-7


def _naive_triples(dense):
    n = dense.shape[0]
    fbl = ffl = 0
    for i, j, k in itertools.permutations(range(n), 3):
        if dense[i, j] and dense[j, k]:
            if dense[k, i]:
                fbl += 1
            if dense[i, k]:
                ffl += 1
    return fbl // 3, ffl


def test_criterion_04_motif_oracle_and_moments():
    """Triple counters match brute force; MC moments match the closed forms."""
    start = time.monotonic()
    for n in (3, 5, 7):
        config = EnsembleConfig(n=n, mixing=PowerLawMixing(alpha=1.0, beta=2.0),
                                master_seed=SEED + n, replicas=334)
        for idx in range(config.replicas):
            dense = sample_graph(config, idx).matrix.to_dense()
            np.fill_diagonal(dense, 0)
            fbl, ffl = _naive_triples(dense)
            assert count_feedback_loops(dense) == fbl
            assert count_feedforward_loops(dense) == ffl

    spec = PowerLawMixing(alpha=1.0, beta=3.0)
    config = EnsembleConfig(n=100, mixing=spec, master_seed=SEED)
    mc = mc_motifs(replace(config, replicas=10_000))
    assert abs(mc.fbl_mean - mean_feedback_loops(config)) <= 3.0 * mc.fbl_se
    assert abs(mc.ffl_mean - mean_feedforward_loops(config)) <= 3.0 * mc.ffl_se
    assert mc.fbl_var == pytest.approx(var_feedback_loops(config), rel=0.05)
    assert mc.ffl_var == pytest.approx(var_feedforward_loops(config), rel=0.05)

    probs = [math.exp(log_row_prob(spec, 3, r)) for r in range(4)]
    m1f = m2f = m1g = m2g = 0.0
    for rows, dense in _dense_matrices(3, 3):
        weight = 1.0
        for r in rows:
            weight *= probs[bin(r).count("1")]
        f = count_feedback_loops(dense)
        g = count_feedforward_loops(dense)
        m1f += weight * f
        m2f += weight * f * f
        m1g += weight * g
        m2g += weight * g * g
    assert m2f - m1f ** 2 == pytest.approx(var_feedback_loops(EnsembleConfig(3, spec)),
                                           abs=1e-10)
    assert m2g - m1g ** 2 == pytest.approx(var_feedforward_loops(EnsembleConfig(3, spec)),
                                           abs=1e-10)
    assert time.monotonic() - start < 300.0


def test_criterion_05_roots_leaves_resolution():
    """Source/sink means match enumeration and the per-node product form."""
    spec = DiracMixing(lam=0.8)  # theta = 0.4 at n = 2
    theta = 0.4
    probs = [math.exp(log_row_prob(spec, 2, r)) for r in range(3)]
    roots = leaves = 0.0
    for rows, dense in _dense_matrices(2, 2):
        weight = 1.0
        for r in rows:
            weight *= probs[bin(r).count("1")]
        bm = BitMatrix.from_dense(dense)
        roots += weight * count_roots(bm)
        leaves += weight * count_leaves(bm)
    square = EnsembleConfig(2, spec)
    assert mean_roots(square) == pytest.approx(roots, abs=1e-12)
    assert mean_leaves(square) == pytest.approx(leaves, abs=1e-12)
    assert mean_roots(square) == pytest.approx(2.0 * (1 - theta) ** 2 * theta, abs=1e-12)

    spec = PowerLawMixing(alpha=1.0, beta=3.0)
    config = EnsembleConfig(n=500, mixing=spec, master_seed=SEED)
    mc = mc_roots_leaves(replace(config, replicas=2000))
    assert abs(mc.roots_mean - mean_roots(config)) <= 3.0 * mc.roots_se
    assert abs(mc.leaves_mean - mean_leaves(config)) <= 3.0 * mc.leaves_se


def test_criterion_06_hub_frechet_ks():
    """Scaled sender maximum at beta=3 tracks its inverse-square limit law."""
    start = time.monotonic()
    config = EnsembleConfig(n=10_000, mixing=PowerLawMixing(alpha=1.0, beta=3.0),
                            master_seed=SEED, replicas=1000)
    report = mc_hub(config)
    assert (report.scaling.limit.c_eta, report.scaling.limit.eta) == (1.0, 2.0)
    assert report.ks_distance < 0.05
    assert time.monotonic() - start < 600.0


def test_criterion_06_hub_atom_heavy_regime():
    """Hub mass near the cutoff for beta = 1.5 follows the conditioned law.

    The law is stated for the matched pairing rows = n**(beta - 1) = 100.
    The bias density is normalised on (alpha/n, 1], so the hub over n tends
    to the Frechet curve conditioned at the cutoff, exp(-(x**-0.5 - 1)) on
    (0, 1], and the mass above 0.99 n is 1 - G(0.99) = 0.0050.  The curve
    that was advertised before clipped exp(-x**-0.5) to 1 at the cutoff,
    which left an atom of 1 - 1/e there that the ensemble never had.  The
    exact finite-n mass from the out-degree pmf must sit in the same band.
    At 1e5 replicas the band excludes 0, the old atom, and the 0.399 that
    the square pairing m = n gives, where no limit law is stated.
    """
    start = time.monotonic()
    n = 10_000
    spec = PowerLawMixing(alpha=1.0, beta=1.5)
    config = EnsembleConfig(n=n, mixing=spec, row_rule=PowerFractionRows(1.0),
                            master_seed=SEED, replicas=100_000)
    scaling = hub_limit_cdf(1.0, 1.5, n)
    assert config.m == scaling.rows == 100
    values = mc_hub_values(config)
    mass, se = hub_atom_estimate(values, n)
    ref = 1.0 - scaling.cdf(0.99 * n / scaling.scale)
    ks = np.arange(n + 1)
    row_tail = float(np.sum(out_pmf_exact(spec, n, ks[ks > 0.99 * n])))
    exact = 1.0 - (1.0 - row_tail) ** config.m
    assert time.monotonic() - start < 600.0
    assert mass > 3.0 * se, f"band of {mass:.5f} (se {se:.5f}) reaches 0"
    for name, value in (("limit", ref), ("exact", exact)):
        assert abs(mass - value) <= 3.0 * se, (
            f"cutoff mass {mass:.5f} (se {se:.5f}) vs {name} {value:.5f}: "
            f"{abs(mass - value) / se:.1f} standard errors apart")


def test_criterion_07_hub_moment_constant():
    """MC first moment singles out one of the two candidate constants."""
    n = 10_000
    config = EnsembleConfig(n=n, mixing=PowerLawMixing(alpha=1.0, beta=3.0),
                            master_seed=SEED, replicas=10_000)
    scaled = mc_hub_values(config) / math.sqrt(n)
    mean = float(scaled.mean())
    se = float(scaled.std(ddof=1) / math.sqrt(len(scaled)))

    candidate_a = frechet_moment(1.0, 2.0, 1.0)
    candidate_b = competing_moment_constant(1.0, 3.0, 1.0)
    assert candidate_a == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert candidate_b == pytest.approx(4.0 * math.sqrt(math.pi), rel=1e-12)

    hit_a = abs(mean - candidate_a) <= 3.0 * se
    hit_b = abs(mean - candidate_b) <= 3.0 * se
    assert hit_a and not hit_b, (
        f"mean {mean:.4f} (se {se:.4f}) vs {candidate_a:.4f} / {candidate_b:.4f}")


def test_criterion_08_rate_function_threshold():
    """Log-mean growth matches the variational rate; threshold verdicts split."""
    n = 800
    for gamma in (0.5, 0.8, 1.0):
        m = int(round(n / gamma))
        cfg = EnsembleConfig(n, DiracMixing(lam=1.0), ExplicitRows(m))
        empirical = log_expected_solutions(cfg) / n
        assert abs(empirical - rate_sup(DiracSeed(t0=1.0), gamma).i_gamma) < 0.01

    for seed in (ExponentialSeed(gamma=1.0), GammaSeed(r=2.0, gamma=1.5),
                 PowerLawSeed(alpha=1.0, beta=3.0)):
        for gamma in (0.2, 0.4, 0.6, 0.8, 1.0):
            assert rate_sup(seed, gamma).exceeds_baseline

    gamma_c, trace = threshold_bisection(PowerLawSeed(alpha=1.0, beta=1.5))
    assert 0.0 < gamma_c < 1.0
    assert gamma_c == pytest.approx(0.8575992, abs=1e-5)
    above = [g for g, flag in trace if flag]
    below = [g for g, flag in trace if not flag]
    assert min(above) > max(below)  # monotone predicate along the whole trace

    with pytest.raises(NoThresholdError, match="finite mean"):
        threshold_bisection(PowerLawSeed(alpha=1.0, beta=3.0))


def test_criterion_09_reproducibility(tmp_path):
    """Fixed-seed runs are byte-identical across reruns."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "ensemble": {"n": 60,
                     "mixing": {"variant": "power_law", "alpha": 1.0, "beta": 3.0},
                     "master_seed": SEED, "replicas": 3},
        "output_dir": str(tmp_path / "a"),
    }), encoding="utf-8")
    outs = [tmp_path / "a", tmp_path / "b", tmp_path / "c"]
    assert main(["sample", "--config", str(cfg), "--out", str(outs[0])]) == 0
    assert main(["sample", "--config", str(cfg), "--out", str(outs[1])]) == 0
    assert main(["sample", "--config", str(cfg), "--out", str(outs[2])]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert names == sorted(p.name for p in outs[2].iterdir())
    for name in names:
        blob = (outs[0] / name).read_bytes()
        assert blob == (outs[1] / name).read_bytes()
        assert blob == (outs[2] / name).read_bytes()

    assert main(["degrees", "--config", str(cfg), "--out", str(outs[0])]) == 0
    assert main(["degrees", "--config", str(cfg), "--out", str(outs[1])]) == 0
    assert ((outs[0] / "degrees.json").read_bytes()
            == (outs[1] / "degrees.json").read_bytes())


def test_criterion_10_exchangeability_independence():
    """Column totals are symmetric and distinct rows are uncorrelated."""
    replicas = 100_000

    config = EnsembleConfig(n=32, mixing=DiracMixing(lam=8.0),
                            row_rule=ExplicitRows(m=1),
                            master_seed=SEED, replicas=replicas)
    rows = map_replicas(config, lambda s: s.matrix.to_dense()[0])
    totals = np.sum(np.asarray(rows, dtype=np.int64), axis=0)
    p = 8.0 / 32.0
    expected = replicas * p
    stat = float(np.sum((totals - expected) ** 2) / (expected * (1.0 - p)))
    p_value = float(stats.chi2.sf(stat, df=32))
    assert p_value >= 0.01

    config = EnsembleConfig(n=32, mixing=PowerLawMixing(alpha=1.0, beta=3.0),
                            row_rule=ExplicitRows(m=2),
                            master_seed=SEED, replicas=replicas)
    degs = np.asarray(map_replicas(config, lambda s: s.matrix.row_sums()),
                      dtype=np.float64)
    corr = float(np.corrcoef(degs[:, 0], degs[:, 1])[0, 1])
    assert abs(corr) < 4.0 / math.sqrt(replicas)
