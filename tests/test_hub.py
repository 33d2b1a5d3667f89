"""Largest-out-degree statistics: reference curves, moments, Monte Carlo."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from exchgraph import hub
from exchgraph.ensemble import (EnsembleConfig, ExplicitRows, LogFractionRows,
                                PowerFractionRows, SquareRows, sample_graph)
from exchgraph.errors import ParameterError
from exchgraph.hub import (HubLimit, competing_moment_constant, frechet_moment,
                           hub_atom_estimate, hub_limit_cdf,
                           hub_statistic, mc_hub, mc_hub_values, write_hub_cdf)
from exchgraph.mixing import DiracMixing, HierarchicalMixing, PowerLawMixing, SeedCdfMixing
from exchgraph.seeds import DiracSeed, ExponentialSeed, ParetoTailSeed

SEED = 20260821


# -- hub statistic ----------------------------------------------------------


def test_hub_statistic_empty_graph_is_zero():
    cfg = EnsembleConfig(n=12, mixing=DiracMixing(lam=0.0), master_seed=1)
    assert hub_statistic(sample_graph(cfg, 0)) == 0


def test_hub_statistic_full_graph_is_n():
    cfg = EnsembleConfig(n=9, mixing=DiracMixing(lam=9.0), master_seed=1)
    assert hub_statistic(sample_graph(cfg, 0)) == 9


def test_hub_statistic_matches_row_sums():
    cfg = EnsembleConfig(n=40, mixing=PowerLawMixing(alpha=1.0, beta=2.5),
                         master_seed=SEED)
    sample = sample_graph(cfg, 3)
    dense = sample.matrix.to_dense()
    assert hub_statistic(sample) == int(dense.sum(axis=1).max())


# -- reference curves -------------------------------------------------------


def test_limit_cdf_at_alpha_is_inverse_e():
    scaling = hub_limit_cdf(alpha=1.7, beta=3.2, n=1000)
    assert scaling.cdf(1.7) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_limit_cdf_endpoints():
    limit = HubLimit(c_eta=1.0, eta=2.0)
    assert limit.cdf(1e-12) == pytest.approx(0.0, abs=1e-300)
    assert limit.cdf(0.0) == 0.0
    assert limit.cdf(1e12) == pytest.approx(1.0, rel=1e-12)


def test_limit_cdf_monotone_on_grid():
    for scaling in (hub_limit_cdf(1.0, 3.0, 10_000),
                    hub_limit_cdf(1.0, 1.5, 10_000)):
        xs = np.linspace(1e-3, 3.0, 1000)
        vals = scaling.cdf(xs)
        assert np.all(np.diff(vals) >= 0)
        assert np.all((vals >= 0) & (vals <= 1))


def test_truncated_curve_jumps_to_one_at_cutoff():
    # below two the Frechet curve is conditioned on X <= 1, the top of the
    # bias slice: exp(-(x**-0.5 - 1)) rises continuously to 1, with no atom
    scaling = hub_limit_cdf(alpha=1.0, beta=1.5, n=10_000)
    limit = scaling.limit
    assert limit.cutoff == 1.0
    assert limit.cdf(1.0) == 1.0
    assert limit.cdf(1.0 - 1e-9) == pytest.approx(1.0, rel=1e-9)
    assert limit.cdf(1.0 + 1e-12) - limit.cdf(1.0 - 1e-12) < 1e-11
    assert limit.cdf(0.25) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_untruncated_curve_has_no_atom():
    limit = HubLimit(2.0, 1.5)
    xs = np.array([0.5, 1.0, 10.0, 1e6])
    assert np.all(limit.cdf(xs + 1e-9) - limit.cdf(xs - 1e-9) < 1e-8)
    assert limit.cdf(1e300) == pytest.approx(1.0, rel=1e-12)


def test_regime_rows_and_scale():
    n = 10_000
    top = hub_limit_cdf(1.0, 3.0, n)
    assert (top.rows, top.scale) == (n, pytest.approx(100.0))
    mid = hub_limit_cdf(1.0, 2.0, n)
    assert mid.rows == math.floor(n / math.log(n))
    assert mid.scale == pytest.approx(n / math.log(n))
    low = hub_limit_cdf(1.0, 1.5, n)
    assert (low.rows, low.scale) == (100, pytest.approx(float(n)))


def test_regime_rows_match_row_rules():
    # the canonical pairings are expressible as row rules without drift
    n = 7919
    mix2 = PowerLawMixing(alpha=1.0, beta=2.0)
    assert LogFractionRows(1.0).resolve(n, mix2) == hub_limit_cdf(1.0, 2.0, n).rows
    mix15 = PowerLawMixing(alpha=1.0, beta=1.5)
    assert PowerFractionRows(1.0).resolve(n, mix15) == hub_limit_cdf(1.0, 1.5, n).rows


def test_reference_curve_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        hub_limit_cdf(alpha=0.0, beta=3.0, n=100)
    with pytest.raises(ParameterError):
        hub_limit_cdf(alpha=1.0, beta=1.0, n=100)
    with pytest.raises(ParameterError):
        hub_limit_cdf(alpha=1.0, beta=3.0, n=1)
    with pytest.raises(ParameterError):
        HubLimit(c_eta=-1.0, eta=2.0)
    with pytest.raises(ParameterError):
        HubLimit(c_eta=1.0, eta=0.0)


# -- moments ----------------------------------------------------------------


def test_frechet_moment_worked_value():
    assert frechet_moment(1.0, 2.0, 1.0) == pytest.approx(1.7724538509055159,
                                                          rel=1e-12)


def test_frechet_moment_matches_tail_integral():
    # ORACLE: E[X^d] = int d x^(d-1) (1 - F(x)) dx for a nonnegative variable
    alpha, eta, d = 1.3, 2.4, 1.7
    closed = frechet_moment(alpha, eta, d)

    def integrand(x):
        return d * x ** (d - 1.0) * (1.0 - math.exp(-((alpha / x) ** eta)))

    val, err = integrate.quad(integrand, 0.0, np.inf, limit=400)
    assert closed == pytest.approx(val, rel=1e-7)


def test_frechet_moment_rejects_divergent_orders():
    with pytest.raises(ParameterError):
        frechet_moment(1.0, 2.0, 2.0)
    with pytest.raises(ParameterError):
        frechet_moment(1.0, 2.0, 0.0)
    with pytest.raises(ParameterError):
        frechet_moment(0.0, 2.0, 1.0)


def test_competing_moment_constant_worked_value():
    assert competing_moment_constant(1.0, 3.0, 1.0) == pytest.approx(
        7.0898154036220635, rel=1e-12)
    with pytest.raises(ParameterError):
        competing_moment_constant(1.0, 1.8, 1.0)


def test_moment_candidates_disagree_where_mc_decides():
    # the two closed forms bracket the simulation check: they must differ
    a = frechet_moment(1.0, 2.0, 1.0)
    b = competing_moment_constant(1.0, 3.0, 1.0)
    assert b == pytest.approx(4.0 * a, rel=1e-12)


# -- Monte Carlo ------------------------------------------------------------


def test_mc_hub_values_deterministic():
    cfg = EnsembleConfig(n=300, mixing=PowerLawMixing(alpha=1.0, beta=3.0),
                         master_seed=SEED, replicas=150)
    first = mc_hub_values(cfg)
    second = mc_hub_values(cfg)
    assert np.array_equal(first, second)


def test_mc_hub_report_carries_its_values():
    cfg = EnsembleConfig(n=300, mixing=PowerLawMixing(alpha=1.0, beta=3.0),
                         master_seed=SEED, replicas=150)
    report = mc_hub(cfg)
    assert np.array_equal(report.values, mc_hub_values(cfg))
    assert "values" not in report.to_json()


def test_mc_hub_values_match_bit_sampler_law():
    # Binomial row sums must track the bit-level sampler's hub distribution
    cfg = EnsembleConfig(n=60, mixing=PowerLawMixing(alpha=1.0, beta=2.5),
                         master_seed=SEED, replicas=1500)
    shortcut = mc_hub_values(cfg)
    direct = np.array([hub_statistic(sample_graph(cfg, r))
                       for r in range(1500)])
    pooled_se = math.sqrt(shortcut.var(ddof=1) / len(shortcut)
                          + direct.var(ddof=1) / len(direct))
    assert abs(shortcut.mean() - direct.mean()) < 4.0 * pooled_se


def test_mc_hub_top_regime_ks():
    cfg = EnsembleConfig(n=10_000, mixing=PowerLawMixing(alpha=1.0, beta=3.0),
                         row_rule=SquareRows(), master_seed=SEED, replicas=1000)
    report = mc_hub(cfg)
    assert report.m_n == 10_000
    assert report.scaling.scale == pytest.approx(100.0)
    assert math.isinf(report.scaling.limit.cutoff)
    assert report.ks_distance < 0.05


def test_mc_hub_subcritical_rows_ks():
    # rows far below the tail scale: plain untruncated curve applies
    cfg = EnsembleConfig(n=10_000, mixing=PowerLawMixing(alpha=1.0, beta=3.0),
                         row_rule=ExplicitRows(400), master_seed=SEED,
                         replicas=1000)
    report = mc_hub(cfg)
    assert report.scaling.scale == pytest.approx(20.0)
    assert math.isinf(report.scaling.limit.cutoff)
    assert report.ks_distance < 0.08


def test_mc_hub_seed_slice_tail_ks():
    seed = ParetoTailSeed(alpha=2.0, eta=1.5)
    cfg = EnsembleConfig(n=10_000, mixing=SeedCdfMixing(seed=seed),
                         row_rule=ExplicitRows(100), master_seed=SEED,
                         replicas=1000)
    report = mc_hub(cfg)
    assert report.scaling.limit.c_eta == pytest.approx(2.0 ** 1.5)
    assert report.scaling.limit.eta == pytest.approx(1.5)
    assert report.ks_distance < 0.05


def test_mc_hub_hierarchical_tail_ks():
    # the seed's tail is (g-1)/(g-b) A**(b-1) x**-(b-1); at n <= 2000 the KS
    # distance to the limit is 0.06-0.18, which is finite-n bias, so n = 1e4
    cfg = EnsembleConfig(n=10_000, mixing=HierarchicalMixing(A=1.0, beta=3.0, gamma_exp=4.5),
                         master_seed=SEED, replicas=1000)
    report = mc_hub(cfg)
    assert report.scaling.limit.c_eta == pytest.approx(3.5 / 1.5)
    assert report.scaling.limit.eta == pytest.approx(2.0)
    assert report.ks_distance < 0.05


def test_mc_hub_graph_scale_regime_is_continuous():
    # rows matched to the tail scale: the empirical curve follows the
    # bounded-slice law exp(-c (x**-eta - 1)), the reference curve itself,
    # and puts almost no mass at the cutoff
    cfg = EnsembleConfig(n=10_000, mixing=PowerLawMixing(alpha=1.0, beta=1.5),
                         row_rule=PowerFractionRows(1.0), master_seed=SEED,
                         replicas=1000)
    report = mc_hub(cfg)
    assert report.m_n == 100
    assert report.scaling.scale == pytest.approx(10_000.0)
    assert report.scaling.limit.cutoff == 1.0
    assert report.ks_distance < 0.05
    xs = np.array([x for x, _ in report.empirical_cdf])
    emp = np.array([f for _, f in report.empirical_cdf])
    inside = xs < 1.0
    bounded_slice = np.exp(-((xs[inside] ** -0.5) - 1.0))
    assert np.max(np.abs(emp[inside] - bounded_slice)) < 0.05

    values = mc_hub_values(cfg)
    p_hat, _ = hub_atom_estimate(values, cfg.n)
    assert p_hat < 0.03
    assert (report.scaling.limit.c_eta, report.scaling.limit.eta) == (1.0, 0.5)


def test_mc_hub_degenerate_point_mass_at_zero():
    for mixing in (DiracMixing(lam=0.0), SeedCdfMixing(seed=DiracSeed(t0=0.0))):
        cfg = EnsembleConfig(n=50, mixing=mixing, master_seed=1, replicas=200)
        report = mc_hub(cfg)
        assert report.ks_distance == 0.0
        assert report.scaling is None
        assert report.b_n == 1.0
        assert report.reference_cdf(0.5) == 1.0
        assert all(f == 1.0 for _, f in report.empirical_cdf)


def test_mc_hub_rejections():
    with pytest.raises(ParameterError):
        mc_hub(EnsembleConfig(n=50, mixing=PowerLawMixing(1.0, 3.0),
                              master_seed=1, replicas=50))
    with pytest.raises(ParameterError):
        mc_hub(EnsembleConfig(n=50, mixing=DiracMixing(lam=2.0),
                              master_seed=1, replicas=200))
    with pytest.raises(ParameterError):
        mc_hub(EnsembleConfig(n=50, mixing=PowerLawMixing(1.0, 3.0),
                              variant="completely_exchangeable",
                              master_seed=1, replicas=200))
    with pytest.raises(ParameterError):
        mc_hub(EnsembleConfig(n=50, mixing=SeedCdfMixing(seed=ExponentialSeed(gamma=1.0)),
                              master_seed=1, replicas=200))
    with pytest.raises(ParameterError):
        # rows so numerous the hub scale hits the graph size
        mc_hub(EnsembleConfig(n=100, mixing=PowerLawMixing(1.0, 1.5),
                              row_rule=ExplicitRows(8), master_seed=1,
                              replicas=200))


def test_mc_hub_rejects_empty_grid_before_sampling(monkeypatch):
    def no_sampling(config):
        raise AssertionError("sampled before checking grid_points")

    monkeypatch.setattr(hub, "mc_hub_values", no_sampling)
    cfg = EnsembleConfig(n=50, mixing=PowerLawMixing(1.0, 3.0), master_seed=1,
                         replicas=200)
    for points in (0, -3):
        with pytest.raises(ParameterError, match="grid_points"):
            mc_hub(cfg, grid_points=points)


# -- screened block kernel -----------------------------------------------------


class _DrawLog:
    """A Generator stand-in that logs the shape of every draw it serves."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), []

    def binomial(self, n, p):
        self.calls.append(("binomial", np.shape(p)))
        return self.rng.binomial(n, p)

    def random(self, size):
        self.calls.append(("random", size))
        return self.rng.random(size)


def _power_row(beta, m, n):
    """The m mid-quantiles of the power law alpha = 1 at size n."""
    top = n ** (beta - 1.0)
    u = (np.arange(m) + 0.5) / m
    return (top - u * (top - 1.0)) ** (-1.0 / (beta - 1.0))


_KERNEL_CASES = {
    # the screen at the benchmark's law; the one row above n*theta = 16 has
    # n*theta = 24.5, so its draw M0 sends some replicas to NumPy and leaves
    # rows past the screen in others
    "screen": (_power_row(3.0, 300, 5000), 5000, "screen"),
    # no row above 16: every replica expects most rows past the screen
    "dirac 5": (np.full(1000, 5 / 5000), 5000, "replica"),
    "dirac 15": (np.full(1000, 15 / 5000), 5000, "replica"),
    # over 1/8 of the rows above 16
    "dirac 40": (np.full(1000, 40 / 5000), 5000, "block"),
    "beta 1.5, m 100": (_power_row(1.5, 100, 5000), 5000, "block"),
    # n < 32: the screen sits at n/2 and the inversion runs to n
    "n below 2T": (np.r_[0.75, np.linspace(0.0, 0.5, 39)], 20, "screen"),
    "zero rows": (np.r_[np.zeros(300), _power_row(3.0, 300, 5000)], 5000, "screen"),
    # M0 = n: every replica screens, and no row passes
    "one full row": (np.r_[1.0, np.zeros(50), _power_row(3.0, 200, 300)], 300, "all screened"),
}


@pytest.mark.parametrize("row,n,route", _KERNEL_CASES.values(), ids=_KERNEL_CASES)
def test_block_kernel_is_the_law_of_the_largest_binomial(monkeypatch, row, n, route):
    # KS distance to prod_j Binomial(n, theta_j).cdf(h) over R replicas of one
    # row, below the 1 % Kolmogorov value, on every route
    inverted = []

    def logged_inverse(u, *args):
        inverted.append(len(u))
        return inverse(u, *args)

    inverse = hub._binomial_inverse
    monkeypatch.setattr(hub, "_binomial_inverse", logged_inverse)
    reps, draws = 2000, _DrawLog(SEED)
    values = hub._block_hubs(np.tile(row, (reps, 1)), n, draws)
    hs = np.arange(values.max() + 1)
    exact = np.prod(stats.binom.cdf(hs[:, None], n, row), axis=1)
    empirical = np.searchsorted(np.sort(values), hs, side="right") / reps
    assert np.max(np.abs(empirical - exact)) < 1.628 / math.sqrt(reps)

    drawn = sum(shape[0] for name, shape in draws.calls if name == "binomial" and len(shape) == 2)
    screened = sum(shape[0] for name, shape in draws.calls if name == "random")
    if route == "block":
        assert draws.calls == [("binomial", (reps, len(row)))] and not inverted
    elif route == "replica":
        assert drawn == reps and sum(inverted) == 0
    elif route == "all screened":
        assert screened == reps and sum(inverted) == 0
    else:
        assert 0 < screened < reps and sum(inverted) > 0


@pytest.mark.parametrize("n,theta,top", [(5000, 0.0, 57), (5000, 1e-4, 57), (5000, 16 / 5000, 57),
                                         (5000, 16 / 5000, 20), (20, 0.5, 20), (20, 0.1, 20),
                                         (1, 0.5, 1)])
def test_binomial_inverse_is_the_least_k_with_u_at_most_F(n, theta, top):
    # k = top stands for every u past F(top - 1)
    u = np.r_[np.linspace(0.0, 1.0, 4001)[1:-1], 1.0 - np.logspace(-3, -11, 9)]
    k = hub._binomial_inverse(u, np.full(len(u), theta), n, top)
    cdf = stats.binom.cdf(np.arange(top + 1), n, theta)
    clear = np.min(np.abs(u[:, None] - cdf[None, :]), axis=1) > 1e-12
    below = np.r_[0.0, cdf][k]            # F(k - 1)
    assert np.all((below < u)[clear])
    assert np.all(((u <= cdf[k]) | (k == top))[clear])


def test_atom_estimate_handmade():
    p, se = hub_atom_estimate(np.array([99, 100, 98, 50]), n=100)
    assert p == 0.25
    assert se == pytest.approx(math.sqrt(0.25 * 0.75 / 4.0))
    with pytest.raises(ParameterError):
        hub_atom_estimate(np.array([1]), n=10, threshold=1.5)


# -- report plumbing --------------------------------------------------------


def test_report_json_and_csv(tmp_path):
    cfg = EnsembleConfig(n=500, mixing=PowerLawMixing(alpha=1.0, beta=3.0),
                         master_seed=SEED, replicas=200)
    report = mc_hub(cfg, grid_points=50)
    data = report.to_json()
    assert data["L"] is None
    assert len(data["empirical_cdf"]) == 50
    assert data["limit_cdf_params"] == {"c_eta": 1.0, "eta": 2.0}

    path = tmp_path / "hub.csv"
    write_hub_cdf(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,F_emp,F_limit"
    assert len(lines) == 51
    x, f_emp, f_lim = (float(v) for v in lines[25].split(","))
    assert f_lim == pytest.approx(math.exp(-x ** -2.0), rel=1e-6)
    ex, ef = report.empirical_cdf[24]
    assert (x, f_emp) == (pytest.approx(ex), pytest.approx(ef))
