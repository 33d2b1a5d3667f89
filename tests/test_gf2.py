"""Kernel census, exact solution-count mean, growth rate, dilution threshold."""

import itertools
import json
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exchgraph import ensemble, gf2, seeds
from exchgraph._numerics import logsumexp
from exchgraph.ensemble import (BitMatrix, EnsembleConfig, ExplicitRows,
                                SquareRows, draw_adjacency, replica_blocks,
                                sample_graph)
from exchgraph.errors import ConfigError, NoThresholdError, ParameterError, QuadratureError
from exchgraph.gf2 import (DegenerateTermWarning, Gf2Report, RateReport,
                           _transpose_words, expected_solutions, gamma_critical,
                           log_expected_solutions, mc_kernel_mean, rank_gf2,
                           rate_sup, theta_rate, threshold_bisection,
                           write_theta_grid)
from exchgraph.mixing import DiracMixing, HierarchicalMixing, PowerLawMixing, log_row_prob
from exchgraph.seeds import (DiracSeed, ExponentialSeed, GammaSeed, HierarchicalSeed,
                             ParetoTailSeed, PowerLawSeed, _upper_gamma)

SEED = 20260821


# -- rank and census --------------------------------------------------------


def test_identity_matrix_census():
    rep = rank_gf2(BitMatrix.from_dense(np.eye(3, dtype=np.uint8)))
    assert rep.rank == 3
    assert rep.nullity_of_transpose == 0
    assert rep.n_solutions == 1
    assert rep.s_hypercycles == 0
    assert rep.log2_s_hypercycles == -math.inf


def _transpose_words_dense(matrix):
    """The dense route: unpack the matrix, then pack each column."""
    dense = matrix.to_dense()
    return [int.from_bytes(np.packbits(dense[:, j], bitorder="little").tobytes(), "little")
            for j in range(matrix.n)]


@st.composite
def word_edge_matrices(draw):
    """Boolean m x n arrays with m, n = 0, 1 or 63 (mod 64), some empty or full."""
    m, n = (64 * draw(st.integers(0, 2)) + draw(st.sampled_from([0, 1, 63]))
            for _ in range(2))
    fill = draw(st.sampled_from(["random", "empty", "full"]))
    if fill != "random":
        return np.full((m, n), fill == "full")
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return np.random.default_rng(seed).random((m, n)) < draw(st.floats(0.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(word_edge_matrices(), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_transpose_words_match_dense_route(dense, replicas, seed):
    """Also on a Monte Carlo block, which packs its replicas side by side as
    one m x (B n) matrix: each run of n column words is one replica's own."""
    m, n = dense.shape
    rng = np.random.default_rng(seed)
    bits = np.stack([dense, *(rng.random((m, n)) < 0.5 for _ in range(replicas - 1))])
    matrix = BitMatrix.from_dense(bits.transpose(1, 0, 2).reshape(m, replicas * n))
    words = _transpose_words(matrix)
    assert words == _transpose_words_dense(matrix)
    assert words == [w for b in bits for w in _transpose_words_dense(BitMatrix.from_dense(b))]


def test_zero_matrix_census():
    rep = rank_gf2(BitMatrix.from_dense(np.zeros((2, 3), dtype=np.uint8)))
    assert rep.rank == 0
    assert rep.nullity_of_transpose == 2
    assert rep.n_solutions == 4
    assert rep.s_hypercycles == 7


def test_all_ones_matrix_has_rank_one():
    for m, n in ((2, 5), (4, 3), (6, 6)):
        rep = rank_gf2(BitMatrix.from_dense(np.ones((m, n), dtype=np.uint8)))
        assert rep.rank == 1
        assert rep.n_solutions == 2 ** (m - 1)
        assert rep.s_hypercycles == 2 ** (n - 1) - 1


def _naive_rank(dense):
    # independent dense eliminator over the transpose, row swaps and all
    a = dense.astype(np.uint8).T.copy()
    rank = 0
    rows_, cols_ = a.shape
    for col in range(cols_):
        pivot = None
        for r in range(rank, rows_):
            if a[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        mask = a[:, col].astype(bool).copy()
        mask[rank] = False
        a[mask] ^= a[rank]
        rank += 1
    return rank


def test_rank_matches_naive_eliminator():
    rng = np.random.default_rng(7)
    for _ in range(120):
        dense = (rng.random((64, 64)) < rng.uniform(0.05, 0.95)).astype(np.uint8)
        assert rank_gf2(BitMatrix.from_dense(dense)).rank == _naive_rank(dense)


def test_rank_matches_naive_eliminator_rectangular():
    rng = np.random.default_rng(11)
    for m, n in ((17, 33), (33, 17), (1, 1), (5, 1), (1, 5), (7, 7)):
        for _ in range(40):
            dense = (rng.random((m, n)) < 0.5).astype(np.uint8)
            assert rank_gf2(BitMatrix.from_dense(dense)).rank == _naive_rank(dense)


def test_cycle_count_consistent_with_solution_count_on_samples():
    cfg = EnsembleConfig(n=12, mixing=PowerLawMixing(alpha=1.0, beta=2.5),
                         row_rule=ExplicitRows(m=5), master_seed=SEED,
                         replicas=6)
    for k in range(cfg.replicas):
        rep = rank_gf2(sample_graph(cfg, k).matrix)
        assert rep.s_hypercycles == 2 ** (12 - 5) * rep.n_solutions - 1
        assert rep.s_hypercycles == 2 ** (12 - rep.rank) - 1


def test_census_big_exponents_switch_to_log_scale():
    rep = rank_gf2(BitMatrix.from_dense(np.zeros((600, 600), dtype=np.uint8)))
    assert rep.n_solutions is None
    assert rep.s_hypercycles is None
    assert rep.log2_n_solutions == 600.0
    assert rep.log2_s_hypercycles == 600.0


def test_census_json_integer_boundary():
    """Counts of 2**63 and above serialize as log2 payloads, below as ints."""
    at_boundary = rank_gf2(BitMatrix.from_dense(np.zeros((63, 10), np.uint8)))
    payload = at_boundary.to_json()
    assert payload["N_solutions"] == {"log2": 63.0}
    assert payload["S_hypercycles"] == 1023
    below = rank_gf2(BitMatrix.from_dense(np.zeros((62, 10), np.uint8)))
    assert below.to_json()["N_solutions"] == 2 ** 62


def test_census_json_round_trips():
    rep = rank_gf2(BitMatrix.from_dense(np.eye(4, dtype=np.uint8)))
    payload = json.loads(json.dumps(rep.to_json(), sort_keys=True))
    assert payload["rank"] == 4
    assert payload["N_solutions"] == 1


def test_report_invariants_are_enforced():
    with pytest.raises(ParameterError):
        Gf2Report(rows=2, cols=2, rank=3)
    with pytest.raises(ParameterError):
        Gf2Report(rows=3, cols=3, rank=-1)
    # the derived fields follow the rank: nullity m - rank, N = 2^nullity
    rep = Gf2Report(rows=3, cols=3, rank=1)
    assert (rep.nullity_of_transpose, rep.n_solutions, rep.s_hypercycles) == (2, 4, 3)
    assert (rep.log2_n_solutions, rep.log2_s_hypercycles) == (2.0, math.log2(3))


# -- exact mean of the solution count ---------------------------------------


def _brute_mean(spec, n, m):
    """Sum N(A) P(A) over every binary m x n matrix A."""
    probs = [math.exp(log_row_prob(spec, n, r)) for r in range(n + 1)]
    total = 0.0
    for rows in itertools.product(range(2 ** n), repeat=m):
        weight = 1.0
        for r in rows:
            weight *= probs[bin(r).count("1")]
        dense = np.array([[(r >> j) & 1 for j in range(n)] for r in rows],
                         dtype=np.uint8)
        total += weight * rank_gf2(BitMatrix.from_dense(dense)).n_solutions
    return total


@pytest.mark.parametrize("spec", [
    DiracMixing(lam=0.6),
    DiracMixing(lam=1.0),
    PowerLawMixing(alpha=1.0, beta=3.0),
    PowerLawMixing(alpha=1.0, beta=1.5),
], ids=["dirac-0.6", "dirac-1.0", "power-3.0", "power-1.5"])
@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_expected_solutions_matches_exhaustive_enumeration(spec, n, m):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateTermWarning)
        got = expected_solutions(EnsembleConfig(n, spec, ExplicitRows(m)))
    ref = _brute_mean(spec, n, m)
    assert got == pytest.approx(ref, rel=1e-8)


def test_expected_solutions_single_entry_closed_form():
    # n = m = 1 reduces to 2 - theta
    assert expected_solutions(EnsembleConfig(1, DiracMixing(lam=0.3))) == pytest.approx(1.7)


def test_expected_solutions_balanced_bias_keeps_constant_term():
    """theta = 1/2 kills every xi(j) with j >= 1; the j = 0 term survives
    and the mean is (2**m + 2**n - 1) / 2**n, not the crippled sum."""
    with pytest.warns(DegenerateTermWarning, match="xi vanishes"):
        value = expected_solutions(EnsembleConfig(2, DiracMixing(lam=1.0)))
    assert value == pytest.approx(1.75, rel=1e-12)


def test_balanced_bias_mean_keeps_its_digits_at_large_n():
    """At theta = 1/2 every xi(j >= 1) vanishes and E N = 2 - 2**-n exactly; three
    log-gammas per binomial put log E N 7.1e-11 off at n = m = 1e5."""
    n = 10**5
    with pytest.warns(DegenerateTermWarning, match="xi vanishes"):
        value = log_expected_solutions(EnsembleConfig(n, DiracMixing(lam=n / 2)))
    assert abs(value - math.log(2.0 - 2.0 ** -n)) <= 3e-11


def test_expected_solutions_large_exponent_stays_in_log_scale():
    cfg = EnsembleConfig(4000, DiracMixing(lam=0.5))
    log_value = log_expected_solutions(cfg)
    assert math.isfinite(log_value)
    assert expected_solutions(cfg) == math.inf


def test_shared_bias_mean_stays_finite_at_large_n():
    """With one theta for every row, E N at n = m = 3000 is carried by the draws
    within 1/(n m) of theta = 1, where each even-order term of the sum is at least
    (2 - 2/m)**m.  So log E N is at least (m - 1) log 2 + m log(1 - 1/m) plus the
    log-probability of those draws, and at most m log 2 (N <= 2**m): far above
    the iid mean, and finite, since the average runs in log space."""
    n = m = 3000
    cfg = EnsembleConfig(n, PowerLawMixing(alpha=1.0, beta=1.5),
                         variant="completely_exchangeable")
    value = log_expected_solutions(cfg)
    # P(theta >= 1 - delta) for the density theta**-1.5 on (1/n, 1]
    delta = 1.0 / (n * m)
    p_full = ((1.0 - delta) ** -0.5 - 1.0) / (math.sqrt(n) - 1.0)
    floor = (m - 1) * math.log(2.0) + m * math.log1p(-1.0 / m) + math.log(p_full)
    assert floor <= value <= m * math.log(2.0)
    assert math.isfinite(value)


def test_expected_solutions_rejects_bad_dimensions():
    # the dimensions come from the ensemble config, which takes positive integers only
    spec = DiracMixing(lam=0.5)
    for n, m in ((0, 3), (3, 0), (2.0, 3), (3, -1)):
        with pytest.raises(ConfigError):
            log_expected_solutions(EnsembleConfig(n, spec, ExplicitRows(m)))


# -- seed Laplace transforms ------------------------------------------------


@pytest.mark.parametrize("a, z", [
    *itertools.product([-0.5, -3.5, -7.3], [0.1, 2.0, 30.0, 200.0, 600.0]),
    # just below 0 or a negative integer, where the recurrence divides by a
    # number near 0
    (-1e-6, 1.9), (-1.000001, 1.9), (-1e-9, 0.5)])
def test_upper_gamma_matches_mpmath(a, z):
    # large z, where a downward recurrence from (0, 1] would cancel
    with mpmath.workdps(30):
        exact = float(mpmath.gammainc(a, z))
    assert _upper_gamma(a, z) == pytest.approx(exact, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("a", [-8.0, -7.3, -2.000001, -2.0, -1.5, -0.995, -0.5, 0.0, 1e-3,
                               0.01, 0.5, 0.99, 1.0, 1.5, 2.3])
def test_upper_gamma_matches_mpmath_on_a_grid(a):
    # z from 1e-12 to 50, and on either side of z = 1, where the series meets
    # the continued fraction; near a negative integer the series has a term
    # divided by a + k near 0, whose numerator 1 - z**(a+k) is as small; above
    # a = 1 the recurrence in a steps up from (0, 1]
    zs = [*np.geomspace(1e-12, 50.0, 25).tolist(), 0.999, 1.0, 1.001, 2.0]
    with mpmath.workdps(40):
        want = [float(mpmath.gammainc(a, z)) for z in zs]
    np.testing.assert_allclose([_upper_gamma(a, z) for z in zs], want, rtol=1e-12)


def test_upper_gamma_fails_loudly_past_its_cap(monkeypatch):
    _upper_gamma.cache_clear()
    _upper_gamma(0.25, 1.0)     # cached before the cap falls: each z < 1 reads it
    monkeypatch.setattr(seeds, "_TERMS", 3)
    with pytest.raises(QuadratureError, match="fraction did not converge"):
        _upper_gamma(0.25, 1.5)
    with pytest.raises(QuadratureError, match="series did not converge"):
        _upper_gamma(0.25, 0.5)


def test_logsumexp():
    assert logsumexp([-math.inf, -math.inf]) == -math.inf
    assert logsumexp([-3.25]) == -3.25
    for terms in (np.linspace(-1000.0, 0.0, 7), np.linspace(0.0, 1000.0, 7)):
        with mpmath.workdps(40):
            want = float(mpmath.log(mpmath.fsum(mpmath.exp(t) for t in terms.tolist())))
        assert logsumexp(terms) == pytest.approx(want, rel=1e-15, abs=0.0)


def test_power_law_t_laplace_matches_mpmath_just_above_beta_two():
    # beta - 1 times s^(beta - 2) Gamma(2 - beta, s) at alpha = 1
    beta, s = mpmath.mpf(2.000001), mpmath.mpf(1.9)
    with mpmath.workdps(50):
        exact = float((beta - 1) * s ** (beta - 2) * mpmath.gammainc(2 - beta, s))
    value = PowerLawSeed(alpha=1.0, beta=2.000001).t_laplace(1.9)
    assert value == pytest.approx(exact, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("s", [60.0, 200.0, 500.0])
def test_power_law_laplace_matches_mpmath_at_large_argument(s):
    # (beta - 1) s^(beta - 1) Gamma(1 - beta, s) at alpha = 1
    with mpmath.workdps(30):
        exact = float(3.5 * mpmath.mpf(s) ** 3.5 * mpmath.gammainc(-3.5, s))
    value = PowerLawSeed(alpha=1.0, beta=4.5).laplace(s)
    assert value == pytest.approx(exact, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("eta", [0.5, 1.5, 2.5])
def test_pareto_transforms_match_mpmath_quadrature(eta):
    # e^z times incomplete gammas at z = alpha s, against the transforms of the density
    seed = ParetoTailSeed(alpha=1.0, eta=eta)
    with mpmath.workdps(30):
        e = mpmath.mpf(eta)
        for s in np.geomspace(2e-6, 2.0, 6):
            sm = mpmath.mpf(s)

            def density(t):
                return e * (1 + t) ** (-e - 1) * mpmath.exp(-sm * t)

            cuts = [0, 1, 1 / sm, mpmath.inf]
            laplace = float(mpmath.quad(density, cuts))
            t_laplace = float(mpmath.quad(lambda t: t * density(t), cuts))
            assert seed.laplace(s) == pytest.approx(laplace, rel=1e-12, abs=0.0)
            assert seed.t_laplace(s) == pytest.approx(t_laplace, rel=1e-12, abs=0.0)


def test_pareto_transforms_stay_finite_where_e_to_the_z_overflows():
    seed = ParetoTailSeed(alpha=1.0, eta=0.5)
    # both fall like eta / z and eta / z**2 times 1 / alpha
    assert seed.laplace(2000.0) == pytest.approx(0.5 / 2000.0, rel=2e-3)
    assert seed.t_laplace(2000.0) == pytest.approx(0.5 / 2000.0 ** 2, rel=4e-3)


# -- pointwise rate ---------------------------------------------------------


def test_theta_rate_at_origin_is_the_baseline():
    seed = GammaSeed(r=2.0, gamma=1.5)
    for gamma in (0.3, 0.7, 1.0):
        expect = (1.0 / gamma - 1.0) * math.log(2.0)
        assert theta_rate(seed, gamma, 0.0) == pytest.approx(expect, abs=1e-12)


def test_theta_rate_point_mass_worked_value():
    # log1p(e^-1)/0.5 at x = 1/2, where the entropy part cancels log 2
    value = theta_rate(DiracSeed(t0=1.0), 0.5, 0.5)
    assert value == pytest.approx(2.0 * math.log1p(math.exp(-1.0)), rel=1e-14)
    assert value == pytest.approx(0.6265233750364457, abs=1e-12)


def test_theta_rate_domain_checks():
    seed = DiracSeed(t0=1.0)
    for gamma, x in ((0.0, 0.5), (1.2, 0.5), (0.5, -0.1), (0.5, 1.5)):
        with pytest.raises(ParameterError):
            theta_rate(seed, gamma, x)


# -- sup over the unit interval ---------------------------------------------


def test_rate_sup_finite_mean_seed_always_exceeds():
    seed = GammaSeed(r=1.0, gamma=1.0)
    for gamma in np.linspace(0.1, 1.0, 10):
        rep = rate_sup(seed, float(gamma))
        assert rep.exceeds_baseline
        assert 0.0 < rep.argmax_x <= 1.0


def test_rate_sup_heavy_seed_sits_at_baseline_when_diluted():
    rep = rate_sup(PowerLawSeed(alpha=1.0, beta=1.5), 0.2)
    assert not rep.exceeds_baseline
    assert rep.i_gamma == (1.0 / 0.2 - 1.0) * math.log(2.0)
    assert rep.argmax_x == 0.0


def test_rate_sup_heavy_seed_exceeds_near_full_density():
    rep = rate_sup(PowerLawSeed(alpha=1.0, beta=1.5), 0.95)
    assert rep.exceeds_baseline
    assert rep.i_gamma > (1.0 / 0.95 - 1.0) * math.log(2.0) + 1e-4
    assert 0.3 < rep.argmax_x < 0.5


def test_rate_sup_grid_is_recorded():
    rep = rate_sup(DiracSeed(t0=2.0), 0.6)
    assert len(rep.theta_values) > 512
    xs = [x for x, _ in rep.theta_values]
    assert xs == sorted(xs)
    assert xs[0] == 0.0 and xs[-1] == 1.0
    x_mid, t_mid = rep.theta_values[len(xs) // 2]
    assert t_mid == pytest.approx(theta_rate(DiracSeed(t0=2.0), 0.6, x_mid))


def test_rate_report_rejects_sup_below_baseline():
    with pytest.raises(ParameterError):
        RateReport(gamma=0.5, theta_values=(), i_gamma=0.0, argmax_x=0.0,
                   exceeds_baseline=False)


def test_rate_report_json_shape(tmp_path):
    rep = rate_sup(GammaSeed(r=1.0, gamma=2.0), 0.5)
    out = tmp_path / "grid.csv"
    write_theta_grid(rep, out)
    lines = out.read_text(encoding="ascii").splitlines()
    assert lines[0] == "x,theta"
    assert len(lines) == len(rep.theta_values) + 1
    x0, t0 = lines[1].split(",")
    assert float(x0) == rep.theta_values[0][0]
    assert float(t0) == pytest.approx(rep.theta_values[0][1], rel=1e-9)


# -- dilution threshold -----------------------------------------------------


def test_threshold_regression_value():
    """Crossover for the unit-scale tail index 1/2 seed.

    Frozen after two independent computations agreed: predicate bisection
    and a grid infimum of (log 2 - log(1 + laplace(2x))) / entropy(x).
    """
    value = gamma_critical(PowerLawSeed(alpha=1.0, beta=1.5))
    assert value == pytest.approx(0.8575992, abs=1e-5)


def test_threshold_matches_ratio_infimum():
    seed = PowerLawSeed(alpha=1.0, beta=1.5)
    xs = np.unique(np.concatenate([np.geomspace(1e-6, 0.5, 1001),
                                   np.linspace(1e-4, 1.0 - 1e-4, 2001)]))
    num = np.array([math.log(2.0) - math.log1p(seed.laplace(2.0 * x))
                    for x in xs])
    ent = -(xs * np.log(xs) + (1.0 - xs) * np.log1p(-xs))
    inf_ratio = float((num / ent).min())
    assert gamma_critical(seed) == pytest.approx(inf_ratio, abs=1e-4)


def test_threshold_trace_is_monotone_and_deterministic():
    gc1, trace1 = threshold_bisection(PowerLawSeed(alpha=1.0, beta=1.5))
    gc2, trace2 = threshold_bisection(PowerLawSeed(alpha=1.0, beta=1.5))
    assert gc1 == gc2 and trace1 == trace2
    false_gs = [g for g, flag in trace1 if not flag]
    true_gs = [g for g, flag in trace1 if flag]
    assert false_gs and true_gs
    assert max(false_gs) < min(true_gs)
    assert trace1[0] == (1e-3, False)
    assert (1.0, True) in trace1
    assert min(true_gs) - max(false_gs) <= 1e-6


def test_threshold_refuses_finite_mean_seeds():
    for seed in (PowerLawSeed(alpha=1.0, beta=3.0),
                 GammaSeed(r=1.0, gamma=1.0),
                 ExponentialSeed(gamma=1.0)):
        with pytest.raises(NoThresholdError, match="finite mean"):
            threshold_bisection(seed)


def test_threshold_refuses_boundary_tail():
    # tail index exactly 1: infinite mean, yet the criterion degenerates
    with pytest.raises(NoThresholdError, match="heavy-tail probe"):
        threshold_bisection(PowerLawSeed(alpha=1.0, beta=2.0))


# -- Monte Carlo ------------------------------------------------------------


def test_mc_kernel_mean_is_deterministic():
    cfg = EnsembleConfig(n=6, mixing=PowerLawMixing(alpha=1.0, beta=2.5),
                         row_rule=ExplicitRows(m=4), master_seed=SEED,
                         replicas=3000)
    assert mc_kernel_mean(cfg) == mc_kernel_mean(cfg)


def test_mc_kernel_mean_matches_exact_small_system():
    spec = DiracMixing(lam=0.9)
    cfg = EnsembleConfig(n=3, mixing=spec, row_rule=ExplicitRows(m=2),
                         master_seed=SEED, replicas=20_000)
    rep = mc_kernel_mean(cfg)
    exact = expected_solutions(cfg)
    assert abs(rep.mean - exact) < 4.0 * rep.se


def test_mc_kernel_mean_matches_exact_square_system():
    spec = PowerLawMixing(alpha=1.0, beta=3.0)
    cfg = EnsembleConfig(n=24, mixing=spec, row_rule=SquareRows(),
                         master_seed=SEED, replicas=30_000)
    rep = mc_kernel_mean(cfg)
    exact = expected_solutions(cfg)
    assert abs(rep.mean - exact) < 4.0 * rep.se


@pytest.mark.parametrize("m", [1, 63, 64, 65, 130])
def test_mc_kernel_mean_is_the_mean_over_naive_ranks(m, monkeypatch):
    """The same block draws, each replica ranked by the dense eliminator,
    give the same mean and SE exactly, below, at and above 64 senders."""
    n, replicas = 70, 24
    cfg = EnsembleConfig(n=n, mixing=PowerLawMixing(alpha=0.5, beta=2.5),
                         row_rule=ExplicitRows(m=m), master_seed=SEED,
                         replicas=replicas)
    monkeypatch.setattr(ensemble, "_MC_CELLS", 7 * m * n)     # blocks of 7, 7, 7, 3
    counts = np.array([2.0 ** (m - _naive_rank(bits))
                       for _, thetas, rng in replica_blocks(cfg, gf2._TAG_GF2)
                       for bits in draw_adjacency(thetas, n, rng)])
    assert len(set(counts.tolist())) > 1
    rep = mc_kernel_mean(cfg)
    assert rep.mean == counts.mean()
    assert rep.se == math.sqrt(counts.var(ddof=1) / replicas)


# -- finite size against the limit ------------------------------------------


def test_log_mean_rate_converges_to_the_sup():
    """(1/n) log E N under point-mass bias approaches the limiting rate
    from below at O(1/n); the gap must halve between doublings."""
    seed, gamma = DiracSeed(t0=1.0), 0.8
    limit = rate_sup(seed, gamma).i_gamma
    gaps = []
    for n in (200, 400, 800):
        m = math.floor(n / gamma)
        cfg = EnsembleConfig(n, DiracMixing(lam=1.0), ExplicitRows(m))
        value = log_expected_solutions(cfg) / n
        gaps.append(limit - value)
    assert all(g > 0.0 for g in gaps)
    assert gaps[0] > gaps[1] > gaps[2]
    assert 0.4 < gaps[1] / gaps[0] < 0.6
    assert 0.4 < gaps[2] / gaps[1] < 0.6
    assert gaps[2] < 1e-3


@pytest.mark.parametrize("gamma", [0.5, 1.0])
def test_hierarchical_log_mean_rate_matches_its_seed(gamma):
    """(1/n) log E N under the hierarchical law sits within criterion 08's
    0.01 of its own seed's rate; the power-law seed of exponent beta alone
    is 0.066 away at gamma = 1, so the bound tells the two seeds apart."""
    n, spec = 200, HierarchicalMixing(A=1.0, beta=3.0, gamma_exp=4.5)
    value = log_expected_solutions(EnsembleConfig(n, spec, ExplicitRows(round(n / gamma)))) / n
    seed = HierarchicalSeed(A=1.0, beta=3.0, gamma_exp=4.5)
    assert abs(value - rate_sup(seed, gamma).i_gamma) < 0.01
    if gamma == 1.0:
        assert abs(value - rate_sup(PowerLawSeed(alpha=1.0, beta=3.0), gamma).i_gamma) > 0.05


def test_rate_of_the_point_mass_at_zero_is_exact():
    # the empty matrix has N = 2**m, so (1/n) log E N = log 2 / gamma at every n
    for gamma in (0.5, 1.0):
        assert rate_sup(DiracSeed(t0=0.0), gamma).i_gamma == pytest.approx(
            math.log(2.0) / gamma, rel=1e-15)
    empty = EnsembleConfig(40, DiracMixing(lam=0.0), ExplicitRows(80))
    assert log_expected_solutions(empty) == pytest.approx(80 * math.log(2.0), rel=1e-15)
