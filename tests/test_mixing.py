"""Mixing-law moments, tails, row polynomials, and samplers."""

import functools
import math
import warnings

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from exchgraph import _numerics, mixing
from exchgraph._numerics import REL_TOL, checked_quad, integrate, spawn_rng, special
from exchgraph.degrees import in_pmf_exact, limit_pmf, out_pmf_exact, tail_asymptote
from exchgraph.ensemble import EnsembleConfig
from exchgraph.errors import ParameterError, QuadratureError
from exchgraph.gf2 import log_expected_solutions
from exchgraph.hub import competing_moment_constant, hub_limit_cdf
from exchgraph.mixing import (_hyp2f1_half, _log_upper_beta, DiracMixing, HierarchicalMixing,
                              MixingSpec, ModulatedPowerLawMixing, PowerLawMixing,
                              SeedCdfMixing, log_row_prob, moment, sample_thetas, tail, xi)
from exchgraph.seeds import (DiracSeed, ExponentialSeed, GammaSeed, HierarchicalSeed,
                             ModulatedPowerLawSeed, PowerLawSeed, SeedDistribution)


def brute_moment(spec, n, i):
    """Quadrature oracle straight from the density definition."""
    if isinstance(spec, PowerLawMixing):
        a, b = spec.alpha / n, 1.0
        w = lambda t: t ** (-spec.beta)
    elif isinstance(spec, ModulatedPowerLawMixing):
        a, b = spec.alpha / n, 1.0
        w = lambda t: np.interp(n * t, *zip(*spec.g_table)) * t ** (-spec.beta)
    else:
        raise AssertionError
    z = checked_quad(w, a, b, rel_tol=1e-11)
    return checked_quad(lambda t: t ** i * w(t), a, b, rel_tol=1e-11) / z


class TestPowerLaw:
    def test_first_moment_closed_value(self):
        # alpha=1, beta=3, n=10: ratio of two power integrals on (0.1, 1]
        assert_allclose(moment(PowerLawMixing(alpha=1.0, beta=3.0), 10, 1),
                        2.0 * 9.0 / 99.0, rtol=1e-13)

    def test_tail_closed_value(self):
        assert_allclose(tail(PowerLawMixing(alpha=1.0, beta=3.0), 10, 0.5),
                        3.0 / 99.0, rtol=1e-13)

    @pytest.mark.parametrize("i", [1, 2, 3, 5])
    def test_moments_match_quadrature(self, i):
        spec = PowerLawMixing(alpha=0.7, beta=2.4)
        assert_allclose(moment(spec, 50, i), brute_moment(spec, 50, i), rtol=1e-9)

    def test_moment_zero_is_one(self):
        assert moment(PowerLawMixing(alpha=1.0, beta=3.0), 10, 0) == 1.0

    def test_tail_endpoints(self):
        spec = PowerLawMixing(alpha=1.0, beta=3.0)
        assert tail(spec, 10, 0.0) == 1.0
        assert tail(spec, 10, 1.0) == 0.0

    def test_sampler_matches_moments(self):
        spec = PowerLawMixing(alpha=1.0, beta=3.0)
        rng = spawn_rng(99, 0)
        draws = sample_thetas(spec, 60, rng, 200_000)
        assert draws.min() >= 1.0 / 60 and draws.max() <= 1.0
        mu = moment(spec, 60, 1)
        sd = math.sqrt(moment(spec, 60, 2) - mu * mu)
        assert abs(draws.mean() - mu) < 5 * sd / math.sqrt(len(draws))

    @pytest.mark.parametrize("beta", [1.5, 3.0])
    def test_quantile_in_place_is_the_out_of_place_formula(self, beta):
        # the sampler overwrites its uniforms; the draws stay those of the
        # out-of-place inverse CDF, bit for bit, for a scalar cutoff ...
        def formula(u, a, b, beta):     # t at level u of t**-beta on (a, b]
            bm1 = beta - 1.0
            return a * (1.0 - u * -np.expm1(bm1 * np.log(a / b))) ** (-1.0 / bm1)

        n, size = 5000, 200_000
        draws = sample_thetas(PowerLawMixing(alpha=1.0, beta=beta), n, spawn_rng(7, 0), size)
        ends = np.full(size, 1.0), np.full(size, float(n))
        assert np.array_equal(draws, formula(spawn_rng(7, 0).random(size), *ends, beta) / n)
        # ... and for the hierarchical family's per-slice cutoffs
        spec = HierarchicalMixing(A=1.0, beta=beta + 1.0, gamma_exp=4.5)
        q = 1.0 - spec.gamma_exp
        lo_p, hi_p = spec.A ** q, (n / 2.0) ** q
        for count, rows in [(size, 1), (400, 500)]:
            rng = spawn_rng(7, 1)
            cuts = (lo_p + rng.random(count) * (hi_p - lo_p)) ** (1.0 / q)
            expected = formula(rng.random((count, rows)), cuts[:, None] / n, 1.0, spec.beta)
            drawn = (sample_thetas(spec, n, spawn_rng(7, 1), size)[:, None] if rows == 1
                     else spec.sample_slices(n, spawn_rng(7, 1), count, rows))
            assert np.array_equal(drawn, expected)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            PowerLawMixing(alpha=1.0, beta=1.0)
        with pytest.raises(ParameterError):
            PowerLawMixing(alpha=0.0, beta=3.0)
        with pytest.raises(ParameterError):
            moment(PowerLawMixing(alpha=30.0, beta=3.0), 10, 1)  # needs n > alpha


class TestDirac:
    def test_moments_and_tail(self):
        spec = DiracMixing(lam=2.0)
        assert moment(spec, 10, 3) == pytest.approx(0.2 ** 3, rel=1e-15)
        assert tail(spec, 10, 0.1) == 1.0
        assert tail(spec, 10, 0.2) == 0.0
        assert tail(spec, 10, 0.3) == 0.0

    def test_row_polynomial_is_binomial_term(self):
        spec = DiracMixing(lam=2.0)
        p = 0.2
        assert_allclose(math.exp(log_row_prob(spec, 10, 3)), p ** 3 * (1 - p) ** 7, rtol=1e-13)

    def test_zero_rate_allowed(self):
        spec = DiracMixing(lam=0.0)
        assert moment(spec, 10, 1) == 0.0
        rng = spawn_rng(1, 0)
        assert np.all(sample_thetas(spec, 10, rng, 100) == 0.0)

    def test_rate_cannot_exceed_n(self):
        with pytest.raises(ParameterError):
            moment(DiracMixing(lam=11.0), 10, 1)


class TestSymmetryTransform:
    """xi_n(i) = E (1 - 2 theta)**i, split at theta = 1/2 at every order."""

    def test_small_order_identity(self):
        spec = PowerLawMixing(alpha=1.0, beta=3.0)
        d1, d2 = moment(spec, 10, 1), moment(spec, 10, 2)
        assert_allclose(xi(spec, 10, 2), 1.0 - 4.0 * d1 + 4.0 * d2, rtol=1e-12)

    @pytest.mark.parametrize("i", [2, 10, 11, 12, 25])
    def test_split_route_matches_quadrature(self, i):
        spec = PowerLawMixing(alpha=1.0, beta=3.0)
        n = 10
        w = lambda t: t ** (-3.0)
        z = checked_quad(w, 0.1, 1.0, rel_tol=1e-12)
        want = checked_quad(lambda t: (1 - 2 * t) ** i * w(t), 0.1, 1.0,
                            points=[0.5], rel_tol=1e-10) / z
        assert_allclose(xi(spec, n, i), want, rtol=1e-9, atol=1e-15)

    def test_dirac_closed_form(self):
        assert_allclose(xi(DiracMixing(lam=3.0), 10, 7), (1 - 0.6) ** 7, rtol=1e-13)

    def test_signed_moments_keep_their_digits_near_one_half(self):
        # the gamma seed (400, 80) centres theta at 1/2 at n = 10, where the binomial
        # expansion in ordinary moments lost 4.8e-2 of xi at order 10.  The oracle is
        # that expansion at 50 digits over the seed's moments cut at n, in closed form
        spec, n = SeedCdfMixing(seed=GammaSeed(r=400.0, gamma=80.0)), 10
        with mpmath.workdps(50):
            r, g = mpmath.mpf(400), mpmath.mpf(80)
            cut = [mpmath.rf(r, k) / g ** k * mpmath.gammainc(r + k, 0, g * n, regularized=True)
                   for k in range(11)]
            want = [float(mpmath.fsum(mpmath.binomial(i, k) * (-2 / mpmath.mpf(n)) ** k * cut[k]
                                      for k in range(i + 1)) / cut[0]) for i in range(11)]
        got = xi(spec, n, np.arange(11))
        assert want[1] < 1e-40 and abs(got[1] - want[1]) <= 2e-15
        assert_allclose(got[2:], want[2:], rtol=1e-12, atol=0)

    def test_order_zero(self):
        assert xi(PowerLawMixing(alpha=1.0, beta=3.0), 10, 0) == 1.0


@pytest.mark.parametrize("spec,n", [
    (PowerLawMixing(alpha=1.0, beta=3.0), 12),
    (DiracMixing(lam=1.5), 9),
    (SeedCdfMixing(seed=ExponentialSeed(gamma=1.0)), 15),
    (ModulatedPowerLawMixing(alpha=1.0, beta=2.5,
                             g_table=((0.0, 1.0), (2.0, 3.0), (5.0, 0.5), (50.0, 1.0))), 40),
])
def test_row_polynomial_normalizes(spec, n):
    total = sum(math.comb(n, r) * math.exp(log_row_prob(spec, n, r)) for r in range(n + 1))
    assert_allclose(total, 1.0, rtol=1e-8)


# closed forms against their quadrature routes: betas near, at and between
# integers, and orders near beta - 1, at 10 to 12, n/2 and n
CLOSED_FORM_BETAS = (1.0001, 1.5, 1.999, 2.0, 2.0001, 2.5, 3.0, 3.7)


def _orders_near(beta, n):
    ks = [math.floor(beta) - 2, math.floor(beta) - 1, math.floor(beta), math.ceil(beta),
          10, 11, 12, n // 2, n // 2 + 1, n - 1, n]
    return np.unique(np.clip(ks, 0, n))


@pytest.mark.parametrize("n", [40, 3000])
@pytest.mark.parametrize("beta", CLOSED_FORM_BETAS)
def test_power_law_row_polynomial_matches_quadrature(beta, n):
    spec = PowerLawMixing(alpha=1.0, beta=beta)
    rs = _orders_near(beta, n)
    by_quad = [spec._log_row_prob(n, int(r)) for r in rs]
    assert_allclose(log_row_prob(spec, n, rs), by_quad, rtol=0, atol=1e-10)


# the sizes where a window set by n let the quadrature route go wrong, and
# a spread of the row weights r <= 60 on which degree laws rest
LARGE_N = (10**4, 3 * 10**4, 10**5, 10**6)
LARGE_N_ROWS = np.array([0, 1, 2, 3, 5, 8, 13, 20, 30, 45, 60])


@pytest.mark.parametrize("n", [40, 3000, *LARGE_N[2:]])
@pytest.mark.parametrize("beta", CLOSED_FORM_BETAS)
def test_power_law_signed_moment_matches_quadrature(beta, n):
    spec = PowerLawMixing(alpha=1.0, beta=beta)
    orders = _orders_near(beta, n)
    by_quad = MixingSpec._xis(spec, n, orders)
    assert_allclose(xi(spec, n, orders), by_quad, rtol=1e-10)


def test_power_law_signed_moment_at_large_n():
    # the split quadrature fails here for every i >= 32463; the oracle is
    # mpmath's tanh-sinh rule, split where (1 - 2 theta)**i changes scale
    n, i, beta = 50_000, 50_000, mpmath.mpf(1.5)
    with mpmath.workdps(30):
        lo = mpmath.mpf(1) / n
        scales = [mpmath.mpf(2) ** k / i for k in range(-4, 12)]
        head = mpmath.quad(lambda t: t ** -beta * (1 - 2 * t) ** i,
                           [lo] + [lo + h for h in scales] + [0.5])
        tail_part = mpmath.quad(lambda t: t ** -beta * (2 * t - 1) ** i,
                                [0.5] + [1 - h for h in reversed(scales)] + [1])
        # i is even, so both halves enter with a plus sign
        want = (head + tail_part) / ((lo ** (1 - beta) - 1) / (beta - 1))
    assert_allclose(xi(PowerLawMixing(alpha=1.0, beta=1.5), n, i), float(want), rtol=1e-10)


def test_power_law_signed_moment_at_large_alpha():
    # b x reaches 2 alpha = 24, where an unbounded walk lost 4.8e-8 over 6 steps
    spec, n = PowerLawMixing(alpha=12.0, beta=6.05), 3000
    orders = np.array([500, 1500, 2999, 3000])
    assert_allclose(xi(spec, n, orders), MixingSpec._xis(spec, n, orders), rtol=1e-10)


@pytest.mark.parametrize("n", LARGE_N)
def test_cut_power_law_seed_and_flat_modulation_are_the_power_law_at_large_n(n):
    # before the windowed quadrature, 0.9 relative off at n = 1.2e4
    pure = log_row_prob(PowerLawMixing(alpha=1.0, beta=2.5), n, LARGE_N_ROWS)
    cut = SeedCdfMixing(seed=PowerLawSeed(alpha=1.0, beta=2.5))
    flat = ModulatedPowerLawMixing(alpha=1.0, beta=2.5, g_table=((0.0, 2.0), (1.0, 2.0)))
    assert_allclose(log_row_prob(cut, n, LARGE_N_ROWS), pure, rtol=0, atol=1e-11)
    assert_allclose(log_row_prob(flat, n, LARGE_N_ROWS), pure, rtol=0, atol=1e-11)


def _log_exponential_row(n, r):
    """log P(row r) of the unit-rate exponential seed cut at n, by QUADPACK on
    [0, 400] in panels of 5, a window that holds the mass of every r <= 60:
    past t = 400 the integrand is below e**-300 of its peak near r / 2."""
    def log_f(t):
        return (r * math.log(t / n) if r else 0.0) + (n - r) * math.log1p(-t / n) - t

    top = log_f(r / 2.0 + 1e-9)
    value = integrate.quad(lambda t: math.exp(log_f(t) - top), 0.0, 400.0, epsabs=0.0,
                           epsrel=1e-13, points=np.arange(5.0, 400.0, 5.0), limit=500)[0]
    return top + math.log(value) - math.log(-math.expm1(-n))


@pytest.mark.parametrize("n", LARGE_N)
def test_exponential_seed_row_law_at_large_n(n):
    # before the windowed quadrature, P(out = 0) read 0.001 from n = 9000
    spec = SeedCdfMixing(seed=ExponentialSeed(gamma=1.0))
    assert_allclose(log_row_prob(spec, n, LARGE_N_ROWS),
                    [_log_exponential_row(n, int(r)) for r in LARGE_N_ROWS], rtol=0, atol=1e-11)
    # the geometric limit: n max_k |p_n(k) - p(k)| reads 0.125 at every n here
    pmf = out_pmf_exact(spec, n, LARGE_N_ROWS)
    assert np.abs(pmf - limit_pmf(ExponentialSeed(gamma=1.0), LARGE_N_ROWS)).max() <= 0.25 / n
    rng = spawn_rng(2, n)
    degrees = rng.binomial(n, sample_thetas(spec, n, rng, 100_000))
    head = out_pmf_exact(spec, n, np.arange(6))
    freq = np.bincount(degrees, minlength=6)[:6] / degrees.size
    assert np.all(np.abs(freq - head) < 5.0 * np.sqrt(head * (1.0 - head) / degrees.size))


def test_completely_exchangeable_average_at_large_n():
    # with m = n the in-degree, Binomial(n, theta) over the shared theta, is the
    # out-degree law; the average with fixed break points overflowed here
    n = 10**5
    spec = SeedCdfMixing(seed=ExponentialSeed(gamma=1.0))
    config = EnsembleConfig(n=n, mixing=spec, variant="completely_exchangeable")
    log_binom = [math.lgamma(n + 1) - math.lgamma(r + 1) - math.lgamma(n - r + 1)
                 for r in LARGE_N_ROWS]
    want = np.exp([c + _log_exponential_row(n, int(r)) for c, r in zip(log_binom, LARGE_N_ROWS)])
    assert_allclose(in_pmf_exact(config, LARGE_N_ROWS), want, rtol=1e-9)


@pytest.mark.parametrize("n", LARGE_N)
def test_hierarchical_row_law_at_large_n(n):
    # before the windowed quadrature, both laws read -3.448 for
    # log P(row 0) at n = 3e4, against -1.896
    A, beta, gamma = 1.0, 3.0, 4.5
    seed = HierarchicalSeed(A=A, beta=beta, gamma_exp=gamma)
    cut = log_row_prob(SeedCdfMixing(seed=seed), n, LARGE_N_ROWS)
    # the seed is c_b P_b - c_g P_g, so its cut at n combines the closed
    # forms of the two power laws, each weighted by its own mass below n
    parts = seed.combine(lambda part: float(part.cdf(float(n))) * np.exp(
        log_row_prob(PowerLawMixing(alpha=part.alpha, beta=part.beta), n, LARGE_N_ROWS)))
    assert_allclose(cut, np.log(parts / float(seed.cdf(float(n)))), rtol=0, atol=1e-11)
    # the hierarchical weight is the seed's times 1 / (1 - (a/n)**(beta-1)) over
    # cutoffs a < t, cut at n/2, so row r, whose mass lies at t ~ r + 1, moves
    # by O(((r + 1) / n)**(beta - 1)): 0.77 of that bound at each n here
    got = log_row_prob(HierarchicalMixing(A=A, beta=beta, gamma_exp=gamma), n, LARGE_N_ROWS)
    assert np.all(np.abs(got - cut) <= ((LARGE_N_ROWS + 1.0) / n) ** (beta - 1.0))


def _log_upper_beta_by_mpmath(a, b, x):
    # Euler's form (1-x)**b x**a / b 2F1(a + b, 1; b + 1; 1-x) at 40 digits; 30-digit
    # tanh-sinh quadrature read 4.3e-7 off at a = -2.009, b = 11, x = 0.9999
    with mpmath.workdps(40):
        a, b, x = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)
        return float(mpmath.log((1 - x) ** b * x ** a / b * mpmath.hyp2f1(a + b, 1, b + 1, 1 - x)))


def _log_upper_beta_at(a, b, x):
    return float(_log_upper_beta(np.array([a]), np.array([float(b)]), x)[0])


def _upper_beta_at(a, b, x):
    return math.exp(_log_upper_beta_at(a, b, x))


# b from 1 to 5e4, with b <= -a (a + b <= 0, where the form steps down in a) for
# every a below -1; b x from 0.01 to 40, and x up to 0.9999
UPPER_BETA_CASES = sorted({(b, bx / b) for b in (1, 2, 5, 12, 19, 3001, 50_001)
                           for bx in (0.01, 0.9, 1.0, 1.1, 16.0, 25.0, 40.0) if bx < b}
                          | {(b, x) for b in (1, 2, 5, 12, 19, 3001) for x in (0.5, 0.9999)})


# integers in [-19, 1], points just above and below them, and halfway and beyond
@pytest.mark.parametrize("a", [1.0, 0.0, -1.0, -2.0, -4.0, 0.5, -0.99, -1.01, -2.5, -3.7,
                               -1.005, -2.0001, -3.009, -9.001, -19.0])
def test_upper_beta_matches_mpmath(a):
    got = np.array([_log_upper_beta_at(a, b, x) for b, x in UPPER_BETA_CASES])
    assert np.all(np.isfinite(got))
    want = np.array([_log_upper_beta_by_mpmath(a, b, x) for b, x in UPPER_BETA_CASES])
    assert np.all(np.abs(got - want) <= 1e-12 + 1e-15 * np.abs(want))


@pytest.mark.parametrize("c", [-19.5, -9.001, -0.5, 0.5, 9.001])
def test_log_rise_matches_mpmath(c):
    # at c < 0 from the smaller argument b + c: the Stirling branch read at b + c < 10
    # was 4e-5 off at c = -9.001, b = 10
    bs = [b for b in (1.0, 10.0, 20.0, 1e3, 1e6) if b + c > 0]
    with mpmath.workdps(40):
        want = [float(mpmath.loggamma(b + mpmath.mpf(c)) - mpmath.loggamma(b)) for b in bs]
    assert_allclose(mixing._log_rise(c, np.array(bs)), want, rtol=1e-13, atol=1e-13)


# a0 in [0, 1]: b from 1 to 1e6 at b x from 0.1 to 40
UPPER_BETA_BASE_CASES = [(b, bx / b) for b in (1, 2, 12, 1000, 10**6)
                         for bx in (0.1, 0.9, 2.0, 16.0, 40.0) if bx < b]


@pytest.mark.parametrize("a0", [0.0, 1e-3, 0.01, 0.5, 0.99, 1.0])
def test_upper_beta_base_matches_mpmath(a0):
    # the oracle is mpmath's hypergeometric incomplete beta B_(1-x)(b, a0), or
    # (1-x)**b Lerch's phi(1-x, 1, b) at a0 = 0, at 40 digits; quadrature is no
    # oracle where U is tiny.  At a0 = 1 it is checked against U = (1-x)**b / b
    with mpmath.workdps(40):
        want = []
        for b, x in UPPER_BETA_BASE_CASES:
            z = 1 - mpmath.mpf(x)
            want.append(z ** b * mpmath.lerchphi(z, 1, b) if a0 == 0
                        else mpmath.betainc(b, a0, 0, z))
            if a0 == 1:
                assert abs(want[-1] * b / z ** b - 1) < 1e-35
    got = [_upper_beta_at(a0, b, x) for b, x in UPPER_BETA_BASE_CASES]
    assert_allclose(got, [float(w) for w in want], rtol=1e-12)


@pytest.mark.parametrize("beta", [1.0001, 1.5, 2.0, 3.7, 6.05, 10.0])
def test_signed_moment_tail_series_matches_mpmath(beta):
    # 2F1(beta, 1; i + 2; 1/2) at every order i up to n = 3000
    c = np.arange(3001) + 2.0
    with mpmath.workdps(40):
        want = [float(mpmath.hyp2f1(beta, 1, ci, 0.5)) for ci in c.tolist()]
    assert_allclose(_hyp2f1_half(beta, c), want, rtol=1e-14)


def test_series_fail_loudly_past_their_cap(monkeypatch):
    monkeypatch.setattr(mixing, "_TERMS", 3)
    with pytest.raises(QuadratureError, match="did not converge"):
        xi(PowerLawMixing(alpha=1.0, beta=1.5), 100, 5)


def test_order_arrays_keep_their_shape():
    spec = PowerLawMixing(alpha=1.0, beta=2.5)
    orders = np.array([[0, 3], [11, 40]])
    assert_allclose(xi(spec, 40, orders),
                    [[xi(spec, 40, int(i)) for i in row] for row in orders], rtol=1e-15)
    assert log_row_prob(spec, 40, orders).shape == (2, 2)
    with pytest.raises(ParameterError):
        log_row_prob(spec, 40, np.array([3, 41]))
    with pytest.raises(ParameterError):
        xi(spec, 40, 2.5)


def _recording_quad(monkeypatch):
    """Patch ``integrate.quad`` to record the subdivision limit of each call."""
    limits = []

    def quad(*args, **kwargs):
        limits.append(kwargs["limit"])
        return scipy_quad(*args, **kwargs)

    scipy_quad = integrate.quad
    monkeypatch.setattr(integrate, "quad", quad)
    return limits


@pytest.mark.parametrize("lo,limits", [(5e-4, [200]), (2e-4, [200, 1000])],
                         ids=["first-call", "retry"])
def test_checked_quad_accepts_without_a_warning(monkeypatch, lo, limits):
    """sin(1/x) on [lo, 1] exhausts QUADPACK's subdivisions yet meets the
    tolerance, on the first call or the retry; no IntegrationWarning escapes."""
    calls = _recording_quad(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = checked_quad(lambda x: math.sin(1.0 / x), lo, 1.0)
    assert calls == limits
    assert value == pytest.approx(0.504067, abs=1e-6)


def test_checked_quad_fails_loudly_after_one_retry(monkeypatch):
    """sin(1/x) oscillates without end at 0, so neither subdivision limit meets
    the tolerance; the error names the estimate it reached."""
    limits = _recording_quad(monkeypatch)
    with pytest.raises(QuadratureError, match="above tolerance") as exc:
        checked_quad(lambda x: math.sin(1.0 / x) if x else 0.0, 0.0, 1.0)
    assert limits == [200, 1000]
    assert 1e-6 < exc.value.achieved < 1e-4


def test_deferred_scipy_handles_resolve_and_cache_names():
    import scipy.integrate
    import scipy.special

    assert special.gammaln is scipy.special.gammaln
    assert integrate.quad is scipy.integrate.quad
    assert vars(special)["gammaln"] is scipy.special.gammaln   # later lookups skip the hook
    with pytest.raises(AttributeError):
        special.no_such_function


class TestModulated:
    SPEC = ModulatedPowerLawMixing(alpha=1.0, beta=2.5,
                                   g_table=((0.0, 1.0), (2.0, 3.0), (5.0, 0.5), (50.0, 1.0)))

    def test_modulation_from_table(self):
        # g linear between knots and held constant past the last: the seed's density
        # over t**-beta, scaled to g(2) = 3; the mixing keeps the seed's float pairs
        seed, ts = self.SPEC.limit_seed(), np.array([2.0, 3.5, 5.0, 27.5, 50.0, 1e6])
        g = seed.density(ts) * ts ** 2.5
        assert_allclose(3.0 * g / g[0], [3.0, 1.75, 0.5, 0.75, 1.0, 1.0], rtol=1e-14)
        spec = ModulatedPowerLawMixing(1, 2.5, [[0, 1], [3, 2]])
        assert spec.g_table == ((0.0, 1.0), (3.0, 2.0))

    @pytest.mark.parametrize("i", [0, 1, 2, 4])
    def test_moments_match_quadrature(self, i):
        assert_allclose(moment(self.SPEC, 40, i), brute_moment(self.SPEC, 40, i), rtol=1e-9)

    def test_tail_matches_quadrature(self):
        n, t0 = 40, 0.21
        w = lambda t: np.interp(n * t, *zip(*self.SPEC.g_table)) * t ** (-2.5)
        z = checked_quad(w, 1.0 / n, 1.0, rel_tol=1e-11)
        want = checked_quad(w, t0, 1.0, rel_tol=1e-11) / z
        assert_allclose(tail(self.SPEC, n, t0), want, rtol=1e-9)

    @pytest.mark.parametrize("n", [2000, 10**6])
    def test_small_tails_keep_their_digits(self, n):
        # 1 - F(t n) / F(n) of the seed cut at n lost 7.5e-5 relative at n = 1e6, t = 0.999
        table = ((0.0, 1.0), (10.0, 2.0), (100.0, 0.5), (1000.0, 1.5))
        spec = ModulatedPowerLawMixing(alpha=1.0, beta=2.5, g_table=table)

        def mass(lo, hi):
            cuts = sorted({lo, hi, *[t for t, _ in table if lo < t < hi]})
            g = lambda t: mpmath.mpf(np.interp(float(t), *zip(*table)))
            return mpmath.quad(lambda t: g(t) * t ** -2.5, cuts)

        with mpmath.workdps(30):
            for t in (0.3, 0.9, 0.999):
                want = float(mass(t * n, n) / mass(1, n))
                assert_allclose(tail(spec, n, t), want, rtol=1e-12)

    def test_pieces_match_the_knot_loop(self):
        # each piece (a, b) of (alpha, inf) takes g = const + slope t from the knot
        # interval holding its midpoint; the vectorized rows must equal the loop's bits,
        # which the sampler's edge files rest on
        table = ((0.0, 1.0), (10.0, 2.0), (100.0, 0.5), (1000.0, 1.5))
        seed = ModulatedPowerLawSeed(alpha=1.0, beta=2.5, g_table=table)
        taus, vals = [t for t, _ in table], [v for _, v in table]
        cuts, rows = [1.0, 10.0, 100.0, 1000.0, math.inf], []
        for a, b in zip(cuts, cuts[1:]):
            k = np.searchsorted(taus, 0.5 * (a + b) if b < math.inf else math.inf) - 1
            if 0 <= k < len(taus) - 1:
                slope = (vals[k + 1] - vals[k]) / (taus[k + 1] - taus[k])
                rows.append((a, b, vals[k] - slope * taus[k], slope))
            else:
                rows.append((a, b, vals[min(max(k, 0), len(vals) - 1)], 0.0))
        assert seed._segs.tolist() == [list(row) for row in rows]

    def test_sampler_matches_mean(self):
        rng = spawn_rng(7, 0)
        draws = sample_thetas(self.SPEC, 40, rng, 150_000)
        mu = moment(self.SPEC, 40, 1)
        sd = math.sqrt(moment(self.SPEC, 40, 2) - mu * mu)
        assert abs(draws.mean() - mu) < 5 * sd / math.sqrt(len(draws))

    @pytest.mark.parametrize("spec,n", [
        (SPEC, 40),
        (ModulatedPowerLawMixing(alpha=1.0, beta=2.5, g_table=(
            (0.0, 1.0), (10.0, 2.0), (100.0, 0.5), (1000.0, 1.5))), 2000),
        # steep: (n / alpha)**(beta - 1) overflowed; Z overflowed, and every draw read t = 10
        (PowerLawMixing(alpha=1e-3, beta=150.0), 2000),
        (PowerLawMixing(alpha=1.0, beta=60.0), 10**6),
        (ModulatedPowerLawMixing(alpha=1e-3, beta=120.0, g_table=((0.0, 1.0), (10.0, 2.0))), 1000),
    ])
    def test_sampler_fits_tail(self, spec, n):
        # Kolmogorov-Smirnov against the closed-form CDF 1 - tail
        draws = sample_thetas(spec, n, spawn_rng(13, 0), 4000)
        cdf = np.vectorize(lambda t: 1.0 - tail(spec, n, float(t)))
        assert stats.kstest(draws, cdf).pvalue > 1e-3

    @pytest.mark.parametrize("alpha,beta,n,i", [
        pytest.param(1.0, 2.5, 10**6, 60, id="1000000-60"),
        pytest.param(1.0, 2.5, 10**4, 90, id="10000-90"),
        pytest.param(1.0, 2.5, 3000, 100, id="3000-100"),
        # (alpha / n)**(1 - beta) and Z passed the float range here
        pytest.param(1e-3, 60.0, 10**6, 30, id="steep-60-1000000-30"),
        pytest.param(1e-3, 150.0, 10**6, 30, id="steep-150-1000000-30"),
    ])
    def test_high_moments_do_not_overflow(self, alpha, beta, n, i):
        # n**i and a power sum of size n**(i - beta + 1) passed the float range here
        flat = ModulatedPowerLawMixing(alpha=alpha, beta=beta, g_table=((0.0, 1.0), (1.0, 1.0)))
        pure = moment(PowerLawMixing(alpha=alpha, beta=beta), n, i)
        with mpmath.workdps(40):
            a, b, top = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(n)
            mass = lambda p: (top ** (p + 1) - a ** (p + 1)) / (p + 1)
            want = float(mass(i - b) / mass(-b) / top ** i)
        assert_allclose(moment(flat, n, i), pure, rtol=1e-12)
        assert_allclose([moment(flat, n, i), pure], want, rtol=1e-12)

    def test_table_validation(self):
        with pytest.raises(ParameterError):
            ModulatedPowerLawMixing(alpha=1.0, beta=2.5, g_table=((0.0, 1.0),))
        with pytest.raises(ParameterError):
            ModulatedPowerLawMixing(alpha=1.0, beta=2.5, g_table=((0.0, 1.0), (0.0, 2.0)))
        with pytest.raises(ParameterError):
            ModulatedPowerLawMixing(alpha=1.0, beta=2.5, g_table=((0.0, 1.0), (1.0, -2.0)))
        # NaN fails every comparison, so each check must be one that rejects it
        with pytest.raises(ParameterError, match="strictly positive"):
            ModulatedPowerLawMixing(alpha=1.0, beta=2.5, g_table=((0.0, math.nan), (1.0, 2.0)))
        with pytest.raises(ParameterError, match="strictly increasing"):
            ModulatedPowerLawMixing(alpha=1.0, beta=2.5, g_table=((math.nan, 1.0), (1.0, 2.0)))


class TestSeedCdfSlice:
    def test_cdf_restriction_tail(self):
        # F_n(x) = F(n x) / F(n): tail at x for the unit-rate exponential seed
        seed = ExponentialSeed(gamma=1.0)
        spec = SeedCdfMixing(seed=seed)
        n, x = 15, 0.3
        want = 1.0 - (-math.expm1(-n * x)) / (-math.expm1(-float(n)))
        assert_allclose(tail(spec, n, x), want, rtol=1e-9)

    def test_small_tails_keep_their_digits(self):
        # (F(n) - F(t n)) / F(n) lost 2.2e-5 and 6.2e-10 relative here
        cut = SeedCdfMixing(seed=PowerLawSeed(alpha=1.0, beta=2.5))
        assert_allclose(tail(cut, 10**6, 0.999),
                        tail(PowerLawMixing(alpha=1.0, beta=2.5), 10**6, 0.999), rtol=1e-12)
        q = lambda x: math.exp(-x) * (1.0 + x)      # 1 - F(x) of the gamma (2, 1) seed
        assert_allclose(tail(SeedCdfMixing(seed=GammaSeed(r=2.0, gamma=1.0)), 40, 0.5),
                        (q(20.0) - q(40.0)) / (1.0 - q(40.0)), rtol=1e-13)

    def test_sampler_stays_in_slice(self):
        spec = SeedCdfMixing(seed=ExponentialSeed(gamma=2.0))
        rng = spawn_rng(3, 0)
        draws = sample_thetas(spec, 20, rng, 50_000)
        assert draws.min() > 0.0 and draws.max() <= 1.0
        assert_allclose(draws.mean(), moment(spec, 20, 1), rtol=0.02)

    @pytest.mark.parametrize("n", [40, 400])
    def test_power_law_seed_is_the_power_law(self, n):
        """F(x n) / F(n) of the power-law seed is the theta**-beta density on
        (alpha/n, 1]: the seed's quantile draws fit the pure family's CDF."""
        draws = sample_thetas(SeedCdfMixing(seed=PowerLawSeed(alpha=1.0, beta=1.5)), n,
                              spawn_rng(17, 0), 4000)
        pure = PowerLawMixing(alpha=1.0, beta=1.5)
        cdf = np.vectorize(lambda t: 1.0 - tail(pure, n, float(t)))
        assert stats.kstest(draws, cdf).pvalue > 1e-3

    def test_dirac_seed_point_mass(self):
        spec = SeedCdfMixing(seed=DiracSeed(t0=4.0))
        assert_allclose(moment(spec, 10, 1), 0.4, rtol=1e-12)
        assert tail(spec, 10, 0.3) == 1.0
        assert tail(spec, 10, 0.5) == 0.0


class TestSeedQuantile:
    SEED = HierarchicalSeed(A=1.0, beta=2.1, gamma_exp=2.2)

    def test_quantiles_past_8192_converge(self):
        # floats there are 1.8e-12 apart, so no bracket got narrower than 1e-12
        (q,) = self.SEED.inverse_cdf([0.99999])
        assert q > 8192.0
        assert_allclose(float(self.SEED.cdf(q)), 0.99999, rtol=1e-12)
        draws = sample_thetas(SeedCdfMixing(seed=self.SEED), 10**5, spawn_rng(1, 0), 10**5)
        assert draws.min() > 1e-5 and draws.max() <= 1.0

    def test_quantile_zero_is_the_support_start(self):
        assert self.SEED.inverse_cdf([0.0]).tolist() == [1.0]


def test_the_seed_integral_counts_a_point_mass_once():
    """_log_expect over (lo, hi]: a point mass t0 counts only where lo < t0 <= hi;
    its Poisson mixture is the Poisson law to the bit; the generic truncated moment
    of a knotted density meets the seed's closed form."""
    for t0 in (0.0, 3.0):
        seed, below = DiracSeed(t0=t0), math.nextafter(t0, -math.inf)
        assert seed._log_expect(lambda t: 2.0, hi=t0) == 2.0
        assert seed._log_expect(lambda t: 2.0, hi=below) == -math.inf
        assert seed._log_expect(lambda t: 2.0, lo=below) == 2.0
        assert seed._log_expect(lambda t: 2.0, lo=t0) == -math.inf
    ks = np.arange(12)
    for t0 in (0.0, 3.0, 4.9, 0.37):
        poisson = np.exp(special.xlogy(ks, t0) - t0 - special.gammaln(ks + 1.0))
        assert limit_pmf(DiracSeed(t0=t0), ks).tolist() == poisson.tolist()
    seed = ModulatedPowerLawSeed(alpha=1.0, beta=2.5, g_table=(
        (0.0, 1.0), (10.0, 2.0), (100.0, 0.5), (1000.0, 1.5)))
    for order in (0.5, 1.0, 1.5, 2.0):
        for cap in (5.0, 10.0, 10.5, 99.0, 100.0, 500.0, 1000.0, 2e3, 1e4, 1e6):
            assert_allclose(SeedDistribution.truncated_moment(seed, order, cap),
                            seed.truncated_moment(order, cap), rtol=1e-12)


class TestSeedTruncation:
    """Dirac, power law and seed cdf are each their limit seed cut at n, so the
    seed-cdf law of the other two families' seeds is that family."""

    @pytest.mark.parametrize("alpha,beta,n", [(1.0, 1.5, 400), (1.0, 3.0, 60), (2.0, 2.5, 200)])
    def test_power_law_seed_cut_at_n_is_the_power_law(self, alpha, beta, n):
        # quadrature over the seed's support (alpha, n] against the closed forms
        pure = PowerLawMixing(alpha=alpha, beta=beta)
        cut = SeedCdfMixing(seed=PowerLawSeed(alpha=alpha, beta=beta))
        rs, orders = np.arange(n + 1), np.arange(41)
        assert_allclose(log_row_prob(cut, n, rs), log_row_prob(pure, n, rs), rtol=0, atol=1e-11)
        assert_allclose([moment(cut, n, i) for i in range(1, 6)],
                        [moment(pure, n, i) for i in range(1, 6)], rtol=1e-11)
        assert_allclose(xi(cut, n, orders), xi(pure, n, orders), rtol=1e-11)

    @pytest.mark.parametrize("n", [40, 10**4, 10**6])
    def test_modulated_seed_cut_at_n_is_the_modulated_law(self, n):
        # the seed-cdf route takes its moments by quadrature, the family by segment sums
        spec = ModulatedPowerLawMixing(alpha=1.0, beta=2.5, g_table=(
            (0.0, 1.0), (10.0, 2.0), (100.0, 0.5), (1000.0, 1.5)))
        cut = SeedCdfMixing(seed=spec.limit_seed())
        rs, orders = np.array([0, 1, 2, 5, 10, 30, 40]), np.array([1, 2, 5, 10, 11, 20, 40])
        assert_allclose(log_row_prob(cut, n, rs), log_row_prob(spec, n, rs), rtol=0, atol=1e-11)
        assert_allclose([moment(cut, n, i) for i in range(1, 6)],
                        [moment(spec, n, i) for i in range(1, 6)], rtol=1e-11)
        assert_allclose(xi(cut, n, orders), xi(spec, n, orders), rtol=1e-11)

    @pytest.mark.parametrize("t0", [0.0, 3.0, 4.9, 10.0])
    def test_dirac_seed_cut_at_n_is_the_dirac_law(self, t0):
        n, ts, rs = 10, np.linspace(0.0, 1.0, 21), np.arange(11)
        pure, cut = DiracMixing(lam=t0), SeedCdfMixing(seed=DiracSeed(t0=t0))
        assert [moment(cut, n, i) for i in range(6)] == [moment(pure, n, i) for i in range(6)]
        # both take Python's pow per order; the binomial expansion gave
        # -3.3e-14 for (1 - 2 * 0.49)**10 = 1.0e-17
        assert xi(cut, n, rs).tolist() == xi(pure, n, rs).tolist()
        assert_allclose(xi(cut, n, 10), (1.0 - 2.0 * t0 / n) ** 10, rtol=1e-12)
        assert log_row_prob(cut, n, rs).tolist() == log_row_prob(pure, n, rs).tolist()
        assert [tail(cut, n, t) for t in ts] == [tail(pure, n, t) for t in ts]
        assert (sample_thetas(cut, n, spawn_rng(5, 0), 50).tolist()
                == sample_thetas(pure, n, spawn_rng(5, 0), 50).tolist() == [t0 / n] * 50)

    def test_the_point_mass_at_zero_has_no_degree(self):
        ks = np.arange(6)
        for spec in (SeedCdfMixing(seed=DiracSeed(t0=0.0)), DiracMixing(lam=0.0)):
            assert limit_pmf(spec.limit_seed(), ks).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("spec,start", [
        (PowerLawMixing(alpha=30.0, beta=3.0), "30.0"),
        (PowerLawMixing(alpha=10.0, beta=3.0), "10.0"),
        (DiracMixing(lam=11.0), "11.0"),
        (SeedCdfMixing(seed=PowerLawSeed(alpha=30.0, beta=3.0)), "30.0"),
        (SeedCdfMixing(seed=DiracSeed(t0=11.0)), "11.0"),
        (ModulatedPowerLawMixing(alpha=30.0, beta=3.0, g_table=((0.0, 1.0), (3.0, 2.0))), "30.0"),
    ], ids=["power_law-30", "power_law-10", "dirac-11", "seed_cdf-power_law-30",
            "seed_cdf-dirac-11", "modulated_power_law-30"])
    def test_a_seed_past_n_has_no_mass(self, spec, start):
        with pytest.raises(ParameterError,
                           match=rf"{spec.variant} mixing has no mass on \[0, 10\]: "
                                 rf"its seed starts at {start}$"):
            moment(spec, 10, 1)

    def test_a_point_mass_at_zero_has_no_tail(self):
        for spec in (DiracMixing(lam=0.0), SeedCdfMixing(seed=DiracSeed(t0=0.0))):
            assert tail(spec, 10, 0.0) == 0.0

    def test_a_point_mass_at_n_is_the_full_row(self):
        for spec in (DiracMixing(lam=10.0), SeedCdfMixing(seed=DiracSeed(t0=10.0))):
            assert moment(spec, 10, 1) == 1.0
            assert log_row_prob(spec, 10, 10) == 0.0


class TestHierarchical:
    SPEC = HierarchicalMixing(A=1.0, beta=3.0, gamma_exp=4.5)

    def test_steep_slices_draw_without_a_warning(self):
        # (n / a)**(beta - 1) overflowed here; each slice fits its own cut's power law
        spec, n, count = HierarchicalMixing(A=1.0, beta=60.0, gamma_exp=70.0), 10**6, 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = spec.sample_slices(n, spawn_rng(4, 0), count, 2000)
        q = 1.0 - spec.gamma_exp
        lo_p, hi_p = spec.A ** q, (n / 2.0) ** q
        cuts = (lo_p + spawn_rng(4, 0).random(count) * (hi_p - lo_p)) ** (1.0 / q)
        for cut, row in zip(cuts.tolist(), draws):
            law = PowerLawMixing(alpha=cut, beta=spec.beta)
            cdf = np.vectorize(lambda t: 1.0 - tail(law, n, float(t)))
            assert stats.kstest(row, cdf).pvalue > 1e-3

    def test_moment_matches_two_level_quadrature(self):
        n = 30
        norm = checked_quad(lambda a: a ** -4.5, 1.0, 15.0, rel_tol=1e-11)

        def outer(i):
            def inner(a):
                return moment(PowerLawMixing(alpha=a, beta=3.0), n, i) * a ** -4.5
            return checked_quad(inner, 1.0, 15.0, rel_tol=1e-10) / norm

        for i in (1, 2):
            assert_allclose(moment(self.SPEC, n, i), outer(i), rtol=1e-8)

    def test_sampler_matches_mean(self):
        rng = spawn_rng(11, 0)
        draws = sample_thetas(self.SPEC, 30, rng, 200_000)
        mu = moment(self.SPEC, 30, 1)
        sd = math.sqrt(moment(self.SPEC, 30, 2) - mu * mu)
        assert abs(draws.mean() - mu) < 5 * sd / math.sqrt(len(draws))

    def test_exponent_ordering_enforced(self):
        with pytest.raises(ParameterError):
            HierarchicalMixing(A=1.0, beta=3.0, gamma_exp=3.0)
        with pytest.raises(ParameterError):
            HierarchicalMixing(A=1.0, beta=2.0, gamma_exp=4.0)

    def test_needs_room_for_cutoff(self):
        with pytest.raises(ParameterError):
            moment(HierarchicalMixing(A=5.0, beta=3.0, gamma_exp=4.0), 10, 1)


def _two_level(spec, n, inner, size):
    """The cutoff averages of the ``size`` values inner(PowerLawMixing(a, beta)) over
    a ~ a**-gamma on [A, n/2], one quadrature each: the nested route the hierarchical
    law took before its t-space weight.  The quadratures share each cutoff's values."""
    lo, hi, g = spec.A, n / 2.0, spec.gamma_exp
    norm = (lo ** (1.0 - g) - hi ** (1.0 - g)) / (g - 1.0)
    at = functools.cache(lambda a: np.atleast_1d(inner(PowerLawMixing(alpha=a, beta=spec.beta))))
    return np.array([checked_quad(lambda a: at(a)[k] * a ** -g, lo, hi)
                     for k in range(size)]) / norm


# (1, 3, 5) has the exponent beta - gamma + (beta - 1) = 0, so H takes its log term
@pytest.mark.parametrize("A, beta, gamma_exp", [(1.0, 3.0, 4.5), (1.0, 3.0, 5.0), (2.0, 2.2, 6.0)])
@pytest.mark.parametrize("n", [12, 40])
def test_hierarchical_weight_matches_two_level_quadrature(A, beta, gamma_exp, n):
    spec = HierarchicalMixing(A=A, beta=beta, gamma_exp=gamma_exp)
    orders, ts = np.arange(n + 1), [0.1, 0.5, 0.8]
    want = _two_level(spec, n, lambda law: np.exp(log_row_prob(law, n, orders)), n + 1)
    assert_allclose(np.exp(log_row_prob(spec, n, orders)), want, rtol=1e-12, atol=0)
    want = _two_level(spec, n, lambda law: [tail(law, n, t) for t in ts], len(ts))
    assert_allclose([tail(spec, n, t) for t in ts], want, rtol=1e-12, atol=0)
    want = _two_level(spec, n, lambda law: xi(law, n, orders), n + 1)
    assert_allclose(xi(spec, n, orders), want, rtol=1e-12, atol=0)


@pytest.fixture
def quad_calls(monkeypatch):
    """The list that each ``checked_quad`` call appends to from here on."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return checked_quad(*args, **kwargs)

    monkeypatch.setattr(_numerics, "checked_quad", counting)
    return calls


def test_hierarchical_row_law_takes_one_quadrature_per_order(quad_calls):
    # the nested route made 7790 calls here
    pmf = out_pmf_exact(HierarchicalMixing(A=1.0, beta=3.0, gamma_exp=4.5), 40, range(41))
    assert len(quad_calls) <= 41
    assert pmf.sum() == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("spec", [HierarchicalMixing(A=1.0, beta=3.0, gamma_exp=4.5),
                                  SeedCdfMixing(seed=GammaSeed(r=2.0, gamma=1.0))])
def test_xi_takes_two_quadratures_per_order(spec, quad_calls):
    # every order from 1 splits at theta = 1/2, one quadrature per half; order 0 is 1
    order_by_order = [xi(spec, 40, i) for i in range(41)]
    quad_calls.clear()
    values = xi(spec, 40, range(41))
    assert len(quad_calls) == 80
    assert values.tolist() == order_by_order


POWER_BETAS = [1.001, 1.5, 2.0, 2.0001, 3.0, 3.009, 10.0]


def _orders(n):
    """Every order up to n = 1000, else a geometric sample with both ends."""
    if n <= 1000:
        return np.arange(n + 1)
    return np.unique(np.r_[0, np.geomspace(1, n, 60).astype(int)])


@pytest.mark.parametrize("n", [12, 1000, 10**6])
def test_power_law_laws_take_no_quadrature(n, quad_calls):
    # the incomplete beta of every xi head and of every row r <= beta - 1 is one positive
    # sum; a row r > beta - 1 takes SciPy's, which underflows only above alpha ~ 530
    orders = _orders(n)
    b = orders + 1.0
    for alpha in (1.0, n / 100, n / 2):
        for beta in POWER_BETAS:
            spec = PowerLawMixing(alpha=alpha, beta=beta)
            assert np.all(np.isfinite(xi(spec, n, orders)))
            if alpha <= 500:
                assert np.all(np.isfinite(log_row_prob(spec, n, orders)))
            if 2 * alpha < n:   # a head that reads -inf is below U <= x**-beta (1-x)**b / b,
                x = 2 * alpha / n   # e**-40 of its tail 2F1(beta, 1; b + 1; 1/2) / (2 b)
                lost = ~np.isfinite(_log_upper_beta(1.0 - beta, b, x))
                bound = (beta - 1.0) * math.log(2.0) - beta * math.log(x) + b * math.log1p(-x)
                tail_part = _hyp2f1_half(beta, b + 1.0) / 2.0
                assert np.all(bound[lost] < np.log(tail_part[lost]) - 40.0)
    assert quad_calls == []


@pytest.mark.parametrize("n", [12, 1000, 10**6])
def test_xi_at_the_half_cutoff_matches_quadrature(n):
    # at 2 alpha = n the head is the empty integral; the tail is the positive series
    orders = np.unique(np.geomspace(1, n, 6).astype(int))
    for beta in (1.001, 2.0, 3.009, 10.001):
        spec = PowerLawMixing(alpha=n / 2, beta=beta)
        assert_allclose(xi(spec, n, orders), MixingSpec._xis(spec, n, orders), rtol=REL_TOL)


@pytest.mark.parametrize("alpha, beta, n", [(1e-3, 150.0, 10**6), (1.0, 150.0, 1000)])
def test_steep_power_laws_match_quadrature(alpha, beta, n, quad_calls):
    # Gamma(a, z) and x**a pass the float range at a = 1 - beta: the tail of the
    # incomplete beta's sum takes Gamma in units of z**a e**-z, and xi its norm in logs
    spec, orders = PowerLawMixing(alpha=alpha, beta=beta), np.array([1, 2, 5, 100])
    got = xi(spec, n, orders), log_row_prob(spec, n, orders)
    assert quad_calls == []
    assert_allclose(got[0], MixingSpec._xis(spec, n, orders), rtol=REL_TOL)
    assert_allclose(got[1], MixingSpec._log_row_probs(spec, n, orders), rtol=REL_TOL)
    # the flat table, whose Z passed the float range, by quadrature of its seed cut at n;
    # the transforms of both seeds, in scaled incomplete gammas, against their quadrature
    flat = ModulatedPowerLawMixing(alpha=alpha, beta=beta, g_table=((0.0, 2.0), (1.0, 2.0)))
    assert_allclose(xi(flat, n, orders), got[0], rtol=REL_TOL)
    assert_allclose(log_row_prob(flat, n, orders), got[1], rtol=REL_TOL)
    for seed in (spec.limit_seed(), flat.limit_seed()):
        for s in (1e-3, 0.5, 1e3):
            assert_allclose(seed.laplace(s), math.exp(seed._log_expect(lambda t: -s * t)),
                            rtol=REL_TOL)
            assert_allclose(seed.t_laplace(s),
                            math.exp(seed._log_expect(lambda t: math.log(t) - s * t)),
                            rtol=REL_TOL)


def test_hierarchical_gf2_mean_takes_one_quadrature(quad_calls):
    # the average over the shared cutoff takes one; the xi of every cutoff is closed
    # form.  With a quadrature per half of each xi the mean took 1509 calls and read
    # 93.50120171766932
    spec = HierarchicalMixing(A=1.0, beta=3.0, gamma_exp=4.5)
    value = log_expected_solutions(EnsembleConfig(400, spec, variant="hierarchical"))
    assert len(quad_calls) == 1
    assert value == pytest.approx(93.50120171766932, rel=1e-12)


class TestImpliedSeed:
    def test_known_mappings(self):
        assert DiracMixing(lam=2.0).limit_seed() == DiracSeed(t0=2.0)
        assert PowerLawMixing(alpha=1.0, beta=3.0).limit_seed() == PowerLawSeed(alpha=1.0, beta=3.0)
        assert HierarchicalMixing(A=1.0, beta=3.0, gamma_exp=4.5).limit_seed() == \
            HierarchicalSeed(A=1.0, beta=3.0, gamma_exp=4.5)
        seed = ExponentialSeed(gamma=1.3)
        assert SeedCdfMixing(seed=seed).limit_seed() == seed
        modulated = ModulatedPowerLawMixing(alpha=1.0, beta=2.5, g_table=((0.0, 1.0), (3.0, 2.0)))
        assert modulated.limit_seed() == ModulatedPowerLawSeed(
            alpha=1.0, beta=2.5, g_table=((0.0, 1.0), (3.0, 2.0)))

    def test_zero_rate_seed_is_the_point_mass_at_zero(self):
        # theta = 0 scales to the point mass at 0, which the hub reads as no edges
        assert DiracMixing(lam=0.0).limit_seed() == DiracSeed(t0=0.0)
        assert float(DiracSeed(t0=0.0).cdf(0.0)) == 1.0


@pytest.mark.parametrize("spec", [
    DiracMixing(lam=2.0),
    PowerLawMixing(alpha=1.0, beta=3.0),
    ModulatedPowerLawMixing(alpha=1.0, beta=2.5, g_table=((0.0, 1.0), (3.0, 2.0), (9.0, 1.0))),
    SeedCdfMixing(seed=ExponentialSeed(gamma=1.0)),
    HierarchicalMixing(A=1.0, beta=3.0, gamma_exp=4.5),
])
def test_json_round_trip(spec):
    assert MixingSpec.from_json(spec.to_json()) == spec


def test_json_rejects_unknown_kind():
    with pytest.raises(ParameterError, match="needs a 'variant' discriminator"):
        MixingSpec.from_json({"kind": "cauchy"})
    with pytest.raises(ParameterError, match="unknown mixing variant 'cauchy'"):
        MixingSpec.from_json({"variant": "cauchy"})


def test_family_facts_read_by_the_hub_and_the_row_rules():
    modulated = ModulatedPowerLawMixing(alpha=1.0, beta=2.5, g_table=((0.0, 1.0), (3.0, 2.0)))
    hierarchical = HierarchicalMixing(A=1.0, beta=3.0, gamma_exp=4.5)
    specs = [DiracMixing(lam=0.0), DiracMixing(lam=2.0), PowerLawMixing(alpha=1.0, beta=1.5),
             modulated, SeedCdfMixing(seed=PowerLawSeed(alpha=1.0, beta=2.5)), hierarchical]
    # a hierarchical law has a beta, but no theta**-beta density of its own
    assert [s.row_exponent() for s in specs] == [None, None, 1.5, 2.5, None, None]


_BAD_POWER = [(0.0, 2.0), (1.0, 1.0), (math.nan, 2.0), (1.0, math.nan)]
_BAD_HIERARCHICAL = [(0.0, 3.0, 4.5), (1.0, 2.0, 4.5), (1.0, 3.0, 3.0), (math.nan, 3.0, 4.5),
                     (1.0, 3.0, math.nan)]
_TABLE = ((0.0, 1.0), (3.0, 2.0))


@pytest.mark.parametrize("build, args", [
    *[(DiracMixing, (lam,)) for lam in (-1.0, math.nan)],
    *[(DiracSeed, (lam,)) for lam in (-1.0, math.nan)],
    *[(ExponentialSeed, (g,)) for g in (0.0, math.nan)],
    *[(GammaSeed, rg) for rg in ((0.0, 1.0), (1.0, 0.0), (math.nan, 1.0), (1.0, math.nan))],
    *[(build, ab) for build in (PowerLawMixing, PowerLawSeed) for ab in _BAD_POWER],
    *[(lambda a, b: ModulatedPowerLawMixing(a, b, _TABLE), ab) for ab in _BAD_POWER],
    *[(lambda a, b: tail_asymptote(a, b, 5), ab) for ab in _BAD_POWER],
    *[(lambda a, b: hub_limit_cdf(a, b, 100), ab) for ab in _BAD_POWER],
    *[(lambda a, b: competing_moment_constant(a, b, 0.5), ab) for ab in _BAD_POWER],
    *[(build, abg) for build in (HierarchicalMixing, HierarchicalSeed)
      for abg in _BAD_HIERARCHICAL],
])
def test_families_refuse_what_their_seed_refuses(build, args):
    """Each family's parameter domain is its seed's: the seed's constructor
    raises, NaN included, with the seed's message.  The seeds of the closed-form
    limit laws are listed themselves: they state those laws."""
    with pytest.raises(ParameterError, match="seed needs"):
        build(*args)

