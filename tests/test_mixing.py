"""Mixing-law moments, tails, row polynomials, and samplers."""

import functools
import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from exchgraph import _numerics, mixing
from exchgraph._numerics import checked_quad, integrate, spawn_rng, special
from exchgraph.degrees import (GeometricLaw, HierarchicalMixtureLaw, LerchZipfLaw,
                               NegativeBinomialLaw, PoissonLaw, PowerLawTailLaw,
                               out_pmf_exact, tail_asymptote)
from exchgraph.errors import ParameterError, QuadratureError
from exchgraph.hub import competing_moment_constant, hub_limit_cdf
from exchgraph.mixing import (_upper_beta, DiracMixing, HierarchicalMixing, MixingSpec,
                              ModulatedPowerLawMixing, PowerLawMixing, SeedCdfMixing,
                              log_row_prob, moment, sample_thetas, tail, xi)
from exchgraph.seeds import DiracSeed, ExponentialSeed, GammaSeed, HierarchicalSeed, PowerLawSeed


def brute_moment(spec, n, i):
    """Quadrature oracle straight from the density definition."""
    if isinstance(spec, PowerLawMixing):
        a, b = spec.alpha / n, 1.0
        w = lambda t: t ** (-spec.beta)
    elif isinstance(spec, ModulatedPowerLawMixing):
        a, b = spec.alpha / n, 1.0
        w = lambda t: spec.modulation(n * t) * t ** (-spec.beta)
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
    """xi_n(i) = E (1 - 2 theta)**i in both evaluation regimes."""

    def test_small_order_identity(self):
        spec = PowerLawMixing(alpha=1.0, beta=3.0)
        d1, d2 = moment(spec, 10, 1), moment(spec, 10, 2)
        assert_allclose(xi(spec, 10, 2), 1.0 - 4.0 * d1 + 4.0 * d2, rtol=1e-12)

    @pytest.mark.parametrize("i", [11, 12, 25])
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
# integers, and orders near beta - 1, at 11, n/2 and n
CLOSED_FORM_BETAS = (1.0001, 1.5, 1.999, 2.0, 2.0001, 2.5, 3.0, 3.7)


def _orders_near(beta, n):
    ks = [math.floor(beta) - 2, math.floor(beta) - 1, math.floor(beta), math.ceil(beta),
          11, 12, n // 2, n // 2 + 1, n - 1, n]
    return np.unique(np.clip(ks, 0, n))


@pytest.mark.parametrize("n", [40, 3000])
@pytest.mark.parametrize("beta", CLOSED_FORM_BETAS)
def test_power_law_row_polynomial_matches_quadrature(beta, n):
    spec = PowerLawMixing(alpha=1.0, beta=beta)
    rs = _orders_near(beta, n)
    by_quad = [spec._log_row_prob(n, int(r)) for r in rs]
    assert_allclose(log_row_prob(spec, n, rs), by_quad, rtol=0, atol=1e-10)


@pytest.mark.parametrize("n", [40, 3000])
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


def _upper_beta_by_mpmath(a, b, x):
    # tanh-sinh at 30 digits, split geometrically from x on the scale of the
    # faster of the two factors
    with mpmath.workdps(30):
        a, b, x = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)
        h, points = min(x, 1 / b) / 4, [x]
        while x + h < 1:
            points.append(x + h)
            h *= 2
        return float(mpmath.quad(lambda u: u ** (a - 1) * (1 - u) ** (b - 1), points + [1]))


def _upper_beta_at(a, b, x):
    return float(_upper_beta(np.array([a]), np.array([float(b)]), x)[0])


# integer and non-integer a in [-4, 1], with -0.99 and -1.01 on either side of
# the lift; b from 1 to 5e4; b x around 1 and past the edge of the walk
@pytest.mark.parametrize("a", [1.0, 0.0, -1.0, -2.0, -4.0, 0.5, -0.99, -1.01, -2.5, -3.7])
def test_upper_beta_matches_mpmath(a):
    cases = [(b, bx / b) for b in (1, 12, 50_001) for bx in (0.01, 0.9, 1.0, 1.1, 16.0, 40.0)
             if bx < b]
    got = np.array([_upper_beta_at(a, b, x) for b, x in cases])
    inside = np.isfinite(got)
    # the closed form covers every b x up to 1.1; further out the walk may decline
    assert all(inside[i] for i, (b, x) in enumerate(cases) if b * x <= 1.1)
    want = [_upper_beta_by_mpmath(a, b, x) for (b, x), ok in zip(cases, inside) if ok]
    assert_allclose(got[inside], want, rtol=1e-10)


def test_upper_beta_declines_near_an_integer_and_on_long_walks():
    assert math.isnan(_upper_beta_at(-1.005, 3001, 1.0 / 3001))
    assert math.isfinite(_upper_beta_at(-4.0, 50_001, 16.0 / 50_001))
    assert math.isnan(_upper_beta_at(-4.0, 50_001, 25.0 / 50_001))


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


@pytest.mark.filterwarnings("ignore:The maximum number of subdivisions")
def test_checked_quad_fails_loudly_after_one_retry(monkeypatch):
    """sin(1/x) oscillates without end at 0, so neither subdivision limit meets
    the tolerance; the error names the estimate it reached."""
    limits = []

    def quad(*args, **kwargs):
        limits.append(kwargs["limit"])
        return scipy_quad(*args, **kwargs)

    scipy_quad = integrate.quad
    monkeypatch.setattr(integrate, "quad", quad)
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

    def test_bounds_from_table(self):
        assert self.SPEC.c1 == 0.5
        assert self.SPEC.c2 == 3.0

    @pytest.mark.parametrize("i", [0, 1, 2, 4])
    def test_moments_match_quadrature(self, i):
        assert_allclose(moment(self.SPEC, 40, i), brute_moment(self.SPEC, 40, i), rtol=1e-9)

    def test_tail_matches_quadrature(self):
        n, t0 = 40, 0.21
        w = lambda t: self.SPEC.modulation(n * t) * t ** (-2.5)
        z = checked_quad(w, 1.0 / n, 1.0, rel_tol=1e-11)
        want = checked_quad(w, t0, 1.0, rel_tol=1e-11) / z
        assert_allclose(tail(self.SPEC, n, t0), want, rtol=1e-9)

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
    ])
    def test_sampler_fits_tail(self, spec, n):
        # Kolmogorov-Smirnov against the closed-form CDF 1 - tail
        draws = sample_thetas(spec, n, spawn_rng(13, 0), 4000)
        cdf = np.vectorize(lambda t: 1.0 - tail(spec, n, float(t)))
        assert stats.kstest(draws, cdf).pvalue > 1e-3

    def test_table_validation(self):
        with pytest.raises(ParameterError):
            ModulatedPowerLawMixing(alpha=1.0, beta=2.5, g_table=((0.0, 1.0),))
        with pytest.raises(ParameterError):
            ModulatedPowerLawMixing(alpha=1.0, beta=2.5, g_table=((0.0, 1.0), (0.0, 2.0)))
        with pytest.raises(ParameterError):
            ModulatedPowerLawMixing(alpha=1.0, beta=2.5, g_table=((0.0, 1.0), (1.0, -2.0)))


class TestSeedCdfSlice:
    def test_cdf_restriction_tail(self):
        # F_n(x) = F(n x) / F(n): tail at x for the unit-rate exponential seed
        seed = ExponentialSeed(gamma=1.0)
        spec = SeedCdfMixing(seed=seed)
        n, x = 15, 0.3
        want = 1.0 - (-math.expm1(-n * x)) / (-math.expm1(-float(n)))
        assert_allclose(tail(spec, n, x), want, rtol=1e-9)

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


class TestHierarchical:
    SPEC = HierarchicalMixing(A=1.0, beta=3.0, gamma_exp=4.5)

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
    # up to order 10 xi is the alternating sum of C(i, j) (-2)**j E theta**j, whose
    # terms reach E (1 + 2 theta)**i; both routes, and mpmath, differ there by up to
    # 4e-12 of xi at (2, 2.2, 6), n = 12, so the tolerance there is relative to that sum
    scale = [math.fsum(math.comb(i, j) * 2.0 ** j * moment(spec, n, j) for j in range(i + 1))
             if i <= 10 else abs(w) for i, w in zip(orders, want)]
    assert np.all(np.abs(xi(spec, n, orders) - want) <= 1e-12 * np.array(scale))


def test_hierarchical_row_law_takes_one_quadrature_per_order(monkeypatch):
    # the nested route made 7790 calls here
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return checked_quad(*args, **kwargs)

    monkeypatch.setattr(_numerics, "checked_quad", counting)
    monkeypatch.setattr(mixing, "checked_quad", counting)
    pmf = out_pmf_exact(HierarchicalMixing(A=1.0, beta=3.0, gamma_exp=4.5), 40, range(41))
    assert len(calls) <= 41
    assert pmf.sum() == pytest.approx(1.0, rel=1e-12)



@pytest.mark.parametrize("spec", [HierarchicalMixing(A=1.0, beta=3.0, gamma_exp=4.5),
                                  SeedCdfMixing(seed=GammaSeed(r=2.0, gamma=1.0))])
def test_xi_takes_each_moment_once(spec, monkeypatch):
    # orders 1..10 expand in the moments 1..10, one quadrature each; orders
    # 11..40 split at 1/2, two each: 10 + 60 calls (115 when every order
    # recomputed its moments)
    order_by_order = [xi(spec, 40, i) for i in range(41)]
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return checked_quad(*args, **kwargs)

    monkeypatch.setattr(mixing, "checked_quad", counting)
    values = xi(spec, 40, range(41))
    assert len(calls) == 70
    assert values.tolist() == order_by_order

class TestImpliedSeed:
    def test_known_mappings(self):
        assert DiracMixing(lam=2.0).limit_seed() == DiracSeed(t0=2.0)
        assert PowerLawMixing(alpha=1.0, beta=3.0).limit_seed() == PowerLawSeed(alpha=1.0, beta=3.0)
        assert HierarchicalMixing(A=1.0, beta=3.0, gamma_exp=4.5).limit_seed() == \
            HierarchicalSeed(A=1.0, beta=3.0, gamma_exp=4.5)
        seed = ExponentialSeed(gamma=1.3)
        assert SeedCdfMixing(seed=seed).limit_seed() == seed
        modulated = ModulatedPowerLawMixing(alpha=1.0, beta=2.5, g_table=((0.0, 1.0), (3.0, 2.0)))
        with pytest.raises(ParameterError, match="no closed-form seed limit"):
            modulated.limit_seed()

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
    *[(PoissonLaw, (lam,)) for lam in (-1.0, math.nan)],
    *[(GeometricLaw, (g,)) for g in (0.0, math.nan)],
    *[(NegativeBinomialLaw, rg) for rg in ((0.0, 1.0), (1.0, 0.0), (math.nan, 1.0), (1.0, math.nan))],
    *[(build, ab) for build in (PowerLawMixing, PowerLawTailLaw) for ab in _BAD_POWER],
    *[(lambda a, b: ModulatedPowerLawMixing(a, b, _TABLE), ab) for ab in _BAD_POWER],
    *[(lambda a, b: tail_asymptote(a, b, 5), ab) for ab in _BAD_POWER],
    *[(lambda a, b: hub_limit_cdf(a, b, 100), ab) for ab in _BAD_POWER],
    *[(lambda a, b: competing_moment_constant(a, b, 0.5), ab) for ab in _BAD_POWER],
    *[(build, abg) for build in (HierarchicalMixing, HierarchicalMixtureLaw)
      for abg in _BAD_HIERARCHICAL],
])
def test_families_refuse_what_their_seed_refuses(build, args):
    """Each family's parameter domain is its seed's: the seed's constructor
    raises, NaN included, with the seed's message."""
    with pytest.raises(ParameterError, match="seed needs"):
        build(*args)


def test_lerch_zipf_law_keeps_its_wider_domain():
    # alpha in (0, 1] is a Lerch zipf law whose seed the package does not state
    assert LerchZipfLaw(1.0, 2.0).pmf(0) > 0.0
    with pytest.raises(ParameterError, match="lerch zipf law needs"):
        LerchZipfLaw(0.0, 2.0)
