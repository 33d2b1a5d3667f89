"""Exact degree pmfs, limit laws, and the moment-transfer diagnostic.

Closed forms are pinned two ways: frozen hand-computed values, and an
independent quadrature route (the Poisson mixture integral evaluated
numerically, ``SeedDistribution._mixture_pmf``) that every seed's closed form
must reproduce.
"""

import json
import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from exchgraph._numerics import checked_quad
from exchgraph.degrees import (in_pmf_exact, limit_law_json, limit_pmf, moment_transfer_check,
                               out_pmf_exact, tail_asymptote, total_variation,
                               write_pmf_table)
from exchgraph.ensemble import EnsembleConfig, ExplicitRows
from exchgraph.errors import ParameterError
from exchgraph.mixing import (DiracMixing, HierarchicalMixing, ModulatedPowerLawMixing,
                              PowerLawMixing, SeedCdfMixing, log_row_prob, moment, xi)
from exchgraph.seeds import (DiracSeed, ExponentialSeed, GammaSeed, HierarchicalSeed,
                             LerchSeed, ModulatedPowerLawSeed, ParetoTailSeed, PowerLawSeed,
                             SeedDistribution)

# the benchmark's modulated table
_TABLE = ((0.0, 1.0), (10.0, 2.0), (100.0, 0.5), (1000.0, 1.5))


class TestFrozenValues:
    def test_geometric_worked_example(self):
        # unit-rate exponential seed: p_k = 2**-(k+1)
        assert limit_pmf(ExponentialSeed(gamma=1.0), 3) == pytest.approx(2.0 ** -4, rel=1e-14)

    def test_lerch_zipf_worked_example(self):
        # alpha=2, s=2: p_0 = 2**-2 / zeta(2, 2), and zeta(2, 2) = pi**2 / 6 - 1
        assert limit_pmf(LerchSeed(alpha=2.0, s=2.0), 0) == pytest.approx(
            0.25 / (math.pi ** 2 / 6.0 - 1.0), rel=1e-12)

    def test_tail_asymptote_value(self):
        assert tail_asymptote(2.0, 2.5, 10) == pytest.approx(2.0 ** 1.5 * 1.5 * 10 ** -2.5,
                                                             rel=1e-14)


class TestMixtureCrossChecks:
    """Each seed's closed form equals the quadrature Poisson mixture of the seed."""

    KS = np.arange(0, 31)

    def _max_rel(self, seed, want=None):
        a = limit_pmf(seed, self.KS)
        b = SeedDistribution._mixture_pmf(seed, self.KS) if want is None else want
        return float(np.max(np.abs(a - b) / a))

    def test_geometric_is_exponential_mixture(self):
        assert self._max_rel(ExponentialSeed(gamma=1.3)) < 1e-8

    def test_negative_binomial_is_gamma_mixture(self):
        assert self._max_rel(GammaSeed(r=2.5, gamma=0.7)) < 1e-8

    def test_power_tail_is_power_seed_mixture(self):
        assert self._max_rel(PowerLawSeed(alpha=1.0, beta=3.0)) < 1e-8

    def test_lerch_zipf_is_lerch_mixture(self):
        assert self._max_rel(LerchSeed(alpha=1.5, s=2.5)) < 1e-7

    def test_dirac_mixture_is_poisson(self):
        assert self._max_rel(DiracSeed(t0=2.0), stats.poisson.pmf(self.KS, 2.0)) < 1e-14


class TestPowerLawTail:
    SEED = PowerLawSeed(alpha=1.0, beta=3.0)

    def test_recurrence_matches_direct_quadrature(self):
        # the closed form (incomplete gamma) against the quadrature of the mixture
        ks = np.array([0, 1, 2, 5, 17, 60, 143, 300])
        by_quad = np.log(SeedDistribution._mixture_pmf(self.SEED, ks))
        assert_allclose(np.log(limit_pmf(self.SEED, ks)), by_quad, rtol=0, atol=1e-9)

    def test_normalizes(self):
        assert limit_pmf(self.SEED, np.arange(3001)).sum() == pytest.approx(1.0, abs=1e-6)

    def test_asymptote_within_five_percent_at_k200(self):
        ratio = limit_pmf(self.SEED, 200) / tail_asymptote(1.0, 3.0, 200)
        assert abs(ratio - 1.0) < 0.05

    def test_noninteger_tail_exponent(self):
        seed = PowerLawSeed(alpha=0.5, beta=2.3)
        assert limit_pmf(seed, np.arange(20001)).sum() == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("alpha", [1.0, 10.0])
@pytest.mark.parametrize("beta", [1.0001, 1.5, 1.999, 2.0, 2.0001, 2.5, 3.0, 3.7])
def test_power_tail_closed_form_matches_quadrature(beta, alpha):
    # orders near beta - 1, at 11 and up to 3000; those with k + 1 - beta <= 0
    # stay on the quadrature and match trivially
    seed = PowerLawSeed(alpha=alpha, beta=beta)
    ks = np.array([0, 1, 2, 3, 4, 11, 12, 1500, 3000])
    by_quad = np.log(SeedDistribution._mixture_pmf(seed, ks))
    assert_allclose(np.log(limit_pmf(seed, ks)), by_quad, rtol=0, atol=1e-10)


def test_lerch_seed_matches_u_form_at_small_x():
    # oracle: the density and CDF as u-integrals, u = e**tau - 1, in mpmath;
    # double-precision quadrature of that form fails below x ~ 1e-8
    seed = LerchSeed(alpha=1.5, s=2.5)
    with mpmath.workdps(25):
        a, s = mpmath.mpf(1.5), mpmath.mpf(2.5)
        z = mpmath.gamma(s) * mpmath.zeta(s, a)
        cuts = [0] + [mpmath.mpf(10) ** k for k in range(14)] + [mpmath.inf]

        def weight(u):
            return mpmath.log1p(u) ** (s - 1) * (1 + u) ** -a

        for x in (1e-10, 1e-3, 3.0):
            xm = mpmath.mpf(x)
            dens = mpmath.quad(lambda u: mpmath.exp(-xm * u) * weight(u), cuts) / z
            cdf = mpmath.quad(lambda u: -mpmath.expm1(-xm * u) / u * weight(u), cuts) / z
            assert seed.density(x) == pytest.approx(float(dens), rel=1e-9)
            assert seed.cdf(x) == pytest.approx(float(cdf), rel=1e-9)


class TestHierarchicalMixture:
    SEED = HierarchicalSeed(A=1.0, beta=3.0, gamma_exp=4.5)

    def test_matches_outer_quadrature(self):
        # oracle: integrate the conditional pmf against the cutoff density
        A, b, g = 1.0, 3.0, 4.5
        for k in range(10):
            want = checked_quad(
                lambda a: limit_pmf(PowerLawSeed(alpha=a, beta=b), k)
                * (g - 1.0) * A ** (g - 1.0) * a ** (-g),
                A, np.inf, rel_tol=1e-9)
            assert limit_pmf(self.SEED, k) == pytest.approx(want, rel=1e-7)

    def test_normalizes_and_positive(self):
        p = limit_pmf(self.SEED, np.arange(2001))
        assert np.all(p > 0)
        assert p.sum() == pytest.approx(1.0, abs=1e-5)

    def test_exponent_ordering_enforced(self):
        with pytest.raises(ParameterError):
            HierarchicalSeed(A=1.0, beta=2.0, gamma_exp=3.0)
        with pytest.raises(ParameterError):
            HierarchicalSeed(A=1.0, beta=3.0, gamma_exp=3.0)
        with pytest.raises(ParameterError):
            HierarchicalSeed(A=0.0, beta=3.0, gamma_exp=4.5)

    @pytest.mark.parametrize("A, beta, gamma_exp", [(1.0, 3.0, 4.5), (1.0, 2.5, 4.0)])
    def test_matches_the_quadrature_of_its_seed(self, A, beta, gamma_exp):
        ks = np.arange(31)
        seed = HierarchicalSeed(A=A, beta=beta, gamma_exp=gamma_exp)
        # the quadrature agrees to 6e-14 here; 1e-11 leaves room for its error estimate
        assert_allclose(SeedDistribution._mixture_pmf(seed, ks), limit_pmf(seed, ks),
                        rtol=1e-11, atol=0.0)


class TestHierarchicalSeed:
    SEED = HierarchicalSeed(A=1.0, beta=3.0, gamma_exp=4.5)

    @staticmethod
    def _density(t):
        # (b-1)(g-1)/(g-b) (A**(b-1) t**-b - A**(g-1) t**-g) at A = 1, b = 3, g = 4.5
        return 2.0 * 3.5 / 1.5 * (t ** -3 - t ** mpmath.mpf(-4.5))

    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    def test_transforms_match_the_pmf_and_quadrature(self, s):
        with mpmath.workdps(30):
            sm = mpmath.mpf(s)
            cuts = [1, 1 / sm, mpmath.inf]
            laplace = float(mpmath.quad(lambda t: self._density(t) * mpmath.exp(-sm * t), cuts))
            t_laplace = float(mpmath.quad(
                lambda t: t * self._density(t) * mpmath.exp(-sm * t), cuts))
        assert self.SEED.laplace(s) == pytest.approx(laplace, rel=1e-12, abs=0.0)
        assert self.SEED.t_laplace(s) == pytest.approx(t_laplace, rel=1e-12, abs=0.0)
        # the mixture's generating function at 1 - s; (1 - s)**k is below 1e-90 past k = 2000
        pmf = limit_pmf(self.SEED, np.arange(2001))
        pgf = math.fsum(pmf * (1.0 - s) ** np.arange(2001))
        assert self.SEED.laplace(s) == pytest.approx(pgf, rel=1e-12, abs=0.0)

    def test_cdf_and_tail(self):
        assert self.SEED.cdf(np.array([0.0, 1.0])).tolist() == [0.0, 0.0]
        with mpmath.workdps(30):
            mass = float(mpmath.quad(self._density, [1, 10]))
        assert float(self.SEED.cdf(10.0)) == pytest.approx(mass, rel=1e-13)
        c, eta = self.SEED.power_tail()
        assert (c, eta) == pytest.approx((3.5 / 1.5, 2.0), rel=1e-15)
        # the second part falls off faster by x**-(g - b) = 1e-6 at x = 1e4
        assert (1.0 - float(self.SEED.cdf(1e4))) / (c * 1e4 ** -eta) == pytest.approx(1.0, abs=1e-5)


class TestModulatedPowerLawSeed:
    @pytest.mark.parametrize("alpha,beta", [(1.0, 2.5), (1.0, 1.5), (2.0, 3.0)])
    def test_constant_g_is_the_power_law_seed(self, alpha, beta):
        seed = ModulatedPowerLawSeed(alpha=alpha, beta=beta, g_table=((0.0, 2.0), (5.0, 2.0),
                                                                      (50.0, 2.0)))
        pure = PowerLawSeed(alpha=alpha, beta=beta)
        xs = np.array([0.5, 1.0, 1.5, 2.5, 4.9, 5.0, 7.0, 60.0, 1e4])
        us = np.linspace(0, 0.999, 30)
        for name in ("cdf", "density"):
            assert_allclose(getattr(seed, name)(xs), getattr(pure, name)(xs), rtol=1e-12, atol=0)
        assert_allclose(seed.inverse_cdf(us), pure.inverse_cdf(us), rtol=1e-12)
        assert_allclose(seed.power_tail(), pure.power_tail(), rtol=1e-12)
        for order, cap in [(0.5, 3.0), (1.0, 70.0), (2.0, 1e5)]:
            assert_allclose(seed.truncated_moment(order, cap), pure.truncated_moment(order, cap),
                            rtol=1e-12)
        # s = 1e-12 is the gf2 rate grid's smallest argument
        for s in (1e-12, 1e-6, 1e-3, 0.3, 1.0, 5.0):
            assert_allclose(seed.laplace(s), pure.laplace(s), rtol=1e-12)
            assert_allclose(seed.t_laplace(s), pure.t_laplace(s), rtol=1e-12)

    @pytest.mark.parametrize("beta", [2.5, 1.5])
    def test_normalizer_and_transforms_match_quadrature(self, beta):
        seed = ModulatedPowerLawSeed(alpha=1.0, beta=beta, g_table=_TABLE)
        cuts = [1, 10, 100, 1000, mpmath.inf]

        def g(t):
            return mpmath.mpf(np.interp(float(t), *zip(*_TABLE))) if t < 1000 else 1.5

        with mpmath.workdps(30):
            z = mpmath.quad(lambda t: g(t) * t ** -beta, cuts)
            assert float(seed.cdf(math.inf)) == 1.0
            assert_allclose(float(seed.cdf(50.0)),
                            float(mpmath.quad(lambda t: g(t) * t ** -beta, [1, 10, 50]) / z),
                            rtol=1e-13)
            assert_allclose(seed.power_tail(), (float(1.5 / (z * (beta - 1.0))), beta - 1.0),
                            rtol=1e-14)
            for s in (1e-12, 1e-3, 1.0, 5.0):
                lap = mpmath.quad(lambda t: g(t) * t ** -beta * mpmath.exp(-s * t), cuts) / z
                t_lap = mpmath.quad(lambda t: g(t) * t ** (1 - beta) * mpmath.exp(-s * t), cuts)
                assert_allclose(seed.laplace(s), float(lap), rtol=1e-12)
                assert_allclose(seed.t_laplace(s), float(t_lap / z), rtol=1e-12)

    def test_limit_tv_falls_as_one_over_n(self):
        spec = ModulatedPowerLawMixing(alpha=1.0, beta=2.5, g_table=_TABLE)
        ks = np.arange(31)
        limit = limit_pmf(spec.limit_seed(), ks)
        for n in (10**2, 10**3, 10**4, 10**5):
            # 2.3e-3, 2.2e-4, 2.2e-5, 2.2e-6 times n: 0.23 to 0.22
            assert total_variation(out_pmf_exact(spec, n, ks), limit) <= 0.3 / n


class TestExactFiniteN:
    @pytest.mark.parametrize("n", [3000, 10**5, 10**6])
    def test_log_binomials_to_1e_12(self, n):
        # three log-gammas put log C(n, k) off by eps n log n: 6.3e-12 at n = 3000, 2.4e-9 at 1e6
        ks, lam = np.arange(61), 3.0
        with mpmath.workdps(40):
            theta = mpmath.mpf(lam) / n
            want = [float(mpmath.log(mpmath.binomial(n, k)) + k * mpmath.log(theta)
                          + (n - k) * mpmath.log1p(-theta)) for k in ks]
        spec = DiracMixing(lam=lam)
        assert_allclose(np.log(out_pmf_exact(spec, n, ks)), want, rtol=0, atol=1e-12)
        assert_allclose(np.log(in_pmf_exact(EnsembleConfig(n, spec), ks)), want,
                        rtol=0, atol=1e-12)

    def test_out_pmf_sums_to_one(self):
        spec = PowerLawMixing(alpha=1.0, beta=3.0)
        p = out_pmf_exact(spec, 12, np.arange(13))
        assert p.sum() == pytest.approx(1.0, rel=1e-9)

    def test_out_pmf_dirac_is_binomial(self):
        spec = DiracMixing(lam=2.0)
        ks = np.arange(0, 11)
        assert_allclose(out_pmf_exact(spec, 10, ks), stats.binom.pmf(ks, 10, 0.2), rtol=1e-10)

    def test_in_pmf_is_binomial_in_mean_rate(self):
        ks = np.arange(0, 31)
        # the Dirac laws at lambda = 0 and lambda = n are point masses at 0 and m
        for spec in (PowerLawMixing(alpha=1.0, beta=3.0), DiracMixing(lam=0.0),
                     DiracMixing(lam=50.0)):
            mu = moment(spec, 50, 1)
            assert_allclose(in_pmf_exact(EnsembleConfig(50, spec, ExplicitRows(30)), ks),
                            stats.binom.pmf(ks, 30, mu),
                            rtol=1e-10)

    def test_out_degree_tv_convergence(self):
        spec = PowerLawMixing(alpha=1.0, beta=3.0)
        ks = np.arange(0, 101)
        lim = limit_pmf(PowerLawSeed(alpha=1.0, beta=3.0), ks)
        tv_small = total_variation(out_pmf_exact(spec, 200, ks), lim)
        tv_big = total_variation(out_pmf_exact(spec, 10_000, ks), lim)
        assert tv_big < tv_small
        assert tv_big < 0.01

    def test_in_degree_tv_convergence(self):
        spec = DiracMixing(lam=2.0)
        ks = np.arange(0, 41)
        tv = total_variation(in_pmf_exact(EnsembleConfig(10_000, spec), ks),
                             limit_pmf(DiracSeed(t0=2.0), ks))
        assert tv < 0.005

    def test_degree_bounds_checked(self):
        spec = DiracMixing(lam=1.0)
        with pytest.raises(ParameterError):
            out_pmf_exact(spec, 5, 6)
        with pytest.raises(ParameterError):
            in_pmf_exact(EnsembleConfig(5, spec, ExplicitRows(3)), 4)
        with pytest.raises(ParameterError):
            out_pmf_exact(spec, 5, -1)
        with pytest.raises(ParameterError):
            out_pmf_exact(spec, 5, 2.5)


class TestMomentTransfer:
    def test_poisson_partial_sums_hit_known_moments(self):
        rep = moment_transfer_check(DiracSeed(t0=2.0), 2.0, k_cap=1000)
        # sum k**2 p_k = lam + lam**2; integral t**2 dF = lam**2
        assert rep.pmf_partial == pytest.approx(2.0 + 4.0, rel=1e-8)
        assert rep.mixing_partial == pytest.approx(4.0, rel=1e-8)
        assert rep.agree and rep.both_finite_verdict

    def test_first_moments_agree_in_value(self):
        rep = moment_transfer_check(ExponentialSeed(gamma=1.0), 1.0, k_cap=2000)
        assert rep.pmf_partial == pytest.approx(1.0, rel=1e-6)
        assert rep.mixing_partial == pytest.approx(1.0, rel=1e-6)
        assert rep.both_finite_verdict

    def test_heavy_tail_moment_blows_up_on_both_routes(self):
        rep = moment_transfer_check(PowerLawSeed(alpha=1.0, beta=3.0), 2.0, k_cap=20_000)
        assert not rep.pmf_stabilized and not rep.mixing_stabilized
        assert rep.agree and not rep.both_finite_verdict

    def test_heavy_tail_low_moment_stabilizes(self):
        rep = moment_transfer_check(PowerLawSeed(alpha=1.0, beta=4.0), 1.0, k_cap=20_000)
        assert rep.pmf_stabilized and rep.mixing_stabilized
        # both routes converge to the seed mean 3/2
        assert rep.pmf_partial == pytest.approx(1.5, rel=1e-4)
        assert rep.mixing_partial == pytest.approx(1.5, rel=1e-4)

    @pytest.mark.parametrize("law,order,finite", [
        (PowerLawSeed(alpha=1.0, beta=3.0), 0.5, True),
        (PowerLawSeed(alpha=1.0, beta=3.0), 1.0, True),
        (PowerLawSeed(alpha=1.0, beta=3.0), 2.0, False),
        (PowerLawSeed(alpha=1.0, beta=3.0), 2.5, False),
        (HierarchicalSeed(A=1.0, beta=3.0, gamma_exp=4.5), 1.0, True),
    ])
    def test_verdict_splits_at_beta_minus_one(self, law, order, finite):
        """A k**-beta tail of the limit law (stated by its seed) has finite moments
        exactly below order beta - 1 = 2; a slowly converging finite moment still
        reads finite, and the logarithmically divergent one at order 2 reads infinite."""
        rep = moment_transfer_check(law, order)
        assert rep.pmf_stabilized == rep.mixing_stabilized == finite
        assert rep.agree and rep.both_finite_verdict == finite

    def test_requires_positive_order(self):
        with pytest.raises(ParameterError):
            moment_transfer_check(DiracSeed(t0=1.0), 0.0)


@pytest.mark.parametrize("cap", [1e6, 1e8])
def test_truncated_moment_at_large_caps(cap):
    # before the windowed quadrature the exponential read 0.0
    assert_allclose(ExponentialSeed(gamma=1.0).truncated_moment(1.0, cap), 1.0, rtol=1e-9)
    assert_allclose(GammaSeed(r=2.0, gamma=1.0).truncated_moment(1.5, cap), math.gamma(3.5),
                    rtol=1e-9)
    # (beta - 1) integral_1^cap t**(order - beta) dt for the power law alpha = 1, beta = 2.5
    for order in (1.0, 2.0):
        want = 1.5 * (cap ** (order - 1.5) - 1.0) / (order - 1.5)
        assert_allclose(PowerLawSeed(alpha=1.0, beta=2.5).truncated_moment(order, cap), want,
                        rtol=1e-9)


class TestLimitReportForm:
    def test_mappings(self):
        # a mixing law's limit, in the form degrees.json writes it
        hierarchical = {"kind": "hierarchical_mixture", "A": 1.0, "beta": 3.0, "gamma_exp": 4.5}
        for spec, wire in [
            (DiracMixing(lam=2.0), {"kind": "poisson", "lam": 2.0}),
            (DiracMixing(lam=0.0), {"kind": "poisson", "lam": 0.0}),
            (PowerLawMixing(alpha=1.0, beta=3.0),
             {"kind": "power_law_tail", "alpha": 1.0, "beta": 3.0}),
            (SeedCdfMixing(seed=ExponentialSeed(gamma=1.3)), {"kind": "geometric", "gamma": 1.3}),
            (SeedCdfMixing(seed=GammaSeed(r=2.0, gamma=1.0)),
             {"kind": "negative_binomial", "r": 2.0, "gamma": 1.0}),
            (SeedCdfMixing(seed=LerchSeed(alpha=1.5, s=2.5)),
             {"kind": "lerch_zipf", "alpha": 1.5, "s": 2.5}),
            (HierarchicalMixing(A=1.0, beta=3.0, gamma_exp=4.5), hierarchical),
            (SeedCdfMixing(seed=HierarchicalSeed(A=1.0, beta=3.0, gamma_exp=4.5)), hierarchical),
            (SeedCdfMixing(seed=ParetoTailSeed(alpha=1.0, eta=1.5)),
             {"kind": "poisson_mixture",
              "seed": {"kind": "pareto_tail", "alpha": 1.0, "eta": 1.5}}),
        ]:
            assert limit_law_json(spec.limit_seed()) == wire


@pytest.mark.parametrize("seed", [
    DiracSeed(t0=2.0),
    ExponentialSeed(gamma=1.3),
    GammaSeed(r=2.0, gamma=0.5),
    ParetoTailSeed(alpha=1.0, eta=2.5),
    PowerLawSeed(alpha=1.0, beta=3.0),
    PowerLawSeed(alpha=1.0, beta=1.5),
    HierarchicalSeed(A=1.0, beta=3.0, gamma_exp=4.5),
    LerchSeed(alpha=1.5, s=2.5),
    ModulatedPowerLawSeed(alpha=1.0, beta=2.5, g_table=_TABLE),
], ids=lambda seed: "-".join(map(str, seed.to_json().values())))
def test_seed_transforms_are_the_generating_function_of_its_limit_law(seed):
    """The Poisson mixture p of a seed has sum_k p_k z**k = E exp(-t (1 - z)),
    so at z = 1 - u its pmf sums to laplace(u), and its z-derivative to
    t_laplace(u): p_0 and p_1 at u = 1.  The sums stop at k = 159, where
    z**k < 1e-24."""
    ks = np.arange(160)
    p = limit_pmf(SeedCdfMixing(seed=seed).limit_seed(), ks)
    for u in (0.3, 0.6, 1.0):
        z = 1.0 - u
        assert_allclose(seed.laplace(u), math.fsum(p * z ** ks), rtol=1e-11)
        assert_allclose(seed.t_laplace(u), math.fsum(ks[1:] * p[1:] * z ** (ks[1:] - 1)),
                        rtol=1e-11)


# the seed kind of each closed form in the report, for reading the report form back
_SEED_KINDS = {"poisson": "dirac", "geometric": "exponential", "negative_binomial": "gamma",
               "power_law_tail": "power_law", "lerch_zipf": "lerch",
               "hierarchical_mixture": "hierarchical"}


@pytest.mark.parametrize("law", [
    DiracSeed(t0=2.0),
    ParetoTailSeed(alpha=1.0, eta=2.5),
    ExponentialSeed(gamma=1.3),
    GammaSeed(r=2.0, gamma=0.5),
    PowerLawSeed(alpha=1.0, beta=3.0),
    LerchSeed(alpha=1.5, s=2.5),
    HierarchicalSeed(A=1.0, beta=3.0, gamma_exp=4.5),
])
def test_limit_law_json_round_trip(law):
    """A limit law, stated by its seed, is read back from its report form."""
    wire = json.loads(json.dumps(limit_law_json(law)))
    kind = wire.pop("kind")
    if kind == "poisson_mixture":
        back = SeedDistribution.from_json(wire["seed"])
    else:
        fields = {("t0" if key == "lam" else key): value for key, value in wire.items()}
        back = SeedDistribution.from_json({"kind": _SEED_KINDS[kind], **fields})
    assert back == law
    assert limit_pmf(back, 2) == limit_pmf(law, 2)


def test_pmf_table_format(tmp_path):
    path = tmp_path / "t.csv"
    write_pmf_table(path, [0, 1], [0.5, 0.25], [0.5, 0.2])
    lines = path.read_text().splitlines()
    assert lines[0] == "k,exact,limit,abs_diff"
    assert lines[1] == "0,0.5,0.5,0.0"
    k, e, l, d = lines[2].split(",")
    assert float(d) == pytest.approx(0.05)


def test_order_arguments_take_integral_floats_and_reject_non_finite_ones():
    spec, n, m = PowerLawMixing(alpha=1.0, beta=2.5), 40, 30
    hierarchical = HierarchicalSeed(A=1.0, beta=3.0, gamma_exp=4.5)
    # the tail asymptote takes orders from 1, so it reads each order shifted by one
    calls = [lambda k: xi(spec, n, k), lambda k: log_row_prob(spec, n, k),
             lambda k: out_pmf_exact(spec, n, k),
             lambda k: in_pmf_exact(EnsembleConfig(n, spec, ExplicitRows(m)), k),
             lambda k: limit_pmf(DiracSeed(t0=2.0), k), lambda k: limit_pmf(hierarchical, k),
             lambda k: tail_asymptote(1.0, 3.0, np.add(k, 1))]
    for call in calls:
        assert call(3.0) == call(3)
        assert_allclose(call(np.array([0.0, 3.0])), call(np.array([0, 3])), rtol=0)
        for bad in (math.nan, math.inf, -math.inf, 1e300, 2.5, -1, [1, math.nan]):
            with pytest.raises(ParameterError):
                call(bad)
    with pytest.raises(ParameterError, match="tail asymptote order must be at least 1"):
        tail_asymptote(1.0, 3.0, 0)
    assert moment(spec, n, 3.0) == moment(spec, n, 3)
    for bad in (math.nan, math.inf, -math.inf, 1e300, 2.5, -1, [3]):
        with pytest.raises(ParameterError):
            moment(spec, n, bad)
