"""Exact finite-n degree laws and their large-n limit families.

Out-degrees: a row with bias theta has Binomial(n, theta) ones, so the exact
out-degree pmf is the mixing-averaged binomial

    P{S_n = k} = C(n, k) * E theta**k (1 - theta)**(n - k),

computed through the log-space row polynomial of :mod:`exchgraph.mixing`,
under every ensemble variant.  In-degrees: a column collects one Bernoulli(mu_n)
entry from each of the m independent rows, so the exact in-degree law is
Binomial(m, mu_n) for iid biases, averaged over any shared draw.

Limit families: when n * theta converges to a seed distribution F, out-degrees
converge to the Poisson mixture integral t**k e**-t / k! dF(t).  Closed forms
of that mixture, each naming its seed's class (Poisson, geometric, negative
binomial, power-law tail, Lerch zipf, hierarchical two-term combination), are
looked up by ``default_limit_law`` and cross-checked against the quadrature
route, ``PoissonMixtureLaw``, in the tests.  The power-law tail also takes
that route for the orders k <= beta - 1 and wherever its incomplete gamma
underflows.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from ._codec import JsonCodec
from ._numerics import check_orders, log_quad, shaped_like, special
from .ensemble import EnsembleConfig
from .errors import ParameterError
from .mixing import MixingSpec, log_row_prob, moment
from .seeds import (SeedDistribution, DiracSeed, ExponentialSeed, GammaSeed,
                    HierarchicalSeed, LerchSeed, PowerLawSeed)

__all__ = [
    "LimitLaw",
    "PoissonLaw",
    "PoissonMixtureLaw",
    "GeometricLaw",
    "NegativeBinomialLaw",
    "PowerLawTailLaw",
    "LerchZipfLaw",
    "HierarchicalMixtureLaw",
    "default_limit_law",
    "out_pmf_exact",
    "in_pmf_exact",
    "limit_pmf",
    "tail_asymptote",
    "moment_transfer_check",
    "MomentTransferReport",
    "total_variation",
    "write_pmf_table",
]


class LimitLaw(JsonCodec, tag="kind", error=ParameterError, family="limit law"):
    """Base class for limit degree distributions on {0, 1, 2, ...}.

    A law that is the Poisson mixture of a seed in closed form names the
    seed's class in ``seed_class``; the two share their fields, in order, and
    the seed's constructor checks the law's parameters.
    """

    seed_class = None

    def __post_init__(self):
        if self.seed_class is not None:
            self.limit_seed()

    def _log_pmf(self, ks: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def log_pmf(self, k):
        return shaped_like(self._log_pmf(check_orders(k, "degree")), k)

    def pmf(self, k):
        return shaped_like(np.exp(self._log_pmf(check_orders(k, "degree"))), k)

    def pmf_range(self, k_max: int) -> np.ndarray:
        """pmf for all k = 0..k_max."""
        return self.pmf(np.arange(k_max + 1))

    def limit_seed(self) -> SeedDistribution:
        """The seed F whose Poisson mixture this law is."""
        return self.seed_class(*astuple(self))


def _poisson_window(k: int, lo: float) -> float:
    """Upper cutoff for integrals of t**k e**-t times a probability density.

    Beyond the cutoff the factor t**k e**-t has dropped by e**-120 relative
    to its own maximum, and the density integrates to at most one, so the
    discarded tail is negligible against any nonzero result.
    """
    mode = max(float(k), lo)
    return mode + math.sqrt(240.0 * (mode + 1.0)) + 120.0


@dataclass(frozen=True)
class PoissonLaw(LimitLaw):
    lam: float
    kind = "poisson"
    seed_class = DiracSeed

    def _log_pmf(self, ks):
        if self.lam == 0.0:
            return np.where(ks == 0, 0.0, -np.inf)
        return ks * math.log(self.lam) - self.lam - special.gammaln(ks + 1.0)


@dataclass(frozen=True)
class PoissonMixtureLaw(LimitLaw):
    """p_k = integral t**k exp(-t) / k! dF(t) for a seed distribution F."""

    seed: SeedDistribution
    kind = "poisson_mixture"

    def _log_pmf(self, ks):
        if not self.seed.has_density():
            # only the Dirac seed lacks a density; its mixture is Poisson
            return PoissonLaw(lam=self.seed.t0)._log_pmf(ks)
        return np.array([self._log_pmf_one(k) for k in ks.ravel().tolist()],
                        dtype=float).reshape(ks.shape)

    def _log_pmf_one(self, k: int) -> float:
        def logf(t):
            if t <= 0:
                return -np.inf
            d = float(self.seed.density(t))
            if d <= 0.0:
                return -np.inf
            return k * math.log(t) - t + math.log(d)

        lo = self.seed._support()[0]
        hi = _poisson_window(k, lo)
        peak = min(max(float(k), lo + 0.5), hi)
        return log_quad(logf, lo, hi, points=[peak]) - special.gammaln(k + 1.0)

    def limit_seed(self) -> SeedDistribution:
        return self.seed


@dataclass(frozen=True)
class GeometricLaw(LimitLaw):
    """p_k = (gamma / (1 + gamma)) * (1 + gamma)**-k: exponential-seed mixture."""

    gamma: float
    kind = "geometric"
    seed_class = ExponentialSeed

    def _log_pmf(self, ks):
        g = self.gamma
        return math.log(g) - (ks + 1.0) * math.log1p(g)


@dataclass(frozen=True)
class NegativeBinomialLaw(LimitLaw):
    """p_k = C(r+k-1, k) (gamma/(1+gamma))**r (1+gamma)**-k: gamma-seed mixture."""

    r: float
    gamma: float
    kind = "negative_binomial"
    seed_class = GammaSeed

    def _log_pmf(self, ks):
        r, g = self.r, self.gamma
        return (special.gammaln(r + ks) - special.gammaln(ks + 1.0) - special.gammaln(r)
                + r * (math.log(g) - math.log1p(g)) - ks * math.log1p(g))


@dataclass(frozen=True)
class PowerLawTailLaw(LimitLaw):
    """Poisson mixture of the pure power-tail seed on (alpha, inf).

    p_k = alpha**(beta-1) (beta-1) / k! * G_k,  G_k = integral_alpha^inf t**(k-beta) e**-t dt,

    which decays like k**-beta.  G_k is the upper incomplete gamma
    Gamma(k+1-beta, alpha), in closed form through ``gammaincc`` for
    k + 1 - beta > 0.  The orders below that, and any order whose regularized
    gamma underflows, take the quadrature of the generic mixture
    ``PoissonMixtureLaw`` of the same seed, which the tests also use as the
    oracle of the closed form.
    """

    alpha: float
    beta: float
    kind = "power_law_tail"
    seed_class = PowerLawSeed

    def _log_pmf(self, ks):
        a = ks + 1.0 - self.beta
        log_g = np.full(ks.shape, np.nan)
        up = a > 0
        with np.errstate(divide="ignore"):
            log_g[up] = special.gammaln(a[up]) + np.log(special.gammaincc(a[up], self.alpha))
        out = ((self.beta - 1.0) * math.log(self.alpha) + math.log(self.beta - 1.0)
               - special.gammaln(ks + 1.0)) + log_g
        redo = ~np.isfinite(out)
        out[redo] = PoissonMixtureLaw(seed=self.limit_seed())._log_pmf(ks[redo])
        return out


@dataclass(frozen=True)
class LerchZipfLaw(LimitLaw):
    """p_k = (alpha + k)**-s / Phi(1, s, alpha): the Lerch-seed mixture."""

    alpha: float
    s: float
    kind = "lerch_zipf"
    seed_class = LerchSeed

    def __post_init__(self):     # wider than the seed's alpha > 1
        if not (self.alpha > 0 and self.s > 1):
            raise ParameterError("lerch zipf law needs alpha > 0 and s > 1")

    def _log_pmf(self, ks):
        norm = float(special.zeta(self.s, self.alpha))
        return -self.s * np.log(self.alpha + ks) - math.log(norm)


@dataclass(frozen=True)
class HierarchicalMixtureLaw(LimitLaw):
    """Two-term combination arising from a power-law cutoff over power laws.

    p_k = (g-1)/(g-b) p_{A,b}(k) - (b-1)/(g-b) p_{A,g}(k) with b = beta,
    g = gamma_exp; equals the exact double integral of the two-level model.
    """

    A: float
    beta: float
    gamma_exp: float
    kind = "hierarchical_mixture"
    seed_class = HierarchicalSeed

    def _pmf_array(self, ks: np.ndarray) -> np.ndarray:
        return self.limit_seed().combine(
            lambda part: np.exp(PowerLawTailLaw(*astuple(part))._log_pmf(ks)))

    def pmf(self, k):
        return shaped_like(self._pmf_array(check_orders(k, "degree")), k)

    def _log_pmf(self, ks):
        with np.errstate(divide="ignore"):
            return np.log(self._pmf_array(ks))


# closed-form Poisson mixtures, by the class of their seed
_CLOSED_FORMS = {law.seed_class: law for law in LimitLaw._kinds.values() if law.seed_class}


def default_limit_law(spec: MixingSpec) -> LimitLaw:
    """The out-degree limit naturally paired with a mixing law: the Poisson
    mixture of its limit seed, in closed form where one exists."""
    seed = spec.limit_seed()
    closed = _CLOSED_FORMS.get(type(seed))
    return closed(*astuple(seed)) if closed else PoissonMixtureLaw(seed=seed)


# ---------------------------------------------------------------------------
# exact finite-n laws


def out_pmf_exact(spec: MixingSpec, n: int, k) -> np.ndarray | float:
    """P{out-degree = k} for a row of width n under the mixing law."""
    ks = check_orders(k, "out-degree", hi=n)
    logc = special.gammaln(n + 1.0) - special.gammaln(ks + 1.0) - special.gammaln(n - ks + 1.0)
    return shaped_like(np.exp(logc + log_row_prob(spec, n, ks)), k)


def in_pmf_exact(config: EnsembleConfig, k) -> np.ndarray | float:
    """P{in-degree = k}: Binomial(m, mu_n) pmf at k for iid rows, averaged
    over the shared draw of the config's variant."""
    n, m = config.n, config.m
    ks = check_orders(k, "in-degree", hi=m)
    logc = special.gammaln(m + 1.0) - special.gammaln(ks + 1.0) - special.gammaln(m - ks + 1.0)

    def law(spec):  # xlogy and xlog1py read 0 log 0 as 0: the mu = 0 and 1 point masses
        mu = moment(spec, n, 1)
        return np.exp(logc + special.xlogy(ks, mu) + special.xlog1py(m - ks, -mu))

    return shaped_like(config.average(law), k)


def limit_pmf(law: LimitLaw, k) -> np.ndarray | float:
    """Evaluate a limit law pmf at k (vectorized)."""
    return law.pmf(k)


def tail_asymptote(alpha: float, beta: float, k) -> np.ndarray | float:
    """Leading large-k form of the power-tail mixture: a**(b-1) (b-1) k**-b."""
    PowerLawSeed(alpha, beta)     # the domain of (alpha, beta)
    ks = np.asarray(k, dtype=float)
    out = alpha ** (beta - 1.0) * (beta - 1.0) * ks ** (-beta)
    return out if np.ndim(k) else float(out)


# ---------------------------------------------------------------------------
# moment transfer diagnostic


@dataclass(frozen=True)
class MomentTransferReport:
    gamma_ord: float
    k_cap: int
    pmf_partial: float
    pmf_prev_decade: float
    pmf_stabilized: bool
    mixing_partial: float
    mixing_prev_decade: float
    mixing_stabilized: bool
    agree: bool
    both_finite_verdict: bool


# A tail k**(g - beta) gains 10**(g - beta + 1) times as much over a decade of the
# cap as over the one before, under 1 exactly when the order-g moment is finite.
# At most 1/2 reads as stabilized: a pure power tail then reads finite for
# g < beta - 1 - log10(2), a margin for the pmf's curvature before its tail.
# Growth within 1e-9 of the total (quadrature noise, as on light tails) counts too.
_DECADE_RATIO = 0.5


def _stabilized(first: float, prev: float, full: float) -> bool:
    return full - prev <= max(_DECADE_RATIO * (prev - first), 1e-9 * full)


def moment_transfer_check(law: LimitLaw, gamma_ord: float, k_cap: int = 10_000) -> MomentTransferReport:
    """Check that sum k**g p_k and integral t**g dF stabilize (or grow) together.

    A partial quantity has stabilized when its growth over the last decade of
    the cap is at most _DECADE_RATIO times its growth over the decade before.
    Finiteness of the two moments is equivalent, so the two stabilization
    flags must agree; the verdict field is their common value.
    """
    if not gamma_ord > 0:
        raise ParameterError("moment order gamma_ord must be positive")
    if k_cap < 100:
        raise ParameterError("k_cap must be at least 100 for a stabilization check")
    caps = [k_cap // 100, k_cap // 10, k_cap]
    pmf = law.pmf_range(k_cap)
    ks = np.arange(k_cap + 1, dtype=float)
    weights = ks ** gamma_ord
    weights[0] = 0.0
    sums = np.cumsum(weights * pmf)[caps].tolist()
    seed = law.limit_seed()
    mix = [seed.truncated_moment(gamma_ord, float(cap)) for cap in caps]
    pmf_stab, mix_stab = _stabilized(*sums), _stabilized(*mix)
    return MomentTransferReport(
        gamma_ord=gamma_ord, k_cap=k_cap,
        pmf_partial=sums[2], pmf_prev_decade=sums[1], pmf_stabilized=pmf_stab,
        mixing_partial=mix[2], mixing_prev_decade=mix[1], mixing_stabilized=mix_stab,
        agree=(pmf_stab == mix_stab), both_finite_verdict=(pmf_stab and mix_stab))


# ---------------------------------------------------------------------------
# helpers shared with the CLI and tests


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """TV distance restricted to the common support grid of p and q."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ParameterError("pmf arrays must share a shape")
    return 0.5 * float(np.abs(p - q).sum())


def write_pmf_table(path, ks, exact, limit) -> None:
    """CSV with columns k,exact,limit,abs_diff; the last two are empty when
    ``limit`` is None."""
    ks = np.atleast_1d(ks)
    exact = np.atleast_1d(exact)
    limit = [None] * len(ks) if limit is None else np.atleast_1d(limit)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k,exact,limit,abs_diff\n")
        for kk, ev, lv in zip(ks, exact, limit):
            ev = float(ev)
            cells = "," if lv is None else f"{float(lv)!r},{abs(ev - float(lv))!r}"
            fh.write(f"{int(kk)},{ev!r},{cells}\n")
