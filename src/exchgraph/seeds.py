"""Seed distributions on [0, infinity) for row-bias scaling limits.

A seed distribution F describes the limit in law of n * theta where theta is
a row bias drawn from the finite-n mixing law.  Seeds drive three things:

* size-coupled mixing laws (``SeedCdf`` in :mod:`exchgraph.mixing`), where the
  finite-n law of theta is F(x n) / F(n) on [0, 1];
* Poisson-mixture degree limits (:mod:`exchgraph.degrees`);
* kernel-counting rate functions through the Laplace transform
  ``integral exp(-s t) dF(t)`` (:mod:`exchgraph.gf2`).

Each seed states its own Laplace transforms: elementary for the Dirac,
exponential and gamma seeds, incomplete gammas for the power-law, hierarchical
(two power-law parts) and shifted Pareto seeds, a quadrature of the mixing
weight for the Lerch seed.  Other quantities without a closed form go through
checked adaptive quadrature.

A seed has a density on its support (lo, hi), except the point mass at t0,
whose support is the zero-width (t0, t0).

Each seed owns its parameter domain, which its constructor checks for the
families that name it as ``seed_class``, and the finite-mean rule: the mean is
finite unless the power tail has eta <= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._codec import JsonCodec
from ._numerics import checked_quad, log_quad, special
from .errors import InversionError, ParameterError

__all__ = [
    "SeedDistribution",
    "DiracSeed",
    "ExponentialSeed",
    "GammaSeed",
    "ParetoTailSeed",
    "PowerLawSeed",
    "HierarchicalSeed",
    "LerchSeed",
]


def _upper_gamma(a: float, z: float, scaled: bool = False) -> float:
    """Upper incomplete gamma for any real a, z > 0; times e^z if ``scaled``
    (finite where e^z overflows, for a < 1).

    For a < 1 and z > 2: Legendre's continued fraction e^-z z^a / (z + 1 - a
    - 1 (1 - a) / (z + 3 - a - ...)) by modified Lentz, whose denominators
    stay positive there.  Other nonpositive a is lifted into (0, 1] and walked
    down by Gamma(a, z) = (Gamma(a+1, z) - z^a e^-z) / a, whose subtractions
    cancel once z is large.  Within 0.01 of a negative integer or 0, one step
    divides by a number near 0 (1e-9 lost at a = -1e-6), so there Gamma(a, z)
    is the integral of the positive exp(a u - e^u) over u > log z.
    """
    if not z > 0:
        raise ParameterError("upper incomplete gamma needs z > 0")
    if a < 1.0 and z > 2.0:
        b = z + 1.0 - a
        c, d, h = math.inf, 1.0 / b, 1.0 / b
        for i in range(1, 1000):
            b += 2.0
            d = 1.0 / (b - i * (i - a) * d)
            c = b - i * (i - a) / c
            h *= d * c
            if abs(d * c - 1.0) < 1e-16:
                break
        return math.exp(a * math.log(z) - (0.0 if scaled else z)) * h
    scale = math.exp(z) if scaled else 1.0
    if a < 0.0 and 0.0 < abs(a - round(a)) < 0.01:
        # the integrand is below exp(-1000) past u = 7
        return scale * checked_quad(lambda u: math.exp(a * u - math.exp(u)), math.log(z), 7.0)
    steps = 0
    while a < 0.0:
        a += 1.0
        steps += 1
    if a == 0.0:
        value = float(special.exp1(z))
    else:
        value = float(special.gammaincc(a, z)) * math.gamma(a)
    for _ in range(steps):
        a -= 1.0
        value = (value - z ** a * math.exp(-z)) / a
    return scale * value


class SeedDistribution(JsonCodec, tag="kind", error=ParameterError, family="seed"):
    """Base interface; subclasses override closed forms where available."""

    # -- distribution surface -------------------------------------------------
    def cdf(self, x):
        raise NotImplementedError

    def density(self, x):
        raise ParameterError(f"{self.kind} seed has no density")

    def mean_is_finite(self) -> bool:
        """The mean is finite unless the seed has a power tail of exponent eta <= 1."""
        tail = self.power_tail()
        return tail is None or tail[1] > 1.0

    def power_tail(self):
        """(c, eta) with 1 - F(x) ~ c * x**(-eta), or None if not power-type."""
        return None

    # -- transforms: each seed states _laplace(s) and _t_laplace(s) for s > 0 --
    def laplace(self, s: float) -> float:
        """integral exp(-s t) dF(t)."""
        if s < 0:
            raise ParameterError("laplace transform argument must be >= 0")
        return 1.0 if s == 0 else self._laplace(s)

    def t_laplace(self, s: float) -> float:
        """integral t exp(-s t) dF(t); diverges at s=0 for infinite-mean seeds."""
        if s <= 0:
            raise ParameterError("t-weighted laplace transform needs s > 0")
        return self._t_laplace(s)

    # -- sampling -------------------------------------------------------------
    def inverse_cdf(self, u):
        """Quantile function, vectorized; generic route bisects the CDF.

        The bracket is grown geometrically from [0, 1] until it contains the
        quantile, then halved to an absolute width of 1e-12.
        """
        u = np.asarray(u, dtype=float)
        if np.any((u < 0.0) | (u >= 1.0)):
            raise ParameterError("quantile argument must lie in [0, 1)")
        hi_scalar = 1.0
        for _ in range(200):
            if np.all(self.cdf(hi_scalar) > np.max(u)):
                break
            hi_scalar *= 2.0
        else:
            raise InversionError("could not bracket the requested quantile")
        lo = np.zeros_like(u)
        hi = np.full_like(u, hi_scalar)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            below = self.cdf(mid) < u
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
            if np.max(hi - lo) < 1e-12:
                break
        else:
            raise InversionError("quantile bisection failed to converge")
        return 0.5 * (lo + hi)

    def _support(self):
        """(lo, hi): F has a density on (lo, hi), or is the point mass at lo = hi."""
        return 0.0, np.inf

    def truncated_moment(self, order: float, cap: float) -> float:
        """integral_0^cap t**order dF(t)."""
        lo, hi = self._support()
        if lo == hi:
            return lo ** order if lo <= cap else 0.0
        return math.exp(log_quad(lambda t: special.xlogy(order, t) + np.log(self.density(t)),
                                 lo, cap))


@dataclass(frozen=True)
class DiracSeed(SeedDistribution):
    """Point mass at t0 >= 0: the scaling limit of a fixed row bias t0 / n."""

    t0: float
    kind = "dirac"

    def __post_init__(self):
        if not self.t0 >= 0:
            raise ParameterError("dirac seed needs t0 >= 0")

    def cdf(self, x):
        return np.where(np.asarray(x, dtype=float) >= self.t0, 1.0, 0.0)

    def _laplace(self, s: float) -> float:
        return math.exp(-s * self.t0)

    def _t_laplace(self, s: float) -> float:
        return self.t0 * math.exp(-s * self.t0)

    def inverse_cdf(self, u):
        u = np.asarray(u, dtype=float)
        return np.full_like(u, self.t0)

    def _support(self):
        return self.t0, self.t0


@dataclass(frozen=True)
class ExponentialSeed(SeedDistribution):
    """F(x) = 1 - exp(-gamma x); degree limit is geometric."""

    gamma: float
    kind = "exponential"

    def __post_init__(self):
        if not self.gamma > 0:
            raise ParameterError("exponential seed needs gamma > 0")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0, -np.expm1(-self.gamma * x), 0.0)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, self.gamma * np.exp(-self.gamma * x), 0.0)

    def _laplace(self, s: float) -> float:
        return self.gamma / (self.gamma + s)

    def _t_laplace(self, s: float) -> float:
        return self.gamma / (self.gamma + s) ** 2

    def inverse_cdf(self, u):
        u = np.asarray(u, dtype=float)
        return -np.log1p(-u) / self.gamma


@dataclass(frozen=True)
class GammaSeed(SeedDistribution):
    """Gamma(shape r, rate gamma); degree limit is negative binomial."""

    r: float
    gamma: float
    kind = "gamma"

    def __post_init__(self):
        if not (self.r > 0 and self.gamma > 0):
            raise ParameterError("gamma seed needs r > 0 and gamma > 0")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return special.gammainc(self.r, self.gamma * np.clip(x, 0.0, None))

    def density(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            logpdf = (self.r * math.log(self.gamma) + (self.r - 1.0) * np.log(x)
                      - self.gamma * x - special.gammaln(self.r))
        return np.where(x > 0, np.exp(logpdf), 0.0)

    def _laplace(self, s: float) -> float:
        return (self.gamma / (self.gamma + s)) ** self.r

    def _t_laplace(self, s: float) -> float:
        return self.r * self.gamma ** self.r / (self.gamma + s) ** (self.r + 1.0)

    def inverse_cdf(self, u):
        u = np.asarray(u, dtype=float)
        return special.gammaincinv(self.r, u) / self.gamma


@dataclass(frozen=True)
class ParetoTailSeed(SeedDistribution):
    """Shifted Pareto: 1 - F(x) = alpha**eta / (alpha + x)**eta on x >= 0."""

    alpha: float
    eta: float
    kind = "pareto_tail"

    def __post_init__(self):
        if not (self.alpha > 0 and self.eta > 0):
            raise ParameterError("pareto tail seed needs alpha > 0 and eta > 0")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        xp = np.clip(x, 0.0, None)
        return 1.0 - (self.alpha / (self.alpha + xp)) ** self.eta

    def density(self, x):
        x = np.asarray(x, dtype=float)
        val = self.eta * self.alpha ** self.eta / (self.alpha + x) ** (self.eta + 1.0)
        return np.where(x >= 0, val, 0.0)

    def power_tail(self):
        return self.alpha ** self.eta, self.eta

    def inverse_cdf(self, u):
        u = np.asarray(u, dtype=float)
        return self.alpha * ((1.0 - u) ** (-1.0 / self.eta) - 1.0)

    # with u = alpha + t, both are e^z integrals of u**p e^(-s u) over u > alpha, z = alpha s
    def _laplace(self, s: float) -> float:
        z = self.alpha * s
        return self.eta * z ** self.eta * _upper_gamma(-self.eta, z, scaled=True)

    def _t_laplace(self, s: float) -> float:
        z = self.alpha * s
        return (self.eta * self.alpha ** self.eta * s ** (self.eta - 1.0)
                * (_upper_gamma(1.0 - self.eta, z, scaled=True)
                   - z * _upper_gamma(-self.eta, z, scaled=True)))


@dataclass(frozen=True)
class PowerLawSeed(SeedDistribution):
    """Pure power tail: F(x) = 1 - (alpha / x)**(beta - 1) on x >= alpha.

    This is the scaling limit of the truncated power-law mixing family with
    the same (alpha, beta); its mean is finite only for beta > 2.
    """

    alpha: float
    beta: float
    kind = "power_law"

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 1):
            raise ParameterError("power law seed needs alpha > 0 and beta > 1")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            val = 1.0 - (self.alpha / x) ** (self.beta - 1.0)
        return np.where(x > self.alpha, val, 0.0)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            val = (self.beta - 1.0) * self.alpha ** (self.beta - 1.0) * x ** (-self.beta)
        return np.where(x > self.alpha, val, 0.0)

    def power_tail(self):
        return self.alpha ** (self.beta - 1.0), self.beta - 1.0

    def inverse_cdf(self, u):
        u = np.asarray(u, dtype=float)
        return self.alpha * (1.0 - u) ** (-1.0 / (self.beta - 1.0))

    def _laplace(self, s: float) -> float:
        # (beta-1) alpha^(beta-1) s^(beta-1) Gamma(1-beta, alpha s)
        bm1 = self.beta - 1.0
        return bm1 * (self.alpha * s) ** bm1 * _upper_gamma(1.0 - self.beta,
                                                           self.alpha * s)

    def _t_laplace(self, s: float) -> float:
        bm1 = self.beta - 1.0
        return (bm1 * self.alpha ** bm1 * s ** (self.beta - 2.0)
                * _upper_gamma(2.0 - self.beta, self.alpha * s))

    def _support(self):
        return self.alpha, np.inf


@dataclass(frozen=True)
class HierarchicalSeed(SeedDistribution):
    """Scaling limit of the hierarchical mixing family: F = (g-1)/(g-b) P_b -
    (b-1)/(g-b) P_g with b = beta, g = gamma_exp and P_e the power-law seed of
    exponent e above A.  F has a positive density on (A, inf)."""

    A: float
    beta: float
    gamma_exp: float
    kind = "hierarchical"

    def __post_init__(self):
        if not (self.A > 0 and self.gamma_exp > self.beta > 2):
            raise ParameterError("hierarchical seed needs gamma_exp > beta > 2 and A > 0")

    def combine(self, part):
        """The combination above of ``part(P_b)`` and ``part(P_g)``."""
        b, g = self.beta, self.gamma_exp
        low, high = part(PowerLawSeed(self.A, b)), part(PowerLawSeed(self.A, g))
        return (g - 1.0) / (g - b) * low - (b - 1.0) / (g - b) * high

    def cdf(self, x):
        return self.combine(lambda p: p.cdf(x))

    def density(self, x):
        return self.combine(lambda p: p.density(x))

    def power_tail(self):
        b, g = self.beta, self.gamma_exp
        return (g - 1.0) / (g - b) * self.A ** (b - 1.0), b - 1.0

    def _laplace(self, s: float) -> float:
        return self.combine(lambda p: p._laplace(s))

    def _t_laplace(self, s: float) -> float:
        return self.combine(lambda p: p._t_laplace(s))

    def _support(self):
        return self.A, np.inf


@dataclass(frozen=True)
class LerchSeed(SeedDistribution):
    """Exponential-mixture seed whose Poisson mixture is the Lerch zipf pmf.

    The density is, for x > 0 and alpha > 1, s > 1,

        f(x) = Z^-1 * integral_0^inf tau**(s-1) e**(-(alpha-1) tau) exp(-x (e**tau - 1)) dtau

    with Z = Gamma(s) * Phi(1, s, alpha) and Phi(1, s, alpha) the Hurwitz-type
    normalizer sum_{k>=0} (alpha+k)**(-s).  The CDF and both Laplace transforms
    are tau-integrals of the same weight.  In tau the integrand stays bounded
    and falls off double-exponentially once e**tau passes 1/x, where the form
    in u = e**tau - 1 has a slow tail out to u ~ 1/x that quadrature cannot
    resolve for x below about 1e-8.
    """

    alpha: float
    s: float
    kind = "lerch"

    def __post_init__(self):
        if not (self.alpha > 1 and self.s > 1):
            raise ParameterError("lerch seed needs alpha > 1 and s > 1")

    def _norm(self) -> float:
        return float(special.gamma(self.s) * special.zeta(self.s, self.alpha))

    def _tau_integral(self, h) -> float:
        """Z^-1 integral_0^inf tau**(s-1) e**(-(alpha-1) tau) h(e**tau - 1) dtau."""
        def f(tau: float) -> float:
            if tau <= 0.0:
                return 0.0
            # e**tau overflows past 709, where every h used here has vanished
            u = math.expm1(tau) if tau < 700.0 else math.inf
            return math.exp((self.s - 1.0) * math.log(tau) - (self.alpha - 1.0) * tau) * h(u)

        return checked_quad(f, 0.0, np.inf, rel_tol=1e-9) / self._norm()

    def _pointwise(self, x, one):
        """Apply the scalar ``one`` at each x > 0 (0 elsewhere), keeping x's shape."""
        x = np.asarray(x, dtype=float)
        out = np.array([one(xv) if xv > 0 else 0.0 for xv in x.ravel()])
        return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)

    def density(self, x):
        return self._pointwise(x, lambda xv: self._tau_integral(lambda u: math.exp(-xv * u)))

    def cdf(self, x):
        # integral_0^x of exp(-t u) dt is (1 - exp(-x u)) / u
        return self._pointwise(x, lambda xv: self._tau_integral(
            lambda u: -math.expm1(-xv * u) / u if u > 0 else xv))

    def mean_is_finite(self) -> bool:
        # no power tail is stated; from the pmf tail (alpha+k)**(-s): finite iff s > 2
        return self.s > 2.0

    def _laplace(self, s: float) -> float:
        return self._tau_integral(lambda u: 1.0 / (u + s))

    def _t_laplace(self, s: float) -> float:
        return self._tau_integral(lambda u: 1.0 / (u + s) / (u + s))
