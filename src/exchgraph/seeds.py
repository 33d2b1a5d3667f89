"""Seed distributions on [0, infinity) for row-bias scaling limits.

A seed distribution F describes the limit in law of n * theta where theta is
a row bias drawn from the finite-n mixing law; every mixing family has one.
Seeds drive three things:

* the mixing laws that are their seed cut at n (:mod:`exchgraph.mixing`),
  where the finite-n law of theta is F(x n) / F(n) on [0, 1];
* Poisson-mixture degree limits (:mod:`exchgraph.degrees`), which each seed
  states (``_mixture_pmf``): geometric, negative binomial, incomplete-gamma,
  Lerch zipf and two-part closed forms, else one integral per order;
* kernel-counting rate functions through the Laplace transform
  ``integral exp(-s t) dF(t)`` (:mod:`exchgraph.gf2`).

The first two, and truncated moments, are one integral against the seed: ``_log_expect``
is log integral exp(log_f(t)) dF(t) over (lo, hi], one :func:`~exchgraph._numerics.log_quad`
of the density on its support (lo, hi), kinked at its ``_knots``, or at the point mass t0,
whose support is the zero-width (t0, t0), log_f(t0) where lo < t0 <= hi.

Each seed states its own Laplace transforms: elementary for the Dirac,
exponential and gamma seeds, incomplete gammas for the power-law, hierarchical
(two power-law parts), shifted Pareto and modulated power-law seeds, a quadrature
of the mixing weight for the Lerch seed.

The power-law and modulated power-law seeds are one law, ``_PowerTable``: the
density g(t) t**-beta / Z on (alpha, inf) with g linear on each piece of a table
(one constant piece for the power law).  One log-space sum over the pieces,
log integral g(t) t**p dt, gives Z, the CDF, truncated moments and the mixing laws
cut at n; the transforms are its sum of incomplete gammas in units of z**q e**-z.

Each seed owns its parameter domain, which its constructor checks for the
families that name it as ``seed_class``, and the finite-mean rule: the mean is
finite unless the power tail has eta <= 1.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from ._codec import JsonCodec
from ._numerics import checked_quad, log_quad, logsumexp, special
from .errors import InversionError, ParameterError, QuadratureError

__all__ = [
    "SeedDistribution",
    "DiracSeed",
    "ExponentialSeed",
    "GammaSeed",
    "ParetoTailSeed",
    "PowerLawSeed",
    "HierarchicalSeed",
    "LerchSeed",
    "ModulatedPowerLawSeed",
]


_TERMS = 1000   # the cap on the terms of each series and continued fraction below


@functools.lru_cache(maxsize=256)   # keeps Gamma(a, 1), which each z < 1 reads
def _upper_gamma(a: float, z: float, scaled: bool = False) -> float:
    """Upper incomplete gamma for any real a, z > 0; if ``scaled``, in units of
    z^a e^-z (finite where z^a or e^z overflows, for a <= 1).

    For a <= 1 and z >= 1: Legendre's continued fraction e^-z z^a / (z + 1 - a
    - 1 (1 - a) / (z + 3 - a - ...)).  Modified Lentz, whose denominators stay
    positive there, finds the depth where it has converged, and the fraction is
    summed back from there: within 7e-16 of 40-digit mpmath at z in [1, 3], where
    Lentz's running product lost 5e-15.  For a <= 1 and z < 1, Gamma(a, 1) adds
    the positive integral_z^1 t^(a-1) e^-t dt = sum_k (-1)^k (1 - z^(a+k)) / (k! (a+k)),
    whose terms at a + k = 0 read -log z; its terms shrink once a + k > 0, so a
    near a negative integer divides by no number near 0.  Scaled, a term's
    z^-a (1 - z^(a+k)) reads z^k (z^-(a+k) - 1), finite where z^(a+k) overflows.
    For a > 1, Gamma(a, z) = (a - 1) Gamma(a - 1, z) + z^(a-1) e^-z adds two positive terms.
    """
    if not z > 0:
        raise ParameterError("upper incomplete gamma needs z > 0")
    if a > 1.0:
        g = ((a - 1.0) * _upper_gamma(a - 1.0, z, True) + 1.0) / z
        return g if scaled else g * math.exp(a * math.log(z) - z)
    if z >= 1.0:
        b = z + 1.0 - a
        c, d = math.inf, 1.0 / b
        for i in range(1, _TERMS):
            b += 2.0
            d = 1.0 / (b - i * (i - a) * d)
            c = b - i * (i - a) / c
            if abs(d * c - 1.0) < 1e-16:
                break
        else:
            raise QuadratureError(f"Gamma({a}, {z}): Legendre's fraction did not converge")
        tail = 0.0
        for k in range(i, 0, -1):
            tail = k * (k - a) / (z + 2.0 * k + 1.0 - a - tail)
        return (1.0 if scaled else math.exp(a * math.log(z) - z)) / (z + 1.0 - a - tail)
    log_z, term = math.log(z), 1.0
    value = _upper_gamma(a, 1.0) * (math.exp(-a * log_z) if scaled else 1.0)
    for k in range(_TERMS):
        q = a + k
        if scaled:
            part = term * math.exp(k * log_z) * (-log_z if q == 0.0 else math.expm1(-q * log_z) / q)
        else:
            part = term * (-log_z if q == 0.0 else -math.expm1(q * log_z) / q)
        value += part
        if q > 0.0 and abs(part) < 1e-17 * value:
            return value * (math.exp(z) if scaled else 1.0)
        term /= -(k + 1.0)
    raise QuadratureError(f"Gamma({a}, {z}): its series did not converge")


def _log_power_int(a, b, p: float):
    """log integral_a^b t**p dt elementwise over arrays a, b > 0, b may be inf; -inf where
    b <= a.  The end where t**(p+1) is larger is factored out, so expm1 sees a negative
    argument and no power overflows."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    q = p + 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        if q == 0.0:
            val = np.log(np.log(b / a))
        else:
            big, small = (b, a) if q > 0 else (a, b)
            val = q * np.log(big) + np.log(-np.expm1(q * np.log(small / big))) - math.log(abs(q))
    return np.where(b > a, val, -np.inf)


def _log_lin(const, slope, log0, log1):
    """log(const e**log0 + slope e**log1) elementwise, a positive sum whose const may be
    negative: the two terms after factoring out the larger log; -inf where both are
    (an empty piece), or where rounding leaves the sum at or below 0."""
    top = np.maximum(log0, log1)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = const * np.exp(log0 - top) + slope * np.exp(log1 - top)
        return np.where(np.isfinite(top), top + np.log(np.maximum(val, 0.0)), top)


def _log_piece_mass(a, b, const, slope, p: float):
    """log integral_a^b (const + slope t) t**p dt elementwise; b may be inf where slope is 0."""
    log0 = _log_power_int(a, b, p)
    if not np.any(slope):   # constant pieces: const, which is g > 0, times one integral
        return np.log(const) + log0
    log1 = np.where(slope != 0.0, _log_power_int(a, b, p + 1.0), -np.inf)
    return _log_lin(const, slope, log0, log1)


def _power_quantile(u, a, b, beta: float):
    """t at level u in [0, 1) of the density ~ t**(-beta) on (a, b], elementwise, b may be
    inf: a (1 - u (1 - (a/b)**(beta-1)))**(-1/(beta-1)), whose one power of a/b may
    underflow to 0 but none can overflow.  Overwrites the array u, which it returns."""
    bm1 = beta - 1.0
    with np.errstate(divide="ignore"):      # log 0 at b = inf
        u *= -np.expm1(bm1 * np.log(a / b))
    np.subtract(1.0, u, out=u)
    np.power(u, -1.0 / bm1, out=u)
    u *= a
    return u


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
        quantile, then halved to max(1e-12, 4 ulp of its top) and clamped to the support.
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
            if np.all(hi - lo <= np.maximum(1e-12, 4.0 * np.spacing(hi))):
                break
        else:
            raise InversionError("quantile bisection failed to converge")
        return np.maximum(0.5 * (lo + hi), self._support()[0])

    _knots = ()     # points where the density has a kink: break points of its quadratures

    def _support(self):
        """(lo, hi): F has a density on (lo, hi), or is the point mass at lo = hi."""
        return 0.0, np.inf

    def _log_density(self, t) -> float:
        return np.log(self.density(t))

    def _log_expect(self, log_f, lo: float = -math.inf, hi: float = math.inf) -> float:
        """log integral of exp(log_f(t)) dF(t) over t in (lo, hi]: one quadrature
        of the density, or at a point mass t0 log_f(t0) where lo < t0 <= hi."""
        t_lo, t_hi = self._support()
        if t_lo == t_hi:
            return log_f(t_lo) if lo < t_lo <= hi else -math.inf
        return log_quad(lambda t: self._log_density(t) + log_f(t), max(t_lo, lo),
                        min(t_hi, hi), self._knots)

    def truncated_moment(self, order: float, cap: float) -> float:
        """integral_0^cap t**order dF(t)."""
        return math.exp(self._log_expect(lambda t: special.xlogy(order, t), hi=cap))

    def _mixture_pmf(self, ks: np.ndarray) -> np.ndarray:
        """The Poisson mixture p_k = integral t**k e**-t / k! dF(t) at int64 orders
        ks; seeds with a closed form override it, and the tests hold each to this."""
        logs = [self._log_expect(lambda t: special.xlogy(k, t) - t) for k in ks.ravel().tolist()]
        return np.exp(np.reshape(logs, ks.shape) - special.gammaln(ks + 1.0))


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

    def _mixture_pmf(self, ks):     # geometric: (gamma / (1 + gamma)) (1 + gamma)**-k
        return np.exp(math.log(self.gamma) - (ks + 1.0) * math.log1p(self.gamma))


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

    def _mixture_pmf(self, ks):     # negative binomial: C(r+k-1, k) (g/(1+g))**r (1+g)**-k
        r, g = self.r, self.gamma
        return np.exp(special.gammaln(r + ks) - special.gammaln(ks + 1.0) - special.gammaln(r)
                      + r * (math.log(g) - math.log1p(g)) - ks * math.log1p(g))


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
        return self.eta * _upper_gamma(-self.eta, z, scaled=True)

    def _t_laplace(self, s: float) -> float:
        z = self.alpha * s
        return self.eta * self.alpha * (_upper_gamma(1.0 - self.eta, z, scaled=True)
                                        - _upper_gamma(-self.eta, z, scaled=True))


class _PowerTable(SeedDistribution):
    """Density Z**-1 g(t) t**(-beta) on (alpha, inf), g > 0 const + slope t on each row
    (a, b, const, slope) of the piece table ``_segs``, whose last piece is constant and
    unbounded.  Each law is a sum over the pieces in logs, so no power of t, alpha or Z
    overflows: of power integrals, or of incomplete gammas for the transforms."""

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 1):
            raise ParameterError("power law seed needs alpha > 0 and beta > 1")
        object.__setattr__(self, "_segs", self._table())
        object.__setattr__(self, "_rows", self._segs.tolist())
        object.__setattr__(self, "_starts", self._segs[:, 0].tolist())
        object.__setattr__(self, "_log_z", float(self._log_power_sum(-self.beta, math.inf)))

    def _log_power_sum(self, p: float, cap, lo=0.0):
        """log integral of g(t) t**p dt over (max(alpha, lo), cap), elementwise in cap."""
        a, b, const, slope = self._segs.T
        cap = np.asarray(cap, dtype=float)[..., None]
        return logsumexp(_log_piece_mass(np.clip(a, lo, cap), np.clip(b, lo, cap), const,
                                        slope, p))

    def cdf(self, x):
        return np.exp(self._log_power_sum(-self.beta, x) - self._log_z)

    def _log_density(self, t):
        """log g(t) - beta log t - log Z: a scalar (a quadrature node) in math on the
        piece that bisect finds, an array elementwise in NumPy."""
        if isinstance(t, (int, float)):
            _, _, const, slope = self._rows[max(bisect.bisect_right(self._starts, t) - 1, 0)]
            return (math.log(const + slope * t) - self.beta * math.log(t) - self._log_z
                    if t > self.alpha else -math.inf)
        t = np.asarray(t, dtype=float)
        a, _, const, slope = self._segs.T
        k = np.maximum(np.searchsorted(a, t, side="right") - 1, 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.log(const[k] + slope[k] * t) - self.beta * np.log(t) - self._log_z
        return np.where(t > self.alpha, out, -np.inf)

    def density(self, x):
        return np.exp(self._log_density(x))

    def truncated_moment(self, order: float, cap: float) -> float:
        return float(np.exp(self._log_power_sum(order - self.beta, cap) - self._log_z))

    def power_tail(self):
        bm1 = self.beta - 1.0
        return math.exp(math.log(self._segs[-1, 2]) - self._log_z - math.log(bm1)), bm1

    def _quantile(self, u, cap=math.inf):
        """t at level u of the law cut at cap, overwriting the uniform array u: the piece
        by its share of the cut mass, then the level within it, closed form on a constant
        piece and 80 halvings of its share on a sloped one."""
        segs = self._segs[self._segs[:, 0] < cap]
        segs[-1, 1] = min(segs[-1, 1], cap)
        if len(segs) == 1 and segs[0, 3] == 0.0:    # one constant piece: in place, no index
            return _power_quantile(u, segs[0, 0], segs[0, 1], self.beta)
        log_m = _log_piece_mass(*segs.T, -self.beta)
        share = np.exp(log_m - logsumexp(log_m))
        below = np.concatenate([[0.0], np.cumsum(share)[:-1]])
        k = np.minimum(np.searchsorted(below, u, side="right") - 1, np.flatnonzero(share)[-1])
        u -= below[k]
        u /= share[k]
        np.clip(u, 0.0, 1.0 - 2.0 ** -53, out=u)
        a, b, const, slope = segs[k].T
        sloped = np.flatnonzero(slope)
        left, lo, hi, level = a[sloped], a[sloped], b[sloped], u[sloped]
        c, m, whole = const[sloped], slope[sloped], log_m[k[sloped]]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            under = np.exp(_log_piece_mass(left, mid, c, m, -self.beta) - whole) < level
            lo, hi = np.where(under, mid, lo), np.where(under, hi, mid)
        t = _power_quantile(u, a, b, self.beta)
        t[sloped] = 0.5 * (lo + hi)
        return t

    def inverse_cdf(self, u):
        u = np.array(u, dtype=float)
        return self._quantile(u.reshape(-1)).reshape(u.shape)

    def _support(self):
        return self.alpha, np.inf

    def _log_gamma_sum(self, p: float, s: float) -> float:
        """log integral g(t) t**p e**(-s t) dt: on each piece (a, b), const and slope times
        integral_a^b t**(q-1) e**(-s t) dt at q = p + 1 and p + 2.  That is E(a) - E(b),
        E(x) = x**q e**(-s x) G(q, s x) with G the scaled upper gamma, or, for q > 0 and
        s b < 1, where both are near Gamma(q) s**-q, a difference of lower gammas."""
        def part(q, a, b):
            if q > 0.0 and s * b < 1.0:
                return (math.lgamma(q) - q * math.log(s)
                        + np.log(special.gammainc(q, s * b) - special.gammainc(q, s * a)))
            end = lambda x: q * math.log(x) - s * x + math.log(_upper_gamma(q, s * x, True))
            with np.errstate(divide="ignore"):
                return end(a) + (np.log(-np.expm1(end(b) - end(a))) if b < math.inf else 0.0)

        return float(logsumexp([_log_lin(c, m, part(p + 1.0, a, b), part(p + 2.0, a, b)) if m
                                else math.log(c) + part(p + 1.0, a, b)
                                for a, b, c, m in self._segs.tolist()]))

    def _laplace(self, s: float) -> float:
        return math.exp(self._log_gamma_sum(-self.beta, s) - self._log_z)

    def _t_laplace(self, s: float) -> float:
        return math.exp(self._log_gamma_sum(1.0 - self.beta, s) - self._log_z)


@dataclass(frozen=True)
class PowerLawSeed(_PowerTable):
    """Pure power tail: F(x) = 1 - (alpha / x)**(beta - 1) on x >= alpha, the table of
    one constant piece.

    This is the scaling limit of the truncated power-law mixing family with
    the same (alpha, beta); its mean is finite only for beta > 2.
    """

    alpha: float
    beta: float
    kind = "power_law"

    def _table(self):
        return np.array([[self.alpha, math.inf, 1.0, 0.0]])

    def _mixture_pmf(self, ks):
        """p_k = alpha**(beta-1) (beta-1) / k! Gamma(k+1-beta, alpha), which decays
        like k**-beta, through ``gammaincc`` for k + 1 - beta > 0.  The orders
        below that, and any whose regularized gamma underflows, take the base route."""
        a = ks + 1.0 - self.beta
        log_g = np.full(ks.shape, np.nan)
        up = a > 0
        with np.errstate(divide="ignore"):
            log_g[up] = special.gammaln(a[up]) + np.log(special.gammaincc(a[up], self.alpha))
        out = ((self.beta - 1.0) * math.log(self.alpha) + math.log(self.beta - 1.0)
               - special.gammaln(ks + 1.0)) + log_g
        redo = ~np.isfinite(out)
        out = np.exp(out)
        out[redo] = super()._mixture_pmf(ks[redo])
        return out


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
        object.__setattr__(self, "_parts", (PowerLawSeed(self.A, self.beta),
                                            PowerLawSeed(self.A, self.gamma_exp)))

    def combine(self, part):
        """The combination above of ``part(P_b)`` and ``part(P_g)``."""
        b, g = self.beta, self.gamma_exp
        low, high = map(part, self._parts)
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

    def _mixture_pmf(self, ks):
        return self.combine(lambda p: p._mixture_pmf(ks))


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

    def _mixture_pmf(self, ks):     # the Lerch zipf law (alpha + k)**-s / Phi(1, s, alpha)
        norm = float(special.zeta(self.s, self.alpha))
        return np.exp(-self.s * np.log(self.alpha + ks) - math.log(norm))


@dataclass(frozen=True)
class ModulatedPowerLawSeed(_PowerTable):
    """Density Z**-1 g(t) t**(-beta) on (alpha, inf), g linear between the (tau,
    value) pairs of ``g_table``, constant beyond either end and positive: the
    modulated power-law family's n theta is this law cut at n.  Its table has a
    piece between each two knots past alpha; the unbounded last piece sets the tail."""

    alpha: float
    beta: float
    g_table: tuple
    kind = "modulated_power_law"

    def _table(self):
        pts = tuple((float(t), float(v)) for t, v in self.g_table)
        if len(pts) < 2:
            raise ParameterError("g table needs at least two points")
        taus, vals = map(np.array, zip(*pts))
        if not np.all(np.diff(taus) > 0):
            raise ParameterError("g table abscissae must be strictly increasing")
        if taus[0] < 0:
            raise ParameterError("g table abscissae must be >= 0")
        if not np.all(vals > 0):
            raise ParameterError("g table values must be strictly positive")
        object.__setattr__(self, "g_table", pts)
        object.__setattr__(self, "_knots", tuple(taus.tolist()))
        # rows (a, b, const, slope) of the pieces of (alpha, inf) between knots, each
        # from the interval of the last knot k at or below its start
        cuts = np.concatenate([[self.alpha], taus[taus > self.alpha], [math.inf]])
        k = np.searchsorted(taus, cuts[:-1], side="right") - 1
        inner, j = (k >= 0) & (k < len(taus) - 1), np.clip(k, 0, len(taus) - 2)
        with np.errstate(over="ignore", invalid="ignore"):     # knots an ulp apart: slope inf
            slope = np.where(inner, np.diff(vals)[j] / np.diff(taus)[j], 0.0)
            const = np.where(inner, vals[j] - slope * taus[j], vals[np.maximum(k, 0)])
        return np.stack([cuts[:-1], cuts[1:], const, slope], axis=1)
