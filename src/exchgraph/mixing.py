"""Row-bias mixing laws and their moments, tails, and transforms.

A mixing law ``pi_n`` is a probability measure on [0, 1] governing the bias
theta of a matrix row of width n.  The families implemented here:

``DiracMixing(lam)``
    Point mass at theta = lam / n.
``PowerLawMixing(alpha, beta)``
    Density proportional to theta**(-beta) on (alpha/n, 1]; needs n > alpha.
``ModulatedPowerLawMixing(alpha, beta, g_table)``
    Density proportional to g(n theta) * theta**(-beta) on (alpha/n, 1] with
    g tabulated, piecewise linear, and bounded away from 0 and infinity.
``SeedCdfMixing(seed)``
    CDF x -> F(x n) / F(n) built from a seed distribution F on [0, inf).
``HierarchicalMixing(A, beta, gamma_exp)``
    First draw a cutoff a ~ const * a**(-gamma) on [A, n/2], then theta from
    ``PowerLawMixing(a, beta)``; requires gamma_exp > beta > 2.  Its weight
    in t = n theta is closed-form, so its laws take one quadrature each.

Public operations validate the spec against n and then call the family's
own hooks: :func:`sample_thetas`, :func:`moment`, :func:`tail`, :func:`xi`,
and the log-space row polynomial :func:`log_row_prob` that degree and motif
formulas build on.  Each family also names the ``seed_class`` of its scaling
limit ``limit_seed()``, the seed of n * theta (all but the modulated power
law; seed-cdf returns its own seed), and its JSON form: the ``variant``
discriminator plus one key per field, with ``lam`` written as ``"lambda"``
(``MixingSpec.from_json`` reads it back).  Building a family builds its seed,
whose constructor checks the parameter domain; ``row_exponent`` is the one
family hook beyond the seed.

:func:`log_row_prob` and :func:`xi` take one order or an array of orders.

Numerical policy: closed forms for Dirac and the pure power family; adaptive
quadrature after the substitution t = n * theta everywhere else, so the
integrand is O(1) near the lower support edge; the two quadratures over the
density of t are written once, in ``MixingSpec``, and no family nests one
quadrature inside another.  The signed moment
``xi(i) = E (1 - 2 theta)**i`` is expanded into ordinary moments for small i
and split at theta = 1/2 into two single-sign integrals for large i, which
avoids the alternating-sum cancellation.

For the pure power family the row polynomial and both halves of the split
signed moment are incomplete beta functions, in closed form wherever that
holds ``REL_TOL``: B(a, b) I_x^c(a, b) for row weights r > beta - 1, and
``_upper_beta`` for the rest and for signed moments above the expansion.
Quadrature (the scalar hooks ``_log_row_prob`` and ``_xi``, also the oracle of
each closed form) stays for beta within ``_XI_LIFT_MIN`` above an integer,
orders beyond ``_WALK_GAIN_MAX``, xi at 2 alpha >= n, and other families.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field

import numpy as np

from ._codec import JsonCodec
from ._numerics import REL_TOL, check_orders, checked_quad, log_quad, shaped_like, special
from .errors import ParameterError
from .seeds import SeedDistribution, DiracSeed, HierarchicalSeed, PowerLawSeed

__all__ = [
    "MixingSpec",
    "DiracMixing",
    "PowerLawMixing",
    "ModulatedPowerLawMixing",
    "SeedCdfMixing",
    "HierarchicalMixing",
    "sample_thetas",
    "moment",
    "tail",
    "xi",
    "log_row_prob",
]

# Binomial expansion of (1 - 2 theta)**i is safe up to this order; beyond it
# the alternating sum loses more digits than the split quadrature does.
_XI_EXPANSION_MAX = 10

# _upper_beta walks down from a - floor(a) in (0, 1), dividing first by beta's
# distance above the integer below it.  Measured against mpmath at n <= 5e4
# that costs 2e-10 at a distance of 1e-4, 1e-11 at 1e-3 and 3e-12 at 1e-2, so
# under 1e-2 quadrature stays.  Integer beta starts from a = 0 and has no such step.
_XI_LIFT_MIN = 0.01
# Each step magnifies the error of the one before by |(a+b) U(a+1, b) / (a U(a, b))|,
# about b x / |a| for b x > |a|.  Against mpmath (a in [-8, 1], b <= 5e4) the error
# stayed under 4e-15 times their product, so above 1e4 (b x past 10-40) quadrature stays.
_WALK_GAIN_MAX = 1e4


def _log_power_int(a: float, b: float, p: float) -> float:
    """log of integral_a^b t**p dt for 0 < a < b, any real p."""
    if not 0 < a < b:
        raise ParameterError(f"bad power-integral range [{a}, {b}]")
    q = p + 1.0
    if q == 0.0:
        return math.log(math.log(b / a))
    if q > 0:
        return q * math.log(b) + math.log1p(-math.exp(q * math.log(a / b))) - math.log(q)
    return q * math.log(a) + math.log1p(-math.exp(q * math.log(b / a))) - math.log(-q)


def _power_int(a, b, p: float):
    """integral_a^b t**p dt elementwise over arrays a, b > 0; 0 where b <= a."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    q = p + 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        if q == 0.0:
            val = np.log(b / a)
        else:
            # factor out the end where t**q is larger, so expm1 sees a negative argument
            big, small = (b, a) if q > 0 else (a, b)
            val = big ** q * -np.expm1(q * np.log(small / big)) / abs(q)
    return np.where(b > a, val, 0.0)


def _stirling_rest(x):
    """log Gamma(x) - (x - 1/2) log x + x - log(2 pi) / 2, for x >= 10."""
    x2 = x * x
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * x2)) / x2) / x2) / x2) / x


def _log_beta(c: float, b):
    """log B(c, b) for 0 < c <= 1 and b >= 10, to a few ulps.

    ``special.betaln`` subtracts two log-gammas of size b log b and so loses
    about eps * b log b; here Stirling's series cancels those terms exactly.
    """
    return (special.gammaln(c) - (b - 0.5) * np.log1p(c / b) - c * np.log(b + c) + c
            + _stirling_rest(b) - _stirling_rest(b + c))


def _upper_beta(a, b, x: float):
    """U(a, b; x) = integral_x^1 u**(a-1) (1-u)**(b-1) du elementwise over a <= 1,
    integer b >= 1, 0 < x < 1: by parts, a U(a, b) = (a + b) U(a + 1, b) - x**a (1-x)**b,
    down from a0 = a - floor(a), where U = B(a0, b) I_x^c(a0, b), or at integer a
    U(0, b) = sum_{k >= b} (1-x)**k / k.  NaN where that does not hold ``REL_TOL``."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    steps = np.maximum(-np.floor(a), 0.0)
    a0, lam, gain = a + steps, -math.log1p(-x), np.ones(a.shape)
    with np.errstate(all="ignore"):
        out = special.betaincc(a0, b, x) * np.exp(np.where(
            b >= 10.0, _log_beta(a0, np.maximum(b, 10.0)), special.betaln(a0, b)))
        if (a0 == 0).any():
            # to K = max b + 8192 from the far end, the rest by Euler-Maclaurin: off by
            # (lam + 1/K)**4 / 120 of the sum: 5e-12 at most, since lam K > 40 leaves no rest
            bs = b[a0 == 0]
            lo, hi = int(bs.min()), int(bs.max()) + 8192
            k = np.arange(hi - 1, lo - 1, -1.0)
            rest = special.exp1(lam * hi) + math.exp(-lam * hi) * (6.0 + lam + 1 / hi) / (12 * hi)
            out[a0 == 0] = (rest + np.cumsum(np.exp(-lam * k) / k))[hi - 1 - bs.astype(int)]
        for s in range(int(steps.max(initial=0.0))):
            c = a0 - s - 1.0
            big = (c + b) * out
            down = (big - x ** c * np.exp(-lam * b)) / c
            gain = np.where(steps > s, gain * np.abs(big / (c * down)), gain)
            out = np.where(steps > s, down, out)
    return np.where((steps > 0) & (a0 > 1 - _XI_LIFT_MIN) | ~(gain <= _WALK_GAIN_MAX), np.nan, out)


def _power_quantile(u, alpha, n: int, beta: float):
    """theta at CDF level u under the density ~ theta**(-beta) on (alpha/n, 1].

    F(x) = ((n/alpha)**(beta-1) - x**(1-beta)) / ((n/alpha)**(beta-1) - 1).
    """
    bm1 = beta - 1.0
    top = (n / alpha) ** bm1
    return (top - u * (top - 1.0)) ** (-1.0 / bm1)


class MixingSpec(JsonCodec, tag="variant", error=ParameterError, family="mixing"):
    """Base class; concrete families fill in the hooks below."""

    seed_class = None   # the class of limit_seed(), whose fields are the family's, in order

    def __post_init__(self):
        if self.seed_class is not None:
            self.limit_seed()

    def validate(self, n: int) -> None:
        if not (isinstance(n, (int, np.integer)) and n >= 1):
            raise ParameterError(f"matrix width n must be a positive integer, got {n!r}")

    # hooks ------------------------------------------------------------------
    def _moment(self, n: int, i: int) -> float:
        return 1.0 if i == 0 else self._partial(n, lambda th: th ** i, 0.0, 1.0)

    def _tail(self, n: int, t: float) -> float:
        return self._partial(n, lambda th: 1.0, t, 1.0)

    # A family with a density in t = n theta states it: _t_support(n) -> (lo,
    # hi), _t_weight(n, t) and its log up to the factor exp(-_log_t_norm(n)),
    # the kinks _t_knots(n), the row break point _row_peak(n, r) and _t_rel_tol.
    _t_rel_tol = REL_TOL

    def _log_t_weight(self, n: int, t: float) -> float:
        w = self._t_weight(n, t)
        return math.log(w) if w > 0.0 else -np.inf

    def _t_knots(self, n: int) -> list[float]:
        return []

    def _row_peak(self, n: int, r: int) -> float:
        lo, hi = self._t_support(n)
        return min(max(lo, float(r)), hi)

    def _partial(self, n: int, f, lo: float, hi: float) -> float:
        """integral of f(theta) over [lo, hi] against pi_n (normalized)."""
        t_lo, t_hi = self._t_support(n)
        a, b = max(t_lo, lo * n), min(t_hi, hi * n)
        if b <= a:
            return 0.0
        knots = [k for k in self._t_knots(n) if a < k < b]
        val = checked_quad(lambda t: f(t / n) * self._t_weight(n, t), a, b,
                           points=knots[:64], rel_tol=self._t_rel_tol)
        return val * math.exp(-self._log_t_norm(n))

    def _log_mean(self, n: int, log_f, points=()) -> float:
        """log of the mean of exp(log_f(t)), t = n theta, under pi_n; ``points``
        are break points in t."""
        lo, hi = self._t_support(n)
        return log_quad(lambda t: self._log_t_weight(n, t) + log_f(t), lo, hi,
                        points=[*points, *self._t_knots(n)[:32]]) - self._log_t_norm(n)

    def _log_row_prob(self, n: int, r: int) -> float:
        """log integral of theta**r (1 - theta)**(n - r) against pi_n."""
        def logf(t):    # 0 log 0 reads as 0, at the empty and the full row
            if (r and t <= 0) or (r < n and t >= n):
                return -np.inf
            return ((r * math.log(t / n) if r else 0.0)
                    + ((n - r) * math.log1p(-t / n) if r < n else 0.0))

        return self._log_mean(n, logf, [self._row_peak(n, r)])

    def _log_row_probs(self, n: int, rs: np.ndarray) -> np.ndarray:
        """``_log_row_prob`` over a 1-D array of row weights."""
        return np.array([self._log_row_prob(n, int(r)) for r in rs], dtype=float)

    def _sample(self, n: int, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def _xi(self, n: int, i: int, moments: list[float]) -> float:
        if i == 0:
            return 1.0
        if i <= _XI_EXPANSION_MAX:
            terms = [math.comb(i, j) * (-2.0) ** j * moments[j] for j in range(i + 1)]
            return math.fsum(terms)
        head = self._partial(n, lambda th: (1.0 - 2.0 * th) ** i, 0.0, 0.5)
        sign = -1.0 if i % 2 else 1.0
        tail_part = self._partial(n, lambda th: (2.0 * th - 1.0) ** i, 0.5, 1.0)
        return head + sign * tail_part

    def _xis(self, n: int, orders: np.ndarray) -> np.ndarray:
        """``_xi`` over a 1-D array of orders; the expansion's moments are taken once."""
        top = min(int(orders.max(initial=0)), _XI_EXPANSION_MAX)
        moments = [self._moment(n, j) for j in range(top + 1)]
        return np.array([self._xi(n, int(i), moments) for i in orders], dtype=float)

    def limit_seed(self) -> SeedDistribution:
        """Scaling limit of n * theta as a seed distribution, where closed-form."""
        if self.seed_class is None:
            raise ParameterError(f"no closed-form seed limit for variant {self.variant!r}")
        return self.seed_class(*astuple(self))

    def row_exponent(self) -> float | None:
        """The beta of a theta**-beta density, which power_fraction rows read."""
        return None


@dataclass(frozen=True)
class DiracMixing(MixingSpec):
    """All rows share the deterministic bias theta = lam / n."""

    lam: float
    variant = "dirac"
    seed_class = DiracSeed
    _json_keys = {"lam": "lambda"}

    def validate(self, n: int) -> None:
        super().validate(n)
        if self.lam > n:
            raise ParameterError(f"dirac mixing needs lam <= n, got lam={self.lam}, n={n}")

    def _theta(self, n: int) -> float:
        return self.lam / n

    def _tail(self, n: int, t: float) -> float:
        return 1.0 if self._theta(n) > t else 0.0

    def _partial(self, n, f, lo, hi):
        th = self._theta(n)
        inside = (lo < th <= hi) or (lo == 0.0 and th == 0.0)
        return float(f(th)) if inside else 0.0

    def _log_mean(self, n, log_f, points=()):
        return log_f(self.lam)

    def _xis(self, n, orders):
        x = 1.0 - 2.0 * self._theta(n)
        # Python's pow per order: NumPy's SIMD power differs from it in the last bit
        return np.array([x ** i for i in orders.tolist()], dtype=float)

    def _t_support(self, n):
        return self.lam, self.lam

    def _sample(self, n, rng, size):
        return np.full(size, self._theta(n))


@dataclass(frozen=True)
class PowerLawMixing(MixingSpec):
    """Density Z_n**-1 theta**(-beta) on (alpha/n, 1]."""

    alpha: float
    beta: float
    variant = "power_law"
    seed_class = PowerLawSeed

    def validate(self, n: int) -> None:
        super().validate(n)
        if not n > self.alpha:
            raise ParameterError(
                f"power law mixing needs n > alpha, got n={n}, alpha={self.alpha}")

    # All integrals are ratios of power integrals over theta in (alpha/n, 1].
    def _moment(self, n: int, i: int) -> float:
        lo = self.alpha / n
        return math.exp(_log_power_int(lo, 1.0, i - self.beta)
                        - _log_power_int(lo, 1.0, -self.beta))

    def _tail(self, n: int, t: float) -> float:
        lo = self.alpha / n
        if t >= 1.0:
            return 0.0
        if t <= lo:
            return 1.0
        return math.exp(_log_power_int(t, 1.0, -self.beta)
                        - _log_power_int(lo, 1.0, -self.beta))

    def _t_support(self, n):
        return self.alpha, float(n)

    def _t_weight(self, n, t):
        return t ** (-self.beta)

    def _log_t_weight(self, n, t):
        return -self.beta * math.log(t)

    def _log_t_norm(self, n):
        return _log_power_int(self.alpha, float(n), -self.beta)

    def _log_norm_theta(self, n: int) -> float:
        # log integral_{alpha/n}^1 theta**(-beta) dtheta
        return _log_power_int(self.alpha / n, 1.0, -self.beta)

    def _log_row_probs(self, n, rs):
        # integral_{alpha/n}^1 theta**(a-1) (1-theta)**(b-1) with a = r + 1 - beta
        # and b = n - r + 1: B(a, b) I_{alpha/n}^c(a, b) for a > 0, else _upper_beta
        a = rs + 1.0 - self.beta
        b = n - rs + 1.0
        out = np.empty(rs.shape)
        up = a > 0
        with np.errstate(divide="ignore"):
            out[up] = (special.betaln(a[up], b[up])
                       + np.log(special.betaincc(a[up], b[up], self.alpha / n)))
            out[~up] = np.log(_upper_beta(a[~up], b[~up], self.alpha / n))
        out -= self._log_norm_theta(n)
        # orders _upper_beta leaves out, or an incomplete beta that underflowed
        redo = ~np.isfinite(out)
        out[redo] = super()._log_row_probs(n, rs[redo])
        return out

    def _xis(self, n, orders):
        x = 2.0 * self.alpha / n
        if not x < 1.0:
            return super()._xis(n, orders)
        b = orders + 1.0
        # head: integral_{alpha/n}^{1/2} theta**-beta (1 - 2 theta)**i = 2**(beta-1) U(1 - beta, b)
        # tail: integral_{1/2}^1 theta**-beta (2 theta - 1)**i
        #   = 2**(beta-1) integral_0^1 v**i (1+v)**-beta = 2F1(beta, 1; i+2; 1/2) / (2 b)
        tail_part = special.hyp2f1(self.beta, 1.0, b + 1.0, 0.5) / (2.0 * b)
        out = np.where(orders > _XI_EXPANSION_MAX, (
            2.0 ** (self.beta - 1.0) * _upper_beta(1.0 - self.beta, b, x)
            + np.where(orders % 2, -1.0, 1.0) * tail_part) * math.exp(-self._log_norm_theta(n)),
            np.nan)
        # the orders of the expansion, and those _upper_beta leaves out
        redo = ~np.isfinite(out)
        out[redo] = super()._xis(n, orders[redo])
        return out

    def _sample(self, n, rng, size):
        return _power_quantile(rng.random(size), self.alpha, n, self.beta)

    def row_exponent(self):
        return self.beta


@dataclass(frozen=True)
class ModulatedPowerLawMixing(MixingSpec):
    """Density proportional to g(n theta) theta**(-beta) on (alpha/n, 1].

    ``g_table`` is a sequence of (tau, value) pairs defining g by linear
    interpolation on tau = n * theta, held constant beyond either end.  Every
    table value must be strictly positive; the implied bounds c1 = min g and
    c2 = max g are exposed as attributes.  Because g is piecewise linear, all
    moment/tail/CDF integrals reduce to closed-form power integrals per
    segment; only the signed moment of high order falls back to quadrature.
    """

    alpha: float
    beta: float
    g_table: tuple = field()
    variant = "modulated_power_law"

    def __post_init__(self):
        PowerLawSeed(self.alpha, self.beta)     # the domain of (alpha, beta)
        pts = tuple((float(t), float(v)) for t, v in self.g_table)
        if len(pts) < 2:
            raise ParameterError("g table needs at least two points")
        taus = [t for t, _ in pts]
        if any(b <= a for a, b in zip(taus, taus[1:])):
            raise ParameterError("g table abscissae must be strictly increasing")
        if any(t < 0 for t in taus):
            raise ParameterError("g table abscissae must be >= 0")
        if any(v <= 0 for _, v in pts):
            raise ParameterError("g table values must be strictly positive")
        object.__setattr__(self, "g_table", pts)

    def row_exponent(self):
        return self.beta

    @property
    def c1(self) -> float:
        return min(v for _, v in self.g_table)

    @property
    def c2(self) -> float:
        return max(v for _, v in self.g_table)

    def validate(self, n: int) -> None:
        super().validate(n)
        if not n > self.alpha:
            raise ParameterError(
                f"modulated power law needs n > alpha, got n={n}, alpha={self.alpha}")

    def modulation(self, t):
        """The tabulated factor g evaluated at t = n * theta (clamped at the ends)."""
        taus = np.array([p[0] for p in self.g_table])
        vals = np.array([p[1] for p in self.g_table])
        return np.interp(t, taus, vals)

    def _segments(self, n: int):
        """Break [alpha, n] at the g knots; g is affine A + B t on each piece."""
        taus = [p[0] for p in self.g_table]
        vals = [p[1] for p in self.g_table]
        cuts = sorted({self.alpha, float(n), *[t for t in taus if self.alpha < t < n]})
        segs = []
        for a, b in zip(cuts, cuts[1:]):
            mid = 0.5 * (a + b)
            k = np.searchsorted(taus, mid) - 1
            if k < 0:
                segs.append((a, b, vals[0], 0.0))
            elif k >= len(taus) - 1:
                segs.append((a, b, vals[-1], 0.0))
            else:
                slope = (vals[k + 1] - vals[k]) / (taus[k + 1] - taus[k])
                segs.append((a, b, vals[k] - slope * taus[k], slope))
        return segs

    def _seg_mass(self, a, b, const, slope, p):
        """integral_a^b (const + slope t) t**p dt in closed form, elementwise."""
        return const * _power_int(a, b, p) + slope * _power_int(a, b, p + 1.0)

    def _t_integral(self, n: int, p: float, lo=None, hi=None) -> float:
        """integral g(t) t**(p - beta) dt over [lo, hi] intersect [alpha, n]."""
        total = 0.0
        lo = self.alpha if lo is None else max(lo, self.alpha)
        hi = float(n) if hi is None else min(hi, float(n))
        for a, b, const, slope in self._segments(n):
            aa, bb = max(a, lo), min(b, hi)
            if bb > aa:
                total += self._seg_mass(aa, bb, const, slope, p - self.beta)
        return total

    def _moment(self, n: int, i: int) -> float:
        return self._t_integral(n, i) / (n ** i * self._t_integral(n, 0))

    def _tail(self, n: int, t: float) -> float:
        if t >= 1.0:
            return 0.0
        return self._t_integral(n, 0, lo=t * n) / self._t_integral(n, 0)

    def _t_support(self, n):
        return self.alpha, float(n)

    def _t_weight(self, n, t):
        return self.modulation(t) * t ** (-self.beta)

    def _log_t_norm(self, n):
        return math.log(self._t_integral(n, 0))

    def _t_knots(self, n):
        return [p[0] for p in self.g_table if self.alpha < p[0] < n]

    def _sample(self, n, rng, size):
        u = rng.random(size)
        segs = np.array(self._segments(n))
        masses = self._seg_mass(*segs.T, -self.beta)
        cum = np.concatenate([[0.0], np.cumsum(masses)])
        targets = u * cum[-1]
        idx = np.clip(np.searchsorted(cum, targets, side="right") - 1, 0, len(segs) - 1)
        rem = targets - cum[idx]
        left, hi, consts, slopes = segs[idx].T
        lo = left
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            under = self._seg_mass(left, mid, consts, slopes, -self.beta) < rem
            lo = np.where(under, mid, lo)
            hi = np.where(under, hi, mid)
        return 0.5 * (lo + hi) / n


@dataclass(frozen=True)
class SeedCdfMixing(MixingSpec):
    """theta has CDF F(x n) / F(n) on [0, 1] for a seed distribution F."""

    seed: SeedDistribution
    variant = "seed_cdf"

    def validate(self, n: int) -> None:
        super().validate(n)
        if float(self.seed.cdf(float(n))) <= 0.0:
            raise ParameterError(f"seed cdf has no mass on [0, {n}]")

    def _mass(self, n: int) -> float:
        return float(self.seed.cdf(float(n)))

    def _tail(self, n: int, t: float) -> float:
        if t >= 1.0:
            return 0.0
        if t < 0.0:
            return 1.0
        fn = self._mass(n)
        return (fn - float(self.seed.cdf(t * n))) / fn

    _t_rel_tol = 1e-9

    def _t_support(self, n):
        return 0.0, float(n)

    def _t_weight(self, n, t):
        return float(self.seed.density(t))

    def _log_t_norm(self, n):
        return math.log(self._mass(n))

    def _row_peak(self, n, r):
        return max(float(r), 1e-3)

    def _law(self):
        # only the Dirac seed lacks a density; its law is a point mass
        return super() if self.seed.has_density() else DiracMixing(lam=self.seed.t0)

    def _partial(self, n, f, lo, hi):
        return self._law()._partial(n, f, lo, hi)

    def _log_mean(self, n, log_f, points=()):
        return self._law()._log_mean(n, log_f, points)

    def _sample(self, n, rng, size):
        u = rng.random(size) * self._mass(n)
        return np.asarray(self.seed.inverse_cdf(u), dtype=float) / n

    def limit_seed(self) -> SeedDistribution:
        return self.seed


@dataclass(frozen=True)
class HierarchicalMixing(MixingSpec):
    """Cutoff a ~ const * a**(-gamma_exp) on [A, n/2], then power law theta.

    The per-row law is the a-marginalized mixture; the two-level ensemble in
    :mod:`exchgraph.ensemble` shares one cutoff draw across all rows instead.
    In t = n theta the mixture has the weight t**(-beta) H(min(t, n/2)) on
    (A, n], with H(x) = integral_A^x a**(beta-1-gamma) / (1 - (a/n)**(beta-1)) da,
    of mass integral_A^(n/2) a**(-gamma) da / (beta - 1).
    """

    A: float
    beta: float
    gamma_exp: float
    variant = "hierarchical"
    seed_class = HierarchicalSeed

    def validate(self, n: int) -> None:
        super().validate(n)
        if not n / 2 > self.A:
            raise ParameterError(f"hierarchical mixing needs n > 2 A, got n={n}, A={self.A}")

    def _h(self, n: int, x: float) -> float:
        """H(x) / A**(beta - gamma): term k of the series in (a/n)**(beta-1) is
        (A/n)**(k c) integral_1^(x/A) v**(q-1) dv, c = beta - 1, q = beta - gamma + k c."""
        c, q0, lx = self.beta - 1.0, self.beta - self.gamma_exp, math.log(x / self.A)
        total = 0.0
        for k in range(64):     # term k is at most (x/n)**(k c) <= 2**(k (1-beta)) times term 0
            q = q0 + k * c
            if q > 0.0:         # (A/n)**(k c) (x/A)**q = (x/n)**(k c) (x/A)**q0
                term = math.exp(k * c * math.log(x / n) + q0 * lx) * -math.expm1(-q * lx) / q
            else:
                term = (self.A / n) ** (k * c) * (math.expm1(q * lx) / q if q else lx)
            total += term
            if term <= 1e-17 * total:
                break
        return total

    def _t_support(self, n):
        return self.A, float(n)

    def _t_weight(self, n, t):
        return t ** (-self.beta) * self._h(n, min(t, n / 2.0))

    def _log_t_norm(self, n):
        return (_log_power_int(self.A, n / 2.0, -self.gamma_exp) - math.log(self.beta - 1.0)
                - (self.beta - self.gamma_exp) * math.log(self.A))

    def _t_knots(self, n):
        return [n / 2.0]

    def sample_slices(self, n: int, rng: np.random.Generator, count: int,
                      rows: int) -> np.ndarray:
        """Draw ``count`` cutoffs from const * a**(-gamma) on [A, n/2], then
        ``rows`` biases from the power-law slice at each; shape (count, rows)."""
        q = 1.0 - self.gamma_exp
        lo_p, hi_p = self.A ** q, (n / 2.0) ** q
        cuts = (lo_p + rng.random((count,)) * (hi_p - lo_p)) ** (1.0 / q)
        return _power_quantile(rng.random((count, rows)), cuts[:, None], n, self.beta)

    def _sample(self, n, rng, size):
        return self.sample_slices(n, rng, size, 1).ravel()


# ---------------------------------------------------------------------------
# public operations


def sample_thetas(spec: MixingSpec, n: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` iid row biases from pi_n (vectorized)."""
    spec.validate(n)
    return spec._sample(n, rng, int(size))


def moment(spec: MixingSpec, n: int, i: int) -> float:
    """i-th moment of theta under pi_n; moment(spec, n, 1) is the edge probability."""
    spec.validate(n)
    if np.ndim(i):
        raise ParameterError(f"moment order must be one integer, got {i!r}")
    i = check_orders(i, "moment order").item()
    return 1.0 if i == 0 else float(spec._moment(n, i))


def tail(spec: MixingSpec, n: int, t: float) -> float:
    """Upper-tail mass pi_n((t, 1])."""
    spec.validate(n)
    if not 0.0 <= t <= 1.0:
        raise ParameterError(f"tail threshold must lie in [0, 1], got {t!r}")
    return float(spec._tail(n, float(t)))


def xi(spec: MixingSpec, n: int, i):
    """Signed moment E (1 - 2 theta)**i under pi_n; drives kernel counting.

    ``i`` is one order (giving a float) or an array of orders (an array)."""
    spec.validate(n)
    orders = check_orders(i, "signed moment order")
    return shaped_like(spec._xis(n, orders.ravel()).reshape(orders.shape), i)


def log_row_prob(spec: MixingSpec, n: int, r):
    """log E theta**r (1 - theta)**(n - r): log-probability of one fixed row
    pattern with r ones out of n under pi_n.

    ``r`` is one row weight (giving a float) or an array of them (an array)."""
    spec.validate(n)
    rs = check_orders(r, "row weight r", hi=n)
    return shaped_like(spec._log_row_probs(n, rs.ravel()).reshape(rs.shape), r)
