"""Row-bias mixing laws and their moments, tails, and transforms.

A mixing law ``pi_n`` is a probability measure on [0, 1] governing the bias
theta of a matrix row of width n.  The families implemented here:

``DiracMixing(lam)``
    Point mass at theta = lam / n; needs lam <= n.
``PowerLawMixing(alpha, beta)``
    Density proportional to theta**(-beta) on (alpha/n, 1]; needs n > alpha.
``ModulatedPowerLawMixing(alpha, beta, g_table)``
    Density proportional to g(n theta) * theta**(-beta) on (alpha/n, 1] with
    g tabulated, piecewise linear, and bounded away from 0 and infinity;
    needs n > alpha.
``SeedCdfMixing(seed)``
    CDF x -> F(x n) / F(n) built from a seed distribution F on [0, inf).
``HierarchicalMixing(A, beta, gamma_exp)``
    First draw a cutoff a ~ const * a**(-gamma) on [A, n/2], then theta from
    ``PowerLawMixing(a, beta)``; requires gamma_exp > beta > 2.  Its weight
    in t = n theta is closed-form, so its laws take one quadrature each.

The Dirac, power-law, modulated power-law and seed-cdf families are seed
truncations, their limit seed F cut at n (theta has CDF F(x n) / F(n)), stated
once in ``_SeedTruncation``; the two power families share ``_PowerTruncation``.

Public operations validate the spec against n and then call the family's
own hooks: :func:`sample_thetas`, :func:`moment`, :func:`tail`, :func:`xi`,
and the log-space row polynomial :func:`log_row_prob` that degree and motif
formulas build on.  Each family also names the ``seed_class`` of its scaling
limit ``limit_seed()``, the seed of n * theta (seed-cdf takes its own seed),
and its JSON form: the ``variant`` discriminator plus one key per field, with
``lam`` written as ``"lambda"`` (``MixingSpec.from_json`` reads it back).
Building a family builds its seed, whose constructor checks the parameter
domain; ``row_exponent`` is the one family hook beyond the seed.

:func:`log_row_prob` and :func:`xi` take one order or an array of orders.

Numerical policy: closed forms for Dirac, and for the two power families their
moments, tails and draws from their seed's one log-space sum over the pieces of g,
so no power of alpha, n or Z overflows at steep beta; elsewhere one log-space
integral over t = n * theta in (lo, hi], ``_log_mean``: moments, tails (over
(t n, n], not as a difference of CDFs), signed-moment halves, row polynomials and
shared-draw averages all take it.  A cut seed's is the seed's own integral over
(lo, min(hi, n)], ``SeedDistribution._log_expect``, over F(n); the hierarchical family
integrates its closed-form weight.  ``xi(i) = E (1 - 2 theta)**i`` splits at theta = 1/2
into two single-sign integrals at every order i >= 1, so no alternating sum cancels.

For the pure power family the row polynomial and both halves of the split
signed moment are incomplete beta functions, in closed form wherever that
holds ``REL_TOL``: SciPy's B(a, b) I_x^c(a, b) for row weights r > beta - 1, and
``_log_upper_beta``, in NumPy and math, for the rest and for the head of every signed
moment, whose tail is a positive series; log B takes Stirling's series from 10.
Quadrature (the scalar hooks ``_log_row_prob`` and ``_xi``, also the oracle of
each closed form) stays for xi at 2 alpha > n, rows whose incomplete beta underflows
(from alpha ~ 530 at n = 1000, never at alpha <= 500), and other families.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from ._codec import JsonCodec
from ._numerics import check_orders, log_quad, shaped_like, special
from .errors import ParameterError, QuadratureError
from .seeds import (SeedDistribution, DiracSeed, HierarchicalSeed, ModulatedPowerLawSeed,
                    PowerLawSeed, _log_power_int, _power_quantile, _upper_gamma)

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

_TERMS = 1000   # the cap on the terms of the series in _hyp2f1_half


def _log(x: float) -> float:
    """log x, with log 0 = -inf."""
    return math.log(x) if x > 0.0 else -math.inf


def _log_xi_base(t: float, n: int) -> float:
    """log |1 - 2t/n| for 0 <= t <= n, from the nearer end u of [0, n]: log1p
    while 4u < n, else through n - 2u, exact there, so no digit cancels."""
    u = min(t, n - t)
    return math.log1p(-2.0 * u / n) if 4.0 * u < n else _log((n - 2.0 * u) / n)


def _stirling_rest(x):
    """log Gamma(x) - (x - 1/2) log x + x - log(2 pi) / 2, for x >= 10."""
    x2 = x * x
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * x2)) / x2) / x2) / x2) / x


_lgamma = np.vectorize(math.lgamma, otypes=[float])


def _log_rise(c, b):
    """log Gamma(b + c) - log Gamma(b) elementwise for b > 0 and b + c > 0, at least 1-D;
    at c < 0 as -(log Gamma(b) - log Gamma(b + c)), so the smaller argument is the base:
    below a base of 10 by ``math.lgamma``, else by Stirling's series, whose terms of size
    b log b cancel exactly (a difference of log-gammas loses about eps b log b)."""
    c, b = np.broadcast_arrays(*np.atleast_1d(c, b))
    sign, b, c = np.where(c < 0, -1.0, 1.0), np.minimum(b, b + c), np.abs(c)
    big = np.maximum(b, 10.0)
    out = ((big - 0.5) * np.log1p(c / big) + c * np.log(big + c) - c
           + _stirling_rest(big + c) - _stirling_rest(big))
    small = b < 10.0
    out[small] = _lgamma(b[small] + c[small]) - _lgamma(b[small])
    return sign * out


def _log_beta(a, b):
    """log B(a, b) elementwise for a, b > 0, with c <= b the two arguments sorted: against
    40-digit mpmath at b <= 1e6 off by at most 2.3e-13 for c <= 60."""
    c, b = np.minimum(a, b), np.maximum(a, b)
    return _lgamma(c) - _log_rise(c, b)


def _log_binom(n: int, ks: np.ndarray) -> np.ndarray:
    """log C(n, k) as -log(n + 1) - log B(k + 1, n - k + 1): three log-gammas lose eps n log n."""
    return -math.log(n + 1.0) - _log_beta(ks + 1.0, n - ks + 1.0)


def _log_upper_beta(a, b, x: float):
    """log U(a, b; x), U = integral_x^1 u**(a-1) (1-u)**(b-1) du, elementwise over a <= 1,
    integer b >= 1, 0 < x < 1.  Where a + b > 0, Euler's transformation of its 2F1 gives
    positive terms: U(a, b) = x**a Gamma(b) / Gamma(a + b) sum_{j >= b} t_j, t_j =
    Gamma(a + j) / Gamma(j + 1) (1-x)**j.  Below, a U(a, b) = (a + b) U(a + 1, b) - x**a
    (1-x)**b (by parts) steps down from a + b in (0, 1]; with a and a + b negative, each
    step adds two positive terms.  The terms of each a are scaled by its first, at the
    smallest b, so a U more than e**-700 below that reads -inf."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    steps = np.maximum(np.floor(-a - b) + 1.0, 0.0)
    a0, lam, log_x = a + steps, -math.log1p(-x), math.log(x)
    out = np.empty(a.shape)
    with np.errstate(divide="ignore"):
        for c in np.unique(a0).tolist():
            bs = b[a0 == c]
            lo, hi = int(bs.min()), int(bs.max()) + 8192
            j = np.arange(hi, lo - 1, -1.0)
            log_t = _log_rise(c, j) - np.log(j) - lam * j
            t = np.exp(log_t - log_t[-1])
            # from K = hi on by Euler-Maclaurin: t_K / 2 - t'_K / 12 and the integral of t_u ~
            # w**(c-1) (1 - c (c-1) (c-2) / (24 w**2)) e**(-lam u), w = u + c/2, to O(w**-4); off
            # by (lam + 1/K)**4 / 120 of the sum: 5e-12 at most, since lam K > 40 leaves no rest
            w = hi + c / 2.0
            z, g = lam * w, _upper_gamma(c, lam * w, scaled=True)    # Gamma(c, z) / (z**c e**-z)
            rest = (math.exp(lam * c / 2.0 + c * math.log(w) - z - log_t[-1]) * (
                g - c * lam * lam / 24.0 * (g - (1.0 + (c - 1.0) / z) / z))
                + t[0] * (6.0 + lam - (c - 1.0) / w) / 12.0)
            out[a0 == c] = (c * log_x - _log_rise(c, bs) + log_t[-1]
                            + np.log((rest + np.cumsum(t[1:]))[hi - 1 - bs.astype(int)]))
        for s in range(int(steps.max(initial=0.0))):
            down = steps > s
            c, bd = a0[down] - s - 1.0, b[down]
            out[down] = np.logaddexp(out[down] + np.log((c + bd) / c),
                                     c * log_x + bd * math.log1p(-x) - np.log(-c))
    return out


def _hyp2f1_half(beta: float, c):
    """2F1(beta, 1; c; 1/2) elementwise over an array c > 0: the series
    sum_k (beta)_k / (c)_k 2**-k, whose terms are positive."""
    term, total = np.ones(c.shape), np.ones(c.shape)
    for k in range(_TERMS):
        term *= (beta + k) / (2.0 * (c + k))
        total += term
        if np.all(term < 1e-17 * total):
            return total
    raise QuadratureError(f"2F1({beta}, 1; c; 1/2): its series did not converge")


class MixingSpec(JsonCodec, tag="variant", error=ParameterError, family="mixing"):
    """Base class; concrete families fill in the hooks below."""

    def __post_init__(self):    # limit_seed(): the seed_class on the family's fields, in order,
        # whose constructor checks the family's domain
        object.__setattr__(self, "_seed", self.seed_class(*astuple(self)))

    def validate(self, n: int) -> None:
        if not (isinstance(n, (int, np.integer)) and n >= 1):
            raise ParameterError(f"matrix width n must be a positive integer, got {n!r}")

    # hooks ------------------------------------------------------------------
    def _moment(self, n: int, i: int) -> float:
        return 1.0 if i == 0 else math.exp(self._log_mean(n, lambda t: i * _log(t / n)))

    def _tail(self, n: int, t: float) -> float:
        return math.exp(self._log_mean(n, lambda u: 0.0, t * n))

    def _log_mean(self, n: int, log_f, lo: float = -math.inf, hi: float = math.inf) -> float:
        """log integral of exp(log_f(t)) against pi_n over t = n theta in (lo, hi]."""
        raise NotImplementedError

    def _log_row_prob(self, n: int, r: int) -> float:
        """log integral of theta**r (1 - theta)**(n - r) against pi_n."""
        def logf(t):    # 0 log 0 reads as 0, at the empty and the full row
            if (r and t <= 0) or (r < n and t >= n):
                return -np.inf
            return ((r * math.log(t / n) if r else 0.0)
                    + ((n - r) * math.log1p(-t / n) if r < n else 0.0))

        return self._log_mean(n, logf)

    def _log_row_probs(self, n: int, rs: np.ndarray) -> np.ndarray:
        """``_log_row_prob`` over a 1-D array of row weights."""
        return np.array([self._log_row_prob(n, int(r)) for r in rs], dtype=float)

    def _sample(self, n: int, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def _xi(self, n: int, i: int) -> float:
        if i == 0:
            return 1.0
        head = self._log_mean(n, lambda t: i * _log_xi_base(t, n), hi=n / 2.0)
        tail_part = self._log_mean(n, lambda t: i * _log_xi_base(t, n), n / 2.0)
        return math.exp(head) + (-1.0 if i % 2 else 1.0) * math.exp(tail_part)

    def _xis(self, n: int, orders: np.ndarray) -> np.ndarray:
        """``_xi`` over a 1-D array of orders."""
        lo, hi = self.limit_seed()._support()
        if lo == hi:    # a point mass: Python's pow per order, as NumPy's SIMD power
            x = 1.0 - 2.0 * lo / n  # differs from it in the last bit
            return np.array([x ** i for i in orders.tolist()], dtype=float)
        return np.array([self._xi(n, int(i)) for i in orders], dtype=float)

    def limit_seed(self) -> SeedDistribution:
        """Scaling limit of n * theta as a seed distribution."""
        return self._seed

    def row_exponent(self) -> float | None:
        """The beta of a theta**-beta density, which power_fraction rows read."""
        return None


class _SeedTruncation(MixingSpec):
    """The limit seed F cut at n: theta = t / n for t ~ F given t <= n, so theta
    has CDF F(x n) / F(n) on [0, 1] and t the support (lo, min(hi, n)) of the
    seed's (lo, hi).  A point-mass seed (lo == hi) stays a point mass."""

    def validate(self, n: int) -> None:
        super().validate(n)
        lo, hi = self.limit_seed()._support()
        if not (lo < n or lo == hi <= n):
            raise ParameterError(
                f"{self.variant} mixing has no mass on [0, {n}]: its seed starts at {lo}")

    def _log_mean(self, n, log_f, lo=-math.inf, hi=math.inf):
        seed = self.limit_seed()
        return seed._log_expect(log_f, lo, min(hi, float(n))) - math.log(float(seed.cdf(float(n))))

    def _sample(self, n, rng, size):
        seed = self.limit_seed()
        u = rng.random(size) * float(seed.cdf(float(n)))
        return np.asarray(seed.inverse_cdf(u), dtype=float) / n


@dataclass(frozen=True)
class DiracMixing(_SeedTruncation):
    """All rows share the deterministic bias theta = lam / n."""

    lam: float
    variant = "dirac"
    seed_class = DiracSeed
    _json_keys = {"lam": "lambda"}

    def _sample(self, n, rng, size):
        return np.full(size, self.lam / n)


class _PowerTruncation(_SeedTruncation):
    """A power-law family: its seed's piece table cut at n, in t = n theta on (alpha, n].
    Moments and tails are ratios of the seed's log power sums, draws its quantile."""

    def row_exponent(self):
        return self.beta

    def _log_norm(self, n: int) -> float:
        """log integral of g(t) t**(-beta) dt over (alpha, n]."""
        return float(self._seed._log_power_sum(-self.beta, n))

    def _moment(self, n: int, i: int) -> float:     # in units of n, in logs: nothing overflows
        return math.exp(float(self._seed._log_power_sum(i - self.beta, n)) - i * math.log(n)
                        - self._log_norm(n))

    def _tail(self, n: int, t: float) -> float:     # over (t n, n]: no difference of CDFs
        return math.exp(float(self._seed._log_power_sum(-self.beta, n, t * n)) - self._log_norm(n))

    def _sample(self, n, rng, size):
        out = self._seed._quantile(rng.random(size), n)
        out /= n
        return out


@dataclass(frozen=True)
class PowerLawMixing(_PowerTruncation):
    """Density Z_n**-1 theta**(-beta) on (alpha/n, 1]."""

    alpha: float
    beta: float
    variant = "power_law"
    seed_class = PowerLawSeed

    def _log_row_probs(self, n, rs):
        # integral_{alpha/n}^1 theta**(a-1) (1-theta)**(b-1) with a = r + 1 - beta
        # and b = n - r + 1: B(a, b) I_{alpha/n}^c(a, b) for a > 0, else U(a, b)
        a = rs + 1.0 - self.beta
        b = n - rs + 1.0
        out = np.empty(rs.shape)
        up = a > 0
        with np.errstate(divide="ignore"):
            if up.any():    # SciPy's incomplete beta, where x**a cancels against B(a, b)
                out[up] = (_log_beta(a[up], b[up])
                           + np.log(special.betaincc(a[up], b[up], self.alpha / n)))
        out[~up] = _log_upper_beta(a[~up], b[~up], self.alpha / n)
        out -= self._log_norm(n) + (self.beta - 1.0) * math.log(n)    # the norm in theta
        # an incomplete beta that underflowed: from alpha ~ 530 at n = 1000 and ~ 720-750
        # at n from 1e4 to 1e6, never at alpha <= 500
        redo = ~np.isfinite(out)
        out[redo] = super()._log_row_probs(n, rs[redo])
        return out

    def _xis(self, n, orders):
        x = 2.0 * self.alpha / n
        if x > 1.0:     # theta > 1/2 throughout: one single-sign integral per order
            return super()._xis(n, orders)
        b = orders + 1.0
        # head: integral_{alpha/n}^{1/2} theta**-beta (1 - 2 theta)**i = 2**(beta-1) U(1 - beta, b),
        #   empty at 2 alpha = n
        # tail: integral_{1/2}^1 theta**-beta (2 theta - 1)**i
        #   = 2**(beta-1) integral_0^1 v**i (1+v)**-beta = 2F1(beta, 1; i+2; 1/2) / (2 b)
        log_norm = self._log_norm(n) + (self.beta - 1.0) * math.log(n)
        tail_part = _hyp2f1_half(self.beta, b + 1.0) / (2.0 * b) * math.exp(-log_norm)
        head = (np.exp((self.beta - 1.0) * math.log(2.0) + _log_upper_beta(1.0 - self.beta, b, x)
                       - log_norm) if x < 1.0 else 0.0)
        return np.where(orders > 0, head + np.where(orders % 2, -1.0, 1.0) * tail_part, 1.0)


@dataclass(frozen=True)
class ModulatedPowerLawMixing(_PowerTruncation):
    """Density proportional to g(n theta) theta**(-beta) on (alpha/n, 1]: its
    seed, which states g and checks its table, cut at n."""

    alpha: float
    beta: float
    g_table: tuple
    variant = "modulated_power_law"
    seed_class = ModulatedPowerLawSeed

    def __post_init__(self):    # the table as the seed's float pairs
        super().__post_init__()
        object.__setattr__(self, "g_table", self._seed.g_table)


@dataclass(frozen=True)
class SeedCdfMixing(_SeedTruncation):
    """theta has CDF F(x n) / F(n) on [0, 1] for a seed distribution F."""

    seed: SeedDistribution
    variant = "seed_cdf"

    def __post_init__(self):
        object.__setattr__(self, "_seed", self.seed)


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

    def _log_mean(self, n, log_f, lo=-math.inf, hi=math.inf):
        # its weight in t (kinked at n/2, with H scaled as _h) over that weight's mass
        log_norm = (float(_log_power_int(self.A, n / 2.0, -self.gamma_exp))
                    - math.log(self.beta - 1.0) - (self.beta - self.gamma_exp) * math.log(self.A))
        return log_quad(lambda t: _log(t ** -self.beta * self._h(n, min(t, n / 2.0))) + log_f(t),
                        max(self.A, lo), min(float(n), hi), [n / 2.0]) - log_norm

    def sample_slices(self, n: int, rng: np.random.Generator, count: int,
                      rows: int) -> np.ndarray:
        """Draw ``count`` cutoffs from const * a**(-gamma) on [A, n/2], then
        ``rows`` biases from the power-law slice at each; shape (count, rows)."""
        q = 1.0 - self.gamma_exp
        lo_p, hi_p = self.A ** q, (n / 2.0) ** q
        cuts = (lo_p + rng.random((count,)) * (hi_p - lo_p)) ** (1.0 / q)
        return _power_quantile(rng.random((count, rows)), cuts[:, None] / n, 1.0, self.beta)

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
