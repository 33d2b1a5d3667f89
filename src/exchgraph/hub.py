"""Extreme-value behavior of the busiest sender.

The hub is the largest out-degree among the tracked senders.  Conditional on
its bias, a row sum is Binomial(n, theta), so the hub rides the largest bias,
and a power-law bias tail puts the scaled hub in Frechet territory.  The
tracked-sender count m and the tail exponent eta = beta - 1 set the scale
b = m**(1/eta); three canonical pairings of m with n keep that scale
meaningful as n grows (see hub_limit_cdf).

Monte Carlo here samples row sums directly as Binomials, which is
law-identical to popcounting sampled bit rows and orders of magnitude
cheaper; replica streams are deterministic in master_seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .ensemble import EnsembleConfig, GraphSample, out_degrees, replica_blocks
from .errors import ParameterError
from .seeds import PowerLawSeed

__all__ = [
    "hub_statistic",
    "HubLimit",
    "HubScaling",
    "hub_limit_cdf",
    "frechet_moment",
    "competing_moment_constant",
    "HubReport",
    "mc_hub_values",
    "mc_hub",
    "hub_atom_estimate",
    "write_hub_cdf",
]

_TAG_HUB = 104


def hub_statistic(sample: GraphSample) -> int:
    """Largest out-degree over the sampled sender rows."""
    return int(out_degrees(sample).max())


@dataclass(frozen=True)
class HubLimit:
    """Frechet-type reference CDF exp(-c_eta * x**-eta), optionally conditioned.

    A finite cutoff L conditions the curve on X <= L:
    exp(-c_eta * (x**-eta - L**-eta)) on (0, L] and 1 above.  That is the
    limit of a maximum over biases whose slice law is normalised up to L
    (the power-law family with 1 < beta < 2 and L = 1), so the curve is
    continuous and reaches 1 at L without an atom.
    """

    c_eta: float
    eta: float
    cutoff: float = math.inf

    def __post_init__(self):
        if not (self.c_eta > 0 and self.eta > 0 and self.cutoff > 0):
            raise ParameterError("hub limit needs c_eta > 0, eta > 0, cutoff > 0")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            body = np.exp(-self.c_eta * (np.power(np.clip(x, 1e-300, None), -self.eta)
                                         - self.cutoff ** -self.eta))
        out = np.where(x > 0.0, body, 0.0)
        out = np.where(x >= self.cutoff, 1.0, out)
        return out if out.ndim else float(out)

    def to_json(self) -> dict:
        return {"c_eta": self.c_eta, "eta": self.eta,
                "cutoff": None if math.isinf(self.cutoff) else self.cutoff}


@dataclass(frozen=True)
class HubScaling:
    """Tracked-sender count, hub scale, and the reference curve they produce."""

    rows: int
    scale: float
    limit: HubLimit

    def cdf(self, x):
        return self.limit.cdf(x)


def hub_limit_cdf(alpha: float, beta: float, n: int) -> HubScaling:
    """Reference hub law for the power-law bias family at size n.

    Three regimes pair the tracked-sender count with the tail exponent
    eta = beta - 1 so that the scale b = rows**(1/eta) neither collapses
    nor outruns the graph:

      beta > 2:      rows = n,                scale = n**(1/(beta-1))
      beta = 2:      rows = floor(n/log n),   scale = n/log n
      1 < beta < 2:  rows = floor(n**(beta-1)), scale = n, cutoff at 1

    In the last regime the scale is the graph size itself.  The bias law is
    normalised on (alpha/n, 1], so P(theta > x) = (x**-eta - 1) /
    ((n/alpha)**eta - 1) and the hub over n tends to the Frechet curve
    conditioned at the cutoff 1: exp(-alpha**eta * (x**-eta - 1)), continuous
    on (0, 1] with no atom at the cutoff.
    """
    PowerLawSeed(alpha, beta)     # the domain of (alpha, beta)
    if not (isinstance(n, int) and n >= 2):
        raise ParameterError("hub reference law needs integer n >= 2")
    eta = beta - 1.0
    c_eta = alpha ** eta
    if beta > 2:
        return HubScaling(rows=n, scale=n ** (1.0 / eta),
                          limit=HubLimit(c_eta, eta))
    if beta == 2:
        scale = n / math.log(n)
        return HubScaling(rows=math.floor(scale), scale=scale,
                          limit=HubLimit(c_eta, eta))
    return HubScaling(rows=math.floor(n ** eta), scale=float(n),
                      limit=HubLimit(c_eta, eta, cutoff=1.0))


def frechet_moment(alpha: float, eta: float, d: float) -> float:
    """d-th moment of the Frechet CDF exp(-(alpha/x)**eta): alpha**d * Gamma(1 - d/eta)."""
    if not (alpha > 0 and eta > 0):
        raise ParameterError("frechet moment needs alpha > 0 and eta > 0")
    if not 0 < d < eta:
        raise ParameterError(f"moment order must lie in (0, eta); d={d}, eta={eta}")
    return alpha ** d * math.gamma(1.0 - d / eta)


def competing_moment_constant(alpha: float, beta: float, d: float) -> float:
    """Second candidate for the limiting d-th moment of the scaled hub.

    Evaluates (beta-1)**2 * alpha**2 * Gamma((beta-1-d)/(beta-1)).  For most
    parameters this disagrees with frechet_moment(alpha, beta-1, d); reports
    print both side by side and let the Monte Carlo mean pick the curve it
    tracks rather than silently dropping one.
    """
    PowerLawSeed(alpha, beta)     # the domain of (alpha, beta)
    if not (0 < d < beta - 1.0):
        raise ParameterError(
            f"moment order must lie in (0, beta-1); d={d}, beta={beta}")
    eta = beta - 1.0
    return eta ** 2 * alpha ** 2 * math.gamma((eta - d) / eta)


# -- Monte Carlo ------------------------------------------------------------


@dataclass(frozen=True)
class HubReport:
    """Empirical scaled-hub CDF next to its reference curve.

    ``values`` holds the sampled hub statistics (not serialized).  The
    empirical CDF is evaluated from them on ``grid_points`` points mapped
    through floor(x * b_n), the same integer truncation the scaled statistic
    itself undergoes, so grid points between attainable values do not bias
    the comparison.  ``scaling`` is None when every bias is 0: the hub is
    pinned at 0, the scale is 1 and the reference CDF is 1.
    """

    n: int
    m_n: int
    scaling: HubScaling | None
    grid_points: int
    values: np.ndarray = field(compare=False, repr=False)

    @property
    def b_n(self) -> float:
        return float(self.scaling.scale) if self.scaling else 1.0

    def reference_cdf(self, x):
        """Reference CDF of the scaled hub at x."""
        return self.scaling.cdf(x) if self.scaling else 1.0

    @functools.cached_property
    def empirical_cdf(self) -> tuple:
        """(x, F_emp(x)) pairs on a grid up to the cutoff, or past the largest value."""
        b, cutoff = self.b_n, self.scaling.limit.cutoff if self.scaling else math.inf
        x_hi = (self.values.max() + 1.0) / b if math.isinf(cutoff) else cutoff
        xs = x_hi * np.arange(1, self.grid_points + 1) / self.grid_points
        thresholds = np.floor(xs * b)
        f_emp = np.searchsorted(np.sort(self.values), thresholds, side="right") / len(self.values)
        return tuple(zip(xs.tolist(), f_emp.tolist()))

    @property
    def ks_distance(self) -> float:
        xs, f_emp = np.array(self.empirical_cdf).T
        return min(float(np.max(np.abs(f_emp - self.reference_cdf(xs)))), 1.0)

    def to_json(self) -> dict:
        params = (self.scaling.limit.to_json() if self.scaling
                  else {"c_eta": 0.0, "eta": 0.0, "cutoff": 0.0})
        cutoff = params.pop("cutoff")
        return {
            "n": self.n,
            "m_n": self.m_n,
            "b_n": self.b_n,
            "L": cutoff,
            "empirical_cdf": [[x, f] for x, f in self.empirical_cdf],
            "limit_cdf_params": params,
            "ks_distance": self.ks_distance,
        }


def mc_hub_values(config: EnsembleConfig) -> np.ndarray:
    """Hub statistic for each configured replica, as an int64 array.

    Samples row sums directly as Binomial(n, theta), which matches the law
    of popcounted bit rows exactly.  Deterministic in master_seed.
    """
    values = np.empty(config.replicas, dtype=np.int64)
    for lo, thetas, rng in replica_blocks(config, _TAG_HUB, dense=False):
        values[lo:lo + len(thetas)] = rng.binomial(config.n, thetas).max(axis=1)
    return values


def _reference_scaling(config: EnsembleConfig):
    """Pick the reference curve and scale; None means hub == 0, all seed mass at 0."""
    if not config.iid_rows:
        raise ParameterError(f"hub limit theory needs independent per-sender biases, "
                             f"but variant {config.variant!r} shares them across rows")
    seed, n, m = config.mixing.limit_seed(), config.n, config.m
    if float(seed.cdf(0.0)) == 1.0:
        return None
    if isinstance(seed, PowerLawSeed):
        canonical = hub_limit_cdf(seed.alpha, seed.beta, n)
        if m == canonical.rows:
            return canonical
    if seed.power_tail() is None:
        raise ParameterError(f"{seed.kind} seed has no power tail, so no hub limit")
    return _subcritical_scaling(*seed.power_tail(), n, m)


def _subcritical_scaling(c_eta: float, eta: float, n: int, m: int) -> HubScaling:
    scale = m ** (1.0 / eta)
    if scale > n / 2:
        raise ParameterError(
            "tracked-sender count too large for this tail exponent: the hub "
            "scale reaches the graph size; use the matched pairing instead")
    return HubScaling(rows=m, scale=scale, limit=HubLimit(c_eta, eta))


def mc_hub(config: EnsembleConfig, grid_points: int = 1000) -> HubReport:
    """Sample the configured replicas and compare the scaled hub to its limit."""
    if config.replicas < 100:
        raise ParameterError("hub Monte Carlo needs at least 100 replicas")
    if grid_points < 1:
        raise ParameterError(f"hub CDF grid needs grid_points >= 1, got {grid_points}")
    scaling = _reference_scaling(config)
    return HubReport(n=config.n, m_n=config.m, scaling=scaling,
                     grid_points=grid_points, values=mc_hub_values(config))


def hub_atom_estimate(values: np.ndarray, n: int,
                      threshold: float = 0.99) -> tuple[float, float]:
    """Fraction of replicas whose hub exceeds threshold * n, with its SE."""
    if not 0 < threshold < 1:
        raise ParameterError("threshold must lie in (0, 1)")
    values = np.asarray(values)
    p = float(np.mean(values > threshold * n))
    se = math.sqrt(p * (1.0 - p) / len(values))
    return p, se


def write_hub_cdf(report: HubReport, path) -> None:
    """CSV of the report grid: x, empirical CDF, reference CDF."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write("x,F_emp,F_limit\n")
        for x, f in report.empirical_cdf:
            handle.write(f"{x:.10g},{f:.10g},{report.reference_cdf(x):.10g}\n")
