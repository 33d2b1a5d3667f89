"""Exact finite-n degree laws and their large-n limit laws.

Out-degrees: a row with bias theta has Binomial(n, theta) ones, so the exact
out-degree pmf is the mixing-averaged binomial

    P{S_n = k} = C(n, k) * E theta**k (1 - theta)**(n - k),

computed through the log-space row polynomial of :mod:`exchgraph.mixing`,
under every ensemble variant.  In-degrees: a column collects one Bernoulli(mu_n)
entry from each of the m independent rows, so the exact in-degree law is
Binomial(m, mu_n) for iid biases, averaged over any shared draw.

Limit laws: when n * theta converges to a seed distribution F (the mixing
law's ``limit_seed()``), out-degrees converge to the Poisson mixture
integral t**k e**-t / k! dF(t), which ``limit_pmf`` evaluates.  The seed states
it: by default one ``SeedDistribution._log_expect`` per order, in closed form
where one exists (geometric for the exponential seed, negative binomial for
the gamma seed, the incomplete gamma of the power-law seed, the Lerch zipf law,
the hierarchical two-term combination), each cross-checked in the tests
against the default route.  ``limit_law_json`` writes the report form of that
law, named by its closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._numerics import check_orders, shaped_like, special
from .ensemble import EnsembleConfig
from .errors import ParameterError
from .mixing import MixingSpec, _log_binom, log_row_prob, moment
from .seeds import PowerLawSeed, SeedDistribution

__all__ = [
    "out_pmf_exact",
    "in_pmf_exact",
    "limit_pmf",
    "limit_law_json",
    "tail_asymptote",
    "moment_transfer_check",
    "MomentTransferReport",
    "total_variation",
    "write_pmf_table",
]


# ---------------------------------------------------------------------------
# exact finite-n laws


def out_pmf_exact(spec: MixingSpec, n: int, k) -> np.ndarray | float:
    """P{out-degree = k} for a row of width n under the mixing law."""
    ks = check_orders(k, "out-degree", hi=n)
    return shaped_like(np.exp(_log_binom(n, ks) + log_row_prob(spec, n, ks)), k)


def in_pmf_exact(config: EnsembleConfig, k) -> np.ndarray | float:
    """P{in-degree = k}: Binomial(m, mu_n) pmf at k for iid rows, averaged
    over the shared draw of the config's variant."""
    n, m = config.n, config.m
    ks = check_orders(k, "in-degree", hi=m)
    logc = _log_binom(m, ks)

    def law(spec):  # xlogy and xlog1py read 0 log 0 as 0: the mu = 0 and 1 point masses
        mu = moment(spec, n, 1)
        return np.exp(logc + special.xlogy(ks, mu) + special.xlog1py(m - ks, -mu))

    return shaped_like(config.average(law), k)


# ---------------------------------------------------------------------------
# limit laws


def limit_pmf(seed: SeedDistribution, k) -> np.ndarray | float:
    """The out-degree limit law of a seed F at k (vectorized): its Poisson
    mixture integral t**k e**-t / k! dF(t)."""
    return shaped_like(seed._mixture_pmf(check_orders(k, "degree")), k)


# the report names a closed-form mixture by its law, keyed here by its seed's kind
_LAW_KINDS = {"dirac": "poisson", "exponential": "geometric", "gamma": "negative_binomial",
              "power_law": "power_law_tail", "lerch": "lerch_zipf",
              "hierarchical": "hierarchical_mixture"}


def limit_law_json(seed: SeedDistribution) -> dict:
    """The report form of a seed's Poisson mixture: its law's kind with the seed's
    fields (a Dirac seed's t0 as the Poisson ``lam``), or a ``poisson_mixture``
    holding the seed where no closed form has a name."""
    wire = seed.to_json()
    kind = _LAW_KINDS.get(wire.pop("kind"))
    if kind is None:
        return {"kind": "poisson_mixture", "seed": seed.to_json()}
    return {"kind": kind, **({"lam": wire["t0"]} if kind == "poisson" else wire)}


def tail_asymptote(alpha: float, beta: float, k) -> np.ndarray | float:
    """Leading large-k form of the power-tail mixture: a**(b-1) (b-1) k**-b, k >= 1."""
    PowerLawSeed(alpha, beta)     # the domain of (alpha, beta)
    ks = check_orders(k, "tail asymptote order")
    if np.any(ks == 0):
        raise ParameterError(f"tail asymptote order must be at least 1, got {k!r}")
    return shaped_like(alpha ** (beta - 1.0) * (beta - 1.0) * ks ** -beta, k)


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


def moment_transfer_check(seed: SeedDistribution, gamma_ord: float,
                          k_cap: int = 10_000) -> MomentTransferReport:
    """Check that sum k**g p_k of the seed F's Poisson mixture p and integral
    t**g dF stabilize (or grow) together.

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
    pmf = limit_pmf(seed, np.arange(k_cap + 1))
    ks = np.arange(k_cap + 1, dtype=float)
    weights = ks ** gamma_ord
    weights[0] = 0.0
    sums = np.cumsum(weights * pmf)[caps].tolist()
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
    """CSV with columns k,exact,limit,abs_diff."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k,exact,limit,abs_diff\n")
        for kk, ev, lv in zip(np.atleast_1d(ks), np.atleast_1d(exact), np.atleast_1d(limit)):
            ev, lv = float(ev), float(lv)
            fh.write(f"{int(kk)},{ev!r},{lv!r},{abs(ev - lv)!r}\n")
