"""Kernel structure of sampled matrices over the two-element field.

Solutions of X^T x = 0 with XOR arithmetic count one per kernel vector, the
zero vector included: N = 2^(m - rank).  Cycle-style edge subsets follow as
S = 2^(n - m) * N - 1 = 2^(n - rank) - 1.  The exact mean of N over the
ensemble has a closed binomial form in the signed bias moments
xi(j) = E[(1 - 2 theta)^j], summed from j = 0: dropping the j = 0 term, as a
hasty reading of the alternating expansion suggests, breaks agreement with
exhaustive enumeration (Dirac at theta = 1/2, n = m = 2 gives 1.75, not
0.75), so the inclusive sum is authoritative here.  That form holds for iid
row biases; other variants average it over their shared draw, in log space.

The growth rate of that mean under dilution m = floor(n / gamma) is the sup
over x in [0, 1] of

    rate(x) = log(1 + laplace(2 x)) / gamma - (x log x + (1-x) log(1-x) + log 2)

with the Laplace transform taken under the seed law of the bias scale.  For
seeds with finite mean the sup always exceeds the x = 0 baseline; heavy
tails push it back to the baseline for small gamma, and the crossover
gamma_c is found by bisection.  The rate is independent-row theory only.

The Monte Carlo mean draws replica blocks through
:func:`ensemble.replica_blocks` and is deterministic in master_seed.  It
ranks every replica with the column packer and XOR-basis eliminator that
:func:`rank_gf2` uses, so it takes any sender count.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._numerics import logsumexp
from .ensemble import BitMatrix, EnsembleConfig, draw_adjacency, replica_blocks
from .errors import NoThresholdError, ParameterError
from .mixing import _log_binom, xi
from .seeds import SeedDistribution

__all__ = [
    "Gf2Report",
    "rank_gf2",
    "log_expected_solutions",
    "expected_solutions",
    "DegenerateTermWarning",
    "theta_rate",
    "RateReport",
    "rate_sup",
    "gamma_critical",
    "threshold_bisection",
    "KernelMcReport",
    "mc_kernel_mean",
    "write_theta_grid",
]

_LOG2 = math.log(2.0)
_BIG_EXPONENT = 512
_TAG_GF2 = 105


class DegenerateTermWarning(UserWarning):
    """Some signed bias moment xi(j) vanished; the mean formula loses terms."""


# -- exact rank -------------------------------------------------------------


@dataclass(frozen=True)
class Gf2Report:
    """Kernel census of one m x n matrix, derived from its rank.

    Counts stay exact Python integers while their exponents fit 512 bits;
    beyond that the count fields are None and only the log2 fields are
    meaningful.  S = 0 carries log2 = -inf.
    """

    rows: int
    cols: int
    rank: int

    def __post_init__(self):
        if not 0 <= self.rank <= min(self.rows, self.cols):
            raise ParameterError("rank must lie in [0, min(m, n)]")

    @property
    def nullity_of_transpose(self) -> int:
        return self.rows - self.rank

    @property
    def n_solutions(self) -> int | None:
        """N = 2^(m - rank)."""
        exponent = self.nullity_of_transpose
        return 1 << exponent if exponent <= _BIG_EXPONENT else None

    @property
    def s_hypercycles(self) -> int | None:
        """S = 2^(n - rank) - 1."""
        exponent = self.cols - self.rank
        return (1 << exponent) - 1 if exponent <= _BIG_EXPONENT else None

    @property
    def log2_n_solutions(self) -> float:
        return float(self.nullity_of_transpose)

    @property
    def log2_s_hypercycles(self) -> float:
        s = self.s_hypercycles
        if s is None:
            return float(self.cols - self.rank)
        return math.log2(s) if s else -math.inf

    def to_json(self) -> dict:
        def count_field(value, log2_value):
            if value is not None and value < 2 ** 63:
                return int(value)
            return {"log2": log2_value}

        return {
            "rows": self.rows,
            "cols": self.cols,
            "rank": self.rank,
            "nullity_of_transpose": self.nullity_of_transpose,
            "N_solutions": count_field(self.n_solutions, self.log2_n_solutions),
            "S_hypercycles": count_field(self.s_hypercycles,
                                         self.log2_s_hypercycles),
        }


def _transpose_words(matrix: BitMatrix) -> list[int]:
    """Rows of X^T as arbitrary-width integers over the m sender bits."""
    rows, cols = matrix.coords()
    words = np.zeros((matrix.n, (matrix.m + 63) // 64), dtype="<u8")
    bits = np.left_shift(np.uint64(1), (rows & 63).astype(np.uint64))
    np.bitwise_or.at(words, (cols, rows >> 6), bits)
    if words.shape[1] == 1:
        return words[:, 0].tolist()
    return [int.from_bytes(row.tobytes(), "little") for row in words]


def _int_rank(rows: list[int], m: int) -> int:
    # xor basis indexed by leading bit; word-parallel via Python int XOR
    basis = [0] * m
    rank = 0
    for value in rows:
        while value:
            lead = value.bit_length() - 1
            pivot = basis[lead]
            if not pivot:
                basis[lead] = value
                rank += 1
                break
            value ^= pivot
    return rank


def rank_gf2(matrix: BitMatrix) -> Gf2Report:
    """Eliminate X^T over the two-element field and report the kernel census."""
    return Gf2Report(matrix.m, matrix.n, _int_rank(_transpose_words(matrix), matrix.m))


# -- exact mean of the solution count ---------------------------------------


def log_expected_solutions(config: EnsembleConfig) -> float:
    """Natural log of E N = 2^-n * sum_j C(n, j) * (1 + xi(j))^m for iid
    biases, averaged over the shared draw of the config's variant.

    The j = 0 term is included (see the module docstring).  Vanishing xi(j)
    of the config's mixing law (not of the point masses that a shared-bias
    average visits) are reported as a DegenerateTermWarning but evaluation
    proceeds: the exhaustive oracle validates the formula there too.
    """
    n, m = config.n, config.m
    log_binom = _log_binom(n, np.arange(n + 1)).tolist()
    vanished = []

    def law(spec):
        xs = xi(spec, n, np.arange(n + 1)).tolist()
        if spec is config.mixing:
            vanished.extend(j for j, x in enumerate(xs) if j > 0 and abs(x) <= 1e-12)
        log_terms = [b + m * math.log1p(x) if x > -1.0 else -math.inf
                     for b, x in zip(log_binom, xs)]
        return float(-n * _LOG2 + logsumexp(log_terms))

    value = config.average(law, log=True)
    if vanished:
        shown = ", ".join(str(j) for j in vanished[:6])
        more = "..." if len(vanished) > 6 else ""
        warnings.warn(
            f"xi vanishes at j in {{{shown}{more}}}; the mean formula keeps "
            "only the surviving terms", DegenerateTermWarning, stacklevel=2)
    return value


def expected_solutions(config: EnsembleConfig) -> float:
    """E N in linear scale; inf if the log form exceeds float range."""
    log_value = log_expected_solutions(config)
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


# -- growth rate under dilution ---------------------------------------------


def _entropy_part(x: float) -> float:
    # x log x + (1-x) log(1-x), continuously extended to the endpoints
    if x in (0.0, 1.0):
        return 0.0
    return x * math.log(x) + (1.0 - x) * math.log1p(-x)


def theta_rate(seed: SeedDistribution, gamma: float, x: float) -> float:
    """Pointwise growth-rate integrand at dilution gamma."""
    if not 0.0 < gamma <= 1.0:
        raise ParameterError("gamma must lie in (0, 1]")
    if not 0.0 <= x <= 1.0:
        raise ParameterError("x must lie in [0, 1]")
    log_pair = math.log1p(seed.laplace(2.0 * x))
    return log_pair / gamma - (_entropy_part(x) + _LOG2)


@dataclass(frozen=True)
class RateReport:
    """Grid view of the growth rate at one dilution, with its sup."""

    gamma: float
    theta_values: tuple
    i_gamma: float
    argmax_x: float
    exceeds_baseline: bool

    def __post_init__(self):
        baseline = (1.0 / self.gamma - 1.0) * _LOG2
        if self.i_gamma < baseline - 1e-9:
            raise ParameterError("sup fell below its x = 0 baseline")
        if not 0.0 <= self.argmax_x <= 1.0:
            raise ParameterError("argmax must lie in [0, 1]")


@functools.lru_cache(maxsize=16)
def _log_pair_grid(seed: SeedDistribution):
    """log(1 + laplace(2x)) on the standard grid; gamma-independent."""
    log_side = np.geomspace(1e-12, 0.2, 512)
    linear_side = np.linspace(0.0, 1.0, 513)
    xs = np.unique(np.concatenate([log_side, linear_side]))
    values = np.array([math.log1p(seed.laplace(2.0 * x)) for x in xs])
    return xs, values


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo: float, hi: float, tol: float = 1e-10) -> tuple[float, float]:
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def rate_sup(seed: SeedDistribution, gamma: float) -> RateReport:
    """Sup of the growth rate over [0, 1]: grid scan plus golden-section polish.

    The grid splices a geometric run near 0 into a uniform run so shallow
    maxima at very small x (finite-mean seeds under strong dilution) are
    still seen.
    """
    if not 0.0 < gamma <= 1.0:
        raise ParameterError("gamma must lie in (0, 1]")
    xs, log_pairs = _log_pair_grid(seed)
    entropy = np.array([_entropy_part(x) for x in xs])
    values = log_pairs / gamma - (entropy + _LOG2)
    best = int(np.argmax(values))
    lo = xs[best - 1] if best > 0 else xs[best]
    hi = xs[best + 1] if best + 1 < len(xs) else xs[best]
    arg, peak = _golden_max(lambda x: theta_rate(seed, gamma, x), lo, hi)
    baseline = (1.0 / gamma - 1.0) * _LOG2
    if peak < values[best]:
        arg, peak = float(xs[best]), float(values[best])
    if baseline >= peak:
        arg, peak = 0.0, baseline
    return RateReport(
        gamma=gamma,
        theta_values=tuple(zip(xs.tolist(), values.tolist())),
        i_gamma=float(peak),
        argmax_x=float(arg),
        exceeds_baseline=bool(peak - baseline > 1e-9),
    )


def _heavy_tail_probe(seed: SeedDistribution) -> bool:
    """log(x) / integral t e^(-2xt) dF(t) must sink toward 0 as x shrinks."""
    ratios = []
    for x in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        ratios.append(abs(math.log(x)) / seed.t_laplace(2.0 * x))
    return all(b < a for a, b in zip(ratios, ratios[1:])) and ratios[-1] < 0.5


def threshold_bisection(seed: SeedDistribution) -> tuple[float, tuple]:
    """Bisect the exceeds-baseline predicate; returns (gamma_c, trace).

    The trace records every (gamma, predicate) probe in evaluation order.
    """
    if seed.mean_is_finite():
        raise NoThresholdError(
            f"{seed.kind} seed has a finite mean: the sup exceeds its "
            "baseline at every dilution, so there is no threshold")
    if not _heavy_tail_probe(seed):
        raise NoThresholdError(
            f"{seed.kind} seed failed the heavy-tail probe, so the "
            "threshold criterion does not apply")
    trace = []

    def probe(g: float) -> bool:
        flag = rate_sup(seed, g).exceeds_baseline
        trace.append((g, flag))
        return flag

    lo = 1e-3
    while probe(lo):
        lo /= 4.0
        if lo < 1e-7:
            raise NoThresholdError(
                "predicate stayed true down to gamma = 1e-7; no crossover found")
    hi = 1.0
    if not probe(hi):
        raise NoThresholdError("predicate false at gamma = 1; no crossover found")
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if probe(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), tuple(trace)


def gamma_critical(seed: SeedDistribution) -> float:
    """Dilution threshold: below it the mean's growth rate sits at baseline."""
    value, _ = threshold_bisection(seed)
    return value


# -- Monte Carlo ------------------------------------------------------------


@dataclass(frozen=True)
class KernelMcReport:
    replicas: int
    mean_solutions: float
    se: float


def mc_kernel_mean(config: EnsembleConfig) -> KernelMcReport:
    """Replica mean of the solution count N = 2^(m - rank).

    Samples the adjacency law directly (bias rows, then independent entries)
    and ranks each replica as rank_gf2 does, for any sender count.
    Deterministic in master_seed.
    """
    n, m, replicas = config.n, config.m, config.replicas
    counts = np.empty(replicas)
    for lo, thetas, rng in replica_blocks(config, _TAG_GF2):
        bits = draw_adjacency(thetas, n, rng)
        # the block's replicas side by side as one m x (B n) matrix, packed at once
        block = BitMatrix.from_dense(bits.transpose(1, 0, 2).reshape(m, -1))
        columns = _transpose_words(block)
        ranks = [_int_rank(columns[k:k + n], m) for k in range(0, len(columns), n)]
        counts[lo:lo + len(ranks)] = 2.0 ** (m - np.array(ranks))
    mean = float(counts.mean())
    se = float(counts.std(ddof=1) / math.sqrt(replicas)) if replicas > 1 else 0.0
    return KernelMcReport(replicas=replicas, mean_solutions=mean, se=se)


def write_theta_grid(report: RateReport, path) -> None:
    """CSV of the rate grid: x, theta."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write("x,theta\n")
        for x, t in report.theta_values:
            handle.write(f"{x:.10g},{t:.10g}\n")
