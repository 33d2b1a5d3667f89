"""Sampling of exchangeable random directed graphs as sorted edge keys.

A graph on n nodes is stored as its m x n adjacency matrix: row i lists the
out-edges of sender i, column j the in-edges of receiver j.  Rows are filled
independently given their biases theta_i, which are drawn according to the
ensemble variant:

* ``partially_exchangeable``: theta_i iid from the mixing law;
* ``completely_exchangeable``: one theta shared by every row;
* ``hierarchical``: one cutoff draw shared by all rows, then iid theta_i from
  the power-law slice at that cutoff.

Rows are filled by one batched sampler whose cost is O(edges + m), in the
spirit of Batagelj & Brandes (PRE 71, 036113, 2005).  It draws every row
count k_i ~ Binomial(n, theta_i) in one call, then a uniform k_i-subset of
columns per row in bulk: k_i iid uniform columns, deduplicated, with only
the deficit redrawn, which keeps the first k_i distinct values of an iid
uniform sequence.  Rows with a large theta, and matrices with few cells,
take a dense uniform pass instead, through :func:`draw_adjacency`, the same
Bernoulli draw the Monte Carlo kernels use; both routes give each row n iid
Bernoulli(theta_i) bits.  A matrix is held as the sorted row-major keys
i * n + j of its ones, 8 bytes per edge, so equal matrices have equal keys.
Degree sums, the text edge list (the one file format) and its reader all
work on those keys, never on a dense m x n array.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._codec import JsonCodec
from ._numerics import shaped_like, spawn_rng
from .errors import ConfigError, ParameterError
from .mixing import (DiracMixing, HierarchicalMixing, MixingSpec, PowerLawMixing,
                     sample_thetas)

__all__ = [
    "BitMatrix",
    "RowRule",
    "SquareRows",
    "FractionRows",
    "PowerFractionRows",
    "LogFractionRows",
    "ExplicitRows",
    "EnsembleConfig",
    "GraphSample",
    "sample_graph",
    "sample_bias_matrix",
    "replica_blocks",
    "replica_values",
    "McEstimate",
    "draw_adjacency",
    "out_degrees",
    "in_degrees",
    "map_replicas",
    "write_edge_list",
    "read_edge_list",
]

# Matrices with at most this many cells take one dense uniform pass.
_DENSE_CELLS = 1 << 15
# Rows with theta at or above this take a dense uniform pass.
_DENSE_THETA = 0.05
# Elements per temporary array in the sampler and the edge-list writer.
_BLOCK = 1 << 12
# Per-replica cells in one Monte Carlo block of replica_blocks: 2 MiB per
# float64 array, one core's L2 on a 2-core Xeon.  Swept over 2**16 ... 2**22
# cells there, the kernels' CPU was flat up to 2**20 and climbed above it,
# while each kernel's traced peak grows with the budget: 2.6-5.8 MiB at this
# one, 39-87 MiB at 4e6.
_MC_CELLS = 1 << 18


class BitMatrix:
    """m x n binary matrix held as the sorted, distinct row-major int64 keys
    i * n + j of its ones; from_dense and from_coords check their input."""

    __slots__ = ("m", "n", "keys")

    def __init__(self, m: int, n: int, keys: np.ndarray | None = None):
        if m < 0 or n < 0:
            raise ParameterError("matrix dimensions must be nonnegative")
        self.m = int(m)
        self.n = int(n)
        self.keys = np.zeros(0, dtype=np.int64) if keys is None else keys

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "BitMatrix":
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ParameterError("dense input must be 2-D")
        return cls(*dense.shape, np.flatnonzero(dense))

    @classmethod
    def from_coords(cls, m: int, n: int, rows, cols) -> "BitMatrix":
        """The m x n matrix with ones at (rows[k], cols[k]), in any order;
        repeated entries are harmless."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise ParameterError("row and column indices must be 1-D and of equal length")
        # rows and columns apart: a column >= n would alias the next row's key
        bad = (rows < 0) | (rows >= m) | (cols < 0) | (cols >= n)
        if bad.any():
            k = int(np.argmax(bad))
            raise ParameterError(f"entry ({rows[k]}, {cols[k]}) outside {m} x {n}")
        return cls(m, n, np.unique(rows * n + cols))

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.m * self.n, dtype=np.uint8)
        dense[self.keys] = 1
        return dense.reshape(self.m, self.n)

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column indices of the ones, in row-major order."""
        return np.divmod(self.keys, max(self.n, 1))

    def row_sums(self) -> np.ndarray:
        return np.bincount(self.keys // max(self.n, 1), minlength=self.m)

    def col_sums(self) -> np.ndarray:
        return np.bincount(self.keys % max(self.n, 1), minlength=self.n)

    def count_ones(self) -> int:
        return int(self.keys.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return (self.m == other.m and self.n == other.n
                and bool(np.array_equal(self.keys, other.keys)))

    def __repr__(self) -> str:
        return f"BitMatrix(m={self.m}, n={self.n}, ones={self.count_ones()})"


# ---------------------------------------------------------------------------
# row-count rules


class RowRule(JsonCodec, tag="kind", error=ConfigError, family="row rule"):
    def resolve(self, n: int, mixing: MixingSpec) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class SquareRows(RowRule):
    kind = "square"

    def resolve(self, n, mixing):
        return n


@dataclass(frozen=True)
class FractionRows(RowRule):
    """m = floor(delta * n) with delta in (0, 1]."""

    delta: float
    kind = "fraction"

    def __post_init__(self):
        if not 0.0 < self.delta <= 1.0:
            raise ConfigError("fraction row rule needs delta in (0, 1]")

    def resolve(self, n, mixing):
        return math.floor(self.delta * n)


@dataclass(frozen=True)
class PowerFractionRows(RowRule):
    """m = floor(delta * n**(beta - 1)); beta comes from the mixing family."""

    delta: float
    kind = "power_fraction"

    def __post_init__(self):
        if not self.delta > 0:
            raise ConfigError("power fraction row rule needs delta > 0")

    def resolve(self, n, mixing):
        beta = mixing.row_exponent()
        if beta is None:
            raise ConfigError(
                "power fraction row rule needs a mixing family with a beta exponent")
        return math.floor(self.delta * n ** (beta - 1.0))


@dataclass(frozen=True)
class LogFractionRows(RowRule):
    """m = floor(delta * n / log n); needs n >= 2."""

    delta: float
    kind = "log_fraction"

    def __post_init__(self):
        if not self.delta > 0:
            raise ConfigError("log fraction row rule needs delta > 0")

    def resolve(self, n, mixing):
        if n < 2:
            raise ConfigError("log fraction row rule needs n >= 2")
        return math.floor(self.delta * n / math.log(n))


@dataclass(frozen=True)
class ExplicitRows(RowRule):
    m: int
    kind = "explicit"

    def __post_init__(self):
        if not (isinstance(self.m, int) and self.m >= 1):
            raise ConfigError("explicit row rule needs integer m >= 1")

    def resolve(self, n, mixing):
        return self.m


_VARIANTS = ("partially_exchangeable", "completely_exchangeable", "hierarchical")


@dataclass(frozen=True)
class EnsembleConfig(JsonCodec, error=ConfigError, family="ensemble config"):
    """Everything needed to reproduce a replica stream of random graphs."""

    n: int
    mixing: MixingSpec
    row_rule: RowRule = SquareRows()
    variant: str = "partially_exchangeable"
    master_seed: int = 0
    replicas: int = 1

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ConfigError(f"n must be a positive integer, got {self.n!r}")
        if self.variant not in _VARIANTS:
            raise ConfigError(f"unknown ensemble variant {self.variant!r}")
        if self.variant == "hierarchical" and not isinstance(self.mixing, HierarchicalMixing):
            raise ConfigError("hierarchical sampling needs a hierarchical mixing law")
        if not (isinstance(self.replicas, int) and self.replicas >= 1):
            raise ConfigError("replicas must be a positive integer")
        if not isinstance(self.master_seed, int):
            raise ConfigError("master_seed must be an integer")
        self.mixing.validate(self.n)
        m = self.row_rule.resolve(self.n, self.mixing)
        if m < 1:
            raise ConfigError(
                f"row rule resolves to m={m} < 1 at n={self.n}; increase n or delta")

    @property
    def m(self) -> int:
        return self.row_rule.resolve(self.n, self.mixing)

    @property
    def iid_rows(self) -> bool:
        """Whether the row biases are iid, as the hub limit, the GF(2) rate and the
        regime report assume (see :meth:`average`)."""
        return self.variant == "partially_exchangeable"

    def average(self, law, log: bool = False):
        """A multi-row law under this config's variant.  ``law(mixing)`` is its
        value (>= 0, or an array; logs if ``log``) for iid row biases from
        ``mixing``, averaged elementwise in log space over the shared draw: at the
        point mass theta over theta ~ pi_n (completely exchangeable), at
        PowerLawMixing(a, beta) over the cutoff a ~ a**-gamma on [A, n/2] (hierarchical)."""
        spec, width = self.mixing, self.n
        if self.iid_rows:
            return law(spec)
        if self.variant == "completely_exchangeable":
            outer, inner = spec, DiracMixing        # over t = n theta
        else:   # a has the law of t under the power law t**-gamma at width n/2
            outer, width = PowerLawMixing(spec.A, spec.gamma_exp), self.n / 2.0
            inner = partial(PowerLawMixing, beta=spec.beta)

        def log_law(t):
            with np.errstate(divide="ignore"):
                value = np.asarray(law(inner(t)), dtype=float)
                return value if log else np.log(value)

        shape = log_law(width).shape
        out = np.reshape([outer._log_mean(width, lambda t: float(log_law(t).flat[i]))
                          for i in range(math.prod(shape))], shape)
        return shaped_like(out if log else np.exp(out), out)


@dataclass
class GraphSample:
    matrix: BitMatrix
    thetas: np.ndarray
    replica_index: int
    seed_used: int


# -- row filling ------------------------------------------------------------


def _fill_rows(n: int, thetas: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sorted keys i * n + j of row i filled with n iid Bernoulli(thetas[i]) bits.

    A matrix of at most _DENSE_CELLS cells takes one dense uniform pass.  In
    larger ones, the rows with theta < _DENSE_THETA draw their counts
    k_i ~ Binomial(n, theta_i) in one call and then a uniform k_i-subset of
    columns each (see :func:`_subset_keys`), and the other rows take a dense
    pass in blocks of about _BLOCK cells (one row at least).  Both routes give
    the same law per row, so the route may follow theta.  Each route yields
    sorted keys, and one stable sort merges the two runs.
    """
    if thetas.size * n <= _DENSE_CELLS:
        return np.flatnonzero(draw_adjacency(thetas, n, rng))
    sparse = thetas < _DENSE_THETA
    rows = np.flatnonzero(sparse)
    parts = _subset_keys(n, rows, rng.binomial(n, thetas[rows]), rng)
    dense = np.flatnonzero(~sparse)
    step = max(1, _BLOCK // n)
    for lo in range(0, dense.size, step):
        block = dense[lo:lo + step]
        hit, cols = np.nonzero(draw_adjacency(thetas[block], n, rng))
        parts.append(block[hit] * n + cols)
    keys = np.concatenate([np.zeros(0, dtype=np.int64), *parts])
    if rows.size and dense.size:
        keys.sort(kind="stable")
    return keys


def _subset_keys(n: int, rows: np.ndarray, counts: np.ndarray,
                 rng: np.random.Generator) -> list[np.ndarray]:
    """Sorted keys row * n + col of a uniform counts[k]-subset of the columns
    of row rows[k], one array per group of about _BLOCK keys.

    Each row draws counts[k] iid uniform columns; keys are deduplicated, and
    only the deficit is redrawn until every row has its count of distinct
    columns.  A redraw of d values adds at most d new ones, so the result is
    the first counts[k] distinct values of an iid uniform sequence: a uniform
    subset.
    """
    ends = np.cumsum(counts)
    if ends.size == 0:
        return []
    cuts = np.searchsorted(ends, np.arange(_BLOCK, ends[-1], _BLOCK), side="right")
    bounds = [0, *cuts.tolist(), rows.size]
    parts = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        want = counts[lo:hi]
        total = int(want.sum())
        if total == 0:
            continue
        base = rows[lo:hi] * n
        keys = _sorted_distinct(np.repeat(base, want) + rng.integers(0, n, size=total))
        while keys.size < total:
            have = np.searchsorted(keys, base + n) - np.searchsorted(keys, base)
            deficit = want - have
            fresh = np.repeat(base, deficit) + rng.integers(0, n, size=int(deficit.sum()))
            keys = _sorted_distinct(np.concatenate((keys, fresh)))
        parts.append(keys)
    return parts


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of ``keys`` (sorted in place)."""
    # the stable sort keeps fewer code pages resident than the default
    # quicksort's SIMD kernels (64 KiB against 320 KiB of RSS)
    keys.sort(kind="stable")
    return keys[np.append(True, keys[1:] != keys[:-1])]


def sample_bias_matrix(config: EnsembleConfig, count: int, rng: np.random.Generator) -> np.ndarray:
    """Per-replica bias matrix of shape (count, m) under the config's variant.

    sample_graph takes row 0 of a one-replica draw; the Monte Carlo blocks of
    :func:`replica_blocks` take one row per replica.
    """
    spec, n, m = config.mixing, config.n, config.m
    if config.variant == "completely_exchangeable":
        return np.repeat(sample_thetas(spec, n, rng, count)[:, None], m, axis=1)
    if config.variant == "hierarchical":
        return spec.sample_slices(n, rng, count, m)
    return sample_thetas(spec, n, rng, count * m).reshape(count, m)


def replica_blocks(config: EnsembleConfig, tag: int, dense: bool = True):
    """Yield (offset, thetas, rng) over consecutive blocks of config.replicas.

    thetas holds the bias rows of replicas offset, offset + 1, ..., drawn
    from rng = spawn_rng(master_seed, offset, tag), which then serves the
    block's further draws.  A block holds at most _MC_CELLS per-replica
    cells (m * n for a dense adjacency draw, m when ``dense`` is false), or
    one replica that has more.  Monte Carlo outputs are thus a function of
    the seed, the resolved config and this budget.
    """
    cells = config.m * (config.n if dense else 1)
    step = max(1, _MC_CELLS // cells)
    for lo in range(0, config.replicas, step):
        rng = spawn_rng(config.master_seed, lo, tag)
        yield lo, sample_bias_matrix(config, min(step, config.replicas - lo), rng), rng


def replica_values(config: EnsembleConfig, tag: int, kernel, dense: bool = True) -> np.ndarray:
    """``kernel(thetas, rng)`` on each block of :func:`replica_blocks`, whose values
    (last axis over the block's replicas) are joined in replica order."""
    return np.concatenate([kernel(thetas, rng) for _, thetas, rng
                           in replica_blocks(config, tag, dense)], axis=-1)


@dataclass(frozen=True)
class McEstimate:
    """Replica mean of a Monte Carlo statistic, its ddof-1 variance and the standard
    error sqrt(var / replicas); var and se are 0 for one replica."""

    replicas: int
    mean: float
    se: float
    var: float

    @classmethod
    def of(cls, values) -> "McEstimate":
        values = np.asarray(values)
        var = float(values.var(ddof=1)) if len(values) > 1 else 0.0
        return cls(len(values), float(values.mean()), math.sqrt(var / len(values)), var)


def draw_adjacency(thetas: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Boolean adjacency of shape (replicas, m, n): entry (r, i, j) is set with
    probability thetas[r, i], from float64 uniforms."""
    return rng.random((*thetas.shape, n)) < thetas[..., None]


def sample_graph(config: EnsembleConfig, replica_index: int) -> GraphSample:
    """Draw replica ``replica_index`` of the configured ensemble.

    Bitwise deterministic: the replica stream seed is a pure function of
    (master_seed, replica_index), so the result does not depend on scheduling
    or on how many other replicas are drawn.
    """
    if not (isinstance(replica_index, (int, np.integer)) and replica_index >= 0):
        raise ConfigError(f"replica index must be a nonnegative integer, got {replica_index!r}")
    rng = spawn_rng(config.master_seed, int(replica_index))
    seed = rng.bit_generator.seed_seq.entropy   # stream_seed(master_seed, replica_index)
    thetas = sample_bias_matrix(config, 1, rng)[0]
    matrix = BitMatrix(config.m, config.n, _fill_rows(config.n, thetas, rng))
    return GraphSample(matrix=matrix, thetas=thetas,
                       replica_index=int(replica_index), seed_used=seed)


def out_degrees(sample: GraphSample) -> np.ndarray:
    """Row sums: number of out-edges per sender (loops included)."""
    return sample.matrix.row_sums()


def in_degrees(sample: GraphSample) -> np.ndarray:
    """Column sums: number of in-edges per receiver (loops included)."""
    return sample.matrix.col_sums()


def map_replicas(config: EnsembleConfig, worker) -> list:
    """Apply ``worker(sample)`` to every replica, one after another; the
    results come in replica order."""
    return [worker(sample_graph(config, k)) for k in range(config.replicas)]


# -- edge-list files --------------------------------------------------------


def write_edge_list(sample: GraphSample, config: EnsembleConfig, path) -> None:
    """Text edge list, one '<sender>TAB<receiver>' pair per line, 0-based.

    Header comment lines record the shape, replica seed, and the full mixing
    spec as one-line JSON so a sample is reconstructible from its file.
    Edges are written in row-major order, _BLOCK keys at a time.
    """
    matrix = sample.matrix
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# exchgraph edge list\n")
        fh.write(f"# n={matrix.n} m={matrix.m} replica={sample.replica_index} "
                 f"seed={sample.seed_used}\n")
        fh.write(f"# spec={json.dumps(config.mixing.to_json(), sort_keys=True)}\n")
        for lo in range(0, matrix.keys.size, _BLOCK):
            rows, cols = np.divmod(matrix.keys[lo:lo + _BLOCK], matrix.n)
            fh.write("".join([f"{i}\t{j}\n" for i, j in zip(rows.tolist(), cols.tolist())]))


def read_edge_list(path) -> tuple[BitMatrix, dict]:
    """Parse an edge list written by :func:`write_edge_list`.  A bad line, an
    edge outside the header's m x n included, raises ParameterError naming it."""
    meta: dict = {}
    edges = []      # (sender, receiver, line)
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    for line in filter(None, lines):
        try:
            if not line.startswith("#"):
                i, j = map(int, line.split("\t"))
                edges.append((i, j, line))
                continue
            body = line[1:].strip()
            for tok in body.split():
                key, eq, val = tok.partition("=")
                if eq and key in ("n", "m", "replica", "seed"):
                    meta[key] = int(val)
            if body.startswith("spec="):
                meta["spec"] = json.loads(body[len("spec="):])
        except ValueError as exc:
            raise ParameterError(f"bad edge list line {line!r}: {exc}") from None
    if "n" not in meta or "m" not in meta:
        raise ParameterError("edge list header must carry n= and m=")
    m, n = meta["m"], meta["n"]
    for i, j, line in edges:
        if not (0 <= i < m and 0 <= j < n):
            raise ParameterError(f"bad edge list line {line!r}: outside {m} x {n}")
    rows, cols = [e[0] for e in edges], [e[1] for e in edges]
    return BitMatrix.from_coords(m, n, rows, cols), meta
