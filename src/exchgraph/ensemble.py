"""Sampling of exchangeable random directed graphs as bit-packed matrices.

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
Bernoulli(theta_i) bits.  Matrices are packed 64 columns per word,
little-endian within the word, and padding bits above column n-1 are kept at
zero so word-level equality is matrix equality.  The text edge list is the
one file format; its I/O and column sums go through the coordinates of the
set bits, never a dense m x n array.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._codec import JsonCodec
from ._numerics import spawn_rng
from .errors import ConfigError, ParameterError
from .mixing import MixingSpec, HierarchicalMixing, log_row_prob, sample_thetas

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
    "draw_adjacency",
    "out_degrees",
    "in_degrees",
    "row_prob",
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
# Per-replica cells in one Monte Carlo block of replica_blocks: the hub's
# row sums at m = 5000 take 800 replicas, and no dense kernel's temporaries
# outgrow them.
_MC_CELLS = 4_000_000


def _pack_dense(bits: np.ndarray, words_per_row: int) -> np.ndarray:
    """Pack a 2-D boolean array into rows of little-endian 64-bit words."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    padded = np.zeros((bits.shape[0], words_per_row * 8), dtype=np.uint8)
    padded[:, : packed.shape[1]] = packed
    return padded.view("<u8")


class BitMatrix:
    """m x n binary matrix packed 64 columns per little-endian word."""

    __slots__ = ("m", "n", "words")

    def __init__(self, m: int, n: int, words: np.ndarray | None = None):
        if m < 0 or n < 0:
            raise ParameterError("matrix dimensions must be nonnegative")
        self.m = int(m)
        self.n = int(n)
        w = (self.n + 63) // 64
        if words is None:
            self.words = np.zeros((self.m, w), dtype=np.uint64)
        else:
            words = np.ascontiguousarray(words, dtype=np.uint64)
            if words.shape != (self.m, w):
                raise ParameterError(
                    f"expected word array of shape {(self.m, w)}, got {words.shape}")
            self.words = words
            self._mask_padding()

    @property
    def words_per_row(self) -> int:
        return self.words.shape[1]

    def _mask_padding(self) -> None:
        rem = self.n % 64
        if rem and self.words.shape[1]:
            mask = np.uint64((1 << rem) - 1)
            self.words[:, -1] &= mask

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "BitMatrix":
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ParameterError("dense input must be 2-D")
        m, n = dense.shape
        out = cls(m, n)
        if n == 0 or m == 0:
            return out
        out.words[:] = _pack_dense(dense != 0, out.words_per_row)
        return out

    def to_dense(self) -> np.ndarray:
        if self.m == 0 or self.n == 0:
            return np.zeros((self.m, self.n), dtype=np.uint8)
        by = self.words.astype("<u8").view(np.uint8).reshape(self.m, -1)
        bits = np.unpackbits(by, axis=1, bitorder="little")
        return bits[:, : self.n]

    def get(self, i: int, j: int) -> int:
        if not (0 <= i < self.m and 0 <= j < self.n):
            raise IndexError(f"entry ({i}, {j}) outside {self.m} x {self.n}")
        return int((self.words[i, j >> 6] >> np.uint64(j & 63)) & np.uint64(1))

    def set(self, i: int, j: int, value: int = 1) -> None:
        if not (0 <= i < self.m and 0 <= j < self.n):
            raise IndexError(f"entry ({i}, {j}) outside {self.m} x {self.n}")
        bit = np.uint64(1) << np.uint64(j & 63)
        if value:
            self.words[i, j >> 6] |= bit
        else:
            self.words[i, j >> 6] &= ~bit

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column indices of the set bits, in row-major order.  The
        nonzero words unpack _BLOCK at a time, into 64 * _BLOCK bytes."""
        rows, word_cols = np.nonzero(self.words)
        values = self.words[rows, word_cols].astype("<u8", copy=False)
        out = np.empty((2, int(np.bitwise_count(values).sum())), dtype=np.int64)
        done = 0
        for lo in range(0, rows.size, _BLOCK):
            by = values[lo:lo + _BLOCK].view(np.uint8).reshape(-1, 8)
            hit, bit = np.nonzero(np.unpackbits(by, axis=1, bitorder="little"))
            hit += lo
            out[:, done:done + hit.size] = rows[hit], word_cols[hit] * 64 + bit
            done += hit.size
        return out[0], out[1]

    def set_coords(self, rows, cols) -> None:
        """Set the bits at (rows[k], cols[k]); repeated entries are harmless."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise ParameterError("row and column indices must be 1-D and of equal length")
        if rows.size == 0:
            return
        if (rows.min() < 0 or rows.max() >= self.m
                or cols.min() < 0 or cols.max() >= self.n):
            bad = (rows < 0) | (rows >= self.m) | (cols < 0) | (cols >= self.n)
            k = int(np.argmax(bad))
            raise IndexError(
                f"entry ({rows[k]}, {cols[k]}) outside {self.m} x {self.n}")
        flat = rows * self.words_per_row + (cols >> 6)
        bits = np.left_shift(np.uint64(1), (cols & 63).astype(np.uint64))
        np.bitwise_or.at(self.words.reshape(-1), flat, bits)

    def row_sums(self) -> np.ndarray:
        if self.words.size == 0:
            return np.zeros(self.m, dtype=np.int64)
        return np.bitwise_count(self.words).sum(axis=1).astype(np.int64)

    def col_sums(self) -> np.ndarray:
        return np.bincount(self.coords()[1], minlength=self.n).astype(np.int64)

    def count_ones(self) -> int:
        if self.words.size == 0:
            return 0
        return int(np.bitwise_count(self.words).sum())

    def copy(self) -> "BitMatrix":
        return BitMatrix(self.m, self.n, self.words.copy())

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return (self.m == other.m and self.n == other.n
                and bool(np.array_equal(self.words, other.words)))

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


@dataclass
class GraphSample:
    matrix: BitMatrix
    thetas: np.ndarray
    replica_index: int
    seed_used: int


# -- row filling ------------------------------------------------------------


def _fill_rows(matrix: BitMatrix, thetas: np.ndarray, rng: np.random.Generator) -> None:
    """Fill row i of an empty ``matrix`` with n iid Bernoulli(thetas[i]) bits.

    A matrix of at most _DENSE_CELLS cells takes one dense uniform pass.  In
    larger ones, rows with theta >= _DENSE_THETA take a dense pass in blocks
    of about _BLOCK cells (one row at least), and the other rows draw their
    counts k_i ~ Binomial(n, theta_i) in one call and then a uniform
    k_i-subset of columns each (see :func:`_fill_subsets`).  Both routes give
    the same law per row, so the route may follow theta.
    """
    m, n, width = matrix.m, matrix.n, matrix.words_per_row
    if m * n <= _DENSE_CELLS:
        matrix.words[:] = _pack_dense(draw_adjacency(thetas, n, rng), width)
        return
    sparse = thetas < _DENSE_THETA
    rows = np.flatnonzero(sparse)
    _fill_subsets(matrix, rows, rng.binomial(n, thetas[rows]), rng)
    dense = np.flatnonzero(~sparse)
    step = max(1, _BLOCK // n)
    for lo in range(0, dense.size, step):
        block = dense[lo:lo + step]
        matrix.words[block] = _pack_dense(draw_adjacency(thetas[block], n, rng), width)


def _fill_subsets(matrix: BitMatrix, rows: np.ndarray, counts: np.ndarray,
                  rng: np.random.Generator) -> None:
    """Set a uniform counts[k]-subset of the columns of row rows[k].

    Each row draws counts[k] iid uniform columns; keys row*n + col are
    deduplicated, and only the deficit is redrawn until every row has its
    count of distinct columns.  A redraw of d values adds at most d new ones,
    so the result is the first counts[k] distinct values of an iid uniform
    sequence: a uniform subset.  Rows go in groups of about _BLOCK keys.
    """
    n = matrix.n
    ends = np.cumsum(counts)
    if ends.size == 0:
        return
    cuts = np.searchsorted(ends, np.arange(_BLOCK, ends[-1], _BLOCK), side="right")
    bounds = [0, *cuts.tolist(), rows.size]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        want = counts[lo:hi]
        total = int(want.sum())
        if total == 0:
            continue
        base = rows[lo:hi].astype(np.int64) * n
        keys = _sorted_distinct(np.repeat(base, want) + rng.integers(0, n, size=total))
        while keys.size < total:
            have = np.searchsorted(keys, base + n) - np.searchsorted(keys, base)
            deficit = want - have
            fresh = np.repeat(base, deficit) + rng.integers(0, n, size=int(deficit.sum()))
            keys = _sorted_distinct(np.concatenate((keys, fresh)))
        row_of_key = np.repeat(rows[lo:hi], want)
        matrix.set_coords(row_of_key, keys - row_of_key * n)


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
        shared = sample_thetas(spec, n, rng, count)
        return np.broadcast_to(shared[:, None], (count, m)).copy()
    if config.variant == "hierarchical":
        return spec.sample_slices(n, rng, count, m)
    return sample_thetas(spec, n, rng, count * m).reshape(count, m)


def replica_blocks(config: EnsembleConfig, tag: int, dense: bool = True):
    """Yield (offset, thetas, rng) over consecutive blocks of config.replicas.

    thetas holds the bias rows of replicas offset, offset + 1, ..., drawn
    from rng = spawn_rng(master_seed, offset, tag), which then serves the
    block's further draws.  A block holds about _MC_CELLS per-replica cells:
    m * n for a dense adjacency draw, m when ``dense`` is false.
    """
    cells = config.m * (config.n if dense else 1)
    step = max(1, _MC_CELLS // cells)
    for lo in range(0, config.replicas, step):
        rng = spawn_rng(config.master_seed, lo, tag)
        yield lo, sample_bias_matrix(config, min(step, config.replicas - lo), rng), rng


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
    matrix = BitMatrix(config.m, config.n)
    _fill_rows(matrix, thetas, rng)
    return GraphSample(matrix=matrix, thetas=thetas,
                       replica_index=int(replica_index), seed_used=seed)


def out_degrees(sample: GraphSample) -> np.ndarray:
    """Row sums: number of out-edges per sender (loops included)."""
    return sample.matrix.row_sums()


def in_degrees(sample: GraphSample) -> np.ndarray:
    """Column sums: number of in-edges per receiver (loops included)."""
    return sample.matrix.col_sums()


def row_prob(spec: MixingSpec, n: int, r: int) -> float:
    """P of one fixed row pattern with r ones: E theta**r (1-theta)**(n-r)."""
    return math.exp(log_row_prob(spec, n, r))


def map_replicas(config: EnsembleConfig, worker) -> list:
    """Apply ``worker(sample)`` to every replica, one after another; the
    results come in replica order."""
    return [worker(sample_graph(config, k)) for k in range(config.replicas)]


# -- edge-list files --------------------------------------------------------


def write_edge_list(sample: GraphSample, config: EnsembleConfig, path) -> None:
    """Text edge list, one '<sender>TAB<receiver>' pair per line, 0-based.

    Header comment lines record the shape, replica seed, and the full mixing
    spec as one-line JSON so a sample is reconstructible from its file.
    Edges are written in row-major order.
    """
    matrix = sample.matrix
    rows, cols = matrix.coords()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# exchgraph edge list\n")
        fh.write(f"# n={matrix.n} m={matrix.m} replica={sample.replica_index} "
                 f"seed={sample.seed_used}\n")
        fh.write(f"# spec={json.dumps(config.mixing.to_json(), sort_keys=True)}\n")
        for lo in range(0, rows.size, _BLOCK):
            pairs = zip(rows[lo:lo + _BLOCK].tolist(), cols[lo:lo + _BLOCK].tolist())
            fh.write("".join([f"{i}\t{j}\n" for i, j in pairs]))


def read_edge_list(path) -> tuple[BitMatrix, dict]:
    """Parse an edge list written by :func:`write_edge_list`."""
    meta: dict = {}
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    for line in lines:
        if not line:
            continue
        if not line.startswith("#"):
            if line.count("\t") != 1:
                raise ParameterError(f"malformed edge line {line!r}")
            edges.append(line)
            continue
        body = line[1:].strip()
        for tok in body.split():
            if "=" in tok:
                key, _, val = tok.partition("=")
                if key in ("n", "m", "replica", "seed"):
                    meta[key] = int(val)
        if body.startswith("spec="):
            meta["spec"] = json.loads(body[len("spec="):])
    if "n" not in meta or "m" not in meta:
        raise ParameterError("edge list header must carry n= and m=")
    cells = "\t".join(edges).split("\t") if edges else []
    pairs = np.fromiter(map(int, cells), dtype=np.int64, count=len(cells))
    matrix = BitMatrix(meta["m"], meta["n"])
    matrix.set_coords(pairs[0::2], pairs[1::2])
    return matrix, meta

