"""Small-pattern statistics: cycles, feedforward triples, roots, leaves.

Counting works on the realized adjacency matrix with the diagonal ignored,
so self-edges never contribute to a pattern.  Expected counts and variances
come from first principles each call: place the pattern (or a pair of
patterns) on a canonical vertex set, tally distinct edges per sender, and
average theta powers under the mixing law.  Given iid biases the rows are
independent, so the probability of a union of placements factors into
per-sender moments; the variance routine enumerates every overlap class of
two triples rather than trusting a transcribed polynomial.  Each law is
written for iid biases and averaged over the shared draw of the config's
variant (a variance averages its second moment and its mean apart).  The
means count the copies whose out-edges all leave the m sender rows, so they
hold for m < n too; the variances and the connectivity bound are
square-only, and the ``motifs`` command writes them as null when m != n.

The Monte Carlo routines draw the adjacency law in replica blocks
(:func:`ensemble.replica_blocks`) and count with the routines a realized
graph uses, over stacks of adjacency matrices; triple counts run in float64,
which is exact for the integer counts at hand.  Their results are
deterministic in master_seed.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import cache, partial

import numpy as np

from .ensemble import BitMatrix, EnsembleConfig, draw_adjacency, replica_blocks
from .errors import EnumerationBudgetError, ParameterError
from .mixing import MixingSpec, log_row_prob, moment

__all__ = [
    "count_feedback_loops",
    "count_feedforward_loops",
    "count_cycles",
    "count_roots",
    "count_leaves",
    "count_isolated",
    "weak_components",
    "SubgraphPattern",
    "count_subgraph",
    "mean_feedback_loops",
    "mean_feedforward_loops",
    "mean_cycles",
    "mean_subgraph",
    "mean_roots",
    "mean_leaves",
    "var_feedback_loops",
    "var_feedforward_loops",
    "connectivity_bound",
    "MotifMcReport",
    "RootLeafMcReport",
    "mc_motifs",
    "mc_cycles",
    "mc_roots_leaves",
]

_FBL_EDGES = ((0, 1), (1, 2), (2, 0))
_FFL_EDGES = ((0, 1), (1, 2), (0, 2))


def _dense(matrix) -> np.ndarray:
    if isinstance(matrix, BitMatrix):
        return matrix.to_dense()
    arr = np.asarray(matrix)
    if arr.ndim != 2:
        raise ParameterError("adjacency must be a 2-d matrix")
    return arr.astype(bool)


def _square_no_diag(matrix) -> np.ndarray:
    a = _dense(matrix)
    if a.shape[0] != a.shape[1]:
        raise ParameterError(f"pattern counting needs a square matrix, got {a.shape}")
    a = a.astype(np.float64)
    np.fill_diagonal(a, 0.0)
    return a


# ---------------------------------------------------------------------------
# counting on a realized graph


def _triple_counts(a: np.ndarray):
    """Directed 3-cycles tr(A^3) / 3 and feedforward triples sum(A^2 * A) of
    float64 adjacency stacks (..., n, n) with a zero diagonal.  The float64
    sums are exact integers below 2**53."""
    sq = a @ a
    return np.einsum("...ij,...ji->...", sq, a) / 3.0, np.einsum("...ij,...ij->...", sq, a)


def count_feedback_loops(matrix) -> int:
    """Directed 3-cycles, each counted once: tr(A^3) / 3 on the zeroed diagonal."""
    return int(round(float(_triple_counts(_square_no_diag(matrix))[0])))


def count_feedforward_loops(matrix) -> int:
    """Ordered triples with edges s->m, m->t, s->t: sum (A^2 * A)."""
    return int(round(float(_triple_counts(_square_no_diag(matrix))[1])))


def _adjacency_lists(a: np.ndarray) -> list[np.ndarray]:
    return [np.flatnonzero(a[i]) for i in range(a.shape[0])]


def _cycles_from_adj(adj, a, n: int, k: int, budget: int) -> int:
    # each simple directed k-cycle is found once, from its smallest vertex
    count = 0
    ops = 0

    def extend(start: int, v: int, depth: int, visited: set) -> int:
        nonlocal ops
        if depth == k - 1:
            return int(a[v, start])
        found = 0
        for w in adj[v]:
            w = int(w)
            if w <= start or w in visited:
                continue
            ops += 1
            if ops > budget:
                raise EnumerationBudgetError(
                    f"cycle search exceeded {budget} edge expansions at k={k}")
            visited.add(w)
            found += extend(start, w, depth + 1, visited)
            visited.remove(w)
        return found

    for s in range(n):
        count += extend(s, s, 0, {s})
    return count


def count_cycles(matrix, k: int, budget: int = 50_000_000) -> int:
    """Simple directed k-cycles (k >= 2), each counted once."""
    if not (isinstance(k, (int, np.integer)) and k >= 2):
        raise ParameterError(f"cycle length must be an integer >= 2, got {k!r}")
    a = _square_no_diag(matrix).astype(bool)
    return _cycles_from_adj(_adjacency_lists(a), a, a.shape[0], int(k), budget)


def _roots_leaves(a: np.ndarray):
    """Root and leaf counts among the m senders of adjacency stacks (..., m, n):
    a root has an empty in-column and some out-edge, a leaf an empty out-row
    and some in-edge."""
    rows = a.sum(axis=-1)
    cols = a.sum(axis=-2)[..., :a.shape[-2]]
    return ((cols == 0) & (rows >= 1)).sum(axis=-1), ((rows == 0) & (cols >= 1)).sum(axis=-1)


def count_roots(matrix) -> int:
    """Sender nodes with an empty in-column but at least one outgoing edge."""
    return int(_roots_leaves(_dense(matrix))[0])


def count_leaves(matrix) -> int:
    """Sender nodes with an empty out-row but at least one incoming edge."""
    return int(_roots_leaves(_dense(matrix))[1])


def count_isolated(matrix) -> int:
    """Nodes with no incident edge at all (self-edges count as incident)."""
    a = _dense(matrix)
    m, n = a.shape
    cols = a.sum(axis=0)
    rows = a.sum(axis=1)
    iso_senders = int(((rows == 0) & (cols[:m] == 0)).sum())
    iso_receivers = int((cols[m:] == 0).sum())
    return iso_senders + iso_receivers


def weak_components(matrix) -> int:
    """Connected components of the undirected support on all n nodes."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    a = _dense(matrix)
    n = a.shape[1]
    src, dst = np.nonzero(a)
    graph = csr_array((np.ones(src.size), (src, dst)), shape=(n, n))
    return int(connected_components(graph, directed=True, connection="weak")[0])


# ---------------------------------------------------------------------------
# subgraph patterns


@dataclass(frozen=True)
class SubgraphPattern:
    """A small directed pattern given as edges between labels 0..k-1."""

    edges: tuple
    k: int

    @classmethod
    def parse(cls, text: str) -> "SubgraphPattern":
        """Parse 'u>v' pairs separated by commas, e.g. '0>1,1>2,0>2'."""
        edges = []
        for part in text.split(","):
            part = part.strip()
            try:
                u_s, v_s = part.split(">")
                u, v = int(u_s), int(v_s)
            except ValueError as exc:
                raise ParameterError(f"bad pattern edge {part!r}") from exc
            if u == v:
                raise ParameterError(f"pattern may not contain the self-edge {part!r}")
            if (u, v) in edges:
                raise ParameterError(f"duplicate pattern edge {part!r}")
            if u < 0 or v < 0:
                raise ParameterError(f"pattern labels must be >= 0, got {part!r}")
            edges.append((u, v))
        if not edges:
            raise ParameterError("pattern needs at least one edge")
        labels = {u for e in edges for u in e}
        k = max(labels) + 1
        if labels != set(range(k)):
            raise ParameterError(f"pattern labels must cover 0..{k - 1} with no gaps")
        return cls(edges=tuple(sorted(edges)), k=k)

    @property
    def aut_size(self) -> int:
        es = set(self.edges)
        hits = 0
        for perm in itertools.permutations(range(self.k)):
            if all((perm[u], perm[v]) in es for u, v in self.edges) and len(es) == len(self.edges):
                hits += 1
        return hits

    def out_degrees(self) -> list[int]:
        out = [0] * self.k
        for u, _ in self.edges:
            out[u] += 1
        return out


def count_subgraph(matrix, pattern: SubgraphPattern, budget: int = 50_000_000) -> int:
    """Copies of the pattern in the graph (isomorphic images, each once)."""
    a = _square_no_diag(matrix).astype(bool)
    n = a.shape[0]
    if pattern.k > n:
        return 0
    embeddings = 0
    ops = 0
    for tup in itertools.permutations(range(n), pattern.k):
        ops += 1
        if ops > budget:
            raise EnumerationBudgetError(
                f"subgraph search exceeded {budget} vertex tuples at k={pattern.k}")
        if all(a[tup[u], tup[v]] for u, v in pattern.edges):
            embeddings += 1
    aut = pattern.aut_size
    assert embeddings % aut == 0
    return embeddings // aut


# ---------------------------------------------------------------------------
# expected counts: placements and moment products


def _placements(edges, verts) -> list[frozenset]:
    """Distinct edge-set images of a pattern on a labeled vertex tuple."""
    k = len(verts)
    seen = set()
    for perm in itertools.permutations(range(k)):
        seen.add(frozenset((verts[perm[u]], verts[perm[v]]) for u, v in edges))
    return sorted(seen, key=sorted)


def _placement_prob(edge_set, delta) -> float:
    return math.prod(map(delta, Counter(u for u, _ in edge_set).values()))


def _check_senders(config: EnsembleConfig) -> int:
    if config.m > config.n:
        raise ParameterError(f"sender count must satisfy m <= n, got m={config.m}, n={config.n}")
    return config.m


def _mean_pattern(config, k, aut, out_degrees) -> float:
    """Expected copies of a k-vertex pattern with aut automorphisms whose
    vertices send out_degrees edges.  A copy puts each of its s sending
    vertices on one of the m senders and the rest anywhere else, so there
    are perm(m, s) * perm(n - s, k - s) / aut of them, each present with
    the product of its senders' theta moments under iid biases."""
    n, m = config.n, _check_senders(config)
    degrees = [d for d in out_degrees if d]
    s = len(degrees)
    if s > m:
        return 0.0
    copies = math.perm(m, s) * math.perm(n - s, k - s) / aut
    return config.average(
        lambda spec: copies * math.prod(map(cache(partial(moment, spec, n)), degrees)))


def mean_feedback_loops(config: EnsembleConfig) -> float:
    """Expected directed 3-cycle count: perm(m, 3) E[theta]^3 / 3 for iid biases."""
    return _mean_pattern(config, 3, 3, (1, 1, 1))


def mean_feedforward_loops(config: EnsembleConfig) -> float:
    """Expected feedforward count: perm(m, 2) (n-2) E[theta^2] E[theta] for iid biases."""
    return _mean_pattern(config, 3, 1, (2, 1, 0))


def mean_cycles(config: EnsembleConfig, k: int) -> float:
    """Expected simple k-cycle count: perm(m, k) E[theta]^k / k for iid biases."""
    if not (isinstance(k, (int, np.integer)) and 2 <= k <= config.n):
        raise ParameterError(f"cycle length must satisfy 2 <= k <= n, got {k!r}")
    return _mean_pattern(config, int(k), int(k), (1,) * int(k))


def mean_subgraph(config: EnsembleConfig, pattern: SubgraphPattern) -> float:
    """Expected copies of the pattern; see _mean_pattern."""
    return _mean_pattern(config, pattern.k, pattern.aut_size, pattern.out_degrees())


def _second_moment_on_triples(spec, n, edges) -> float:
    """E[N^2] for a 3-vertex pattern count under iid biases.

    Every ordered pair of triples falls in one of four overlap classes; the
    orientation sum within a class is computed by brute placement pairing.
    """
    delta = cache(partial(moment, spec, n))  # each moment once
    classes = [
        ((0, 1, 2), 1),
        ((0, 1, 3), 3 * (n - 3)),
        ((0, 3, 4), 3 * math.comb(max(n - 3, 0), 2)),
        ((3, 4, 5), math.comb(max(n - 3, 0), 3)),
    ]
    base = _placements(edges, (0, 1, 2))
    total = 0.0
    for other, mult in classes:
        if mult == 0:
            continue
        class_sum = 0.0
        for p in base:
            for q in _placements(edges, other):
                class_sum += _placement_prob(p | q, delta)
        total += mult * class_sum
    return math.comb(n, 3) * total


def _var_triples(config: EnsembleConfig, edges, mean) -> float:
    """E[N^2] and E N averaged apart over the variant's shared draw."""
    n = config.n
    if config.m != n:
        raise ParameterError("triple variances need a square ensemble (m == n)")
    if n < 3:
        return 0.0
    mu = mean(config)
    return config.average(lambda spec: _second_moment_on_triples(spec, n, edges)) - mu * mu


def var_feedback_loops(config: EnsembleConfig) -> float:
    return _var_triples(config, _FBL_EDGES, mean_feedback_loops)


def var_feedforward_loops(config: EnsembleConfig) -> float:
    return _var_triples(config, _FFL_EDGES, mean_feedforward_loops)


# ---------------------------------------------------------------------------
# roots, leaves, connectivity


def _root_leaf_inputs(spec: MixingSpec, n: int):
    return moment(spec, n, 1), math.exp(log_row_prob(spec, n, 0))


def _root_leaf_mean(config: EnsembleConfig, law) -> float:
    n, m = config.n, _check_senders(config)
    return config.average(lambda spec: law(m, *_root_leaf_inputs(spec, n)))


def mean_roots(config: EnsembleConfig) -> float:
    """Expected root count among the m senders.

    A sender is a root when no sender row hits its column (its own row
    included, so no self-edge) and its row has at least one edge elsewhere.
    The own-row event couples the two conditions: for iid biases P =
    (1 - mu)**(m-1) * ((1 - mu) - P{empty row}).
    """
    return _root_leaf_mean(config, lambda m, mu, p0: m * (1.0 - mu) ** (m - 1) * ((1.0 - mu) - p0))


def mean_leaves(config: EnsembleConfig) -> float:
    """Expected leaf count among the m senders: empty own row, some in-edge."""
    return _root_leaf_mean(config, lambda m, mu, p0: m * p0 * (1.0 - (1.0 - mu) ** (m - 1)))


def connectivity_bound(spec: MixingSpec, n: int) -> float:
    """Upper estimate of P{weakly connected} from the isolated-node count.

    Second-moment argument on the number of isolated nodes, treating
    distinct nodes' isolation events as uncorrelated; returns 1 when the
    isolation probability vanishes.
    """
    mu, p0 = _root_leaf_inputs(spec, n)
    p_iso = (1.0 - mu) ** (n - 1) * p0
    pair = p_iso * p_iso
    denom = (n - 1) / n * pair + p_iso / n
    if denom <= 0.0:
        return 1.0
    return 1.0 - pair / denom


# ---------------------------------------------------------------------------
# vectorized sampling routes

_TAG_MOTIF = 101
_TAG_CYCLE = 102
_TAG_ROOT_LEAF = 103


@dataclass(frozen=True)
class MotifMcReport:
    replicas: int
    fbl_mean: float
    fbl_se: float
    fbl_var: float
    ffl_mean: float
    ffl_se: float
    ffl_var: float


@dataclass(frozen=True)
class RootLeafMcReport:
    replicas: int
    roots_mean: float
    roots_se: float
    leaves_mean: float
    leaves_se: float


def _mean_se_var(x: np.ndarray):
    mean = float(x.mean())
    var = float(x.var(ddof=1)) if len(x) > 1 else 0.0
    return mean, math.sqrt(var / len(x)), var


def _with_replicas(config: EnsembleConfig, replicas) -> EnsembleConfig:
    return config if replicas is None else replace(config, replicas=int(replicas))


def mc_motifs(config: EnsembleConfig, replicas: int | None = None) -> MotifMcReport:
    """Replica means and variances of the two triple counts.

    Replicates only the adjacency law (bias draws then independent rows),
    not the bit-level sampler, so large replica counts stay affordable;
    results are deterministic in master_seed.  ``replicas``, when given,
    stands in for config.replicas.
    """
    config = _with_replicas(config, replicas)
    if config.m != config.n:
        raise ParameterError("triple statistics need a square ensemble (m == n)")
    n = config.n
    fbl = np.empty(config.replicas)
    ffl = np.empty(config.replicas)
    for lo, thetas, rng in replica_blocks(config, _TAG_MOTIF):
        a = draw_adjacency(thetas, n, rng).astype(np.float64)
        a[:, np.arange(n), np.arange(n)] = 0.0
        fbl[lo:lo + len(a)], ffl[lo:lo + len(a)] = _triple_counts(a)
    f_mean, f_se, f_var = _mean_se_var(fbl)
    g_mean, g_se, g_var = _mean_se_var(ffl)
    return MotifMcReport(replicas=config.replicas, fbl_mean=f_mean, fbl_se=f_se,
                         fbl_var=f_var, ffl_mean=g_mean, ffl_se=g_se, ffl_var=g_var)


def mc_cycles(config: EnsembleConfig, ks,
              budget: int = 50_000_000) -> dict[int, tuple[float, float]]:
    """Replica mean and standard error of the k-cycle count for each k."""
    if config.m != config.n:
        raise ParameterError("cycle statistics need a square ensemble (m == n)")
    ks = [int(k) for k in ks]
    if any(k < 2 for k in ks):
        raise ParameterError("cycle lengths must be >= 2")
    n = config.n
    counts = {k: np.empty(config.replicas) for k in ks}
    for lo, thetas, rng in replica_blocks(config, _TAG_CYCLE):
        a = draw_adjacency(thetas, n, rng)
        a[:, np.arange(n), np.arange(n)] = False
        for r in range(len(a)):
            adj = _adjacency_lists(a[r])
            for k in ks:
                counts[k][lo + r] = _cycles_from_adj(adj, a[r], n, k, budget)
    out = {}
    for k in ks:
        mean, se, _ = _mean_se_var(counts[k])
        out[k] = (mean, se)
    return out


def mc_roots_leaves(config: EnsembleConfig,
                    replicas: int | None = None) -> RootLeafMcReport:
    """Replica means of the root and leaf counts among senders.

    ``replicas``, when given, stands in for config.replicas.
    """
    config = _with_replicas(config, replicas)
    roots = np.empty(config.replicas)
    leaves = np.empty(config.replicas)
    for lo, thetas, rng in replica_blocks(config, _TAG_ROOT_LEAF):
        a = draw_adjacency(thetas, config.n, rng)
        roots[lo:lo + len(a)], leaves[lo:lo + len(a)] = _roots_leaves(a)
    r_mean, r_se, _ = _mean_se_var(roots)
    l_mean, l_se, _ = _mean_se_var(leaves)
    return RootLeafMcReport(replicas=config.replicas, roots_mean=r_mean, roots_se=r_se,
                            leaves_mean=l_mean, leaves_se=l_se)
