"""Small-pattern statistics: cycles, feedforward triples, roots, leaves.

Counting works on the realized adjacency matrix with the diagonal ignored,
so self-edges never contribute to a pattern; an m x n matrix is the graph on
n nodes whose nodes m..n-1 only receive.  Expected counts and second moments
share one copy count: a graph on u vertices whose s sending vertices send
d_1..d_s edges has perm(m, s) * perm(n - s, u - s) copies with their senders
among the m sender rows, each present with the product of the theta moments
E theta**d_v under iid biases.  A mean counts the copies of the pattern;
E[N^2] counts those of every union of two copies, listed by how the second
copy's vertices land on the first's, so no overlap class is transcribed by
hand.  Each law is written for iid biases and averaged over the shared draw
of the config's variant (a variance averages its second moment and its mean
apart), and each holds for every m <= n.

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

def _senders(a: np.ndarray) -> int:
    """m of an adjacency matrix or stack (..., m, n).  Rows m..n-1 of the graph
    on n nodes are the empty rows of the nodes that only receive, so the
    counters read the m x n array as it is; m > n is refused."""
    m, n = a.shape[-2:]
    if m > n:
        raise ParameterError(f"counting needs m <= n rows, got shape {(m, n)}")
    return m


def _dense(matrix) -> np.ndarray:
    if isinstance(matrix, BitMatrix):
        a = matrix.to_dense()
    elif (a := np.asarray(matrix).astype(bool)).ndim != 2:
        raise ParameterError("adjacency must be a 2-d matrix")
    _senders(a)
    return a


def _no_self_edges(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    """An adjacency matrix or stack (..., m, n) as dtype, its self-edges cleared
    (in place when it already has that dtype)."""
    m = _senders(a)
    a = a.astype(dtype, copy=False)
    diag = np.arange(m)
    a[..., diag, diag] = 0
    return a


# ---------------------------------------------------------------------------
# counting on a realized graph


def _triple_counts(a: np.ndarray):
    """Directed 3-cycles tr(A^3) / 3 and feedforward triples sum(A^2 * A) of
    float64 adjacency stacks (..., m, n) without self-edges.  Only the m
    senders have out-edges, so a path of two edges turns at a sender:
    the rows of A^2 are A[:, :m] A.  The float64 sums are exact integers
    below 2**53."""
    m = a.shape[-2]
    sq = a[..., :m] @ a
    return (np.einsum("...ij,...ji->...", sq[..., :m], a[..., :m]) / 3.0,
            np.einsum("...ij,...ij->...", sq, a))


def count_feedback_loops(matrix) -> int:
    """Directed 3-cycles, each counted once: tr(A^3) / 3 on the zeroed diagonal."""
    return int(round(float(_triple_counts(_no_self_edges(_dense(matrix)))[0])))


def count_feedforward_loops(matrix) -> int:
    """Ordered triples with edges s->m, m->t, s->t: sum (A^2 * A)."""
    return int(round(float(_triple_counts(_no_self_edges(_dense(matrix)))[1])))


def _adjacency_lists(a: np.ndarray) -> list[np.ndarray]:
    return [np.flatnonzero(a[i]) for i in range(a.shape[0])]


def _cycles_from_adj(adj, a, k: int, budget: int) -> int:
    # each simple directed k-cycle is found once, from its smallest vertex;
    # every vertex of a cycle sends, so a and adj cover the m x m sender block
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

    for s in range(len(adj)):
        count += extend(s, s, 0, {s})
    return count


def count_cycles(matrix, k: int, budget: int = 50_000_000) -> int:
    """Simple directed k-cycles (k >= 2), each counted once."""
    if not (isinstance(k, (int, np.integer)) and k >= 2):
        raise ParameterError(f"cycle length must be an integer >= 2, got {k!r}")
    a = _no_self_edges(_dense(matrix), bool)
    a = a[:, :a.shape[0]]
    return _cycles_from_adj(_adjacency_lists(a), a, int(k), budget)


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
    a = _no_self_edges(_dense(matrix), bool)
    m, n = a.shape
    if pattern.k > n:
        return 0
    embeddings = 0
    ops = 0
    for tup in itertools.permutations(range(n), pattern.k):
        ops += 1
        if ops > budget:
            raise EnumerationBudgetError(
                f"subgraph search exceeded {budget} vertex tuples at k={pattern.k}")
        if all(tup[u] < m and a[tup[u], tup[v]] for u, v in pattern.edges):
            embeddings += 1
    aut = pattern.aut_size
    assert embeddings % aut == 0
    return embeddings // aut


# ---------------------------------------------------------------------------
# expected counts: one copy count for means and second moments


_FBL = SubgraphPattern(edges=((0, 1), (1, 2), (2, 0)), k=3)
_FFL = SubgraphPattern(edges=((0, 1), (0, 2), (1, 2)), k=3)


def _check_senders(config: EnsembleConfig) -> int:
    if config.m > config.n:
        raise ParameterError(f"sender count must satisfy m <= n, got m={config.m}, n={config.n}")
    return config.m


def _expected_copies(config: EnsembleConfig, shapes, aut) -> float:
    """Expected copies of the shapes, over aut.  ``shapes`` maps (u, degrees)
    to a weight: a graph on u vertices whose sending vertices send
    ``degrees`` edges.  A copy puts its s = len(degrees) senders on s of the
    m sender rows and its other vertices anywhere else, perm(m, s) *
    perm(n - s, u - s) ways, and is present with the product of its senders'
    theta moments under iid biases.  A shape with more than m senders or n
    vertices has no copy."""
    n, m = config.n, _check_senders(config)
    terms = [(weight * math.perm(m, len(d)) * math.perm(n - len(d), u - len(d)) / aut, d)
             for (u, d), weight in shapes.items() if len(d) <= m and u <= n]
    if not terms:
        return 0.0

    def law(spec):
        delta = cache(partial(moment, spec, n))  # each moment once
        return math.fsum(copies * math.prod(map(delta, d)) for copies, d in terms)

    return config.average(law)


def mean_feedback_loops(config: EnsembleConfig) -> float:
    """Expected directed 3-cycle count: perm(m, 3) E[theta]^3 / 3 for iid biases."""
    return mean_subgraph(config, _FBL)


def mean_feedforward_loops(config: EnsembleConfig) -> float:
    """Expected feedforward count: perm(m, 2) (n-2) E[theta^2] E[theta] for iid biases."""
    return mean_subgraph(config, _FFL)


def mean_cycles(config: EnsembleConfig, k: int) -> float:
    """Expected simple k-cycle count: perm(m, k) E[theta]^k / k for iid biases."""
    if not (isinstance(k, (int, np.integer)) and 2 <= k <= config.n):
        raise ParameterError(f"cycle length must satisfy 2 <= k <= n, got {k!r}")
    return _expected_copies(config, {(int(k), (1,) * int(k)): 1}, int(k))


def mean_subgraph(config: EnsembleConfig, pattern: SubgraphPattern) -> float:
    """Expected copies of the pattern; see _expected_copies."""
    degrees = tuple(d for d in pattern.out_degrees() if d)
    return _expected_copies(config, {(pattern.k, degrees): 1}, pattern.aut_size)


def _pair_shapes(edges, k) -> Counter:
    """The unions of two copies of a k-vertex pattern, tallied as shapes for
    _expected_copies.  The first copy sits on 0..k-1; the second maps the
    vertices ``shared`` onto the first copy's ``image`` and its other
    vertices v onto new ones k + v: one union for each partial injection
    (34 for k = 3, 209 for k = 4)."""
    shapes = Counter()
    for j in range(k + 1):
        for shared in itertools.combinations(range(k), j):
            for image in itertools.permutations(range(k), j):
                label = dict(zip(shared, image))
                union = set(edges) | {(label.get(u, k + u), label.get(v, k + v))
                                      for u, v in edges}
                degrees = Counter(u for u, _ in union).values()
                shapes[2 * k - j, tuple(sorted(degrees))] += 1
    return shapes


def _var_pattern(config: EnsembleConfig, pattern: SubgraphPattern) -> float:
    """Variance of the pattern's copy count N.  E[N^2] sums over ordered
    pairs of copies, that is the unions of _pair_shapes over aut**2; it and
    E N are averaged apart over the variant's shared draw."""
    aut, mean = pattern.aut_size, mean_subgraph(config, pattern)
    second = _expected_copies(config, _pair_shapes(pattern.edges, pattern.k), aut * aut)
    return second - mean * mean


def var_feedback_loops(config: EnsembleConfig) -> float:
    return _var_pattern(config, _FBL)


def var_feedforward_loops(config: EnsembleConfig) -> float:
    return _var_pattern(config, _FFL)


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


def connectivity_bound(config: EnsembleConfig) -> float:
    """Upper bound 1 - (E X)**2 / E[X**2] on P{weakly connected}, where X
    counts the isolated nodes (Cauchy-Schwarz; 1 when none can be isolated).

    With p0 = E(1 - theta)**n, q = 1 - mu and q2 = E(1 - theta)**2 under iid
    biases, a sender is isolated with probability p0 q**(m-1) and a receiver
    with q**m; two senders are with p0**2 q2**(m-2), a sender and a receiver
    with p0 q2**(m-1), two receivers with q2**m.  E X and E[X**2] are
    averaged together over the variant's shared draw.
    """
    n, m = config.n, _check_senders(config)
    r = n - m

    def law(spec):
        mu, p0 = _root_leaf_inputs(spec, n)
        q, q2 = 1.0 - mu, 1.0 - 2.0 * mu + moment(spec, n, 2)
        mean = m * p0 * q ** (m - 1) + r * q ** m
        pairs = (m * (m - 1) * p0 * p0 * q2 ** max(m - 2, 0)
                 + 2 * m * r * p0 * q2 ** (m - 1) + r * (r - 1) * q2 ** m)
        return np.array([mean, mean + pairs])

    mean, second = config.average(law)
    return 1.0 if second <= 0.0 else 1.0 - mean * mean / second


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
    fbl = np.empty(config.replicas)
    ffl = np.empty(config.replicas)
    for lo, thetas, rng in replica_blocks(config, _TAG_MOTIF):
        a = _no_self_edges(draw_adjacency(thetas, config.n, rng))
        fbl[lo:lo + len(a)], ffl[lo:lo + len(a)] = _triple_counts(a)
    f_mean, f_se, f_var = _mean_se_var(fbl)
    g_mean, g_se, g_var = _mean_se_var(ffl)
    return MotifMcReport(replicas=config.replicas, fbl_mean=f_mean, fbl_se=f_se,
                         fbl_var=f_var, ffl_mean=g_mean, ffl_se=g_se, ffl_var=g_var)


def mc_cycles(config: EnsembleConfig, ks,
              budget: int = 50_000_000) -> dict[int, tuple[float, float]]:
    """Replica mean and standard error of the k-cycle count for each k."""
    ks = [int(k) for k in ks]
    if any(k < 2 for k in ks):
        raise ParameterError("cycle lengths must be >= 2")
    counts = {k: np.empty(config.replicas) for k in ks}
    for lo, thetas, rng in replica_blocks(config, _TAG_CYCLE):
        a = _no_self_edges(draw_adjacency(thetas, config.n, rng), bool)[..., :config.m]
        for r in range(len(a)):
            adj = _adjacency_lists(a[r])
            for k in ks:
                counts[k][lo + r] = _cycles_from_adj(adj, a[r], k, budget)
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
