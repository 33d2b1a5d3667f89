"""Pattern counts and their exact moments.

The mean and variance formulas are pinned by full weighted enumeration:
at n = 3 and n = 4 every adjacency matrix is listed and weighted by the
product of its row-sum probabilities, which is the exact law of the
ensemble.  Counting code is pinned separately by brute-force loops over
vertex tuples.
"""

import functools
import itertools
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from exchgraph.degrees import in_pmf_exact
from exchgraph.ensemble import BitMatrix, EnsembleConfig, ExplicitRows
from exchgraph.errors import EnumerationBudgetError, ParameterError
from exchgraph.gf2 import expected_solutions, rank_gf2
from exchgraph.mixing import (DiracMixing, HierarchicalMixing, PowerLawMixing, log_row_prob,
                              moment)
from exchgraph.motifs import (SubgraphPattern, connectivity_bound, count_cycles,
                              count_feedback_loops, count_feedforward_loops,
                              count_isolated, count_leaves, count_roots,
                              count_subgraph, mc_cycles, mc_motifs, mc_roots_leaves,
                              mean_cycles, mean_feedback_loops, mean_feedforward_loops,
                              mean_leaves, mean_roots, mean_subgraph,
                              var_feedback_loops, var_feedforward_loops,
                              weak_components, _var_pattern)


def random_adjacency(rng, n, p=0.35, self_loops=True):
    a = rng.random((n, n)) < p
    if self_loops:
        np.fill_diagonal(a, rng.random(n) < 0.5)
    return a


def enumerate_square(spec, n, stat):
    """E[stat] and E[stat^2] over every n x n matrix, exactly weighted."""
    rp = [math.exp(log_row_prob(spec, n, r)) for r in range(n + 1)]
    total = total_sq = 0.0
    for gid in range(2 ** (n * n)):
        bits = [(gid >> b) & 1 for b in range(n * n)]
        a = np.array(bits, dtype=bool).reshape(n, n)
        w = math.prod(rp[int(a[i].sum())] for i in range(n))
        v = stat(a)
        total += w * v
        total_sq += w * v * v
    return total, total_sq


class TestCounting:
    def test_triple_counts_match_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(4):
            a = random_adjacency(rng, 8)
            fbl = ffl = 0
            for i, j, k in itertools.permutations(range(8), 3):
                if i < min(j, k) and a[i, j] and a[j, k] and a[k, i]:
                    fbl += 1
                if a[i, j] and a[j, k] and a[i, k]:
                    ffl += 1
            assert count_feedback_loops(a) == fbl
            assert count_feedforward_loops(a) == ffl
            assert count_cycles(a, 3) == fbl

    def test_self_loops_never_counted(self):
        a = np.eye(5, dtype=bool)
        assert count_feedback_loops(a) == 0
        assert count_feedforward_loops(a) == 0
        assert count_cycles(a, 2) == 0

    @pytest.mark.parametrize("k", [2, 4, 5])
    def test_cycles_match_brute_force(self, k):
        rng = np.random.default_rng(k)
        a = random_adjacency(rng, 8)
        brute = 0
        for tup in itertools.permutations(range(8), k):
            if tup[0] == min(tup) and all(a[tup[t], tup[(t + 1) % k]] for t in range(k)):
                brute += 1
        assert count_cycles(a, k) == brute

    def test_cycle_budget_enforced(self):
        a = np.ones((12, 12), dtype=bool)
        with pytest.raises(EnumerationBudgetError):
            count_cycles(a, 6, budget=1000)

    def test_rejects_non_square(self):
        """An m x n matrix with m <= n is the graph whose last n - m nodes only
        receive; more rows than nodes is refused."""
        with pytest.raises(ParameterError):
            count_feedback_loops(np.zeros((4, 3), dtype=bool))

    @pytest.mark.parametrize("count", [
        count_feedback_loops, count_feedforward_loops, lambda a: count_cycles(a, 3),
        lambda a: count_subgraph(a, SubgraphPattern.parse("0>1")), count_roots,
        count_leaves, count_isolated, weak_components,
    ], ids=["feedback", "feedforward", "cycles", "subgraph", "roots", "leaves",
            "isolated", "weak_components"])
    def test_every_counter_refuses_more_rows_than_nodes(self, count):
        """One refusal, named, where NumPy or SciPy would fail on the shapes."""
        for a in (np.ones((4, 3), dtype=bool), BitMatrix.from_dense(np.ones((4, 3), dtype=bool))):
            with pytest.raises(ParameterError, match="needs m <= n rows"):
                count(a)

    def test_rectangular_counts_match_padded(self):
        rng = np.random.default_rng(8)
        a = random_adjacency(rng, 8, p=0.6)[:5]
        padded = np.zeros((8, 8), dtype=bool)
        padded[:5] = a
        path = SubgraphPattern.parse("0>1,1>2")
        for count in (count_feedback_loops, count_feedforward_loops,
                      lambda g: count_cycles(g, 2), lambda g: count_cycles(g, 4),
                      lambda g: count_subgraph(g, path)):
            assert count(a) == count(padded) > 0


class TestSubgraphPattern:
    def test_parse_and_symmetry(self):
        ffl = SubgraphPattern.parse("0>1,1>2,0>2")
        assert ffl.k == 3 and ffl.aut_size == 1
        assert ffl.out_degrees() == [2, 1, 0]
        cyc = SubgraphPattern.parse("0>1,1>2,2>0")
        assert cyc.aut_size == 3
        two = SubgraphPattern.parse("0>1,1>0")
        assert two.aut_size == 2

    @pytest.mark.parametrize("bad", ["0>0", "0>1,0>1", "1>2", "0>", "a>b", ""])
    def test_parse_rejects(self, bad):
        with pytest.raises(ParameterError):
            SubgraphPattern.parse(bad)

    def test_count_agrees_with_specialized_counters(self):
        rng = np.random.default_rng(4)
        a = random_adjacency(rng, 7)
        assert count_subgraph(a, SubgraphPattern.parse("0>1,1>2,0>2")) == \
            count_feedforward_loops(a)
        assert count_subgraph(a, SubgraphPattern.parse("0>1,1>2,2>0")) == \
            count_feedback_loops(a)
        assert count_subgraph(a, SubgraphPattern.parse("0>1,1>0")) == count_cycles(a, 2)

    def test_two_path_count_brute_force(self):
        rng = np.random.default_rng(11)
        a = random_adjacency(rng, 7)
        az = a.copy()
        np.fill_diagonal(az, False)
        brute = sum(1 for i, j, k in itertools.permutations(range(7), 3)
                    if az[i, j] and az[j, k])
        assert count_subgraph(a, SubgraphPattern.parse("0>1,1>2")) == brute

    def test_budget_enforced(self):
        a = np.ones((30, 30), dtype=bool)
        with pytest.raises(EnumerationBudgetError):
            count_subgraph(a, SubgraphPattern.parse("0>1,1>2"), budget=100)


SPECS_SMALL = [
    (DiracMixing(lam=1.0), 3),
    (PowerLawMixing(alpha=1.0, beta=3.0), 3),
    (DiracMixing(lam=1.2), 4),
    (PowerLawMixing(alpha=1.0, beta=2.6), 4),
]


class TestExactMoments:
    @pytest.mark.parametrize("spec,n", SPECS_SMALL)
    def test_feedback_mean_and_variance_exhaustive(self, spec, n):
        e1, e2 = enumerate_square(spec, n, count_feedback_loops)
        assert_allclose(mean_feedback_loops(EnsembleConfig(n, spec)), e1, rtol=1e-10)
        assert_allclose(var_feedback_loops(EnsembleConfig(n, spec)), e2 - e1 * e1, rtol=1e-10)

    @pytest.mark.parametrize("spec,n", SPECS_SMALL)
    def test_feedforward_mean_and_variance_exhaustive(self, spec, n):
        e1, e2 = enumerate_square(spec, n, count_feedforward_loops)
        assert_allclose(mean_feedforward_loops(EnsembleConfig(n, spec)), e1, rtol=1e-10)
        assert_allclose(var_feedforward_loops(EnsembleConfig(n, spec)), e2 - e1 * e1, rtol=1e-10)

    def test_two_cycle_mean_exhaustive(self):
        spec = PowerLawMixing(alpha=1.0, beta=3.0)
        e1, _ = enumerate_square(spec, 3, lambda a: count_cycles(a, 2))
        assert_allclose(mean_cycles(EnsembleConfig(3, spec), 2), e1, rtol=1e-10)

    def test_cycle_mean_closed_form(self):
        spec = PowerLawMixing(alpha=1.0, beta=3.0)
        mu = moment(spec, 20, 1)
        assert_allclose(mean_cycles(EnsembleConfig(20, spec), 5),
                        math.factorial(4) * math.comb(20, 5) * mu ** 5, rtol=1e-12)

    def test_feedback_variance_matches_explicit_polynomial(self):
        # independent transcription of the overlap-class expansion
        spec, n = PowerLawMixing(alpha=1.0, beta=2.6), 30
        mu, d2 = moment(spec, n, 1), moment(spec, n, 2)
        c3 = math.comb(n, 3)
        r_n = c3 - math.comb(n - 3, 3)
        want = (2 * c3 * (mu ** 3 + d2 ** 3)
                + 6 * (n - 3) * c3 * (mu ** 3 * d2 + mu ** 2 * d2 ** 2)
                + 12 * c3 * math.comb(n - 3, 2) * mu ** 4 * d2
                - 4 * c3 * r_n * mu ** 6)
        assert_allclose(var_feedback_loops(EnsembleConfig(n, spec)), want, rtol=1e-12)

    def test_subgraph_mean_exhaustive(self):
        spec = PowerLawMixing(alpha=1.0, beta=3.0)
        pat = SubgraphPattern.parse("0>1,1>2")
        e1, _ = enumerate_square(spec, 3, lambda a: count_subgraph(a, pat))
        assert_allclose(mean_subgraph(EnsembleConfig(3, spec), pat), e1, rtol=1e-10)

    def test_shared_bias_mean_uses_joint_moment(self):
        spec = PowerLawMixing(alpha=1.0, beta=3.0)
        n = 6
        d3 = moment(spec, n, 3)
        cfg = EnsembleConfig(n, spec, variant="completely_exchangeable")
        assert_allclose(mean_feedback_loops(cfg),
                        2 * math.comb(n, 3) * d3, rtol=1e-12)

    def test_pattern_means_exhaustive_rectangular(self):
        """Only the m senders have out-rows: every m x n matrix, padded to
        n x n with empty rows, weighted by its row-sum probabilities."""
        spec, n, m = PowerLawMixing(alpha=1.0, beta=2.5), 4, 2
        path = SubgraphPattern.parse("0>1,1>2")
        stats = {"ffl": count_feedforward_loops, "fbl": count_feedback_loops,
                 "c2": lambda a: count_cycles(a, 2), "c3": lambda a: count_cycles(a, 3),
                 "path": lambda a: count_subgraph(a, path)}
        rp = [math.exp(log_row_prob(spec, n, r)) for r in range(n + 1)]
        sums = dict.fromkeys(stats, 0.0)
        for gid in range(2 ** (m * n)):
            a = np.zeros((n, n), dtype=bool)
            a[:m] = np.array([(gid >> b) & 1 for b in range(m * n)]).reshape(m, n)
            w = math.prod(rp[int(a[i].sum())] for i in range(m))
            for key, stat in stats.items():
                sums[key] += w * stat(a)
        rect = EnsembleConfig(n, spec, ExplicitRows(m))
        assert_allclose(mean_feedforward_loops(rect), sums["ffl"], rtol=1e-10)
        assert_allclose(mean_cycles(rect, 2), sums["c2"], rtol=1e-10)
        assert_allclose(mean_subgraph(rect, path), sums["path"], rtol=1e-10)
        assert sums["fbl"] == sums["c3"] == 0.0
        assert mean_feedback_loops(rect) == mean_cycles(rect, 3) == 0.0
        assert_allclose((sums["ffl"], sums["c2"]), (0.367347, 0.183673), atol=1e-6)

    @pytest.mark.parametrize("n,m", [(4, 2), (4, 3), (4, 4)])
    def test_pair_formula_exhaustive(self, n, m):
        """Every m x n matrix at once, weighted by its row-sum probabilities,
        pins the pair-of-copies variance of 3- and 4-vertex patterns and both
        moments of the isolated-node count behind the connectivity bound."""
        spec = PowerLawMixing(alpha=1.0, beta=2.5)
        cfg = EnsembleConfig(n, spec, ExplicitRows(m))
        a, w = _every_graph(spec, n, m)
        for text in ("0>1,1>2,2>0", "0>1,1>2,0>2", "0>1,1>2,2>3,3>0", "0>1,1>2,2>3"):
            pattern = SubgraphPattern.parse(text)
            copies = _copies(a, pattern)
            mean = w @ copies
            assert_allclose(mean_subgraph(cfg, pattern), mean, rtol=1e-10, err_msg=text)
            assert_allclose(_var_pattern(cfg, pattern), w @ copies ** 2 - mean ** 2,
                            rtol=1e-10, err_msg=text)
        iso = (a.sum(axis=1) + a.sum(axis=2) == 0).sum(axis=1)
        bound = connectivity_bound(cfg)
        assert_allclose(bound, 1.0 - (w @ iso) ** 2 / (w @ iso ** 2), rtol=1e-12)
        assert w @ _connected(a) <= bound

    @pytest.mark.parametrize("variant", ["completely_exchangeable", "hierarchical"])
    def test_shared_bias_laws_exhaustive(self, variant):
        """Every 3 x 3 and 2 x 3 matrix, weighted by its exact probability under a
        shared bias draw (see _shared_bias_weight), pins the averaged motif,
        root, leaf, in-degree, isolated-node and GF(2) laws; the iid-row laws
        miss them."""
        n = 3
        spec = (PowerLawMixing(alpha=1.0, beta=2.5) if variant == "completely_exchangeable"
                else HierarchicalMixing(A=1.0, beta=3.0, gamma_exp=4.5))
        for m in (3, 2):
            cfg = EnsembleConfig(n, spec, ExplicitRows(m), variant=variant)
            weight = functools.cache(lambda rows: _shared_bias_weight(cfg, rows))
            keys = ("one", "fbl", "fbl2", "ffl", "ffl2", "iso", "iso2", "c2", "roots",
                    "leaves", "N")
            sums, in_pmf = dict.fromkeys(keys, 0.0), np.zeros(m + 1)
            for gid in range(2 ** (m * n)):
                a = np.zeros((n, n), dtype=bool)
                a[:m] = np.array([(gid >> b) & 1 for b in range(m * n)]).reshape(m, n)
                w = weight(tuple(sorted(a[:m].sum(axis=1).tolist())))
                fbl, ffl = count_feedback_loops(a), count_feedforward_loops(a)
                iso = count_isolated(a[:m])
                stats = {"one": 1, "fbl": fbl, "fbl2": fbl * fbl, "ffl": ffl,
                         "ffl2": ffl * ffl, "iso": iso, "iso2": iso * iso,
                         "c2": count_cycles(a, 2),
                         "roots": count_roots(a[:m]), "leaves": count_leaves(a[:m]),
                         "N": rank_gf2(BitMatrix.from_dense(a[:m])).n_solutions}
                for key, value in stats.items():
                    sums[key] += w * value
                in_pmf[int(a[:m, 0].sum())] += w
            assert sums["one"] == pytest.approx(1.0, rel=1e-12)
            laws = {"fbl": mean_feedback_loops, "ffl": mean_feedforward_loops,
                    "c2": lambda c: mean_cycles(c, 2), "roots": mean_roots,
                    "leaves": mean_leaves, "N": expected_solutions}
            for key, law in laws.items():
                assert_allclose(law(cfg), sums[key], rtol=1e-9, atol=1e-300, err_msg=key)
            assert_allclose(in_pmf_exact(cfg, np.arange(m + 1)), in_pmf, rtol=1e-9)
            assert_allclose(var_feedback_loops(cfg), sums["fbl2"] - sums["fbl"] ** 2,
                            rtol=1e-9)
            assert_allclose(var_feedforward_loops(cfg), sums["ffl2"] - sums["ffl"] ** 2,
                            rtol=1e-9)
            assert_allclose(connectivity_bound(cfg), 1.0 - sums["iso"] ** 2 / sums["iso2"],
                            rtol=1e-9)
            iid = replace(cfg, variant="partially_exchangeable")
            for law in (mean_roots, mean_feedforward_loops, expected_solutions):
                assert law(iid) != pytest.approx(law(cfg), rel=1e-3)

    def test_completely_exchangeable_laws_match_mixed_moments(self):
        """One shared theta: with M(p) = E (1 - theta)**p, the root mean is
        m (M(m) - M(m + n - 1)), the leaf mean m (M(n) - M(n + m - 1)), and the
        in-degree pmf C(m, k) E theta**k (1 - theta)**(m - k); the moments are
        taken here by mpmath quadrature."""
        n, m, alpha, beta = 200, 150, 2.0, 2.5
        cfg = EnsembleConfig(n, PowerLawMixing(alpha=alpha, beta=beta), ExplicitRows(m),
                             variant="completely_exchangeable")
        with mpmath.workdps(20):
            cuts = mpmath.linspace(mpmath.mpf(alpha) / n, 1, 101)   # about every peak's width
            norm = mpmath.quad(lambda t: t ** -beta, cuts)

            def mix(k, p):      # E theta**k (1 - theta)**p
                return float(mpmath.quad(lambda t: t ** (k - beta) * (1 - t) ** p, cuts) / norm)

            roots = m * (mix(0, m) - mix(0, m + n - 1))
            leaves = m * (mix(0, n) - mix(0, n + m - 1))
            ks = np.arange(0, m + 1, 25)
            in_pmf = [math.comb(m, int(k)) * mix(int(k), m - int(k)) for k in ks]
        assert_allclose(mean_roots(cfg), roots, rtol=1e-9)
        assert_allclose(mean_leaves(cfg), leaves, rtol=1e-9)
        assert_allclose(in_pmf_exact(cfg, ks), in_pmf, rtol=1e-9, atol=1e-300)


def _every_graph(spec, n, m):
    """Every m x n matrix, padded to n x n with empty rows, as one boolean stack,
    and its probability: the product of its row-sum probabilities."""
    gid = np.arange(2 ** (m * n))
    a = np.zeros((gid.size, n, n), dtype=bool)
    a[:, :m] = ((gid[:, None] >> np.arange(m * n)) & 1).reshape(-1, m, n).astype(bool)
    rp = np.exp(log_row_prob(spec, n, np.arange(n + 1)))
    return a, rp[a[:, :m].sum(axis=2)].prod(axis=1)


def _copies(a, pattern):
    """Copies of the pattern in each graph of the stack: its embeddings, which
    never use a self-edge, over its automorphisms."""
    n = a.shape[-1]
    hits = sum(np.all([a[:, t[u], t[v]] for u, v in pattern.edges], axis=0)
               for t in itertools.permutations(range(n), pattern.k))
    return hits // pattern.aut_size


def _connected(a):
    """Whether each graph of the stack is weakly connected: node 0 reaches
    every node through n - 1 steps of the symmetrized support."""
    n = a.shape[-1]
    step = (a | a.transpose(0, 2, 1) | np.eye(n, dtype=bool)).astype(np.float64)
    return (np.linalg.matrix_power(step, n - 1)[:, 0] > 0).all(axis=1)


def _power_row(lo, beta, width, r):
    """P of one fixed pattern with r ones out of width when every entry has the
    bias theta ~ theta**-beta on (lo, 1], by scipy quadrature."""
    num = integrate.quad(lambda t: t ** (r - beta) * (1 - t) ** (width - r), lo, 1,
                         epsabs=0, epsrel=1e-13, limit=200)[0]
    return num / integrate.quad(lambda t: t ** -beta, lo, 1, epsabs=0, epsrel=1e-13)[0]


def _shared_bias_weight(cfg, rows):
    """Probability of one m x n matrix with row sums ``rows`` when the rows share
    theta (completely exchangeable: the pattern is one row of width m n) or share
    the cutoff a ~ a**-gamma on [A, n/2] and draw iid theta from the power law
    at a (hierarchical); the cutoff integral is a second scipy quadrature."""
    spec, n = cfg.mixing, cfg.n
    if cfg.variant == "completely_exchangeable":
        return _power_row(spec.alpha / n, spec.beta, len(rows) * n, sum(rows))
    g = spec.gamma_exp
    inner = integrate.quad(lambda a: a ** -g * math.prod(
        _power_row(a / n, spec.beta, n, r) for r in rows), spec.A, n / 2,
        epsabs=0, epsrel=1e-13)[0]
    return inner / integrate.quad(lambda a: a ** -g, spec.A, n / 2, epsabs=0, epsrel=1e-13)[0]


class TestRootsLeaves:
    def test_counts_on_handmade_matrix(self):
        # node 0 -> 1, node 2 empty column and row
        a = np.zeros((3, 3), dtype=bool)
        a[0, 1] = True
        assert count_roots(a) == 1   # node 0: empty column, sends an edge
        assert count_leaves(a) == 1  # node 1: empty row, receives an edge
        assert count_isolated(a) == 1

    def test_self_loop_blocks_root(self):
        a = np.zeros((2, 2), dtype=bool)
        a[0, 0] = True
        a[0, 1] = True
        assert count_roots(a) == 0  # own column hit by the self-edge
        assert count_leaves(a) == 1

    @pytest.mark.parametrize("spec", [DiracMixing(lam=0.8),
                                      PowerLawMixing(alpha=0.5, beta=3.0)])
    def test_means_exhaustive_square(self, spec):
        rp = [math.exp(log_row_prob(spec, 2, r)) for r in range(3)]
        er = el = 0.0
        for gid in range(16):
            bits = [(gid >> b) & 1 for b in range(4)]
            a = np.array(bits, dtype=bool).reshape(2, 2)
            w = rp[int(a[0].sum())] * rp[int(a[1].sum())]
            er += w * count_roots(a)
            el += w * count_leaves(a)
        assert_allclose(mean_roots(EnsembleConfig(2, spec)), er, rtol=1e-10)
        assert_allclose(mean_leaves(EnsembleConfig(2, spec)), el, rtol=1e-10)

    def test_means_exhaustive_rectangular(self):
        spec, n, m = PowerLawMixing(alpha=0.5, beta=3.0), 3, 2
        rp = [math.exp(log_row_prob(spec, n, r)) for r in range(n + 1)]
        er = el = 0.0
        for gid in range(2 ** (m * n)):
            bits = [(gid >> b) & 1 for b in range(m * n)]
            a = np.array(bits, dtype=bool).reshape(m, n)
            w = math.prod(rp[int(a[i].sum())] for i in range(m))
            er += w * count_roots(a)
            el += w * count_leaves(a)
        rect = EnsembleConfig(n, spec, ExplicitRows(m))
        assert_allclose(mean_roots(rect), er, rtol=1e-10)
        assert_allclose(mean_leaves(rect), el, rtol=1e-10)

    def test_single_sender_has_no_leaves(self):
        assert mean_leaves(EnsembleConfig(10, DiracMixing(lam=1.0), ExplicitRows(1))) == 0.0


class TestComponents:
    def test_component_count(self):
        a = np.zeros((5, 5), dtype=bool)
        a[0, 1] = True
        a[3, 3] = True  # self loop joins nothing
        assert weak_components(a) == 4
        assert count_isolated(a) == 2  # nodes 2 and 4

    def test_connectivity_bound_in_unit_interval(self):
        spec = PowerLawMixing(alpha=1.0, beta=3.0)
        for n in (10, 50, 200):
            b = connectivity_bound(EnsembleConfig(n, spec))
            assert 0.0 <= b <= 1.0

    def test_connectivity_bound_tracks_simulation(self):
        spec = DiracMixing(lam=4.0)
        n = 40
        bound = connectivity_bound(EnsembleConfig(n, spec))
        rng = np.random.default_rng(17)
        hits = 0
        reps = 300
        for _ in range(reps):
            a = rng.random((n, n)) < 4.0 / n
            hits += weak_components(a) == 1
        frac = hits / reps
        se = math.sqrt(frac * (1 - frac) / reps)
        assert frac <= bound + 4 * se + 1e-9


class TestMonteCarlo:
    SPEC = PowerLawMixing(alpha=1.0, beta=3.0)

    def test_triple_means_within_four_se(self):
        cfg = EnsembleConfig(n=30, mixing=self.SPEC, master_seed=5)
        fbl, ffl = mc_motifs(replace(cfg, replicas=4000))
        assert abs(fbl.mean - mean_feedback_loops(cfg)) < 4 * fbl.se
        assert abs(ffl.mean - mean_feedforward_loops(cfg)) < 4 * ffl.se

    def test_deterministic_for_fixed_seed(self):
        cfg = EnsembleConfig(n=20, mixing=self.SPEC, master_seed=5)
        a = mc_motifs(replace(cfg, replicas=500))
        b = mc_motifs(replace(cfg, replicas=500))
        assert a == b

    def test_cycle_means_within_four_se(self):
        cfg = EnsembleConfig(n=30, mixing=self.SPEC, master_seed=5)
        out = mc_cycles(replace(cfg, replicas=2000), (2, 4))
        for k, est in out.items():
            assert abs(est.mean - mean_cycles(cfg, k)) < 4 * est.se

    def test_roots_leaves_within_four_se(self):
        cfg = EnsembleConfig(n=200, mixing=self.SPEC, row_rule=ExplicitRows(m=100),
                             master_seed=6)
        roots, leaves = mc_roots_leaves(replace(cfg, replicas=3000))
        assert abs(roots.mean - mean_roots(cfg)) < 4 * roots.se
        assert abs(leaves.mean - mean_leaves(cfg)) < 4 * leaves.se

    def test_triple_counts_are_exact_on_the_complete_graph(self):
        # theta = 1 gives the complete digraph: 2 C(n,3) directed 3-cycles and
        # 6 C(n,3) feedforward triples, sums far above float32's 2**24
        cfg = EnsembleConfig(n=600, mixing=DiracMixing(lam=600), master_seed=5,
                             replicas=2)
        fbl, ffl = mc_motifs(cfg)
        assert fbl.mean == 2 * math.comb(600, 3)
        assert ffl.mean == 6 * math.comb(600, 3)
        assert fbl.se == ffl.se == 0.0

    def test_rectangular_triple_moments(self):
        """The m x n draw is the graph whose last n - m nodes only receive.  A
        Dirac bias keeps the counts light-tailed, so 20 000 replicas pin the
        variances to about 1 % (largest deviation 0.02 over seeds 1-12)."""
        cfg = EnsembleConfig(n=60, mixing=DiracMixing(lam=6.0), row_rule=ExplicitRows(m=40),
                             master_seed=5)
        fbl, ffl = mc_motifs(replace(cfg, replicas=20_000))
        assert abs(fbl.mean - mean_feedback_loops(cfg)) < 4 * fbl.se
        assert abs(ffl.mean - mean_feedforward_loops(cfg)) < 4 * ffl.se
        assert fbl.var == pytest.approx(var_feedback_loops(cfg), rel=0.05)
        assert ffl.var == pytest.approx(var_feedforward_loops(cfg), rel=0.05)

    def test_rectangular_cycle_means_within_four_se(self):
        cfg = EnsembleConfig(n=30, mixing=self.SPEC, row_rule=ExplicitRows(m=20),
                             master_seed=5)
        out = mc_cycles(replace(cfg, replicas=2000), (2, 3, 4))
        for k, est in out.items():
            assert abs(est.mean - mean_cycles(cfg, k)) < 4 * est.se

    def test_rejects_more_senders_than_nodes(self):
        cfg = EnsembleConfig(n=30, mixing=self.SPEC, row_rule=ExplicitRows(m=40),
                             master_seed=5, replicas=10)
        with pytest.raises(ParameterError):
            mc_motifs(cfg)
        with pytest.raises(ParameterError):
            mc_cycles(cfg, (3,))
