"""Edge-key adjacency storage, row sampling, and replica orchestration."""

import json
import math
import os
import re
import tempfile
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy import stats

from exchgraph import ensemble
from exchgraph._numerics import spawn_rng
from exchgraph.ensemble import (BitMatrix, EnsembleConfig, ExplicitRows, FractionRows,
                                GraphSample, LogFractionRows, PowerFractionRows, SquareRows,
                                in_degrees, map_replicas, out_degrees, read_edge_list,
                                replica_blocks, RowRule, sample_bias_matrix, sample_graph,
                                write_edge_list)
from exchgraph.degrees import in_pmf_exact
from exchgraph.errors import ConfigError, ParameterError
from exchgraph.gf2 import log_expected_solutions, mc_kernel_mean
from exchgraph.hub import mc_hub_values
from exchgraph.mixing import (DiracMixing, HierarchicalMixing, PowerLawMixing, log_row_prob,
                              moment)
from exchgraph.motifs import (mc_motifs, mc_roots_leaves, mean_cycles, mean_feedback_loops,
                              mean_feedforward_loops, mean_leaves, mean_roots,
                              var_feedback_loops, var_feedforward_loops)


def _random_dense(rng, m, n):
    return (rng.random((m, n)) < 0.3)


class TestBitMatrix:
    @pytest.mark.parametrize("m,n", [(1, 1), (3, 63), (4, 64), (5, 65), (2, 129), (7, 300)])
    def test_dense_round_trip(self, m, n):
        rng = np.random.default_rng(5)
        dense = _random_dense(rng, m, n)
        bm = BitMatrix.from_dense(dense)
        assert bm.m == m and bm.n == n
        assert np.array_equal(bm.to_dense(), dense)

    def test_row_and_column_sums(self):
        rng = np.random.default_rng(9)
        dense = _random_dense(rng, 6, 130)
        bm = BitMatrix.from_dense(dense)
        assert np.array_equal(bm.row_sums(), dense.sum(axis=1))
        assert np.array_equal(bm.col_sums(), dense.sum(axis=0))
        assert bm.count_ones() == dense.sum()

    def test_equality_and_copy(self):
        rng = np.random.default_rng(2)
        dense = _random_dense(rng, 4, 80)
        a = BitMatrix.from_dense(dense)
        b = BitMatrix.from_coords(4, 80, *a.coords())
        assert a == b and a.keys is not b.keys
        dense[0, 0] = not dense[0, 0]
        assert a != BitMatrix.from_dense(dense)
        assert a != BitMatrix.from_dense(dense[:, :79])


class TestRowRules:
    def test_counts(self):
        mix = PowerLawMixing(alpha=1.0, beta=3.0)
        assert SquareRows().resolve(200, mix) == 200
        assert FractionRows(delta=0.35).resolve(200, mix) == 70
        assert LogFractionRows(delta=1.0).resolve(200, mix) == int(200 / math.log(200))
        assert ExplicitRows(m=17).resolve(200, mix) == 17
        # m = floor(delta * n**(beta-1)) picks beta up from the mixing law
        assert PowerFractionRows(delta=0.5).resolve(
            200, PowerLawMixing(alpha=1.0, beta=1.5)) == int(0.5 * 200 ** 0.5)

    def test_power_rule_needs_tail_exponent(self):
        with pytest.raises(ConfigError):
            PowerFractionRows(delta=0.5).resolve(100, DiracMixing(lam=1.0))
        # a hierarchical law has a beta, but no theta**-beta density of its own
        with pytest.raises(ConfigError):
            PowerFractionRows(delta=0.5).resolve(
                100, HierarchicalMixing(A=1.0, beta=3.0, gamma_exp=4.5))

    @pytest.mark.parametrize("rule", [
        SquareRows(), FractionRows(delta=0.25), PowerFractionRows(delta=0.5),
        LogFractionRows(delta=2.0), ExplicitRows(m=4),
    ])
    def test_json_round_trip(self, rule):
        assert RowRule.from_json(rule.to_json()) == rule


class TestSampling:
    CFG = EnsembleConfig(n=64, mixing=PowerLawMixing(alpha=1.0, beta=3.0), master_seed=42)

    def test_deterministic_per_replica(self):
        a = sample_graph(self.CFG, 0)
        b = sample_graph(self.CFG, 0)
        assert a.matrix == b.matrix
        assert np.array_equal(a.thetas, b.thetas)

    def test_replicas_differ(self):
        a = sample_graph(self.CFG, 0)
        b = sample_graph(self.CFG, 1)
        assert a.matrix != b.matrix

    def test_row_means_track_thetas(self):
        cfg = EnsembleConfig(n=4096, mixing=PowerLawMixing(alpha=1.0, beta=3.0),
                             row_rule=ExplicitRows(m=8), master_seed=7)
        s = sample_graph(cfg, 0)
        sums = s.matrix.row_sums()
        for i in range(8):
            t = s.thetas[i]
            assert abs(sums[i] - 4096 * t) < 6 * math.sqrt(4096 * t * (1 - t)) + 6

    def test_shared_bias_variant(self):
        cfg = EnsembleConfig(n=32, mixing=PowerLawMixing(alpha=1.0, beta=3.0),
                             variant="completely_exchangeable", master_seed=3)
        s = sample_graph(cfg, 0)
        assert np.all(s.thetas == s.thetas[0])

    def test_independent_bias_variant_varies(self):
        s = sample_graph(self.CFG, 0)
        assert len(np.unique(s.thetas)) > 1

    def test_hierarchical_variant_requires_matching_mixing(self):
        with pytest.raises(ConfigError):
            EnsembleConfig(n=64, mixing=PowerLawMixing(alpha=1.0, beta=3.0),
                           variant="hierarchical", master_seed=0)
        cfg = EnsembleConfig(n=64, mixing=HierarchicalMixing(A=1.0, beta=3.0, gamma_exp=4.5),
                            variant="hierarchical", master_seed=0)
        s = sample_graph(cfg, 0)
        assert s.matrix.m == 64

    def test_degree_views(self):
        s = sample_graph(self.CFG, 0)
        assert np.array_equal(out_degrees(s), s.matrix.row_sums())
        assert np.array_equal(in_degrees(s), s.matrix.col_sums())

    def test_low_rate_and_high_rate_fills_agree_in_law(self):
        # the sparse fill must produce the same row-sum distribution as the
        # dense one; compare both against the binomial mean within 5 sigma
        n, reps = 2048, 400
        for lam in (1.0, 400.0):
            cfg = EnsembleConfig(n=n, mixing=DiracMixing(lam=lam),
                                 row_rule=ExplicitRows(m=1), master_seed=11)
            tot = sum(sample_graph(cfg, k).matrix.count_ones() for k in range(reps))
            p = lam / n
            sd = math.sqrt(reps * n * p * (1 - p))
            assert abs(tot - reps * lam) < 5 * sd

    def test_sparse_sample_memory_tracks_edges(self):
        # the sample_sparse benchmark shape: about 4e4 edges at n = 2e4, so
        # 0.3 MiB of keys; m x n packed bits would take 48 MiB
        cfg = EnsembleConfig(n=20_000, mixing=PowerLawMixing(alpha=1.0, beta=3.0),
                             master_seed=1)
        sample_graph(cfg, 1)    # warm up lazy imports and caches
        tracemalloc.start()
        try:
            sample = sample_graph(cfg, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < sample.matrix.count_ones() < 10 ** 5
        assert peak < 8 * 2 ** 20

    def test_config_json_round_trip(self):
        cfg = EnsembleConfig(n=100, mixing=PowerLawMixing(alpha=1.0, beta=3.0),
                             row_rule=FractionRows(delta=0.5), master_seed=9, replicas=3)
        assert EnsembleConfig.from_json(cfg.to_json()) == cfg

    def test_replica_map_runs_replicas_in_order(self):
        cfg = EnsembleConfig(n=128, mixing=PowerLawMixing(alpha=1.0, beta=3.0),
                             master_seed=21, replicas=6)
        assert map_replicas(cfg, lambda s: (s.replica_index, s.matrix.count_ones())) == [
            (k, sample_graph(cfg, k).matrix.count_ones()) for k in range(6)]


_POWER3 = PowerLawMixing(alpha=1.0, beta=3.0)
# the mc_validate suite shapes, with replicas for about four blocks (a
# quarter of one at a 4e6-cell budget, whose traced peaks are 8.7-21 MiB)
_MC_KERNELS = {
    "hub": (mc_hub_values, EnsembleConfig(n=5000, mixing=_POWER3, replicas=200)),
    "motifs": (mc_motifs, EnsembleConfig(n=100, mixing=_POWER3, replicas=100)),
    "roots_leaves": (mc_roots_leaves, EnsembleConfig(n=100, mixing=_POWER3, replicas=100)),
    "gf2-power_law": (mc_kernel_mean, EnsembleConfig(n=32, mixing=_POWER3, replicas=1000)),
    "gf2-dirac16": (mc_kernel_mean,
                    EnsembleConfig(n=32, mixing=DiracMixing(lam=16.0), replicas=1000)),
}


class TestReplicaBlocks:
    @pytest.mark.parametrize("dense", [True, False])
    @pytest.mark.parametrize("n, m", [(10, 10), (50, 40), (4, 1500)])
    def test_blocks_cover_the_replicas_on_their_own_streams(self, monkeypatch, n, m, dense):
        """Replicas 0..R-1 once and in order; each block on spawn_rng(seed,
        offset, tag) and within the budget, or one replica that exceeds it."""
        budget, tag = 1000, 7
        monkeypatch.setattr(ensemble, "_MC_CELLS", budget)
        cfg = EnsembleConfig(n=n, mixing=_POWER3, row_rule=ExplicitRows(m=m),
                             master_seed=13, replicas=23)
        cells = m * n if dense else m
        offsets = []
        for lo, thetas, rng in replica_blocks(cfg, tag, dense=dense):
            offsets += range(lo, lo + len(thetas))
            fresh = spawn_rng(cfg.master_seed, lo, tag)
            assert np.array_equal(thetas, sample_bias_matrix(cfg, len(thetas), fresh))
            assert rng.bit_generator.state == fresh.bit_generator.state
            assert len(thetas) * cells <= budget or (len(thetas) == 1 and cells > budget)
        assert offsets == list(range(cfg.replicas))

    @pytest.mark.parametrize("kernel, cfg", _MC_KERNELS.values(), ids=_MC_KERNELS)
    def test_kernel_memory_tracks_the_block_budget(self, kernel, cfg):
        """A kernel's temporaries are one block's: under 32 bytes, four
        float64 arrays, per cell of the budget, and at most 8 MiB."""
        kernel(replace(cfg, replicas=2))    # warm up lazy imports and caches
        tracemalloc.start()
        try:
            kernel(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * ensemble._MC_CELLS <= 8 * 2 ** 20


_SHARED = [("completely_exchangeable", PowerLawMixing(alpha=2.0, beta=2.5)),
           ("hierarchical", HierarchicalMixing(A=1.0, beta=3.0, gamma_exp=4.5))]


class TestAverage:
    @pytest.mark.parametrize("variant,spec", _SHARED)
    def test_one_row_laws_are_the_marginal_laws(self, variant, spec):
        """A row sees only its own bias, whose law is the mixing itself under
        every variant: averaging a one-row law over the shared draw gives it
        back, values, arrays and logs alike."""
        n = 40
        cfg = EnsembleConfig(n, spec, variant=variant)
        rs = np.array([0, 1, 7, 40])
        assert_allclose(cfg.average(lambda s: moment(s, n, 2)), moment(spec, n, 2), rtol=1e-9)
        assert_allclose(cfg.average(lambda s: log_row_prob(s, n, rs), log=True),
                        log_row_prob(spec, n, rs), rtol=1e-9)
        assert isinstance(cfg.average(lambda s: moment(s, n, 1)), float)

    def test_dirac_mixing_laws_agree_across_variants(self):
        """A point-mass bias is the same whether rows share it or not, so both
        variants that take a Dirac mixing give one law to rounding.  (The
        hierarchical variant takes only a hierarchical mixing.)"""
        spec = DiracMixing(lam=1.5)
        iid, shared = (EnsembleConfig(7, spec, variant=variant)
                       for variant in ("partially_exchangeable", "completely_exchangeable"))
        laws = (lambda c: in_pmf_exact(c, np.arange(8)), lambda c: mean_cycles(c, 4),
                mean_feedback_loops, mean_feedforward_loops, var_feedback_loops,
                var_feedforward_loops, mean_roots, mean_leaves, log_expected_solutions)
        for law in laws:
            assert_allclose(law(shared), law(iid), rtol=1e-12)


class TestRowProb:
    def test_dirac_value(self):
        assert_allclose(math.exp(log_row_prob(DiracMixing(lam=1.0), 2, 1)), 0.25, rtol=1e-14)

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            log_row_prob(DiracMixing(lam=1.0), 2, 3)


class TestIo:
    def test_edge_list_round_trip(self, tmp_path):
        s = sample_graph(TestSampling.CFG, 0)
        path = tmp_path / "g.tsv"
        write_edge_list(s, TestSampling.CFG, path)
        mat, meta = read_edge_list(path)
        assert mat == s.matrix
        assert meta["replica"] == 0


class TestExactRowLaw:
    """Sampled row patterns against the exact law E theta**r (1-theta)**(n-r)."""

    N = 4

    @pytest.mark.parametrize("m,replicas,dense_theta", [
        (3, 20_000, None),        # few cells: one dense uniform pass
        (10_000, 6, None),        # many cells: rows split between both routes
        (10_000, 6, 1.1),         # every row through the subset route
    ])
    def test_pattern_frequencies(self, monkeypatch, m, replicas, dense_theta):
        if dense_theta is not None:
            monkeypatch.setattr(ensemble, "_DENSE_THETA", dense_theta)
        n = self.N
        spec = PowerLawMixing(alpha=0.04, beta=1.5)   # theta on (0.01, 1]
        cfg = EnsembleConfig(n=n, mixing=spec, row_rule=ExplicitRows(m=m),
                             master_seed=31, replicas=replicas)
        counts = np.zeros(2 ** n, dtype=np.int64)
        routes = set()
        for k in range(replicas):
            s = sample_graph(cfg, k)
            routes |= set((s.thetas < ensemble._DENSE_THETA).tolist())
            codes = s.matrix.to_dense() @ (1 << np.arange(n))
            counts += np.bincount(codes, minlength=2 ** n)
        if m * n > ensemble._DENSE_CELLS and dense_theta is None:
            assert routes == {True, False}
        weight = np.array([bin(p).count("1") for p in range(2 ** n)])
        probs = np.exp(log_row_prob(spec, n, weight))
        assert_allclose(probs.sum(), 1.0, rtol=1e-9)
        expected = counts.sum() * probs
        assert expected.min() > 20
        stat = float(np.sum((counts - expected) ** 2 / expected))
        assert stats.chi2.sf(stat, df=2 ** n - 1) > 1e-3

    # m = 3 takes the one dense pass, m = 2000 both row routes; the keys
    # must be sorted, distinct and inside m x n ("padding": no key spills
    # past column n - 1 into the next row)

    @pytest.mark.parametrize("m", [3, 2000])
    @pytest.mark.parametrize("n", [65, 129])
    def test_dirac_extremes_and_padding(self, m, n):
        empty = EnsembleConfig(n=n, mixing=DiracMixing(lam=0.0),
                               row_rule=ExplicitRows(m=m), master_seed=4)
        assert sample_graph(empty, 0).matrix.count_ones() == 0
        full = EnsembleConfig(n=n, mixing=DiracMixing(lam=float(n)),
                              row_rule=ExplicitRows(m=m), master_seed=4)
        mat = sample_graph(full, 0).matrix
        assert np.array_equal(mat.row_sums(), np.full(m, n))
        assert np.array_equal(mat.keys, np.arange(m * n))

    @pytest.mark.parametrize("m", [3, 2000])
    @pytest.mark.parametrize("n", [65, 129])
    def test_padding_stays_zero(self, m, n):
        cfg = EnsembleConfig(n=n, mixing=PowerLawMixing(alpha=1.0, beta=1.5),
                             row_rule=ExplicitRows(m=m), master_seed=8)
        sample = sample_graph(cfg, 0)
        keys = sample.matrix.keys
        if m > 3:
            assert {True, False} <= set((sample.thetas < ensemble._DENSE_THETA).tolist())
        assert keys.size > 0 and keys.dtype == np.int64
        assert np.all(np.diff(keys) > 0)
        assert keys[0] >= 0 and keys[-1] < m * n
        assert BitMatrix.from_coords(m, n, *sample.matrix.coords()) == sample.matrix


def _write_edge_list_dense(sample, config, path):
    """The dense-route writer: a full m x n unpack and np.nonzero."""
    matrix = sample.matrix
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# exchgraph edge list\n")
        fh.write(f"# n={matrix.n} m={matrix.m} replica={sample.replica_index} "
                 f"seed={sample.seed_used}\n")
        fh.write(f"# spec={json.dumps(config.mixing.to_json(), sort_keys=True)}\n")
        for i, j in zip(*np.nonzero(matrix.to_dense())):
            fh.write(f"{i}\t{j}\n")


@st.composite
def dense_matrices(draw):
    """Boolean m x n arrays with n = 0, 1 or 63 (mod 64), some empty or full."""
    m = draw(st.integers(0, 6))
    n = 64 * draw(st.integers(0, 2)) + draw(st.sampled_from([0, 1, 63]))
    fill = draw(st.sampled_from(["random", "empty", "full"]))
    if fill == "empty":
        return np.zeros((m, n), dtype=bool)
    if fill == "full":
        return np.ones((m, n), dtype=bool)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    density = draw(st.floats(0.0, 1.0))
    return np.random.default_rng(seed).random((m, n)) < density


class TestCoordinateProperties:
    @settings(max_examples=60, deadline=None)
    @given(dense_matrices())
    def test_coords_round_trip(self, dense):
        bm = BitMatrix.from_dense(dense)
        rows, cols = bm.coords()
        want_rows, want_cols = np.nonzero(dense)
        assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
        # order and repeats do not matter
        rebuilt = BitMatrix.from_coords(*dense.shape, np.tile(rows[::-1], 2),
                                        np.tile(cols[::-1], 2))
        assert rebuilt == bm
        assert np.array_equal(rebuilt.to_dense(), dense)

    @pytest.mark.parametrize("density", [0.002, 0.3, 1.0])
    def test_coords_across_word_blocks(self, density, tmp_path):
        # the edge-list writer splits the keys in blocks of _BLOCK; at the two
        # higher densities there are several
        dense = np.random.default_rng(7).random((60, 64 * 150 - 5)) < density
        bm = BitMatrix.from_dense(dense)
        assert bm.count_ones() > 2 * ensemble._BLOCK or density < 0.01
        rows, cols = bm.coords()
        want_rows, want_cols = np.nonzero(dense)
        assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
        sample = GraphSample(matrix=bm, thetas=np.zeros(60), replica_index=0, seed_used=1)
        cfg = EnsembleConfig(n=2, mixing=DiracMixing(lam=1.0), master_seed=0)
        write_edge_list(sample, cfg, tmp_path / "g.tsv")
        assert read_edge_list(tmp_path / "g.tsv")[0] == bm

    @settings(max_examples=60, deadline=None)
    @given(dense_matrices())
    def test_col_sums(self, dense):
        assert np.array_equal(BitMatrix.from_dense(dense).col_sums(), dense.sum(axis=0))

    @settings(max_examples=40, deadline=None)
    @given(dense_matrices())
    def test_edge_list_bytes_and_round_trip(self, dense):
        m, n = dense.shape
        sample = GraphSample(matrix=BitMatrix.from_dense(dense), thetas=np.zeros(m),
                             replica_index=3, seed_used=17)
        cfg = EnsembleConfig(n=2, mixing=DiracMixing(lam=1.0), master_seed=0)
        with tempfile.TemporaryDirectory() as tmp:
            path, oracle = os.path.join(tmp, "a"), os.path.join(tmp, "b")
            write_edge_list(sample, cfg, path)
            _write_edge_list_dense(sample, cfg, oracle)
            with open(path, "rb") as fa, open(oracle, "rb") as fb:
                assert fa.read() == fb.read()
            mat, meta = read_edge_list(path)
        assert mat == sample.matrix
        assert (meta["m"], meta["n"], meta["replica"], meta["seed"]) == (m, n, 3, 17)

    @pytest.mark.parametrize("row,col", [(1, 70), (0, 140), (2, 0), (-1, 5), (0, -1)])
    def test_from_coords_rejects_out_of_range(self, row, col):
        # (1, 70) and (0, 140) have keys inside 2 x 70; only a check of rows
        # and columns apart catches them
        with pytest.raises(ParameterError, match=rf"\({row}, {col}\) outside 2 x 70"):
            BitMatrix.from_coords(2, 70, [0, row], [0, col])

    def test_read_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("# n=3 m=3\n0\t1\t2\n1\n", encoding="utf-8")
        with pytest.raises(ParameterError):
            read_edge_list(path)

    @pytest.mark.parametrize("text,line", [
        ("# n=x m=3\n0\t1\n", "# n=x m=3"),
        ("# n=3 m=3\n0\tx\n", "0\tx"),
        ("# n=3 m=3\n0\t1.0\n", "0\t1.0"),
        ("# n=3 m=3\n1\t1\n0\t3\n", "0\t3"),
        ("# n=3 m=2\n2\t0\n", "2\t0"),
        ("# n=3 m=3\n# spec={\n", "# spec={"),
    ])
    def test_read_names_the_bad_line(self, tmp_path, text, line):
        path = tmp_path / "bad.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParameterError, match=re.escape(repr(line))):
            read_edge_list(path)
