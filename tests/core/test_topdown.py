"""Tests for Algorithm 7 / Procedures 8 & 10 (TD-topdown)."""

import pytest
from hypothesis import given, settings

from repro.core import truss_decomposition_improved, truss_decomposition_topdown
from repro.errors import DecompositionError
from repro.exio import IOStats, MemoryBudget
from repro.graph import Graph, complete_graph, disjoint_union
from repro.partition import (
    DominatingSetPartitioner,
    RandomizedPartitioner,
    SequentialPartitioner,
)

from helpers import random_graph, small_edge_lists


class TestFullDecomposition:
    @pytest.mark.parametrize("units", [16, 48, None])
    def test_matches_improved(self, units):
        g = random_graph(26, 0.22, seed=21)
        ref = truss_decomposition_improved(g)
        budget = MemoryBudget(units=units) if units else None
        td = truss_decomposition_topdown(g, budget=budget)
        assert td == ref

    @pytest.mark.parametrize(
        "part",
        [SequentialPartitioner(), DominatingSetPartitioner(), RandomizedPartitioner(seed=2)],
        ids=lambda p: p.name,
    )
    def test_matches_improved_for_every_partitioner(self, part):
        g = random_graph(22, 0.3, seed=23)
        ref = truss_decomposition_improved(g)
        td = truss_decomposition_topdown(
            g, budget=MemoryBudget(units=18), partitioner=part
        )
        assert td == ref

    @settings(max_examples=12, deadline=None)
    @given(small_edge_lists())
    def test_matches_improved_property(self, edges):
        g = Graph(edges)
        ref = truss_decomposition_improved(g)
        td = truss_decomposition_topdown(g, budget=MemoryBudget(units=12))
        assert td == ref

    def test_without_kinit_fast_forward(self):
        g = random_graph(20, 0.3, seed=25)
        ref = truss_decomposition_improved(g)
        td = truss_decomposition_topdown(
            g, budget=MemoryBudget(units=16), use_kinit=False
        )
        assert td == ref

    def test_book_graph_trap(self):
        """A high-support low-trussness spine must not be promoted: this
        is the case requiring the valid-support restriction."""
        g = Graph([(0, 1)])
        for i in range(2, 10):
            g.add_edge(0, i)
            g.add_edge(1, i)
        for u, v in complete_graph(6, offset=100).edges():
            g.add_edge(u, v)
        g.add_edge(0, 100)
        g.add_edge(1, 101)
        ref = truss_decomposition_improved(g)
        td = truss_decomposition_topdown(g)
        assert td == ref
        assert td.phi(0, 1) == 3

    def test_empty_graph(self):
        assert truss_decomposition_topdown(Graph()).num_edges == 0


class TestTopT:
    def test_top_1_is_kmax_class(self):
        g = disjoint_union([complete_graph(6), complete_graph(4)])
        td = truss_decomposition_topdown(g, t=1)
        assert td.kmax == 6
        assert len(td.k_class(6)) == 15
        assert td.num_edges == 15  # partial result: only the top class

    @pytest.mark.parametrize("t", [1, 2, 3, 10])
    def test_top_t_matches_reference_window(self, t):
        g = random_graph(24, 0.3, seed=27)
        ref = truss_decomposition_improved(g)
        td = truss_decomposition_topdown(g, t=t, budget=MemoryBudget(units=24))
        expected = {e: k for e, k in ref.trussness.items() if k > ref.kmax - t}
        assert dict(td.trussness) == expected

    def test_top_t_covering_everything_includes_phi2(self):
        g = random_graph(18, 0.2, seed=28)
        ref = truss_decomposition_improved(g)
        td = truss_decomposition_topdown(g, t=100)
        assert td == ref

    def test_rejects_bad_t(self):
        with pytest.raises(DecompositionError):
            truss_decomposition_topdown(complete_graph(3), t=0)


class TestMechanics:
    @pytest.mark.parametrize("bad", [1 << 63, -(1 << 63) - 1])
    def test_id_outside_int64_rejected_before_any_write(self, tmp_path, bad):
        g = complete_graph(3)
        g.add_edge(bad, 0)
        stats = IOStats()
        with pytest.raises(
            DecompositionError,
            match=rf"vertex id {bad} is outside the signed 64-bit range",
        ):
            truss_decomposition_topdown(g, workdir=tmp_path, stats=stats)
        assert stats.total_blocks == 0
        assert list(tmp_path.iterdir()) == []

    def test_stats_and_io(self):
        g = random_graph(24, 0.3, seed=29)
        stats = IOStats()
        td = truss_decomposition_topdown(
            g, budget=MemoryBudget(units=16), stats=stats
        )
        assert td.stats.method == "topdown"
        assert stats.total_blocks > 0
        assert td.stats.extra["k1st"] >= td.kmax

    def test_pruning_happens(self):
        g = disjoint_union([complete_graph(6), complete_graph(5)])
        td = truss_decomposition_topdown(g, budget=MemoryBudget(units=20))
        assert td.stats.extra.get("pruned_edges", 0) > 0

    def test_input_graph_untouched(self):
        g = random_graph(15, 0.3, seed=30)
        before = set(g.edges())
        truss_decomposition_topdown(g, t=1)
        assert set(g.edges()) == before

    def test_top_t_cheaper_than_full(self):
        """Table 5's story: top-t should do less candidate work than
        the full top-down run."""
        g = random_graph(40, 0.2, seed=31)
        s_top, s_full = IOStats(), IOStats()
        truss_decomposition_topdown(
            g, t=1, budget=MemoryBudget(units=60), stats=s_top
        )
        truss_decomposition_topdown(
            g, budget=MemoryBudget(units=60), stats=s_full
        )
        assert s_top.total_blocks <= s_full.total_blocks
