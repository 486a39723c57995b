"""Tests for Algorithm 4 / Procedures 5 & 9 (TD-bottomup)."""

import pytest
from hypothesis import given, settings

from repro.core import (
    ample_budget,
    truss_decomposition_bottomup,
    truss_decomposition_improved,
)
from repro.errors import DecompositionError
from repro.exio import IOStats, MemoryBudget
from repro.graph import Graph, complete_graph, disjoint_union
from repro.partition import (
    DominatingSetPartitioner,
    RandomizedPartitioner,
    SequentialPartitioner,
)

from helpers import random_graph, small_edge_lists

PARTITIONERS = [
    SequentialPartitioner(),
    DominatingSetPartitioner(),
    RandomizedPartitioner(seed=5),
]


class TestAgreement:
    @pytest.mark.parametrize("units", [16, 48, None])
    def test_matches_improved_on_random_graph(self, units):
        g = random_graph(28, 0.2, seed=11)
        ref = truss_decomposition_improved(g)
        budget = MemoryBudget(units=units) if units else None
        td = truss_decomposition_bottomup(g, budget=budget)
        assert td == ref

    @pytest.mark.parametrize("part", PARTITIONERS, ids=lambda p: p.name)
    def test_matches_improved_for_every_partitioner(self, part):
        g = random_graph(24, 0.25, seed=13)
        ref = truss_decomposition_improved(g)
        td = truss_decomposition_bottomup(
            g, budget=MemoryBudget(units=20), partitioner=part
        )
        assert td == ref

    @settings(max_examples=15, deadline=None)
    @given(small_edge_lists())
    def test_matches_improved_property(self, edges):
        g = Graph(edges)
        ref = truss_decomposition_improved(g)
        td = truss_decomposition_bottomup(g, budget=MemoryBudget(units=12))
        assert td == ref

    def test_two_cliques_bridge(self):
        g = disjoint_union([complete_graph(5), complete_graph(4)])
        g.add_edge(0, 5)
        td = truss_decomposition_bottomup(g, budget=MemoryBudget(units=14))
        assert td.phi(0, 5) == 2
        assert td.kmax == 5

    def test_empty_and_tiny_graphs(self):
        assert truss_decomposition_bottomup(Graph()).num_edges == 0
        td = truss_decomposition_bottomup(Graph([(0, 1)]))
        assert td.phi(0, 1) == 2


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
            truss_decomposition_bottomup(g, workdir=tmp_path, stats=stats)
        assert stats.total_blocks == 0
        assert list(tmp_path.iterdir()) == []

    def test_io_stats_populated_under_small_budget(self):
        g = random_graph(25, 0.25, seed=3)
        stats = IOStats()
        truss_decomposition_bottomup(g, budget=MemoryBudget(units=16), stats=stats)
        assert stats.blocks_read > 0
        assert stats.blocks_written > 0
        assert stats.scans_started > 0

    def test_small_budget_costs_more_io_than_large(self):
        g = random_graph(30, 0.25, seed=5)
        small, large = IOStats(), IOStats()
        truss_decomposition_bottomup(g, budget=MemoryBudget(units=14), stats=small)
        truss_decomposition_bottomup(g, budget=ample_budget(g), stats=large)
        assert small.total_blocks > large.total_blocks

    def test_stats_record_method_and_counters(self):
        g = random_graph(20, 0.3, seed=2)
        td = truss_decomposition_bottomup(g, budget=MemoryBudget(units=16))
        assert td.stats.method == "bottomup"
        assert td.stats.extra["lowerbound_iterations"] >= 1
        assert "kmax" in td.stats.extra

    def test_input_graph_untouched(self):
        g = random_graph(15, 0.3, seed=8)
        edges_before = set(g.edges())
        truss_decomposition_bottomup(g, budget=MemoryBudget(units=12))
        assert set(g.edges()) == edges_before

    def test_procedure9_used_when_candidate_overflows(self):
        # budget so small that every NS(U_k) overflows memory
        g = random_graph(26, 0.35, seed=4)
        ref = truss_decomposition_improved(g)
        td = truss_decomposition_bottomup(g, budget=MemoryBudget(units=8))
        assert td == ref
        assert td.stats.extra.get("procedure9_rounds", 0) >= 1


class TestAmpleBudget:
    def test_single_partition(self):
        g = complete_graph(6)
        b = ample_budget(g)
        assert b.fits(g.size)
        td = truss_decomposition_bottomup(g, budget=b)
        assert td.stats.extra["lowerbound_iterations"] == 1
        assert td.stats.extra["lowerbound_blocks"] == 1
