"""Tests for the naive random-access baseline (Section 3.3)."""

import pytest
from hypothesis import given, settings

from repro.core import (
    truss_decomposition_bottomup,
    truss_decomposition_improved,
    truss_decomposition_semi_external,
)
from repro.exio import IOStats, MemoryBudget
from repro.graph import Graph, complete_graph

from helpers import random_graph, small_edge_lists


class TestCorrectness:
    def test_matches_improved_on_random_graph(self):
        g = random_graph(30, 0.25, seed=91)
        assert truss_decomposition_semi_external(g) == truss_decomposition_improved(g)

    def test_matches_under_tiny_cache(self):
        g = random_graph(25, 0.3, seed=92)
        td = truss_decomposition_semi_external(g, budget=MemoryBudget(units=8))
        assert td == truss_decomposition_improved(g)

    @settings(max_examples=12, deadline=None)
    @given(small_edge_lists())
    def test_matches_improved_property(self, edges):
        g = Graph(edges)
        assert truss_decomposition_semi_external(g) == truss_decomposition_improved(g)

    def test_empty_graph(self):
        assert truss_decomposition_semi_external(Graph()).num_edges == 0

    def test_ids_beyond_int64(self):
        # only compact ids and edge ids reach its int64 arrays and spill
        g = complete_graph(4)
        for far in (1 << 63, -(1 << 70)):
            g.add_edge(far, 0)
            g.add_edge(far, 1)
        td = truss_decomposition_semi_external(g)
        assert td == truss_decomposition_improved(g)
        assert td.phi(0, 1 << 63) == 3


class TestIOProfile:
    def test_random_access_seeks_recorded(self):
        g = random_graph(40, 0.25, seed=93)
        stats = IOStats()
        td = truss_decomposition_semi_external(
            g, budget=MemoryBudget(units=16), stats=stats
        )
        assert stats.seeks > 0
        assert td.stats.extra["buffer_misses"] > 0

    def test_larger_cache_fewer_misses(self):
        g = random_graph(50, 0.2, seed=94)
        small, large = IOStats(), IOStats()
        truss_decomposition_semi_external(
            g, budget=MemoryBudget(units=8), stats=small
        )
        truss_decomposition_semi_external(
            g, budget=MemoryBudget(units=4 * g.size), stats=large
        )
        assert large.blocks_read <= small.blocks_read

    def test_section33_claim_scan_based_wins_on_io(self):
        """The paper's motivation: at the same memory budget, the naive
        random-access baseline moves far more blocks (and seeks) than
        the scan-only bottom-up algorithm."""
        g = random_graph(120, 0.12, seed=95)
        budget = MemoryBudget(units=max(16, g.size // 6))
        naive, scan = IOStats(), IOStats()
        a = truss_decomposition_semi_external(g, budget=budget, stats=naive)
        b = truss_decomposition_bottomup(g, budget=budget, stats=scan)
        assert a == b
        assert naive.seeks > 10 * scan.seeks  # bottom-up never seeks
        assert naive.blocks_read > scan.total_blocks // 4
