"""Tests for the flat edge-indexed peeling engine (repro.core.flat).

The contract: ``method="flat"`` produces the *identical* trussness map
as every other method, on every graph family.  The engine needs numpy.
"""

import pytest
from hypothesis import given, settings

from repro.core import truss_decomposition, truss_decomposition_flat
from repro.core.flat import _as_csr, _peel_state
from repro.errors import DecompositionError
from repro.graph import Graph, complete_graph, cycle_graph
from repro.triangles import build_triangle_index
from repro.datasets import (
    manager_graph,
    running_example_graph,
    RUNNING_EXAMPLE_CLASSES,
)

from helpers import needs_numpy, random_graph, small_edge_lists
from oracles import brute_all_supports, brute_trussness


@pytest.fixture(params=["accelerated"])
def flat_decompose(request):
    """The engine under test (the param names the numpy wave peel)."""
    return truss_decomposition_flat


@needs_numpy
class TestSmallGraphs:
    def test_empty(self, flat_decompose):
        td = flat_decompose(Graph())
        assert td.num_edges == 0
        assert td.kmax == 2

    def test_single_edge(self, flat_decompose):
        td = flat_decompose(Graph([(0, 1)]))
        assert dict(td.trussness) == {(0, 1): 2}

    def test_triangle(self, flat_decompose, triangle_graph):
        td = flat_decompose(triangle_graph)
        assert set(td.trussness.values()) == {3}

    def test_k5(self, flat_decompose, k5_graph):
        td = flat_decompose(k5_graph)
        assert set(td.trussness.values()) == {5}

    def test_cycle_has_no_triangles(self, flat_decompose):
        td = flat_decompose(cycle_graph(8))
        assert set(td.trussness.values()) == {2}

    def test_two_communities(self, flat_decompose, two_communities):
        td = flat_decompose(two_communities)
        td.verify(two_communities)
        assert td.kmax == 5

    def test_noncontiguous_labels(self, flat_decompose):
        g = Graph([(1000, 7), (7, 52), (52, 1000), (3, 1000)])
        td = flat_decompose(g)
        assert td.phi(7, 52) == 3
        assert td.phi(3, 1000) == 2

    @pytest.mark.parametrize("bad", [1 << 63, -(1 << 63) - 1])
    def test_id_outside_int64_named(self, flat_decompose, bad):
        g = Graph([(0, 1), (1, bad)])
        with pytest.raises(
            DecompositionError,
            match=rf"vertex id {bad} is outside the signed 64-bit range",
        ):
            flat_decompose(g)


@needs_numpy
class TestPaperGraphs:
    def test_running_example_classes(self, flat_decompose):
        """Example 2's ground-truth k-classes, exactly."""
        td = flat_decompose(running_example_graph())
        for k, edges in RUNNING_EXAMPLE_CLASSES.items():
            assert sorted(td.k_class(k)) == sorted(edges), k

    def test_krackhardt_manager_graph(self, flat_decompose):
        g = manager_graph()
        td = flat_decompose(g)
        assert td == truss_decomposition(g, method="improved")
        td.verify(g)


@needs_numpy
class TestCrossMethodEquivalence:
    @pytest.mark.parametrize("seed", [3, 17, 42])
    @pytest.mark.parametrize("np_", [0.08, 0.2, 0.45])
    def test_matches_all_inmem_methods_on_gnp(self, flat_decompose, seed, np_):
        g = random_graph(40, np_, seed=seed)
        td = flat_decompose(g)
        for method in ("improved", "baseline", "mapreduce"):
            assert td == truss_decomposition(g, method=method), method

    @pytest.mark.parametrize("seed", [5, 23])
    def test_verify_on_gnp(self, flat_decompose, seed):
        g = random_graph(30, 0.25, seed=seed)
        flat_decompose(g).verify(g)

    @settings(max_examples=30, deadline=None)
    @given(small_edge_lists())
    def test_matches_oracle(self, edges):
        g = Graph(edges)
        td = truss_decomposition_flat(g)
        assert dict(td.trussness) == brute_trussness(g)

    def test_api_dispatch(self):
        g = random_graph(25, 0.3, seed=9)
        assert truss_decomposition(g, method="flat") == truss_decomposition(g)

    def test_stats_method_tag(self):
        td = truss_decomposition(complete_graph(4), method="flat")
        assert td.stats.method == "flat"
        assert td.stats.extra["kmax"] == 4


@needs_numpy
class TestInternals:
    @settings(max_examples=25, deadline=None)
    @given(small_edge_lists())
    def test_initial_supports_match_oracle(self, edges):
        """The peel's starting supports, against the definition."""
        g = Graph(edges)
        csr = _as_csr(g)
        sup = _peel_state(build_triangle_index(csr), csr.num_edges)["sup"]
        brute = brute_all_supports(g)
        eu, ev = csr.edge_endpoints()
        labels = csr.labels.tolist()
        for e in range(csr.num_edges):
            u, v = labels[eu[e]], labels[ev[e]]
            assert sup[e] == brute[(u, v)], (u, v)
