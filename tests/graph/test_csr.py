"""Unit tests for repro.graph.csr.CSRGraph."""

import pytest
from hypothesis import given

from repro.errors import EdgeNotFoundError, VertexNotFoundError
from repro.graph import CSRGraph, Graph, complete_graph
from repro.graph.csr import sorted_unique

from helpers import small_edge_lists

try:
    import numpy as np
except ImportError:  # pragma: no cover
    np = None


class TestCSRConstruction:
    def test_empty(self):
        c = CSRGraph.from_graph(Graph())
        assert c.num_vertices == 0
        assert c.num_edges == 0

    def test_counts_match(self):
        g = complete_graph(5)
        c = CSRGraph.from_graph(g)
        assert c.num_vertices == 5
        assert c.num_edges == 10

    def test_labels_ascend(self):
        g = Graph([(10, 3), (7, 3)])
        c = CSRGraph.from_graph(g)
        assert c.labels == [3, 7, 10]

    def test_compact_roundtrip(self):
        g = Graph([(10, 3), (7, 3)])
        c = CSRGraph.from_graph(g)
        for v in g.vertices():
            assert c.original_id(c.compact_id(v)) == v

    def test_compact_id_missing_raises(self):
        c = CSRGraph.from_graph(Graph([(0, 1)]))
        with pytest.raises(VertexNotFoundError):
            c.compact_id(42)


class TestCSRQueries:
    def test_neighbors_sorted(self):
        g = Graph([(0, 5), (0, 2), (0, 9)])
        c = CSRGraph.from_graph(g)
        i = c.compact_id(0)
        nbrs = [c.original_id(j) for j in c.neighbors(i)]
        assert nbrs == [2, 5, 9]

    def test_degrees_match_graph(self):
        g = Graph([(0, 1), (0, 2), (1, 2), (2, 3)])
        c = CSRGraph.from_graph(g)
        for v in g.vertices():
            assert c.degree(c.compact_id(v)) == g.degree(v)

    def test_edges_original_roundtrip(self):
        g = Graph([(4, 1), (2, 8), (1, 2)])
        c = CSRGraph.from_graph(g)
        assert set(c.edges_original()) == set(g.edges())

    def test_edges_compact_each_once(self):
        g = complete_graph(4)
        c = CSRGraph.from_graph(g)
        compact = list(c.edges_compact())
        assert len(compact) == 6
        assert len(set(compact)) == 6
        assert all(i < j for i, j in compact)

    def test_degree_order_ascending(self):
        g = Graph([(0, 1), (0, 2), (0, 3), (1, 2)])  # deg: 0->3,1->2,2->2,3->1
        c = CSRGraph.from_graph(g)
        order = c.degree_order()
        degs = [c.degree(i) for i in order]
        assert degs == sorted(degs)

    @given(small_edge_lists())
    def test_structure_preserved(self, edges):
        g = Graph(edges)
        c = CSRGraph.from_graph(g)
        assert set(c.edges_original()) == set(g.edges())
        assert c.num_vertices == g.num_vertices
        assert c.num_edges == g.num_edges

    def test_isolated_vertices_kept(self):
        g = Graph([(0, 1)])
        g.add_vertex(5)
        c = CSRGraph.from_graph(g)
        assert c.num_vertices == 3
        assert c.degree(c.compact_id(5)) == 0


class TestEdgeIds:
    def test_ids_dense_and_canonical(self):
        c = CSRGraph.from_graph(complete_graph(4))
        ids = [c.edge_id(i, j) for i, j in c.edges_compact()]
        # dense 0..m-1, assigned in edges_compact() order
        assert ids == list(range(c.num_edges))

    def test_both_directions_share_one_id(self):
        c = CSRGraph.from_graph(Graph([(0, 1), (1, 2), (0, 2)]))
        for i, j in c.edges_compact():
            assert c.edge_id(i, j) == c.edge_id(j, i)

    def test_eids_parallel_to_indices(self):
        g = Graph([(0, 1), (0, 2), (1, 2), (2, 3)])
        c = CSRGraph.from_graph(g)
        for i in range(c.num_vertices):
            for t in range(c.indptr[i], c.indptr[i + 1]):
                assert c.eids[t] == c.edge_id(i, c.indices[t])

    def test_missing_edge_raises(self):
        c = CSRGraph.from_graph(Graph([(0, 1), (1, 2)]))
        with pytest.raises(EdgeNotFoundError):
            c.edge_id(c.compact_id(0), c.compact_id(2))

    def test_endpoints_roundtrip(self):
        g = Graph([(4, 1), (2, 8), (1, 2)])
        c = CSRGraph.from_graph(g)
        eu, ev = c.edge_endpoints()
        assert len(eu) == len(ev) == c.num_edges
        for e in range(c.num_edges):
            assert eu[e] < ev[e]
            assert c.edge_id(eu[e], ev[e]) == e

    @given(small_edge_lists())
    def test_id_bijection(self, edges):
        g = Graph(edges)
        c = CSRGraph.from_graph(g)
        eu, ev = c.edge_endpoints()
        seen = {c.edge_id(i, j) for i, j in c.edges_compact()}
        assert seen == set(range(c.num_edges))
        labels = c.labels
        originals = {
            tuple(sorted((labels[eu[e]], labels[ev[e]])))
            for e in range(c.num_edges)
        }
        assert originals == set(g.edges())

    def test_python_and_numpy_builds_agree(self):
        g = Graph([(0, 1), (0, 2), (1, 2), (2, 3), (1, 3), (0, 9)])
        c = CSRGraph.from_graph(g)
        assert list(c._build_eids_python()) == list(c.eids)


@pytest.mark.skipif(np is None, reason="sorted_unique is numpy-only")
class TestSortedUnique:
    """The one sort-and-adjacent-diff dedupe the numpy paths share."""

    @pytest.mark.parametrize("size", [0, 1, 2, 17, 1000])
    @pytest.mark.parametrize("span", [3, 1 << 40])
    def test_matches_np_unique(self, size, span):
        rng = np.random.default_rng(size + span)
        a = rng.integers(-span, span, size=size, dtype=np.int64)
        copy = a.copy()
        got = sorted_unique(a)
        expect = np.unique(a)
        assert got.dtype == expect.dtype == np.int64
        assert np.array_equal(got, expect)
        assert np.array_equal(a, copy)  # sorts a copy

    def test_read_only_input(self):
        a = np.array([5, 1, 5, 3, 1], dtype=np.int64)
        a.flags.writeable = False
        assert sorted_unique(a).tolist() == [1, 3, 5]
