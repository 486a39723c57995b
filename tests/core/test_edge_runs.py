"""Tests for ``EdgeRuns``, the stdlib snapshot of the disk-based methods.

Built from canonical, ascending edges, it must lay out the arrays the
CSR snapshot lays out for the same edges; with numpy, the two are
compared directly.
"""

from hypothesis import given, settings

from repro.core.edge_runs import EdgeRuns
from repro.graph import Graph, complete_graph

from helpers import needs_numpy, small_edge_lists


def runs_of(r):
    """Every vertex's neighbour run, in original ids."""
    return {
        v: [r.labels[j] for j in r.neighbors(i)]
        for i, v in enumerate(r.labels)
    }


class TestEdgeRuns:
    def test_empty(self):
        r = EdgeRuns([])
        assert r.labels == []
        assert list(r.indptr) == [0]
        assert r.num_edges == r.size == 0

    def test_edge_id_is_input_position(self):
        edges = [(1, 5), (1, 9), (5, 9), (9, 20)]
        r = EdgeRuns(edges)
        assert r.labels == [1, 5, 9, 20]
        labels = r.labels
        assert [(labels[i], labels[j]) for i, j in zip(r.eu, r.ev)] == edges
        assert r.num_edges == 4
        assert r.size == 8

    def test_runs_sorted_with_their_eids(self):
        g = complete_graph(5)
        r = EdgeRuns(g.sorted_edges())
        assert runs_of(r) == {v: sorted(g.neighbors(v)) for v in g.vertices()}
        for i in range(len(r.labels)):
            for t in range(r.indptr[i], r.indptr[i + 1]):
                e, j = r.eids[t], r.indices[t]
                assert (r.eu[e], r.ev[e]) == (min(i, j), max(i, j))

    def test_ids_beyond_int64(self):
        # labels are Python ints: the paper's methods accept any id
        big = 1 << 70
        r = EdgeRuns([(-big, 0), (-big, big), (0, big)])
        assert r.labels == [-big, 0, big]
        assert runs_of(r) == {-big: [0, big], 0: [-big, big], big: [-big, 0]}

    @settings(max_examples=30, deadline=None)
    @given(small_edge_lists())
    def test_matches_graph(self, edges):
        g = Graph(edges)
        r = EdgeRuns(g.sorted_edges())
        assert runs_of(r) == {
            v: sorted(g.neighbors(v)) for v in g.vertices() if g.degree(v)
        }
        assert sorted(r.eids) == sorted(2 * list(range(g.num_edges)))


@needs_numpy
class TestMatchesCSR:
    @settings(max_examples=40, deadline=None)
    @given(small_edge_lists())
    def test_same_arrays(self, edges):
        from repro.graph import CSRGraph

        g = Graph(edges)  # no isolated vertex: every vertex has an edge
        r = EdgeRuns(g.sorted_edges())
        c = CSRGraph.from_graph(g)
        assert r.labels == c.labels.tolist()
        for field in ("indptr", "indices", "eids"):
            assert list(getattr(r, field)) == getattr(c, field).tolist()
        eu, ev = c.edge_endpoints()
        assert list(r.eu) == eu.tolist()
        assert list(r.ev) == ev.tolist()
