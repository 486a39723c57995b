"""Unit tests for repro.graph.csr.CSRGraph.

The snapshot is its arrays: ``labels`` ascending, each vertex's sorted
neighbour run in ``indices[indptr[i]:indptr[i + 1]]``, and ``eids`` a
dense edge-id bijection that both slots of an edge share.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.graph.csr as csr_mod
from repro.core.edge_runs import EdgeRuns
from repro.errors import DecompositionError
from repro.graph import CSRGraph, Graph, complete_graph
from repro.graph.csr import sorted_unique
from repro.kernels import NUMPY_REQUIRED

from helpers import ID_ROUTES, needs_numpy, small_edge_lists

try:
    import numpy as np
except ImportError:  # pragma: no cover
    np = None


def run_of(c, i):
    """Compact vertex ``i``'s neighbour run."""
    return c.indices[c.indptr[i]:c.indptr[i + 1]].tolist()


def slots(c):
    """Every directed slot as ``(i, j, eid)``."""
    src = np.repeat(np.arange(c.num_vertices), np.diff(c.indptr))
    return list(zip(src.tolist(), c.indices.tolist(), c.eids.tolist()))


def original_edges(c):
    """The edges in original ids, in edge-id order."""
    eu, ev = c.edge_endpoints()
    return list(zip(c.labels[eu].tolist(), c.labels[ev].tolist()))


@needs_numpy
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
        assert c.labels.tolist() == [3, 7, 10]

    def test_compact_roundtrip(self):
        # labels ascend, so searchsorted is the original -> compact map
        g = Graph([(10, 3), (7, 3)])
        c = CSRGraph.from_graph(g)
        for v in g.vertices():
            assert c.labels[np.searchsorted(c.labels, v)] == v

    def test_fields_are_int64_ndarrays(self):
        c = CSRGraph.from_edges([(5, 1), (1, 9), (9, 5)])
        for field in ("indptr", "indices", "eids", "labels"):
            arr = getattr(c, field)
            assert isinstance(arr, np.ndarray), field
            assert arr.dtype == np.int64, field


@needs_numpy
class TestCSRQueries:
    def test_neighbors_sorted(self):
        g = Graph([(0, 5), (0, 2), (0, 9)])
        c = CSRGraph.from_graph(g)
        assert c.labels[run_of(c, 0)].tolist() == [2, 5, 9]

    def test_degrees_match_graph(self):
        g = Graph([(0, 1), (0, 2), (1, 2), (2, 3)])
        c = CSRGraph.from_graph(g)
        degree = np.diff(c.indptr)
        for i, v in enumerate(c.labels.tolist()):
            assert degree[i] == g.degree(v)

    def test_edges_original_roundtrip(self):
        g = Graph([(4, 1), (2, 8), (1, 2)])
        c = CSRGraph.from_graph(g)
        assert set(original_edges(c)) == set(g.edges())

    def test_edges_compact_each_once(self):
        c = CSRGraph.from_graph(complete_graph(4))
        eu, ev = c.edge_endpoints()
        compact = list(zip(eu.tolist(), ev.tolist()))
        assert len(compact) == 6
        assert len(set(compact)) == 6
        assert all(i < j for i, j in compact)

    @given(small_edge_lists())
    def test_structure_preserved(self, edges):
        g = Graph(edges)
        c = CSRGraph.from_graph(g)
        assert set(original_edges(c)) == set(g.edges())
        assert c.num_vertices == g.num_vertices
        assert c.num_edges == g.num_edges
        for i in range(c.num_vertices):
            run = run_of(c, i)
            assert run == sorted(set(run)) and i not in run

    def test_isolated_vertices_kept(self):
        g = Graph([(0, 1)])
        g.add_vertex(5)
        c = CSRGraph.from_graph(g)
        assert c.num_vertices == 3
        assert c.labels.tolist() == [0, 1, 5]
        assert run_of(c, 2) == []


@needs_numpy
class TestEdgeIds:
    def test_ids_dense_and_canonical(self):
        # dense 0..m-1, assigned in ascending compact (i, j) order
        c = CSRGraph.from_graph(complete_graph(4))
        eu, ev = c.edge_endpoints()
        key = (eu * c.num_vertices + ev).tolist()
        assert key == sorted(set(key))
        assert sorted(c.eids.tolist()) == sorted(2 * list(range(6)))

    def test_both_directions_share_one_id(self):
        c = CSRGraph.from_graph(Graph([(0, 1), (1, 2), (0, 2)]))
        eid_of = {(i, j): e for i, j, e in slots(c)}
        for (i, j), e in eid_of.items():
            assert eid_of[(j, i)] == e

    def test_eids_parallel_to_indices(self):
        g = Graph([(0, 1), (0, 2), (1, 2), (2, 3)])
        c = CSRGraph.from_graph(g)
        eu, ev = c.edge_endpoints()
        for i, j, e in slots(c):
            assert (eu[e], ev[e]) == (min(i, j), max(i, j))

    def test_endpoints_roundtrip(self):
        g = Graph([(4, 1), (2, 8), (1, 2)])
        c = CSRGraph.from_graph(g)
        eu, ev = c.edge_endpoints()
        assert len(eu) == len(ev) == c.num_edges
        assert bool(np.all(eu < ev))
        assert original_edges(c) == sorted(g.edges())

    @given(small_edge_lists())
    def test_id_bijection(self, edges):
        g = Graph(edges)
        c = CSRGraph.from_graph(g)
        ids = [e for i, j, e in slots(c) if i < j]
        assert sorted(ids) == list(range(c.num_edges))
        assert sorted(e for i, j, e in slots(c) if i > j) == sorted(ids)
        assert set(original_edges(c)) == set(g.edges())

    def test_python_and_numpy_builds_agree(self):
        # the stdlib snapshot of the paper's methods builds the same arrays
        g = Graph([(0, 1), (0, 2), (1, 2), (2, 3), (1, 3), (0, 9)])
        c = CSRGraph.from_graph(g)
        runs = EdgeRuns(g.sorted_edges())
        assert runs.labels == c.labels.tolist()
        for field in ("indptr", "indices", "eids"):
            assert list(getattr(runs, field)) == getattr(c, field).tolist()
        eu, ev = c.edge_endpoints()
        assert (list(runs.eu), list(runs.ev)) == (eu.tolist(), ev.tolist())


class TestNeedsNumpy:
    @pytest.mark.parametrize("build", [
        lambda path: CSRGraph.from_graph(complete_graph(3)),
        lambda path: CSRGraph.from_edges([(0, 1)]),
        lambda path: CSRGraph.from_edge_list_file(path),
    ], ids=["from_graph", "from_edges", "from_edge_list_file"])
    def test_each_constructor_raises_one_error(
        self, build, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(csr_mod, "_np", None)
        # the file is never opened
        with pytest.raises(DecompositionError) as info:
            build(tmp_path / "absent.txt")
        assert str(info.value) == NUMPY_REQUIRED


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


def reference_arrays(pairs, labels=None):
    """``(indptr, indices, eids, labels)`` as plain lists, built edge by
    edge: the arrays every constructor must produce."""
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    if labels is None:
        labels = sorted({x for e in edges for x in e})
    compact = {x: i for i, x in enumerate(labels)}
    rows = [[] for _ in labels]
    for e, (u, v) in enumerate(edges):  # label order is compact order
        rows[compact[u]].append((compact[v], e))
        rows[compact[v]].append((compact[u], e))
    indptr, indices, eids = [0], [], []
    for row in rows:
        row.sort()
        indices += [j for j, _ in row]
        eids += [e for _, e in row]
        indptr.append(len(indices))
    return indptr, indices, eids, list(labels)


def assert_arrays(c, expected):
    for field, want in zip(("indptr", "indices", "eids", "labels"), expected):
        arr = getattr(c, field)
        assert isinstance(arr, np.ndarray) and arr.dtype == np.int64, field
        assert arr.tolist() == want, field


def forward_eids(c):
    src = np.repeat(np.arange(c.num_vertices), np.diff(c.indptr))
    return c.eids[src < c.indices]


@needs_numpy
@pytest.mark.parametrize("span_per_end", [v for _, v in ID_ROUTES],
                         ids=[k for k, _ in ID_ROUTES])
class TestBuilderRoutes:
    """Both id compactions (lookup table, sort + ``searchsorted``) and
    the m-key row layout build the reference arrays."""

    @pytest.fixture(autouse=True)
    def _route(self, monkeypatch, span_per_end):
        monkeypatch.setattr(csr_mod, "_TABLE_SPAN_PER_END", span_per_end)

    def test_from_graph_keeps_isolated_vertices(self):
        g = Graph([(10, 3), (7, 3), (12, 10), (3, 12)])
        for v in (5, 20, 1):
            g.add_vertex(v)
        c = CSRGraph.from_graph(g)
        assert_arrays(c, reference_arrays(g.edges(), g.sorted_vertices()))
        assert run_of(c, 0) == [] and run_of(c, 6) == []

    def test_only_isolated_vertices(self):
        g = Graph()
        g.add_vertex(4)
        g.add_vertex(-2)
        assert_arrays(CSRGraph.from_graph(g), ([0, 0, 0], [], [], [-2, 4]))

    def test_unsorted_duplicate_reversed_pairs(self):
        pairs = [(9, 1), (1, 5), (5, 1), (3, 9), (9, 3), (1, 3), (3, 3),
                 (5, 3), (1, 9)]
        assert_arrays(CSRGraph.from_edges(pairs), reference_arrays(pairs))

    def test_sorted_canonical_pairs_skip_the_dedupe(self):
        pairs = [(1, 3), (1, 5), (3, 5), (3, 9)]
        assert_arrays(CSRGraph.from_edges(pairs), reference_arrays(pairs))

    @pytest.mark.parametrize("pairs", [[], [(1, 1)], [(1, 1), (7, 7)]])
    def test_empty_and_self_loops_only(self, pairs):
        assert_arrays(CSRGraph.from_edges(pairs), ([0], [], [], []))

    def test_int64_limits(self):
        lo, hi = -(1 << 63), (1 << 63) - 1
        pairs = [(hi, lo), (lo, lo + 1), (hi - 1, hi), (lo + 1, hi)]
        assert_arrays(CSRGraph.from_edges(pairs), reference_arrays(pairs))

    def test_forward_slots_hold_ids_in_order(self, tmp_path):
        from repro.stream import TrussMaintainer

        pairs = [(4, 1), (2, 8), (1, 2), (8, 4), (2, 4), (6, 6)]
        path = tmp_path / "g.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in pairs))
        g = Graph([p for p in pairs if p[0] != p[1]])
        tm = TrussMaintainer.from_graph(g)
        tm.delete_edge(1, 2)
        twin = TrussMaintainer.from_state(tm.trussness, tm.supports)
        for c in (
            CSRGraph.from_graph(g), CSRGraph.from_edges(pairs),
            CSRGraph.from_edge_list_file(path), twin._base,
        ):
            assert forward_eids(c).tolist() == list(range(c.num_edges))

    @settings(deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.sampled_from((0, -50, 1 << 40, -(1 << 63), (1 << 63) - 30)),
        st.lists(st.tuples(st.integers(0, 27), st.integers(0, 27)),
                 max_size=60),
    )
    def test_matches_reference(self, base, offsets):
        pairs = [(base + a, base + b) for a, b in offsets]
        assert_arrays(CSRGraph.from_edges(pairs), reference_arrays(pairs))
        g = Graph([p for p in pairs if p[0] != p[1]])
        g.add_vertex(base + 29)  # isolated
        assert_arrays(
            CSRGraph.from_graph(g),
            reference_arrays(g.edges(), g.sorted_vertices()),
        )


@needs_numpy
def test_reverse_slots_sort_without_the_packed_key(monkeypatch):
    # past int64, the reverse half is ordered by a stable argsort of cv
    pairs = [(9, 1), (1, 5), (3, 9), (1, 3), (5, 3), (2, 9), (0, 5)]
    monkeypatch.setattr(csr_mod, "INT64_MAX", 0)
    assert_arrays(CSRGraph.from_edges(pairs), reference_arrays(pairs))
