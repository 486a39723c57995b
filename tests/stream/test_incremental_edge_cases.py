"""Regression pins for degenerate update shapes.

Each case checks exact trussness parity against the brute oracle plus
the affected-set hygiene invariant: ``last_affected`` contains only
edges that exist after the repair (no stale ids), and the phi map
covers exactly the current edge set.
"""

from __future__ import annotations

import pytest

from helpers import needs_numpy
from oracles import brute_trussness
from repro.errors import DecompositionError
from repro.graph import Graph, complete_graph
from repro.stream import TrussMaintainer

#: the maintainer seeds from the flat engine
pytestmark = needs_numpy


def _check(tm: TrussMaintainer, mirror: Graph) -> None:
    want = brute_trussness(mirror)
    assert dict(tm.trussness) == want
    assert set(tm.last_affected) <= set(want)
    assert set(tm.trussness) == set(want)
    assert len(set(tm.last_affected)) == len(tm.last_affected)


def test_insert_into_empty_graph():
    tm = TrussMaintainer.from_graph(Graph())
    assert dict(tm.trussness) == {}
    assert tm.insert_edge(3, 1)
    mirror = Graph([(1, 3)])
    _check(tm, mirror)
    assert tm.trussness[(1, 3)] == 2
    assert tm.last_affected == ((1, 3),)


def test_delete_last_edge():
    tm = TrussMaintainer.from_graph(Graph([(0, 1)]))
    assert tm.delete_edge(1, 0)
    _check(tm, Graph())
    assert tm.trussness == {}
    assert tm.last_affected == ()
    # and deleting again is a clean no-op
    assert not tm.delete_edge(0, 1)


def test_insert_closing_k4_to_k5():
    g = complete_graph(5)
    g.remove_edge(0, 1)
    tm = TrussMaintainer.from_graph(g)
    assert tm.trussness[(2, 3)] == 4
    assert tm.insert_edge(0, 1)
    mirror = complete_graph(5)
    _check(tm, mirror)
    assert set(tm.trussness.values()) == {5}
    # every edge of the clique moved, so all must be in the region
    assert set(tm.last_affected) == set(mirror.edges())


def test_component_splitting_delete():
    # two triangles joined by a bridge; cutting the bridge splits the
    # graph into components but must not disturb either triangle
    g = Graph([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    tm = TrussMaintainer.from_graph(g)
    assert tm.delete_edge(2, 3)
    mirror = g.copy()
    mirror.remove_edge(2, 3)
    _check(tm, mirror)
    assert tm.trussness[(0, 1)] == 3
    assert tm.trussness[(3, 4)] == 3
    # the bridge closed no triangle: nothing needed re-peeling
    assert tm.last_affected == ()


def test_triangle_destroying_delete_affects_neighbors():
    g = Graph([(0, 1), (1, 2), (0, 2)])
    tm = TrussMaintainer.from_graph(g)
    assert tm.delete_edge(0, 1)
    mirror = Graph([(1, 2), (0, 2)])
    _check(tm, mirror)
    assert dict(tm.trussness) == {(0, 2): 2, (1, 2): 2}
    assert set(tm.last_affected) == {(0, 2), (1, 2)}


def test_net_noop_batch():
    g = complete_graph(4)
    tm = TrussMaintainer.from_graph(g)
    before = dict(tm.trussness)
    # both updates are effective, the net effect is none
    assert tm.apply_batch([("insert", 0, 9), ("delete", 9, 0)]) == 2
    _check(tm, g)
    assert dict(tm.trussness) == before
    assert (0, 9) not in tm.trussness
    assert all(e != (0, 9) for e in tm.last_affected)


def test_noop_updates_return_false():
    tm = TrussMaintainer.from_graph(complete_graph(3))
    before = dict(tm.trussness)
    assert not tm.insert_edge(0, 1)  # duplicate
    assert not tm.insert_edge(2, 2)  # self-loop, dropped like ingest
    assert not tm.delete_edge(0, 7)  # absent
    assert tm.apply_batch([("insert", 1, 0), ("delete", 5, 6)]) == 0
    assert dict(tm.trussness) == before


def test_unknown_op_raises_before_mutating():
    tm = TrussMaintainer.from_graph(complete_graph(3))
    with pytest.raises(DecompositionError):
        tm.apply_batch([("upsert", 0, 5)])
    assert dict(tm.trussness) == brute_trussness(complete_graph(3))


def test_insert_then_delete_same_edge_in_batch_with_triangles():
    # the transient edge closes triangles while it exists; the batch
    # repair must still land exactly on the final graph's trussness
    g = Graph([(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)])
    tm = TrussMaintainer.from_graph(g)
    assert tm.apply_batch([("insert", 0, 3), ("delete", 0, 3)]) == 2
    _check(tm, g)


def test_giant_region_falls_back_to_full_repeel():
    # a batch whose slack-widened region covers most of a large clique
    # must take the full-repeel guard and still land exactly
    g = complete_graph(20)
    tm = TrussMaintainer.from_graph(g)
    updates = [("delete", 0, v) for v in range(1, 8)]
    updates += [("insert", 0, 30), ("insert", 1, 30)]
    assert tm.apply_batch(updates) == len(updates)
    mirror = g.copy()
    for op, u, v in updates:
        (mirror.add_edge if op == "insert" else mirror.discard_edge)(u, v)
    _check(tm, mirror)
    assert tm.stats.extra.get("full_repeels", 0) >= 1


def test_stats_counters_accumulate():
    tm = TrussMaintainer.from_graph(complete_graph(4))
    tm.insert_edge(0, 4)
    tm.insert_edge(1, 4)
    assert tm.stats.extra["repairs"] == 2
    assert tm.stats.extra["affected_edges"] >= 1


@pytest.mark.parametrize(
    "build",
    [
        lambda: TrussMaintainer.from_graph(Graph(), kernel="bogus"),
        lambda: TrussMaintainer.from_graph(complete_graph(4), kernel="bogus"),
        lambda: TrussMaintainer.from_state({}, {}, kernel="bogus"),
        lambda: TrussMaintainer.from_state(
            {(1, 2): 2}, {(1, 2): 0}, kernel="bogus"
        ),
    ],
    ids=["from_graph-empty", "from_graph", "from_state-empty", "from_state"],
)
def test_bad_kernel_name_fails_at_construction(build):
    # a bad name used to be accepted here and fail in the first repair,
    # after that update had already changed the adjacency and supports
    tm = None
    with pytest.raises(DecompositionError, match="unknown kernel"):
        tm = build()
    assert tm is None
