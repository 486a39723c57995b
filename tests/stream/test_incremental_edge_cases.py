"""Regression pins for degenerate update shapes.

Each case checks exact trussness parity against the brute oracle plus
the affected-set hygiene invariant: ``last_affected`` contains only
edges that exist after the repair (no stale ids), and the phi map
covers exactly the current edge set.
"""

from __future__ import annotations

import struct

import pytest

from helpers import needs_numpy
from oracles import brute_all_supports, brute_trussness
from repro import durable
from repro.core import truss_decomposition
from repro.errors import DecompositionError
from repro.graph import Graph, complete_graph
from repro.serve import snapshot as snap
from repro.stream import TrussMaintainer

#: the maintainer seeds from the flat engine
pytestmark = needs_numpy


def _check(tm: TrussMaintainer, mirror: Graph) -> None:
    want = brute_trussness(mirror)
    assert dict(tm.trussness) == want
    assert set(tm.last_affected) <= set(want)
    assert set(tm.trussness) == set(want)
    assert len(set(tm.last_affected)) == len(tm.last_affected)


def _check_state(tm: TrussMaintainer, mirror: Graph, probes) -> None:
    """Both views, the edge count and ``has_edge`` on ``probes`` equal
    the brute oracle's.  Only the probed vertices get opened, so later
    steps still run against a partly columnar state."""
    assert dict(tm.trussness) == brute_trussness(mirror)
    assert dict(tm.supports) == brute_all_supports(mirror)
    assert tm.num_edges == mirror.num_edges
    for u, v in probes:
        assert tm.has_edge(u, v) == mirror.has_edge(u, v), (u, v)
        assert tm.has_edge(v, u) == mirror.has_edge(u, v), (v, u)


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


@pytest.mark.parametrize(
    "n, batch",
    [
        (3, [("upsert", 0, 5)]),
        (4, [("delete", 0, 1), ("bogus", 1, 2)]),
        (3, [("insert", 0, 5), ("upsert", 1, 2)]),
        (4, [("delete", 0, 1), ("insert", "x", 2)]),
        (4, [("delete", 0, 1), ("insert", 1 << 63, 2)]),
        (4, [("delete", 0, 1), ("insert", 1.5, 7)]),
        (4, [("delete", 0, 1), ("insert", "7", 8)]),
        # the update stream's ops are the only ones: no aliases
        (3, [("add", 0, 5)]),
        (3, [("i", 0, 5)]),
        (4, [("remove", 0, 1)]),
        (4, [("d", 0, 1)]),
    ],
    ids=["upsert-only", "delete-then-bogus", "insert-then-upsert",
         "non-integer-endpoint", "endpoint-outside-int64",
         "float-endpoint", "numeric-string-endpoint",
         "alias-add", "alias-i", "alias-remove", "alias-d"],
)
def test_unknown_op_raises_before_mutating(n, batch):
    # every update is checked before the first one is applied, so a
    # bad one leaves no half-applied, never-repaired batch behind
    g = complete_graph(n)
    tm = TrussMaintainer.from_graph(g)
    with pytest.raises(DecompositionError):
        tm.apply_batch(batch)
    _check_state(tm, g, [(0, 1), (0, 5), (1, 2)])
    # a later, unrelated repair starts from exact values
    assert tm.insert_edge(7, 8)
    mirror = g.copy()
    mirror.add_edge(7, 8)
    _check_state(tm, mirror, [(0, 1), (7, 8)])


def test_numpy_integer_endpoints_apply():
    # operator.index takes numpy integers, and the state keys are ints
    import numpy as np

    g = complete_graph(4)
    tm = TrussMaintainer.from_graph(g)
    assert tm.apply_batch([("insert", np.int64(7), np.int32(8))]) == 1
    mirror = g.copy()
    mirror.add_edge(7, 8)
    _check_state(tm, mirror, [(7, 8)])
    assert all(type(x) is int for edge in tm.trussness for x in edge)


def test_opened_vertices_yield_python_ints():
    # the base columns come from int64 ndarrays; a repair reads them
    # through memoryviews, label lists and array('q') columns, so no
    # numpy scalar reaches the state or anything read from it
    g = complete_graph(5)
    g.add_edge(4, 5)
    tm = TrussMaintainer.from_graph(g)
    assert tm.delete_edge(0, 1)
    assert tm.insert_edge(1, 5)
    assert tm.last_affected
    assert all(type(x) is int for edge in tm.last_affected for x in edge)
    assert len(tm._adj) >= 3  # 0, 1 and 5 at least were opened
    assert all(
        type(x) is int
        for v, row in tm._adj.items() for x in (v, *row, *row.values())
    )
    assert all(type(x) is int for col in (tm._phi, tm._sup) for x in col)
    assert all(type(x) is int for edge in tm.trussness for x in edge)


def test_batch_deleting_two_edges_of_one_triangle():
    # K4 plus a pendant edge and a separate triangle.  Deleting (0, 1)
    # destroys triangle (0, 1, 2), whose partner (0, 2) the same batch
    # deletes too: at repair time that partner is no longer live, so
    # its stale trussness must not seed it into the region
    g = complete_graph(4)
    g.add_edges([(3, 4), (5, 6), (6, 7), (5, 7)])
    tm = TrussMaintainer.from_graph(g)
    assert tm.apply_batch([("delete", 0, 1), ("delete", 0, 2)]) == 2
    mirror = g.copy()
    mirror.remove_edge(0, 1)
    mirror.remove_edge(0, 2)
    _check(tm, mirror)
    assert dict(tm.trussness) == {
        (0, 3): 2, (1, 2): 3, (1, 3): 3, (2, 3): 3, (3, 4): 2,
        (5, 6): 3, (5, 7): 3, (6, 7): 3,
    }
    # the four K4 edges left, reached through the destroyed triangles;
    # neither the pendant edge nor the other triangle
    assert tm.last_affected == ((0, 3), (1, 2), (1, 3), (2, 3))
    # the reverse order seeds the same region
    tm = TrussMaintainer.from_graph(g)
    assert tm.apply_batch([("delete", 0, 2), ("delete", 0, 1)]) == 2
    _check(tm, mirror)
    assert tm.last_affected == ((0, 3), (1, 2), (1, 3), (2, 3))


def test_region_support_falling_below_its_floor():
    # Deleting (2, 7) re-peels every edge but (4, 19) and (7, 19),
    # which stay frozen at level 3.  They expire before any region
    # edge can pop, and (4, 7) loses a triangle, falling below every
    # other region edge's support: the next level must follow it down.
    # A floor that only ever rose left (4, 7), and the five edges that
    # then lose a triangle to its pop, at 5 instead of 4.
    edges = [
        (2, 4), (2, 6), (2, 7), (2, 8), (2, 9), (2, 11), (2, 16), (2, 18),
        (2, 20), (4, 6), (4, 7), (4, 8), (4, 11), (4, 16), (4, 19), (6, 7),
        (6, 16), (6, 20), (7, 9), (7, 16), (7, 18), (7, 19), (7, 20),
        (8, 11), (8, 16), (9, 16), (9, 18), (9, 20), (11, 16), (16, 18),
        (16, 20), (18, 20),
    ]
    g = Graph(edges)
    tm = TrussMaintainer.from_graph(g)
    assert tm.delete_edge(2, 7)
    mirror = g.copy()
    mirror.remove_edge(2, 7)
    _check(tm, mirror)
    assert len(tm.last_affected) == 29
    assert {e for e, k in tm.trussness.items() if k == 4} == {
        (2, 6), (4, 6), (4, 7), (6, 7), (6, 16), (6, 20),
    }


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
    # the process picks the wave-step backend: no constructor takes one
    tm = None
    with pytest.raises(TypeError, match="kernel"):
        tm = build()
    assert tm is None


# ------------------------------------------------------------------
# the columnar state: CSR base columns, with vertices opened into dicts
# on first touch


def _apply(mirror: Graph, op: str, u: int, v: int) -> None:
    (mirror.add_edge if op == "insert" else mirror.discard_edge)(u, v)


def test_emptied_vertex_gets_no_base_edge_back():
    g = complete_graph(5)
    g.add_edges([(4, 5), (5, 6), (4, 6), (0, 7)])
    tm = TrussMaintainer.from_graph(g)
    mirror = g.copy()
    base_edges = [(0, w) for w in (1, 2, 3, 4, 7)]
    for _, w in base_edges:
        assert tm.delete_edge(0, w)
        mirror.discard_edge(0, w)
        _check_state(tm, mirror, base_edges)
    # the emptied vertex stays open: an insert there reads no base row
    for w in (2, 5):
        assert tm.insert_edge(0, w)
        mirror.add_edge(0, w)
        _check_state(tm, mirror, base_edges + [(0, 5)])
    # and the same inside one batch
    batch = [("delete", 4, w) for w in (1, 2, 3, 5, 6)]
    batch += [("insert", 4, 1), ("insert", 4, 9)]
    assert tm.apply_batch(batch) == len(batch)
    for op, u, v in batch:
        _apply(mirror, op, u, v)
    _check_state(tm, mirror, [(4, w) for w in range(10)])


def test_inserts_between_ids_absent_from_seed():
    g = complete_graph(4)
    tm = TrussMaintainer.from_graph(g)
    mirror = g.copy()
    steps = [("insert", 10, 11), ("insert", 11, -12), ("insert", 10, -12),
             ("insert", 10, 0), ("insert", 11, 0), ("delete", 10, 11),
             ("insert", 10, 11)]
    probes = [(u, v) for _, u, v in steps] + [(0, 1), (-12, 0)]
    for op, u, v in steps:
        assert tm.apply_batch([(op, u, v)]) == 1
        _apply(mirror, op, u, v)
        _check_state(tm, mirror, probes)


def test_as_decomposition_between_updates_is_columnar():
    g = complete_graph(5)
    g.add_edges([(4, 8), (5, 8)])
    tm = TrussMaintainer.from_graph(g)
    mirror = g.copy()
    seen = []
    for op, u, v in [("insert", 4, 5), ("delete", 0, 1), ("insert", 0, 8),
                     ("insert", 20, 21), ("delete", 4, 5)]:
        tm.apply_batch([(op, u, v)])
        _apply(mirror, op, u, v)
        td = tm.as_decomposition()
        assert td.columns is not None
        assert td == truss_decomposition(mirror, method="flat")
        assert dict(td.trussness) == brute_trussness(mirror)
        _check_state(tm, mirror, [(u, v)])
        seen.append((td, brute_trussness(mirror)))
    # a later update never reaches into an earlier result
    for td, want in seen:
        assert dict(td.trussness) == want


def test_full_repeel_with_open_vertices_then_local_repairs():
    # K20 (190 edges, region cap 64) plus a sparse corner of triangles
    g = complete_graph(20)
    g.add_edges([(40, 41), (41, 42), (40, 42), (42, 43), (43, 44),
                 (42, 44)])
    tm = TrussMaintainer.from_graph(g)
    mirror = g.copy()
    probes = [(0, 30), (1, 30), (40, 43), (41, 42), (0, 1), (42, 44)]
    for op, u, v in [("insert", 0, 30), ("insert", 1, 30),
                     ("insert", 40, 43)]:
        tm.apply_batch([(op, u, v)])
        _apply(mirror, op, u, v)
    _check_state(tm, mirror, probes)
    assert tm.stats.extra.get("full_repeels", 0) == 0
    batch = [("delete", 0, v) for v in range(1, 8)]
    batch += [("delete", 1, v) for v in range(2, 12)]
    tm.apply_batch(batch)
    for op, u, v in batch:
        _apply(mirror, op, u, v)
    assert tm.stats.extra["full_repeels"] == 1
    _check_state(tm, mirror, probes)
    assert set(tm.last_affected) == set(brute_trussness(mirror))
    for op, u, v in [("delete", 41, 42), ("insert", 41, 44),
                     ("insert", 2, 30), ("delete", 40, 43)]:
        tm.apply_batch([(op, u, v)])
        _apply(mirror, op, u, v)
        _check_state(tm, mirror, probes + [(u, v)])
    assert tm.stats.extra["full_repeels"] == 1


def test_from_state_takes_another_maintainers_views():
    g = complete_graph(5)
    g.add_edges([(4, 8), (5, 8)])
    tm = TrussMaintainer.from_graph(g)
    tm.apply_batch([("insert", 4, 5), ("delete", 0, 1)])
    twin = TrussMaintainer.from_state(tm.trussness, tm.supports)
    # the views hand over the compacted rows, not a dict export
    assert twin.state_rows() is tm.state_rows()
    later = [("insert", 0, 8), ("delete", 2, 3), ("insert", 9, 1)]
    tm.apply_batch(later)
    twin.apply_batch(later)
    mirror = g.copy()
    for op, u, v in [("insert", 4, 5), ("delete", 0, 1)] + later:
        _apply(mirror, op, u, v)
    _check_state(twin, mirror, [(0, 8), (2, 3), (1, 9), (0, 1)])
    assert twin.trussness == tm.trussness
    assert dict(twin.supports) == dict(tm.supports)


@pytest.mark.parametrize(
    "rows",
    [
        [(0, 2, 2, 0), (0, 1, 2, 0)],
        [(0, 1, 2, 0), (0, 1, 2, 0)],
        [(0, 1, 2, 0), (2, 1, 2, 0)],
        [(3, 3, 2, 0)],
    ],
    ids=["out-of-order", "duplicated", "non-canonical", "self-loop"],
)
def test_from_state_rejects_bad_rows(tmp_path, rows):
    # a CRC-clean generation whose rows break the format's order
    durable.publish(
        durable.entry_dir(tmp_path, "gen", 0),
        {snap.STATE: b"".join(struct.pack("<4q", *r) for r in rows)},
        {"gen": 0, "wal_seq": 0},
    )
    phi, sup, _ = snap.load_generation(tmp_path, 0)
    with pytest.raises(DecompositionError):
        TrussMaintainer.from_state(phi, sup)
