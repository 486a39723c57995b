"""The frozen-boundary local re-peel against the brute oracle.

``repeel_region`` sees only a region of edges, the triangles through
them and the old trussness of every other edge of those triangles.
When the frozen values are the true ones, the peel must land on the
true trussness of every region edge, whatever the region is.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_trussness
from repro.graph import Graph, complete_graph
from repro.stream import repeel_region

Edge = Tuple[int, int]


def _local_problem(g: Graph, region: Sequence[Edge], phi: Dict[Edge, int]):
    """``(nloc, frozen_phi, triangles)`` for ``region`` of ``g``, with
    every other edge of a region triangle frozen at ``phi``."""
    local = {e: i for i, e in enumerate(region)}
    frozen_phi: List[int] = []
    triangles = set()
    for u, v in region:
        for w in g.common_neighbors(u, v):
            a, b, c = sorted((u, v, w))
            ids = []
            for e in ((a, b), (a, c), (b, c)):
                if e not in local:
                    local[e] = len(region) + len(frozen_phi)
                    frozen_phi.append(phi[e])
                ids.append(local[e])
            triangles.add(tuple(ids))
    return len(region), frozen_phi, sorted(triangles)


@st.composite
def graphs_with_regions(draw):
    """Overlapping planted cliques plus random edges, so levels mix and
    a region edge meets frozen partners both below and above its own
    level, and a random subset of the edges as the region."""
    n = draw(st.integers(min_value=4, max_value=11))
    vertices = st.integers(min_value=0, max_value=n - 1)
    g = Graph()
    for clique in draw(st.lists(st.sets(vertices, min_size=3), max_size=3)):
        g.add_edges((u, v) for u in clique for v in clique if u < v)
    for u, v in draw(st.lists(st.tuples(vertices, vertices), max_size=24)):
        if u != v:
            g.add_edge(u, v)
    edges = sorted(g.edges())
    if not edges:
        return g, []
    return g, draw(st.lists(st.sampled_from(edges), unique=True))


@settings(deadline=None)
@given(graphs_with_regions())
def test_frozen_true_values_give_true_values(case):
    g, region = case
    phi = brute_trussness(g)
    got = repeel_region(*_local_problem(g, region, phi))
    assert got == [phi[e] for e in region]


def test_empty_region():
    assert repeel_region(0, [], []) == []
    assert repeel_region(0, [3, 3], []) == []


def test_edge_in_no_triangle_gets_two():
    # edge 1 closes no triangle; edge 0 sits in one with two frozen
    assert repeel_region(2, [5, 5], [(0, 2, 3)]) == [3, 2]


def test_frozen_phi_below_the_support_floor_expires_first():
    # the region edge sits in three triangles, so the floor says level
    # 5; the frozen pair of level 3 expires before any pop and leaves
    # two triangles whose partners stay until level 10: trussness 4,
    # the level its remaining support gives, not the old floor's
    triangles = [(0, 1, 2), (0, 3, 4), (0, 5, 6)]
    assert repeel_region(1, [3, 3, 10, 10, 10, 10], triangles) == [4]
    # the same with more triangles below the floor: 5 of 3 + 2 + 3
    frozen = [3, 3, 3, 3] + [10] * 6
    triangles = [(0, 2 * i + 1, 2 * i + 2) for i in range(5)]
    assert repeel_region(1, frozen, triangles) == [5]


def test_values_are_python_ints():
    g = complete_graph(4)
    g.add_edges([(3, 4), (0, 4), (4, 5)])
    phi = brute_trussness(g)
    region = [(0, 3), (3, 4), (4, 5)]
    got = repeel_region(*_local_problem(g, region, phi))
    assert got == [phi[e] for e in region]
    assert all(type(k) is int for k in got)
