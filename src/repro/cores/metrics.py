"""Graph metrics used throughout the paper's evaluation.

Example 1 and Table 6 compare subgraphs via the Watts–Strogatz
clustering coefficient [33]; Table 2 reports degree statistics.  All
metrics here are exact (no sampling) — the graphs we evaluate on are
laptop-scale by design.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict

from repro.graph.adjacency import Graph
from repro.triangles.listing import oriented_adjacency


def local_clustering(g: Graph, v: int) -> float:
    """Local clustering coefficient of ``v``.

    The fraction of neighbor pairs that are themselves connected; 0 for
    degree < 2 (the standard convention).
    """
    nbrs = list(g.neighbors(v))
    d = len(nbrs)
    if d < 2:
        return 0.0
    nbr_set = g.neighbors(v)
    links = 0
    for i, a in enumerate(nbrs):
        na = g.neighbors(a)
        # count only pairs (a, b) with b after a to avoid double counting
        for b in nbrs[i + 1 :]:
            if b in na:
                links += 1
    return 2.0 * links / (d * (d - 1))


def average_clustering(g: Graph) -> float:
    """Average local clustering coefficient (the paper's "CC").

    Computed via one oriented triangle pass (each triangle closes one
    wedge at each of its three vertices) instead of per-vertex pair
    loops, so it stays ``O(m^1.5)`` overall.
    """
    n = g.num_vertices
    if n == 0:
        return 0.0
    closed: Dict[int, int] = {v: 0 for v in g.vertices()}
    out = oriented_adjacency(g)
    for a in g.vertices():
        out_a = out[a]
        for b in out_a:
            for c in out_a & out[b]:
                closed[a] += 1
                closed[b] += 1
                closed[c] += 1
    total = 0.0
    for v in g.vertices():
        d = g.degree(v)
        if d >= 2:
            total += 2.0 * closed[v] / (d * (d - 1))
    return total / n


def global_clustering(g: Graph) -> float:
    """Transitivity: 3 * triangles / wedges (0 if the graph has no wedge)."""
    wedges = 0
    for v in g.vertices():
        d = g.degree(v)
        wedges += d * (d - 1) // 2
    if wedges == 0:
        return 0.0
    triangles = 0
    out = oriented_adjacency(g)
    for a in g.vertices():
        out_a = out[a]
        for b in out_a:
            triangles += len(out_a & out[b])
    return 3.0 * triangles / wedges


def density(g: Graph) -> float:
    """Edge density ``2m / (n(n-1))``; 0 for graphs with < 2 vertices."""
    n = g.num_vertices
    if n < 2:
        return 0.0
    return 2.0 * g.num_edges / (n * (n - 1))


def median_degree(g: Graph) -> float:
    """The paper's ``dmed`` (0 for an empty graph)."""
    if g.num_vertices == 0:
        return 0.0
    return float(statistics.median(g.degree_sequence()))


@dataclass(frozen=True)
class GraphStatistics:
    """The row shape of the paper's Table 2."""

    num_vertices: int
    num_edges: int
    size_bytes: int
    max_degree: int
    median_degree: float

    @classmethod
    def of(cls, g: Graph, bytes_per_entry: int = 8) -> "GraphStatistics":
        """Compute statistics; disk size assumes the paper's
        adjacency-list file layout: each vertex stored once with its
        neighbour list (two 8-byte words per vertex header plus one
        word per directed edge)."""
        return cls(
            num_vertices=g.num_vertices,
            num_edges=g.num_edges,
            size_bytes=(2 * g.num_vertices + 2 * g.num_edges) * bytes_per_entry,
            max_degree=g.max_degree(),
            median_degree=median_degree(g),
        )
