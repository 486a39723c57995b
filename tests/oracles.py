"""Brute-force reference implementations used as test oracles.

Every oracle here is written for *obviousness*, not speed: direct
transcriptions of the paper's definitions.  The library implementations
are validated against these on small graphs; the oracles themselves are
cross-checked against networkx in ``tests/integration``.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.graph import Graph, norm_edge
from repro.kernels import PeelKernel

Edge = Tuple[int, int]


def brute_support(g: Graph, u: int, v: int) -> int:
    """sup(e, G): count common neighbors by definition."""
    return sum(1 for w in g.neighbors(u) if w in g.neighbors(v))


def brute_all_supports(g: Graph) -> Dict[Edge, int]:
    """Support of every edge, by repeated neighbor intersection."""
    return {(u, v): brute_support(g, u, v) for u, v in g.edges()}


def brute_triangles(g: Graph) -> Set[FrozenSet[int]]:
    """Every triangle as a frozenset of 3 vertices."""
    out: Set[FrozenSet[int]] = set()
    for u, v in g.edges():
        for w in g.common_neighbors(u, v):
            out.add(frozenset((u, v, w)))
    return out


def brute_k_truss(g: Graph, k: int) -> Graph:
    """The k-truss by definition: repeatedly drop edges with support < k-2.

    ``T_2`` is G itself (every edge trivially has support >= 0).
    """
    h = g.copy()
    changed = True
    while changed:
        changed = False
        for u, v in list(h.edges()):
            if brute_support(h, u, v) < k - 2:
                h.remove_edge(u, v)
                changed = True
    h.drop_isolated_vertices()
    return h


def brute_trussness(g: Graph) -> Dict[Edge, int]:
    """phi(e) for every edge: the largest k with e in the k-truss."""
    phi: Dict[Edge, int] = {e: 2 for e in g.edges()}
    k = 3
    h = brute_k_truss(g, k)
    while h.num_edges > 0:
        for e in h.edges():
            phi[e] = k
        k += 1
        h = brute_k_truss(g, k)
    return phi


def brute_k_classes(g: Graph) -> Dict[int, Set[Edge]]:
    """Phi_k for every k present in the graph."""
    phi = brute_trussness(g)
    classes: Dict[int, Set[Edge]] = {}
    for e, k in phi.items():
        classes.setdefault(k, set()).add(e)
    return classes


def brute_core_numbers(g: Graph) -> Dict[int, int]:
    """core(v) for every vertex by repeated minimum-degree peeling."""
    h = g.copy()
    core: Dict[int, int] = {}
    k = 0
    while h.num_vertices > 0:
        while True:
            low = [v for v in h.vertices() if h.degree(v) <= k]
            if not low:
                break
            for v in low:
                core[v] = k
                h.remove_vertex(v)
        k += 1
    return core


def brute_local_clustering(g: Graph, v: int) -> float:
    """Watts-Strogatz local clustering coefficient of one vertex."""
    nbrs = list(g.neighbors(v))
    d = len(nbrs)
    if d < 2:
        return 0.0
    links = sum(
        1 for a, b in itertools.combinations(nbrs, 2) if g.has_edge(a, b)
    )
    return 2.0 * links / (d * (d - 1))


def brute_average_clustering(g: Graph) -> float:
    """Average local clustering coefficient over all vertices."""
    n = g.num_vertices
    if n == 0:
        return 0.0
    return sum(brute_local_clustering(g, v) for v in g.vertices()) / n


def graphs_equal(a: Graph, b: Graph) -> bool:
    """Structural equality on the non-isolated part of two graphs."""
    return set(a.edges()) == set(b.edges())


def _int64(values):
    """An int64 ndarray from a list of ints (the kernels' output type)."""
    import numpy as np

    return np.asarray(values, dtype=np.int64)


class ReferenceKernel(PeelKernel):
    """The five wave-step ops as plain loops: the per-op oracle.

    Never a process's backend.  The kernel tests feed every importable
    backend and this class the same wave inputs and compare the
    outputs element for element.  It reads its inputs one element
    at a time, so ndarrays and read-only maps work alike.
    """

    name = "reference"

    def pop_frontier(self, sup, alive, phi, hist, frontier, k) -> None:
        for e in frontier:
            e = int(e)
            phi[e] = k
            hist[int(sup[e])] -= 1
            alive[e] = False

    def gather_incident(self, tptr, tinc, edge_ids, tdead=None):
        seen = set()
        for e in edge_ids:
            e = int(e)
            for slot in range(int(tptr[e]), int(tptr[e + 1])):
                t = int(tinc[slot])
                if tdead is not None and tdead[t]:
                    continue
                seen.add(t)
        return _int64(sorted(seen))

    def count_decrements(
        self, e1, e2, e3, tris, alive, lo=None, hi=None, base=0
    ):
        counts: Dict[int, int] = {}
        for t in tris:
            t = int(t)
            for col in (e1, e2, e3):
                p = int(col[t])
                if lo is not None and not lo <= p < hi:
                    continue
                p -= base
                if alive[p]:
                    counts[p] = counts.get(p, 0) + 1
        touched = sorted(counts)
        return _int64(touched), _int64([counts[p] for p in touched])

    def apply_decrements(self, sup, hist, touched, counts, k):
        frontier = []
        for i in range(len(touched)):
            e = int(touched[i])
            old = int(sup[e])
            new = old - int(counts[i])
            sup[e] = new
            hist[old] -= 1
            hist[new] += 1
            if new <= k - 2:
                frontier.append(e)
        return _int64(frontier)

    def merge_decrements(self, buffers):
        if len(buffers) == 1:
            return buffers[0]
        counts: Dict[int, int] = {}
        for ids, cnts in buffers:
            for i in range(len(ids)):
                e = int(ids[i])
                counts[e] = counts.get(e, 0) + int(cnts[i])
        touched = sorted(counts)
        return _int64(touched), _int64([counts[e] for e in touched])
