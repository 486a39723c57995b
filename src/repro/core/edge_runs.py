"""``EdgeRuns``: the stdlib CSR snapshot of the paper's disk-based methods.

The semi-external baseline (Section 3.3) and TD-topdown's candidate
subgraph ``H`` (Algorithm 7) both walk sorted adjacency runs by
canonical edge id, without numpy.  :class:`EdgeRuns` is that snapshot
and nothing more: it is built from edges that are already canonical and
sorted, so an edge's id is simply its position in the input list.
"""

from __future__ import annotations

from array import array
from typing import Sequence, Tuple


class EdgeRuns:
    """Sorted adjacency runs of canonical, strictly ascending edges.

    ``edges[e]`` is edge ``e``: a ``(u, v)`` pair with ``u < v``, in
    strictly ascending order (what ``Graph.sorted_edges()`` returns).
    ``labels`` lists the endpoints in ascending order as Python ints, so
    any integer id fits; compact vertex ``i`` is ``labels[i]``.
    ``indices[indptr[i]:indptr[i + 1]]`` is vertex ``i``'s neighbour
    run, ascending, and ``eids`` the edge id of each slot.  ``eu[e] <
    ev[e]`` are the compact endpoints of edge ``e``.
    """

    __slots__ = ("labels", "indptr", "indices", "eids", "eu", "ev")

    def __init__(self, edges: Sequence[Tuple[int, int]]) -> None:
        labels = sorted({x for e in edges for x in e})
        index = {x: i for i, x in enumerate(labels)}
        eu = array("q", [index[u] for u, _ in edges])
        ev = array("q", [index[v] for _, v in edges])
        n, m = len(labels), len(edges)
        indptr = array("q", [0]) * (n + 1)
        for i in eu:
            indptr[i + 1] += 1
        for j in ev:
            indptr[j + 1] += 1
        for i in range(n):
            indptr[i + 1] += indptr[i]
        fill = indptr[:-1]
        indices = array("q", [0]) * (2 * m)
        eids = array("q", [0]) * (2 * m)
        # the edges ascend in (i, j) order, so each run fills in order:
        # neighbours below i arrive first (from edges (x, i), x
        # ascending), then those above (from edges (i, j), j ascending)
        for e, (i, j) in enumerate(zip(eu, ev)):
            t = fill[i]
            indices[t] = j
            eids[t] = e
            fill[i] = t + 1
            t = fill[j]
            indices[t] = i
            eids[t] = e
            fill[j] = t + 1
        self.labels = labels
        self.indptr, self.indices, self.eids = indptr, indices, eids
        self.eu, self.ev = eu, ev

    @property
    def num_edges(self) -> int:
        """Number of edges."""
        return len(self.eu)

    @property
    def size(self) -> int:
        """The paper's ``|G| = n + m`` in units (same as ``Graph.size``)."""
        return len(self.labels) + len(self.eu)

    def neighbors(self, i: int):
        """Sorted neighbour run of compact vertex ``i`` (a slice)."""
        return self.indices[self.indptr[i]:self.indptr[i + 1]]
