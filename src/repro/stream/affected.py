"""Bounded affected-set computation for incremental maintenance.

The containment argument (Jakkula & Karypis, arXiv 1908.10550; Huang
et al. SIGMOD'14): a single edge update changes any trussness by at
most one, and an edge ``f`` at level ``k`` can only change if it is
reachable from the updated edge through a chain of triangles in which
every traversed edge sits at level exactly ``k`` and every third edge
sits at level ``>= k`` — a support cascade cannot jump levels or pass
through an edge whose trussness it cannot move.  The closure of that
rule from the update's own triangles is therefore a sound superset of
the changed edges; everything outside keeps its trussness verbatim and
may be frozen during the local re-peel.

For a batch of ``B`` updates the per-update chains compose: levels can
drift by up to one per effective update, so the traversal runs with a
``slack`` of ``2 * B`` — admit a neighbor when its level is within
``slack`` of the current edge's and the third edge is no more than
``slack`` below their minimum.  Edges inserted by the batch have no
prior trussness and act as wildcards: they are always in the region
and pass every level comparison.

Adjacency here is the maintainer's dict of *sorted* neighbor lists;
triangle enumeration is a two-pointer merge over them.  Lists are read
with ``adj[u]``, not ``adj.get(u)``: the maintainer's adjacency opens a
vertex from its CSR base on first read (a plain dict must hold every
vertex asked about).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

Edge = Tuple[int, int]


def canon(u: int, v: int) -> Edge:
    """The canonical (min, max) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


def common_neighbors(
    adj: Dict[int, List[int]], u: int, v: int
) -> List[int]:
    """Sorted common neighbors of ``u`` and ``v`` (two-pointer merge)."""
    au = adj[u]
    av = adj[v]
    if not au or not av:
        return []
    out: List[int] = []
    i = j = 0
    nu, nv = len(au), len(av)
    while i < nu and j < nv:
        a, b = au[i], av[j]
        if a == b:
            out.append(a)
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return out


def admit(
    lf: Optional[int],
    lg: Optional[int],
    lh: Optional[int],
    slack: int,
) -> bool:
    """Whether edge ``g`` joins the region via triangle ``(f, g, h)``.

    ``lf``/``lg``/``lh`` are prior trussness levels; ``None`` marks a
    wildcard (an edge inserted by the batch, or — for ``lh`` — any
    edge already known to pass the third-edge floor).
    """
    if lg is None:
        return False  # wildcards are seeded into the region up front
    if lf is not None and abs(lg - lf) > slack:
        return False
    need = lg if lf is None else min(lf, lg)
    return lh is None or lh >= need - slack


def expand_region(
    adj: Dict[int, List[int]],
    phi: Dict[Edge, int],
    region: Set[Edge],
    queue: List[Edge],
    slack: int,
    cap: Optional[int] = None,
) -> bool:
    """Grow ``region`` in place to the triangle-chain closure.

    ``queue`` holds the seed edges (already members of ``region``);
    traversal enumerates triangles in ``adj`` — the *post-update*
    adjacency — and admits neighbors per :func:`admit`.  Edges missing
    from ``phi`` are wildcards.

    ``cap`` short-circuits the traversal once the region reaches that
    many edges; returns True when truncated this way — the region is
    then *not* a sound bound and the caller must repair globally.
    """
    while queue:
        if cap is not None and len(region) >= cap:
            return True
        a, b = queue.pop()
        lf = phi.get((a, b))
        for w in common_neighbors(adj, a, b):
            g = canon(a, w)
            h = canon(b, w)
            for x, y in ((g, h), (h, g)):
                if x in region:
                    continue
                if admit(lf, phi.get(x), phi.get(y), slack):
                    region.add(x)
                    queue.append(x)
    return False
