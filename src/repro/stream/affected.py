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
prior trussness (``phi`` -1) and act as wildcards: they are always in
the region and pass every level comparison.

Edges are the maintainer's edge ids.  Adjacency is its ``vertex ->
{neighbour: edge id}`` map, so the triangles through ``(a, b)`` are
the common keys of ``adj[a]`` and ``adj[b]``.  Maps are read with
``adj[u]``, not ``adj.get(u)``: the maintainer's adjacency opens a
vertex from its CSR base on first read (a plain dict must hold every
vertex asked about).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

Edge = Tuple[int, int]


def expand_region(
    adj: Dict[int, Dict[int, int]],
    phi: Sequence[int],
    region: Dict[int, Edge],
    queue: List[Tuple[int, int, int]],
    slack: int,
    cap: Optional[int] = None,
) -> bool:
    """Grow ``region`` (edge id -> canonical edge) in place to the
    triangle-chain closure.

    ``queue`` holds the seed edges as ``(a, b, id)`` (already members
    of ``region``); traversal enumerates triangles in ``adj`` — the
    *post-update* adjacency — and admits an edge ``g`` of a triangle
    ``(f, g, h)`` when ``g`` is no wildcard, its level is within
    ``slack`` of ``f``'s, and ``h`` clears their minimum less
    ``slack``.  ``phi`` is indexed by edge id, -1 for a wildcard.

    ``cap`` short-circuits the traversal once the region reaches that
    many edges; returns True when truncated this way — the region is
    then *not* a sound bound and the caller must repair globally.
    """
    while queue:
        if cap is not None and len(region) >= cap:
            return True
        a, b, f = queue.pop()
        lf = phi[f]
        na, nb = adj[a], adj[b]
        for w in na.keys() & nb.keys():
            g, h = na[w], nb[w]
            lg, lh = phi[g], phi[h]
            for x, c, lx, ly in ((g, a, lg, lh), (h, b, lh, lg)):
                if lx < 0 or x in region:
                    continue  # wildcards are seeded up front
                if lf < 0:
                    need = lx
                elif abs(lx - lf) > slack:
                    continue
                else:
                    need = min(lf, lx)
                if ly < 0 or ly >= need - slack:
                    region[x] = (c, w) if c < w else (w, c)
                    queue.append((c, w, x))
    return False
