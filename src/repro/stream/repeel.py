"""Frozen-boundary local re-peel, a plain-Python loop over edge ids.

The maintainer hands this module a *region* — the affected edges whose
trussness must be recomputed — plus the frozen boundary: every other
edge that shares a triangle with the region keeps its old trussness by
the containment argument, so it takes part in the local peel as a
fixed-level spectator instead of a peelable edge.

Local edge ids are positional: region edges are ``0..nloc-1`` (in the
caller's order), frozen boundary edges are ``nloc..nloc+nfro-1``.  The
peel is the paper's Algorithm 2 (a support-ordered sequential peel over
per-edge triangle lists) with one twist: a frozen edge is never
*popped* (its local support is an undercount and is never consulted);
it *expires* when the level reaches its old trussness, at which point
its still-alive triangles die and decrement the region supports exactly
as a real level-``phi`` pop would.  Expiry at the start of the level is
sound because pop order within a level does not affect the result (the
same argument that makes the sharded engines bit-identical).

Regions are small (on the update-collab benchmark the median is 5 edges
and 2 triangles), so a plain loop beats a vectorized wave, whose cost
there is numpy call overhead.  Region edges wait in lazy buckets by
support; the level rises to the least region support plus two, or to
the next frozen trussness if that comes first.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

Triple = Tuple[int, int, int]


def repeel_region(
    nloc: int,
    frozen_phi: Sequence[int],
    triangles: Sequence[Triple],
) -> List[int]:
    """Recompute trussness for ``nloc`` region edges.

    ``triangles`` lists every triangle containing at least one region
    edge, once each, as a triple of local edge ids in any order;
    ``frozen_phi[i]`` is the old trussness of frozen edge ``nloc + i``.
    Returns the new trussness per region edge, same order as the ids.
    """
    if not nloc:
        return []
    tris_of: List[List[int]] = [[] for _ in range(nloc + len(frozen_phi))]
    for t, (x, y, z) in enumerate(triangles):
        tris_of[x].append(t)
        tris_of[y].append(t)
        tris_of[z].append(t)
    sup = [len(tris_of[i]) for i in range(nloc)]
    # bins[s] holds every region edge whose support was s when it last
    # changed while above the level's pop threshold; an entry is stale
    # once the edge moved on or was popped
    bins: List[List[int]] = [[] for _ in range(max(sup) + 1)]
    for i, s in enumerate(sup):
        bins[s].append(i)
    dead = bytearray(len(triangles))
    gone = bytearray(nloc)  # popped region edges
    phi = [0] * nloc
    # frozen local ids by descending old trussness: expire from the end
    expiry = sorted(
        range(nloc, nloc + len(frozen_phi)),
        key=lambda f: frozen_phi[f - nloc], reverse=True,
    )
    stack: List[int] = []

    def kill(e: int, k2: int) -> None:
        """Drop ``e``'s live triangles; a region partner whose support
        falls to the pop threshold ``k2`` joins the stack."""
        for t in tris_of[e]:
            if dead[t]:
                continue
            dead[t] = 1
            for x in triangles[t]:
                if x < nloc and not gone[x]:
                    s = sup[x] - 1
                    sup[x] = s
                    if s > k2:
                        bins[s].append(x)
                    elif s == k2:
                        stack.append(x)

    rem = nloc
    floor = 0  # no live region edge has a lower support
    while rem:
        while True:
            live = [x for x in bins[floor] if sup[x] == floor and not gone[x]]
            bins[floor] = live
            if live:
                break
            floor += 1
        k = floor + 2
        if expiry and frozen_phi[expiry[-1] - nloc] < k:
            k = frozen_phi[expiry[-1] - nloc]
        k2 = k - 2
        while expiry and frozen_phi[expiry[-1] - nloc] <= k:
            kill(expiry.pop(), k2)
        if floor == k2:
            stack.extend(live)
            bins[floor] = []
        while stack:
            e = stack.pop()
            gone[e] = 1
            phi[e] = k
            rem -= 1
            kill(e, k2)
        # every live region edge now has support above k - 2
        floor = k - 1
    return phi
