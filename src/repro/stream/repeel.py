"""Frozen-boundary local re-peel over the pluggable wave kernel.

The maintainer hands this module a *region* — the affected edges whose
trussness must be recomputed — plus the frozen boundary: every other
edge that shares a triangle with the region keeps its old trussness by
the containment argument, so it participates in the local peel as a
fixed-level spectator instead of a peelable edge.

Local edge ids are positional: region edges are ``0..nloc-1`` (in the
caller's order), frozen boundary edges are ``nloc..nloc+nfro-1``.  The
peel mirrors :func:`repro.core.flat.run_wave_peel` — alive-support
histogram with a floor-jumping level scan, level-synchronous waves of
the five :class:`repro.kernels.PeelKernel` ops — with one twist: a
frozen edge is never *peeled* (its local support is an undercount and
is never consulted); it *expires* when the level reaches its old
trussness, at which point its still-alive triangles die and decrement
the region supports exactly as a real level-``phi`` pop would.  Expiry
at the first wave of the level is sound because pop order within a
level does not affect the result (the same argument that makes the
sharded engines bit-identical).

The state is int64 ndarrays, so any installed kernel backend can
drive the waves.
"""

from __future__ import annotations

from array import array
from typing import List, Sequence, Tuple

from repro.kernels import get_kernel, resolve_kernel

try:  # the maintainer resolves its kernel first, which fails without it
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

Triple = Tuple[int, int, int]


def repeel_region(
    nloc: int,
    frozen_phi: Sequence[int],
    triangles: Sequence[Triple],
    kernel: str = None,
) -> Sequence[int]:
    """Recompute trussness for ``nloc`` region edges.

    ``triangles`` lists every triangle containing at least one region
    edge, as triples of local edge ids (region first, then frozen);
    ``frozen_phi[i]`` is the old trussness of frozen edge ``nloc + i``.
    Returns the new trussness per region edge, same order as the ids.
    """
    if nloc == 0:
        return array("q")
    kern = get_kernel(resolve_kernel(kernel))
    nfro = len(frozen_phi)
    nall = nloc + nfro
    nt = len(triangles)

    tri = _np.asarray(triangles, dtype=_np.int64).reshape(nt, 3)
    e1c = _np.ascontiguousarray(tri[:, 0])
    e2c = _np.ascontiguousarray(tri[:, 1])
    e3c = _np.ascontiguousarray(tri[:, 2])
    flat = tri.ravel()
    cnt = _np.bincount(flat, minlength=nall) if nt else _np.zeros(
        nall, dtype=_np.int64
    )
    tptr = _np.zeros(nall + 1, dtype=_np.int64)
    _np.cumsum(cnt, out=tptr[1:])
    # stable sort of the flattened incidence: slot p of ``flat``
    # belongs to triangle p // 3, so the argsort *is* the index
    order = _np.argsort(flat, kind="stable")
    tinc = order // 3
    sup = cnt[:nloc].astype(_np.int64)
    hist = _np.bincount(sup, minlength=1)
    alive = _np.ones(nall, dtype=bool)
    tdead = _np.zeros(nt, dtype=bool)
    phi = _np.zeros(nloc, dtype=_np.int64)
    fphi = _np.asarray(frozen_phi, dtype=_np.int64)
    forder = _np.argsort(fphi, kind="stable")

    fptr = 0  # next frozen edge to expire, in ascending-phi order
    rem = nloc
    floor = 0
    hist_len = len(hist)
    k = 2
    while rem:
        while floor < hist_len and not hist[floor]:
            floor += 1
        nxt = floor + 2
        if fptr < nfro:
            nxt = min(nxt, int(fphi[int(forder[fptr])]))
        if nxt > k:
            k = nxt
        expiring: List[int] = []
        while fptr < nfro and int(fphi[int(forder[fptr])]) <= k:
            expiring.append(nloc + int(forder[fptr]))
            fptr += 1
        frontier = _np.flatnonzero(alive[:nloc] & (sup <= k - 2))
        while len(frontier) or expiring:
            if len(frontier):
                kern.pop_frontier(sup, alive, phi, hist, frontier, k)
                rem -= len(frontier)
            for f in expiring:
                alive[f] = False
            popped = array("q", (int(e) for e in frontier))
            popped.extend(expiring)
            hit = kern.gather_incident(tptr, tinc, popped, tdead)
            tdead[hit] = True
            touched, dec = kern.count_decrements(
                e1c, e2c, e3c, hit, alive, lo=0, hi=nloc, base=0
            )
            frontier = kern.apply_decrements(sup, hist, touched, dec, k)
            expiring = []
    return phi
