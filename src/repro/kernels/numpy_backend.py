"""The vectorized reference backend (the engines' original wave code).

This is the bit-identity baseline of the kernel layer: the gather
(`repro.core.flat._collect_hits_arrays` before the extraction) and
scatter count (``_count_decrements_arrays``), plus the frontier pop and
support/histogram commit the engines used to inline, with the same
outputs.  The gather dedupes with :func:`repro.graph.csr.sorted_unique`
(one sort, adjacent diff): ``np.unique`` hashes first on numpy >= 2.3,
which on these arrays is slower than sorting them outright.  Every other
backend must reproduce these outputs bit for bit (see the package doc
for the contract).
"""

from __future__ import annotations

import numpy as _np

from repro.graph.csr import sorted_unique
from repro.kernels import PeelKernel


class NumpyKernel(PeelKernel):
    """Vectorized wave step over the flat eid-indexed state arrays."""

    name = "numpy"

    def pop_frontier(self, sup, alive, phi, hist, frontier, k) -> None:
        if not len(frontier):
            return
        phi[frontier] = k
        _np.subtract.at(hist, sup[frontier], 1)
        alive[frontier] = False

    def gather_incident(self, tptr, tinc, edge_ids, tdead=None):
        if not len(edge_ids):
            return _np.zeros(0, dtype=_np.int64)
        edge_ids = _np.asarray(edge_ids, dtype=_np.int64)
        # asarray: tptr/tinc may be read-only mmaps (dist ranks, the
        # parallel pool's mmap index mode) — fancy indexing them
        # already yields plain ndarrays, this just pins the dtype
        starts = _np.asarray(tptr[edge_ids], dtype=_np.int64)
        cnt = _np.asarray(tptr[edge_ids + 1], dtype=_np.int64) - starts
        total = int(cnt.sum())
        if total == 0:
            return _np.zeros(0, dtype=_np.int64)
        ends = _np.cumsum(cnt)
        offs = _np.arange(total, dtype=_np.int64) - _np.repeat(
            ends - cnt, cnt
        )
        slots = _np.repeat(starts, cnt) + offs
        hit = _np.asarray(tinc[slots], dtype=_np.int64)
        if tdead is not None:
            hit = hit[~tdead[hit]]
        return sorted_unique(hit)

    def count_decrements(
        self, e1, e2, e3, tris, alive, lo=None, hi=None, base=0
    ):
        empty = _np.zeros(0, dtype=_np.int64)
        if not len(tris):
            return empty, empty
        partners = _np.concatenate(
            (e1[tris], e2[tris], e3[tris]), dtype=_np.int64
        )
        if lo is not None:
            partners = partners[(partners >= lo) & (partners < hi)]
        if base:
            partners = partners - base
        partners = partners[alive[partners]]
        if not partners.size:
            return empty, empty
        return _np.unique(partners, return_counts=True)

    def apply_decrements(self, sup, hist, touched, counts, k):
        if not len(touched):
            return _np.zeros(0, dtype=_np.int64)
        old = sup[touched]
        new = old - counts
        sup[touched] = new
        _np.subtract.at(hist, old, 1)
        _np.add.at(hist, new, 1)
        return touched[new <= k - 2]

    def merge_decrements(self, buffers):
        if len(buffers) == 1:
            return buffers[0]
        ids = _np.concatenate([b[0] for b in buffers])
        cnts = _np.concatenate([b[1] for b in buffers])
        touched, inv = _np.unique(ids, return_inverse=True)
        dec = _np.bincount(
            inv, weights=cnts, minlength=len(touched)
        ).astype(_np.int64)
        return touched, dec
