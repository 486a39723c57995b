"""Streaming two-pass triangle-index construction (numpy substrate).

Every CSR peel engine (``flat`` serial waves, ``parallel`` shared
memory, ``dist`` rank processes) runs over the same materialized
edge->triangle incidence index: the per-triangle edge columns
``e1``/``e2``/``e3`` and the CSR-style incidence ``tptr``/``tinc``
(``tinc[tptr[e]:tptr[e+1]]`` are the ids of the triangles containing
edge ``e``, ascending).  Building that index used to be the slow,
memory-hungry prefix shared by all of them: list every triangle into
RAM, concatenate all three columns (3·|△G| slots), and derive ``tinc``
with one global ``np.argsort`` — O(T log T) time and ~5 simultaneous
int64 arrays of triangle length.

This module replaces that with a **two-pass counting build** over the
chunked wedge enumerator:

1. **count** — a pass over the triangle stream keeping only a per-edge
   incidence count: this is ``sup`` (Definition 1's initial supports),
   and its exclusive prefix sum is ``tptr``;
2. **scatter** — place each chunk's incidence entries directly into
   their final ``tinc`` slots through per-edge fill cursors
   (``fill = tptr[:-1]``).  Grouping a chunk's entries by edge uses
   numpy's *stable sort* — timsort for these int64 keys (numpy
   radix-sorts only integers of 16 bits or less), O(c log c) for a
   chunk of c entries — so no triangle-scale sort or concatenation
   ever exists; the entries are interleaved by triangle first, which
   makes every edge's window come out ascending in triangle id
   regardless of the chunk size (the layout is chunk-invariant, bit
   for bit).

The destination is pluggable, and it decides how the triangle stream
feeds the two passes.  ``storage="ram"`` enumerates wedges **once**:
the edge-column chunks are kept (they are the index's own
``e1``/``e2``/``e3``, concatenated once at the end), and the count +
scatter passes then run over those stored columns chunk by chunk
(peak: the index plus one transient column copy and O(m + chunk)
scratch — never the legacy build's ~15·|△G| slots).
``storage="mmap"`` holds *nothing* triangle-length in RAM: the counting
pass consumes one enumeration, preallocates the five on-disk arrays of
the :class:`TriangleIndex` ``.npy`` layout through
``np.lib.format.open_memmap``, and a second enumeration scatters into
them — O(m + chunk) peak however large |△G| gets, which is what drops
the ``dist`` driver's build memory from O(|△G|) to O(m + chunk).
``storage="auto"`` picks between them up front using the DAG's total
wedge count — a free upper bound on |△G|.

On-disk format (``TriangleIndex.FIELDS``, written by the mmap storage
and by :meth:`TriangleIndex.write`, read by :meth:`TriangleIndex.open`):
one directory with five little-endian int64 ``.npy`` files —
``e1.npy``/``e2.npy``/``e3.npy`` (length |△G|), ``tptr.npy`` (length
m+1), ``tinc.npy`` (length 3·|△G|).  Readers mmap them read-only, so
rank/worker processes on one host share the page cache instead of each
holding a private copy.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Iterator, Optional, Tuple

from repro.errors import DecompositionError
from repro.graph.csr import CSRGraph

try:  # the index substrate is numpy-only (callers gate on this too)
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: wedge-buffer cap for the chunked enumerator (~16 MB/array); the
#: builder's peak scratch memory is a few multiples of this
_WEDGE_CHUNK = 2_000_000

#: ``storage="auto"`` spills to mmap once the index's 6·|△G| int64
#: slots (e1+e2+e3+tinc) *could* exceed this — judged by the DAG's
#: total wedge count, a free upper bound on |△G|
_AUTO_MMAP_INDEX_BYTES = 1 << 30

#: the selectable index destinations (``truss_decomposition``'s
#: ``index_storage`` / the CLI's ``--index-storage``)
INDEX_STORAGES = ("ram", "mmap")


class TriangleIndex:
    """The materialized triangle index, in RAM or mmapped from disk.

    Five int64 arrays: the per-triangle edge columns ``e1``/``e2``/
    ``e3`` and the edge->triangle incidence ``tptr``/``tinc``.  Built
    by :func:`build_triangle_index`; persisted as one ``.npy`` file per
    field (:meth:`write`, or streamed directly by the builder's mmap
    storage); reopened memory-mapped by :meth:`open` — the read side
    every :class:`repro.dist.rank.Rank` and mmap-mode pool worker uses,
    so processes share the page cache instead of private copies.
    """

    FIELDS = ("e1", "e2", "e3", "tptr", "tinc")

    def __init__(
        self, e1, e2, e3, tptr, tinc, storage: str = "ram",
        dirpath: Optional[Path] = None, owns_dirpath: bool = False,
    ) -> None:
        self.e1 = e1
        self.e2 = e2
        self.e3 = e3
        self.tptr = tptr
        self.tinc = tinc
        self.storage = storage
        self.dirpath = Path(dirpath) if dirpath is not None else None
        self.owns_dirpath = owns_dirpath

    def cleanup(self) -> None:
        """Delete the on-disk files when this index owns its directory.

        Only meaningful for an index the builder spilled into a
        directory it created itself (``storage="auto"`` resolving to
        mmap with no caller-supplied ``dirpath``); indexes written into
        a caller-owned directory are left untouched — the caller's
        tempdir (or deliberate persistence) governs their lifetime.
        Idempotent.
        """
        if self.owns_dirpath and self.dirpath is not None:
            import shutil

            shutil.rmtree(self.dirpath, ignore_errors=True)
            self.owns_dirpath = False

    @property
    def num_triangles(self) -> int:
        return len(self.e1)

    @property
    def num_edges(self) -> int:
        return len(self.tptr) - 1

    def initial_supports(self):
        """A fresh mutable support array: each edge's incidence count."""
        return _np.diff(_np.asarray(self.tptr, dtype=_np.int64))

    @staticmethod
    def write(dirpath, e1, e2, e3, tptr, tinc) -> None:
        """Persist the five arrays as ``.npy`` files under ``dirpath``."""
        dirpath = Path(dirpath)
        for name, arr in zip(TriangleIndex.FIELDS, (e1, e2, e3, tptr, tinc)):
            _np.save(
                dirpath / f"{name}.npy",
                _np.ascontiguousarray(arr, dtype=_np.int64),
            )

    @classmethod
    def open(cls, dirpath) -> "TriangleIndex":
        """Map the five arrays read-only from ``dirpath``."""
        dirpath = Path(dirpath)
        arrays = []
        for name in cls.FIELDS:
            path = dirpath / f"{name}.npy"
            try:
                arrays.append(_np.load(path, mmap_mode="r"))
            except (ValueError, OSError):
                # zero-length arrays on platforms that refuse empty maps
                arrays.append(_np.load(path))
        return cls(*arrays, storage="mmap", dirpath=dirpath)


# ---------------------------------------------------------------------------
# the chunked wedge enumerator, shared by both passes
# ---------------------------------------------------------------------------
class _WedgeDAG:
    """The rank-oriented wedge DAG of a CSR snapshot, built once.

    Vectorized compact-forward listing state: orient each edge from
    lower to higher ``(degree, id)`` rank, sort the oriented edges by
    key ``ra*n + rb``, and a triangle ``ra < rb < rc`` is closed
    exactly once, at its wedge ``(a->b, b->c)``, by locating key
    ``ra*n + rc`` among the sorted keys.  All state is O(m) (the one
    sort here is over *edges*, never triangles); the enumeration
    itself streams in bounded chunks and is re-runnable, which is what
    lets the index builder count on pass 1 and scatter on pass 2
    without ever materializing the full triangle list.
    """

    __slots__ = ("n", "total", "key", "e_of", "ra", "rb", "fptr", "wc", "cum")

    def __init__(self, csr: CSRGraph) -> None:
        n = csr.num_vertices
        self.n = n
        indptr = _np.frombuffer(csr.indptr, dtype=_np.int64)
        dst = _np.frombuffer(csr.indices, dtype=_np.int64)
        eids = _np.frombuffer(csr.eids, dtype=_np.int64)
        deg = _np.diff(indptr)
        src = _np.repeat(_np.arange(n, dtype=_np.int64), deg)
        order = _np.lexsort((_np.arange(n), deg))
        rank = _np.empty(n, dtype=_np.int64)
        rank[order] = _np.arange(n)
        ra_all, rb_all = rank[src], rank[dst]
        fwd = rb_all > ra_all
        key = ra_all[fwd] * n + rb_all[fwd]
        srt = _np.argsort(key)  # m oriented edges — edge-scale, not 3T
        self.key = key[srt]
        self.ra = self.key // n  # == sorted oriented sources, rank space
        self.rb = self.key - self.ra * n
        self.e_of = eids[fwd][srt]
        self.total = len(self.key)
        if self.total:
            outdeg = _np.bincount(self.ra, minlength=n)
            self.fptr = _np.concatenate(
                (_np.zeros(1, dtype=_np.int64), _np.cumsum(outdeg))
            )
            self.wc = outdeg[self.rb]  # wedges per edge: tips are out(b)
            self.cum = _np.concatenate(
                (_np.zeros(1, dtype=_np.int64), _np.cumsum(self.wc))
            )
        else:
            self.fptr = self.wc = self.cum = None

    def iter_triangle_chunks(
        self, chunk: Optional[int] = None
    ) -> Iterator[Tuple["_np.ndarray", "_np.ndarray", "_np.ndarray"]]:
        """Yield ``(e_ab, e_bc, e_ac)`` edge-id triples, chunk by chunk.

        Triangle order is deterministic and chunk-size independent:
        ascending oriented-edge key, then wedge offset — so triangle
        ids (positions in this stream) are stable across passes and
        chunk settings.  Each yielded array holds at most ``chunk``
        slots (plus the overshoot of a single oversized wedge run).
        """
        if not self.total:
            return
        chunk = chunk or _WEDGE_CHUNK
        key, ra, rb = self.key, self.ra, self.rb
        e_of, fptr, wc, cum = self.e_of, self.fptr, self.wc, self.cum
        n, total = self.n, self.total
        t0 = 0
        while t0 < total:
            t1 = int(_np.searchsorted(cum, cum[t0] + chunk, "right")) - 1
            if t1 <= t0:
                t1 = t0 + 1
            w = wc[t0:t1]
            n_wedges = int(cum[t1] - cum[t0])
            if n_wedges == 0:
                t0 = t1
                continue
            ab = _np.repeat(_np.arange(t0, t1, dtype=_np.int64), w)
            offs = _np.arange(n_wedges, dtype=_np.int64) - _np.repeat(
                cum[t0:t1] - cum[t0], w
            )
            bc = _np.repeat(fptr[rb[t0:t1]], w) + offs
            want = ra[ab] * n + rb[bc]
            at = _np.minimum(_np.searchsorted(key, want), total - 1)
            hit = key[at] == want
            if hit.any():
                yield e_of[ab[hit]], e_of[bc[hit]], e_of[at[hit]]
            t0 = t1


def count_edge_incidence(
    csr: CSRGraph, chunk: Optional[int] = None, dag: Optional[_WedgeDAG] = None
) -> Tuple["_np.ndarray", int]:
    """Pass 1: ``(sup, n_triangles)`` in O(m + chunk) peak memory.

    ``sup[e]`` is edge ``e``'s triangle count (the initial support);
    this is also the incidence run length, so ``cumsum`` of it is the
    index's ``tptr``.  Exposed standalone because support-only callers
    (:func:`repro.core.flat.initial_supports`) need exactly this pass
    and nothing else.
    """
    m = csr.num_edges
    sup = _np.zeros(m, dtype=_np.int64)
    n_tri = 0
    dag = dag if dag is not None else _WedgeDAG(csr)
    for e_ab, e_bc, e_ac in dag.iter_triangle_chunks(chunk):
        n_tri += len(e_ab)
        sup += _np.bincount(
            _np.concatenate((e_ab, e_bc, e_ac)), minlength=m
        )
    return sup, n_tri


# ---------------------------------------------------------------------------
# the on-disk destination (the ram route fills plain ndarrays inline)
# ---------------------------------------------------------------------------
class _MmapSlots:
    """Pass-2 destination: the on-disk ``TriangleIndex`` layout.

    Triangle-length arrays are created as writable ``.npy`` memmaps
    (``np.lib.format.open_memmap``) and filled in place — the pages
    stream through the page cache, never pinned in the process heap.
    ``tptr`` is O(m) and saved whole.
    """

    storage = "mmap"

    def __init__(self, dirpath) -> None:
        self.dirpath = Path(dirpath)

    def alloc(self, name: str, length: int):
        path = self.dirpath / f"{name}.npy"
        if length == 0:
            # mmap cannot map zero bytes; the read side falls back to a
            # plain load for these (see TriangleIndex.open)
            empty = _np.zeros(0, dtype=_np.int64)
            _np.save(path, empty)
            return empty
        return _np.lib.format.open_memmap(
            path, mode="w+", dtype=_np.int64, shape=(length,)
        )

    def put_tptr(self, tptr):
        _np.save(self.dirpath / "tptr.npy", tptr)
        return tptr


# ---------------------------------------------------------------------------
# the builder
# ---------------------------------------------------------------------------
def _scatter_chunk(tinc, fill, e_ab, e_bc, e_ac, t0: int) -> None:
    """Counting-scatter one chunk's incidence entries into ``tinc``.

    The chunk's entries are interleaved by triangle, then grouped by
    edge with a stable sort (timsort on int64 keys, O(c log c)):
    within every edge group, slot order == triangle order, so the
    windows end up ascending in triangle id at any chunk size.  Each
    entry lands at its edge's fill cursor plus its within-chunk
    occurrence rank.
    """
    c = len(e_ab)
    inc = _np.empty(3 * c, dtype=_np.int64)
    inc[0::3] = e_ab
    inc[1::3] = e_bc
    inc[2::3] = e_ac
    order = _np.argsort(inc, kind="stable")
    inc_s = inc[order]
    is_start = _np.empty(3 * c, dtype=bool)
    is_start[0] = True
    _np.not_equal(inc_s[1:], inc_s[:-1], out=is_start[1:])
    start_pos = _np.flatnonzero(is_start)
    # within-group offsets: position minus the group's first position
    offs = (
        _np.arange(3 * c, dtype=_np.int64)
        - start_pos[_np.cumsum(is_start) - 1]
    )
    tinc[fill[inc_s] + offs] = t0 + order // 3
    fill[inc_s[start_pos]] += _np.diff(_np.append(start_pos, 3 * c))


def _tptr_from_counts(sup) -> "_np.ndarray":
    """The incidence pointers: an exclusive prefix sum of the counts."""
    tptr = _np.zeros(len(sup) + 1, dtype=_np.int64)
    _np.cumsum(sup, out=tptr[1:])
    return tptr


def _build_ram(dag: _WedgeDAG, m: int, chunk: Optional[int]) -> TriangleIndex:
    """The in-RAM route: one wedge enumeration, columns stored in place.

    The edge columns are the index's own ``e1``/``e2``/``e3``, so
    keeping the enumerated chunks costs little beyond the result (one
    transient column copy during the final concatenation); the count
    and scatter passes then re-chunk those stored columns (cheap
    slicing — no second wedge enumeration, which is what keeps the
    serial flat engine's build as fast as the legacy argsort one).
    """
    parts = []
    cuts = [0]
    for triple in dag.iter_triangle_chunks(chunk):
        parts.append(triple)
        cuts.append(cuts[-1] + len(triple[0]))
    empty = _np.zeros(0, dtype=_np.int64)
    if parts:
        e1, e2, e3 = (_np.concatenate(cols) for cols in zip(*parts))
    else:
        e1 = e2 = e3 = empty
    del parts
    sup = _np.zeros(m, dtype=_np.int64)
    for col in (e1, e2, e3):
        sup += _np.bincount(col, minlength=m)
    tptr = _tptr_from_counts(sup)
    tinc = _np.empty(3 * len(e1), dtype=_np.int64)
    fill = tptr[:-1].copy()  # per-edge incidence cursors
    for t0, t1 in zip(cuts, cuts[1:]):
        _scatter_chunk(
            tinc, fill, e1[t0:t1], e2[t0:t1], e3[t0:t1], t0
        )
    return TriangleIndex(e1, e2, e3, tptr, tinc, storage="ram")


def _build_mmap(
    dag: _WedgeDAG, csr: CSRGraph, m: int, chunk: Optional[int], dirpath
) -> TriangleIndex:
    """The bounded-memory route: count, preallocate on disk, scatter.

    Two wedge enumerations bracket the ``open_memmap`` preallocation,
    so no triangle-length array ever enters the heap — peak memory is
    O(m + chunk) however large |△G| gets.
    """
    sup, n_tri = count_edge_incidence(csr, chunk, dag=dag)
    slots = _MmapSlots(dirpath)
    e1 = slots.alloc("e1", n_tri)
    e2 = slots.alloc("e2", n_tri)
    e3 = slots.alloc("e3", n_tri)
    tinc = slots.alloc("tinc", 3 * n_tri)
    tptr = slots.put_tptr(_tptr_from_counts(sup))
    fill = tptr[:-1].copy()  # per-edge incidence cursors
    t0 = 0
    for e_ab, e_bc, e_ac in dag.iter_triangle_chunks(chunk):
        c = len(e_ab)
        e1[t0:t0 + c] = e_ab
        e2[t0:t0 + c] = e_bc
        e3[t0:t0 + c] = e_ac
        _scatter_chunk(tinc, fill, e_ab, e_bc, e_ac, t0)
        t0 += c
    return TriangleIndex(
        e1, e2, e3, tptr, tinc, storage="mmap", dirpath=slots.dirpath
    )


def build_triangle_index(
    csr: CSRGraph,
    storage: str = "ram",
    dirpath=None,
    chunk: Optional[int] = None,
) -> TriangleIndex:
    """Build the edge->triangle incidence index by two-pass counting.

    Args:
        csr: the CSR snapshot (canonical edge ids index everything).
        storage: ``"ram"`` (ndarrays, one wedge enumeration),
            ``"mmap"`` (count + scatter enumerations streaming into
            the on-disk ``.npy`` layout under ``dirpath``, O(m +
            chunk) peak), or ``"auto"`` (mmap once the DAG's wedge
            count — an upper bound on |△G| — says the index could
            exceed :data:`_AUTO_MMAP_INDEX_BYTES`, ram below).
        dirpath: destination directory for ``"mmap"``/``"auto"``
            (required for ``"mmap"``; with ``"auto"`` a temporary
            directory is created on demand — the returned index then
            owns it, and :meth:`TriangleIndex.cleanup` deletes it).
        chunk: wedge-buffer cap override (default
            :data:`_WEDGE_CHUNK`); tests shrink it to force many
            chunks, the layout is identical at any value.

    Returns a :class:`TriangleIndex` whose ``storage`` attribute names
    the destination actually used.  Both routes emit bit-identical
    bundles: ``tinc`` windows are ascending in triangle id, and
    ``e1``/``e2``/``e3`` follow the deterministic enumeration order of
    :meth:`_WedgeDAG.iter_triangle_chunks`.
    """
    if _np is None:
        raise DecompositionError(
            "the triangle-index builder needs numpy; the stdlib engines "
            "peel without a materialized index"
        )
    if storage not in INDEX_STORAGES + ("auto",):
        raise DecompositionError(
            f"unknown index storage {storage!r}; expected one of "
            f"{INDEX_STORAGES + ('auto',)}"
        )
    if storage == "mmap" and dirpath is None:
        raise DecompositionError("index storage 'mmap' needs a dirpath")
    m = csr.num_edges
    dag = _WedgeDAG(csr)
    owns_dirpath = False
    if storage == "auto":
        wedges = int(dag.cum[-1]) if dag.total else 0
        storage = (
            "mmap" if 6 * wedges * 8 > _AUTO_MMAP_INDEX_BYTES else "ram"
        )
        if storage == "mmap" and dirpath is None:
            dirpath = tempfile.mkdtemp(prefix="repro-triidx-")
            owns_dirpath = True
    if storage == "ram":
        return _build_ram(dag, m, chunk)
    tri = _build_mmap(dag, csr, m, chunk, dirpath)
    tri.owns_dirpath = owns_dirpath
    return tri
