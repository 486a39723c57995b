"""Streaming triangle-index construction (numpy substrate).

Every CSR peel engine (``flat`` serial waves, ``parallel`` shared
memory, ``dist`` rank processes) runs over the same materialized
edge->triangle incidence index: the per-triangle edge columns
``e1``/``e2``/``e3`` and the CSR-style incidence ``tptr``/``tinc``
(``tinc[tptr[e]:tptr[e+1]]`` are the ids of the triangles containing
edge ``e``, ascending).  Building that index used to be the slow,
memory-hungry prefix shared by all of them: list every triangle into
RAM, concatenate all three columns (3·|△G| slots), and derive ``tinc``
with one global stable ``np.argsort`` — timsort on int64 keys and ~5
simultaneous int64 arrays of triangle length.

The triangles come from a chunked, re-runnable wedge enumerator
(:class:`_WedgeDAG`): each triangle ``a < b < c`` (degree-rank order)
is closed once, from the wedge of out(a) at ``b`` and ``c``, by
probing the closing edge ``b->c`` — the paper's intersection of
out(a) with out(b), Σ C(d⁺(v), 2) wedges in all.  Both routes turn
that stream into the index the same way:

1. **count** — a per-edge incidence count over the chunks: this is
   ``sup`` (Definition 1's initial supports), and its exclusive prefix
   sum is ``tptr``;
2. **scatter** — ``e1``/``e2``/``e3``/``tinc`` are preallocated, and
   each chunk's incidence entries are placed at per-edge fill cursors
   (``fill = tptr[:-1]``).  A chunk groups its entries by edge with one
   sort of its unique chunk-local keys ``e << s | local_t``
   (``2**s`` > the chunk's triangle count), so every window comes out
   ascending in triangle id at any chunk size.

They differ only in where the chunks and the arrays live:

* ``storage="ram"`` enumerates wedges **once**, keeps the chunks for
  the scatter, and releases each one as soon as it is laid out into
  plain ndarrays.  Peak: the index plus the kept chunks' columns,
  which shrink as the index fills.
* ``storage="mmap"`` holds *nothing* triangle-length in RAM, which is
  what keeps the ``dist`` driver's build at O(m + chunk): it counts on
  one enumeration and scatters from a second into the five
  ``.npy`` files of the :class:`TriangleIndex` layout, preallocated
  through ``np.lib.format.open_memmap``.

``storage="auto"`` picks between them up front using the DAG's total
wedge count — a free upper bound on |△G|; it is the route of the flat
and parallel engines.  ``dist`` asks for ``"mmap"``: its ranks map the
files.  Both routes, at any chunk size, emit the same index value for
value.

Width: ``e1``/``e2``/``e3``/``tinc`` hold edge ids (below m) and
triangle ids (below the wedge count), so the builder stores them as
int32 when m and the wedge count are both below 2**31, and as int64
otherwise; ``tptr`` is always int64.  The DAG picks the width once,
for both routes.

On-disk format (``TriangleIndex.FIELDS``, written by the mmap storage,
read by :meth:`TriangleIndex.open`):
one directory with five little-endian ``.npy`` files —
``e1.npy``/``e2.npy``/``e3.npy`` (length |△G|), ``tptr.npy`` (int64,
length m+1), ``tinc.npy`` (length 3·|△G|); the four triangle-length
files are int32 or int64 by the rule above, and each ``.npy`` header
names its dtype.  Readers mmap them read-only, so rank/worker
processes on one host share the page cache instead of each holding a
private copy.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Optional, Tuple

from repro.errors import DecompositionError
from repro.graph.csr import CSRGraph, load_npy

try:  # numpy-only; the CSR engines call get_kernel first, which
    # raises the one missing-numpy error before any build
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: wedge-buffer cap for the chunked enumerator (~1 MB per int64
#: working array); the builder's peak scratch memory is a few
#: multiples of this.  Measured on the 293,676-edge skitter@3 graph
#: (2,251,013 wedges): the cold build took the same time from 100K to
#: 250K, while its high-water mark rose with the chunk (103, 105, 112
#: and 124 MB at 100K, 125K, 175K and 250K; 135 MB at 500K)
_WEDGE_CHUNK = 125_000

#: the index columns are int32 when m and the DAG's wedge count (an
#: upper bound on every triangle id) are both below this, else int64
_INT32_INDEX_LIMIT = 1 << 31

#: ``storage="auto"`` spills to mmap once the index's 6·|△G| slots
#: (e1+e2+e3+tinc, at the chosen width) *could* exceed this — judged
#: by the DAG's total wedge count, a free upper bound on |△G|
_AUTO_MMAP_INDEX_BYTES = 1 << 30


class TriangleIndex:
    """The materialized triangle index, in RAM or mmapped from disk.

    Five arrays: the per-triangle edge columns ``e1``/``e2``/``e3``
    and the edge->triangle incidence ``tptr``/``tinc``.  ``tptr`` is
    int64; the other four share one width, int32 or int64
    (:attr:`dtype`, chosen by the builder from m and the wedge count).
    Built by :func:`build_triangle_index`; the mmap storage streams one
    ``.npy`` file per field, reopened memory-mapped by :meth:`open` —
    the read side every :class:`repro.dist.rank.Rank` and mmap-mode
    pool worker uses, so processes share the page cache instead of
    private copies.
    """

    FIELDS = ("e1", "e2", "e3", "tptr", "tinc")

    def __init__(
        self, e1, e2, e3, tptr, tinc, storage: str = "ram",
        dirpath: Optional[Path] = None,
    ) -> None:
        self.e1 = e1
        self.e2 = e2
        self.e3 = e3
        self.tptr = tptr
        self.tinc = tinc
        self.storage = storage
        self.dirpath = Path(dirpath) if dirpath is not None else None

    @property
    def num_triangles(self) -> int:
        return len(self.e1)

    @property
    def num_edges(self) -> int:
        return len(self.tptr) - 1

    @property
    def dtype(self):
        """The width of ``e1``/``e2``/``e3``/``tinc``."""
        return self.tinc.dtype

    def initial_supports(self):
        """A fresh mutable support array: each edge's incidence count."""
        return _np.diff(_np.asarray(self.tptr, dtype=_np.int64))

    @classmethod
    def open(cls, dirpath) -> "TriangleIndex":
        """Map the five arrays read-only from ``dirpath``."""
        dirpath = Path(dirpath)
        arrays = []
        for name in cls.FIELDS:
            path = dirpath / f"{name}.npy"
            try:
                arrays.append(load_npy(path, mmap_mode="r"))
            except (ValueError, OSError):
                # zero-length arrays on platforms that refuse empty maps
                arrays.append(load_npy(path))
        return cls(*arrays, storage="mmap", dirpath=dirpath)


# ---------------------------------------------------------------------------
# the chunked wedge enumerator, shared by both passes
# ---------------------------------------------------------------------------
class _WedgeDAG:
    """The rank-oriented wedge DAG of a CSR snapshot, built once.

    Vectorized compact-forward listing state: orient each edge from
    lower to higher ``(degree, id)`` rank and sort the oriented edges
    by key ``ra*n + rb``, so out(a) is one run of slots ascending in
    tip rank.  Slot ``p`` = a->b pairs with the later slots of its own
    run, the tips ``c > b`` of out(a); a triangle ``ra < rb < rc`` is
    closed exactly once, at its wedge ``(a->b, a->c)``, by locating
    the closing edge's key ``rb*n + rc`` among the sorted keys.  That
    is Σ C(d⁺(v), 2) wedges (:attr:`wedges`), each triangle closing one
    of them.  All state is O(m) (the one sort here is over *edges*,
    never triangles); the enumeration itself streams in bounded chunks
    and is re-runnable, which is what lets the mmap route count on
    pass 1 and scatter on pass 2 without ever materializing the full
    triangle list.  :attr:`dtype` is the index width, and the
    enumerated edge ids come out in it.
    """

    __slots__ = ("n", "total", "key", "e_of", "rb", "wc", "cum",
                 "wedges", "dtype")

    def __init__(self, csr: CSRGraph) -> None:
        n = csr.num_vertices
        self.n = n
        dst, eids = csr.indices, csr.eids
        deg = _np.diff(csr.indptr)
        src = _np.repeat(_np.arange(n, dtype=_np.int64), deg)
        order = _np.lexsort((_np.arange(n), deg))
        rank = _np.empty(n, dtype=_np.int64)
        rank[order] = _np.arange(n)
        ra_all, rb_all = rank[src], rank[dst]
        fwd = rb_all > ra_all
        key = ra_all[fwd] * n + rb_all[fwd]
        srt = _np.argsort(key)  # m oriented edges — edge-scale, not 3T
        self.key = key[srt]
        ra = self.key // n  # == sorted oriented sources, rank space
        self.rb = self.key - ra * n
        self.total = len(self.key)
        if self.total:
            # wedges per slot: the slots after it in its source's run
            run_end = _np.cumsum(_np.bincount(ra, minlength=n))
            self.wc = run_end[ra] - _np.arange(1, self.total + 1)
            self.cum = _np.concatenate(
                (_np.zeros(1, dtype=_np.int64), _np.cumsum(self.wc))
            )
            self.wedges = int(self.cum[-1])
        else:
            self.wc = self.cum = None
            self.wedges = 0
        limit = _INT32_INDEX_LIMIT
        self.dtype = _np.dtype(
            _np.int32
            if self.wedges < limit and csr.num_edges < limit
            else _np.int64
        )
        self.e_of = eids[fwd][srt].astype(self.dtype)

    def iter_triangle_chunks(
        self, chunk: Optional[int] = None
    ) -> Iterator[Tuple["_np.ndarray", "_np.ndarray", "_np.ndarray"]]:
        """Yield ``(e_ab, e_bc, e_ac)`` edge-id triples, chunk by chunk.

        Triangle order is deterministic and chunk-size independent:
        ascending ``(rank a, rank b, rank c)`` — so triangle ids
        (positions in this stream) are stable across passes and chunk
        settings.  Each yielded array holds at most ``chunk`` slots
        (plus the overshoot of a single oversized wedge run), in
        :attr:`dtype`.
        """
        if not self.total:
            return
        chunk = chunk or _WEDGE_CHUNK
        key, rb, e_of = self.key, self.rb, self.e_of
        wc, cum, n, total = self.wc, self.cum, self.n, self.total
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
            # the tips: the wedge's own slot + 1 + its offset in the run
            ac = _np.arange(n_wedges, dtype=_np.int64) + _np.repeat(
                _np.arange(t0 + 1, t1 + 1, dtype=_np.int64)
                - (cum[t0:t1] - cum[t0]),
                w,
            )
            want = _np.repeat(rb[t0:t1] * n, w) + rb[ac]
            at = _np.minimum(_np.searchsorted(key, want), total - 1)
            hit = key[at] == want
            if hit.any():
                yield (
                    _np.repeat(e_of[t0:t1], w)[hit], e_of[at[hit]],
                    e_of[ac[hit]],
                )
            t0 = t1


def _count_incidence(chunks: Iterable, m: int) -> Tuple["_np.ndarray", int]:
    """``(sup, n_triangles)`` over an iterable of triangle chunks."""
    sup = _np.zeros(m, dtype=_np.int64)
    n_tri = 0
    for cols in chunks:
        n_tri += len(cols[0])
        sup += _np.bincount(_np.concatenate(cols), minlength=m)
    return sup, n_tri


# ---------------------------------------------------------------------------
# the two destinations
# ---------------------------------------------------------------------------
class _RamSlots:
    """Destination of the in-RAM route: plain ndarrays."""

    storage = "ram"
    dirpath = None

    def alloc(self, name: str, length: int, dtype):
        return _np.empty(length, dtype=dtype)

    def put_tptr(self, tptr):
        return tptr


class _MmapSlots:
    """Destination of the mmap route: the on-disk ``TriangleIndex`` layout.

    Triangle-length arrays are created as writable ``.npy`` memmaps
    (``np.lib.format.open_memmap``) and filled in place — the pages
    stream through the page cache, never pinned in the process heap.
    ``tptr`` is O(m) and saved whole.
    """

    storage = "mmap"

    def __init__(self, dirpath) -> None:
        self.dirpath = Path(dirpath)

    def alloc(self, name: str, length: int, dtype):
        path = self.dirpath / f"{name}.npy"
        if length == 0:
            # mmap cannot map zero bytes; the read side falls back to a
            # plain load for these (see TriangleIndex.open)
            empty = _np.zeros(0, dtype=dtype)
            _np.save(path, empty)
            return empty
        return _np.lib.format.open_memmap(
            path, mode="w+", dtype=dtype, shape=(length,)
        )

    def put_tptr(self, tptr):
        _np.save(self.dirpath / "tptr.npy", tptr)
        return tptr


# ---------------------------------------------------------------------------
# the builder
# ---------------------------------------------------------------------------
def _chunk_keys(m: int, e_ab, e_bc, e_ac) -> Tuple["_np.ndarray", int]:
    """``(key, s)``: the chunk-local key ``e << s | t`` of each entry.

    Entry (edge ``e``, chunk-local triangle ``t``) for each of the
    ``c = len(e_ab)`` triangles and its three edge columns, column by
    column into ``3·c`` int64 slots; ``s`` is the bit length of ``c``,
    so ``t < 2**s``.  The keys are unique, so sorting them groups the
    entries by edge with ascending triangle id inside each group,
    whatever the sort algorithm.  Edge ids are below ``m``, so the keys
    are below ``m << s``; past int64 this raises.
    """
    c = len(e_ab)
    s = c.bit_length()
    if m << s > 1 << 63:
        raise DecompositionError(
            f"incidence keys overflow int64 ({m:,} edges x a chunk of "
            f"{c:,} triangles); build with a smaller chunk"
        )
    key = _np.empty(3 * c, dtype=_np.int64)
    t = _np.arange(c, dtype=_np.int64)
    for i, col in enumerate((e_ab, e_bc, e_ac)):
        part = key[i * c:(i + 1) * c]
        part[...] = col
        part <<= s
        part |= t
    return key, s


def _scatter_chunk(tinc, fill, e_ab, e_bc, e_ac, t0: int) -> None:
    """Scatter one chunk's incidence entries into ``tinc``.

    One sort of the chunk's keys (:func:`_chunk_keys`) groups the
    entries by edge, ascending in triangle id inside each group.  Each
    group lands at its edge's fill cursor, in key order, so the windows
    end up ascending in triangle id at any chunk size.
    """
    key, s = _chunk_keys(len(fill), e_ab, e_bc, e_ac)
    key.sort()
    n = len(key)
    edge = key >> s
    is_start = _np.empty(n, dtype=bool)
    is_start[0] = True
    _np.not_equal(edge[1:], edge[:-1], out=is_start[1:])
    start = _np.flatnonzero(is_start)
    first = edge[start]
    runs = _np.diff(start, append=n)
    dest = _np.repeat(fill[first] - start, runs)
    dest += _np.arange(n, dtype=_np.int64)
    # the triangle ids, narrowed to tinc's width before the scatter
    t = _np.empty(n, dtype=tinc.dtype)
    _np.bitwise_and(key, (1 << s) - 1, out=t, casting="unsafe")
    t += t0
    tinc[dest] = t
    fill[first] += runs


def _tptr_from_counts(sup) -> "_np.ndarray":
    """The incidence pointers: an exclusive prefix sum of the counts."""
    tptr = _np.zeros(len(sup) + 1, dtype=_np.int64)
    _np.cumsum(sup, out=tptr[1:])
    return tptr


def _lay_out(slots, sup, n_tri: int, dtype, chunks) -> TriangleIndex:
    """Allocate the index at ``slots`` and fill it from ``chunks``.

    ``chunks`` must yield the triangles counted in ``sup``, in stream
    order: each is copied into the edge columns at its triangle ids
    and scattered into ``tinc``.
    """
    e1 = slots.alloc("e1", n_tri, dtype)
    e2 = slots.alloc("e2", n_tri, dtype)
    e3 = slots.alloc("e3", n_tri, dtype)
    tinc = slots.alloc("tinc", 3 * n_tri, dtype)
    tptr = slots.put_tptr(_tptr_from_counts(sup))
    fill = tptr[:-1].copy()  # per-edge incidence cursors
    t0 = 0
    for e_ab, e_bc, e_ac in chunks:
        c = len(e_ab)
        e1[t0:t0 + c] = e_ab
        e2[t0:t0 + c] = e_bc
        e3[t0:t0 + c] = e_ac
        _scatter_chunk(tinc, fill, e_ab, e_bc, e_ac, t0)
        t0 += c
    return TriangleIndex(
        e1, e2, e3, tptr, tinc, storage=slots.storage,
        dirpath=slots.dirpath,
    )


def _drain(parts: list) -> Iterator:
    """Yield the kept chunks in order, dropping each one as it goes."""
    parts.reverse()
    while parts:
        yield parts.pop()


def build_triangle_index(
    csr: CSRGraph,
    storage: str = "ram",
    dirpath=None,
    chunk: Optional[int] = None,
) -> TriangleIndex:
    """Build the edge->triangle incidence index.

    Args:
        csr: the CSR snapshot (canonical edge ids index everything).
        storage: ``"ram"`` (ndarrays: one wedge enumeration whose
            chunks are kept for the count and the scatter),
            ``"mmap"`` (count + scatter enumerations streaming into
            the on-disk ``.npy`` layout under ``dirpath``, O(m + chunk)
            peak), or ``"auto"`` (mmap once the DAG's wedge count — an
            upper bound on |△G| — says the index could exceed
            :data:`_AUTO_MMAP_INDEX_BYTES`, ram below).
        dirpath: destination directory, required for ``"mmap"`` and
            ``"auto"``; the caller owns it and its lifetime.
        chunk: wedge-buffer cap override (default
            :data:`_WEDGE_CHUNK`); tests shrink it to force many
            chunks, the layout is identical at any value.

    Returns a :class:`TriangleIndex` whose ``storage`` attribute names
    the destination actually used.  Both routes emit the same arrays:
    ``tinc`` windows are ascending in triangle id, and triangle ``t``
    is the ``t``-th in ascending ``(rank a, rank b, rank c)`` order
    under the ``(degree, id)`` ranks, with columns ``e1, e2, e3 = a-b,
    b-c, a-c`` (:meth:`_WedgeDAG.iter_triangle_chunks`), int32 where m
    and the wedge count fit (see the module doc).
    """
    if storage not in ("ram", "mmap", "auto"):
        raise DecompositionError(
            f"unknown index storage {storage!r}; expected 'ram', "
            "'mmap' or 'auto'"
        )
    if storage != "ram" and dirpath is None:
        raise DecompositionError(
            f"index storage {storage!r} needs a dirpath"
        )
    m = csr.num_edges
    dag = _WedgeDAG(csr)
    dtype = dag.dtype
    if storage == "auto":
        nbytes = 6 * dag.wedges * dtype.itemsize
        storage = "mmap" if nbytes > _AUTO_MMAP_INDEX_BYTES else "ram"
    if storage == "ram":
        parts = list(dag.iter_triangle_chunks(chunk))
        del dag  # its O(m) arrays are done with before the layout
        sup, n_tri = _count_incidence(parts, m)
        return _lay_out(_RamSlots(), sup, n_tri, dtype, _drain(parts))
    sup, n_tri = _count_incidence(dag.iter_triangle_chunks(chunk), m)
    return _lay_out(
        _MmapSlots(dirpath), sup, n_tri, dtype,
        dag.iter_triangle_chunks(chunk),
    )
