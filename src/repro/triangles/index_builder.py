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
out(a) with out(b), Σ C(d⁺(v), 2) wedges in all.  Two routes turn that
stream into the index:

* ``storage="ram"`` enumerates wedges **once** and keeps the chunks
  (they are the index's own ``e1``/``e2``/``e3``, concatenated once).
  ``tinc`` is then laid out by one in-place sort: the buffer is filled
  with the unique key ``e * |△G| + t`` of every incidence entry
  (edge ``e``, triangle ``t``), sorted, and reduced modulo |△G|.
  Unique keys make any sort algorithm give the same layout — grouped
  by edge, ascending triangle id in each window.  Peak: the index plus
  one |△G|-long id column and one transient column copy.
* ``storage="mmap"`` holds *nothing* triangle-length in RAM, which is
  what keeps the ``dist`` driver's build at O(m + chunk):

  1. **count** — one enumeration keeps only a per-edge incidence count:
     this is ``sup`` (Definition 1's initial supports), and its
     exclusive prefix sum is ``tptr``;
  2. **scatter** — the five on-disk arrays of the
     :class:`TriangleIndex` ``.npy`` layout are preallocated through
     ``np.lib.format.open_memmap``, and a second enumeration places
     each chunk's incidence entries at per-edge fill cursors
     (``fill = tptr[:-1]``).  A chunk groups its entries by edge with
     one sort of the unique chunk-local keys ``e * c + local_t``, so
     every window comes out ascending in triangle id at any chunk size.

``storage="auto"`` picks between them up front using the DAG's total
wedge count — a free upper bound on |△G|; it is the route of the flat
and parallel engines.  ``dist`` asks for ``"mmap"``: its ranks map the
files.  Both routes, at any chunk size, emit the same index bit for
bit.

On-disk format (``TriangleIndex.FIELDS``, written by the mmap storage,
read by :meth:`TriangleIndex.open`):
one directory with five little-endian int64 ``.npy`` files —
``e1.npy``/``e2.npy``/``e3.npy`` (length |△G|), ``tptr.npy`` (length
m+1), ``tinc.npy`` (length 3·|△G|).  Readers mmap them read-only, so
rank/worker processes on one host share the page cache instead of each
holding a private copy.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Optional, Tuple

from repro.errors import DecompositionError
from repro.graph.csr import CSRGraph, load_npy

try:  # numpy-only; the CSR engines resolve their kernel first, which
    # raises the one missing-numpy error before any build
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


class TriangleIndex:
    """The materialized triangle index, in RAM or mmapped from disk.

    Five int64 arrays: the per-triangle edge columns ``e1``/``e2``/
    ``e3`` and the edge->triangle incidence ``tptr``/``tinc``.  Built
    by :func:`build_triangle_index`; the mmap storage streams one
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
    is Σ C(d⁺(v), 2) wedges (``cum[-1]``), each triangle closing one
    of them.  All state is O(m) (the one sort here is over *edges*,
    never triangles); the enumeration itself streams in bounded chunks
    and is re-runnable, which is what lets the mmap route count on
    pass 1 and scatter on pass 2 without ever materializing the full
    triangle list.
    """

    __slots__ = ("n", "total", "key", "e_of", "rb", "wc", "cum")

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
        self.e_of = eids[fwd][srt]
        self.total = len(self.key)
        if self.total:
            # wedges per slot: the slots after it in its source's run
            run_end = _np.cumsum(_np.bincount(ra, minlength=n))
            self.wc = run_end[ra] - _np.arange(1, self.total + 1)
            self.cum = _np.concatenate(
                (_np.zeros(1, dtype=_np.int64), _np.cumsum(self.wc))
            )
        else:
            self.wc = self.cum = None

    def iter_triangle_chunks(
        self, chunk: Optional[int] = None
    ) -> Iterator[Tuple["_np.ndarray", "_np.ndarray", "_np.ndarray"]]:
        """Yield ``(e_ab, e_bc, e_ac)`` edge-id triples, chunk by chunk.

        Triangle order is deterministic and chunk-size independent:
        ascending ``(rank a, rank b, rank c)`` — so triangle ids
        (positions in this stream) are stable across passes and chunk
        settings.  Each yielded array holds at most ``chunk`` slots
        (plus the overshoot of a single oversized wedge run).
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
            first = _np.arange(t0, t1, dtype=_np.int64)
            ab = _np.repeat(first, w)
            # the tips: slot ab + 1 + the wedge's offset in its run
            ac = _np.arange(n_wedges, dtype=_np.int64) + _np.repeat(
                first + 1 - (cum[t0:t1] - cum[t0]), w
            )
            want = _np.repeat(rb[t0:t1] * n, w) + rb[ac]
            at = _np.minimum(_np.searchsorted(key, want), total - 1)
            hit = key[at] == want
            if hit.any():
                yield e_of[ab[hit]], e_of[at[hit]], e_of[ac[hit]]
            t0 = t1


def count_edge_incidence(
    csr: CSRGraph, chunk: Optional[int] = None, dag: Optional[_WedgeDAG] = None
) -> Tuple["_np.ndarray", int]:
    """Pass 1: ``(sup, n_triangles)`` in O(m + chunk) peak memory.

    ``sup[e]`` is edge ``e``'s triangle count (the initial support);
    this is also the incidence run length, so ``cumsum`` of it is the
    index's ``tptr``.  The mmap route's first pass; support-only
    callers need exactly this and nothing else.
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
def _incidence_keys(m: int, e1, e2, e3, out) -> "_np.ndarray":
    """Write the key ``e * T + t`` of every incidence entry into ``out``.

    Entry (edge ``e``, triangle ``t``) for each of the ``T = len(e1)``
    triangles and its three edge columns, column by column into the
    ``3·T`` slots of ``out``.  The keys are unique, so sorting them
    groups the entries by edge with ascending triangle id inside each
    group, whatever the sort algorithm.  Edge ids are below ``m``, so
    the keys are below ``m * T``; past int64 this raises.
    """
    n = len(e1)
    if m * n > _np.iinfo(_np.int64).max:
        raise DecompositionError(
            f"incidence keys overflow int64 ({m:,} edges x {n:,} "
            'triangles); build the index with storage="mmap", '
            "which keys each chunk on its own"
        )
    t = _np.arange(n, dtype=_np.int64)
    for i, col in enumerate((e1, e2, e3)):
        part = out[i * n:(i + 1) * n]
        _np.multiply(col, n, out=part)
        part += t
    return out


def _scatter_chunk(tinc, fill, e_ab, e_bc, e_ac, t0: int) -> None:
    """Scatter one chunk's incidence entries into ``tinc``.

    One sort of the chunk's unique keys ``edge * c + local_t``
    (:func:`_incidence_keys`, c = the chunk's triangle count) groups
    the entries by edge, ascending in triangle id inside each group.
    Each entry lands at its edge's fill cursor plus its rank within
    the group, so the windows end up ascending in triangle id at any
    chunk size.
    """
    c = len(e_ab)
    key = _incidence_keys(
        len(fill), e_ab, e_bc, e_ac, _np.empty(3 * c, dtype=_np.int64)
    )
    key.sort()
    inc_s = key // c
    is_start = _np.empty(3 * c, dtype=bool)
    is_start[0] = True
    _np.not_equal(inc_s[1:], inc_s[:-1], out=is_start[1:])
    start_pos = _np.flatnonzero(is_start)
    # within-group offsets: position minus the group's first position
    offs = (
        _np.arange(3 * c, dtype=_np.int64)
        - start_pos[_np.cumsum(is_start) - 1]
    )
    tinc[fill[inc_s] + offs] = key - inc_s * c + t0
    fill[inc_s[start_pos]] += _np.diff(_np.append(start_pos, 3 * c))


def _tptr_from_counts(sup) -> "_np.ndarray":
    """The incidence pointers: an exclusive prefix sum of the counts."""
    tptr = _np.zeros(len(sup) + 1, dtype=_np.int64)
    _np.cumsum(sup, out=tptr[1:])
    return tptr


def _build_ram(dag: _WedgeDAG, m: int, chunk: Optional[int]) -> TriangleIndex:
    """The in-RAM route: one wedge enumeration, one in-place key sort.

    The edge columns are the index's own ``e1``/``e2``/``e3``, so
    keeping the enumerated chunks costs little beyond the result (one
    transient column copy during the concatenation).  ``tinc`` is its
    own sort buffer: it is filled with the unique incidence keys
    ``e * |△G| + t``, sorted in place, and reduced modulo |△G| to the
    triangle ids — the only other scratch is one |△G|-long id column.
    """
    parts = list(dag.iter_triangle_chunks(chunk))
    if parts:
        e1, e2, e3 = (_np.concatenate(cols) for cols in zip(*parts))
    else:
        e1 = e2 = e3 = _np.zeros(0, dtype=_np.int64)
    del parts
    sup = _np.zeros(m, dtype=_np.int64)
    for col in (e1, e2, e3):
        sup += _np.bincount(col, minlength=m)
    n_tri = len(e1)
    tinc = _incidence_keys(
        m, e1, e2, e3, _np.empty(3 * n_tri, dtype=_np.int64)
    )
    tinc.sort()
    if n_tri:
        tinc %= n_tri
    return TriangleIndex(
        e1, e2, e3, _tptr_from_counts(sup), tinc, storage="ram"
    )


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
    """Build the edge->triangle incidence index.

    Args:
        csr: the CSR snapshot (canonical edge ids index everything).
        storage: ``"ram"`` (ndarrays: one wedge enumeration, then one
            in-place sort of the incidence keys that become ``tinc``),
            ``"mmap"`` (count + scatter enumerations streaming into
            the on-disk ``.npy`` layout under ``dirpath``, each chunk
            sorted on its own keys, O(m + chunk) peak; it is also the
            route for indexes whose ram keys would overflow int64),
            or ``"auto"`` (mmap once the DAG's wedge
            count — an upper bound on |△G| — says the index could
            exceed :data:`_AUTO_MMAP_INDEX_BYTES`, ram below).
        dirpath: destination directory, required for ``"mmap"`` and
            ``"auto"``; the caller owns it and its lifetime.
        chunk: wedge-buffer cap override (default
            :data:`_WEDGE_CHUNK`); tests shrink it to force many
            chunks, the layout is identical at any value.

    Returns a :class:`TriangleIndex` whose ``storage`` attribute names
    the destination actually used.  Both routes emit bit-identical
    bundles: ``tinc`` windows are ascending in triangle id, and
    triangle ``t`` is the ``t``-th in ascending ``(rank a, rank b,
    rank c)`` order under the ``(degree, id)`` ranks, with columns
    ``e1, e2, e3 = a-b, b-c, a-c`` (:meth:`_WedgeDAG.iter_triangle_chunks`).
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
    if storage == "auto":
        wedges = int(dag.cum[-1]) if dag.total else 0
        storage = (
            "mmap" if 6 * wedges * 8 > _AUTO_MMAP_INDEX_BYTES else "ram"
        )
    if storage == "ram":
        return _build_ram(dag, m, chunk)
    return _build_mmap(dag, csr, m, chunk, dirpath)
