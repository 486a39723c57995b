"""``TrussMaintainer`` — trussness kept fresh under edge updates.

Construction decomposes once with the flat engine's array core
(:func:`repro.core.flat.peel_flat_arrays`): one triangle-index build
over the CSR snapshot yields both the trussness and the initial
supports, in edge-id order.  Every subsequent :meth:`insert_edge` /
:meth:`delete_edge` / :meth:`apply_batch` repairs only the bounded
affected set computed by :mod:`repro.stream.affected` and re-peeled by
:mod:`repro.stream.repeel`.

The state is keyed by edge id.  The ids are the *base*
:class:`repro.graph.CSRGraph`'s, plus one appended id per insert (ids
are never reused: re-inserting a deleted edge appends a new one).
Trussness, support and liveness are ``array('q')``/``bytearray``
columns indexed by id — the peel's int64 arrays, copied once — and the
canonical endpoints of appended edges are two more ``array('q')``
columns.  An appended edge's trussness is -1 until its repair.

A repair touches a few vertices' neighbourhoods, so a vertex is
*opened* on the first read of its adjacency: its CSR row becomes a
``{neighbour: edge id}`` dict, which copies no values.  The triangles
through ``(a, b)`` are then ``adj[a].keys() & adj[b].keys()``, each
with its two edge ids ``adj[a][w]`` and ``adj[b][w]``, and every value
a repair reads is one column index away.

Compaction gathers the live ids into ``(u, v, phi, sup)`` int64 rows
sorted by ``(u, v)`` — the result columns of :meth:`as_decomposition`,
the rows a snapshot generation stores, and the input of a full re-peel,
which rebases onto a fresh CSR with no vertex open.  The live base ids
are in ``(u, v)`` order already, so only appended rows need a sort.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Mapping
from operator import index
from time import perf_counter as _perf
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.decomposition import DecompositionStats, TrussDecomposition
from repro.core.flat import (
    _as_csr,
    peel_flat_arrays,
    truss_decomposition_flat,
)
from repro.errors import DecompositionError
from repro.graph.csr import (
    INT64_MAX,
    INT64_MIN,
    CSRGraph,
    edge_rows,
    pair_order,
    pair_ranks,
)
from repro.kernels import get_kernel
from repro.obs import NULL_TRACER, warn_degraded
from repro.stream.affected import expand_region
from repro.stream.repeel import repeel_region
from repro.stream.updates import UPDATE_OPS, Update

try:
    import numpy as _np
except ImportError:  # get_kernel refuses every maintainer without it
    _np = None

Edge = Tuple[int, int]

# info tuple per applied mutation: (u, v, edge id, the destroyed
# triangles as (w, id of (u, w), id of (v, w))); an insert's ends are
# canonical and its triangles None
_Info = Tuple[int, int, int, Optional[List[Tuple[int, int, int]]]]


def _column(values) -> array:
    """An ``array('q')`` copy of an int64 column."""
    out = array("q")
    out.frombytes(
        memoryview(_np.ascontiguousarray(values, dtype=_np.int64)).cast("B")
    )
    return out


def _edge_keys(rows):
    """The ``(u, v)`` tuples of ``rows``, in row order, with one int
    object per vertex id (``tolist()`` makes one per endpoint: about
    5.6 MB more on an 88,679-edge graph)."""
    ids, inv = _np.unique(rows[:, :2], return_inverse=True)
    ends = list(map(ids.tolist().__getitem__, inv.reshape(-1).tolist()))
    return zip(ends[0::2], ends[1::2])


class _Adjacency(dict):
    """``vertex -> {neighbour: edge id}`` over a CSR base.

    A missing vertex is opened: its base row (empty for a vertex the
    base lacks) becomes its map in one ``dict(zip(...))``, which copies
    labels and ids, never values.  An update opens both its endpoints,
    so every edge of a vertex still closed is as the base has it.  An
    open vertex keeps its map when it empties, so a base row is never
    read again.
    """

    __slots__ = ("_labels", "_ptr", "_nbr", "_eids")

    def __init__(self, base: CSRGraph) -> None:
        super().__init__()
        # a list for bisect, which is about 1.5x slower over a memoryview
        self._labels = base.labels.tolist()
        # memoryviews slice and iterate at array speed and index to
        # Python ints, never numpy scalars
        self._ptr, self._nbr, self._eids = (
            memoryview(base.indptr), memoryview(base.indices),
            memoryview(base.eids),
        )

    def __missing__(self, v: int) -> Dict[int, int]:
        labels = self._labels
        i = bisect_left(labels, v)
        if i < len(labels) and labels[i] == v:
            lo, hi = self._ptr[i], self._ptr[i + 1]
            row = dict(zip(
                map(labels.__getitem__, self._nbr[lo:hi]), self._eids[lo:hi]
            ))
        else:
            row = {}
        self[v] = row
        return row


class _StateView(Mapping):
    """Live read-only ``{(u, v): value}`` of one column of a
    maintainer's state rows (2: trussness, 3: support).

    ``rows`` and ``col`` let :func:`repro.graph.csr.edge_rows` take the
    compacted rows themselves, so publishing a snapshot builds no dict.
    Everything else reads a plain dict built from the rows on first use
    after a mutation, so ``==`` and ``dict()`` never search the rows
    once per key.
    """

    __slots__ = ("_tm", "col")

    def __init__(self, tm: "TrussMaintainer", col: int) -> None:
        self._tm = tm
        self.col = col

    @property
    def rows(self):
        return self._tm.state_rows()

    def _dict(self) -> Dict[Edge, int]:
        return self._tm._column_dict(self.col)

    def __getitem__(self, key: Edge) -> int:
        return self._dict()[key]

    def __iter__(self):
        return iter(self._dict())

    def __len__(self) -> int:
        return self._tm.num_edges

    def items(self):
        return self._dict().items()

    def values(self):
        return self._dict().values()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._dict()!r})"


class TrussMaintainer:
    """Incrementally maintained truss decomposition of a mutable graph.

    >>> from repro.graph import complete_graph
    >>> tm = TrussMaintainer.from_graph(complete_graph(4))
    >>> tm.trussness[(0, 1)]
    4
    >>> tm.insert_edge(0, 4) and tm.insert_edge(1, 4)
    True
    >>> tm.trussness[(1, 4)]
    3
    """

    def __init__(
        self,
        base: CSRGraph,
        phi,
        sup,
        trace=None,
    ) -> None:
        """``phi``/``sup``: int64 arrays indexed by ``base``'s edge ids."""
        get_kernel()  # no numpy: fail before any update touches state
        self._tracer = trace if trace is not None else NULL_TRACER
        # sorted edge tuples, or the rows of a full re-peel
        self._last_affected = ()
        self.stats = DecompositionStats(method="stream")
        self._rebase(base, phi, sup)

    def _rebase(self, base: CSRGraph, phi, sup) -> None:
        """Make ``base`` the state, with no vertex open and no id
        appended."""
        self._base = base
        self._nbase = base.num_edges
        self._phi = _column(phi)  # edge id -> trussness
        self._sup = _column(sup)  # edge id -> support
        self._live = bytearray(b"\x01") * base.num_edges
        self._xu = array("q")  # appended id - nbase -> canonical ends
        self._xv = array("q")
        self._adj = _Adjacency(base)
        self._m = base.num_edges
        self._ends = None  # the base edges' label endpoints, at compaction
        self._mutated()

    def _mutated(self) -> None:
        """Drop what was derived from the state before a mutation."""
        self._rows = None
        self._dicts: Dict[int, Dict[Edge, int]] = {}

    @classmethod
    def from_graph(cls, g, trace=None) -> "TrussMaintainer":
        """Decompose ``g`` (a :class:`Graph` or CSR snapshot) once.

        One triangle-index build gives both the trussness and the
        initial supports (:func:`repro.core.flat.peel_flat_arrays`),
        copied once into the id-indexed columns.  ``trace`` takes an
        enabled :class:`repro.obs.Tracer`: the seeding decomposition and
        every subsequent repair emit their spans (and degradation
        warnings) into it.
        """
        csr = _as_csr(g)
        phi, sup, _k, _stats = peel_flat_arrays(csr, trace=trace)
        return cls(csr, phi, sup, trace=trace)

    @classmethod
    def from_state(
        cls,
        phi: Mapping[Edge, int],
        sup: Mapping[Edge, int],
        trace=None,
    ) -> "TrussMaintainer":
        """Rebuild a maintainer from snapshotted phi/support maps.

        The inverse of persisting :attr:`trussness`/:attr:`supports`
        (what :mod:`repro.serve.snapshot` generations hold): the base
        CSR is built from the canonical edge keys, so no decomposition
        runs.  Two views of one rows array — the ``RowMap`` pair
        ``load_generation`` returns, or another maintainer's
        :attr:`trussness`/:attr:`supports` — are used as they are;
        other maps are exported to rows first
        (:func:`repro.graph.csr.edge_rows`).  The rows must be canonical
        (``u < v``) and strictly ascending, which also means one key set
        for both maps.  The further-update behaviour is bit-identical to
        a maintainer that never round-tripped, pinned by the snapshot
        tests.
        """
        get_kernel()  # no numpy: fail before rows
        try:
            rows = edge_rows(phi, sup)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DecompositionError(
                f"phi and sup must map the same canonical int64 edges: "
                f"{exc}"
            ) from None
        u, v = rows[:, 0], rows[:, 1]
        bad = _np.flatnonzero(u >= v)
        if len(bad):
            i = int(bad[0])
            raise DecompositionError(
                "non-canonical edge key in snapshot state: "
                f"{(int(u[i]), int(v[i]))!r}"
            )
        up = (u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1]))
        bad = _np.flatnonzero(~up)
        if len(bad):
            i = int(bad[0]) + 1
            raise DecompositionError(
                "snapshot state rows are not in strictly ascending "
                f"(u, v) order at row {i}: {(int(u[i]), int(v[i]))!r}"
            )
        # sorted canonical pairs skip the build's dedupe, so edge id i
        # is row i
        base = CSRGraph._from_flat_pairs(rows[:, :2].reshape(-1))
        tm = cls(base, rows[:, 2], rows[:, 3], trace=trace)
        tm._rows = rows
        return tm

    # ------------------------------------------------------------- views
    @property
    def trussness(self) -> Mapping[Edge, int]:
        """Live read-only ``{(u, v): phi}`` over the canonical edges."""
        return _StateView(self, 2)

    @property
    def supports(self) -> Mapping[Edge, int]:
        """Live read-only ``{(u, v): support}`` (common-neighbor
        counts)."""
        return _StateView(self, 3)

    def _column_dict(self, col: int) -> Dict[Edge, int]:
        """``{(u, v): rows[i, col]}`` of the compacted rows, built on
        first use after a mutation; the two columns' dicts share their
        key tuples."""
        d = self._dicts.get(col)
        if d is None:
            rows = self.state_rows()
            keys = next(iter(self._dicts.values()), None)  # in row order
            if keys is None:
                keys = _edge_keys(rows)
            d = self._dicts[col] = dict(zip(keys, rows[:, col].tolist()))
        return d

    @property
    def last_affected(self) -> Tuple[Edge, ...]:
        """The region re-peeled by the most recent update, sorted."""
        affected = self._last_affected
        if not isinstance(affected, tuple):
            # a full re-peel keeps its rows; the tuples cost one per edge
            affected = self._last_affected = tuple(_edge_keys(affected))
        return affected

    @property
    def num_edges(self) -> int:
        return self._m

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def as_decomposition(self) -> TrussDecomposition:
        """An immutable snapshot of the current trussness: the
        compacted rows' ``(u, v, phi)`` columns."""
        rows = self.state_rows()
        return TrussDecomposition.from_columns(
            rows[:, 0], rows[:, 1], rows[:, 2], self.stats
        )

    # -------------------------------------------------------- compaction
    def state_rows(self):
        """The ``(m, 4)`` int64 rows ``(u, v, phi, sup)`` of the current
        state, sorted by ``(u, v)``: what a snapshot generation stores.

        Compacted on the first call after a mutation and kept until the
        next one; callers must not write to them.
        """
        if self._rows is None:
            self._rows = self._compact()
        return self._rows

    def _compact(self):
        """Fresh rows of the live ids.  An edge inserted by a batch
        still under repair has trussness -1.

        The live base rows are in ``(u, v)`` order already, so only the
        appended rows are sorted, then merged in by their rank among
        the base rows (:func:`repro.graph.csr.pair_ranks`).  Each column
        is gathered straight into the rows.  The column views are
        temporaries: a live ``np.frombuffer`` view would block the
        columns' appends."""
        if self._ends is None:
            labels = self._base.labels
            eu, ev = self._base.edge_endpoints()
            self._ends = (
                _np.take(labels, eu, out=eu), _np.take(labels, ev, out=ev)
            )
        bu, bv = self._ends
        nb = self._nbase
        ids = _np.flatnonzero(_np.frombuffer(self._live, dtype=_np.bool_))
        n = int(_np.searchsorted(ids, nb))  # the live base ids come first
        add = ids[n:]
        if len(add):
            xu = _np.frombuffer(self._xu, dtype=_np.int64)[add - nb]
            xv = _np.frombuffer(self._xv, dtype=_np.int64)[add - nb]
            order = pair_order(xu, xv)
            add, xu, xv = add[order], xu[order], xv[order]
            # the live base rows below each appended row: pair_ranks
            # counts the base rows below it, deleted ones too, and the
            # search keeps the live ones
            rank = _np.searchsorted(ids[:n], pair_ranks(bu, bv, xu, xv))
            ids = _np.insert(ids[:n], rank, add)
        rows = _np.empty((len(ids), 4), dtype=_np.int64)
        if n:
            # an appended id reads the last base row here ("clip"); its
            # row is rewritten below
            rows[:, 0] = bu.take(ids, mode="clip")
            rows[:, 1] = bv.take(ids, mode="clip")
        if len(add):
            at = rank + _np.arange(len(add))
            rows[at, 0] = xu
            rows[at, 1] = xv
        rows[:, 2] = _np.frombuffer(self._phi, dtype=_np.int64)[ids]
        rows[:, 3] = _np.frombuffer(self._sup, dtype=_np.int64)[ids]
        return rows

    # ----------------------------------------------------------- updates
    def insert_edge(self, u: int, v: int) -> bool:
        """Insert ``(u, v)`` and repair; False if present or a loop."""
        return self.apply_batch([("insert", u, v)]) == 1

    def delete_edge(self, u: int, v: int) -> bool:
        """Delete ``(u, v)`` and repair; False if absent."""
        return self.apply_batch([("delete", u, v)]) == 1

    def apply_batch(self, updates: Iterable[Update]) -> int:
        """Apply a sequence of ``(op, u, v)`` updates, repair once.

        ``op`` is ``"insert"``/``"+"`` or ``"delete"``/``"-"``.
        Duplicate inserts, deletes of absent edges and self-loop
        inserts are no-ops; the return value counts the updates that
        actually changed the graph.  Trussness afterwards is
        bit-identical to applying the effective updates one at a time
        (and to a from-scratch decomposition of the final graph).

        Every update is checked before the first one is applied: an
        unknown op, or an endpoint that is not an integer in the signed
        64-bit range, raises :class:`DecompositionError` with the state
        untouched.
        """
        steps = []
        for op, u, v in updates:
            sym = UPDATE_OPS.get(op)
            if sym is None:
                raise DecompositionError(f"unknown update op: {op!r}")
            step = self._do_insert if sym == "+" else self._do_delete
            try:
                # index() takes ints and numpy integers; int() would
                # truncate 1.5 and parse "7"
                u, v = index(u), index(v)
            except TypeError:
                raise DecompositionError(
                    f"non-integer vertex id in update {op} {u!r} {v!r}"
                ) from None
            # the state holds vertex ids in int64 columns
            if not (INT64_MIN <= u <= INT64_MAX
                    and INT64_MIN <= v <= INT64_MAX):
                raise DecompositionError(
                    f"update {op} {u} {v}: vertex id outside the signed "
                    "64-bit range"
                )
            steps.append((step, u, v))
        if steps:
            self._mutated()
        infos: List[_Info] = []
        for step, u, v in steps:
            info = step(u, v)
            if info is not None:
                infos.append(info)
        applied = len(infos)
        # one effective update moves any trussness by <= 1; a batch of
        # B compounds to a drift of <= B per endpoint of a chain step,
        # so the traversal slack 2*B keeps the region a sound superset
        self._repair(infos, slack=0 if applied <= 1 else 2 * applied)
        return applied

    # ---------------------------------------------------------- mutation
    def _do_insert(self, u: int, v: int) -> Optional[_Info]:
        if u == v:
            return None  # self-loops are dropped, like ingest cleaning
        nu = self._adj[u]
        if v in nu:
            return None
        nv = self._adj[v]
        sup = self._sup
        ws = nu.keys() & nv.keys()
        for w in ws:
            sup[nu[w]] += 1
            sup[nv[w]] += 1
        e = len(sup)
        nu[v] = nv[u] = e
        sup.append(len(ws))
        self._phi.append(-1)  # no trussness until the repair
        self._live.append(1)
        if u > v:
            u, v = v, u
        self._xu.append(u)
        self._xv.append(v)
        self._m += 1
        return (u, v, e, None)

    def _do_delete(self, u: int, v: int) -> Optional[_Info]:
        nu = self._adj[u]
        e = nu.get(v)
        if e is None:
            return None
        nv = self._adj[v]
        del nu[v], nv[u]
        sup = self._sup
        tris = []
        for w in nu.keys() & nv.keys():
            g, h = nu[w], nv[w]
            sup[g] -= 1
            sup[h] -= 1
            tris.append((w, g, h))
        self._live[e] = 0
        self._m -= 1
        return (u, v, e, tris)

    # ------------------------------------------------------------ repair
    def _full_repeel(self) -> None:
        """Recompute phi from scratch (supports are already exact) and
        rebase onto the result; every edge counts as affected."""
        rows = self._compact()
        csr = CSRGraph._from_flat_pairs(rows[:, :2].reshape(-1))
        td = truss_decomposition_flat(csr)
        rows[:, 2] = td.columns[2]  # edge id i is row i
        self._rebase(csr, rows[:, 2], rows[:, 3])
        self._rows = rows
        self._last_affected = rows  # every edge, in (u, v) order

    def _seed_delete(
        self,
        u: int,
        v: int,
        le: int,
        tris: List[Tuple[int, int, int]],
        slack: int,
        region: Dict[int, Edge],
        queue: List[Tuple[int, int, int]],
    ) -> None:
        # a delete's cascade starts in the triangles it destroyed and
        # only reaches levels k <= phi_old(deleted edge) (``le``, -1 if
        # the batch inserted it): admit a surviving partner when its
        # level clears neither the other partner's nor the deleted
        # edge's level by more than slack.  A partner the batch deleted
        # later is skipped, and as the other partner it caps nothing.
        phi, live = self._phi, self._live
        for w, g, h in tris:
            for x, y, a in ((g, h, u), (h, g, v)):
                if x in region or not live[x]:
                    continue
                lx = phi[x]
                if lx < 0:
                    continue  # a wildcard, seeded by its own insert
                ly = phi[y] if live[y] else -1
                cap = ly if le < 0 else (le if ly < 0 else min(ly, le))
                if cap < 0 or lx <= cap + slack:
                    region[x] = (a, w) if a < w else (w, a)
                    queue.append((a, w, x))

    def _repair(self, infos: List[_Info], slack: int) -> None:
        tr = self._tracer
        t0 = _perf() if tr.enabled else 0.0
        phi = self._phi
        region: Dict[int, Edge] = {}  # edge id -> canonical edge
        queue: List[Tuple[int, int, int]] = []
        for u, v, e, tris in infos:
            if tris is None:
                # inserted edges have no prior phi: wildcard seeds
                if self._live[e]:
                    region[e] = (u, v)
                    queue.append((u, v, e))
            else:
                self._seed_delete(u, v, phi[e], tris, slack, region, queue)
        # past this cap a frozen-boundary peel costs more than the flat
        # engine over everything (typical for large batches, whose
        # slack widens the chain rule): stop expanding and repair
        # exactly, but globally
        cap = max(64, self._m // 10)
        truncated = expand_region(
            self._adj, phi, region, queue, slack, cap=cap
        )
        self._last_affected = tuple(sorted(region.values()))
        self.stats.bump("repairs")
        self.stats.bump("affected_edges", len(region))
        if truncated:
            warn_degraded(
                tr, self.stats.metrics, "stream_full_repeel",
                region=len(region), cap=cap, updates=len(infos),
            )
            self._full_repeel()
            self.stats.bump("full_repeels")
            if tr.enabled:
                tr.complete_span(
                    "repair", _perf() - t0, updates=len(infos),
                    region=len(region), frozen=0, triangles=0,
                    truncated=True,
                )
            return
        if not region:
            if tr.enabled:
                tr.complete_span(
                    "repair", _perf() - t0, updates=len(infos),
                    region=0, frozen=0, triangles=0, truncated=False,
                )
            return
        # local problem: region edges get local ids 0..n-1 in region
        # order, frozen boundary edges (old phi kept, by containment)
        # follow; a triangle is emitted by its first region edge
        nloc = len(region)
        local = {e: i for i, e in enumerate(region)}
        frozen_phi: List[int] = []
        tris_local: List[Tuple[int, int, int]] = []
        adj = self._adj
        for i, (a, b) in enumerate(region.values()):
            na, nb = adj[a], adj[b]
            for w in na.keys() & nb.keys():
                g, h = na[w], nb[w]
                lg, lh = local.get(g), local.get(h)
                if lg is None:
                    lg = local[g] = nloc + len(frozen_phi)
                    frozen_phi.append(phi[g])
                elif lg < i:
                    continue
                if lh is None:
                    lh = local[h] = nloc + len(frozen_phi)
                    frozen_phi.append(phi[h])
                elif lh < i:
                    continue
                tris_local.append((i, lg, lh))
        self.stats.bump("frozen_edges", len(frozen_phi))
        self.stats.bump("local_triangles", len(tris_local))
        for e, k in zip(region, repeel_region(nloc, frozen_phi, tris_local)):
            phi[e] = k
        if tr.enabled:
            tr.complete_span(
                "repair", _perf() - t0, updates=len(infos),
                region=nloc, frozen=len(frozen_phi),
                triangles=len(tris_local), truncated=False,
            )
