"""``TrussMaintainer`` — trussness kept fresh under edge updates.

Construction decomposes once with the flat engine's array core
(:func:`repro.core.flat.peel_flat_arrays`): one triangle-index build
over the CSR snapshot yields both the trussness and the initial
supports, in edge-id order.  Every subsequent :meth:`insert_edge` /
:meth:`delete_edge` / :meth:`apply_batch` repairs only the bounded
affected set computed by :mod:`repro.stream.affected` and re-peeled by
:mod:`repro.stream.repeel`.

The state is columnar, with dicts only where repairs have been.  The
*base* is a :class:`repro.graph.CSRGraph` plus int64 ``phi``/``sup``
arrays indexed by its edge ids, as the peel returns them.  A repair
touches a few vertices' neighbourhoods, so a vertex is *opened* on the
first read of its adjacency: its CSR row becomes a sorted list of
neighbour labels, and the trussness and support of its edges are
copied into dicts keyed by canonical ``(u, v)`` edges.  From then on
the dicts hold every edge with an open endpoint (dict keys survive an
insert, where CSR eids are positional and would shift); an edge with
no open endpoint still has its base values.  Every lookup a repair
makes is of an edge at a vertex whose adjacency it has just read, so
the dicts are plain dicts, with C-speed ``get``.

Compaction merges the two parts into ``(u, v, phi, sup)`` int64 rows
sorted by ``(u, v)`` — the result columns of :meth:`as_decomposition`,
the rows a snapshot generation stores, and the input of a full re-peel,
which rebases onto a fresh CSR with no vertex open.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Mapping
from itertools import repeat
from operator import index, itemgetter
from time import perf_counter as _perf
from typing import Dict, Iterable, List, Optional, Set, Tuple

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
)
from repro.kernels import resolve_kernel
from repro.obs import NULL_TRACER, warn_degraded
from repro.stream.affected import canon, common_neighbors, expand_region
from repro.stream.repeel import repeel_region

try:
    import numpy as _np
except ImportError:  # resolve_kernel refuses every maintainer without it
    _np = None

Edge = Tuple[int, int]
Update = Tuple[str, int, int]

_INSERT_OPS = frozenset(("insert", "+", "i", "add"))
_DELETE_OPS = frozenset(("delete", "-", "d", "remove"))

# info tuple per applied mutation: (kind, edge, seed triangles, old phi)
_Info = Tuple[str, Edge, Tuple[Tuple[Edge, Edge], ...], Optional[int]]


def _edge_keys(rows):
    """The ``(u, v)`` tuples of ``rows``, in row order, with one int
    object per vertex id (``tolist()`` makes one per endpoint: about
    5.6 MB more on an 88,679-edge graph)."""
    ids, inv = _np.unique(rows[:, :2], return_inverse=True)
    ends = list(map(ids.tolist().__getitem__, inv.reshape(-1).tolist()))
    return zip(ends[0::2], ends[1::2])


class _Adjacency(dict):
    """``vertex -> sorted neighbour labels`` over a CSR base.

    A missing vertex is opened: its base row (empty for a vertex the
    base lacks) becomes its list, and its edges to vertices not yet
    open are copied from the base columns into the ``phi``/``sup``
    dicts.  An edge to an open vertex is in the dicts already, or was
    deleted.  An open vertex keeps its list even when it empties, so a
    base row is never read again.
    """

    __slots__ = ("_labels", "_ptr", "_nbr", "_eids", "_bphi", "_bsup",
                 "_phi", "_sup")

    def __init__(self, base: CSRGraph, bphi, bsup, phi: Dict[Edge, int],
                 sup: Dict[Edge, int]) -> None:
        super().__init__()
        # a list for bisect, which is about 1.5x slower over a memoryview
        self._labels = base.labels.tolist()
        # memoryviews slice and iterate at array speed and index to
        # Python ints, never numpy scalars
        self._ptr, self._nbr, self._eids = (
            memoryview(base.indptr), memoryview(base.indices),
            memoryview(base.eids),
        )
        self._bphi, self._bsup = memoryview(bphi), memoryview(bsup)
        self._phi, self._sup = phi, sup

    def __missing__(self, v: int) -> List[int]:
        labels = self._labels
        i = bisect_left(labels, v)
        if i == len(labels) or labels[i] != v:
            row: List[int] = []
        else:
            lo, hi = self._ptr[i], self._ptr[i + 1]
            row = [labels[j] for j in self._nbr[lo:hi]]
            phi, sup = self._phi, self._sup
            bphi, bsup = self._bphi, self._bsup
            for w, e in zip(row, self._eids[lo:hi]):
                if w not in self:
                    key = (v, w) if v < w else (w, v)
                    phi[key] = bphi[e]
                    sup[key] = bsup[e]
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
        kernel: Optional[str] = None,
        trace=None,
    ) -> None:
        """``phi``/``sup``: int64 arrays indexed by ``base``'s edge ids."""
        # a bad kernel name fails here, before any update touches state;
        # the caller's value is kept so repairs degrade exactly as asked
        resolve_kernel(kernel)
        self._kernel = kernel
        self._tracer = trace if trace is not None else NULL_TRACER
        self._last_affected: Tuple[Edge, ...] = ()
        self.stats = DecompositionStats(method="stream")
        self._rebase(base, phi, sup)

    def _rebase(self, base: CSRGraph, phi, sup) -> None:
        """Make ``base`` the state, with no vertex open."""
        self._base = base
        self._base_phi = _np.ascontiguousarray(phi, dtype=_np.int64)
        self._base_sup = _np.ascontiguousarray(sup, dtype=_np.int64)
        self._phi: Dict[Edge, int] = {}  # canonical edge -> trussness
        self._sup: Dict[Edge, int] = {}  # canonical edge -> support
        self._adj = _Adjacency(
            base, self._base_phi, self._base_sup, self._phi, self._sup
        )
        self._m = base.num_edges
        self._ends = None  # base labels and edge endpoints, at compaction
        self._mutated()

    def _mutated(self) -> None:
        """Drop what was derived from the state before a mutation."""
        self._rows = None
        self._dicts: Dict[int, Dict[Edge, int]] = {}

    @classmethod
    def from_graph(
        cls, g, kernel: Optional[str] = None, trace=None
    ) -> "TrussMaintainer":
        """Decompose ``g`` (a :class:`Graph` or CSR snapshot) once.

        One triangle-index build gives both the trussness and the
        initial supports (:func:`repro.core.flat.peel_flat_arrays`),
        which become the base columns as they are.  ``trace`` takes an
        enabled :class:`repro.obs.Tracer`: the seeding decomposition and
        every subsequent repair emit their spans (and degradation
        warnings) into it.
        """
        csr = _as_csr(g)
        phi, sup, _k, _stats = peel_flat_arrays(
            csr, kernel=kernel, trace=trace
        )
        return cls(csr, phi, sup, kernel=kernel, trace=trace)

    @classmethod
    def from_state(
        cls,
        phi: Mapping[Edge, int],
        sup: Mapping[Edge, int],
        kernel: Optional[str] = None,
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
        resolve_kernel(kernel)  # no numpy or a bad name: fail before rows
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
        tm = cls(base, rows[:, 2], rows[:, 3], kernel=kernel, trace=trace)
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
        return self._last_affected

    @property
    def num_edges(self) -> int:
        return self._m

    def has_edge(self, u: int, v: int) -> bool:
        au = self._adj[u]
        i = bisect_left(au, v)
        return i < len(au) and au[i] == v

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
        """Fresh rows: the base edges with no open endpoint, plus the
        dict entries, in one sort.  An edge inserted by a batch still
        under repair has no trussness yet and gets 0."""
        if self._ends is None:
            self._ends = (self._base.labels, *self._base.edge_endpoints())
        labels, eu, ev = self._ends
        is_open = _np.isin(
            labels, _np.fromiter(self._adj, _np.int64, len(self._adj))
        )
        keep = ~(is_open[eu] | is_open[ev])
        sup = self._sup
        k = len(sup)
        rows = _np.empty((int(keep.sum()) + k, 4), dtype=_np.int64)
        based = rows[:len(rows) - k]
        based[:, 0] = labels[eu[keep]]
        based[:, 1] = labels[ev[keep]]
        based[:, 2] = self._base_phi[keep]
        based[:, 3] = self._base_sup[keep]
        opened = rows[len(rows) - k:]
        opened[:, 0] = _np.fromiter(map(itemgetter(0), sup), _np.int64, k)
        opened[:, 1] = _np.fromiter(map(itemgetter(1), sup), _np.int64, k)
        opened[:, 2] = _np.fromiter(
            map(self._phi.get, sup, repeat(0)), _np.int64, k
        )
        opened[:, 3] = _np.fromiter(sup.values(), _np.int64, k)
        # the kept base rows are in (u, v) order already
        return rows[pair_order(rows[:, 0], rows[:, 1])] if k else rows

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
            if op in _INSERT_OPS:
                step = self._do_insert
            elif op in _DELETE_OPS:
                step = self._do_delete
            else:
                raise DecompositionError(f"unknown update op: {op!r}")
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
        if u == v or self.has_edge(u, v):
            return None  # self-loops are dropped, like ingest cleaning
        e = canon(u, v)
        insort(self._adj[u], v)
        insort(self._adj[v], u)
        self._m += 1
        ws = common_neighbors(self._adj, u, v)
        self._sup[e] = len(ws)
        for w in ws:
            self._sup[canon(u, w)] += 1
            self._sup[canon(v, w)] += 1
        return ("insert", e, (), None)

    def _do_delete(self, u: int, v: int) -> Optional[_Info]:
        if not self.has_edge(u, v):
            return None
        e = canon(u, v)
        ws = common_neighbors(self._adj, u, v)
        for a, b in ((u, v), (v, u)):
            lst = self._adj[a]
            lst.pop(bisect_left(lst, b))
        self._m -= 1
        le = self._phi.pop(e, None)  # None: inserted earlier this batch
        del self._sup[e]
        tris = []
        for w in ws:
            g, h = canon(u, w), canon(v, w)
            self._sup[g] -= 1
            self._sup[h] -= 1
            tris.append((g, h))
        return ("delete", e, tuple(tris), le)

    # ------------------------------------------------------------ repair
    def _full_repeel(self) -> None:
        """Recompute phi from scratch (supports are already exact) and
        rebase onto the result; every edge counts as affected."""
        rows = self._compact()
        csr = CSRGraph._from_flat_pairs(rows[:, :2].reshape(-1))
        td = truss_decomposition_flat(csr, kernel=self._kernel)
        rows[:, 2] = td.columns[2]  # edge id i is row i
        self._rebase(csr, rows[:, 2], rows[:, 3])
        self._rows = rows
        self._last_affected = tuple(_edge_keys(rows))

    def _seed_delete(
        self,
        tris: Tuple[Tuple[Edge, Edge], ...],
        le: Optional[int],
        slack: int,
        region: Set[Edge],
        queue: List[Edge],
    ) -> None:
        # a delete's cascade starts in the triangles it destroyed and
        # only reaches levels k <= phi_old(deleted edge): admit a
        # surviving partner when its level clears neither the other
        # partner's nor the deleted edge's level by more than slack
        for g, h in tris:
            for x, y in ((g, h), (h, g)):
                if x in region:
                    continue
                lx = self._phi.get(x)
                if lx is None:
                    continue  # wildcard (in region) or since deleted
                ly = self._phi.get(y)
                cap = ly if le is None else (le if ly is None else min(ly, le))
                if cap is None or lx <= cap + slack:
                    region.add(x)
                    queue.append(x)

    def _repair(self, infos: List[_Info], slack: int) -> None:
        tr = self._tracer
        t0 = _perf() if tr.enabled else 0.0
        region: Set[Edge] = set()
        queue: List[Edge] = []
        for kind, e, tris, le in infos:
            if kind == "insert":
                # inserted edges have no prior phi: wildcard seeds
                if e in self._sup and e not in region:
                    region.add(e)
                    queue.append(e)
            else:
                self._seed_delete(tris, le, slack, region, queue)
        # past this cap a frozen-boundary peel costs more than the flat
        # engine over everything (typical for large batches, whose
        # slack widens the chain rule): stop expanding and repair
        # exactly, but globally
        cap = max(64, self._m // 10)
        truncated = expand_region(
            self._adj, self._phi, region, queue, slack, cap=cap
        )
        region_edges = sorted(e for e in region if e in self._sup)
        self._last_affected = tuple(region_edges)
        self.stats.bump("repairs")
        self.stats.bump("affected_edges", len(region_edges))
        if truncated:
            warn_degraded(
                tr, self.stats.metrics, "stream_full_repeel",
                region=len(region_edges), cap=cap,
                updates=len(infos),
            )
            self._full_repeel()
            self.stats.bump("full_repeels")
            if tr.enabled:
                tr.complete_span(
                    "repair", _perf() - t0, updates=len(infos),
                    region=len(region_edges), frozen=0, triangles=0,
                    truncated=True,
                )
            return
        if not region_edges:
            if tr.enabled:
                tr.complete_span(
                    "repair", _perf() - t0, updates=len(infos),
                    region=0, frozen=0, triangles=0, truncated=False,
                )
            return
        # local problem: region edges get dense ids 0..n-1, frozen
        # boundary edges (old phi kept, by containment) follow
        eindex = {e: i for i, e in enumerate(region_edges)}
        fro_index: Dict[Edge, int] = {}
        frozen_phi: List[int] = []
        tris_local: List[Tuple[int, int, int]] = []
        seen: Set[Tuple[int, int, int]] = set()
        nloc = len(region_edges)
        for a, b in region_edges:
            for w in common_neighbors(self._adj, a, b):
                key = (a, b, w) if w > b else (
                    (a, w, b) if w > a else (w, a, b)
                )
                if key in seen:
                    continue
                seen.add(key)
                ids = []
                for x in ((a, b), canon(a, w), canon(b, w)):
                    i = eindex.get(x)
                    if i is None:
                        i = fro_index.get(x)
                        if i is None:
                            i = nloc + len(frozen_phi)
                            fro_index[x] = i
                            frozen_phi.append(self._phi[x])
                    ids.append(i)
                tris_local.append((ids[0], ids[1], ids[2]))
        self.stats.bump("frozen_edges", len(frozen_phi))
        self.stats.bump("local_triangles", len(tris_local))
        phi_new = repeel_region(
            nloc, frozen_phi, tris_local, kernel=self._kernel
        )
        for i, e in enumerate(region_edges):
            self._phi[e] = int(phi_new[i])
        if tr.enabled:
            tr.complete_span(
                "repair", _perf() - t0, updates=len(infos),
                region=len(region_edges), frozen=len(frozen_phi),
                triangles=len(tris_local), truncated=False,
            )
