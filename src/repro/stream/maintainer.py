"""``TrussMaintainer`` — trussness kept fresh under edge updates.

Construction decomposes once with the flat engine's array core
(:func:`repro.core.flat.peel_flat_arrays`): one triangle-index build
over the CSR snapshot yields both the trussness and the initial
supports, in edge-id order, and the state dicts are zipped straight
from those arrays.  Every subsequent :meth:`insert_edge` /
:meth:`delete_edge` / :meth:`apply_batch` repairs only the bounded
affected set computed by :mod:`repro.stream.affected` and re-peeled by
:mod:`repro.stream.repeel`.

State lives in dicts keyed by canonical ``(u, v)`` edges rather than
flat eids on purpose: :class:`repro.graph.CSRGraph` eids are
*positional* in sorted edge order, so a single insert would shift every
eid after it — a dict survives updates without renumbering and the
local re-peel builds its own dense positional ids per repair.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from time import perf_counter as _perf
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.decomposition import DecompositionStats, TrussDecomposition
from repro.core.flat import (
    _as_csr,
    edge_keys,
    peel_flat_arrays,
    truss_decomposition_flat,
)
from repro.errors import DecompositionError
from repro.graph.csr import CSRGraph
from repro.kernels import resolve_kernel
from repro.obs import NULL_TRACER, warn_degraded
from repro.stream.affected import canon, common_neighbors, expand_region
from repro.stream.repeel import repeel_region

Edge = Tuple[int, int]
Update = Tuple[str, int, int]

_INSERT_OPS = frozenset(("insert", "+", "i", "add"))
_DELETE_OPS = frozenset(("delete", "-", "d", "remove"))

# info tuple per applied mutation: (kind, edge, seed triangles, old phi)
_Info = Tuple[str, Edge, Tuple[Tuple[Edge, Edge], ...], Optional[int]]


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
        adj: Dict[int, List[int]],
        phi: Dict[Edge, int],
        sup: Dict[Edge, int],
        kernel: Optional[str] = None,
        trace=None,
    ) -> None:
        # a bad kernel name fails here, before any update touches state;
        # the caller's value is kept so repairs degrade exactly as asked
        resolve_kernel(kernel)
        self._adj = adj  # vertex -> sorted neighbor list
        self._phi = phi  # canonical edge -> trussness
        self._sup = sup  # canonical edge -> support (common-neighbor count)
        self._kernel = kernel
        self._tracer = trace if trace is not None else NULL_TRACER
        self._last_affected: Tuple[Edge, ...] = ()
        self.stats = DecompositionStats(method="stream")

    @classmethod
    def from_graph(
        cls, g, kernel: Optional[str] = None, trace=None
    ) -> "TrussMaintainer":
        """Decompose ``g`` (a :class:`Graph` or CSR snapshot) once.

        One triangle-index build gives both the trussness and the
        initial supports (:func:`repro.core.flat.peel_flat_arrays`);
        the phi and support dicts share one list of edge keys, and the
        adjacency lists are the CSR rows, already sorted.  ``trace``
        takes an enabled :class:`repro.obs.Tracer`: the seeding
        decomposition and every subsequent repair emit their spans (and
        degradation warnings) into it.
        """
        csr = _as_csr(g)
        if not csr.num_edges:
            return cls({}, {}, {}, kernel=kernel, trace=trace)
        phi, sup, _k, _stats = peel_flat_arrays(
            csr, kernel=kernel, trace=trace
        )
        keys = list(edge_keys(csr))
        labels = csr.labels
        nbrs = list(map(labels.__getitem__, csr.indices))
        ptr = csr.indptr
        adj = {
            labels[i]: nbrs[ptr[i]:ptr[i + 1]]
            for i in range(csr.num_vertices)
            if ptr[i] != ptr[i + 1]
        }
        return cls(
            adj,
            dict(zip(keys, phi.tolist())),
            dict(zip(keys, sup.tolist())),
            kernel=kernel,
            trace=trace,
        )

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
        (what :mod:`repro.serve.snapshot` generations hold): adjacency
        is exactly the canonical edge key set, so no decomposition runs
        — restart costs O(m) dict rebuilds, not a re-peel.  The two
        maps must cover the same edges (any consistent maintainer's
        do); the further-update behaviour is bit-identical to a
        maintainer that never round-tripped, pinned by the snapshot
        tests.
        """
        if set(phi) != set(sup):
            raise DecompositionError(
                "phi and sup must cover the same canonical edges "
                f"({len(phi)} vs {len(sup)})"
            )
        adj: Dict[int, List[int]] = {}
        for a, b in phi:
            if not (isinstance(a, int) and isinstance(b, int) and a < b):
                raise DecompositionError(
                    f"non-canonical edge key in snapshot state: {(a, b)!r}"
                )
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        for lst in adj.values():
            lst.sort()
        return cls(
            adj,
            {e: int(k) for e, k in phi.items()},
            {e: int(s) for e, s in sup.items()},
            kernel=kernel,
            trace=trace,
        )

    # ------------------------------------------------------------- views
    @property
    def trussness(self) -> Mapping[Edge, int]:
        """Live read-only view of the phi(e) map (canonical edges)."""
        return MappingProxyType(self._phi)

    @property
    def supports(self) -> Mapping[Edge, int]:
        """Live read-only view of the support map (canonical edges)."""
        return MappingProxyType(self._sup)

    @property
    def last_affected(self) -> Tuple[Edge, ...]:
        """The region re-peeled by the most recent update, sorted."""
        return self._last_affected

    @property
    def num_edges(self) -> int:
        return len(self._phi)

    def has_edge(self, u: int, v: int) -> bool:
        au = self._adj.get(u)
        if au is None:
            return False
        i = bisect_left(au, v)
        return i < len(au) and au[i] == v

    def as_decomposition(self) -> TrussDecomposition:
        """An immutable snapshot of the current trussness map."""
        return TrussDecomposition.from_canonical(dict(self._phi), self.stats)

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
        """
        infos: List[_Info] = []
        for op, u, v in updates:
            if op in _INSERT_OPS:
                info = self._do_insert(int(u), int(v))
            elif op in _DELETE_OPS:
                info = self._do_delete(int(u), int(v))
            else:
                raise DecompositionError(f"unknown update op: {op!r}")
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
        insort(self._adj.setdefault(u, []), v)
        insort(self._adj.setdefault(v, []), u)
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
            if not lst:
                del self._adj[a]
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
        """Recompute phi from scratch (supports are already exact)."""
        csr = CSRGraph.from_edges(iter(self._sup))
        td = truss_decomposition_flat(csr, kernel=self._kernel)
        self._phi = dict(td.trussness)

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
        cap = max(64, len(self._sup) // 10)
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
            self._last_affected = tuple(sorted(self._sup))
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
