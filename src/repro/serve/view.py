"""Immutable read views over a published snapshot generation.

Reads never touch the live maintainer: they run against a
:class:`ReadView` — one generation's int64 rows ``(u, v, phi, ...)``,
sorted by ``(u, v)``, plus a compact-id CSR adjacency built from them
in a few array passes — stamped with the generation and WAL seq it
reflects, which is swapped atomically (one reference assignment)
whenever a newer generation is adopted.  A repair in flight therefore
never blocks a reader; the reader just answers from the previous
generation and says so (``X-Repro-Stale: 1``).

An edge lookup is a binary search of the rows.  A community is a FIFO
BFS over the CSR rows, whose neighbours are in ascending order: a
truncated community returns the first edges that order reaches.

The per-request paths walk memoryviews of the arrays in Python rather
than calling numpy.  Most requests touch a few rows, where numpy's
per-call overhead dominates: a fresh request thread pays a first-call
cost for each ufunc, and a sort or ``searchsorted`` releases the GIL
even on a handful of elements, handing it to another request thread.

Two adopters of that contract:

* :class:`LocalReader` — the in-process (``--workers 0``) read side:
  the service hands it a fresh view at every publish;
* :class:`SnapshotReader` — the worker-process read side: polls the
  advisory ``HEAD.json`` pointer (cheap, cached for ``head_ttl_ms``)
  and reloads the newest generation from disk at most every
  ``refresh_ms`` — the knob trading read staleness against reload
  work under write load.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections import deque
from typing import Iterator, List, Optional, Tuple

from repro.serve.snapshot import (
    INT64_MAX,
    INT64_MIN,
    ROW_COLS,
    RowMap,
    SnapshotError,
    latest_valid_generation,
    load_generation,
    read_head,
)

try:
    import numpy as _np
except ImportError:  # TrussService.open refuses to start without it
    _np = None


def _canon(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u < v else (v, u)


class ReadView:
    """One generation's trussness rows, frozen, with query helpers."""

    __slots__ = ("gen", "wal_seq", "phi", "_verts", "_ptr", "_nbr",
                 "_eid", "_nphi", "_kmax")

    def __init__(self, gen: int, wal_seq: int, rows) -> None:
        """``rows``: int64 ``(m, >= 3)`` rows ``(u, v, phi, ...)`` of
        canonical edges sorted by ``(u, v)``, as
        :func:`~repro.serve.snapshot.write_generation` returns them."""
        self.gen = gen
        self.wal_seq = wal_seq
        self.phi = RowMap(rows, 2)  # the {(u, v): phi} map of the rows
        m = len(rows)
        # compact vertex ids in label order; slot s of the CSR holds a
        # neighbour _nbr[s] (ascending within each row) and its edge's
        # row _eid[s] and trussness _nphi[s]
        self._verts, ids = _np.unique(
            _np.concatenate((rows[:, 0], rows[:, 1])), return_inverse=True
        )
        nv = len(self._verts)
        nbr = _np.concatenate((ids[m:], ids[:m]))
        self._ptr = _np.zeros(nv + 1, dtype=_np.int64)
        _np.cumsum(_np.bincount(ids, minlength=nv), out=self._ptr[1:])
        order = _np.argsort(ids * nv + nbr)
        self._nbr = nbr[order]
        self._eid = order % max(m, 1)
        phi = rows[:, 2]
        self._nphi = phi[self._eid]
        self._kmax = int(phi.max()) if m else 2

    @property
    def num_edges(self) -> int:
        return len(self.phi)

    @property
    def kmax(self) -> int:
        return self._kmax

    def _vertex(self, v) -> int:
        """The compact id of vertex ``v``, or -1."""
        if not INT64_MIN <= v <= INT64_MAX:
            return -1
        verts = memoryview(self._verts)
        i = bisect_left(verts, v)
        return i if i < len(verts) and verts[i] == v else -1

    def lookup(self, u: int, v: int) -> Optional[int]:
        """Trussness of edge ``(u, v)``, or ``None`` when absent."""
        return self.phi.get(_canon(int(u), int(v)))

    def has_vertex(self, v: int) -> bool:
        return self._vertex(v) >= 0

    def community(
        self, v: int, k: int, max_edges: int = 10_000
    ) -> Optional[dict]:
        """The k-truss community containing ``v``: its connected
        component in the subgraph of edges with ``phi >= k``.

        Returns ``None`` when ``v`` touches no such edge.  The edge
        list is capped at ``max_edges`` (``truncated`` flags the cap;
        counts stay exact), so a whole-graph community cannot balloon
        one response.  The cap keeps the edges found first, each from
        its smaller endpoint, in BFS order.
        """
        v = int(v)
        x = self._vertex(v)
        if x < 0:
            return None
        ptr, nbr, nphi, eid = map(
            memoryview, (self._ptr, self._nbr, self._nphi, self._eid)
        )
        seen = {x}
        frontier = deque([x])
        vertices = num_edges = 0
        kept: List[int] = []  # rows of the edges returned
        while frontier:
            a = frontier.popleft()
            vertices += 1
            for s in range(ptr[a], ptr[a + 1]):
                if nphi[s] < k:
                    continue
                w = nbr[s]
                if a < w:  # count each qualifying edge exactly once
                    num_edges += 1
                    if len(kept) < max_edges:
                        kept.append(eid[s])
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        if not num_edges:  # v touches no edge with phi >= k
            return None
        kept.sort()
        return {
            "vertex": v,
            "k": k,
            "num_vertices": vertices,
            "num_edges": num_edges,
            "edges": self.phi.rows[kept, :3].tolist(),
            "truncated": num_edges > len(kept),
        }

    def dump_lines(self) -> Iterator[str]:
        """Sorted ``'u v phi'`` lines — byte-identical to the CLI's
        ``decompose`` output for the same graph (the parity probe)."""
        for u, v, k in self.phi.rows[:, :3].tolist():
            yield f"{u} {v} {k}"

    def max_k_of_vertex(self, v: int) -> Optional[int]:
        """The largest k any edge at ``v`` reaches (None: unknown v)."""
        x = self._vertex(int(v))
        if x < 0:
            return None
        return max(memoryview(self._nphi)[self._ptr[x]:self._ptr[x + 1]])


#: the view served before any generation loads: answers nothing
EMPTY_VIEW = (
    ReadView(-1, -1, _np.zeros((0, ROW_COLS), dtype=_np.int64))
    if _np is not None else None
)


class LocalReader:
    """Read side of the in-process server: views pushed by the writer."""

    def __init__(self) -> None:
        self._view = EMPTY_VIEW
        self._applied_seq = -1

    def publish(self, view: ReadView) -> None:
        self._view = view  # atomic reference swap under the GIL
        self._applied_seq = max(self._applied_seq, view.wal_seq)

    def note_applied(self, seq: int) -> None:
        """A write was applied but not yet published (stale window)."""
        self._applied_seq = max(self._applied_seq, seq)

    def ready(self) -> bool:
        return self._view is not EMPTY_VIEW

    def current(self) -> Tuple[ReadView, bool]:
        """``(view, stale)`` — stale: applied writes it cannot see."""
        view = self._view
        return view, self._applied_seq > view.wal_seq


class SnapshotReader:
    """Read side of a worker process: disk generations + HEAD polling."""

    def __init__(
        self,
        root,
        *,
        refresh_ms: float = 100.0,
        head_ttl_ms: float = 20.0,
    ) -> None:
        self.root = root
        self._refresh_s = max(refresh_ms, 0.0) / 1000.0
        self._head_ttl_s = max(head_ttl_ms, 0.0) / 1000.0
        self._view = EMPTY_VIEW
        self._head: Optional[dict] = None
        self._head_at = -1.0
        self._loaded_at = -1.0
        self.load_errors = 0

    def _poll_head(self, now: float) -> Optional[dict]:
        if self._head is None or now - self._head_at >= self._head_ttl_s:
            self._head = read_head(self.root)
            self._head_at = now
        return self._head

    def _load_latest(self) -> None:
        gen = latest_valid_generation(self.root)
        if gen is None or gen == self._view.gen:
            return
        try:
            phi, _, wal_seq = load_generation(self.root, gen, want_sup=False)
        except SnapshotError:
            # racing a publish or a prune: keep serving the old view
            self.load_errors += 1
            return
        self._view = ReadView(gen, wal_seq, phi.rows)

    def ready(self) -> bool:
        if self._view is EMPTY_VIEW:
            self.refresh(force=True)
        return self._view is not EMPTY_VIEW

    def refresh(self, force: bool = False) -> None:
        now = time.monotonic()
        if force:
            self._load_latest()
            self._loaded_at = now
            return
        head = self._poll_head(now)
        newer = head is not None and head["gen"] > self._view.gen
        if newer and now - self._loaded_at >= self._refresh_s:
            self._load_latest()
            self._loaded_at = now

    def current(self) -> Tuple[ReadView, bool]:
        """``(view, stale)`` after an opportunistic refresh."""
        self.refresh()
        view = self._view
        head = self._head
        stale = head is not None and head["applied_seq"] > view.wal_seq
        return view, stale
