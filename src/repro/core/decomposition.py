"""The result model of a truss decomposition.

A decomposition is fully described by the trussness map
``phi: E -> {2, 3, ..., kmax}`` (Definition 2/3).  Everything else —
k-classes, k-trusses, the maximum truss — is derived::

    Phi_k  = { e : phi(e) = k }            (the k-class)
    E_Tk   = union of Phi_j for j >= k     (the k-truss's edges)

:class:`TrussDecomposition` wraps the map with cached derivations plus a
``verify`` method that re-checks the defining invariants against the
source graph — used pervasively by the test suite and available to
users who want belt-and-braces validation on their own data.

The map has two backings.  The dict-based methods hand over a dict.
The CSR engines (flat, parallel, dist) hand over three int64 columns
``u``, ``v`` and ``phi`` in edge-id order, which is ascending
``(u, v)`` order; ``kmax``, the edge count and the class sizes come
straight from them, the CLI formats them without a dict, and the dict
is built on the first access to :attr:`TrussDecomposition.trussness`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import DecompositionError
from repro.exio.iostats import IOStats
from repro.graph.adjacency import Graph
from repro.graph.edges import Edge, norm_edge
from repro.graph.views import union_edge_subgraph
from repro.obs.metrics import MetricsRegistry


def require_int64_ids(g: Graph) -> None:
    """Raise :class:`DecompositionError` naming a vertex id of ``g``
    outside the signed 64-bit range.

    The int64 arrays of the CSR engines and the fixed-width on-disk
    records of the external methods both have this limit; only the
    dict-based methods accept any integer.
    """
    if not g.num_vertices:
        return
    for bad in (min(g.vertices()), max(g.vertices())):
        if not -(1 << 63) <= bad < 1 << 63:
            raise DecompositionError(
                f"vertex id {bad} is outside the signed 64-bit range "
                "[-2**63, 2**63 - 1] this method stores ids in; "
                'method="improved" accepts any integer id'
            )


class DecompositionStats:
    """Bookkeeping attached to a decomposition run.

    Backed by a :class:`repro.obs.metrics.MetricsRegistry`:
    :meth:`record` sets a gauge (or an info series for string values),
    :meth:`bump` increments a counter, and the legacy ``extra`` dict
    the benchmark harness folds into its tables is a *derived snapshot*
    of the registry — one store, two views, no parallel bookkeeping.
    The registry itself (``metrics``) carries everything the plain dict
    cannot: labeled series, histograms, and the Prometheus/JSON
    expositions behind the CLI's ``--metrics FILE``.
    """

    __slots__ = ("method", "io", "metrics")

    def __init__(
        self,
        method: str,
        io: Optional[IOStats] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.method = method
        self.io = io
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    def record(self, key: str, value: float) -> None:
        """Set a named counter (a registry gauge / info series)."""
        self.metrics.set(key, value)

    def bump(self, key: str, amount: float = 1) -> None:
        """Increment a named counter (a registry counter series)."""
        self.metrics.inc(key, amount)

    @property
    def extra(self) -> Dict[str, float]:
        """The legacy flat stats dict, derived from the registry."""
        return self.metrics.as_dict()

    def __repr__(self) -> str:
        return (
            f"DecompositionStats(method={self.method!r}, "
            f"extra={self.extra!r})"
        )


class TrussDecomposition:
    """Immutable truss decomposition result.

    Backed by a trussness dict, or by ``(u, v, phi)`` columns
    (:meth:`from_columns`) whose dict :attr:`trussness` builds on first
    access and keeps.  Either way the results compare, print and derive
    identically.

    >>> from repro.graph import complete_graph
    >>> from repro.core import truss_decomposition
    >>> td = truss_decomposition(complete_graph(4))
    >>> td.kmax
    4
    >>> sorted(td.k_class(4)) == sorted(complete_graph(4).edges())
    True
    """

    def __init__(
        self,
        trussness: Mapping[Edge, int],
        stats: Optional[DecompositionStats] = None,
    ) -> None:
        self._phi: Dict[Edge, int] = {}
        for (u, v), k in trussness.items():
            if k < 2:
                raise DecompositionError(
                    f"trussness of edge ({u}, {v}) is {k}; minimum is 2"
                )
            self._phi[norm_edge(u, v)] = k
        self._columns: Optional[Tuple] = None
        self.stats = stats
        self._classes: Optional[Dict[int, List[Edge]]] = None

    @classmethod
    def _adopt(cls, trussness, columns, stats) -> "TrussDecomposition":
        td = cls.__new__(cls)
        td._phi = trussness
        td._columns = columns
        td.stats = stats
        td._classes = None
        return td

    @classmethod
    def from_canonical(
        cls,
        trussness: Dict[Edge, int],
        stats: Optional[DecompositionStats] = None,
    ) -> "TrussDecomposition":
        """Wrap an already-canonical trussness dict without re-checking.

        Fast path for internal engines that construct their result with
        ``u < v`` keys and ``k >= 2`` values by construction; skips the
        per-edge normalization pass of ``__init__``.  The dict is
        adopted, not copied — callers must hand over ownership.
        """
        return cls._adopt(trussness, None, stats)

    @classmethod
    def from_columns(
        cls, u, v, phi, stats: Optional[DecompositionStats] = None
    ) -> "TrussDecomposition":
        """Wrap int64 columns ``u``, ``v``, ``phi`` without a dict.

        Row ``e`` is edge ``(u[e], v[e])`` with trussness ``phi[e]``.
        The CSR engines guarantee what is not re-checked: ``u < v``,
        ``phi >= 2``, and rows in ascending ``(u, v)`` order (edge-id
        order, since compact ids follow ascending labels).  The arrays
        are adopted, not copied.
        """
        return cls._adopt(None, (u, v, phi), stats)

    # ------------------------------------------------------------------
    @property
    def trussness(self) -> Mapping[Edge, int]:
        """The phi(e) map over canonical edges (built once from columns)."""
        if self._phi is None:
            self._phi = self._dict_from_columns()
        return self._phi

    def _dict_from_columns(self) -> Dict[Edge, int]:
        u, v, phi = self._columns
        return dict(zip(zip(u.tolist(), v.tolist()), phi.tolist()))

    @property
    def columns(self) -> Optional[Tuple]:
        """``(u, v, phi)`` int64 arrays in ascending ``(u, v)`` order,
        or ``None`` for a dict-backed result."""
        return self._columns

    def phi(self, u: int, v: int) -> int:
        """Trussness of one edge; raises KeyError if absent."""
        return self.trussness[norm_edge(u, v)]

    @property
    def num_edges(self) -> int:
        """Number of classified edges."""
        if self._columns is not None:
            return len(self._columns[2])
        return len(self._phi)

    @property
    def kmax(self) -> int:
        """The largest k with a non-empty k-truss (2 for edgeless input)."""
        if self._columns is not None:
            phi = self._columns[2]
            return int(phi.max()) if len(phi) else 2
        return max(self._phi.values(), default=2)

    # ------------------------------------------------------------------
    def class_sizes(self) -> Dict[int, int]:
        """``{k: |Phi_k|}`` over the non-empty k-classes, ascending k."""
        if self._columns is not None:
            import numpy as np  # columns exist only where numpy does

            counts = np.bincount(self._columns[2])
            ks = np.flatnonzero(counts)
            return dict(zip(ks.tolist(), counts[ks].tolist()))
        sizes: Dict[int, int] = {}
        for k in self._phi.values():
            sizes[k] = sizes.get(k, 0) + 1
        return dict(sorted(sizes.items()))

    def k_classes(self) -> Dict[int, List[Edge]]:
        """All non-empty k-classes, edges sorted for determinism."""
        if self._classes is None:
            classes: Dict[int, List[Edge]] = {}
            for e, k in self.trussness.items():
                classes.setdefault(k, []).append(e)
            for edges in classes.values():
                edges.sort()
            self._classes = classes
        return self._classes

    def k_class(self, k: int) -> List[Edge]:
        """``Phi_k`` (possibly empty)."""
        return list(self.k_classes().get(k, []))

    def k_truss_edges(self, k: int) -> List[Edge]:
        """Edges of ``T_k`` = union of classes >= k, sorted."""
        out: List[Edge] = []
        for j, edges in self.k_classes().items():
            if j >= k:
                out.extend(edges)
        out.sort()
        return out

    def k_truss(self, k: int) -> Graph:
        """``T_k`` as a graph (no isolated vertices)."""
        return union_edge_subgraph([self.k_truss_edges(k)])

    def max_truss(self) -> Tuple[int, Graph]:
        """``(kmax, the kmax-truss)`` — the paper's ``T`` in Table 6."""
        k = self.kmax
        return k, self.k_truss(k)

    def top_classes(self, t: int) -> Dict[int, List[Edge]]:
        """The top-t classes: ``Phi_k`` for ``kmax >= k > kmax - t``.

        Empty classes inside the range are included as empty lists, so
        callers can distinguish "computed and empty" from "not
        computed".
        """
        if t < 1:
            raise DecompositionError(f"top_classes needs t >= 1, got {t}")
        kmax = self.kmax
        return {
            k: self.k_class(k) for k in range(kmax, max(kmax - t, 1), -1)
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrussDecomposition):
            return NotImplemented
        return self.trussness == other.trussness

    def __repr__(self) -> str:
        return (
            f"TrussDecomposition(m={self.num_edges}, kmax={self.kmax}, "
            f"classes={list(self.class_sizes())})"
        )

    # ------------------------------------------------------------------
    def verify(self, g: Graph) -> None:
        """Re-check the k-truss definition against the source graph.

        Raises :class:`DecompositionError` on the first violated
        invariant:

        1. the classified edge set is exactly ``E_G``;
        2. within each ``T_k``, every edge has support >= k-2;
        3. each ``T_k`` is *maximal*: every edge of trussness k-1 would
           have support < k-2 if added to ``T_k`` (checked via its
           support at its own level).
        """
        ours = set(self.trussness)
        theirs = set(g.edges())
        if ours != theirs:
            raise DecompositionError(
                f"edge sets differ: {len(ours - theirs)} extra, "
                f"{len(theirs - ours)} missing"
            )
        for k in sorted(self.k_classes()):
            tk = self.k_truss(k)
            for u, v in tk.edges():
                s = len(tk.common_neighbors(u, v))
                if s < k - 2:
                    raise DecompositionError(
                        f"edge ({u}, {v}) has support {s} < {k - 2} "
                        f"inside T_{k}"
                    )
        # maximality: peeling T_k at threshold (k+1)-2 by definition must
        # leave exactly the claimed T_{k+1}; anything extra surviving means
        # some class-k edge actually belongs to a higher class.
        for k in sorted(self.k_classes()):
            peeled = self.k_truss(k)
            changed = True
            while changed:
                changed = False
                for u, v in list(peeled.edges()):
                    if len(peeled.common_neighbors(u, v)) < k - 1:
                        peeled.remove_edge(u, v)
                        changed = True
            if set(peeled.edges()) != set(self.k_truss_edges(k + 1)):
                raise DecompositionError(
                    f"T_{k} is not maximal: peeling it at level {k + 1} "
                    f"does not reproduce the claimed T_{k + 1}"
                )
