"""Static edge-id shards for the owner-computes distributed peel.

The vertex-cut partitioners in this package slice *vertices* into
memory-bounded blocks for the paper's external algorithms.  This module
slices the **canonical edge-id space** ``0..m-1`` into contiguous
shards balanced by *triangle-incidence weight* — the unit of work a
peel spends on an edge — so that each rank of ``method="dist"``
(:mod:`repro.core.dist`, :mod:`repro.dist`) owns its shard's support/
alive/histogram slices for an entire decomposition.

Contiguity is deliberate: ownership of a sorted edge-id array is then
a single ``searchsorted`` against the shard bounds, and a shard's state
is a dense slice of the flat arrays, not a gather.  This is the same
owner-computes layout PKT-style truss codes use; the routed per-wave
buffers are the ranks' message exchanges.

Entry points:

* :func:`plan_edge_shards` — incidence weights in, an immutable
  :class:`EdgeShardPlan` (the shard bounds) out;
* :func:`balanced_prefix_cuts` — the cost model the plan and the
  parallel engine's per-wave frontier split share;
* :func:`route_dead_triangles` — each dead triangle to the owner
  shard(s) of its partner edges, exactly once per shard.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.graph.csr import sorted_unique

try:  # the cuts need it, like the CSR engines that take them
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None


class EdgeShardError(ReproError):
    """An edge-shard plan was requested with invalid parameters."""


class EdgeShardPlan:
    """An immutable contiguous partition of the edge-id space.

    ``bounds`` has ``num_shards + 1`` monotone entries with
    ``bounds[0] == 0`` and ``bounds[-1] == num_edges``; shard ``s``
    owns exactly the edge ids ``bounds[s] <= e < bounds[s + 1]``.
    Every edge id is owned by exactly one shard by construction (shards
    may be empty when there are more shards than edges).
    """

    __slots__ = ("bounds",)

    def __init__(self, bounds: Sequence[int]) -> None:
        if len(bounds) < 2 or bounds[0] != 0:
            raise EdgeShardError(f"malformed shard bounds: {list(bounds)!r}")
        for a, b in zip(bounds, list(bounds)[1:]):
            if b < a:
                raise EdgeShardError(
                    f"shard bounds must be monotone, got {list(bounds)!r}"
                )
        self.bounds = array("q", bounds)

    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.bounds) - 1

    @property
    def num_edges(self) -> int:
        return self.bounds[-1]

    def range_of(self, s: int) -> Tuple[int, int]:
        """The half-open edge-id range ``[lo, hi)`` shard ``s`` owns."""
        return self.bounds[s], self.bounds[s + 1]

    def owner_of(self, eid: int) -> int:
        """The shard owning edge id ``eid``."""
        if not 0 <= eid < self.num_edges:
            raise EdgeShardError(
                f"edge id {eid} outside 0..{self.num_edges - 1}"
            )
        return bisect_right(self.bounds, eid) - 1

    def iter_shards(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(shard, lo, hi)`` for every shard, empties included."""
        for s in range(self.num_shards):
            yield (s, self.bounds[s], self.bounds[s + 1])

    def shard_loads(self, weights: Sequence[int]) -> List[int]:
        """Total per-shard weight under ``weights`` (one entry per edge)."""
        if len(weights) != self.num_edges:
            raise EdgeShardError(
                f"{len(weights)} weights for {self.num_edges} edges"
            )
        return [
            sum(weights[lo:hi]) for _s, lo, hi in self.iter_shards()
        ]


def balanced_prefix_cuts(weights, parts: int):
    """Cut positions splitting ``weights`` into ``parts`` balanced runs.

    The one cost convention both splitters share: item ``i`` is charged
    ``weights[i] + 1`` (its triangle incidence plus the pop itself), and
    the cuts are the balanced-prefix positions of the charged cumulative
    sum, so every run's load is within one max charge of the ideal
    ``total / parts``.  Used by :func:`plan_edge_shards` for the dist
    ranks' static shard bounds and by
    :func:`repro.core.parallel._split_weighted` for the parallel
    engine's per-wave frontier split — change the cost model here and
    both engines stay in lockstep.  Returns the ``parts - 1`` cut
    indices as an ndarray: each is the first index whose charged
    cumulative sum reaches its target.
    """
    charged = _np.asarray(weights, dtype=_np.int64) + 1
    cum = _np.cumsum(charged)
    targets = cum[-1] * _np.arange(1, parts, dtype=_np.float64) / parts
    return _np.searchsorted(cum, targets)


def plan_edge_shards(
    m: int, shards: int, weights: Optional[Sequence[int]] = None
) -> EdgeShardPlan:
    """Cut ``0..m-1`` into ``shards`` contiguous weight-balanced ranges.

    ``weights`` are per-edge work estimates (triangle-incidence counts
    in the peel; ``None`` means uniform) and the cuts come from
    :func:`balanced_prefix_cuts` — the identical charge and cut rule
    the parallel engine's per-wave splitter uses — so every shard's
    load is within one max-edge-charge of the ideal ``total / shards``.  The
    plan is a pure function of ``(m, shards, weights)`` — every worker
    of a distributed peel could compute it independently and agree.
    """
    if shards < 1:
        raise EdgeShardError(f"need at least 1 shard, got {shards}")
    if m < 0:
        raise EdgeShardError(f"negative edge count {m}")
    if weights is not None and len(weights) != m:
        raise EdgeShardError(f"{len(weights)} weights for {m} edges")
    if m == 0 or shards == 1:
        return EdgeShardPlan([0] * shards + [m])
    raw = [0] * m if weights is None else weights
    cuts = balanced_prefix_cuts(raw, shards)
    return EdgeShardPlan([0] + [int(c) for c in cuts] + [m])


def route_dead_triangles(bounds, stride: int, tris, e1, e2, e3):
    """Route dead triangles to the owner shard(s) of their partner edges.

    The exactly-once convention of the distributed rank peel
    (:meth:`repro.dist.rank.Rank.run`; numpy-only, like the peel
    itself): each triangle in ``tris`` goes to every shard owning at
    least one of its partner edges, *once per shard*, via a
    :func:`~repro.graph.csr.sorted_unique` over ``owner * stride +
    triangle`` keys.  ``bounds`` is the plan's ``num_shards + 1``
    int64 bound array, ``stride`` any value ``> max(tris)`` (the
    triangle count), ``e1``/``e2``/``e3`` the triangle index's edge
    columns (arrays or mmaps).  Returns ``num_shards`` sorted arrays;
    piece ``s`` holds the triangle ids with a partner edge in shard
    ``s``.
    """
    partners = _np.concatenate((e1[tris], e2[tris], e3[tris]))
    owner = _np.searchsorted(bounds, partners, side="right") - 1
    key = sorted_unique(owner * stride + _np.tile(tris, 3))
    owners = key // stride
    shard_ids = _np.arange(1, len(bounds) - 1, dtype=_np.int64)
    return _np.split(
        key - owners * stride, _np.searchsorted(owners, shard_ids)
    )
