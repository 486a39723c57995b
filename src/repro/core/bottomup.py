"""Algorithm 4 + Procedures 5/9: bottom-up I/O-efficient decomposition.

**TD-bottomup** runs in two stages:

1. :func:`repro.core.lowerbound.lower_bounding` retires ``Phi_2`` and
   writes ``Gnew`` — every surviving edge with a lower bound
   ``lb(e) <= phi(e)`` — to disk.
2. For ``k = 3, 4, ...`` until ``Gnew`` drains:

   * ``U_k``  = endpoints of edges with ``lb(e) <= k`` (one scan);
   * ``H``    = ``NS(U_k)`` (second scan).  Because ``lb <= phi``, every
     ``Phi_k`` edge has both endpoints in ``U_k`` and is *internal* to
     ``H``, and at this point ``Gnew`` holds exactly ``T_k``'s edges, so
     supports of internal edges measured in ``H`` are supports in
     ``T_k`` — precisely what peeling at level ``k`` needs;
   * Procedure 5 peels internal edges with support ``<= k-2`` (the
     cascade stays internal: every trussness-k edge is internal, and
     external edges all have ``phi > k``), emitting ``Phi_k``;
   * ``Phi_k`` is deleted from ``Gnew`` (a rewrite scan, chunked as
     ``|Phi_k|/M`` scans if the class itself overflows memory).

If ``H`` overflows the memory budget, Procedure 9 peels it by
partitioning ``H`` itself and iterating block-local peels to a fixed
point — each pass can only remove edges whose support already dropped,
so the fixed point equals the in-memory peel.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.core.decomposition import (
    DecompositionStats,
    TrussDecomposition,
    require_int64_ids,
)
from repro.core.lowerbound import lower_bounding, prepare_input
from repro.exio.edgefile import DiskEdgeFile
from repro.exio.iostats import IOStats
from repro.exio.memory import MemoryBudget
from repro.graph.adjacency import Graph
from repro.graph.edges import Edge
from repro.graph.views import NeighborhoodSubgraph
from repro.partition.base import (
    Partitioner,
    PartitionSource,
    partition_with_escape,
)
from repro.partition.dominating import DominatingSetPartitioner


def ample_budget(g: Graph) -> MemoryBudget:
    """A budget under which the whole graph forms a single partition
    block (the 'fits in memory' degenerate case of the external
    algorithms)."""
    return MemoryBudget(
        units=2 * (g.num_vertices + 4 * g.num_edges) + 8
    )


def peel_level(
    h: Graph, targets: Set[Edge], k: int, *, strict: bool
) -> List[Edge]:
    """Procedure 5/8's inner loop: cascade-remove under-supported edges.

    Only edges in ``targets`` are ever removed (bottom-up: the internal
    edges; top-down: the unclassified candidates — classified edges must
    survive to provide support).  ``strict=False`` removes edges with
    ``sup <= k-2`` (bottom-up emits them as ``Phi_k``); ``strict=True``
    removes ``sup < k-2`` (top-down keeps the survivors).  ``h`` is
    peeled in place; removed edges are returned in removal order.
    """
    sup: Dict[Edge, int] = {
        e: len(h.common_neighbors(*e)) for e in targets if h.has_edge(*e)
    }
    limit = (k - 2) if strict else (k - 1)
    queue: List[Edge] = [e for e, s in sup.items() if s < limit]
    removed: List[Edge] = []
    dead: Set[Edge] = set(queue)
    while queue:
        u, v = queue.pop()
        for w in list(h.common_neighbors(u, v)):
            for a, b in ((u, w), (v, w)):
                f = (a, b) if a < b else (b, a)
                if f in sup and f not in dead:
                    sup[f] -= 1
                    if sup[f] < limit:
                        dead.add(f)
                        queue.append(f)
        h.remove_edge(u, v)
        removed.append((u, v))
    return removed


def _peel_level_partitioned(
    ns: NeighborhoodSubgraph,
    k: int,
    budget: MemoryBudget,
    partitioner: Partitioner,
    *,
    strict: bool,
) -> List[Edge]:
    """Procedure 9: peel a candidate subgraph that overflows memory.

    Repeatedly partitions the current ``H`` and runs the block-local
    peel; every block-local removal is globally valid (the block's
    internal supports are exact in ``H``), and the loop ends when a full
    round removes nothing, i.e. the in-memory fixed point is reached.
    """
    h = ns.graph
    internal_vertices = set(ns.internal_vertices)
    removed_all: List[Edge] = []
    capacity_boost = 1
    while True:
        source = PartitionSource.from_graph(h)
        blocks = partition_with_escape(
            partitioner, source, budget, boost=capacity_boost
        )
        removed_round: List[Edge] = []
        for block in blocks:
            f_internal = set(block) & internal_vertices
            if not f_internal:
                continue
            sub = Graph()
            for u in block:
                if not h.has_vertex(u):
                    continue
                for w in h.neighbors(u):
                    sub.add_edge(u, w)
            targets = {
                (u, v)
                for u, v in sub.edges()
                if u in f_internal and v in f_internal
            }
            removed = peel_level(sub, targets, k, strict=strict)
            for u, v in removed:
                h.remove_edge(u, v)
            removed_round.extend(removed)
        if removed_round:
            removed_all.extend(removed_round)
            capacity_boost = 1
        elif len(blocks) <= 1:
            # a single block sees every edge as internal, so an empty
            # round here is a genuine fixed point
            break
        else:
            # edges straddling blocks can hide from block-local peels;
            # widen the blocks until everything is seen together once
            capacity_boost *= 2
    return removed_all


def truss_decomposition_bottomup(
    g: Graph,
    budget: Optional[MemoryBudget] = None,
    partitioner: Optional[Partitioner] = None,
    workdir: Optional[Path] = None,
    stats: Optional[IOStats] = None,
    use_lower_bounds: bool = True,
) -> TrussDecomposition:
    """Run TD-bottomup over an in-memory graph spilled to disk.

    ``budget`` simulates available memory (default: everything fits —
    degenerating to a single-partition run); ``stats`` collects block
    I/O so callers can report the paper's scan counts.

    ``use_lower_bounds=False`` is the ablation switch: LowerBounding
    still runs (it must, to emit ``Phi_2``), but the recorded bounds are
    flattened to the trivial value 3, so every ``U_k`` covers the whole
    remaining graph — quantifying how much candidate-subgraph shrinkage
    the bounds buy (Section 5's design rationale).

    The graph is spilled as fixed-width int64 records, so a vertex id
    outside that range raises :class:`DecompositionError` before any
    record is written.
    """
    require_int64_ids(g)
    stats = stats if stats is not None else IOStats()
    partitioner = partitioner if partitioner is not None else DominatingSetPartitioner()
    budget = budget if budget is not None else ample_budget(g)
    dstats = DecompositionStats(method="bottomup", io=stats)

    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        tmp = Path(tmp)
        g_file = prepare_input(g, tmp / "input.bin", stats)
        lb = lower_bounding(g_file, tmp / "gnew.bin", budget, partitioner, stats)
        dstats.record("lowerbound_iterations", lb.iterations)
        dstats.record("lowerbound_blocks", lb.blocks_processed)
        dstats.record("phi2_size", len(lb.phi2))

        phi: Dict[Edge, int] = {e: 2 for e in lb.phi2}
        gnew = lb.gnew
        if not use_lower_bounds:
            gnew.rewrite(lambda rec: (rec[0], rec[1], 3))
        k = 3
        while not gnew.is_empty:
            # Step 3: one scan for U_k
            u_k: Set[int] = set()
            min_lb_seen = None
            for u, v, bound in gnew.scan():
                if bound <= k:
                    u_k.add(u)
                    u_k.add(v)
                if min_lb_seen is None or bound < min_lb_seen:
                    min_lb_seen = bound
            if not u_k:
                # no candidate at this level: jump to the next bound
                k = max(k + 1, int(min_lb_seen))
                continue
            # Steps 4-5: one more scan extracts H = NS(U_k)
            h = Graph()
            for u, v in gnew.scan_edges():
                if u in u_k or v in u_k:
                    h.add_edge(u, v)
            ns = NeighborhoodSubgraph(graph=h, internal_vertices=frozenset(u_k))
            dstats.bump("candidate_rounds")
            dstats.bump("total_candidate_units", ns.size)
            dstats.record(
                "max_candidate_size",
                max(dstats.extra.get("max_candidate_size", 0), ns.size),
            )
            # Step 6: peel Phi_k out of H (Procedure 5 or 9)
            if budget.fits(ns.size):
                targets = set(ns.internal_edges())
                phi_k = peel_level(h, targets, k, strict=False)
            else:
                dstats.bump("procedure9_rounds")
                phi_k = _peel_level_partitioned(
                    ns, k, budget, partitioner, strict=False
                )
            for e in phi_k:
                phi[e] = k
            if phi_k:
                chunk = budget.units if len(phi_k) > budget.units else None
                gnew.remove_edges(phi_k, chunk_size=chunk)
            if not gnew.is_empty:
                k += 1
        gnew.delete()

    dstats.record("kmax", max(phi.values(), default=2))
    return TrussDecomposition(phi, stats=dstats)
