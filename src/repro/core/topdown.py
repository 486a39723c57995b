"""Algorithm 7 + Procedures 8/10: top-down truss decomposition.

**TD-topdown** serves applications that only want the top-t classes —
the "heart" of the network.  Pipeline:

1. *Preparation* — exact external support counting over the full graph
   (:mod:`repro.triangles.external`) retires ``Phi_2`` and yields
   ``Gnew`` annotated with ``sup(e)``;
2. *UpperBounding* (Procedure 6) rewrites the annotation to
   ``psi(e) >= phi(e)``;
3. *Downward sweep* — for ``k`` from ``max psi`` down: extract
   ``H = NS(U_k)`` where ``U_k`` covers unclassified edges with
   ``psi >= k``; peel *candidates* (unclassified, ``psi >= k``) whose
   support inside the **valid subgraph** falls below ``k-2``; survivors
   are exactly ``Phi_k``; then conservatively prune ``Gnew``.

Two sharpenings relative to the paper's pseudo-code, both required for
correctness (Theorem 4's *statement*, made operational):

* **Valid-support restriction.**  Support for the level-``k`` peel only
  counts triangles whose other two edges are T_k-eligible: classified
  (hence ``phi > k``) or unclassified with ``psi >= k``.  Edges with
  ``psi < k`` are provably outside ``T_k`` and must not prop up a
  candidate (a high-support low-trussness edge — e.g. the spine of a
  book graph — would otherwise survive a level far above its class).
* **Candidate-only peeling.**  Already-classified edges inside ``H``
  are support *providers*, never peel targets; Procedure 8's Step 6
  ("remove any edge in T_j, j > k, and output the rest") is realized by
  keeping them out of the peel's target set.

The ``Gnew`` prune (Steps 7-9) removes a classified edge only when every
one of its remaining triangles consists of classified edges — checked
inside ``H`` where the edge is internal, hence against its complete
current triangle set.

The ``kinit`` fast-forward from Section 6.3 is implemented: when the
first candidate subgraph at ``k = max psi`` would be tiny, the sweep
instead starts at the smallest ``k`` whose estimated ``NS(U_k)`` still
fits in memory and classifies all levels ``>= kinit`` with one in-memory
decomposition.
"""

from __future__ import annotations

import tempfile
from array import array
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.core.bottomup import ample_budget, peel_level
from repro.core.decomposition import (
    DecompositionStats,
    TrussDecomposition,
    require_int64_ids,
)
from repro.core.edge_runs import EdgeRuns
from repro.core.truss_improved import truss_decomposition_improved
from repro.core.upperbound import upper_bounding
from repro.errors import DecompositionError
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
from repro.triangles.external import external_edge_supports


def _choose_kinit(
    psi_file: DiskEdgeFile, budget: MemoryBudget, k1st: int
) -> int:
    """The smallest k whose estimated NS(U_k) fits the memory budget.

    Uses O(n) state: each vertex's degree and its best incident psi.
    Walking k downward, U_k grows; we stop before the estimate crosses
    the partition capacity.  Returns ``k1st`` when even that level's
    candidate overflows (the sweep then relies on Procedure 10).
    """
    degree: Dict[int, int] = {}
    best_psi: Dict[int, int] = {}
    for u, v, psi in psi_file.scan():
        for w in (u, v):
            degree[w] = degree.get(w, 0) + 1
            if psi > best_psi.get(w, 0):
                best_psi[w] = psi
    capacity = budget.partition_capacity()
    by_psi = sorted(best_psi, key=lambda v: -best_psi[v])
    weight = 0
    idx = 0
    kinit = k1st
    for k in range(k1st, 2, -1):
        while idx < len(by_psi) and best_psi[by_psi[idx]] >= k:
            weight += 1 + 2 * degree[by_psi[idx]]
            idx += 1
        if weight > capacity and k < k1st:
            break
        kinit = k
        if weight > capacity:
            break
    return kinit


def _extract_candidate(
    gnew: DiskEdgeFile, classified: Dict[Edge, int], k: int
) -> Tuple[EdgeRuns, array, Set[int]]:
    """Two scans: U_k, then H = NS(U_k) as a CSR snapshot.

    H is built from the selected records, canonical and sorted, into
    :class:`~repro.core.edge_runs.EdgeRuns` — no dict-of-set adjacency
    is ever constructed for the candidate subgraph.  A record's
    position is its edge's id, so ``psi`` comes back as the records'
    third column, already indexed by H's edge ids.
    """
    u_k: Set[int] = set()
    for u, v, psi in gnew.scan():
        if psi >= k and (u, v) not in classified:
            u_k.add(u)
            u_k.add(v)
    if not u_k:
        return EdgeRuns([]), array("q"), u_k
    records = sorted(
        (u, v, psi) if u < v else (v, u, psi)
        for u, v, psi in gnew.scan()
        if u in u_k or v in u_k
    )
    h = EdgeRuns([(u, v) for u, v, _psi in records])
    return h, array("q", [psi for _u, _v, psi in records]), u_k


def _valid_subgraph(
    h: EdgeRuns,
    psi: array,
    classified: Dict[Edge, int],
    k: int,
) -> Tuple[Graph, Set[Edge]]:
    """Restrict H to T_k-eligible edges; return it plus the candidates.

    The returned subgraph is a mutable :class:`Graph` — the level peel
    removes its edges one by one — but it is assembled in one pass over
    H's flat edge arrays, selecting by the eid-indexed ``psi``.
    """
    valid_edges: List[Edge] = []
    candidates: Set[Edge] = set()
    labels, eu, ev = h.labels, h.eu, h.ev
    for eid in range(h.num_edges):
        # labels ascend and eu < ev, so the key is canonical already
        e = (labels[eu[eid]], labels[ev[eid]])
        if e in classified:
            valid_edges.append(e)  # phi > k: a support provider
        elif psi[eid] >= k:
            valid_edges.append(e)
            candidates.add(e)
    return Graph(valid_edges), candidates


def _peel_candidates_partitioned(
    valid: Graph,
    candidates: Set[Edge],
    k: int,
    budget: MemoryBudget,
    partitioner: Partitioner,
) -> List[Edge]:
    """Procedure 10: block-local strict peeling iterated to fixpoint."""
    removed_all: List[Edge] = []
    live = set(candidates)
    capacity_boost = 1
    while True:
        source = PartitionSource.from_graph(valid)
        blocks = partition_with_escape(
            partitioner, source, budget, boost=capacity_boost
        )
        removed_round: List[Edge] = []
        for block in blocks:
            block_set = set(block)
            sub = Graph()
            for u in block:
                if not valid.has_vertex(u):
                    continue
                for w in valid.neighbors(u):
                    sub.add_edge(u, w)
            targets = {
                e
                for e in live
                if e[0] in block_set and e[1] in block_set and sub.has_edge(*e)
            }
            removed = peel_level(sub, targets, k, strict=True)
            for e in removed:
                valid.remove_edge(*e)
                live.discard(e)
            removed_round.extend(removed)
        if removed_round:
            removed_all.extend(removed_round)
            capacity_boost = 1
        elif len(blocks) <= 1:
            break
        else:
            capacity_boost *= 2
    return removed_all


def _prune_gnew(
    gnew: DiskEdgeFile,
    h: EdgeRuns,
    u_k: Set[int],
    classified: Dict[Edge, int],
    stats: DecompositionStats,
) -> None:
    """Procedure 8 Steps 7-9: drop classified edges whose every triangle
    (in Gnew, visible in full inside H for internal edges) is fully
    classified — they can no longer influence any lower class.

    Triangles are found by merging H's sorted CSR adjacency runs — the
    dict-free analogue of the old ``common_neighbors`` set probes.
    """
    prunable: Set[Edge] = set()
    labels, eu, ev = h.labels, h.eu, h.ev
    for eid in range(h.num_edges):
        iu, iv = eu[eid], ev[eid]
        u, v = labels[iu], labels[iv]
        e = (u, v)
        if e not in classified:
            continue
        if u not in u_k or v not in u_k:
            continue  # not internal: triangle set incomplete, keep
        fully_classified = True
        run_u, run_v = h.neighbors(iu), h.neighbors(iv)
        i = j = 0
        while i < len(run_u) and j < len(run_v):
            a, b = run_u[i], run_v[j]
            if a < b:
                i += 1
            elif b < a:
                j += 1
            else:
                w = labels[a]
                f1 = (u, w) if u < w else (w, u)
                f2 = (v, w) if v < w else (w, v)
                if f1 not in classified or f2 not in classified:
                    fully_classified = False
                    break
                i += 1
                j += 1
        if fully_classified:
            prunable.add(e)
    if prunable:
        stats.bump("pruned_edges", len(prunable))
        gnew.rewrite(
            lambda rec: None if (rec[0], rec[1]) in prunable else rec
        )


def truss_decomposition_topdown(
    g: Graph,
    t: Optional[int] = None,
    budget: Optional[MemoryBudget] = None,
    partitioner: Optional[Partitioner] = None,
    workdir: Optional[Path] = None,
    stats: Optional[IOStats] = None,
    use_kinit: bool = True,
) -> TrussDecomposition:
    """Run TD-topdown; compute the top-``t`` classes (all when ``t=None``).

    With ``t`` set, the returned decomposition is *partial*: it contains
    exactly the edges of the top-t classes (``kmax >= k > kmax - t``).
    With ``t=None`` it matches the other algorithms edge-for-edge.
    A vertex id outside the signed 64-bit range of the on-disk records
    raises :class:`DecompositionError` before any record is written.
    """
    if t is not None and t < 1:
        raise DecompositionError(f"top-t needs t >= 1, got {t}")
    require_int64_ids(g)
    stats = stats if stats is not None else IOStats()
    partitioner = partitioner if partitioner is not None else DominatingSetPartitioner()
    budget = budget if budget is not None else ample_budget(g)
    dstats = DecompositionStats(method="topdown", io=stats)

    classified: Dict[Edge, int] = {}
    phi2: List[Edge] = []
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        tmp = Path(tmp)
        g_file = DiskEdgeFile.from_edges(tmp / "input.bin", g.sorted_edges(), stats)
        # Step 1: exact supports over the full graph; Phi_2 peels off free
        sup_records = []
        for u, v, sup in external_edge_supports(
            g_file, budget, partitioner, tmp / "supwork", stats
        ):
            if sup == 0:
                phi2.append((u, v))
            else:
                sup_records.append((u, v, sup))
        sup_file = DiskEdgeFile.from_records(tmp / "sup.bin", sup_records, stats)
        del sup_records
        # Step 2: psi(e) upper bounds
        gnew = upper_bounding(sup_file, tmp / "gnew.bin", budget, stats)
        sup_file.delete()
        g_file.delete()

        k1st = 0
        for _u, _v, psi in gnew.scan():
            k1st = max(k1st, psi)
        dstats.record("k1st", k1st)

        kmax_found: Optional[int] = None
        k = k1st
        first_round = True
        while k >= 3 and not gnew.is_empty:
            if (
                t is not None
                and kmax_found is not None
                and k <= kmax_found - t
            ):
                break
            if first_round and use_kinit:
                kinit = _choose_kinit(gnew, budget, k1st)
                if kinit < k:
                    dstats.record("kinit", kinit)
                    k = kinit
            h, psi_of, u_k = _extract_candidate(gnew, classified, k)
            if not u_k:
                remaining = [
                    psi
                    for u, v, psi in gnew.scan()
                    if (u, v) not in classified
                ]
                if not remaining:
                    break
                k = min(k - 1, max(remaining))
                continue
            dstats.bump("candidate_rounds")
            dstats.record(
                "max_candidate_size",
                max(dstats.extra.get("max_candidate_size", 0), h.size),
            )
            valid, candidates = _valid_subgraph(h, psi_of, classified, k)
            if first_round and use_kinit and budget.fits(valid.size):
                # fast-forward: one in-memory decomposition classifies
                # every class >= k at once (classes >= kinit are exact
                # because T_j's edges all carry psi >= j >= kinit)
                local = truss_decomposition_improved(valid)
                newly = {
                    e: j for e, j in local.trussness.items() if j >= k
                }
                for e, j in newly.items():
                    classified[e] = j
                if newly:
                    kmax_found = max(newly.values())
                    dstats.record("kmax", kmax_found)
                _prune_gnew(gnew, h, u_k, classified, dstats)
                first_round = False
                k -= 1
                continue
            first_round = False
            # Procedure 8 (in-memory) or 10 (partitioned)
            if budget.fits(valid.size):
                survivors = set(candidates)
                for e in peel_level(valid, set(candidates), k, strict=True):
                    survivors.discard(e)
            else:
                dstats.bump("procedure10_rounds")
                removed = _peel_candidates_partitioned(
                    valid, set(candidates), k, budget, partitioner
                )
                survivors = set(candidates) - set(removed)
            for e in survivors:
                classified[e] = k
            if survivors and kmax_found is None:
                kmax_found = k
                dstats.record("kmax", kmax_found)
            _prune_gnew(gnew, h, u_k, classified, dstats)
            k -= 1
        gnew.delete()

    phi: Dict[Edge, int] = dict(classified)
    if t is None:
        for e in phi2:
            phi[e] = 2
    else:
        kmax = kmax_found if kmax_found is not None else 2
        cutoff = kmax - t
        phi = {e: j for e, j in phi.items() if j > cutoff}
        if cutoff < 2:  # the top-t window reaches down to the 2-class
            for e in phi2:
                phi[e] = 2
    dstats.record("classified_edges", len(phi))
    return TrussDecomposition(phi, stats=dstats)
