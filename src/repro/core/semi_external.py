"""The naive "run the in-memory algorithm against disk" baseline.

Section 3.3: when the graph exceeds memory, Algorithms 1/2 "reveal that
random access to vertices and edges stored on disk is necessary, which
can incur prohibitively high I/O cost ... the removal of an edge may
trigger the removal of other edges and this propagating effect can
spread to random locations in the graph."

This module makes that argument measurable.  It runs Algorithm 2's
peeling semantics, but the adjacency lists live on disk and are fetched
on demand through a bounded LRU
:class:`~repro.exio.bufferpool.BufferPool` — the "semi-external"
setting (O(m) edge state in memory, graph structure on disk).  Every
cache miss is a block read; every non-sequential fetch is a seek.  The
ablation benchmark contrasts its I/O against TD-bottomup under the same
memory, which is the paper's whole case for designing scan-based
algorithms.

Both sides of the disk boundary are plain integer arrays keyed by
canonical edge id: the edges of ``g.sorted_edges()`` in order, laid out
as the stdlib :class:`~repro.core.edge_runs.EdgeRuns` snapshot.  In
memory: one integer of state per edge — supports from
:func:`repro.triangles.support.edge_supports`, read in edge order,
liveness as a bytearray bitmap, ``phi`` as an ``array('q')``.  On disk:
the spill is the CSR adjacency itself — vertex ``i``'s record is its
run of ``(neighbor compact id, canonical eid)`` int64 pairs at byte
offset ``indptr[i] * 16``, written straight from ``EdgeRuns.indices``/
``EdgeRuns.eids`` — so reloads hand the peel both wing edge ids of
every triangle directly, with no hashed edge tuples, no per-record
vertex-id headers and no edge-id search on the hot path.
The peel loop's *I/O pattern* is untouched (two arbitrary-offset
fetches per removal, cascades landing anywhere), keeping the
random-access profile this baseline exists to measure.  Absolute block
counts are not comparable across this change, though: a record slot
widened from 8 bytes (neighbor id) to 16 (neighbor + eid), so each
fetch touches ~2x the pages of the old layout — the asserted
*orderings* against the scan-based methods are unaffected, only the
raw numbers shift.
"""

from __future__ import annotations

import struct
import tempfile
from array import array
from pathlib import Path
from typing import List, Optional, Tuple

from repro.core.decomposition import DecompositionStats, TrussDecomposition
from repro.core.edge_runs import EdgeRuns
from repro.exio.blockfile import BlockWriter
from repro.exio.bufferpool import BufferPool
from repro.exio.iostats import IOStats
from repro.exio.memory import MemoryBudget
from repro.graph.adjacency import Graph
from repro.triangles.support import edge_supports

#: one adjacency slot on disk: (neighbor compact id, canonical eid)
_PAIR = struct.Struct("<qq")


class _EidAdjacencySpill:
    """The CSR adjacency spilled/reloaded as flat eid-keyed int64 pairs.

    Spilling is one sequential pass over ``indices``/``eids`` (plain
    integer-array output, charged to the build's I/O stats); reloading
    vertex ``i`` is a single ``read_range`` of its run — the record
    offsets *are* ``indptr``, so no per-vertex offset dict exists.
    The returned run is sorted by neighbor id (CSR invariant), which
    is what lets the peel merge two runs instead of probing sets.
    """

    def __init__(
        self, runs: EdgeRuns, path: Path, build_stats: IOStats
    ) -> None:
        self.indptr = runs.indptr
        self.path = Path(path)
        self.pool: Optional[BufferPool] = None
        indices, eids = runs.indices, runs.eids
        with BlockWriter(self.path, build_stats) as w:
            for t in range(len(indices)):
                w.write(_PAIR.pack(indices[t], eids[t]))

    def fetch(self, i: int) -> List[Tuple[int, int]]:
        """Reload ``(neighbor, eid)`` pairs of compact vertex ``i``."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        blob = self.pool.read_range(lo * _PAIR.size, (hi - lo) * _PAIR.size)
        return list(_PAIR.iter_unpack(blob))


def truss_decomposition_semi_external(
    g: Graph,
    budget: Optional[MemoryBudget] = None,
    workdir: Optional[Path] = None,
    stats: Optional[IOStats] = None,
) -> TrussDecomposition:
    """Peel with on-disk adjacency and a memory-bounded page cache.

    The budget's unit count is converted to buffer-pool pages at one
    graph unit per stored word, mirroring how the same budget bounds the
    in-memory subgraphs of the external algorithms.  Results are
    identical to every other method; only the I/O profile differs —
    which is the measurement this baseline exists for.
    """
    stats = stats if stats is not None else IOStats()
    budget = budget if budget is not None else MemoryBudget(units=max(4, g.size))
    dstats = DecompositionStats(method="semi_external", io=stats)

    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        tmp = Path(tmp)
        # ---- Algorithm 2 semantics over disk-resident adjacency ----
        # in memory: one integer of state per edge (the semi-external
        # allowance), held in flat arrays indexed by canonical edge id;
        # on disk: the eid-keyed adjacency spill (the build's sequential
        # write is charged separately, like the old external-sort build)
        edges = g.sorted_edges()
        runs = EdgeRuns(edges)
        m = runs.num_edges
        sup = array("q", map(edge_supports(g).__getitem__, edges))
        eu, ev = runs.eu, runs.ev
        alive = bytearray(b"\x01") * m
        phi = array("q", [0]) * m

        build_stats = IOStats(block_size=stats.block_size)
        adj = _EidAdjacencySpill(runs, tmp / "g.eadj", build_stats)
        # pages worth `budget` units of 8-byte words
        pages = max(1, (budget.units * 8) // stats.block_size)
        with BufferPool(adj.path, stats, capacity_pages=pages) as pool:
            adj.pool = pool
            remaining = m
            k = 2
            while remaining:
                threshold = k - 2
                queue = [
                    e for e in range(m)
                    if alive[e] and sup[e] <= threshold
                ]
                if not queue:
                    k += 1
                    continue
                while queue:
                    e = queue.pop()
                    if not alive[e]:
                        continue
                    alive[e] = 0
                    remaining -= 1
                    phi[e] = k
                    # the random-access step the paper warns about: both
                    # endpoints' runs fetched from arbitrary disk pages,
                    # for every single removal in the cascade
                    run_u = adj.fetch(eu[e])
                    run_v = adj.fetch(ev[e])
                    # merge the sorted runs; a common neighbor closes a
                    # triangle and both wing eids come off the records
                    i = j = 0
                    while i < len(run_u) and j < len(run_v):
                        wu, fu = run_u[i]
                        wv, fv = run_v[j]
                        if wu < wv:
                            i += 1
                            continue
                        if wv < wu:
                            j += 1
                            continue
                        i += 1
                        j += 1
                        # the triangle was live only if both wings are
                        # (disk runs never shrink; liveness is edge state)
                        if alive[fu] and alive[fv]:
                            for f in (fu, fv):
                                sup[f] -= 1
                                if sup[f] <= threshold:
                                    queue.append(f)
                k += 1
            dstats.record("buffer_hits", pool.hits)
            dstats.record("buffer_misses", pool.misses)
            dstats.record("buffer_hit_rate", pool.hit_rate)
    dstats.record("kmax", max(phi, default=2))
    return TrussDecomposition.from_canonical(
        dict(zip(edges, phi)), stats=dstats
    )
