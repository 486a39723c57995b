"""Parallel level-synchronous wave peeling over shared-memory flat arrays.

``truss_decomposition_parallel`` runs the same wave peel as
:func:`repro.core.flat._peel_waves` — identical trussness map, bit for
bit — but fans each wave's frontier out over a persistent pool of
worker processes, in the shared-memory style of Kabir & Madduri's PKT
(arXiv:1707.02000); the level-synchronous frontier structure also
matches Jakkula & Karypis's batch formulation (arXiv:1908.10550).

Layout
------
The mutable peel state — the support array and the ``alive``/``tdead``
bitmaps — lives in :mod:`multiprocessing.shared_memory` blocks wrapped
as numpy views, so workers attach once (pool initializer) and never
receive more than their slice of the current frontier over the IPC
channel.  The read-only O(|△G|) triangle index (``e1``/``e2``/``e3``
edge columns, the ``tptr``/``tinc`` edge->triangle incidence) comes
from the streaming builder (:mod:`repro.triangles.index_builder`),
which picks its route by size, and travels by that route: an index in
RAM is shared through the same shm blocks; one streamed to disk is
mapped read-only by every process (coordinator and workers alike) —
the page cache is the sharing medium and no triangle-length shm copy
exists.
Zero-length arrays (a triangle-free graph has empty
``e1``/``tinc``/``tdead``) are never backed by a shared block at all —
each worker materializes its own empty view.

Wave protocol
-------------
The pool runs :func:`repro.core.flat.run_wave_peel`, the serial
engine's own loop, with a worker pool's ``map`` and two range
partitioners plugged in.  Every wave's frontier is re-partitioned into
fresh contiguous edge-id ranges and all mutable state stays
coordinator-merged; each wave is two synchronous phases over the pool:

1. **collect** — the frontier, already sorted by edge id, is
   partitioned into contiguous edge-id ranges (balanced by incidence
   count); each worker gathers its edges' incidence slots and returns
   the still-live triangle ids it destroyed.  The coordinator unions
   the per-partition candidates (``np.unique`` dedupes triangles
   reached from two frontier edges in different partitions) and marks
   them dead — the cross-partition analogue of the serial ``tdead``
   dedupe, so supports stay *exact*, never clamped;
2. **decrement** — the dead-triangle list is range-partitioned; each
   worker emits a per-partition decrement buffer ``(edge ids, counts)``
   for the surviving partner edges, and the coordinator merges the
   buffers with one bincount reduction, updates supports and the
   alive-support histogram, and gathers the next frontier from the
   touched edges that fell to the floor.

Both phases are barriers and workers only read the shared blocks, so
no locks are needed.  The owner-computes alternative, where each
worker keeps one edge-id shard for the whole peel and the routed
buffers are real messages, is ``method="dist"`` (:mod:`repro.core.dist`).

``jobs=1`` executes the identical protocol in-process (no pool, no
shared-memory copies), which is also the fallback when the graph is
too small for process fan-out to pay (see ``_resolve_jobs``).  Like
every CSR method it needs numpy; without it the kernel layer's one
error names ``method="improved"``, which runs on the stdlib.

Scaling expectations: each wave costs two IPC round trips, so speedup
appears once waves are large (massive graphs, small kmax) and cores
are real; on a single-core container or CI runner the pool can only
add overhead — ``benchmarks/bench_ablation_parallel_scaling.py``
measures exactly where the crossover lands.
"""

from __future__ import annotations

import os
import tempfile
from multiprocessing import get_context, shared_memory as _shm
from time import perf_counter as _perf
from typing import Dict, List, Optional, Tuple

from repro.core.decomposition import DecompositionStats, TrussDecomposition
from repro.core.flat import (
    _as_csr,
    _peel_state,
    _record_index_build,
    result_from_phi,
    run_wave_peel,
)
from repro.errors import DecompositionError
from repro.kernels import PeelKernel, get_kernel
from repro.obs import NULL_TRACER, CountingKernel
from repro.graph.csr import CSRGraph
from repro.partition.edge_shards import balanced_prefix_cuts
from repro.triangles.index_builder import (
    TriangleIndex,
    build_triangle_index,
)

try:  # the peel needs it; get_kernel reports its absence
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: below this edge count, ``jobs=None`` resolves to a serial run — the
#: per-wave IPC round trips dominate any fan-out win on small graphs
_MIN_PARALLEL_EDGES = 50_000

#: worker-side state: name -> numpy view over an attached shm block
_WORKER_VIEWS: Dict[str, object] = {}

#: worker-side kernel backend: the coordinator's, pinned by the pool
#: initializer so one peel runs one backend
_WORKER_KERNEL: Optional[PeelKernel] = None


def _resolve_jobs(jobs: Optional[int], m: int) -> int:
    """An explicit ``jobs`` is honored exactly; ``None`` is heuristic."""
    if jobs is not None:
        if jobs < 1:
            raise DecompositionError(f"need at least 1 job, got {jobs}")
        return int(jobs)
    if m < _MIN_PARALLEL_EDGES:
        return 1
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------
def _attach_worker(
    spec: Dict[str, Tuple[Optional[str], tuple, str]],
    index_dir: Optional[str],
    kernel: PeelKernel,
) -> None:
    """Pool initializer: pin the coordinator's ``kernel`` and map every
    shared block as a numpy view.

    Attaching must not register the blocks with the worker's resource
    tracker: the coordinator owns their lifetime, and a worker-side
    registration would either double-unregister (fork start method,
    where the tracker process is shared) or unlink-on-worker-exit
    (spawn).  Python 3.13 has ``track=False`` for this; here the
    registration is suppressed for the duration of the attach.

    A ``None`` block name marks a zero-length array (no shared block
    exists — there are no bytes to share); the worker materializes its
    own empty view.

    With ``index_dir`` set, the read-only triangle index is *not* in
    shared memory at all: the worker opens the on-disk
    :class:`~repro.triangles.index_builder.TriangleIndex` memory-mapped
    — every process shares the page cache, exactly like the dist ranks.
    """
    from multiprocessing import resource_tracker

    global _WORKER_KERNEL
    _WORKER_KERNEL = kernel
    _WORKER_VIEWS.clear()
    segments = []
    original_register = resource_tracker.register
    resource_tracker.register = lambda name, rtype: None
    try:
        for name, (shm_name, shape, dtype) in spec.items():
            if shm_name is None:
                _WORKER_VIEWS[name] = _np.zeros(shape, dtype=dtype)
                continue
            seg = _shm.SharedMemory(name=shm_name)
            segments.append(seg)
            _WORKER_VIEWS[name] = _np.ndarray(
                shape, dtype=dtype, buffer=seg.buf
            )
    finally:
        resource_tracker.register = original_register
    if index_dir is not None:
        tri = TriangleIndex.open(index_dir)
        for name in TriangleIndex.FIELDS:
            _WORKER_VIEWS[name] = getattr(tri, name)
    _WORKER_VIEWS["_segments"] = segments  # keep the mappings alive


def _collect_hits(frontier):
    """Phase 1 (in a worker): destroyed triangles for a frontier slice.

    A picklable module-level shim over the pinned kernel's incidence
    gather (:meth:`repro.kernels.PeelKernel.gather_incident`), reading
    the shared-memory views this worker attached at pool init.
    """
    views = _WORKER_VIEWS
    return _WORKER_KERNEL.gather_incident(
        views["tptr"], views["tinc"], frontier, views["tdead"]
    )


def _count_decrements(hit):
    """Phase 2 (in a worker): the decrement buffer for a triangle slice."""
    views = _WORKER_VIEWS
    return _WORKER_KERNEL.count_decrements(
        views["e1"], views["e2"], views["e3"], hit, views["alive"]
    )


# ---------------------------------------------------------------------------
# coordinator side
# ---------------------------------------------------------------------------
def _split_weighted(frontier, tptr, jobs: int) -> List:
    """Contiguous edge-id-range partition, balanced by incidence count.

    Same charge and cut rule as the dist engine's edge-shard planner
    (:func:`repro.partition.edge_shards.balanced_prefix_cuts`), so the
    two fan-outs can never drift apart on the cost model.
    """
    if jobs <= 1 or frontier.size <= 1:
        return [frontier]
    cuts = balanced_prefix_cuts(tptr[frontier + 1] - tptr[frontier], jobs)
    return _np.split(frontier, cuts)


class _SharedBlocks:
    """Owner of the peel state's shared-memory segments.

    Zero-length arrays get no segment (``SharedMemory`` of size 0 is
    invalid and there is nothing to share anyway); their spec entry
    carries ``None`` for the block name and workers build their own
    empty views.
    """

    def __init__(self, arrays: Dict[str, object]) -> None:
        self.segments = []
        self.views: Dict[str, object] = {}
        self.spec: Dict[str, Tuple[Optional[str], tuple, str]] = {}
        try:
            for name, arr in arrays.items():
                if arr.nbytes == 0:
                    self.views[name] = arr
                    self.spec[name] = (None, arr.shape, arr.dtype.str)
                    continue
                seg = _shm.SharedMemory(create=True, size=arr.nbytes)
                self.segments.append(seg)
                view = _np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
                view[...] = arr
                self.views[name] = view
                self.spec[name] = (seg.name, arr.shape, arr.dtype.str)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        for seg in self.segments:
            try:
                seg.close()
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass


def _peel_waves_shared(
    csr: CSRGraph,
    m: int,
    jobs: int,
    stats: DecompositionStats,
    base: PeelKernel,
    tracer=None,
) -> Tuple["_np.ndarray", int]:
    """The wave peel of ``flat``, fanned out over ``jobs`` workers.

    One loop — :func:`repro.core.flat.run_wave_peel` — serves jobs=1
    and jobs>1 alike, so the wave/level schedule (and therefore the
    trussness map) is identical by construction across worker counts.
    With ``jobs=1`` the phases run inline on plain local arrays; with
    ``jobs>1`` the mutable peel state is copied into shared memory
    once, a persistent pool attaches to it, and every wave is two
    ``pool.map`` barriers.  The triangle index comes from the
    streaming builder (``storage="auto"``): an index in RAM is shared
    with the workers through the same shm blocks, one spilled to disk
    is mapped read-only by every process (no triangle-length shm copy
    exists anywhere).  Every worker pins ``base``, the coordinator's
    backend.
    """
    tr = tracer if tracer is not None else NULL_TRACER
    kern = CountingKernel(base) if tr.enabled else base
    with tempfile.TemporaryDirectory(prefix="repro-triidx-") as tmp:
        t0 = _perf()
        tri = build_triangle_index(csr, storage="auto", dirpath=tmp)
        _record_index_build(tri, _perf() - t0, stats, tr)
        stats.record("index_storage", tri.storage)
        state = _peel_state(tri, m)
        tptr, tinc = tri.tptr, tri.tinc
        e1, e2, e3 = tri.e1, tri.e2, tri.e3
        blocks = None
        pool = None
        try:
            t_peel = _perf()
            if jobs > 1:
                # the index crosses to the workers as shm blocks (ram)
                # or as the mmapped files themselves (mmap); the
                # mutable state is always shm
                if tri.storage == "mmap":
                    blocks = _SharedBlocks(state)
                    initargs = (blocks.spec, str(tri.dirpath), base)
                else:
                    index = {
                        name: getattr(tri, name)
                        for name in TriangleIndex.FIELDS
                    }
                    blocks = _SharedBlocks({**index, **state})
                    initargs = (blocks.spec, None, base)
                pool = get_context().Pool(
                    processes=jobs,
                    initializer=_attach_worker,
                    initargs=initargs,
                )
                phi, k, wave_stats = run_wave_peel(
                    m,
                    blocks.views,
                    _collect_hits,  # workers read attached views
                    _count_decrements,
                    kernel=kern,
                    split_frontier=lambda f: _split_weighted(f, tptr, jobs),
                    split_hits=lambda h: _np.array_split(h, jobs),
                    run_map=pool.map,
                    account_ipc=True,
                    tracer=tr,
                    metrics=stats.metrics,
                )
            else:
                # inline closures over the local arrays: no pool, no
                # shared memory, no module globals — one kernel instance
                phi, k, wave_stats = run_wave_peel(
                    m,
                    state,
                    lambda f: kern.gather_incident(
                        tptr, tinc, f, state["tdead"]
                    ),
                    lambda h: kern.count_decrements(
                        e1, e2, e3, h, state["alive"]
                    ),
                    kernel=kern,
                    tracer=tr,
                    metrics=stats.metrics,
                )
            peel_s = _perf() - t_peel
            stats.record("peel_s", round(peel_s, 6))
            for key, value in wave_stats.items():
                stats.record(key, value)
            stats.record("triangles", tri.num_triangles)
            if tr.enabled:
                tr.complete_span("peel", peel_s, engine="parallel",
                                 jobs=int(jobs))
                kern.flush_into(stats.metrics)
            return phi, k
        finally:
            if pool is not None:
                pool.close()
                pool.join()
            if blocks is not None:
                blocks.close()


def truss_decomposition_parallel(
    g,
    jobs: Optional[int] = None,
    trace=None,
) -> TrussDecomposition:
    """Truss-decompose ``g`` with the shared-memory parallel wave peel.

    Args:
        g: a :class:`~repro.graph.adjacency.Graph` (snapshotted, not
            modified) or a :class:`CSRGraph` from the streaming ingest.
        jobs: worker processes.  ``None`` picks ``os.cpu_count()`` for
            graphs with at least ``_MIN_PARALLEL_EDGES`` edges and a
            serial in-process run below that; an explicit value is
            honored exactly (``jobs=1`` forces the serial path) and
            must be at least 1.

    The coordinator's backend (:func:`repro.kernels.get_kernel`) is
    pinned on every pool worker.  Returns the identical trussness map
    as ``method="flat"`` and ``method="improved"`` — neither the worker
    count, the index storage nor the backend changes the wave schedule.
    """
    kern = get_kernel()
    njobs = _resolve_jobs(jobs, g.num_edges)
    stats = DecompositionStats(method="parallel")
    tr = trace if trace is not None else NULL_TRACER
    csr = _as_csr(g)
    m = csr.num_edges
    stats.record("jobs", njobs)
    stats.record("kernel", kern.name)
    if tr.enabled:
        tr.event("run_start", engine="parallel", m=int(m),
                 kernel=kern.name, jobs=int(njobs))
    if not m:
        return result_from_phi(csr, _np.zeros(0, _np.int64), 2, stats)
    phi, k = _peel_waves_shared(csr, m, njobs, stats, kern, tracer=tr)
    return result_from_phi(csr, phi, k, stats)
