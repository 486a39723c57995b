"""The library's front door: uniform truss-decomposition entry points.

``truss_decomposition(g, method=...)`` dispatches to the paper's
implementations plus this repo's flat engine; ``k_truss``/
``trussness``/``top_t_classes`` are the conveniences most applications
want.

Methods:

========== ==================================== =========================
name       algorithm                             when to use
========== ==================================== =========================
improved   Algorithm 2 (TD-inmem+)               default; graph fits RAM
flat       Algorithm 2 over flat edge-id arrays  fastest serial path
parallel   shared-memory parallel wave peel      multi-core machines
dist       rank-distributed wave peel            graph exceeds one node
baseline   Algorithm 1 (TD-inmem, Cohen)         comparison only
bottomup   Algorithms 3+4 (TD-bottomup)          graph exceeds memory
topdown    Algorithm 7 (TD-topdown)              only the top-t classes
mapreduce  Cohen's TD-MR                         comparison only
========== ==================================== =========================

``flat`` (see :mod:`repro.core.flat`) is not in the paper: it peels
the same levels as ``improved``, as level-synchronous waves over the
CSR snapshot's canonical edge ids — integer arrays instead of
dict-of-set adjacency.  The three CSR methods need numpy; without it
they raise one :class:`~repro.errors.DecompositionError` that names it
and points at ``improved``, which, like every method of the paper, is
pure stdlib.  Their wave step runs on the process's backend from
:mod:`repro.kernels` — numba's when it imports, numpy's otherwise —
which no argument picks: the backends are bit-identical.
``parallel`` (see :mod:`repro.core.parallel`) fans the flat engine's
level-synchronous waves out over a pool of worker processes sharing
the triangle index through ``multiprocessing.shared_memory``; the
``jobs`` knob sets the worker count.  ``dist`` (see
:mod:`repro.core.dist` and :mod:`repro.dist`) replaces the pool
barriers with a real message transport: one rank process/thread per
static edge shard, exchanging candidate/dead-triangle buffers over
in-process queues (``transport="loopback"``) or length-prefixed
localhost sockets (``transport="tcp"``), with the triangle dedupe
hash-partitioned across ranks so no node holds the global triangle
state.  All three peel over one shared triangle-index pipeline — the
streaming builder of :mod:`repro.triangles.index_builder`, which keeps
the index in RAM or streams it to the on-disk mmap layout (holding
build memory at O(m + chunk)) by the input's size; ``dist`` always
streams it, since its ranks map the files.  All three accept a ready
:class:`~repro.graph.csr.CSRGraph` in place of a ``Graph``, and
:func:`decompose_file` feeds them straight from an edge-list file via
the dict-free streaming ingest.

An engine's module is imported when a call first dispatches to it, so
a process loads only the methods it runs.  The flat engine is the
exception: ``truss_decomposition_flat`` stays a module global, looked
up there on every call, because the benchmark's layer timing
(``perfbench/layers.py``) rebinds it in this module.
"""

from __future__ import annotations

import time as _time
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.decomposition import TrussDecomposition
from repro.core.flat import truss_decomposition_flat
from repro.errors import DecompositionError
from repro.graph.adjacency import Graph
from repro.graph.csr import CSRGraph
from repro.graph.edges import Edge
from repro.kernels import get_kernel
from repro.obs import open_tracer

if TYPE_CHECKING:
    from repro.exio.iostats import IOStats
    from repro.exio.memory import MemoryBudget
    from repro.partition.base import Partitioner

METHODS = (
    "improved", "flat", "parallel", "dist", "baseline", "bottomup",
    "topdown", "mapreduce",
)

#: methods that peel over the CSR substrate and accept it directly —
#: these ride the dict-free file ingest in :func:`decompose_file`
CSR_METHODS = ("flat", "parallel", "dist")


def truss_decomposition(
    g: Graph,
    method: str = "improved",
    *,
    memory_budget: Optional[MemoryBudget] = None,
    partitioner: Optional[Partitioner] = None,
    workdir: Optional[Path] = None,
    io_stats: Optional[IOStats] = None,
    top_t: Optional[int] = None,
    jobs: Optional[int] = None,
    ranks: Optional[int] = None,
    transport: Optional[str] = None,
    timeout: Optional[float] = None,
    on_failure: Optional[str] = None,
    trace=None,
    trace_path=None,
) -> TrussDecomposition:
    """Compute the truss decomposition of ``g``.

    Args:
        g: the input graph (undirected, simple).  The CSR methods
            (:data:`CSR_METHODS`) also accept a ready
            :class:`~repro.graph.csr.CSRGraph` snapshot.
        method: one of :data:`METHODS`.
        memory_budget: simulated memory ``M`` for the external methods.
        partitioner: partitioning strategy for the external methods.
        workdir: scratch directory for spill files (temp dir by default).
        io_stats: block-I/O counter to populate (external methods).
        top_t: with ``method='topdown'``, compute only the top-t classes.
        jobs: with ``method='parallel'``, the worker-process count
            (``None``: auto — serial on small graphs, one worker per
            core otherwise).
        ranks: with ``method='dist'``, the rank count — one owned
            static edge shard per rank (``None``: auto, like ``jobs``).
        transport: with ``method='dist'``, the message fabric:
            ``"loopback"`` (default, in-process queues) or ``"tcp"``
            (rank processes over framed localhost sockets).
        timeout: with ``method='dist'``, the deadline in seconds for
            any single blocking transport step (socket/queue receives,
            mesh dial, the driver's gather loops); ``None`` uses the
            built-in default.
        on_failure: with ``method='dist'``, the supervisor's policy
            when a rank dies mid-run — ``"raise"`` (default, fail
            fast), ``"retry"`` (respawn the mesh and rewind to the
            newest common checkpoint barrier, bounded by a retry
            budget) or ``"fallback_flat"`` (retry, then degrade to the
            in-process flat engine instead of raising).
        trace: an enabled :class:`repro.obs.Tracer` to receive the
            run's structured trace (spans, events, degradation
            warnings) — see :mod:`repro.obs` for the schema.  The CSR
            methods emit their full wave/level timelines; every other
            method emits a whole-run ``decompose`` span.
        trace_path: write the trace to this JSONL file instead —
            opened, flushed and closed here.  Mutually exclusive with
            ``trace``.

    Returns:
        A :class:`TrussDecomposition`; for ``top_t`` runs it is partial
        (contains only the requested classes).
    """
    gated = (
        ("jobs", jobs, "parallel"),
        ("ranks", ranks, "dist"),
        ("transport", transport, "dist"),
        ("timeout", timeout, "dist"),
        ("on_failure", on_failure, "dist"),
    )
    bad = [
        name for name, value, owner in gated
        if value is not None and method != owner
    ]
    if bad:
        raise DecompositionError(
            f"method {method!r} does not accept: {', '.join(bad)}"
        )
    if isinstance(g, CSRGraph) and method not in CSR_METHODS:
        raise DecompositionError(
            f"method {method!r} needs a mutable Graph; CSR snapshots are "
            f"accepted by {', '.join(CSR_METHODS)}"
        )
    try:
        tracer, owned = open_tracer(trace, trace_path)
    except ValueError as exc:
        raise DecompositionError(str(exc)) from None

    def dispatch() -> TrussDecomposition:
        if method == "improved":
            from repro.core.truss_improved import truss_decomposition_improved

            _reject_external_args(method, memory_budget, partitioner, io_stats, top_t)
            return truss_decomposition_improved(g)
        if method == "flat":
            _reject_external_args(method, memory_budget, partitioner, io_stats, top_t)
            return truss_decomposition_flat(g, trace=tracer)
        if method == "parallel":
            from repro.core.parallel import truss_decomposition_parallel

            _reject_external_args(method, memory_budget, partitioner, io_stats, top_t)
            return truss_decomposition_parallel(
                g, jobs=jobs, trace=tracer,
            )
        if method == "dist":
            from repro.core.dist import truss_decomposition_dist

            _reject_external_args(method, memory_budget, partitioner, io_stats, top_t)
            return truss_decomposition_dist(
                g, ranks=ranks, transport=transport, timeout=timeout,
                on_failure=on_failure, trace=tracer,
            )
        if method == "baseline":
            from repro.core.truss_baseline import truss_decomposition_baseline

            _reject_external_args(method, memory_budget, partitioner, io_stats, top_t)
            return truss_decomposition_baseline(g)
        if method == "bottomup":
            from repro.core.bottomup import truss_decomposition_bottomup

            if top_t is not None:
                raise DecompositionError(
                    "top_t is only meaningful for method='topdown'"
                )
            return truss_decomposition_bottomup(
                g,
                budget=memory_budget,
                partitioner=partitioner,
                workdir=workdir,
                stats=io_stats,
            )
        if method == "topdown":
            from repro.core.topdown import truss_decomposition_topdown

            return truss_decomposition_topdown(
                g,
                t=top_t,
                budget=memory_budget,
                partitioner=partitioner,
                workdir=workdir,
                stats=io_stats,
            )
        if method == "mapreduce":
            from repro.core.mapreduce_truss import truss_decomposition_mapreduce

            _reject_external_args(method, memory_budget, partitioner, io_stats, top_t)
            return truss_decomposition_mapreduce(g)
        raise DecompositionError(
            f"unknown method {method!r}; expected one of {METHODS}"
        )

    try:
        if method in CSR_METHODS or not tracer.enabled:
            return dispatch()
        # the non-CSR methods are not internally instrumented; give
        # their traces a run_start and one whole-run span so every
        # method's trace is renderable by the same report
        tracer.event(
            "run_start", engine=method,
            m=int(getattr(g, "num_edges", 0) or 0),
        )
        t0 = _time.perf_counter()
        td = dispatch()
        tracer.complete_span(
            "decompose", _time.perf_counter() - t0, method=method
        )
        return td
    finally:
        if owned:
            tracer.close()


def _reject_external_args(method, memory_budget, partitioner, io_stats, top_t):
    extras = {
        "memory_budget": memory_budget,
        "partitioner": partitioner,
        "io_stats": io_stats,
        "top_t": top_t,
    }
    bad = [name for name, value in extras.items() if value is not None]
    if bad:
        raise DecompositionError(
            f"method {method!r} does not accept: {', '.join(bad)}"
        )


def decompose_file(
    path,
    method: str = "flat",
    *,
    jobs: Optional[int] = None,
    ranks: Optional[int] = None,
    transport: Optional[str] = None,
    timeout: Optional[float] = None,
    on_failure: Optional[str] = None,
    trace=None,
    trace_path=None,
    **kwargs,
) -> TrussDecomposition:
    """Truss-decompose an edge-list file, riding the ingest fast path.

    For the CSR-substrate methods (:data:`CSR_METHODS`) the file is
    streamed straight into a :class:`~repro.graph.csr.CSRGraph` via
    :meth:`~repro.graph.csr.CSRGraph.from_edge_list_file` — no
    dict-of-set ``Graph`` is ever built, which is ~2x end-to-end on
    parse-dominated inputs; their wave-step backend is chosen first
    (:func:`repro.kernels.get_kernel`), so a missing numpy fails before
    the file is read.  Every other method falls back to
    ``read_edge_list`` and the normal dispatcher (``kwargs`` are passed
    through to :func:`truss_decomposition`).
    """
    if method in CSR_METHODS:
        get_kernel()
        csr = CSRGraph.from_edge_list_file(path)
        return truss_decomposition(
            csr, method=method, jobs=jobs, ranks=ranks,
            transport=transport, timeout=timeout,
            on_failure=on_failure, trace=trace,
            trace_path=trace_path, **kwargs
        )
    from repro.graph.io import read_edge_list

    return truss_decomposition(
        read_edge_list(path), method=method, jobs=jobs,
        ranks=ranks, transport=transport, timeout=timeout,
        on_failure=on_failure, trace=trace,
        trace_path=trace_path, **kwargs
    )


def apply_updates(
    g,
    updates,
    *,
    batch_size: int = 1,
    trace=None,
    trace_path=None,
) -> TrussDecomposition:
    """Decompose ``g``, then maintain trussness through ``updates``.

    The incremental write path (see :mod:`repro.stream`): ``g`` (a
    :class:`Graph` or CSR snapshot) is decomposed once with the flat
    engine, then each ``(op, u, v)`` update — ``op`` is ``"insert"``/
    ``"+"`` or ``"delete"``/``"-"`` — repairs only the bounded
    affected region instead of re-peeling the whole graph.
    ``batch_size`` groups updates into batches repaired once each
    (``apply_batch``); the result is bit-identical either way.
    ``trace``/``trace_path`` capture the seeding decomposition and
    every repair as a structured trace, exactly like
    :func:`truss_decomposition`.
    """
    from repro.stream import TrussMaintainer

    if batch_size < 1:
        raise DecompositionError(
            f"batch_size must be >= 1, got {batch_size}"
        )
    try:
        tracer, owned = open_tracer(trace, trace_path)
    except ValueError as exc:
        raise DecompositionError(str(exc)) from None
    try:
        tm = TrussMaintainer.from_graph(g, trace=tracer)
        ups = list(updates)
        for i in range(0, len(ups), batch_size):
            tm.apply_batch(ups[i : i + batch_size])
        return tm.as_decomposition()
    finally:
        if owned:
            tracer.close()


def trussness(g: Graph, method: str = "improved") -> Dict[Edge, int]:
    """The ``phi(e)`` map of every edge."""
    return dict(truss_decomposition(g, method=method).trussness)


def k_truss(g: Graph, k: int, method: str = "improved") -> Graph:
    """The k-truss subgraph of ``g`` (``T_2 = g`` by definition)."""
    if k < 2:
        raise DecompositionError(f"k-truss is defined for k >= 2, got {k}")
    if k == 2:
        out = g.copy()
        out.drop_isolated_vertices()
        return out
    return truss_decomposition(g, method=method).k_truss(k)


def top_t_classes(
    g: Graph, t: int, method: str = "topdown"
) -> Dict[int, List[Edge]]:
    """The classes ``Phi_k`` for ``kmax >= k > kmax - t``."""
    if method == "topdown":
        td = truss_decomposition(g, method="topdown", top_t=t)
        kmax = td.kmax
        return {k: td.k_class(k) for k in range(kmax, max(kmax - t, 1), -1)}
    return truss_decomposition(g, method=method).top_classes(t)
