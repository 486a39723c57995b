"""The flat peeling engine: Algorithm 2 over integer edge arrays.

``truss_decomposition_flat`` computes the same trussness map as
:func:`repro.core.truss_improved.truss_decomposition_improved` but runs
the whole pipeline over the CSR snapshot's canonical edge ids instead
of dict-of-set adjacency: :func:`_peel_waves` is a level-synchronous
wave peel over the materialized triangle index in the shared-memory
style of Kabir & Madduri — same unique trussness map, 2-3x faster than
the improved method end to end.  The index itself comes from the
streaming builder (:mod:`repro.triangles.index_builder`), which keeps
it in RAM or spills it to a temporary directory by the input's size.
Both routes lay ``tinc`` out one wedge chunk at a time (one sort of
the chunk's keys, then a scatter at per-edge fill cursors); the ram
route keeps the enumerated chunks only until each is laid out, and
the mmap route holds no triangle-length array at all.

The wave peel needs numpy.  Without it, every CSR method (flat,
parallel, dist) fails with the kernel layer's one error
(:data:`repro.kernels.NUMPY_REQUIRED`) before it touches an array; the
paper's own stdlib peel, ``method="improved"``, is what runs there.

The flat integer substrate (``sup``/``alive``/``phi`` indexed by edge
id) is what the scaling work builds on: :mod:`repro.core.parallel`
fans the same waves out over a shared-memory worker pool, and the
streaming ingest
(:meth:`~repro.graph.csr.CSRGraph.from_edge_list_file`) feeds
:func:`truss_decomposition_flat` a ready CSR snapshot with no
dict-of-set round trip.  :func:`truss_decomposition_flat` is
:func:`peel_flat_arrays` — trussness and initial supports as arrays
in edge-id order, what :mod:`repro.stream` seeds its maintainer from
— plus :func:`result_from_phi`, which wraps ``phi`` and each edge's
endpoint labels as the result's columns; no dict is built unless a
caller asks for :attr:`~repro.core.decomposition.TrussDecomposition.trussness`.
"""

from __future__ import annotations

import tempfile
from time import perf_counter as _perf
from typing import Dict, Optional, Tuple

from repro.core.decomposition import (
    DecompositionStats,
    TrussDecomposition,
    require_int64_ids,
)
from repro.graph.csr import CSRGraph, sorted_unique
from repro.kernels import PeelKernel, get_kernel
from repro.obs import NULL_TRACER, CountingKernel
from repro.triangles.index_builder import (
    TriangleIndex,
    build_triangle_index,
)

try:  # the peel needs it; get_kernel reports its absence
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None


def run_wave_peel(
    m: int,
    views,
    collect,
    decrement,
    kernel: PeelKernel,
    split_frontier=None,
    split_hits=None,
    run_map=None,
    account_ipc: bool = False,
    tracer=None,
    metrics=None,
):
    """The level-synchronous wave peel, generic over its execution map.

    ``views`` holds the peel state (``sup``/``alive``/``tdead`` numpy
    arrays — local or shared-memory, the loop cannot tell).  Each wave
    runs ``collect`` over ``split_frontier(frontier)`` and
    ``decrement`` over ``split_hits(hit)`` through ``run_map``; with
    the defaults (identity split, inline map) this *is* the serial
    peel, and :mod:`repro.core.parallel` passes a worker pool's ``map``
    plus range partitioners to fan the same schedule out — one loop,
    one invariant, bit-identical results either way.

    The wave inner step itself — frontier pop, decrement-buffer merge,
    support/histogram commit — is executed by ``kernel``, a
    :class:`repro.kernels.PeelKernel` backend; ``collect``/``decrement``
    are expected to route to the same kernel's gather/count entry
    points, so the kernel layer is the only wave-step code path.

    At level ``k``, every live edge with support <= k-2 pops in one
    wave (Kabir & Madduri's shared-memory style; supports stay *exact*:
    each triangle decrements its partners once, when its first edge
    pops, with :func:`~repro.graph.csr.sorted_unique` deduping
    triangles reached from several frontier edges — across partitions
    too).  The level floor is tracked incrementally: ``hist`` counts
    alive edges per support value and is updated on every pop and
    decrement, so finding the next non-empty level is a monotone
    pointer advance instead of an ``O(m)`` ``sup[alive].min()``
    re-mask per level.

    With ``account_ipc`` the loop also totals the bytes of every array
    that crosses ``run_map`` (frontier partitions and triangle slices
    out, candidate lists and decrement buffers back) — the per-wave
    message volume of the pooled caller, reported as ``ipc_bytes`` in
    the wave stats (0 when not accounting: the inline map moves
    nothing).

    With a ``tracer`` whose ``enabled`` flag is set, every wave and
    level is emitted as a span (``wave``: k/frontier/killed/ipc_bytes,
    ``level``: k/waves/popped/floor) and ``metrics`` — when given —
    observes each frontier size into the
    ``repro_wave_frontier_edges`` histogram; the untraced path pays a
    single truthiness check per wave.

    Returns ``(phi, k, wave_stats)``.
    """
    identity = lambda x: [x]  # noqa: E731
    split_frontier = split_frontier or identity
    split_hits = split_hits or identity
    if run_map is None:
        run_map = lambda fn, parts: [fn(p) for p in parts]  # noqa: E731
    tr = tracer if tracer is not None else NULL_TRACER
    trace_on = tr.enabled
    sup, alive, tdead = views["sup"], views["alive"], views["tdead"]
    phi = _np.zeros(m, dtype=_np.int64)
    # alive-support histogram; supports only decrease, so its length is
    # fixed at the initial maximum and the floor pointer never retreats
    hist = _np.bincount(sup)
    floor = 0
    k = 2
    remaining = m
    waves = levels = max_wave = 0
    ipc_bytes = 0
    while remaining:
        while hist[floor] == 0:
            floor += 1
        if floor + 2 > k:
            k = floor + 2
        levels += 1
        if trace_on:
            level_t0 = _perf()
            level_waves = level_popped = 0
        frontier = _np.flatnonzero(alive & (sup <= k - 2))
        while frontier.size:
            waves += 1
            wave_size = int(frontier.size)
            max_wave = max(max_wave, wave_size)
            if trace_on:
                wave_t0 = _perf()
                wave_ipc0 = ipc_bytes
                level_waves += 1
                level_popped += wave_size
                if metrics is not None:
                    metrics.observe("repro_wave_frontier_edges", wave_size)
            kernel.pop_frontier(sup, alive, phi, hist, frontier, k)
            remaining -= int(frontier.size)
            # gather: destroyed-triangle candidates per partition, with
            # a cross-partition dedupe (one partition needs none)
            parts = split_frontier(frontier)
            hits = run_map(collect, parts)
            if account_ipc:
                ipc_bytes += sum(int(p.nbytes) for p in parts)
                ipc_bytes += sum(int(h.nbytes) for h in hits)
            hit = hits[0] if len(hits) == 1 else sorted_unique(
                _np.concatenate(hits)
            )
            if hit.size == 0:
                if trace_on:
                    tr.complete_span(
                        "wave", _perf() - wave_t0, k=int(k),
                        frontier=wave_size, killed=0,
                        ipc_bytes=ipc_bytes - wave_ipc0,
                    )
                break
            tdead[hit] = True
            # scatter: per-partition decrement buffers, merged exactly
            slices = split_hits(hit)
            buffers = run_map(decrement, slices)
            if account_ipc:
                ipc_bytes += sum(int(s.nbytes) for s in slices)
                ipc_bytes += sum(
                    int(b[0].nbytes) + int(b[1].nbytes) for b in buffers
                )
            touched, dec = kernel.merge_decrements(buffers)
            frontier = kernel.apply_decrements(sup, hist, touched, dec, k)
            if trace_on:
                tr.complete_span(
                    "wave", _perf() - wave_t0, k=int(k),
                    frontier=wave_size, killed=int(hit.size),
                    ipc_bytes=ipc_bytes - wave_ipc0,
                )
        if trace_on:
            tr.complete_span(
                "level", _perf() - level_t0, k=int(k),
                waves=level_waves, popped=level_popped, floor=int(floor),
            )
    return phi, k, {
        "waves": waves,
        "levels": levels,
        "max_wave": max_wave,
        "ipc_bytes": ipc_bytes,
    }


def _peel_state(tri: TriangleIndex, m: int) -> Dict[str, object]:
    """The mutable peel state over a built index: ``sup``/``alive``/``tdead``.

    One layout definition for the serial and the pooled peel, so the
    two can never drift on dtypes, sizing or key names.  Unlike the
    index these arrays are written every wave, so they always live in
    RAM (and in shared memory when a pool runs).
    """
    return {
        "sup": tri.initial_supports(),
        "alive": _np.ones(m, dtype=bool),
        "tdead": _np.zeros(tri.num_triangles, dtype=bool),
    }


def _peel_over_index(
    tri: TriangleIndex,
    m: int,
    stats: Optional[DecompositionStats],
    kern: PeelKernel,
    tracer=None,
) -> Tuple["_np.ndarray", "_np.ndarray", int]:
    """:func:`run_wave_peel` with the identity map over a built index.

    Returns ``(phi, sup, k)``: trussness and initial support per edge
    id (the supports are the index's incidence runs, so they cost no
    second triangle-counting pass), and the top level.
    """
    e1, e2, e3 = tri.e1, tri.e2, tri.e3
    tptr, tinc = tri.tptr, tri.tinc
    views = _peel_state(tri, m)
    if stats is not None:
        stats.record("index_storage", tri.storage)
        stats.record("triangles", tri.num_triangles)
    phi, k, wave_stats = run_wave_peel(
        m,
        views,
        lambda f: kern.gather_incident(tptr, tinc, f, views["tdead"]),
        lambda h: kern.count_decrements(
            e1, e2, e3, h, views["alive"]
        ),
        kernel=kern,
        tracer=tracer,
        metrics=stats.metrics if stats is not None else None,
    )
    if stats is not None:
        for key, value in wave_stats.items():
            stats.record(key, value)
    return phi, tri.initial_supports(), k


def _peel_waves(
    csr: CSRGraph,
    m: int,
    stats: Optional[DecompositionStats],
    kern: PeelKernel,
    tracer=None,
) -> Tuple["_np.ndarray", "_np.ndarray", int]:
    """Serial wave peeling over the streamed triangle index (numpy).

    The index is built by the streaming builder
    (:func:`repro.triangles.index_builder.build_triangle_index`) with
    ``storage="auto"``: plain ndarrays (the classic time/space trade of
    shared-memory truss codes) unless its size bound says to stream the
    O(|△G|) structure to disk and peel over read-only maps.
    """
    tr = tracer if tracer is not None else NULL_TRACER
    # a ram build leaves the tempdir empty; an mmap one lives only for
    # the peel
    with tempfile.TemporaryDirectory(prefix="repro-triidx-") as tmp:
        t0 = _perf()
        tri = build_triangle_index(csr, storage="auto", dirpath=tmp)
        _record_index_build(tri, _perf() - t0, stats, tr)
        return _peel_over_index(tri, m, stats, kern, tracer=tr)


def _record_index_build(tri, seconds, stats, tracer) -> None:
    """Log one index build into the stats gauges and the trace."""
    if stats is not None:
        stats.record("index_build_s", round(seconds, 6))
        stats.record("index_dtype", str(tri.dtype))
    if tracer.enabled:
        tracer.complete_span(
            "index_build", seconds,
            storage=str(tri.storage), triangles=int(tri.num_triangles),
            dtype=str(tri.dtype),
        )


def _as_csr(g) -> CSRGraph:
    """Accept either a mutable :class:`Graph` or a ready CSR snapshot.

    Passing a :class:`CSRGraph` (e.g. from the streaming file ingest)
    skips the dict-of-set round trip entirely.  The CSR arrays hold
    int64 ids, so a :class:`Graph` with a vertex id outside that range
    raises :class:`~repro.errors.DecompositionError` naming it.
    """
    if isinstance(g, CSRGraph):
        return g
    try:
        return CSRGraph.from_graph(g)
    except OverflowError:
        require_int64_ids(g)
        raise


def result_from_phi(
    csr: CSRGraph, phi, k: int, stats: DecompositionStats
) -> TrussDecomposition:
    """Package an edge-id-indexed ``phi`` array as a decomposition.

    The result holds columns, not a dict: the endpoint labels of every
    edge id, gathered from ``csr.labels``, next to ``phi`` itself as an
    int64 ndarray.  Edge-id order is ascending ``(u, v)`` order.
    """
    stats.record("kmax", k if csr.num_edges else 2)
    labels = csr.labels
    eu, ev = csr.edge_endpoints()
    return TrussDecomposition.from_columns(
        labels[eu], labels[ev], _np.asarray(phi, dtype=_np.int64),
        stats=stats,
    )


def peel_flat_arrays(csr: CSRGraph, trace=None):
    """The array core of :func:`truss_decomposition_flat`.

    Builds the triangle index, peels it and returns ``(phi, sup, k,
    stats)``: ``phi[e]`` and ``sup[e]`` are the trussness and initial
    support of edge id ``e`` of ``csr`` (int64 ndarrays), ``k`` the
    top level.  One index build yields both maps, which is what
    :meth:`repro.stream.TrussMaintainer.from_graph` seeds from.
    """
    kern = get_kernel()
    stats = DecompositionStats(method="flat")
    tr = trace if trace is not None else NULL_TRACER
    m = csr.num_edges
    if tr.enabled:
        tr.event("run_start", engine="flat", m=int(m), kernel=kern.name)
    if not m:
        empty = _np.zeros(0, dtype=_np.int64)
        return empty, empty, 2, stats
    stats.record("kernel", kern.name)
    if tr.enabled:
        kern = CountingKernel(kern)
    t0 = _perf()
    phi, sup, k = _peel_waves(csr, m, stats, kern, tracer=tr)
    build_s = stats.metrics.value("index_build_s") or 0.0
    peel_s = max(_perf() - t0 - build_s, 0.0)
    stats.record("peel_s", round(peel_s, 6))
    if tr.enabled:
        tr.complete_span("peel", peel_s, engine="flat")
        kern.flush_into(stats.metrics)
    return phi, sup, k, stats


def truss_decomposition_flat(g, trace=None) -> TrussDecomposition:
    """Run Algorithm 2 over flat edge arrays.

    ``g`` may be a :class:`Graph` (snapshotted, not modified) or a
    :class:`CSRGraph` built by the streaming ingest.  The wave step
    runs on the process's backend (:func:`repro.kernels.get_kernel`).
    ``trace`` takes an enabled :class:`repro.obs.Tracer` to emit the
    run's spans and events into (``None``: the no-op tracer).
    """
    csr = _as_csr(g)
    phi, _sup, k, stats = peel_flat_arrays(csr, trace)
    return result_from_phi(csr, phi, k, stats)
