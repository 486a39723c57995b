"""``repro.obs`` — the telemetry spine under every engine.

One tracing + metrics subsystem threaded through the flat, parallel,
distributed and streaming engines, so a run can be profiled and a
degraded run diagnosed from its trace alone.  Thread it through the
API as ``truss_decomposition(..., trace_path="run.jsonl")`` /
``apply_updates(..., trace_path=...)`` or the CLI's ``--trace FILE`` /
``--metrics FILE``, and render it with ``repro trace-report FILE``.
When no tracer is passed, engines hold the shared
:data:`~repro.obs.tracer.NULL_TRACER` and the hot path pays exactly
one ``tracer.enabled`` attribute check per guard.

Trace event schema
------------------
A trace is JSONL — one event object per line, validated by
:func:`repro.obs.schema.validate_event` (see that module for the field
table: ``ts``/``kind``/``name``/``dur``/``level``/``rank``/``attrs``).
Every engine emits the same catalogue:

**Spans** (``kind="span"``, carry ``dur`` seconds):

``index_build``
    the triangle-index build — attrs ``storage``, ``triangles``.
``peel``
    the whole peel loop — attrs ``engine`` and the engine's knobs
    (``jobs`` for parallel, ``ranks``/``transport`` for dist).
``wave``
    one wave of the level-synchronous peel — attrs ``k`` (level),
    ``frontier`` (edges popped), ``killed`` (triangles destroyed);
    parallel adds ``ipc_bytes``, dist ranks add ``bytes``/``frames``
    (transport traffic this wave).  In dist traces each rank emits its
    own ``wave`` stream (tagged ``rank``).
``level``
    one support level — attrs ``k``, ``waves``, ``popped``, ``floor``.
``repair``
    one incremental repair (stream) — attrs ``updates``, ``region``,
    ``frozen``, ``triangles``, ``truncated``.
``decompose``
    whole-run span for the non-CSR legacy methods — attrs ``method``.
``recover`` / ``publish``
    the truss server's startup recovery (attrs ``gen``, ``replayed``,
    ``from_snapshot``) and snapshot publication (attrs ``gen``,
    ``edges``, ``wal_seq``) — see :mod:`repro.serve`.
``request``
    one server HTTP request — attrs ``route``, ``status``, ``stale``,
    ``method``; ``repro trace-report`` aggregates these into the
    per-route latency table.

**Events** (``kind="event"``, instantaneous):

``run_start``
    emitted once per engine run — attrs ``engine``, ``m`` (edges),
    the wave-step backend (``kernel``) and the resolved knobs.
``checkpoint``
    a dist rank wrote a wave checkpoint — attrs ``epoch``, ``waves``.
``degraded``
    **warning level**: a silent degradation path triggered — attrs
    ``path`` naming it (``stream_full_repeel``, ``dist_retry``,
    ``dist_fallback_flat``, ``serve_torn_snapshot``,
    ``serve_wal_torn``)
    plus context.  Every ``degraded`` event also bumps the
    ``repro_degraded_total{path=...}`` counter, so degraded runs are
    visible in both expositions.

Dist traces are merged driver-side: each rank records in memory
(:class:`~repro.obs.tracer.Tracer` with ``sink=None``), ships its
events back inside the existing result-gathering stats dict, and the
driver absorbs the streams in rank order 0..R-1 — one file, per-rank
``ts`` monotone within each rank's stream.

Metric names
------------
:class:`~repro.obs.metrics.MetricsRegistry` backs every
``DecompositionStats``, so all legacy stats keys (``waves``,
``levels``, ``max_wave``, ``ipc_bytes``, ``msg_bytes``,
``msg_frames``, ``triangles``, ``repairs``, ``affected_edges``, ...)
are registry series — ``stats.extra`` is now a derived snapshot of it.
On top of those, the instrumentation adds:

``repro_kernel_ops_total{op=...}``
    counter of :class:`~repro.kernels.PeelKernel` op calls
    (``pop_frontier``/``gather_incident``/``count_decrements``/
    ``apply_decrements``/``merge_decrements``), counted only while
    tracing (the wrapper is never installed otherwise).
``repro_degraded_total{path=...}``
    counter of degradation-path activations (always counted — it is
    cheap and rare).
``repro_wave_frontier_edges``
    histogram of per-wave frontier sizes (traced runs only).
``index_build_s`` / ``peel_s``
    gauges: the per-phase wall-clock breakdown (always recorded; the
    ablation benchmarks put them in their ``BENCH_*.json`` rows).

Exposition formats
------------------
``MetricsRegistry.to_prometheus()`` renders Prometheus text format
0.0.4 (legacy short names are sanitized and prefixed ``repro_``;
string-valued stats become info gauges ``name_info{value="..."} 1``);
``to_json()`` a structured JSON document; ``as_dict()`` the flat
legacy view.  The CLI's ``--metrics FILE`` writes JSON when the path
ends in ``.json`` and Prometheus text otherwise.
"""

from __future__ import annotations

from repro.obs.metrics import CountingKernel, MetricsRegistry
from repro.obs.schema import TRACE_SCHEMA_VERSION, validate_event
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer, open_tracer


def warn_degraded(tracer, metrics, path: str, **attrs) -> None:
    """Record one degradation-path activation in both surfaces.

    Bumps ``repro_degraded_total{path=...}`` unconditionally and emits
    the warning-level ``degraded`` trace event when tracing is on —
    the single call every silent fallback site makes.
    """
    if metrics is not None:
        metrics.inc("repro_degraded_total", path=path)
    if tracer is not None and tracer.enabled:
        tracer.warn("degraded", path=path, **attrs)


__all__ = [
    "CountingKernel",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "open_tracer",
    "validate_event",
    "warn_degraded",
]
