"""Degradation paths: always counted, warned in the trace when tracing."""

from helpers import needs_numpy
from repro.graph import complete_graph
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    validate_event,
    warn_degraded,
)
from repro.stream import TrussMaintainer


def test_warn_degraded_counts_even_untraced():
    reg = MetricsRegistry()
    warn_degraded(NULL_TRACER, reg, "stdlib_fallback", engine="flat")
    warn_degraded(NULL_TRACER, reg, "stdlib_fallback", engine="flat")
    assert reg.value("repro_degraded_total", path="stdlib_fallback") == 2


def test_warn_degraded_emits_warning_event_when_traced():
    reg = MetricsRegistry()
    tr = Tracer(sink=None)
    warn_degraded(tr, reg, "dist_retry", attempt=1, resume_epoch=3)
    (event,) = tr.drain()
    validate_event(event)
    assert event["level"] == "warning"
    assert event["name"] == "degraded"
    assert event["attrs"]["path"] == "dist_retry"
    assert event["attrs"]["attempt"] == 1
    assert reg.value("repro_degraded_total", path="dist_retry") == 1


@needs_numpy
def test_stream_full_repeel_is_diagnosable_from_trace():
    # K20 has 190 edges -> region cap max(64, 19) = 64; a 40-delete
    # batch widens the traversal slack until the region blows past it,
    # forcing the full-repeel fallback — which must leave both a
    # warning in the trace and a counter in the stats
    tr = Tracer(sink=None)
    tm = TrussMaintainer.from_graph(complete_graph(20), trace=tr)
    edges = list(tm.trussness)[:40]
    tm.apply_batch([("delete", u, v) for u, v in edges])
    events = tr.drain()
    warns = [e for e in events if e.get("level") == "warning"]
    assert any(e["attrs"].get("path") == "stream_full_repeel" for e in warns)
    (warn,) = [
        e for e in warns if e["attrs"].get("path") == "stream_full_repeel"
    ]
    assert warn["attrs"]["region"] > warn["attrs"]["cap"]
    extra = tm.stats.extra
    assert extra["repro_degraded_total{path=stream_full_repeel}"] == 1
    assert extra["full_repeels"] == 1
    # the truncated repair span documents the fallback too
    repair = [e for e in events if e["name"] == "repair"][-1]
    assert repair["attrs"]["truncated"] is True


@needs_numpy
def test_stream_full_repeel_counted_without_tracer():
    tm = TrussMaintainer.from_graph(complete_graph(20))
    edges = list(tm.trussness)[:40]
    tm.apply_batch([("delete", u, v) for u, v in edges])
    extra = tm.stats.extra
    assert extra["repro_degraded_total{path=stream_full_repeel}"] == 1
