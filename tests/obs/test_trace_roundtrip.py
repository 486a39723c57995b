"""End-to-end traces from every engine: one schema, one renderer.

The tentpole contract: ``decompose`` over flat/parallel/dist and
``update`` over the stream maintainer all emit the schema of
:mod:`repro.obs.schema`, tracing never changes an answer, and every
trace renders through ``repro trace-report``'s code path.
"""

import json

import pytest

from helpers import needs_numpy
from repro.core import truss_decomposition
from repro.core.api import apply_updates
from repro.errors import DecompositionError
from repro.graph import complete_graph, disjoint_union
from repro.obs import Tracer, validate_event
from repro.obs.report import phase_durations, render_report


def _graph():
    g = disjoint_union([complete_graph(6), complete_graph(5)])
    g.add_edge(0, 6)
    g.add_edge(1, 6)
    return g


def _traced(method, **kwargs):
    g = _graph()
    tracer = Tracer(sink=None)
    td = truss_decomposition(g, method=method, trace=tracer, **kwargs)
    events = tracer.drain()
    assert events, method
    for e in events:
        validate_event(e)
    return td, events


@pytest.mark.parametrize("method,kwargs", [
    pytest.param("flat", {}, marks=needs_numpy),
    pytest.param("parallel", {"jobs": 2}, marks=needs_numpy),
    pytest.param("dist", {"ranks": 2}, marks=needs_numpy),
    ("improved", {}),
    ("baseline", {}),
])
def test_traced_run_matches_untraced(method, kwargs):
    td, events = _traced(method, **kwargs)
    ref = truss_decomposition(_graph(), method=method, **kwargs)
    assert td == ref
    # every trace opens with run_start naming its engine
    first = events[0]
    assert first["name"] == "run_start"
    assert first["attrs"]["engine"] == method
    # and renders through the one report path without blowing up
    assert render_report(events).startswith("trace:")


@pytest.mark.parametrize("method,kwargs", [
    ("flat", {}),
    ("parallel", {"jobs": 2}),
    ("dist", {"ranks": 2}),
])
def test_engine_traces_carry_phase_spans(method, kwargs):
    pytest.importorskip("numpy")
    _, events = _traced(method, **kwargs)
    names = {e["name"] for e in events}
    assert {"run_start", "index_build", "peel", "wave", "level"} <= names
    phases = phase_durations(events)
    assert phases.get("index_build", 0) >= 0
    assert phases.get("peel", 0) > 0
    # wave spans carry the peel's vital signs as flat scalar attrs
    wave = next(e for e in events if e["name"] == "wave")
    assert set(wave["attrs"]) >= {"k", "frontier", "killed"}


def test_non_csr_method_traces_whole_run_span():
    _, events = _traced("improved")
    span = next(e for e in events if e["name"] == "decompose")
    assert span["kind"] == "span"
    assert span["attrs"]["method"] == "improved"


@needs_numpy
def test_trace_path_writes_valid_jsonl(tmp_path):
    path = tmp_path / "run.jsonl"
    td = truss_decomposition(_graph(), method="flat", trace_path=str(path))
    events = [json.loads(line) for line in path.read_text().splitlines()]
    assert events
    for e in events:
        validate_event(e)
    assert td == truss_decomposition(_graph(), method="flat")


def test_trace_and_trace_path_are_exclusive():
    with pytest.raises(DecompositionError, match="not both"):
        truss_decomposition(
            _graph(), method="flat",
            trace=Tracer(sink=None), trace_path="/tmp/never.jsonl",
        )
    with pytest.raises(DecompositionError, match="not both"):
        apply_updates(
            _graph(), [("insert", 0, 7)],
            trace=Tracer(sink=None), trace_path="/tmp/never.jsonl",
        )


@needs_numpy
def test_update_trace_has_repair_spans():
    tracer = Tracer(sink=None)
    td = apply_updates(
        _graph(),
        [("insert", 0, 7), ("insert", 1, 7), ("delete", 2, 3)],
        trace=tracer,
    )
    events = tracer.drain()
    for e in events:
        validate_event(e)
    repairs = [e for e in events if e["name"] == "repair"]
    assert len(repairs) == 3  # one per apply_batch call
    for span in repairs:
        assert span["kind"] == "span"
        assert set(span["attrs"]) >= {
            "updates", "region", "frozen", "triangles", "truncated",
        }
    ref = apply_updates(
        _graph(),
        [("insert", 0, 7), ("insert", 1, 7), ("delete", 2, 3)],
    )
    assert dict(td.trussness) == dict(ref.trussness)
    assert "repairs (stream):" in render_report(events)
