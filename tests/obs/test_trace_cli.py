"""The CLI profiling surface: --trace, --metrics, trace-report."""

import json

import pytest

from helpers import needs_numpy
from repro.cli import main
from repro.graph import complete_graph, disjoint_union, write_edge_list
from repro.obs import validate_event


@pytest.fixture
def graph_file(tmp_path):
    g = disjoint_union([complete_graph(6), complete_graph(4)])
    g.add_edge(0, 6)
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    return path


@needs_numpy
def test_decompose_trace_and_report(graph_file, tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    out = tmp_path / "phi.txt"
    rc = main([
        "decompose", str(graph_file), "--method", "flat",
        "--trace", str(trace), "-o", str(out),
    ])
    assert rc == 0
    events = [json.loads(line) for line in trace.read_text().splitlines()]
    assert events
    for e in events:
        validate_event(e)
    assert events[0]["name"] == "run_start"
    capsys.readouterr()
    rc = main(["trace-report", str(trace)])
    assert rc == 0
    report = capsys.readouterr().out
    assert report.startswith("trace:")
    assert "phases:" in report


@needs_numpy
def test_decompose_traced_output_parity(graph_file, tmp_path):
    plain = tmp_path / "plain.txt"
    traced = tmp_path / "traced.txt"
    assert main([
        "decompose", str(graph_file), "--method", "flat", "-o", str(plain),
    ]) == 0
    assert main([
        "decompose", str(graph_file), "--method", "flat",
        "--trace", str(tmp_path / "t.jsonl"), "-o", str(traced),
    ]) == 0
    assert plain.read_text() == traced.read_text()


@needs_numpy
def test_decompose_metrics_prometheus(graph_file, tmp_path):
    metrics = tmp_path / "run.prom"
    rc = main([
        "decompose", str(graph_file), "--method", "flat",
        "--metrics", str(metrics), "-o", str(tmp_path / "phi.txt"),
    ])
    assert rc == 0
    text = metrics.read_text()
    assert "# TYPE repro_peel_s gauge" in text
    assert "repro_kmax" in text


@needs_numpy
def test_decompose_metrics_json(graph_file, tmp_path):
    metrics = tmp_path / "run.json"
    rc = main([
        "decompose", str(graph_file), "--method", "flat",
        "--metrics", str(metrics), "-o", str(tmp_path / "phi.txt"),
    ])
    assert rc == 0
    doc = json.loads(metrics.read_text())
    assert set(doc) == {"counters", "gauges", "histograms", "info"}
    assert "peel_s" in doc["gauges"]


def test_legacy_method_takes_trace(graph_file, tmp_path):
    trace = tmp_path / "t.jsonl"
    rc = main([
        "decompose", str(graph_file), "--method", "improved",
        "--trace", str(trace), "-o", str(tmp_path / "phi.txt"),
    ])
    assert rc == 0
    names = [
        json.loads(line)["name"]
        for line in trace.read_text().splitlines()
    ]
    assert "run_start" in names and "decompose" in names


@needs_numpy
def test_update_trace_metrics_and_report(graph_file, tmp_path, capsys):
    updates = tmp_path / "u.txt"
    updates.write_text("+ 0 7\n+ 1 7\n- 2 3\n")
    trace = tmp_path / "u.jsonl"
    metrics = tmp_path / "u.json"
    rc = main([
        "update", str(graph_file), str(updates),
        "--trace", str(trace), "--metrics", str(metrics),
        "-o", str(tmp_path / "phi.txt"),
    ])
    assert rc == 0
    events = [json.loads(line) for line in trace.read_text().splitlines()]
    for e in events:
        validate_event(e)
    assert sum(e["name"] == "repair" for e in events) == 3
    doc = json.loads(metrics.read_text())
    assert "repairs" in doc["gauges"] or "repairs" in doc["counters"]
    capsys.readouterr()
    assert main(["trace-report", str(trace)]) == 0
    assert "repairs (stream):" in capsys.readouterr().out


def test_trace_report_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("0 1 3\n")
    assert main(["trace-report", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_trace_report_missing_file(tmp_path, capsys):
    assert main(["trace-report", str(tmp_path / "nope.jsonl")]) == 2
    assert "error:" in capsys.readouterr().err
