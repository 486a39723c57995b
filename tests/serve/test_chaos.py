"""Chaos pins against real ``repro serve`` subprocesses.

The survivability contract, end to end: a SIGKILL mid-batch must
recover to the exact state the acks promised (byte-identical to a
fresh flat decomposition), torn artifacts must be skipped, Ctrl-C must
reap every process, and flood load must shed within deadlines while
reads keep answering.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.core import truss_decomposition
from repro.graph import Graph, complete_graph, write_edge_list
from repro.serve import snapshot as snap
from repro.serve.chaos import (
    CRASH_EXIT,
    ServerProcess,
    flood,
    kill_mid_batch,
    slow_loris,
    tear_snapshot,
    tear_wal_tail,
)
from repro.serve.server import ENDPOINT

pytestmark = pytest.mark.skipif(
    snap._np is None, reason="repro serve needs numpy"
)

UPDATES = [
    ("insert", 0, 10), ("insert", 1, 10), ("insert", 2, 10),
    ("insert", 3, 10), ("delete", 0, 1),
]


def _graph_file(tmp_path):
    g = complete_graph(5)
    g.add_edge(0, 5)
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    return g, path


def _expected_dump(g, updates):
    """The ``/dump`` body a fresh flat decomposition would produce."""
    edges = {tuple(sorted(e)) for e in g.edges()}
    for op, u, v in updates:
        key = (u, v) if u < v else (v, u)
        if op == "insert":
            edges.add(key)
        else:
            edges.discard(key)
    result = truss_decomposition(Graph(sorted(edges)), method="flat")
    phi = dict(result.trussness)
    return "\n".join(f"{u} {v} {phi[(u, v)]}" for u, v in sorted(phi)) + "\n"


def _serve_procs(tag: str):
    """PIDs of every live ``repro serve`` process mentioning ``tag``."""
    pids = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            cmd = (Path("/proc") / pid / "cmdline").read_bytes()
        except OSError:
            continue
        if b"repro" in cmd and tag.encode() in cmd:
            pids.append(int(pid))
    return pids


def _wait_gone(tag: str, timeout: float = 15.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not _serve_procs(tag):
            return True
        time.sleep(0.05)
    return False


class TestKillRecovery:
    def test_sigkill_mid_batch_recovers_bit_identical(self, tmp_path):
        """The acceptance pin: die after the 3rd WAL record is durable
        (before its apply), restart, and the served state is
        byte-identical to a fresh flat decomposition of the graph plus
        every durable update — acked or not."""
        g, graph = _graph_file(tmp_path)
        data = tmp_path / "data"
        outcome = kill_mid_batch(data, graph, UPDATES, crash_after=3)
        assert outcome["exit_code"] == CRASH_EXIT
        # records 1-2 were acked; record 3 is durable but was never
        # applied or acked — recovery must replay all three
        assert len(outcome["acked"]) == 2
        server = ServerProcess(data)
        with server:
            assert server.dump() == _expected_dump(g, UPDATES[:3])
        assert server.wait() == 0

    def test_restart_after_plain_sigkill(self, tmp_path):
        g, graph = _graph_file(tmp_path)
        data = tmp_path / "data"
        server = ServerProcess(data, graph)
        server.start()
        for op, u, v in UPDATES[:2]:
            status, _, _ = server.post_update(op, u, v)
            assert status == 200
        before = server.dump()
        server.kill()
        server.start()
        try:
            assert server.dump() == before == _expected_dump(g, UPDATES[:2])
        finally:
            server.stop()

    def test_torn_artifacts_are_skipped_on_recovery(self, tmp_path):
        g, graph = _graph_file(tmp_path)
        data = tmp_path / "data"
        server = ServerProcess(data, graph)
        server.start()
        for op, u, v in UPDATES[:2]:
            server.post_update(op, u, v)
        server.kill()
        # corrupt the newest generation AND append a torn WAL record:
        # recovery must fall back to the prior generation, replay the
        # intact WAL tail, and truncate the tear — same state
        tear_snapshot(data / "snapshots", mode="truncate")
        tear_wal_tail(data / "wal")
        server.start()
        try:
            assert server.dump() == _expected_dump(g, UPDATES[:2])
            _, _, metrics = server.request("GET", "/metrics")
            text = metrics.decode()
            assert 'path="serve_torn_snapshot"' in text
            assert 'path="serve_wal_torn"' in text
        finally:
            server.stop()


class TestContainment:
    def test_sigint_reaps_workers_and_closes_wal(self, tmp_path):
        """Satellite: Ctrl-C must reap every worker, fsync+close the
        WAL, and remove the endpoint file — no orphans, exit 0."""
        _, graph = _graph_file(tmp_path)
        data = tmp_path / "data"
        server = ServerProcess(data, graph, workers=2)
        server.start()
        tag = str(data)
        assert len(_serve_procs(tag)) >= 3  # master + 2 workers
        status, _, _ = server.post_update("insert", 0, 10)
        assert status == 200
        server.interrupt()
        assert server.wait(timeout=30.0) == 0
        assert _wait_gone(tag), f"orphans left: {_serve_procs(tag)}"
        assert not (data / ENDPOINT).exists()
        # the WAL was closed cleanly: every record ends in a newline
        segments = sorted((data / "wal").glob("wal_*.log"))
        for seg in segments:
            content = seg.read_bytes()
            assert not content or content.endswith(b"\n")

    def test_sigkill_master_leaves_no_orphan_workers(self, tmp_path):
        """The death pipe: workers see EOF when the master dies without
        any chance to clean up, and exit on their own."""
        _, graph = _graph_file(tmp_path)
        data = tmp_path / "data"
        server = ServerProcess(data, graph, workers=2)
        server.start()
        tag = str(data)
        assert len(_serve_procs(tag)) >= 3
        server.kill()
        assert _wait_gone(tag), f"orphans left: {_serve_procs(tag)}"


class TestOverload:
    def test_flood_sheds_within_deadline_while_reads_answer(self, tmp_path):
        """Writers past the admission bound are shed with 503/504 while
        concurrent reads keep answering 200 from the published view."""
        _, graph = _graph_file(tmp_path)
        data = tmp_path / "data"
        server = ServerProcess(
            data, graph, queue_depth=2, deadline_ms=2000.0,
            client_timeout=1.0,
            env={"REPRO_SERVE_APPLY_DELAY_MS": "50"},
        )
        server.start()
        try:
            out = flood(server, writers=4, writes_per_writer=3,
                        deadline_ms=30.0, readers=2)
            assert set(out["write_status"]) <= {200, 503, 504}
            assert out["shed"] > 0  # the bound held
            assert out["acked"] >= 1  # but the server was not bricked
            assert out["reads_during_flood"] > 0
            assert set(out["read_status"]) == {200}
            # a stalled client is dropped at the socket timeout instead
            # of squatting a handler thread
            loris = slow_loris(server.host, server.port, max_wait_s=10.0)
            assert loris["dropped"] and loris["held_s"] < 8.0
            # shed reasons are visible in the metrics exposition
            _, _, metrics = server.request("GET", "/metrics")
            assert 'repro_serve_shed_total{reason=' in metrics.decode()
            # writes still work after the storm
            status, _, body = server.post_update("insert", 500, 501)
            assert status == 200 and json.loads(body)["applied"] == 1
        finally:
            server.stop()
