"""Load generator for ``repro serve``: the survivability numbers.

Drives a real server subprocess through the chaos harness and records
the contract's measurable claims as ``BENCH_serve.json`` (path
overridable via ``REPRO_BENCH_SERVE_JSON``):

* steady-state read and write latency (p50/p99) at N concurrent
  clients;
* recovery time after SIGKILL — process start to ``/readyz`` 200,
  i.e. snapshot load + WAL-tail replay;
* staleness under write load — the fraction of reads answered from a
  view that trails applied writes (``X-Repro-Stale: 1``) while the
  writer publishes every third batch;
* flood shedding — writers past the admission bound with tight
  deadlines are answered 503/504 within the deadline while concurrent
  reads keep answering 200.

Run explicitly (the tier-1 suite collects only tests/)::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve_load.py -s
"""

from __future__ import annotations

import os
import threading
import time

from record import write_json
from repro.bench import print_table
from repro.graph import complete_graph, write_edge_list
from repro.serve.chaos import ServerProcess, flood

READ_CLIENTS = 4
READS_PER_CLIENT = 60
WRITE_CLIENTS = 2
WRITES_PER_CLIENT = 15


def _graph_file(tmp_path, scale: float):
    n = max(8, int(24 * scale))
    g = complete_graph(n)
    for i in range(int(40 * scale)):  # a pendant fringe around the core
        g.add_edge(i % n, n + i)
    path = tmp_path / "bench_graph.txt"
    write_edge_list(g, path)
    return path, g.num_edges


def _percentile(samples, q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


def _timed_clients(n_clients: int, per_client: int, op) -> list:
    """Run ``op(client_idx, op_idx)`` from n threads; return latencies."""
    latencies = []
    lock = threading.Lock()

    def client(idx: int) -> None:
        for j in range(per_client):
            t0 = time.monotonic()
            op(idx, j)
            dt = time.monotonic() - t0
            with lock:
                latencies.append(dt)

    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(n_clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return latencies


def test_serve_load(scale, tmp_path):
    """The survivability load run, recorded as BENCH_serve.json."""
    graph, num_edges = _graph_file(tmp_path, scale)
    reads = max(10, int(READS_PER_CLIENT * scale))
    writes = max(5, int(WRITES_PER_CLIENT * scale))

    # ------------------------------------------------- steady-state p50/p99
    server = ServerProcess(tmp_path / "data", graph, snapshot_every=3)
    server.start()
    read_ok = [0]
    stale_reads = [0]

    def do_read(idx, j):
        path = ("/edge/0/1/trussness" if (idx + j) % 2 == 0
                else "/community/0?k=3")
        status, hdrs, _ = server.request("GET", path)
        if status == 200:
            read_ok[0] += 1
        if hdrs.get("x-repro-stale") == "1":
            stale_reads[0] += 1

    write_ok = [0]

    def do_write(idx, j):
        u = 10_000 + idx * 1_000 + j
        status, _, _ = server.post_update("insert", u, u + 1, timeout=30.0)
        if status == 200:
            write_ok[0] += 1

    # writers and readers run together: the read percentiles below are
    # measured *under* write load, and the stale-read fraction counts
    # how often a view trailed the applied seq (publish every 3rd batch)
    write_lat: list = []
    writer = threading.Thread(
        target=lambda: write_lat.extend(
            _timed_clients(WRITE_CLIENTS, writes, do_write)
        ),
        daemon=True,
    )
    writer.start()
    read_lat = _timed_clients(READ_CLIENTS, reads, do_read)
    writer.join()
    total_reads = READ_CLIENTS * reads
    total_writes = WRITE_CLIENTS * writes
    assert read_ok[0] == total_reads, "a read failed under write load"
    assert write_ok[0] == total_writes, "a write failed at steady state"

    # ------------------------------------------------ recovery after SIGKILL
    server.kill()
    t0 = time.monotonic()
    server.start()  # waits for /readyz: snapshot load + WAL replay
    recovery_s = time.monotonic() - t0
    status, _, _ = server.request("GET", "/edge/0/1/trussness")
    assert status == 200
    server.stop()

    # ------------------------------------------------------- flood shedding
    flood_server = ServerProcess(
        tmp_path / "data_flood", graph, queue_depth=2, client_timeout=2.0,
        env={"REPRO_SERVE_APPLY_DELAY_MS": "50"},
    )
    flood_server.start()
    storm = flood(
        flood_server,
        writers=4,
        writes_per_writer=max(3, int(6 * scale)),
        deadline_ms=30.0,
        readers=2,
    )
    flood_server.stop()
    assert storm["shed"] > 0, storm
    assert set(storm["read_status"]) == {200}, storm

    rows = [{
        "edges": num_edges,
        "read clients": READ_CLIENTS,
        "read p50 (ms)": _percentile(read_lat, 0.50) * 1e3,
        "read p99 (ms)": _percentile(read_lat, 0.99) * 1e3,
        "write p50 (ms)": _percentile(write_lat, 0.50) * 1e3,
        "write p99 (ms)": _percentile(write_lat, 0.99) * 1e3,
        "stale reads": stale_reads[0] / total_reads,
        "recovery (s)": recovery_s,
        "flood shed": storm["shed"],
        "flood read p99 (ms)": storm["read_p99_ms"],
    }]
    print_table(
        "serve_load",
        rows,
        "repro serve under concurrent clients, SIGKILL and flood",
    )
    doc = {
        "suite": "bench_serve_load",
        "scale": scale,
        "cpu_count": os.cpu_count() or 1,
        "graph_edges": num_edges,
        "read_clients": READ_CLIENTS,
        "write_clients": WRITE_CLIENTS,
        "reads_total": total_reads,
        "writes_total": total_writes,
        "read_p50_ms": _percentile(read_lat, 0.50) * 1e3,
        "read_p99_ms": _percentile(read_lat, 0.99) * 1e3,
        "write_p50_ms": _percentile(write_lat, 0.50) * 1e3,
        "write_p99_ms": _percentile(write_lat, 0.99) * 1e3,
        "stale_read_fraction": stale_reads[0] / total_reads,
        "recovery_after_kill_s": recovery_s,
        "flood": storm,
    }
    path = write_json(doc, "BENCH_serve.json", "REPRO_BENCH_SERVE_JSON")
    print(
        f"\nwrote {path} (read p99 "
        f"{doc['read_p99_ms']:.1f} ms, recovery {recovery_s:.2f} s, "
        f"{storm['shed']} shed under flood)"
    )
