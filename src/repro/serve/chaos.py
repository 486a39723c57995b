"""Chaos harness for the truss server — scripted, deterministic abuse.

The :mod:`repro.dist.faults` philosophy applied to a whole process:
every failure the survivability contract promises to absorb is a
*schedule* here, replayable run after run, not timeout roulette.

:class:`ServerProcess` drives a real ``repro serve`` subprocess (spawned
as ``python -m repro serve ...``), discovers its port through
``endpoint.json``, and exposes kill/interrupt/restart plus a tiny
:mod:`http.client` request helper.  On top of it, the schedules:

* :func:`kill_mid_batch` — arm ``REPRO_SERVE_CRASH_AFTER_WAL`` so the
  server ``os._exit(42)``s after the N-th WAL record is durable but
  *before* it is applied, then feed writes until the crash.  The
  recovery pin restarts the server and checks ``/dump`` against a
  fresh flat decomposition of the fully-updated graph — byte for byte;
* :func:`tear_snapshot` / :func:`tear_wal_tail` — corrupt the newest
  generation / append a torn record, proving torn state is detected
  and skipped, never served;
* :func:`slow_loris` — a client that sends half a request and stalls;
  the per-connection socket timeout must reclaim the handler thread;
* :func:`flood` — concurrent writers past the admission bound with a
  tight deadline (plus ``REPRO_SERVE_APPLY_DELAY_MS`` to hold the
  writer lock), while reader threads verify reads keep answering 200.
  Returns the status histogram and read latencies the load generator
  folds into ``BENCH_serve.json``.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.serve.server import ENDPOINT, read_endpoint
from repro.serve.snapshot import MANIFEST, STATE, generations
from repro.stream.updates import Update, format_update

#: the exit code of a scripted REPRO_SERVE_CRASH_AFTER_WAL kill
CRASH_EXIT = 42


class ChaosError(ReproError):
    """The harness could not stage or observe a schedule."""


class ServerProcess:
    """One ``repro serve`` subprocess under harness control."""

    def __init__(
        self,
        data_dir,
        graph=None,
        *,
        workers: int = 0,
        port: int = 0,
        host: str = "127.0.0.1",
        queue_depth: int = 16,
        snapshot_every: int = 1,
        deadline_ms: float = 2000.0,
        max_inflight: int = 64,
        client_timeout: float = 10.0,
        env: Optional[Dict[str, str]] = None,
        log_name: str = "server.log",
    ) -> None:
        self.data_dir = Path(data_dir)
        self.graph = graph
        self.host = host
        self.port = port  # 0 until discovered via endpoint.json
        self._env = dict(env or {})
        self._log_path = self.data_dir / log_name
        self.proc: Optional[subprocess.Popen] = None
        self._cmd = [
            sys.executable, "-m", "repro", "serve",
            "--data", str(self.data_dir),
            "--host", host, "--port", str(port),
            "--workers", str(workers),
            "--queue-depth", str(queue_depth),
            "--snapshot-every", str(snapshot_every),
            "--deadline-ms", str(deadline_ms),
            "--max-inflight", str(max_inflight),
            "--client-timeout", str(client_timeout),
        ]
        if graph is not None:
            self._cmd.insert(4, str(graph))

    # ---------------------------------------------------------- lifecycle
    def start(self, timeout: float = 60.0,
              wait_ready: bool = True) -> "ServerProcess":
        if self.proc is not None and self.proc.poll() is None:
            raise ChaosError("server already running")
        self.data_dir.mkdir(parents=True, exist_ok=True)
        try:
            os.unlink(self.data_dir / ENDPOINT)  # never trust a stale one
        except OSError:
            pass
        env = {**os.environ, **self._env}
        with open(self._log_path, "ab") as log:
            self.proc = subprocess.Popen(
                self._cmd, stdout=log, stderr=log, env=env,
            )
        if wait_ready:
            self.wait_ready(timeout)
        return self

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until ``/readyz`` answers 200 (recovery finished)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc is not None and self.proc.poll() is not None:
                raise ChaosError(
                    f"server exited (code {self.proc.returncode}) before "
                    f"becoming ready; tail: {self.log_tail()}"
                )
            ep = read_endpoint(self.data_dir)
            if ep is not None:
                self.host, self.port = ep["host"], ep["port"]
                try:
                    status, _, _ = self.request("GET", "/readyz",
                                                timeout=2.0)
                except OSError:
                    status = None
                if status == 200:
                    return
            time.sleep(0.02)
        raise ChaosError(
            f"server not ready after {timeout}s; tail: {self.log_tail()}"
        )

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def wait(self, timeout: float = 30.0) -> int:
        """Wait for exit; returns the code (negative: killed by signal)."""
        if self.proc is None:
            raise ChaosError("server never started")
        return self.proc.wait(timeout=timeout)

    def kill(self) -> int:
        """SIGKILL — the unclean death every recovery test begins with."""
        if self.proc is None:
            raise ChaosError("server never started")
        self.proc.kill()
        return self.proc.wait(timeout=30.0)

    def interrupt(self) -> None:
        """SIGINT, exactly what a terminal Ctrl-C delivers."""
        if self.proc is None:
            raise ChaosError("server never started")
        self.proc.send_signal(signal.SIGINT)

    def stop(self, timeout: float = 30.0) -> int:
        """Graceful SIGTERM stop; SIGKILL only if it hangs."""
        if self.proc is None:
            raise ChaosError("server never started")
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                return self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        return self.proc.wait(timeout=10.0)

    def log_tail(self, nbytes: int = 2000) -> str:
        try:
            data = self._log_path.read_bytes()
        except OSError:
            return "<no log>"
        return data[-nbytes:].decode("utf-8", "replace")

    def __enter__(self) -> "ServerProcess":
        return self.start()

    def __exit__(self, *exc) -> None:
        if self.alive:
            self.stop()

    # ------------------------------------------------------------- client
    def request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
        timeout: float = 10.0,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One HTTP exchange: ``(status, lower-cased headers, body)``."""
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=timeout)
        try:
            conn.request(method, path, body=body, headers=headers or {})
            resp = conn.getresponse()
            data = resp.read()
            hdrs = {k.lower(): v for k, v in resp.getheaders()}
            return resp.status, hdrs, data
        finally:
            conn.close()

    def get_json(self, path: str, **kw):
        status, hdrs, body = self.request("GET", path, **kw)
        return status, hdrs, json.loads(body) if body else None

    def post_update(self, op: str, u: int, v: int,
                    deadline_ms: Optional[float] = None, **kw):
        """One mutation through ``POST /updates`` (op: insert/delete)."""
        headers = {"Content-Type": "text/plain"}
        if deadline_ms is not None:
            headers["X-Deadline-Ms"] = str(deadline_ms)
        return self.request(
            "POST", "/updates",
            body=(format_update(op, u, v) + "\n").encode(),
            headers=headers, **kw,
        )

    def dump(self, **kw) -> str:
        status, _, body = self.request("GET", "/dump", **kw)
        if status != 200:
            raise ChaosError(f"/dump answered {status}")
        return body.decode()


# -------------------------------------------------------------- schedules
def kill_mid_batch(
    data_dir,
    graph,
    updates: Sequence[Update],
    crash_after: int,
    **server_kw,
) -> dict:
    """Feed writes into a server armed to die after ``crash_after``
    WAL records; returns what was acked and the observed exit code.

    The crash hook fires after the record is *durable* and before it
    is applied — the worst instant: an acked-in-flight write whose
    apply never happened.  Recovery must replay it.
    """
    server = ServerProcess(
        data_dir, graph,
        env={"REPRO_SERVE_CRASH_AFTER_WAL": str(crash_after)},
        **server_kw,
    )
    server.start()
    acked: List[dict] = []
    crashed = False
    for op, u, v in updates:
        try:
            status, _, body = server.post_update(op, u, v, timeout=15.0)
        except OSError:
            crashed = True  # died mid-exchange: the scripted kill
            break
        if status == 200:
            acked.append(json.loads(body))
        else:
            crashed = True
            break
    code = server.wait(timeout=30.0)
    if not crashed and code == 0:
        raise ChaosError(
            "server survived the whole schedule — crash hook never fired"
        )
    return {"acked": acked, "exit_code": code}


def tear_snapshot(snapshot_root, gen: Optional[int] = None,
                  mode: str = "truncate") -> int:
    """Corrupt a generation's state file (newest by default).

    ``mode="truncate"`` chops the file mid-row; ``mode="flip"`` xors a
    byte; ``mode="manifest"`` deletes the manifest (a publish that died
    between state and manifest).  Returns the generation corrupted.
    """
    gens = generations(snapshot_root)
    if not gens:
        raise ChaosError(f"no generations under {snapshot_root}")
    gen = gens[-1] if gen is None else gen
    gdir = Path(snapshot_root) / f"gen_{gen:08d}"
    state = gdir / STATE
    if mode == "truncate":
        size = state.stat().st_size
        with open(state, "r+b") as fh:
            fh.truncate(max(size - 12, 0))
    elif mode == "flip":
        data = bytearray(state.read_bytes())
        if not data:
            raise ChaosError(f"generation {gen} state file is empty")
        data[len(data) // 2] ^= 0xFF
        state.write_bytes(bytes(data))
    elif mode == "manifest":
        os.unlink(gdir / MANIFEST)
    else:
        raise ChaosError(f"unknown tear mode {mode!r}")
    return gen


def tear_wal_tail(wal_root, garbage: bytes = b"9999 + 1 2 deadbee") -> Path:
    """Append a torn (newline-less, CRC-less) record to the newest WAL
    segment — the on-disk shape of a crash mid-append."""
    segments = sorted(Path(wal_root).glob("wal_*.log"))
    if not segments:
        raise ChaosError(f"no WAL segments under {wal_root}")
    with open(segments[-1], "ab") as fh:
        fh.write(garbage)
    return segments[-1]


def slow_loris(host: str, port: int, *, max_wait_s: float = 30.0) -> dict:
    """Open a connection, send half a request, stall; measure how long
    the server lets it squat before dropping it."""
    sock = socket.create_connection((host, port), timeout=max_wait_s)
    t0 = time.monotonic()
    try:
        sock.sendall(b"GET /dump HTTP/1.1\r\nHost: loris\r\nX-Slow:")
        # never finish the headers; wait for the server to hang up
        sock.settimeout(max_wait_s)
        try:
            data = sock.recv(4096)
        except socket.timeout:
            return {"dropped": False, "held_s": time.monotonic() - t0}
        return {
            "dropped": True,
            "held_s": time.monotonic() - t0,
            "bytes_back": len(data),
        }
    finally:
        sock.close()


def flood(
    server: ServerProcess,
    *,
    writers: int = 8,
    writes_per_writer: int = 10,
    deadline_ms: float = 50.0,
    readers: int = 2,
    read_path: str = "/edge/0/1/trussness",
    base_vertex: int = 10_000,
) -> dict:
    """Hammer the write path past its bounds while reads continue.

    Every writer inserts distinct fresh edges with a tight deadline;
    reader threads interleave GETs the whole time.  Returns::

        {"write_status": {code: n}, "shed": n, "acked": n,
         "read_status": {code: n}, "read_p99_ms": float,
         "reads_during_flood": n}
    """
    write_status: Dict[int, int] = {}
    read_status: Dict[int, int] = {}
    read_lat: List[float] = []
    lock = threading.Lock()
    stop_reads = threading.Event()

    def writer(widx: int) -> None:
        for j in range(writes_per_writer):
            u = base_vertex + widx * writes_per_writer + j
            try:
                status, _, _ = server.post_update(
                    "insert", u, u + 1, deadline_ms=deadline_ms,
                    timeout=30.0,
                )
            except OSError:
                status = -1
            with lock:
                write_status[status] = write_status.get(status, 0) + 1

    def reader() -> None:
        while not stop_reads.is_set():
            t0 = time.monotonic()
            try:
                status, _, _ = server.request("GET", read_path,
                                              timeout=10.0)
            except OSError:
                status = -1
            dt = time.monotonic() - t0
            with lock:
                read_status[status] = read_status.get(status, 0) + 1
                read_lat.append(dt)
            time.sleep(0.002)

    read_threads = [threading.Thread(target=reader, daemon=True)
                    for _ in range(readers)]
    write_threads = [threading.Thread(target=writer, args=(i,),
                                      daemon=True)
                     for i in range(writers)]
    for t in read_threads:
        t.start()
    for t in write_threads:
        t.start()
    for t in write_threads:
        t.join()
    stop_reads.set()
    for t in read_threads:
        t.join(timeout=15.0)
    lat = sorted(read_lat)
    p99 = lat[min(len(lat) - 1, int(len(lat) * 0.99))] if lat else 0.0
    return {
        "write_status": write_status,
        "shed": sum(n for code, n in write_status.items()
                    if code in (503, 504)),
        "acked": write_status.get(200, 0),
        "read_status": read_status,
        "reads_during_flood": len(read_lat),
        "read_p99_ms": p99 * 1000.0,
    }
