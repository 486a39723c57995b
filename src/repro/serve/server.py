"""Process model and lifecycle of ``repro serve``.

Two topologies behind one entry point, :func:`run_server`:

* ``--workers 0`` — everything in one process: the
  :class:`~repro.serve.service.TrussService` writer and a threaded
  HTTP server sharing it, reads answered from the in-process
  :class:`~repro.serve.view.LocalReader`;
* ``--workers N`` — a master process owns the service (the single
  writer) and forks N HTTP worker processes.  All workers inherit
  **one listening socket** created before the fork — the kernel
  load-balances ``accept`` across them — and serve reads from their
  own :class:`~repro.serve.view.SnapshotReader` (published
  generations on disk; no shared memory, no locks).  Writes are
  forwarded to the master over an ``AF_UNIX``
  :mod:`multiprocessing.connection` channel (authkey-protected, one
  short-lived connection per write so a deadline can abandon the wait
  without desyncing a stream).

Orphan containment: the master holds the write end of a *death pipe*;
every worker parks a thread on the read end and ``os._exit(0)``s at
EOF.  The kernel closes the pipe whatever way the master dies —
including ``SIGKILL``, where atexit hooks never run — so chaos kills
cannot leak workers.  Ctrl-C containment runs the same teardown as a
clean stop: reap workers, fsync + close the WAL, delete the IPC
scratch directory, remove ``endpoint.json``.

``endpoint.json`` in the data directory records ``{host, port, pid}``
once the socket is listening — how the chaos harness and load
generator find a server that bound port 0.
"""

from __future__ import annotations

import os
import shutil
import signal
import socket
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.connection import Client, Listener
from pathlib import Path
from typing import List, Optional

from repro import durable
from repro.obs import MetricsRegistry, open_tracer
from repro.serve.http import TrussHTTPServer
from repro.serve.service import (
    DeadlineExpiredError,
    NotReadyError,
    OverloadedError,
    ServeError,
    TrussService,
)
from repro.serve.view import SnapshotReader
from repro.stream.updates import Update

ENDPOINT = "endpoint.json"

#: worker -> master write forwarding gets this much slack on top of
#: the request deadline before the connection is abandoned
_IPC_GRACE_S = 5.0


@dataclass
class ServeConfig:
    """Everything ``repro serve`` resolves from its flags."""

    data_dir: str
    graph: Optional[str] = None
    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 0
    queue_depth: int = 16
    snapshot_every: int = 1
    deadline_ms: float = 2000.0
    max_inflight: int = 64
    client_timeout: float = 10.0
    refresh_ms: float = 50.0
    trace: Optional[str] = None


# --------------------------------------------------------------- endpoint
def write_endpoint(data_dir, host: str, port: int, pid: int) -> None:
    durable.write_json(
        Path(data_dir) / ENDPOINT, {"host": host, "port": port, "pid": pid}
    )


def read_endpoint(data_dir) -> Optional[dict]:
    """``{host, port, pid}`` of a (possibly dead) server, or None."""
    return durable.read_json(Path(data_dir) / ENDPOINT)


# ------------------------------------------------------------ writer IPC
def _reply_error(exc: ServeError):
    return ("err", exc.status, str(exc), exc.retry_after)


def _raise_reply(reply) -> dict:
    """Worker side: unwrap an IPC reply or re-raise the ServeError."""
    if not isinstance(reply, tuple) or not reply:
        raise ServeError("malformed reply from writer")
    if reply[0] == "ok":
        return reply[1]
    _, status, msg, retry_after = reply
    for cls in (OverloadedError, NotReadyError, DeadlineExpiredError):
        if cls.status == status:
            exc = cls(msg)
            exc.retry_after = retry_after
            raise exc
    exc = ServeError(msg)
    exc.status = status
    exc.retry_after = retry_after
    raise exc


class WriterHub:
    """Master-side IPC endpoint forwarding worker writes to the service.

    One short-lived connection per request: ``("write", updates,
    remaining_s)`` or ``("metrics",)`` in, ``("ok", payload)`` /
    ``("err", status, msg, retry_after)`` out.
    """

    def __init__(self, service: TrussService, address: str,
                 authkey: bytes) -> None:
        self.service = service
        self.address = address
        self._listener = Listener(address, "AF_UNIX", authkey=authkey)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True
        )
        self._closed = False

    def start(self) -> None:
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn = self._listener.accept()
            except (OSError, EOFError):
                return  # listener closed (or a failed-auth client)
            except Exception:
                continue  # AuthenticationError: reject, keep serving
            threading.Thread(
                target=self._serve_conn, args=(conn,), daemon=True
            ).start()

    def _serve_conn(self, conn) -> None:
        try:
            msg = conn.recv()
            if not isinstance(msg, tuple) or not msg:
                conn.send(("err", 400, "malformed request", None))
                return
            if msg[0] == "write":
                _, updates, remaining = msg
                deadline = (
                    None if remaining is None
                    else time.monotonic() + remaining
                )
                try:
                    applied, seq, gen = self.service.apply_write(
                        updates, deadline
                    )
                    conn.send(("ok", {"applied": applied, "seq": seq,
                                      "gen": gen}))
                except ServeError as exc:
                    conn.send(_reply_error(exc))
            elif msg[0] == "metrics":
                conn.send(("ok", self.service.metrics_text()))
            else:
                conn.send(("err", 400, f"unknown command {msg[0]!r}", None))
        except (EOFError, OSError):
            pass  # worker abandoned the wait (deadline) or died
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def close(self) -> None:
        self._closed = True
        try:
            self._listener.close()
        except OSError:
            pass


def _remote_write(address: str, authkey: bytes, updates: List[Update],
                  deadline: Optional[float]) -> dict:
    """Worker side: forward one write batch to the master, bounded."""
    remaining = (
        None if deadline is None
        else max(deadline - time.monotonic(), 0.0)
    )
    try:
        conn = Client(address, authkey=authkey)
    except (OSError, EOFError) as exc:
        raise NotReadyError(f"writer unavailable: {exc}") from None
    try:
        conn.send(("write", list(updates), remaining))
        timeout = (
            None if remaining is None else remaining + _IPC_GRACE_S
        )
        if not conn.poll(timeout):
            # durability is ambiguous past this point — the record may
            # have landed in the WAL; 504 tells the client to re-check
            raise DeadlineExpiredError(
                "writer did not answer within the deadline"
            )
        return _raise_reply(conn.recv())
    except (EOFError, OSError) as exc:
        raise ServeError(f"writer connection failed: {exc}") from None
    finally:
        try:
            conn.close()
        except OSError:
            pass


def _remote_metrics(address: str, authkey: bytes) -> str:
    try:
        conn = Client(address, authkey=authkey)
    except (OSError, EOFError):
        return ""
    try:
        conn.send(("metrics",))
        if not conn.poll(_IPC_GRACE_S):
            return ""
        return _raise_reply(conn.recv())
    except (ServeError, EOFError, OSError):
        return ""
    finally:
        try:
            conn.close()
        except OSError:
            pass


# ---------------------------------------------------------------- workers
def _death_watch(fd: int) -> None:
    """Block on the death pipe; EOF means the master is gone — exit.

    Runs on a daemon thread in every worker.  ``os._exit`` (not
    ``sys.exit``): the worker must vanish even mid-request, exactly as
    if the kernel had reaped it with its parent.
    """
    try:
        while os.read(fd, 1):
            pass
    except OSError:
        pass
    os._exit(0)


def _worker_main(idx: int, sock: socket.socket, cfg: ServeConfig,
                 snapshot_root, ipc_address: str, authkey: bytes,
                 death_r: int, death_w: int) -> None:
    # our copy of the write end must close, or our own fd would keep
    # the pipe open and EOF would never arrive
    try:
        os.close(death_w)
    except OSError:
        pass
    threading.Thread(target=_death_watch, args=(death_r,),
                     daemon=True).start()
    tracer, owned = open_tracer(
        trace_path=f"{cfg.trace}.w{idx}" if cfg.trace else None
    )
    reader = SnapshotReader(snapshot_root, refresh_ms=cfg.refresh_ms)
    registry = MetricsRegistry()

    def metrics_fn() -> str:
        return _remote_metrics(ipc_address, authkey) + \
            registry.to_prometheus()

    httpd = TrussHTTPServer(
        sock,
        reader=reader,
        write_fn=lambda updates, deadline: _remote_write(
            ipc_address, authkey, updates, deadline
        ),
        metrics_fn=metrics_fn,
        registry=registry,
        tracer=tracer,
        deadline_ms=cfg.deadline_ms,
        max_inflight=cfg.max_inflight,
        client_timeout=cfg.client_timeout,
    )
    stop = threading.Event()
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda *_: stop.set())
    httpd.serve_background()
    stop.wait()
    httpd.shutdown()
    if owned:
        tracer.close()
    os._exit(0)


# ----------------------------------------------------------------- master
def run_server(cfg: ServeConfig,
               stop_event: Optional[threading.Event] = None) -> None:
    """Recover, bind, serve until stopped; then tear down completely.

    Blocks the calling thread.  ``stop_event`` lets a test (or an
    embedding caller) stop the server programmatically; SIGINT and
    SIGTERM set the same event when running on the main thread.
    """
    stop = stop_event if stop_event is not None else threading.Event()
    tracer, owned_tracer = open_tracer(trace_path=cfg.trace)
    service = TrussService(
        cfg.data_dir,
        cfg.graph,
        queue_depth=cfg.queue_depth,
        snapshot_every=cfg.snapshot_every,
        tracer=tracer,
    )
    if threading.current_thread() is threading.main_thread():
        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, lambda *_: stop.set())
    sock = None
    scratch = None
    hub = None
    httpd = None
    procs: List = []
    death_r = death_w = None
    try:
        service.open()  # recovery: snapshot + WAL tail, then publish
        sock = socket.create_server(
            (cfg.host, cfg.port), backlog=128, reuse_port=False
        )
        host, port = sock.getsockname()[:2]
        write_endpoint(cfg.data_dir, host, port, os.getpid())
        print(
            f"repro serve: listening on http://{host}:{port} "
            f"(workers={cfg.workers}, gen={service.gen}, "
            f"applied_seq={service.applied_seq})",
            file=sys.stderr, flush=True,
        )
        if cfg.workers <= 0:
            httpd = TrussHTTPServer(
                sock,
                reader=service.reader,
                write_fn=lambda updates, deadline: _local_write(
                    service, updates, deadline
                ),
                metrics_fn=service.metrics_text,
                registry=service.registry,
                tracer=tracer,
                deadline_ms=cfg.deadline_ms,
                max_inflight=cfg.max_inflight,
                client_timeout=cfg.client_timeout,
            )
            httpd.serve_background()
            stop.wait()
        else:
            scratch = tempfile.mkdtemp(prefix="repro-serve-")
            ipc_address = os.path.join(scratch, "writer.sock")
            authkey = os.urandom(16)
            hub = WriterHub(service, ipc_address, authkey)
            hub.start()
            death_r, death_w = os.pipe()
            ctx = get_context("fork")
            for idx in range(cfg.workers):
                proc = ctx.Process(
                    target=_worker_main,
                    args=(idx, sock, cfg, service.snapshot_root,
                          ipc_address, authkey, death_r, death_w),
                    name=f"repro-serve-w{idx}",
                )
                proc.start()
                procs.append(proc)
            os.close(death_r)
            death_r = None
            stop.wait()
    except KeyboardInterrupt:
        pass  # contained: the finally below is the whole story
    finally:
        if httpd is not None:
            httpd.shutdown()
        if hub is not None:
            hub.close()
        for proc in procs:
            proc.terminate()
        deadline = time.monotonic() + 5.0
        for proc in procs:
            proc.join(timeout=max(deadline - time.monotonic(), 0.1))
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
        if death_w is not None:
            try:
                os.close(death_w)
            except OSError:
                pass
        if death_r is not None:
            try:
                os.close(death_r)
            except OSError:
                pass
        service.close()  # publishes pending state, fsyncs + closes WAL
        if sock is not None:
            sock.close()
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.unlink(Path(cfg.data_dir) / ENDPOINT)
        except OSError:
            pass
        if owned_tracer:
            tracer.close()


def _local_write(service: TrussService, updates: List[Update],
                 deadline: Optional[float]) -> dict:
    applied, seq, gen = service.apply_write(updates, deadline)
    return {"applied": applied, "seq": seq, "gen": gen}
