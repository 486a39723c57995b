"""The HTTP surface of the truss server (stdlib ``http.server``).

Routes (all JSON unless noted):

* ``GET /edge/{u}/{v}/trussness`` — the edge's phi (404: no such edge);
* ``GET /community/{v}?k=K`` — the k-truss community containing ``v``
  (K defaults to the largest k any edge at ``v`` reaches);
* ``GET /dump`` — the whole trussness map as sorted ``u v phi`` text,
  byte-identical to ``repro decompose`` output (the parity probe);
* ``GET /healthz`` (liveness), ``GET /readyz`` (recovery finished),
  ``GET /metrics`` (Prometheus text) — never load-shed;
* ``POST /edges`` / ``DELETE /edges`` — one insert/delete, JSON
  ``{"u": .., "v": ..}`` body (DELETE also accepts ``?u=&v=``);
* ``POST /updates`` — bulk text body in the ``'+ u v'`` update-stream
  format (the same parser as ``repro update`` and the WAL).

Every request carries a deadline — ``X-Deadline-Ms`` or the server
default — answered with **504** once expired; a full admission window
(``max_inflight`` in flight here, plus the writer's own queue bound)
answers **503** with ``Retry-After`` instead of queueing unboundedly;
slow clients hit the per-connection socket timeout and are dropped
mid-read instead of pinning a handler thread.  Read responses carry
``X-Repro-Generation`` and ``X-Repro-Stale`` (1: applied writes exist
that this view cannot see yet — reads keep being served from the
published generation while a repair is in flight).

One span per request — ``request`` with ``{route, status, dur, stale}``
attrs — goes to the tracer when tracing is on, so ``repro
trace-report`` renders a server latency timeline from the same schema
every engine emits.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.obs import NULL_TRACER, MetricsRegistry
from repro.serve.service import LATENCY_BUCKETS, ServeError
from repro.stream.updates import Update, read_update_lines

#: request body cap — a bulk update batch, not an upload service
MAX_BODY_BYTES = 8 << 20

_EDGE_ROUTE = re.compile(r"^/edge/(-?\d+)/(-?\d+)/trussness$")
_COMMUNITY_ROUTE = re.compile(r"^/community/(-?\d+)$")


def _query_int(query, name: str) -> int:
    """The ``?name=`` value as ``int()`` of its UTF-8 bytes, the rule
    of the update streams: a non-ASCII decimal digit is no number.
    ``ValueError`` otherwise."""
    return int(query[name][0].encode())


class _HTTPError(Exception):
    """Internal short-circuit carrying a status + JSON error body."""

    def __init__(self, status: int, message: str,
                 retry_after: Optional[int] = None) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class TrussHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to a ready-made listening socket.

    The socket is created by the caller (and, with worker processes,
    *shared* between them — the kernel load-balances ``accept``), so
    construction never binds: it adopts ``sock`` and serves.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        sock: socket.socket,
        *,
        reader,
        write_fn: Callable[[List[Update], Optional[float]], dict],
        metrics_fn: Callable[[], str],
        registry: MetricsRegistry,
        tracer=None,
        deadline_ms: float = 2000.0,
        max_inflight: int = 64,
        client_timeout: float = 10.0,
    ) -> None:
        super().__init__(
            sock.getsockname(), TrussRequestHandler, bind_and_activate=False
        )
        self.socket.close()  # the placeholder TCPServer.__init__ made
        self.socket = sock
        self.reader = reader
        self.write_fn = write_fn
        self.metrics_fn = metrics_fn
        self.registry = registry
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.deadline_s = max(deadline_ms, 1.0) / 1000.0
        self.inflight = threading.BoundedSemaphore(max(1, int(max_inflight)))
        self.client_timeout = client_timeout

    def serve_background(self, poll_interval: float = 0.5) -> threading.Thread:
        """``serve_forever`` on a daemon thread (tests, workers)."""
        t = threading.Thread(
            target=self.serve_forever, args=(poll_interval,), daemon=True
        )
        t.start()
        return t


class TrussRequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"

    server: TrussHTTPServer  # narrowed for readability

    def setup(self) -> None:
        # per-connection socket timeout: a slow-loris client trickling
        # bytes is dropped here instead of pinning a handler thread
        self.timeout = self.server.client_timeout
        super().setup()

    def log_message(self, fmt, *args) -> None:
        pass  # request accounting lives in the metrics registry

    # ------------------------------------------------------------ replies
    def _reply(self, status: int, body: bytes, ctype: str,
               extra=()) -> None:
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        for key, value in extra:
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def _reply_json(self, status: int, obj, extra=()) -> None:
        body = (json.dumps(obj, sort_keys=True) + "\n").encode()
        self._reply(status, body, "application/json", extra)

    # ----------------------------------------------------------- dispatch
    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")

    def _dispatch(self, method: str) -> None:
        t0 = time.perf_counter()
        split = urlsplit(self.path)
        path, query = split.path, parse_qs(split.query)
        deadline = time.monotonic() + self._deadline_s()
        route, status, stale = path, 500, False
        try:
            route, status, stale = self._route(method, path, query, deadline)
        except _HTTPError as exc:
            status = exc.status
            extra = []
            if exc.retry_after is not None:
                extra.append(("Retry-After", str(exc.retry_after)))
            try:
                self._reply_json(status, {"error": str(exc)}, extra)
            except OSError:
                pass  # client went away; accounting still happens
        except (BrokenPipeError, ConnectionResetError, socket.timeout):
            status = 499  # client closed / stalled mid-exchange
            self.close_connection = True
        finally:
            dur = time.perf_counter() - t0
            reg = self.server.registry
            reg.inc("repro_http_requests_total", route=route,
                    status=str(status))
            reg.observe("repro_http_request_seconds", dur,
                        buckets=LATENCY_BUCKETS, route=route)
            tracer = self.server.tracer
            if tracer.enabled:
                tracer.complete_span(
                    "request", dur, route=route, status=status,
                    stale=stale, method=method,
                )

    def _deadline_s(self) -> float:
        raw = self.headers.get("X-Deadline-Ms")
        if raw:
            try:
                return max(float(raw), 1.0) / 1000.0
            except ValueError:
                pass
        return self.server.deadline_s

    def _route(
        self, method: str, path: str, query, deadline: float
    ) -> Tuple[str, int, bool]:
        """Handle one request; returns ``(route, status, stale)``."""
        # health/metrics answer unconditionally — they are how overload
        # and recovery are *observed*, so they bypass admission control
        if method == "GET" and path == "/healthz":
            self._reply(200, b"ok\n", "text/plain")
            return "/healthz", 200, False
        if method == "GET" and path == "/readyz":
            if self.server.reader.ready():
                self._reply(200, b"ready\n", "text/plain")
                return "/readyz", 200, False
            self._reply(503, b"recovering\n", "text/plain",
                        [("Retry-After", "1")])
            return "/readyz", 503, False
        if method == "GET" and path == "/metrics":
            body = self.server.metrics_fn().encode()
            self._reply(200, body, "text/plain; version=0.0.4")
            return "/metrics", 200, False
        if not self.server.inflight.acquire(blocking=False):
            self.server.registry.inc(
                "repro_serve_shed_total", reason="inflight"
            )
            raise _HTTPError(503, "server is at capacity", retry_after=1)
        try:
            return self._route_admitted(method, path, query, deadline)
        finally:
            self.server.inflight.release()

    def _route_admitted(
        self, method: str, path: str, query, deadline: float
    ) -> Tuple[str, int, bool]:
        m = _EDGE_ROUTE.match(path)
        if m and method == "GET":
            return self._get_edge(int(m.group(1)), int(m.group(2)),
                                  deadline)
        m = _COMMUNITY_ROUTE.match(path)
        if m and method == "GET":
            return self._get_community(int(m.group(1)), query, deadline)
        if path == "/dump" and method == "GET":
            return self._get_dump(deadline)
        if path == "/edges" and method == "POST":
            return self._mutate_one("insert", query, deadline)
        if path == "/edges" and method == "DELETE":
            return self._mutate_one("delete", query, deadline)
        if path == "/updates" and method == "POST":
            return self._post_updates(deadline)
        raise _HTTPError(404, f"no route for {method} {path}")

    # -------------------------------------------------------------- reads
    def _view(self):
        if not self.server.reader.ready():
            raise _HTTPError(503, "recovering", retry_after=1)
        return self.server.reader.current()

    def _read_headers(self, view, stale):
        return [
            ("X-Repro-Generation", str(view.gen)),
            ("X-Repro-Stale", "1" if stale else "0"),
        ]

    def _check_deadline(self, deadline: float) -> None:
        if time.monotonic() > deadline:
            self.server.registry.inc(
                "repro_serve_shed_total", reason="deadline"
            )
            raise _HTTPError(504, "deadline expired")

    def _get_edge(self, u: int, v: int, deadline: float):
        view, stale = self._view()
        k = view.lookup(u, v)
        self._check_deadline(deadline)
        hdrs = self._read_headers(view, stale)
        if k is None:
            self._reply_json(404, {"u": u, "v": v, "error": "no such edge"},
                             hdrs)
            return "/edge/{u}/{v}/trussness", 404, stale
        self._reply_json(200, {"u": u, "v": v, "trussness": k}, hdrs)
        return "/edge/{u}/{v}/trussness", 200, stale

    def _get_community(self, v: int, query, deadline: float):
        view, stale = self._view()
        if "k" in query:
            try:
                k = _query_int(query, "k")
            except ValueError:
                raise _HTTPError(400, "k must be an integer") from None
        else:
            k = view.max_k_of_vertex(v)  # the max-k community
        hdrs = self._read_headers(view, stale)
        result = None if k is None else view.community(v, k)
        self._check_deadline(deadline)
        if result is None:
            self._reply_json(
                404, {"vertex": v, "error": "no community at this k"}, hdrs
            )
            return "/community/{v}", 404, stale
        self._reply_json(200, result, hdrs)
        return "/community/{v}", 200, stale

    def _get_dump(self, deadline: float):
        view, stale = self._view()
        body = ("\n".join(view.dump_lines()) + "\n").encode()
        self._check_deadline(deadline)
        self._reply(200, body, "text/plain",
                    self._read_headers(view, stale))
        return "/dump", 200, stale

    # ------------------------------------------------------------- writes
    def _body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise _HTTPError(413, "request body too large")
        return self.rfile.read(length) if length else b""

    def _apply(self, updates: List[Update], deadline: float):
        try:
            return self.server.write_fn(updates, deadline)
        except ServeError as exc:
            raise _HTTPError(exc.status, str(exc),
                             retry_after=exc.retry_after) from None

    def _mutate_one(self, op: str, query, deadline: float):
        route = "/edges"
        u = v = None
        body = self._body()
        if body:
            try:
                payload = json.loads(body)
                u, v = payload["u"], payload["v"]
            except (ValueError, KeyError, TypeError):
                pass
            # JSON integers only: int() would take 1.9, "8" and true
            if type(u) is not int or type(v) is not int:
                raise _HTTPError(
                    400, 'body must be JSON {"u": int, "v": int}'
                )
        elif "u" in query and "v" in query:
            try:
                u, v = _query_int(query, "u"), _query_int(query, "v")
            except ValueError:
                raise _HTTPError(400, "u and v must be integers") from None
        if u is None:
            raise _HTTPError(400, "missing edge endpoints")
        result = self._apply([(op, u, v)], deadline)
        self._reply_json(200, result)
        return route, 200, False

    def _post_updates(self, deadline: float):
        try:
            updates = read_update_lines(self._body().splitlines(), "body")
        except ValueError as exc:
            raise _HTTPError(400, str(exc)) from None
        result = self._apply(updates, deadline)
        self._reply_json(200, result)
        return "/updates", 200, False
