"""The HTTP surface, in-thread: routes, headers, shed paths, spans."""

from __future__ import annotations

import http.client
import json
import socket
from types import SimpleNamespace

import pytest

from repro.graph import Graph, write_edge_list
from repro.obs import Tracer, validate_event
from repro.serve import snapshot as snap
from repro.serve.http import TrussHTTPServer
from repro.serve.server import _local_write
from repro.serve.service import TrussService

pytestmark = pytest.mark.skipif(
    snap._np is None, reason="repro serve needs numpy"
)

EDGES = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 3), (4, 5)]


def _start(tmp_path, **service_kw):
    path = tmp_path / "g.txt"
    write_edge_list(Graph(EDGES), path)
    tracer = service_kw.pop("tracer", None)
    svc = TrussService(tmp_path / "data", path, tracer=tracer, **service_kw)
    svc.open()
    sock = socket.create_server(("127.0.0.1", 0))
    httpd = TrussHTTPServer(
        sock,
        reader=svc.reader,
        write_fn=lambda updates, deadline: _local_write(
            svc, updates, deadline
        ),
        metrics_fn=svc.metrics_text,
        registry=svc.registry,
        tracer=tracer,
        deadline_ms=2000.0,
        max_inflight=4,
        client_timeout=5.0,
    )
    httpd.serve_background(poll_interval=0.02)
    return SimpleNamespace(
        svc=svc, httpd=httpd, port=sock.getsockname()[1], tracer=tracer
    )


@pytest.fixture
def served(tmp_path):
    box = _start(tmp_path)
    yield box
    box.httpd.shutdown()
    box.httpd.server_close()
    box.svc.close()


def _request(box, method, path, body=None, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", box.port, timeout=10)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        data = resp.read()
        hdrs = {k.lower(): v for k, v in resp.getheaders()}
        return resp.status, hdrs, data
    finally:
        conn.close()


def _get_json(box, path, **kw):
    status, hdrs, data = _request(box, "GET", path, **kw)
    return status, hdrs, json.loads(data)


class TestReads:
    def test_edge_lookup(self, served):
        status, hdrs, doc = _get_json(served, "/edge/0/1/trussness")
        assert status == 200
        assert doc == {"u": 0, "v": 1, "trussness": 4}
        assert hdrs["x-repro-generation"] == str(served.svc.gen)
        assert hdrs["x-repro-stale"] == "0"

    def test_edge_order_is_canonicalized(self, served):
        status, _, doc = _get_json(served, "/edge/1/0/trussness")
        assert status == 200 and doc["trussness"] == 4

    def test_missing_edge_is_404(self, served):
        status, hdrs, doc = _get_json(served, "/edge/0/99/trussness")
        assert status == 404 and doc["error"] == "no such edge"
        assert "x-repro-generation" in hdrs  # still stamped

    def test_community_explicit_k(self, served):
        status, _, doc = _get_json(served, "/community/0?k=4")
        assert status == 200
        assert doc["num_vertices"] == 4 and doc["num_edges"] == 6
        assert [4, 5] not in [e[:2] for e in doc["edges"]]

    def test_community_defaults_to_max_k(self, served):
        _, _, doc = _get_json(served, "/community/0")
        assert doc["k"] == 4

    def test_community_bad_k_is_400(self, served):
        status, _, doc = _get_json(served, "/community/0?k=banana")
        assert status == 400 and "integer" in doc["error"]

    def test_community_non_ascii_k_is_400(self, served):
        # int() of the decoded value would read the Arabic-Indic 4
        status, _, doc = _get_json(served, "/community/0?k=%D9%A4")
        assert status == 400 and "integer" in doc["error"]

    def test_community_unknown_vertex_is_404(self, served):
        status, _, _ = _get_json(served, "/community/99?k=3")
        assert status == 404

    @pytest.mark.parametrize("far", ["99999999999999999999",
                                     "-99999999999999999999"])
    def test_ids_outside_int64_are_404(self, served, far):
        for path in (f"/edge/{far}/1/trussness", f"/edge/0/{far}/trussness",
                     f"/community/{far}", f"/community/{far}?k=3"):
            status, _, doc = _get_json(served, path)
            assert status == 404, (path, doc)

    def test_dump_matches_decomposition(self, served):
        status, _, data = _request(served, "GET", "/dump")
        view, _ = served.svc.reader.current()
        assert status == 200
        assert data.decode() == "\n".join(view.dump_lines()) + "\n"

    def test_unknown_route_is_404(self, served):
        status, _, doc = _get_json(served, "/no/such/route")
        assert status == 404 and "no route" in doc["error"]


class TestHealth:
    def test_healthz_readyz_metrics(self, served):
        assert _request(served, "GET", "/healthz")[0] == 200
        assert _request(served, "GET", "/readyz")[0] == 200
        status, _, data = _request(served, "GET", "/metrics")
        assert status == 200
        text = data.decode()
        # one exposition merging the service and maintainer registries
        assert "repro_serve_publishes_total" in text
        assert "repro_http_requests_total" in text


class TestWrites:
    def test_post_edge_json_body(self, served):
        body = json.dumps({"u": 5, "v": 6})
        status, _, data = _request(
            served, "POST", "/edges", body=body,
            headers={"Content-Type": "application/json"},
        )
        assert status == 200
        doc = json.loads(data)
        assert doc["applied"] == 1 and doc["seq"] == 1
        assert _get_json(served, "/edge/5/6/trussness")[0] == 200

    def test_delete_edge_query_params(self, served):
        status, _, data = _request(served, "DELETE", "/edges?u=4&v=5")
        assert status == 200 and json.loads(data)["applied"] == 1
        assert _get_json(served, "/edge/4/5/trussness")[0] == 404

    def test_delete_edge_non_ascii_query_id_is_400(self, served):
        # int() of the decoded value would read the Arabic-Indic 1 and
        # delete edge (1, 3)
        status, _, data = _request(served, "DELETE", "/edges?u=%D9%A1&v=3")
        assert status == 400 and "integers" in json.loads(data)["error"]
        assert served.svc._wal.last_seq == 0  # nothing logged
        assert _get_json(served, "/edge/1/3/trussness")[0] == 200
        status, _, data = _request(served, "DELETE", "/edges?u=1&v=3")
        assert status == 200 and json.loads(data)["applied"] == 1

    def test_post_edge_bad_body_is_400(self, served):
        status, _, _ = _request(served, "POST", "/edges", body="not json")
        assert status == 400

    def test_post_edge_missing_endpoints_is_400(self, served):
        status, _, doc = _get_json(served, "/edges")  # GET has no route
        assert status == 404
        status, _, data = _request(served, "POST", "/edges")
        assert status == 400
        assert "missing edge endpoints" in json.loads(data)["error"]

    def test_post_edge_id_outside_int64_is_400(self, served):
        body = json.dumps({"u": 99999999999999999999, "v": 1})
        status, _, data = _request(served, "POST", "/edges", body=body)
        assert status == 400 and "64-bit" in json.loads(data)["error"]
        status, _, _ = _request(
            served, "POST", "/updates", body=b"+ 1 -99999999999999999999\n"
        )
        assert status == 400
        status, _, _ = _request(served, "POST", "/edges?u=4&v=9")
        assert status == 200  # the writer still publishes

    @pytest.mark.parametrize("u, v", [(1.9, 7), ("8", 9), (True, 11)])
    def test_post_edge_non_integer_id_is_400(self, served, u, v):
        # int() would insert (1, 7), (8, 9) and (1, 11)
        body = json.dumps({"u": u, "v": v})
        status, _, data = _request(served, "POST", "/edges", body=body)
        assert status == 400 and "int" in json.loads(data)["error"]
        assert served.svc._wal.last_seq == 0  # nothing logged
        status, _, data = _request(served, "POST", "/edges?u=4&v=9")
        assert status == 200 and json.loads(data)["seq"] == 1

    def test_post_updates_bulk(self, served):
        body = "+ 5 6\n# comment\n\n- 0 3\n"
        status, _, data = _request(served, "POST", "/updates", body=body)
        assert status == 200
        doc = json.loads(data)
        assert doc["applied"] == 2 and doc["seq"] == 2

    def test_post_updates_bad_line_is_400(self, served):
        status, _, data = _request(
            served, "POST", "/updates", body="+ 1 2\n* 3 4\n"
        )
        assert status == 400
        assert "body:2" in json.loads(data)["error"]

    @pytest.mark.parametrize("body", [
        "+ 1 2\n+ \u0661 3\n".encode(),  # int() of the str reads 1
        b"+ 1 2\n+ 1\x1c2 3\n",  # str lines also end at \x1c
        b"+ 1 2\r+ \xff 3\n",
    ], ids=["arabic-indic-one", "file-separator", "byte-ff"])
    def test_post_updates_non_ascii_id_is_400(self, served, body):
        status, _, data = _request(served, "POST", "/updates", body=body)
        assert status == 400
        assert json.loads(data)["error"].startswith(
            "body:2: non-integer vertex id"
        )
        assert served.svc._wal.last_seq == 0  # nothing logged

    def test_post_updates_id_outside_int64_is_400(self, served):
        body = "+ 1 2\n+ 3 -9223372036854775809\n"
        status, _, data = _request(served, "POST", "/updates", body=body)
        assert status == 400
        assert json.loads(data)["error"].startswith(
            "body:2: vertex id outside the signed 64-bit range"
        )
        assert served.svc._wal.last_seq == 0  # nothing logged


class TestStaleness:
    def test_deferred_publish_sets_stale_header(self, tmp_path):
        box = _start(tmp_path, snapshot_every=3)
        try:
            _request(box, "POST", "/edges",
                     body=json.dumps({"u": 5, "v": 6}))
            # applied but unpublished: the view cannot see it yet
            status, hdrs, _ = _get_json(box, "/edge/5/6/trussness")
            assert status == 404 and hdrs["x-repro-stale"] == "1"
            for u, v in [(5, 7), (6, 7)]:
                _request(box, "POST", "/edges",
                         body=json.dumps({"u": u, "v": v}))
            status, hdrs, _ = _get_json(box, "/edge/5/6/trussness")
            assert status == 200 and hdrs["x-repro-stale"] == "0"
        finally:
            box.httpd.shutdown()
            box.httpd.server_close()
            box.svc.close()


class TestShedding:
    def test_expired_deadline_is_504(self, served):
        served.httpd.deadline_s = -1.0  # every deadline is already past
        try:
            status, _, doc = _get_json(served, "/edge/0/1/trussness")
        finally:
            served.httpd.deadline_s = 2.0
        assert status == 504 and doc["error"] == "deadline expired"

    def test_deadline_header_overrides_default(self, served):
        status, _, _ = _get_json(
            served, "/edge/0/1/trussness",
            headers={"X-Deadline-Ms": "5000"},
        )
        assert status == 200

    def test_full_inflight_window_is_503(self, served):
        held = 0
        while served.httpd.inflight.acquire(blocking=False):
            held += 1
        try:
            status, hdrs, doc = _get_json(served, "/edge/0/1/trussness")
            assert status == 503 and hdrs["retry-after"] == "1"
            assert "capacity" in doc["error"]
            # health and metrics bypass admission control
            assert _request(served, "GET", "/healthz")[0] == 200
            assert _request(served, "GET", "/metrics")[0] == 200
        finally:
            for _ in range(held):
                served.httpd.inflight.release()
        assert 'reason="inflight"' in served.svc.registry.to_prometheus()


class TestObservability:
    def test_request_spans_and_counters(self, tmp_path):
        box = _start(tmp_path, tracer=Tracer(sink=None))
        try:
            _get_json(box, "/edge/0/1/trussness")
            _request(box, "POST", "/edges", body=json.dumps({"u": 5, "v": 6}))
            _get_json(box, "/edge/0/99/trussness")
        finally:
            box.httpd.shutdown()
            box.httpd.server_close()
            box.svc.close()
        events = box.tracer.drain()
        for event in events:
            validate_event(event)
        spans = [e for e in events if e["name"] == "request"]
        assert len(spans) == 3
        by_route = {
            (e["attrs"]["route"], e["attrs"]["status"]) for e in spans
        }
        assert ("/edge/{u}/{v}/trussness", 200) in by_route
        assert ("/edge/{u}/{v}/trussness", 404) in by_route
        assert ("/edges", 200) in by_route
        text = box.svc.registry.to_prometheus()
        assert 'repro_http_requests_total{route="/edges",status="200"}' in text
