"""``TrussService``: the write path, recovery, deadlines, backpressure."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import durable
from repro.core import truss_decomposition
from repro.graph import Graph, write_edge_list
from repro.obs import Tracer
from repro.serve import snapshot as snap
from repro.serve.chaos import tear_snapshot, tear_wal_tail
from repro.serve.service import (
    DeadlineExpiredError,
    InvalidUpdateError,
    NotReadyError,
    OverloadedError,
    ServeError,
    TrussService,
)

pytestmark = pytest.mark.skipif(
    snap._np is None, reason="repro serve needs numpy"
)

EDGES = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 3),
         (4, 5), (4, 6), (5, 6), (3, 4)]


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.txt"
    write_edge_list(Graph(EDGES), path)
    return path


def _service(tmp_path, graph=None, **kw):
    return TrussService(tmp_path / "data", graph, **kw)


def _flat_phi(edges):
    return dict(
        truss_decomposition(Graph(sorted(edges)), method="flat").trussness
    )


class TestLifecycle:
    def test_seed_write_publish(self, tmp_path, graph_file):
        with _service(tmp_path, graph_file) as svc:
            assert svc.ready
            view, stale = svc.reader.current()
            assert view.num_edges == len(EDGES) and not stale
            applied, seq, gen = svc.apply_write(
                [("insert", 5, 7), ("insert", 6, 7)]
            )
            assert (applied, seq) == (2, 2)
            view, _ = svc.reader.current()
            assert view.gen == gen
            assert view.lookup(5, 7) == 3
        assert not svc.ready  # closed

    def test_no_snapshot_and_no_graph_raises(self, tmp_path):
        svc = _service(tmp_path, None)
        with pytest.raises(ServeError):
            svc.open()

    def test_not_ready_before_open(self, tmp_path, graph_file):
        svc = _service(tmp_path, graph_file)
        with pytest.raises(NotReadyError):
            svc.apply_write([("insert", 9, 10)])

    def test_close_is_idempotent(self, tmp_path, graph_file):
        svc = _service(tmp_path, graph_file)
        svc.open()
        svc.close()
        svc.close()


class TestRecovery:
    def test_restart_replays_wal_tail(self, tmp_path, graph_file):
        with _service(tmp_path, graph_file, snapshot_every=100) as svc:
            svc.apply_write([("insert", 5, 7)])
            svc.apply_write([("insert", 6, 7), ("delete", 3, 4)])
            expect = dict(svc.maintainer.trussness)
            # simulate a crash: the WAL has the writes, no publish ran
            svc._wal.close()
        svc2 = _service(tmp_path, None)
        svc2.open()
        assert dict(svc2.maintainer.trussness) == expect
        assert svc2.applied_seq == 3
        svc2.close()

    def test_torn_newest_snapshot_falls_back(self, tmp_path, graph_file):
        with _service(tmp_path, graph_file) as svc:
            svc.apply_write([("insert", 5, 7)])
            svc.apply_write([("insert", 6, 7)])
            expect = dict(svc.maintainer.trussness)
        tear_snapshot(tmp_path / "data" / "snapshots", mode="truncate")
        svc2 = _service(tmp_path, None)
        svc2.open()
        # prior generation + WAL tail reconverges to the same state
        assert dict(svc2.maintainer.trussness) == expect
        assert "serve_torn_snapshot" in svc2.registry.to_prometheus()
        svc2.close()

    def test_torn_wal_tail_is_truncated_and_counted(self, tmp_path,
                                                    graph_file):
        with _service(tmp_path, graph_file, snapshot_every=100) as svc:
            svc.apply_write([("insert", 5, 7)])
            expect = dict(svc.maintainer.trussness)
            svc._wal.close()
        tear_wal_tail(tmp_path / "data" / "wal")
        svc2 = _service(tmp_path, None)
        svc2.open()
        assert dict(svc2.maintainer.trussness) == expect
        assert "serve_wal_torn" in svc2.registry.to_prometheus()
        svc2.close()

    def test_non_ascii_wal_record_is_torn_not_fatal(self, tmp_path,
                                                   graph_file):
        with _service(tmp_path, graph_file, snapshot_every=100) as svc:
            svc.apply_write([("insert", 5, 7), ("insert", 6, 7)])
            svc._wal.close()  # a crash: no publish covers the records
        seg = max((tmp_path / "data" / "wal").glob("wal_*.log"))
        seg.write_bytes(
            seg.read_bytes().replace(b"+ 6 7", b"+ \xb5 7")
        )
        svc2 = _service(tmp_path, None)
        svc2.open()
        assert svc2.applied_seq == 1
        assert svc2.maintainer.has_edge(5, 7)
        assert not svc2.maintainer.has_edge(6, 7)
        assert svc2.registry.value(
            "repro_degraded_total", path="serve_wal_torn"
        ) == 1
        svc2.close()

    @pytest.mark.parametrize("shape", [[1, 2], 7, "x"],
                             ids=["list", "int", "str"])
    def test_wrong_shaped_manifests_are_skipped(self, tmp_path, graph_file,
                                                shape):
        with _service(tmp_path, graph_file, snapshot_every=100) as svc:
            svc.apply_write([("insert", 5, 7)])
            svc.apply_write([("insert", 6, 7)])
            expect = dict(svc.maintainer.trussness)
        manifests = sorted(
            (tmp_path / "data" / "snapshots").glob("gen_*/" + snap.MANIFEST)
        )
        assert len(manifests) == 2
        for path in manifests:
            path.write_text(json.dumps(shape))
        svc2 = _service(tmp_path, graph_file)
        svc2.open()
        # every generation skipped: re-seeded from the graph, whole WAL
        assert dict(svc2.maintainer.trussness) == expect
        assert svc2.registry.value(
            "repro_degraded_total", path="serve_torn_snapshot"
        ) == 2
        svc2.close()

    def test_wal_gap_refuses_to_serve(self, tmp_path, graph_file):
        """Every retained generation torn, the WAL already pruned past
        the seed: re-seeding would silently drop acked writes."""
        with _service(tmp_path, graph_file) as svc:
            for v in range(7, 13):
                svc.apply_write([("insert", 6, v)])
        snaps = tmp_path / "data" / "snapshots"
        assert snap.generations(snaps) == [5, 6]
        wal = sorted(p.name for p in (tmp_path / "data" / "wal").iterdir())
        assert wal == ["wal_0000000000000006.log", "wal_0000000000000007.log"]
        for gen in (5, 6):
            tear_snapshot(snaps, gen=gen, mode="flip")
        svc2 = _service(tmp_path, graph_file)
        with pytest.raises(ServeError, match=r"records 1\.\.5 are missing"):
            svc2.open()
        assert not svc2.ready
        svc2.close()
        # nothing was published over the evidence
        assert snap.generations(snaps) == [5, 6]
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", str(graph_file),
             "--data", str(tmp_path / "data"), "--port", "0"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        errors = [ln for ln in proc.stderr.splitlines()
                  if ln.startswith("error:")]
        assert len(errors) == 1 and "1..5" in errors[0], proc.stderr

    def test_recovered_state_matches_flat(self, tmp_path, graph_file):
        updates = [("insert", 5, 7), ("insert", 6, 7), ("delete", 0, 3)]
        with _service(tmp_path, graph_file, snapshot_every=2) as svc:
            for upd in updates:
                svc.apply_write([upd])
        svc2 = _service(tmp_path, None)
        svc2.open()
        edges = set(EDGES) | {(5, 7), (6, 7)}
        edges.discard((0, 3))
        assert dict(svc2.maintainer.trussness) == _flat_phi(edges)
        svc2.close()

    def test_recover_span_emitted(self, tmp_path, graph_file):
        tracer = Tracer(sink=None)
        svc = TrussService(tmp_path / "data", graph_file, tracer=tracer)
        svc.open()
        svc.close()
        names = [e["name"] for e in tracer.drain()]
        assert "recover" in names and "publish" in names


class TestPublishDurability:
    def test_directory_entries_durable_before_prune(self, tmp_path,
                                                    graph_file, monkeypatch):
        data = tmp_path / "data"
        calls = []

        def record(name, real, arg=0):
            def wrapped(*args, **kwargs):
                path = args[arg]
                if str(path).startswith(str(data)):
                    calls.append((name, Path(path)))
                return real(*args, **kwargs)
            return wrapped

        with _service(tmp_path, graph_file) as svc:
            svc.apply_write([("insert", 5, 7)])  # generation 1
            monkeypatch.setattr(
                durable, "fsync_dir", record("fsync_dir", durable.fsync_dir)
            )
            monkeypatch.setattr(os, "replace", record("rename", os.replace, 1))
            monkeypatch.setattr(shutil, "rmtree", record("prune", shutil.rmtree))
            monkeypatch.setattr(os, "unlink", record("prune", os.unlink))
            # generation 2: prunes generation 0 and the first WAL segment
            svc.apply_write([("insert", 6, 7)])
            monkeypatch.undo()
        snaps = data / "snapshots"
        gen2 = snaps / "gen_00000002"
        pruned = [path for name, path in calls if name == "prune"]
        assert snaps / "gen_00000000" in pruned
        assert any(path.parent == data / "wal" for path in pruned)
        first_prune = min(
            i for i, (name, _) in enumerate(calls) if name == "prune"
        )
        assert (
            calls.index(("fsync_dir", snaps))
            < calls.index(("rename", gen2 / snap.MANIFEST))
            < calls.index(("fsync_dir", gen2))
            < first_prune
        )


class TestFreshDataDirDurability:
    def test_created_directories_durable_before_first_ack(
        self, tmp_path, graph_file, monkeypatch
    ):
        """Every directory the service creates on a fresh path has its
        entry fsynced in its parent before the first write returns, so
        a power loss cannot drop the data directory with the acked
        records in it."""
        data = tmp_path / "a" / "b" / "data"
        synced = []  # (directory, its entry names at the fsync)
        real = durable.fsync_dir

        def record(path):
            synced.append((Path(path), set(os.listdir(path))))
            return real(path)

        monkeypatch.setattr(durable, "fsync_dir", record)
        with TrussService(data, graph_file) as svc:
            svc.apply_write([("insert", 5, 7)])
            acked = list(synced)
        created = [
            tmp_path / "a", tmp_path / "a" / "b", data,
            data / "wal", data / "snapshots",
        ]
        for path in created:
            assert any(
                synced_dir == path.parent and path.name in names
                for synced_dir, names in acked
            ), path


class TestDeadlinesAndBackpressure:
    def test_expired_deadline_is_rejected_before_logging(
        self, tmp_path, graph_file
    ):
        with _service(tmp_path, graph_file) as svc:
            wal_before = svc._wal.last_seq
            with pytest.raises(DeadlineExpiredError):
                svc.apply_write([("insert", 9, 10)],
                                deadline=time.monotonic() - 1.0)
            assert svc._wal.last_seq == wal_before  # nothing durable
            assert 'reason="deadline"' in svc.registry.to_prometheus()

    @pytest.mark.parametrize("far", [1 << 63, -(1 << 63) - 1])
    def test_id_outside_int64_is_rejected_before_logging(
        self, tmp_path, graph_file, far
    ):
        # logged, such a record would fail every later publish and
        # every recovery that replays it
        with _service(tmp_path, graph_file) as svc:
            wal_before = svc._wal.last_seq
            with pytest.raises(InvalidUpdateError) as info:
                svc.apply_write([("insert", 5, 7), ("insert", far, 1)])
            assert info.value.status == 400
            assert svc._wal.last_seq == wal_before  # nothing durable
            assert svc.apply_write([("insert", 5, 7)])[0] == 1
        with _service(tmp_path) as svc:
            assert svc.reader.current()[0].lookup(5, 7) == 2

    @pytest.mark.parametrize("bad", ["x", 1.5, "7"])
    def test_non_integer_id_is_rejected_before_logging(
        self, tmp_path, graph_file, bad
    ):
        # int() would raise a bare ValueError on "x", and log and apply
        # 1.5 as vertex 1 and "7" as vertex 7
        with _service(tmp_path, graph_file) as svc:
            wal_before = svc._wal.last_seq
            with pytest.raises(InvalidUpdateError) as info:
                svc.apply_write([("insert", 5, 7), ("insert", bad, 9)])
            assert info.value.status == 400
            assert svc._wal.last_seq == wal_before  # nothing durable
            assert svc.maintainer.num_edges == len(EDGES)

    def test_numpy_integer_ids_apply(self, tmp_path, graph_file):
        with _service(tmp_path, graph_file) as svc:
            write = [("insert", snap._np.int64(5), snap._np.int64(7))]
            assert svc.apply_write(write)[0] == 1
        with _service(tmp_path) as svc:
            assert svc.reader.current()[0].lookup(5, 7) == 2

    def test_unknown_op_is_rejected_before_logging(self, tmp_path,
                                                   graph_file):
        # logged halfway, the batch used to burn a seq, so the next
        # acknowledged write was truncated as a torn tail on reopen
        with _service(tmp_path, graph_file, snapshot_every=100) as svc:
            with pytest.raises(InvalidUpdateError) as info:
                svc.apply_write([("insert", 5, 7), ("upsert", 6, 7)])
            assert info.value.status == 400
            assert svc._wal.last_seq == 0  # nothing durable
            assert svc.apply_write([("insert", 10, 11)])[:2] == (1, 1)
            # a crash: the WAL has the write, no publish ran
            svc._wal.close()
        svc2 = _service(tmp_path, None)
        svc2.open()
        try:
            assert svc2.applied_seq == 1
            assert svc2.reader.current()[0].lookup(10, 11) == 2
            assert svc2.reader.current()[0].lookup(5, 7) is None
        finally:
            svc2.close()

    def test_queue_full_sheds(self, tmp_path, graph_file, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_APPLY_DELAY_MS", "80")
        with _service(tmp_path, graph_file, queue_depth=1) as svc:
            start = threading.Barrier(2)
            errors = []

            def writer(u):
                start.wait()
                try:
                    svc.apply_write([("insert", u, u + 1)])
                except OverloadedError as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=writer, args=(100 + i * 2,))
                       for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            # one admitted (holding the slot through its slow apply),
            # the other shed with 503
            assert len(errors) == 1
            assert 'reason="queue_full"' in svc.registry.to_prometheus()

    def test_snapshot_every_defers_publish(self, tmp_path, graph_file):
        with _service(tmp_path, graph_file, snapshot_every=3) as svc:
            gen0 = svc.gen
            svc.apply_write([("insert", 5, 7)])
            view, stale = svc.reader.current()
            assert view.gen == gen0 and stale  # applied but unpublished
            svc.apply_write([("insert", 6, 7)])
            svc.apply_write([("insert", 0, 7)])
            view, stale = svc.reader.current()
            assert view.gen > gen0 and not stale

    def test_metrics_text_merges_maintainer(self, tmp_path, graph_file):
        with _service(tmp_path, graph_file) as svc:
            svc.apply_write([("insert", 5, 7)])
            text = svc.metrics_text()
            assert "repro_serve_writes_total" in text
            assert "repro_repairs_total" in text or "repairs" in text
