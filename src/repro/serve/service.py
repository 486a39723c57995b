"""``TrussService`` — the durable single-writer core of the server.

One instance owns the data directory (``wal/`` + ``snapshots/``), the
live :class:`~repro.stream.TrussMaintainer`, and the only code path
that mutates any of them: :meth:`apply_write`, serialized behind the
single-writer lock.  The write path is, in order:

1. **admit** — a bounded admission slot (``queue_depth``) or an
   immediate :class:`OverloadedError` (HTTP 503 + ``Retry-After``);
   the queue never grows unboundedly;
2. **deadline** — requests carry an absolute deadline; one that
   expired while queued raises :class:`DeadlineExpiredError` (504)
   *before* anything durable happens;
3. **log** — every update is appended to the WAL and fsynced
   (:mod:`repro.serve.wal`).  This is the durability point: what is
   acked is exactly what replay will reapply;
4. **apply** — ``TrussMaintainer.apply_batch`` repairs trussness
   (a repair that trips the maintainer's full-repeel fallback counts
   ``repro_degraded_total{path="stream_full_repeel"}`` and degrades
   gracefully — readers keep answering from the published view);
5. **publish** — every ``snapshot_every``-th batch, the maintainer's
   compacted ``(u, v, phi, sup)`` rows become a new immutable
   generation (:mod:`repro.serve.snapshot`) and the in-process view,
   and the WAL rolls/prunes; between publishes the advisory HEAD
   pointer still advances so readers can report staleness honestly.

Recovery (:meth:`open`) inverts the same contract: newest valid
snapshot generation (torn ones detected, counted and skipped), then
the WAL tail replayed through ``apply_batch`` — bit-identical to the
state the acks promised, pinned by the chaos tests.

Deterministic chaos hooks (test-only, read from the environment once
at construction):

* ``REPRO_SERVE_CRASH_AFTER_WAL=N`` — ``os._exit(42)`` immediately
  after the N-th WAL record of this process's lifetime is durable and
  *before* it is applied: the scripted kill-mid-batch;
* ``REPRO_SERVE_APPLY_DELAY_MS=T`` — sleep T ms between log and
  apply: widens the kill window and makes flood schedules shed
  deterministically.
"""

from __future__ import annotations

import os
import threading
import time
from operator import index
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.durable import make_dirs
from repro.errors import ReproError
from repro.obs import MetricsRegistry, NULL_TRACER, warn_degraded
from repro.serve import snapshot as snap
from repro.serve.view import LocalReader, ReadView
from repro.serve.wal import WriteAheadLog
from repro.stream.maintainer import TrussMaintainer
from repro.stream.updates import UPDATE_OPS, Update

#: histogram buckets for request/apply wall times, seconds
LATENCY_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)


class ServeError(ReproError):
    """Base server-side failure; carries the HTTP status it maps to."""

    status = 500
    retry_after: Optional[int] = None


class NotReadyError(ServeError):
    """The service has not finished recovery (503, retriable)."""

    status = 503
    retry_after = 1


class OverloadedError(ServeError):
    """The bounded admission queue is full — load is shed (503)."""

    status = 503
    retry_after = 1


class DeadlineExpiredError(ServeError):
    """The request's deadline passed before durable work began (504)."""

    status = 504


class InvalidUpdateError(ServeError):
    """An update has an op the WAL cannot log, or a vertex id that is
    not an integer or lies outside int64, which no generation can hold
    (400); logged, it would fail every publish and recovery."""

    status = 400


class TrussService:
    """Durable truss state + the single-writer mutation path."""

    def __init__(
        self,
        data_dir,
        graph_path=None,
        *,
        queue_depth: int = 16,
        snapshot_every: int = 1,
        fsync: bool = True,
        tracer=None,
    ) -> None:
        self.data_dir = Path(data_dir)
        self.graph_path = graph_path
        self.snapshot_root = self.data_dir / "snapshots"
        self.wal_root = self.data_dir / "wal"
        self._snapshot_every = max(1, int(snapshot_every))
        self._fsync = fsync
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self.registry = MetricsRegistry()
        self.reader = LocalReader()
        self._lock = threading.Lock()
        self._admit = threading.BoundedSemaphore(max(1, int(queue_depth)))
        self._wal: Optional[WriteAheadLog] = None
        self._tm = None
        self._gen = -1
        self._applied_seq = 0
        self._batches_since_publish = 0
        self._ready = False
        self._closed = False
        crash_after = os.environ.get("REPRO_SERVE_CRASH_AFTER_WAL")
        self._crash_after = int(crash_after) if crash_after else None
        self._wal_records = 0
        delay = os.environ.get("REPRO_SERVE_APPLY_DELAY_MS")
        self._apply_delay_s = float(delay) / 1000.0 if delay else 0.0

    # ----------------------------------------------------------- recovery
    def open(self) -> None:
        """Recover to the acked state: snapshot + WAL-tail replay."""
        if snap._np is None:
            raise ServeError(
                "repro serve needs numpy, which is not installed: snapshot "
                "generations and read views are int64 arrays"
            )
        t0 = time.perf_counter()
        make_dirs(self.data_dir)
        chosen = None
        for gen in reversed(snap.generations(self.snapshot_root)):
            try:
                phi, sup, wal_seq = snap.load_generation(
                    self.snapshot_root, gen
                )
            except snap.SnapshotError:
                warn_degraded(
                    self._tracer, self.registry, "serve_torn_snapshot",
                    gen=gen,
                )
                continue
            chosen = (gen, phi, sup, wal_seq)
            break
        self._wal = WriteAheadLog(self.wal_root, fsync=self._fsync)
        if self._wal.torn_bytes:
            warn_degraded(
                self._tracer, self.registry, "serve_wal_torn",
                bytes=self._wal.torn_bytes,
            )
        if chosen is None:
            if self.graph_path is None:
                raise ServeError(
                    f"no valid snapshot under {self.snapshot_root} and "
                    "no graph file to seed from"
                )
            from repro.graph import CSRGraph

            csr = CSRGraph.from_edge_list_file(self.graph_path)
            self._tm = TrussMaintainer.from_graph(csr, trace=self._tracer)
            base_seq = 0
            self._gen = -1
        else:
            gen, phi, sup, wal_seq = chosen
            self._tm = TrussMaintainer.from_state(
                phi, sup, trace=self._tracer
            )
            base_seq = wal_seq
            self._gen = gen
        replayed = 0
        last_seq = base_seq
        gap_end = self._wal.last_seq
        batch: List[Update] = []
        for seq, upd in self._wal.replay(after_seq=base_seq):
            if seq != last_seq + 1:
                gap_end = seq - 1
                break
            batch.append(upd)
            last_seq = seq
            if len(batch) >= 256:
                self._tm.apply_batch(batch)
                replayed += len(batch)
                batch = []
        if last_seq < gap_end:
            # acked records the base state does not cover and the WAL
            # cannot replay: serving on would silently drop them
            self._wal.close()
            base = f"generation {self._gen}" if chosen else "the seed graph"
            raise ServeError(
                f"WAL records {last_seq + 1}..{gap_end} are missing: "
                f"recovery from {base} would drop acknowledged writes"
            )
        if batch:
            self._tm.apply_batch(batch)
            replayed += len(batch)
        self._applied_seq = last_seq
        self.registry.inc("repro_serve_replayed_total", replayed)
        self._ready = True
        self._publish_locked()
        if self._tracer.enabled:
            self._tracer.complete_span(
                "recover", time.perf_counter() - t0,
                gen=self._gen, replayed=replayed,
                from_snapshot=chosen is not None,
            )

    # ------------------------------------------------------------- status
    @property
    def ready(self) -> bool:
        return self._ready and not self._closed

    @property
    def gen(self) -> int:
        return self._gen

    @property
    def applied_seq(self) -> int:
        return self._applied_seq

    @property
    def maintainer(self):
        return self._tm

    def metrics_text(self) -> str:
        """One Prometheus exposition: service + maintainer registries."""
        text = self.registry.to_prometheus()
        if self._tm is not None:
            text += self._tm.stats.metrics.to_prometheus()
        return text

    # -------------------------------------------------------------- write
    def apply_write(
        self,
        updates: Sequence[Update],
        deadline: Optional[float] = None,
    ) -> Tuple[int, int, int]:
        """Log, apply and (maybe) publish one batch: the write path.

        ``deadline`` is absolute ``time.monotonic()`` seconds.  Returns
        ``(applied, seq, gen)`` — updates that changed the graph, the
        newest durable WAL seq, and the generation readers can first
        see this write in.  Raises the :class:`ServeError` family for
        the 400/503/504 paths; nothing durable happens on those.
        """
        if not self.ready:
            raise NotReadyError("service is not ready")
        updates = list(updates)
        for op, u, v in updates:
            if op not in UPDATE_OPS:
                raise InvalidUpdateError(
                    f"update {op!r} {u} {v}: unknown op; expected one of "
                    f"{sorted(UPDATE_OPS)}"
                )
            try:
                # index() takes ints and numpy integers; int() would
                # truncate 1.5 and parse "7"
                ends = index(u), index(v)
            except TypeError:
                raise InvalidUpdateError(
                    f"update {op} {u!r} {v!r}: vertex ids must be integers"
                ) from None
            if not all(snap.INT64_MIN <= x <= snap.INT64_MAX for x in ends):
                raise InvalidUpdateError(
                    f"update {op} {u} {v}: vertex id outside the signed "
                    "64-bit range"
                )
        if not self._admit.acquire(blocking=False):
            self.registry.inc("repro_serve_shed_total", reason="queue_full")
            raise OverloadedError(
                "write admission queue is full — retry later"
            )
        try:
            with self._lock:
                if deadline is not None and time.monotonic() > deadline:
                    self.registry.inc(
                        "repro_serve_shed_total", reason="deadline"
                    )
                    raise DeadlineExpiredError(
                        "deadline expired before the write was logged"
                    )
                t0 = time.perf_counter()
                first, last = self._wal.append(updates)
                self._wal_records += len(updates)
                if (
                    self._crash_after is not None
                    and self._wal_records >= self._crash_after
                ):
                    # scripted kill-mid-batch: the records are durable,
                    # the apply/ack never happens — replay must cover it
                    os._exit(42)
                if self._apply_delay_s:
                    time.sleep(self._apply_delay_s)
                applied = self._tm.apply_batch(updates)
                if last >= first:
                    self._applied_seq = last
                self._batches_since_publish += 1
                self.reader.note_applied(self._applied_seq)
                if self._batches_since_publish >= self._snapshot_every:
                    self._publish_locked()
                else:
                    snap.write_head(
                        self.snapshot_root, self._gen,
                        self._view_wal_seq(), self._applied_seq,
                    )
                self.registry.inc("repro_serve_writes_total")
                self.registry.inc("repro_serve_updates_total", len(updates))
                self.registry.observe(
                    "repro_serve_apply_seconds",
                    time.perf_counter() - t0,
                    buckets=LATENCY_BUCKETS,
                )
                return applied, self._applied_seq, self._gen
        finally:
            self._admit.release()

    def _view_wal_seq(self) -> int:
        view, _ = self.reader.current()
        return max(view.wal_seq, 0)

    # ------------------------------------------------------------ publish
    def _publish_locked(self) -> None:
        """Write a new generation; caller holds the writer lock (or is
        single-threaded recovery)."""
        t0 = time.perf_counter()
        gen = self._next_gen()
        rows = snap.write_generation(
            self.snapshot_root, gen, self._tm.trussness, self._tm.supports,
            self._applied_seq,
        )
        self._gen = gen
        self._batches_since_publish = 0
        snap.write_head(
            self.snapshot_root, gen, self._applied_seq, self._applied_seq
        )
        self.reader.publish(ReadView(gen, self._applied_seq, rows))
        self._wal.roll()
        retained = snap.prune_generations(self.snapshot_root)
        self._wal.prune(
            snap.oldest_retained_wal_seq(self.snapshot_root, retained=retained)
        )
        self.registry.inc("repro_serve_publishes_total")
        self.registry.set("repro_serve_generation", gen)
        self.registry.set("repro_serve_applied_seq", self._applied_seq)
        if self._tracer.enabled:
            self._tracer.complete_span(
                "publish", time.perf_counter() - t0,
                gen=gen, edges=len(rows), wal_seq=self._applied_seq,
            )

    def _next_gen(self) -> int:
        gens = snap.generations(self.snapshot_root)
        return (gens[-1] + 1) if gens else 0

    # ---------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Publish pending state, fsync and close the WAL (idempotent)."""
        if self._closed:
            return
        self._closed = True
        with self._lock:
            if self._wal is not None and not self._wal.closed:
                if self._ready and self._batches_since_publish:
                    self._publish_locked()
                self._wal.close()

    def __enter__(self) -> "TrussService":
        self.open()
        return self

    def __exit__(self, *exc) -> None:
        self.close()
