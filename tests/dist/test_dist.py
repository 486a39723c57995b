"""Driver-level tests for ``method="dist"``.

Covers what the transport unit tests cannot: the scatter/run/gather
driver across real rank processes (TCP) and fabric threads (loopback),
parity against the flat engine, the distributed-state accounting the
acceptance bar names, argument guards through the public API, and the
fault-injection contract — a killed rank surfaces a clean
:class:`~repro.errors.ReproError` with no orphaned processes, sockets
or scratch directories.
"""

import multiprocessing
import tempfile
import time
from pathlib import Path

import pytest

from repro.core import decompose_file, truss_decomposition
from repro.core.dist import truss_decomposition_dist
from repro.errors import DecompositionError, ReproError
from repro.graph import CSRGraph, Graph, complete_graph, write_edge_list

from helpers import DIST_SWEEP

np = pytest.importorskip("numpy")

from repro.dist.faults import FaultPlan  # noqa: E402  (needs numpy first)


def _dist_scratch_dirs():
    tmp = Path(tempfile.gettempdir())
    return {p.name for p in tmp.iterdir() if p.name.startswith("repro-dist-")}


@pytest.fixture
def bridged_cliques() -> Graph:
    g = complete_graph(7)
    for u, v in complete_graph(5).edges():
        g.add_edge(u + 10, v + 10)
    g.add_edge(0, 10)
    return g


class TestParity:
    def test_full_sweep_matches_flat(self, bridged_cliques):
        ref = truss_decomposition(bridged_cliques, method="flat")
        for ranks, transport in DIST_SWEEP:
            td = truss_decomposition(
                bridged_cliques,
                method="dist",
                ranks=ranks,
                transport=transport,
            )
            assert td == ref, (ranks, transport)
            assert td.stats.extra["ranks"] == ranks
            assert td.stats.extra["transport"] == transport

    def test_more_ranks_than_edges(self):
        g = complete_graph(3)
        ref = truss_decomposition(g, method="flat")
        assert truss_decomposition_dist(g, ranks=8) == ref

    def test_triangle_free_graph(self):
        star = Graph([(0, i) for i in range(1, 6)])
        td = truss_decomposition_dist(star, ranks=2, transport="tcp")
        assert dict(td.trussness) == {(0, i): 2 for i in range(1, 6)}

    def test_empty_graph(self):
        td = truss_decomposition_dist(Graph(), ranks=2)
        assert td.kmax == 2
        assert dict(td.trussness) == {}

    def test_csr_snapshot_accepted(self, bridged_cliques):
        csr = CSRGraph.from_graph(bridged_cliques)
        ref = truss_decomposition(bridged_cliques, method="flat")
        assert truss_decomposition(csr, method="dist", ranks=2) == ref

    def test_decompose_file_fast_path(self, bridged_cliques, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(bridged_cliques, path)
        ref = truss_decomposition(bridged_cliques, method="flat")
        td = decompose_file(path, method="dist", ranks=2)
        assert td == ref


class TestDistributedState:
    def test_dedupe_state_shrinks_with_ranks(self, bridged_cliques):
        """No rank holds the global triangle set: peak per-rank dedupe
        state must shrink as the rank count grows."""
        peaks = {}
        for ranks in (1, 2, 4):
            td = truss_decomposition_dist(bridged_cliques, ranks=ranks)
            peaks[ranks] = td.stats.extra["dedupe_peak_bytes"]
        assert peaks[1] > peaks[2] > peaks[4]
        n_tri = truss_decomposition_dist(
            bridged_cliques, ranks=1
        ).stats.extra["triangles"]
        assert peaks[1] == n_tri  # one bool per triangle at one rank

    def test_message_accounting(self, bridged_cliques):
        td = truss_decomposition_dist(bridged_cliques, ranks=2)
        extra = td.stats.extra
        assert extra["msg_bytes"] > 0
        assert extra["bytes_per_wave"] > 0
        assert extra["waves"] > 0
        assert extra["exchange_rounds"] > 0
        solo = truss_decomposition_dist(bridged_cliques, ranks=1)
        assert solo.stats.extra["msg_bytes"] == 0  # self-sends are free

    def test_transports_account_identically(self, bridged_cliques):
        """Loopback charges the TCP frame cost, so the byte columns of
        the two fabrics are directly comparable."""
        loop = truss_decomposition_dist(
            bridged_cliques, ranks=2, transport="loopback"
        )
        tcp = truss_decomposition_dist(
            bridged_cliques, ranks=2, transport="tcp"
        )
        assert (
            loop.stats.extra["msg_bytes"] == tcp.stats.extra["msg_bytes"]
        )


class TestArgumentGuards:
    def test_ranks_rejected_off_method(self, triangle_graph):
        with pytest.raises(DecompositionError, match="ranks"):
            truss_decomposition(triangle_graph, method="flat", ranks=2)

    def test_transport_rejected_off_method(self, triangle_graph):
        with pytest.raises(DecompositionError, match="transport"):
            truss_decomposition(
                triangle_graph, method="parallel", transport="tcp"
            )

    def test_unknown_transport(self, triangle_graph):
        with pytest.raises(DecompositionError, match="unknown transport"):
            truss_decomposition_dist(triangle_graph, transport="mpi")

    def test_bad_rank_count(self, triangle_graph):
        with pytest.raises(DecompositionError, match="at least 1 rank"):
            truss_decomposition_dist(triangle_graph, ranks=0)

    def test_external_args_rejected(self, triangle_graph):
        from repro.exio import MemoryBudget

        with pytest.raises(DecompositionError, match="does not accept"):
            truss_decomposition(
                triangle_graph,
                method="dist",
                memory_budget=MemoryBudget(units=16),
            )


class TestDriverIndexMemory:
    """The tentpole's dist acceptance bar: O(m + chunk) driver build.

    The driver streams the triangle index straight into the on-disk
    layout — at no point may it hold an array of length >= 3·|△G| in
    RAM.  Asserted by tracing the build's actual heap allocations
    (numpy reports through tracemalloc) against the size one
    ``tinc``-scale array would need.
    """

    def test_mmap_build_never_materializes_index(self, monkeypatch):
        import tracemalloc

        import repro.core.dist as dist_mod
        import repro.triangles.index_builder as ib

        # many chunks, so a buggy accumulate-then-concatenate would
        # still peak at triangle scale
        monkeypatch.setattr(ib, "_WEDGE_CHUNK", 1024)
        peaks = {}
        real_build = dist_mod.build_triangle_index

        def traced_build(csr, **kwargs):
            tracemalloc.start()
            try:
                tri = real_build(csr, **kwargs)
                _cur, peaks["peak"] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks["n_tri"] = tri.num_triangles
            return tri

        monkeypatch.setattr(dist_mod, "build_triangle_index", traced_build)
        g = complete_graph(80)  # |△G| = C(80,3) = 82,160 on m = 3,160
        ref = truss_decomposition(g, method="flat")
        td = truss_decomposition_dist(g, ranks=2)
        assert td == ref
        assert td.stats.extra["index_storage"] == "mmap"
        assert peaks["n_tri"] == 82_160
        # the acceptance bound: no 3·|△G| int64 array in driver RAM
        # (the legacy argsort build held several simultaneously)
        assert peaks["peak"] < 3 * peaks["n_tri"] * 8, peaks


class TestFaultInjection:
    """The kill contract: a dead rank means a clean error, not a hang,
    and never an orphaned process, socket or scratch directory.  The
    kills are scripted through :class:`~repro.dist.faults.FaultPlan`
    (which replaced the ad-hoc ``_kill_rank`` hook), so every failure
    point replays identically."""

    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    def test_killed_rank_surfaces_repro_error(
        self, bridged_cliques, transport
    ):
        scratch_before = _dist_scratch_dirs()
        with pytest.raises(ReproError, match="rank"):
            truss_decomposition_dist(
                bridged_cliques,
                ranks=2,
                transport=transport,
                fault_plan=FaultPlan.kill(1),
            )
        # the scratch tempdir (index + checkpoints) is gone even on
        # the failure path
        assert _dist_scratch_dirs() == scratch_before
        # every rank process was reaped (loopback spawns none)
        assert multiprocessing.active_children() == []

    def test_killed_rank_zero_tcp(self, bridged_cliques):
        """Rank 0 dying must not wedge the port/result gathering."""
        with pytest.raises(ReproError):
            truss_decomposition_dist(
                bridged_cliques, ranks=3, transport="tcp",
                fault_plan=FaultPlan.kill(0),
            )
        assert multiprocessing.active_children() == []

    def test_clean_run_leaves_nothing_behind(self, bridged_cliques):
        scratch_before = _dist_scratch_dirs()
        truss_decomposition_dist(bridged_cliques, ranks=2, transport="tcp")
        assert _dist_scratch_dirs() == scratch_before
        assert multiprocessing.active_children() == []


class TestInterruptCleanup:
    """A driver-side KeyboardInterrupt must reap every rank process,
    unwind loopback rank threads, and remove the scratch directory —
    interrupting a run cannot leak what a clean failure would not."""

    def test_tcp_interrupt_reaps_and_removes_scratch(
        self, bridged_cliques, monkeypatch
    ):
        import repro.core.dist as dist_mod

        real_collect = dist_mod._collect
        calls = {"n": 0}

        def interrupting_collect(procs, pipes, expect, timeout):
            calls["n"] += 1
            if expect == "ok":
                # mid-run: ranks are meshed and peeling right now
                raise KeyboardInterrupt
            return real_collect(procs, pipes, expect, timeout)

        monkeypatch.setattr(dist_mod, "_collect", interrupting_collect)
        scratch_before = _dist_scratch_dirs()
        with pytest.raises(KeyboardInterrupt):
            truss_decomposition_dist(
                bridged_cliques, ranks=2, transport="tcp"
            )
        assert calls["n"] >= 2
        assert multiprocessing.active_children() == []
        assert _dist_scratch_dirs() == scratch_before

    def test_loopback_interrupt_unwinds_rank_threads(
        self, bridged_cliques, monkeypatch
    ):
        """An interrupt mid-join poisons the fabric so every rank
        thread unwinds promptly instead of running out its timeout."""
        import threading

        import repro.core.dist as dist_mod

        real_fabric = {}
        orig_fabric_cls = dist_mod.LoopbackFabric

        class RecordingFabric(orig_fabric_cls):
            def __init__(self, size):
                super().__init__(size)
                real_fabric["fabric"] = self

        interrupted = {"done": False}
        orig_join = threading.Thread.join

        def interrupting_join(self, timeout=None):
            if timeout is None and not interrupted["done"]:
                interrupted["done"] = True
                raise KeyboardInterrupt
            return orig_join(self, timeout)

        monkeypatch.setattr(dist_mod, "LoopbackFabric", RecordingFabric)
        monkeypatch.setattr(threading.Thread, "join", interrupting_join)
        threads_before = threading.active_count()
        scratch_before = _dist_scratch_dirs()
        with pytest.raises(KeyboardInterrupt):
            truss_decomposition_dist(bridged_cliques, ranks=2)
        monkeypatch.undo()
        # the poison unblocked every rank thread; give them a moment
        deadline = time.monotonic() + 10
        while (
            threading.active_count() > threads_before
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        assert threading.active_count() <= threads_before
        assert _dist_scratch_dirs() == scratch_before


class TestSupervisorArgs:
    """Resolution guards for the survivability knobs."""

    def test_unknown_on_failure(self, triangle_graph):
        with pytest.raises(DecompositionError, match="on_failure"):
            truss_decomposition_dist(
                triangle_graph, on_failure="shrug"
            )

    def test_bad_timeout(self, triangle_graph):
        with pytest.raises(DecompositionError, match="timeout"):
            truss_decomposition_dist(triangle_graph, timeout=0)

    def test_bad_max_retries(self, triangle_graph):
        with pytest.raises(DecompositionError, match="max_retries"):
            truss_decomposition_dist(
                triangle_graph, on_failure="retry", max_retries=-1
            )

    def test_bad_checkpoint_interval(self, triangle_graph):
        with pytest.raises(
            DecompositionError, match="checkpoint_interval"
        ):
            truss_decomposition_dist(
                triangle_graph, checkpoint_interval=-4
            )

    def test_timeout_rejected_off_method(self, triangle_graph):
        with pytest.raises(DecompositionError, match="timeout"):
            truss_decomposition(
                triangle_graph, method="flat", timeout=30
            )

    def test_on_failure_rejected_off_method(self, triangle_graph):
        with pytest.raises(DecompositionError, match="on_failure"):
            truss_decomposition(
                triangle_graph, method="parallel", on_failure="retry"
            )

    def test_timeout_accepted_on_dist(self, bridged_cliques):
        ref = truss_decomposition(bridged_cliques, method="flat")
        td = truss_decomposition(
            bridged_cliques, method="dist", ranks=2, timeout=60,
            on_failure="retry",
        )
        assert td == ref
        assert td.stats.extra["on_failure"] == "retry"
