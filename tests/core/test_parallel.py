"""Tests for the shared-memory parallel wave peel (repro.core.parallel).

The contract: ``method="parallel"`` produces the *identical* trussness
map as ``flat`` and ``improved`` at every worker count — the wave
schedule does not depend on how the frontier is partitioned — through
the pooled path (jobs>1) and the serial in-process path (jobs=1).
"""

import pytest
from hypothesis import given, settings

import repro.core.parallel as parallel_mod
from repro.core import (
    decompose_file,
    truss_decomposition,
    truss_decomposition_flat,
    truss_decomposition_improved,
)
from repro.core.parallel import _resolve_jobs, truss_decomposition_parallel
from repro.datasets import (
    RUNNING_EXAMPLE_CLASSES,
    dataset_names,
    load_dataset,
    running_example_graph,
)
from repro.errors import DecompositionError
from repro.graph import CSRGraph, Graph, complete_graph, cycle_graph, write_edge_list

from helpers import needs_numpy, random_graph, small_edge_lists
from oracles import brute_trussness


@needs_numpy
class TestSmallGraphs:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_empty(self, jobs):
        td = truss_decomposition_parallel(Graph(), jobs=jobs)
        assert td.num_edges == 0
        assert td.kmax == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_single_edge(self, jobs):
        td = truss_decomposition_parallel(Graph([(0, 1)]), jobs=jobs)
        assert dict(td.trussness) == {(0, 1): 2}

    def test_k5_more_workers_than_waves(self, k5_graph):
        td = truss_decomposition_parallel(k5_graph, jobs=3)
        assert set(td.trussness.values()) == {5}

    def test_cycle_has_no_triangles(self):
        td = truss_decomposition_parallel(cycle_graph(8), jobs=2)
        assert set(td.trussness.values()) == {2}

    def test_two_communities(self, two_communities):
        td = truss_decomposition_parallel(two_communities, jobs=2)
        td.verify(two_communities)
        assert td.kmax == 5

    def test_running_example_classes(self):
        td = truss_decomposition_parallel(running_example_graph(), jobs=2)
        for k, edges in RUNNING_EXAMPLE_CLASSES.items():
            assert sorted(td.k_class(k)) == sorted(edges), k


@needs_numpy
class TestOracleParity:
    """jobs=1 and jobs=2 pinned against the improved-method oracle."""

    @pytest.mark.parametrize("name", dataset_names())
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_registry_parity(self, name, jobs):
        g = load_dataset(name, scale=0.05)
        ref = truss_decomposition_improved(g)
        td = truss_decomposition_parallel(g, jobs=jobs)
        assert td == ref
        assert td == truss_decomposition_flat(g)

    @pytest.mark.parametrize("seed", [3, 17])
    def test_gnp_parity(self, seed):
        g = random_graph(40, 0.2, seed=seed)
        ref = truss_decomposition_improved(g)
        for jobs in (1, 2, 3):
            assert truss_decomposition_parallel(g, jobs=jobs) == ref

    @settings(max_examples=15, deadline=None)
    @given(small_edge_lists())
    def test_matches_oracle_serial(self, edges):
        g = Graph(edges)
        td = truss_decomposition_parallel(g, jobs=1)
        assert dict(td.trussness) == brute_trussness(g)


class TestInputsAndDispatch:
    @needs_numpy
    def test_accepts_csr_snapshot(self):
        g = random_graph(30, 0.25, seed=5)
        csr = CSRGraph.from_edges(g.edges())
        assert truss_decomposition_parallel(csr, jobs=2) == (
            truss_decomposition_improved(g)
        )

    @needs_numpy
    def test_api_dispatch_with_jobs(self):
        g = random_graph(25, 0.3, seed=9)
        td = truss_decomposition(g, method="parallel", jobs=2)
        assert td == truss_decomposition(g)
        assert td.stats.method == "parallel"
        assert td.stats.extra["jobs"] == 2

    def test_jobs_rejected_for_other_methods(self):
        with pytest.raises(DecompositionError, match="jobs"):
            truss_decomposition(complete_graph(4), method="flat", jobs=2)

    @needs_numpy
    def test_csr_rejected_for_dict_methods(self):
        csr = CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        with pytest.raises(DecompositionError, match="CSR"):
            truss_decomposition(csr, method="improved")

    def test_auto_jobs_serial_on_small_graphs(self):
        assert _resolve_jobs(None, 10) == 1
        assert _resolve_jobs(None, parallel_mod._MIN_PARALLEL_EDGES) >= 1
        assert _resolve_jobs(2, 10) == 2

    @needs_numpy
    @pytest.mark.parametrize("jobs", [0, -3])
    def test_nonpositive_jobs_rejected(self, jobs):
        with pytest.raises(DecompositionError, match="at least 1 job"):
            truss_decomposition_parallel(complete_graph(4), jobs=jobs)

    @pytest.mark.skipif(
        parallel_mod._np is None, reason="wave stats need the numpy engine"
    )
    def test_wave_stats_recorded(self):
        td = truss_decomposition_parallel(complete_graph(6), jobs=2)
        extra = td.stats.extra
        assert extra["jobs"] == 2
        assert extra["waves"] >= 1
        assert extra["triangles"] == 20
        assert extra["kmax"] == 6

    @pytest.mark.skipif(
        parallel_mod._np is None, reason="IPC stats need the numpy engine"
    )
    def test_ipc_bytes_recorded(self, two_communities):
        pooled = truss_decomposition_parallel(two_communities, jobs=2)
        inline = truss_decomposition_parallel(two_communities, jobs=1)
        assert pooled == inline
        assert pooled.stats.extra["ipc_bytes"] > 0  # arrays crossed the pool
        assert inline.stats.extra["ipc_bytes"] == 0  # nothing crossed


class TestSharedMemoryHygiene:
    """Regression: no shared-memory block may back a zero-length array.

    A triangle-free graph has empty ``e1``/``e2``/``e3``/``tinc``/
    ``tdead`` arrays; the pooled path used to allocate dummy 1-byte
    segments for them, and the serial path must allocate none at all.
    """

    @pytest.fixture
    def spy_shm(self, monkeypatch):
        if parallel_mod._np is None:
            pytest.skip("shared memory needs the numpy engine")
        created = []
        real = parallel_mod._shm.SharedMemory

        class Spy(real):
            def __init__(self, *args, **kwargs):
                if kwargs.get("create"):
                    created.append(kwargs.get("size"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(parallel_mod._shm, "SharedMemory", Spy)
        return created

    def test_jobs1_never_allocates(self, spy_shm):
        for g in (Graph(), cycle_graph(8), complete_graph(5)):
            td = truss_decomposition_parallel(g, jobs=1)
            td.verify(g)
        assert spy_shm == []

    def test_empty_graph_pooled_never_allocates(self, spy_shm):
        td = truss_decomposition_parallel(Graph(), jobs=2)
        assert td.kmax == 2
        assert spy_shm == []

    def test_triangle_free_pooled_skips_empty_arrays(self, spy_shm):
        g = cycle_graph(8)
        td = truss_decomposition_parallel(g, jobs=2)
        assert set(td.trussness.values()) == {2}
        # of the 8 shared peel arrays only tptr, sup and alive hold
        # bytes here; e1/e2/e3/tinc/tdead are empty and get no segment
        assert len(spy_shm) == 3
        assert all(size > 0 for size in spy_shm)


class TestFileFastPath:
    @needs_numpy
    def test_decompose_file_parallel(self, tmp_path):
        g = random_graph(35, 0.25, seed=11)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        td = decompose_file(path, method="parallel", jobs=2)
        assert td == truss_decomposition_improved(g)

    def test_decompose_file_dict_method_fallback(self, tmp_path):
        g = random_graph(20, 0.3, seed=12)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        td = decompose_file(path, method="improved")
        assert td == truss_decomposition_improved(g)
        assert td.stats.method == "improved"
