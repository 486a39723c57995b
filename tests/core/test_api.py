"""Tests for the uniform dispatch API."""

import pytest

import repro.kernels as kernels
from repro.core import (
    CSR_METHODS,
    METHODS,
    apply_updates,
    decompose_file,
    k_truss,
    top_t_classes,
    truss_decomposition,
    trussness,
)
from repro.errors import DecompositionError
from repro.exio import MemoryBudget
from repro.graph import Graph, complete_graph, disjoint_union

from helpers import needs_numpy, random_graph


class TestDispatch:
    @pytest.mark.parametrize("method", [
        pytest.param(m, marks=needs_numpy) if m in CSR_METHODS else m
        for m in METHODS
    ])
    def test_all_methods_agree(self, method):
        g = random_graph(16, 0.3, seed=50)
        ref = truss_decomposition(g, method="improved")
        assert truss_decomposition(g, method=method) == ref

    def test_unknown_method_rejected(self):
        with pytest.raises(DecompositionError):
            truss_decomposition(Graph(), method="quantum")

    def test_external_args_rejected_for_inmem(self):
        with pytest.raises(DecompositionError):
            truss_decomposition(
                Graph(), method="improved", memory_budget=MemoryBudget(units=8)
            )

    def test_top_t_rejected_for_bottomup(self):
        with pytest.raises(DecompositionError):
            truss_decomposition(Graph(), method="bottomup", top_t=1)

    def test_memory_budget_passes_through(self):
        g = random_graph(15, 0.3, seed=51)
        td = truss_decomposition(
            g, method="bottomup", memory_budget=MemoryBudget(units=12)
        )
        assert td == truss_decomposition(g, method="improved")


class TestCsrMethodsNeedNumpy:
    """Without numpy every CSR entry point raises the kernel layer's
    one error (numpy is hidden from it here; on the numpy-free leg it
    is absent)."""

    @pytest.fixture(autouse=True)
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(kernels, "_np", None)

    @pytest.mark.parametrize("method", CSR_METHODS)
    def test_one_error_names_numpy(self, method):
        with pytest.raises(DecompositionError) as info:
            truss_decomposition(complete_graph(4), method=method)
        assert str(info.value) == kernels.NUMPY_REQUIRED

    def test_update_needs_numpy(self):
        with pytest.raises(DecompositionError, match="numpy"):
            apply_updates(complete_graph(4), [("insert", 0, 9)])

    def test_decompose_file_fails_before_reading(self, tmp_path):
        with pytest.raises(DecompositionError, match="numpy"):
            decompose_file(tmp_path / "missing.txt", method="flat")


class TestConveniences:
    def test_trussness(self):
        assert trussness(complete_graph(3)) == {(0, 1): 3, (0, 2): 3, (1, 2): 3}

    def test_k_truss_2_is_graph_itself(self):
        g = complete_graph(4)
        g.add_vertex(99)
        t2 = k_truss(g, 2)
        assert set(t2.edges()) == set(g.edges())
        assert not t2.has_vertex(99)  # isolated vertices dropped

    def test_k_truss_does_not_mutate(self):
        g = complete_graph(4)
        k_truss(g, 4)
        assert g.num_edges == 6

    def test_k_truss_rejects_k_below_2(self):
        with pytest.raises(DecompositionError):
            k_truss(complete_graph(3), 1)

    def test_top_t_classes_topdown_vs_improved(self):
        g = disjoint_union([complete_graph(6), complete_graph(4)])
        a = top_t_classes(g, 2, method="topdown")
        b = top_t_classes(g, 2, method="improved")
        assert {k: sorted(v) for k, v in a.items()} == {
            k: sorted(v) for k, v in b.items()
        }
