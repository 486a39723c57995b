"""Unit tests for the TrussDecomposition result model."""

import pytest

from repro.core import TrussDecomposition, truss_decomposition
from repro.core.decomposition import DecompositionStats
from repro.errors import DecompositionError
from repro.graph import Graph, complete_graph

from helpers import needs_numpy


def k4_decomposition():
    return TrussDecomposition({e: 4 for e in complete_graph(4).edges()})


class TestBasics:
    def test_normalizes_edge_keys(self):
        td = TrussDecomposition({(5, 2): 3})
        assert td.phi(2, 5) == 3
        assert td.phi(5, 2) == 3

    def test_rejects_trussness_below_two(self):
        with pytest.raises(DecompositionError):
            TrussDecomposition({(0, 1): 1})

    def test_kmax(self):
        td = TrussDecomposition({(0, 1): 2, (1, 2): 5})
        assert td.kmax == 5

    def test_kmax_empty(self):
        assert TrussDecomposition({}).kmax == 2

    def test_num_edges(self):
        assert k4_decomposition().num_edges == 6

    def test_equality_ignores_stats(self):
        a = TrussDecomposition({(0, 1): 3})
        b = TrussDecomposition({(1, 0): 3}, stats=DecompositionStats("x"))
        assert a == b

    def test_repr(self):
        assert "kmax=4" in repr(k4_decomposition())


class TestColumnBacking:
    @needs_numpy
    def test_empty_graph(self):
        from array import array

        from repro.core.flat import result_from_phi
        from repro.graph import CSRGraph

        results = [
            truss_decomposition(Graph(), method="flat"),
            # an empty phi column in another int buffer type
            result_from_phi(
                CSRGraph.from_edges([]), array("q"), 2,
                DecompositionStats("x"),
            ),
        ]
        for td in results:
            assert td.kmax == 2
            assert td.num_edges == 0
            assert td.class_sizes() == {}
            assert td.k_classes() == {}
            assert td.trussness == {}
            assert td == TrussDecomposition({})

    def test_dict_built_once_on_demand(self):
        np = pytest.importorskip("numpy")
        col = lambda *xs: np.array(xs, dtype=np.int64)  # noqa: E731
        td = TrussDecomposition.from_columns(
            col(1, 1, 2), col(2, 3, 3), col(3, 3, 3)
        )
        assert td.columns is not None
        assert td.kmax == 3 and td.num_edges == 3
        assert td.class_sizes() == {3: 3}
        assert td._phi is None  # nothing above needed the dict
        assert td.trussness == {(1, 2): 3, (1, 3): 3, (2, 3): 3}
        assert td.trussness is td.trussness
        assert all(type(k) is int for k in td.trussness.values())
        assert td == TrussDecomposition({(2, 1): 3, (3, 1): 3, (3, 2): 3})


class TestClassesAndTrusses:
    def test_k_classes(self):
        td = TrussDecomposition({(0, 1): 2, (1, 2): 3, (2, 3): 3})
        classes = td.k_classes()
        assert classes[2] == [(0, 1)]
        assert classes[3] == [(1, 2), (2, 3)]

    def test_k_class_missing_is_empty(self):
        assert k4_decomposition().k_class(7) == []

    def test_k_truss_edges_union_of_higher_classes(self):
        td = TrussDecomposition({(0, 1): 2, (1, 2): 3, (2, 3): 4})
        assert td.k_truss_edges(3) == [(1, 2), (2, 3)]
        assert td.k_truss_edges(2) == [(0, 1), (1, 2), (2, 3)]
        assert td.k_truss_edges(5) == []

    def test_k_truss_graph(self):
        td = k4_decomposition()
        t4 = td.k_truss(4)
        assert t4.num_edges == 6
        assert t4.num_vertices == 4

    def test_max_truss(self):
        k, t = k4_decomposition().max_truss()
        assert k == 4
        assert t.num_edges == 6

    def test_top_classes(self):
        td = TrussDecomposition({(0, 1): 2, (1, 2): 4, (2, 3): 4})
        top = td.top_classes(2)
        assert sorted(top) == [3, 4]
        assert top[4] == [(1, 2), (2, 3)]
        assert top[3] == []

    def test_top_classes_rejects_bad_t(self):
        with pytest.raises(DecompositionError):
            k4_decomposition().top_classes(0)

    def test_top_classes_does_not_go_below_two(self):
        td = TrussDecomposition({(0, 1): 3})
        assert sorted(td.top_classes(10)) == [2, 3]


class TestVerify:
    def test_accepts_correct_decomposition(self):
        g = complete_graph(4)
        k4_decomposition().verify(g)

    def test_rejects_wrong_edge_set(self):
        g = complete_graph(4)
        td = TrussDecomposition({(0, 1): 4})
        with pytest.raises(DecompositionError):
            td.verify(g)

    def test_rejects_understated_trussness(self):
        g = complete_graph(4)
        td = TrussDecomposition({e: 3 for e in g.edges()})  # should be 4
        with pytest.raises(DecompositionError):
            td.verify(g)

    def test_rejects_overstated_trussness(self):
        g = complete_graph(4)
        td = TrussDecomposition({e: 5 for e in g.edges()})
        with pytest.raises(DecompositionError):
            td.verify(g)


class TestStats:
    def test_record_and_bump(self):
        s = DecompositionStats(method="x")
        s.record("a", 3)
        s.bump("b")
        s.bump("b", 2)
        assert s.extra == {"a": 3, "b": 3}
