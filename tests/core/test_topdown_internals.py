"""Targeted unit tests for top-down internals (kinit, pruning, valid set)."""

from array import array

from repro.core.edge_runs import EdgeRuns
from repro.core.topdown import _choose_kinit, _extract_candidate, _valid_subgraph
from repro.exio import DiskEdgeFile, IOStats, MemoryBudget
from repro.graph import complete_graph


def make_psi_file(tmp_path, records):
    return DiskEdgeFile.from_records(tmp_path / "psi.bin", records, IOStats())


def make_candidate(psi_of):
    """A candidate subgraph H plus its eid-indexed psi array."""
    edges = sorted(psi_of)
    return EdgeRuns(edges), array("q", [psi_of[e] for e in edges])


def psi_by_edge(h, psi):
    """``{(u, v): psi}`` over H's edges, from its endpoint arrays."""
    labels = h.labels
    return {
        (labels[h.eu[e]], labels[h.ev[e]]): psi[e]
        for e in range(h.num_edges)
    }


class TestChooseKinit:
    def test_everything_fits_gives_lowest_level(self, tmp_path):
        f = make_psi_file(tmp_path, [(0, 1, 5), (1, 2, 4), (2, 3, 3)])
        assert _choose_kinit(f, MemoryBudget(units=10_000), k1st=5) == 3

    def test_tight_memory_stays_at_k1st(self, tmp_path):
        # K6 edges at psi 6: even level 6's candidate exceeds the budget
        g = complete_graph(6)
        f = make_psi_file(tmp_path, [(u, v, 6) for u, v in g.edges()])
        assert _choose_kinit(f, MemoryBudget(units=8), k1st=6) == 6

    def test_intermediate_budget_partial_descent(self, tmp_path):
        # two tiers: a small psi-9 clique and a big psi-3 blob
        records = [(u, v, 9) for u, v in complete_graph(4).edges()]
        records += [(100 + i, 200 + i, 3) for i in range(60)]
        f = make_psi_file(tmp_path, records)
        k = _choose_kinit(f, MemoryBudget(units=60), k1st=9)
        assert 3 < k <= 9  # descends below 9, cannot reach 3


class TestExtractCandidate:
    def test_only_unclassified_high_psi_define_uk(self, tmp_path):
        f = make_psi_file(
            tmp_path, [(0, 1, 5), (1, 2, 5), (3, 4, 2)]
        )
        h, psi, u_k = _extract_candidate(f, classified={(0, 1): 5}, k=5)
        assert u_k == {1, 2}
        # (0,1) rides along (incident to 1) but is classified
        assert psi_by_edge(h, psi) == {(0, 1): 5, (1, 2): 5}

    def test_empty_uk_when_all_classified(self, tmp_path):
        f = make_psi_file(tmp_path, [(0, 1, 5)])
        h, _psi, u_k = _extract_candidate(f, classified={(0, 1): 5}, k=3)
        assert u_k == set()
        assert h.num_edges == 0

    def test_h_is_a_csr_snapshot(self, tmp_path):
        # the candidate subgraph must never be dict-of-set adjacency
        f = make_psi_file(tmp_path, [(0, 1, 4), (1, 2, 4), (0, 2, 4)])
        h, psi, _u_k = _extract_candidate(f, classified={}, k=4)
        assert isinstance(h, EdgeRuns)
        assert len(psi) == h.num_edges == 3

    def test_records_in_any_order_and_orientation(self, tmp_path):
        # the psi column follows H's edge ids however the file lists them
        f = make_psi_file(
            tmp_path, [(2, 3, 6), (1, 0, 4), (3, 1, 5), (0, 2, 7)]
        )
        h, psi, _u_k = _extract_candidate(f, classified={}, k=4)
        assert psi_by_edge(h, psi) == {
            (0, 1): 4, (0, 2): 7, (1, 3): 5, (2, 3): 6,
        }
        assert list(h.neighbors(h.labels.index(3))) == [1, 2]


class TestValidSubgraph:
    def test_low_psi_unclassified_excluded(self):
        h, psi = make_candidate({(0, 1): 5, (1, 2): 3, (0, 2): 5})
        valid, candidates = _valid_subgraph(h, psi, classified={}, k=5)
        assert set(valid.edges()) == {(0, 1), (0, 2)}
        assert candidates == {(0, 1), (0, 2)}

    def test_classified_included_but_not_candidate(self):
        h, psi = make_candidate({(0, 1): 4, (1, 2): 4})
        valid, candidates = _valid_subgraph(
            h, psi, classified={(0, 1): 7}, k=4
        )
        assert set(valid.edges()) == {(0, 1), (1, 2)}
        assert candidates == {(1, 2)}
