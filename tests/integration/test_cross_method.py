"""Cross-method integration tests: every implementation, one truth.

DESIGN.md §5 pins the contract: every method produces the identical
trussness map, on every graph family, under every memory budget and
partitioner.  These tests sweep that matrix on mid-sized inputs, and —
since the parallel engine grew worker counts — promote
the "identical trussness map" claim from a handful of fixed examples
to a hypothesis property over randomized ER/powerlaw/star-heavy
graphs, pinned to the brute-force oracle.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import truss_decomposition
from repro.cores import core_numbers
from repro.datasets import (
    collaboration_graph,
    community_graph,
    erdos_renyi,
    load_dataset,
    manager_graph,
    powerlaw_graph,
    running_example_graph,
    star_heavy_graph,
)
from repro.exio import MemoryBudget
from repro.graph import Graph

from helpers import (
    DIST_SWEEP,
    needs_numpy,
    peel_graphs,
    random_graph,
    small_edge_lists,
)
from oracles import brute_trussness

FAMILIES = {
    "er": lambda: erdos_renyi(60, 180, seed=71),
    "powerlaw": lambda: powerlaw_graph(80, 200, seed=72),
    "collab": lambda: collaboration_graph(60, 50, seed=73, max_team=10),
    "community": lambda: community_graph(70, 40, seed=74),
    "stars": lambda: star_heavy_graph(80, 150, n_hubs=4, seed=75),
    "manager": manager_graph,
    "running": running_example_graph,
}


@needs_numpy
@pytest.mark.parametrize("family", sorted(FAMILIES), ids=str)
class TestAllMethodsAgree:
    def test_six_way_agreement(self, family):
        g = FAMILIES[family]()
        ref = truss_decomposition(g, method="improved")
        assert truss_decomposition(g, method="flat") == ref
        assert truss_decomposition(g, method="baseline") == ref
        assert truss_decomposition(g, method="mapreduce") == ref
        assert truss_decomposition(g, method="parallel", jobs=2) == ref
        assert (
            truss_decomposition(g, method="dist", ranks=2)
            == ref
        )
        for units in (24, 200):
            budget = MemoryBudget(units=units)
            assert (
                truss_decomposition(g, method="bottomup", memory_budget=budget)
                == ref
            ), f"bottomup units={units}"
            assert (
                truss_decomposition(g, method="topdown", memory_budget=budget)
                == ref
            ), f"topdown units={units}"


@needs_numpy
@pytest.mark.parametrize("family", sorted(FAMILIES), ids=str)
def test_columnar_result_behaves_as_dict_result(family):
    """The CSR engines' column-backed result answers every query as the
    dict-backed ``improved`` result does."""
    g = FAMILIES[family]()
    ref = truss_decomposition(g, method="improved")
    td = truss_decomposition(g, method="flat")
    assert ref.columns is None
    if td.columns is not None:  # numpy present: result_from_phi's columns
        u, v, phi = td.columns
        assert list(zip(u.tolist(), v.tolist())) == sorted(ref.trussness)
    assert td.kmax == ref.kmax
    assert td.num_edges == ref.num_edges
    assert td.class_sizes() == ref.class_sizes()
    assert len(td.class_sizes()) == len(ref.k_classes())
    assert repr(td) == repr(ref)
    assert td == ref
    assert td.trussness == ref.trussness
    for (a, b), k in ref.trussness.items():
        assert td.phi(b, a) == k
    assert td.k_classes() == ref.k_classes()
    for k in range(2, ref.kmax + 2):
        assert td.k_truss_edges(k) == ref.k_truss_edges(k)


class TestRandomizedParityProperty:
    """The parity claim as a property, not an example.

    Every hypothesis-generated graph (three structural families with
    very different wave schedules) is decomposed by the flat engine and
    by the parallel engine at jobs 1/2/4, and every map must equal the
    brute-force oracle bit for bit.  jobs>1 runs
    spawn real worker pools, so examples are few but each one sweeps
    the full engine matrix.
    """

    @needs_numpy
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(peel_graphs())
    def test_flat_and_parallel_match_brute_oracle(self, g):
        oracle = brute_trussness(g)
        flat = truss_decomposition(g, method="flat")
        assert dict(flat.trussness) == oracle
        for jobs in (1, 2, 4):
            td = truss_decomposition(g, method="parallel", jobs=jobs)
            assert dict(td.trussness) == oracle, jobs
            assert td == flat, jobs

    @needs_numpy
    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(peel_graphs())
    def test_dist_matches_brute_oracle(self, g):
        """The distributed peel across :data:`helpers.DIST_SWEEP`.

        Every (ranks, transport) configuration the acceptance bar
        names must reproduce the brute oracle *and* equal the flat
        engine's map bit for bit.  TCP configurations spawn real rank
        processes per example, so examples are few but each sweeps the
        whole matrix.
        """
        oracle = brute_trussness(g)
        flat = truss_decomposition(g, method="flat")
        for ranks, transport in DIST_SWEEP:
            td = truss_decomposition(
                g, method="dist", ranks=ranks, transport=transport
            )
            assert dict(td.trussness) == oracle, (ranks, transport)
            assert td == flat, (ranks, transport)

    @settings(max_examples=10, deadline=None)
    @given(peel_graphs())
    def test_serial_methods_match_brute_oracle(self, g):
        """The paper's in-memory pair against the oracle, same sweep."""
        oracle = brute_trussness(g)
        for method in ("improved", "baseline"):
            td = truss_decomposition(g, method=method)
            assert dict(td.trussness) == oracle, method


class TestInvariants:
    @settings(max_examples=25, deadline=None)
    @given(small_edge_lists())
    def test_truss_core_sandwich(self, edges):
        """k-truss ⊆ (k-1)-core and kmax <= cmax + 1."""
        g = Graph(edges)
        if g.num_edges == 0:
            return
        td = truss_decomposition(g)
        core = core_numbers(g)
        for (u, v), k in td.trussness.items():
            assert core[u] >= k - 1
            assert core[v] >= k - 1

    @settings(max_examples=25, deadline=None)
    @given(small_edge_lists())
    def test_classes_partition_edges(self, edges):
        g = Graph(edges)
        td = truss_decomposition(g)
        seen = set()
        for k, cls in td.k_classes().items():
            for e in cls:
                assert e not in seen
                seen.add(e)
        assert seen == set(g.edges())

    @settings(max_examples=15, deadline=None)
    @given(small_edge_lists())
    def test_verify_accepts_all_methods(self, edges):
        g = Graph(edges)
        for method in ("improved", "bottomup"):
            truss_decomposition(
                g,
                method=method,
                memory_budget=MemoryBudget(units=12) if method == "bottomup" else None,
            ).verify(g)

    def test_dataset_smoke(self):
        """A scaled-down registry dataset through three methods."""
        g = load_dataset("p2p", scale=0.03)
        ref = truss_decomposition(g)
        assert truss_decomposition(
            g, method="bottomup", memory_budget=MemoryBudget(units=g.size // 3)
        ) == ref
        assert truss_decomposition(
            g, method="topdown", memory_budget=MemoryBudget(units=g.size // 3)
        ) == ref
