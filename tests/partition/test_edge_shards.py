"""Tests for the static edge-id shard planner.

The invariants the owner-computes dist peel relies on: every canonical
edge id is owned by exactly one shard, shards are contiguous ranges,
loads are incidence-balanced within the greedy-prefix tolerance, and
the per-shard decrement buffers of a routed wave sum to exactly the
serial flat decrements.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition import EdgeShardError, EdgeShardPlan, plan_edge_shards

from helpers import needs_numpy, random_graph

try:
    import numpy as np
except ImportError:  # pragma: no cover
    np = None

#: the planner's cuts are numpy, like the dist engine that takes them
pytestmark = needs_numpy


@st.composite
def weighted_splits(draw):
    """(m, shards, weights): a random incidence-weighted split request."""
    m = draw(st.integers(min_value=0, max_value=120))
    shards = draw(st.integers(min_value=1, max_value=9))
    weights = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.integers(min_value=0, max_value=25),
                min_size=m,
                max_size=m,
            ),
        )
    )
    return m, shards, weights


@pytest.fixture(params=["accelerated"])
def shard_mode(request):
    """The planner under test (the param names the numpy cuts)."""
    return request.param


class TestPlanInvariants:
    @settings(max_examples=60, deadline=None)
    @given(weighted_splits())
    def test_every_edge_owned_exactly_once(self, req):
        m, n_shards, weights = req
        plan = plan_edge_shards(m, n_shards, weights)
        assert plan.num_shards == n_shards
        assert plan.num_edges == m
        covered = []
        for _s, lo, hi in plan.iter_shards():
            assert 0 <= lo <= hi <= m  # contiguous, in-range, monotone
            covered.extend(range(lo, hi))
        assert covered == list(range(m))
        for eid in range(m):
            s = plan.owner_of(eid)
            lo, hi = plan.range_of(s)
            assert lo <= eid < hi

    @settings(max_examples=60, deadline=None)
    @given(weighted_splits())
    def test_loads_balanced_within_tolerance(self, req):
        m, n_shards, weights = req
        plan = plan_edge_shards(m, n_shards, weights)
        charged = (
            [1] * m if weights is None else [w + 1 for w in weights]
        )
        loads = plan.shard_loads(charged)
        assert sum(loads) == sum(charged)
        if m:
            ideal = sum(charged) / n_shards
            # greedy prefix cuts overshoot by at most one edge's charge
            assert max(loads) <= ideal + max(charged)

    def test_degenerate_shapes(self, shard_mode):
        assert list(plan_edge_shards(0, 3).bounds) == [0, 0, 0, 0]
        assert list(plan_edge_shards(5, 1).bounds) == [0, 5]
        plan = plan_edge_shards(2, 6)  # more shards than edges: empties
        assert plan.num_shards == 6
        assert sum(hi - lo for _s, lo, hi in plan.iter_shards()) == 2

    def test_invalid_requests_raise(self):
        with pytest.raises(EdgeShardError):
            plan_edge_shards(4, 0)
        with pytest.raises(EdgeShardError):
            plan_edge_shards(-1, 2)
        with pytest.raises(EdgeShardError):
            plan_edge_shards(4, 2, weights=[1, 2])
        with pytest.raises(EdgeShardError):
            plan_edge_shards(4, 2).owner_of(4)
        with pytest.raises(EdgeShardError):
            EdgeShardPlan([0, 3, 2])


@pytest.mark.skipif(np is None, reason="the routed peel needs numpy")
class TestRoutedDecrementParity:
    """Routed per-shard decrement buffers == the serial flat decrements."""

    @pytest.mark.parametrize("seed", [5, 23, 61])
    @pytest.mark.parametrize("n_shards", [1, 2, 5])
    def test_one_wave_routed_equals_serial(self, seed, n_shards):
        from repro.core.flat import _as_csr
        from repro.kernels.numpy_backend import NumpyKernel
        from repro.triangles.index_builder import build_triangle_index

        kern = NumpyKernel()

        g = random_graph(30, 0.25, seed=seed)
        csr = _as_csr(g)
        m = csr.num_edges
        tri = build_triangle_index(csr)
        e1, e2, e3, tptr, tinc = tri.e1, tri.e2, tri.e3, tri.tptr, tri.tinc
        sup = tri.initial_supports()
        if not len(e1):
            pytest.skip("seed produced a triangle-free graph")
        plan = plan_edge_shards(m, n_shards, weights=np.diff(tptr))
        bounds = np.asarray(plan.bounds, dtype=np.int64)

        # first wave of the k = floor+2 level, as the peel would run it
        floor = int(sup.min())
        frontier = np.flatnonzero(sup <= floor)
        alive = np.ones(m, dtype=bool)
        alive[frontier] = False
        tdead = np.zeros(len(e1), dtype=bool)
        hit = kern.gather_incident(tptr, tinc, frontier, tdead)
        tdead[hit] = True

        # serial: one global decrement buffer
        touched, dec = kern.count_decrements(e1, e2, e3, hit, alive)
        serial = np.zeros(m, dtype=np.int64)
        serial[touched] = dec

        # routed: each triangle to the owner shard(s) of its partners,
        # deduped per shard; per-shard buffers scatter into their own
        # disjoint ranges and must sum to the serial decrements
        partners = np.concatenate((e1[hit], e2[hit], e3[hit]))
        owner = np.searchsorted(bounds, partners, side="right") - 1
        stride = len(e1)
        key = np.unique(owner * stride + np.tile(hit, 3))
        owners, tris = key // stride, key % stride
        routed = np.zeros(m, dtype=np.int64)
        for s in range(n_shards):
            lo, hi = plan.range_of(s)
            part = np.concatenate(
                (e1[tris[owners == s]], e2[tris[owners == s]],
                 e3[tris[owners == s]])
            )
            part = part[(part >= lo) & (part < hi)]
            part = part[alive[part]]
            ids, counts = np.unique(part, return_counts=True)
            assert ((ids >= lo) & (ids < hi)).all()  # owner writes only its slice
            routed[ids] += counts
        assert (routed == serial).all()
