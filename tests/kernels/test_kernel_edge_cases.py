"""Regression pins for the wave step's degenerate shapes.

Three graph shapes exercise the histogram/floor bookkeeping where an
off-by-one would hide: a triangle-free graph (the gather returns
nothing and the first wave must still retire every edge), a complete
graph (the whole edge set pops in a single wave — ``frontier.size ==
remaining``, so the histogram empties in one pop), and a triangle
strip (every edge lands in one trussness class but the level needs two
waves, so the sub-frontier path and the empty-frontier pop both run).
Each case pins the exact wave/level schedule across every engine and
importable backend, plus direct unit pins for the empty-input kernel
calls the engines make on those paths, each checked against
:class:`oracles.ReferenceKernel` as well.
"""

import itertools

import pytest

from repro.core import truss_decomposition
from repro.graph import Graph, complete_graph

from helpers import BACKENDS, pinned_kernel
from oracles import ReferenceKernel

try:
    import numpy as np
except ImportError:  # pragma: no cover
    np = None

pytestmark = pytest.mark.skipif(
    np is None, reason="the kernel engines need the numpy substrate"
)

#: every engine configuration the shape pins sweep
ENGINES = (
    ("flat", {}),
    ("parallel", {"jobs": 2}),
    ("dist", {"ranks": 2}),
)


def _sweep(g, expect_phi, expect_waves, expect_levels):
    for backend in BACKENDS:
        for method, knobs in ENGINES:
            with pinned_kernel(backend):
                td = truss_decomposition(g, method=method, **knobs)
            assert dict(td.trussness) == expect_phi, (method, backend)
            assert td.stats.extra["waves"] == expect_waves, (
                method, knobs, backend
            )
            assert td.stats.extra["levels"] == expect_levels, (
                method, knobs, backend
            )


class TestDegenerateShapes:
    def test_triangle_free_graph_single_wave(self):
        """A star: zero triangles, every edge pops in wave one at k=2."""
        g = Graph([(0, v) for v in range(1, 7)])
        expect = {(0, v): 2 for v in range(1, 7)}
        _sweep(g, expect, expect_waves=1, expect_levels=1)

    def test_complete_graph_single_wave(self):
        """K5: the frontier is the whole edge set — one wave, one level."""
        g = complete_graph(5)
        expect = {
            (u, v): 5 for u, v in itertools.combinations(range(5), 2)
        }
        _sweep(g, expect, expect_waves=1, expect_levels=1)

    def test_triangle_strip_one_level_two_waves(self):
        """Triangles (0,1,2),(1,2,3),(2,3,4): one class, two waves.

        The support-1 rim edges pop first; the shared edges (1,2) and
        (2,3) fall to the floor and pop in a second wave of the same
        level — every edge ends in the phi=3 class.
        """
        g = Graph(
            [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]
        )
        expect = {e: 3 for e in g.edges()}
        _sweep(g, expect, expect_waves=2, expect_levels=1)

    def test_empty_graph(self):
        g = Graph()
        g.add_vertex(0)
        for backend in BACKENDS:
            for method, knobs in ENGINES:
                with pinned_kernel(backend):
                    td = truss_decomposition(g, method=method, **knobs)
                assert dict(td.trussness) == {}
                assert td.kmax == 2


class TestEmptyInputOps:
    """The kernel calls the engines make on degenerate waves.

    Each pin runs on every importable backend and on the reference
    loops, and the two must agree.
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_frontier_pop_is_noop(self, backend):
        for kern in (BACKENDS[backend](), ReferenceKernel()):
            sup = np.array([1, 2], dtype=np.int64)
            alive = np.ones(2, dtype=bool)
            phi = np.zeros(2, dtype=np.int64)
            hist = np.bincount(sup)
            empty = np.zeros(0, dtype=np.int64)
            kern.pop_frontier(sup, alive, phi, hist, empty, 3)
            assert alive.all() and not phi.any()
            assert np.array_equal(hist, np.bincount(sup))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_inputs_round_trip(self, backend):
        for kern in (BACKENDS[backend](), ReferenceKernel()):
            empty = np.zeros(0, dtype=np.int64)
            tptr = np.zeros(3, dtype=np.int64)
            assert kern.gather_incident(tptr, empty, empty).size == 0
            col = np.zeros(0, dtype=np.int64)
            alive = np.ones(4, dtype=bool)
            touched, dec = kern.count_decrements(
                col, col, col, empty, alive
            )
            assert touched.size == 0 and dec.size == 0
            sup = np.array([3, 3], dtype=np.int64)
            hist = np.bincount(sup)
            out = kern.apply_decrements(sup, hist, touched, dec, 4)
            assert out.size == 0
            assert np.array_equal(hist, np.bincount(sup))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_buffer_merge_passes_through(self, backend):
        ids = np.array([1, 4, 9], dtype=np.int64)
        cnt = np.array([2, 1, 3], dtype=np.int64)
        for kern in (BACKENDS[backend](), ReferenceKernel()):
            touched, dec = kern.merge_decrements([(ids, cnt)])
            assert np.array_equal(touched, ids)
            assert np.array_equal(dec, cnt)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bounded_count_respects_shard_window(self, backend):
        """Partners outside [lo, hi) are skipped; base shifts outputs."""
        # one triangle with partners 1, 3, 5; the owner of [2, 6) sees
        # only 3 and 5, reported shard-locally when base=lo
        e1 = np.array([1], dtype=np.int64)
        e2 = np.array([3], dtype=np.int64)
        e3 = np.array([5], dtype=np.int64)
        tris = np.array([0], dtype=np.int64)
        alive = np.ones(4, dtype=bool)
        for kern in (BACKENDS[backend](), ReferenceKernel()):
            touched, dec = kern.count_decrements(
                e1, e2, e3, tris, alive, lo=2, hi=6, base=2
            )
            assert np.array_equal(touched, np.array([1, 3]))
            assert np.array_equal(dec, np.array([1, 1]))
