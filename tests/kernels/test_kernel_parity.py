"""Cross-backend kernel parity: every backend, every engine, one truth.

The kernel contract (see :mod:`repro.kernels`) promises bit-for-bit
interchangeable backends.  This suite promotes that promise to a
hypothesis property: every generated graph is decomposed by every
available backend under every engine configuration — flat, parallel at
jobs 1/2, dist at ranks 1/2 over loopback — and
every run must reproduce the brute-force oracle *and* the reference
run's wave/level schedule exactly.  A numba leg mirrors the sweep and
skips wherever the optional package is absent (tier-1 CI); the tier-2
job installs numba and runs it for real.  Op by op, every registered
backend is compared against :class:`oracles.ReferenceKernel`, the same
five ops as plain loops.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import truss_decomposition
from repro.kernels import kernel_available

from helpers import peel_graphs
from oracles import ReferenceKernel, brute_trussness

try:
    import numpy as np
except ImportError:  # pragma: no cover
    np = None

pytestmark = pytest.mark.skipif(
    np is None, reason="the kernel engines need the numpy substrate"
)

#: the engine matrix one backend must sweep: method plus its knobs
ENGINE_SWEEP = (
    ("flat", {}),
    ("parallel", {"jobs": 1}),
    ("parallel", {"jobs": 2}),
    ("dist", {"ranks": 1}),
    ("dist", {"ranks": 2}),
)

#: the schedule stats every engine records and every run must match
SCHEDULE_KEYS = ("waves", "levels", "max_wave")


def _sweep_backend(g, backend):
    """Run the full engine matrix on one backend vs oracle + reference."""
    oracle = brute_trussness(g)
    ref = truss_decomposition(g, method="flat", kernel="numpy")
    assert dict(ref.trussness) == oracle
    # an edgeless graph returns before any wave runs (no stats at all)
    schedule = {
        key: ref.stats.extra[key]
        for key in SCHEDULE_KEYS
        if g.num_edges
    }
    for method, knobs in ENGINE_SWEEP:
        td = truss_decomposition(g, method=method, kernel=backend, **knobs)
        assert dict(td.trussness) == oracle, (method, knobs, backend)
        got = {key: td.stats.extra[key] for key in schedule}
        assert got == schedule, (method, knobs, backend)
        if g.num_edges:
            assert td.stats.extra["kernel"] == backend, (method, knobs)


class TestBackendEngineParity:
    """Each backend × the engine matrix against the brute oracle."""

    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(peel_graphs())
    def test_numpy_backend_sweep(self, g):
        _sweep_backend(g, "numpy")

    @pytest.mark.skipif(
        not kernel_available("numba"),
        reason="optional numba backend not installed (tier-2 covers it)",
    )
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(peel_graphs())
    def test_numba_backend_sweep(self, g):
        _sweep_backend(g, "numba")


class TestBackendOpBitIdentity:
    """The five kernel ops, each backend vs the reference loops, on
    real wave inputs.

    The engine sweep above checks end-to-end results; this pins the
    per-op contract — same sorted/deduped arrays, element for element —
    on the first wave of real graphs, where a drift would otherwise be
    masked by downstream merging.
    """

    def _backends(self):
        from repro.kernels import available_kernels, get_kernel

        return [("reference", ReferenceKernel())] + [
            (name, get_kernel(name)) for name in available_kernels()
        ]

    @pytest.mark.parametrize("seed", [3, 17, 44])
    def test_first_wave_ops_identical(self, seed):
        from repro.core.flat import _as_csr
        from repro.triangles.index_builder import build_triangle_index

        from helpers import random_graph

        g = random_graph(24, 0.3, seed=seed)
        csr = _as_csr(g)
        m = csr.num_edges
        tri = build_triangle_index(csr)
        if not tri.num_triangles:
            pytest.skip("seed produced a triangle-free graph")
        sup0 = tri.initial_supports()
        k = int(sup0.min()) + 2
        frontier0 = np.flatnonzero(sup0 <= k - 2)
        outputs = []
        for name, kern in self._backends():
            sup = sup0.copy()
            alive = np.ones(m, dtype=bool)
            phi = np.zeros(m, dtype=np.int64)
            hist = np.bincount(sup)
            tdead = np.zeros(tri.num_triangles, dtype=bool)
            kern.pop_frontier(sup, alive, phi, hist, frontier0, k)
            hit = kern.gather_incident(
                tri.tptr, tri.tinc, frontier0, tdead
            )
            tdead[hit] = True
            touched, dec = kern.count_decrements(
                tri.e1, tri.e2, tri.e3, hit, alive
            )
            merged = kern.merge_decrements([(touched, dec)])
            nxt = kern.apply_decrements(sup, hist, touched, dec, k)
            outputs.append(
                (name, phi, hist, hit, touched, dec, merged, nxt, sup)
            )
        ref = outputs[0]
        for other in outputs[1:]:
            for field, a, b in zip(
                ("phi", "hist", "hit", "touched", "dec",
                 "merged", "next", "sup"),
                ref[1:], other[1:],
            ):
                if field == "merged":
                    assert np.array_equal(a[0], b[0])
                    assert np.array_equal(a[1], b[1])
                else:
                    assert np.array_equal(a, b), (
                        field, ref[0], other[0]
                    )

    @pytest.mark.parametrize("nbuf", [2, 3])
    def test_merge_decrements_multi_buffer(self, nbuf):
        """The coordinator reduction: overlapping buffers sum exactly."""
        rng = np.random.default_rng(9 + nbuf)
        buffers = []
        dense = np.zeros(50, dtype=np.int64)
        for _ in range(nbuf):
            ids = np.unique(rng.integers(0, 50, size=20))
            cnt = rng.integers(1, 5, size=ids.size)
            buffers.append((ids, cnt.astype(np.int64)))
            dense[ids] += cnt
        expect_ids = np.flatnonzero(dense)
        for name, kern in self._backends():
            touched, dec = kern.merge_decrements(buffers)
            assert np.array_equal(touched, expect_ids), name
            assert np.array_equal(dec, dense[expect_ids]), name


class TestGatherOverMappedIndex:
    """The gather on the dist ranks' inputs: a read-only mapped ``tinc``.

    Ranks gather with ``tdead=None`` (a triangle's liveness is decided
    by its hash owner) straight from the ``np.load(mmap_mode="r")``
    arrays, and frontiers share triangles, so the dedupe must do real
    work without ever writing into the map.
    """

    @pytest.fixture
    def mapped(self, tmp_path):
        from repro.core.flat import _as_csr
        from repro.graph import complete_graph
        from repro.triangles.index_builder import (
            TriangleIndex,
            build_triangle_index,
        )

        g = complete_graph(7)
        g.add_edges([(0, 10), (1, 10), (10, 11), (0, 11)])
        build_triangle_index(_as_csr(g), storage="mmap", dirpath=tmp_path)
        tri = TriangleIndex.open(tmp_path)
        assert isinstance(tri.tinc, np.memmap)
        assert not tri.tinc.flags.writeable
        return tri

    @pytest.mark.parametrize("masked", [False, True])
    def test_numpy_gather_matches_python(self, mapped, masked):
        """Every registered backend against the python reference loops."""
        from repro.kernels import available_kernels, get_kernel

        reference = ReferenceKernel()
        before = np.array(mapped.tinc)
        m, n_tri = mapped.num_edges, mapped.num_triangles
        tdead = None
        if masked:
            tdead = np.zeros(n_tri, dtype=bool)
            tdead[::3] = True
        rng = np.random.default_rng(5)
        frontiers = [
            np.arange(m, dtype=np.int64),  # every triangle, thrice
            np.array([0, 1, 2], dtype=np.int64),
            np.array([m - 1], dtype=np.int64),
        ] + [
            np.sort(rng.choice(m, size=size, replace=False))
            for size in (2, 5, m // 2)
        ]
        for frontier in frontiers:
            expect = reference.gather_incident(
                mapped.tptr, mapped.tinc, frontier, tdead
            )
            for name in available_kernels():
                got = get_kernel(name).gather_incident(
                    mapped.tptr, mapped.tinc, frontier, tdead
                )
                assert got.dtype == np.int64
                assert np.array_equal(got, expect), (name, frontier)
        assert np.array_equal(mapped.tinc, before)
