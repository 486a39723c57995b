"""Cross-backend kernel parity: every backend, every engine, one truth.

The kernel contract (see :mod:`repro.kernels`) promises bit-for-bit
interchangeable backends.  This suite promotes that promise to a
hypothesis property: every generated graph is decomposed by every
available backend under every engine configuration — flat, parallel at
jobs 1/2, dist at ranks 1/2 over loopback — and
every run must reproduce the brute-force oracle *and* the reference
run's wave/level schedule exactly.  Each run pins its backend for the
process (``helpers.pinned_kernel``), so the engines, pool workers and
ranks all run it.  A numba leg mirrors the sweep and skips wherever
the optional package is absent (tier-1 CI); the tier-2 job installs
numba and runs it for real.  Op by op, every importable backend is
compared against :class:`oracles.ReferenceKernel`, the same five ops
as plain loops, over int32 and int64 index columns, both as plain
arrays and as read-only maps, and every output must be int64.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import truss_decomposition

from helpers import BACKENDS, INDEX_WIDTHS, peel_graphs, pinned_kernel
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

def index_variants(g, tmp_path):
    """``(label, index)`` for ``g`` at both widths, plain and mapped.

    The mapped variants are what the dist ranks read: the builder's
    on-disk files reopened read-only.
    """
    import repro.triangles.index_builder as ib
    from repro.core.flat import _as_csr

    csr = _as_csr(g)
    out = []
    for width, limit in INDEX_WIDTHS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ib, "_INT32_INDEX_LIMIT", limit)
            out.append((f"{width}-ram", ib.build_triangle_index(csr)))
            d = tmp_path / width
            d.mkdir()
            ib.build_triangle_index(csr, storage="mmap", dirpath=d)
        mapped = ib.TriangleIndex.open(d)
        if mapped.num_triangles:
            assert isinstance(mapped.tinc, np.memmap)
            assert not mapped.tinc.flags.writeable
        out.append((f"{width}-mmap", mapped))
    for label, tri in out:
        assert tri.dtype == label.split("-")[0], label
    return out


def assert_int64_outputs(label, name, *arrays):
    for arr in arrays:
        assert arr.dtype == np.int64, (label, name, arr.dtype)


def _sweep_backend(g, backend):
    """Run the full engine matrix on one backend vs oracle + reference."""
    oracle = brute_trussness(g)
    with pinned_kernel("numpy"):
        ref = truss_decomposition(g, method="flat")
    assert dict(ref.trussness) == oracle
    # an edgeless graph returns before any wave runs (no stats at all)
    schedule = {
        key: ref.stats.extra[key]
        for key in SCHEDULE_KEYS
        if g.num_edges
    }
    for method, knobs in ENGINE_SWEEP:
        with pinned_kernel(backend):
            td = truss_decomposition(g, method=method, **knobs)
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
        "numba" not in BACKENDS,
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


def drive_waves(kern, tri):
    """Peel ``tri`` with ``kern``'s five ops alone, from the first wave
    to the last; returns the final ``(phi, hist, sup)`` and every wave's
    op outputs."""
    m = tri.num_edges
    sup = tri.initial_supports()
    alive = np.ones(m, dtype=bool)
    phi = np.zeros(m, dtype=np.int64)
    hist = np.bincount(sup, minlength=1)
    tdead = np.zeros(tri.num_triangles, dtype=bool)
    k, remaining, waves = 2, m, []
    while remaining:
        k = max(k, int(sup[alive].min()) + 2)
        frontier = np.flatnonzero(alive & (sup <= k - 2))
        while frontier.size:
            kern.pop_frontier(sup, alive, phi, hist, frontier, k)
            remaining -= frontier.size
            hit = kern.gather_incident(tri.tptr, tri.tinc, frontier, tdead)
            tdead[hit] = True
            touched, dec = kern.count_decrements(
                tri.e1, tri.e2, tri.e3, hit, alive
            )
            merged = kern.merge_decrements([(touched, dec)])
            frontier = kern.apply_decrements(sup, hist, touched, dec, k)
            waves.append((hit, touched, dec, *merged, frontier))
    return (phi, hist, sup), waves


class TestBackendOpBitIdentity:
    """The five kernel ops, each backend vs the reference loops, on
    real wave inputs.

    The engine sweep above checks end-to-end results; this pins the
    per-op contract — same sorted/deduped int64 arrays, element for
    element — on every wave of real graphs from the first on, where a
    drift would otherwise be masked by downstream merging, over both
    index widths, plain and mapped.
    """

    def _backends(self):
        return [("reference", ReferenceKernel())] + [
            (name, cls()) for name, cls in BACKENDS.items()
        ]

    @pytest.mark.parametrize("seed", [3, 17, 44])
    def test_first_wave_ops_identical(self, seed, tmp_path):
        from helpers import random_graph

        g = random_graph(24, 0.3, seed=seed)
        variants = index_variants(g, tmp_path)
        if not variants[0][1].num_triangles:
            pytest.skip("seed produced a triangle-free graph")
        ref = None
        for label, tri in variants:
            for name, kern in self._backends():
                final, waves = drive_waves(kern, tri)
                assert any(len(wave[0]) for wave in waves)  # triangles died
                for wave in waves:
                    assert_int64_outputs(label, name, *wave)
                if ref is None:
                    # the reference loops over the first variant: every
                    # backend and every width must match it
                    ref = final, waves
                    continue
                for a, b in zip(ref[0], final):
                    assert np.array_equal(a, b), (label, name)
                assert len(waves) == len(ref[1]), (label, name)
                for i, (want, got) in enumerate(zip(ref[1], waves)):
                    for a, b in zip(want, got):
                        assert np.array_equal(a, b), (label, name, i)

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
    work without ever writing into the map.  Each case runs over both
    index widths, mapped and as plain arrays.
    """

    @pytest.fixture
    def variants(self, tmp_path):
        from repro.graph import complete_graph

        g = complete_graph(7)
        g.add_edges([(0, 10), (1, 10), (10, 11), (0, 11)])
        return index_variants(g, tmp_path)

    @pytest.mark.parametrize("masked", [False, True])
    def test_numpy_gather_matches_python(self, variants, masked):
        """Every importable backend against the python reference loops."""
        reference = ReferenceKernel()
        for label, tri in variants:
            before = np.array(tri.tinc)
            m, n_tri = tri.num_edges, tri.num_triangles
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
                    tri.tptr, tri.tinc, frontier, tdead
                )
                for name, cls in BACKENDS.items():
                    got = cls().gather_incident(
                        tri.tptr, tri.tinc, frontier, tdead
                    )
                    assert_int64_outputs(label, name, got)
                    assert np.array_equal(got, expect), (
                        label, name, frontier
                    )
            assert np.array_equal(tri.tinc, before)

    def test_bounded_count_matches_python(self, variants):
        """The shard owners' count (``lo``/``hi``/``base``) at both
        widths, against the python reference loops."""
        reference = ReferenceKernel()
        for label, tri in variants:
            m, n_tri = tri.num_edges, tri.num_triangles
            tris = np.arange(n_tri, dtype=np.int64)
            for lo, hi in ((0, m), (0, m // 2), (m // 3, m)):
                alive = np.ones(hi - lo, dtype=bool)
                alive[::4] = False
                expect = reference.count_decrements(
                    tri.e1, tri.e2, tri.e3, tris, alive,
                    lo=lo, hi=hi, base=lo,
                )
                for name, cls in BACKENDS.items():
                    got = cls().count_decrements(
                        tri.e1, tri.e2, tri.e3, tris, alive,
                        lo=lo, hi=hi, base=lo,
                    )
                    assert_int64_outputs(label, name, *got)
                    for a, b in zip(got, expect):
                        assert np.array_equal(a, b), (label, name, lo, hi)
