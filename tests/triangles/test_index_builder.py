"""Tests for the streaming triangle-index builder.

The contract under test: both storages, at both index widths and at
*any* wedge-chunk size (including one wedge run per chunk), produce
value-identical ``(e1, e2, e3, tptr, tinc)`` bundles whose supports
match the brute oracle, whose triangles come in one pinned order
(ascending degree ranks, columns ab/bc/ac), whose incidence windows
are ascending in triangle id, and over which every CSR peel engine
computes the same trussness map as the dict-based methods.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

import repro.triangles.index_builder as ib
from repro.core import truss_decomposition_flat, truss_decomposition_parallel
from repro.core.flat import _as_csr
from repro.core.truss_improved import truss_decomposition_improved
from repro.errors import DecompositionError
from repro.graph import CSRGraph, Graph, complete_graph

from helpers import INDEX_WIDTHS, peel_graphs, random_graph, small_edge_lists
from oracles import brute_all_supports, brute_triangles

np = pytest.importorskip("numpy")


def local_adjacency(csr):
    """``(order, nbrs, eid)`` of ``csr``, from its endpoint arrays alone.

    ``nbrs`` maps each compact vertex to its neighbour set, ``eid``
    each ordered compact pair to its edge id, and ``order`` lists the
    vertices by ascending ``(degree, id)``.
    """
    eu, ev = csr.edge_endpoints()
    nbrs = {i: set() for i in range(csr.num_vertices)}
    eid = {}
    for e, (i, j) in enumerate(zip(eu.tolist(), ev.tolist())):
        nbrs[i].add(j)
        nbrs[j].add(i)
        eid[(i, j)] = eid[(j, i)] = e
    order = sorted(nbrs, key=lambda i: (len(nbrs[i]), i))
    return order, nbrs, eid


def reference_triangles(csr):
    """Every triangle as ``(e_ab, e_bc, e_ac)``, in the builder's order.

    ``a < b < c`` under the ``(degree, id)`` ranks; the triangles come
    sorted by ``(rank a, rank b, rank c)``.  Plain loops over
    neighbour sets, sharing nothing with the vectorized enumerator.
    """
    order, nbrs, eid = local_adjacency(csr)
    rank = {v: r for r, v in enumerate(order)}
    triangles = []
    for a in order:
        out_a = sorted((w for w in nbrs[a] if rank[w] > rank[a]), key=rank.get)
        for i, b in enumerate(out_a):
            for c in out_a[i + 1:]:
                if c in nbrs[b]:
                    triangles.append((eid[a, b], eid[b, c], eid[a, c]))
    return triangles


def build_all_ways(csr, tmp_path, chunks=(1, 7, None)):
    """The same index at every width, storage and several chunk sizes.

    Returns ``(width, storage, chunk, index)`` rows; each index is
    checked to be stored at the width its row names.
    """
    built = []
    for width, limit in INDEX_WIDTHS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ib, "_INT32_INDEX_LIMIT", limit)
            for chunk in chunks:
                built.append((width, "ram", chunk,
                              ib.build_triangle_index(csr, chunk=chunk)))
                d = tempfile.mkdtemp(dir=tmp_path)
                built.append((width, "mmap", chunk, ib.build_triangle_index(
                    csr, storage="mmap", dirpath=d, chunk=chunk
                )))
    for width, storage, chunk, tri in built:
        for field in ("e1", "e2", "e3", "tinc"):
            assert getattr(tri, field).dtype == width, (storage, chunk, field)
        assert tri.tptr.dtype == np.int64
        assert tri.dtype == width
    return built


def assert_index_matches_oracle(g, csr, tri):
    """Structural correctness of one built index vs the brute oracle."""
    labels = csr.labels.tolist()
    eu, ev = csr.edge_endpoints()
    m = csr.num_edges
    sup = tri.initial_supports()
    oracle_sup = brute_all_supports(g)
    for e in range(m):
        edge = (labels[eu[e]], labels[ev[e]])
        assert sup[e] == oracle_sup[edge], edge
    # tptr is the running sum of the incidence counts
    assert np.array_equal(
        np.asarray(tri.tptr),
        np.concatenate(([0], np.cumsum(sup))),
    )
    # every triangle appears exactly once, as three consistent edges
    tri_sets = set()
    for t in range(tri.num_triangles):
        eids = (int(tri.e1[t]), int(tri.e2[t]), int(tri.e3[t]))
        verts = frozenset(
            labels[x] for e in eids for x in (eu[e], ev[e])
        )
        assert len(verts) == 3
        tri_sets.add(verts)
    assert tri_sets == brute_triangles(g)
    # each edge's incidence window holds exactly its triangles, with
    # the builder's canonical ascending-triangle-id layout
    tinc = np.asarray(tri.tinc)
    for e in range(m):
        window = tinc[tri.tptr[e]:tri.tptr[e + 1]]
        assert np.all(window[1:] > window[:-1]), e  # ascending, unique
        for t in window:
            assert e in (tri.e1[t], tri.e2[t], tri.e3[t])


class TestBuilderProperty:
    @settings(max_examples=25, deadline=None)
    @given(peel_graphs())
    def test_storages_and_chunks_bit_identical(self, tmp_path_factory, g):
        csr = _as_csr(g)
        tmp = tmp_path_factory.mktemp("triidx")
        built = build_all_ways(csr, tmp)
        ref = built[0][3]
        for width, storage, chunk, tri in built[1:]:
            for field in ib.TriangleIndex.FIELDS:
                assert np.array_equal(
                    np.asarray(getattr(tri, field)),
                    np.asarray(getattr(ref, field)),
                ), (width, storage, chunk, field)
        assert_index_matches_oracle(g, csr, ref)

    @settings(max_examples=25, deadline=None)
    @given(peel_graphs())
    def test_enumeration_order_is_pinned(self, tmp_path_factory, g):
        # triangle ids are positions in this order: e1/e2/e3 (and so
        # every tinc window) must equal the reference exactly
        csr = _as_csr(g)
        expect = reference_triangles(csr)
        cols = [np.array(c, dtype=np.int64) for c in zip(*expect)] or [
            np.zeros(0, dtype=np.int64)
        ] * 3
        tmp = tmp_path_factory.mktemp("triorder")
        for width, storage, chunk, tri in build_all_ways(csr, tmp):
            for field, col in zip(("e1", "e2", "e3"), cols):
                assert np.array_equal(np.asarray(getattr(tri, field)), col), (
                    width, storage, chunk, field
                )

    @settings(max_examples=25, deadline=None)
    @given(peel_graphs())
    def test_wedge_count_is_out_degree_pairs(self, g):
        # one wedge per pair of out(a) slots: sum of C(d+(v), 2), and
        # each triangle closes exactly one of them
        csr = _as_csr(g)
        order, nbrs, _eid = local_adjacency(csr)
        rank = {v: r for r, v in enumerate(order)}
        pairs = 0
        for v in order:
            d_out = sum(1 for w in nbrs[v] if rank[w] > rank[v])
            pairs += d_out * (d_out - 1) // 2
        dag = ib._WedgeDAG(csr)
        assert dag.wedges == (int(dag.cum[-1]) if dag.total else 0)
        assert dag.wedges == pairs
        assert dag.wedges >= len(brute_triangles(g))

    @settings(max_examples=20, deadline=None)
    @given(small_edge_lists())
    def test_counting_pass_matches_oracle(self, edges):
        # the counting pass sets both routes' supports and triangle count
        g = Graph(edges)
        csr = _as_csr(g)
        for chunk in (1, 5, None):
            with tempfile.TemporaryDirectory() as d:
                for tri in (
                    ib.build_triangle_index(csr, chunk=chunk),
                    ib.build_triangle_index(
                        csr, storage="mmap", dirpath=d, chunk=chunk
                    ),
                ):
                    sup, n_tri = tri.initial_supports(), tri.num_triangles
                    assert n_tri == len(brute_triangles(g))
                    oracle = brute_all_supports(g)
                    labels = csr.labels.tolist()
                    eu, ev = csr.edge_endpoints()
                    for e in range(csr.num_edges):
                        assert sup[e] == oracle[
                            (labels[eu[e]], labels[ev[e]])
                        ]


def route_to(monkeypatch, storage):
    """Make the engines' size-based choice land on ``storage``: the
    default cutoff keeps a small index in RAM, a cutoff of 1 byte
    spills any index with a wedge to disk."""
    if storage == "mmap":
        monkeypatch.setattr(ib, "_AUTO_MMAP_INDEX_BYTES", 1)


class TestDecompositionParity:
    @pytest.mark.parametrize("storage", ["ram", "mmap"])
    @pytest.mark.parametrize("chunk", [1, 16])
    def test_flat_over_tiny_chunks(self, monkeypatch, storage, chunk):
        monkeypatch.setattr(ib, "_WEDGE_CHUNK", chunk)
        g = random_graph(24, 0.3, seed=71)
        ref = truss_decomposition_improved(g)
        route_to(monkeypatch, storage)
        td = truss_decomposition_flat(g)
        assert td == ref
        assert td.stats.extra["index_storage"] == storage

    @pytest.mark.parametrize("storage", ["ram", "mmap"])
    def test_pooled_peel_over_both_storages(self, monkeypatch, storage):
        g = random_graph(22, 0.35, seed=72)
        ref = truss_decomposition_flat(g)
        route_to(monkeypatch, storage)
        td = truss_decomposition_parallel(g, jobs=2)
        assert td == ref, storage
        assert td.stats.extra["index_storage"] == storage

    def test_auto_threshold_picks_mmap(self, monkeypatch):
        # shrink the auto cutoff so even a toy graph spills to disk
        monkeypatch.setattr(ib, "_AUTO_MMAP_INDEX_BYTES", 1)
        g = complete_graph(6)
        td = truss_decomposition_flat(g)
        assert td.stats.extra["index_storage"] == "mmap"
        assert td == truss_decomposition_improved(g)

    def test_auto_threshold_default_is_ram(self):
        # and the default width is int32
        td = truss_decomposition_flat(complete_graph(6))
        assert td.stats.extra["index_storage"] == "ram"
        assert td.stats.extra["index_dtype"] == "int32"

    @pytest.mark.parametrize("storage", ["ram", "mmap"])
    def test_forced_int64_width_same_trussness(self, monkeypatch, storage):
        g = random_graph(24, 0.3, seed=73)
        ref = truss_decomposition_flat(g)
        monkeypatch.setattr(ib, "_INT32_INDEX_LIMIT", 0)
        route_to(monkeypatch, storage)
        td = truss_decomposition_flat(g)
        assert td == ref
        assert td.stats.extra["index_dtype"] == "int64"
        assert td.stats.extra["index_storage"] == storage

    def test_auto_cutoff_counts_bytes_at_the_width(self, monkeypatch):
        # a cutoff of exactly 6 int32 slots per wedge keeps the int32
        # index in RAM; the same index at int64 is twice that and spills
        g = complete_graph(6)
        wedges = ib._WedgeDAG(_as_csr(g)).wedges
        monkeypatch.setattr(ib, "_AUTO_MMAP_INDEX_BYTES", 6 * wedges * 4)
        td = truss_decomposition_flat(g)
        assert td.stats.extra["index_storage"] == "ram"
        monkeypatch.setattr(ib, "_INT32_INDEX_LIMIT", 0)
        td = truss_decomposition_flat(g)
        assert td.stats.extra["index_storage"] == "mmap"
        assert td.stats.extra["index_dtype"] == "int64"


class TestEdgeCases:
    @pytest.mark.parametrize("storage", ["ram", "mmap"])
    def test_triangle_free_graph(self, tmp_path, storage):
        csr = _as_csr(Graph([(0, 1), (1, 2), (2, 3)]))
        tri = ib.build_triangle_index(
            csr, storage=storage,
            dirpath=tmp_path if storage == "mmap" else None,
        )
        assert tri.num_triangles == 0
        assert np.all(np.asarray(tri.tptr) == 0)
        assert len(tri.tinc) == 0

    def test_mmap_layout_reopens_as_triangle_index(self, tmp_path):
        # the builder's on-disk output IS the dist ranks' read format
        csr = _as_csr(complete_graph(5))
        built = ib.build_triangle_index(csr, storage="mmap", dirpath=tmp_path)
        reopened = ib.TriangleIndex.open(tmp_path)
        for field in ib.TriangleIndex.FIELDS:
            assert np.array_equal(
                np.asarray(getattr(reopened, field)),
                np.asarray(getattr(built, field)),
            ), field
        assert reopened.storage == "mmap"

    def test_unknown_storage_rejected(self):
        csr = _as_csr(complete_graph(4))
        with pytest.raises(DecompositionError):
            ib.build_triangle_index(csr, storage="tape")

    def test_mmap_without_dirpath_rejected(self):
        # "auto" may spill, so it needs the caller's directory too,
        # even where the size bound would keep the index in RAM
        csr = _as_csr(complete_graph(4))
        for storage in ("mmap", "auto"):
            with pytest.raises(DecompositionError, match="needs a dirpath"):
                ib.build_triangle_index(csr, storage=storage)

    def test_width_limit_is_strict(self):
        # int32 only while m and the wedge count are both below the
        # limit: at the limit itself the index is int64
        csr = _as_csr(complete_graph(5))
        dag = ib._WedgeDAG(csr)
        top = max(dag.wedges, csr.num_edges)
        for limit, width in ((top + 1, "int32"), (top, "int64")):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ib, "_INT32_INDEX_LIMIT", limit)
                assert ib.build_triangle_index(csr).dtype == width, limit

    def test_chunk_key_overflow_raises(self):
        # a chunk's keys e << s | t are below m << s: past int64 the
        # key function must refuse instead of wrapping
        col = np.zeros(3, dtype=np.int64)
        with pytest.raises(DecompositionError, match="overflow int64"):
            ib._chunk_keys(1 << 62, col, col, col)

    def test_chunk_keys_at_the_int64_limit(self):
        # 7 triangles take s = 3 bits and m << 3 == 2**63, so the
        # largest key the check allows, (m - 1) << 3 | 7, is 2**63 - 1
        m, c = 1 << 60, 7
        col = np.full(c, m - 1, dtype=np.int64)
        keys, s = ib._chunk_keys(m, col, col, col)
        assert s == 3
        assert keys.tolist() == [(m - 1) << 3 | t for t in range(c)] * 3
        with pytest.raises(DecompositionError, match="overflow int64"):
            ib._chunk_keys(m + 1, col, col, col)
