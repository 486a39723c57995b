"""Triangle engine: listing, counting, support, and the incidence index.

Public surface::

    iter_triangles, triangle_count      compact-forward O(m^1.5) listing
    edge_supports, supports_within      Definition 1's sup(e)
    external_edge_supports              partitioned, I/O-accounted variant
    build_triangle_index                out(a) wedges, chunk-scattered incidence
    TriangleIndex                       the index bundle + on-disk format

The triangle index (``e1``/``e2``/``e3`` per-triangle edge columns,
``tptr``/``tinc`` edge->triangle incidence with ascending windows) is
the structure every CSR peel engine — ``flat``, ``parallel``, ``dist``
— runs over.  ``tptr`` is int64; the other four are int32 when m and
the wedge count are both below 2**31, int64 otherwise, in RAM and on
disk alike.  :mod:`repro.triangles.index_builder` documents the build
contract and the on-disk ``.npy`` layout that
:meth:`TriangleIndex.open` memory-maps.

Each name resolves on first use, so a CSR engine that imports the
index builder does not load the dict-based listing or the external
variant.
"""

from repro._lazy import lazy_names

__all__ = [
    "TriangleIndex",
    "build_triangle_index",
    "external_edge_supports",
    "external_supports_to_file",
    "external_triangle_count",
    "iter_triangles",
    "triangle_count",
    "degree_ranks",
    "oriented_adjacency",
    "edge_supports",
    "support_of_edges",
    "supports_within",
    "max_support",
]

#: defining module -> the public names it provides
_SOURCES = {
    "repro.triangles.external": (
        "external_edge_supports", "external_supports_to_file",
        "external_triangle_count",
    ),
    "repro.triangles.index_builder": (
        "TriangleIndex", "build_triangle_index",
    ),
    "repro.triangles.listing": (
        "degree_ranks", "iter_triangles", "oriented_adjacency",
        "triangle_count",
    ),
    "repro.triangles.support": (
        "edge_supports", "max_support", "support_of_edges",
        "supports_within",
    ),
}

__getattr__, __dir__ = lazy_names(globals(), _SOURCES)
