"""Shared test helpers and hypothesis strategies.

These used to live in ``tests/conftest.py`` and were imported with
``from conftest import ...`` — which broke the moment a *second*
top-level ``conftest.py`` (the benchmark suite's) was collected in the
same run: pytest imports rootdir-relative conftests under the bare
module name ``conftest``, and whichever loads first wins.  Plain
helpers therefore live here, in a module with an unambiguous name;
``tests/conftest.py`` keeps only fixtures and the ``sys.path`` shim
that makes this module (and ``oracles``) importable.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import List, Optional, Tuple

import pytest
from hypothesis import example
from hypothesis import strategies as st

from repro.datasets import erdos_renyi, powerlaw_graph, star_heavy_graph
from repro.graph import Graph

try:
    import numpy
except ImportError:  # pragma: no cover
    numpy = None

#: the skip of every test that reaches a CSR engine (flat, parallel,
#: dist, the kernel layer, the stream maintainer) on the numpy-free
#: leg, where those stop at the kernel layer's one missing-numpy error
needs_numpy = pytest.mark.skipif(
    numpy is None, reason="the CSR engines need numpy"
)


def _backend_classes() -> dict:
    if numpy is None:
        return {}
    from repro.kernels.numpy_backend import NumpyKernel

    classes = {"numpy": NumpyKernel}
    try:
        from repro.kernels.numba_backend import NumbaKernel
    except ImportError:
        return classes
    classes["numba"] = NumbaKernel
    return classes


#: name -> class of every wave-step backend this process imports:
#: numpy's (the bit-identity reference), then numba's where the
#: optional package is installed; none without numpy
BACKENDS = _backend_classes()


@contextmanager
def pinned_kernel(name: str):
    """Run every CSR engine on backend ``name`` inside the block.

    Sets the backend :func:`repro.kernels.get_kernel` chose for the
    process (its ``_KERNEL``), as the index tests pin
    ``_INT32_INDEX_LIMIT``; pool workers and dist ranks get the
    driver's backend, so a whole peel runs on it.
    """
    import repro.kernels as kernels

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_KERNEL", BACKENDS[name]())
        yield

#: the (ranks, transport) matrix the dist parity sweeps cover: every
#: rank count the acceptance bar names, on both fabrics.  Loopback
#: first — it is cheap, so a genuine peel bug fails there before the
#: process-spawning TCP configurations even start.
DIST_SWEEP: Tuple[Tuple[int, str], ...] = tuple(
    (ranks, transport)
    for transport in ("loopback", "tcp")
    for ranks in (1, 2, 4)
)

#: the two triangle-index widths, each with the value of
#: ``repro.triangles.index_builder._INT32_INDEX_LIMIT`` that forces it
INDEX_WIDTHS = (("int32", 1 << 31), ("int64", 0))

#: the CSR builder's two id compactions, each with the value of
#: ``repro.graph.csr._TABLE_SPAN_PER_END`` that forces it on inputs
#: whose ids span at most a few thousand
ID_ROUTES = (("table", 1 << 16), ("search", 0))


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Seeded G(n, p) used by deterministic randomized tests."""
    rng = random.Random(seed)
    g = Graph()
    for v in range(n):
        g.add_vertex(v)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------
@st.composite
def small_edge_lists(draw, max_vertices: int = 12, max_edges: int = 40):
    """A list of distinct canonical edges over a small vertex range."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return draw(
        st.lists(
            st.sampled_from(possible),
            max_size=min(max_edges, len(possible)),
            unique=True,
        )
    )


@st.composite
def small_graphs(draw, max_vertices: int = 12, max_edges: int = 40):
    """A small random simple graph (possibly empty / disconnected)."""
    return Graph(draw(small_edge_lists(max_vertices, max_edges)))


@st.composite
def peel_graphs(draw, max_vertices: int = 26, max_edges: int = 60):
    """A random graph from the registry's structural families.

    The cross-method parity property sweeps this: ER (uniform), power
    law (heavy-tailed, the Wiki/Skitter shape) and star-heavy (a few
    hubs, the BTC shape) cover very different wave/level schedules —
    hub graphs peel in a handful of huge waves, ER in many small ones.
    Sizes stay small enough for the brute-force oracle.
    """
    family = draw(st.sampled_from(("er", "powerlaw", "stars")))
    n = draw(st.integers(min_value=5, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    if family == "er":
        return erdos_renyi(n, min(m, n * (n - 1) // 2), seed=seed)
    if family == "powerlaw":
        return powerlaw_graph(n, m, seed=seed)
    return star_heavy_graph(n, m, n_hubs=min(3, n - 1), seed=seed)


@st.composite
def update_streams(
    draw,
    max_vertices: int = 12,
    max_edges: int = 28,
    max_updates: int = 10,
):
    """A ``(graph, updates)`` pair for the incremental-parity sweeps.

    The base graph comes from :func:`peel_graphs` (all three structural
    families); ``updates`` is a list of ``(op, u, v)`` tuples that the
    maintainer parity property replays against a mutable mirror.  The
    mix deliberately covers every update shape the maintainer must
    survive: fresh inserts and deletes over the occupied vertex range
    plus two spare ids, *duplicate* inserts of existing edges, deletes
    of absent (or already-deleted) edges, triangle-*creating* inserts
    (closing an open wedge of the base graph) and triangle-*destroying*
    deletes (edges sampled from the base graph's edge set).  Endpoint
    order is flipped at random so canonicalization is exercised.
    """
    g = draw(peel_graphs(max_vertices=max_vertices, max_edges=max_edges))
    verts = sorted(g.vertices())
    hi = (verts[-1] + 2) if verts else 3
    base = sorted(g.edges())
    closures = sorted(
        {
            (a, b)
            for w in verts
            for a in g.neighbors(w)
            for b in g.neighbors(w)
            if a < b and not g.has_edge(a, b)
        }
    )[:64]
    kinds = ["insert_pair", "delete_pair"]
    if base:
        kinds += ["delete_existing", "insert_duplicate"]
    if closures:
        kinds.append("close_wedge")
    pair = st.tuples(
        st.integers(min_value=0, max_value=hi),
        st.integers(min_value=0, max_value=hi),
    ).filter(lambda p: p[0] != p[1])
    updates: List[Tuple[str, int, int]] = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_updates))):
        kind = draw(st.sampled_from(kinds))
        if kind == "insert_pair":
            op, (u, v) = "insert", draw(pair)
        elif kind == "delete_pair":
            op, (u, v) = "delete", draw(pair)
        elif kind == "delete_existing":
            op, (u, v) = "delete", draw(st.sampled_from(base))
        elif kind == "insert_duplicate":
            op, (u, v) = "insert", draw(st.sampled_from(base))
        else:
            op, (u, v) = "insert", draw(st.sampled_from(closures))
        if draw(st.booleans()):
            u, v = v, u
        updates.append((op, u, v))
    return g, updates


#: ``(graph, updates)`` streams that pin the maintainer's compaction,
#: which merges the sorted appended rows into the live base rows: only
#: deletes; inserts that land before, between, inside and after the
#: base rows (a new smallest vertex, a vertex the base lacks, a new
#: neighbour inside a base vertex's run, a vertex past every base one);
#: and deleted base edges inserted again, once reversed
_COMPACT_BASE = ((0, 2), (0, 4), (2, 4), (2, 6), (4, 6), (6, 8))
COMPACT_STREAMS = (
    (Graph(_COMPACT_BASE),
     [("delete", 0, 2), ("delete", 6, 4), ("delete", 6, 8)]),
    (Graph(_COMPACT_BASE),
     [("insert", 0, 3), ("insert", 1, 2), ("insert", 4, 3),
      ("insert", 2, 5), ("insert", 8, 9), ("insert", -1, 0),
      ("insert", 6, 0), ("insert", 4, 6)]),
    (Graph(_COMPACT_BASE),
     [("delete", 2, 4), ("insert", 4, 2), ("delete", 0, 4),
      ("insert", 3, 4), ("insert", 0, 4), ("delete", 3, 4)]),
)


def with_compact_streams(test):
    """``test`` with each of :data:`COMPACT_STREAMS` as an explicit
    hypothesis example."""
    for stream in COMPACT_STREAMS:
        test = example(stream)(test)
    return test


def assert_state_rows(tm, mirror: Graph) -> None:
    """``tm``'s compacted rows are ``mirror``'s ``(u, v, phi, sup)``
    rows, sorted by ``(u, v)``."""
    from oracles import brute_all_supports, brute_trussness

    phi, sup = brute_trussness(mirror), brute_all_supports(mirror)
    assert [tuple(r) for r in tm.state_rows().tolist()] == [
        (u, v, phi[u, v], sup[u, v]) for u, v in sorted(phi)
    ]


# ---------------------------------------------------------------------------
# seeded edge-list file fuzzer
# ---------------------------------------------------------------------------
#: line kinds the fuzzer draws from, with (weight, is_error) — the mix
#: leans on valid lines so most seeds produce parseable files
_FUZZ_KINDS = (
    ("edge", 30, False),          # plain 'u v'
    ("dup", 6, False),            # repeat of an earlier edge, maybe flipped
    ("self_loop", 4, False),      # 'v v' (dropped by the cleaners)
    ("comment", 6, False),        # '# ...' (sometimes indented)
    ("blank", 5, False),          # empty or whitespace-only
    ("extra_cols", 6, False),     # 'u v w ...' — first two columns count
    ("extra_noninteger", 3, False),  # 'u v x' — trailing junk is ignored
    ("short", 2, True),           # a single token: no 'v'
    ("non_integer", 2, True),     # a non-numeric token in column 1 or 2
)


def fuzzed_edge_list(
    seed: int, n_lines: int = 28
) -> Tuple[str, Optional[int]]:
    """A seeded messy edge-list file and its expected first error line.

    Returns ``(text, first_error_lineno)``: the text mixes comments,
    blank lines, duplicate/reversed/self-loop edges, ragged-but-valid
    rows (extra columns, including non-integer trailing columns) and —
    with ``first_error_lineno`` set — genuinely malformed lines (a
    missing column, a non-integer vertex id).  The contract under test:
    :meth:`repro.graph.csr.CSRGraph.from_edge_list_file` must either
    build the same snapshot as the ``read_edge_list`` route or raise
    :class:`~repro.errors.FormatError` naming the *file-absolute*
    ``first_error_lineno`` — chunked bulk parsing must never shift,
    mask or reorder errors.  Only one in three seeds injects errors, so
    the round-trip side of the contract gets real coverage too.
    """
    rng = random.Random(seed)
    inject_errors = rng.random() < 1 / 3
    kinds = [k for k in _FUZZ_KINDS if inject_errors or not k[2]]
    names = [k[0] for k in kinds]
    weights = [k[1] for k in kinds]
    lines: List[str] = []
    edges: List[Tuple[int, int]] = []
    error_line: Optional[int] = None

    def vid() -> int:
        # mostly small ids with occasional huge/negative ones so the
        # canonicalization (non-contiguous labels) is exercised too
        r = rng.random()
        if r < 0.8:
            return rng.randrange(0, 40)
        if r < 0.95:
            return rng.randrange(1_000, 1_000_000)
        return -rng.randrange(1, 50)

    for lineno in range(1, n_lines + 1):
        kind = rng.choices(names, weights=weights)[0]
        if kind == "edge" or (kind == "dup" and not edges):
            u, v = vid(), vid()
            while u == v:
                v = vid()
            edges.append((u, v))
            lines.append(f"{u} {v}")
        elif kind == "dup":
            u, v = rng.choice(edges)
            if rng.random() < 0.5:
                u, v = v, u
            lines.append(f"{u} {v}")
        elif kind == "self_loop":
            v = vid()
            lines.append(f"{v} {v}")
        elif kind == "comment":
            pad = " " * rng.randrange(0, 3)
            lines.append(f"{pad}# fuzz comment {lineno}")
        elif kind == "blank":
            lines.append(" " * rng.randrange(0, 3))
        elif kind == "extra_cols":
            u, v = vid(), vid() + 1
            extras = " ".join(
                str(rng.randrange(100)) for _ in range(rng.randrange(1, 4))
            )
            lines.append(f"{u} {v} {extras}")
            if u != v:
                edges.append((u, v))
        elif kind == "extra_noninteger":
            u, v = vid(), vid() + 1
            lines.append(f"{u} {v} {rng.choice(('x', '0.5', 'w=3'))}")
            if u != v:
                edges.append((u, v))
        elif kind == "short":
            lines.append(rng.choice((str(vid()), "lonely")))
            if error_line is None:
                error_line = lineno
        else:  # non_integer
            bad = rng.choice(("foo", "3.14", "0x1f"))
            pair = (bad, str(vid())) if rng.random() < 0.5 else (str(vid()), bad)
            lines.append(" ".join(pair))
            if error_line is None:
                error_line = lineno
    text = "\n".join(lines)
    if rng.random() < 0.8:
        text += "\n"
    return text, error_line
