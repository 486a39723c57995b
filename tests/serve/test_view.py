"""The row-backed ``ReadView`` answers exactly as the dict view did.

``DictReadView`` below is the read view as it was when generations
were loaded into dicts: a ``{(u, v): phi}`` map, a dict of sorted
neighbour lists, and a one-vertex-at-a-time FIFO BFS.  It stays here
as the reference.  Every query of the row view must return the same
value, including which edges a truncated community keeps.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, List, Tuple

import pytest

from repro.core import truss_decomposition
from repro.serve import snapshot as snap
from repro.serve.view import EMPTY_VIEW, ReadView

from helpers import random_graph

pytestmark = pytest.mark.skipif(
    snap._np is None, reason="repro serve needs numpy"
)

Edge = Tuple[int, int]

#: ids that no int64 row can hold, or that sit at its bounds
FAR_IDS = (1 << 63, -(1 << 63) - 1, 99999999999999999999,
           -99999999999999999999, (1 << 63) - 1, -(1 << 63))


def _canon(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class DictReadView:
    """The dict-backed read view: the reference answers."""

    def __init__(self, gen: int, wal_seq: int, phi: Dict[Edge, int]) -> None:
        self.gen = gen
        self.wal_seq = wal_seq
        self.phi = phi
        adj: Dict[int, List[int]] = {}
        for a, b in phi:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        for lst in adj.values():
            lst.sort()
        self._adj = adj
        self._kmax = max(phi.values(), default=2)

    @property
    def num_edges(self) -> int:
        return len(self.phi)

    @property
    def kmax(self) -> int:
        return self._kmax

    def lookup(self, u: int, v: int):
        return self.phi.get(_canon(int(u), int(v)))

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def community(self, v: int, k: int, max_edges: int = 10_000):
        v = int(v)
        if v not in self._adj:
            return None
        phi = self.phi
        seen = {v}
        frontier = deque([v])
        vertices = 0
        edges: List[Tuple[int, int, int]] = []
        num_edges = 0
        touched = False
        while frontier:
            x = frontier.popleft()
            vertices += 1
            for w in self._adj[x]:
                kk = phi[_canon(x, w)]
                if kk < k:
                    continue
                touched = True
                if x < w:
                    num_edges += 1
                    if len(edges) < max_edges:
                        edges.append((x, w, kk))
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        if not touched:
            return None
        return {
            "vertex": v,
            "k": k,
            "num_vertices": vertices,
            "num_edges": num_edges,
            "edges": [[a, b, kk] for a, b, kk in sorted(edges)],
            "truncated": num_edges > len(edges),
        }

    def dump_lines(self):
        for (u, v) in sorted(self.phi):
            yield f"{u} {v} {self.phi[(u, v)]}"

    def max_k_of_vertex(self, v: int):
        nbrs = self._adj.get(int(v))
        if not nbrs:
            return None
        return max(self.phi[_canon(v, w)] for w in nbrs)


def _views(phi: Dict[Edge, int]):
    rows = snap.state_rows(phi, phi)
    return ReadView(3, 9, rows), DictReadView(3, 9, dict(phi))


def _relabel(phi: Dict[Edge, int], labels: Dict[int, int]):
    return {_canon(labels[u], labels[v]): k for (u, v), k in phi.items()}


def _cases():
    """Seeded ``{(u, v): phi}`` maps: true trussness and random levels,
    over small ids, and over spread ids at the int64 bounds."""
    out = []
    for seed in range(6):
        rng = random.Random(seed)
        g = random_graph(rng.randint(8, 40), rng.choice((0.15, 0.3, 0.5)),
                         seed)
        phi = dict(truss_decomposition(g, method="improved").trussness)
        out.append((f"truss{seed}", phi))
        out.append((f"levels{seed}",
                    {e: rng.randint(2, 7) for e in sorted(phi)}))
        ids = sorted(g.vertices())
        spread = set()
        while len(spread) < len(ids):
            spread.add(rng.randrange(-(1 << 63), 1 << 63))
        spread = sorted(spread)
        out.append((f"spread{seed}", _relabel(phi, dict(zip(ids, spread)))))
    return out


CASES = _cases()


def _same(a, b):
    assert a == b
    assert type(a) is type(b)


@pytest.mark.parametrize("phi", [c[1] for c in CASES],
                         ids=[c[0] for c in CASES])
class TestRowViewMatchesDictView:
    def test_lookup(self, phi):
        view, ref = _views(phi)
        vertices = sorted({x for e in phi for x in e})
        probes = [(u, v) for u in vertices for v in vertices]
        probes += [(u, f) for u in vertices[:3] for f in FAR_IDS]
        probes += [(f, g) for f in FAR_IDS for g in FAR_IDS]
        for u, v in probes:
            _same(view.lookup(u, v), ref.lookup(u, v))

    def test_vertices(self, phi):
        view, ref = _views(phi)
        vertices = sorted({x for e in phi for x in e})
        absent = [vertices[0] - 1, vertices[-1] + 1, *FAR_IDS]
        for v in vertices + absent:
            assert view.has_vertex(v) == ref.has_vertex(v)
            _same(view.max_k_of_vertex(v), ref.max_k_of_vertex(v))

    def test_communities(self, phi):
        view, ref = _views(phi)
        kmax = ref.kmax
        vertices = sorted({x for e in phi for x in e})
        truncated = 0
        for v in vertices + list(FAR_IDS[:4]):
            for k in (2, 3, kmax, kmax + 1):
                for cap in (0, 1, 3, 8, 20, 10_000):
                    got = view.community(v, k, max_edges=cap)
                    want = ref.community(v, k, max_edges=cap)
                    assert got == want, (v, k, cap)
                    truncated += bool(want and want["truncated"] and cap)
        assert truncated  # the caps did cut some communities short

    def test_whole_view(self, phi):
        view, ref = _views(phi)
        assert list(view.dump_lines()) == list(ref.dump_lines())
        assert view.num_edges == ref.num_edges
        assert view.kmax == ref.kmax
        assert view.phi == ref.phi
        assert (view.gen, view.wal_seq) == (3, 9)


def test_empty_view_matches():
    ref = DictReadView(-1, -1, {})
    for view in (EMPTY_VIEW, ReadView(0, 0, snap.state_rows({}, {}))):
        assert list(view.dump_lines()) == []
        assert (view.num_edges, view.kmax) == (0, ref.kmax)
        assert view.phi == {}
        for v in (0, 1, *FAR_IDS):
            assert view.lookup(v, 1) is None
            assert not view.has_vertex(v)
            assert view.max_k_of_vertex(v) is None
            assert view.community(v, 2) is None


def test_community_returns_python_ints():
    # the HTTP layer serializes the answer with json
    view, _ = _views({(0, 1): 3, (0, 2): 3, (1, 2): 3, (2, 9): 2})
    doc = view.community(0, 2)
    assert doc["edges"] == [[0, 1, 3], [0, 2, 3], [1, 2, 3], [2, 9, 2]]
    flat = [x for edge in doc["edges"] for x in edge]
    flat += [doc["num_vertices"], doc["num_edges"]]
    assert all(type(x) is int for x in flat)
