"""Prefix parity: the maintainer never drifts from a fresh peel.

The one property that makes an incremental algorithm trustworthy:
after *every prefix* of a generated update stream, the maintained
trussness map is bit-identical to the brute-force oracle and to a
from-scratch ``method="flat"`` decomposition of the mutated mirror.
An incremental algorithm that silently drifts is worse than none.
"""

from __future__ import annotations

from hypothesis import given, settings

from helpers import (
    assert_state_rows,
    needs_numpy,
    update_streams,
    with_compact_streams,
)
from oracles import brute_trussness
from repro.core import truss_decomposition
from repro.stream import TrussMaintainer

#: the maintainer seeds from the flat engine
pytestmark = needs_numpy


def _mirror_apply(mirror, op, u, v):
    """Replay one update on the dict-of-set mirror; True if it changed."""
    if u == v:
        return False
    if op == "insert":
        return mirror.add_edge(u, v)
    return mirror.discard_edge(u, v)


@settings(deadline=None)
@given(update_streams())
@with_compact_streams
def test_prefix_parity_against_oracle_and_flat(stream):
    g, updates = stream
    tm = TrussMaintainer.from_graph(g)
    mirror = g.copy()
    assert dict(tm.trussness) == brute_trussness(mirror)
    for op, u, v in updates:
        changed = (
            tm.insert_edge(u, v) if op == "insert" else tm.delete_edge(u, v)
        )
        assert changed == _mirror_apply(mirror, op, u, v)
        want = brute_trussness(mirror)
        assert dict(tm.trussness) == want
        assert tm.as_decomposition() == truss_decomposition(
            mirror, method="flat"
        )
        # the affected set never leaks stale edges: it is a subset of
        # the current edge set, and phi covers exactly the edge set
        edges = set(want)
        assert set(tm.last_affected) <= edges
        assert set(tm.trussness) == edges
        assert_state_rows(tm, mirror)


@settings(deadline=None)
@given(update_streams())
def test_supports_stay_exact(stream):
    """The incrementally-maintained support map never drifts either.

    Support drift is the precursor of trussness drift — pinning it
    separately localizes failures to the mutation bookkeeping rather
    than the repair peel.
    """
    from oracles import brute_all_supports

    g, updates = stream
    tm = TrussMaintainer.from_graph(g)
    mirror = g.copy()
    for op, u, v in updates:
        tm.insert_edge(u, v) if op == "insert" else tm.delete_edge(u, v)
        _mirror_apply(mirror, op, u, v)
        assert dict(tm.supports) == brute_all_supports(mirror)
