"""``apply_batch(U)`` is bit-identical to replaying ``U`` one by one.

This pins the repair-once optimization against the simple path: the
batched traversal runs with a relaxed (slack) chain rule over the
final adjacency, and any unsoundness there would show up here as a
divergence from the sequentially-maintained twin.
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


def _final_mirror(g, updates):
    mirror = g.copy()
    for op, u, v in updates:
        if u == v:
            continue
        if op == "insert":
            mirror.add_edge(u, v)
        else:
            mirror.discard_edge(u, v)
    return mirror


@settings(deadline=None)
@given(update_streams(max_updates=12))
@with_compact_streams
def test_batch_equals_sequential(stream):
    g, updates = stream
    seq = TrussMaintainer.from_graph(g)
    applied_seq = 0
    for op, u, v in updates:
        applied_seq += int(
            seq.insert_edge(u, v) if op == "insert" else seq.delete_edge(u, v)
        )
    bat = TrussMaintainer.from_graph(g)
    applied_bat = bat.apply_batch(updates)
    assert applied_bat == applied_seq
    assert dict(bat.trussness) == dict(seq.trussness)
    # and both match ground truth on the final graph
    mirror = _final_mirror(g, updates)
    assert dict(bat.trussness) == brute_trussness(mirror)
    assert bat.as_decomposition() == truss_decomposition(mirror, method="flat")
    assert_state_rows(bat, mirror)


@settings(deadline=None, max_examples=30)
@given(update_streams(max_updates=12))
def test_batch_chunking_is_associative(stream):
    """Splitting one batch into two consecutive batches changes nothing."""
    g, updates = stream
    whole = TrussMaintainer.from_graph(g)
    whole.apply_batch(updates)
    halved = TrussMaintainer.from_graph(g)
    mid = len(updates) // 2
    halved.apply_batch(updates[:mid])
    halved.apply_batch(updates[mid:])
    assert dict(whole.trussness) == dict(halved.trussness)
