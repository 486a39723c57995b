"""Snapshot generations: atomicity, tears, pruning, maintainer round-trips."""

from __future__ import annotations

import json

import pytest

from repro.core import truss_decomposition
from repro.graph import Graph, complete_graph, write_edge_list
from repro.serve import snapshot as snap
from repro.serve.chaos import tear_snapshot
from repro.stream import TrussMaintainer

PHI = {(0, 1): 3, (0, 2): 3, (1, 2): 4}
SUP = {(0, 1): 1, (0, 2): 1, (1, 2): 2}


class TestGenerations:
    def test_write_load_roundtrip(self, tmp_path):
        snap.write_generation(tmp_path, 0, PHI, SUP, wal_seq=7)
        phi, sup, wal_seq = snap.load_generation(tmp_path, 0)
        assert (phi, sup, wal_seq) == (PHI, SUP, 7)

    def test_want_sup_false(self, tmp_path):
        snap.write_generation(tmp_path, 0, PHI, SUP, wal_seq=0)
        phi, sup, _ = snap.load_generation(tmp_path, 0, want_sup=False)
        assert phi == PHI and sup is None

    def test_mismatched_keysets_refused(self, tmp_path):
        with pytest.raises(snap.SnapshotError):
            snap.write_generation(tmp_path, 0, PHI, {(0, 1): 1}, wal_seq=0)

    def test_empty_state_roundtrips(self, tmp_path):
        snap.write_generation(tmp_path, 3, {}, {}, wal_seq=2)
        phi, sup, wal_seq = snap.load_generation(tmp_path, 3)
        assert (phi, sup, wal_seq) == ({}, {}, 2)

    @pytest.mark.parametrize("mode", ["truncate", "flip", "manifest"])
    def test_torn_generation_never_validates(self, tmp_path, mode):
        snap.write_generation(tmp_path, 0, PHI, SUP, wal_seq=0)
        tear_snapshot(tmp_path, mode=mode)
        assert not snap.generation_valid(tmp_path, 0)
        with pytest.raises(snap.SnapshotError):
            snap.load_generation(tmp_path, 0)

    @pytest.mark.parametrize("shape", [[1, 2], 7, "x"],
                             ids=["list", "int", "str"])
    def test_wrong_shaped_manifest_never_validates(self, tmp_path, shape):
        snap.write_generation(tmp_path, 0, PHI, SUP, wal_seq=1)
        snap.write_generation(tmp_path, 1, PHI, SUP, wal_seq=5)
        man = tmp_path / "gen_00000001" / snap.MANIFEST
        man.write_text(json.dumps(shape))
        assert not snap.generation_valid(tmp_path, 1)
        with pytest.raises(snap.SnapshotError):
            snap.load_generation(tmp_path, 1)
        assert snap.latest_valid_generation(tmp_path) == 0

    def test_latest_valid_skips_torn_newest(self, tmp_path):
        snap.write_generation(tmp_path, 0, PHI, SUP, wal_seq=1)
        snap.write_generation(tmp_path, 1, PHI, SUP, wal_seq=5)
        tear_snapshot(tmp_path, gen=1, mode="truncate")
        assert snap.latest_valid_generation(tmp_path) == 0

    def test_prune_keeps_newest_two_valid(self, tmp_path):
        for gen in range(4):
            snap.write_generation(tmp_path, gen, PHI, SUP, wal_seq=gen)
        snap.prune_generations(tmp_path)
        assert snap.generations(tmp_path) == [2, 3]
        # the WAL may be pruned only to the *oldest retained* gen
        assert snap.oldest_retained_wal_seq(tmp_path) == 2

    def test_prune_spares_torn_newer_than_cutoff(self, tmp_path):
        for gen in range(3):
            snap.write_generation(tmp_path, gen, PHI, SUP, wal_seq=gen)
        tear_snapshot(tmp_path, gen=2, mode="truncate")
        snap.prune_generations(tmp_path)
        # valid gens are 0,1 -> both kept; the torn 2 is newer than the
        # cutoff and left alone
        assert snap.generations(tmp_path) == [0, 1, 2]

    def test_manifest_gen_mismatch_detected(self, tmp_path):
        snap.write_generation(tmp_path, 0, PHI, SUP, wal_seq=0)
        man = tmp_path / "gen_00000000" / snap.MANIFEST
        doc = json.loads(man.read_text())
        doc["gen"] = 9
        man.write_text(json.dumps(doc))
        assert not snap.generation_valid(tmp_path, 0)


class TestHead:
    def test_roundtrip(self, tmp_path):
        snap.write_head(tmp_path, 4, 17, 19)
        assert snap.read_head(tmp_path) == {
            "gen": 4, "wal_seq": 17, "applied_seq": 19,
        }

    def test_absent_or_garbage_is_none(self, tmp_path):
        assert snap.read_head(tmp_path) is None
        (tmp_path / snap.HEAD).write_text("{not json")
        assert snap.read_head(tmp_path) is None
        (tmp_path / snap.HEAD).write_text('{"gen": "x"}')
        assert snap.read_head(tmp_path) is None

    @pytest.mark.parametrize("shape", [[1, 2], 7, "x"],
                             ids=["list", "int", "str"])
    def test_wrong_shaped_head_is_none(self, tmp_path, shape):
        (tmp_path / snap.HEAD).write_text(json.dumps(shape))
        assert snap.read_head(tmp_path) is None


def _flat_phi(edges):
    return dict(
        truss_decomposition(Graph(sorted(edges)), method="flat",
                            kernel="python").trussness
    )


class TestMaintainerRoundTrip:
    """Snapshot -> ``from_state`` -> further updates stays bit-identical."""

    def _seed(self, tmp_path):
        g = complete_graph(5)
        g.add_edge(0, 10)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        return g, TrussMaintainer.from_graph(g, kernel="python")

    def test_reload_then_update_matches_fresh(self, tmp_path):
        _, tm = self._seed(tmp_path)
        tm.apply_batch([("insert", 1, 10), ("insert", 2, 10)])
        snap.write_generation(
            tmp_path, 0, dict(tm.trussness), dict(tm.supports), wal_seq=2
        )
        phi, sup, _ = snap.load_generation(tmp_path, 0)
        reloaded = TrussMaintainer.from_state(phi, sup, kernel="python")
        later = [("insert", 3, 10), ("delete", 0, 1), ("insert", 0, 11)]
        tm.apply_batch(later)
        reloaded.apply_batch(later)
        assert dict(reloaded.trussness) == dict(tm.trussness)
        assert dict(reloaded.supports) == dict(tm.supports)

    def test_eid_shifting_insert_after_reload(self, tmp_path):
        """An insert that lands mid-sort-order (shifting every packed
        row behind it) must not disturb the reloaded state."""
        _, tm = self._seed(tmp_path)
        snap.write_generation(
            tmp_path, 0, dict(tm.trussness), dict(tm.supports), wal_seq=0
        )
        phi, sup, _ = snap.load_generation(tmp_path, 0)
        reloaded = TrussMaintainer.from_state(phi, sup, kernel="python")
        # (1, 2) already exists; (1, 10) sorts between (1, 4) and (2, 3)
        reloaded.apply_batch([("insert", 1, 10), ("insert", 2, 10)])
        edges = set(phi) | {(1, 10), (2, 10)}
        assert dict(reloaded.trussness) == _flat_phi(edges)

    def test_from_state_validates_keys(self):
        with pytest.raises(Exception):
            TrussMaintainer.from_state({(1, 0): 2}, {(1, 0): 0})  # u > v
        with pytest.raises(Exception):
            TrussMaintainer.from_state({(0, 1): 2}, {})  # keyset mismatch
