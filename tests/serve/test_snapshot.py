"""Snapshot generations: atomicity, tears, pruning, maintainer round-trips."""

from __future__ import annotations

import json
import random
import struct

import pytest

from repro import durable
from repro.core import truss_decomposition
from repro.datasets import erdos_renyi
from repro.graph import Graph, complete_graph, write_edge_list
from repro.serve import snapshot as snap
from repro.serve.chaos import tear_snapshot
from repro.serve.service import TrussService
from repro.stream import TrussMaintainer

needs_numpy = pytest.mark.skipif(
    snap._np is None, reason="repro serve needs numpy"
)

PHI = {(0, 1): 3, (0, 2): 3, (1, 2): 4}
SUP = {(0, 1): 1, (0, 2): 1, (1, 2): 2}


@needs_numpy
class TestGenerations:
    def test_write_load_roundtrip(self, tmp_path):
        snap.write_generation(tmp_path, 0, PHI, SUP, wal_seq=7)
        phi, sup, wal_seq = snap.load_generation(tmp_path, 0)
        assert (phi, sup, wal_seq) == (PHI, SUP, 7)

    def test_row_map_equality_is_dict_equality(self, tmp_path):
        snap.write_generation(tmp_path, 0, PHI, SUP, wal_seq=0)
        phi, sup, _ = snap.load_generation(tmp_path, 0)
        assert phi == PHI and PHI == phi and phi == dict(phi.items())
        assert phi == phi and phi != sup
        other = {(0, 1): 3, (0, 2): 3, (1, 3): 4}  # one key differs
        for unequal in ({**PHI, (0, 1): 4}, other, {}, {**PHI, (5, 6): 1}):
            assert phi != unequal and unequal != phi, unequal
        assert phi != list(PHI.items()) and phi != 3

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


def _packed(phi, sup):
    """A state payload as one ``struct.pack('<4q', ...)`` per edge in
    ``(u, v)`` order: the format's definition, row by row."""
    return b"".join(
        struct.pack("<4q", u, v, phi[(u, v)], sup[(u, v)])
        for u, v in sorted(phi)
    )


def _random_state(seed):
    """Random maps over one key set, each built in its own order, with
    ids spread to both int64 bounds."""
    rng = random.Random(seed)
    ids = [-(1 << 63), (1 << 63) - 1, 0, -1]
    ids += [rng.randrange(-(1 << 63), 1 << 63) for _ in range(30)]
    ids += list(range(40))
    edges = set()
    while len(edges) < 150:
        u, v = rng.sample(ids, 2)
        edges.add((min(u, v), max(u, v)))
    order = sorted(edges)
    rng.shuffle(order)
    phi = {e: rng.randint(2, 9) for e in order}
    rng.shuffle(order)
    sup = {e: rng.randint(0, 40) for e in order}
    return phi, sup


def _write_packed(root, gen, phi, sup, wal_seq):
    durable.publish(
        durable.entry_dir(root, "gen", gen),
        {snap.STATE: _packed(phi, sup)},
        {"gen": gen, "wal_seq": wal_seq},
    )


@needs_numpy
class TestPayloadBytes:
    """The generation bytes are the documented ``'<4q'`` rows."""

    @pytest.mark.parametrize("seed", range(4))
    def test_state_bin_is_packed_rows(self, tmp_path, seed):
        phi, sup = _random_state(seed)
        rows = snap.write_generation(tmp_path, 0, phi, sup, wal_seq=1)
        payload = (tmp_path / "gen_00000000" / snap.STATE).read_bytes()
        assert payload == _packed(phi, sup)
        assert rows.tobytes() == payload

    @pytest.mark.parametrize("seed", range(4))
    def test_packed_payload_loads_equal(self, tmp_path, seed):
        phi, sup = _random_state(seed)
        _write_packed(tmp_path, 0, phi, sup, wal_seq=6)
        got_phi, got_sup, wal_seq = snap.load_generation(tmp_path, 0)
        assert (got_phi, got_sup, wal_seq) == (phi, sup, 6)
        assert dict(got_phi.items()) == phi and list(got_phi) == sorted(phi)

    def test_packed_data_dir_recovers(self, tmp_path):
        """A data directory whose generation was packed row by row
        recovers, and later writes match a maintainer that never went
        through the disk."""
        g = erdos_renyi(30, 0.2, seed=3)
        tm = TrussMaintainer.from_graph(g)
        data = tmp_path / "data"
        _write_packed(data / "snapshots", 0, dict(tm.trussness),
                      dict(tm.supports), wal_seq=0)
        svc = TrussService(data, None)
        svc.open()
        try:
            assert svc.gen == 1  # recovery published the next one
            view, _ = svc.reader.current()
            assert view.phi == dict(tm.trussness)
            batch = [("insert", 0, 29), ("delete", *min(tm.trussness))]
            svc.apply_write(batch)
            tm.apply_batch(batch)
            assert dict(svc.maintainer.trussness) == dict(tm.trussness)
            assert dict(svc.maintainer.supports) == dict(tm.supports)
        finally:
            svc.close()
        phi, sup, _ = snap.load_generation(data / "snapshots", 2)
        assert (phi, sup) == (dict(tm.trussness), dict(tm.supports))


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
        truss_decomposition(Graph(sorted(edges)), method="flat").trussness
    )


class TestMaintainerRoundTrip:
    """Snapshot -> ``from_state`` -> further updates stays bit-identical."""

    def _seed(self, tmp_path):
        g = complete_graph(5)
        g.add_edge(0, 10)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        return g, TrussMaintainer.from_graph(g)

    @needs_numpy
    def test_reload_then_update_matches_fresh(self, tmp_path):
        _, tm = self._seed(tmp_path)
        tm.apply_batch([("insert", 1, 10), ("insert", 2, 10)])
        snap.write_generation(
            tmp_path, 0, dict(tm.trussness), dict(tm.supports), wal_seq=2
        )
        phi, sup, _ = snap.load_generation(tmp_path, 0)
        reloaded = TrussMaintainer.from_state(phi, sup)
        later = [("insert", 3, 10), ("delete", 0, 1), ("insert", 0, 11)]
        tm.apply_batch(later)
        reloaded.apply_batch(later)
        assert dict(reloaded.trussness) == dict(tm.trussness)
        assert dict(reloaded.supports) == dict(tm.supports)

    @needs_numpy
    def test_eid_shifting_insert_after_reload(self, tmp_path):
        """An insert that lands mid-sort-order (shifting every packed
        row behind it) must not disturb the reloaded state."""
        _, tm = self._seed(tmp_path)
        snap.write_generation(
            tmp_path, 0, dict(tm.trussness), dict(tm.supports), wal_seq=0
        )
        phi, sup, _ = snap.load_generation(tmp_path, 0)
        reloaded = TrussMaintainer.from_state(phi, sup)
        # (1, 2) already exists; (1, 10) sorts between (1, 4) and (2, 3)
        reloaded.apply_batch([("insert", 1, 10), ("insert", 2, 10)])
        edges = set(phi) | {(1, 10), (2, 10)}
        assert dict(reloaded.trussness) == _flat_phi(edges)

    def test_from_state_validates_keys(self):
        with pytest.raises(Exception):
            TrussMaintainer.from_state({(1, 0): 2}, {(1, 0): 0})  # u > v
        with pytest.raises(Exception):
            TrussMaintainer.from_state({(0, 1): 2}, {})  # keyset mismatch
