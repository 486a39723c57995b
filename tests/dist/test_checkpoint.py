"""Unit tests for the wave-checkpoint store.

The recovery protocol's whole correctness rests on two properties
pinned here: a torn or corrupted snapshot is *never* restorable (the
manifest is written last, atomically, and every array is checksummed
on load), and :func:`latest_common_epoch` only ever names a barrier
at which every rank holds a complete, valid snapshot.
"""

import json
import os
import shutil
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from repro.dist.checkpoint import (  # noqa: E402  (needs numpy first)
    KEEP_EPOCHS,
    MANIFEST,
    CheckpointError,
    latest_common_epoch,
    load_rank_checkpoint,
    manifest_valid,
    prune_rank_checkpoints,
    rank_epochs,
    write_rank_checkpoint,
)


def _state(seed: int):
    rng = np.random.default_rng(seed)
    arrays = {
        "sup": rng.integers(0, 50, size=17, dtype=np.int64),
        "alive": rng.integers(0, 2, size=17).astype(bool),
        "phi": rng.integers(2, 9, size=17, dtype=np.int64),
        "hist": rng.integers(0, 5, size=8, dtype=np.int64),
        "owned_dead": rng.integers(0, 2, size=31).astype(bool),
    }
    scalars = {
        "floor": 1,
        "k": 4,
        "remaining": 11,
        "waves": 6 + seed,
        "levels": 3,
        "max_wave": 5,
        "exchange_rounds": 19,
    }
    return arrays, scalars


class TestRoundTrip:
    def test_arrays_and_scalars_survive(self, tmp_path):
        arrays, scalars = _state(0)
        write_rank_checkpoint(tmp_path, 3, 1, arrays, scalars)
        got_arrays, got_scalars = load_rank_checkpoint(tmp_path, 3, 1)
        assert got_scalars == scalars
        assert set(got_arrays) == set(arrays)
        for name in arrays:
            assert got_arrays[name].dtype == arrays[name].dtype
            assert np.array_equal(got_arrays[name], arrays[name])

    def test_loaded_arrays_are_writable_copies(self, tmp_path):
        arrays, scalars = _state(1)
        write_rank_checkpoint(tmp_path, 0, 0, arrays, scalars)
        got, _ = load_rank_checkpoint(tmp_path, 0, 0)
        got["sup"][0] = 12345  # a resumed rank mutates its state
        reloaded, _ = load_rank_checkpoint(tmp_path, 0, 0)
        assert reloaded["sup"][0] == arrays["sup"][0]

    def test_missing_epoch_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="manifest"):
            load_rank_checkpoint(tmp_path, 7, 0)


class TestTornWrites:
    """A snapshot without a clean manifest does not exist."""

    def test_missing_manifest_is_invalid(self, tmp_path):
        arrays, scalars = _state(2)
        write_rank_checkpoint(tmp_path, 1, 0, arrays, scalars)
        mpath = tmp_path / "epoch_00000001" / "rank_0" / MANIFEST
        mpath.unlink()
        assert not manifest_valid(tmp_path, 1, 0)

    def test_truncated_manifest_is_invalid(self, tmp_path):
        arrays, scalars = _state(3)
        write_rank_checkpoint(tmp_path, 1, 0, arrays, scalars)
        mpath = tmp_path / "epoch_00000001" / "rank_0" / MANIFEST
        mpath.write_text(mpath.read_text()[: -10])
        assert not manifest_valid(tmp_path, 1, 0)

    def test_corrupted_array_fails_checksum(self, tmp_path):
        arrays, scalars = _state(4)
        write_rank_checkpoint(tmp_path, 2, 1, arrays, scalars)
        sup = tmp_path / "epoch_00000002" / "rank_1" / "sup.npy"
        raw = bytearray(sup.read_bytes())
        raw[-1] ^= 0xFF  # flip one payload byte, sizes stay right
        sup.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum"):
            load_rank_checkpoint(tmp_path, 2, 1)
        assert not manifest_valid(tmp_path, 2, 1)

    def test_missing_array_file_is_invalid(self, tmp_path):
        arrays, scalars = _state(5)
        write_rank_checkpoint(tmp_path, 2, 0, arrays, scalars)
        (tmp_path / "epoch_00000002" / "rank_0" / "phi.npy").unlink()
        assert not manifest_valid(tmp_path, 2, 0)

    def test_epoch_mismatch_in_manifest_is_invalid(self, tmp_path):
        """A manifest copied/renamed across epochs must not validate."""
        arrays, scalars = _state(6)
        write_rank_checkpoint(tmp_path, 1, 0, arrays, scalars)
        mpath = tmp_path / "epoch_00000001" / "rank_0" / MANIFEST
        doc = json.loads(mpath.read_text())
        doc["epoch"] = 9
        mpath.write_text(json.dumps(doc))
        assert not manifest_valid(tmp_path, 1, 0)

    @pytest.mark.parametrize("reshape", [
        lambda doc: [1, 2],
        lambda doc: 7,
        lambda doc: "x",
        lambda doc: {**doc, "payloads": list(doc["payloads"])},
    ], ids=["list", "int", "str", "arrays-list"])
    def test_wrong_shaped_manifest_is_invalid(self, tmp_path, reshape):
        for epoch in (1, 2):
            arrays, scalars = _state(epoch)
            write_rank_checkpoint(tmp_path, epoch, 0, arrays, scalars)
        mpath = tmp_path / "epoch_00000002" / "rank_0" / MANIFEST
        mpath.write_text(json.dumps(reshape(json.loads(mpath.read_text()))))
        assert not manifest_valid(tmp_path, 2, 0)
        with pytest.raises(CheckpointError):
            load_rank_checkpoint(tmp_path, 2, 0)
        assert latest_common_epoch(tmp_path, 1) == 1

    def test_no_tmp_manifest_left_behind(self, tmp_path):
        arrays, scalars = _state(7)
        write_rank_checkpoint(tmp_path, 1, 0, arrays, scalars)
        leftovers = list(tmp_path.rglob("*.tmp"))
        assert leftovers == []


class TestCommonEpoch:
    def test_picks_newest_complete_barrier(self, tmp_path):
        for rank in (0, 1):
            for epoch in (1, 2):
                arrays, scalars = _state(epoch)
                write_rank_checkpoint(tmp_path, epoch, rank, arrays, scalars)
        # rank 1 crashed mid-snapshot of epoch 3; rank 0 completed it
        arrays, scalars = _state(3)
        write_rank_checkpoint(tmp_path, 3, 0, arrays, scalars)
        assert latest_common_epoch(tmp_path, 2) == 2

    def test_torn_newest_epoch_falls_back(self, tmp_path):
        for rank in (0, 1):
            for epoch in (4, 5):
                arrays, scalars = _state(epoch)
                write_rank_checkpoint(tmp_path, epoch, rank, arrays, scalars)
        mpath = tmp_path / "epoch_00000005" / "rank_1" / MANIFEST
        mpath.write_text("{not json")
        assert latest_common_epoch(tmp_path, 2) == 4

    def test_no_common_epoch_is_none(self, tmp_path):
        arrays, scalars = _state(8)
        write_rank_checkpoint(tmp_path, 1, 0, arrays, scalars)
        # rank 1 never checkpointed at all
        assert latest_common_epoch(tmp_path, 2) is None

    def test_empty_root_is_none(self, tmp_path):
        assert latest_common_epoch(tmp_path, 4) is None
        assert latest_common_epoch(tmp_path / "absent", 2) is None


class TestPruning:
    def test_writer_keeps_two_newest_epochs(self, tmp_path):
        for epoch in range(1, 6):
            arrays, scalars = _state(epoch)
            write_rank_checkpoint(tmp_path, epoch, 0, arrays, scalars)
        assert rank_epochs(tmp_path, 0) == [4, 5]
        assert KEEP_EPOCHS == 2

    def test_prune_spares_other_ranks(self, tmp_path):
        for epoch in (1, 2, 3):
            for rank in (0, 1):
                arrays, scalars = _state(epoch)
                write_rank_checkpoint(tmp_path, epoch, rank, arrays, scalars)
        prune_rank_checkpoints(tmp_path, 0, keep=1)
        assert rank_epochs(tmp_path, 0) == [3]
        assert rank_epochs(tmp_path, 1) == [2, 3]


class TestPublishDurability:
    """The checkpoint's fsync order, pinned like the snapshot's."""

    def test_payloads_and_dirs_durable_before_rename_before_prune(
        self, tmp_path, monkeypatch
    ):
        for epoch in (1, 2):
            write_rank_checkpoint(tmp_path, epoch, 0, *_state(epoch))
        calls = []
        fds = {}
        real_open, real_fsync = os.open, os.fsync

        def opened(path, *args, **kwargs):
            fd = real_open(path, *args, **kwargs)
            fds[fd] = Path(path)
            return fd

        def fsynced(fd):
            calls.append(("fsync", fds[fd]))  # files and directories
            return real_fsync(fd)

        def record(name, real, arg=0):
            def wrapped(*args, **kwargs):
                calls.append((name, Path(args[arg])))
                return real(*args, **kwargs)
            return wrapped

        arrays, scalars = _state(3)
        monkeypatch.setattr(os, "open", opened)
        monkeypatch.setattr(os, "fsync", fsynced)
        monkeypatch.setattr(os, "replace", record("rename", os.replace, 1))
        monkeypatch.setattr(shutil, "rmtree", record("prune", shutil.rmtree))
        # epoch 3: prunes this rank's epoch 1
        write_rank_checkpoint(tmp_path, 3, 0, arrays, scalars)
        monkeypatch.undo()
        epoch_dir = tmp_path / "epoch_00000003"
        entry = epoch_dir / "rank_0"
        rename = calls.index(("rename", entry / MANIFEST))
        prunes = [i for i, (name, _) in enumerate(calls) if name == "prune"]
        assert [calls[i][1] for i in prunes] == [
            tmp_path / "epoch_00000001" / "rank_0"
        ]
        synced = {path for name, path in calls[:rename] if name == "fsync"}
        # every payload, the manifest, and the directories that gained
        # the new epoch and rank entries
        assert {entry / f"{name}.npy" for name in arrays} <= synced
        assert {entry / (MANIFEST + ".tmp"), tmp_path, epoch_dir} <= synced
        assert rename < calls.index(("fsync", entry)) < prunes[0]
