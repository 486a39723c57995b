"""Crash-point enumeration over the durable store.

In the spirit of ALICE (Pillai et al., OSDI 2014): record every call
one publish makes that can change the disk, then replay the publish
once per call with that call crashing, and once more for every write
with the file left cut to half its length.  After each crash, recovery
must find exactly the state before the publish (crash at or before the
manifest rename) or the state after it (any later crash), and a retry
of the same publish must land the new state over whatever the crash
left behind.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

import pytest

from repro import durable
from repro.serve import snapshot as snap


class Crash(Exception):
    """The simulated crash; not an ``OSError``, which the store may
    legitimately swallow."""


#: the ``os``/``shutil`` calls through which the store changes the disk
_MUTATING = {"mkdir", "open", "write", "fsync", "replace", "rmdir", "rmtree"}


class CrashingFS:
    """Stands in for the store's ``os`` and ``shutil`` modules.

    Records ``(call, path)`` for every mutating call.  The
    ``crash_at``-th one raises :class:`Crash` instead of running; with
    ``torn`` a crashing write first writes half its bytes.
    """

    def __init__(self, crash_at=None, torn=False):
        self.calls = []
        self.crash_at = crash_at
        self.torn = torn
        self._fds = {}

    def __getattr__(self, name):
        real = getattr(os if hasattr(os, name) else shutil, name)
        if name not in _MUTATING:
            return real

        def call(*args, **kwargs):
            if name in ("write", "fsync"):
                path = self._fds[args[0]]
            else:
                path = Path(args[1] if name == "replace" else args[0])
            self.calls.append((name, path))
            if len(self.calls) - 1 == self.crash_at:
                if self.torn and name == "write":
                    os.write(args[0], args[1][: len(args[1]) // 2])
                raise Crash(f"{name} {path}")
            result = real(*args, **kwargs)
            if name == "open":
                self._fds[result] = path
            return result

        return call


def _enumerate(tmp_path, monkeypatch, setup, publish, recover, entry):
    """Crash ``publish`` at every recorded call; returns the calls.
    ``entry(root)`` is the directory the publish creates."""

    def run(root, fs):
        with monkeypatch.context() as m:
            m.setattr(durable, "os", fs)
            m.setattr(durable, "shutil", fs)
            publish(root)

    probe = tmp_path / "probe"
    setup(probe)
    before = recover(probe)
    recorder = CrashingFS()
    run(probe, recorder)
    after = recover(probe)
    assert before != after
    rename = recorder.calls.index(
        ("replace", entry(probe) / durable.MANIFEST)
    )
    for k, (name, _) in enumerate(recorder.calls):
        for torn in (False, True) if name == "write" else (False,):
            root = tmp_path / f"crash_{k}{'_torn' if torn else ''}"
            setup(root)
            with pytest.raises(Crash):
                run(root, CrashingFS(crash_at=k, torn=torn))
            where = f"crash at call {k} {recorder.calls[k]} torn={torn}"
            assert recover(root) == (after if k > rename else before), where
            publish(root)
            assert recover(root) == after, f"retry after {where}"
    return recorder.calls


# ---------------------------------------------------------------- serve
def _serve_state(i):
    edges = [(0, 1), (0, 2), (1, 2), (2, 3 + i)]
    phi = {e: 2 + (n + i) % 3 for n, e in enumerate(edges)}
    sup = {e: (n * i) % 2 for n, e in enumerate(edges)}
    return phi, sup


@pytest.mark.skipif(snap._np is None, reason="repro serve needs numpy")
def test_serve_publish_crash_points(tmp_path, monkeypatch):
    def setup(root):
        for gen in (0, 1):
            snap.write_generation(root, gen, *_serve_state(gen), wal_seq=gen)
        snap.write_head(root, 1, 1, 1)

    def publish(root):
        # the store calls of TrussService._publish_locked
        snap.write_generation(root, 2, *_serve_state(2), wal_seq=2)
        snap.write_head(root, 2, 2, 2)
        snap.prune_generations(root)

    def recover(root):
        return snap.load_generation(root, snap.latest_valid_generation(root))

    calls = _enumerate(
        tmp_path, monkeypatch, setup, publish, recover,
        lambda root: root / "gen_00000002",
    )
    assert ("rmtree", tmp_path / "probe" / "gen_00000000") in calls


# ----------------------------------------------------------- checkpoint
def _ckpt_state(np, epoch):
    rng = np.random.default_rng(epoch)
    arrays = {
        "sup": rng.integers(0, 9, size=6, dtype=np.int64),
        "alive": rng.integers(0, 2, size=6).astype(bool),
        "owned_dead": rng.integers(0, 2, size=5).astype(bool),
    }
    return arrays, {"floor": epoch, "levels": epoch, "waves": 2 * epoch}


def test_checkpoint_crash_points(tmp_path, monkeypatch):
    np = pytest.importorskip("numpy")
    from repro.dist.checkpoint import (
        latest_common_epoch,
        load_rank_checkpoint,
        write_rank_checkpoint,
    )

    def setup(root):
        for epoch in (1, 2, 3):
            write_rank_checkpoint(root, epoch, 1, *_ckpt_state(np, epoch))
        for epoch in (1, 2):
            write_rank_checkpoint(root, epoch, 0, *_ckpt_state(np, epoch))

    def publish(root):
        write_rank_checkpoint(root, 3, 0, *_ckpt_state(np, 3))

    def recover(root):
        epoch = latest_common_epoch(root, 2)
        arrays, scalars = load_rank_checkpoint(root, epoch, 0)
        return epoch, scalars, {
            name: (arr.dtype.str, arr.tolist())
            for name, arr in arrays.items()
        }

    calls = _enumerate(
        tmp_path, monkeypatch, setup, publish, recover,
        lambda root: root / "epoch_00000003" / "rank_0",
    )
    # the prune dropped rank 0's epoch 1 and then the emptied epoch dir
    probe = tmp_path / "probe"
    assert ("rmtree", probe / "epoch_00000001" / "rank_0") in calls
    assert ("rmdir", probe / "epoch_00000001") in calls
