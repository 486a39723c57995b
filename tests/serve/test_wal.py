"""The write-ahead log: durability, torn tails, segments, pruning."""

from __future__ import annotations

import os

import pytest

from repro.serve.wal import WalError, WriteAheadLog, _record_line

UPDATES = [("insert", 0, 1), ("insert", 1, 2), ("delete", 0, 1)]


class TestAppendReplay:
    def test_roundtrip(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            first, last = wal.append(UPDATES)
            assert (first, last) == (1, 3)
            assert wal.last_seq == 3
            assert wal.replay_updates() == UPDATES

    def test_seqs_are_global_and_contiguous(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(UPDATES[:1])
            first, last = wal.append(UPDATES[1:])
            assert (first, last) == (2, 3)
            assert [seq for seq, _ in wal.replay()] == [1, 2, 3]

    def test_empty_batch_is_a_noop(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            first, last = wal.append([])
            assert last == first - 1
            assert wal.replay_updates() == []

    def test_replay_after_seq(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(UPDATES)
            assert wal.replay_updates(after_seq=2) == UPDATES[2:]
            assert wal.replay_updates(after_seq=3) == []

    def test_reopen_resumes_the_chain(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(UPDATES)
        with WriteAheadLog(tmp_path) as wal:
            assert wal.torn_bytes == 0
            assert wal.next_seq == 4
            wal.append([("insert", 7, 8)])
            assert wal.replay_updates() == UPDATES + [("insert", 7, 8)]

    def test_failed_append_keeps_the_seq_chain(self, tmp_path):
        # an update the log cannot format writes nothing and uses no
        # seq, so the next record still follows the last durable one
        with WriteAheadLog(tmp_path) as wal:
            wal.append(UPDATES[:1])
            with pytest.raises(ValueError):
                wal.append([("insert", 5, 6), ("upsert", 7, 8)])
            assert wal.next_seq == 2
            assert wal.append([("insert", 10, 11)]) == (2, 2)
        with WriteAheadLog(tmp_path) as wal:
            assert wal.torn_bytes == 0
            assert wal.replay_updates() == [UPDATES[0], ("insert", 10, 11)]

    def test_closed_log_refuses_appends(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.close()
        assert wal.closed
        with pytest.raises(WalError):
            wal.append(UPDATES)
        wal.close()  # idempotent


def _segments(root):
    return sorted(p.name for p in root.glob("wal_*.log"))


class TestTornTails:
    def test_torn_tail_is_truncated_on_reopen(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(UPDATES)
            seg = tmp_path / _segments(tmp_path)[-1]
        with open(seg, "a") as fh:
            fh.write("4 + 9 9")  # no CRC, no newline: a torn append
        with WriteAheadLog(tmp_path) as wal:
            assert wal.torn_bytes > 0
            assert wal.next_seq == 4  # resumes right after the tear
            assert wal.replay_updates() == UPDATES

    def test_corrupt_crc_stops_replay(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(UPDATES)
            seg = tmp_path / _segments(tmp_path)[-1]
        lines = seg.read_text().splitlines(keepends=True)
        lines[1] = lines[1].replace(" 1 2 ", " 1 3 ", 1)  # payload flip
        seg.write_text("".join(lines))
        with WriteAheadLog(tmp_path) as wal:
            # replay ends at the corruption: only record 1 survives
            assert wal.replay_updates() == UPDATES[:1]

    def test_seq_gap_stops_replay(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(UPDATES[:1])
            seg = tmp_path / _segments(tmp_path)[-1]
        with open(seg, "a") as fh:
            fh.write(_record_line(5, "+ 9 9"))  # valid CRC, broken chain
        with WriteAheadLog(tmp_path) as wal:
            assert wal.replay_updates() == UPDATES[:1]

    def test_non_ascii_byte_is_a_torn_record(self, tmp_path):
        # records are bytes: a byte no writer produces fails the CRC
        # like any other corruption, never the decode
        with WriteAheadLog(tmp_path) as wal:
            wal.append([("insert", 1, 2), ("insert", 5, 6)])
            seg = tmp_path / _segments(tmp_path)[-1]
        data = seg.read_bytes()
        second = len(data.splitlines(keepends=True)[1])
        seg.write_bytes(data.replace(b"+ 5 6", b"+ \xb5 6"))
        with WriteAheadLog(tmp_path) as wal:
            assert wal.torn_bytes == second
            assert [seq for seq, _ in wal.replay()] == [1]
            assert wal.next_seq == 2

    def test_fully_torn_fresh_segment(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(UPDATES)
            wal.roll()
        seg = tmp_path / _segments(tmp_path)[-1]
        seg.write_text("garbage that never was a record")
        with WriteAheadLog(tmp_path) as wal:
            assert wal.torn_bytes > 0
            assert wal.next_seq == 4
            assert wal.replay_updates() == UPDATES


class TestSegments:
    def test_roll_starts_a_new_segment(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(UPDATES)
            wal.roll()
            wal.append([("insert", 4, 5)])
            assert _segments(tmp_path) == [
                "wal_0000000000000001.log", "wal_0000000000000004.log",
            ]
            assert wal.replay_updates() == UPDATES + [("insert", 4, 5)]

    def test_roll_when_empty_is_a_noop(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(UPDATES)
            wal.roll()
            wal.roll()
            assert len(_segments(tmp_path)) == 2

    def test_prune_never_touches_the_live_tail(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(UPDATES)
            assert wal.prune(upto_seq=10**9) == 0
            assert len(_segments(tmp_path)) == 1

    def test_prune_drops_only_fully_covered_segments(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(UPDATES)          # seqs 1..3
            wal.roll()
            wal.append([("insert", 4, 5)])  # seq 4
            wal.roll()
            wal.append([("insert", 5, 6)])  # seq 5
            assert wal.prune(upto_seq=3) == 1
            assert wal.replay_updates(after_seq=3) == [
                ("insert", 4, 5), ("insert", 5, 6),
            ]
            assert wal.prune(upto_seq=2) == 0  # nothing else is covered

    def test_fsync_off_still_correct(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            wal.append(UPDATES)
            assert wal.replay_updates() == UPDATES
