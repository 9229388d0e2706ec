"""Write-ahead log: framing, torn tails, crash injection."""

import struct
import zlib

import pytest

from repro.errors import RecoveryError, StorageError
from repro.storage import (
    CRASH_POINTS,
    Faults,
    InjectedCrash,
    PageId,
    PageImage,
    ReplayResult,
    WriteAheadLog,
    page_crc,
    replay_wal,
    wal_path,
)
from repro.storage.wal import (
    WAL_CHECKPOINT,
    WAL_PAGE,
    WAL_QUERY,
    encode_record,
)


class TestRecordRoundTrip:
    def test_all_kinds_replay(self, tmp_path):
        path = wal_path(str(tmp_path))
        with WriteAheadLog(path) as wal:
            wal.log_page(PageId(3, 7))
            wal.log_checkpoint("chk-00000001.ckpt")
            wal.log_unit('{"key": "q"}')
        replay = replay_wal(path)
        assert not replay.torn_tail
        kinds = [r.kind for r in replay.records]
        assert kinds == [WAL_PAGE, WAL_CHECKPOINT, WAL_QUERY]
        assert replay.records[0].page_id() == PageId(3, 7)
        assert replay.records[1].text() == "chk-00000001.ckpt"
        assert replay.records[2].text() == '{"key": "q"}'

    def test_lsns_are_byte_offsets(self, tmp_path):
        path = wal_path(str(tmp_path))
        with WriteAheadLog(path) as wal:
            first = wal.log_page(PageId(1, 0))
            second = wal.log_page(PageId(1, 1))
        assert first == 0
        assert second > first
        replay = replay_wal(path)
        assert [r.lsn for r in replay.records] == [first, second]
        assert replay.valid_bytes == second + (second - first)

    def test_append_resumes_at_end(self, tmp_path):
        path = wal_path(str(tmp_path))
        with WriteAheadLog(path) as wal:
            wal.log_page(PageId(1, 0))
            end = wal.position
        with WriteAheadLog(path) as wal:
            assert wal.position == end
            wal.log_page(PageId(1, 1))
        assert len(replay_wal(path).records) == 2

    def test_retired_step_kind_is_a_torn_tail(self, tmp_path):
        # Kind 4 held workload-step records.  It is retired, not
        # reused: it cannot be written, and a log holding one replays
        # up to it.
        with pytest.raises(StorageError, match="unknown WAL record kind 4"):
            encode_record(4, b'{"key": "s"}')
        path = wal_path(str(tmp_path))
        with WriteAheadLog(path) as wal:
            wal.log_unit('{"key": "q"}')
            tear_at = wal.position
        step = struct.Struct("<BBII").pack(0xA5, 4, 2, zlib.crc32(b"{}"))
        with open(path, "ab") as fh:
            fh.write(step + b"{}")
        with WriteAheadLog(path) as wal:
            wal.log_unit('{"key": "r"}')
        replay = replay_wal(path)
        assert replay.torn_tail
        assert [r.text() for r in replay.records] == ['{"key": "q"}']
        assert replay.valid_bytes == tear_at


class TestDegenerateLogs:
    def test_missing_file_is_empty_replay(self, tmp_path):
        replay = replay_wal(wal_path(str(tmp_path)))
        assert replay == ReplayResult((), 0, False)

    def test_empty_file_is_empty_replay(self, tmp_path):
        path = wal_path(str(tmp_path))
        open(path, "wb").close()
        replay = replay_wal(path)
        assert replay.records == ()
        assert not replay.torn_tail


class TestTornTails:
    def _two_record_log(self, tmp_path):
        path = wal_path(str(tmp_path))
        with WriteAheadLog(path) as wal:
            wal.log_page(PageId(1, 0))
            tear_at = wal.position
            wal.log_unit('{"key": "q"}')
        return path, tear_at

    def test_truncated_tail_is_discarded_not_fatal(self, tmp_path):
        path, tear_at = self._two_record_log(tmp_path)
        with open(path, "r+b") as fh:
            fh.truncate(tear_at + 3)  # mid-header of the second record
        replay = replay_wal(path)
        assert replay.torn_tail
        assert len(replay.records) == 1
        assert replay.valid_bytes == tear_at

    def test_corrupted_payload_crc_tears(self, tmp_path):
        path, tear_at = self._two_record_log(tmp_path)
        with open(path, "r+b") as fh:
            fh.seek(tear_at + 12)  # inside the second record's payload
            fh.write(b"\xff")
        replay = replay_wal(path)
        assert replay.torn_tail
        assert len(replay.records) == 1

    def test_bad_magic_tears(self, tmp_path):
        path, tear_at = self._two_record_log(tmp_path)
        with open(path, "r+b") as fh:
            fh.seek(tear_at)
            fh.write(b"\x00")
        replay = replay_wal(path)
        assert replay.torn_tail
        assert len(replay.records) == 1


class TestCrashDuringAppend:
    def test_crash_at_wal_append_leaves_torn_record(self, tmp_path):
        path = wal_path(str(tmp_path))
        wal = WriteAheadLog(
            path, faults=Faults().target("wal.append", "crash")
        )
        with pytest.raises(InjectedCrash):
            wal.log_page(PageId(1, 0))
        replay = replay_wal(path)
        assert replay.records == ()
        assert replay.torn_tail  # half a record made it to disk

    def test_crash_at_wal_flush_record_is_durable(self, tmp_path):
        path = wal_path(str(tmp_path))
        wal = WriteAheadLog(
            path, faults=Faults().target("wal.flush", "crash")
        )
        with pytest.raises(InjectedCrash):
            wal.log_page(PageId(1, 0))
        replay = replay_wal(path)
        assert len(replay.records) == 1
        assert not replay.torn_tail


class TestCrashInjector:
    def test_unknown_point_rejected(self):
        with pytest.raises(StorageError):
            Faults().target("warp.core", "crash")

    def test_negative_after_rejected(self):
        with pytest.raises(StorageError):
            Faults().target("wal.flush", "crash", after=-1)

    def test_fires_once_then_disarms(self):
        faults = Faults().target("batch.query", "crash")
        with pytest.raises(InjectedCrash):
            faults.reach("batch.query")
        assert faults.counts[("batch.query", "crash")] == 1
        faults.reach("batch.query")  # no second crash

    def test_after_skips_earlier_hits(self):
        faults = Faults().target("batch.query", "crash", after=2)
        faults.reach("batch.query")
        faults.reach("batch.query")
        assert not faults.counts
        with pytest.raises(InjectedCrash, match="occurrence 3"):
            faults.reach("batch.query")

    def test_seeded_is_deterministic_and_valid(self):
        for seed in range(20):
            a = Faults(seed).target_seeded(CRASH_POINTS, "crash")
            b = Faults(seed).target_seeded(CRASH_POINTS, "crash")
            armed = [p for p in CRASH_POINTS if a.armed(p)]
            assert armed == [p for p in CRASH_POINTS if b.armed(p)]
            assert len(armed) == 1


class TestPageImages:
    def test_round_trip(self):
        image = PageImage(PageId(5, 2), b"hello world")
        rebuilt, offset = PageImage.decode(image.encode())
        assert rebuilt == image
        assert offset == len(image.encode())

    def test_crc_matches_payload(self):
        image = PageImage(PageId(1, 1), b"abc")
        assert page_crc(b"abc") == struct.unpack_from(
            "<qqII", image.encode()
        )[3]

    def test_torn_header_raises(self):
        with pytest.raises(RecoveryError):
            PageImage.decode(b"\x01\x02\x03")

    def test_torn_payload_raises(self):
        buf = PageImage(PageId(1, 1), b"abcdef").encode()
        with pytest.raises(RecoveryError):
            PageImage.decode(buf[:-2])

    def test_corrupt_payload_raises_checksum_mismatch(self):
        buf = bytearray(PageImage(PageId(1, 1), b"abcdef").encode())
        buf[-1] ^= 0xFF
        with pytest.raises(RecoveryError, match="checksum mismatch"):
            PageImage.decode(bytes(buf))
