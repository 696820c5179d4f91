"""Unit tests for the streaming service layer: WAL, snapshots, batching,
backpressure, shedding, and the threaded apply loop.

Crash/recovery correctness is covered separately by
``tests/test_failure_injection.py`` (kill at every WAL offset) and
``tests/test_service_recovery.py`` (Hypothesis property).
"""

from __future__ import annotations

import pickle
import time

import pytest

from repro.graphgen.streams import EdgeBatch, bursty_stream
from repro.obs.metrics import get_metrics
from repro.service import (
    Backpressure,
    ServiceClosed,
    ServiceConfig,
    SnapshotStore,
    StreamService,
    WalCorruption,
    WriteAheadLog,
    read_wal,
    read_wal_dir,
)
from repro.service.wal import OP_EXPIRE, OP_INSERT, decode_record, encode_record
from repro.sliding_window import SWConnectivityEager


def make_sw(n=32, seed=9):
    return SWConnectivityEager(n, seed=seed)


class _Exploding:
    """A structure whose apply path always fails (not an injected crash)."""

    def batch_insert(self, edges):
        raise RuntimeError("boom")

    def batch_expire(self, delta):
        raise RuntimeError("boom")


# ----------------------------------------------------------------------
# WAL
# ----------------------------------------------------------------------


class TestWal:
    def test_encode_decode_roundtrip(self):
        ops = (
            (OP_INSERT, ((0, 1), (2, 3, 1.25))),
            (OP_EXPIRE, 7),
            (OP_INSERT, ((4, 5),)),
        )
        rec = decode_record(encode_record(3, ops))
        assert rec is not None
        assert rec.lsn == 3
        assert rec.ops == ops

    def test_append_and_reopen_resumes_lsn(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with WriteAheadLog(path) as wal:
            assert wal.append([(OP_INSERT, ((0, 1),))]) == 0
            assert wal.append([(OP_EXPIRE, 2)]) == 1
        with WriteAheadLog(path) as wal:
            assert wal.next_lsn == 2
            assert wal.append([(OP_EXPIRE, 1)]) == 2
        records, _ = read_wal(path)
        assert [r.lsn for r in records] == [0, 1, 2]
        assert records[1].ops == ((OP_EXPIRE, 2),)

    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with WriteAheadLog(path) as wal:
            wal.append([(OP_INSERT, ((0, 1),))])
            wal.append([(OP_INSERT, ((1, 2),))])
        # Simulate a crash mid-append: chop the last line in half.
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 12])
        records, good = read_wal(path)
        assert [r.lsn for r in records] == [0]
        with WriteAheadLog(path) as wal:  # open repairs the tail
            assert wal.next_lsn == 1
            assert path.stat().st_size == good
            wal.append([(OP_INSERT, ((1, 2),))])
        records, _ = read_wal(path)
        assert [r.lsn for r in records] == [0, 1]

    def test_tail_missing_newline_is_torn(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with WriteAheadLog(path) as wal:
            wal.append([(OP_INSERT, ((0, 1),))])
            wal.append([(OP_INSERT, ((1, 2),))])
        # Crash that persisted the final record's bytes but not its
        # trailing newline: the bytes decode cleanly, yet the record must
        # count as torn, or the next append would extend the same line.
        raw = path.read_bytes()
        assert raw.endswith(b"\n")
        path.write_bytes(raw[:-1])
        records, good = read_wal(path)
        assert [r.lsn for r in records] == [0]
        with WriteAheadLog(path) as wal:  # open truncates back to record 0
            assert wal.next_lsn == 1
            assert path.stat().st_size == good
            wal.append([(OP_INSERT, ((2, 3),))])
        records, _ = read_wal(path)  # the re-append round-trips cleanly
        assert [r.lsn for r in records] == [0, 1]
        assert records[1].ops == ((OP_INSERT, ((2, 3),)),)

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with WriteAheadLog(path) as wal:
            wal.append([(OP_INSERT, ((0, 1),))])
            wal.append([(OP_INSERT, ((1, 2),))])
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-8] + 'garbage"'  # damage a non-tail record
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(WalCorruption):
            read_wal(path)

    def test_empty_or_missing_log(self, tmp_path):
        assert read_wal(tmp_path / "nope.jsonl") == ([], 0)
        with WriteAheadLog(tmp_path / "wal.jsonl") as wal:
            assert wal.next_lsn == 0
            assert wal.records() == []


# ----------------------------------------------------------------------
# Snapshot store
# ----------------------------------------------------------------------


class TestSnapshotStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = SnapshotStore(tmp_path)
        sw = make_sw()
        sw.batch_insert([(0, 1), (1, 2)])
        store.save(sw, lsn=4)
        loaded = store.load_latest()
        assert loaded is not None
        lsn, restored = loaded
        assert lsn == 4
        assert restored.num_components == sw.num_components
        assert sorted(restored.forest_edges()) == sorted(sw.forest_edges())

    def test_prunes_to_retain(self, tmp_path):
        store = SnapshotStore(tmp_path, retain=2)
        for lsn in (1, 3, 5, 7):
            store.save({"lsn": lsn}, lsn=lsn)
        assert store.lsns() == [5, 7]

    def test_corrupt_latest_falls_back(self, tmp_path):
        store = SnapshotStore(tmp_path, retain=3)
        store.save(["old"], lsn=1)
        store.save(["new"], lsn=2)
        (tmp_path / "snapshot-000000000002.pkl").write_bytes(b"not a pickle")
        lsn, obj = store.load_latest()
        assert (lsn, obj) == (1, ["old"])

    def test_no_snapshots(self, tmp_path):
        assert SnapshotStore(tmp_path / "none").load_latest() is None

    def test_wrong_schema_is_skipped(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save("good", lsn=1)
        bad = {"schema": "something/else", "lsn": 9, "structure": "bad"}
        (tmp_path / "snapshot-000000000009.pkl").write_bytes(pickle.dumps(bad))
        assert store.load_latest() == (1, "good")


# ----------------------------------------------------------------------
# Micro-batching and the synchronous apply path
# ----------------------------------------------------------------------


class TestMicroBatching:
    def test_coalescing_preserves_op_order(self):
        svc = StreamService(make_sw(), config=ServiceConfig(flush_edges=10**9))
        svc.submit_insert([(0, 1)])
        svc.submit_insert([(1, 2)])  # merges with the previous insert op
        svc.submit_expire(1)
        svc.submit_expire(1)  # merges with the previous expire op
        svc.submit_insert([(2, 3)])
        assert [op[0] for op in svc._pending] == [OP_INSERT, OP_EXPIRE, OP_INSERT]
        assert svc.queue_depth == 3 + 1  # 3 edges + 1 expire op
        svc.flush()
        # Twin applying the same logical sequence directly.
        tw = make_sw()
        tw.batch_insert([(0, 1), (1, 2)])
        tw.batch_expire(2)
        tw.batch_insert([(2, 3)])
        assert svc.structure.num_components == tw.num_components
        assert sorted(svc.structure.forest_edges()) == sorted(tw.forest_edges())

    def test_size_trigger_flushes_inline(self):
        svc = StreamService(make_sw(), config=ServiceConfig(flush_edges=4))
        svc.submit_insert([(0, 1), (1, 2)])
        assert svc.rounds_applied == 0
        svc.submit_insert([(2, 3), (3, 4)])  # trips the size trigger
        assert svc.rounds_applied == 1
        assert svc.queue_depth == 0

    def test_flush_returns_lsn_or_minus_one(self):
        svc = StreamService(make_sw(), config=ServiceConfig(flush_edges=10**9))
        assert svc.flush() == -1
        svc.submit_insert([(0, 1)])
        assert svc.flush() == 0
        assert svc.flush() == -1
        assert svc.next_lsn == 1

    def test_submit_edgebatch(self):
        svc = StreamService(make_sw(), config=ServiceConfig(flush_edges=10**9))
        svc.submit(EdgeBatch(((0, 1), (1, 2)), expire=1))
        svc.drain()
        assert svc.structure.window_size == 1

    def test_sync_overflow_drains_inline(self):
        svc = StreamService(
            make_sw(), config=ServiceConfig(flush_edges=10**9, max_pending=4)
        )
        for i in range(10):
            svc.submit_insert([(i % 8, (i + 1) % 8)])
        svc.drain()
        assert svc.structure.clock.t == 10  # nothing lost

    def test_oversized_batch_is_admitted_alone(self):
        svc = StreamService(
            make_sw(), config=ServiceConfig(flush_edges=10**9, max_pending=4)
        )
        svc.submit_insert([(i, i + 1) for i in range(8)])  # > max_pending
        svc.drain()
        assert svc.structure.clock.t == 8

    def test_expire_validates_and_skips_zero(self):
        svc = StreamService(make_sw(), config=ServiceConfig(flush_edges=10**9))
        with pytest.raises(ValueError):
            svc.submit_expire(-1)
        svc.submit_expire(0)
        assert svc.queue_depth == 0

    def test_memory_only_service_is_not_durable(self):
        svc = StreamService(make_sw())
        assert not svc.durable
        svc.submit_insert([(0, 1)])
        svc.drain()
        assert svc.next_lsn == 1

    def test_submit_insert_validates_arity(self):
        svc = StreamService(make_sw(), config=ServiceConfig(flush_edges=10**9))
        with pytest.raises(ValueError, match="edge row 1"):
            svc.submit_insert([(0, 1), (1, 2, 3, 4)])
        with pytest.raises(ValueError, match="edge row 0"):
            svc.submit_insert([(7,)])
        assert svc.queue_depth == 0  # nothing from a bad batch is enqueued

    def test_unexpected_apply_error_kills_service(self, tmp_path):
        svc = StreamService(
            _Exploding(), data_dir=tmp_path, config=ServiceConfig(flush_edges=10**9)
        )
        svc.submit_insert([(0, 1)])
        with pytest.raises(RuntimeError, match="boom"):
            svc.flush()
        assert isinstance(svc.error, RuntimeError)
        with pytest.raises(ServiceClosed, match="boom"):  # no more traffic
            svc.submit_insert([(1, 2)])
        # The round hit the WAL before the apply blew up, so recovery
        # against a healthy structure replays it.
        recovered = StreamService.open(tmp_path, make_sw)
        assert recovered.recovered_rounds == 1
        recovered.close()

    def test_closed_service_rejects_traffic(self):
        svc = StreamService(make_sw())
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.submit_insert([(0, 1)])
        with pytest.raises(ServiceClosed):
            svc.flush()
        svc.close()  # idempotent

    def test_existing_wal_requires_open(self, tmp_path):
        with StreamService(make_sw(), data_dir=tmp_path) as svc:
            svc.submit_insert([(0, 1)])
        with pytest.raises(ValueError, match="StreamService.open"):
            StreamService(make_sw(), data_dir=tmp_path)
        svc = StreamService.open(tmp_path, make_sw)
        assert svc.recovered_rounds == 1
        svc.close()

    def test_open_fresh_directory(self, tmp_path):
        svc = StreamService.open(tmp_path / "new", make_sw)
        assert svc.recovered_rounds == 0
        svc.submit_insert([(0, 1)])
        svc.close()

    def test_flush_phase_and_metrics_recorded(self):
        sw = make_sw()
        svc = StreamService(sw, config=ServiceConfig(flush_edges=10**9))
        before = get_metrics().counter("service.rounds").value
        svc.submit_insert([(0, 1), (1, 2)])
        svc.flush()
        assert get_metrics().counter("service.rounds").value == before + 1
        assert len(svc.flush_wall) == 1
        flush = sw.cost.phases.children["service-flush"]
        assert flush.items == 2
        assert "window-insert" in flush.children  # structure phases nest under it


# ----------------------------------------------------------------------
# Backpressure and shedding
# ----------------------------------------------------------------------


class TestBackpressure:
    def test_threaded_full_buffer_raises(self):
        svc = StreamService(
            make_sw(), config=ServiceConfig(flush_edges=4, max_pending=8)
        )
        svc.start()
        try:
            with svc.paused():  # the apply thread cannot drain while paused
                svc.submit_insert([(i, i + 1) for i in range(6)])
                with pytest.raises(Backpressure):
                    svc.submit_insert([(i, i + 1) for i in range(6)])
            svc.drain()
            assert svc.structure.clock.t == 6  # rejected batch was not applied
        finally:
            svc.close()

    def test_shedding_drops_expirations_not_insertions(self):
        svc = StreamService(
            make_sw(),
            config=ServiceConfig(
                flush_edges=10**9, max_pending=10, shed_expirations=True
            ),
        )
        before = get_metrics().counter("service.expirations_shed").value
        svc.submit_insert([(i, i + 1) for i in range(4)])
        svc.submit_expire(2)
        svc.submit_insert([(i, i + 2) for i in range(6)])  # overflows: sheds
        svc.drain()
        shed = get_metrics().counter("service.expirations_shed").value - before
        assert shed == 2
        assert svc.structure.clock.t == 10  # every insertion survived
        assert svc.structure.clock.tw == 0  # the expiration did not

    def test_incoming_expire_is_shed_when_full(self):
        svc = StreamService(
            make_sw(),
            config=ServiceConfig(
                flush_edges=10**9, max_pending=4, shed_expirations=True
            ),
        )
        svc.start()
        try:
            before = get_metrics().counter("service.expirations_shed").value
            with svc.paused():
                svc.submit_insert([(i, i + 1) for i in range(4)])
                svc.submit_expire(3)  # buffer full: shed on arrival
            svc.drain()
            shed = get_metrics().counter("service.expirations_shed").value - before
            assert shed == 3
            assert svc.structure.clock.tw == 0
        finally:
            svc.close()


# ----------------------------------------------------------------------
# The background apply thread
# ----------------------------------------------------------------------


class TestThreadedLoop:
    def test_deadline_flush(self):
        svc = StreamService(
            make_sw(), config=ServiceConfig(flush_edges=10**9, flush_interval=0.01)
        )
        svc.start()
        try:
            svc.submit_insert([(0, 1)])
            # Wait on rounds_applied, not queue_depth: the queue empties
            # at _take_pending, a few ms before the round finishes.
            deadline = time.monotonic() + 5.0
            while svc.rounds_applied < 1 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert svc.queue_depth == 0
            assert svc.rounds_applied >= 1
        finally:
            svc.close()

    def test_stop_flushes_remaining(self):
        svc = StreamService(
            make_sw(), config=ServiceConfig(flush_edges=10**9, flush_interval=5.0)
        )
        svc.start()
        svc.submit_insert([(0, 1), (1, 2)])
        svc.stop()  # must not wait the full 5s interval, and must drain
        assert svc.queue_depth == 0
        assert svc.structure.clock.t == 2
        svc.close()

    def test_loop_death_surfaces_cause_to_producers(self):
        svc = StreamService(
            _Exploding(), config=ServiceConfig(flush_edges=10**9, flush_interval=0.01)
        )
        svc.start()
        svc.submit_insert([(0, 1)])
        deadline = time.monotonic() + 5.0
        while svc.error is None and time.monotonic() < deadline:
            time.sleep(0.005)
        assert isinstance(svc.error, RuntimeError)  # loop died, cause kept
        with pytest.raises(ServiceClosed, match="boom"):
            svc.submit_insert([(1, 2)])
        svc.close()  # joins the dead thread cleanly

    def test_start_is_idempotent(self):
        svc = StreamService(make_sw(), config=ServiceConfig(flush_interval=0.01))
        assert svc.start() is svc
        t = svc._thread
        svc.start()
        assert svc._thread is t  # no second apply loop
        svc.close()

    def test_concurrent_producers_lose_nothing(self, tmp_path):
        import random
        from repro.runtime.scheduler import ThreadPoolScheduler

        rng = random.Random(4)
        stream = bursty_stream(
            32, rounds=20, base_batch=5, burst_batch=20, window=64, rng=rng
        )
        total_edges = sum(len(b.edges) for b in stream)
        total_expire = sum(b.expire for b in stream)
        svc = StreamService(
            make_sw(),
            data_dir=tmp_path,
            config=ServiceConfig(flush_edges=16, flush_interval=0.005),
        )
        svc.start()
        with ThreadPoolScheduler(max_workers=4) as pool:
            futures = [
                pool.submit(
                    lambda part: [svc.submit(b) for b in part], stream[i::4]
                )
                for i in range(4)
            ]
            for f in futures:
                f.result()
        svc.close()
        assert svc.structure.clock.t == total_edges
        assert svc.structure.clock.tw == total_expire
        # Every accepted round is durable.
        records = read_wal_dir(tmp_path / "wal")[0]
        logged = sum(
            len(p) for r in records for k, p in r.ops if k == OP_INSERT
        )
        assert logged == total_edges

    def test_query_serializes_against_apply(self):
        svc = StreamService(make_sw(), config=ServiceConfig(flush_edges=10**9))
        svc.submit_insert([(0, 1)])
        svc.drain()
        assert svc.query(lambda s: s.is_connected(0, 1)) is True
        with svc.paused() as s:
            assert s.num_components == 31
