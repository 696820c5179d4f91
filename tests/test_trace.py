"""The trace format and recorder: CRC framing, torn tails, capture hooks.

Mirrors the WAL's crash contract tests in ``test_failure_injection.py``:
a trace file truncated at *every* byte offset inside its final line must
repair back to the durable prefix on open, with recording resuming on a
clean tail.  Plus the live-capture side: the ``ServiceConfig.recorder``
and ``QueryService(recorder=...)`` hooks record exactly the committed
rounds and answered batches, and a failing recorder never fails the
service (capture is best-effort by contract).
"""

from __future__ import annotations

import json
import threading
import zlib

import pytest

from repro.chaos.faults import FaultyIO
from repro.replication import ReplicatedService
from repro.service.query import QueryService
from repro.service.service import ServiceConfig, StreamService
from repro.sliding_window import SWConnectivityEager
from repro.trace import (
    TraceCorruption,
    TraceEvent,
    TraceRecorder,
    TraceWriter,
    decode_event,
    encode_event,
    ops_from_json,
    ops_to_json,
    read_trace,
    trace_summary,
)

N = 32
SEED = 5


def make_sw():
    return SWConnectivityEager(N, seed=SEED)


# ----------------------------------------------------------------------
# Record framing
# ----------------------------------------------------------------------


class TestEventFraming:
    def test_encode_decode_round_trip(self):
        ev = TraceEvent(
            seq=3,
            t_us=12345,
            kind="write",
            body={"lsn": 3, "ops": [["i", [[0, 1, 2.5]]], ["e", 2]]},
        )
        assert decode_event(encode_event(ev)) == ev

    def test_decode_rejects_flipped_payload(self):
        line = encode_event(
            TraceEvent(seq=0, t_us=0, kind="write", body={"lsn": 0, "ops": []})
        )
        doc = json.loads(line)
        doc["body"]["lsn"] = 7  # body no longer matches the CRC
        assert decode_event(json.dumps(doc)) is None

    def test_decode_rejects_unknown_kind(self):
        doc = {
            "seq": 0,
            "t_us": 0,
            "kind": "mystery",
            "body": {},
            "crc": zlib.crc32(b'[0,0,"mystery",{}]'),
        }
        assert decode_event(json.dumps(doc)) is None

    def test_decode_rejects_garbage(self):
        assert decode_event("not json at all") is None
        assert decode_event('{"seq": 1}') is None

    def test_encode_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            encode_event(TraceEvent(seq=0, t_us=0, kind="bogus", body={}))

    def test_ops_json_round_trip(self):
        ops = (("i", ((0, 1, 1.5), (2, 3, 0.25))), ("e", 4), ("i", ((5, 6),)))
        assert ops_from_json(ops_to_json(ops)) == ops

    def test_ops_json_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ops_from_json([["x", 1]])
        with pytest.raises(ValueError):
            ops_to_json([("x", 1)])


# ----------------------------------------------------------------------
# Writer + reader durability contract
# ----------------------------------------------------------------------


def write_sample_trace(path, events=5):
    with TraceWriter(path, meta={"who": "test"}) as w:
        for i in range(events):
            w.append(
                i * 1000, "write", {"lsn": i, "ops": [["i", [[i, i + 1]]]]}
            )
    return path


class TestTraceWriter:
    def test_write_and_read_back(self, tmp_path):
        path = write_sample_trace(tmp_path / "t.trace.jsonl")
        meta, events = read_trace(path)
        assert meta == {"who": "test"}
        assert [e.seq for e in events] == [0, 1, 2, 3, 4]
        assert [e.t_us for e in events] == [0, 1000, 2000, 3000, 4000]

    def test_reopen_resumes_seq(self, tmp_path):
        path = write_sample_trace(tmp_path / "t.trace.jsonl", events=3)
        with TraceWriter(path) as w:
            assert w.next_seq == 3
            assert w.meta == {"who": "test"}  # header meta wins on resume
            w.append(9000, "control", {"knob": "budget", "value": 8})
        _, events = read_trace(path)
        assert len(events) == 4 and events[-1].kind == "control"

    def test_timestamps_clamped_monotone(self, tmp_path):
        with TraceWriter(tmp_path / "t.trace.jsonl") as w:
            w.append(5000, "write", {"lsn": 0, "ops": []})
            ev = w.append(100, "write", {"lsn": 1, "ops": []})
        assert ev.t_us == 5000

    def test_torn_tail_repaired_at_every_offset(self, tmp_path):
        """The WAL crash matrix, applied to the trace file: truncate
        inside the final line at every offset; reopen must repair back
        to the durable prefix and resume cleanly."""
        full = write_sample_trace(tmp_path / "full.trace.jsonl")
        raw = full.read_bytes()
        lines = raw[:-1].split(b"\n")  # header + 5 events
        durable_prefix = b"\n".join(lines[:-1]) + b"\n"
        for cut in range(len(durable_prefix) + 1, len(raw)):
            path = tmp_path / f"torn-{cut}.trace.jsonl"
            path.write_bytes(raw[:cut])
            # The reader stops silently before the torn tail.
            _, events = read_trace(path)
            assert [e.seq for e in events] == [0, 1, 2, 3], cut
            # The writer repairs and resumes on a clean tail.
            with TraceWriter(path) as w:
                assert w.next_seq == 4, cut
                w.append(10_000, "write", {"lsn": 4, "ops": []})
            _, events = read_trace(path)
            assert [e.seq for e in events] == [0, 1, 2, 3, 4], cut

    def test_torn_header_repaired(self, tmp_path):
        path = write_sample_trace(tmp_path / "t.trace.jsonl", events=1)
        raw = path.read_bytes()
        header_len = raw.index(b"\n") + 1
        for cut in range(1, header_len):
            torn = tmp_path / f"h-{cut}.trace.jsonl"
            torn.write_bytes(raw[:cut])
            with TraceWriter(torn, meta={"fresh": True}) as w:
                assert w.next_seq == 0
                w.append(0, "write", {"lsn": 0, "ops": []})
            meta, events = read_trace(torn)
            assert meta == {"fresh": True} and len(events) == 1

    def test_mid_file_corruption_raises(self, tmp_path):
        path = write_sample_trace(tmp_path / "t.trace.jsonl")
        raw = path.read_bytes()
        lines = raw[:-1].split(b"\n")
        lines[2] = lines[2][:10] + b"X" + lines[2][11:]  # damage event 1
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(TraceCorruption):
            read_trace(path)

    def test_seq_gap_raises(self, tmp_path):
        path = tmp_path / "t.trace.jsonl"
        header = json.dumps({"trace": "repro.trace/v1", "meta": {}})
        e0 = encode_event(TraceEvent(seq=0, t_us=0, kind="write", body={}))
        e2 = encode_event(TraceEvent(seq=2, t_us=0, kind="write", body={}))
        path.write_text("\n".join([header, e0, e2]) + "\n")
        with pytest.raises(TraceCorruption):
            read_trace(path)

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "t.trace.jsonl"
        e0 = encode_event(TraceEvent(seq=0, t_us=0, kind="write", body={}))
        path.write_text(e0 + "\n")
        with pytest.raises(TraceCorruption):
            read_trace(path)

    def test_failed_append_leaves_clean_tail(self, tmp_path):
        faults = FaultyIO(seed=3, p_write_error=1.0)
        path = tmp_path / "t.trace.jsonl"
        with TraceWriter(path, io=faults) as w:  # header appends disarmed
            w.append(0, "write", {"lsn": 0, "ops": []})
            faults.arm(max_faults=1)
            with pytest.raises(OSError):
                w.append(1000, "write", {"lsn": 1, "ops": []})
            faults.disarm()
            # The failed append repaired the tail; the retry lands clean.
            w.append(1000, "write", {"lsn": 1, "ops": []})
        _, events = read_trace(path)
        assert [e.seq for e in events] == [0, 1]

    def test_trace_summary(self, tmp_path):
        path = tmp_path / "t.trace.jsonl"
        with TraceWriter(path, meta={"x": 1}) as w:
            w.append(0, "write", {"lsn": 0, "ops": [["i", [[0, 1], [1, 2]]]]})
            w.append(500, "write", {"lsn": 1, "ops": [["e", 1]]})
            w.append(900, "read", {"queries": [["components"]]})
        s = trace_summary(path)
        assert s["events"] == 3
        assert s["kinds"] == {"write": 2, "read": 1, "control": 0}
        assert s["items"] == 3  # two inserted edges + one expire op
        assert s["duration_us"] == 900
        assert s["meta"] == {"x": 1}

    def test_summary_of_missing_trace_is_zero(self, tmp_path):
        s = trace_summary(tmp_path / "nope.trace.jsonl")
        assert s["events"] == 0 and s["meta"] == {}


# ----------------------------------------------------------------------
# The recorder and the service capture hooks
# ----------------------------------------------------------------------


class TestTraceRecorder:
    def test_virtual_clock_injection(self, tmp_path):
        now = [0.0]
        rec = TraceRecorder(tmp_path / "t.trace.jsonl", clock=lambda: now[0])
        now[0] = 0.25
        ev = rec.record_round(0, (("i", ((0, 1),)),))
        assert ev.t_us == 250_000
        now[0] = 0.5
        ev = rec.record_read([("components",)], at_least=0)
        assert ev.t_us == 500_000
        assert ev.body == {"queries": [["components"]], "at_least": 0}
        ev = rec.record_control("budget", 32.0, reason="lag", observed=9.0)
        assert ev.body["knob"] == "budget" and ev.body["observed"] == 9.0
        rec.close()
        assert rec.events_recorded == 3

    def test_concurrent_records_keep_seq_dense(self, tmp_path):
        rec = TraceRecorder(tmp_path / "t.trace.jsonl")
        threads = [
            threading.Thread(
                target=lambda k=k: [
                    rec.record_round(k * 10 + i, (("e", 1),)) for i in range(10)
                ]
            )
            for k in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        rec.close()
        _, events = read_trace(rec.path)
        assert [e.seq for e in events] == list(range(40))

    def test_service_commit_hook_records_rounds(self, tmp_path):
        rec = TraceRecorder(tmp_path / "t.trace.jsonl")
        cfg = ServiceConfig(flush_edges=10**9, recorder=rec)
        svc = StreamService(make_sw(), data_dir=tmp_path / "svc", config=cfg)
        svc.submit_insert([(0, 1), (1, 2)])
        svc.flush()
        svc.submit_insert([(2, 3)])
        svc.submit_expire(1)
        svc.flush()
        svc.close()
        rec.close()
        _, events = read_trace(rec.path)
        assert [e.kind for e in events] == ["write", "write"]
        assert events[0].body["lsn"] == 0
        assert ops_from_json(events[1].body["ops"]) == (
            ("i", ((2, 3),)),
            ("e", 1),
        )

    def test_recovery_replay_is_not_re_recorded(self, tmp_path):
        """The hook lives in the commit path only: reopening a service
        and replaying its WAL must not duplicate recorded rounds."""
        rec = TraceRecorder(tmp_path / "t.trace.jsonl")
        cfg = ServiceConfig(flush_edges=10**9, recorder=rec)
        svc = StreamService(make_sw(), data_dir=tmp_path / "svc", config=cfg)
        svc.submit_insert([(0, 1)])
        svc.flush()
        svc.close()
        svc2 = StreamService.open(tmp_path / "svc", make_sw, config=cfg)
        assert svc2.recovered_rounds == 1
        svc2.submit_insert([(1, 2)])
        svc2.flush()
        svc2.close()
        rec.close()
        _, events = read_trace(rec.path)
        assert [e.body["lsn"] for e in events] == [0, 1]

    def test_query_hook_records_reads(self, tmp_path):
        rec = TraceRecorder(tmp_path / "t.trace.jsonl")
        cfg = ServiceConfig(flush_edges=10**9, recorder=rec)
        svc = ReplicatedService(make_sw, tmp_path / "svc", config=cfg)
        qs = QueryService(svc, recorder=rec)
        lsn = svc.write([(0, 1), (1, 2)])
        qs.run([("connected", 0, 2), ("components",)], at_least=lsn)
        qs.run([("window_size",)], max_staleness=0)
        svc.close()
        rec.close()
        _, events = read_trace(rec.path)
        reads = [e for e in events if e.kind == "read"]
        assert len(reads) == 2
        assert reads[0].body["at_least"] == lsn
        assert reads[0].body["queries"] == [["connected", 0, 2], ["components"]]
        assert reads[1].body["max_staleness"] == 0

    def test_failing_recorder_never_fails_the_service(self, tmp_path):
        class ExplodingRecorder:
            def record_round(self, lsn, ops):
                raise RuntimeError("capture disk is gone")

            def record_read(self, queries, at_least=None, max_staleness=None):
                raise RuntimeError("capture disk is gone")

        cfg = ServiceConfig(flush_edges=10**9, recorder=ExplodingRecorder())
        svc = ReplicatedService(make_sw, tmp_path / "svc", config=cfg)
        qs = QueryService(svc, recorder=cfg.recorder)
        lsn = svc.write([(0, 1)])
        assert lsn == 0  # the commit survived the recorder
        res = qs.run([("components",)], at_least=lsn)
        assert res.answers[0] == N - 1  # and so did the read
        svc.close()
