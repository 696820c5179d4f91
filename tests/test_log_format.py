"""On-disk bytes of the WAL and the trace, pinned as literals.

The crash-matrix and round-trip tests prove each log reads back what it
wrote; these prove the bytes themselves never drift, so files written by
an older build stay readable by a newer one.  The rejection tests pin
what the readers refuse: headers and event kinds no writer produces.
"""

from __future__ import annotations

import zlib

import pytest

from repro.service.wal import WalCorruption, WriteAheadLog, read_wal
from repro.trace import TraceCorruption, TraceWriter, decode_event, read_trace

WAL_BYTES = (
    b'{"wal": "repro.service/wal/v2", "start": 0}\n'
    b'{"lsn":0,"epoch":0,"ops":[["i",[[0,1,2.5],[1,2]]]],"crc":2977192684}\n'
    b'{"lsn":1,"epoch":0,"ops":[["e",1]],"crc":2873873345}\n'
)

TRACE_BYTES = (
    b'{"meta":{"n":8},"trace":"repro.trace/v1"}\n'
    b'{"body":{"lsn":0,"ops":[["i",[[0,1,2.5]]]]},"crc":2758704689,'
    b'"kind":"write","seq":0,"t_us":0}\n'
    b'{"body":{"at_least":0,"queries":[["connected",0,1]]},"crc":3187386321,'
    b'"kind":"read","seq":1,"t_us":1500}\n'
)


def test_wal_bytes_are_pinned(tmp_path):
    path = tmp_path / "wal-000000000000-000000.jsonl"
    with WriteAheadLog(path) as wal:
        assert wal.append([("i", ((0, 1, 2.5), (1, 2)))]) == 0
        assert wal.append([("e", 1)]) == 1
        assert wal.bytes_written == len(WAL_BYTES)
    assert path.read_bytes() == WAL_BYTES
    records, good = read_wal(path)
    assert [r.ops for r in records] == [
        (("i", ((0, 1, 2.5), (1, 2))),),
        (("e", 1),),
    ]
    assert good == len(WAL_BYTES)


def test_trace_bytes_are_pinned(tmp_path):
    path = tmp_path / "t.trace.jsonl"
    with TraceWriter(path, meta={"n": 8}) as w:
        w.append(0, "write", {"lsn": 0, "ops": [["i", [[0, 1, 2.5]]]]})
        w.append(
            1500, "read", {"queries": [["connected", 0, 1]], "at_least": 0}
        )
        assert w.bytes_written == len(TRACE_BYTES)
    assert path.read_bytes() == TRACE_BYTES
    meta, events = read_trace(path)
    assert meta == {"n": 8}
    assert [(e.seq, e.t_us, e.kind) for e in events] == [
        (0, 0, "write"),
        (1, 1500, "read"),
    ]


def test_wal_v1_header_is_rejected(tmp_path):
    path = tmp_path / "wal-000000000000-000000.jsonl"
    path.write_bytes(b'{"wal": "repro.service/wal/v1"}\n')
    with pytest.raises(WalCorruption):
        read_wal(path)


def _control_line(seq: int) -> str:
    body = '{"knob":"budget","value":8}'
    crc = zlib.crc32(f'[{seq},0,"control",{body}]'.encode())
    return (
        f'{{"body":{body},"crc":{crc},"kind":"control","seq":{seq},'
        f'"t_us":0}}'
    )


def test_control_events_are_rejected(tmp_path):
    assert decode_event(_control_line(0)) is None
    path = tmp_path / "t.trace.jsonl"
    path.write_text(
        '{"meta":{},"trace":"repro.trace/v1"}\n' + _control_line(0) + "\n"
    )
    with pytest.raises(TraceCorruption):
        read_trace(path)
