"""The trace format: a versioned, CRC-checked JSONL event log.

A *trace* is the workload twin of the WAL: where the WAL records what the
service **committed**, a trace records what clients **asked for** -- write
rounds with their arrival timestamps and read batches with their
consistency levels -- so a benchmark or soak can be replayed, at any
speed, against any :class:`~repro.service.service.ServiceConfig`, instead of re-rolling a
synthetic generator and hoping it exercises the same code paths.

The on-disk format is a framed log like the WAL (one JSON record per
line after a schema header, CRC32 over the canonical body, torn tail
repaired on open -- see :mod:`repro.service.framing`):

    {"trace": "repro.trace/v1", "meta": {...}}
    {"seq": 0, "t_us": 0, "kind": "write", "body": {...}, "crc": ...}
    {"seq": 1, "t_us": 5000, "kind": "read", "body": {...}, "crc": ...}

Event kinds:

- ``write``: one committed ingest round -- ``body["ops"]`` is the WAL op
  list (``["i", edges]`` / ``["e", delta]``) and ``body["lsn"]`` the LSN
  it committed as on the recording service;
- ``read``: one answered query batch -- ``body["queries"]`` plus the
  requested consistency (``at_least`` token / ``max_staleness`` bound).

Timestamps are integer **microseconds since the trace started**
(``t_us``), monotone non-decreasing; the replayer divides them by the
replay speed to get virtual arrival times.  All durable bytes route
through the :class:`~repro.service.storage.StorageIO` seam, so the trace
writer is testable under :class:`~repro.chaos.faults.FaultyIO` like every
other durable component.

Crash semantics (the WAL's, from the same :mod:`repro.service.framing`
code):

- an event is durable once its line, trailing newline included, is on
  disk;
- a final line missing its newline is a *torn tail* from a crash
  mid-append: :class:`TraceWriter` repairs it on open by truncating back
  to the last durable event, and :func:`read_trace` silently stops
  before it;
- a bad record anywhere before the tail raises :class:`TraceCorruption`.
"""

from __future__ import annotations

import json
import pathlib
import zlib
from dataclasses import dataclass, field

from repro.service.framing import FramedAppender, complete_lines
from repro.service.storage import REAL_IO, StorageIO
from repro.service.wal import OP_INSERT, ops_from_json

TRACE_SCHEMA = "repro.trace/v1"

#: Event kinds a v1 trace may contain.
EVENT_KINDS = ("write", "read")


class TraceCorruption(RuntimeError):
    """A non-tail trace record failed to decode: the file was damaged."""


@dataclass(frozen=True)
class TraceEvent:
    """One trace record: a sequence number, arrival time, kind, and body."""

    seq: int
    t_us: int
    kind: str
    body: dict = field(default_factory=dict)


def _canonical(seq: int, t_us: int, kind: str, body: dict) -> str:
    return json.dumps(
        [seq, t_us, kind, body], separators=(",", ":"), sort_keys=True
    )


def encode_event(event: TraceEvent) -> str:
    """One trace line (no trailing newline) for ``event``."""
    if event.kind not in EVENT_KINDS:
        raise ValueError(f"unknown trace event kind {event.kind!r}")
    crc = zlib.crc32(
        _canonical(event.seq, event.t_us, event.kind, event.body).encode()
    )
    return json.dumps(
        {
            "seq": event.seq,
            "t_us": event.t_us,
            "kind": event.kind,
            "body": event.body,
            "crc": crc,
        },
        separators=(",", ":"),
        sort_keys=True,
    )


def decode_event(line: str) -> TraceEvent | None:
    """Parse one trace line; ``None`` when it is torn or corrupt."""
    try:
        doc = json.loads(line)
        seq = doc["seq"]
        t_us = doc["t_us"]
        kind = doc["kind"]
        body = doc["body"]
        crc = doc["crc"]
    except (ValueError, KeyError, TypeError):
        return None
    if kind not in EVENT_KINDS or not isinstance(body, dict):
        return None
    if zlib.crc32(_canonical(seq, t_us, kind, body).encode()) != crc:
        return None
    return TraceEvent(seq=int(seq), t_us=int(t_us), kind=kind, body=body)


def _parse_header(line: str) -> dict | None:
    """The trace meta dict, or ``None`` when the header is invalid."""
    try:
        header = json.loads(line)
    except ValueError:
        return None
    if not isinstance(header, dict) or header.get("trace") != TRACE_SCHEMA:
        return None
    meta = header.get("meta", {})
    return meta if isinstance(meta, dict) else None


def read_trace(
    path: str | pathlib.Path, io: StorageIO | None = None
) -> tuple[dict, list[TraceEvent]]:
    """Every durable event of the trace at ``path``, with its meta dict.

    A torn tail (crash mid-append) is ignored, exactly as the WAL reader
    does; a corrupt record *before* the tail, a bad header, a ``seq``
    gap, or a timestamp that goes backwards raises
    :class:`TraceCorruption` -- those mean the file was edited, not torn.
    """
    meta, events, _ = _scan(pathlib.Path(path), io or REAL_IO)
    return meta, events


def _scan(
    path: pathlib.Path, io: StorageIO
) -> tuple[dict, list[TraceEvent], int]:
    """``(meta, events, good_bytes)`` of the durable prefix at ``path``."""
    raw = io.read_bytes(path) if path.exists() else b""
    events: list[TraceEvent] = []
    meta: dict | None = None
    good = 0
    for line, end in complete_lines(raw):
        if meta is None:
            meta = _parse_header(line)
            if meta is None:
                raise TraceCorruption(f"{path}: missing or bad trace header")
            good = end
            continue
        ev = decode_event(line)
        if ev is None:
            raise TraceCorruption(
                f"{path}: corrupt record after {len(events)} good events"
            )
        if ev.seq != len(events):
            raise TraceCorruption(
                f"{path}: seq gap, expected {len(events)} got {ev.seq}"
            )
        if events and ev.t_us < events[-1].t_us:
            raise TraceCorruption(
                f"{path}: time went backwards at seq {ev.seq} "
                f"({events[-1].t_us} -> {ev.t_us})"
            )
        events.append(ev)
        good = end
    return meta or {}, events, good


class TraceWriter:
    """Appendable trace handle with the WAL's torn-tail repair on open.

    Opening an existing trace scans it, truncates a torn tail back to the
    last durable event, and resumes the ``seq`` sequence; opening a fresh
    path writes the schema header with ``meta``.  ``append`` follows the
    WAL append contract: on any failure (transient error, torn write,
    failed fsync) the file is truncated back to the durable prefix before
    the exception propagates, so a retry appends onto a clean tail.

    Not thread-safe by itself; :class:`repro.trace.recorder.TraceRecorder`
    adds the lock (and the clock).
    """

    def __init__(
        self,
        path: str | pathlib.Path,
        meta: dict | None = None,
        fsync: bool = False,
        io: StorageIO | None = None,
    ) -> None:
        self.path = pathlib.Path(path)
        io = io or REAL_IO
        found_meta, events, good = _scan(self.path, io)
        self.meta = found_meta if events or good else dict(meta or {})
        self._next_seq = len(events)
        self._last_t_us = events[-1].t_us if events else 0
        header = json.dumps(
            {"trace": TRACE_SCHEMA, "meta": self.meta},
            separators=(",", ":"),
            sort_keys=True,
        )
        self._log = FramedAppender(self.path, good, header, fsync, io)

    @property
    def next_seq(self) -> int:
        """The sequence number the next :meth:`append` will carry."""
        return self._next_seq

    @property
    def bytes_written(self) -> int:
        """Durable size of the trace file in bytes."""
        return self._log.bytes_written

    def append(self, t_us: int, kind: str, body: dict) -> TraceEvent:
        """Append one event; returns it once the line is durable.

        ``t_us`` is clamped monotone (arrival times never go backwards);
        on any write failure the file is repaired back to the durable
        prefix before the exception propagates.
        """
        ev = TraceEvent(
            seq=self._next_seq,
            t_us=max(int(t_us), self._last_t_us),
            kind=kind,
            body=body,
        )
        self._log.append(encode_event(ev))
        self._next_seq += 1
        self._last_t_us = ev.t_us
        return ev

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        self._log.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def trace_summary(path: str | pathlib.Path) -> dict:
    """One-glance stats of a trace file (event counts per kind, span).

    Returns zeros for a missing or empty trace; raises
    :class:`TraceCorruption` for a damaged one, like :func:`read_trace`.
    """
    meta, events = read_trace(path)
    counts = {k: 0 for k in EVENT_KINDS}
    ops = 0
    for ev in events:
        counts[ev.kind] += 1
        if ev.kind == "write":
            for kind, payload in ops_from_json(ev.body.get("ops", [])):
                ops += len(payload) if kind == OP_INSERT else 1
    return {
        "events": len(events),
        "kinds": counts,
        "items": ops,
        "duration_us": events[-1].t_us if events else 0,
        "meta": meta,
    }
