"""Live trace capture: the hook object services call into.

:class:`TraceRecorder` is what gets attached to a running pipeline --
``ServiceConfig(recorder=...)`` records every committed ingest round
from inside :meth:`StreamService._commit`, and
``QueryService(recorder=...)`` records every answered read batch -- and
it turns those callbacks into durable trace events via
:class:`repro.trace.record.TraceWriter`.

Design constraints, in order:

- **Capture must not perturb the recorded system.**  The recorder holds
  its own file and its own lock; a record call is one JSON encode and
  one buffered append, no fsync by default (a trace is a measurement
  artifact, not the durability story -- the WAL is).  Pass
  ``fsync=True`` when a trace must survive the chaos driver's simulated
  crashes (the torn tail is repaired on reopen either way).
- **Timestamps are relative and monotonic.**  The recorder stamps each
  event with integer microseconds since its own construction, from an
  injectable ``clock`` (default ``time.monotonic``), so traces are
  location-independent and tests can drive virtual time.
- **Duck typing, no import cycle.**  ``repro.service`` must not import
  ``repro.trace`` (traces sit *above* the service, like chaos does), so
  ``ServiceConfig.recorder`` is typed ``Any`` and the service calls
  ``recorder.record_round(...)`` / ``recorder.record_read(...)``
  blindly.  Anything with those methods records; this class is the one
  that writes trace files.

The chaos composition rule: the recorder hook lives in the *commit*
path only (after the WAL append succeeds), never in recovery replay, so
a trace captured under a chaos schedule of primary kills contains each
surviving round exactly once -- the crashed attempt's round was never
durable, and the retried round records once on the new primary.  That
is what makes a chaos-recorded trace replayable against the fault-free
oracle (see ``tests/test_trace_replay.py``).
"""

from __future__ import annotations

import pathlib
import threading
import time
from typing import Callable, Sequence

from repro.obs.metrics import get_metrics
from repro.service.storage import StorageIO
from repro.service.wal import Op
from repro.trace.record import TraceEvent, TraceWriter, ops_to_json


class TraceRecorder:
    """Thread-safe trace capture into one ``.trace.jsonl`` file.

    Parameters
    ----------
    path:
        Trace file to create or resume (torn tail repaired on open).
    meta:
        Header metadata for a fresh trace -- record whatever is needed
        to rebuild the recording config (structure factory, ``n``,
        seed); the replayer and gate read it back.
    clock:
        Zero-argument callable returning seconds (monotonic).  Events
        are stamped ``int((clock() - t0) * 1e6)`` microseconds.
    fsync:
        Fsync every event (crash-durable capture, e.g. under chaos).
    io:
        :class:`~repro.service.storage.StorageIO` seam for fault tests.
    """

    def __init__(
        self,
        path: str | pathlib.Path,
        meta: dict | None = None,
        clock: Callable[[], float] = time.monotonic,
        fsync: bool = False,
        io: StorageIO | None = None,
    ) -> None:
        self._writer = TraceWriter(path, meta=meta, fsync=fsync, io=io)
        self._clock = clock
        self._t0 = clock()
        self._lock = threading.Lock()

    @property
    def path(self) -> pathlib.Path:
        """Where the trace is being written."""
        return self._writer.path

    @property
    def meta(self) -> dict:
        """The trace header metadata (shared with the file)."""
        return self._writer.meta

    @property
    def events_recorded(self) -> int:
        """Events durable in the trace so far (including resumed ones)."""
        return self._writer.next_seq

    def _now_us(self) -> int:
        return int((self._clock() - self._t0) * 1e6)

    def _append(self, kind: str, body: dict) -> TraceEvent:
        with self._lock:
            ev = self._writer.append(self._now_us(), kind, body)
        get_metrics().counter("trace.events_recorded").inc()
        return ev

    def record_round(self, lsn: int, ops: Sequence[Op]) -> TraceEvent:
        """Record one committed ingest round (the service commit hook).

        ``lsn`` is the WAL position the round committed as; ``ops`` is
        the flushed op list in WAL order.  Called by
        :meth:`StreamService._commit` after the append succeeds.
        """
        return self._append(
            "write", {"lsn": int(lsn), "ops": ops_to_json(ops)}
        )

    def record_read(
        self,
        queries: Sequence,
        at_least: int | None = None,
        max_staleness: int | None = None,
    ) -> TraceEvent:
        """Record one answered query batch (the QueryService hook).

        ``queries`` is the batch as ``(kind, args...)`` tuples;
        ``at_least`` / ``max_staleness`` are the consistency bounds the
        caller requested, so the replayer reissues the read with the
        same semantics.
        """
        body: dict = {"queries": [list(q) for q in queries]}
        if at_least is not None:
            body["at_least"] = int(at_least)
        if max_staleness is not None:
            body["max_staleness"] = int(max_staleness)
        return self._append("read", body)

    def record_control(
        self,
        knob: str,
        value: float,
        reason: str = "",
        observed: float | None = None,
        at: int | None = None,
    ) -> TraceEvent:
        """Record one adaptive-controller decision (knob, new value, why).

        ``at`` anchors the decision to the workload-trace event sequence
        number that triggered it, so a tuning run recorded into a *side*
        trace still replays decision-for-decision via
        :class:`repro.trace.control.ScriptedController` (which reads
        ``body["at"]``, falling back to the control event's own seq when
        decisions were recorded inline with the workload).
        """
        body: dict = {"knob": knob, "value": value, "reason": reason}
        if observed is not None:
            body["observed"] = observed
        if at is not None:
            body["at"] = int(at)
        return self._append("control", body)

    def close(self) -> None:
        """Flush and close the trace file (idempotent)."""
        with self._lock:
            self._writer.close()

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
