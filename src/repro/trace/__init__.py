"""Trace capture and deterministic replay for the streaming service.

The subsystem that turns benchmarks from one-off numbers into
replayable regression gates (ROADMAP item 4):

- :mod:`repro.trace.record` -- the versioned, CRC-checked JSONL trace
  format (the WAL's crash contract applied to workloads);
- :mod:`repro.trace.recorder` -- the live capture hook
  ``ServiceConfig(recorder=...)`` / ``QueryService(recorder=...)``
  attach to a running pipeline;
- :mod:`repro.trace.replay` -- the deterministic replayer driving any
  service configuration through a recorded workload at 1x/Nx speed
  under seeded virtual time, with byte-identity oracles.

``scripts/gate.py`` builds the CI regression gates on top; the format
and contracts are documented in ``docs/tracing.md``.
"""

from repro.service.wal import ops_from_json, ops_to_json
from repro.trace.record import (
    TRACE_SCHEMA,
    TraceCorruption,
    TraceEvent,
    TraceWriter,
    decode_event,
    encode_event,
    read_trace,
    trace_summary,
)
from repro.trace.recorder import TraceRecorder
from repro.trace.replay import (
    ReplayConfig,
    ReplayResult,
    TraceReplayer,
    VirtualClock,
    factory_from_meta,
    replay_trace,
    state_fingerprint,
    trace_oracle,
)

__all__ = [
    "TRACE_SCHEMA",
    "ReplayConfig",
    "ReplayResult",
    "TraceCorruption",
    "TraceEvent",
    "TraceRecorder",
    "TraceReplayer",
    "TraceWriter",
    "VirtualClock",
    "decode_event",
    "encode_event",
    "factory_from_meta",
    "ops_from_json",
    "ops_to_json",
    "read_trace",
    "replay_trace",
    "state_fingerprint",
    "trace_oracle",
    "trace_summary",
]
