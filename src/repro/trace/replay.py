"""Deterministic trace replay against any service configuration.

:class:`TraceReplayer` takes a recorded trace (see
:mod:`repro.trace.record`) and drives a fresh
:class:`~repro.replication.replicated.ReplicatedService` -- any
flush deadline, follower count, retry policy -- through exactly the
recorded workload: every write event commits as a round, every read
event re-issues its query batch with the recorded consistency bounds,
and arrival timestamps advance a seeded :class:`VirtualClock` at
``speed``\\ x real time.  No background threads, no wall-clock sleeps:
replication is ticked per event (like the chaos driver), so two replays
of one trace do the same work in the same order.

The determinism contract, and who checks it:

- **Trace oracle** (:func:`trace_oracle`): the recorded ops applied, in
  order, to a fresh structure -- pure state, no service.  In the default
  ``preserve_rounds`` mode the replayer commits each write event as one
  round with its recorded op structure intact, so the final served state
  must fingerprint byte-identical to this oracle (the structures are
  deterministic given the op sequence).  This holds *even when a chaos
  schedule fires during replay*: a primary kill's crashed round was
  never durable and is recommitted on the new primary.
- **WAL oracle** (:func:`~repro.chaos.schedule.replay_oracle`): the
  replay's own write-ahead log replayed fault-free.  Checked whenever
  the full chain is retained; with ``preserve_rounds=False`` (the
  replayer re-batches ops under the target config's flush policy, so
  round boundaries differ from the recording) this is the only
  byte-identity claim made.

:func:`state_fingerprint` is the comparison key: logical state (window
size, component count, forest edge set) plus the RC-tree's byte-level
snapshot, the same shape the chaos suite asserts convergence with.

An attached controller (:class:`repro.trace.control.AdaptiveController`
live, or :class:`~repro.trace.control.ScriptedController` replaying a
recorded tuning run) observes per-round latency and follower lag and
adjusts the virtual flush deadline and the per-tick replication budget
as the replay progresses.
"""

from __future__ import annotations

import pathlib
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.chaos.schedule import ChaosDriver, ChaosSchedule, replay_oracle
from repro.obs.metrics import get_metrics
from repro.replication.replicated import ReplicatedService
from repro.service.query import QueryService
from repro.service.service import ServiceConfig, apply_ops
from repro.service.wal import WalTruncated
from repro.trace.record import TraceEvent, ops_from_json, read_trace


class VirtualClock:
    """Seeded virtual time for replay: recorded microseconds, scaled.

    ``advance_to(t_us)`` moves virtual now to the event's recorded
    arrival time divided by ``speed`` (``speed=2.0`` replays twice as
    fast), plus an optional deterministic jitter of up to ``jitter_us``
    drawn from the seeded generator -- the knob for "same trace, slightly
    perturbed arrivals" sensitivity runs.  Never sleeps; the replayer is
    deterministic precisely because time is data here, not a scheduler.
    """

    def __init__(
        self, speed: float = 1.0, seed: int = 0, jitter_us: int = 0
    ) -> None:
        if speed <= 0:
            raise ValueError("speed must be > 0")
        self.speed = float(speed)
        self.jitter_us = int(jitter_us)
        self._rng = random.Random(seed)
        self._now_us = 0

    @property
    def now_us(self) -> int:
        """Virtual microseconds since the replay started."""
        return self._now_us

    def now(self) -> float:
        """Virtual seconds (the shape a recorder ``clock`` wants)."""
        return self._now_us / 1e6

    def advance_to(self, t_us: int) -> int:
        """Move virtual time to the recorded instant ``t_us`` (scaled)."""
        target = int(t_us / self.speed)
        if self.jitter_us:
            target += self._rng.randint(0, self.jitter_us)
        self._now_us = max(self._now_us, target)
        return self._now_us


@dataclass
class ReplayConfig:
    """How to replay a trace (what service to drive, and how fast).

    Attributes:
        followers: read replicas to attach (0: reads hit the primary,
            which is what makes work/span round-trip comparisons exact).
        service: the primary's :class:`ServiceConfig` (``None``: a
            replay-friendly default with snapshots *disabled* so the
            full WAL chain is retained for the byte-identity check).
        speed: virtual-time multiplier (2.0 = replay twice as fast).
        seed: seeds the virtual clock's jitter stream.
        jitter_us: max deterministic arrival jitter per event (0: exact
            recorded arrivals).
        preserve_rounds: commit each recorded write event as one round
            with its op structure intact (the byte-identity mode).
            ``False`` re-batches ops under the target config's flush
            policy -- round boundaries then differ from the recording,
            and determinism is asserted against the replay's own WAL
            only.
        replication_budget: max rounds a follower ships per tick
            (``None``: unbounded; a controller's ``budget`` overrides).
        on_lag: the :class:`~repro.service.query.QueryService` lag
            policy for replayed reads (default ``"catch_up"``, the
            deterministic one).
    """

    followers: int = 0
    service: ServiceConfig | None = None
    speed: float = 1.0
    seed: int = 0
    jitter_us: int = 0
    preserve_rounds: bool = True
    replication_budget: int | None = None
    on_lag: str = "catch_up"


@dataclass(frozen=True)
class ReplayResult:
    """What one replay did and how it performed.

    ``fingerprint`` is the primary structure's
    :func:`state_fingerprint`; ``deterministic`` reports the WAL-oracle
    byte-identity check (``None`` when the WAL chain was truncated by
    snapshots, so the check could not run).  Latencies are real
    milliseconds of replay work (virtual time never appears in them).
    """

    fingerprint: tuple
    lsn: int
    rounds: int
    reads: int
    read_batches: int
    write_p50_ms: float
    write_p99_ms: float
    read_p50_ms: float
    read_p99_ms: float
    reads_per_s: float
    wall_s: float
    deterministic: bool | None
    decisions: tuple = ()
    stats: dict = field(default_factory=dict)


def _pct(samples: Sequence[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered))))
    return ordered[rank]


def state_fingerprint(structure: Any) -> tuple:
    """The byte-identity comparison key for a served structure.

    Logical state (window size, component count, sorted forest edge
    set) plus the RC tree's byte-level snapshot -- the same claim the
    chaos convergence suite makes, duck-typed so every sliding-window
    structure (and the MSF core) fingerprints with whatever of those
    surfaces it has.
    """
    parts: list = [type(structure).__name__]
    for attr in ("window_size", "num_components"):
        value = getattr(structure, attr, None)
        if value is not None and not callable(value):
            parts.append((attr, value))
    edges = getattr(structure, "forest_edges", None)
    if callable(edges):
        parts.append(("forest", tuple(sorted(edges()))))
    msf = getattr(structure, "_msf", structure)
    forest = getattr(msf, "forest", None)
    rc = getattr(forest, "rc", None)
    snapshot = getattr(rc, "snapshot", None)
    if callable(snapshot):
        parts.append(("rc", snapshot()))
    return tuple(parts)


def trace_oracle(
    factory: Callable[[], Any], events: Sequence[TraceEvent]
) -> tuple[Any, int]:
    """Ground truth from the trace alone: ops applied to a fresh structure.

    Returns ``(structure, rounds)``.  No WAL, no service -- the minimal
    deterministic interpretation of the recorded workload, which the
    default ``preserve_rounds`` replay must match byte-identically.
    """
    structure = factory()
    rounds = 0
    for ev in events:
        if ev.kind != "write":
            continue
        apply_ops(structure, ops_from_json(ev.body["ops"]))
        rounds += 1
    return structure, rounds


def factory_from_meta(meta: dict) -> Callable[[], Any]:
    """Rebuild the recording run's structure factory from trace meta.

    Recorders stash ``meta["factory"] = {"structure": <class name in
    repro.sliding_window>, "n": ..., "seed": ...}``; any other key (older
    traces also carry ``"engine"``) is ignored.
    """
    import repro.sliding_window as sliding_window

    spec = meta.get("factory", meta)
    try:
        cls = getattr(sliding_window, spec["structure"])
        n = int(spec["n"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(
            f"trace meta carries no usable factory spec: {spec!r}"
        ) from exc
    kwargs: dict = {}
    if "seed" in spec:
        kwargs["seed"] = int(spec["seed"])
    return lambda: cls(n, **kwargs)


class TraceReplayer:
    """Drives one recorded trace through a fresh replicated service.

    Args:
        trace: path to the ``.trace.jsonl`` file (or an already-read
            ``(meta, events)`` pair).
        factory: structure factory (``None``: rebuilt from the trace
            meta via :func:`factory_from_meta`).
        config: a :class:`ReplayConfig`; defaults throughout.
        data_dir: WAL/snapshot directory for the replayed service (a
            fresh temp-ish directory per replay; must be empty).
        controller: optional adaptive controller (live or scripted);
            its ``flush_interval`` steers the virtual flush deadline in
            re-batching mode and its ``budget`` caps replication ticks.
        chaos: optional :class:`~repro.chaos.schedule.ChaosSchedule` to
            fire while replaying (``preserve_rounds`` only); composes
            with ``faults`` exactly as the chaos soak does.
        faults: the :class:`~repro.chaos.faults.FaultyIO` the chaos
            schedule's fault windows arm (it should also be the service
            config's ``io``).
    """

    def __init__(
        self,
        trace: str | pathlib.Path | tuple[dict, Sequence[TraceEvent]],
        factory: Callable[[], Any] | None = None,
        config: ReplayConfig | None = None,
        data_dir: str | pathlib.Path | None = None,
        controller: Any | None = None,
        chaos: ChaosSchedule | None = None,
        faults: Any | None = None,
    ) -> None:
        if isinstance(trace, tuple):
            self.meta, self.events = trace[0], list(trace[1])
        else:
            self.meta, self.events = read_trace(trace)
        self.config = config or ReplayConfig()
        if factory is None:
            factory = factory_from_meta(self.meta)
        self.factory = factory
        if data_dir is None:
            raise ValueError(
                "replay needs a fresh data_dir for the replayed WAL"
            )
        self.data_dir = pathlib.Path(data_dir)
        self.controller = controller
        self.chaos = chaos
        self.faults = faults
        if chaos is not None and not self.config.preserve_rounds:
            raise ValueError(
                "chaos replay requires preserve_rounds=True (the driver "
                "commits one recorded round per step)"
            )

    def _service_config(self) -> ServiceConfig:
        if self.config.service is not None:
            return self.config.service
        # Replay default: keep the whole WAL chain (snapshots off) so the
        # fault-free WAL oracle can assert byte-identity afterwards.
        return ServiceConfig(snapshot_every=0)

    def run(self) -> ReplayResult:
        """Replay every event; returns the :class:`ReplayResult`.

        The served structures are torn down before returning -- the
        result (and the on-disk WAL in ``data_dir``) is the output.
        """
        cfg = self.config
        clock = VirtualClock(
            speed=cfg.speed, seed=cfg.seed, jitter_us=cfg.jitter_us
        )
        svc_cfg = self._service_config()
        svc = ReplicatedService(
            self.factory,
            self.data_dir,
            config=svc_cfg,
            followers=cfg.followers,
        )
        driver = (
            ChaosDriver(svc, self.chaos, self.faults)
            if self.chaos is not None
            else None
        )
        qs = QueryService(svc, on_lag=cfg.on_lag)
        write_ms: list[float] = []
        read_ms: list[float] = []
        reads = 0
        read_batches = 0
        rounds = 0
        step = 0
        pending_since_us: int | None = None
        m = get_metrics()
        t_start = time.perf_counter()
        try:
            for ev in self.events:
                clock.advance_to(ev.t_us)
                if ev.kind == "write":
                    ops = ops_from_json(ev.body["ops"])
                    t0 = time.perf_counter()
                    if driver is not None:
                        driver.step_ops(step, ops)
                        step += 1
                    elif cfg.preserve_rounds:
                        svc.write_ops(ops)
                        self._tick(svc)
                    else:
                        self._submit(svc, ops)
                        if pending_since_us is None:
                            pending_since_us = clock.now_us
                        pending_since_us = self._maybe_flush(
                            svc, clock, pending_since_us
                        )
                        self._tick(svc)
                    wall_ms = (time.perf_counter() - t0) * 1e3
                    write_ms.append(wall_ms)
                    rounds += 1
                    if self.controller is not None:
                        self.controller.observe_round(wall_ms)
                        lag = svc.lag()
                        if lag:
                            self.controller.observe_lag(max(lag.values()))
                elif ev.kind == "read":
                    if not cfg.preserve_rounds:
                        # A read observes the recorded prefix: force the
                        # pending re-batch out before answering.
                        svc.primary.drain()
                        pending_since_us = None
                        self._tick(svc)
                    queries = [tuple(q) for q in ev.body["queries"]]
                    at_least = ev.body.get("at_least")
                    if at_least is not None:
                        # Recorded under a different round structure the
                        # token may outrun this replay's tip; clamp to
                        # what is durable here.
                        at_least = min(
                            int(at_least), svc.primary.next_lsn - 1
                        )
                        if at_least < 0:
                            at_least = None
                    t0 = time.perf_counter()
                    res = qs.run(
                        queries,
                        at_least=at_least,
                        max_staleness=ev.body.get("max_staleness"),
                    )
                    read_ms.append((time.perf_counter() - t0) * 1e3)
                    reads += len(res.answers)
                    read_batches += 1
                # "control" events carry the *recorded* run's decisions;
                # a ScriptedController (built from these same events)
                # re-applies them below, so here they are data, not code.
                if self.controller is not None:
                    self.controller.on_event(ev.seq)
                m.counter("trace.events_replayed").inc()
            if not cfg.preserve_rounds:
                svc.primary.drain()
            if driver is not None:
                driver.finish()
            else:
                self._tick(svc, budget=None)  # final unbounded drain
            fp = state_fingerprint(svc.primary.structure)
            tip = svc.primary.next_lsn
            deterministic = self._check_wal_oracle(fp, svc_cfg)
            stats = dict(driver.stats) if driver is not None else {}
        finally:
            svc.close()
        wall_s = time.perf_counter() - t_start
        read_wall_s = sum(read_ms) / 1e3
        return ReplayResult(
            fingerprint=fp,
            lsn=tip,
            rounds=rounds,
            reads=reads,
            read_batches=read_batches,
            write_p50_ms=_pct(write_ms, 0.50),
            write_p99_ms=_pct(write_ms, 0.99),
            read_p50_ms=_pct(read_ms, 0.50),
            read_p99_ms=_pct(read_ms, 0.99),
            reads_per_s=(reads / read_wall_s) if read_wall_s > 0 else 0.0,
            wall_s=wall_s,
            deterministic=deterministic,
            decisions=tuple(getattr(self.controller, "decisions", ())),
            stats=stats,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @staticmethod
    def _submit(svc: ReplicatedService, ops) -> None:
        for kind, payload in ops:
            if kind == "i":
                svc.primary.submit_insert(payload)
            else:
                svc.primary.submit_expire(payload)

    def _maybe_flush(
        self,
        svc: ReplicatedService,
        clock: VirtualClock,
        pending_since_us: int | None,
    ) -> int | None:
        """Re-batching mode's deadline trigger, in *virtual* time.

        The live service's deadline flush rides a background thread and
        wall clocks; the replay keeps the same semantics deterministic
        by flushing when virtual time since the first pending item
        exceeds the (possibly controller-tuned) flush interval.
        """
        if pending_since_us is None or svc.primary.queue_depth == 0:
            return None
        interval = (
            self.controller.flush_interval
            if self.controller is not None
            else self._service_config().flush_interval
        )
        if clock.now_us - pending_since_us >= interval * 1e6:
            svc.primary.flush()
            return None
        return pending_since_us

    def _tick(
        self, svc: ReplicatedService, budget: int | None = 0
    ) -> None:
        """One replication tick: followers ship up to ``budget`` rounds.

        ``budget=0`` (the per-event default) resolves to the
        controller's budget, else the config's, else unbounded.
        """
        if not svc.followers:
            return
        if budget == 0:
            if self.controller is not None:
                budget = int(self.controller.budget)
            else:
                budget = self.config.replication_budget
        for f in svc.followers:
            if f.alive:
                f.catch_up(budget)

    def _check_wal_oracle(
        self, fp: tuple, svc_cfg: ServiceConfig
    ) -> bool | None:
        """Byte-identity of the served state against the fault-free WAL
        oracle; ``None`` when snapshots truncated the chain."""
        try:
            oracle, _ = replay_oracle(self.factory, self.data_dir)
        except WalTruncated:
            return None
        return state_fingerprint(oracle) == fp


def replay_trace(
    trace: str | pathlib.Path,
    data_dir: str | pathlib.Path,
    factory: Callable[[], Any] | None = None,
    config: ReplayConfig | None = None,
    **kw: Any,
) -> ReplayResult:
    """One-call replay: :class:`TraceReplayer` constructed and run."""
    return TraceReplayer(
        trace, factory=factory, config=config, data_dir=data_dir, **kw
    ).run()
