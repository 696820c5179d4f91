"""Durable streaming ingestion for the sliding-window structures.

:class:`StreamService` turns any Section 5 window structure (or anything
with the same ``batch_insert``/``batch_expire`` surface) into a small
service:

- **Adaptive micro-batching.**  Producers ``submit_insert`` /
  ``submit_expire`` into a pending buffer; a flush commits *everything*
  pending as one round, so batch size adapts to backlog automatically --
  exactly the lever the paper's ``O(l lg(1 + n/l))`` per-batch work bound
  rewards (larger ``l`` amortizes the logarithmic factor).  Flushes are
  size-triggered (``flush_edges``) and, when the background apply thread
  is running, deadline-triggered (``flush_interval``).
- **Single-writer apply loop.**  All mutation -- WAL append, structure
  apply, snapshot -- happens under one writer lock, either inline on the
  submitting thread (synchronous mode, deterministic, the default) or on
  the dedicated thread started by :meth:`StreamService.start`.
- **Durability.**  With a ``data_dir``, every round is appended to a
  write-ahead log *before* it is applied, and the structure is pickled to
  a checkpoint every ``snapshot_every`` rounds.  After a crash,
  :meth:`StreamService.open` restores the newest checkpoint and replays
  the WAL suffix; because the structures are deterministic given the op
  sequence, the recovered state answers queries byte-identically to an
  uninterrupted run.
- **Backpressure.**  The pending buffer is bounded (``max_pending``
  items: one per edge, one per expire op).  On overflow the service first
  sheds pending *expirations* if allowed (graceful degradation: the
  window goes stale rather than losing arrivals), then either flushes
  inline (synchronous mode) or raises :class:`Backpressure` (threaded
  mode) as admission control.

Failure injection: ``failpoints[point] = fn`` installs a predicate that,
when ``fn(lsn)`` is true, kills the apply loop at that point by raising
:class:`InjectedCrash` (the service then refuses further traffic, like a
dead process).  Points, in commit order: ``before-wal-append``,
``after-wal-append``, ``mid-apply``, ``after-apply``, ``before-snapshot``,
``after-snapshot``.  See ``docs/service.md`` for the full protocol.
"""

from __future__ import annotations

import pathlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro.obs.metrics import get_metrics
from repro.runtime.cost import CostModel
from repro.service.resilience import RetryPolicy, is_transient_io
from repro.service.snapshot import SnapshotStore
from repro.service.storage import StorageIO
from repro.service.wal import (
    OP_EXPIRE,
    OP_INSERT,
    Op,
    SegmentedWal,
    list_segments,
    read_wal_dir,
)

WAL_DIRNAME = "wal"
SNAPSHOT_DIRNAME = "snapshots"


def wal_directory(data_dir: str | pathlib.Path) -> pathlib.Path:
    """The segmented-WAL directory of a service ``data_dir``."""
    return pathlib.Path(data_dir) / WAL_DIRNAME


#: Failpoint names, in the order the apply loop passes them per round.
FAILPOINTS = (
    "before-wal-append",
    "after-wal-append",
    "mid-apply",
    "after-apply",
    "before-snapshot",
    "after-snapshot",
)


class Backpressure(RuntimeError):
    """Admission control refused an op: the pending buffer is full."""


class InjectedCrash(RuntimeError):
    """A failpoint fired: the apply loop died mid-commit (simulated)."""


class ServiceClosed(RuntimeError):
    """The service is closed (or crashed) and takes no more traffic."""


@dataclass
class ServiceConfig:
    """Tuning knobs for :class:`StreamService`.

    Attributes:
        flush_edges: size trigger -- flush once this many pending items
            accumulate (an insert edge and an expire op each count 1).
        flush_interval: deadline trigger in seconds -- the background
            apply thread flushes any round that has been pending this
            long.  Ignored until :meth:`StreamService.start`.
        max_pending: bounded-queue capacity in items; overflow engages
            shedding, then inline flush (sync) or :class:`Backpressure`
            (threaded).
        shed_expirations: allow dropping pending expire ops under
            overload (insertions are never shed).  Shed counts appear in
            the ``service.expirations_shed`` metric.
        snapshot_every: checkpoint the structure every this many rounds
            (0 disables snapshots; the WAL alone still recovers, just
            with a full replay).
        retain_snapshots: how many checkpoints to keep on disk.
        fsync: force WAL appends and snapshots through the OS cache
            (slower, survives power loss rather than just process death).
        io: the storage seam every WAL/snapshot byte routes through
            (``None``: real I/O).  :class:`repro.chaos.faults.FaultyIO`
            plugs in here for deterministic fault injection.
        retry: a :class:`~repro.service.resilience.RetryPolicy` applied
            to *transient* WAL I/O errors in the commit path (``None``:
            no retries; the first storage error kills the service, the
            pre-resilience behaviour).  Corruption is never retried.
        recorder: optional trace-capture hook (duck-typed, normally a
            :class:`repro.trace.recorder.TraceRecorder`): after each
            round commits, ``recorder.record_round(lsn, ops)`` is called
            with the committed LSN and the flushed op list.  Capture is
            best-effort -- a recorder failure increments
            ``trace.record_failures`` and never fails the commit, since
            the round is already durable in the WAL.
    """

    flush_edges: int = 256
    flush_interval: float = 0.05
    max_pending: int = 4096
    shed_expirations: bool = False
    snapshot_every: int = 64
    retain_snapshots: int = 2
    fsync: bool = False
    io: StorageIO | None = None
    retry: RetryPolicy | None = None
    recorder: Any | None = None


def apply_ops(structure: Any, ops: Sequence[Op]) -> None:
    """Apply one round's ordered ops to ``structure`` (also used by replay)."""
    for kind, payload in ops:
        if kind == OP_INSERT:
            structure.batch_insert(payload)
        elif kind == OP_EXPIRE:
            structure.batch_expire(payload)
        else:  # pragma: no cover - records are validated on decode
            raise ValueError(f"unknown op kind {kind!r}")


class StreamService:
    """A durable, micro-batching front-end over one window structure.

    Args:
        structure: the sliding-window structure to serve; the service is
            its single writer from here on.
        data_dir: directory for the WAL and snapshots; ``None`` runs the
            service memory-only (micro-batching and backpressure without
            durability).  A directory that already holds a WAL must be
            reopened with :meth:`open` (which recovers) -- passing it
            here raises, so stale state is never silently shadowed.
        config: a :class:`ServiceConfig`; defaults throughout.

    Producers may call :meth:`submit_insert` / :meth:`submit_expire` from
    any thread.  Queries go through :meth:`query` (or :meth:`paused`),
    which serialize against the apply loop.
    """

    def __init__(
        self,
        structure: Any,
        data_dir: str | pathlib.Path | None = None,
        config: ServiceConfig | None = None,
        *,
        _resume: bool = False,
    ) -> None:
        self.structure = structure
        self.config = config if config is not None else ServiceConfig()
        cost = getattr(structure, "cost", None)
        self.cost: CostModel = cost if cost is not None else CostModel()

        self._wal: SegmentedWal | None = None
        self._snapshots: SnapshotStore | None = None
        self.data_dir = (
            pathlib.Path(data_dir) if data_dir is not None else None
        )
        if self.data_dir is not None:
            self._wal = SegmentedWal(
                wal_directory(self.data_dir),
                fsync=self.config.fsync,
                io=self.config.io,
            )
            if self._wal.next_lsn and not _resume:
                self._wal.close()
                raise ValueError(
                    f"{data_dir} already holds {self._wal.next_lsn} WAL rounds; "
                    "use StreamService.open() to recover them"
                )
            self._snapshots = SnapshotStore(
                self.data_dir / SNAPSHOT_DIRNAME,
                retain=self.config.retain_snapshots,
                fsync=self.config.fsync,
                io=self.config.io,
            )
        self._next_lsn = self._wal.next_lsn if self._wal else 0
        self._epoch = self._wal.epoch if self._wal else 0

        # Pending micro-batch: ordered ops, same-kind neighbours coalesced.
        self._pending: list[list] = []  # [kind, payload] with mutable payload
        self._pending_items = 0
        self._pending_since: float | None = None
        self._cond = threading.Condition(threading.Lock())
        self._writer = threading.RLock()

        self._thread: threading.Thread | None = None
        self._stop = False
        self._dead = False
        self._error: BaseException | None = None
        self._closed = False
        self._rounds_applied = 0
        self._rounds_since_snapshot = 0
        self.recovered_rounds = 0
        #: Wall-clock seconds of each committed flush (for latency tails).
        self.flush_wall: list[float] = []
        #: ``name -> fn(lsn) -> bool`` crash predicates (failure injection).
        self.failpoints: dict[str, Callable[[int], bool]] = {}

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    @classmethod
    def open(
        cls,
        data_dir: str | pathlib.Path,
        factory: Callable[[], Any],
        config: ServiceConfig | None = None,
    ) -> "StreamService":
        """Recover (or freshly create) a durable service in ``data_dir``.

        ``factory`` builds the empty structure -- it must be deterministic
        and match the one that produced the log (same ``n``, ``seed``).
        Recovery loads the newest loadable checkpoint (if any), replays
        every durable WAL round past it, and returns a
        service ready for traffic; a torn WAL tail from a crash
        mid-append is truncated.  Query answers after recovery are
        byte-identical to a run that never crashed.
        """
        cfg = config if config is not None else ServiceConfig()
        data_dir = pathlib.Path(data_dir)
        store = SnapshotStore(
            data_dir / SNAPSHOT_DIRNAME,
            retain=cfg.retain_snapshots,
            fsync=cfg.fsync,
            io=cfg.io,
        )
        wal_dir = wal_directory(data_dir)
        records, base = read_wal_dir(wal_dir, cfg.io)
        fences = [(s.start, s.epoch) for s in list_segments(wal_dir)]

        def _covers(lsn: int, epoch: int) -> bool:
            # A checkpoint is trustworthy iff the round it claims to end
            # at sits on the *winning* WAL chain under the same epoch --
            # anything else was taken by a fenced ex-primary after losing
            # a promotion (its state includes discarded rounds).
            if any(fe > epoch and lsn >= fs for fs, fe in fences):
                return False  # fenced: a newer epoch owns rounds <= lsn
            if lsn < base:
                return True  # predates the retained log; nothing to check
            i = lsn - base
            return i < len(records) and records[i].epoch == epoch

        snap = store.load_latest(valid=_covers)
        if snap is None:
            applied_lsn, structure = -1, factory()
        else:
            applied_lsn, structure = snap
        if applied_lsn + 1 < base:
            raise ValueError(
                f"{data_dir}: no loadable snapshot covers rounds up to the "
                f"WAL base {base}; cannot recover"
            )
        cost = getattr(structure, "cost", None)
        recovered = 0
        if cost is not None:
            ctx = cost.phase("service-recover")
        else:  # pragma: no cover - every shipped structure carries a cost
            ctx = None
        with ctx if ctx is not None else _null_phase() as ph:
            for rec in records:
                if rec.lsn <= applied_lsn:
                    continue
                apply_ops(structure, rec.ops)
                recovered += 1
            if ph is not None:
                ph.count(recovered)
        svc = cls(structure, data_dir=data_dir, config=cfg, _resume=True)
        svc.recovered_rounds = recovered
        get_metrics().counter("service.recovered_rounds").inc(recovered)
        return svc

    @classmethod
    def adopt(
        cls,
        structure: Any,
        data_dir: str | pathlib.Path,
        *,
        lsn: int,
        epoch: int,
        config: ServiceConfig | None = None,
    ) -> "StreamService":
        """Take over ``data_dir`` as the *new primary* at round ``lsn``.

        The promotion primitive of :mod:`repro.replication`:
        ``structure`` (a promoted follower's state, rounds ``0..lsn-1``
        applied) becomes the service's structure, the WAL is reset to a
        fresh segment starting at ``lsn`` under the strictly newer
        ``epoch`` -- fencing any appends the old primary makes afterwards
        -- and checkpoints covering discarded rounds are deleted so a
        later recovery cannot resurrect them.
        """
        svc = cls(structure, data_dir=data_dir, config=config, _resume=True)
        assert svc._wal is not None and svc._snapshots is not None
        svc._wal.reset_to(lsn, epoch)
        svc._snapshots.drop_from(lsn)
        svc._next_lsn = lsn
        svc._epoch = epoch
        get_metrics().counter("service.promotions").inc()
        return svc

    # ------------------------------------------------------------------
    # Producer surface
    # ------------------------------------------------------------------

    def submit_insert(self, edges: Sequence[Sequence]) -> None:
        """Enqueue edge arrivals ``(u, v[, w])`` for the next round.

        Raises :class:`Backpressure` when the buffer is full and the
        background apply thread is running (synchronous services flush
        inline instead and always accept).
        """
        rows = tuple(tuple(e) for e in edges)
        if not rows:
            return
        for i, row in enumerate(rows):
            if len(row) not in (2, 3):
                raise ValueError(
                    f"edge row {i} has {len(row)} fields, expected "
                    f"(u, v) or (u, v, w): {row!r}"
                )
        self._enqueue(OP_INSERT, rows, items=len(rows))
        get_metrics().counter("service.edges_accepted").inc(len(rows))

    def submit_expire(self, delta: int) -> None:
        """Enqueue an expiration of the ``delta`` oldest window items."""
        if delta < 0:
            raise ValueError("cannot expire a negative number of edges")
        if delta == 0:
            return
        self._enqueue(OP_EXPIRE, int(delta), items=1)

    def submit(self, batch: Any) -> None:
        """Enqueue one :class:`~repro.graphgen.streams.EdgeBatch` round."""
        self.submit_insert(batch.edges)
        if batch.expire:
            self.submit_expire(batch.expire)

    def _enqueue(self, kind: str, payload: Any, items: int) -> None:
        while True:
            self._check_alive()
            admitted = False
            flush_inline = False
            with self._cond:
                if self._admit(kind, items):
                    self._push(kind, payload, items)
                    admitted = True
                    if self._pending_items >= self.config.flush_edges:
                        if self._thread is not None:
                            self._cond.notify_all()
                        else:
                            flush_inline = True
                elif self.config.shed_expirations and kind == OP_EXPIRE:
                    # Under overload the incoming expiration itself is shed.
                    self._drop_pending_expires(extra=payload)
                    return
                elif self.config.shed_expirations and self._drop_pending_expires():
                    continue  # shedding freed room; retry admission
                elif self._thread is not None:
                    get_metrics().counter("service.rejected").inc()
                    raise Backpressure(
                        f"pending buffer full ({self._pending_items}/"
                        f"{self.config.max_pending} items)"
                    )
            if admitted:
                if flush_inline:
                    self.flush()
                return
            self.flush()  # sync-mode overflow: drain inline, retry admission

    def _admit(self, kind: str, items: int) -> bool:
        if self._pending_items + items <= self.config.max_pending:
            return True
        # An oversized single batch is admitted into an empty buffer.
        return not self._pending and items > self.config.max_pending

    def _push(self, kind: str, payload: Any, items: int) -> None:
        if self._pending and self._pending[-1][0] == kind:
            if kind == OP_INSERT:
                self._pending[-1][1].extend(payload)
            else:
                self._pending[-1][1] += payload
                items = 0  # merged expires stay one op
        else:
            self._pending.append(
                [kind, list(payload) if kind == OP_INSERT else payload]
            )
        self._pending_items += items
        if self._pending_since is None:
            self._pending_since = time.monotonic()
        get_metrics().gauge("service.queue_depth").set(self._pending_items)

    def _drop_pending_expires(self, extra: int = 0) -> bool:
        """Shed every pending expire op (graceful degradation under load).

        ``extra`` adds an incoming, never-enqueued expiration to the shed
        count.  Returns True when the buffer actually shrank.
        """
        had_expires = any(k == OP_EXPIRE for k, _ in self._pending)
        shed = extra
        if had_expires:
            kept = [op for op in self._pending if op[0] == OP_INSERT]
            shed += sum(p for k, p in self._pending if k == OP_EXPIRE)
            self._pending = kept
            self._pending_items = sum(len(p) for _, p in kept)
            get_metrics().gauge("service.queue_depth").set(self._pending_items)
        if shed:
            get_metrics().counter("service.expirations_shed").inc(shed)
        return had_expires

    # ------------------------------------------------------------------
    # The single-writer apply loop
    # ------------------------------------------------------------------

    def flush(self) -> int:
        """Commit everything pending as one round; returns its LSN.

        Returns -1 when nothing was pending.  The whole WAL-append /
        apply / snapshot sequence runs under the writer lock, so flushes
        from producers and the background thread serialize.
        """
        self._check_alive()
        with self._writer:
            with self._cond:
                ops = self._take_pending()
            if not ops:
                return -1
            return self._commit(ops)

    def drain(self) -> None:
        """Flush until the pending buffer is empty (a durability barrier)."""
        while True:
            with self._cond:
                empty = not self._pending
            if empty:
                return
            self.flush()

    def _take_pending(self) -> list[Op]:
        ops = [
            (kind, tuple(payload) if kind == OP_INSERT else payload)
            for kind, payload in self._pending
        ]
        self._pending.clear()
        self._pending_items = 0
        self._pending_since = None
        return ops

    def _commit(self, ops: Sequence[Op]) -> int:
        t0 = time.perf_counter()
        lsn = self._next_lsn
        n_edges = sum(len(p) for k, p in ops if k == OP_INSERT)
        try:
            self._fail("before-wal-append", lsn)
            if self._wal is not None:
                # A transient storage fault (EIO/ENOSPC/torn write/failed
                # fsync) is retried under the configured policy: the WAL
                # repaired itself back to the durable prefix, so the
                # retry re-appends the same LSN onto a clean tail.
                # Corruption and injected crashes are never retried.
                if self.config.retry is not None:
                    self.config.retry.call(
                        lambda: self._wal.append(ops, epoch=self._epoch)
                    )
                else:
                    self._wal.append(ops, epoch=self._epoch)
                get_metrics().gauge("service.wal_bytes").set(
                    self._wal.bytes_written
                )
            self._fail("after-wal-append", lsn)
            with self.cost.phase("service-flush", items=n_edges):
                applied = 0
                for kind, payload in ops:
                    if kind == OP_INSERT:
                        self.structure.batch_insert(payload)
                    else:
                        self.structure.batch_expire(payload)
                    applied += 1
                    if applied == 1:
                        self._fail("mid-apply", lsn)
            self._next_lsn = lsn + 1
            self._rounds_applied += 1
            self._rounds_since_snapshot += 1
            self._fail("after-apply", lsn)

            if (
                self._snapshots is not None
                and self.config.snapshot_every
                and self._rounds_since_snapshot >= self.config.snapshot_every
            ):
                self._fail("before-snapshot", lsn)
                try:
                    self._snapshot_and_rotate(lsn)
                except OSError as exc:
                    if not is_transient_io(exc):
                        raise
                    # Snapshot/rotation maintenance failing transiently
                    # (even past the retry budget) must not kill the
                    # service: the WAL already holds every round, so the
                    # only cost is a longer replay.  A failed save leaves
                    # the counter >= snapshot_every, so the next round
                    # tries again; a failed rotation waits for the next
                    # checkpoint.
                    get_metrics().counter("service.snapshots_skipped").inc()
                self._fail("after-snapshot", lsn)
        except Exception as exc:
            # Any failure mid-commit (injected or real) leaves the WAL,
            # structure, and counters possibly out of step; the only safe
            # state is dead -- further traffic gets ServiceClosed and the
            # on-disk log stays the source of truth for recovery.
            self._dead = True
            self._error = exc
            if self._wal is not None:
                self._wal.close()
            raise

        wall = time.perf_counter() - t0
        self.flush_wall.append(wall)
        if self.config.recorder is not None:
            # The round is durable; trace capture must not un-commit it.
            try:
                self.config.recorder.record_round(lsn, ops)
            except Exception:
                get_metrics().counter("trace.record_failures").inc()
        m = get_metrics()
        m.counter("service.rounds").inc()
        m.histogram("service.flush_edges").observe(n_edges)
        m.histogram("service.flush_latency_ms").observe(wall * 1e3)
        m.gauge("service.queue_depth").set(self._pending_items)
        return lsn

    def _snapshot_and_rotate(self, lsn: int) -> None:
        """Checkpoint the structure, then rotate/truncate the WAL.

        Runs under the commit path's writer lock.  Retried as a unit
        under the configured :class:`RetryPolicy` (each step is
        idempotent: a re-save overwrites atomically, a re-rotation
        reopens the same segment).
        """
        def once() -> None:
            # A fenced writer (it lost a promotion; a newer-epoch WAL
            # segment exists) may still checkpoint -- recovery rejects
            # its checkpoints by epoch -- but must not prune, rotate,
            # or truncate: that would destroy the shared prefix the
            # winning timeline recovers from.
            fenced = self._wal is not None and self._wal.is_fenced
            with self.cost.phase("service-snapshot"):
                self._snapshots.save(
                    self.structure, lsn, epoch=self._epoch,
                    prune=not fenced,
                )
            self._rounds_since_snapshot = 0
            get_metrics().counter("service.snapshots").inc()
            if fenced:
                get_metrics().counter("service.fenced_retention_skips").inc()
            elif self._wal is not None:
                # Bound WAL growth: rounds up to the *oldest retained*
                # checkpoint can never be replayed again (load_latest
                # falls back at most that far), so seal the current
                # segment and drop wholly dead ones.
                self._wal.rotate()
                oldest = self._snapshots.lsns()[0]
                dropped = self._wal.truncate_before(oldest + 1)
                m = get_metrics()
                m.counter("service.wal_rotations").inc()
                if dropped:
                    m.counter("service.wal_segments_truncated").inc(dropped)

        if self.config.retry is not None:
            self.config.retry.call(once)
        else:
            once()

    def _fail(self, point: str, lsn: int) -> None:
        fn = self.failpoints.get(point)
        if fn is not None and fn(lsn):
            # _commit's except clause marks the service dead and closes
            # the WAL, exactly as for a real (non-injected) failure.
            raise InjectedCrash(f"injected crash at {point!r}, lsn={lsn}")

    # ------------------------------------------------------------------
    # Background thread, queries, lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "StreamService":
        """Start the background apply thread (deadline flushes); returns self."""
        self._check_alive()
        with self._cond:  # two racing start()s must not spawn two loops
            if self._thread is None:
                self._stop = False
                self._thread = threading.Thread(
                    target=self._loop, name="repro-service-apply", daemon=True
                )
                self._thread.start()
        return self

    def _loop(self) -> None:
        interval = self.config.flush_interval or 0.05
        while not self._dead:
            with self._cond:
                if not self._pending:
                    if self._stop:
                        return
                    self._cond.wait(timeout=interval)
                if not self._pending:
                    continue
                age = time.monotonic() - (self._pending_since or 0.0)
                due = (
                    self._stop
                    or self._pending_items >= self.config.flush_edges
                    or age >= interval
                )
                if not due:
                    self._cond.wait(timeout=max(1e-4, interval - age))
                    continue
            try:
                self.flush()
            except (InjectedCrash, ServiceClosed):
                return
            except Exception as exc:  # flush already marked the service dead
                self._dead = True
                if self._error is None:
                    self._error = exc
                return

    def stop(self) -> None:
        """Stop the background thread, flushing what is pending first."""
        with self._cond:
            t = self._thread
            if t is None:
                return
            self._stop = True
            self._cond.notify_all()
        t.join()
        with self._cond:
            self._thread = None
            self._stop = False

    def query(self, fn: Callable[[Any], Any]) -> Any:
        """Run ``fn(structure)`` serialized against the apply loop."""
        with self._writer:
            return fn(self.structure)

    @contextmanager
    def paused(self) -> Iterator[Any]:
        """Hold the apply loop still; yields the structure for reading."""
        with self._writer:
            yield self.structure

    def close(self) -> None:
        """Stop, drain, and release the WAL (idempotent; safe after a crash)."""
        if self._closed:
            return
        self.stop()
        if not self._dead:
            try:
                self.drain()
            finally:
                self._closed = True
        else:
            self._closed = True
        if self._wal is not None:
            self._wal.close()

    def _check_alive(self) -> None:
        if self._dead:
            cause = self._error
            msg = "service crashed; recover with StreamService.open()"
            if cause is not None:
                msg += f" (cause: {cause!r})"
            raise ServiceClosed(msg) from cause
        if self._closed:
            raise ServiceClosed("service is closed")

    def __enter__(self) -> "StreamService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def next_lsn(self) -> int:
        """LSN the next committed round will carry (== durable rounds)."""
        return self._next_lsn

    @property
    def epoch(self) -> int:
        """The fencing epoch stamped into every WAL record this service
        appends (bumped only by promotion; see :mod:`repro.replication`)."""
        return self._epoch

    @property
    def wal_dir(self) -> pathlib.Path | None:
        """Directory of WAL segments followers tail (``None`` in-memory)."""
        return self._wal.directory if self._wal is not None else None

    @property
    def rounds_applied(self) -> int:
        """Rounds applied by *this* process (excludes recovery replay)."""
        return self._rounds_applied

    @property
    def queue_depth(self) -> int:
        """Items currently pending (insert edges + expire ops)."""
        with self._cond:
            return self._pending_items

    @property
    def durable(self) -> bool:
        """Whether the service carries a WAL (was given a ``data_dir``)."""
        return self._wal is not None

    @property
    def alive(self) -> bool:
        """Whether the service still takes traffic (not crashed or closed).

        The router's health probe: :class:`~repro.service.query.QueryService`
        consults this before reading the primary, because a service that
        died mid-commit may hold a structure one half-applied round ahead
        of its durable log.
        """
        return not self._dead and not self._closed

    @property
    def error(self) -> BaseException | None:
        """The exception that killed the service, or ``None`` while alive."""
        return self._error


@contextmanager
def _null_phase() -> Iterator[None]:
    yield None
