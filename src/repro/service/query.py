"""Consistent batch reads over a replicated window structure.

:class:`QueryService` is the read-side twin of the ingest path: clients
submit *batches* of queries -- exactly the shape the RC-tree batch read
kernels reward, since ``l`` path/connectivity queries share one
level-synchronous sweep costing ``O(l lg(1 + n/l))`` total (the
Theorem 3.2 grouping over ``docs/batch_queries.md``'s vectorized
kernels) rather than ``l`` independent ``O(lg n)`` searches -- and the
service routes each batch to the **least-lagged live follower**, falling
back to the primary when no replica can serve.

Consistency is by LSN token.  Every ``ReplicatedService.write`` returns
the LSN of its round; a read tagged ``at_least=lsn`` is answered only by
a replica that has replayed *past* that round (read-your-writes).  When
the best replica is behind, the ``on_lag`` policy decides:

- ``"catch_up"`` (default): replay the missing rounds inline on the
  chosen replica -- deterministic, ideal for tests and examples;
- ``"wait"``: block until some replica catches up (the background
  replication threads do the work), raising :class:`StalenessExceeded`
  at ``wait_timeout`` -- the realistic server policy, used by the read
  benchmark;
- ``"redirect"``: answer from the primary (strongly consistent, but
  contends with ingest -- the degenerate mode the follower tier exists
  to avoid).

``max_staleness=k`` is the inverse escape hatch: a *bounded-staleness*
read that any replica within ``k`` rounds of the primary's durable tip
may answer, regardless of tokens.

The router also carries the read side of the resilience story
(``docs/resilience.md``):

- a per-replica :class:`~repro.service.resilience.CircuitBreaker`
  (optional) skips replicas that keep failing instead of paying their
  failure latency on every batch, and a replica that throws mid-read is
  recorded and routed around within the same call;
- ``on_primary_down="degrade"`` keeps reads flowing when the primary is
  dead and no failover has happened yet: the batch is answered by the
  most-caught-up live follower and the result is flagged
  ``stale=True`` -- explicitly weaker than read-your-writes, but
  available;
- ``max_inflight`` sheds excess concurrent batches with
  :class:`~repro.service.resilience.ServiceOverloaded` (carrying a
  ``retry_after`` hint) instead of queueing without bound.

Query batches are lists of tuples::

    ("connected", u, v)     window connectivity (batched: one shared sweep)
    ("path_max", u, v)      heaviest (weight, eid) on the tree path
    ("components",)         number of connected components
    ("weight",)             (approximate) MSF weight
    ("certificate",)        k-connectivity certificate edge set
    ("k_connected",)        whether the window graph is k-connected
    ("lower_bound",)        certified connectivity lower bound
    ("has_cycle",)          cycle-freeness monitor
    ("is_bipartite",)       bipartiteness monitor
    ("window_size",)        unexpired stream items

A query the served structure cannot answer raises
:class:`UnsupportedQuery` (e.g. ``("components",)`` against the lazy
Theorem 5.1 structure, which does not track them).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.obs.metrics import get_metrics
from repro.runtime.cost import CostModel
from repro.service.resilience import CircuitBreaker, ServiceOverloaded
from repro.service.service import ServiceClosed


#: Returned by a replica's non-blocking ``try_query`` when its lock is
#: held (a replay in progress).  Defined here -- the service layer -- so
#: both the router and :class:`repro.replication.follower.Follower` can
#: share it without the service package importing the replication one.
BUSY = object()


class UnsupportedQuery(ValueError):
    """The served structure has no method answering this query kind."""


class StalenessExceeded(RuntimeError):
    """No replica reached the required LSN within ``wait_timeout``."""


@dataclass(frozen=True)
class ReadResult:
    """One answered batch.

    Attributes:
        answers: per-query answers, aligned with the submitted batch.
        lsn: rounds the serving replica had replayed at answer time
            (its consistency point; ``>= at_least + 1`` when a token was
            given).
        replica: ``"follower<fid>"`` or ``"primary"``.
        stale: True only for a degraded read (``on_primary_down=
            "degrade"`` with the primary dead): the answer may predate
            the requested token, and the client must treat it as
            best-effort.
    """

    answers: list
    lsn: int
    replica: str
    stale: bool = False


#: ``kind -> (attribute, is_property)`` for the zero-argument queries.
_SCALAR_QUERIES = {
    "components": ("num_components", True),
    "weight": ("weight", False),
    "certificate": ("make_certificate", False),
    "k_connected": ("is_k_connected", False),
    "lower_bound": ("connectivity_lower_bound", False),
    "has_cycle": ("has_cycle", False),
    "is_bipartite": ("is_bipartite", False),
    "window_size": ("window_size", True),
    # The sharded tier's contraction input (repro.sharding): the served
    # structure's maintained MSF edge set as (u, v, w, eid) rows.
    "forest": ("shard_forest", False),
}


#: ``kind -> (batched method, per-query fallback)`` for the pair reads.
_READ_GROUPS = {
    "connected": ("batch_is_connected", "is_connected"),
    "path_max": ("batch_heaviest_edges", "heaviest_edge"),
}


def _group_reads(structure: Any, grouped: dict, answers: list) -> None:
    """Dispatch the grouped pair reads through the structure's batched
    entry points (the vectorized read path).

    ``grouped`` maps a kind of :data:`_READ_GROUPS` to its
    ``(query index, u, v)`` items.  Each group prefers the structure's
    ``batch_*`` method (one shared RC-tree sweep for the whole group);
    a group whose batched method is missing falls back to the per-query
    method **and emits a ``query.fallback`` metric** -- a structure with
    mixed batch capability (say ``batch_is_connected`` but no
    ``batch_heaviest_edges``) must not silently degrade half its reads
    to per-query traversals.
    """
    m = get_metrics()
    for kind, items in grouped.items():
        if not items:
            continue
        batch_name, single_name = _READ_GROUPS[kind]
        batch = getattr(structure, batch_name, None)
        if batch is not None:
            results = batch([(u, v) for _, u, v in items])
        else:
            single = getattr(structure, single_name, None)
            if single is None:
                raise UnsupportedQuery(
                    f"{type(structure).__name__} cannot answer {kind!r}"
                )
            m.counter("query.fallback").inc(len(items))
            m.counter(f"query.fallback.{kind}").inc(len(items))
            results = [single(u, v) for _, u, v in items]
        for (i, _, _), r in zip(items, results):
            answers[i] = r


def answer_queries(structure: Any, queries: Sequence[tuple]) -> list:
    """Answer one batch against ``structure`` directly (no routing).

    Groups the pair queries so all ``connected`` (and all ``path_max``)
    entries dispatch through the structure's batched entry points when it
    has them -- one shared RC-tree sweep per group (Theorem 3.2 grouping
    over the vectorized ``batch-query`` kernels).
    """
    answers: list = [None] * len(queries)
    grouped: dict[str, list[tuple[int, int, int]]] = {
        kind: [] for kind in _READ_GROUPS
    }
    cost = getattr(structure, "cost", None)
    charge = cost if cost is not None else CostModel(enabled=False)
    with charge.phase("query-read", items=len(queries)):
        for i, q in enumerate(queries):
            kind = q[0]
            if kind in _READ_GROUPS:
                grouped[kind].append((i, int(q[1]), int(q[2])))
            elif kind in _SCALAR_QUERIES:
                attr, is_prop = _SCALAR_QUERIES[kind]
                target = getattr(structure, attr, None)
                if target is None:
                    raise UnsupportedQuery(
                        f"{type(structure).__name__} cannot answer {kind!r}"
                    )
                answers[i] = target if is_prop else target()
            else:
                raise UnsupportedQuery(f"unknown query kind {kind!r}")
        _group_reads(structure, grouped, answers)
    return answers


def _locked_read(
    queries: Sequence[tuple], lsn_of: Callable[[], int]
) -> Callable[[Any], tuple[list, int]]:
    """The callable a replica runs under its lock: the answers plus the
    LSN of the state they were read from.  ``lsn_of`` is called inside
    the lock -- read after it, a round committed in between would make
    the reply name a state it did not read."""
    return lambda structure: (answer_queries(structure, queries), lsn_of())


class QueryService:
    """Routes read batches across a :class:`ReplicatedService`'s replicas.

    Args:
        service: the :class:`~repro.replication.replicated.ReplicatedService`
            to read from (duck-typed: needs ``primary``, ``followers``).
        on_lag: the behind-token policy -- ``"catch_up"``, ``"wait"``, or
            ``"redirect"`` (see module docstring).
        wait_timeout: seconds :class:`StalenessExceeded` fires after in
            ``"wait"`` mode.
        poll_interval: sleep between re-checks while waiting (sleeping
            releases the GIL, letting replication threads replay).
        spread_lag: how many rounds behind the freshest replica a replica
            may be and still serve reads (default 1).  Reads round-robin
            across every replica inside the band (that also satisfies the
            request's token), trading staleness -- never beyond the
            band or below the token -- for read spreading.
        on_primary_down: what a read that must fall back to a dead
            primary does -- ``"fail"`` (default) raises
            :class:`~repro.service.service.ServiceClosed`;
            ``"degrade"`` answers from the most-caught-up live follower
            with ``ReadResult.stale=True`` (and raises
            :class:`StalenessExceeded` only when no follower is live
            either).
        breaker: optional per-replica circuit breaker; a replica whose
            breaker is open is skipped by routing until its cooldown
            half-opens it.
        max_inflight: admission-control cap on concurrently running
            batches; batch ``max_inflight + 1`` is shed with
            :class:`~repro.service.resilience.ServiceOverloaded` instead
            of queueing (None: unbounded).
        recorder: optional trace-capture hook (duck-typed, normally a
            :class:`repro.trace.recorder.TraceRecorder`): each answered
            batch is reported via ``recorder.record_read(queries,
            at_least=..., max_staleness=...)`` so the read mix and its
            consistency levels can be replayed.  Best-effort -- a
            recorder failure increments ``trace.record_failures`` and
            never fails the read.
    """

    def __init__(
        self,
        service: Any,
        *,
        on_lag: str = "catch_up",
        wait_timeout: float = 5.0,
        poll_interval: float = 0.0005,
        spread_lag: int = 1,
        on_primary_down: str = "fail",
        breaker: CircuitBreaker | None = None,
        max_inflight: int | None = None,
        recorder: Any | None = None,
    ) -> None:
        if on_lag not in ("catch_up", "wait", "redirect"):
            raise ValueError(f"unknown on_lag policy {on_lag!r}")
        if spread_lag < 0:
            raise ValueError("spread_lag must be >= 0")
        if on_primary_down not in ("fail", "degrade"):
            raise ValueError(
                f"unknown on_primary_down policy {on_primary_down!r}"
            )
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.service = service
        self.on_lag = on_lag
        self.wait_timeout = wait_timeout
        self.poll_interval = poll_interval
        self.spread_lag = spread_lag
        self.on_primary_down = on_primary_down
        self.breaker = breaker
        self.max_inflight = max_inflight
        self.recorder = recorder
        self._inflight = (
            None
            if max_inflight is None
            else threading.BoundedSemaphore(max_inflight)
        )
        # EWMA of batch wall time, feeding ServiceOverloaded.retry_after:
        # "one drain interval" is roughly how long one batch takes.
        self._latency_ewma = 0.0
        self._rr = 0  # round-robin tie-break among least-lagged replicas

    #: The read-grouping dispatcher (documented entry point; also used by
    #: :func:`answer_queries` for unrouted reads).
    _group_reads = staticmethod(_group_reads)

    def run(
        self,
        queries: Sequence[tuple],
        at_least: int | None = None,
        max_staleness: int | None = None,
    ) -> ReadResult:
        """Answer one batch under the requested consistency level.

        ``at_least=lsn`` demands the round committed as ``lsn`` be
        replayed (pass a :meth:`ReplicatedService.write` token for
        read-your-writes).  ``max_staleness=k`` demands the serving
        replica be within ``k`` rounds of the primary's durable tip.
        """
        queries = [tuple(q) for q in queries]
        m = get_metrics()
        if self._inflight is not None and not self._inflight.acquire(
            blocking=False
        ):
            m.counter("query.shed").inc()
            raise ServiceOverloaded(
                f"{self.max_inflight} batches already in flight",
                retry_after=self._latency_ewma or self.poll_interval,
            )
        try:
            t0 = time.perf_counter()
            required = 0 if at_least is None else at_least + 1
            if max_staleness is not None:
                if max_staleness < 0:
                    raise ValueError("max_staleness must be >= 0")
                required = max(
                    required, self.service.primary.next_lsn - max_staleness
                )
            answers, lsn, replica, stale = self._route(queries, required)
            wall = time.perf_counter() - t0
        finally:
            if self._inflight is not None:
                self._inflight.release()
        self._latency_ewma = (
            wall
            if self._latency_ewma == 0.0
            else 0.8 * self._latency_ewma + 0.2 * wall
        )
        if self.recorder is not None:
            # The batch was answered; trace capture must not fail it.
            try:
                self.recorder.record_read(
                    queries, at_least=at_least, max_staleness=max_staleness
                )
            except Exception:
                m.counter("trace.record_failures").inc()
        m.counter("query.batches").inc()
        m.counter("query.reads").inc(len(queries))
        m.histogram("query.batch_size").observe(len(queries))
        m.histogram("query.latency_ms").observe(wall * 1e3)
        return ReadResult(answers=answers, lsn=lsn, replica=replica, stale=stale)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    @staticmethod
    def _is_replica_failure(exc: BaseException) -> bool:
        # What counts as "this replica failed, try another": replica
        # life-cycle errors (FollowerDead and friends are RuntimeErrors)
        # and storage faults.  Routing-level verdicts and client errors
        # must propagate instead of being laundered into a reroute.
        if isinstance(
            exc, (StalenessExceeded, ServiceOverloaded, UnsupportedQuery)
        ):
            return False
        return isinstance(exc, (OSError, RuntimeError))

    def _route(
        self,
        queries: Sequence[tuple],
        required: int,
        exclude: frozenset = frozenset(),
    ) -> tuple[list, int, str, bool]:
        m = get_metrics()
        live = [
            f
            for f in self.service.followers
            if f.alive and f.fid not in exclude
        ]
        if not live:
            return self._read_primary(queries)
        tip = max(f.replayed_lsn for f in live)
        # Least-lagged routing, spread round-robin across the replicas
        # within ``spread_lag`` rounds of the freshest (and satisfying the
        # token): concurrent readers then fan out over near-tied replicas
        # instead of serializing on one replica's lock, at a bounded
        # staleness cost beyond the best available.
        floor = max(required, tip - self.spread_lag)
        near = [f for f in live if f.replayed_lsn >= floor]
        if near:
            # Busy avoidance: starting at the round-robin offset, take the
            # first in-band replica whose lock is free (one mid-replay
            # does not stall the read); fall back to blocking on the
            # round-robin choice if every replica is busy.
            self._rr += 1
            order = [near[(self._rr + i) % len(near)] for i in range(len(near))]
            for f in order:
                if self.breaker is not None and not self.breaker.allow(f.fid):
                    continue
                try:
                    res = f.try_query(
                        _locked_read(queries, lambda: f.replayed_lsn)
                    )
                except Exception as exc:
                    if not self._is_replica_failure(exc):
                        raise
                    m.counter("query.replica_failures").inc()
                    if self.breaker is not None:
                        self.breaker.record_failure(f.fid)
                    continue
                if res is BUSY:
                    # The probe never ran; hand the half-open slot back.
                    if self.breaker is not None:
                        self.breaker.cancel(f.fid)
                    continue
                if self.breaker is not None:
                    self.breaker.record_success(f.fid)
                answers, lsn = res
                lag = self.service.primary.next_lsn - lsn
                m.histogram("query.lag_rounds").observe(lag)
                return answers, lsn, f"follower{f.fid}", False
            best = order[0]
        else:
            best = max(live, key=lambda f: f.replayed_lsn)
        # ``need_primary`` routes around the try below: a primary-side
        # failure (e.g. ServiceClosed with on_primary_down="fail") must
        # propagate as the primary's verdict, not be mistaken for a
        # replica failure and charged to ``best``'s breaker.
        need_primary = False
        try:
            if best.replayed_lsn < required:
                if self.on_lag == "catch_up":
                    m.counter("query.catch_ups").inc()
                    best.catch_up()
                    if best.replayed_lsn < required:
                        # The round is not durable yet (bad token) or the
                        # replica is fenced below it; the primary still
                        # holds the authoritative state.
                        need_primary = True
                elif self.on_lag == "wait":
                    got = self._wait_for(required)
                    if got is None:
                        need_primary = True
                    else:
                        best = got
                else:  # redirect
                    need_primary = True
            if not need_primary:
                answers, lsn = best.query(
                    _locked_read(queries, lambda: best.replayed_lsn)
                )
        except Exception as exc:
            if not self._is_replica_failure(exc):
                raise
            # The chosen replica failed mid-read (killed underneath us, or
            # its storage is faulting).  Record it and re-route across the
            # remaining replicas; each retry shrinks the candidate set, so
            # this terminates at the primary fallback.
            m.counter("query.replica_failures").inc()
            if self.breaker is not None:
                self.breaker.record_failure(best.fid)
            return self._route(
                queries, required, exclude=exclude | {best.fid}
            )
        if need_primary:
            return self._read_primary(queries)
        if self.breaker is not None:
            self.breaker.record_success(best.fid)
        lag = self.service.primary.next_lsn - lsn
        m.histogram("query.lag_rounds").observe(lag)
        return answers, lsn, f"follower{best.fid}", False

    def _wait_for(self, required: int):
        """Block until a live replica reaches ``required``; None means
        "fall back to the primary"."""
        m = get_metrics()
        m.counter("query.waits").inc()
        deadline = time.monotonic() + self.wait_timeout
        while True:
            live = [f for f in self.service.followers if f.alive]
            ready = [f for f in live if f.replayed_lsn >= required]
            if ready:
                return max(ready, key=lambda f: f.replayed_lsn)
            if not live:
                # Fail fast: with zero live replicas nobody will ever
                # catch up, so burning the whole wait_timeout only delays
                # the verdict.  The primary can still serve the token if
                # it is alive and has committed that round.
                primary = self.service.primary
                if (
                    getattr(primary, "alive", True)
                    and required <= primary.next_lsn
                ):
                    return None
                raise StalenessExceeded(
                    f"no live replicas (lsn {required} required, primary "
                    "cannot serve it)"
                )
            if time.monotonic() >= deadline:
                tip = max(
                    (f.replayed_lsn for f in live), default=0
                )
                raise StalenessExceeded(
                    f"no replica reached lsn {required} within "
                    f"{self.wait_timeout}s (best: {tip})"
                )
            time.sleep(self.poll_interval)

    def _read_primary(
        self, queries: Sequence[tuple]
    ) -> tuple[list, int, str, bool]:
        m = get_metrics()
        primary = self.service.primary
        if getattr(primary, "alive", True):
            m.counter("query.redirects").inc()
            try:
                answers, lsn = primary.query(
                    _locked_read(queries, lambda: primary.next_lsn)
                )
                return answers, lsn, "primary", False
            except Exception as exc:
                if (
                    self.on_primary_down != "degrade"
                    or not self._is_replica_failure(exc)
                ):
                    raise
                # The primary died under the read; fall through to the
                # degraded path below.
        elif self.on_primary_down == "fail":
            raise ServiceClosed(
                "primary is down and on_primary_down='fail' "
                "(use 'degrade' to serve stale reads through an outage)"
            )
        return self._read_degraded(queries)

    def _read_degraded(
        self, queries: Sequence[tuple]
    ) -> tuple[list, int, str, bool]:
        """Availability over consistency: the primary is down, answer from
        the most-caught-up live follower and flag the result stale.

        Each candidate first drains whatever the dead primary left durable
        (best effort -- its storage may be the thing that is broken), so
        the staleness window is as small as the log allows.
        """
        m = get_metrics()
        live = [f for f in self.service.followers if f.alive]
        for f in sorted(live, key=lambda f: f.replayed_lsn, reverse=True):
            try:
                try:
                    f.catch_up()
                except Exception as exc:
                    if not self._is_replica_failure(exc):
                        raise
                    m.counter("query.degraded_catchup_failures").inc()
                answers, lsn = f.query(
                    _locked_read(queries, lambda: f.replayed_lsn)
                )
            except Exception as exc:
                if not self._is_replica_failure(exc):
                    raise
                m.counter("query.replica_failures").inc()
                if self.breaker is not None:
                    self.breaker.record_failure(f.fid)
                continue
            m.counter("query.degraded_reads").inc()
            return answers, lsn, f"follower{f.fid}", True
        raise StalenessExceeded(
            "primary is down and no live replica could serve a degraded read"
        )
