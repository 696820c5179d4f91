"""Chaos recovery: follower time-to-caught-up and read availability
through a primary failover.

Claim under test: the resilience machinery keeps the read tier *useful*
through the two failures it was built for.

1. **Recovery** -- a replica that died and restarted bootstraps from the
   newest checkpoint and replays only the rounds since it; its
   time-to-caught-up is bounded by the checkpoint interval, *independent
   of how long it was dead* (backlogs of 20/60/120 rounds all replay at
   most ``SNAPSHOT_EVERY`` rounds).
2. **Availability** -- with ``on_primary_down="degrade"``, reads keep
   being answered while the primary is dead and no failover has happened
   yet (flagged stale), and turn fresh again after a promotion.  The
   measured availability through the whole kill -> degraded window ->
   promote -> recommit timeline must be nonzero (it is 1.0 by design;
   the assertion leaves room only for genuine regression).

Harness: deterministic single-threaded timelines (tick-based
replication, no scheduler noise).  Recovery kills one of two followers
at a chosen round, keeps ingesting, restarts it at the end and times
``catch_up()`` to the durable tip, per backlog size.  Availability
ingests ``ROUNDS`` rounds, kills the primary mid-run via the
``before-wal-append`` failpoint, attempts one read batch every round
throughout (degraded mode while down, fresh after the scripted
promotion), and reports attempted/served/stale/degraded counts plus the
recommit check.  Results land in ``bench_results/chaos_recovery.{txt,json}``.
"""

from __future__ import annotations

import random
import time

from repro.analysis import format_table
from repro.graphgen import bursty_stream
from repro.replication import ReplicatedService
from repro.runtime import CostModel
from repro.service import (
    InjectedCrash,
    QueryService,
    ServiceClosed,
    ServiceConfig,
)
from repro.sliding_window import SWConnectivityEager

N = 256
ROUNDS = 166  # deliberately not a checkpoint multiple: recovery replays a tail
KILL_AT = ROUNDS // 2
BACKLOGS = [20, 60, 120]
SNAPSHOT_EVERY = 16
BASE_BATCH = 6
BURST_BATCH = 18
WINDOW = 256
SEED = 13
QUERY_BATCH = [
    ("connected", 0, 1),
    ("components",),
    ("window_size",),
]


def _stream(rounds):
    rng = random.Random(SEED)
    return bursty_stream(
        N,
        rounds=rounds,
        base_batch=BASE_BATCH,
        burst_batch=BURST_BATCH,
        window=WINDOW,
        rng=rng,
    )


def _factory(cost):
    def make():
        return SWConnectivityEager(N, seed=SEED, cost=cost)

    return make


def _recovery_run(backlog, tmp_path, cost):
    """Kill a follower ``backlog`` rounds before the end; time its replay."""
    cfg = ServiceConfig(flush_edges=10**9, snapshot_every=SNAPSHOT_EVERY)
    with ReplicatedService(
        _factory(cost), tmp_path / f"rec-{backlog}", cfg, followers=2
    ) as svc:
        victim = svc.followers[0]
        for step, b in enumerate(_stream(ROUNDS)):
            if step == ROUNDS - backlog:
                victim.kill()
            svc.write(b.edges, expire=b.expire)
            for f in svc.followers:
                if f.alive:
                    f.catch_up()
        tip = svc.primary.next_lsn
        t0 = time.perf_counter()
        victim.restart()  # bootstraps from the newest checkpoint
        boot_lsn = victim.replayed_lsn
        victim.catch_up()
        wall = time.perf_counter() - t0
        assert victim.replayed_lsn == tip
        return wall * 1e3, tip - boot_lsn


def _availability_run(tmp_path, cost):
    """Read every round through kill -> degraded outage -> promotion."""
    cfg = ServiceConfig(flush_edges=10**9, snapshot_every=0)
    outage = {"attempted": 0, "served": 0, "stale": 0}
    overall = {"attempted": 0, "served": 0, "stale": 0}
    down_rounds = 0
    with ReplicatedService(
        _factory(cost), tmp_path / "avail", cfg, followers=2
    ) as svc:
        qs = QueryService(svc, on_primary_down="degrade")
        for step, b in enumerate(_stream(ROUNDS)):
            if step == KILL_AT:
                svc.primary.failpoints["before-wal-append"] = lambda lsn: True
            down = not svc.primary.alive or step == KILL_AT
            try:
                svc.write(b.edges, expire=b.expire)
            except (InjectedCrash, ServiceClosed):
                # The primary is dead; ingest rejects writes for the
                # outage window (the rounds are lost to this timeline,
                # as with any un-replicated primary death).  Keep reading
                # through it -- exactly the gap degrade mode exists for.
                pass
            if svc.primary.alive:
                for f in svc.followers:
                    if f.alive:
                        f.catch_up()
            else:
                down_rounds += 1
                if down_rounds >= 10:
                    best = max(
                        (f for f in svc.followers if f.alive),
                        key=lambda f: f.replayed_lsn,
                    )
                    svc.promote(best, catch_up=True)
                    svc.add_follower()
                    svc.write(b.edges, expire=b.expire)  # recommit
                    down = False
            overall["attempted"] += 1
            if down:
                outage["attempted"] += 1
            try:
                if down:
                    # Read-your-writes against the round that died with
                    # the primary: the token can never be satisfied, so
                    # the router must serve it degraded (stale) rather
                    # than error -- availability over consistency.
                    res = qs.run(
                        QUERY_BATCH, at_least=svc.primary.next_lsn
                    )
                else:
                    res = qs.run(QUERY_BATCH)
            except Exception:
                continue
            overall["served"] += 1
            overall["stale"] += res.stale
            if down:
                outage["served"] += 1
                outage["stale"] += res.stale
        # After failover the tier is fresh again: a read-your-writes
        # token round-trips without degrade.
        token = svc.write([(0, 1)])
        res = qs.run(QUERY_BATCH, at_least=token)
        assert not res.stale
    return overall, outage, down_rounds


def test_chaos_recovery(record_table, record_json, benchmark, tmp_path):
    state: dict = {}

    def run():
        cost = CostModel()
        rec_rows = [_recovery_run(b, tmp_path, cost) for b in BACKLOGS]
        overall, outage, down_rounds = _availability_run(tmp_path, cost)
        state.clear()
        state.update(
            cost=cost,
            rec_rows=rec_rows,
            overall=overall,
            outage=outage,
            down_rounds=down_rounds,
        )

    benchmark.pedantic(run, rounds=1, iterations=1)
    cost = state["cost"]
    rec_rows = state["rec_rows"]
    overall, outage = state["overall"], state["outage"]

    avail = overall["served"] / overall["attempted"]
    outage_avail = (
        outage["served"] / outage["attempted"] if outage["attempted"] else 0.0
    )
    rows = [
        [b, f"{ms:.1f}", replayed]
        for b, (ms, replayed) in zip(BACKLOGS, rec_rows)
    ] + [
        ["-", "-", "-"],
        [
            f"failover ({state['down_rounds']} rounds down)",
            f"{outage_avail:.0%} outage avail",
            f"{outage['stale']} stale",
        ],
    ]
    table = format_table(
        ["backlog (rounds)", "catch-up (ms)", "replayed"],
        rows,
        title=(
            f"Chaos recovery: follower time-to-caught-up and read "
            f"availability through primary failover, n = {N}, "
            f"{ROUNDS} rounds, availability {avail:.0%}"
        ),
    )
    record_table("chaos_recovery", table)
    record_json(
        "chaos_recovery",
        cost,
        params={
            "n": N,
            "rounds": ROUNDS,
            "kill_at": KILL_AT,
            "backlogs": BACKLOGS,
            "base_batch": BASE_BATCH,
            "burst_batch": BURST_BATCH,
            "window": WINDOW,
            "snapshot_every": SNAPSHOT_EVERY,
            "seed": SEED,
        },
        extra={
            "catch_up_ms": {str(b): ms for b, (ms, _) in zip(BACKLOGS, rec_rows)},
            "availability": avail,
            "outage_availability": outage_avail,
            "outage_reads": outage,
            "overall_reads": overall,
            "down_rounds": state["down_rounds"],
        },
    )
    # The acceptance bar: reads flowed *through* the failover.
    assert outage["attempted"] > 0
    assert outage_avail > 0.0
    assert outage["stale"] > 0  # degraded reads actually happened
    assert avail == 1.0  # nothing was dropped end to end
    # Recovery replay is bounded by the checkpoint interval, no matter
    # how long the replica was dead -- and actually exercised (nonzero).
    assert all(0 < r <= SNAPSHOT_EVERY for _, r in rec_rows)
