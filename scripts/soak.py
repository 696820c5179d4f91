#!/usr/bin/env python
"""Seeded chaos soak: drive a replicated service through a fault tape and
assert byte-identical convergence with the fault-free oracle.

One run plays a :class:`~repro.chaos.schedule.ChaosSchedule` (follower
kills/restarts, bounded storage fault windows via
:class:`~repro.chaos.faults.FaultyIO`, primary kills with promotion) of
at least ``--events`` adversities against a live
:class:`~repro.replication.replicated.ReplicatedService` while a bursty
sliding-window stream keeps committing rounds.  After the tape:

- every surviving node (the final primary and every follower, restarting
  the dead ones) must fingerprint byte-identical to
  :func:`~repro.chaos.schedule.replay_oracle` -- the winning WAL chain
  replayed on a fresh structure;
- the tape must have actually bitten (nonzero kills, promotions, and
  injected faults), so a pass cannot come from chaos never firing;
- the p99 per-round wall time must stay under ``--p99-ms`` (resilience
  must not buy correctness with unbounded stalls).

Prints one JSON summary plus a final verdict line; exit status 0 only if
the run converges inside the budget.

Usage::

    PYTHONPATH=src python scripts/soak.py                # defaults
    PYTHONPATH=src python scripts/soak.py --seed 99 --events 80
    PYTHONPATH=src python scripts/soak.py --p99-ms 500
    PYTHONPATH=src python scripts/soak.py --shards 4 --rounds 80

``--shards K`` (K > 1) switches to the sharded-tier soak: a
:class:`~repro.sharding.sharded.ShardedService` of K shard groups takes
a tape of shard-primary failovers (one kill/promotion per shard) while
a partition-skewed stream commits, and a mixed query batch must stay
byte-identical to the fault-free unsharded oracle after every few
rounds -- including the round of each promotion.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys
import tempfile
import time
import zlib

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.chaos import ChaosDriver, ChaosSchedule, FaultyIO  # noqa: E402
from repro.chaos.schedule import replay_oracle  # noqa: E402
from repro.gateway.protocol import dumps, jsonable  # noqa: E402
from repro.graphgen import bursty_stream  # noqa: E402
from repro.loadgen import PartitionSampler  # noqa: E402
from repro.replication import ReplicatedService  # noqa: E402
from repro.service import RetryPolicy, ServiceConfig  # noqa: E402
from repro.service.query import QueryService  # noqa: E402
from repro.sharding import (  # noqa: E402
    ShardRouter,
    ShardedService,
    make_member_factory,
)
from repro.sliding_window import SWConnectivityEager  # noqa: E402

N = 48
NO_SLEEP = lambda s: None  # noqa: E731


def derive_seed(base: int, label: str) -> int:
    """A distinct, deterministic sub-seed for one component of the soak.

    The tape, the fault injector, the edge stream, and the structure
    each get their own seed derived from the base -- one ``--seed``
    used verbatim everywhere couples their random streams (the same
    family of tapes always meets the same family of streams), so a
    whole dimension of interleavings never gets exercised no matter how
    the base rotates.
    """
    return (base * 2654435761 + zlib.crc32(label.encode())) % (2**31 - 1)


def seed_family(base: int) -> dict:
    """Every component seed one soak run uses, by name."""
    return {
        "base": base,
        "tape": derive_seed(base, "tape"),
        "faults": derive_seed(base, "faults"),
        "stream": derive_seed(base, "stream"),
        "structure": derive_seed(base, "structure"),
    }


def fingerprint(sw):
    return (
        sw.num_components,
        sorted(sw.forest_edges()),
        sw._msf.forest.rc.snapshot(),
    )


def soak_once(args) -> dict:
    """One seeded soak; returns its JSON-ready summary."""
    seeds = seed_family(args.seed)

    def factory():
        return SWConnectivityEager(N, seed=seeds["structure"])

    faults = FaultyIO(
        seed=seeds["faults"],
        p_write_error=0.3,
        p_torn_write=0.2,
        p_fsync_error=0.2,
        p_read_error=0.2,
        p_bitflip=0.5,
        sleep=NO_SLEEP,
    )
    schedule = ChaosSchedule.generate(
        seed=seeds["tape"],
        events=args.events,
        steps=args.rounds,
        primary_kills=args.primary_kills,
    )
    rng = random.Random(seeds["stream"])
    stream = bursty_stream(
        N, rounds=args.rounds, base_batch=5, burst_batch=14, window=40, rng=rng
    )
    step_walls: list[float] = []
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-soak-") as tmp:
        cfg = ServiceConfig(
            flush_edges=10**9,
            snapshot_every=10**9,  # keep the full chain for the oracle
            io=faults,
            retry=RetryPolicy(sleep=NO_SLEEP),
        )
        svc = ReplicatedService(
            factory,
            tmp,
            cfg,
            followers=args.followers,
            follower_retry=RetryPolicy(sleep=NO_SLEEP),
        )
        driver = ChaosDriver(svc, schedule, faults)
        t_run = time.perf_counter()
        for step, batch in enumerate(stream):
            t0 = time.perf_counter()
            driver.step(step, batch.edges, batch.expire)
            step_walls.append(time.perf_counter() - t0)
        driver.finish()
        run_wall = time.perf_counter() - t_run

        oracle, tip = replay_oracle(factory, tmp)
        want = fingerprint(oracle)
        if fingerprint(svc.primary.structure) != want:
            failures.append("primary diverges from oracle")
        if svc.primary.next_lsn != tip:
            failures.append(
                f"primary tip {svc.primary.next_lsn} != oracle tip {tip}"
            )
        for f in svc.followers:
            if not f.alive:
                f.restart()
            f.catch_up()
            if fingerprint(f.structure) != want:
                failures.append(f"follower {f.fid} diverges from oracle")
        svc.close()

    for key in ("follower_kills", "promotions"):
        if driver.stats[key] == 0:
            failures.append(f"tape never exercised {key}")
    if faults.injected == 0:
        failures.append("no faults were injected")
    walls = sorted(step_walls)
    p99_ms = walls[min(len(walls) - 1, int(0.99 * len(walls)))] * 1e3
    if p99_ms > args.p99_ms:
        failures.append(
            f"p99 step wall {p99_ms:.1f}ms exceeds budget {args.p99_ms}ms"
        )
    return {
        "seed": args.seed,
        "seeds": seeds,
        "rounds": args.rounds,
        "events": sum(schedule.counts().values()),
        "event_counts": schedule.counts(),
        "stats": driver.stats,
        "faults_injected": faults.injected,
        "oracle_tip": tip,
        "p99_step_ms": round(p99_ms, 2),
        "wall_s": round(run_wall, 2),
        "failures": failures,
        "converged": not failures,
    }


def soak_sharded(args) -> dict:
    """One seeded sharded soak: K shard groups vs. the unsharded oracle.

    A chaos tape of shard-primary kill/promotions plays against a live
    :class:`~repro.sharding.sharded.ShardedService` while a seeded
    partition-skewed stream keeps committing rounds; after every few
    rounds -- including immediately after each failover -- a mixed query
    batch must serialize byte-identical to the fault-free unsharded
    oracle's answer under the matching tokens.
    """
    seeds = seed_family(args.seed)
    tape = random.Random(seeds["tape"])
    # One promotion per shard, at distinct steps spread across the
    # middle of the stream.
    promote_steps = dict(
        zip(
            tape.sample(
                range(args.rounds // 4, 3 * args.rounds // 4), args.shards
            ),
            range(args.shards),
        )
    )
    router = ShardRouter(N, args.shards, scheme="hash")
    sampler = PartitionSampler(
        N, 1.1, router=router, partition_skew=0.8
    )
    rng = random.Random(seeds["stream"])
    step_walls: list[float] = []
    failures: list[str] = []
    promotions = checks = 0
    with tempfile.TemporaryDirectory(prefix="repro-soak-shard-") as tmp:
        tmp_path = pathlib.Path(tmp)
        cfg = ServiceConfig(fsync=False, snapshot_every=0)
        svc = ShardedService(
            make_member_factory(N, seed=seeds["structure"]),
            tmp_path / "sharded",
            router,
            cfg,
            followers=args.followers,
        )
        oracle = ReplicatedService(
            lambda: SWConnectivityEager(N, seed=seeds["structure"]),
            tmp_path / "oracle",
            cfg,
        )
        oq = QueryService(oracle)
        t_run = time.perf_counter()
        try:
            for step in range(args.rounds):
                t0 = time.perf_counter()
                edges = [sampler.draw_pair(rng) for _ in range(4)]
                expire = 2 if step % 3 == 2 else 0
                token = oracle.write(edges, expire)
                vector = svc.write(edges, expire=expire)
                if step in promote_steps:
                    shard = promote_steps[step]
                    svc.poll()
                    svc.promote(shard).close()
                    promotions += 1
                if step % 5 == 4 or step in promote_steps:
                    batch = [("components",), ("window_size",)]
                    for i in range(6):
                        kind = "connected" if i % 2 == 0 else "path_max"
                        batch.append((kind, *sampler.draw_pair(rng)))
                    want = oq.run(batch, at_least=token).answers
                    got = svc.query(batch, at_least=vector).answers
                    checks += 1
                    if dumps(jsonable(got)) != dumps(jsonable(want)):
                        failures.append(
                            f"step {step}: sharded {got} != oracle {want}"
                        )
                step_walls.append(time.perf_counter() - t0)
            run_wall = time.perf_counter() - t_run
        finally:
            oracle.close()
            svc.close()
    if promotions < args.shards:
        failures.append(f"tape promoted only {promotions} shard primaries")
    walls = sorted(step_walls)
    p99_ms = walls[min(len(walls) - 1, int(0.99 * len(walls)))] * 1e3
    if p99_ms > args.p99_ms:
        failures.append(
            f"p99 step wall {p99_ms:.1f}ms exceeds budget {args.p99_ms}ms"
        )
    return {
        "mode": f"sharded-k{args.shards}",
        "seed": args.seed,
        "seeds": seeds,
        "rounds": args.rounds,
        "shards": args.shards,
        "promotions": promotions,
        "differential_checks": checks,
        "p99_step_ms": round(p99_ms, 2),
        "wall_s": round(run_wall, 2),
        "failures": failures,
        "converged": not failures,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python scripts/soak.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--seed", type=int, default=7, help="tape seed")
    parser.add_argument(
        "--events", type=int, default=50, help="adversities in the tape (>= 50 for the acceptance soak)"
    )
    parser.add_argument(
        "--rounds", type=int, default=160, help="stream rounds to commit"
    )
    parser.add_argument(
        "--primary-kills", type=int, default=3, help="primary kills in the tape"
    )
    parser.add_argument(
        "--followers", type=int, default=3, help="replica fleet size"
    )
    parser.add_argument(
        "--p99-ms",
        type=float,
        default=2000.0,
        help="p99 per-round wall budget in milliseconds",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help=(
            "run the sharded-tier soak over K shard groups instead "
            "(failovers + differential vs. the unsharded oracle)"
        ),
    )
    args = parser.parse_args(argv)

    if args.shards > 1:
        summary = soak_sharded(args)
    else:
        summary = soak_once(args)
    print(json.dumps(summary, sort_keys=False))
    ok = summary["converged"]
    if not ok:
        # A red soak must be reproducible from the log alone: name every
        # component seed and the exact command that replays it.
        print(f"soak FAIL: seeds {json.dumps(summary['seeds'])}", file=sys.stderr)
        print(
            "reproduce with: PYTHONPATH=src python scripts/soak.py "
            f"--seed {args.seed} --events {args.events} "
            f"--rounds {args.rounds} "
            f"--primary-kills {args.primary_kills} "
            f"--followers {args.followers} "
            f"--shards {args.shards}",
            file=sys.stderr,
        )
    print(f"soak {'PASS' if ok else 'FAIL'}: seed {args.seed}, {args.events} events")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
