"""The four serving workloads and the seeded traffic they send.

Every byte the benchmark sends is drawn here from ``--seed``.  Nothing in
``src/`` shapes the traffic, so a change to the server cannot change the
workload it is measured on.

A workload is two keep-alive connections (the host has two vCPUs): a read
stream and a write stream.  Each has an open-loop arrival rate (``rate``)
or is a closed loop throughout (``rate=None``), and an op pattern that the
connection cycles through.  Patterns are cycled rather than sampled, and
every phase holds exactly ``rate x length`` arrivals at uniformly random
times, so the amount of work in a window does not depend on the seed.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass

#: Vertices served (``--n`` of the gateway and the worker).
N = 4096
#: The warm window every workload starts from: 32 writes of 256 edges.
PRELOAD_WRITES = 32
PRELOAD_EDGES = 256
#: Popularity exponent of read endpoints (traffic concentrates on hot
#: vertices); write endpoints are uniform, so the window stays a sparse
#: random graph instead of collapsing into a star.
ZIPF_S = 1.1

POINT_MIX = (
    ("connected", 0.45),
    ("path_max", 0.45),
    ("components", 0.05),
    ("window_size", 0.05),
)
PAIR_MIX = (("connected", 0.5), ("path_max", 0.5))


@dataclass(frozen=True)
class Op:
    """One request shape.

    Attributes:
        kind: ``"read"`` (``POST /v1/read``) or ``"write"``
            (``POST /v1/write``).
        size: queries per read batch, or edges a write inserts.
        mix: ``(query kind, probability)`` pairs a read draws from.
        token: the read carries ``at_least`` = the newest write token.
        expire: window items a write expires.  Every pattern expires as
            many items as it inserts, so the window keeps its preloaded
            size.
    """

    kind: str
    size: int
    mix: tuple = POINT_MIX
    token: bool = False
    expire: int = 0


@dataclass(frozen=True)
class Stream:
    """One connection's traffic: arrival process and cycled op pattern."""

    rate: float | None
    pattern: tuple[Op, ...]


@dataclass(frozen=True)
class Workload:
    """A traffic mix over the deployed system.

    Attributes:
        reads: the read stream (connection 0).
        writes: the write stream (connection 1).
        workers: out-of-process follower workers behind the gateway.
    """

    name: str
    reads: Stream
    writes: Stream
    workers: int = 0

    @property
    def streams(self) -> tuple[Stream, Stream]:
        return self.reads, self.writes

    @property
    def mixed(self) -> bool:
        """Open-loop streams that run together in main segments (else two
        closed loops that only ever run one at a time)."""
        return self.reads.rate is not None


def _read(size: int, mix: tuple = POINT_MIX, token: bool = False) -> Op:
    return Op("read", size, mix, token)


def _write(size: int, expire: int | None = None) -> Op:
    return Op("write", size, expire=size if expire is None else expire)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "point_reads",
            # The write trickle keeps every end-to-end metric defined; the
            # ingest layers barely run.
            Stream(500.0, (_read(2),)),
            Stream(6.0, (_write(8),)),
        ),
        Workload(
            "ingest",
            # Writes hold the writer lock under a third of the time even on
            # a slow host; beyond that the median read meets a write in some
            # runs and not in others.
            Stream(50.0, (_read(8, token=True),)),
            Stream(5.0, (_write(32),)),
        ),
        Workload(
            "bulk",
            # Closed loops, one at a time: against a back-to-back writer an
            # open-loop reader only gets the writer lock between two writes
            # (reads at 8/s queue without bound), and a concurrent closed
            # reader's latency is decided by lock luck.  The insert batches
            # carry no expire: 256+ edges with an expire commit two rounds.
            Stream(None, (_read(256, PAIR_MIX),)),
            Stream(None, (_write(1024, 0),) * 3 + (_write(0, 3072),)),
        ),
        Workload(
            "worker_reads",
            # As for ingest: the worker replays writes under a third of the
            # time, so the median read does not wait for a replay.
            Stream(100.0, (_read(8, token=True),) + (_read(8),) * 9),
            Stream(5.0, (_write(16),)),
            workers=1,
        ),
    )
}


class HotVertices:
    """Zipf(``ZIPF_S``) popularity over a seeded permutation of vertices."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"{seed}:hot")
        self.order = list(range(N))
        rng.shuffle(self.order)
        self.cum = list(
            itertools.accumulate(1.0 / (i + 1) ** ZIPF_S for i in range(N))
        )

    def draw(self, rng: random.Random) -> int:
        i = bisect.bisect_left(self.cum, rng.random() * self.cum[-1])
        return self.order[min(i, N - 1)]


class OpSource:
    """The seeded op sequence of one connection (cycles its pattern)."""

    def __init__(
        self, workload: Workload, conn: int, seed: int, hot: HotVertices
    ) -> None:
        self.rng = random.Random(f"{seed}:{workload.name}:{conn}:ops")
        self.pattern = workload.streams[conn].pattern
        self.i = self.rng.randrange(len(self.pattern))
        self.hot = hot

    def next(self) -> tuple[Op, list]:
        """The next op and its payload (edges or queries)."""
        op = self.pattern[self.i % len(self.pattern)]
        self.i += 1
        rng = self.rng
        if op.kind == "write":
            return op, [[rng.randrange(N), rng.randrange(N)] for _ in range(op.size)]
        return op, [draw_query(rng, self.hot, op.mix) for _ in range(op.size)]


def draw_query(rng: random.Random, hot: HotVertices, mix: tuple) -> list:
    """One wire query: a kind from ``mix``, endpoints by popularity."""
    x = rng.random()
    for kind, p in mix:
        x -= p
        if x < 0:
            break
    if kind in ("connected", "path_max"):
        return [kind, hot.draw(rng), hot.draw(rng)]
    return [kind]


def arrivals(rate: float, t0: float, t1: float, rng: random.Random) -> list[float]:
    """Exactly ``round(rate * (t1 - t0))`` open-loop arrival times,
    uniformly random in ``[t0, t1)`` (a Poisson process conditioned on its
    count)."""
    return sorted(rng.uniform(t0, t1) for _ in range(round(rate * (t1 - t0))))


def preload(seed: int) -> list[list[list[int]]]:
    """The warm window: ``PRELOAD_WRITES`` batches of uniform edges."""
    rng = random.Random(f"{seed}:preload")
    return [
        [[rng.randrange(N), rng.randrange(N)] for _ in range(PRELOAD_EDGES)]
        for _ in range(PRELOAD_WRITES)
    ]


def probes(seed: int, count: int, hot: HotVertices) -> list[list]:
    """``count`` queries for the final quiescent check."""
    rng = random.Random(f"{seed}:probes")
    return [draw_query(rng, hot, POINT_MIX) for _ in range(count)]
