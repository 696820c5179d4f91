"""The deployed system as OS processes, and the client that loads it.

:class:`Fleet` spawns ``python -m repro.gateway`` (and, for
``worker_reads``, one ``python -m repro.replication.worker``) through
``serve.py``, preloads the warm window over HTTP and samples the server
processes from ``/proc``.  :func:`drive` runs the :func:`schedule` of
segments: one thread per keep-alive connection, open-loop sends timed
from each request's due time, or back-to-back closed-loop sends.
"""

from __future__ import annotations

import bisect
import http.client
import itertools
import json
import os
import pathlib
import random
import resource
import select
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

from workloads import N, Op, OpSource, Workload, arrivals

ROOT = pathlib.Path(__file__).resolve().parent.parent
SERVE = ROOT / "bench" / "serve.py"
clock = time.monotonic

#: The shipped serving configuration, durable.
GATEWAY_ARGS = ["--n", str(N), "--fsync", "--snapshot-every", "256"]
READY_TIMEOUT_S = 120.0
REQUEST_TIMEOUT_S = 30.0
SERVER_NICE = 5
#: Rounds of segments per run (see :func:`schedule`).
ROUNDS = 8


class FleetError(RuntimeError):
    """A server process failed to start, serve or stop."""


def dumps(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode()


class Conn:
    """One keep-alive HTTP/1.1 connection to the gateway, Nagle off
    (small request/response pairs otherwise stall on delayed ACKs)."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self._c: http.client.HTTPConnection | None = None

    def request(self, method: str, path: str, body: bytes | None = None,
                rid: int | None = None):
        if self._c is None:
            self._c = http.client.HTTPConnection(
                self.host, self.port, timeout=REQUEST_TIMEOUT_S
            )
            self._c.connect()
            self._c.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        headers = {"Content-Type": "application/json"} if body is not None else {}
        if rid is not None:
            headers["X-Bench-Id"] = str(rid)
        try:
            self._c.request(method, path, body, headers)
            resp = self._c.getresponse()
            data = resp.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        return resp.status, (json.loads(data) if data else None)

    def close(self) -> None:
        if self._c is not None:
            self._c.close()
            self._c = None


def placement() -> dict[str, int]:
    """A CPU for each process: the gateway on the first, the worker on the
    second, the client on the last one it may use.  Fixed placement takes
    the scheduler's per-run choice out of the numbers."""
    cpus = sorted(os.sched_getaffinity(0))
    return {"gateway": cpus[0], "worker": cpus[1 % len(cpus)], "client": cpus[-1]}


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Fleet:
    """The gateway (and worker) processes of one workload run.

    Args:
        workload: what to deploy (``workload.workers`` worker processes).
        out_dir: where logs, spans and the temporary data directory go.
        trace: start the servers with span recording on.
        cpus: the CPU each server process is pinned to (:func:`placement`).
    """

    def __init__(self, workload: Workload, out_dir: pathlib.Path, trace: bool,
                 cpus: dict[str, int]) -> None:
        self.workload = workload
        self.cpus = cpus
        self.out_dir = out_dir
        self.trace = trace
        self.data_dir = pathlib.Path(
            tempfile.mkdtemp(prefix=f"{workload.name}-data-", dir=out_dir)
        )
        self.procs: dict[str, subprocess.Popen] = {}
        self.conn: Conn | None = None
        self.addr: tuple[str, int] | None = None

    def spans_path(self, role: str) -> pathlib.Path:
        return self.out_dir / f"spans-{self.workload.name}-{role}.json"

    # -- lifecycle ------------------------------------------------------

    def start(self, preload: list[list]) -> tuple[float, list]:
        """Spawn, preload, wait for the worker to catch up.

        Returns the set-up seconds and the preload writes as
        ``(lsn, edges, expire, ack time)``.
        """
        t0 = clock()
        args = ["--data-dir", str(self.data_dir), "--port", "0", *GATEWAY_ARGS]
        worker_port = None
        if self.workload.workers:
            worker_port = _free_port()
            args += ["--workers", f"127.0.0.1:{worker_port}"]
        self._spawn("gateway", args)
        line = self._ready("gateway", "repro-gateway listening on http://")
        host, port = line.split()[3][len("http://"):].rsplit(":", 1)
        self.addr = (host, int(port))
        self.conn = Conn(host, int(port))
        writes = []
        for edges in preload:
            status, body = self.conn.request("POST", "/v1/write", dumps({"edges": edges}))
            if status != 200:
                raise FleetError(f"preload write failed: {status} {body}")
            writes.append((body["lsn"], edges, 0, clock()))
        if worker_port is not None:
            self._spawn(
                "worker",
                ["--data-dir", str(self.data_dir), "--n", str(N),
                 "--port", str(worker_port), "--fid", "1"],
            )
            self._ready("worker", "REPRO-WORKER READY")
            self.await_worker()
        return clock() - t0, writes

    def _spawn(self, role: str, args: list[str]) -> None:
        cmd = [sys.executable, str(SERVE), role]
        if self.trace:
            cmd += ["--spans", str(self.spans_path(role))]
        with open(self.out_dir / f"{self.workload.name}-{role}.log", "w") as log:
            # The servers run at a lower priority than the client, so the
            # open-loop sender wakes on time; they still get every cycle
            # the (light) client leaves idle.  Spawned before the client
            # starts any thread.
            cpu = self.cpus[role]
            self.procs[role] = subprocess.Popen(
                cmd + ["--", *args], cwd=ROOT, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=log, text=True,
                preexec_fn=lambda: (os.nice(SERVER_NICE), os.sched_setaffinity(0, {cpu})),
            )

    def _ready(self, role: str, prefix: str) -> str:
        proc = self.procs[role]
        ready, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        if not line.startswith(prefix):
            raise FleetError(
                f"{role} did not start (got {line.strip()!r}); see "
                f"{self.out_dir / f'{self.workload.name}-{role}.log'}"
            )
        return line

    def await_worker(self) -> None:
        """Block until every worker has replayed all the primary's rounds
        (timing starts only then: the first reads would otherwise stall
        while it replays the preload)."""
        deadline = clock() + READY_TIMEOUT_S
        while clock() < deadline:
            status, h = self.conn.request("GET", "/v1/health")
            if status == 200 and h["workers"] and all(
                w.get("alive") and w.get("lsn") == h["primary"]["lsn"]
                for w in h["workers"]
            ):
                return
            time.sleep(0.01)
        raise FleetError("worker did not catch up with the primary")

    def stop(self) -> None:
        """SIGTERM every server and wait for it (gateway first)."""
        if self.conn is not None:
            self.conn.close()
        for role in ("gateway", "worker"):
            proc = self.procs.get(role)
            if proc is None:
                continue
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def cleanup(self) -> None:
        shutil.rmtree(self.data_dir, ignore_errors=True)

    # -- /proc and /v1/metrics samples ----------------------------------

    def cpu_seconds(self) -> float:
        """utime + stime of every server process."""
        tick = os.sysconf("SC_CLK_TCK")
        total = 0
        for proc in self.procs.values():
            with open(f"/proc/{proc.pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])
        return total / tick

    def rss_mb(self) -> float:
        """Resident memory (``VmRSS``) of the servers, summed.  The peak
        (``VmHWM``) would depend on whether a checkpoint -- a pickle of the
        structure every 256 rounds -- happened to run."""
        kb = 0
        for proc in self.procs.values():
            with open(f"/proc/{proc.pid}/status") as f:
                for line in f:
                    if line.startswith("VmRSS:"):
                        kb += int(line.split()[1])
        return kb / 1024.0

    def counters(self) -> dict:
        status, body = self.conn.request("GET", "/v1/metrics")
        return body["counters"] if status == 200 else {}


@dataclass(slots=True)
class Rec:
    """One request as the client sent and saw it (monotonic seconds)."""

    conn: int
    op: Op
    payload: list
    seg: Segment | None  # None for the final probes
    due: float
    rid: int = -1  # request id, sent as X-Bench-Id for the span tracer
    send: float = 0.0
    done: float = 0.0
    late: float = 0.0  # generator's own delay: send - max(due, connection free)
    backlog: int = 0  # arrivals due but not yet sent on this connection
    at_least: int | None = None
    status: int = 0
    reply: dict | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.error is None


class ClientState:
    """What the connections share: the newest acknowledged write LSN
    (the read-your-writes token) and the request id sequence."""

    def __init__(self, lsn: int) -> None:
        self.lsn = lsn
        self.ids = itertools.count()


@dataclass(frozen=True)
class Segment:
    """One stretch of a run: ``warm`` (open loop, not measured), ``main``
    (open loop: latencies and CPU), ``cap_reads`` (the read stream alone,
    closed-loop) or ``cap_writes`` (the write stream alone, closed-loop).

    A capacity segment runs one stream with the other paused: two closed
    loops racing for the writer lock split the time between them by lock
    luck, so neither throughput would repeat.  Mixed traffic is what the
    main segments measure.
    """

    phase: str
    round: int  # -1 for the warm-up
    t0: float
    t1: float

    def mode(self, conn: int, rate: float | None) -> str | None:
        """``"open"``, ``"closed"`` or ``None`` (paused) for ``conn``."""
        solo = {"cap_reads": 0, "cap_writes": 1}.get(self.phase)
        if solo is not None:
            return "closed" if solo == conn else None
        return "open" if rate is not None else "closed"

    def measured(self, workload: Workload) -> bool:
        """Latencies and CPU come from main segments, or from the solo
        segments of a workload without main segments."""
        return self.phase == "main" if workload.mixed else self.round >= 0


def schedule(workload: Workload, seconds: float, rounds: int = ROUNDS) -> list[tuple[str, int, float]]:
    """``(phase, round, length)`` in run order: a warm-up of
    ``seconds/16``, then ``rounds`` rounds of a main segment (half the
    round) and the two capacity segments.  A workload of closed loops has
    no main segment: its two streams only ever run one at a time.

    Interleaving spreads every metric's samples over the whole run, so a
    slow spell of the host moves a minority of the rounds each metric is
    taken over.
    """
    step = seconds / rounds
    if workload.mixed:
        parts = (("main", step / 2), ("cap_reads", step / 4), ("cap_writes", step / 4))
    else:
        parts = (("cap_reads", step / 2), ("cap_writes", step / 2))
    out = [("warm", -1, seconds / 16)]
    for r in range(rounds):
        out += [(phase, r, length) for phase, length in parts]
    return out


def issue(conn: Conn, rec: Rec, state: ClientState) -> None:
    """Send one request and record its outcome."""
    if rec.op.kind == "write":
        path, body = "/v1/write", {"edges": rec.payload, "expire": rec.op.expire}
    else:
        path, body = "/v1/read", {"queries": rec.payload}
        if rec.op.token:
            rec.at_least = body["at_least"] = state.lsn
    data = dumps(body)
    rec.rid = next(state.ids)
    rec.send = clock()
    try:
        rec.status, rec.reply = conn.request("POST", path, data, rec.rid)
    except (OSError, http.client.HTTPException, ValueError) as exc:
        rec.error = type(exc).__name__
    rec.done = clock()
    if rec.op.kind == "write" and rec.ok:
        state.lsn = max(state.lsn, rec.reply["lsn"])


class _Segments:
    """Hands each segment to the two connection threads in lockstep."""

    def __init__(self) -> None:
        self.gate = threading.Barrier(3)
        self.current: Segment | None = None


def _stream(
    addr: tuple[str, int], workload: Workload, i: int, seed: int, hot,
    segs: _Segments, state: ClientState, out: list, errors: list,
) -> None:
    conn = Conn(*addr)
    src = OpSource(workload, i, seed, hot)
    rate = workload.streams[i].rate
    rng = random.Random(f"{seed}:{workload.name}:{i}:arrivals")
    free = 0.0
    try:
        while True:
            segs.gate.wait()
            seg = segs.current
            if seg is None:
                return
            mode = seg.mode(i, rate)
            if mode == "open":
                dues = arrivals(rate, seg.t0, seg.t1, rng)
                for k, due in enumerate(dues):
                    op, payload = src.next()
                    wait = due - clock()
                    if wait > 0:
                        time.sleep(wait)
                    rec = Rec(i, op, payload, seg, due)
                    issue(conn, rec, state)
                    rec.late = rec.send - max(due, free)
                    rec.backlog = bisect.bisect_right(dues, rec.send) - k
                    free = rec.done
                    out.append(rec)
            elif mode == "closed":
                # A request is due once the previous returned and its
                # payload is drawn.
                while clock() < seg.t1:
                    op, payload = src.next()
                    due = clock()
                    rec = Rec(i, op, payload, seg, due)
                    issue(conn, rec, state)
                    rec.late = rec.send - due
                    free = rec.done
                    out.append(rec)
            segs.gate.wait()
    except threading.BrokenBarrierError:
        pass
    except Exception as exc:  # surfaced by drive()
        errors.append(exc)
        segs.gate.abort()
    finally:
        conn.close()


@dataclass
class Samples:
    """Resource use over the measured segments (:meth:`Segment.measured`).

    Attributes:
        server_cpu: CPU seconds per second (utime + stime of the servers)
            over each half of each measured segment.
        client_cpu_s: CPU seconds the client process used in them.
        measured_s: their total length.
        counters: increase of the gateway ``/v1/metrics`` counters.
    """

    server_cpu: list = field(default_factory=list)
    client_cpu_s: float = 0.0
    measured_s: float = 0.0
    counters: dict = field(default_factory=dict)


def _client_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def drive(
    fleet: Fleet, workload: Workload, seed: int, hot, seconds: float,
    state: ClientState,
) -> tuple[list[Rec], list[Segment], Samples]:
    """Run the :func:`schedule` on the two connections, sampling the
    measured segments; returns the requests, the segments as run, and
    samples."""
    outs: list[list[Rec]] = [[], []]
    errors: list[Exception] = []
    segs = _Segments()
    threads = [
        threading.Thread(
            target=_stream,
            args=(fleet.addr, workload, i, seed, hot, segs, state, outs[i], errors),
            name=f"bench-conn{i}",
        )
        for i in (0, 1)
    ]
    for t in threads:
        t.start()
    s, run = Samples(), []
    try:
        for phase, rnd, length in schedule(workload, seconds):
            if phase == "main" and workload.workers:
                # No replay backlog from the write segment before: main
                # segments start with the worker caught up.
                fleet.await_worker()
            t0 = clock() + 0.005
            seg = segs.current = Segment(phase, rnd, t0, t0 + length)
            measured = seg.measured(workload)
            if measured:
                before = fleet.counters()
            run.append(seg)
            segs.gate.wait()
            if measured:
                ticks = []
                for t in (seg.t0, (seg.t0 + seg.t1) / 2, seg.t1):
                    time.sleep(max(0.0, t - clock()))
                    ticks.append((clock(), fleet.cpu_seconds(), _client_cpu()))
                for (a, ca, _), (b, cb, _) in zip(ticks, ticks[1:]):
                    s.server_cpu.append((cb - ca) / (b - a))
                s.client_cpu_s += ticks[-1][2] - ticks[0][2]
                s.measured_s += ticks[-1][0] - ticks[0][0]
            segs.gate.wait()
            if measured:
                for k, v in fleet.counters().items():
                    s.counters[k] = s.counters.get(k, 0) + v - before.get(k, 0)
        segs.current = None
        segs.gate.wait()
    except threading.BrokenBarrierError:
        pass
    finally:
        segs.gate.abort()
        for th in threads:
            th.join()
    if errors:
        raise errors[0]
    return outs[0] + outs[1], run, s
