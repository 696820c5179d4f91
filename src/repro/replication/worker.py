"""An out-of-process follower: ``python -m repro.replication.worker``.

The in-process :class:`~repro.replication.follower.Follower` scales reads
until the GIL is the wall -- every replica's query work still shares the
primary's interpreter.  This entry point moves the replica into its own
OS process: it bootstraps from the shared snapshot/WAL directory, tails
the primary's segmented v2 WAL exactly as the in-process follower does
(the *log* is the replication protocol; nothing here talks to the primary
process), and serves read batches over a TCP socket to the
:mod:`repro.gateway` front door.  Epoch fencing already makes multi-process
tailing safe: a fenced record is rejected no matter which process reads
it, so a zombie ex-primary cannot poison a worker any more than it can an
in-process replica.

Wire protocol (newline-delimited JSON frames, one request per line;
``docs/gateway.md`` has the full reference):

- ``{"op": "read", "queries": [...], "required": L}`` -- answer one
  batch once the worker has replayed at least ``L`` rounds (``required``
  is ``at_least + 1`` in LSN-token terms; 0 means "whatever you have").
  Replies ``{"ok": true, "answers": [...], "lsn": ..., "fid": ...}``,
  or ``{"ok": false, "error": "busy" | "stale" | ...}`` verdicts the
  gateway routes around.
- ``{"op": "health"}`` -- liveness + replay position.
- ``{"op": "stop"}`` -- clean shutdown (the deployment scripts' and CI
  smoke job's teardown path).

Structure construction is by *registry*: the worker must build the same
deterministic factory as the primary (same class, ``n``, ``seed``),
so the CLI takes ``--structure <name> --n ... --seed ...``
plus ``--kwargs`` JSON for the structures with extra parameters.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import signal
import socketserver
import sys
import threading
from typing import Any, Callable

from repro.gateway.protocol import (
    BadRequest,
    jsonable,
    parse_queries,
    read_frame,
    write_frame,
)
from repro.obs.metrics import get_metrics
from repro.replication.follower import Follower, FollowerDead
from repro.service.query import BUSY, UnsupportedQuery, answer_queries
from repro.service.wal import WalTruncated
from repro.sliding_window import (
    SWApproxMSFWeight,
    SWBipartiteness,
    SWConnectivity,
    SWConnectivityEager,
    SWCycleFree,
    SWKCertificate,
    SWSparsifier,
)

#: Structures a worker (or ``python -m repro.gateway``) can serve.  Every
#: entry takes ``(n, seed=...)`` plus the listed extras.
STRUCTURES: dict[str, type] = {
    "SWConnectivity": SWConnectivity,
    "SWConnectivityEager": SWConnectivityEager,
    "SWBipartiteness": SWBipartiteness,
    "SWApproxMSFWeight": SWApproxMSFWeight,  # extras: eps, max_weight
    "SWKCertificate": SWKCertificate,  # extras: k
    "SWCycleFree": SWCycleFree,
    "SWSparsifier": SWSparsifier,  # extras: eps
}


def build_factory(
    structure: str,
    n: int,
    seed: int,
    extra: dict | None = None,
) -> Callable[[], Any]:
    """A deterministic zero-argument factory for ``structure``.

    The factory must match the primary's exactly (the replayed state is
    a pure function of the round sequence *given* the same empty
    structure), so primary-side and worker-side callers both build
    through here.
    """
    try:
        cls = STRUCTURES[structure]
    except KeyError:
        known = ", ".join(sorted(STRUCTURES))
        raise ValueError(
            f"unknown structure {structure!r} (known: {known})"
        ) from None
    kwargs = dict(extra or {})
    kwargs["seed"] = seed
    return lambda: cls(n, **kwargs)


class _Handler(socketserver.StreamRequestHandler):
    """One worker connection: a loop of JSON frames until EOF."""

    # One-frame request/response over a persistent socket: without this
    # the Nagle / delayed-ACK interaction adds ~40ms per round trip.
    disable_nagle_algorithm = True
    server: "WorkerServer"

    def handle(self) -> None:
        while True:
            try:
                frame = read_frame(self.rfile)
            except BadRequest as exc:
                write_frame(
                    self.wfile,
                    {"ok": False, "error": "bad_frame", "message": str(exc)},
                )
                return  # framing is broken; drop the connection
            except OSError:
                return
            if frame is None:
                return
            try:
                reply = self.server.dispatch(frame)
            except Exception as exc:  # a reply, never a traceback
                reply = {
                    "ok": False,
                    "error": "internal",
                    "message": f"{type(exc).__name__}: {exc}",
                }
            try:
                write_frame(self.wfile, reply)
            except OSError:
                return
            if reply.get("stopping"):
                return


class WorkerServer(socketserver.ThreadingTCPServer):
    """The worker's TCP front: serves a :class:`Follower` to the gateway.

    Args:
        address: ``(host, port)`` to bind (port 0 picks an ephemeral one).
        follower: the process-local replica to serve.
        tail_interval: seconds between background catch-up polls.
        max_records: per-poll replication budget (None: unbounded).
        busy_timeout: how long a read waits out a replay poll holding
            the replica lock before reporting ``busy``.  Non-zero by
            default: for a networked worker a busy verdict costs the
            gateway a wasted round trip per remaining worker, so riding
            out a short replay is cheaper than failing over.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        follower: Follower,
        tail_interval: float = 0.002,
        max_records: int | None = None,
        busy_timeout: float = 0.05,
    ) -> None:
        super().__init__(address, _Handler)
        self.follower = follower
        self.tail_interval = tail_interval
        self.max_records = max_records
        self.busy_timeout = busy_timeout
        self._stop = threading.Event()
        self._tail_thread: threading.Thread | None = None

    # -- replication ----------------------------------------------------

    def start_tailing(self) -> None:
        """Continuously catch the follower up on a background thread."""
        if self._tail_thread is not None:
            return
        self._tail_thread = threading.Thread(
            target=self._tail_loop, name="repro-worker-tail", daemon=True
        )
        self._tail_thread.start()

    def _tail_loop(self) -> None:
        m = get_metrics()
        while not self._stop.is_set():
            try:
                self.follower.catch_up(self.max_records)
            except (FollowerDead, WalTruncated):
                m.counter("replication.tail_errors").inc()
            except Exception:
                # Transient storage weather; the next tick retries.  A
                # worker, unlike the in-process loop, has no operator to
                # surface fail() to -- the gateway's health checks see a
                # stuck lsn instead.
                m.counter("replication.tail_errors").inc()
            self._stop.wait(self.tail_interval)

    # -- protocol -------------------------------------------------------

    def dispatch(self, frame: dict) -> dict:
        op = frame.get("op")
        if op == "read":
            return self._read(frame)
        if op == "health":
            f = self.follower
            return {
                "ok": True,
                "fid": f.fid,
                "lsn": f.replayed_lsn,
                "alive": f.alive,
            }
        if op == "stop":
            self.stop()
            return {"ok": True, "stopping": True}
        return {"ok": False, "error": "bad_frame", "message": f"unknown op {op!r}"}

    def _read(self, frame: dict) -> dict:
        f = self.follower
        try:
            queries = parse_queries(frame.get("queries"))
            required = frame.get("required", 0)
            if not isinstance(required, int) or required < 0:
                raise BadRequest("'required' must be a non-negative integer")
        except BadRequest as exc:
            return {"ok": False, "error": "bad_request", "message": str(exc)}
        m = get_metrics()

        def read(s):
            # The reply names the state it read: the LSN is taken under
            # the replica lock, before a replay can advance it.
            return answer_queries(s, queries), f.replayed_lsn

        try:
            if f.replayed_lsn < required:
                # The token demands rounds this worker has not replayed:
                # ship them now (blocking; the required rounds are work
                # that must happen before any replica could answer).
                f.catch_up()
                if f.replayed_lsn < required:
                    # Not durable yet (bad token) or fenced below it.
                    return {
                        "ok": False,
                        "error": "stale",
                        "lsn": f.replayed_lsn,
                        "fid": f.fid,
                    }
                answers, lsn = f.query(read)
            else:
                # Busy avoidance, worker-side: ride out a short replay
                # poll, but a lock held longer than busy_timeout makes
                # the gateway try the next worker instead of queueing
                # here (mirrors QueryService's BUSY routing).
                res = f.try_query(read, timeout=self.busy_timeout)
                if res is BUSY:
                    m.counter("worker.busy").inc()
                    return {"ok": False, "error": "busy", "fid": f.fid}
                answers, lsn = res
        except UnsupportedQuery as exc:
            return {
                "ok": False,
                "error": "unsupported_query",
                "message": str(exc),
            }
        except Exception as exc:
            m.counter("worker.read_failures").inc()
            return {
                "ok": False,
                "error": "read_failed",
                "message": f"{type(exc).__name__}: {exc}",
            }
        m.counter("worker.reads").inc(len(queries))
        m.counter("worker.batches").inc()
        return {
            "ok": True,
            "answers": jsonable(answers),
            "lsn": lsn,
            "fid": f.fid,
        }

    # -- lifecycle ------------------------------------------------------

    def stop(self) -> None:
        """Stop tailing and the serve loop (idempotent, thread-safe)."""
        if self._stop.is_set():
            return
        self._stop.set()
        if self._tail_thread is not None:
            self._tail_thread.join()
            self._tail_thread = None
        # shutdown() blocks until serve_forever exits; it must not be
        # called from the serve thread itself, so hand it off.
        threading.Thread(target=self.shutdown, daemon=True).start()


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; see the module docstring for the protocol."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.replication.worker",
        description="Serve one out-of-process follower over TCP: bootstrap "
        "from the shared snapshot/WAL directory, tail the primary's WAL, "
        "answer read batches for the repro.gateway front door.",
    )
    parser.add_argument("--data-dir", required=True, help="the primary's data directory")
    parser.add_argument("--structure", default="SWConnectivityEager",
                        choices=sorted(STRUCTURES))
    parser.add_argument("--n", type=int, required=True, help="vertex count (must match the primary)")
    parser.add_argument("--seed", type=int, default=0, help="structure seed (must match the primary)")
    parser.add_argument("--kwargs", default="{}",
                        help="extra structure kwargs as JSON (e.g. '{\"k\": 2}')")
    parser.add_argument("--fid", type=int, default=0, help="replica id (metrics/routing display)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0: ephemeral; the chosen port is printed)")
    parser.add_argument("--tail-interval", type=float, default=0.002,
                        help="seconds between catch-up polls")
    parser.add_argument("--max-records", type=int, default=None,
                        help="per-poll replication budget (rounds)")
    parser.add_argument("--busy-timeout", type=float, default=0.05,
                        help="seconds a read waits out a replay poll "
                        "before reporting busy")
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)

    try:
        extra = json.loads(args.kwargs)
        if not isinstance(extra, dict):
            raise ValueError("--kwargs must be a JSON object")
    except ValueError as exc:
        print(f"bad --kwargs: {exc}", file=sys.stderr)
        return 2
    data_dir = pathlib.Path(args.data_dir)
    if not data_dir.is_dir():
        print(f"no such data directory: {data_dir}", file=sys.stderr)
        return 2
    factory = build_factory(args.structure, args.n, args.seed, extra)
    follower = Follower(args.fid, data_dir, factory)
    server = WorkerServer(
        (args.host, args.port),
        follower,
        tail_interval=args.tail_interval,
        max_records=args.max_records,
        busy_timeout=args.busy_timeout,
    )
    host, port = server.server_address[:2]
    # The readiness line the parent (gateway script, benchmark, CI smoke
    # job) parses; everything else goes to stderr.
    print(f"REPRO-WORKER READY {host} {port} fid={args.fid}", flush=True)

    def _terminate(signum: int, frame: object) -> None:
        server.stop()

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)
    server.start_tailing()
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.stop()
        server.server_close()
    print(
        f"worker fid={args.fid} stopped at lsn {follower.replayed_lsn}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
