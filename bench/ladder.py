"""The per-layer ladder of a traced run.

Gateway spans are grouped by root, i.e. by request, and matched to the
client's open-loop requests by their ``X-Bench-Id``.  A request's server
rows come from its spans' self times, so they add up to its handler span
exactly.  The client supplies the rest:

- ``loadgen_wait``: from the request's due time to its send (open-loop
  queueing behind the previous request on the connection);
- ``http_residual``: client round trip minus the handler span -- sockets,
  HTTP parsing outside the handler, thread scheduling and the GIL.

A handler span can end after the client already has the reply: once the
response is written, the server thread may wait for the GIL before the
span closes.  That tail is off the client's critical path, so each
handler span is clipped at the client's receive time and the tail is
taken out of the ``gateway`` row.

A read served by a worker spends part of ``workers.read`` inside the
worker process.  Worker dispatches that fall inside a matched request's
``workers.read`` span move their spans to their own rows, and
``worker_hop`` keeps the rest: the frame round trip, framing and the
worker's dispatch.  ``unattributed`` is the client mean minus every row;
it is zero up to rounding when every span belongs to a row.
"""

from __future__ import annotations

import bisect
import json
import pathlib
from collections import defaultdict

ROWS = (
    "loadgen_wait", "http_residual", "gateway", "worker_hop", "query",
    "replication", "lock_wait", "service", "fsync", "sliding_window",
    "core", "msf", "trees",
)

_ROW_OF = {
    "workers.read": "worker_hop",
    "worker.dispatch": "worker_hop",
    "replication.write": "replication",
    "worker.catch_up": "replication",
    "service.query": "lock_wait",
    "worker.try_query": "lock_wait",
    "replication.follower_query": "lock_wait",
    "service.fsync": "fsync",
}


def row_of(name: str) -> str | None:
    row = _ROW_OF.get(name, name.split(".", 1)[0])
    return row if row in ROWS else None


def _roots(doc: dict):
    """``(root id, root name, t0, duration, spans)`` per root."""
    names = doc["names"]
    groups: dict[int, list] = defaultdict(list)
    for idx, root, t0, dur, self_ns in doc["spans"]:
        groups[root].append((names[idx], t0, dur, self_ns))
    for root, spans in groups.items():
        name, t0, dur, _ = spans[-1]  # a root finishes last
        yield root, name, t0, dur, spans


class Breakdown:
    """Server-side span totals (nanoseconds) of the matched requests."""

    def __init__(self) -> None:
        self.requests = {"read": 0, "write": 0}
        self.handler_ns = {"read": 0, "write": 0}
        self.rows = {"read": defaultdict(int), "write": defaultdict(int)}
        self.matched: set[str] = set()
        #: (kind, process, function) -> [calls, busy ns, self ns]
        self.funcs: dict[tuple, list] = defaultdict(lambda: [0, 0, 0])

    def _count(self, kind: str, role: str, spans: list) -> None:
        for name, _, d, s in spans:
            f = self.funcs[(kind, role, name)]
            f[0] += 1
            f[1] += d
            f[2] += s

    def add_gateway(self, doc: dict, client: dict[str, tuple]) -> list[tuple[int, int]]:
        """Matched gateway roots; returns their ``workers.read`` intervals.

        ``client`` maps request ids to ``(kind, receive time in ns)``.
        """
        tags = {int(k): v for k, v in doc["tags"].items()}
        hops = []
        for root, _, t0, dur, spans in _roots(doc):
            rid = tags.get(root)
            if rid not in client:
                continue
            kind, done = client[rid]
            tail = max(0, t0 + dur - done)
            self.matched.add(rid)
            self._count(kind, "gateway", spans)
            self.requests[kind] += 1
            self.handler_ns[kind] += dur - tail
            rows = self.rows[kind]
            rows["gateway"] -= tail
            for name, s0, d, s in spans:
                rows[row_of(name)] += s
                if name == "workers.read":
                    hops.append((s0, s0 + d))
        return sorted(hops)

    def add_worker(self, doc: dict, hops: list[tuple[int, int]], w0: int, w1: int) -> None:
        """Worker dispatches inside a matched ``workers.read`` span count
        toward reads; the tailing thread's polls in the window are listed
        as background."""
        starts = [a for a, _ in hops]
        for _, name, t0, _, spans in _roots(doc):
            if name != "worker.dispatch":
                if w0 <= t0 < w1:
                    self._count("background", "worker", spans)
                continue
            i = bisect.bisect_right(starts, t0)
            if not any(hops[j][1] >= t0 for j in range(max(0, i - 2), i)):
                continue
            self._count("read", "worker", spans)
            rows = self.rows["read"]
            for sname, _, _, s in spans:
                row = row_of(sname)
                if row != "worker_hop":  # already inside workers.read
                    rows[row] += s
                    rows["worker_hop"] -= s

    def per_request(self, kind: str, name: str) -> float:
        """Mean busy ms per request of ``kind`` in function ``name``,
        summed over processes."""
        n = self.requests[kind]
        total = sum(v[1] for (k, _, fn), v in self.funcs.items()
                    if k == kind and fn == name)
        return total / n / 1e6 if n else 0.0


def load(gateway: pathlib.Path, worker: pathlib.Path | None,
         client: dict[str, tuple], w0: float, w1: float) -> Breakdown:
    """Span files of one run -> :class:`Breakdown`.  ``client`` maps the
    ids of the main-phase requests to ``(kind, receive time in ns)``."""
    bd = Breakdown()
    hops = bd.add_gateway(json.loads(gateway.read_text()), client)
    if worker is not None:
        bd.add_worker(json.loads(worker.read_text()), hops,
                      int(w0 * 1e9), int(w1 * 1e9))
    return bd


def ladder(bd: Breakdown, kind: str, client: dict) -> dict[str, float]:
    """Rows (ms per request) for ``kind``; ``client`` holds the open-loop
    means ``total``, ``wait`` and ``rtt`` in ms over the same requests."""
    n = bd.requests[kind]
    rows = dict.fromkeys(ROWS, 0.0)
    rows["loadgen_wait"] = client["wait"]
    handler = bd.handler_ns[kind] / n / 1e6 if n else 0.0
    rows["http_residual"] = client["rtt"] - handler
    for row, ns in bd.rows[kind].items():
        if row is not None:
            rows[row] = ns / n / 1e6
    # Rounded so that float noise of an exact sum does not print as -0.
    rows["unattributed"] = round(client["total"] - sum(rows.values()), 9) + 0.0
    rows["total"] = client["total"]
    return rows


def format_ladder(name: str, read: dict, write: dict) -> list[str]:
    lines = [f"{name} ladder (mean ms per request, measured segments)",
             f"  {'row':16s} {'read':>10s} {'write':>10s}"]
    for row in ROWS + ("unattributed", "total"):
        lines.append(f"  {row:16s} {read[row]:10.4f} {write[row]:10.4f}")
    return lines


def format_functions(name: str, bd: Breakdown) -> list[str]:
    lines = [f"{name} spans of the open-loop requests (totals)",
             f"  {'kind':10s} {'process':8s} {'function':38s} "
             f"{'calls':>7s} {'busy_ms':>10s} {'self_ms':>10s}"]
    for (kind, role, fn), (calls, busy, self_ns) in sorted(bd.funcs.items()):
        lines.append(f"  {kind:10s} {role:8s} {fn:38s} {calls:7d} "
                     f"{busy / 1e6:10.2f} {self_ns / 1e6:10.2f}")
    return lines
