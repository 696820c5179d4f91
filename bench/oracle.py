"""An answer oracle for the sliding-window connectivity service.

It shares no code with ``repro``: it rebuilds the window from the writes
the client sent and answers queries with union-find and a Kruskal forest.

Model of the served state (``SWConnectivityEager`` behind
``ReplicatedService.write``):

- every edge of a round gets the next stream position ``tau``; self-loops
  count toward the window but never connect anything;
- ``expire k`` advances the window start by ``k`` positions (never past
  the newest);
- one write commits one round, or two when its edge batch alone reaches
  the service's flush threshold (the inserts flush inline, the expire is
  the second round).  The gap between consecutive write LSNs tells which;
- ``path_max(u, v)`` is the heaviest ``(weight, eid) = (-tau, tau)`` edge
  on the window's minimum spanning forest path, i.e. the *oldest* edge on
  the path of the newest-first Kruskal forest; ``null`` when ``u == v`` or
  disconnected.

A read answered from a replica reports the LSN it had replayed, but the
server reads that LSN after releasing the replica's lock, so a write that
commits in between makes it overstated.  :func:`check_reads` therefore
checks each sampled read against every state it could have seen: from the
highest LSN the client knew to be applied when it sent the read, up to the
LSN the reply names.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field


class OracleError(RuntimeError):
    """The recorded writes do not describe a consistent round sequence."""


class WindowState:
    """The window after ``k`` rounds: union-find plus a rooted forest."""

    def __init__(self, n: int, items: list, t: int, tw: int) -> None:
        self.size = t - tw
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        adj: list[list] = [[] for _ in range(n)]
        edges = 0
        for tau in range(t - 1, tw - 1, -1):  # newest first
            u, v = items[tau]
            if u == v:
                continue
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                adj[u].append((v, tau))
                adj[v].append((u, tau))
                edges += 1
        self.components = n - edges
        self.comp = [find(x) for x in range(n)]
        # Root every tree for path walks: parent, parent-edge tau, depth.
        self.up = [-1] * n
        self.up_tau = [0] * n
        self.depth = [-1] * n
        for r in range(n):
            if self.depth[r] >= 0:
                continue
            self.depth[r] = 0
            stack = [r]
            while stack:
                x = stack.pop()
                for y, tau in adj[x]:
                    if self.depth[y] < 0:
                        self.depth[y] = self.depth[x] + 1
                        self.up[y] = x
                        self.up_tau[y] = tau
                        stack.append(y)

    def answer(self, query: list):
        kind = query[0]
        if kind == "window_size":
            return self.size
        if kind == "components":
            return self.components
        u, v = query[1], query[2]
        if kind == "connected":
            return u == v or self.comp[u] == self.comp[v]
        if kind == "path_max":
            if u == v or self.comp[u] != self.comp[v]:
                return None
            oldest = self._oldest_on_path(u, v)
            return [-float(oldest), oldest]
        raise ValueError(f"oracle cannot answer {kind!r}")

    def _oldest_on_path(self, u: int, v: int) -> int:
        depth, up, up_tau = self.depth, self.up, self.up_tau
        best = None
        while depth[u] > depth[v]:
            best = up_tau[u] if best is None else min(best, up_tau[u])
            u = up[u]
        while depth[v] > depth[u]:
            best = up_tau[v] if best is None else min(best, up_tau[v])
            v = up[v]
        while u != v:
            m = min(up_tau[u], up_tau[v])
            best = m if best is None else min(best, m)
            u, v = up[u], up[v]
        return best


class Window:
    """The round sequence behind a stream of acknowledged writes.

    Args:
        n: vertex count.
        writes: ``(lsn, edges, expire)`` per acknowledged write, any order.
    """

    def __init__(self, n: int, writes: list[tuple[int, list, int]]) -> None:
        self.n = n
        self.items: list[tuple[int, int]] = []
        # t[k], tw[k]: stream clock after k rounds.
        self.t, self.tw = [0], [0]
        prev = -1
        for lsn, edges, expire in sorted(writes, key=lambda w: w[0]):
            gap = lsn - prev
            if gap == 1:
                self._round(edges, expire)
            elif gap == 2 and edges and expire:
                self._round(edges, 0)
                self._round([], expire)
            else:
                raise OracleError(
                    f"write acknowledged as lsn {lsn} after lsn {prev}: "
                    f"{len(edges)} edges + expire {expire} cannot span "
                    f"{gap} rounds"
                )
            prev = lsn
        self._states: dict[int, WindowState] = {}

    def _round(self, edges: list, expire: int) -> None:
        self.items.extend((int(u), int(v)) for u, v in edges)
        t = len(self.items)
        self.t.append(t)
        self.tw.append(min(t, self.tw[-1] + expire))

    @property
    def rounds(self) -> int:
        return len(self.t) - 1

    def state(self, k: int) -> WindowState:
        """The window after ``k`` rounds (cached)."""
        st = self._states.get(k)
        if st is None:
            st = WindowState(self.n, self.items, self.t[k], self.tw[k])
            self._states[k] = st
        return st


@dataclass
class Read:
    """One answered read as the client saw it."""

    send: float
    done: float
    queries: list
    at_least: int | None
    lsn: int
    replica: str
    answers: list


@dataclass
class Verdict:
    checked: int = 0          # reads whose answers were compared
    wrong: int = 0            # reads with an answer no candidate state gives
    ryw_violations: int = 0   # token reads answered below their token
    unchecked: int = 0        # sampled reads with too wide a candidate range
    messages: list = field(default_factory=list)

    def note(self, msg: str) -> None:
        if len(self.messages) < 10:
            self.messages.append(msg)


#: A sampled read whose candidate LSN range is wider than this is skipped
#: (each candidate costs one window rebuild).
MAX_CANDIDATES = 6


def check_reads(
    window: Window,
    reads: list[Read],
    write_acks: list[tuple[float, int]],
    sample: int,
    seed: int,
) -> Verdict:
    """Check token reads' LSNs, and a seeded sample of reads' answers.

    ``write_acks`` holds ``(time the client received the ack, lsn)`` for
    every acknowledged write.
    """
    v = Verdict()
    acks = sorted(write_acks)
    ack_times = [t for t, _ in acks]
    ack_max = []
    for _, lsn in acks:
        ack_max.append(max(lsn, ack_max[-1] if ack_max else -1))
    # Replies each replica gave, by receipt time: a later read on the same
    # replica sees at least the state those replies named.
    seen: dict[str, tuple[list, list]] = {}
    for r in sorted(reads, key=lambda r: r.done):
        times, best = seen.setdefault(r.replica, ([], []))
        times.append(r.done)
        best.append(max(r.lsn, best[-1] if best else 0))

    def floor(r: Read) -> int:
        lo = 0 if r.at_least is None else r.at_least + 1
        if not r.replica.startswith("worker"):
            # The primary has applied every acknowledged write; workers
            # replicate asynchronously, so only a token binds them.
            i = bisect.bisect_left(ack_times, r.send)
            if i:
                lo = max(lo, ack_max[i - 1] + 1)
        times, best = seen[r.replica]
        i = bisect.bisect_left(times, r.send)
        if i:
            lo = max(lo, best[i - 1])
        return lo

    for r in reads:
        if r.at_least is not None and r.lsn <= r.at_least:
            v.ryw_violations += 1
            v.note(f"read with at_least={r.at_least} answered at lsn {r.lsn}")
    rng = random.Random(f"{seed}:oracle")
    for r in rng.sample(reads, min(sample, len(reads))):
        lo, hi = floor(r), r.lsn
        if hi > window.rounds:
            v.unchecked += 1
            continue
        if lo > hi:
            v.wrong += 1
            v.note(f"reply lsn {hi} is below the known-applied lsn {lo}")
            continue
        if hi - lo + 1 > MAX_CANDIDATES:
            v.unchecked += 1
            continue
        v.checked += 1
        if not any(
            _matches(window.state(k), r.queries, r.answers)
            for k in range(hi, lo - 1, -1)
        ):
            v.wrong += 1
            v.note(f"answers match no state in lsn [{lo}, {hi}]: {r.queries[:4]}")
    return v


def check_probes(window: Window, reads: list[Read]) -> Verdict:
    """Probe reads sent at quiescence must show exactly the final state."""
    v = Verdict()
    final = window.state(window.rounds)
    for r in reads:
        v.checked += 1
        if r.lsn != window.rounds:
            v.wrong += 1
            v.note(f"quiescent probe answered at lsn {r.lsn}, expected {window.rounds}")
        elif not _matches(final, r.queries, r.answers):
            v.wrong += 1
            v.note(f"probe answers disagree with the oracle: {r.queries[:4]}")
    return v


def _matches(state: WindowState, queries: list, answers: list) -> bool:
    return len(queries) == len(answers) and all(
        state.answer(q) == a for q, a in zip(queries, answers)
    )
