"""Sliding-window graph connectivity (Theorems 5.1 and 5.2).

:class:`SWConnectivity` is the lazy structure of Theorem 5.1: expiry is an
O(1) advance of the window pointer ``TW``, and ``is_connected`` checks the
recent-edge condition ``tau(e*) >= TW`` on the oldest edge ``e*`` of the
tree path.  :class:`SWConnectivityEager` (Theorem 5.2) additionally keeps
the MSF edges in an ordered set keyed by ``tau`` and evicts expired edges
eagerly, which makes ``num_components`` an O(1) query.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.batch_msf import BatchIncrementalMSF
from repro.obs.metrics import get_metrics
from repro.orderedset.treap import Treap
from repro.runtime.cost import CostModel
from repro.sliding_window.base import WindowClock


class SWConnectivity:
    """Lazy sliding-window connectivity (Theorem 5.1).

    - ``batch_insert``: ``O(l lg(1 + n/l))`` expected work, ``O(lg^2 n)``
      span w.h.p.
    - ``batch_expire``: O(1) worst case.
    - ``is_connected``: ``O(lg n)`` w.h.p.
    - space: O(n) words beyond the clock.
    """

    def __init__(
        self,
        n: int,
        seed: int = 0x5EED,
        cost: CostModel | None = None,
    ) -> None:
        self.n = n
        self.cost = cost if cost is not None else CostModel()
        self.clock = WindowClock()
        self._msf = BatchIncrementalMSF(n, seed=seed, cost=self.cost)

    def batch_insert(
        self, edges: Sequence[tuple[int, int]], taus: Sequence[int] | None = None
    ) -> None:
        """Insert edges ``(u, v)``; optional explicit stream positions.

        Explicit ``taus`` (for structures sharing a parent clock) must be
        strictly increasing and at least the current clock position.
        """
        if taus is None:
            taus = self.clock.assign(len(edges))
        else:
            if len(taus) != len(edges):
                raise ValueError("taus and edges must have equal length")
            if any(b <= a for a, b in zip(taus, taus[1:])) or (
                len(taus) and taus[0] < self.clock.t
            ):
                raise ValueError("explicit taus must be increasing and fresh")
            if len(taus):
                self.clock.t = taus[-1] + 1
        with self.cost.phase("window-insert", items=len(edges)):
            rows = [(u, v, -float(tau), tau) for (u, v), tau in zip(edges, taus)]
            self._msf.batch_insert(rows)
        get_metrics().counter("sw_connectivity.inserted").inc(len(edges))

    def batch_expire(self, delta: int) -> None:
        """Expire the ``delta`` oldest stream items; O(1)."""
        with self.cost.phase("window-expire", items=delta):
            self.clock.expire(delta)

    def expire_until(self, tau: int) -> None:
        """Advance the window start to global position ``tau`` (for
        structures sharing a parent clock)."""
        self.clock.expire_until(tau)

    def is_connected(self, u: int, v: int) -> bool:
        """Window connectivity via the recent-edge lemma; O(lg n) w.h.p."""
        if u == v:
            return True
        heaviest = self._msf.heaviest_edge(u, v)
        if heaviest is None:
            return False
        oldest_tau = heaviest[1]  # eid == tau
        return oldest_tau >= self.clock.tw

    def batch_is_connected(
        self, pairs: Sequence[tuple[int, int]]
    ) -> list[bool]:
        """Window connectivity for a whole batch of pairs at once.

        ``l`` queries share one ``batch-query`` sweep of the RC tree --
        ``O(l lg(1 + n/l))`` expected work total (Theorem 3.2; see
        docs/batch_queries.md) instead of ``l`` independent ``O(lg n)``
        path maxima.  Answers match :meth:`is_connected` exactly.
        """
        with self.cost.phase("window-query", items=len(pairs)):
            heaviest = self._msf.batch_heaviest_edges(pairs)
        out = []
        for (u, v), h in zip(pairs, heaviest):
            if u == v:
                out.append(True)
            else:
                # eid == tau: h carries the oldest tau on the tree path.
                out.append(h is not None and h[1] >= self.clock.tw)
        return out

    def heaviest_edge(self, u: int, v: int) -> tuple[float, int] | None:
        """Heaviest ``(weight, eid)`` on the maintained tree path ``u--v``.

        Window edges are weighted ``-tau``, so the "heaviest" edge is the
        *oldest* on the path and ``eid`` is its stream position -- the
        quantity the recent-edge lemma tests.  ``None`` when the tree
        does not connect them (or ``u == v``).
        """
        return self._msf.heaviest_edge(u, v)

    def batch_heaviest_edges(
        self, pairs: Sequence[tuple[int, int]]
    ) -> list[tuple[float, int] | None]:
        """:meth:`heaviest_edge` for a whole batch off one shared
        ``batch-query`` sweep."""
        with self.cost.phase("window-query", items=len(pairs)):
            return self._msf.batch_heaviest_edges(pairs)

    @property
    def window_size(self) -> int:
        """Number of unexpired stream items."""
        return self.clock.window_size


class SWConnectivityEager(SWConnectivity):
    """Eager sliding-window connectivity with component counting
    (Theorem 5.2).

    Keeps an ordered set ``D`` of unexpired MSF edges by ``tau``;
    ``batch_expire`` splits off and physically cuts the expired prefix, so
    the maintained forest spans exactly the window graph and
    ``num_components = n - |D|`` in O(1).
    """

    def __init__(
        self,
        n: int,
        seed: int = 0x5EED,
        cost: CostModel | None = None,
    ) -> None:
        super().__init__(n, seed=seed, cost=cost)
        self._d = Treap(cost=self.cost)

    def batch_insert(
        self, edges: Sequence[tuple[int, int]], taus: Sequence[int] | None = None
    ) -> None:
        """Insert edges and keep the ordered MSF-edge set in step
        (Theorem 5.2 bounds)."""
        if taus is None:
            taus = self.clock.assign(len(edges))
        else:
            if len(taus) != len(edges):
                raise ValueError("taus and edges must have equal length")
            if any(b <= a for a, b in zip(taus, taus[1:])) or (
                len(taus) and taus[0] < self.clock.t
            ):
                raise ValueError("explicit taus must be increasing and fresh")
            if len(taus):
                self.clock.t = taus[-1] + 1
        with self.cost.phase("window-insert", items=len(edges)):
            rows = [(u, v, -float(tau), tau) for (u, v), tau in zip(edges, taus)]
            report = self._msf.batch_insert(rows)
            self._d.insert_many((eid, (u, v)) for u, v, _, eid in report.inserted)
            self._d.delete_many(eid for _, _, _, eid in report.evicted)
        get_metrics().counter("sw_connectivity.inserted").inc(len(edges))

    def batch_expire(self, delta: int) -> None:
        """Expire ``delta`` oldest items; ``O(delta lg(1 + n/delta) + lg n)``
        expected work, ``O(lg^2 n)`` span w.h.p."""
        self.expire_until(self.clock.tw + delta)

    def expire_until(self, tau: int) -> None:
        """Advance to ``tau`` and physically cut the expired MSF edges."""
        with self.cost.phase("window-expire") as ph:
            tau = self.clock.expire_until(tau)
            expired = self._d.split_at(tau)
            ph.count(len(expired))
            if len(expired):
                self._msf.forget_edges([eid for eid, _ in expired.items()])
        get_metrics().counter("sw_connectivity.expired").inc(len(expired))

    def is_connected(self, u: int, v: int) -> bool:
        """O(lg n) w.h.p.; the forest holds only unexpired edges."""
        return u == v or self._msf.connected(u, v)

    def batch_is_connected(
        self, pairs: Sequence[tuple[int, int]]
    ) -> list[bool]:
        """Batched connectivity off one shared root-walk sweep; the eager
        forest holds only unexpired edges, so plain tree connectivity
        suffices."""
        with self.cost.phase("window-query", items=len(pairs)):
            conn = self._msf.batch_connected(pairs)
        return [u == v or c for (u, v), c in zip(pairs, conn)]

    @property
    def num_components(self) -> int:
        """O(1) worst-case (Theorem 5.2)."""
        return self.n - len(self._d)

    def forest_edges(self) -> list[tuple[int, int, int]]:
        """Unexpired spanning-forest edges as ``(u, v, tau)`` (O(n))."""
        return [(u, v, tau) for tau, (u, v) in self._d.items()]
