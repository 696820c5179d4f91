"""Sliding-window cycle-freeness (Theorem 5.6).

A graph with no cycles is a spanning forest, so with the order-2 maximal
spanning forest decomposition ``F_1, F_2`` of Section 5.4, the window graph
has a cycle iff ``F_2`` holds an unexpired edge (an edge beyond a spanning
forest) -- an O(1) query on the ordered set ``D_2``.
"""

from __future__ import annotations

from typing import Sequence

from repro.obs.metrics import get_metrics
from repro.runtime.cost import CostModel
from repro.sliding_window.base import WindowClock
from repro.sliding_window.kcertificate import SWKCertificate


class SWCycleFree:
    """Sliding-window cycle detection.

    - ``batch_insert``: ``O(l lg(1 + n/l))`` expected work (two cascades).
    - ``batch_expire``: ``O(delta lg(1 + n/delta))`` expected work.
    - ``has_cycle``: O(1) worst case.

    Self-loops are cycles: they are tracked by arrival position on the side
    since they can never enter a forest.  The structure owns the stream
    clock; the inner certificate receives global positions explicitly.
    """

    def __init__(
        self,
        n: int,
        seed: int = 0x5EED,
        cost: CostModel | None = None,
    ) -> None:
        self.cost = cost if cost is not None else CostModel()
        self.clock = WindowClock()
        self._cert = SWKCertificate(n, k=2, seed=seed, cost=self.cost)
        self._loop_taus: list[int] = []  # arrival positions of self-loops

    def batch_insert(self, edges: Sequence[tuple[int, int]]) -> None:
        """Insert edges (self-loops tracked separately as instant cycles)."""
        taus = self.clock.assign(len(edges))
        keep_edges, keep_taus = [], []
        for (u, v), tau in zip(edges, taus):
            if u == v:
                self._loop_taus.append(tau)
            else:
                keep_edges.append((u, v))
                keep_taus.append(tau)
        if keep_edges:
            # The inner certificate shares this cost model, so its own
            # window-insert phase nests under (and is included in) this one.
            with self.cost.phase("window-insert", items=len(edges)):
                self._cert.batch_insert(keep_edges, taus=keep_taus)
        get_metrics().counter("sw_cyclefree.self_loops").inc(
            len(edges) - len(keep_edges)
        )

    def batch_expire(self, delta: int) -> None:
        """Expire the ``delta`` oldest items (loops included)."""
        tw = self.clock.expire(delta)
        with self.cost.phase("window-expire", items=delta):
            self._cert.expire_until(tw)
            self._loop_taus = [t for t in self._loop_taus if t >= tw]

    def has_cycle(self) -> bool:
        """O(1): the second forest is non-empty iff a cycle is in-window."""
        return bool(self._loop_taus) or self._cert.certificate_sizes()[1] > 0

    def is_connected(self, u: int, v: int) -> bool:
        """Window connectivity via the inner certificate's ``F_1``, which
        spans every window component."""
        return self._cert.is_connected(u, v)

    def batch_is_connected(
        self, pairs: Sequence[tuple[int, int]]
    ) -> list[bool]:
        """Batched window connectivity off one shared ``batch-query``
        sweep of the certificate's ``F_1`` (see docs/batch_queries.md)."""
        return self._cert.batch_is_connected(pairs)

    @property
    def window_size(self) -> int:
        """Number of unexpired stream items."""
        return self.clock.window_size
