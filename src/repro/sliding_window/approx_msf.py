"""Sliding-window approximate MSF weight (Theorem 5.4).

For weights in ``[1, W]``, maintain ``R = O(eps^-1 lg W)`` eager
connectivity structures ``F_0 .. F_{R-1}``, where level ``i`` sees only the
edges of weight at most ``(1 + eps)^i``.  The classic reduction [11, 4, 13]
then approximates the MSF weight to within ``1 + eps`` as

    weight = (n - cc(G_0)) + sum_i (cc(G_{i-1}) - cc(G_i)) * (1 + eps)^i ,

where ``cc`` is the O(1) ``num_components`` query of Theorem 5.2.

The estimate treats the window graph as if each MSF edge of true weight
``w`` weighed the smallest ``(1 + eps)^i >= w``; for disconnected windows
the convention (as in the reduction) is that only intra-component MSF
weight is counted.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.obs.metrics import get_metrics
from repro.runtime.cost import CostModel, log2ceil, parallel_regions
from repro.sliding_window.base import WindowClock
from repro.sliding_window.connectivity import SWConnectivityEager


class SWApproxMSFWeight:
    """(1 + eps)-approximate MSF weight over a sliding window.

    Args:
        n: vertex count.
        eps: approximation parameter (> 0).
        max_weight: upper bound ``W`` on edge weights (weights must lie in
            ``[1, W]``); sets ``R = ceil(log_{1+eps} W) + 1`` levels.

    - ``batch_insert``: ``O(eps^-1 l lg W lg(1 + n/l))`` expected work.
    - ``batch_expire``: ``O(eps^-1 delta lg W lg(1 + n/delta))`` expected.
    - ``weight``: ``O(R)`` work (R ``num_components`` calls + the sum).
    """

    def __init__(
        self,
        n: int,
        eps: float,
        max_weight: float,
        seed: int = 0x5EED,
        cost: CostModel | None = None,
    ) -> None:
        if eps <= 0:
            raise ValueError("eps must be positive")
        if max_weight < 1:
            raise ValueError("weights are assumed to lie in [1, max_weight]")
        self.n = n
        self.eps = eps
        self.max_weight = max_weight
        self.cost = cost if cost is not None else CostModel()
        self.clock = WindowClock()
        self.num_levels = max(1, math.ceil(math.log(max_weight, 1.0 + eps))) + 1
        # Each level gets its own sub-model; updates run on all levels in
        # parallel (Section 5.3: "batch-inserting into R SW-Conn-Eager
        # instances in parallel"), so the parent is charged sum-work /
        # max-span across levels.
        self._level_costs = [
            CostModel(enabled=self.cost.enabled) for _ in range(self.num_levels)
        ]
        self._levels = [
            SWConnectivityEager(n, seed=seed + i, cost=self._level_costs[i])
            for i in range(self.num_levels)
        ]

    def _threshold(self, i: int) -> float:
        return (1.0 + self.eps) ** i

    def batch_insert(self, edges: Sequence[tuple[int, int, float]]) -> None:
        """Insert weighted edges ``(u, v, w)`` with ``1 <= w <= W``."""
        for u, v, w in edges:
            if not (1.0 <= w <= self.max_weight):
                raise ValueError(
                    f"edge weight {w} outside [1, {self.max_weight}]"
                )
        taus = list(self.clock.assign(len(edges)))

        # Level i receives the sub-stream of edges with w <= (1+eps)^i, with
        # global positions so expiry lines up across levels; all levels are
        # updated in parallel (sum-work, max-span).
        def insert_into(i, level):
            thr = self._threshold(i)
            sub = [((u, v), tau) for (u, v, w), tau in zip(edges, taus) if w <= thr]
            if sub:
                level.batch_insert([e for e, _ in sub], taus=[t for _, t in sub])

        with self.cost.phase("window-insert", items=len(edges)):
            parallel_regions(
                self.cost,
                [
                    (self._level_costs[i], (lambda i=i, lvl=lvl: insert_into(i, lvl)))
                    for i, lvl in enumerate(self._levels)
                ],
            )
        get_metrics().counter("sw_approx_msf.inserted").inc(len(edges))

    def batch_expire(self, delta: int) -> None:
        """Expire the ``delta`` oldest stream items at every level."""
        tw = self.clock.expire(delta)
        with self.cost.phase("window-expire", items=delta):
            parallel_regions(
                self.cost,
                [
                    (self._level_costs[i], (lambda lvl=lvl: lvl.expire_until(tw)))
                    for i, lvl in enumerate(self._levels)
                ],
            )

    def weight(self) -> float:
        """(1 + eps)-approximate window MSF weight; O(R) work, O(lg R) span.

        Recomputed from equation (1) of Section 5.3 on each call (the paper
        recomputes it at the end of each update; exposing it as a query is
        equivalent and keeps updates cheaper when no one is looking).
        """
        with self.cost.phase("window-query"):
            self.cost.add(
                work=self.num_levels, span=log2ceil(max(self.num_levels, 2))
            )
        cc = [lvl.num_components for lvl in self._levels]
        total = float(self.n - cc[0])
        for i in range(1, self.num_levels):
            total += (cc[i - 1] - cc[i]) * self._threshold(i)
        return total

    def is_connected(self, u: int, v: int) -> bool:
        """Window connectivity, answered by the top level (its threshold
        is ``>= W``, so it sees every window edge)."""
        top = self.num_levels - 1
        return parallel_regions(
            self.cost,
            [(self._level_costs[top], lambda: self._levels[top].is_connected(u, v))],
        )[0]

    def batch_is_connected(
        self, pairs: Sequence[tuple[int, int]]
    ) -> list[bool]:
        """Window connectivity for a whole pair batch off one shared
        ``batch-query`` sweep of the top level (see
        docs/batch_queries.md)."""
        if not pairs:
            return []
        top = self.num_levels - 1
        with self.cost.phase("window-query", items=len(pairs)):
            return parallel_regions(
                self.cost,
                [
                    (
                        self._level_costs[top],
                        lambda: self._levels[top].batch_is_connected(pairs),
                    )
                ],
            )[0]

    @property
    def window_size(self) -> int:
        """Number of unexpired stream items."""
        return self.clock.window_size
