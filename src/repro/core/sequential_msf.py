"""Sequential incremental MSF: the classical one-at-a-time algorithm.

Insertion of an edge ``e = (u, v)``: if ``u`` and ``v`` are in different
trees, link; otherwise find the heaviest edge on the tree path ``u--v``
(dynamic-trees path query [47]) and, if it is heavier than ``e``, swap.
``O(lg n)`` per edge -- the baseline Theorem 1.1 is work-efficient against,
and the l = 1 degenerate case of Algorithm 2.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.batch_msf import InsertReport
from repro.runtime.cost import CostModel
from repro.trees.forest import DynamicForest


class SequentialIncrementalMSF:
    """Incremental MSF processing edges one at a time (baseline).

    Exposes the same query interface and report semantics as
    :class:`~repro.core.BatchIncrementalMSF`; ``batch_insert`` simply loops,
    so its work is ``O(l lg n)`` and its span equals its work.
    """

    def __init__(
        self,
        n: int,
        seed: int = 0x5EED,
        cost: CostModel | None = None,
    ) -> None:
        self.n = n
        self.cost = cost if cost is not None else CostModel()
        self.forest = DynamicForest(n, seed=seed, cost=self.cost, augment="msf")
        self._next_eid = 0
        self._seen_eids: set[int] = set()

    def insert(
        self, u: int, v: int, w: float, eid: int | None = None
    ) -> InsertReport:
        """Insert one edge; returns a report with at most one swap."""
        if eid is None:
            eid = self._next_eid
            self._next_eid += 1
        else:
            if eid < 0:
                raise ValueError(f"edge ids must be non-negative, got {eid}")
            if eid in self._seen_eids:
                raise ValueError(f"edge id {eid} was already inserted")
            self._next_eid = max(self._next_eid, eid + 1)
        self._seen_eids.add(eid)
        u, v, w = int(u), int(v), float(w)
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"endpoint out of range: ({u}, {v})")
        report = InsertReport()
        if u == v:
            report.rejected.append((u, v, w, eid))
            return report

        heaviest = self.forest.path_max(u, v)
        if heaviest is None and not self.forest.connected(u, v):
            self.forest.batch_link([(u, v, w, eid)])
            report.inserted.append((u, v, w, eid))
        elif heaviest is not None and (w, eid) < heaviest:
            old_w, old_eid = heaviest
            ou, ov, _ = self.forest.edge_info(old_eid)
            self.forest.batch_update(
                links=[(u, v, w, eid)], cut_eids=[old_eid]
            )
            report.inserted.append((u, v, w, eid))
            report.evicted.append((ou, ov, old_w, old_eid))
        else:
            report.rejected.append((u, v, w, eid))
        return report

    def batch_insert(self, edges: Iterable[Sequence]) -> InsertReport:
        """Insert edges one at a time (for interface parity with Alg. 2)."""
        out = InsertReport()
        for row in edges:
            r = self.insert(*row)
            out.inserted.extend(r.inserted)
            out.evicted.extend(r.evicted)
            out.rejected.extend(r.rejected)
        # An edge inserted earlier in the loop and evicted later in the same
        # call is neither inserted nor evicted from the caller's view.
        swapped = {e[3] for e in out.inserted} & {e[3] for e in out.evicted}
        if swapped:
            out.rejected.extend(e for e in out.inserted if e[3] in swapped)
            out.inserted = [e for e in out.inserted if e[3] not in swapped]
            out.evicted = [e for e in out.evicted if e[3] not in swapped]
        return out

    # -- queries (same surface as BatchIncrementalMSF) ---------------------

    def connected(self, u: int, v: int) -> bool:
        """Whether ``u`` and ``v`` are connected; O(lg n) w.h.p."""
        return self.forest.connected(u, v)

    def heaviest_edge(self, u: int, v: int) -> tuple[float, int] | None:
        """Heaviest (weight, eid) on the MSF path; O(lg n) w.h.p."""
        return self.forest.path_max(u, v)

    def msf_edges(self) -> list[tuple[int, int, float, int]]:
        """The current MSF edge set (O(n))."""
        return self.forest.edges()

    def total_weight(self) -> float:
        """Total MSF weight (O(n))."""
        return sum(w for _, _, w, _ in self.forest.edges())

    @property
    def num_components(self) -> int:
        """Number of connected components (isolated vertices count)."""
        return self.forest.num_components

    @property
    def num_msf_edges(self) -> int:
        """Number of edges currently in the MSF."""
        return self.forest.num_edges
