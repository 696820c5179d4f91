"""Parallel batch-incremental minimum spanning forests (Section 4, Algorithm 2).

``BatchInsert(E+)``:

1. collect the distinct endpoints ``K`` of the batch (semisort);
2. build the compressed path trees ``C`` of the current MSF w.r.t. ``K``
   (Section 3) -- ``C`` summarises every cycle the new edges could close;
3. compute the MSF ``M`` of the O(l)-size graph ``C + E+`` with a linear
   work kernel (KKT, standing in for Cole-Klein-Tarjan);
4. delete from the maintained forest the base edges behind ``E(C) \\ E(M)``
   and insert ``E(M) ∩ E+`` (Theorem 4.1 proves the result is the MSF of
   ``G + E+``).

Total: ``O(l lg(1 + n/l))`` expected work, ``O(lg^2 n)`` span w.h.p.
(Theorem 4.2).  Weight ties break by edge id -- lower (older) id wins -- so
the maintained MSF is unique and insertion order cannot flip ties.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.msf.graph import EdgeArray
from repro.msf.filter_kruskal import filter_kruskal_msf
from repro.msf.kkt import kkt_msf
from repro.msf.kruskal import kruskal_msf
from repro.msf.boruvka import boruvka_msf
from repro.msf.prim import prim_msf
from repro.obs.metrics import get_metrics
from repro.primitives.semisort import dedup_ints
from repro.runtime.cost import CostModel
from repro.trees.forest import DynamicForest

_KERNELS: dict[str, Callable] = {
    "kkt": kkt_msf,
    "kruskal": kruskal_msf,
    "filter-kruskal": filter_kruskal_msf,
    "boruvka": boruvka_msf,
    "prim": prim_msf,
}


@dataclass
class InsertReport:
    """Outcome of one ``BatchInsert``.

    Attributes:
        inserted: new edges that entered the MSF, as ``(u, v, w, eid)``.
        evicted: previously-held MSF edges displaced by the batch.
        rejected: new edges that did not enter (heaviest on some cycle).

    ``evicted + rejected`` is exactly the "replaced" edge set that the
    k-certificate construction of Section 5.4 cascades into the next forest.
    """

    inserted: list[tuple[int, int, float, int]] = field(default_factory=list)
    evicted: list[tuple[int, int, float, int]] = field(default_factory=list)
    rejected: list[tuple[int, int, float, int]] = field(default_factory=list)

    @property
    def replaced(self) -> list[tuple[int, int, float, int]]:
        """Evicted plus rejected: the k-certificate cascade set (Section 5.4)."""
        return self.evicted + self.rejected


class BatchIncrementalMSF:
    """Work-efficient batch-incremental MSF over vertices ``0..n-1``.

    Args:
        n: number of vertices.
        seed: seed for the randomized tree contraction underneath.
        cost: shared :class:`CostModel`; a fresh enabled one by default.
        kernel: static MSF kernel for the per-batch local graph -- one of
            ``"kkt"`` (default; expected linear work), ``"kruskal"``,
            ``"boruvka"``, ``"prim"``, or any callable with the same
            signature.

    Edge ids: callers may pass explicit non-negative ids (must be unique
    over the structure's lifetime); otherwise ids are assigned from an
    increasing counter, which makes *older edges win weight ties* -- the
    convention the sliding-window layer relies on.
    """

    def __init__(
        self,
        n: int,
        seed: int = 0x5EED,
        cost: CostModel | None = None,
        kernel: str | Callable = "kkt",
        compress_rule: str = "mr",
    ) -> None:
        self.n = n
        self.cost = cost if cost is not None else CostModel()
        # The empty-forest build is charged to its own phase so that every
        # unit of work on this model is attributed to a named phase (the
        # observability layer's sum-to-total invariant; docs/observability.md).
        # Algorithm 2 reads only path maxima and CPT edges, so the forest
        # maintains the ``msf`` augmentation profile.
        with self.cost.phase("init", items=n):
            self.forest = DynamicForest(
                n,
                seed=seed,
                cost=self.cost,
                compress_rule=compress_rule,
                augment="msf",
            )
        if callable(kernel):
            self._kernel = kernel
        else:
            try:
                self._kernel = _KERNELS[kernel]
            except KeyError:
                raise ValueError(
                    f"unknown kernel {kernel!r}; pick from {sorted(_KERNELS)}"
                ) from None
        self._next_eid = 0
        self._seen_eids: set[int] = set()

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def _normalize(
        self, edges: Iterable[Sequence]
    ) -> tuple[list[tuple[int, int, float, int]], list[tuple[int, int, float, int]]]:
        batch: list[tuple[int, int, float, int]] = []
        rejected: list[tuple[int, int, float, int]] = []
        for row in edges:
            if len(row) == 3:
                u, v, w = row
                eid = self._next_eid
                self._next_eid += 1
            elif len(row) == 4:
                u, v, w, eid = row
                if eid < 0:
                    raise ValueError(f"edge ids must be non-negative, got {eid}")
                if eid in self._seen_eids:
                    raise ValueError(f"edge id {eid} was already inserted")
                self._next_eid = max(self._next_eid, eid + 1)
            else:
                raise ValueError("edges must be (u, v, w) or (u, v, w, eid)")
            u, v, w, eid = int(u), int(v), float(w), int(eid)
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"endpoint out of range: ({u}, {v})")
            self._seen_eids.add(eid)
            if u == v:
                rejected.append((u, v, w, eid))  # self-loop: never in an MSF
            else:
                batch.append((u, v, w, eid))
        return batch, rejected

    def batch_insert(self, edges: Iterable[Sequence]) -> InsertReport:
        """Insert a batch of edges ``(u, v, w [, eid])``; returns the report.

        ``O(l lg(1 + n/l))`` expected work, ``O(lg^2 n)`` span w.h.p.
        """
        # Algorithm 2's four stages each run under a named phase span, so a
        # trace attributes every unit of the O(l lg(1 + n/l)) work to the
        # stage that charged it (see docs/observability.md).
        metrics = get_metrics()

        # Line 2: K <- endpoints of E+ (semisort/dedup).
        with self.cost.phase("semisort") as ph:
            batch, pre_rejected = self._normalize(edges)
            report = InsertReport(rejected=pre_rejected)
            ph.count(len(batch))
            if not batch:
                return report
            endpoints = np.fromiter(
                (x for u, v, _, _ in batch for x in (u, v)),
                dtype=np.int64,
                count=2 * len(batch),
            )
            marks = dedup_ints(endpoints, cost=self.cost)
        metrics.counter("batch_msf.batches").inc()
        metrics.histogram("batch_msf.batch_size").observe(len(batch))

        # Line 3: compressed path trees w.r.t. K.
        with self.cost.phase("cpt-build") as ph:
            cpt = self.forest.compressed_path_tree(marks.tolist())
            ph.count(cpt.num_vertices)

        # Line 4: MSF of C ∪ E+ on a dense local vertex relabeling.
        with self.cost.phase("msf-kernel") as ph:
            local_of = {v: i for i, v in enumerate(cpt.vertices)}
            rows = [
                (local_of[a], local_of[b], w, eid) for a, b, w, eid in cpt.edges
            ] + [(local_of[u], local_of[v], w, eid) for u, v, w, eid in batch]
            local = EdgeArray.from_tuples(len(local_of), rows)
            chosen = set(local.eid[self._kernel(local, cost=self.cost)].tolist())
            ph.count(len(rows))

        # Lines 5-6: RC.BatchDelete(E(C) \ E(M)); RC.BatchInsert(E(M) ∩ E+),
        # applied in one propagation pass over the dynamic forest.
        with self.cost.phase("forest-splice") as ph:
            cut_eids = [eid for _, _, _, eid in cpt.edges if eid not in chosen]
            links = [e for e in batch if e[3] in chosen]
            for eid in cut_eids:
                u, v, w = self.forest.edge_info(eid)
                report.evicted.append((u, v, w, eid))
            report.inserted.extend(links)
            report.rejected.extend(e for e in batch if e[3] not in chosen)
            self.forest.batch_update(links=links, cut_eids=cut_eids)
            ph.count(len(links) + len(cut_eids))
        metrics.counter("batch_msf.inserted").inc(len(report.inserted))
        metrics.counter("batch_msf.evicted").inc(len(report.evicted))
        return report

    def forget_edges(self, eids: Sequence[int]) -> None:
        """Cut MSF edges without replacement.

        This is *not* a general dynamic deletion -- it is the eager-expiry
        primitive of the sliding-window layer (Theorem 5.2), valid there
        because the recent-edge property guarantees any replacement edge
        would already have been kept in the forest.
        """
        eids = list(eids)
        with self.cost.phase("forest-splice", items=len(eids)):
            self.forest.batch_cut(eids)
        get_metrics().counter("batch_msf.expired").inc(len(eids))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def connected(self, u: int, v: int) -> bool:
        """Whether ``u`` and ``v`` are connected; O(lg n) w.h.p."""
        return self.forest.connected(u, v)

    def heaviest_edge(self, u: int, v: int) -> tuple[float, int] | None:
        """Heaviest ``(weight, eid)`` on the MSF path ``u--v`` (O(lg n))."""
        return self.forest.path_max(u, v)

    def batch_heaviest_edges(
        self, pairs: Sequence[tuple[int, int]]
    ) -> list[tuple[float, int] | None]:
        """Heaviest ``(weight, eid)`` per queried path in one shared sweep.

        This is where Theorem 3.2 pays off on the read path: ``l`` path
        queries share one ``O(l lg(1 + n/l))`` expected-work traversal
        (the forest's ``batch-query`` sweep -- all endpoints climb the RC
        tree together, merging walks at common ancestors) instead of
        ``l`` independent ``O(lg n)`` two-vertex CPT builds.  Entries are
        ``None`` for disconnected pairs and for ``u == v``.
        """
        pairs = [(int(u), int(v)) for u, v in pairs]
        if not pairs:
            return []
        out = self.forest.batch_path_max(pairs)
        get_metrics().counter("batch_msf.path_queries").inc(len(pairs))
        return out

    def batch_connected(
        self, pairs: Sequence[tuple[int, int]]
    ) -> list[bool]:
        """Connectivity per queried pair in one shared root-walk sweep
        (``O(l lg(1 + n/l))`` expected work for ``l`` pairs; see
        :meth:`batch_heaviest_edges`)."""
        pairs = [(int(u), int(v)) for u, v in pairs]
        if not pairs:
            return []
        out = self.forest.batch_connected(pairs)
        get_metrics().counter("batch_msf.path_queries").inc(len(pairs))
        return out

    def msf_edges(self) -> list[tuple[int, int, float, int]]:
        """The current MSF edge set (O(n))."""
        return self.forest.edges()

    def has_edge(self, eid: int) -> bool:
        """Whether ``eid`` is currently an MSF edge."""
        return self.forest.has_edge(eid)

    def total_weight(self) -> float:
        """Total MSF weight (O(n); maintained structures keep it exact)."""
        return sum(w for _, _, w, _ in self.forest.edges())

    @property
    def num_components(self) -> int:
        """Number of connected components (isolated vertices count)."""
        return self.forest.num_components

    @property
    def num_msf_edges(self) -> int:
        """Number of edges currently in the MSF."""
        return self.forest.num_edges
