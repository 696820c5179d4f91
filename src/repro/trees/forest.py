"""The user-facing weighted dynamic forest over original vertex ids.

:class:`DynamicForest` composes the ternarization layer with the RC forest:
callers speak in original vertices ``0..n-1`` and non-negative edge ids;
internally every operation runs on the bounded-degree forest.  Supports
batch link, batch cut, connectivity, heaviest-edge path queries and
compressed path trees -- everything Algorithm 2 needs.

The augmentation profile is fixed at construction.  ``augment="msf"``
maintains exactly what Algorithm 2 and the batch reads use (cluster
kind, boundary, path max), which is what :class:`BatchIncrementalMSF
<repro.core.BatchIncrementalMSF>` and everything above it build.
``augment="full"`` (the default) also maintains the path sums, subtree
totals and distances behind the path/component/diameter queries; those
queries raise ``ValueError`` on an ``msf`` forest.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.runtime.cost import CostModel
from repro.trees.cluster import require_full
from repro.trees.cpt import CompressedPathTree
from repro.trees.rcarray import RCArrayForest
from repro.trees.ternary import TernaryForest


class DynamicForest:
    """A batch-dynamic weighted forest on ``n`` vertices.

    Edges carry caller-chosen non-negative ids; weights are arbitrary floats
    compared as ``(weight, eid)`` so maxima are unique.  Linking two
    connected vertices raises (the structure is a forest; cycle-forming
    inserts are the responsibility of the MSF layer above).
    """

    def __init__(
        self,
        n: int,
        seed: int = 0x5EED,
        cost: CostModel | None = None,
        compress_rule: str = "mr",
        augment: str = "full",
    ) -> None:
        self.n = n
        self.cost = cost if cost is not None else CostModel(enabled=False)
        self.ternary = TernaryForest(n)
        self.rc = RCArrayForest(
            vertices=range(n),
            seed=seed,
            cost=self.cost,
            compress_rule=compress_rule,
            augment=augment,
        )
        self._edge_info: dict[int, tuple[int, int, float]] = {}

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    @property
    def augment(self) -> str:
        """The augmentation profile (``"msf"`` or ``"full"``)."""
        return self.rc.augment

    @property
    def num_edges(self) -> int:
        """Number of live edges in the forest."""
        return len(self._edge_info)

    @property
    def num_components(self) -> int:
        """Components of the original vertex set (isolated vertices count)."""
        return self.n - len(self._edge_info)

    def has_edge(self, eid: int) -> bool:
        """Whether edge ``eid`` is currently in the forest."""
        return eid in self._edge_info

    def edge_info(self, eid: int) -> tuple[int, int, float]:
        """(u, v, weight) of a live edge."""
        return self._edge_info[eid]

    def edges(self) -> list[tuple[int, int, float, int]]:
        """All live edges as ``(u, v, w, eid)`` (O(m))."""
        return [(u, v, w, eid) for eid, (u, v, w) in sorted(self._edge_info.items())]

    def batch_update(
        self,
        links: Sequence[tuple[int, int, float, int]] = (),
        cut_eids: Sequence[int] = (),
        check_forest: bool = False,
    ) -> None:
        """Cut ``cut_eids`` then link ``links`` in one propagation pass.

        Each link is ``(u, v, w, eid)``.  Links must keep the structure a
        forest *after* the cuts are applied -- that is the caller's contract
        (Algorithm 2 guarantees it via Theorem 4.1).  Malformed batches
        (unknown/duplicate ids, self-loops, out-of-range endpoints) raise
        *before anything is mutated*.

        With ``check_forest=True`` the cuts and links run as two propagation
        passes with an O(l lg n) acyclicity check in between; a
        cycle-creating link then raises with the cuts applied but no links.
        """
        links = list(links)
        cut_eids = list(cut_eids)
        self.ternary.validate_batch(add=links, remove=cut_eids)

        cuts = self.ternary.remove_edges(cut_eids)
        for eid in cut_eids:
            del self._edge_info[eid]
        if check_forest:
            self.rc.batch_update(cuts=cuts)
            cuts = []
            comp_of: dict[int, int] = {}

            def find(x: int) -> int:
                while comp_of.get(x, x) != x:
                    comp_of[x] = comp_of.get(comp_of[x], comp_of[x])
                    x = comp_of[x]
                return x

            for u, v, w, eid in links:
                ru = find(self.rc.root_key(self.ternary.canonical(u)))
                rv = find(self.rc.root_key(self.ternary.canonical(v)))
                if ru == rv:
                    raise ValueError(
                        f"link ({u}, {v}) would close a cycle in the forest"
                    )
                comp_of[ru] = rv
        internal_links = self.ternary.add_edges(links)
        for u, v, w, eid in links:
            self._edge_info[eid] = (u, v, w)
        new_vertices = [
            x for x in range(self.rc.num_vertices, self.ternary.num_copies)
        ]
        for x in new_vertices:
            self.rc.ensure_vertex(x)
        self.rc.batch_update(links=internal_links, cuts=cuts)

    def batch_link(self, links: Sequence[tuple[int, int, float, int]]) -> None:
        """Insert edges ``(u, v, w, eid)`` (see :meth:`batch_update`)."""
        self.batch_update(links=links)

    def batch_cut(self, eids: Sequence[int]) -> None:
        """Delete edges by id (see :meth:`batch_update`)."""
        self.batch_update(cut_eids=eids)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def connected(self, u: int, v: int) -> bool:
        """Whether ``u`` and ``v`` are in the same tree (O(lg n) w.h.p.)."""
        return self.rc.connected(self.ternary.canonical(u), self.ternary.canonical(v))

    def _canonical_pairs(self, pairs) -> list[tuple[int, int]]:
        out = []
        canon = self.ternary.canonicals
        for u, v in pairs:
            u, v = int(u), int(v)
            if not (0 <= u < self.n):
                raise KeyError(f"vertex {u} out of range")
            if not (0 <= v < self.n):
                raise KeyError(f"vertex {v} out of range")
            out.append((canon[u], canon[v]))
        return out

    def batch_connected(self, pairs: Sequence[tuple[int, int]]) -> list[bool]:
        """:meth:`connected` for a whole batch of pairs in one shared
        root-walk sweep (phase ``batch-query`` wrapping the RC forest's
        ``bq-roots``); ``l`` queries cost ``O(l lg(1 + n/l))`` expected
        work at ``O(lg n)`` span instead of ``l`` root walks."""
        mapped = self._canonical_pairs(pairs)
        if not mapped:
            return []
        with self.cost.phase("batch-query", items=len(mapped)):
            return self.rc.batch_is_connected(mapped)

    def batch_path_max(
        self, pairs: Sequence[tuple[int, int]]
    ) -> list[tuple[float, int] | None]:
        """:meth:`path_max` for a whole batch of pairs; ``None`` per pair
        when disconnected or ``u == v``.

        One shared RC-forest sweep (phase ``batch-query`` wrapping
        ``bq-roots``/``bq-paths``) instead of one compressed path tree
        per query; answers match :meth:`path_max` exactly.  Virtual
        ternarization links weigh ``-inf`` with negative eids, so a real
        edge always wins the max and the reported ``(w, eid)`` is a
        physical edge.
        """
        mapped = self._canonical_pairs(pairs)
        if not mapped:
            return []
        with self.cost.phase("batch-query", items=len(mapped)):
            raw = self.rc.batch_path_max(mapped)
        # A connected distinct original pair can never see an all-virtual
        # path (distinct originals are joined through real edges), so a
        # non-None answer is always a physical edge.
        return raw

    def path_max(self, u: int, v: int) -> tuple[float, int] | None:
        """Heaviest ``(weight, eid)`` on the tree path ``u -- v``.

        Returns ``None`` if disconnected or ``u == v``.  O(lg n) w.h.p. --
        this is the compressed path tree of two marked vertices.  Works on
        both augmentation profiles.
        """
        if u == v:
            return None
        cpt = self.compressed_path_tree([u, v])
        if not cpt.edges:
            return None
        ((a, b, w, eid),) = cpt.edges
        assert {a, b} == {u, v}
        return (w, eid)

    # -- S15 queries: need augment="full" ---------------------------------

    def _require_full(self, what: str) -> None:
        require_full(self.augment, f"DynamicForest.{what}")

    def path_aggregate(self, u: int, v: int):
        """Full aggregates of the tree path ``u -- v``: heaviest edge, total
        weight, edge count (a :class:`~repro.trees.cpt.PathAggregate`).

        Returns ``None`` if disconnected or ``u == v``.  O(lg n) w.h.p.
        """
        self._require_full("path_aggregate")
        if u == v:
            return None
        cpt = self.compressed_path_tree([u, v])
        if not cpt.edges:
            return None
        ((a, b, _, _),) = cpt.edges
        assert {a, b} == {u, v}
        return cpt.aggregates[0]

    def path_sum(self, u: int, v: int) -> float | None:
        """Total weight of the tree path ``u -- v`` (None if disconnected)."""
        self._require_full("path_sum")
        agg = self.path_aggregate(u, v)
        if agg is None:
            return 0.0 if u == v and 0 <= u < self.n else None
        return agg.total

    def path_length(self, u: int, v: int) -> int | None:
        """Number of edges on the tree path ``u -- v`` (None if disconnected)."""
        self._require_full("path_length")
        agg = self.path_aggregate(u, v)
        if agg is None:
            return 0 if u == v and 0 <= u < self.n else None
        return agg.count

    # -- component aggregates (O(lg n) root walk + O(1) read) -------------

    def _root(self, v: int, what: str):
        self._require_full(what)
        return self.rc.component_summary(self.ternary.canonical(v))

    def component_size(self, v: int) -> int:
        """Number of original vertices in ``v``'s tree.

        The root cluster counts ternarization copies, but a tree's original
        vertex count is its real-edge count plus one.
        """
        return self._root(v, "component_size").sub_edges + 1

    def component_edge_count(self, v: int) -> int:
        """Number of edges in ``v``'s tree."""
        return self._root(v, "component_edge_count").sub_edges

    def component_weight(self, v: int) -> float:
        """Total edge weight of ``v``'s tree."""
        return self._root(v, "component_weight").sub_sum

    def split_aggregates(self, eid: int) -> tuple[dict, dict]:
        """What-if query: the component aggregates of the two sides that
        cutting edge ``eid`` would create, *without changing the forest*.

        Implemented as cut -> query -> relink; because the contraction
        state is a pure function of (edge set, seed), the relink restores
        the exact prior state.  O(lg n) w.h.p. per phase.
        """
        self._require_full("split_aggregates")
        u, v, w = self.edge_info(eid)
        self.batch_cut([eid])
        try:
            sides = []
            for x in (u, v):
                sides.append(
                    {
                        "vertices": self.component_size(x),
                        "edges": self.component_edge_count(x),
                        "weight": self.component_weight(x),
                        "diameter": self.component_diameter(x),
                    }
                )
        finally:
            self.batch_link([(u, v, w, eid)])
        return sides[0], sides[1]

    def component_diameter(self, v: int) -> float:
        """Maximum path weight between any two vertices of ``v``'s tree
        (0 for an isolated vertex).  O(lg n) w.h.p. -- the classic RC-tree
        distance augmentation [3]."""
        return self._root(v, "component_diameter").diam[0]

    def component_diameter_endpoints(self, v: int) -> tuple[int, int]:
        """A vertex pair realising the component diameter (original ids;
        ``(v, v)`` for an isolated vertex).  O(lg n) w.h.p."""
        _, x, y = self._root(v, "component_diameter_endpoints").diam
        owner = self.ternary.owner
        return (owner(x), owner(y))

    def eccentricity(self, u: int) -> float:
        """Maximum path weight from ``u`` to any vertex of its tree.

        Uses the classic fact that the farthest vertex from any vertex of a
        tree is an endpoint of some diameter; O(lg n) w.h.p.  Assumes
        non-negative weights (as eccentricity requires to be meaningful).
        """
        self._require_full("eccentricity")
        a, b = self.component_diameter_endpoints(u)
        da = self.path_sum(u, a) if u != a else 0.0
        db = self.path_sum(u, b) if u != b else 0.0
        return max(da, db)

    def farthest_vertex(self, u: int) -> tuple[int, float]:
        """The vertex of ``u``'s tree farthest from ``u`` and its distance
        (``(u, 0.0)`` for an isolated vertex).  O(lg n) w.h.p."""
        self._require_full("farthest_vertex")
        a, b = self.component_diameter_endpoints(u)
        da = self.path_sum(u, a) if u != a else 0.0
        db = self.path_sum(u, b) if u != b else 0.0
        return (a, da) if da >= db else (b, db)

    def compressed_path_tree(self, marked: Iterable[int]) -> CompressedPathTree:
        """The compressed path tree w.r.t. marked *original* vertices.

        Internal ternarization copies are contracted away: Steiner vertices
        are reported under their original ids, virtual chain edges vanish,
        and every edge is annotated with the heaviest physical ``(w, eid)``
        on the path segment it represents (Theorem 3.2 bounds).  Per-edge
        ``aggregates`` are filled only under ``augment="full"``.
        """
        marks = sorted({int(v) for v in marked})
        for v in marks:
            if not (0 <= v < self.n):
                raise KeyError(f"marked vertex {v} out of range")
        canon = self.ternary.canonicals
        raw = self.rc.compressed_path_trees(
            [canon[v] for v in marks], cost=self.cost
        )
        owner = self.ternary.owners
        vertices = sorted(set(map(owner.__getitem__, raw.vertices)))
        edges: list[tuple[int, int, float, int]] = []
        aggs = []
        raw_aggs = raw.aggregates
        for k, (a, b, w, eid) in enumerate(raw.edges):
            if eid < 0:  # virtual chain link (TernaryForest.is_virtual_eid)
                continue  # all-virtual segment: endpoints share an owner
            oa, ob = owner[a], owner[b]
            if oa == ob:  # pragma: no cover - forests cannot revisit a vertex
                raise AssertionError(f"real CPT segment loops at vertex {oa}")
            edges.append((oa, ob, w, eid))
            if raw_aggs:
                aggs.append(raw_aggs[k])
        return CompressedPathTree(
            vertices=vertices, edges=edges, aggregates=aggs, marked=set(marks)
        )
