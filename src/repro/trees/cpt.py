"""The compressed path tree (Section 3, Algorithm 1).

Given an RC forest and a set of marked vertices, the compressed path tree
(CPT) is a minimal tree on the marked vertices plus Steiner branch vertices
such that every pairwise heaviest-edge query between marked vertices has the
same answer as in the original forest.  Construction (Theorem 3.2):
``O(l lg(1 + n/l))`` work in expectation and ``O(lg n)`` span w.h.p. for
``l`` marked vertices.

The implementation follows the paper exactly:

1. *Mark phase* -- walk from each marked vertex leaf up the RC tree, stopping
   at the first already-marked cluster (the early stop realises the shared
   root-to-leaf path bound of Lemma 3.3).
2. *Expand phase* -- ``ExpandCluster`` recursion over marked clusters:
   an unmarked cluster contributes only its boundary (plus, if binary, one
   edge annotated with the heaviest ``(weight, eid)`` on its cluster path);
   a marked composite expands its children and then ``Prune``s its
   representative.  The paper's lazy set union is realised with a single
   shared graph builder mutated in post-order.

Edges in the result carry the identity of the *physical* heaviest edge on
the path segment they stand for, which is what lets Algorithm 2 translate
"CPT edge evicted from the local MSF" into "delete that base edge".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.runtime.cost import CostModel, log2ceil
from repro.trees.cluster import ClusterKind, ClusterNode
from repro.trees.rcforest import RCForest


@dataclass(frozen=True)
class PathAggregate:
    """Aggregates of one compressed path segment: the heaviest physical
    edge, the total real weight, and the real-edge count."""

    max_w: float
    max_eid: int
    total: float
    count: int

    def combine(self, other: "PathAggregate") -> "PathAggregate":
        """Concatenate two path segments (max of maxima, sums add)."""
        if (self.max_w, self.max_eid) >= (other.max_w, other.max_eid):
            mw, me = self.max_w, self.max_eid
        else:
            mw, me = other.max_w, other.max_eid
        return PathAggregate(mw, me, self.total + other.total, self.count + other.count)


@dataclass
class CompressedPathTree:
    """A compressed path forest over all components touched by the marks.

    Attributes:
        vertices: all vertices present (marked plus Steiner branch vertices).
        edges: ``(u, v, weight, eid)`` -- each annotated with the heaviest
            physical edge on the path segment it represents.
        aggregates: per-edge :class:`PathAggregate` aligned with ``edges``
            (adds the segment's total real weight and real-edge count);
            empty when built on an ``augment="msf"`` forest, which does
            not maintain path sums.
        marked: the subset of ``vertices`` that was marked.
    """

    vertices: list[int]
    edges: list[tuple[int, int, float, int]]
    aggregates: list[PathAggregate] = field(default_factory=list)
    marked: set[int] = field(default_factory=set)

    @property
    def num_vertices(self) -> int:
        """Number of CPT vertices (marked + Steiner)."""
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        """Number of CPT edges (compressed path segments)."""
        return len(self.edges)

    def _adjacency(self) -> dict[int, list[tuple[int, int]]]:
        # Built lazily on the first path query, then reused for the whole
        # batch -- the point of answering l queries off one CPT.
        adj = getattr(self, "_adj", None)
        if adj is None:
            adj = {v: [] for v in self.vertices}
            for i, (a, b, _, _) in enumerate(self.edges):
                adj[a].append((b, i))
                adj[b].append((a, i))
            self._adj = adj
        return adj

    def _path_edges(self, u: int, v: int) -> list[int] | None:
        """Indices into ``edges`` of the (unique) CPT path ``u -- v``;
        ``None`` when disconnected or ``u == v``."""
        adj = self._adjacency()
        if u not in adj or v not in adj:
            raise KeyError(f"({u}, {v}): not CPT vertices")
        if u == v:
            return None
        # BFS with parent edges; the CPT is a forest, so the first route
        # found is the only one.
        parent: dict[int, tuple[int, int]] = {u: (u, -1)}
        frontier = [u]
        while frontier and v not in parent:
            nxt = []
            for x in frontier:
                for y, ei in adj[x]:
                    if y not in parent:
                        parent[y] = (x, ei)
                        nxt.append(y)
            frontier = nxt
        if v not in parent:
            return None
        path = []
        x = v
        while x != u:
            x, ei = parent[x]
            path.append(ei)
        return path

    def path_aggregate(self, u: int, v: int) -> PathAggregate | None:
        """Aggregates of the (unique) CPT path ``u -- v``.

        ``u`` and ``v`` must be CPT vertices -- in practice, marked when
        the tree was built.  Returns ``None`` when they sit in different
        components or ``u == v``.  O(size of the CPT), so answering a
        whole batch of queries against one CPT keeps the per-query cost
        at the Theorem 3.2 amortized bound.  Raises ``ValueError`` on a
        tree built without aggregates (an ``augment="msf"`` forest).
        """
        if self.edges and not self.aggregates:
            raise ValueError(
                "path_aggregate needs a compressed path tree built on an "
                "augment='full' forest"
            )
        path = self._path_edges(u, v)
        if path is None:
            return None
        agg = self.aggregates[path[0]]
        for ei in path[1:]:
            agg = agg.combine(self.aggregates[ei])
        return agg

    def path_max(self, u: int, v: int) -> tuple[float, int] | None:
        """Heaviest physical ``(weight, eid)`` on the CPT path ``u -- v``
        (``None`` when disconnected or ``u == v``)."""
        path = self._path_edges(u, v)
        if path is None:
            return None
        return max(self.edges[ei][2:] for ei in path)

    def connected(self, u: int, v: int) -> bool:
        """Whether CPT vertices ``u`` and ``v`` share a component.

        Faithful to the underlying forest for *marked* vertices: the CPT
        spans every component containing a mark.
        """
        return u == v or self._path_edges(u, v) is not None


class _GraphBuilder:
    """The mutable graph that ``ExpandCluster`` accumulates into.

    Edge annotations are :class:`PathAggregate` values; splicing combines
    them (max for the heaviest edge, sums for totals/counts).
    """

    __slots__ = ("adj",)

    def __init__(self) -> None:
        self.adj: dict[int, dict[int, PathAggregate]] = {}

    def add_vertex(self, v: int) -> None:
        """Ensure ``v`` exists (isolated if no edges follow)."""
        if v not in self.adj:
            self.adj[v] = {}

    def add_edge(self, a: int, b: int, agg: PathAggregate) -> None:
        """Add an annotated segment edge (forests never create parallels)."""
        self.add_vertex(a)
        self.add_vertex(b)
        if b in self.adj[a]:  # pragma: no cover - forest structure forbids it
            raise AssertionError(f"parallel CPT edge ({a}, {b})")
        self.adj[a][b] = agg
        self.adj[b][a] = agg

    def degree(self, v: int) -> int:
        """Current degree of ``v`` in the partial CPT."""
        return len(self.adj[v])

    def remove_vertex(self, v: int) -> None:
        """Delete ``v`` and its incident edges."""
        for u in list(self.adj[v]):
            del self.adj[u][v]
        del self.adj[v]

    def splice_out(self, v: int) -> None:
        """Replace degree-2 vertex ``v`` by one edge carrying the combined
        annotation of its two incident edges (the ``SpliceOut`` primitive)."""
        (a, wa), (b, wb) = self.adj[v].items()
        del self.adj[a][v]
        del self.adj[b][v]
        del self.adj[v]
        agg = wa.combine(wb)
        if b in self.adj[a]:  # pragma: no cover - forest structure forbids it
            raise AssertionError(f"parallel CPT edge ({a}, {b}) after splice")
        self.adj[a][b] = agg
        self.adj[b][a] = agg


def compressed_path_trees(
    rc: RCForest,
    marked: Iterable[int],
    cost: CostModel | None = None,
) -> CompressedPathTree:
    """Compressed path trees of every component containing a marked vertex.

    ``marked`` are vertex ids of ``rc``.  Isolated marked vertices appear in
    the result with no edges.  Work is charged per RC-tree node touched,
    span as the maximum expansion depth (Theorem 3.2).  On an
    ``augment="msf"`` forest the result has no ``aggregates``.
    """
    marked_set = {int(v) for v in marked}
    for v in marked_set:
        if v not in rc.vleaf:
            raise KeyError(f"marked vertex {v} is not in the forest")

    charge = cost if cost is not None else CostModel(enabled=False)

    # Mark phase: early-stopping upward walks (Lemma 3.3 path sharing).
    with charge.phase("cpt-mark") as ph:
        marked_clusters: set[int] = set()  # ids of ClusterNode objects
        roots: list[ClusterNode] = []
        touched = 0
        for v in marked_set:
            node: ClusterNode | None = rc.vleaf[v]
            while node is not None and id(node) not in marked_clusters:
                marked_clusters.add(id(node))
                touched += 1
                if node.parent is None:
                    roots.append(node)
                node = node.parent
        charge.add(
            work=touched + max(len(marked_set), 1),
            span=log2ceil(max(rc.num_vertices, 2)),
        )
        ph.count(touched)

    with charge.phase("cpt-expand") as ph:
        builder = _GraphBuilder()
        for v in marked_set:
            builder.add_vertex(v)

        expand_count = 0
        max_depth = 0
        for root in roots:
            d = _expand(rc, root, builder, marked_set, marked_clusters)
            expand_count += d[0]
            max_depth = max(max_depth, d[1])
        charge.add(work=expand_count, span=max_depth + 1)
        ph.count(expand_count)

    vertices = sorted(builder.adj)
    edges = []
    aggs = []
    for a in vertices:
        for b, agg in builder.adj[a].items():
            if a < b:
                edges.append((a, b, agg.max_w, agg.max_eid))
                aggs.append(agg)
    if rc.augment != "full":
        aggs = []  # path sums and counts are not maintained
    return CompressedPathTree(
        vertices=vertices, edges=edges, aggregates=aggs, marked=marked_set
    )


def _expand(
    rc: RCForest,
    cluster: ClusterNode,
    g: _GraphBuilder,
    marked: set[int],
    marked_clusters: set[int],
) -> tuple[int, int]:
    """``ExpandCluster`` (Algorithm 1) in post-order over the shared builder.

    Returns (nodes visited, recursion depth) for cost accounting.
    """
    if id(cluster) not in marked_clusters:
        # Unmarked cluster: contribute its boundary, plus its cluster-path
        # edge if binary (Algorithm 1, lines 3-9).
        for b in cluster.boundary:
            g.add_vertex(b)
        if cluster.is_binary():
            a, b = cluster.boundary
            g.add_edge(
                a,
                b,
                PathAggregate(
                    cluster.path_w,
                    cluster.path_eid,
                    cluster.path_sum,
                    cluster.path_count,
                ),
            )
        return (1, 1)

    if cluster.kind is ClusterKind.VERTEX:
        g.add_vertex(cluster.rep)  # lines 10-11
        return (1, 1)

    visited, depth = 1, 0
    for child in cluster.children:
        cv, cd = _expand(rc, child, g, marked, marked_clusters)
        visited += cv
        depth = max(depth, cd)
    _prune(g, cluster.rep, marked, set(cluster.boundary))
    return (visited, depth + 1)


def _prune(
    g: _GraphBuilder, v: int, marked: set[int], protected: set[int]
) -> None:
    """The ``Prune`` primitive: drop a redundant representative vertex.

    ``protected`` holds the enclosing cluster's boundary vertices, which the
    recursion treats as marked (Lemma 3.1's inductive assumption).
    """
    if v in marked or v in protected:
        return
    deg = g.degree(v)
    if deg == 2:
        g.splice_out(v)
    elif deg == 1:
        (u,) = g.adj[v]
        g.remove_vertex(v)
        if u not in marked and u not in protected and g.degree(u) == 2:
            g.splice_out(u)
    elif deg == 0:
        # Defensive: an unmarked, disconnected representative carries no
        # path information.
        g.remove_vertex(v)
