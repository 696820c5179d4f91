"""Batch-dynamic rake-compress forests via parallel change propagation.

This module maintains a Miller-Reif tree contraction of a bounded-degree
forest, level by level, together with the corresponding RC tree (one
composite cluster per vertex), under batches of edge insertions (links) and
deletions (cuts).  It is the Python realisation of Acar, Anderson, Blelloch,
Dhulipala and Westrick [2], the substrate Theorem 1.1 builds on:

- build: ``O(n)`` expected work, ``O(lg^2 n)`` span w.h.p.;
- batch update of ``l`` edges: ``O(l lg(1 + n/l))`` expected work and
  ``O(lg^2 n)`` span w.h.p.

**Contraction rules.**  At round ``i`` a live vertex ``v`` with degree ``d``:

- ``d = 0``: *finalizes* (becomes the root cluster of its component);
- ``d = 1`` with neighbour ``u``: *rakes* into ``u`` -- except in a
  two-vertex tree (``deg(u) = 1``), where only the smaller id rakes;
- ``d = 2`` with neighbours ``u, w``: *compresses* iff both neighbours have
  degree >= 2 and the coins say ``heads(v)``, ``tails(u)``, ``tails(w)``;
- otherwise *stays*.

Coins are a pure function of ``(seed, vertex, round)``
(:class:`~repro.runtime.HashBits`), so the **entire leveled state is a pure
function of the edge set and the seed**.  Change propagation exploits this:
a batch update marks the endpoints dirty at level 0 and re-runs the decision
rule only where inputs changed, pushing adjacency diffs upward level by
level.  The test suite asserts the resulting state is bit-identical to a
from-scratch rebuild.

**Clusters.**  Every composite cluster is identified with its representative
vertex: ``comp[v]`` is formed when ``v`` contracts and contains the vertex
leaf of ``v``, the edge clusters its contraction consumed, and the unary
clusters of vertices that previously raked into ``v``.  Binary clusters are
augmented with the heaviest ``(weight, edge id)`` on their cluster path.
The ``full`` augmentation profile adds path sums, subtree totals and
distance augmentation; ``msf`` maintains only kind, boundary and path max
(:data:`repro.trees.cluster.AUGMENT_PROFILES`).
"""

from __future__ import annotations

import heapq
from typing import Iterable

from repro.runtime.cost import CostModel, log2ceil
from repro.runtime.hashing import HashBits
from repro.trees import batchquery
from repro.trees.cluster import (
    ClusterKind,
    ClusterNode,
    check_augment,
    require_full,
)
from repro.trees.ternary import InternalLink

# Decision tags.
_STAY = ("S",)
_FINAL = ("F",)

_MAX_LEVELS = 4096  # hard safety cap; ~lg n levels are used in practice


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


class _ObjectAdapter:
    """``ClusterNode``-handle adapter feeding the shared batch read
    kernels of :mod:`repro.trees.batchquery`."""

    __slots__ = ("f",)

    def __init__(self, f: "RCForest") -> None:
        self.f = f

    def leaf(self, v):
        return self.f.vleaf[v]

    def parent(self, n):
        return n.parent

    def is_vertex(self, n):
        return n.kind is ClusterKind.VERTEX

    def rep(self, n):
        return n.rep

    def b0(self, n):
        return n.boundary[0]

    def b1(self, n):
        return n.boundary[1]

    def nnb(self, n):
        return len(n.boundary)

    def _bin_child(self, P, b):
        # The binary child adjacent to boundary vertex ``b`` of P.  The
        # other binary child's boundary is {rep(P), other-b}, so the
        # match is unambiguous (``RCArrayForest`` stores this as _ne1/_ne2).
        for c in P.children:
            if c.is_binary() and b in c.boundary:
                return c
        raise AssertionError(
            f"no binary child adjacent to {b} under {P!r}"
        )  # pragma: no cover - structural invariant

    def e1(self, P):
        return self._bin_child(P, P.boundary[0])

    def e2(self, P):
        return self._bin_child(P, P.boundary[1])

    def pw(self, n):
        return n.path_w

    def pe(self, n):
        return n.path_eid


def _msf_signature(node: ClusterNode) -> tuple:
    """What a parent cluster reads from a child under ``augment="msf"``:
    kind, boundary and path max.  A change here must propagate."""
    return (node.kind, node.boundary, node.path_w, node.path_eid)


def _aug_signature(node: ClusterNode) -> tuple:
    """Everything a parent cluster reads from a child under
    ``augment="full"``: boundary-visible shape plus every augmented value.
    A change here must propagate."""
    return (
        node.kind,
        node.boundary,
        node.path_w,
        node.path_eid,
        node.path_sum,
        node.path_count,
        node.sub_verts,
        node.sub_edges,
        node.sub_sum,
        node.maxd,
        node.diam,
    )


def _augment_full(
    node: ClusterNode, v: int, children: list[ClusterNode], group: int
) -> None:
    """The ``full`` profile's fields of a rebuilt cluster, after its kind
    and boundary are set: ``children[:group]`` is the rake group (vertex
    leaf of ``v``, then the raked unary clusters), ``children[group:]``
    the consumed edges."""
    # All rake-group members attach at v, so pairwise distances factor
    # through v.
    m_v = (0.0, v)  # farthest (distance, vertex) from v within the group
    gdiam = (0.0, v, v)  # in-group diameter with endpoints
    g_verts, g_edges, g_sum = 1, 0, 0.0
    for r in children[1:group]:
        md = r.maxd[0]
        gdiam = max(gdiam, r.diam, (m_v[0] + md[0], m_v[1], md[1]))
        m_v = max(m_v, md)
        g_verts += r.sub_verts
        g_edges += r.sub_edges
        g_sum += r.sub_sum

    if node.kind is ClusterKind.UNARY:
        (u,) = node.boundary
        e = children[group]
        iu = e.boundary.index(u)
        iv = 1 - iu
        node.path_sum, node.path_count = 0.0, 0
        node.maxd = (max(e.maxd[iu], (e.path_sum + m_v[0], m_v[1])),)
        node.diam = max(
            e.diam,
            gdiam,
            (e.maxd[iv][0] + m_v[0], e.maxd[iv][1], m_v[1]),
        )
        node.sub_verts = g_verts + e.sub_verts
        node.sub_edges = g_edges + e.sub_edges
        node.sub_sum = g_sum + e.sub_sum
    elif node.kind is ClusterKind.BINARY:
        u, w = node.boundary
        e1, e2 = children[group], children[group + 1]
        i1u = e1.boundary.index(u)
        i1v = 1 - i1u
        i2w = e2.boundary.index(w)
        i2v = 1 - i2w
        node.path_sum = e1.path_sum + e2.path_sum
        node.path_count = e1.path_count + e2.path_count
        from_v1 = max(m_v, e2.maxd[i2v])
        from_v2 = max(m_v, e1.maxd[i1v])
        node.maxd = (
            max(e1.maxd[i1u], (e1.path_sum + from_v1[0], from_v1[1])),
            max(e2.maxd[i2w], (e2.path_sum + from_v2[0], from_v2[1])),
        )
        node.diam = max(
            e1.diam,
            e2.diam,
            gdiam,
            (e1.maxd[i1v][0] + m_v[0], e1.maxd[i1v][1], m_v[1]),
            (e2.maxd[i2v][0] + m_v[0], e2.maxd[i2v][1], m_v[1]),
            (
                e1.maxd[i1v][0] + e2.maxd[i2v][0],
                e1.maxd[i1v][1],
                e2.maxd[i2v][1],
            ),
        )
        node.sub_verts = g_verts + e1.sub_verts + e2.sub_verts
        node.sub_edges = g_edges + e1.sub_edges + e2.sub_edges
        node.sub_sum = g_sum + e1.sub_sum + e2.sub_sum
    else:
        node.path_sum, node.path_count = 0.0, 0
        node.maxd = ()
        node.diam = gdiam
        node.sub_verts = g_verts
        node.sub_edges = g_edges
        node.sub_sum = g_sum


class RCForest:
    """A batch-dynamic RC forest over internal (bounded-degree) vertex ids.

    Vertices are registered with :meth:`ensure_vertex` (ids need not be
    contiguous); edges are identified by the ``eid`` of their
    :class:`~repro.trees.ternary.InternalLink`.  All updates go through
    :meth:`batch_update`, which applies cuts and links in one change
    propagation pass.
    """

    def __init__(
        self,
        vertices: Iterable[int] = (),
        seed: int = 0x5EED,
        cost: CostModel | None = None,
        compress_rule: str = "mr",
        augment: str = "full",
    ) -> None:
        if compress_rule not in ("mr", "ordered"):
            raise ValueError(
                f"compress_rule must be 'mr' or 'ordered', got {compress_rule!r}"
            )
        check_augment(augment)
        self.compress_rule = compress_rule
        self.augment = augment
        self._full = augment == "full"
        self._signature = _aug_signature if self._full else _msf_signature
        self.cost = cost if cost is not None else CostModel(enabled=False)
        self._bits = HashBits(seed)
        self._adj: list[dict[int, set[int]]] = [{}]
        self._dec: list[dict[int, tuple]] = [{}]
        self._top: dict[int, int] = {}  # vertex -> level at which it contracts
        self.vleaf: dict[int, ClusterNode] = {}
        self.eleaf: dict[int, ClusterNode] = {}
        self.comp: dict[int, ClusterNode] = {}
        # Both indices are tagged with the contraction level that created
        # the entry: change propagation may apply a relation at one level
        # and undo the stale copy of the same relation at another, and the
        # level tag keeps those from cancelling each other.
        self._edge_cluster: dict[tuple[int, int], tuple[ClusterNode, int]] = {}
        self._rakes_on: dict[int, dict[int, int]] = {}
        self._edge_endpoints: dict[int, tuple[int, int]] = {}
        self._edge_attrs: dict[int, tuple[float, int]] = {}
        self._pending_rebuild: set[int] = set()
        self.num_levels = 1

        init = [v for v in vertices]
        for v in init:
            self._register(v)
        if init:
            self._propagate(set(init))

    # ------------------------------------------------------------------
    # Registration and basic accessors
    # ------------------------------------------------------------------

    def _register(self, v: int) -> None:
        if v not in self.vleaf:
            leaf = ClusterNode(ClusterKind.VERTEX, rep=v)
            if self._full:
                leaf.sub_verts = 1
                leaf.diam = (0.0, v, v)
            self.vleaf[v] = leaf
            self._adj[0][v] = set()
            self._rakes_on[v] = {}

    def ensure_vertex(self, v: int) -> bool:
        """Register ``v`` if new; returns True if it was added.

        New vertices become live at level 0 and are finalized by the next
        propagation (callers pass them in the dirty set of the batch that
        introduces them).
        """
        if v in self.vleaf:
            return False
        self._register(v)
        return True

    @property
    def num_vertices(self) -> int:
        """Number of registered (internal) vertices."""
        return len(self.vleaf)

    @property
    def num_edges(self) -> int:
        """Number of live edges."""
        return len(self.eleaf)

    def has_edge(self, eid: int) -> bool:
        """Whether edge ``eid`` is live."""
        return eid in self.eleaf

    def edge_endpoints(self, eid: int) -> tuple[int, int]:
        """Endpoints of a live edge."""
        return self._edge_endpoints[eid]

    def edge_attrs(self, eid: int) -> tuple[float, int]:
        """(weight, eid) of a live edge."""
        return self._edge_attrs[eid]

    def degree(self, v: int) -> int:
        """Degree of ``v`` in the base forest."""
        return len(self._adj[0][v])

    def neighbors(self, v: int) -> set[int]:
        """Base-forest neighbours of ``v`` (a copy)."""
        return set(self._adj[0][v])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def root_cluster(self, v: int) -> ClusterNode:
        """The nullary root cluster of ``v``'s component (O(lg n) w.h.p.)."""
        node: ClusterNode = self.vleaf[v]
        steps = 0
        while node.parent is not None:
            node = node.parent
            steps += 1
        self.cost.add(work=steps + 1, span=steps + 1)
        return node

    def root_key(self, v: int) -> int:
        """Engine-neutral identity of ``v``'s root cluster (comparable
        across calls on the same engine instance, like ``RCArrayForest``'s
        node ids)."""
        return id(self.root_cluster(v))

    def connected(self, u: int, v: int) -> bool:
        """Same-tree test via root clusters (O(lg n) w.h.p.)."""
        return self.root_cluster(u) is self.root_cluster(v)

    # -- batched reads (loop-based reference implementation) ------------

    def batch_is_connected(self, pairs) -> list[bool]:
        """Same-tree test for a batch of pairs off one shared root walk.

        Loop-based reference for ``RCArrayForest.batch_is_connected``:
        identical answers and identical ``bq-roots`` work/span charges,
        one dict-driven level at a time instead of NumPy gathers.

        >>> from repro.trees.rcforest import RCForest
        >>> from repro.trees.ternary import InternalLink
        >>> f = RCForest(range(4), seed=1)
        >>> f.batch_update(links=[InternalLink(0, 1, 5.0, 10),
        ...                       InternalLink(1, 2, 7.0, 11)])
        >>> f.batch_is_connected([(0, 2), (0, 3), (2, 2)])
        [True, False, True]
        """
        pairs = batchquery.normalize_pairs(pairs, self._require_vertex)
        if not pairs:
            return []
        return batchquery.batch_is_connected(
            _ObjectAdapter(self), pairs, self.cost
        )

    def batch_path_max(self, pairs) -> list[tuple[float, int] | None]:
        """Heaviest ``(w, eid)`` per tree path for a batch of pairs;
        ``None`` for ``u == v`` or disconnected pairs.

        Loop-based reference for ``RCArrayForest.batch_path_max``
        (phases ``bq-roots`` then ``bq-paths``; see
        :mod:`repro.trees.batchquery` for the climb and its cost
        contract).

        >>> from repro.trees.rcforest import RCForest
        >>> from repro.trees.ternary import InternalLink
        >>> f = RCForest(range(4), seed=1)
        >>> f.batch_update(links=[InternalLink(0, 1, 5.0, 10),
        ...                       InternalLink(1, 2, 7.0, 11)])
        >>> f.batch_path_max([(0, 2), (0, 1), (0, 3), (1, 1)])
        [(7.0, 11), (5.0, 10), None, None]
        """
        pairs = batchquery.normalize_pairs(pairs, self._require_vertex)
        if not pairs:
            return []
        return batchquery.batch_path_max(
            _ObjectAdapter(self), pairs, self.cost
        )

    def _require_vertex(self, v: int) -> None:
        if v not in self.vleaf:
            raise KeyError(v)

    def component_summary(self, v: int):
        """Root-cluster aggregates of ``v``'s component, engine-neutral
        (needs ``augment="full"``)."""
        from repro.trees.rcarray import ComponentSummary

        require_full(self.augment, "component_summary")
        root = self.root_cluster(v)
        return ComponentSummary(
            root.sub_verts, root.sub_edges, root.sub_sum, root.diam
        )

    def compressed_path_trees(self, marked, cost: CostModel | None = None):
        """Compressed path trees over ``marked`` (Algorithm 1); same
        signature as ``RCArrayForest.compressed_path_trees``."""
        from repro.trees.cpt import compressed_path_trees

        return compressed_path_trees(self, marked, cost=cost)

    def rc_height(self, v: int) -> int:
        """Depth of vertex leaf ``v`` below its root (diagnostics)."""
        node: ClusterNode = self.vleaf[v]
        h = 0
        while node.parent is not None:
            node = node.parent
            h += 1
        return h

    def level_statistics(self) -> list[int]:
        """Live vertex count per contraction level (diagnostics).

        Miller-Reif guarantees a geometrically decreasing sequence in
        expectation, hence O(lg n) levels w.h.p. -- the property the span
        bounds of Theorems 1.1/3.2 rest on.
        """
        return [len(adj) for adj in self._adj if adj]

    def roots(self) -> list[ClusterNode]:
        """All root clusters (one per component; O(n) -- diagnostics only)."""
        return [c for c in self.comp.values() if c.parent is None and c.children]

    # ------------------------------------------------------------------
    # Batch updates
    # ------------------------------------------------------------------

    def batch_update(
        self,
        links: list[InternalLink] | None = None,
        cuts: list[tuple[int, int, int]] | None = None,
    ) -> None:
        """Apply edge deletions (``cuts``: ``(a, b, eid)``) and insertions
        (``links``) in one change-propagation pass.

        Cuts are applied before links, so a batch may remove an edge between
        a vertex pair and re-link the pair.  Linking two already-connected
        vertices would create a cycle and raises ``ValueError`` (checked
        cheaply at level 0 only for edges joining the same endpoints; global
        acyclicity is the caller's contract, asserted in debug helpers).
        """
        links = links or []
        cuts = cuts or []
        with self.cost.phase("rc-propagate", items=len(links) + len(cuts)):
            self._batch_update(links, cuts)

    def _batch_update(
        self, links: list[InternalLink], cuts: list[tuple[int, int, int]]
    ) -> None:
        dirty: set[int] = set()
        adj0 = self._adj[0]

        for a, b, eid in cuts:
            leaf = self.eleaf.pop(eid, None)
            if leaf is None:
                raise KeyError(f"edge {eid} is not in the forest")
            adj0[a].discard(b)
            adj0[b].discard(a)
            p = _pair(a, b)
            entry = self._edge_cluster.get(p)
            if entry is not None and entry[0] is leaf:
                del self._edge_cluster[p]
            if leaf.parent is not None:
                self._mark_rebuild(leaf.parent.rep)
                leaf.parent = None
            del self._edge_endpoints[eid]
            del self._edge_attrs[eid]
            dirty.add(a)
            dirty.add(b)

        for link in links:
            a, b, eid = link.a, link.b, link.eid
            if self.ensure_vertex(a):
                dirty.add(a)
            if self.ensure_vertex(b):
                dirty.add(b)
            if eid in self.eleaf:
                raise ValueError(f"edge id {eid} already present")
            if a == b or b in adj0[a]:
                raise ValueError(f"link ({a}, {b}) duplicates a forest edge")
            leaf = ClusterNode(ClusterKind.EDGE, eid=eid)
            leaf.boundary = (a, b)
            leaf.path_w = link.w
            leaf.path_eid = eid
            if self._full:
                leaf.maxd = ((float("-inf"), -1), (float("-inf"), -1))
            if self._full and eid >= 0:
                # Virtual ternarization links carry no real length.
                leaf.path_sum = link.w
                leaf.path_count = 1
                leaf.sub_edges = 1
                leaf.sub_sum = link.w
            self.eleaf[eid] = leaf
            self._edge_cluster[_pair(a, b)] = (leaf, 0)
            self._edge_endpoints[eid] = (a, b)
            self._edge_attrs[eid] = (link.w, eid)
            adj0[a].add(b)
            adj0[b].add(a)
            dirty.add(a)
            dirty.add(b)

        ell = len(links) + len(cuts)
        if ell:
            # Batch pre-processing (semisort of endpoints into the dirty set).
            self.cost.add(work=ell, span=log2ceil(max(ell, 2)))
        self._propagate(dirty)

    # ------------------------------------------------------------------
    # Change propagation
    # ------------------------------------------------------------------

    def _decide(self, i: int, v: int) -> tuple:
        adj = self._adj[i]
        nbrs = adj[v]
        d = len(nbrs)
        if d == 0:
            return _FINAL
        if d == 1:
            (u,) = nbrs
            if len(adj[u]) == 1 and v > u:
                return _STAY  # two-vertex tree: the smaller id rakes
            return ("R", u)
        if d == 2:
            u, w = sorted(nbrs)
            if len(adj[u]) < 2 or len(adj[w]) < 2:
                return _STAY  # a raking leaf consumes one of v's edges
            if self._bits.bit(v, i) != 1:
                return _STAY
            if self.compress_rule == "mr":
                # Miller-Reif: both neighbours must flip tails.
                ok = self._bits.bit(u, i) == 0 and self._bits.bit(w, i) == 0
            else:
                # Ordered rule: only *larger-id* degree-2 neighbours must
                # flip tails.  Adjacent compressions still cannot happen
                # (for adjacent eligible v < x, v requires H(x) = 0 while x
                # requires H(x) = 1), but a chain vertex now compresses
                # with probability ~2.25x higher, shortening contractions.
                ok = all(
                    self._bits.bit(x, i) == 0
                    for x in (u, w)
                    if x > v and len(adj[x]) == 2
                )
            if ok:
                return ("C", u, w)
            return _STAY
        return _STAY

    def _mark_rebuild(self, v: int) -> None:
        self._pending_rebuild.add(v)

    def _undo_decision(self, i: int, v: int, od: tuple) -> None:
        """Remove the index side effects of an old decision."""
        if od[0] == "R":
            target = od[1]
            if self._rakes_on[target].get(v) == i:
                del self._rakes_on[target][v]
            self._mark_rebuild(target)
        elif od[0] == "C":
            p = _pair(od[1], od[2])
            node = self.comp.get(v)
            entry = self._edge_cluster.get(p)
            if node is not None and entry is not None and entry == (node, i):
                del self._edge_cluster[p]
                if node.parent is not None:
                    self._mark_rebuild(node.parent.rep)

    def _apply_decision(self, i: int, v: int, nd: tuple) -> None:
        """Install the index side effects of a new decision."""
        if nd[0] in ("R", "C", "F"):
            self._top[v] = i
            self._mark_rebuild(v)
        if nd[0] == "R":
            target = nd[1]
            self._rakes_on[target][v] = i
            self._mark_rebuild(target)
        elif nd[0] == "C":
            node = self.comp.get(v)
            if node is None:
                node = ClusterNode(ClusterKind.BINARY, rep=v)
                self.comp[v] = node
            p = _pair(nd[1], nd[2])
            old = self._edge_cluster.get(p)
            if old is not None and old[0] is not node and old[0].parent is not None:
                self._mark_rebuild(old[0].parent.rep)
            self._edge_cluster[p] = (node, i)

    def _next_adj(self, i: int, x: int) -> set[int]:
        """Adjacency of a surviving vertex ``x`` at level ``i + 1``."""
        dec = self._dec[i]
        out: set[int] = set()
        for y in self._adj[i][x]:
            dy = dec[y]
            tag = dy[0]
            if tag == "S":
                out.add(y)
            elif tag == "C":
                out.add(dy[2] if dy[1] == x else dy[1])
            # "R" into x: y disappears.  ("R" elsewhere / "F" impossible
            # for a neighbour of x.)
        return out

    def _propagate(self, dirty0: set[int]) -> None:
        # Note: self._pending_rebuild may already hold marks recorded by
        # batch_update while applying cuts/links; they must survive into the
        # rebuild drain below.
        frontier = dirty0
        i = 0
        while frontier:
            if i >= _MAX_LEVELS:
                raise RuntimeError("contraction did not converge (cycle in input?)")
            if i + 1 >= len(self._adj):
                self._adj.append({})
                self._dec.append({})
            adj_i = self._adj[i]
            dec_i = self._dec[i]

            # 1. Recompute decisions where inputs may have changed.
            cands: set[int] = set()
            for v in frontier:
                cands.add(v)
                if v in adj_i:
                    cands.update(adj_i[v])
            dec_changed: set[int] = set()
            for v in cands:
                od = dec_i.get(v)
                nd = self._decide(i, v) if v in adj_i else None
                if nd == od:
                    continue
                if od is not None:
                    self._undo_decision(i, v, od)
                if nd is None:
                    del dec_i[v]
                else:
                    dec_i[v] = nd
                    self._apply_decision(i, v, nd)
                if nd is None or nd == _STAY:
                    # v no longer contracts here; a higher level will claim it.
                    if self._top.get(v) == i:
                        del self._top[v]
                dec_changed.add(v)

            # 2. Push adjacency diffs to level i + 1.
            touch: set[int] = set()
            for v in frontier | dec_changed:
                touch.add(v)
                if v not in adj_i:
                    continue
                for y in adj_i[v]:
                    dy = dec_i[y]
                    if dy[0] == "S":
                        touch.add(y)
                    elif dy[0] == "C":
                        touch.add(dy[2] if dy[1] == v else dy[1])
            adj_next = self._adj[i + 1]
            next_frontier: set[int] = set()
            for x in touch:
                alive = x in adj_i and dec_i.get(x) == _STAY
                if alive:
                    na = self._next_adj(i, x)
                    if adj_next.get(x) != na:
                        adj_next[x] = na
                        next_frontier.add(x)
                else:
                    if x in adj_next:
                        del adj_next[x]
                        next_frontier.add(x)

            self.cost.add(
                work=len(cands) + len(touch) + 1,
                span=log2ceil(max(len(cands), 2)),
            )
            frontier = next_frontier
            i += 1

        # Trim empty trailing levels so num_levels reflects the contraction.
        while len(self._adj) > 1 and not self._adj[-1] and not self._dec[-1]:
            self._adj.pop()
            self._dec.pop()
        self.num_levels = len(self._adj)

        # With all levels settled, every vertex has a contraction level;
        # rebuild dirty clusters bottom-up (children strictly below parents).
        heap = [(self._top[v], v) for v in self._pending_rebuild]
        in_heap = set(self._pending_rebuild)
        self._pending_rebuild.clear()
        heapq.heapify(heap)
        while heap:
            _, v = heapq.heappop(heap)
            in_heap.discard(v)
            self._rebuild_comp(v)
            for w in self._pending_rebuild:
                if w not in in_heap:
                    in_heap.add(w)
                    heapq.heappush(heap, (self._top[w], w))
            self._pending_rebuild.clear()

    def _rebuild_comp(self, v: int) -> None:
        i = self._top[v]
        d = self._dec[i][v]
        if d[0] not in ("R", "C", "F"):  # pragma: no cover - defensive
            raise AssertionError(f"rebuild of non-contracting vertex {v}: {d}")
        node = self.comp.get(v)
        if node is None:
            node = ClusterNode(ClusterKind.BINARY, rep=v)
            self.comp[v] = node
        old_sig = self._signature(node)
        old_children = node.children

        # The rake group around v: the vertex leaf plus every unary
        # cluster previously raked onto v.
        children: list[ClusterNode] = [self.vleaf[v]]
        children.extend(self.comp[w] for w in sorted(self._rakes_on[v]))
        group = len(children)

        if d[0] == "R":
            u = d[1]
            e = self._edge_cluster[_pair(v, u)][0]
            children.append(e)
            node.kind = ClusterKind.UNARY
            node.boundary = (u,)
            node.path_w, node.path_eid = float("-inf"), -1
        elif d[0] == "C":
            u, w = d[1], d[2]
            e1 = self._edge_cluster[_pair(u, v)][0]
            e2 = self._edge_cluster[_pair(v, w)][0]
            children.append(e1)
            children.append(e2)
            node.kind = ClusterKind.BINARY
            node.boundary = (u, w)
            if (e1.path_w, e1.path_eid) >= (e2.path_w, e2.path_eid):
                node.path_w, node.path_eid = e1.path_w, e1.path_eid
            else:
                node.path_w, node.path_eid = e2.path_w, e2.path_eid
        else:  # finalize: the whole component has raked onto v
            node.kind = ClusterKind.NULLARY
            node.boundary = ()
            node.path_w, node.path_eid = float("-inf"), -1
        if self._full:
            _augment_full(node, v, children, group)
        node.level = i
        node.children = children
        for c in old_children:
            if c.parent is node and c not in children:
                c.parent = None
        for c in children:
            c.parent = node

        self.cost.add(work=len(children))
        if self._signature(node) != old_sig:
            if node.parent is not None:
                self._mark_rebuild(node.parent.rep)

    # ------------------------------------------------------------------
    # Diagnostics / test oracles
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """A canonical, comparable snapshot of the full contraction state.

        Two forests with the same seed and the same live edge set must have
        equal snapshots regardless of the update history -- the key property
        the test suite checks (propagation is equivalent to rebuild).  Each
        cluster row holds only the fields the augmentation profile
        maintains.
        """
        levels = []
        for i in range(len(self._adj)):
            if not self._adj[i] and not self._dec[i]:
                continue
            levels.append(
                (
                    i,
                    {v: tuple(sorted(s)) for v, s in self._adj[i].items()},
                    dict(self._dec[i]),
                )
            )
        clusters = {}
        for v, node in self.comp.items():
            if v not in self._top:
                continue
            kids = []
            for c in node.children:
                if c.kind is ClusterKind.VERTEX:
                    kids.append(("v", c.rep))
                elif c.kind is ClusterKind.EDGE:
                    kids.append(("e", c.eid))
                else:
                    kids.append(("c", c.rep))
            row = (
                node.kind.value,
                node.level,
                node.boundary,
                (node.path_w, node.path_eid),
            )
            if self._full:
                row += (
                    (node.path_sum, node.path_count),
                    (node.sub_verts, node.sub_edges, node.sub_sum),
                    (node.maxd, node.diam),
                )
            clusters[v] = row + (tuple(sorted(kids)),)
        return {"levels": levels, "clusters": clusters}

    def rebuilt_copy(self) -> "RCForest":
        """A fresh forest with the same seed and live edges (rebuild oracle)."""
        other = RCForest(
            vertices=list(self.vleaf),
            seed=self._bits.seed,
            compress_rule=self.compress_rule,
            augment=self.augment,
        )
        links = [
            InternalLink(a, b, self._edge_attrs[eid][0], eid)
            for eid, (a, b) in self._edge_endpoints.items()
        ]
        other.batch_update(links=links)
        return other

    def check_invariants(self) -> None:
        """Validate structural invariants; raises AssertionError on failure."""
        # Level-0 adjacency is symmetric and matches the edge set.
        adj0 = self._adj[0]
        degree_seen = {v: 0 for v in adj0}
        for eid, (a, b) in self._edge_endpoints.items():
            assert b in adj0[a] and a in adj0[b], f"edge {eid} missing in adj0"
            degree_seen[a] += 1
            degree_seen[b] += 1
        # (Degree boundedness is the ternary layer's invariant, checked by
        # DynamicForest; the contraction itself is degree-agnostic.)
        for v, nbrs in adj0.items():
            assert len(nbrs) == degree_seen[v], f"stray adjacency at {v}"

        # Every vertex contracts exactly once, consistently with decisions.
        for v in self.vleaf:
            assert v in self._top, f"vertex {v} never contracts"
            i = self._top[v]
            d = self._dec[i][v]
            assert d[0] in ("R", "C", "F"), (v, d)
            for j in range(i):
                if v in self._dec[j]:
                    assert self._dec[j][v] == _STAY

        # Cluster tree: children partition, parent pointers, path maxima.
        for v, node in self.comp.items():
            if v not in self._top:
                continue
            for c in node.children:
                assert c.parent is node, f"broken parent under comp[{v}]"
            kinds = [c.kind for c in node.children]
            assert kinds.count(ClusterKind.VERTEX) == 1
            if self._full:
                kids = node.children
                assert node.sub_verts == sum(c.sub_verts for c in kids)
                assert node.sub_edges == sum(c.sub_edges for c in kids)
                assert abs(node.sub_sum - sum(c.sub_sum for c in kids)) < 1e-9
            if node.kind is ClusterKind.BINARY:
                bins = [c for c in node.children if c.is_binary()]
                assert len(bins) == 2
                expect = max((c.path_w, c.path_eid) for c in bins)
                assert (node.path_w, node.path_eid) == expect
                if self._full:
                    assert node.path_count == sum(c.path_count for c in bins)

        # Roots are nullary.
        for v in self.vleaf:
            root = self.root_cluster(v)
            assert root.kind is ClusterKind.NULLARY, f"root of {v} not nullary"
