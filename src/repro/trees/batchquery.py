"""Shared scalar reference for the batched RC-tree read kernels.

``batch_is_connected`` and ``batch_path_max`` answer a whole batch of
vertex pairs in two level-synchronous sweeps over the RC tree:

- **bq-roots** -- walk every distinct query endpoint from its vertex
  leaf to its root *simultaneously*.  Endpoints whose walks merge share
  the rest of the climb (one parent lookup per distinct frontier node
  per round), which is where the batch saves over per-query root walks:
  ``l`` queries cost ``O(l lg(1 + n/l))`` expected work instead of
  ``O(l lg n)``, at ``O(lg n)`` span.  The walk also records each leaf's
  depth, consumed by the second sweep.
- **bq-paths** -- for each distinct connected pair, climb both sides in
  depth lockstep while maintaining, per side, the heaviest ``(w, eid)``
  from the query vertex to each boundary vertex of its current cluster.
  The sides first share a parent M exactly at the pair's cluster-tree
  LCA; the two clusters there intersect precisely at ``rep(M)``, so the
  answer is the max of the two side aggregates oriented toward
  ``rep(M)``.

Three implementations exist: this module's scalar loops (the
``RCForest`` reference model always, and ``RCArrayForest`` under
``DENSE_THRESHOLD``) and the vectorized NumPy sweep in
:mod:`repro.trees.rcarray`.  All three must return identical answers
**and charge identical work/span to identical phases** -- the
differential tests compare per-op charges.
The contract, which every implementation replicates exactly:

- ``bq-roots``: ``work = 2 l + sum_r |frontier_r| + l`` where
  ``frontier_r`` is the set of distinct live nodes in round ``r`` and
  ``l = len(pairs)``; ``span = rounds + 2``; ``items = l``.
- ``bq-paths``: ``work = m + advances + l`` where ``m`` is the number of
  distinct normalized connected pairs and ``advances`` counts every
  one-side climb step plus one unit per resolution; ``span = rounds + 2``
  with ``rounds`` the longest single-pair lockstep; ``items = m``.

Implementations are parameterized by a tiny adapter (duck-typed node
handles: ``ClusterNode`` objects or int node ids) so the climb logic --
in particular the boundary-orientation cases -- lives in exactly one
place.
"""

from __future__ import annotations

from typing import Sequence

from repro.runtime.cost import CostModel

#: Identity for max-(w, eid) path aggregates.  The eid component is more
#: negative than any virtual-edge id the ternarization layer hands out,
#: so an empty aggregate loses even to an all-virtual path segment.
EMPTY_W = float("-inf")
EMPTY_E = -(1 << 62)
_EMPTY = (EMPTY_W, EMPTY_E)


def walk_roots(ad, verts):
    """Shared root walk: ``vert -> (root, depth)`` plus the charge inputs.

    Returns ``(root, depth, work, rounds)`` where ``work`` counts one
    unit per distinct frontier node per round (the dedup terms ``3 l``
    are added by the caller, which knows the batch size).
    """
    cur = {x: ad.leaf(x) for x in verts}
    root: dict = {}
    depth: dict = {}
    active = list(verts)
    work = 0
    rounds = 0
    while active:
        rounds += 1
        par: dict = {}
        for x in active:
            nd = cur[x]
            if nd not in par:
                par[nd] = ad.parent(nd)
        work += len(par)
        nxt = []
        for x in active:
            p = par[cur[x]]
            if p is None:
                root[x] = cur[x]
                depth[x] = rounds - 1
            else:
                cur[x] = p
                nxt.append(x)
        active = nxt
    return root, depth, work, rounds


def batch_is_connected(ad, pairs, cost: CostModel):
    """Scalar reference for the batched same-tree test."""
    if not pairs:
        return []
    l = len(pairs)
    with cost.phase("bq-roots", items=l):
        root, _, work, rounds = walk_roots(
            ad, {x for p in pairs for x in p}
        )
        cost.add(work=work + 3 * l, span=rounds + 2)
    return [root[u] == root[v] for u, v in pairs]


def batch_path_max(ad, pairs, cost: CostModel):
    """Scalar reference for the batched heaviest-edge path query.

    ``None`` for ``u == v`` and for disconnected pairs, matching the
    per-query CPT-based ``path_max``.
    """
    if not pairs:
        return []
    l = len(pairs)
    ans: list[tuple[float, int] | None] = [None] * l
    with cost.phase("bq-roots", items=l):
        root, depth, work, rounds = walk_roots(
            ad, {x for (u, v) in pairs if u != v for x in (u, v)}
        )
        cost.add(work=work + 3 * l, span=rounds + 2)
    todo: dict[tuple, list[int]] = {}
    for i, (u, v) in enumerate(pairs):
        if u == v or root[u] != root[v]:
            continue
        todo.setdefault((u, v) if u <= v else (v, u), []).append(i)
    m = len(todo)
    with cost.phase("bq-paths", items=m):
        work = m
        rounds = 0
        for (a, b), idxs in todo.items():
            res, r_p, w_p = _climb_pair(ad, a, b, depth[a], depth[b])
            rounds = max(rounds, r_p)
            work += w_p
            for i in idxs:
                ans[i] = res
        cost.add(work=work + l, span=rounds + 2)
    return ans


def _to_rep(ad, c, a0, a1, r):
    """Heaviest (w, eid) from the side's query vertex to ``r``, given its
    current cluster ``c`` with aggregates toward b0/b1."""
    if ad.is_vertex(c):
        return _EMPTY
    return a0 if ad.b0(c) == r else a1


def _advance(ad, c, a0, a1):
    """Climb one side from cluster ``c`` into its parent ``P``, rebasing
    the aggregates onto P's boundary.

    For each boundary vertex ``b`` of P: if ``c`` is the binary child
    adjacent to ``b`` the path stays inside ``c`` (reuse the aggregate
    toward ``b``); otherwise it runs through ``rep(P)`` and continues
    along that binary child's cluster path.
    """
    P = ad.parent(c)
    r = ad.rep(P)
    ar = _to_rep(ad, c, a0, a1, r)
    e1 = ad.e1(P)
    if c == e1:
        na0 = a0 if ad.b0(c) == ad.b0(P) else a1
    else:
        na0 = max(ar, (ad.pw(e1), ad.pe(e1)))
    if ad.nnb(P) == 2:
        e2 = ad.e2(P)
        if c == e2:
            na1 = a0 if ad.b0(c) == ad.b1(P) else a1
        else:
            na1 = max(ar, (ad.pw(e2), ad.pe(e2)))
    else:
        na1 = _EMPTY
    return P, na0, na1


def _climb_pair(ad, a, b, da, db):
    """Lockstep climb of one connected distinct pair; returns
    ``(answer, rounds, work)``."""
    ca, a0, a1 = ad.leaf(a), _EMPTY, _EMPTY
    cb, b0, b1 = ad.leaf(b), _EMPTY, _EMPTY
    rounds = 0
    work = 0
    while True:
        rounds += 1
        if da == db:
            pa = ad.parent(ca)
            if pa == ad.parent(cb):
                work += 1
                r = ad.rep(pa)
                return (
                    max(_to_rep(ad, ca, a0, a1, r), _to_rep(ad, cb, b0, b1, r)),
                    rounds,
                    work,
                )
            ca, a0, a1 = _advance(ad, ca, a0, a1)
            cb, b0, b1 = _advance(ad, cb, b0, b1)
            da -= 1
            db -= 1
            work += 2
        elif da > db:
            ca, a0, a1 = _advance(ad, ca, a0, a1)
            da -= 1
            work += 1
        else:
            cb, b0, b1 = _advance(ad, cb, b0, b1)
            db -= 1
            work += 1


def normalize_pairs(
    pairs: Sequence[tuple[int, int]], require
) -> list[tuple[int, int]]:
    """Validate a pair batch (both endpoints through ``require``) and
    return it as a list of int tuples."""
    out = []
    for u, v in pairs:
        u, v = int(u), int(v)
        require(u)
        require(v)
        out.append((u, v))
    return out
