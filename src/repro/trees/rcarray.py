"""Array-backed RC forest: the NumPy structure-of-arrays contraction engine.

This is the RC forest :class:`~repro.trees.forest.DynamicForest` runs on,
a faithful port of :class:`repro.trees.rcforest.RCForest` (the reference
model, kept for tests and Figure 2) to flat NumPy storage.  Both make the
same coin flips, run the same per-level decision rules, and maintain the
same leveled contraction and RC tree -- their ``snapshot()`` is *equal*
for the same (edge set, seed), and every operation charges the same
simulated work/span to the same :class:`~repro.runtime.CostModel`
phases.  What differs is the machine cost: the hot passes (per-level
decision sweeps, adjacency diff pushes, cluster aggregate rebuilds, CPT
expansion) run as vectorized array operations over int64/float64 columns
instead of per-node Python object traversals.

Layout
------

*Leveled contraction state* (one block per level, all rows indexed by
vertex id):

- ``deg``  -- int64 degree, ``-1`` for vertices absent from the level;
- ``nbr``  -- ``(capacity, width)`` int64 neighbour matrix; each row is
  sorted ascending and padded with a large sentinel, so ``row[:deg]`` is
  exactly the sorted neighbour set;
- ``tag/da/db`` -- the decision: ``-1`` none, ``0`` stay, ``1`` finalize,
  ``2`` rake (target ``da``), ``3`` compress (``da < db``).

*RC-tree node table* (one row per cluster node, grown by doubling):
kind/rep/eid/level/parent, the boundary as ``nb/b0/b1``, the path max
``pw/pe`` and the oriented binary children ``e1/e2``.  Under the
``full`` augmentation profile the table also carries the rest of
:class:`~repro.trees.cluster.ClusterNode`'s augmentation as 13 more
columns (path sum/count, subtree counts, per-boundary farthest-vertex
pairs, diameter triple); under ``msf`` they are not allocated (see
:data:`repro.trees.cluster.AUGMENT_PROFILES`).  Children lists stay as
Python lists -- they are only walked by CPT expansion and snapshots,
never by the hot propagation loop.

Small frontiers take a scalar path (Python loops over the same arrays);
frontiers of at least ``DENSE_THRESHOLD`` vertices take the vectorized
path.  Both compute identical states and identical cost charges, which
the differential test suite (``tests/test_engine_differential.py``)
checks against each other and against the reference model.
"""

from __future__ import annotations

import heapq
from itertools import chain
from typing import Iterable, NamedTuple

import numpy as np

from repro.runtime.cost import CostModel, log2ceil
from repro.runtime.hashing import HashBits
from repro.trees import batchquery
from repro.trees.cluster import check_augment, require_full
from repro.trees.ternary import InternalLink

_MAX_LEVELS = 4096  # hard safety cap; ~lg n levels are used in practice
_PAD = 1 << 62  # adjacency padding; sorts after every real vertex id
_NEG = float("-inf")

# Cluster kind codes, aligned with ClusterKind for snapshot rendering.
_K_VERTEX, _K_EDGE, _K_UNARY, _K_BINARY, _K_NULLARY = 0, 1, 2, 3, 4
_KIND_VALUE = ("vertex", "edge", "unary", "binary", "nullary")

# Decision tags (-1 = no decision recorded).
_T_STAY, _T_FINAL, _T_RAKE, _T_COMP = 0, 1, 2, 3

_U64 = np.uint64
_FNV = _U64(0x100000001B3)
_SM_GAMMA = _U64(0x9E3779B97F4A7C15)
_SM_M1 = _U64(0xBF58476D1CE4E5B9)
_SM_M2 = _U64(0x94D049BB133111EB)


class ComponentSummary(NamedTuple):
    """Root-cluster aggregates of one component (``component_summary``)."""

    sub_verts: int
    sub_edges: int
    sub_sum: float
    diam: tuple[float, int, int]


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _lexmax2(w1, v1, w2, v2):
    """Vectorized ``max((w1, v1), (w2, v2))`` with Python tuple semantics
    (the first argument wins ties)."""
    t = (w1 > w2) | ((w1 == w2) & (v1 >= v2))
    return np.where(t, w1, w2), np.where(t, v1, v2)


def _lexmax3(w1, x1, y1, w2, x2, y2):
    """Vectorized first-wins max of ``(w, x, y)`` triples."""
    t = (w1 > w2) | ((w1 == w2) & ((x1 > x2) | ((x1 == x2) & (y1 >= y2))))
    return np.where(t, w1, w2), np.where(t, x1, x2), np.where(t, y1, y2)


class _ArrayAdapter:
    """Int-node-id adapter feeding :mod:`repro.trees.batchquery`'s scalar
    reference loops (the under-``DENSE_THRESHOLD`` path)."""

    __slots__ = ("f",)

    def __init__(self, f: "RCArrayForest") -> None:
        self.f = f

    def leaf(self, v):
        return int(self.f._vl[v])

    def parent(self, n):
        p = int(self.f._npar[n])
        return None if p == -1 else p

    def is_vertex(self, n):
        return self.f._nk[n] == _K_VERTEX

    def rep(self, n):
        return int(self.f._nrep[n])

    def b0(self, n):
        return int(self.f._nb0[n])

    def b1(self, n):
        return int(self.f._nb1[n])

    def nnb(self, n):
        return int(self.f._nnb[n])

    def e1(self, n):
        return int(self.f._ne1[n])

    def e2(self, n):
        return int(self.f._ne2[n])

    def pw(self, n):
        return float(self.f._npw[n])

    def pe(self, n):
        return int(self.f._npe[n])


class RCArrayForest:
    """Structure-of-arrays RC forest, API-compatible with ``RCForest``.

    Accepts the same constructor arguments and supports the same batch
    update / query / diagnostic surface; cluster handles are int node ids
    instead of ``ClusterNode`` objects (``root_key`` abstracts the
    difference for callers that only compare identities).
    """

    #: Frontier/bucket size at which level passes switch from the scalar
    #: loop to the vectorized path.  Both paths are state- and
    #: cost-identical; tests pin this to force either one.
    DENSE_THRESHOLD = 48

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
        self.cost = cost if cost is not None else CostModel(enabled=False)
        self._bits = HashBits(seed)
        self.seed = self._bits.seed
        self._seed64 = _U64(self.seed)

        self._cap = 64
        self._width = 4
        # Per-vertex tables.
        self._vl = np.full(self._cap, -1, np.int64)  # vertex leaf node id
        self._cp = np.full(self._cap, -1, np.int64)  # composite node id
        self._top = np.full(self._cap, -1, np.int64)  # contraction level
        # Reusable scratch for sorted-unique vertex-id merges (always all
        # False between uses); cheaper than np.unique's sort at our sizes.
        self._umask = np.zeros(self._cap, np.bool_)
        self._nreg = 0
        # Leveled contraction state.
        self._Ld = [np.full(self._cap, -1, np.int64)]
        self._Ln = [np.full((self._cap, self._width), _PAD, np.int64)]
        self._Lt = [np.full(self._cap, -1, np.int8)]
        self._La = [np.full(self._cap, -1, np.int64)]
        self._Lb = [np.full(self._cap, -1, np.int64)]
        self._Lnlive = [0]
        self._Lndec = [0]
        # Trimmed level blocks are parked here for reuse: a trimmed level
        # is fully cleared (deg -1, nbr PAD, tag/da/db -1), so it can be
        # re-attached without refilling as long as its shape still matches.
        self._Lspare: list[tuple] = []
        # RC-tree node table (SoA).
        self._ncap = 0
        self._nn = 0
        self._alloc_nodes(256)
        self._nkids: list[list[int] | None] = []
        # Indexes (level-tagged, mirroring ``RCForest``).
        self.eleaf: dict[int, int] = {}
        # Keyed by the packed sorted endpoint pair ``(a << 32) | b``
        # (cheaper to hash than a tuple); values are ``(node, level)``.
        self._edge_cluster: dict[int, tuple[int, int]] = {}
        self._rakes_on: dict[int, dict[int, int]] = {}
        self._edge_endpoints: dict[int, tuple[int, int]] = {}
        self._edge_attrs: dict[int, tuple[float, int]] = {}
        self._pending_rebuild: set[int] = set()
        self._dbuckets: dict[int, set[int]] | None = None
        self.num_levels = 1

        init = [int(v) for v in vertices]
        for v in init:
            self._register(v)
        if init:
            self._propagate(set(init))

    def __setstate__(self, state: dict) -> None:
        # Checkpoints pickled before augmentation profiles existed carry
        # every column: they load as ``full``.
        state.setdefault("augment", "full")
        state.setdefault("_full", state["augment"] == "full")
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # Storage management
    # ------------------------------------------------------------------

    def _alloc_nodes(self, cap: int) -> None:
        def ext(old, fill, dt):
            arr = np.full(cap, fill, dt)
            if old is not None:
                arr[: len(old)] = old
            return arr

        g = self.__dict__.get
        self._nk = ext(g("_nk"), 0, np.int8)
        self._nrep = ext(g("_nrep"), -1, np.int64)
        self._neid = ext(g("_neid"), -1, np.int64)
        self._nlevel = ext(g("_nlevel"), 0, np.int64)
        self._npar = ext(g("_npar"), -1, np.int64)
        self._nnb = ext(g("_nnb"), 0, np.int8)
        self._nb0 = ext(g("_nb0"), -1, np.int64)
        self._nb1 = ext(g("_nb1"), -1, np.int64)
        self._npw = ext(g("_npw"), _NEG, np.float64)
        self._npe = ext(g("_npe"), -1, np.int64)
        if self._full:
            self._nps = ext(g("_nps"), 0.0, np.float64)
            self._npc = ext(g("_npc"), 0, np.int64)
            self._nsv = ext(g("_nsv"), 0, np.int64)
            self._nse = ext(g("_nse"), 0, np.int64)
            self._nss = ext(g("_nss"), 0.0, np.float64)
            self._nnm = ext(g("_nnm"), 0, np.int8)
            self._n0w = ext(g("_n0w"), _NEG, np.float64)
            self._n0v = ext(g("_n0v"), -1, np.int64)
            self._n1w = ext(g("_n1w"), _NEG, np.float64)
            self._n1v = ext(g("_n1v"), -1, np.int64)
            self._ndw = ext(g("_ndw"), _NEG, np.float64)
            self._ndx = ext(g("_ndx"), -1, np.int64)
            self._ndy = ext(g("_ndy"), -1, np.int64)
        # Oriented binary children of composites (-1 when absent): _ne1
        # is the binary child adjacent to nb0, _ne2 the one adjacent to
        # nb1.  Consumed by the batch read kernels; deliberately NOT part
        # of the parent-visible signature or snapshots (node ids are
        # engine-internal).
        self._ne1 = ext(g("_ne1"), -1, np.int64)
        self._ne2 = ext(g("_ne2"), -1, np.int64)
        self._ncap = cap

    def _new_node(self, kind: int, rep: int = -1, eid: int = -1) -> int:
        n = self._nn
        if n >= self._ncap:
            self._alloc_nodes(max(2 * self._ncap, 256))
        # Rows are allocated with ClusterNode's defaults; only overrides
        # are written here.
        self._nk[n] = kind
        self._nrep[n] = rep
        self._neid[n] = eid
        self._nkids.append(None)
        self._nn = n + 1
        return n

    def _grow_cap(self, min_id: int) -> None:
        cap = max(2 * self._cap, min_id + 1)

        def ext(old, fill):
            arr = np.full(cap, fill, old.dtype)
            arr[: len(old)] = old
            return arr

        self._vl = ext(self._vl, -1)
        self._cp = ext(self._cp, -1)
        self._top = ext(self._top, -1)
        um = np.zeros(cap, np.bool_)
        um[: len(self._umask)] = self._umask
        self._umask = um
        for i in range(len(self._Ld)):
            self._Ld[i] = ext(self._Ld[i], -1)
            self._Lt[i] = ext(self._Lt[i], -1)
            self._La[i] = ext(self._La[i], -1)
            self._Lb[i] = ext(self._Lb[i], -1)
            nb = np.full((cap, self._width), _PAD, np.int64)
            nb[: self._cap] = self._Ln[i]
            self._Ln[i] = nb
        self._cap = cap

    def _ensure_width(self, w: int) -> None:
        if w <= self._width:
            return
        # Grow geometrically: every growth reallocates one adjacency block
        # per level (and invalidates the spare pool), so +2 steps are far
        # too frequent on workloads whose max degree creeps upward.
        width = max(w, 2 * self._width)
        for i in range(len(self._Ln)):
            nb = np.full((self._cap, width), _PAD, np.int64)
            nb[:, : self._width] = self._Ln[i]
            self._Ln[i] = nb
        self._width = width

    def _ensure_level(self, i: int) -> None:
        while len(self._Ld) <= i:
            while self._Lspare:
                d, n, t, a, b = self._Lspare.pop()
                if d.shape[0] == self._cap and n.shape == (
                    self._cap,
                    self._width,
                ):
                    self._Ld.append(d)
                    self._Ln.append(n)
                    self._Lt.append(t)
                    self._La.append(a)
                    self._Lb.append(b)
                    break
            else:
                self._Ld.append(np.full(self._cap, -1, np.int64))
                self._Ln.append(
                    np.full((self._cap, self._width), _PAD, np.int64)
                )
                self._Lt.append(np.full(self._cap, -1, np.int8))
                self._La.append(np.full(self._cap, -1, np.int64))
                self._Lb.append(np.full(self._cap, -1, np.int64))
            self._Lnlive.append(0)
            self._Lndec.append(0)

    # ------------------------------------------------------------------
    # Registration and basic accessors
    # ------------------------------------------------------------------

    def _register(self, v: int) -> None:
        if v >= self._cap:
            self._grow_cap(v)
        if self._vl[v] == -1:
            leaf = self._new_node(_K_VERTEX, rep=v)
            if self._full:
                self._nsv[leaf] = 1
                self._ndw[leaf] = 0.0
                self._ndx[leaf] = v
                self._ndy[leaf] = v
            self._vl[v] = leaf
            self._Ld[0][v] = 0
            self._Lnlive[0] += 1
            self._rakes_on[v] = {}
            self._nreg += 1

    def ensure_vertex(self, v: int) -> bool:
        """Register ``v`` if new; returns True if it was added."""
        if 0 <= v < self._cap and self._vl[v] != -1:
            return False
        self._register(v)
        return True

    def _require_vertex(self, v: int) -> None:
        if not (0 <= v < self._cap) or self._vl[v] == -1:
            raise KeyError(v)

    @property
    def num_vertices(self) -> int:
        """Number of registered (internal) vertices."""
        return self._nreg

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
        self._require_vertex(v)
        return int(self._Ld[0][v])

    def neighbors(self, v: int) -> set[int]:
        """Base-forest neighbours of ``v`` (a copy)."""
        d = self.degree(v)
        return set(self._Ln[0][v, :d].tolist())

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def root_id(self, v: int) -> int:
        """Node id of the nullary root cluster of ``v``'s component."""
        self._require_vertex(v)
        node = int(self._vl[v])
        par = self._npar
        steps = 0
        p = int(par[node])
        while p != -1:
            node = p
            steps += 1
            p = int(par[node])
        self.cost.add(work=steps + 1, span=steps + 1)
        return node

    def root_key(self, v: int) -> int:
        """Engine-neutral identity of ``v``'s root cluster."""
        return self.root_id(v)

    def connected(self, u: int, v: int) -> bool:
        """Same-tree test via root clusters (O(lg n) w.h.p.)."""
        return self.root_id(u) == self.root_id(v)

    # -- batched reads (level-synchronous SoA sweeps) -------------------

    def batch_is_connected(self, pairs) -> list[bool]:
        """Same-tree test for a whole batch of pairs in one shared sweep.

        All distinct endpoints climb to their roots simultaneously;
        walks that merge share every remaining parent lookup, so ``l``
        queries cost ``O(l lg(1 + n/l))`` expected work at ``O(lg n)``
        span (phase ``bq-roots``) instead of ``l`` independent root
        walks.  Batches under ``DENSE_THRESHOLD`` run the scalar
        reference loop; both paths are answer- and cost-identical.

        >>> from repro.trees.rcarray import RCArrayForest
        >>> from repro.trees.ternary import InternalLink
        >>> f = RCArrayForest(range(4), seed=1)
        >>> f.batch_update(links=[InternalLink(0, 1, 5.0, 10),
        ...                       InternalLink(1, 2, 7.0, 11)])
        >>> f.batch_is_connected([(0, 2), (0, 3), (2, 2)])
        [True, False, True]
        """
        pairs = batchquery.normalize_pairs(pairs, self._require_vertex)
        if not pairs:
            return []
        if len(pairs) < self.DENSE_THRESHOLD:
            return batchquery.batch_is_connected(
                _ArrayAdapter(self), pairs, self.cost
            )
        l = len(pairs)
        with self.cost.phase("bq-roots", items=l):
            pa = np.asarray(pairs, np.int64)
            verts, inv = np.unique(pa.reshape(-1), return_inverse=True)
            root, _, work, rounds = self._roots_sweep(verts)
            self.cost.add(work=work + 3 * l, span=rounds + 2)
        r = root[inv].reshape(-1, 2)
        return (r[:, 0] == r[:, 1]).tolist()

    def batch_path_max(self, pairs) -> list[tuple[float, int] | None]:
        """Heaviest ``(w, eid)`` per tree path for a batch of pairs.

        ``None`` for ``u == v`` or disconnected pairs.  Two phases: the
        shared root walk of :meth:`batch_is_connected` (``bq-roots``,
        which also records leaf depths), then a depth-lockstep climb of
        every distinct connected pair carrying per-side boundary
        aggregates until the two sides meet at their cluster-tree LCA
        (``bq-paths``).  Scalar fallback under ``DENSE_THRESHOLD`` as
        elsewhere; answers match the per-query CPT path exactly.

        >>> from repro.trees.rcarray import RCArrayForest
        >>> from repro.trees.ternary import InternalLink
        >>> f = RCArrayForest(range(4), seed=1)
        >>> f.batch_update(links=[InternalLink(0, 1, 5.0, 10),
        ...                       InternalLink(1, 2, 7.0, 11)])
        >>> f.batch_path_max([(0, 2), (0, 1), (0, 3), (1, 1)])
        [(7.0, 11), (5.0, 10), None, None]
        """
        pairs = batchquery.normalize_pairs(pairs, self._require_vertex)
        if not pairs:
            return []
        if len(pairs) < self.DENSE_THRESHOLD:
            return batchquery.batch_path_max(
                _ArrayAdapter(self), pairs, self.cost
            )
        l = len(pairs)
        pa = np.asarray(pairs, np.int64)
        ne = pa[:, 0] != pa[:, 1]
        with self.cost.phase("bq-roots", items=l):
            verts, inv = np.unique(pa[ne].reshape(-1), return_inverse=True)
            root, depth, work, rounds = self._roots_sweep(verts)
            self.cost.add(work=work + 3 * l, span=rounds + 2)
        ans: list[tuple[float, int] | None] = [None] * l
        ridx = np.flatnonzero(ne)
        if ridx.size:
            rr = root[inv].reshape(-1, 2)
            conn = rr[:, 0] == rr[:, 1]
            ridx = ridx[conn]
        if ridx.size:
            u_, v_ = pa[ridx, 0], pa[ridx, 1]
            a_ = np.minimum(u_, v_)
            b_ = np.maximum(u_, v_)
            key = (a_ << 32) | b_
            _, uidx, kinv = np.unique(
                key, return_index=True, return_inverse=True
            )
            A, B = a_[uidx], b_[uidx]
            m = A.size
            da = depth[np.searchsorted(verts, A)].copy()
            db = depth[np.searchsorted(verts, B)].copy()
            with self.cost.phase("bq-paths", items=m):
                resw, rese, work, rounds = self._paths_sweep(
                    self._vl[A].copy(), self._vl[B].copy(), da, db
                )
                self.cost.add(work=m + work + l, span=rounds + 2)
            rw = resw[kinv].tolist()
            re = rese[kinv].tolist()
            for i, w_, e_ in zip(ridx.tolist(), rw, re):
                ans[i] = (w_, e_)
        else:
            with self.cost.phase("bq-paths", items=0):
                self.cost.add(work=l, span=2)
        return ans

    def _roots_sweep(self, verts):
        """Vectorized shared root walk over distinct vertex ids: returns
        ``(root, depth, work, rounds)`` aligned with ``verts`` (the
        charge formula lives in :mod:`repro.trees.batchquery`)."""
        cur = self._vl[verts].copy()
        root = np.full(verts.size, -1, np.int64)
        depth = np.zeros(verts.size, np.int64)
        act = np.arange(verts.size)
        npar = self._npar
        work = 0
        rounds = 0
        while act.size:
            rounds += 1
            un, uinv = np.unique(cur[act], return_inverse=True)
            work += un.size
            p = npar[un][uinv]
            done = p == -1
            di = act[done]
            root[di] = cur[di]
            depth[di] = rounds - 1
            live = ~done
            cur[act[live]] = p[live]
            act = act[live]
        return root, depth, work, rounds

    def _to_rep_vec(self, c, r, w0, e0, w1, e1):
        """Vectorized ``batchquery._to_rep``: per-side aggregate from the
        query vertex to ``r``, given current clusters ``c``."""
        isv = self._nk[c] == _K_VERTEX
        sel0 = self._nb0[c] == r
        w = np.where(isv, _NEG, np.where(sel0, w0, w1))
        e = np.where(isv, batchquery.EMPTY_E, np.where(sel0, e0, e1))
        return w, e

    def _advance_vec(self, cn, w0, e0, w1, e1, idx):
        """Vectorized ``batchquery._advance``: climb the rows ``idx`` of
        one side into their parents, rebasing boundary aggregates
        in-place."""
        nb0, nb1 = self._nb0, self._nb1
        npw, npe = self._npw, self._npe
        c = cn[idx]
        P = self._npar[c]
        r = self._nrep[P]
        arw, are = self._to_rep_vec(c, r, w0[idx], e0[idx], w1[idx], e1[idx])
        E1 = self._ne1[P]
        cw0, ce0 = _lexmax2(arw, are, npw[E1], npe[E1])
        ise1 = c == E1
        csel = nb0[c] == nb0[P]
        na0w = np.where(ise1, np.where(csel, w0[idx], w1[idx]), cw0)
        na0e = np.where(ise1, np.where(csel, e0[idx], e1[idx]), ce0)
        # ne2 is -1 on unary parents: the gather at row -1 is garbage but
        # every lane it feeds is masked off by ``hasb1`` below.
        hasb1 = self._nnb[P] == 2
        E2 = self._ne2[P]
        cw1, ce1 = _lexmax2(arw, are, npw[E2], npe[E2])
        ise2 = c == E2
        csel2 = nb0[c] == nb1[P]
        na1w = np.where(ise2, np.where(csel2, w0[idx], w1[idx]), cw1)
        na1e = np.where(ise2, np.where(csel2, e0[idx], e1[idx]), ce1)
        w0[idx] = na0w
        e0[idx] = na0e
        w1[idx] = np.where(hasb1, na1w, _NEG)
        e1[idx] = np.where(hasb1, na1e, batchquery.EMPTY_E)
        cn[idx] = P

    def _paths_sweep(self, can, cbn, da, db):
        """Vectorized depth-lockstep climb of distinct connected pairs;
        returns ``(resw, rese, work, rounds)``."""
        m = can.size
        EE = batchquery.EMPTY_E
        a0w = np.full(m, _NEG)
        a0e = np.full(m, EE, np.int64)
        a1w = np.full(m, _NEG)
        a1e = np.full(m, EE, np.int64)
        b0w = np.full(m, _NEG)
        b0e = np.full(m, EE, np.int64)
        b1w = np.full(m, _NEG)
        b1e = np.full(m, EE, np.int64)
        resw = np.empty(m)
        rese = np.empty(m, np.int64)
        act = np.arange(m)
        npar, nrep = self._npar, self._nrep
        work = 0
        rounds = 0
        while act.size:
            rounds += 1
            daA, dbA = da[act], db[act]
            eq = daA == dbA
            meet = eq & (npar[can[act]] == npar[cbn[act]])
            res = act[meet]
            if res.size:
                work += res.size
                r = nrep[npar[can[res]]]
                wA, eA = self._to_rep_vec(
                    can[res], r, a0w[res], a0e[res], a1w[res], a1e[res]
                )
                wB, eB = self._to_rep_vec(
                    cbn[res], r, b0w[res], b0e[res], b1w[res], b1e[res]
                )
                resw[res], rese[res] = _lexmax2(wA, eA, wB, eB)
            step = eq & ~meet
            adv_a = act[step | (daA > dbA)]
            adv_b = act[step | (dbA > daA)]
            if adv_a.size:
                work += adv_a.size
                self._advance_vec(can, a0w, a0e, a1w, a1e, adv_a)
                da[adv_a] -= 1
            if adv_b.size:
                work += adv_b.size
                self._advance_vec(cbn, b0w, b0e, b1w, b1e, adv_b)
                db[adv_b] -= 1
            act = act[~meet]
        return resw, rese, work, rounds

    def component_summary(self, v: int) -> ComponentSummary:
        """Aggregates of ``v``'s root cluster (O(lg n) root walk).

        Needs ``augment="full"``; an ``msf`` forest raises ``ValueError``.
        """
        require_full(self.augment, "component_summary")
        r = self.root_id(v)
        return ComponentSummary(
            int(self._nsv[r]),
            int(self._nse[r]),
            float(self._nss[r]),
            (float(self._ndw[r]), int(self._ndx[r]), int(self._ndy[r])),
        )

    def rc_height(self, v: int) -> int:
        """Depth of vertex leaf ``v`` below its root (diagnostics)."""
        self._require_vertex(v)
        node = int(self._vl[v])
        par = self._npar
        h = 0
        p = int(par[node])
        while p != -1:
            node = p
            h += 1
            p = int(par[node])
        return h

    def level_statistics(self) -> list[int]:
        """Live vertex count per contraction level (diagnostics)."""
        return [n for n in self._Lnlive if n > 0]

    def roots(self) -> list[int]:
        """Node ids of all root clusters (diagnostics only)."""
        out = []
        for v in np.flatnonzero(self._cp != -1).tolist():
            n = int(self._cp[v])
            if self._npar[n] == -1 and self._nkids[n]:
                out.append(n)
        return out

    # ------------------------------------------------------------------
    # Batch updates
    # ------------------------------------------------------------------

    def batch_update(
        self,
        links: list[InternalLink] | None = None,
        cuts: list[tuple[int, int, int]] | None = None,
    ) -> None:
        """Apply cuts then links in one change-propagation pass (same
        contract as ``RCForest.batch_update``)."""
        links = links or []
        cuts = cuts or []
        with self.cost.phase("rc-propagate", items=len(links) + len(cuts)):
            self._batch_update(links, cuts)

    def _batch_update(
        self, links: list[InternalLink], cuts: list[tuple[int, int, int]]
    ) -> None:
        dirty: set[int] = set()
        npar = self._npar
        nrep = self._nrep

        # Level-0 adjacency edits accumulate in per-vertex neighbour sets
        # and flush back to the sorted rows once per touched vertex -- also
        # on the error paths, which must leave exactly ``RCForest``'s
        # partially-applied adjacency state.
        cache: dict[int, set[int]] = {}
        # New edge-leaf column writes batch into one scatter (applied in
        # the ``finally`` so error paths keep ``RCForest`` parity: rows
        # for every processed link are written, later links never exist).
        lleaf: list[int] = []
        lla: list[int] = []
        llb: list[int] = []
        llw: list[float] = []
        lle: list[int] = []

        def nbrs(v: int) -> set[int]:
            s = cache.get(v)
            if s is None:
                d = int(self._Ld[0][v])
                s = set(self._Ln[0][v, :d].tolist()) if d > 0 else set()
                cache[v] = s
            return s

        try:
            for a, b, eid in cuts:
                leaf = self.eleaf.pop(eid, None)
                if leaf is None:
                    raise KeyError(f"edge {eid} is not in the forest")
                nbrs(a).discard(b)
                nbrs(b).discard(a)
                p = (a << 32) | b if a < b else (b << 32) | a
                entry = self._edge_cluster.get(p)
                if entry is not None and entry[0] == leaf:
                    del self._edge_cluster[p]
                pn = int(npar[leaf])
                if pn != -1:
                    self._mark_rebuild(int(nrep[pn]))
                    npar[leaf] = -1
                del self._edge_endpoints[eid]
                del self._edge_attrs[eid]
                dirty.add(a)
                dirty.add(b)

            if links:
                # Vectorized presence precheck: ``ensure_vertex`` is only
                # called for endpoints that might be new (same call order,
                # same error-path state as calling it per link).
                la_t, lb_t, lw_t, le_t = zip(
                    *((l.a, l.b, l.w, l.eid) for l in links)
                )
                vl = self._vl
                cap = self._cap
                laa = np.asarray(la_t, np.int64)
                lba = np.asarray(lb_t, np.int64)
                pa = np.zeros(laa.size, np.bool_)
                pb = np.zeros(lba.size, np.bool_)
                ina = (laa >= 0) & (laa < cap)
                inb = (lba >= 0) & (lba < cap)
                pa[ina] = vl[laa[ina]] != -1
                pb[inb] = vl[lba[inb]] != -1
                pa_t = pa.tolist()
                pb_t = pb.tolist()
            else:
                la_t = lb_t = lw_t = le_t = pa_t = pb_t = ()
            for a, b, w, eid, known_a, known_b in zip(
                la_t, lb_t, lw_t, le_t, pa_t, pb_t
            ):
                if not known_a and self.ensure_vertex(a):
                    dirty.add(a)
                if not known_b and self.ensure_vertex(b):
                    dirty.add(b)
                if eid in self.eleaf:
                    raise ValueError(f"edge id {eid} already present")
                if a == b or b in nbrs(a):
                    raise ValueError(
                        f"link ({a}, {b}) duplicates a forest edge"
                    )
                # Inline bump allocation (kind/eid columns are scattered
                # with the rest of the leaf row in the ``finally`` below).
                leaf = self._nn
                if leaf >= self._ncap:
                    self._alloc_nodes(max(2 * self._ncap, 256))
                self._nkids.append(None)
                self._nn = leaf + 1
                lleaf.append(leaf)
                lla.append(a)
                llb.append(b)
                llw.append(w)
                lle.append(eid)
                self.eleaf[eid] = leaf
                self._edge_cluster[(a << 32) | b if a < b else (b << 32) | a] = (
                    leaf,
                    0,
                )
                self._edge_endpoints[eid] = (a, b)
                self._edge_attrs[eid] = (w, eid)
                cache[a].add(b)
                nbrs(b).add(a)
                dirty.add(a)
                dirty.add(b)
        finally:
            if lleaf:
                lf = np.asarray(lleaf, np.int64)
                wv = np.asarray(llw)
                ea = np.asarray(lle, np.int64)
                self._nk[lf] = _K_EDGE
                self._neid[lf] = ea
                self._nnb[lf] = 2
                self._nb0[lf] = np.asarray(lla, np.int64)
                self._nb1[lf] = np.asarray(llb, np.int64)
                self._npw[lf] = wv
                self._npe[lf] = ea
                if self._full:
                    self._nnm[lf] = 2
                    real = ea >= 0  # virtual ternarization links: no length
                    if real.any():
                        lr = lf[real]
                        wr = wv[real]
                        self._nps[lr] = wr
                        self._npc[lr] = 1
                        self._nse[lr] = 1
                        self._nss[lr] = wr
            if cache:
                # Vectorized flush: ragged-scatter the neighbour sets into
                # a padded matrix and row-sort it (_PAD sorts last, so each
                # row is the sorted members followed by padding -- exactly
                # the per-vertex ``sorted`` flush).
                wmax = max(map(len, cache.values()))
                if wmax > self._width:
                    self._ensure_width(wmax)
                nc = len(cache)
                cvs = np.fromiter(cache.keys(), np.int64, nc)
                dls = np.fromiter(map(len, cache.values()), np.int64, nc)
                total = int(dls.sum())
                mat = np.full((nc, self._width), _PAD, np.int64)
                if total:
                    flat = np.fromiter(
                        chain.from_iterable(cache.values()), np.int64, total
                    )
                    starts = np.cumsum(dls) - dls
                    ri = np.repeat(np.arange(nc), dls)
                    ci = np.arange(total) - np.repeat(starts, dls)
                    mat[ri, ci] = flat
                    mat.sort(axis=1)
                self._Ln[0][cvs] = mat
                self._Ld[0][cvs] = dls

        ell = len(links) + len(cuts)
        if ell:
            # Batch pre-processing (semisort of endpoints into the dirty set).
            self.cost.add(work=ell, span=log2ceil(max(ell, 2)))
        self._propagate(dirty)

    # ------------------------------------------------------------------
    # Change propagation
    # ------------------------------------------------------------------

    def _bits_vec(self, verts: np.ndarray, round_: int) -> np.ndarray:
        """Vectorized splitmix64 coin flips, exactly ``HashBits.bit``."""
        with np.errstate(over="ignore"):
            x = verts.astype(_U64) * _FNV + _U64(round_)
            x ^= self._seed64
            x += _SM_GAMMA
            x = (x ^ (x >> _U64(30))) * _SM_M1
            x = (x ^ (x >> _U64(27))) * _SM_M2
            x ^= x >> _U64(31)
        return (x & _U64(1)).astype(np.int8)

    def _unique_ids(self, parts) -> np.ndarray:
        """Sorted unique union of vertex-id arrays via the scratch mask
        (equivalent to ``np.unique(np.concatenate(parts))`` but without
        the sort; ids are < ``self._cap`` by construction)."""
        mask = self._umask
        for p in parts:
            mask[p] = True
        out = np.flatnonzero(mask)
        mask[out] = False
        return out

    def _mark_rebuild(self, v: int) -> None:
        self._pending_rebuild.add(v)

    def _propagate(self, dirty0: set[int]) -> None:
        frontier: set[int] | np.ndarray = dirty0
        i = 0
        tw = 0
        ts = 0
        dense_min = self.DENSE_THRESHOLD
        while len(frontier):
            if i >= _MAX_LEVELS:
                raise RuntimeError("contraction did not converge (cycle in input?)")
            self._ensure_level(i + 1)
            if len(frontier) >= dense_min:
                if isinstance(frontier, set):
                    frontier = np.fromiter(frontier, np.int64, len(frontier))
                frontier, nc, nt = self._level_dense(i, frontier)
            else:
                if not isinstance(frontier, set):
                    frontier = set(frontier.tolist())
                frontier, nc, nt = self._level_sparse(i, frontier)
            tw += nc + nt + 1
            ts += log2ceil(max(nc, 2))
            i += 1

        # Trim empty trailing levels so num_levels reflects the contraction.
        # The popped blocks are already fully cleared, so they are parked
        # for reuse instead of being freed and re-zeroed next propagation.
        while len(self._Ld) > 1 and self._Lnlive[-1] == 0 and self._Lndec[-1] == 0:
            self._Lspare.append(
                (
                    self._Ld.pop(),
                    self._Ln.pop(),
                    self._Lt.pop(),
                    self._La.pop(),
                    self._Lb.pop(),
                )
            )
            self._Lnlive.pop()
            self._Lndec.pop()
        self.num_levels = len(self._Ld)
        if tw or ts:
            self.cost.add(work=tw, span=ts)

        # With all levels settled, rebuild dirty clusters bottom-up.
        self._drain_rebuilds()

    # -- decision side effects (shared by both level paths) ---------------

    def _undo_decision(self, i: int, v: int, ot: int, oa: int, ob: int) -> None:
        if ot == _T_RAKE:
            d = self._rakes_on[oa]
            if d.get(v) == i:
                del d[v]
            self._mark_rebuild(oa)
        elif ot == _T_COMP:
            p = (oa << 32) | ob
            node = int(self._cp[v])
            entry = self._edge_cluster.get(p)
            if node != -1 and entry is not None and entry == (node, i):
                del self._edge_cluster[p]
                pn = int(self._npar[node])
                if pn != -1:
                    self._mark_rebuild(int(self._nrep[pn]))

    def _apply_decision(self, i: int, v: int, nt: int, na: int, nb: int) -> None:
        self._top[v] = i
        self._mark_rebuild(v)
        if nt == _T_RAKE:
            self._rakes_on[na][v] = i
            self._mark_rebuild(na)
        elif nt == _T_COMP:
            node = int(self._cp[v])
            if node == -1:
                node = self._new_node(_K_BINARY, rep=v)
                self._cp[v] = node
            p = (na << 32) | nb
            old = self._edge_cluster.get(p)
            if old is not None and old[0] != node:
                pn = int(self._npar[old[0]])
                if pn != -1:
                    self._mark_rebuild(int(self._nrep[pn]))
            self._edge_cluster[p] = (node, i)

    # -- scalar level pass -------------------------------------------------

    def _decide_scalar(self, i: int, v: int, d: int) -> tuple[int, int, int]:
        deg = self._Ld[i]
        row = self._Ln[i][v]
        if d == 0:
            return (_T_FINAL, -1, -1)
        if d == 1:
            u = int(row[0])
            if deg[u] == 1 and v > u:
                return (_T_STAY, -1, -1)  # two-vertex tree: smaller id rakes
            return (_T_RAKE, u, -1)
        if d == 2:
            u = int(row[0])
            w = int(row[1])
            if deg[u] < 2 or deg[w] < 2:
                return (_T_STAY, -1, -1)
            bit = self._bits.bit
            if bit(v, i) != 1:
                return (_T_STAY, -1, -1)
            if self.compress_rule == "mr":
                ok = bit(u, i) == 0 and bit(w, i) == 0
            else:
                ok = all(
                    bit(x, i) == 0 for x in (u, w) if x > v and deg[x] == 2
                )
            if ok:
                return (_T_COMP, u, w)
            return (_T_STAY, -1, -1)
        return (_T_STAY, -1, -1)

    def _level_sparse(self, i: int, frontier: set[int]):
        deg = self._Ld[i]
        nbr = self._Ln[i]
        tag = self._Lt[i]
        da = self._La[i]
        db = self._Lb[i]
        top = self._top

        cands: set[int] = set()
        for v in frontier:
            cands.add(v)
            d = int(deg[v])
            if d > 0:
                cands.update(nbr[v, :d].tolist())
        dec_changed: set[int] = set()
        for v in cands:
            ot = int(tag[v])
            d = int(deg[v])
            if d < 0:
                nt, na, nb = -1, -1, -1
            else:
                nt, na, nb = self._decide_scalar(i, v, d)
            if nt == ot and na == da[v] and nb == db[v]:
                continue
            if ot != -1:
                self._undo_decision(i, v, ot, int(da[v]), int(db[v]))
            else:
                self._Lndec[i] += 1
            if nt == -1:
                self._Lndec[i] -= 1
            tag[v] = nt
            da[v] = na
            db[v] = nb
            if nt >= _T_FINAL:
                self._apply_decision(i, v, nt, na, nb)
            else:
                # v no longer contracts here; a higher level will claim it.
                if top[v] == i:
                    top[v] = -1
            dec_changed.add(v)

        touch: set[int] = set()
        for v in frontier | dec_changed:
            touch.add(v)
            d = int(deg[v])
            if d < 0:
                continue
            for y in nbr[v, :d].tolist():
                ty = tag[y]
                if ty == _T_STAY:
                    touch.add(y)
                elif ty == _T_COMP:
                    ay = int(da[y])
                    touch.add(int(db[y]) if ay == v else ay)

        degN = self._Ld[i + 1]
        nbrN = self._Ln[i + 1]
        next_frontier: set[int] = set()
        for x in touch:
            d = int(deg[x])
            alive = d >= 0 and tag[x] == _T_STAY
            if alive:
                na_set: set[int] = set()
                for y in nbr[x, :d].tolist():
                    ty = tag[y]
                    if ty == _T_STAY:
                        na_set.add(y)
                    elif ty == _T_COMP:
                        ay = int(da[y])
                        na_set.add(int(db[y]) if ay == x else ay)
                dN = int(degN[x])
                same = dN == len(na_set) and all(
                    y in na_set for y in nbrN[x, :dN].tolist()
                )
                if not same:
                    srt = sorted(na_set)
                    row = nbrN[x]
                    row[: len(srt)] = srt
                    row[len(srt) :] = _PAD
                    if dN < 0:
                        self._Lnlive[i + 1] += 1
                    degN[x] = len(srt)
                    next_frontier.add(x)
            else:
                if degN[x] >= 0:
                    degN[x] = -1
                    nbrN[x] = _PAD
                    self._Lnlive[i + 1] -= 1
                    next_frontier.add(x)
        return next_frontier, len(cands), len(touch)

    # -- vectorized level pass ---------------------------------------------

    def _level_dense(self, i: int, F: np.ndarray):
        deg = self._Ld[i]
        nbr = self._Ln[i]
        tag = self._Lt[i]
        da = self._La[i]
        db = self._Lb[i]

        presF = deg[F] >= 0
        if presF.any():
            rows = nbr[F[presF]]
            cands = self._unique_ids((F, rows[rows < _PAD]))
        else:
            cands = self._unique_ids((F,))
        ncands = cands.size
        pres = deg[cands] >= 0
        PV = cands[pres]

        # -1 defaults only survive on absent candidates; present rows are
        # fully overwritten below, so scatter the default instead of
        # filling whole arrays.
        ntag = np.empty(ncands, np.int8)
        nda = np.empty(ncands, np.int64)
        ndb = np.empty(ncands, np.int64)
        absent = np.flatnonzero(~pres)
        if absent.size:
            ntag[absent] = -1
            nda[absent] = -1
            ndb[absent] = -1
        if PV.size:
            d = deg[PV]
            n0 = np.where(d >= 1, nbr[PV, 0], 0)
            n1 = np.where(d >= 2, nbr[PV, 1], 0)
            t = np.zeros(PV.size, np.int8)  # STAY by default
            a_ = np.full(PV.size, -1, np.int64)
            b_ = np.full(PV.size, -1, np.int64)
            t[d == 0] = _T_FINAL
            m1 = d == 1
            if m1.any():
                idx = np.flatnonzero(m1)
                u = n0[idx]
                rake = ~((deg[u] == 1) & (PV[idx] > u))
                ridx = idx[rake]
                t[ridx] = _T_RAKE
                a_[ridx] = u[rake]
            m2 = d == 2
            if m2.any():
                idx = np.flatnonzero(m2)
                v2 = PV[idx]
                u = n0[idx]
                w = n1[idx]
                elig = (deg[u] >= 2) & (deg[w] >= 2)
                elig &= self._bits_vec(v2, i) == 1
                if self.compress_rule == "mr":
                    ok = (self._bits_vec(u, i) == 0) & (
                        self._bits_vec(w, i) == 0
                    )
                else:
                    ok = (
                        ~((u > v2) & (deg[u] == 2))
                        | (self._bits_vec(u, i) == 0)
                    ) & (
                        ~((w > v2) & (deg[w] == 2))
                        | (self._bits_vec(w, i) == 0)
                    )
                comp = elig & ok
                cidx = idx[comp]
                t[cidx] = _T_COMP
                a_[cidx] = u[comp]
                b_[cidx] = w[comp]
            ntag[pres] = t
            nda[pres] = a_
            ndb[pres] = b_

        ot = tag[cands]
        oa = da[cands]
        ob = db[cands]
        ch = (ot != ntag) | (oa != nda) | (ob != ndb)
        changed = cands[ch]
        if changed.size:
            self._Lndec[i] += int(np.count_nonzero((ot == -1) & ch)) - int(
                np.count_nonzero((ntag == -1) & ch)
            )
            ntc = ntag[ch]
            contracting = changed[ntc >= _T_FINAL]
            if contracting.size:
                self._top[contracting] = i
                self._pending_rebuild.update(contracting.tolist())
            clearing = changed[ntc <= _T_STAY]
            if clearing.size:
                sel = clearing[self._top[clearing] == i]
                self._top[sel] = -1
            # Dict-index side effects (undo old / apply new) stay scalar.
            # Only RAKE/COMP transitions have any: restrict the loop to
            # those rows (STAY/FINAL/absent flips are pure tag scatters).
            otc = ot[ch]
            sfx = (otc >= _T_RAKE) | (ntc >= _T_RAKE)
            vs_l = changed[sfx].tolist()
            ot_l = otc[sfx].tolist()
            oa_l = oa[ch][sfx].tolist()
            ob_l = ob[ch][sfx].tolist()
            nt_l = ntc[sfx].tolist()
            na_l = nda[ch][sfx].tolist()
            nb_l = ndb[ch][sfx].tolist()
            marks = self._pending_rebuild
            ro = self._rakes_on
            ec = self._edge_cluster
            cp = self._cp
            npar = self._npar
            nrep = self._nrep
            for k, v in enumerate(vs_l):
                otk = ot_l[k]
                if otk == _T_RAKE:
                    tgt = oa_l[k]
                    dd = ro[tgt]
                    if dd.get(v) == i:
                        del dd[v]
                    marks.add(tgt)
                elif otk == _T_COMP:
                    p = (oa_l[k] << 32) | ob_l[k]
                    node = int(cp[v])
                    entry = ec.get(p)
                    if node != -1 and entry is not None and entry == (node, i):
                        del ec[p]
                        pn = int(npar[node])
                        if pn != -1:
                            marks.add(int(nrep[pn]))
                ntk = nt_l[k]
                if ntk == _T_RAKE:
                    tgt = na_l[k]
                    ro[tgt][v] = i
                    marks.add(tgt)
                elif ntk == _T_COMP:
                    node = int(cp[v])
                    if node == -1:
                        node = self._new_node(_K_BINARY, rep=v)
                        cp[v] = node
                        npar = self._npar  # _new_node may reallocate
                        nrep = self._nrep
                    p = (na_l[k] << 32) | nb_l[k]
                    old = ec.get(p)
                    if old is not None and old[0] != node:
                        pn = int(npar[old[0]])
                        if pn != -1:
                            marks.add(int(nrep[pn]))
                    ec[p] = (node, i)
            tag[changed] = ntc
            da[changed] = nda[ch]
            db[changed] = ndb[ch]

        # Push adjacency diffs to level i + 1.  ``F`` is always duplicate
        # free (a set image or a disjoint changed/removed concatenation),
        # so T0 can skip deduplication: downstream consumers either
        # tolerate repeats (gathers) or re-unique (touch).
        T0 = np.concatenate((F, changed)) if changed.size else F
        TP = T0[deg[T0] >= 0]
        if TP.size:
            rowsT = nbr[TP]
            valid = rowsT < _PAD
            safe = np.where(valid, rowsT, 0)
            tN = tag[safe]
            sN = valid & (tN == _T_STAY)
            cN = valid & (tN == _T_COMP)
            parts = [T0, rowsT[sN]]
            if cN.any():
                yc = safe[cN]
                ow = np.broadcast_to(TP[:, None], rowsT.shape)[cN]
                parts.append(np.where(da[yc] == ow, db[yc], da[yc]))
            touch = self._unique_ids(parts)
        else:
            touch = T0 if T0 is F else self._unique_ids((T0,))
        ntouch = touch.size

        degN = self._Ld[i + 1]
        nbrN = self._Ln[i + 1]
        aliveM = (deg[touch] >= 0) & (tag[touch] == _T_STAY)
        A = touch[aliveM]
        changedA = np.empty(0, np.int64)
        if A.size:
            rowsA = nbr[A]
            valid = rowsA < _PAD
            safe = np.where(valid, rowsA, 0)
            tA = tag[safe]
            ownersA = np.broadcast_to(A[:, None], rowsA.shape)
            partner = np.where(da[safe] == ownersA, db[safe], da[safe])
            img = np.where(
                tA == _T_STAY, safe, np.where(tA == _T_COMP, partner, _PAD)
            )
            img = np.where(valid, img, _PAD)
            img = np.sort(img, axis=1)
            ndeg = (img < _PAD).sum(axis=1)
            eq = (degN[A] == ndeg) & (nbrN[A] == img).all(axis=1)
            changedA = A[~eq]
            if changedA.size:
                newrows = img[~eq]
                self._Lnlive[i + 1] += int(np.count_nonzero(degN[changedA] < 0))
                degN[changedA] = ndeg[~eq]
                nbrN[changedA] = newrows
        dead = touch[~aliveM]
        removed = np.empty(0, np.int64)
        if dead.size:
            removed = dead[degN[dead] >= 0]
            if removed.size:
                degN[removed] = -1
                nbrN[removed] = _PAD
                self._Lnlive[i + 1] -= removed.size
        return np.concatenate((changedA, removed)), int(ncands), int(ntouch)

    # ------------------------------------------------------------------
    # Cluster rebuilds
    # ------------------------------------------------------------------

    def _drain_rebuilds(self) -> None:
        # ``RCForest`` drains a single heap of (top level, vertex),
        # deduplicating marks against in-heap entries; marks travel to the
        # contraction level of their target, which is never below the level
        # being processed (stale same-level parents are always already
        # marked, see tests).  We therefore process levels in ascending
        # order and, within a level, replicate the heap's execution
        # multiset exactly (:meth:`_process_level`).
        if not self._pending_rebuild:
            return
        top = self._top
        buckets: dict[int, set[int]] = {}
        for v in self._pending_rebuild:
            buckets.setdefault(int(top[v]), set()).add(v)
        self._pending_rebuild.clear()
        self._dbuckets = buckets
        work = 0
        try:
            while buckets:
                lvl = min(buckets)
                work += self._process_level(lvl, sorted(buckets.pop(lvl)))
        finally:
            self._dbuckets = None
        if work:
            self.cost.add(work=work)

    def _drain_release(self, w: int) -> None:
        """Route one rebuild mark raised while draining level ``_dlvl``.

        Future-level marks go to their bucket (sets dedup, matching the
        ``RCForest``'s in-heap dedup).  Same-level marks follow the heap
        semantics: swallowed while the target is still pending, otherwise
        re-enqueued for (re-)execution after the marker.
        """
        t = int(self._top[w])
        if t != self._dlvl:
            self._dbuckets.setdefault(t, set()).add(w)
        elif w not in self._din_heap and w not in self._dremaining:
            heapq.heappush(self._dH, w)
            self._din_heap.add(w)

    def _process_level(self, lvl: int, B: list[int]) -> int:
        """Rebuild one level's pending set with the exact execution
        multiset of ``RCForest``'s heap drain.

        Same-level rebuilds only read strictly-lower-level cluster state,
        so they commute; and re-executing an already-rebuilt vertex is
        idempotent (same state, so its signature cannot change again) and
        reduces to charging ``len(children)``.  That makes the sequential
        heap replayable: run the batch, then release each rebuild's marks
        at its position in the sorted execution order.
        """
        self._dlvl = lvl
        H: list[int] = []
        in_heap: set[int] = set()
        self._dH = H
        self._din_heap = in_heap
        remaining = set(B)
        self._dremaining = remaining
        executed: set[int] = set()
        work = 0

        by_marker: dict[int, list[int]] | None = None
        if len(B) >= self.DENSE_THRESHOLD:
            pairs: list[tuple[int, int]] = []
            work += self._rebuild_dense(lvl, B, pairs)
            executed.update(B)
            by_marker = {}
            for m, t in pairs:
                by_marker.setdefault(m, []).append(t)

        si = 0
        nb = len(B)
        while si < nb or H:
            if H and (si >= nb or H[0] < B[si]):
                w = heapq.heappop(H)
                in_heap.discard(w)
                if w in executed:
                    # Idempotent re-execution: charge, no state change.
                    work += len(self._nkids[int(self._cp[w])])
                else:
                    executed.add(w)
                    work += self._rebuild_scalar(w)
            else:
                v = B[si]
                si += 1
                remaining.discard(v)
                if by_marker is None:
                    executed.add(v)
                    work += self._rebuild_scalar(v)
                else:
                    for t in by_marker.get(v, ()):
                        self._drain_release(t)
        return work

    def _node_sig(self, n: int) -> tuple:
        """The parent-visible signature (mirrors ``RCForest``'s): kind,
        boundary and path max, plus the ``full`` profile's columns."""
        nb = int(self._nnb[n])
        if nb == 0:
            bnd: tuple = ()
        elif nb == 1:
            bnd = (int(self._nb0[n]),)
        else:
            bnd = (int(self._nb0[n]), int(self._nb1[n]))
        sig = (int(self._nk[n]), bnd, float(self._npw[n]), int(self._npe[n]))
        if not self._full:
            return sig
        nm = int(self._nnm[n])
        if nm == 0:
            maxd: tuple = ()
        elif nm == 1:
            maxd = ((float(self._n0w[n]), int(self._n0v[n])),)
        else:
            maxd = (
                (float(self._n0w[n]), int(self._n0v[n])),
                (float(self._n1w[n]), int(self._n1v[n])),
            )
        return sig + (
            float(self._nps[n]),
            int(self._npc[n]),
            int(self._nsv[n]),
            int(self._nse[n]),
            float(self._nss[n]),
            maxd,
            (float(self._ndw[n]), int(self._ndx[n]), int(self._ndy[n])),
        )

    def _rake_fold(self, v: int, rakers: list[int]):
        """Fold the rake group around ``v`` over the raked unary clusters
        ``rakers`` (ascending raker id; same order/association as the
        ``RCForest``'s ``_rebuild_comp`` loop)."""
        mw, mv = 0.0, v
        gdw, gdx, gdy = 0.0, v, v
        gv, ge, gs = 1, 0, 0.0
        for r in rakers:
            mdw = float(self._n0w[r])
            mdv = int(self._n0v[r])
            rdw = float(self._ndw[r])
            rdx = int(self._ndx[r])
            rdy = int(self._ndy[r])
            if (rdw, rdx, rdy) > (gdw, gdx, gdy):
                gdw, gdx, gdy = rdw, rdx, rdy
            cw = mw + mdw
            if (cw, mv, mdv) > (gdw, gdx, gdy):
                gdw, gdx, gdy = cw, mv, mdv
            if (mdw, mdv) > (mw, mv):
                mw, mv = mdw, mdv
            gv += int(self._nsv[r])
            ge += int(self._nse[r])
            gs = gs + float(self._nss[r])
        return mw, mv, gdw, gdx, gdy, gv, ge, gs

    def _rebuild_scalar(self, v: int) -> int:
        i = int(self._top[v])
        t = int(self._Lt[i][v])
        if t < _T_FINAL:  # pragma: no cover - defensive
            raise AssertionError(f"rebuild of non-contracting vertex {v}: {t}")
        node = int(self._cp[v])
        if node == -1:
            node = self._new_node(_K_BINARY, rep=v)
            self._cp[v] = node
        old_sig = self._node_sig(node)
        old_children = self._nkids[node]

        # The rake group around v: its vertex leaf plus the unary clusters
        # raked onto it, in ascending raker id; then the consumed edges.
        kids: list[int] = [int(self._vl[v])]
        ro = self._rakes_on[v]
        if ro:
            cp = self._cp
            kids.extend([int(cp[w]) for w in sorted(ro)])
        group = len(kids)

        if t == _T_RAKE:
            u = int(self._La[i][v])
            e = self._edge_cluster[(v << 32) | u if v < u else (u << 32) | v][0]
            kids.append(e)
            self._nk[node] = _K_UNARY
            self._nnb[node] = 1
            self._nb0[node] = u
            self._nb1[node] = -1
            self._ne1[node] = e
            self._ne2[node] = -1
            self._npw[node] = _NEG
            self._npe[node] = -1
        elif t == _T_COMP:
            u = int(self._La[i][v])
            w = int(self._Lb[i][v])
            e1 = self._edge_cluster[(u << 32) | v if u < v else (v << 32) | u][0]
            e2 = self._edge_cluster[(v << 32) | w if v < w else (w << 32) | v][0]
            kids.append(e1)
            kids.append(e2)
            p1w, p1e = float(self._npw[e1]), int(self._npe[e1])
            p2w, p2e = float(self._npw[e2]), int(self._npe[e2])
            self._nk[node] = _K_BINARY
            self._nnb[node] = 2
            self._nb0[node] = u
            self._nb1[node] = w
            self._ne1[node] = e1
            self._ne2[node] = e2
            if (p1w, p1e) >= (p2w, p2e):
                self._npw[node] = p1w
                self._npe[node] = p1e
            else:
                self._npw[node] = p2w
                self._npe[node] = p2e
        else:  # finalize: the whole component has raked onto v
            self._nk[node] = _K_NULLARY
            self._nnb[node] = 0
            self._nb0[node] = -1
            self._nb1[node] = -1
            self._ne1[node] = -1
            self._ne2[node] = -1
            self._npw[node] = _NEG
            self._npe[node] = -1
        if self._full:
            self._aug_scalar(node, v, t, kids, group)

        self._nlevel[node] = i
        npar = self._npar
        if old_children:
            for c in old_children:
                if c not in kids and npar[c] == node:
                    npar[c] = -1
        self._nkids[node] = kids
        for c in kids:
            npar[c] = node

        if self._node_sig(node) != old_sig:
            pn = int(npar[node])
            if pn != -1:
                self._drain_release(int(self._nrep[pn]))
        return len(kids)

    def _aug_scalar(
        self, node: int, v: int, t: int, kids: list[int], group: int
    ) -> None:
        """The ``full`` profile's columns of one rebuilt cluster, after
        its kind and boundary are written: ``kids[1:group]`` are the
        raked unary clusters, ``kids[group:]`` the consumed edges."""
        mw, mv, gdw, gdx, gdy, gv, ge, gs = self._rake_fold(v, kids[1:group])
        if t == _T_RAKE:
            u = int(self._nb0[node])
            e = kids[group]
            if int(self._nb0[e]) == u:
                euw, euv = float(self._n0w[e]), int(self._n0v[e])
                evw, evv = float(self._n1w[e]), int(self._n1v[e])
            else:
                euw, euv = float(self._n1w[e]), int(self._n1v[e])
                evw, evv = float(self._n0w[e]), int(self._n0v[e])
            eps = float(self._nps[e])
            cw = eps + mw
            if (euw, euv) >= (cw, mv):
                m0w, m0v = euw, euv
            else:
                m0w, m0v = cw, mv
            dw = float(self._ndw[e])
            dx = int(self._ndx[e])
            dy = int(self._ndy[e])
            if (gdw, gdx, gdy) > (dw, dx, dy):
                dw, dx, dy = gdw, gdx, gdy
            c3 = evw + mw
            if (c3, evv, mv) > (dw, dx, dy):
                dw, dx, dy = c3, evv, mv
            self._nps[node] = 0.0
            self._npc[node] = 0
            self._nnm[node] = 1
            self._n0w[node] = m0w
            self._n0v[node] = m0v
            self._n1w[node] = _NEG
            self._n1v[node] = -1
            self._ndw[node] = dw
            self._ndx[node] = dx
            self._ndy[node] = dy
            self._nsv[node] = gv + int(self._nsv[e])
            self._nse[node] = ge + int(self._nse[e])
            self._nss[node] = gs + float(self._nss[e])
        elif t == _T_COMP:
            u = int(self._nb0[node])
            w = int(self._nb1[node])
            e1, e2 = kids[group], kids[group + 1]
            if int(self._nb0[e1]) == u:
                e1uw, e1uv = float(self._n0w[e1]), int(self._n0v[e1])
                e1vw, e1vv = float(self._n1w[e1]), int(self._n1v[e1])
            else:
                e1uw, e1uv = float(self._n1w[e1]), int(self._n1v[e1])
                e1vw, e1vv = float(self._n0w[e1]), int(self._n0v[e1])
            if int(self._nb0[e2]) == w:
                e2ww, e2wv = float(self._n0w[e2]), int(self._n0v[e2])
                e2vw, e2vv = float(self._n1w[e2]), int(self._n1v[e2])
            else:
                e2ww, e2wv = float(self._n1w[e2]), int(self._n1v[e2])
                e2vw, e2vv = float(self._n0w[e2]), int(self._n0v[e2])
            p1s, p2s = float(self._nps[e1]), float(self._nps[e2])
            self._nps[node] = p1s + p2s
            self._npc[node] = int(self._npc[e1]) + int(self._npc[e2])
            if (mw, mv) >= (e2vw, e2vv):
                f1w, f1v = mw, mv
            else:
                f1w, f1v = e2vw, e2vv
            if (mw, mv) >= (e1vw, e1vv):
                f2w, f2v = mw, mv
            else:
                f2w, f2v = e1vw, e1vv
            c1 = p1s + f1w
            if (e1uw, e1uv) >= (c1, f1v):
                m0w, m0v = e1uw, e1uv
            else:
                m0w, m0v = c1, f1v
            c2 = p2s + f2w
            if (e2ww, e2wv) >= (c2, f2v):
                m1w, m1v = e2ww, e2wv
            else:
                m1w, m1v = c2, f2v
            self._nnm[node] = 2
            self._n0w[node] = m0w
            self._n0v[node] = m0v
            self._n1w[node] = m1w
            self._n1v[node] = m1v
            dw = float(self._ndw[e1])
            dx = int(self._ndx[e1])
            dy = int(self._ndy[e1])
            for cand in (
                (float(self._ndw[e2]), int(self._ndx[e2]), int(self._ndy[e2])),
                (gdw, gdx, gdy),
                (e1vw + mw, e1vv, mv),
                (e2vw + mw, e2vv, mv),
                (e1vw + e2vw, e1vv, e2vv),
            ):
                if cand > (dw, dx, dy):
                    dw, dx, dy = cand
            self._ndw[node] = dw
            self._ndx[node] = dx
            self._ndy[node] = dy
            self._nsv[node] = (gv + int(self._nsv[e1])) + int(self._nsv[e2])
            self._nse[node] = (ge + int(self._nse[e1])) + int(self._nse[e2])
            self._nss[node] = (gs + float(self._nss[e1])) + float(self._nss[e2])
        else:
            self._nps[node] = 0.0
            self._npc[node] = 0
            self._nnm[node] = 0
            self._n0w[node] = _NEG
            self._n0v[node] = -1
            self._n1w[node] = _NEG
            self._n1v[node] = -1
            self._ndw[node] = gdw
            self._ndx[node] = gdx
            self._ndy[node] = gdy
            self._nsv[node] = gv
            self._nse[node] = ge
            self._nss[node] = gs

    def _rebuild_dense(
        self, lvl: int, vs: list[int], pairs: list[tuple[int, int]]
    ) -> int:
        cp = self._cp
        ec = self._edge_cluster
        va = np.asarray(vs, np.int64)
        n = va.size
        tags = self._Lt[lvl][va]
        dal = self._La[lvl][va]
        dbl = self._Lb[lvl][va]
        vleafs = self._vl[va].tolist()

        # Batch-allocate composite nodes for vertices that lack one.  Node
        # ids are purely internal (queries and snapshots only see reps,
        # eids and aggregate values), so block allocation is free to pick
        # different ids than per-row ``_new_node`` calls would.
        cpa = cp[va]
        miss = np.flatnonzero(cpa == -1)
        if miss.size:
            base = self._nn
            need = base + miss.size
            while need > self._ncap:
                self._alloc_nodes(max(2 * self._ncap, 256))
            newids = np.arange(base, need, dtype=np.int64)
            self._nk[newids] = _K_BINARY
            self._nrep[newids] = va[miss]
            self._nkids.extend([None] * miss.size)
            self._nn = need
            cpa[miss] = newids
            cp[va[miss]] = newids
        nodes = cpa
        nl0 = nodes.tolist()

        e1 = np.full(n, -1, np.int64)
        e2 = np.full(n, -1, np.int64)
        ro = self._rakes_on
        nkids = self._nkids
        olds: list[list[int] | None] = [nkids[x] for x in nl0]
        kids_all: list[list[int]] = [[vf] for vf in vleafs]
        # Rake groups, split by size: one- and two-raker groups (the
        # overwhelmingly common cases) gather their raker clusters in one
        # array op each (and fold vectorized under ``full``).
        single_k: list[int] = []
        single_rw: list[int] = []
        dbl_k: list[int] = []
        dbl_rw1: list[int] = []
        dbl_rw2: list[int] = []
        multi_k: list[int] = []
        for k, v in enumerate(vs):
            rv = ro[v]
            if rv:
                nr = len(rv)
                if nr == 1:
                    (rw,) = rv
                    single_k.append(k)
                    single_rw.append(rw)
                elif nr == 2:
                    rw1, rw2 = sorted(rv)
                    dbl_k.append(k)
                    dbl_rw1.append(rw1)
                    dbl_rw2.append(rw2)
                else:
                    multi_k.append(k)
        sr = sr2a = sr2b = None
        if single_k:
            sr = cp[np.asarray(single_rw, np.int64)]
            for k, r in zip(single_k, sr.tolist()):
                kids_all[k].append(r)
        if dbl_k:
            sr2a = cp[np.asarray(dbl_rw1, np.int64)]
            sr2b = cp[np.asarray(dbl_rw2, np.int64)]
            for k, ra, rb in zip(dbl_k, sr2a.tolist(), sr2b.tolist()):
                kids = kids_all[k]
                kids.append(ra)
                kids.append(rb)
        for k in multi_k:
            kids_all[k].extend([int(cp[w]) for w in sorted(ro[vs[k]])])
        groups = (single_k, sr, dbl_k, sr2a, sr2b, multi_k)
        ec_get = ec.__getitem__
        rka = np.flatnonzero(tags == _T_RAKE)
        if rka.size:
            vR = va[rka]
            uR = dal[rka]
            pk = np.where(vR < uR, (vR << 32) | uR, (uR << 32) | vR)
            eks = [t[0] for t in map(ec_get, pk.tolist())]
            for k, ek in zip(rka.tolist(), eks):
                kids_all[k].append(ek)
            e1[rka] = eks
        cka = np.flatnonzero(tags == _T_COMP)
        if cka.size:
            vC = va[cka]
            uC0 = dal[cka]
            wC0 = dbl[cka]
            pk1 = np.where(uC0 < vC, (uC0 << 32) | vC, (vC << 32) | uC0)
            pk2 = np.where(vC < wC0, (vC << 32) | wC0, (wC0 << 32) | vC)
            ek1s = [t[0] for t in map(ec_get, pk1.tolist())]
            ek2s = [t[0] for t in map(ec_get, pk2.tolist())]
            for k, eka, ekb in zip(cka.tolist(), ek1s, ek2s):
                kids = kids_all[k]
                kids.append(eka)
                kids.append(ekb)
            e1[cka] = ek1s
            e2[cka] = ek2s
        lens = list(map(len, kids_all))
        flat_kids = list(chain.from_iterable(kids_all))
        work = len(flat_kids)

        # Old parent-visible signature columns (gathered after all node
        # allocations so array references are stable).
        o_k = self._nk[nodes]
        o_nb = self._nnb[nodes]
        o_b0 = self._nb0[nodes]
        o_b1 = self._nb1[nodes]
        o_pw = self._npw[nodes]
        o_pe = self._npe[nodes]

        # Defaults are the FINAL row (nullary: no boundary, empty path
        # max); the RAKE/COMP branches overwrite the rows they own.
        n_kind = np.full(n, _K_NULLARY, np.int8)
        n_nb = np.zeros(n, np.int8)
        n_b0 = np.full(n, -1, np.int64)
        n_b1 = np.full(n, -1, np.int64)
        n_pw = np.full(n, _NEG)
        n_pe = np.full(n, -1, np.int64)
        if rka.size:
            n_kind[rka] = _K_UNARY
            n_nb[rka] = 1
            n_b0[rka] = dal[rka]
        if cka.size:
            eA = e1[cka]
            eB = e2[cka]
            p1w = self._npw[eA]
            p1e = self._npe[eA]
            p2w = self._npw[eB]
            p2e = self._npe[eB]
            take1 = (p1w > p2w) | ((p1w == p2w) & (p1e >= p2e))
            n_kind[cka] = _K_BINARY
            n_nb[cka] = 2
            n_b0[cka] = dal[cka]
            n_b1[cka] = dbl[cka]
            n_pw[cka] = np.where(take1, p1w, p2w)
            n_pe[cka] = np.where(take1, p1e, p2e)

        # Scatter the new rows.  ``e1``/``e2`` (the oriented binary
        # children) are not parent-visible: excluded from ``changed``.
        self._nk[nodes] = n_kind
        self._nnb[nodes] = n_nb
        self._nb0[nodes] = n_b0
        self._nb1[nodes] = n_b1
        self._npw[nodes] = n_pw
        self._npe[nodes] = n_pe
        self._ne1[nodes] = e1
        self._ne2[nodes] = e2
        self._nlevel[nodes] = lvl

        # Children bookkeeping: guarded resets for dropped children first,
        # then parent pointers for the new lists.  Clearing every old child
        # whose parent pointer still names its rebuilt node and then
        # re-scattering the new lists is order-equivalent to
        # ``RCForest``'s per-vertex interleaving (kept children are restored by
        # the scatter; children owned by other nodes fail the guard).
        npar = self._npar
        fo: list[int] = []
        fown: list[int] = []
        for node_id, old in zip(nl0, olds):
            if old:
                fo.extend(old)
                fown.extend([node_id] * len(old))
        if fo:
            foa = np.asarray(fo, np.int64)
            sel = npar[foa] == np.asarray(fown, np.int64)
            npar[foa[sel]] = -1
        for node_id, kids in zip(nl0, kids_all):
            nkids[node_id] = kids
        flat = np.asarray(flat_kids, np.int64)
        npar[flat] = np.repeat(nodes, np.asarray(lens, np.int64))

        changed = (
            (o_k != n_kind)
            | (o_nb != n_nb)
            | (o_b0 != n_b0)
            | (o_b1 != n_b1)
            | (o_pw != n_pw)
            | (o_pe != n_pe)
        )
        if self._full:
            changed |= self._aug_dense(
                va, nodes, tags, dal, dbl, e1, e2, groups, kids_all
            )
        ci = np.flatnonzero(changed)
        if ci.size:
            pn = npar[nodes[ci]]
            sel = pn != -1
            markers = va[ci[sel]].tolist()
            targets = self._nrep[pn[sel]].tolist()
            top = self._top
            buckets = self._dbuckets
            for m, t in zip(markers, targets):
                tl = int(top[t])
                if tl != lvl:
                    buckets.setdefault(tl, set()).add(t)
                else:
                    pairs.append((m, t))
        return work

    def _aug_dense(
        self, va, nodes, tags, dal, dbl, e1, e2, groups, kids_all
    ) -> np.ndarray:
        """The ``full`` profile's columns for one level's dense rebuild:
        folds the rake groups, writes the 13 columns of ``nodes`` and
        returns the rows where any of them changed."""
        n = va.size
        single_k, sr, dbl_k, sr2a, sr2b, multi_k = groups
        mw = np.zeros(n)
        mv = va.copy()
        gdw = np.zeros(n)
        gdx = va.copy()
        gdy = va.copy()
        gv = np.ones(n, np.int64)
        ge = np.zeros(n, np.int64)
        gs = np.zeros(n)
        for k in multi_k:
            v = int(va[k])
            rakers = kids_all[k][1 : 1 + len(self._rakes_on[v])]
            (
                mw[k],
                mv[k],
                gdw[k],
                gdx[k],
                gdy[k],
                gv[k],
                ge[k],
                gs[k],
            ) = self._rake_fold(v, rakers)

        def fold_step(m1, m2, g1, g2, g3, sr):
            # One vectorized ``_rake_fold`` iteration: same comparisons,
            # same first-wins tie handling, same float association.
            mdw = self._n0w[sr]
            mdv = self._n0v[sr]
            g1, g2, g3 = _lexmax3(
                g1, g2, g3, self._ndw[sr], self._ndx[sr], self._ndy[sr]
            )
            g1, g2, g3 = _lexmax3(g1, g2, g3, m1 + mdw, m2, mdv)
            m1, m2 = _lexmax2(m1, m2, mdw, mdv)
            return m1, m2, g1, g2, g3

        if single_k:
            sk = np.asarray(single_k, np.intp)
            vsk = va[sk]
            zero = np.zeros(sk.size)
            m1, m2, g1, g2, g3 = fold_step(zero, vsk, zero, vsk, vsk, sr)
            mw[sk] = m1
            mv[sk] = m2
            gdw[sk] = g1
            gdx[sk] = g2
            gdy[sk] = g3
            gv[sk] = 1 + self._nsv[sr]
            ge[sk] = self._nse[sr]
            gs[sk] = 0.0 + self._nss[sr]
        if dbl_k:
            dk = np.asarray(dbl_k, np.intp)
            vdk = va[dk]
            zero = np.zeros(dk.size)
            m1, m2, g1, g2, g3 = fold_step(zero, vdk, zero, vdk, vdk, sr2a)
            m1, m2, g1, g2, g3 = fold_step(m1, m2, g1, g2, g3, sr2b)
            mw[dk] = m1
            mv[dk] = m2
            gdw[dk] = g1
            gdx[dk] = g2
            gdy[dk] = g3
            gv[dk] = (1 + self._nsv[sr2a]) + self._nsv[sr2b]
            ge[dk] = self._nse[sr2a] + self._nse[sr2b]
            gs[dk] = (0.0 + self._nss[sr2a]) + self._nss[sr2b]

        o_ps = self._nps[nodes]
        o_pc = self._npc[nodes]
        o_sv = self._nsv[nodes]
        o_se = self._nse[nodes]
        o_ss = self._nss[nodes]
        o_nm = self._nnm[nodes]
        o_0w = self._n0w[nodes]
        o_0v = self._n0v[nodes]
        o_1w = self._n1w[nodes]
        o_1v = self._n1v[nodes]
        o_dw = self._ndw[nodes]
        o_dx = self._ndx[nodes]
        o_dy = self._ndy[nodes]

        # Defaults are the FINAL row (the rake group alone, no boundary
        # distances); the RAKE/COMP branches overwrite the rows they own.
        n_ps = np.zeros(n)
        n_pc = np.zeros(n, np.int64)
        n_sv = gv.copy()
        n_se = ge.copy()
        n_ss = gs.copy()
        n_nm = np.zeros(n, np.int8)
        n_0w = np.full(n, _NEG)
        n_0v = np.full(n, -1, np.int64)
        n_1w = np.full(n, _NEG)
        n_1v = np.full(n, -1, np.int64)
        n_dw = gdw.copy()
        n_dx = gdx.copy()
        n_dy = gdy.copy()

        idx = np.flatnonzero(tags == _T_RAKE)
        if idx.size:
            eR = e1[idx]
            uR = dal[idx]
            iu0 = self._nb0[eR] == uR
            euw = np.where(iu0, self._n0w[eR], self._n1w[eR])
            euv = np.where(iu0, self._n0v[eR], self._n1v[eR])
            evw = np.where(iu0, self._n1w[eR], self._n0w[eR])
            evv = np.where(iu0, self._n1v[eR], self._n0v[eR])
            mwR = mw[idx]
            mvR = mv[idx]
            m0w_, m0v_ = _lexmax2(euw, euv, self._nps[eR] + mwR, mvR)
            dw_, dx_, dy_ = _lexmax3(
                self._ndw[eR], self._ndx[eR], self._ndy[eR],
                gdw[idx], gdx[idx], gdy[idx],
            )
            dw_, dx_, dy_ = _lexmax3(dw_, dx_, dy_, evw + mwR, evv, mvR)
            n_nm[idx] = 1
            n_0w[idx] = m0w_
            n_0v[idx] = m0v_
            n_dw[idx] = dw_
            n_dx[idx] = dx_
            n_dy[idx] = dy_
            n_sv[idx] = gv[idx] + self._nsv[eR]
            n_se[idx] = ge[idx] + self._nse[eR]
            n_ss[idx] = gs[idx] + self._nss[eR]

        idx = np.flatnonzero(tags == _T_COMP)
        if idx.size:
            eA = e1[idx]
            eB = e2[idx]
            uC = dal[idx]
            wC = dbl[idx]
            i1u0 = self._nb0[eA] == uC
            e1uw = np.where(i1u0, self._n0w[eA], self._n1w[eA])
            e1uv = np.where(i1u0, self._n0v[eA], self._n1v[eA])
            e1vw = np.where(i1u0, self._n1w[eA], self._n0w[eA])
            e1vv = np.where(i1u0, self._n1v[eA], self._n0v[eA])
            i2w0 = self._nb0[eB] == wC
            e2ww = np.where(i2w0, self._n0w[eB], self._n1w[eB])
            e2wv = np.where(i2w0, self._n0v[eB], self._n1v[eB])
            e2vw = np.where(i2w0, self._n1w[eB], self._n0w[eB])
            e2vv = np.where(i2w0, self._n1v[eB], self._n0v[eB])
            p1s = self._nps[eA]
            p2s = self._nps[eB]
            mwC = mw[idx]
            mvC = mv[idx]
            f1w, f1v = _lexmax2(mwC, mvC, e2vw, e2vv)
            f2w, f2v = _lexmax2(mwC, mvC, e1vw, e1vv)
            m0w_, m0v_ = _lexmax2(e1uw, e1uv, p1s + f1w, f1v)
            m1w_, m1v_ = _lexmax2(e2ww, e2wv, p2s + f2w, f2v)
            dw_, dx_, dy_ = _lexmax3(
                self._ndw[eA], self._ndx[eA], self._ndy[eA],
                self._ndw[eB], self._ndx[eB], self._ndy[eB],
            )
            dw_, dx_, dy_ = _lexmax3(
                dw_, dx_, dy_, gdw[idx], gdx[idx], gdy[idx]
            )
            dw_, dx_, dy_ = _lexmax3(dw_, dx_, dy_, e1vw + mwC, e1vv, mvC)
            dw_, dx_, dy_ = _lexmax3(dw_, dx_, dy_, e2vw + mwC, e2vv, mvC)
            dw_, dx_, dy_ = _lexmax3(dw_, dx_, dy_, e1vw + e2vw, e1vv, e2vv)
            n_ps[idx] = p1s + p2s
            n_pc[idx] = self._npc[eA] + self._npc[eB]
            n_nm[idx] = 2
            n_0w[idx] = m0w_
            n_0v[idx] = m0v_
            n_1w[idx] = m1w_
            n_1v[idx] = m1v_
            n_dw[idx] = dw_
            n_dx[idx] = dx_
            n_dy[idx] = dy_
            n_sv[idx] = (gv[idx] + self._nsv[eA]) + self._nsv[eB]
            n_se[idx] = (ge[idx] + self._nse[eA]) + self._nse[eB]
            n_ss[idx] = (gs[idx] + self._nss[eA]) + self._nss[eB]

        self._nps[nodes] = n_ps
        self._npc[nodes] = n_pc
        self._nsv[nodes] = n_sv
        self._nse[nodes] = n_se
        self._nss[nodes] = n_ss
        self._nnm[nodes] = n_nm
        self._n0w[nodes] = n_0w
        self._n0v[nodes] = n_0v
        self._n1w[nodes] = n_1w
        self._n1v[nodes] = n_1v
        self._ndw[nodes] = n_dw
        self._ndx[nodes] = n_dx
        self._ndy[nodes] = n_dy
        return (
            (o_ps != n_ps)
            | (o_pc != n_pc)
            | (o_sv != n_sv)
            | (o_se != n_se)
            | (o_ss != n_ss)
            | (o_nm != n_nm)
            | (o_0w != n_0w)
            | (o_0v != n_0v)
            | (o_1w != n_1w)
            | (o_1v != n_1v)
            | (o_dw != n_dw)
            | (o_dx != n_dx)
            | (o_dy != n_dy)
        )

    # ------------------------------------------------------------------
    # Compressed path trees (Algorithm 1 on the array state)
    # ------------------------------------------------------------------

    def compressed_path_trees(self, marked, cost: CostModel | None = None):
        """Compressed path trees of every component containing a marked
        vertex; identical output, phases, and charges as running
        :func:`repro.trees.cpt.compressed_path_trees` on ``RCForest``.

        Under ``augment="msf"`` edges carry only the heaviest ``(w,
        eid)`` and ``aggregates`` is empty.
        """
        from repro.trees.cpt import CompressedPathTree, PathAggregate

        marked_set = {int(v) for v in marked}
        for v in marked_set:
            if not (0 <= v < self._cap) or self._vl[v] == -1:
                raise KeyError(f"marked vertex {v} is not in the forest")

        charge = cost if cost is not None else CostModel(enabled=False)
        npar = self._npar
        full = self._full

        # Mark phase: early-stopping upward walks (Lemma 3.3 path sharing).
        # ``ddist`` memoises each marked cluster's distance to its root, so
        # the expand recursion depth (the span charge) falls out of the
        # walks and the expand DFS needs no post-order depth stack.
        with charge.phase("cpt-mark") as ph:
            # Level-synchronised BFS up from the marked leaves.  The scalar
            # walk's per-leaf early stop becomes a frontier filter against
            # the visited mask, so the marked set, ``touched``, and the
            # root list come out identical; the span term (the deepest
            # marked leaf's distance to its root) falls out of a separate
            # unfiltered sweep, which terminates one round after the
            # deepest walk reaches its root.
            vl = self._vl
            ma = np.fromiter(marked_set, np.int64, len(marked_set))
            leaves = np.unique(vl[ma]) if ma.size else ma
            cur = leaves
            rounds = 0
            while cur.size:
                cur = npar[cur]
                cur = cur[cur != -1]
                rounds += 1
            max_chain = rounds - 1
            inm = np.zeros(self._nn, np.bool_)
            mc_parts: list[np.ndarray] = []
            root_parts: list[np.ndarray] = []
            cur = leaves
            while cur.size:
                inm[cur] = True
                mc_parts.append(cur)
                p = npar[cur]
                root_parts.append(cur[p == -1])
                p = p[p != -1]
                if p.size:
                    p = np.unique(p)
                    p = p[~inm[p]]
                cur = p
            mc_all = (
                np.concatenate(mc_parts) if mc_parts else leaves
            )
            touched = int(mc_all.size)
            roots = (
                np.concatenate(root_parts).tolist() if root_parts else []
            )
            charge.add(
                work=touched + max(len(marked_set), 1),
                span=log2ceil(max(self.num_vertices, 2)),
            )
            ph.count(touched)

        with charge.phase("cpt-expand") as ph:
            # The builder graph is a dict-of-dicts with plain-tuple
            # ``(max_w, max_eid, total, count)`` annotations (``(max_w,
            # max_eid)`` under ``msf``) -- the same surgery sequence as
            # ``cpt._GraphBuilder``/``cpt._prune`` (identical final graph
            # and float association), minus the object allocation.
            adj: dict[int, dict[int, tuple]] = {v: {} for v in marked_set}

            # Vectorised prune classification: every marked cluster gets a
            # dispatch code in a bytearray over node ids (0 means unmarked,
            # a U op).  1 is a marked VERTEX leaf (the builder's add_vertex
            # is a no-op: its rep is always in ``marked_set``); 2 is a
            # composite whose prune is a no-op (rep marked or boundary-
            # protected); 3 is a composite whose prune runs with the rep
            # and protection recorded in ``pmap``.
            codes_b = bytearray(self._nn)
            pmap: dict[int, tuple] = {}
            if touched:
                mca = mc_all
                kindm = self._nk[mca]
                repm = self._nrep[mca]
                b0m = self._nb0[mca]
                b1m = self._nb1[mca]
                mb = np.zeros(self._cap, np.bool_)
                mb[np.fromiter(marked_set, np.int64, len(marked_set))] = (
                    True
                )
                # Absent boundaries are -1 and reps are >= 0, so the
                # protection test needs no arity guard.
                keep = ~(
                    (kindm == _K_VERTEX)
                    | mb[repm]
                    | (repm == b0m)
                    | (repm == b1m)
                )
                cview = np.frombuffer(codes_b, np.uint8)
                cview[mca] = np.where(
                    kindm == _K_VERTEX, 1, np.where(keep, 3, 2)
                ).astype(np.uint8)
                ki = np.flatnonzero(keep)
                # ``pmap`` maps a P node to an index into the flat
                # rep/boundary columns.  Absent boundaries are -1 and real
                # vertices are >= 0, so protection ("u in prot") is just
                # two int compares against b0/b1 -- no tuples built.
                pmap = dict(zip(mca[ki].tolist(), range(ki.size)))
                p_rep = repm[ki].tolist()
                p_b0 = b0m[ki].tolist()
                p_b1 = b1m[ki].tolist()
            kids = self._nkids

            # Iterative post-order replay of ``cpt._expand``: pre-visits
            # emit U ops (j >= 0, indexing ``unmarked``), post-visits emit
            # the surviving P op (~node < 0, keying ``pmap``).  Recursion
            # depth was already charged via the mark walks.
            ops: list[int] = []
            unmarked: list[int] = []
            expand_count = 0
            ops_append = ops.append
            unm_append = unmarked.append
            for root in roots:
                stack: list[int] = [root]
                pop = stack.pop
                push = stack.append
                extend = stack.extend
                count = 0
                while stack:
                    e = pop()
                    if e < 0:
                        ops_append(e)
                        continue
                    count += 1
                    c = codes_b[e]
                    if c == 0:
                        ops_append(len(unmarked))
                        unm_append(e)
                    elif c >= 2:
                        if c == 3:
                            push(~e)
                        ch = kids[e]
                        if ch:
                            extend(reversed(ch))
                expand_count += count

            if unmarked:
                ua = np.asarray(unmarked, np.int64)
                # nnb == 2 implies kind is EDGE or BINARY (the only
                # two-boundary clusters), so no kind gather is needed.
                u_nb = self._nnb[ua].tolist()
                u_b0 = self._nb0[ua].tolist()
                u_b1 = self._nb1[ua].tolist()
                cols = [self._npw[ua].tolist(), self._npe[ua].tolist()]
                if full:
                    cols += [self._nps[ua].tolist(), self._npc[ua].tolist()]
                u_agg = list(zip(*cols))

            def splice(x: int) -> None:
                (a, wa), (b, wb) = adj.pop(x).items()
                del adj[a][x]
                del adj[b][x]
                take_a = wa[0] > wb[0] or (wa[0] == wb[0] and wa[1] >= wb[1])
                if not full:
                    agg = wa if take_a else wb
                elif take_a:
                    agg = (wa[0], wa[1], wa[2] + wb[2], wa[3] + wb[3])
                else:
                    agg = (wb[0], wb[1], wa[2] + wb[2], wa[3] + wb[3])
                adj[a][b] = agg
                adj[b][a] = agg

            adj_get = adj.get
            for op in ops:
                if op >= 0:
                    b = u_nb[op]
                    if b == 2:
                        b0 = u_b0[op]
                        b1 = u_b1[op]
                        da = adj_get(b0)
                        if da is None:
                            da = adj[b0] = {}
                        db = adj_get(b1)
                        if db is None:
                            db = adj[b1] = {}
                        agg = u_agg[op]
                        da[b1] = agg
                        db[b0] = agg
                    elif b == 1:
                        b0 = u_b0[op]
                        if b0 not in adj:
                            adj[b0] = {}
                else:  # the Prune primitive (pre-filtered: v unmarked,
                    # unprotected)
                    j = pmap[~op]
                    v = p_rep[j]
                    nbv = adj[v]
                    deg = len(nbv)
                    if deg == 2:
                        splice(v)
                    elif deg == 1:
                        (u,) = nbv
                        del adj[u][v]
                        del adj[v]
                        if (
                            u not in marked_set
                            and u != p_b0[j]
                            and u != p_b1[j]
                            and len(adj[u]) == 2
                        ):
                            splice(u)
                    elif deg == 0:
                        del adj[v]
            # ``max_chain + 2`` is exactly the old recursion-depth-stack
            # maximum plus one: the deepest expand call sits one past the
            # longest leaf-to-root chain among the marked walks.
            charge.add(work=expand_count, span=max_chain + 2)
            ph.count(expand_count)

        vertices = sorted(adj)
        edges = []
        aggs = []
        pa_new = PathAggregate.__new__
        for a in vertices:
            for b, t in adj[a].items():
                if a < b:
                    edges.append((a, b, t[0], t[1]))
                    if not full:
                        continue
                    # The frozen dataclass routes __init__ through four
                    # object.__setattr__ calls; writing the instance dict
                    # directly builds an identical object much faster.
                    pa = pa_new(PathAggregate)
                    pa.__dict__.update(
                        max_w=t[0], max_eid=t[1], total=t[2], count=t[3]
                    )
                    aggs.append(pa)
        return CompressedPathTree(
            vertices=vertices, edges=edges, aggregates=aggs, marked=marked_set
        )

    # ------------------------------------------------------------------
    # Diagnostics / test oracles
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Canonical contraction snapshot, equal to ``RCForest``'s
        ``snapshot()`` for the same (edge set, seed, augmentation
        profile).  Each cluster row holds only the fields its profile
        maintains."""
        levels = []
        for i in range(len(self._Ld)):
            if self._Lnlive[i] == 0 and self._Lndec[i] == 0:
                continue
            deg = self._Ld[i]
            nbr = self._Ln[i]
            tag = self._Lt[i]
            da = self._La[i]
            db = self._Lb[i]
            pv = np.flatnonzero(deg >= 0)
            adj = {
                v: tuple(nbr[v, :d].tolist())
                for v, d in zip(pv.tolist(), deg[pv].tolist())
            }
            dv = np.flatnonzero(tag != -1)
            dec = {}
            for v, t, a, b in zip(
                dv.tolist(), tag[dv].tolist(), da[dv].tolist(), db[dv].tolist()
            ):
                if t == _T_STAY:
                    dec[v] = ("S",)
                elif t == _T_FINAL:
                    dec[v] = ("F",)
                elif t == _T_RAKE:
                    dec[v] = ("R", a)
                else:
                    dec[v] = ("C", a, b)
            levels.append((i, adj, dec))
        clusters = {}
        cands = np.flatnonzero(self._cp != -1)
        cands = cands[self._top[cands] != -1]
        for v in cands.tolist():
            n = int(self._cp[v])
            kid_tags = []
            for c in self._nkids[n] or ():
                ck = int(self._nk[c])
                if ck == _K_VERTEX:
                    kid_tags.append(("v", int(self._nrep[c])))
                elif ck == _K_EDGE:
                    kid_tags.append(("e", int(self._neid[c])))
                else:
                    kid_tags.append(("c", int(self._nrep[c])))
            sig = self._node_sig(n)
            row = (
                _KIND_VALUE[sig[0]],
                int(self._nlevel[n]),
                sig[1],
                (sig[2], sig[3]),
            )
            if self._full:
                row += (
                    (sig[4], sig[5]),
                    (sig[6], sig[7], sig[8]),
                    (sig[9], sig[10]),
                )
            clusters[v] = row + (tuple(sorted(kid_tags)),)
        return {"levels": levels, "clusters": clusters}

    def rebuilt_copy(self) -> "RCArrayForest":
        """A fresh forest with the same seed and live edges (rebuild oracle)."""
        other = RCArrayForest(
            vertices=np.flatnonzero(self._vl != -1).tolist(),
            seed=self.seed,
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
        registered = np.flatnonzero(self._vl != -1).tolist()
        deg0 = self._Ld[0]
        nbr0 = self._Ln[0]
        degree_seen = {v: 0 for v in registered}
        for eid, (a, b) in self._edge_endpoints.items():
            ra = nbr0[a, : int(deg0[a])].tolist()
            rb = nbr0[b, : int(deg0[b])].tolist()
            assert b in ra and a in rb, f"edge {eid} missing in adj0"
            degree_seen[a] += 1
            degree_seen[b] += 1
        for v in registered:
            assert int(deg0[v]) == degree_seen[v], f"stray adjacency at {v}"

        # Every vertex contracts exactly once, consistently with decisions.
        for v in registered:
            i = int(self._top[v])
            assert i != -1, f"vertex {v} never contracts"
            t = int(self._Lt[i][v])
            assert t >= _T_FINAL, (v, t)
            for j in range(i):
                tj = int(self._Lt[j][v])
                if tj != -1:
                    assert tj == _T_STAY

        # Cluster tree: children partition, parent pointers, path maxima.
        for v in registered:
            n = int(self._cp[v])
            if n == -1 or self._top[v] == -1:
                continue
            kids = self._nkids[n] or []
            for c in kids:
                assert int(self._npar[c]) == n, f"broken parent under comp[{v}]"
            kinds = [int(self._nk[c]) for c in kids]
            assert kinds.count(_K_VERTEX) == 1
            if self._full:
                assert int(self._nsv[n]) == sum(int(self._nsv[c]) for c in kids)
                assert int(self._nse[n]) == sum(int(self._nse[c]) for c in kids)
                assert (
                    abs(
                        float(self._nss[n])
                        - sum(float(self._nss[c]) for c in kids)
                    )
                    < 1e-9
                )
            if int(self._nk[n]) == _K_BINARY:
                bins = [c for c in kids if int(self._nk[c]) in (_K_EDGE, _K_BINARY)]
                assert len(bins) == 2
                expect = max(
                    (float(self._npw[c]), int(self._npe[c])) for c in bins
                )
                assert (float(self._npw[n]), int(self._npe[n])) == expect
                if self._full:
                    assert int(self._npc[n]) == sum(
                        int(self._npc[c]) for c in bins
                    )

        # Roots are nullary.
        for v in registered:
            root = self.root_id(v)
            assert int(self._nk[root]) == _K_NULLARY, f"root of {v} not nullary"
