"""RC-tree cluster nodes.

A cluster is a connected subset of vertices and edges of the base forest
(Section 2.2).  Leaves of the RC tree are the base vertices and edges;
every composite cluster has exactly one *representative* vertex -- the
vertex whose contraction (rake / compress / finalize) formed it -- so
composite clusters are identified one-to-one with vertices.

Binary clusters are augmented with the heaviest edge on the *cluster path*
(the path between their two boundary vertices), stored as a
``(weight, edge id)`` pair so path maxima identify a physical edge; this is
the ``Weight`` primitive of Section 3.
"""

from __future__ import annotations

import enum
from typing import Optional

#: Augmentation profiles, fixed when a forest is built.  ``msf`` keeps
#: what Algorithm 2, its compressed path trees and the batch reads use:
#: cluster kind, boundary and the path max ``(w, eid)``.  ``full`` adds
#: the path sum/count, subtree totals and distance columns behind the
#: ``DynamicForest`` path/component/diameter queries.  A rebuilt cluster
#: re-marks its parent only when a maintained field changed, so ``msf``
#: also propagates less.
AUGMENT_PROFILES = ("msf", "full")


def check_augment(augment: str) -> None:
    """Raise ``ValueError`` unless ``augment`` names a profile."""
    if augment not in AUGMENT_PROFILES:
        raise ValueError(
            f"augment must be one of {AUGMENT_PROFILES}, got {augment!r}"
        )


def require_full(augment: str, what: str) -> None:
    """Raise ``ValueError`` when ``what`` needs columns that an ``msf``
    forest does not maintain."""
    if augment != "full":
        raise ValueError(
            f"{what} needs augment='full'; this forest was built with "
            f"augment={augment!r}, which maintains only kind, boundary and "
            "path max"
        )


class ClusterKind(enum.Enum):
    """The five cluster kinds of an RC tree (Section 2.2)."""

    VERTEX = "vertex"  # base vertex leaf
    EDGE = "edge"  # base edge leaf (a binary cluster)
    UNARY = "unary"  # composite formed by a rake
    BINARY = "binary"  # composite formed by a compress
    NULLARY = "nullary"  # composite formed by a finalize (component root)


class ClusterNode:
    """One node of an RC tree.

    Attributes:
        kind: the cluster kind.
        rep: representative vertex (composites), base vertex id (vertex
            leaves), or ``-1`` (edge leaves).
        eid: base edge id (edge leaves only, else ``-1``).
        level: contraction round that formed the cluster (0 for leaves).
        parent: consuming cluster, or ``None`` at a root.
        children: child clusters (composites only; disjoint union equals
            the cluster contents).
        boundary: boundary vertices -- () nullary, (u,) unary, (u, w) binary.
        path_w / path_eid: heaviest edge on the cluster path (binary and
            edge clusters only).
    """

    __slots__ = (
        "kind",
        "rep",
        "eid",
        "level",
        "parent",
        "children",
        "boundary",
        "path_w",
        "path_eid",
        "path_sum",
        "path_count",
        "sub_verts",
        "sub_edges",
        "sub_sum",
        "maxd",
        "diam",
    )

    def __init__(
        self,
        kind: ClusterKind,
        rep: int = -1,
        eid: int = -1,
    ) -> None:
        self.kind = kind
        self.rep = rep
        self.eid = eid
        self.level = 0
        self.parent: Optional["ClusterNode"] = None
        self.children: list["ClusterNode"] = []
        self.boundary: tuple[int, ...] = ()
        # Cluster-path augmentation (binary/edge clusters): the heaviest
        # (weight, eid) on the boundary-to-boundary path, plus its total
        # real weight and real-edge count (virtual ternarization edges
        # contribute nothing to sums/counts).
        self.path_w: float = float("-inf")
        self.path_eid: int = -1
        self.path_sum: float = 0.0
        self.path_count: int = 0
        # Subtree (whole-cluster) augmentation: contained vertex leaves,
        # real edges, and total real weight.
        self.sub_verts: int = 0
        self.sub_edges: int = 0
        self.sub_sum: float = 0.0
        # Distance augmentation for diameter/eccentricity queries: per
        # boundary vertex (aligned with `boundary`), the max real-weight
        # distance to any vertex inside the cluster together with the
        # vertex achieving it; and the in-cluster diameter with its
        # endpoint pair.  -inf / -1 where the cluster contains no vertex
        # (edge leaves).
        self.maxd: tuple[tuple[float, int], ...] = ()
        self.diam: tuple[float, int, int] = (float("-inf"), -1, -1)

    # -- Section 3 primitives (all O(1)) -----------------------------------

    def boundary_vertices(self) -> tuple[int, ...]:
        """The ``Boundary`` primitive of Section 3."""
        return self.boundary

    def representative(self) -> int:
        """The ``Representative`` primitive of Section 3."""
        return self.rep

    def weight(self) -> tuple[float, int]:
        """Heaviest (weight, eid) on the path between the two boundaries."""
        if self.kind not in (ClusterKind.BINARY, ClusterKind.EDGE):
            raise ValueError(f"weight() is defined on binary clusters, not {self.kind}")
        return (self.path_w, self.path_eid)

    def is_composite(self) -> bool:
        """True for rake/compress/finalize clusters (non-leaves)."""
        return self.kind in (ClusterKind.UNARY, ClusterKind.BINARY, ClusterKind.NULLARY)

    def is_binary(self) -> bool:
        """True for clusters with two boundary vertices (a cluster path)."""
        return self.kind in (ClusterKind.BINARY, ClusterKind.EDGE)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f"e{self.eid}" if self.kind is ClusterKind.EDGE else f"v{self.rep}"
        return (
            f"<{self.kind.value} {tag} lvl={self.level} bnd={self.boundary}"
            f" pm=({self.path_w}, {self.path_eid})>"
        )
