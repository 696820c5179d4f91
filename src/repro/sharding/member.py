"""The shard-local window structure: one shard group's replica state.

Each shard group replicates a :class:`ShardMember` -- a thin adapter
over one of the Section 5 sliding-window connectivity structures that
makes it safe to drive from a *global* stream clock:

- insert rows carry their global stream position explicitly as
  ``(u, v, tau)``; the adapter forwards the ``tau`` subsequence to the
  inner structure's ``batch_insert(edges, taus=...)`` (the "structures
  sharing a parent clock" seam of :mod:`repro.sliding_window`), so every
  shard agrees byte-for-byte on edge weights (``-tau``) and ids
  (``tau``) with the unsharded oracle;
- expire ops carry the *effective* global window advance (the delta
  after the coordinator's clock capped it at the global arrival tip).
  The adapter accumulates them into the absolute global window start and
  applies ``expire_until`` -- accumulation keeps the op meaningful under
  the WAL's adjacent-expire coalescing (summed deltas are still the
  right target), and re-applying the target after every insert re-caps a
  shard whose local arrival tip had lagged the global window start.

Because the adapter speaks the ordinary ``batch_insert`` /
``batch_expire`` structure protocol, the *entire* durability and
replication stack -- :class:`~repro.service.service.StreamService` WAL
rounds, snapshots, :class:`~repro.replication.follower.Follower` tailing,
epoch fencing, promotion -- serves a shard group completely unchanged.

Reads exposed here are **shard-local**: ``batch_is_connected`` answers
connectivity *within this shard's subgraph* (sound as a global fast
path: a shard-local path is a global path), and ``shard_forest`` returns
the shard's maintained MSF edge set -- the contraction input the
:class:`~repro.sharding.boundary.BoundaryCoordinator` composes global
answers from.  Deliberately *not* exposed: ``num_components`` and
``window_size``, whose shard-local values are not global answers; the
:class:`~repro.sharding.sharded.ShardedService` answers those at the
coordinator instead.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.sliding_window.connectivity import SWConnectivity, SWConnectivityEager


class ShardMember:
    """One shard group's replicated structure (see module docstring).

    Args:
        inner: the shard-local window structure -- a
            :class:`~repro.sliding_window.connectivity.SWConnectivity`
            (lazy, Theorem 5.1) or
            :class:`~repro.sliding_window.connectivity.SWConnectivityEager`
            (eager, Theorem 5.2) spanning the full ``0..n-1`` vertex
            space (vertices homed elsewhere simply stay isolated here).
    """

    def __init__(self, inner: Any) -> None:
        self.inner = inner
        self.cost = inner.cost
        self._tw_target = 0  # absolute global window start, accumulated

    # -- write protocol (WAL round replay drives these) -----------------

    def batch_insert(self, rows: Sequence[Sequence]) -> None:
        """Apply one round's ``(u, v, tau)`` rows at their global taus."""
        if not rows:
            return
        edges = [(int(r[0]), int(r[1])) for r in rows]
        taus = [int(r[2]) for r in rows]
        self.inner.batch_insert(edges, taus=taus)
        if self._tw_target:
            # The local arrival tip may have lagged the global window
            # start when the last expire arrived (expire_until caps at
            # the local tip); now that the tip advanced, re-cap.
            self.inner.expire_until(self._tw_target)

    def batch_expire(self, delta: int) -> None:
        """Advance the global window start by an effective ``delta``."""
        self._tw_target += int(delta)
        self.inner.expire_until(self._tw_target)

    # -- shard-local reads ----------------------------------------------

    def is_connected(self, u: int, v: int) -> bool:
        """Connectivity within this shard's subgraph (global fast path)."""
        return self.inner.is_connected(u, v)

    def batch_is_connected(
        self, pairs: Sequence[tuple[int, int]]
    ) -> list[bool]:
        """Shard-local connectivity off one shared batch-query sweep."""
        return self.inner.batch_is_connected(pairs)

    def heaviest_edge(self, u: int, v: int):
        """Shard-local heaviest ``(weight, eid)`` on the tree path."""
        return self.inner.heaviest_edge(u, v)

    def batch_heaviest_edges(self, pairs: Sequence[tuple[int, int]]):
        """Shard-local path maxima off one shared batch-query sweep."""
        return self.inner.batch_heaviest_edges(pairs)

    def shard_forest(self) -> list[tuple[int, int, float, int]]:
        """The shard's maintained MSF edges as sorted ``(u, v, w, eid)``.

        This is the contraction input: the union of every shard's forest
        contains the global MSF (an edge outside its shard-local MSF is
        the heaviest on a cycle there, hence on the same cycle globally),
        so the coordinator recovers exact global answers from these
        O(window)-size summaries alone.  Sorted by ``eid`` so every
        replica serializes the same bytes.
        """
        return sorted(self.inner._msf.msf_edges(), key=lambda e: e[3])

    @property
    def window_start(self) -> int:
        """The accumulated global window start this shard has applied."""
        return self._tw_target


def make_member_factory(
    n: int,
    seed: int = 0x5EED,
    eager: bool = True,
) -> Callable[[], ShardMember]:
    """A deterministic :class:`ShardMember` factory for one shard group.

    The primary and every follower of a shard call the same factory, so
    it must be pure; ``eager=False`` serves the lazy Theorem 5.1
    structure (O(1) expiry, no component counting) instead.
    """
    cls = SWConnectivityEager if eager else SWConnectivity

    def factory() -> ShardMember:
        return ShardMember(cls(n, seed=seed))

    return factory
