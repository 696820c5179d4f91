"""Shared test utilities: random graph construction, networkx oracles,
and the ``RCForest`` reference model swapped into a ``DynamicForest``."""

from __future__ import annotations

import random

import networkx as nx
import numpy as np

from repro.msf.graph import EdgeArray
from repro.trees import DynamicForest, RCArrayForest, RCForest


def with_reference_rc(forest: DynamicForest) -> DynamicForest:
    """Swap the ``RCForest`` reference model in as ``forest.rc``.

    Must run before the first update.  The reference is built with a
    disabled cost model and only then handed the forest's model: the
    construction the forest already charged (``RCArrayForest`` on the
    same vertices and seed) is charge-identical to the reference's own,
    so the swapped forest's cost model ends up charged exactly like an
    untouched one.  Returns ``forest`` for chaining.
    """
    rc = forest.rc
    assert forest.num_edges == 0 and rc.num_vertices == forest.n
    ref = RCForest(
        vertices=range(forest.n),
        seed=rc.seed,
        compress_rule=rc.compress_rule,
        augment=rc.augment,
    )
    ref.cost = rc.cost
    forest.rc = ref
    return forest


def with_augment(forest: DynamicForest, augment: str) -> DynamicForest:
    """Rebuild ``forest.rc`` under another augmentation profile.

    Lets a test run Algorithm 2 (whose ``BatchIncrementalMSF`` always
    builds ``msf``) on a ``full`` forest.  Must run before the first
    update; like :func:`with_reference_rc` the replacement is built
    uncharged and then handed the forest's cost model (an empty forest's
    build charges the same under both profiles).  Returns ``forest``.
    """
    rc = forest.rc
    assert forest.num_edges == 0 and rc.num_vertices == forest.n
    other = RCArrayForest(
        vertices=range(forest.n),
        seed=rc.seed,
        compress_rule=rc.compress_rule,
        augment=augment,
    )
    other.cost = rc.cost
    forest.rc = other
    return forest


def msf_fields(snapshot: dict) -> dict:
    """A ``snapshot()`` restricted to the ``msf`` profile's fields: each
    cluster row keeps kind, level, boundary, path max and children."""
    return {
        "levels": snapshot["levels"],
        "clusters": {
            v: row[:4] + row[-1:] for v, row in snapshot["clusters"].items()
        },
    }


def random_edge_array(
    n: int,
    m: int,
    rng: random.Random,
    weight_range: tuple[float, float] = (0.0, 1.0),
    allow_parallel: bool = True,
) -> EdgeArray:
    """A random multigraph edge list with distinct eids 0..m-1."""
    lo, hi = weight_range
    rows = []
    seen = set()
    attempts = 0
    while len(rows) < m and attempts < 50 * m + 100:
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if not allow_parallel and key in seen:
            continue
        seen.add(key)
        rows.append((u, v, rng.uniform(lo, hi), len(rows)))
    return EdgeArray.from_tuples(n, rows)


def nx_msf_weight(edges: EdgeArray) -> float:
    """Total MSF weight computed by networkx (oracle)."""
    g = nx.Graph()
    g.add_nodes_from(range(edges.n))
    for u, v, w, eid in edges.iter_tuples():
        if g.has_edge(u, v):
            if (w, eid) < (g[u][v]["weight"], g[u][v]["eid"]):
                g[u][v]["weight"] = w
                g[u][v]["eid"] = eid
        else:
            g.add_edge(u, v, weight=w, eid=eid)
    forest = nx.minimum_spanning_edges(g, algorithm="kruskal", data=True)
    return sum(d["weight"] for _, _, d in forest)


def msf_weight_of(edges: EdgeArray, positions: np.ndarray) -> float:
    return float(edges.w[positions].sum())


def is_forest(edges: EdgeArray, positions: np.ndarray) -> bool:
    g = nx.MultiGraph()
    g.add_nodes_from(range(edges.n))
    for p in positions:
        g.add_edge(int(edges.u[p]), int(edges.v[p]))
    return nx.number_of_edges(g) == edges.n - nx.number_connected_components(g)


def spans_same_components(edges: EdgeArray, positions: np.ndarray) -> bool:
    """The selected forest connects exactly the components of the graph."""
    g_all = nx.Graph()
    g_all.add_nodes_from(range(edges.n))
    g_all.add_edges_from(zip(edges.u.tolist(), edges.v.tolist()))
    g_sel = nx.Graph()
    g_sel.add_nodes_from(range(edges.n))
    for p in positions:
        g_sel.add_edge(int(edges.u[p]), int(edges.v[p]))
    comps_all = {frozenset(c) for c in nx.connected_components(g_all)}
    comps_sel = {frozenset(c) for c in nx.connected_components(g_sel)}
    return comps_all == comps_sel
