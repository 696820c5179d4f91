"""ABL-queries -- the RC-tree query library: everything is O(lg n).

Section 2.2 cites RC trees answering "a multitude of different kinds of
queries ... all in O(lg n) time" [3].  This harness measures cost-model
work per query for connectivity, heaviest-edge, path aggregates, component
aggregates and eccentricity across an n sweep: per-query work must grow
logarithmically (far sublinearly) in n.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import format_table
from repro.graphgen import random_tree_edges
from repro.runtime import CostModel, measure
from repro.trees import DynamicForest

NS = [256, 1024, 4096]


def _forest(n: int, seed: int = 7) -> DynamicForest:
    rng = random.Random(seed)
    cost = CostModel()
    f = DynamicForest(n, seed=seed, cost=cost, augment="full")
    f.batch_link(
        [(u, v, w, i) for i, (u, v, w) in enumerate(random_tree_edges(n, rng))]
    )
    return f


QUERIES = {
    "connected": lambda f, rng, n: f.connected(rng.randrange(n), rng.randrange(n)),
    "path_max": lambda f, rng, n: f.path_max(rng.randrange(n), rng.randrange(n)),
    "path_aggregate": lambda f, rng, n: f.path_aggregate(
        rng.randrange(n), rng.randrange(n)
    ),
    "component_size": lambda f, rng, n: f.component_size(rng.randrange(n)),
    "diameter": lambda f, rng, n: f.component_diameter(rng.randrange(n)),
    "eccentricity": lambda f, rng, n: f.eccentricity(rng.randrange(n)),
}


def test_query_work_logarithmic(record_table, record_json, benchmark):
    costs: list[CostModel] = []

    def sweep():
        costs.clear()
        rows = []
        for n in NS:
            f = _forest(n)
            costs.append(f.cost)
            rng = random.Random(n)
            row = [n]
            for name, q in QUERIES.items():
                with measure(f.cost) as c:
                    for _ in range(32):
                        q(f, rng, n)
                row.append(round(c.work / 32, 1))
            rows.append(row)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_table(
        ["n", *QUERIES],
        rows,
        title="RC-tree query work per call (each column must grow ~lg n)",
    )
    record_table("queries_work", table)
    record_json(
        "queries_work",
        costs,
        params={"ns": NS, "queries": sorted(QUERIES), "reps": 32},
    )
    # 16x growth in n must cost well under 4x per query (lg 4096 / lg 256 = 1.5).
    for col in range(1, len(QUERIES) + 1):
        small, big = rows[0][col], rows[-1][col]
        assert big <= 4 * max(small, 1.0), (col, small, big)


@pytest.mark.parametrize("query", sorted(QUERIES))
def test_wallclock_query(benchmark, query):
    n = 4096
    f = _forest(n)
    rng = random.Random(1)
    q = QUERIES[query]
    benchmark(lambda: q(f, rng, n))
