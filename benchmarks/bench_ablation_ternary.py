"""ABL-ternary -- ablation: ternarization under high-degree workloads.

The paper handles arbitrary-degree trees by converting to bounded degree
"dynamically at no extra cost asymptotically" (Section 2.2).  This harness
compares per-edge update work on degree-extreme topologies (star: one
vertex of degree n-1; path: all degree <= 2; random recursive tree) and
checks the contraction's level structure stays O(lg n) with O(n) total
storage on all of them -- i.e. ternarization costs a constant factor only.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.analysis import format_table
from repro.graphgen import path_edges, random_tree_edges, star_edges
from repro.runtime import CostModel, measure
from repro.trees import DynamicForest

N = 2048

SHAPES = {
    "path": lambda rng: path_edges(N, rng),
    "star": lambda rng: star_edges(N, rng),
    "random-tree": lambda rng: random_tree_edges(N, rng),
}


def test_ternarization_overhead(record_table, record_json, benchmark):
    costs: list[CostModel] = []

    def sweep():
        costs.clear()
        rows = []
        for name, gen in SHAPES.items():
            rng = random.Random(41)
            cost = CostModel()
            f = DynamicForest(N, seed=41, cost=cost)
            edges = [(u, v, w, i) for i, (u, v, w) in enumerate(gen(rng))]
            with measure(cost) as build:
                f.batch_link(edges)
            # Churn: cut and relink 64 random edges one at a time (the
            # worst granularity for a high-degree vertex).
            churn_edges = rng.sample(edges, 64)
            with measure(cost) as churn:
                for u, v, w, eid in churn_edges:
                    f.batch_cut([eid])
                    f.batch_link([(u, v, w, eid)])
            costs.append(cost)
            stats = f.rc.level_statistics()
            copies = f.ternary.num_copies
            rows.append(
                [
                    name,
                    build.work,
                    round(churn.work / (2 * 64), 1),
                    len(stats),
                    sum(stats),
                    copies,
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_table(
        [
            "topology",
            "build work",
            "churn work/op",
            "levels",
            "leveled storage",
            "internal vertices",
        ],
        rows,
        title=f"Ablation: ternarization under degree extremes, n = {N}",
    )
    record_table("ablation_ternary", table)
    record_json(
        "ablation_ternary",
        costs,
        params={"n": N, "shapes": sorted(SHAPES), "churn_ops": 64},
    )

    by_name = {r[0]: r for r in rows}
    lg = math.log2(N)
    for name, row in by_name.items():
        assert row[3] <= 8 * lg, f"{name}: levels not O(lg n)"
        # Pure paths contract at the Miller-Reif chain rate (1/8 compress
        # probability per round), giving ~5 lg n levels and the largest
        # leveled-storage constant of any topology.
        assert row[4] <= 24 * N, f"{name}: leveled storage not O(n)"
        assert row[5] <= 3 * N, f"{name}: copies not O(n)"
    # Degree extremes stay within a constant factor of each other: the
    # ternarized star is no more expensive than the path worst case.
    assert by_name["star"][1] < 6 * by_name["path"][1]
    assert by_name["star"][2] < 6 * by_name["path"][2]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_wallclock_build(benchmark, shape):
    gen = SHAPES[shape]

    def build():
        rng = random.Random(7)
        f = DynamicForest(N, seed=7)
        f.batch_link([(u, v, w, i) for i, (u, v, w) in enumerate(gen(rng))])
        return f

    benchmark.pedantic(build, rounds=1, iterations=1)
