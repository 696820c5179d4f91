"""ABL-compress -- ablation: the contraction's compress rule.

The paper's conclusion notes its span is "bottlenecked by the span of the
RC tree algorithms" and that a faster contraction "would improve the span
of the results in this paper.  We believe that such an algorithm is
possible."  This harness explores one step in that direction: next to the
classic Miller-Reif rule (compress iff H(v), T(u), T(w) -- probability 1/8
on a chain), an *ordered* rule only requires tails from larger-id degree-2
neighbours.  Adjacent compressions remain impossible (for adjacent eligible
v < x, v needs H(x) = 0 while x needs H(x) = 1), but chain vertices
compress ~2.25x more often, roughly halving contraction depth, leveled
storage, and update work -- with bit-identical MSF semantics.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import format_table
from repro.core import BatchIncrementalMSF
from repro.graphgen import gnm_edges, path_edges
from repro.runtime import CostModel, measure
from repro.trees import DynamicForest

N = 4096
RULES = ("mr", "ordered")


def test_compress_rule_ablation(record_table, record_json, benchmark):
    costs: list[CostModel] = []

    def sweep():
        costs.clear()
        rows = []
        for rule in RULES:
            rng = random.Random(3)
            cost = CostModel()
            f = DynamicForest(N, seed=3, cost=cost, compress_rule=rule)
            edges = [
                (u, v, w, i) for i, (u, v, w) in enumerate(path_edges(N, rng))
            ]
            with measure(cost) as build:
                f.batch_link(edges)
            churn = rng.sample(edges, 48)
            with measure(cost) as upd:
                for u, v, w, eid in churn:
                    f.batch_cut([eid])
                    f.batch_link([(u, v, w, eid)])
            costs.append(cost)
            stats = f.rc.level_statistics()
            with measure(cost) as q:
                for _ in range(32):
                    f.path_max(rng.randrange(N), rng.randrange(N))
            rows.append(
                [
                    rule,
                    len(stats),
                    sum(stats),
                    build.work,
                    round(upd.work / 96, 1),
                    round(q.work / 32, 1),
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_table(
        [
            "compress rule",
            "levels",
            "leveled storage",
            "build work",
            "update work/op",
            "query work",
        ],
        rows,
        title=f"Ablation: compress rule on a path, n = {N} (conclusion's "
        "'faster RC tree' direction)",
    )
    record_table("ablation_compress_rule", table)
    record_json(
        "ablation_compress_rule",
        costs,
        params={"n": N, "rules": list(RULES), "churn_ops": 48, "queries": 32},
    )
    mr, ordered = rows
    assert ordered[1] < mr[1], "ordered rule must shorten the contraction"
    assert ordered[2] < mr[2], "ordered rule must shrink leveled storage"
    assert ordered[4] < mr[4], "ordered rule must cheapen updates"


def test_rules_agree_on_msf(record_table, benchmark):
    def run():
        rng = random.Random(5)
        edges = gnm_edges(512, 2048, rng)
        outputs = []
        for rule in RULES:
            m = BatchIncrementalMSF(512, seed=5, compress_rule=rule)
            for i in range(0, len(edges), 256):
                m.batch_insert(edges[i : i + 256])
            outputs.append(sorted(e[3] for e in m.msf_edges()))
        return outputs

    a, b = benchmark.pedantic(run, rounds=1, iterations=1)
    assert a == b, "the compress rule must never change the MSF"
    record_table(
        "ablation_compress_rule_agreement",
        f"MSF identical under both compress rules ({len(a)} edges) -- the "
        "rule affects only contraction shape, never semantics",
    )


@pytest.mark.parametrize("rule", RULES)
def test_wallclock_path_build(benchmark, rule):
    def build():
        rng = random.Random(7)
        f = DynamicForest(N, seed=7, compress_rule=rule)
        f.batch_link(
            [(u, v, w, i) for i, (u, v, w) in enumerate(path_edges(N, rng))]
        )

    benchmark.pedantic(build, rounds=1, iterations=1)
