"""T1-bip -- Table 1 row "Bipartiteness".

Claims: incremental O(l alpha(n)) work; sliding window O(l lg(1 + n/l))
work; ``isBipartite`` in O(1).

Harness: a stream of bipartition-respecting edges with periodic odd-cycle
violations; measures per-edge work in both models and checks that the
verdict flips exactly as violations enter and leave the window (the
behaviour the double-cover reduction must deliver).
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.analysis import format_table
from repro.connectivity import IncrementalBipartiteness
from repro.graphgen import bipartite_stream
from repro.runtime import CostModel, measure
from repro.sliding_window import SWBipartiteness

N = 512
ELLS = [4, 16, 64, 256]


def _measure(model: str, ell: int, seed: int) -> float:
    rng = random.Random(seed)
    cost = CostModel()
    if model == "window":
        struct = SWBipartiteness(N, seed=seed, cost=cost)
    else:
        struct = IncrementalBipartiteness(N, seed=seed, cost=cost)
    stream = bipartite_stream(
        N, rounds=5, batch_size=ell, window=4 * ell, rng=rng, violation_every=3
    )
    inserted = 0
    work = 0
    for b in stream:
        with measure(cost) as c:
            struct.batch_insert(list(b.edges))
            if model == "window" and b.expire:
                struct.batch_expire(b.expire)
            struct.is_bipartite()
        inserted += len(b.edges)
        work += c.work
    return work / max(inserted, 1), cost


def test_table1_row_bipartiteness(record_table, record_json, benchmark):
    costs: list[CostModel] = []

    def sweep():
        costs.clear()
        out = []
        for ell in ELLS:
            inc, inc_cost = _measure("incremental", ell, 17)
            sw, sw_cost = _measure("window", ell, 17)
            costs.extend([inc_cost, sw_cost])
            out.append((ell, inc, sw))
        return out

    data = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [[ell, f"{inc:.0f}", f"{sw:.0f}"] for ell, inc, sw in data]
    table = format_table(
        ["l", "incr work/edge", "window work/edge"],
        rows,
        title=f"Table 1 'Bipartiteness': per-edge work, n = {N}",
    )
    record_table("table1_bipartiteness", table)
    record_json(
        "table1_bipartiteness",
        costs,
        params={"n": N, "ells": ELLS, "rounds": 5, "seed": 17},
    )
    for _, inc, sw in data:
        assert inc < sw  # alpha(n) vs lg factor
        assert sw < N


def test_verdict_tracks_window(record_table, benchmark):
    rng = random.Random(21)
    sw = SWBipartiteness(64, seed=21)
    stream = bipartite_stream(64, rounds=24, batch_size=6, window=30, rng=rng, violation_every=4)

    def drive():
        log = []
        window: list[tuple[int, int]] = []
        for b in stream:
            sw.batch_insert(list(b.edges))
            window.extend(b.edges)
            if b.expire:
                sw.batch_expire(b.expire)
                del window[: b.expire]
            g = nx.Graph(window)
            g.add_nodes_from(range(64))
            expect = nx.is_bipartite(g)
            got = sw.is_bipartite()
            assert got == expect
            log.append([len(window), "yes" if got else "NO"])
        return log

    log = benchmark.pedantic(drive, rounds=1, iterations=1)
    flips = sum(1 for a, b in zip(log, log[1:]) if a[1] != b[1])
    record_table(
        "table1_bipartiteness_trace",
        format_table(
            ["window size", "bipartite?"],
            log,
            title=f"Bipartiteness verdict over the stream ({flips} flips as "
            "violations enter/leave the window)",
        ),
    )
    assert flips >= 2  # verdict actually responds to the window


@pytest.mark.parametrize("ell", [16, 256])
def test_wallclock_round(benchmark, ell):
    rng = random.Random(2)
    sw = SWBipartiteness(N, seed=2)

    def setup():
        batch = []
        for _ in range(ell):
            u = rng.randrange(0, N, 2)
            v = rng.randrange(1, N, 2)
            batch.append((u, v))
        return (batch,), {}

    benchmark.pedantic(lambda b: sw.batch_insert(b), setup=setup, rounds=3)
