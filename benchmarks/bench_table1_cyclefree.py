"""T1-cycle -- Table 1 row "Cycle-freeness".

Claims: incremental O(l alpha(n)) work; sliding window O(l lg(1 + n/l))
work; ``hasCycle`` in O(1).

Harness: a mostly-tree stream with periodic cycle-closing pulses; measures
per-edge work in both models and checks the verdict follows cycles
entering and expiring out of the window.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.analysis import format_table
from repro.connectivity import IncrementalCycleFree
from repro.graphgen import cycle_pulse_stream, sliding_window_stream
from repro.runtime import CostModel, measure
from repro.sliding_window import SWCycleFree

N = 512
ELLS = [4, 16, 64, 256]


def _measure(model: str, ell: int, seed: int) -> float:
    rng = random.Random(seed)
    cost = CostModel()
    if model == "window":
        struct = SWCycleFree(N, seed=seed, cost=cost)
    else:
        struct = IncrementalCycleFree(N, seed=seed, cost=cost)
    stream = sliding_window_stream(N, rounds=5, batch_size=ell, window=4 * ell, rng=rng)
    inserted = 0
    work = 0
    for b in stream:
        with measure(cost) as c:
            struct.batch_insert(list(b.edges))
            if model == "window" and b.expire:
                struct.batch_expire(b.expire)
            struct.has_cycle()
        inserted += len(b.edges)
        work += c.work
    return work / max(inserted, 1), cost


def test_table1_row_cyclefree(record_table, record_json, benchmark):
    costs: list[CostModel] = []

    def sweep():
        costs.clear()
        out = []
        for ell in ELLS:
            inc, inc_cost = _measure("incremental", ell, 19)
            sw, sw_cost = _measure("window", ell, 19)
            costs.extend([inc_cost, sw_cost])
            out.append((ell, inc, sw))
        return out

    data = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [[ell, f"{inc:.0f}", f"{sw:.0f}"] for ell, inc, sw in data]
    table = format_table(
        ["l", "incr work/edge", "window work/edge"],
        rows,
        title=f"Table 1 'Cycle-freeness': per-edge work, n = {N}",
    )
    record_table("table1_cyclefree", table)
    record_json(
        "table1_cyclefree",
        costs,
        params={"n": N, "ells": ELLS, "rounds": 5, "seed": 19},
    )
    for _, inc, sw in data:
        assert inc < sw
        assert sw < N


def test_verdict_tracks_window(record_table, benchmark):
    rng = random.Random(23)
    n = 64
    sw = SWCycleFree(n, seed=23)
    stream = cycle_pulse_stream(n, rounds=20, window=16, rng=rng, pulse_every=4)

    def drive():
        log = []
        window: list[tuple[int, int]] = []
        for b in stream:
            sw.batch_insert(list(b.edges))
            window.extend(b.edges)
            if b.expire:
                sw.batch_expire(b.expire)
                del window[: b.expire]
            g = nx.MultiGraph(window)
            g.add_nodes_from(range(n))
            expect = g.number_of_edges() > n - nx.number_connected_components(g)
            got = sw.has_cycle()
            assert got == expect
            log.append([len(window), "CYCLE" if got else "acyclic"])
        return log

    log = benchmark.pedantic(drive, rounds=1, iterations=1)
    states = {s for _, s in log}
    record_table(
        "table1_cyclefree_trace",
        format_table(
            ["window size", "state"],
            log,
            title="Cycle-freeness verdict over a pulsed stream",
        ),
    )
    assert states == {"CYCLE", "acyclic"}  # both states exercised


@pytest.mark.parametrize("ell", [16, 256])
def test_wallclock_round(benchmark, ell):
    rng = random.Random(3)
    sw = SWCycleFree(N, seed=3)

    def setup():
        batch = []
        for _ in range(ell):
            u, v = rng.randrange(N), rng.randrange(N)
            if u != v:
                batch.append((u, v))
        return (batch,), {}

    benchmark.pedantic(lambda b: sw.batch_insert(b), setup=setup, rounds=3)
