"""T1-msf -- Table 1 row "MSF".

Claims: incremental batch MSF O(l lg(1 + n/l)) work (Theorem 1.1);
sliding-window (1+eps)-approximate MSF O(eps^-1 l lg n lg(1 + n/l)) work
(Theorem 5.4); versus the previous fully-dynamic parallel bound
O(l n lg lg lg n lg(m/n)) [22], which is Omega(n) per batch.

Harness: per-edge work of the exact incremental structure and of the
approximate sliding-window structure for eps in {0.1, 0.3}, across an l
sweep; asserts the eps^-1 lg n factor separates them and that neither
scales with n per edge.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import BOUND_MODELS, format_table
from repro.core import BatchIncrementalMSF
from repro.graphgen import weighted_stream
from repro.runtime import CostModel, measure
from repro.sliding_window import SWApproxMSFWeight

N = 1024
ELLS = [8, 32, 128, 512]
MAX_W = 64.0


def _measure_incremental(ell: int, seed: int) -> tuple[float, CostModel]:
    rng = random.Random(seed)
    cost = CostModel()
    m = BatchIncrementalMSF(N, seed=seed, cost=cost)
    inserted = 0
    work = 0
    for _ in range(5):
        batch = []
        for _ in range(ell):
            u, v = rng.randrange(N), rng.randrange(N)
            if u != v:
                batch.append((u, v, rng.uniform(1, MAX_W)))
        with measure(cost) as c:
            m.batch_insert(batch)
        inserted += len(batch)
        work += c.work
    return work / max(inserted, 1), cost


def _measure_sw_approx(ell: int, eps: float, seed: int) -> tuple[float, CostModel]:
    rng = random.Random(seed)
    cost = CostModel()
    sw = SWApproxMSFWeight(N, eps=eps, max_weight=MAX_W, seed=seed, cost=cost)
    stream = weighted_stream(
        N, rounds=5, batch_size=ell, window=4 * ell, rng=rng, weight_range=(1, MAX_W)
    )
    inserted = 0
    work = 0
    for b in stream:
        with measure(cost) as c:
            sw.batch_insert(list(b.edges))
            if b.expire:
                sw.batch_expire(b.expire)
            sw.weight()
        inserted += len(b.edges)
        work += c.work
    return work / max(inserted, 1), cost


def test_table1_row_msf(record_table, record_json, benchmark):
    costs: list[CostModel] = []

    def sweep():
        costs.clear()
        rows = []
        for ell in ELLS:
            inc, inc_cost = _measure_incremental(ell, seed=11)
            a01, a01_cost = _measure_sw_approx(ell, 0.1, seed=11)
            a03, a03_cost = _measure_sw_approx(ell, 0.3, seed=11)
            costs.extend([inc_cost, a01_cost, a03_cost])
            rows.append((ell, inc, a03, a01))
        return rows

    data = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = []
    for ell, inc, a03, a01 in data:
        bound = BOUND_MODELS["l*lg(1+n/l)"](ell, N) / ell
        rows.append(
            [
                ell,
                f"{inc:.0f}",
                f"{inc / bound:.1f}",
                f"{a03:.0f}",
                f"{a01:.0f}",
                f"{a01 / a03:.2f}",
            ]
        )
    table = format_table(
        [
            "l",
            "exact work/edge",
            "/ lg(1+n/l)",
            "approx eps=0.3",
            "approx eps=0.1",
            "ratio 0.1/0.3",
        ],
        rows,
        title=f"Table 1 'MSF': per-edge work, n = {N}, W = {MAX_W}",
    )
    record_table("table1_msf", table)
    record_json(
        "table1_msf",
        costs,
        params={"n": N, "ells": ELLS, "epsilons": [0.1, 0.3], "max_weight": MAX_W},
    )
    # Shape: the eps^-1 lg W level count separates approximate from exact;
    # levels(0.1)/levels(0.3) ~ 3, so expect roughly that work ratio.
    for ell, inc, a03, a01 in data:
        assert inc < a03 < a01
        assert 1.5 < a01 / a03 < 6.0
        assert a01 < N  # never Omega(n) per edge (the fully-dynamic cost)


def test_approximation_quality(record_table, benchmark):
    # Sanity companion: estimates really are within (1 + eps).
    rng = random.Random(5)

    def run_one(eps):
        sw = SWApproxMSFWeight(N, eps=eps, max_weight=MAX_W, seed=5)
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(N))
        batch = []
        for _ in range(2 * N):
            u, v = rng.randrange(N), rng.randrange(N)
            if u != v:
                w = rng.uniform(1, MAX_W)
                batch.append((u, v, w))
                if not g.has_edge(u, v) or g[u][v]["weight"] > w:
                    g.add_edge(u, v, weight=w)
        sw.batch_insert(batch)
        exact = sum(d["weight"] for _, _, d in nx.minimum_spanning_edges(g, data=True))
        est = sw.weight()
        assert exact <= est * (1 + 1e-9) <= (1 + eps) * exact * (1 + 1e-9)
        return [eps, f"{exact:.1f}", f"{est:.1f}", f"{est / exact:.4f}"]

    rows = benchmark.pedantic(
        lambda: [run_one(eps) for eps in (0.1, 0.3)], rounds=1, iterations=1
    )
    record_table(
        "table1_msf_quality",
        format_table(
            ["eps", "exact MSF weight", "estimate", "ratio"],
            rows,
            title="Theorem 5.4 approximation quality (must be within 1 + eps)",
        ),
    )


@pytest.mark.parametrize("ell", [32, 512])
def test_wallclock_exact_batch(benchmark, ell):
    rng = random.Random(7)
    m = BatchIncrementalMSF(N, seed=7)

    def setup():
        batch = []
        for _ in range(ell):
            u, v = rng.randrange(N), rng.randrange(N)
            if u != v:
                batch.append((u, v, rng.uniform(1, MAX_W)))
        return (batch,), {}

    benchmark.pedantic(lambda b: m.batch_insert(b), setup=setup, rounds=3)
