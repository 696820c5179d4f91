"""F1 -- Figure 1: a weighted tree with marked vertices and its compressed
path tree.

Regenerates the worked example: builds the reconstruction of the figure's
tree (see tests/test_paper_examples.py for the layout), computes the CPT of
the marked set {A..E}, renders both, and asserts the published edge weights
{6, 10, 9, 7, 12, 3} with exactly two Steiner branch vertices.
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.paperdata import (
    FIG1_EDGES,
    FIG1_EXPECTED_CPT,
    FIG1_MARKED,
    FIG1_N,
    FIG1_NAMES,
)
from repro.runtime import CostModel
from repro.trees import DynamicForest

NAMES = FIG1_NAMES
MARKED = FIG1_MARKED


def _build() -> DynamicForest:
    f = DynamicForest(FIG1_N, seed=2020, cost=CostModel())
    f.batch_link(FIG1_EDGES)
    return f


def _label(v: int) -> str:
    return NAMES.get(v, f"v{v}")


def test_regenerate_figure1(record_table, record_json, benchmark):
    f = _build()
    cpt = benchmark.pedantic(
        lambda: f.compressed_path_tree(MARKED), rounds=3, iterations=1
    )
    got = {frozenset((a, b)): w for a, b, w, _ in cpt.edges}
    assert got == FIG1_EXPECTED_CPT

    tree_rows = [
        [_label(u), _label(v), w] for u, v, w, _ in FIG1_EDGES
    ]
    cpt_rows = [[_label(a), _label(b), w] for a, b, w, _ in sorted(cpt.edges)]
    out = (
        format_table(["u", "v", "w"], tree_rows, title="Figure 1a: input tree (marked: A-E)")
        + "\n\n"
        + format_table(
            ["u", "v", "heaviest w"],
            cpt_rows,
            title="Figure 1b: compressed path tree (matches the paper: weights 6,10,9,7,12,3)",
        )
    )
    record_table("fig1_cpt_example", out)
    record_json(
        "fig1_cpt_example",
        f.cost,
        params={"n": FIG1_N, "marked": sorted(MARKED)},
        extra={"cpt_edges": len(FIG1_EXPECTED_CPT)},
    )


def test_wallclock_pairwise_query(benchmark):
    f = _build()
    assert f.path_max(0, 3) is not None
    benchmark(lambda: f.path_max(0, 3))
