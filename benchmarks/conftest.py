"""Shared benchmark helpers.

Each benchmark regenerates one artifact of the paper (a Table 1 row, a
figure, or a theorem's scaling claim).  Work/span come from the simulated
PRAM cost model (see DESIGN.md substitution 1); pytest-benchmark adds
wall-clock as a secondary signal.  Every harness writes its paper-style
table to ``bench_results/<name>.txt`` so EXPERIMENTS.md can cite it, and
prints it (visible with ``pytest -s``) -- and, via ``record_json``, a
structured ``bench_results/<name>.json`` record (parameters, per-phase
costs, wall times, git revision; schema in ``docs/observability.md``)
that ``python -m repro.report --trace`` renders.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.obs.export import record_from_costs, write_record
from repro.obs.metrics import get_metrics

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench_results"


@pytest.fixture(scope="session")
def record_table():
    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(name: str, text: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n[saved to bench_results/{name}.txt]")

    return _record


@pytest.fixture(scope="session")
def record_json():
    """Write one structured benchmark record to ``bench_results/<name>.json``.

    ``costs`` is one :class:`~repro.runtime.cost.CostModel` or a sequence of
    them (one per sweep configuration); their phase trees are merged and
    their totals summed, so the record's top-level phase work sums exactly
    to the recorded total work.  ``params`` should carry the harness
    parameters (n, sweep values, seeds); ``extra`` any derived results
    worth keeping machine-readable (fit residuals, asserted properties).
    """
    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(name, costs, params=None, extra=None, wall_s=None):
        rec = record_from_costs(
            name,
            costs,
            params=dict(params or {}),
            wall_s=wall_s,
            metrics=get_metrics().as_dict(),
            extra=extra,
        )
        path = write_record(rec, RESULTS_DIR / f"{name}.json")
        print(f"[saved structured record to bench_results/{path.name}]")
        return rec

    return _record
