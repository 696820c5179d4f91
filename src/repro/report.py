"""Aggregate the benchmark harness output into one report.

``python -m repro.report`` collects every table in ``bench_results/`` (as
written by ``pytest benchmarks/ --benchmark-only``) into a single
``REPORT.md`` next to it -- the regenerable companion to EXPERIMENTS.md.
Benchmarks also emit machine-readable ``bench_results/*.json`` records
(see ``docs/observability.md``); the report summarises them, and
``python -m repro.report --trace <record.json>`` renders one record's
phase tree as an aligned table.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

# Render order: headline theorems, figures, Table 1 rows, ablations.
_SECTIONS = [
    ("Theorem 1.1 (batch-incremental MSF)", ["thm11_work_scaling", "thm11_span_scaling"]),
    ("Theorem 3.2 (compressed path trees)", ["thm32_cpt_scaling_path", "thm32_cpt_scaling_random-tree"]),
    ("Figure 1", ["fig1_cpt_example"]),
    ("Figure 2", ["fig2_rctree_example"]),
    (
        "Table 1",
        [
            "table1_connectivity",
            "table1_connectivity_query",
            "table1_connectivity_expire",
            "table1_bipartiteness",
            "table1_bipartiteness_trace",
            "table1_cyclefree",
            "table1_cyclefree_trace",
            "table1_msf",
            "table1_msf_quality",
            "table1_kcertificate",
            "table1_kcertificate_size",
            "table1_sparsifier_work",
            "table1_sparsifier_quality",
        ],
    ),
    ("Service layer", ["service_throughput", "replication_reads", "gateway", "shards"]),
    (
        "Ablations",
        [
            "ablation_batching",
            "ablation_msf_kernel_work",
            "ablation_ternary",
            "ablation_compress_rule",
            "ablation_compress_rule_agreement",
            "queries_work",
            "scale_end_to_end",
        ],
    ),
]


def _records_section(results_dir: pathlib.Path) -> list[str]:
    """A summary table of the structured JSON benchmark records."""
    from repro.analysis.tables import format_table
    from repro.obs.export import read_record

    paths = sorted(results_dir.glob("*.json"))
    if not paths:
        return []
    rows = []
    for path in paths:
        try:
            rec = read_record(path)
        except (ValueError, KeyError):
            continue  # not a benchmark record
        rows.append(
            [
                rec.name,
                rec.totals.get("work", ""),
                rec.totals.get("span", ""),
                f"{rec.totals.get('wall_s', 0.0):.3f}",
                len(rec.phases),
                rec.git_rev or "?",
            ]
        )
    if not rows:
        return []
    table = format_table(
        ["record", "work", "span", "wall_s", "phases", "rev"],
        rows,
        title="Structured records (render one with `python -m repro.report "
        "--trace bench_results/<name>.json`)",
    )
    return ["", "## Structured records", "", "```", table, "```"]


def build_report(results_dir: pathlib.Path) -> str:
    """Assemble the markdown report from the tables in ``results_dir``."""
    lines = [
        "# Benchmark report",
        "",
        "Regenerated from `bench_results/*.txt` by `python -m repro.report`;",
        "see EXPERIMENTS.md for the paper-claim-by-claim reading.",
    ]
    seen = set()
    for title, names in _SECTIONS:
        found = [n for n in names if (results_dir / f"{n}.txt").exists()]
        if not found:
            continue
        lines += ["", f"## {title}"]
        for name in found:
            seen.add(name)
            lines += ["", "```", (results_dir / f"{name}.txt").read_text().rstrip(), "```"]
    extras = sorted(
        p.stem for p in results_dir.glob("*.txt") if p.stem not in seen
    )
    if extras:
        lines += ["", "## Other results"]
        for name in extras:
            lines += ["", "```", (results_dir / f"{name}.txt").read_text().rstrip(), "```"]
    lines += _records_section(results_dir)
    return "\n".join(lines) + "\n"


def _compare_records(records) -> str:
    """A totals table comparing several records side by side.

    Rendered whenever ``--trace`` receives two or more records -- the
    intended use is comparing runs of the same benchmark, with
    wall-clock speedups computed against the *first* record given.
    """
    from repro.analysis.tables import format_table

    base_wall = records[0].totals.get("wall_s") or 0.0
    rows = []
    for rec in records:
        wall = rec.totals.get("wall_s") or 0.0
        speedup = f"{base_wall / wall:.2f}x" if base_wall and wall else "-"
        rows.append(
            [
                rec.name,
                rec.totals.get("work", ""),
                rec.totals.get("span", ""),
                f"{wall:.3f}",
                speedup,
            ]
        )
    return format_table(
        ["record", "work", "span", "wall_s", "speedup"],
        rows,
        title=f"Record comparison (wall-clock speedup vs {records[0].name})",
    )


def render_trace(paths: list[pathlib.Path]) -> int:
    """Print the phase-tree table of each benchmark record in ``paths``.

    With two or more records, also print a side-by-side totals comparison
    (work/span, wall-clock speedup vs the first record).
    """
    from repro.obs.export import read_record
    from repro.obs.trace import render_phase_table

    status = 0
    records = []
    for i, path in enumerate(paths):
        if not path.exists():
            print(f"no such record: {path}", file=sys.stderr)
            status = 1
            continue
        try:
            rec = read_record(path)
        except (ValueError, KeyError) as exc:
            print(f"{path} is not a benchmark record: {exc}", file=sys.stderr)
            status = 1
            continue
        if i:
            print()
        records.append(rec)
        print(render_phase_table(rec))
        if rec.params:
            params = ", ".join(f"{k}={v}" for k, v in sorted(rec.params.items()))
            print(f"params: {params}")
    if len(records) > 1:
        print()
        print(_compare_records(records))
    return status


def _diff_rows(a, b) -> list[list[str]]:
    """Per-phase and totals comparison rows for two benchmark records."""
    def phase_map(rec) -> dict:
        return {p["name"]: p for p in rec.phases}

    def fmt_ratio(x: float, y: float) -> str:
        return f"{y / x:.2f}x" if x else "-"

    pa, pb = phase_map(a), phase_map(b)
    rows = []
    for name in sorted(set(pa) | set(pb)):
        da, db = pa.get(name), pb.get(name)
        wa = da["work"] if da else 0
        wb = db["work"] if db else 0
        ta = da.get("wall_s", 0.0) if da else 0.0
        tb = db.get("wall_s", 0.0) if db else 0.0
        both = da is not None and db is not None
        rows.append(
            [
                name,
                wa if da else "-",
                wb if db else "-",
                fmt_ratio(wa, wb) if both else "-",
                f"{ta:.4f}" if da else "-",
                f"{tb:.4f}" if db else "-",
                fmt_ratio(ta, tb) if both else "-",
            ]
        )
    ta, tb = a.totals.get("wall_s", 0.0), b.totals.get("wall_s", 0.0)
    wa, wb = a.totals.get("work", 0), b.totals.get("work", 0)
    rows.append(
        [
            "(totals)",
            wa,
            wb,
            fmt_ratio(wa, wb),
            f"{ta:.4f}",
            f"{tb:.4f}",
            fmt_ratio(ta, tb),
        ]
    )
    return rows


def render_trace_diff(path_a: pathlib.Path, path_b: pathlib.Path) -> int:
    """Print a phase-by-phase comparison of two benchmark records.

    The regression-triage view: column ``B/A`` is the second record's
    work (and wall time) relative to the first, per top-level phase and
    in total, so a drift flagged by ``scripts/gate.py`` can be localised
    to the phase that moved.  A missing, truncated, or
    schema-mismatched record exits 1 with a one-line diagnosis (an
    inspection tool must name the damage, not traceback on it).
    """
    from repro.analysis.tables import format_table
    from repro.obs.export import read_record

    records = []
    for path in (path_a, path_b):
        if not path.exists():
            print(f"no such record: {path}", file=sys.stderr)
            return 1
        try:
            records.append(read_record(path))
        except (ValueError, KeyError) as exc:
            print(
                f"{path} is not a readable benchmark record: {exc}",
                file=sys.stderr,
            )
            return 1
    a, b = records
    print(
        format_table(
            ["phase", "work A", "work B", "B/A", "wall A", "wall B", "B/A"],
            _diff_rows(a, b),
            title=f"Trace diff: A={a.name} vs B={b.name}",
        )
    )
    for tag, rec in (("A", a), ("B", b)):
        params = ", ".join(f"{k}={v}" for k, v in sorted(rec.params.items()))
        print(f"{tag}: {rec.name} rev={rec.git_rev or '?'}"
              + (f" ({params})" if params else ""))
    return 0


def _wal_summary_of(data_dir: pathlib.Path) -> dict:
    """One data directory's WAL summary dict; raises on damage."""
    from repro.service.service import WAL_DIRNAME
    from repro.service.wal import wal_summary

    wal_dir = data_dir / WAL_DIRNAME
    if not wal_dir.is_dir():
        raise FileNotFoundError("no WAL")
    return wal_summary(wal_dir)


def render_wal(data_dirs: list[pathlib.Path]) -> int:
    """Summarise one or more service data directories' WALs.

    One line per directory; with several (a sharded deployment's
    ``shard0..shardK-1`` WAL dirs in one invocation) also a combined
    totals line.  Every directory is inspected even after a failure --
    one damaged shard must not hide the healthy ones' state -- and any
    failure makes the exit status 1.
    """
    from repro.service.wal import WalCorruption

    status = 0
    summaries = []
    for data_dir in data_dirs:
        try:
            s = _wal_summary_of(data_dir)
        except FileNotFoundError:
            print(f"{data_dir}: no WAL", file=sys.stderr)
            status = 1
            continue
        except WalCorruption as exc:
            # An inspection tool must diagnose a damaged log, not crash
            # on it: name the damage and exit nonzero.
            print(f"{data_dir}: corrupt WAL: {exc}", file=sys.stderr)
            status = 1
            continue
        except OSError as exc:
            print(f"{data_dir}: cannot read WAL: {exc}", file=sys.stderr)
            status = 1
            continue
        summaries.append(s)
        print(
            f"{data_dir}: {s['segments']} segment(s), "
            f"lsn [{s['base_lsn']}, {s['next_lsn']}) "
            f"({s['rounds']} rounds), {s['bytes']} bytes, epoch {s['epoch']}"
        )
    if len(data_dirs) > 1 and summaries:
        print(
            f"combined: {len(summaries)}/{len(data_dirs)} dirs, "
            f"{sum(s['segments'] for s in summaries)} segment(s), "
            f"{sum(s['rounds'] for s in summaries)} rounds, "
            f"{sum(s['bytes'] for s in summaries)} bytes, "
            f"max epoch {max(s['epoch'] for s in summaries)}"
        )
    return status


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: write ``REPORT.md``, or render traces with --trace."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.report",
        description="Aggregate bench_results/ into REPORT.md, or render the "
        "phase trace of structured benchmark records.",
    )
    parser.add_argument(
        "--trace",
        nargs="+",
        metavar="RECORD.json",
        help="render the phase tree of one or more benchmark records "
        "instead of building REPORT.md",
    )
    parser.add_argument(
        "--trace-diff",
        nargs=2,
        metavar=("A.json", "B.json"),
        help="print a phase-by-phase comparison of two benchmark records "
        "(work and wall-time ratios per phase; exit 1 on unreadable or "
        "schema-mismatched records)",
    )
    parser.add_argument(
        "--wal",
        nargs="+",
        metavar="DATA_DIR",
        help="print a one-line summary of each service data directory's "
        "write-ahead log (segments, LSN range, bytes, epoch); several "
        "directories (e.g. a sharded deployment's shard0..shardK-1) also "
        "get a combined totals line",
    )
    parser.add_argument(
        "results",
        nargs="?",
        default="bench_results",
        help="results directory (default: bench_results)",
    )
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)

    if args.trace:
        return render_trace([pathlib.Path(p) for p in args.trace])
    if args.trace_diff:
        return render_trace_diff(
            pathlib.Path(args.trace_diff[0]), pathlib.Path(args.trace_diff[1])
        )
    if args.wal:
        return render_wal([pathlib.Path(p) for p in args.wal])

    results = pathlib.Path(args.results)
    if not results.is_dir():
        print(
            f"no {results}/ directory -- run `pytest benchmarks/ --benchmark-only` first",
            file=sys.stderr,
        )
        return 1
    out = results / "REPORT.md"
    out.write_text(build_report(results))
    print(f"wrote {out} ({sum(1 for _ in results.glob('*.txt'))} tables)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
