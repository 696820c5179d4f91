#!/usr/bin/env python3
"""Repeat ``bench/run.py`` and summarize how much each metric moves.

Usage (from the repository root)::

    python3 bench/repeat.py --seeds 13,13,13,13,13 --label set-a --out bench/results/seed.json
    python3 bench/repeat.py --seeds 1,2,3,4,5,6,7,8,9,10 --label seeds --out bench/results/seed.json

Each run is ``python3 bench/run.py --workload W --seed S --trace 0``; its
last stdout line is kept.  Per workload and metric the summary holds the
median and the spread: the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median.  Results are merged into ``--out`` under ``--label``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "spread": (q3 - q1) / med if med else None}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", required=True, help="comma-separated, one run each")
    p.add_argument("--workloads", default="point_reads,ingest,bulk,worker_reads")
    p.add_argument("--label", required=True)
    p.add_argument("--out", type=pathlib.Path, required=True)
    args = p.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    section = doc.setdefault(args.label, {})
    for name in args.workloads.split(","):
        runs = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--trace", "0"],
                capture_output=True, text=True, timeout=900,
            )
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **{k: v["value"] for k, v in result["metrics"].items()}})
            print(name, seed, json.dumps(runs[-1]), flush=True)
        metrics = [k for k in runs[0] if k != "seed"]
        section[name] = {
            "runs": runs,
            "summary": {k: summarize([r[k] for r in runs]) for k in metrics},
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
