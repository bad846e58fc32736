"""Print the benchmark trajectory: each BENCH_*.json's paired runs, per workload and seed.

Usage: python3 tools/bench_trajectory.py [FILE ...]

A BENCH_<n>.json holds the paired runs of bench/run.py that measured one
change against its parent: per run its workload, seed, pair number, side
("parent" or "change") and the result line as the benchmark printed it.
Without FILE arguments every BENCH_*.json at the repository root is read, in
the order of n. For each file, workload and seed this prints, per end-to-end
metric of BENCHMARK.json, the median over the parent's runs and over the
change's, their ratio (change over parent) and the change's pair wins: the
pairs with both sides where the change's value is better than the parent's
in the metric's direction, out of all such pairs. Ties are not wins. A metric
that a side's runs do not report reads nan.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def bench_files(root: Path) -> list[Path]:
    """The BENCH_<n>.json files at root in the order of n, then any other BENCH_*.json by name."""
    def key(p: Path) -> tuple[float, str]:
        n = p.stem.removeprefix("BENCH_")
        return (int(n) if n.isdigit() else math.inf, p.name)
    return sorted(root.glob("BENCH_*.json"), key=key)


def trajectory_rows(bench: dict, metrics: list[dict]) -> list[tuple]:
    """(workload, seed, metric, parent median, change median, ratio, wins, pairs) for each workload and seed of one
    BENCH file, in the order of their first run, and each end-to-end metric in BENCHMARK.json's order."""
    values = defaultdict(lambda: defaultdict(dict))  # (workload, seed) -> metric -> {(pair, side): value}
    for run in bench["runs"]:
        reported = json.loads(run["result"])["metrics"]
        for name, entry in reported.items():
            values[run["workload"], run["seed"]][name][run["pair"], run["side"]] = entry["value"]
    rows = []
    for (workload, seed), by_metric in values.items():
        for metric in metrics:
            runs = by_metric.get(metric["name"], {})
            medians = [
                statistics.median(v) if (v := [x for (_, s), x in runs.items() if s == side]) else math.nan
                for side in ("parent", "change")
            ]
            pairs = sorted({p for p, s in runs if s == "parent"} & {p for p, s in runs if s == "change"})
            sign = 1 if metric["better"] == "higher" else -1
            wins = sum(sign * (runs[p, "change"] - runs[p, "parent"]) > 0 for p in pairs)
            ratio = medians[1] / medians[0] if medians[0] else math.nan
            rows.append((workload, seed, metric["name"], *medians, ratio, wins, len(pairs)))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", type=Path, help="BENCH files (default: every BENCH_*.json at the root)")
    args = parser.parse_args(argv)
    metrics = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
    files = args.files or bench_files(REPO)
    if not files:
        print(f"no BENCH_*.json at {REPO}")
    for path in files:
        bench = json.loads(path.read_text())
        print(f"{path.name}: {bench.get('what', '')} (parent {bench.get('parent', '?')[:12]})")
        print(f"  {'workload':22} {'seed':>4} {'metric':14} {'parent':>12} {'change':>12} {'ratio':>7} {'wins':>7}")
        for workload, seed, name, parent, change, ratio, wins, pairs in trajectory_rows(bench, metrics):
            print(
                f"  {workload:22} {seed:>4} {name:14} {parent:>12.6g} {change:>12.6g} {ratio:>7.3f}"
                f" {f'{wins}/{pairs}':>7}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
