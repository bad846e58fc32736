from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "time_ik.py"
SETS = [("ik-panel", 375), ("target3-reachable", 405)]


def run_tool(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=300)


def test_time_ik_prints_a_row_per_design_set():
    proc = run_tool("--repeats", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "us per call, median of 1 repeats; iters = LM iterations per call"
    assert lines[1].split() == [
        "set", "solves", "solve_us", "iters", "certified", "certified_us",
        "iterated", "iterated_us", "iterated_iters", "evaluate_us",
    ]
    rows = [line.split() for line in lines[2:]]
    assert [(row[0], int(row[1])) for row in rows] == SETS
    for _, solves, solve_us, iters, certified, certified_us, iterated, iterated_us, iterated_iters, evaluate_us in rows:
        assert int(certified) + int(iterated) == int(solves) and int(certified) > 0 and int(iterated) > 0
        assert float(iterated_iters) >= 1.0 and 0.0 < float(iters) <= float(iterated_iters)
        assert all(float(us) > 0 for us in (solve_us, certified_us, iterated_us, evaluate_us))


def test_time_ik_against_a_checkout_prints_ratios():
    proc = run_tool("--repeats", "1", "--against", str(REPO))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("us per call, median over 4 rounds (alternating order) of 1 repeats")
    assert lines[1].split() == ["set", "metric", "this", "against", "ratio"]
    rows = [line.split() for line in lines[2:-1]]
    metrics = ["solve_us", "certified_us", "iterated_us", "evaluate_us"]
    assert [row[:2] for row in rows] == [[name, m] for name, _ in SETS for m in metrics]
    assert all(float(row[4]) > 0 for row in rows)
    assert lines[-1] == "solutions: identical"

    missing = run_tool("--against", str(REPO / "tests"))
    assert missing.returncode == 2 and "no src/armdesign there" in missing.stderr
