from __future__ import annotations

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "time_suggest.py"


def test_time_suggest_prints_a_row_per_history_size():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--repeats", "1", "--calls", "1"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "us per call, median of 1 repeats x 1 calls"
    rows = [line.split() for line in lines[2:]]
    assert [(name, int(n)) for name, n, *_ in rows] == [
        ("target1_llm_plus_mock", 10),
        ("target1_llm_plus_mock", 30),
        ("target1_llm_plus_mock", 100),
        ("target1_llm_plus_mock", 210),
        ("toy", 600),
    ]
    assert lines[1].split() == ["history", "n", "read", "suggest", "split"]
    assert all(float(us) > 0 for _, _, *times in rows for us in times) and {len(row) for row in rows} == {5}
