from __future__ import annotations

import contextlib
import importlib.util
import io
import re
import shutil
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("time_layers", REPO / "tools" / "time_layers.py")
time_layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(time_layers)

HISTORIES = [f"target1_llm_plus_mock:{n}" for n in (10, 30, 100, 210)] + ["toy:600"]
DESIGN_ROWS = [[s, layer] for s in ("ik-panel", "target3-reachable") for layer in ("certified", "iterated", "evaluate")]
HISTORY_ROWS = [[h, layer] for h in HISTORIES for layer in ("read", "suggest", "split", "front")]
ROWS = DESIGN_ROWS + HISTORY_ROWS
LOAD = r"host load average over 1, 5, 15 min: (\d+\.\d\d ){3}before the first round, (\d+\.\d\d ){3}after the last"


def patched_rounds(monkeypatch) -> None:
    monkeypatch.setattr(time_layers, "PAIRS", 1)
    monkeypatch.setattr(time_layers, "ROUNDS", 2)


@pytest.fixture
def run_tool(monkeypatch, capsys):
    patched_rounds(monkeypatch)

    def run(*argv: str) -> list[str]:
        assert time_layers.main(list(argv)) == 0
        return capsys.readouterr().out.splitlines()

    return run


@pytest.fixture(scope="module")
def this_checkout() -> list[str]:
    """The tool's output without --against, run once for the tests that read it."""
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as monkeypatch, contextlib.redirect_stdout(out):
        patched_rounds(monkeypatch)
        assert time_layers.main([]) == 0
    lines = out.getvalue().splitlines()
    assert lines[0] == "us per call, median over 1 worker starts x 2 rounds"
    assert re.fullmatch(LOAD, lines[1])
    assert lines[2].split() == ["set", "layer", "this"]
    assert [row.split()[:2] for row in lines[3:-1]] == ROWS
    assert lines[-1] == "outputs: identical"
    return lines


def test_time_layers_prints_a_row_per_design_set(this_checkout):
    rows = [row.split() for row in this_checkout[3:-1] if row.split()[:2] in DESIGN_ROWS]
    assert [row[:2] for row in rows] == DESIGN_ROWS and all(float(row[2]) > 0 for row in rows)


def test_time_layers_prints_a_row_per_history_size(this_checkout):
    rows = [row.split() for row in this_checkout[3:-1] if row.split()[:2] in HISTORY_ROWS]
    assert [row[:2] for row in rows] == HISTORY_ROWS and all(float(row[2]) > 0 for row in rows)


def test_time_layers_against_a_checkout_prints_ratios_and_compares_outputs(run_tool, tmp_path):
    lines = run_tool("--against", str(REPO))
    assert lines[0].startswith("us per call, median over 1 worker starts x 2 rounds; ratio = this / against")
    assert re.fullmatch(LOAD, lines[1])
    assert lines[2].split() == ["set", "layer", "this", "against", "ratio", "low", "high"]
    rows = [row.split() for row in lines[3:-1]]
    assert [row[:2] for row in rows] == ROWS
    assert all(float(ratio) > 0 and float(low) <= float(ratio) <= float(high) for *_, ratio, low, high in rows)
    assert lines[-1] == "outputs: identical"

    package = tmp_path / "src" / "armdesign"
    shutil.copytree(REPO / "src" / "armdesign", package, ignore=shutil.ignore_patterns("__pycache__"))
    kinematics = package / "kinematics.py"
    source = kinematics.read_text(encoding="utf-8")
    assert "\nIK_TOL = 1e-4 " in source
    kinematics.write_text(source.replace("\nIK_TOL = 1e-4 ", "\nIK_TOL = 1e-3 "), encoding="utf-8")
    assert run_tool("--against", str(tmp_path))[-1] == "outputs: differ"

    with pytest.raises(SystemExit) as missing:
        time_layers.main(["--against", str(REPO / "tests")])
    assert missing.value.code == 2


def test_a_timing_repeats_whole_passes_until_it_spans_the_minimum(monkeypatch):
    monkeypatch.setattr(time_layers, "MIN_SPAN_S", 0.02)
    seen = []
    start = time.perf_counter()
    us = time_layers.per_call_us(seen.append, [(1,), (2,), (3,)])
    assert time.perf_counter() - start >= 0.02
    assert len(seen) > 3 and seen == [1, 2, 3] * (len(seen) // 3)
    assert us * 1e-6 * len(seen) >= 0.02  # the mean is over every call of every pass
