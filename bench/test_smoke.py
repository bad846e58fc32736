"""Smoke test of the benchmark itself, at the smallest workload sizes.

    python3 -m pytest bench/test_smoke.py -q

It is kept out of the package's own test run (``testpaths`` names ``tests``).
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, kind):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_tampered_hv_curve_is_a_failed_op(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import workloads

    write = workloads.write_run_artifacts

    def write_then_tamper(run_dir, result):
        write(run_dir, result)
        curve = run_dir / "hv_curve.csv"
        lines = curve.read_text(encoding="utf-8").splitlines()
        iteration, hv = lines[-1].split(",")
        lines[-1] = f"{iteration},{float(hv) + 1.0}"
        curve.write_text("\n".join(lines) + "\n", encoding="utf-8")

    monkeypatch.setattr(workloads, "write_run_artifacts", write_then_tamper)
    assert run.main(["--workload", "hybrid-target1", "--seed", "3", "--seconds", "0", "--tiny"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["attempted"] == 1
    assert result["failed"] == 1
    assert result["correct"] is False


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "hybrid-target1", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
