from __future__ import annotations

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "bench_trajectory.py"
_spec = importlib.util.spec_from_file_location("bench_trajectory", TOOL)
bench_trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_trajectory)

METRICS = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]


def run(workload, seed, pair, side, **metrics):
    result = {"correct": True, "metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()}}
    return {"workload": workload, "seed": seed, "pair": pair, "side": side, "machine": "machine {}",
            "result": json.dumps(result)}


def test_bench_33_reads_as_its_changes_entry_reports():
    bench = json.loads((REPO / "BENCH_33.json").read_text())
    rows = {(w, s, m): rest for w, s, m, *rest in bench_trajectory.trajectory_rows(bench, METRICS)}
    assert {(w, s) for w, s, _ in rows} == {("tpe-long-history", 1), ("tpe-long-history", 7),
                                            ("hybrid-target1", 1), ("evaluate-reachable", 1)}
    assert len(rows) == 4 * len(METRICS)
    parent, change, ratio, wins, pairs = rows["tpe-long-history", 1, "trials_per_s"]
    assert (round(parent, 1), round(change, 1), wins, pairs) == (968.6, 1098.0, 10, 10)
    assert ratio == change / parent
    # the medians are the plain medians of each side's runs
    values = [json.loads(r["result"])["metrics"]["trial_ms_p50"]["value"]
              for r in bench["runs"] if (r["workload"], r["seed"], r["side"]) == ("tpe-long-history", 7, "change")]
    assert rows["tpe-long-history", 7, "trial_ms_p50"][1] == statistics.median(values)
    assert rows["tpe-long-history", 7, "trial_ms_p50"][3:] == [4, 4]  # lower is better: the change won all 4


def test_a_synthetic_file_prints_medians_ratios_and_wins(tmp_path, capsys):
    runs = [
        run("w", 1, 0, "parent", trials_per_s=100.0, trial_ms_p50=2.0, final_hv=5.0),
        run("w", 1, 0, "change", trials_per_s=110.0, trial_ms_p50=1.0, final_hv=5.0),
        run("w", 1, 1, "change", trials_per_s=90.0, trial_ms_p50=3.0, final_hv=5.0),
        run("w", 1, 1, "parent", trials_per_s=100.0, trial_ms_p50=2.0, final_hv=5.0),
        run("w", 1, 2, "parent", trials_per_s=130.0, trial_ms_p50=2.0, final_hv=5.0),  # no change side
    ]
    path = tmp_path / "BENCH_7.json"
    path.write_text(json.dumps({"what": "a test", "parent": "0123456789abcdef", "runs": runs}))
    assert bench_trajectory.main([str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "BENCH_7.json: a test (parent 0123456789ab)"
    assert lines[1].split() == ["workload", "seed", "metric", "parent", "change", "ratio", "wins"]
    rows = {line.split()[2]: line.split()[3:] for line in lines[2:]}
    assert list(rows) == [m["name"] for m in METRICS]  # every end-to-end metric, in BENCHMARK.json's order
    assert rows["trials_per_s"] == ["100", "100", "1.000", "1/2"]  # higher is better
    assert rows["trial_ms_p50"] == ["2", "2", "1.000", "1/2"]  # lower is better
    assert rows["final_hv"] == ["5", "5", "1.000", "0/2"]  # a tie is no win
    assert rows["setup_s"] == ["nan", "nan", "nan", "0/0"]  # not reported


def test_the_files_at_the_root_are_read_in_number_order(tmp_path):
    for n in (33, 9, 100):
        (tmp_path / f"BENCH_{n}.json").write_text("{}")
    assert [p.name for p in bench_trajectory.bench_files(tmp_path)] == ["BENCH_9.json", "BENCH_33.json",
                                                                         "BENCH_100.json"]


def test_the_default_run_prints_every_file_at_the_root(capsys):
    assert bench_trajectory.main([]) == 0
    out = capsys.readouterr().out
    names = [path.name for path in bench_trajectory.bench_files(REPO)]
    assert "BENCH_33.json" in names
    for name in names:
        assert out.count(f"{name}: ") == 1


@pytest.mark.parametrize("broken", ["{", json.dumps({"runs": [{"workload": "w"}]})])
def test_a_malformed_file_fails_the_command(tmp_path, broken):
    path = tmp_path / "BENCH_1.json"
    path.write_text(broken)
    with pytest.raises((ValueError, KeyError)):
        bench_trajectory.main([str(path)])
