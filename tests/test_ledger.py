from __future__ import annotations

import json

import numpy as np
import pytest

from armdesign.evaluation import TargetSet
from armdesign.ledger import (
    LedgerError,
    read_curve_csv,
    read_ledger,
    read_ref_point,
    write_curve_csv,
    write_ledger,
    write_run_artifacts,
)
from armdesign.llm import BackendConfig
from armdesign.orchestrator import RunConfig, RunMode, hypervolume_curve, run
from armdesign.pareto import pareto_front

TARGETS = TargetSet("t", ((0.3, 0.0, 0.5), (0.0, 0.0, 0.7)))


@pytest.fixture(scope="module")
def small_result():
    return run(
        RunConfig(
            targets=TARGETS,
            mode=RunMode.BBO_LLM_PLUS,
            n_init=5,
            n_step=5,
            n_total=15,
            seed=3,
            backend=BackendConfig(kind="mock-heuristic"),
        )
    )


def test_ledger_round_trip(tmp_path, small_result):
    path = tmp_path / "ledger.jsonl"
    write_ledger(path, small_result.ledger)
    rows = read_ledger(path)
    assert len(rows) == 20
    for row, trial in zip(rows, small_result.ledger):
        assert row.id == trial.id
        assert row.source == trial.source
        assert row.fallback == trial.fallback
        assert row.objectives == trial.objectives
        assert row.params == trial.params
        assert row.per_target == ()
    raw = [json.loads(line) for line in path.read_text().splitlines()]
    assert all(len(r["per_target"]) == 2 for r in raw)


def test_ledger_write_is_deterministic(tmp_path, small_result):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_ledger(a, small_result.ledger)
    write_ledger(b, small_result.ledger)
    assert a.read_bytes() == b.read_bytes()


def test_corrupt_line_reported_with_number(tmp_path, small_result):
    path = tmp_path / "ledger.jsonl"
    write_ledger(path, small_result.ledger)
    lines = path.read_text().splitlines()
    line = lines[6]
    assert json.loads(line)["source"] == "bbo"
    corrupt = [
        line[: len(line) // 2],  # truncated record
        line.replace('"source": "bbo"', '"source": "bogus"'),
        line.replace('"vector": [', '"vector": [0.5, '),  # 12 values: not 2D+3
        json.dumps(dict(json.loads(line), vector=[0, 0, 0, 1.5, 1, 1, 1, 0.1, 0.1, 0.1, 0.1])),
        json.dumps(dict(json.loads(line), objectives=[1.0])),
    ]
    for bad in corrupt:
        lines[6] = bad
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LedgerError, match="line 7"):
            read_ledger(path)


def test_recomputed_curve_matches_run(tmp_path, small_result):
    path = tmp_path / "ledger.jsonl"
    write_ledger(path, small_result.ledger)
    curve = hypervolume_curve(read_ledger(path), small_result.config.ref_point)
    np.testing.assert_array_equal(curve, small_result.hv_curve)


def test_curve_csv_round_trip(tmp_path, small_result):
    path = tmp_path / "curve.csv"
    write_curve_csv(path, small_result.hv_curve)
    np.testing.assert_array_equal(read_curve_csv(path), small_result.hv_curve)


def test_final_front_rows_match_archive(tmp_path, small_result):
    path = tmp_path / "ledger.jsonl"
    write_ledger(path, small_result.ledger)
    rows = read_ledger(path)
    front = pareto_front(rows)
    assert [r.id for r in front] == [t.id for t in small_result.archive]
    assert pareto_front(front) == front


def test_run_artifacts_layout(tmp_path, small_result):
    run_dir = tmp_path / "seed_3"
    write_run_artifacts(run_dir, small_result)
    assert (run_dir / "ledger.jsonl").exists()
    assert (run_dir / "hv_curve.csv").exists()
    assert (run_dir / "pareto.json").exists()
    assert json.loads((run_dir / "run.json").read_text()) == {"ref_point": [5.0, 5.0]}
    assert read_ref_point(run_dir) == small_result.config.ref_point
    transcripts = sorted(p.name for p in (run_dir / "transcripts").iterdir())
    assert transcripts == [f"iter_{t:05d}.json" for t in sorted(small_result.transcripts)]

