from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from armdesign.evaluation import TargetSet
from armdesign.experiment import load_experiment
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

REPO = Path(__file__).resolve().parent.parent
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
        assert row.per_target == trial.per_target
        assert len(row.per_target) == 2


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
        line.replace('"e_torque": ', '"e_torque": NaN, "x": ', 1),  # non-finite outcome value
        line.replace('"target": [', '"target": [0.5, ', 1),  # 4 values: not a point
        line.replace('"iterations": ', '"iters": ', 1),
    ]
    # values of the wrong JSON type: never coerced, as in an experiment file
    row = json.loads(line)
    first = row["per_target"][0]

    def with_outcome(**changes):
        return json.dumps(dict(row, per_target=[dict(first, **changes), *row["per_target"][1:]]))

    def string_and_bool(values):
        return [str(values[0]), True, *values[2:]]

    corrupt += [
        json.dumps(dict(row, id=2.7)),
        json.dumps(dict(row, fallback="false")),
        json.dumps(dict(row, vector=string_and_bool(row["vector"]))),
        json.dumps(dict(row, objectives=string_and_bool(row["objectives"]))),
        with_outcome(iterations=3.9),
        with_outcome(converged="no"),
        with_outcome(target=string_and_bool(first["target"])),
        with_outcome(reached=string_and_bool(first["reached"])),
        with_outcome(torque=string_and_bool(first["torque"])),
        with_outcome(e_pos=str(first["e_pos"])),
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
    # pareto.json is the front of the ledger that report reads back
    write_run_artifacts(tmp_path, small_result)
    front = pareto_front(read_ledger(tmp_path / "ledger.jsonl"))
    written = json.loads((tmp_path / "pareto.json").read_text())["front"]
    assert [row["id"] for row in written] == [r.id for r in front]
    assert [row["objectives"] for row in written] == [[r.objectives.e_pos, r.objectives.e_torque] for r in front]
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


def test_a_rerun_replaces_the_transcripts(tmp_path, small_result):
    bbo = run(RunConfig(targets=TARGETS, n_init=5, n_step=5, n_total=15, seed=3))
    run_dir = tmp_path / "seed_3"
    write_run_artifacts(run_dir, small_result)
    write_run_artifacts(run_dir, bbo)
    assert not (run_dir / "transcripts").exists()
    # only the iteration files are the run's: anything else in the directory stays
    write_run_artifacts(run_dir, small_result)
    (run_dir / "transcripts" / "notes.txt").write_text("kept\n")
    write_run_artifacts(run_dir, bbo)
    assert [p.name for p in (run_dir / "transcripts").iterdir()] == ["notes.txt"]


@pytest.mark.parametrize(
    "reformat, error",
    [
        (["no lists here"], "parse: expected 3 bracketed groups, found 0"),
        ([], "scripted responses exhausted"),  # a transport failure keeps the backend's text
    ],
    ids=["parse", "transport"],
)
def test_a_fallback_transcript_says_why(tmp_path, reformat, error):
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"responses": ["some prose", *reformat]}))
    backend = BackendConfig(kind="mock-script", script_path=str(script))
    result = run(
        RunConfig(targets=TARGETS, mode=RunMode.BBO_LLM_PLUS, n_init=3, n_step=5, n_total=3, seed=0, backend=backend)
    )
    assert result.ledger[3].fallback
    write_run_artifacts(tmp_path / "seed_0", result)
    entries = json.loads((tmp_path / "seed_0" / "transcripts" / "iter_00001.json").read_text())
    assert [e["error"] for e in entries] == [None, error]


def test_first_llm_transcript_matches_the_golden_file(tmp_path):
    # seed 0 of the bundled scripted-LLM sweep; the prompt's feedback carries .4f objectives and
    # per-target torques, so this also pins the feedback draw and its order
    spec = load_experiment(REPO / "experiments" / "target1_llm_plus_mock.experiment")
    write_run_artifacts(tmp_path, run(spec.configs()[0]))
    golden = (REPO / "tests" / "transcript_iter1.golden.json").read_bytes()
    assert (tmp_path / "transcripts" / "iter_00001.json").read_bytes() == golden
