from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from armdesign.cli import main
from armdesign.ledger import read_curve_csv

REPO = Path(__file__).resolve().parent.parent
TARGET1 = str(REPO / "targets" / "target1.json")


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def params_file(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(
        json.dumps(
            {"origin": [0, 0, 0], "joints": ["Y", "P", "R", "P"], "lengths": [0.25, 0.2, 0.2, 0.15]}
        )
    )
    return str(path)


def quick_experiment(tmp_path, **overrides):
    spec = {
        "name": "cli-test",
        "targets": {"name": "t", "points": [[0.3, 0.0, 0.5], [0.0, 0.0, 0.7]]},
        "mode": "bbo-llm-plus",
        "seeds": [0, 1],
        "n_init": 4,
        "n_step": 4,
        "n_total": 12,
        "backend": {"kind": "mock-heuristic"},
        "out_dir": str(tmp_path / "out"),
    }
    spec.update(overrides)
    spec = {key: value for key, value in spec.items() if value is not None}  # None drops a key
    path = tmp_path / "exp.experiment"
    path.write_text(json.dumps(spec))
    return str(path)


def test_evaluate_rejects_wrong_vector_length(capsys):
    code, _, err = run_cli(capsys, "evaluate", "--vector", ",".join(["0.1"] * 10), "--targets", TARGET1)
    assert code == 1
    assert "2D+3" in err


def test_evaluate_zero_pose_target(capsys, tmp_path):
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps({"name": "zero", "points": [[0.0, 0.0, 0.4]]}))
    vec = "0,0,0,2,1,0,1,0.1,0.1,0.1,0.1"
    code, out, _ = run_cli(capsys, "evaluate", "--vector", vec, "--targets", str(targets))
    assert code == 0
    report = json.loads(out)
    assert report["e_pos"] == 0.0
    assert report["e_torque"] == 0.0


def test_evaluate_rejects_a_target_list(capsys, params_file, tmp_path):
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps([[0.3, 0.0, 0.5]]))
    code, out, err = run_cli(capsys, "evaluate", "--params", params_file, "--targets", str(targets))
    assert code == 1
    assert out == ""
    assert "malformed target set: expected an object, got list" in error_line(err)


@pytest.mark.parametrize("points", [["123"], [["0.1", True, 0]]], ids=["point-string", "point-string-and-bool"])
def test_evaluate_rejects_target_points_that_are_not_numbers(capsys, params_file, tmp_path, points):
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps({"name": "bad", "points": points}))
    code, out, err = run_cli(capsys, "evaluate", "--params", params_file, "--targets", str(targets))
    assert code == 1
    assert out == ""
    assert "malformed target set: expected an array of numbers" in error_line(err)


def test_evaluate_deterministic_stdout(capsys, params_file):
    code1, out1, _ = run_cli(capsys, "evaluate", "--params", params_file, "--targets", TARGET1)
    code2, out2, _ = run_cli(capsys, "evaluate", "--params", params_file, "--targets", TARGET1)
    assert code1 == code2 == 0
    assert out1 == out2


def test_evaluate_stdout_matches_the_golden_file(capsys, params_file):
    # written by the version whose outcomes were dataclasses; e_torque is a BLAS ddot, whose
    # last bit follows the host's kernel, so those lines compare to 1e-15 and all others exactly
    code, out, _ = run_cli(capsys, "evaluate", "--params", params_file, "--targets", str(REPO / "targets" / "target2.json"))
    golden = (REPO / "tests" / "evaluate_stdout.golden.json").read_text(encoding="utf-8")
    assert code == 0 and out.endswith("\n") and len(out.splitlines()) == len(golden.splitlines())
    for line, expected in zip(out.splitlines(), golden.splitlines()):
        key, _, value = expected.partition(": ")
        if key.strip() == '"e_torque"':
            assert line.startswith(f"{key}: ") and float(line[len(key) + 2 :].rstrip(",")) == pytest.approx(
                float(value.rstrip(",")), rel=1e-15
            )
        else:
            assert line == expected


def test_urdf_writes_idempotent_file(capsys, params_file, tmp_path):
    out = tmp_path / "arm.urdf"
    assert run_cli(capsys, "urdf", "--params", params_file, "--out", str(out))[0] == 0
    first = out.read_bytes()
    assert run_cli(capsys, "urdf", "--params", params_file, "--out", str(out))[0] == 0
    assert out.read_bytes() == first
    assert b"revolute" in first


@pytest.mark.parametrize(
    "origin, lengths",
    [
        ([True, "0.1", 0], [0.25, 0.2, 0.2, 0.15]),
        ([0, 0, 0], ["0.2", 0.2, 0.2, 0.15]),
        ([True, 5, 0], [0.25, 0.2, 0.2, 0.15]),
        (["5", "5", 0], [0.25, 0.2, 0.2, 0.15]),
    ],
    ids=["origin-bool-and-string", "length-string", "origin-bool", "origin-strings"],
)
def test_evaluate_rejects_params_that_are_not_numbers(capsys, tmp_path, origin, lengths):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"origin": origin, "joints": ["Y", "P", "R", "P"], "lengths": lengths}))
    code, out, err = run_cli(capsys, "evaluate", "--params", str(bad), "--targets", TARGET1)
    assert code == 1
    assert out == ""
    assert "params file: expected an array of numbers" in error_line(err)


def test_urdf_rejects_out_of_range_origin(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"origin": [1.5, 0, 0], "joints": ["Y", "P", "R", "P"], "lengths": [0.1] * 4})
    )
    code, _, err = run_cli(capsys, "urdf", "--params", str(bad), "--out", str(tmp_path / "x.urdf"))
    assert code == 1
    assert "origin.x" in err


def test_run_produces_artifacts_and_summary(capsys, tmp_path):
    exp = quick_experiment(tmp_path)
    code, out, _ = run_cli(capsys, "run", "--experiment", exp)
    assert code == 0
    summary = json.loads(out)
    assert summary["seeds"] == [0, 1]
    out_dir = tmp_path / "out"
    for seed in (0, 1):
        assert (out_dir / f"seed_{seed}" / "ledger.jsonl").exists()
        assert (out_dir / f"seed_{seed}" / "hv_curve.csv").exists()
        ledger = (out_dir / f"seed_{seed}" / "ledger.jsonl").read_text().strip().splitlines()
        assert len(ledger) == 16  # n_init + n_total
    assert (out_dir / "hv_aggregate.csv").exists()
    assert (out_dir / "summary.json").exists()


def test_run_summary_is_numpy_over_the_seed_curves(capsys, tmp_path):
    seeds = (0, 1, 2)
    exp = quick_experiment(tmp_path, seeds=list(seeds))
    code, out, _ = run_cli(capsys, "run", "--experiment", exp)
    assert code == 0
    out_dir = tmp_path / "out"
    curves = np.stack([read_curve_csv(out_dir / f"seed_{s}" / "hv_curve.csv") for s in seeds])
    finals = curves[:, -1]
    summary = json.loads((out_dir / "summary.json").read_text())
    assert json.loads(out) == summary
    assert summary["final_hv_per_seed"] == {str(s): float(v) for s, v in zip(seeds, finals)}
    assert summary["final_hv_mean"] == float(np.mean(finals))
    assert summary["final_hv_std"] == float(np.std(finals))
    assert summary["mean_hv_over_iterations"] == float(curves.mean(axis=0).mean())
    assert summary["mean_std_over_iterations"] == float(curves.std(axis=0).mean())
    assert np.std(finals) > 0  # seeds differ, so a sample sigma would not match

    rows = (out_dir / "hv_aggregate.csv").read_text().splitlines()
    assert rows[0] == "iteration,mean,std"
    table = np.array([row.split(",") for row in rows[1:]], dtype=float)
    np.testing.assert_array_equal(table[:, 0], np.arange(1, curves.shape[1] + 1))
    np.testing.assert_array_equal(table[:, 1], curves.mean(axis=0))
    np.testing.assert_array_equal(table[:, 2], curves.std(axis=0))


def test_run_seed_and_out_overrides(capsys, tmp_path):
    exp = quick_experiment(tmp_path)
    alt = tmp_path / "alt"
    code, out, _ = run_cli(capsys, "run", "--experiment", exp, "--seed", "7", "--out", str(alt))
    assert code == 0
    assert json.loads(out)["seeds"] == [7]
    assert (alt / "seed_7" / "ledger.jsonl").exists()


def test_run_refuses_a_directory_holding_other_seeds(capsys, tmp_path):
    exp = quick_experiment(tmp_path)
    out_dir = tmp_path / "out"
    assert run_cli(capsys, "run", "--experiment", exp)[0] == 0
    before = {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}
    code, out, err = run_cli(capsys, "run", "--experiment", exp, "--seed", "0", "--mode", "bbo")
    assert code == 1
    assert out == ""
    assert "holds seed_1, outside the seed list [0]" in error_line(err)
    assert {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()} == before  # nothing written
    # the same seed list, or a superset of the directory's seeds, may rerun into it
    assert run_cli(capsys, "run", "--experiment", exp, "--mode", "bbo")[0] == 0
    assert run_cli(capsys, "run", "--experiment", exp, "--seed", "0", "1", "2", "--mode", "bbo")[0] == 0


@pytest.mark.parametrize("where", ["--out", "out_dir"])
def test_run_rejects_an_output_path_that_is_a_file_before_any_seed_runs(capsys, tmp_path, monkeypatch, where):
    import armdesign.cli

    def no_run(config):
        raise AssertionError("a seed ran")

    monkeypatch.setattr(armdesign.cli, "run", no_run)
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    for out_dir in (afile, afile / "sub"):
        exp = quick_experiment(tmp_path, **({"out_dir": str(out_dir)} if where == "out_dir" else {}))
        argv = ["--out", str(out_dir)] if where == "--out" else []
        code, out, err = run_cli(capsys, "run", "--experiment", exp, *argv)
        assert code == 1
        assert out == ""
        assert error_line(err) == f"error: output directory {out_dir} cannot be made: {afile} is not a directory"
    assert afile.read_text() == "not a directory\n"


def test_run_scheduled_slot_count(capsys, tmp_path):
    exp = quick_experiment(tmp_path, n_total=12, n_step=4)
    code, out, _ = run_cli(capsys, "run", "--experiment", exp, "--seed", "0")
    assert code == 0
    ledger = (tmp_path / "out" / "seed_0" / "ledger.jsonl").read_text().strip().splitlines()
    rows = [json.loads(line) for line in ledger]
    llm_or_fallback = [r for r in rows if r["source"] == "llm" or r["fallback"]]
    assert len(llm_or_fallback) == 3  # ceil(12 / 4)


def test_run_rerun_byte_identical(capsys, tmp_path):
    exp = quick_experiment(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(capsys, "run", "--experiment", exp, "--out", str(out_a))[0] == 0
    assert run_cli(capsys, "run", "--experiment", exp, "--out", str(out_b))[0] == 0
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel


def test_run_missing_experiment_is_input_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "run", "--experiment", str(tmp_path / "nope.experiment"))
    assert code == 1
    assert "error" in err


def test_run_http_backend_without_token(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("ARMDESIGN_API_TOKEN", raising=False)
    exp = quick_experiment(
        tmp_path, backend={"kind": "http", "base_url": "http://127.0.0.1:1", "model": "m"}
    )
    code, out, err = run_cli(capsys, "run", "--experiment", exp)
    assert code == 2
    assert out == ""
    assert "$ARMDESIGN_API_TOKEN" in error_line(err)
    assert not (tmp_path / "out").exists()


def error_line(err: str) -> str:
    """The one line a rejected command prints to stderr (no traceback)."""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


@pytest.mark.parametrize(
    "backend, code, message",
    [
        ({"kind": "nope"}, 1, "unknown backend kind"),
        ({"kind": "mock-script"}, 1, "needs script_path"),
        ({"kind": "http"}, 1, "needs base_url and model"),
        ({"kind": "mock-heuristic", "decoding": [1, 2]}, 1, "decoding must be an object"),
        ({"kind": "mock-heuristic", "timeout": -1}, 1, "timeout must be a finite number > 0"),
        ({"kind": "mock-script", "script": "not-json.json"}, 2, "malformed script file"),
        ({"kind": "mock-script", "script": "no-responses.json"}, 2, "malformed script file"),
        ({}, 1, "backend needs a kind"),
        ({"timeout": 30}, 1, "backend needs a kind"),
        ({"kind": "mock-heuristic", "timeout": True}, 1, "backend timeout must be a number, got True"),
        ({"kind": "mock-heuristic", "timeout": "45"}, 1, "backend timeout must be a number, got '45'"),
        ({"kind": "http", "base_url": "http://h", "model": "m", "token_env": 5}, 1,
         "backend token_env must be a string, got 5"),
    ],
    ids=["kind", "no-script", "no-url", "decoding", "timeout", "script-not-json", "script-no-responses",
         "no-kind", "timeout-no-kind", "timeout-bool", "timeout-string", "token-env-number"],
)
def test_run_rejects_bad_backend(capsys, tmp_path, backend, code, message):
    (tmp_path / "not-json.json").write_text("responses: none")
    (tmp_path / "no-responses.json").write_text('{"replies": []}')
    exp = quick_experiment(tmp_path, backend=backend)
    got, out, err = run_cli(capsys, "run", "--experiment", exp)
    assert got == code
    assert out == ""
    assert message in error_line(err)
    if "script" in backend:
        assert backend["script"] in err
    assert not (tmp_path / "out").exists()  # a failed run leaves no empty output directory


@pytest.mark.parametrize(
    "overrides, argv, message",
    [
        ({"n_step": 0}, [], "n_step must be >= 1"),
        ({"n_step": -1}, [], "n_step must be >= 1"),
        ({}, ["--seed", "-1"], "seed must be >= 0"),
        ({"seeds": [-1]}, [], "seed must be >= 0"),
        ({}, ["--seed", "0", "0"], "seed list must be non-empty and distinct"),
        ({"seeds": [1, 1]}, [], "seed list must be non-empty and distinct"),
        ({"targets": {"points": [[0.1, 0.2]]}}, [], "target point must be 3 finite numbers"),
        ({"n_total": 3.7}, [], "expected an integer, got 3.7"),
        ({"targets": [[0.1, 0.2, 0.3]]}, [], "malformed target set: expected an object, got list"),
        ({"out_dir": 3}, [], "invalid experiment settings"),
        ({"alpha": 40.0}, [], "unknown experiment keys: ['alpha']"),
        ({"n_joints": 4}, [], "unknown experiment keys: ['n_joints']"),
        ({"backend": None}, [], "mode bbo-llm-plus needs a backend object"),
        ({"backend": False}, [], "backend must be an object, got False"),
        ({"backend": []}, [], "backend must be an object, got []"),
        ({"mode": "bbo", "backend": None}, ["--mode", "bbo-llm-plus"], "mode bbo-llm-plus needs a backend object"),
    ],
    ids=["n-step-0", "n-step-negative", "seed-negative", "file-seed-negative",
         "seed-repeated", "file-seed-repeated", "target-2-vector", "n-total-fractional",
         "targets-list", "out-dir-number", "alpha-key", "n-joints-key", "no-backend",
         "backend-false", "backend-list", "mode-override-no-backend"],
)
def test_run_rejects_bad_settings(capsys, tmp_path, overrides, argv, message):
    exp = quick_experiment(tmp_path, **overrides)
    code, out, err = run_cli(capsys, "run", "--experiment", exp, *argv)
    assert code == 1
    assert out == ""
    assert message in error_line(err)
    assert not (tmp_path / "out").exists()


def test_report_reproduces_stored_curve(capsys, tmp_path):
    exp = quick_experiment(tmp_path)
    assert run_cli(capsys, "run", "--experiment", exp)[0] == 0
    ledgers = [str(tmp_path / "out" / f"seed_{s}" / "ledger.jsonl") for s in (0, 1)]
    code, out, _ = run_cli(capsys, "report", *ledgers)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "iteration,mean,std"
    assert len([l for l in lines if l.startswith("# final front")]) == 2
    # cross-check against the aggregate the run itself wrote
    stored = (tmp_path / "out" / "hv_aggregate.csv").read_text().splitlines()
    assert lines[: len(stored)] == stored


def test_report_flags_corrupt_ledger_line(capsys, tmp_path):
    exp = quick_experiment(tmp_path, seeds=[0])
    assert run_cli(capsys, "run", "--experiment", exp)[0] == 0
    ledger = tmp_path / "out" / "seed_0" / "ledger.jsonl"
    lines = ledger.read_text().splitlines()
    good = lines[4]
    assert '"source": "llm"' in good
    corrupt = (
        good[:20],
        good.replace('"source": "llm"', '"source": "bogus"'),
        re.sub(r'"objectives": \[[^,]*', '"objectives": [NaN', good),
        re.sub(r'"vector": \[[^,]*', '"vector": [Infinity', good),
    )
    for bad in corrupt:
        assert bad != good
        lines[4] = bad
        ledger.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "report", str(ledger))
        assert code == 1
        assert "line 5" in err
    lines[4] = good
    ledger.write_text("\n".join(lines) + "\n")
    curve = ledger.parent / "hv_curve.csv"
    rows = curve.read_text().splitlines()
    for bad in ("2", "2,", "2,not-a-number", "2;0.5", "x,0.5", "3,0.5", "2,0.5,junk"):
        rows[2] = bad
        curve.write_text("\n".join(rows) + "\n")
        code, _, err = run_cli(capsys, "report", str(ledger))
        assert code == 1
        assert "hv_curve.csv: line 3" in err


def test_report_rejects_a_ledger_with_no_trials(capsys, tmp_path):
    exp = quick_experiment(tmp_path, seeds=[0])
    assert run_cli(capsys, "run", "--experiment", exp)[0] == 0
    ledger = tmp_path / "out" / "seed_0" / "ledger.jsonl"
    empty = tmp_path / "empty" / "ledger.jsonl"
    empty.parent.mkdir()
    for text in ("", "\n  \n"):
        empty.write_text(text)
        for ledgers in ([empty], [empty, ledger], [ledger, empty]):
            code, out, err = run_cli(capsys, "report", *map(str, ledgers))
            assert code == 1
            assert out == ""
            assert error_line(err) == f"error: {empty}: the ledger holds no trials"


def test_report_rejects_a_ledger_of_warmup_trials_only(capsys, tmp_path):
    exp = quick_experiment(tmp_path, seeds=[0])
    assert run_cli(capsys, "run", "--experiment", exp)[0] == 0
    ledger = tmp_path / "out" / "seed_0" / "ledger.jsonl"
    warmup = tmp_path / "warmup" / "ledger.jsonl"  # its first n_init = 4 lines, every one `random`
    warmup.parent.mkdir()
    warmup.write_text("".join(ledger.read_text().splitlines(keepends=True)[:4]))
    for ledgers in ([warmup], [warmup, ledger], [ledger, warmup]):
        code, out, err = run_cli(capsys, "report", *map(str, ledgers))
        assert code == 1
        assert out == ""
        assert error_line(err) == f"error: {warmup}: the ledger holds only warmup trials"


def test_report_uses_the_runs_ref_point(capsys, tmp_path):
    exp = quick_experiment(tmp_path, seeds=[0], ref_point=[50, 50])
    assert run_cli(capsys, "run", "--experiment", exp)[0] == 0
    run_dir = tmp_path / "out" / "seed_0"
    ledger = str(run_dir / "ledger.jsonl")
    code, out, _ = run_cli(capsys, "report", ledger)
    assert code == 0
    assert out.startswith((tmp_path / "out" / "hv_aggregate.csv").read_text())
    # no flag can pick another point
    assert run_cli(capsys, "report", ledger, "--ref", "50", "50")[0] == 1
    stored = (run_dir / "run.json").read_text()
    assert json.loads(stored) == {"ref_point": [50.0, 50.0]}
    for bad in ('{"ref_point": [50.0, Infinity]}', '{"ref_point": [50.0, NaN]}', '{"ref_point": [50.0]}',
                '{"ref_point": [50.0, "x"]}', '{"ref_point": [true, 5]}', '{"ref_point": ["5", "5"]}',
                '{"ref": [50.0, 50.0]}', "[50.0, 50.0]", "not json"):
        (run_dir / "run.json").write_text(bad)
        code, _, err = run_cli(capsys, "report", ledger)
        assert code == 1
        assert "run.json" in error_line(err)
    (run_dir / "run.json").write_text(stored)
    # a sweep at another point is not averaged in
    other = quick_experiment(tmp_path, seeds=[0], out_dir=str(tmp_path / "other"))
    assert run_cli(capsys, "run", "--experiment", other)[0] == 0
    code, _, err = run_cli(capsys, "report", ledger, str(tmp_path / "other" / "seed_0" / "ledger.jsonl"))
    assert code == 1
    assert "mismatched (iterations, reference point): [(12, (5.0, 5.0)), (12, (50.0, 50.0))]" in err
    # without run.json the default (5, 5) applies, and the stored curve disagrees
    (run_dir / "run.json").unlink()
    code, _, err = run_cli(capsys, "report", ledger)
    assert code == 2
    assert "disagrees" in err


def test_run_mode_override(capsys, tmp_path):
    exp = quick_experiment(tmp_path, mode="bbo", n_step=6)
    code, out, _ = run_cli(
        capsys, "run", "--experiment", exp, "--seed", "0", "--mode", "bbo-llm-minus"
    )
    assert code == 0
    assert json.loads(out)["mode"] == "bbo-llm-minus"
    ledger = (tmp_path / "out" / "seed_0" / "ledger.jsonl").read_text().strip().splitlines()
    rows = [json.loads(line) for line in ledger]
    slots = [r for r in rows if r["source"] == "llm" or r["fallback"]]
    assert len(slots) == 2  # ceil(12 / 6)


@pytest.mark.parametrize(
    "argv", [["--n-step", "2"], ["--backend", "mock"], ["--backend", "http"]],
    ids=["n-step", "backend-mock", "backend-http"],
)
def test_run_settings_come_from_the_file(capsys, tmp_path, argv):
    """The schedule and the backend have no command-line override."""
    exp = quick_experiment(tmp_path)
    code, out, err = run_cli(capsys, "run", "--experiment", exp, *argv)
    assert code == 1
    assert out == ""
    assert f"unrecognized arguments: {' '.join(argv)}" in err
    assert not (tmp_path / "out").exists()


def test_urdf_to_stdout(capsys, params_file):
    code, out, _ = run_cli(capsys, "urdf", "--params", params_file)
    assert code == 0
    assert out.startswith('<?xml version="1.0" ?>')


def test_usage_error_exits_one(capsys):
    code, _, err = run_cli(capsys, "evaluate", "--targets", TARGET1)
    assert code == 1
    assert "error" in err


def test_bundled_experiment_files_parse():
    from armdesign.experiment import load_experiment

    paths = sorted((REPO / "experiments").glob("*.experiment"))
    assert len(paths) >= 5
    for path in paths:
        spec = load_experiment(path)
        assert len(spec.base.targets.points) == 5
        assert spec.seeds
        assert (spec.base.backend is None) is not spec.base.mode.uses_llm, path.name
