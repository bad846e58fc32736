"""Acceptance suite: every criterion at its stated tolerance, one line printed each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
The full-scale runs share module-scoped fixtures so each 210-trial sweep
executes once.
"""
from __future__ import annotations

import json
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from armdesign.cli import main as cli_main
from armdesign.kinematics import (
    GravityModel,
    forward_kinematics,
    gravity_torque,
    position_jacobian,
    solve_ik,
)
from armdesign.orchestrator import RunMode, source_for_iteration
from armdesign.pareto import hypervolume_2d, pareto_front
from armdesign.space import SpaceConfig, random_sample
from armdesign.tpe import SampleSource

from conftest import random_posture
from pareto_oracle import dominates
from test_kinematics import fd_gravity_torque, fd_jacobian
from test_tpe import run_toy_problem

REPO = Path(__file__).resolve().parent.parent
SPACE = SpaceConfig(n_joints=4)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """One full 210-trial run through the CLI (mock LLM backend), timed."""
    out = tmp_path_factory.mktemp("full-run")
    exp = out / "full.experiment"
    exp.write_text(
        json.dumps(
            {
                "name": "acceptance-full",
                "targets": str(REPO / "targets" / "target1.json"),
                "mode": "bbo-llm-plus",
                "seeds": [0],
                "n_init": 10,
                "n_step": 10,
                "n_total": 200,
                "backend": {"kind": "mock-heuristic"},
                "out_dir": str(out / "artifacts"),
            }
        )
    )
    start = time.perf_counter()
    code = cli_main(["run", "--experiment", str(exp)])
    elapsed = time.perf_counter() - start
    assert code == 0
    return out / "artifacts", elapsed


def test_criterion_1_gravity_torque_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    gravity = GravityModel()
    worst = 0.0
    for _ in range(100):
        p = random_sample(rng, SPACE)
        q = random_posture(rng, 4)
        analytic = gravity_torque(p, q, gravity)
        numeric = fd_gravity_torque(p, q, gravity, eps=1e-6)
        scale = max(np.abs(numeric).max(), 1e-9)
        worst = max(worst, float(np.abs(analytic - numeric).max() / scale))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst < 1e-5 and elapsed < 5.0,
        f"gravity torque vs energy finite differences: max rel err {worst:.2e} "
        f"(limit 1e-5), {elapsed:.1f}s (limit 5s)",
    )


def test_criterion_2_jacobian_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        p = random_sample(rng, SPACE)
        q = random_posture(rng, 4)
        worst = max(worst, float(np.abs(position_jacobian(p, q) - fd_jacobian(p, q, eps=1e-6)).max()))
    elapsed = time.perf_counter() - start
    report(
        2,
        worst < 1e-6 and elapsed < 5.0,
        f"jacobian vs FK finite differences: max abs err {worst:.2e} "
        f"(limit 1e-6), {elapsed:.1f}s (limit 5s)",
    )


def test_criterion_3_ik_self_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(23)
    solved = 0
    max_iters_seen = 0
    n_cases = 200
    for _ in range(n_cases):
        p = random_sample(rng, SPACE)
        target = forward_kinematics(p, random_posture(rng, 4))
        sol = solve_ik(p, target)
        max_iters_seen = max(max_iters_seen, sol.iterations)
        if sol.residual < 1e-3:
            solved += 1
    elapsed = time.perf_counter() - start
    report(
        3,
        solved >= 0.95 * n_cases and max_iters_seen <= 300 and elapsed < 30.0,
        f"IK re-solves reachable targets: {solved}/{n_cases} under 1e-3 m "
        f"(needs >=190), max iterations {max_iters_seen}, {elapsed:.1f}s (limit 30s)",
    )


def test_criterion_4_pareto_and_hypervolume_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(104)

    front_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 201))
        values = rng.uniform(0, 6, size=(n, 2))
        if n > 2:
            values[1] = values[0]
        brute = [
            i
            for i, a in enumerate(values)
            if not any(dominates(b, a) for j, b in enumerate(values) if j != i)
        ]
        records = [SimpleNamespace(i=i, objectives=v) for i, v in enumerate(values)]
        if [r.i for r in pareto_front(records)] != brute:
            front_ok = False
            break

    worst_rel = 0.0
    for _ in range(20):
        values = rng.uniform(0, 5, size=(int(rng.integers(3, 30)), 2))
        exact = hypervolume_2d(values, (5.0, 5.0))
        lo = values.min(axis=0)
        box = (5.0 - lo[0]) * (5.0 - lo[1])
        pts = rng.uniform(lo, [5.0, 5.0], size=(1_000_000, 2))
        covered = np.zeros(len(pts), dtype=bool)
        for p in values:
            covered |= (pts[:, 0] >= p[0]) & (pts[:, 1] >= p[1])
        estimate = box * covered.mean()
        worst_rel = max(worst_rel, abs(exact - estimate) / exact)
    elapsed = time.perf_counter() - start
    report(
        4,
        front_ok and worst_rel < 0.005 and elapsed < 60.0,
        f"pareto front exact vs brute force on 100 sets: {front_ok}; hypervolume vs "
        f"1e6-sample Monte Carlo on 20 fronts: worst rel dev {worst_rel:.2%} "
        f"(limit 0.5%), {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_5_schedule_conformance(full_run):
    run_dir, _ = full_run
    slots_50 = sum(
        source_for_iteration(t, RunMode.BBO_LLM_PLUS, 50) is SampleSource.LLM
        for t in range(1, 201)
    )
    slots_10 = sum(
        source_for_iteration(t, RunMode.BBO_LLM_PLUS, 10) is SampleSource.LLM
        for t in range(1, 201)
    )
    ledger = (run_dir / "seed_0" / "ledger.jsonl").read_text().strip().splitlines()
    rows = [json.loads(line) for line in ledger]
    llm_slot_trials = sum(1 for r in rows if r["source"] == "llm" or r["fallback"])
    report(
        5,
        slots_50 == 4 and slots_10 == 20 and len(rows) == 210 and llm_slot_trials == 20,
        f"schedule: n_step=50 -> {slots_50} LLM slots (needs 4), n_step=10 -> {slots_10} "
        f"(needs 20); real ledger has {len(rows)} records (needs 210) with "
        f"{llm_slot_trials} LLM-slot trials",
    )


def test_criterion_6_motpe_effectiveness():
    start = time.perf_counter()
    seeds = range(5)
    tpe_hv = [run_toy_problem(s, True, 200, SPACE) for s in seeds]
    rnd_hv = [run_toy_problem(s, False, 200, SPACE) for s in seeds]
    tpe_med, rnd_med = float(np.median(tpe_hv)), float(np.median(rnd_hv))
    elapsed = time.perf_counter() - start
    report(
        6,
        tpe_med > rnd_med and elapsed < 120.0,
        f"toy bi-objective: TPE median hv {tpe_med:.3f} vs random {rnd_med:.3f} "
        f"after 200 trials x 5 seeds, {elapsed:.1f}s (limit 2min)",
    )


def test_criterion_7_hybrid_directional_check(tmp_path):
    start = time.perf_counter()
    bbo_out = tmp_path / "bbo"
    llm_out = tmp_path / "llm"
    assert (
        cli_main(
            ["run", "--experiment", str(REPO / "experiments" / "target1_mock.experiment"),
             "--out", str(bbo_out)]
        )
        == 0
    )
    assert (
        cli_main(
            ["run", "--experiment", str(REPO / "experiments" / "target1_llm_plus_mock.experiment"),
             "--out", str(llm_out)]
        )
        == 0
    )
    for seed in range(5):
        ledger = (bbo_out / f"seed_{seed}" / "ledger.jsonl").read_text().strip().splitlines()
        assert len(ledger) == 210
    bbo_mean = json.loads((bbo_out / "summary.json").read_text())["final_hv_mean"]
    llm_mean = json.loads((llm_out / "summary.json").read_text())["final_hv_mean"]
    elapsed = time.perf_counter() - start
    report(
        7,
        llm_mean >= 1.05 * bbo_mean and elapsed < 300.0,
        f"hybrid vs BBO-only mean final hv over 5 seeds: {llm_mean:.3f} vs {bbo_mean:.3f} "
        f"(needs >= +5%), {elapsed:.0f}s (limit 5min)",
    )


def test_criterion_8_cmd_run_determinism(tmp_path):
    exp = REPO / "experiments" / "quick_mock.experiment"
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", "--experiment", str(exp), "--out", str(out_a)]) == 0
    assert cli_main(["run", "--experiment", str(exp), "--out", str(out_b)]) == 0
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    identical = files_a == files_b and all(
        (out_a / rel).read_bytes() == (out_b / rel).read_bytes() for rel in files_a
    )
    kinds = {p.name for p in files_a}
    covered = any(n.endswith(".jsonl") for n in kinds) and any(
        n.startswith("iter_") for n in kinds
    )
    report(
        8,
        identical and covered,
        f"two cmd_run executions byte-identical across {len(files_a)} artifacts "
        "(ledgers, curves, transcripts)",
    )


def test_criterion_9_end_to_end_desk_scale(full_run):
    run_dir, elapsed = full_run
    ledger = (run_dir / "seed_0" / "ledger.jsonl").read_text().strip().splitlines()
    report(
        9,
        len(ledger) == 210 and elapsed < 60.0,
        f"full 210-trial run (mock backend, D=4, 5 targets) via cmd_run in {elapsed:.1f}s "
        "(limit 60s)",
    )
