from __future__ import annotations

from pathlib import Path

import kinematics_oracle
import numpy as np
import pytest
import tpe_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from armdesign import evaluation, orchestrator, tpe
from armdesign.evaluation import TargetSet
from armdesign.experiment import load_experiment
from armdesign.ledger import aggregate_csv, trial_to_json
from armdesign.llm import BackendConfig
from armdesign.orchestrator import (
    RunConfig,
    RunMode,
    run,
    source_for_iteration,
)
from armdesign.pareto import ObjectiveValues, hypervolume_2d, pareto_front
from armdesign.space import make_params
from armdesign.tpe import SampleSource, TrialRecord
from pareto_oracle import dominates

REPO = Path(__file__).resolve().parent.parent
TARGETS = TargetSet("t", ((0.3, 0.0, 0.5), (-0.3, 0.0, 0.5), (0.0, 0.0, 0.7)))


def small_config(**overrides) -> RunConfig:
    defaults = dict(
        targets=TARGETS,
        mode=RunMode.BBO,
        n_init=5,
        n_step=4,
        n_total=20,
        seed=0,
        backend=BackendConfig(kind="mock-heuristic"),
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def test_schedule_slot_counts():
    llm_slots = [
        t
        for t in range(1, 201)
        if source_for_iteration(t, RunMode.BBO_LLM_PLUS, 50) is SampleSource.LLM
    ]
    assert llm_slots == [1, 51, 101, 151]
    n10 = sum(
        source_for_iteration(t, RunMode.BBO_LLM_PLUS, 10) is SampleSource.LLM
        for t in range(1, 201)
    )
    assert n10 == 20
    assert all(
        source_for_iteration(t, RunMode.BBO, 10) is SampleSource.BBO for t in range(1, 201)
    )


def test_run_ledger_shape_and_sources():
    result = run(small_config(mode=RunMode.BBO_LLM_PLUS))
    assert len(result.ledger) == 25
    assert [t.id for t in result.ledger] == list(range(25))
    warmup, rest = result.ledger[:5], result.ledger[5:]
    assert all(t.source is SampleSource.RANDOM for t in warmup)
    scheduled = [source_for_iteration(t, RunMode.BBO_LLM_PLUS, 4) for t in range(1, 21)]
    for trial, expected in zip(rest, scheduled):
        if expected is SampleSource.LLM:
            assert trial.source is SampleSource.LLM or (
                trial.source is SampleSource.BBO and trial.fallback
            )
        else:
            assert trial.source is SampleSource.BBO and not trial.fallback


def test_run_deterministic():
    a = run(small_config(mode=RunMode.BBO_LLM_MINUS))
    b = run(small_config(mode=RunMode.BBO_LLM_MINUS))
    assert [t.params for t in a.ledger] == [t.params for t in b.ledger]
    assert [t.objectives for t in a.ledger] == [t.objectives for t in b.ledger]
    np.testing.assert_array_equal(a.hv_curve, b.hv_curve)
    assert a.transcripts == b.transcripts


def test_hv_curve_non_decreasing_and_matches_front():
    result = run(small_config())
    assert np.all(np.diff(result.hv_curve) >= 0)
    expected = hypervolume_2d([t.objectives for t in pareto_front(result.ledger)], result.config.ref_point)
    assert result.hv_curve[-1] == expected


def test_archive_equals_brute_force_front_at_every_step():
    result = run(small_config())
    cfg = result.config
    for t in range(1, cfg.n_total + 1):
        seen = [tr.objectives for tr in result.ledger[: cfg.n_init + t]]
        brute = [
            v for i, v in enumerate(seen)
            if not any(dominates(w, v) for j, w in enumerate(seen) if j != i)
        ]
        assert result.hv_curve[t - 1] == hypervolume_2d(brute, cfg.ref_point)


@st.composite
def histories(draw):
    """(trials, n_init, ref): 0-60 trials, a leading run of random ones then bbo and llm, scored on a small
    integer grid (so duplicates and ties are common) that reaches to and past the reference point."""
    n = draw(st.integers(0, 60))
    n_init = draw(st.integers(0, n))
    later = st.sampled_from([SampleSource.BBO, SampleSource.LLM])
    sources = [SampleSource.RANDOM] * n_init + draw(st.lists(later, min_size=n - n_init, max_size=n - n_init))
    pairs = draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=n, max_size=n))
    ref = draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
    params = make_params((0, 0, 0), "YPRP", [0.1] * 4)
    trials = [
        TrialRecord(i, source, params, ObjectiveValues(float(a), float(b)))
        for i, (source, (a, b)) in enumerate(zip(sources, pairs))
    ]
    return trials, n_init, (float(ref[0]), float(ref[1]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(histories())
def test_curve_equals_brute_force_front_of_every_prefix(case):
    trials, n_init, ref = case
    curve = orchestrator.hypervolume_curve(trials, ref)
    assert len(curve) == len(trials) - n_init
    for k in range(len(curve)):
        seen = [t.objectives for t in trials[: n_init + k + 1]]
        brute = [v for i, v in enumerate(seen) if not any(dominates(w, v) for j, w in enumerate(seen) if j != i)]
        assert curve[k] == hypervolume_2d(brute, ref)


def test_llm_failure_falls_back_to_bbo(tmp_path):
    import json

    # two responses feed exactly one slot; later slots hit the exhausted script
    script = tmp_path / "script.json"
    script.write_text(
        json.dumps(
            {"responses": ["thinking", "[0.0, 0.0, 0.0] [Y, P, R, P] [0.1, 0.1, 0.1, 0.1]"]}
        )
    )
    cfg = small_config(
        mode=RunMode.BBO_LLM_PLUS,
        backend=BackendConfig(kind="mock-script", script_path=str(script)),
    )
    result = run(cfg)
    llm_trials = [t for t in result.ledger if t.source is SampleSource.LLM]
    fallbacks = [t for t in result.ledger if t.fallback]
    scheduled = sum(
        source_for_iteration(t, cfg.mode, cfg.n_step) is SampleSource.LLM for t in range(1, 21)
    )
    assert len(llm_trials) == 1
    assert len(llm_trials) + len(fallbacks) == scheduled
    assert all(t.source is SampleSource.BBO for t in fallbacks)
    # every scheduled slot leaves a transcript, including the failed ones
    assert len(result.transcripts) == scheduled


def test_llm_run_without_warmup_prompts_with_no_feedback():
    cfg = small_config(mode=RunMode.BBO_LLM_PLUS, n_init=0)
    result = run(cfg)
    assert len(result.ledger) == cfg.n_total
    assert result.ledger[0].source is SampleSource.LLM
    first, later = result.transcripts[1][0].prompt, result.transcripts[1 + cfg.n_step][0].prompt
    assert "Previously evaluated designs" not in first
    assert "Previously evaluated designs" in later


def test_bbo_mode_never_calls_backend():
    cfg = small_config(backend=BackendConfig(kind="mock-script", script_path="/nonexistent"))
    result = run(cfg)  # would raise if the script were opened
    assert result.transcripts == {}
    assert all(not t.fallback for t in result.ledger)


def aggregate_table(curves) -> np.ndarray:
    """hv_aggregate.csv's rows for a list of curves, as (iteration, mean, std) floats."""
    rows = aggregate_csv(np.stack(curves)).splitlines()
    assert rows[0] == "iteration,mean,std"
    return np.array([row.split(",") for row in rows[1:]], dtype=float)


def test_aggregate_identical_curves_has_zero_std():
    results = [run(small_config()), run(small_config())]
    table = aggregate_table([r.hv_curve for r in results])
    np.testing.assert_array_equal(table[:, 0], np.arange(1, 21))
    np.testing.assert_array_equal(table[:, 2], np.zeros(20))
    np.testing.assert_array_equal(table[:, 1], results[0].hv_curve)


def test_aggregate_mean_and_population_sigma():
    a = run(small_config(seed=1)).hv_curve
    b = a + 2.0
    table = aggregate_table([a, b])
    np.testing.assert_allclose(table[:, 1], a + 1.0)
    np.testing.assert_allclose(table[:, 2], np.ones(20))  # a sample sigma would read sqrt(2)
    assert table[:, 1].mean() == pytest.approx(float(np.mean(a)) + 1.0)
    assert table[:, 2].mean() == pytest.approx(1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(targets=TARGETS, n_step=0)
    with pytest.raises(ValueError):
        RunConfig(targets=TARGETS, n_total=0)
    with pytest.raises(ValueError):
        source_for_iteration(0, RunMode.BBO, 5)
    assert RunConfig(targets=TARGETS).backend is None  # bbo builds no backend
    for mode in (RunMode.BBO_LLM_MINUS, RunMode.BBO_LLM_PLUS):
        with pytest.raises(ValueError, match=f"mode {mode.value} needs a backend object"):
            RunConfig(targets=TARGETS, mode=mode)


def test_tpe_ranks_against_the_run_reference_point(monkeypatch):
    seen = []
    split = tpe.split_observations

    def spy(values, gamma, ref_point):
        seen.append(ref_point)
        return split(values, gamma, ref_point)

    monkeypatch.setattr(tpe, "split_observations", spy)
    run(small_config(ref_point=(50.0, 50.0)))
    assert seen and set(seen) == {(50.0, 50.0)}


@pytest.mark.parametrize("experiment", ["target1_mock", "target1_llm_plus_mock"])
def test_sweep_writes_the_ledgers_of_the_reference_loops(experiment, monkeypatch):
    """Every seed's ledger is the same text with solve_ik and suggest swapped for the plain loops they replaced.

    The swapped-in loops count their calls, so a run that went round them fails here.
    """
    configs = load_experiment(REPO / "experiments" / f"{experiment}.experiment").configs()
    ledgers = [run(c).ledger for c in configs]
    calls = {"solve_ik": 0, "suggest": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(evaluation, "solve_ik", counted("solve_ik", kinematics_oracle.solve_ik_reference))
    monkeypatch.setattr(
        orchestrator,
        "suggest",
        counted(
            "suggest",
            lambda rng, table, cfg, space, ref_point: tpe_oracle.suggest_one_draw_at_a_time(
                rng, table.records, cfg, space, ref_point
            ),
        ),
    )
    reference = [[trial_to_json(t) for t in run(c).ledger] for c in configs]
    assert reference == [[trial_to_json(t) for t in ledger] for ledger in ledgers]
    assert calls == {  # once per target of every trial, and once per BBO slot (an LLM fallback included)
        "solve_ik": sum((c.n_init + c.n_total) * len(c.targets.points) for c in configs),
        "suggest": sum(t.source is SampleSource.BBO for ledger in ledgers for t in ledger),
    }
    assert calls["suggest"] > 0
