"""On-disk artifacts: line-delimited trial ledgers, hypervolume CSVs, transcripts.

Every writer is deterministic (fixed key order, repr float formatting, no
timestamps) so repeated runs with the same inputs produce byte-identical
files. Readers are strict: a corrupt ledger or curve line is reported with its
number.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .evaluation import TargetOutcome
from .experiment import json_integer, json_numbers
from .orchestrator import RunResult
from .pareto import DEFAULT_REF_POINT, ObjectiveValues, pareto_front
from .space import from_vector, to_vector
from .tpe import SampleSource, TrialRecord


class LedgerError(ValueError):
    pass


def trial_to_json(trial: TrialRecord) -> str:
    row = {
        "id": trial.id,
        "source": trial.source.value,
        "fallback": trial.fallback,
        "vector": to_vector(trial.params),
        "objectives": [trial.objectives.e_pos, trial.objectives.e_torque],
        "per_target": [
            {
                "target": list(o.target),
                "reached": list(o.reached),
                "torque": list(o.torque),
                "e_pos": o.e_pos,
                "e_torque": o.e_torque,
                "converged": o.converged,
                "residual": o.e_pos,
                "iterations": o.iterations,
            }
            for o in trial.per_target
        ],
    }
    return json.dumps(row, separators=(", ", ": "))


def _boolean(value) -> bool:
    """A JSON boolean; a string or a number is not one."""
    if not isinstance(value, bool):
        raise ValueError(f"expected a boolean, got {value!r}")
    return value


def _parse_outcome(row: dict) -> TargetOutcome:
    """One per_target object as an outcome; its residual key, a copy of e_pos, is not read."""
    target, reached, torque = (json_numbers(row[key]) for key in ("target", "reached", "torque"))
    e_pos, e_torque = json_numbers([row["e_pos"], row["e_torque"]])
    if len(target) != 3 or len(reached) != 3:
        raise ValueError("a target and a reached point need 3 values each")
    if not all(map(math.isfinite, (*target, *reached, *torque, e_pos, e_torque))):
        raise ValueError("non-finite per-target value")
    converged, iterations = _boolean(row["converged"]), json_integer(row["iterations"])
    return TargetOutcome(target, reached, torque, e_pos, e_torque, converged, iterations)


def parse_ledger_line(line: str, lineno: int) -> TrialRecord:
    """One ledger line as a trial, with its per-target outcomes.

    JSON admits NaN and Infinity, so a non-finite value among the objectives,
    the vector or the outcomes is rejected here: the dominance sweep and the
    hypervolume assume finite pairs, and an evaluation writes finite outcomes.
    Values keep their JSON types, as in an experiment file: "0.5", true, an id
    of 2.7 or a "fallback" of "false" is rejected, never coerced.
    """
    try:
        row = json.loads(line)
        trial = TrialRecord(
            id=json_integer(row["id"]),
            source=SampleSource(row["source"]),
            params=from_vector(json_numbers(row["vector"])),
            objectives=ObjectiveValues(*json_numbers(row["objectives"])),
            per_target=tuple(map(_parse_outcome, row["per_target"])),
            fallback=_boolean(row["fallback"]),
        )
        if not all(map(math.isfinite, (*trial.objectives, *to_vector(trial.params)))):
            raise ValueError("non-finite objective or vector value")
        return trial
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise LedgerError(f"line {lineno}: corrupt ledger record ({exc})") from exc


def write_ledger(path: Path, trials: list[TrialRecord]) -> None:
    text = "".join(trial_to_json(t) + "\n" for t in trials)
    path.write_text(text, encoding="utf-8")


def read_ledger(path: Path) -> list[TrialRecord]:
    with open(path, encoding="utf-8") as fh:
        return [parse_ledger_line(line, n) for n, line in enumerate(fh, start=1) if line.strip()]


def format_hv(value: float) -> str:
    return repr(float(value))


def _iteration_csv(header: str, *columns) -> str:
    """One row per iteration: its 1-based number, then each column's value."""
    rows = [",".join([str(t + 1), *map(format_hv, row)]) for t, row in enumerate(zip(*columns))]
    return "\n".join([header, *rows]) + "\n"


def write_curve_csv(path: Path, hv_curve) -> None:
    path.write_text(_iteration_csv("iteration,hv", hv_curve), encoding="utf-8")


def read_curve_csv(path: Path) -> np.ndarray:
    """The hv column of a curve written by write_curve_csv; any other shape is a LedgerError."""
    lines = path.read_text(encoding="utf-8").rstrip().splitlines()
    if not lines or lines[0] != "iteration,hv":
        raise LedgerError(f"{path}: line 1: expected the header 'iteration,hv'")
    curve = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        try:
            if len(fields) != 2 or fields[0] != str(lineno - 1):
                raise ValueError(f"expected '{lineno - 1},<hv>', got {line!r}")
            curve.append(float(fields[1]))
        except ValueError as exc:
            raise LedgerError(f"{path}: line {lineno}: corrupt curve row ({exc})") from exc
    return np.array(curve)


def aggregate_csv(curves: np.ndarray) -> str:
    """The table of hv_aggregate.csv, which `report` prints too: the pointwise
    mean and population sigma of a (seeds, iterations) stack of curves."""
    return _iteration_csv("iteration,mean,std", curves.mean(axis=0), curves.std(axis=0))


def read_ref_point(run_dir: Path) -> tuple[float, float]:
    """The reference point a run stored in run.json; DEFAULT_REF_POINT without one."""
    path = run_dir / "run.json"
    if not path.exists():
        return DEFAULT_REF_POINT
    try:
        ref = json_numbers(json.loads(path.read_text(encoding="utf-8"))["ref_point"])
        if len(ref) != 2 or not all(map(math.isfinite, ref)):
            raise ValueError(f"need two finite numbers, got {ref!r}")
        return ref
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise LedgerError(f"{path}: malformed ref_point ({exc})") from exc


def write_run_artifacts(run_dir: Path, result: RunResult) -> None:
    """Persist one seeded run: ledger, curve, reference point, final front, LLM transcripts."""
    run_dir.mkdir(parents=True, exist_ok=True)
    write_ledger(run_dir / "ledger.jsonl", result.ledger)
    write_curve_csv(run_dir / "hv_curve.csv", result.hv_curve)
    (run_dir / "run.json").write_text(
        json.dumps({"ref_point": [float(v) for v in result.config.ref_point]}) + "\n",
        encoding="utf-8",
    )

    front = [
        {
            "id": t.id,
            "source": t.source.value,
            "vector": to_vector(t.params),
            "objectives": [t.objectives.e_pos, t.objectives.e_torque],
        }
        for t in pareto_front(result.ledger)
    ]
    (run_dir / "pareto.json").write_text(
        json.dumps({"front": front}, indent=2) + "\n", encoding="utf-8"
    )

    tdir = run_dir / "transcripts"
    for stale in tdir.glob("iter_*.json"):  # a rerun into this directory replaces the last run's
        stale.unlink()
    if result.transcripts:
        tdir.mkdir(exist_ok=True)
        for iteration, entries in sorted(result.transcripts.items()):
            payload = [
                {"prompt": e.prompt, "response": e.response, "error": e.error} for e in entries
            ]
            (tdir / f"iter_{iteration:05d}.json").write_text(
                json.dumps(payload, indent=2) + "\n", encoding="utf-8"
            )
    elif tdir.is_dir() and not any(tdir.iterdir()):
        tdir.rmdir()
