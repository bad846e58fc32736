"""On-disk artifacts: line-delimited trial ledgers, hypervolume CSVs, transcripts.

Every writer is deterministic (fixed key order, repr float formatting, no
timestamps) so repeated runs with the same inputs produce byte-identical
files. Readers are strict: a corrupt ledger line is reported with its number.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .orchestrator import AggregateResult, RunResult
from .pareto import ObjectiveValues, hypervolume_2d, pareto_front
from .space import to_vector
from .tpe import TrialRecord


class LedgerError(ValueError):
    pass


def trial_to_json(trial: TrialRecord) -> str:
    row = {
        "id": trial.id,
        "source": trial.source.value,
        "fallback": trial.fallback,
        "vector": [float(v) for v in to_vector(trial.params)],
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
            for o in (trial.report.per_target if trial.report else ())
        ],
    }
    return json.dumps(row, separators=(", ", ": "))


@dataclass(frozen=True)
class LedgerRow:
    """One parsed ledger line; enough to recompute curves and fronts."""

    id: int
    source: str
    fallback: bool
    vector: tuple[float, ...]
    objectives: ObjectiveValues
    per_target: tuple[dict, ...]


def parse_ledger_line(line: str, lineno: int) -> LedgerRow:
    try:
        row = json.loads(line)
        return LedgerRow(
            id=int(row["id"]),
            source=str(row["source"]),
            fallback=bool(row["fallback"]),
            vector=tuple(float(v) for v in row["vector"]),
            objectives=ObjectiveValues(*(float(v) for v in row["objectives"])),
            per_target=tuple(row.get("per_target", ())),
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise LedgerError(f"line {lineno}: corrupt ledger record ({exc})") from exc


def write_ledger(path: Path, trials: list[TrialRecord]) -> None:
    text = "".join(trial_to_json(t) + "\n" for t in trials)
    path.write_text(text, encoding="utf-8")


def read_ledger(path: Path) -> list[LedgerRow]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                rows.append(parse_ledger_line(line, lineno))
    return rows


def format_hv(value: float) -> str:
    return repr(float(value))


def write_curve_csv(path: Path, hv_curve) -> None:
    lines = ["iteration,hv"]
    lines += [f"{t + 1},{format_hv(v)}" for t, v in enumerate(hv_curve)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_curve_csv(path: Path) -> np.ndarray:
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    return np.array([float(line.split(",")[1]) for line in lines[1:]])


def write_aggregate_csv(path: Path, agg: AggregateResult) -> None:
    lines = ["iteration,mean,std"]
    lines += [
        f"{t + 1},{format_hv(m)},{format_hv(s)}"
        for t, (m, s) in enumerate(zip(agg.mean, agg.std))
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def recompute_curve(rows: list[LedgerRow], ref_point) -> np.ndarray:
    """Rebuild the hypervolume curve from ledger rows alone.

    Warmup is the leading run of random-source rows; the curve covers the
    iterations after it, over the cumulative archive including warmup.
    """
    n_init = 0
    while n_init < len(rows) and rows[n_init].source == "random":
        n_init += 1
    archive = pareto_front(rows[:n_init])
    curve = np.empty(len(rows) - n_init)
    for k, row in enumerate(rows[n_init:]):
        archive = pareto_front([*archive, row])
        curve[k] = hypervolume_2d([r.objectives for r in archive], ref_point)
    return curve


def write_run_artifacts(run_dir: Path, result: RunResult) -> None:
    """Persist one seeded run: ledger, curve, final front, LLM transcripts."""
    run_dir.mkdir(parents=True, exist_ok=True)
    write_ledger(run_dir / "ledger.jsonl", result.ledger)
    write_curve_csv(run_dir / "hv_curve.csv", result.hv_curve)

    front = [
        {
            "id": t.id,
            "source": t.source.value,
            "vector": [float(v) for v in to_vector(t.params)],
            "objectives": [t.objectives.e_pos, t.objectives.e_torque],
        }
        for t in result.archive
    ]
    (run_dir / "pareto.json").write_text(
        json.dumps({"front": front}, indent=2) + "\n", encoding="utf-8"
    )

    if result.transcripts:
        tdir = run_dir / "transcripts"
        tdir.mkdir(exist_ok=True)
        for iteration, entries in sorted(result.transcripts.items()):
            payload = [
                {"prompt": e.prompt, "response": e.response, "error": e.error} for e in entries
            ]
            (tdir / f"iter_{iteration:05d}.json").write_text(
                json.dumps(payload, indent=2) + "\n", encoding="utf-8"
            )
