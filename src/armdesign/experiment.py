"""Experiment files: a JSON document defining one replication sweep.

Schema. "targets" is required, and so are "backend" in the LLM modes and
"kind" in every backend block; every other key may be left out, and then takes
the default of the dataclass it sets (RunConfig, BackendConfig), shown in
parentheses:

    {
      "name": "target1-bbo",                              (file stem)
      "targets": {"name": "...", "points": [[x, y, z], ...]},
      "mode": "bbo" | "bbo-llm-minus" | "bbo-llm-plus",   (bbo)
      "seeds": [0, 1, 2, 3, 4],                           ([0]; distinct, >= 0)
      "n_init": 10, "n_step": 10, "n_total": 200,
      "ref_point": [5.0, 5.0],                            (an array of two finite numbers)
      "backend": {"kind": "mock-heuristic" | "mock-script" | "http",
                  "script": "...", "base_url": "...", "model": "...",
                  "token_env": "ARMDESIGN_API_TOKEN", "timeout": 60.0,
                  "decoding": {...}},                     (none)
      "out_dir": "runs/target1-bbo"                       (runs/<name>)
    }

The backend block must be an object, checked at load in every mode: a known
"kind", "script" for mock-script, "base_url" and "model" for http, a JSON
number > 0 and finite for "timeout" (s) and an object for "decoding".
BackendConfig.make reads the http token when a run builds the backend.

Seeds and n_* keys must be integers (5.0 loads as 5; 2.5 or true is rejected,
never truncated), and each target point an array of JSON numbers ("0.1" or
true is rejected). Keys not named above, at the top level or inside "backend",
are rejected with ExperimentError, "alpha", "n_pareto", "n_random" and
"n_joints" among them: the torque weight, the feedback sizes and D are the
constants evaluation.ALPHA, llm.FEEDBACK_PARETO, llm.FEEDBACK_RANDOM and
orchestrator.SPACE (D = 4). The reference
point scores both the hypervolume curve and the TPE good/bad split.

Targets may also live in their own file ({"name", "points"}) referenced as
"targets": "path/to/targets.json"; relative paths (targets, backend script,
out_dir) resolve against the experiment file's directory.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from .evaluation import TargetSet
from .llm import BackendConfig
from .orchestrator import RunConfig, RunMode


class ExperimentError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    base: RunConfig  # seed field is a placeholder; per-seed configs come from configs()
    seeds: tuple[int, ...]
    out_dir: Path

    def __post_init__(self) -> None:
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ExperimentError(f"the seed list must be non-empty and distinct, got {list(self.seeds)}")
        try:
            self.configs()  # RunConfig rejects a negative seed
        except ValueError as exc:
            raise ExperimentError(str(exc)) from exc

    def configs(self) -> list[RunConfig]:
        return [replace(self.base, seed=s) for s in self.seeds]


def load_targets(source, base_dir: Path | None = None) -> TargetSet:
    """Accept an inline {"name", "points"} mapping or a path to one."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        try:
            source = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ExperimentError(f"cannot read targets file {path}: {exc}") from exc
    if not isinstance(source, dict):
        raise ExperimentError(f"malformed target set: expected an object, got {type(source).__name__}")
    try:
        points = [json_numbers(p) for p in source["points"]]
        return TargetSet(name=str(source.get("name", "targets")), points=points)
    except (KeyError, TypeError, ValueError) as exc:
        raise ExperimentError(f"malformed target set: {exc}") from exc


def _load_backend(raw, base_dir: Path) -> BackendConfig:
    if not isinstance(raw, dict):
        raise ExperimentError(f"backend must be an object, got {raw!r}")
    raw = dict(raw)
    unknown = set(raw) - {"kind", "script", "base_url", "model", "token_env", "timeout", "decoding"}
    if unknown:
        raise ExperimentError(f"unknown backend keys: {sorted(unknown)}")
    if "kind" not in raw:
        raise ExperimentError(f"backend needs a kind, got {raw!r}")
    for key in ("script", "base_url", "model", "token_env"):
        if key in raw and not isinstance(raw[key], str):
            raise ExperimentError(f"backend {key} must be a string, got {raw[key]!r}")
    script = raw.pop("script", None)
    if script is not None:
        raw["script_path"] = str(base_dir / script)  # an absolute script path stays as it is
    if "timeout" in raw:
        timeout = raw["timeout"]
        if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
            raise ExperimentError(f"backend timeout must be a number, got {timeout!r}")
        raw["timeout"] = float(timeout)
    if "decoding" in raw:
        if not isinstance(raw["decoding"], dict):
            raise ExperimentError(f"backend decoding must be an object, got {raw['decoding']!r}")
        raw["decoding"] = tuple(sorted(raw["decoding"].items()))
    return BackendConfig(**raw)


def json_integer(value) -> int:
    """A JSON integer, or a float with no fractional part; a boolean is not one."""
    if isinstance(value, bool) or not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def json_numbers(value) -> tuple[float, ...]:
    """A JSON array of numbers; a string or a boolean is not one."""
    if not isinstance(value, list) or any(isinstance(x, (bool, str)) for x in value):
        raise ValueError(f"expected an array of numbers, got {value!r}")
    return tuple(map(float, value))


# optional top-level keys that go straight into RunConfig, with their converters
_RUN_KEYS = {
    "n_init": json_integer,
    "n_step": json_integer,
    "n_total": json_integer,
    "ref_point": json_numbers,
}
_KNOWN_KEYS = {"name", "targets", "mode", "seeds", "backend", "out_dir", *_RUN_KEYS}


def load_experiment(path) -> ExperimentSpec:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ExperimentError(f"cannot read experiment file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ExperimentError(f"experiment file {path} must hold a JSON object, got {type(raw).__name__}")

    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise ExperimentError(f"unknown experiment keys: {sorted(unknown)}")
    if "targets" not in raw:
        raise ExperimentError("experiment file is missing 'targets'")
    targets = load_targets(raw["targets"], base_dir=path.parent)
    settings = {}
    if "mode" in raw:
        try:
            settings["mode"] = RunMode(raw["mode"])
        except ValueError as exc:
            raise ExperimentError(f"unknown mode {raw['mode']!r}") from exc
    try:
        settings.update((k, convert(raw[k])) for k, convert in _RUN_KEYS.items() if k in raw)
        if "backend" in raw:
            settings["backend"] = _load_backend(raw["backend"], path.parent)
        base = RunConfig(targets=targets, **settings)
        seeds = tuple(map(json_integer, raw.get("seeds", [0])))
        out_dir = Path(raw.get("out_dir", f"runs/{raw.get('name', path.stem)}"))
    except (TypeError, ValueError) as exc:
        raise ExperimentError(f"invalid experiment settings: {exc}") from exc
    if not out_dir.is_absolute():
        out_dir = path.parent / out_dir
    return ExperimentSpec(
        name=str(raw.get("name", path.stem)), base=base, seeds=seeds, out_dir=out_dir
    )
