from __future__ import annotations

import json
import re

import pytest

from armdesign.experiment import ExperimentError, load_experiment, load_targets
from armdesign.orchestrator import RunConfig, RunMode


def write(tmp_path, payload, name="exp.experiment"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


BASE = {
    "name": "exp",
    "targets": {"name": "t", "points": [[0.1, 0.2, 0.3], [0.0, 0.0, 0.5]]},
    "mode": "bbo-llm-minus",
    "seeds": [4, 5],
    "n_total": 50,
    "backend": {"kind": "mock-heuristic"},
}


def test_load_inline_targets_and_seeds(tmp_path):
    spec = load_experiment(write(tmp_path, BASE))
    assert spec.name == "exp"
    assert spec.base.mode is RunMode.BBO_LLM_MINUS
    assert spec.base.n_total == 50
    assert spec.base.n_init == 10  # default
    assert spec.seeds == (4, 5)
    configs = spec.configs()
    assert [c.seed for c in configs] == [4, 5]
    assert all(c.targets.points == ((0.1, 0.2, 0.3), (0.0, 0.0, 0.5)) for c in configs)


def test_integral_floats_load_as_integers(tmp_path):
    spec = load_experiment(write(tmp_path, dict(BASE, seeds=[4.0, 5], n_total=50.0)))
    assert spec.seeds == (4, 5) and all(type(s) is int for s in spec.seeds)
    assert spec.base.n_total == 50 and type(spec.base.n_total) is int


def test_targets_file_reference_resolves_relative(tmp_path):
    targets = tmp_path / "sub" / "targets.json"
    targets.parent.mkdir()
    targets.write_text(json.dumps({"name": "filed", "points": [[0, 0, 0.4]]}))
    payload = dict(BASE, targets="sub/targets.json")
    spec = load_experiment(write(tmp_path, payload))
    assert spec.base.targets.name == "filed"


def test_script_path_resolves_relative(tmp_path):
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"responses": []}))
    payload = dict(BASE, backend={"kind": "mock-script", "script": "script.json"})
    spec = load_experiment(write(tmp_path, payload))
    assert spec.base.backend.script_path == str(script)


def test_omitted_keys_take_the_dataclass_defaults(tmp_path):
    spec = load_experiment(write(tmp_path, {"targets": BASE["targets"]}))
    assert spec.base == RunConfig(targets=spec.base.targets)
    assert spec.base.backend is None  # a bbo run builds none
    assert spec.seeds == (0,)


@pytest.mark.parametrize("mode", ["bbo", "bbo-llm-plus"])
@pytest.mark.parametrize("bad", [5, None, ["m"]], ids=["number", "null", "list"])
@pytest.mark.parametrize("key", ["script", "base_url", "model", "token_env"])
def test_backend_string_fields_must_be_strings(tmp_path, key, bad, mode):
    # checked at load, in every mode, before os.environ or the URL join meets a number
    backend = {"kind": "http", "base_url": "http://h", "model": "m", key: bad}
    with pytest.raises(ExperimentError, match=re.escape(f"backend {key} must be a string, got {bad!r}")):
        load_experiment(write(tmp_path, dict(BASE, mode=mode, backend=backend)))


def test_load_targets_rejects_garbage(tmp_path):
    with pytest.raises(ExperimentError):
        load_targets(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"points": "nope"}))
    with pytest.raises(ExperimentError):
        load_targets(bad)
    for points in ([[0.1, 0.2]], [[0.1, 0.2, 0.3, 0.4]], [[0.1, 0.2, 0.3], []]):
        with pytest.raises(ExperimentError, match="target point must be 3 finite numbers"):
            load_targets({"points": points})
    # a string is not a point, and strings and booleans are not coordinates
    for points in (["123"], [["0.1", True, 0]]):
        with pytest.raises(ExperimentError, match="malformed target set: expected an array of numbers"):
            load_targets({"points": points})


def test_experiment_error_cases(tmp_path):
    with pytest.raises(ExperimentError, match="targets"):
        load_experiment(write(tmp_path, {"mode": "bbo"}, "a.experiment"))
    with pytest.raises(ExperimentError, match="mode"):
        load_experiment(write(tmp_path, dict(BASE, mode="annealing"), "b.experiment"))
    with pytest.raises(ExperimentError, match="seed"):
        load_experiment(write(tmp_path, dict(BASE, seeds=[]), "c.experiment"))
    with pytest.raises(ExperimentError, match="backend"):
        load_experiment(write(tmp_path, dict(BASE, backend={"flavor": "x"}), "d.experiment"))
    for i, bad in enumerate(([5.0], [5.0, 5.0, 5.0], [5.0, float("inf")], [float("nan"), 5.0])):
        with pytest.raises(ExperimentError, match="ref_point must be two finite numbers"):
            load_experiment(write(tmp_path, dict(BASE, ref_point=bad), f"e{i}.experiment"))
    for i, bad in enumerate(([5.0, None], 5.0)):
        with pytest.raises(ExperimentError, match="invalid experiment settings"):
            load_experiment(write(tmp_path, dict(BASE, ref_point=bad), f"g{i}.experiment"))
    # a string is not iterated into digits, and a boolean is not a number
    for i, bad in enumerate(("55", ["5", "5"], [True, 5.0], {"x": 5.0, "y": 5.0})):
        with pytest.raises(ExperimentError, match=re.escape(f"expected an array of numbers, got {bad!r}")):
            load_experiment(write(tmp_path, dict(BASE, ref_point=bad), f"r{i}.experiment"))
    with pytest.raises(ExperimentError, match="invalid experiment settings"):
        load_experiment(write(tmp_path, dict(BASE, seeds=["x"]), "h.experiment"))
    # integer settings are never truncated, and a boolean is not an integer
    not_integers = [("seeds", [1.9]), ("seeds", [0, True])]
    not_integers += [(key, 2.5) for key in ("n_init", "n_step", "n_total")]
    not_integers += [("n_total", 3.7), ("n_step", False)]
    for i, (key, bad) in enumerate(not_integers):
        shown = bad[-1] if isinstance(bad, list) else bad  # the seed the loader rejects
        with pytest.raises(ExperimentError, match=re.escape(f"expected an integer, got {shown!r}")):
            load_experiment(write(tmp_path, dict(BASE, **{key: bad}), f"i{i}.experiment"))
    for i, (backend, message) in enumerate(
        (
            ({"kind": "nope"}, "unknown backend kind 'nope'"),
            ({"kind": "mock-script"}, "mock-script backend needs script_path"),
            ({"kind": "http"}, "http backend needs base_url and model"),
            ({"kind": "http", "base_url": "http://h"}, "http backend needs base_url and model"),
            ({"kind": "mock-heuristic", "decoding": [1, 2]}, "backend decoding must be an object"),
            ({"kind": "mock-heuristic", "decoding": None}, "backend decoding must be an object"),
            # decoding adds sampling settings; the request builds the model and the prompt
            ({"kind": "mock-heuristic", "decoding": {"model": "x"}}, r"decoding cannot set \['model'\]"),
            ({"kind": "mock-heuristic", "decoding": {"messages": []}}, r"decoding cannot set \['messages'\]"),
            *(
                ({"kind": "mock-heuristic", "timeout": t}, "timeout must be a finite number > 0")
                for t in (-1, 0, float("inf"), float("nan"))
            ),
            # no kind is no backend: the mid-range mock is never a silent default
            ({}, re.escape("backend needs a kind, got {}")),
            ({"timeout": 30}, re.escape("backend needs a kind, got {'timeout': 30}")),
            ({"decoding": {}}, "backend needs a kind"),
            # a timeout is a JSON number; a boolean or a string is not one
            ({"kind": "mock-heuristic", "timeout": True}, "backend timeout must be a number, got True"),
            ({"kind": "mock-heuristic", "timeout": "45"}, "backend timeout must be a number, got '45'"),
            ({"kind": "mock-heuristic", "timeout": None}, "backend timeout must be a number, got None"),
        )
    ):
        with pytest.raises(ExperimentError, match=message):
            load_experiment(write(tmp_path, dict(BASE, backend=backend), f"b{i}.experiment"))
    # checked at load even where the run never builds the backend
    with pytest.raises(ExperimentError, match="http backend needs base_url and model"):
        load_experiment(write(tmp_path, dict(BASE, mode="bbo", backend={"kind": "http"}), "m.experiment"))
    # an LLM mode needs a backend object; an absent, null, false or list block is none
    no_backend = {k: v for k, v in BASE.items() if k != "backend"}
    with pytest.raises(ExperimentError, match="mode bbo-llm-minus needs a backend object"):
        load_experiment(write(tmp_path, no_backend, "n0.experiment"))
    for i, bad in enumerate((None, False, [], "mock-heuristic")):
        with pytest.raises(ExperimentError, match=re.escape(f"backend must be an object, got {bad!r}")):
            load_experiment(write(tmp_path, dict(BASE, backend=bad), f"n{i + 1}.experiment"))
        with pytest.raises(ExperimentError, match="backend must be an object"):  # in every mode
            load_experiment(write(tmp_path, dict(BASE, mode="bbo", backend=bad), f"nb{i}.experiment"))
    with pytest.raises(ExperimentError, match="seed must be >= 0, got -1"):
        load_experiment(write(tmp_path, dict(BASE, seeds=[0, -1]), "s1.experiment"))
    with pytest.raises(ExperimentError, match="seed list must be non-empty and distinct"):
        load_experiment(write(tmp_path, dict(BASE, seeds=[3, 1, 3]), "s2.experiment"))
    # the torque weight, the feedback sizes and D are constants, not keys
    for key, value in (("n_totl", 3), ("alpha", 40.0), ("n_pareto", 5), ("n_random", 5), ("n_joints", 4)):
        with pytest.raises(ExperimentError, match=re.escape(f"unknown experiment keys: ['{key}']")):
            load_experiment(write(tmp_path, dict(BASE, **{key: value}), f"f-{key}.experiment"))
    for i, (top, shown) in enumerate(((5, "int"), ([1, 2], "list"), ("exp", "str"))):
        with pytest.raises(ExperimentError, match=f"must hold a JSON object, got {shown}"):
            load_experiment(write(tmp_path, top, f"t{i}.experiment"))
    (tmp_path / "list.json").write_text(json.dumps([[0.1, 0.2, 0.3]]))
    with pytest.raises(ExperimentError, match="malformed target set: expected an object, got list"):
        load_experiment(write(tmp_path, dict(BASE, targets="list.json"), "l.experiment"))
    with pytest.raises(ExperimentError):
        load_experiment(tmp_path / "missing.experiment")
