from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from armdesign.evaluation import TargetOutcome, TargetSet, evaluate
from armdesign.llm import (
    BackendConfig,
    BackendError,
    HeuristicBackend,
    HttpChatBackend,
    ParseError,
    PromptContext,
    ScriptedBackend,
    _feedback_block,
    build_prompt,
    format_point,
    parse_design_response,
    propose,
    select_feedback,
)
from armdesign.pareto import ObjectiveValues
from armdesign.space import JointType, make_params, random_sample, validate
from armdesign.tpe import SampleSource, TrialRecord

TARGETS = TargetSet("probe", ((0.3, 0.0, 0.5), (-0.3, 0.0, 0.5), (0.0, 0.3, 0.5)))


def make_trial(i, params, targets=TARGETS):
    """A trial as a run records it: objectives and per-target outcomes from one evaluation."""
    report = evaluate(params, targets)
    return TrialRecord(i, SampleSource.RANDOM, params, report.objectives, report.per_target)


def make_context(space, n_pareto=0, n_random=0, analysis=True):
    rng = np.random.default_rng(0)
    trials = [make_trial(i, random_sample(rng, space)) for i in range(n_pareto + n_random)]
    return PromptContext(
        targets=TARGETS,
        space=space,
        pareto_feedback=tuple(trials[:n_pareto]),
        random_feedback=tuple(trials[n_pareto:]),
        analysis=analysis,
    )


def http_backend(space, base_url, **settings):
    return BackendConfig(kind="http", base_url=base_url, model="test-model", **settings).make(space)


def test_variants_differ_exactly_by_analysis_block(space):
    ctx_minus = make_context(space, 2, 2, analysis=False)
    ctx_plus = make_context(space, 2, 2, analysis=True)
    minus, plus = build_prompt(ctx_minus), build_prompt(ctx_plus)
    assert plus.startswith(minus)
    extra = plus[len(minus) :]
    assert "analyze each parameter" in extra
    assert extra not in minus


def test_feedback_block_count_and_fields(space):
    import re

    prompt = build_prompt(make_context(space, n_pareto=5, n_random=5))
    assert len(re.findall(r"^Design \d+ \(", prompt, flags=re.M)) == 10
    assert prompt.count("(pareto)") == 5
    assert prompt.count("(random)") == 5
    for field in ("ORIGIN:", "JOINTS:", "LINKS:", "E_EACH:", "REACHED:", "TORQUES:", "E_ALL:"):
        assert len(re.findall(rf"^  {field}", prompt, flags=re.M)) == 10


def _format_seq(values) -> str:
    return "[" + ", ".join(f"{float(v):.4f}" for v in values) + "]"


def reference_feedback_block(index, pool, trial):
    """A feedback block rendered field by field, one format per number: the oracle for `_feedback_block`."""
    p = trial.params
    lines = [
        f"Design {index} ({pool}):",
        f"  ORIGIN: {_format_seq(p.origin)}",
        "  JOINTS: [" + ", ".join(jt.letter for jt in p.joints) + "]",
        f"  LINKS: {_format_seq(p.lengths)}",
        "  E_EACH: "
        + "; ".join(f"({o.e_pos:.4f}, {o.e_torque:.4f})" for o in trial.per_target),
        "  REACHED: " + "; ".join(_format_seq(o.reached) for o in trial.per_target),
        "  TORQUES: " + "; ".join(_format_seq(o.torque) for o in trial.per_target),
        f"  E_ALL: ({trial.objectives.e_pos:.4f}, {trial.objectives.e_torque:.4f})",
    ]
    return "\n".join(lines) + "\n"


# any double, and more often: zeros of either sign, values that round to -0.0000 or to a last digit's
# boundary, and magnitudes whose fixed-point form runs to hundreds of digits
NUMBERS = st.one_of(
    st.floats(),
    st.floats(-1e-4, 1e-4),
    st.sampled_from([0.0, -0.0, -4e-5, -5e-5, 5e-5, 0.00015, -0.12345, 1e22, -1e300, 1.7976931348623157e308]),
)


@st.composite
def feedback_trials(draw, d, n):
    """A record of a D = d design scored on n targets, its numbers drawn from NUMBERS."""

    def seq(k):
        return draw(st.lists(NUMBERS, min_size=k, max_size=k))

    joints = draw(st.lists(st.sampled_from(list(JointType)), min_size=d, max_size=d))
    params = make_params(seq(3), joints, seq(d))
    outcomes = tuple(TargetOutcome(tuple(seq(3)), tuple(seq(3)), tuple(seq(d)), *seq(2), True, 0) for _ in range(n))
    return TrialRecord(0, SampleSource.LLM, params, ObjectiveValues(*seq(2)), outcomes)


@pytest.mark.parametrize("d, n", [(d, n) for d in range(1, 7) for n in range(1, 7)])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_feedback_block_matches_the_field_by_field_rendering(d, n, data):
    trial = data.draw(feedback_trials(d, n))
    index, pool = data.draw(st.integers(1, 10)), data.draw(st.sampled_from(["pareto", "random"]))
    assert _feedback_block(index, pool, trial) == reference_feedback_block(index, pool, trial)


def test_targets_rendered_verbatim_once(space):
    prompt = build_prompt(make_context(space))
    for point in TARGETS.points:
        assert prompt.count(format_point(point)) == 1
    assert "$TARGET" not in prompt
    assert "Think step by step" in prompt


def test_parse_solution_style_response(space):
    params = parse_design_response(
        "[0.0, 0.0, 0.0] [Y, P, R, P] [0.25, 0.2, 0.2, 0.15]", space
    )
    assert params.origin == (0.0, 0.0, 0.0)
    assert params.joints == (JointType.YAW, JointType.PITCH, JointType.ROLL, JointType.PITCH)
    assert params.lengths == (0.25, 0.2, 0.2, 0.15)
    assert validate(params, space) == []


def test_parse_clamps_out_of_range_values(space):
    params = parse_design_response("[0, 0, -2] [Y, Y, Y, Y] [0.5, 0.2, 0.01, 0.1]", space)
    assert params.origin == (0.0, 0.0, -1.0)
    assert params.lengths[0] == 0.3
    assert params.lengths[2] == 0.03
    assert validate(params, space) == []


def test_parse_rejects_nan(space):
    # NaN is inside no bounds, and min(max(v, low), high) would pass it through, so it is refused
    with pytest.raises(ParseError, match="NaN"):
        parse_design_response("[nan, 0, 0] [P, P, P, P] [0.1, 0.1, 0.1, 0.1]", space)
    with pytest.raises(ParseError, match="NaN"):
        parse_design_response("[0, 0, 0] [P, P, P, P] [0.1, NaN, 0.1, 0.1]", space)


def test_parse_clamps_infinite_values(space):
    params = parse_design_response("[inf, -inf, 0] [P, P, P, P] [inf, -inf, 0.1, 0.1]", space)
    assert params.origin == (1.0, -1.0, 0.0)
    assert params.lengths[:2] == (0.3, 0.03)
    assert validate(params, space) == []
    # a value at a bound stays, 1e400 reads as inf, and an in-bounds -0.0 keeps its sign (repr tells it from 0.0)
    params = parse_design_response("[-1.0, 1e400, -0.0] [P, P, P, P] [0.03, 0.3, -0.0, -inf]", space)
    assert repr(params.origin) == "(-1.0, 1.0, -0.0)"
    assert repr(params.lengths) == "(0.03, 0.3, 0.03, 0.03)"
    params = parse_design_response("[1.0, -inf, -1e400] [R, Y, R, Y] [1e400, 0.3, 0.03, 0.1]", space)
    assert repr(params.origin) == "(1.0, -1.0, -1.0)"
    assert repr(params.lengths) == "(0.3, 0.3, 0.03, 0.1)"


def test_propose_nan_design_is_parse_failure(space):
    backend = ScriptedBackend(["prose", "[nan, 0, 0] [P, P, P, P] [0.1, 0.1, 0.1, 0.1]"])
    outcome = propose(backend, make_context(space))
    assert not outcome.ok
    assert outcome.params is None
    assert [e.error for e in outcome.transcript] == [None, "parse: NaN value"]


def test_parse_takes_last_three_groups(space):
    text = (
        "Step 1: consider [symmetry].\nFinal design:\n"
        "[0.1, -0.2, 0.3] [R, P, Y, P] [0.1, 0.1, 0.1, 0.1]"
    )
    params = parse_design_response(text, space)
    assert params.origin == (0.1, -0.2, 0.3)


def test_parse_failures(space):
    with pytest.raises(ValueError):
        parse_design_response("no brackets anywhere", space)
    with pytest.raises(ValueError):
        parse_design_response("[1, 2] [Y, P, R, P] [0.1, 0.1, 0.1, 0.1]", space)
    with pytest.raises(ValueError):
        parse_design_response("[0, 0, 0] [Y, P] [0.1, 0.1, 0.1, 0.1]", space)
    with pytest.raises(ValueError):
        parse_design_response("[0, 0, 0] [Q, P, R, P] [0.1, 0.1, 0.1, 0.1]", space)
    with pytest.raises(ValueError, match="non-numeric value: could not convert string to float: 'x'"):
        parse_design_response("[0, 0, x] [Y, P, R, P] [0.1, 0.1, 0.1, 0.1]", space)
    with pytest.raises(ValueError, match="lengths needs 4 entries, got 3"):
        parse_design_response("[0, 0, 0] [Y, P, R, P] [0.1, 0.1, 0.1]", space)


def test_propose_success_records_two_calls(space):
    design = "[0.0, 0.0, 0.0] [Y, P, R, P] [0.25, 0.2, 0.2, 0.15]"
    backend = ScriptedBackend(["thinking about symmetry...", design])
    outcome = propose(backend, make_context(space, 1, 1))
    assert outcome.ok
    assert len(outcome.transcript) == 2
    assert [e.error for e in outcome.transcript] == [None, None]
    assert outcome.transcript[0].response == "thinking about symmetry..."
    assert outcome.transcript[1].response == design
    assert validate(outcome.params, space) == []


def test_propose_parse_failure(space):
    backend = ScriptedBackend(["some prose", "still prose, no structured output"])
    outcome = propose(backend, make_context(space))
    assert not outcome.ok
    assert [e.error for e in outcome.transcript] == [None, "parse: expected 3 bracketed groups, found 0"]
    assert outcome.transcript[1].response == "still prose, no structured output"


def test_propose_transport_failure(space):
    backend = ScriptedBackend([])  # exhausted immediately
    outcome = propose(backend, make_context(space))
    assert not outcome.ok
    assert len(outcome.transcript) == 1
    assert outcome.transcript[0].error == "scripted responses exhausted"


def test_heuristic_backend_round_trip(space):
    outcome = propose(HeuristicBackend(space), make_context(space))
    assert outcome.ok
    assert validate(outcome.params, space) == []


def test_select_feedback_truncates_small_archive(space):
    rng = np.random.default_rng(0)
    trials = [make_trial(i, random_sample(rng, space)) for i in range(3)]
    pareto_fb, random_fb = select_feedback(trials, trials, rng)
    assert len(pareto_fb) == 3
    assert len(random_fb) == 3
    state = rng.bit_generator.state
    assert select_feedback([], [], rng) == ((), ())
    assert rng.bit_generator.state == state  # an empty pool draws nothing


def test_select_feedback_without_replacement_and_deterministic(space):
    rng = np.random.default_rng(1)
    one = TargetSet("one", ((0.1, 0.1, 0.3),))
    trials = [make_trial(i, random_sample(rng, space), one) for i in range(200)]
    _, picks = select_feedback(trials, trials[:5], np.random.default_rng(9))
    ids = [id(r) for r in picks]
    assert len(set(ids)) == 5
    again = select_feedback(trials, trials[:5], np.random.default_rng(9))
    assert [id(r) for r in again[1]] == ids


_GOOD_REPLY = {
    "choices": [{"message": {"content": "[0.0, 0.1, 0.2] [Y, P, R, P] [0.1, 0.1, 0.1, 0.1]"}}]
}


class _StubChatHandler(BaseHTTPRequestHandler):
    requests_seen: list = []
    reply: object = _GOOD_REPLY
    status: int = 200

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).requests_seen.append(
            {"path": self.path, "auth": self.headers.get("Authorization"), "body": body}
        )
        data = json.dumps(type(self).reply).encode()
        self.send_response(type(self).status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    _StubChatHandler.requests_seen = []
    _StubChatHandler.reply = _GOOD_REPLY
    _StubChatHandler.status = 200
    server = HTTPServer(("127.0.0.1", 0), _StubChatHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


def test_http_backend_wire_format(stub_server, monkeypatch, space):
    monkeypatch.setenv("ARMDESIGN_API_TOKEN", "sekret")
    backend = http_backend(space, stub_server, decoding=(("temperature", 0.7),))
    text = backend.send("hello")
    assert "[Y, P, R, P]" in text
    seen = _StubChatHandler.requests_seen[0]
    assert seen["path"] == "/chat/completions"
    assert seen["auth"] == "Bearer sekret"
    assert seen["body"]["model"] == "test-model"
    assert seen["body"]["temperature"] == 0.7
    roles = [m["role"] for m in seen["body"]["messages"]]
    assert roles == ["system", "user"]
    assert seen["body"]["messages"][1]["content"] == "hello"


@pytest.mark.parametrize(
    "reply",
    [
        {"choices": [{"message": {"content": None}}]},
        [{"message": {"content": "[0, 0, 0] [P, P, P, P] [0.1, 0.1, 0.1, 0.1]"}}],
        {"choices": []},
    ],
    ids=["null-content", "array-body", "no-choices"],
)
def test_http_backend_malformed_reply_falls_back(stub_server, monkeypatch, space, reply):
    monkeypatch.setenv("ARMDESIGN_API_TOKEN", "sekret")
    _StubChatHandler.reply = reply
    backend = http_backend(space, stub_server)
    with pytest.raises(BackendError, match="malformed chat response"):
        backend.send("hello")
    outcome = propose(backend, make_context(space))
    assert not outcome.ok
    assert len(outcome.transcript) == 1
    assert outcome.transcript[0].error.startswith("malformed chat response")


def test_http_backend_error_status_falls_back(stub_server, monkeypatch, space):
    monkeypatch.setenv("ARMDESIGN_API_TOKEN", "sekret")
    _StubChatHandler.status = 500
    backend = http_backend(space, stub_server)
    with pytest.raises(BackendError, match="chat request failed"):
        backend.send("hello")
    outcome = propose(backend, make_context(space))
    assert not outcome.ok
    assert len(outcome.transcript) == 1
    assert outcome.transcript[0].error.startswith("chat request failed")


def test_http_backend_requires_token(monkeypatch, space):
    monkeypatch.delenv("ARMDESIGN_API_TOKEN", raising=False)
    with pytest.raises(BackendError, match=re.escape("needs an API token in $ARMDESIGN_API_TOKEN")):
        http_backend(space, "http://127.0.0.1:1")
    monkeypatch.setenv("ARMDESIGN_API_TOKEN", "")
    with pytest.raises(BackendError, match="token"):
        http_backend(space, "http://127.0.0.1:1")
    monkeypatch.setenv("OTHER_TOKEN", "sekret")
    backend = http_backend(space, "http://127.0.0.1:1", token_env="OTHER_TOKEN")
    assert backend.token == "sekret" and "sekret" not in repr(backend)


def test_http_backend_connection_failure_is_backend_error(monkeypatch, space):
    monkeypatch.setenv("ARMDESIGN_API_TOKEN", "x")
    backend = http_backend(space, "http://127.0.0.1:9", timeout=0.2)
    with pytest.raises(BackendError):
        backend.send("hello")


def test_backend_config_factory(monkeypatch, space, tmp_path):
    monkeypatch.setenv("ARMDESIGN_API_TOKEN", "x")
    assert isinstance(BackendConfig(kind="mock-heuristic").make(space), HeuristicBackend)
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"responses": ["a", "b"]}))
    scripted = BackendConfig(kind="mock-script", script_path=str(script)).make(space)
    assert scripted.send("x") == "a"
    assert isinstance(
        BackendConfig(kind="http", base_url="http://h", model="m").make(space), HttpChatBackend
    )
    for bad in (
        dict(kind="mock-script"),
        dict(kind="nope"),
        dict(kind="http", model="m"),
        dict(kind="http", base_url="http://h"),
        *(dict(kind="mock-heuristic", timeout=t) for t in (-1.0, 0.0, float("inf"), float("nan"))),
    ):
        with pytest.raises(ValueError):  # the settings are checked when the config is built
            BackendConfig(**bad)
    # decoding adds sampling settings; it cannot replace the model or the prompt
    for decoding, clash in (((("messages", []),), "messages"), ((("model", "x"), ("top_p", 0.9)), "model")):
        with pytest.raises(ValueError, match=re.escape(f"backend decoding cannot set ['{clash}']")):
            BackendConfig(kind="http", base_url="http://h", model="m", decoding=decoding)
    # the script is opened by make(), not by the config
    BackendConfig(kind="mock-script", script_path=str(tmp_path / "absent.json"))


@pytest.mark.parametrize(
    "text", ["not json", "{}", "[]", '{"responses": 5}', '{"responses": ["a", 1]}']
)
def test_malformed_script_file_is_backend_error(space, tmp_path, text):
    script = tmp_path / "script.json"
    script.write_text(text)
    with pytest.raises(BackendError, match=r"malformed script file .*script\.json"):
        BackendConfig(kind="mock-script", script_path=str(script)).make(space)
