"""LLM-proposed designs: feedback prompt, pluggable backends, two-call protocol.

Call 1 sends the problem setting, target list, and evaluated-design feedback and
asks for a new design with step-by-step reasoning. Call 2 asks the backend to
restate that answer as three bracketed lists (origin, joint letters, lengths),
which are parsed and clamped into bounds. Every backend call is recorded in the
outcome transcript, and the entry a slot fell back on says why in its error.
"""
from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field, replace
from typing import Protocol

import numpy as np

from .evaluation import ALPHA, TargetSet
from .space import DesignParams, JointType, SpaceConfig, JOINT_ANGLE_LIMIT, make_params
from .tpe import TrialRecord

FEEDBACK_PARETO = 5  # feedback designs drawn from the Pareto archive per prompt ...
FEEDBACK_RANDOM = 5  # ... and from every trial so far


@dataclass(frozen=True)
class PromptContext:
    targets: TargetSet
    space: SpaceConfig
    pareto_feedback: tuple[TrialRecord, ...]
    random_feedback: tuple[TrialRecord, ...]
    analysis: bool  # add the per-parameter analysis block (bbo-llm-plus)


def format_point(point) -> str:
    return "[" + ", ".join(repr(float(v)) for v in point) + "]"


def _format_seq(values) -> str:
    return "[" + ", ".join(f"{float(v):.4f}" for v in values) + "]"


def _format_joints(joints) -> str:
    return "[" + ", ".join(jt.letter for jt in joints) + "]"


_PROBLEM_TEMPLATE = """\
You are designing a serial robot arm with {d} revolute joints mounted at a
configurable base position.

Design parameters:
- ORIGIN: base position [x, y, z] in meters, each component in [{olo}, {ohi}].
- JOINTS: sequence of {d} joint types, each one of R (roll, rotation about the
  local x axis), P (pitch, local y axis), or Y (yaw, local z axis).
- LINKS: {d} link lengths in meters, each in [{llo}, {lhi}].

Each joint moves within [-{qlim}, {qlim}] rad. With all joint angles at zero the
links stack vertically in a straight line above ORIGIN, and joint j is followed
by link j along its local +z axis.

The arm must reach the following target points (meters):
$TARGET

For every candidate design, inverse kinematics is solved for each target point
independently, from a start posture aimed at the target and then from fixed
start postures. The design is scored by two values, both to be minimized:
- E_POS: sum over targets of the end-effector position error (m).
- E_TORQUE: {alpha} * sum over targets of the gravity-compensation torque norm (N*m).
Good designs trade these off; we are building the Pareto front over both.
"""

_FEEDBACK_HEADER = """\
Previously evaluated designs, with per-target diagnostics. E_EACH lists
(e_pos_i, e_torque_i) per target, REACHED the end-effector position per target,
TORQUES the joint-torque vector per target, and E_ALL the (E_POS, E_TORQUE)
totals.
"""

_TASK_LINES = """\
Propose ONE new design (ORIGIN, JOINTS, LINKS) that improves on the current
Pareto front. Think step by step.
"""

_ANALYSIS_BLOCK = """\
Before choosing values, analyze each parameter in turn:
- ORIGIN: where should the base sit relative to the target points? Consider
  symmetry of the workspace and whether lowering or shifting the base reduces
  either objective.
- JOINTS: which joint-type ordering reaches the targets? Consider how roll,
  pitch, and yaw axes combine, and that pitch-like axes bear gravity load while
  yaw axes aligned with gravity carry almost none.
- LINKS: how do link lengths affect reach and torque? Longer links extend reach
  but raise the gravity moment; match total length to the target distances.
"""

REFORMAT_TEMPLATE = """\
Extract the final proposed design from the answer below. Reply with exactly
three bracketed lists on one line and nothing else:
[x, y, z] [J1, ..., J{d}] [L1, ..., L{d}]
where x, y, z and each L are plain numbers and each J is one of R, P, Y.

Answer:
{answer}
"""

SYSTEM_MESSAGE = "You are an assistant for robot arm design optimization."


def build_prompt(ctx: PromptContext) -> str:
    """Render the full call-1 prompt for the given feedback context."""
    target_lines = "\n".join(format_point(p) for p in ctx.targets.points)
    problem = _PROBLEM_TEMPLATE.format(
        d=ctx.space.n_joints,
        olo=ctx.space.origin_low,
        ohi=ctx.space.origin_high,
        llo=ctx.space.length_low,
        lhi=ctx.space.length_high,
        qlim=JOINT_ANGLE_LIMIT,
        alpha=ALPHA,
    ).replace("$TARGET", target_lines)
    parts = [problem]
    if ctx.pareto_feedback or ctx.random_feedback:
        parts.append(_FEEDBACK_HEADER)
        blocks = [(r, "pareto") for r in ctx.pareto_feedback]
        blocks += [(r, "random") for r in ctx.random_feedback]
        for k, (trial, pool) in enumerate(blocks, start=1):
            parts.append(_feedback_block(k, pool, trial))
    parts.append(_TASK_LINES)
    if ctx.analysis:
        parts.append(_ANALYSIS_BLOCK)
    return "\n".join(parts)


def _feedback_block(index: int, pool: str, trial: TrialRecord) -> str:
    p = trial.params
    lines = [
        f"Design {index} ({pool}):",
        f"  ORIGIN: {_format_seq(p.origin)}",
        f"  JOINTS: {_format_joints(p.joints)}",
        f"  LINKS: {_format_seq(p.lengths)}",
        "  E_EACH: "
        + "; ".join(f"({o.e_pos:.4f}, {o.e_torque:.4f})" for o in trial.per_target),
        "  REACHED: " + "; ".join(_format_seq(o.reached) for o in trial.per_target),
        "  TORQUES: " + "; ".join(_format_seq(o.torque) for o in trial.per_target),
        f"  E_ALL: ({trial.objectives.e_pos:.4f}, {trial.objectives.e_torque:.4f})",
    ]
    return "\n".join(lines) + "\n"


class BackendError(Exception):
    """Transport-level failure: missing API token, timeout, HTTP error, exhausted or malformed script."""


class LLMBackend(Protocol):
    def send(self, prompt: str) -> str: ...


@dataclass(frozen=True)
class HttpChatBackend:
    """Chat-completion client over HTTP; BackendConfig.make reads its auth token."""

    cfg: BackendConfig  # kind "http"
    token: str = field(repr=False)

    def send(self, prompt: str) -> str:
        import http.client  # imported at the first request, so offline processes skip the HTTP stack
        import urllib.request

        cfg = self.cfg
        body = {
            "model": cfg.model,
            "messages": [
                {"role": "system", "content": SYSTEM_MESSAGE},
                {"role": "user", "content": prompt},
            ],
            **dict(cfg.decoding),
        }
        headers = {"Authorization": f"Bearer {self.token}", "Content-Type": "application/json"}
        try:  # HTTP and URL errors and timeouts are OSErrors; a malformed URL is a ValueError
            request = urllib.request.Request(
                cfg.base_url.rstrip("/") + "/chat/completions", json.dumps(body).encode(), headers
            )
            with urllib.request.urlopen(request, timeout=cfg.timeout) as resp:
                raw = resp.read()
        except (OSError, ValueError, http.client.HTTPException) as exc:
            raise BackendError(f"chat request failed: {exc}") from exc
        try:
            content = json.loads(raw)["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise BackendError(f"malformed chat response: {exc}") from exc
        if not isinstance(content, str):
            raise BackendError(f"malformed chat response: content is {type(content).__name__}")
        return content


class ScriptedBackend:
    """Offline responder replaying an ordered list of responses."""

    def __init__(self, responses: list[str]):
        self._responses = list(responses)
        self._cursor = 0

    @classmethod
    def from_file(cls, path) -> "ScriptedBackend":
        """Read {"responses": [str, ...]}; a malformed file is a BackendError naming it."""
        with open(path, encoding="utf-8") as fh:
            try:
                responses = json.load(fh)["responses"]
            except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError) as exc:
                raise BackendError(f"malformed script file {path}: {exc!r}") from exc
        if not (isinstance(responses, list) and all(isinstance(r, str) for r in responses)):
            raise BackendError(f"malformed script file {path}: responses must be a list of strings")
        return cls(responses)

    def send(self, prompt: str) -> str:
        if self._cursor >= len(self._responses):
            raise BackendError("scripted responses exhausted")
        text = self._responses[self._cursor]
        self._cursor += 1
        return text


class HeuristicBackend:
    """Offline responder that always proposes the mid-range design."""

    def __init__(self, space: SpaceConfig):
        self._space = space

    def send(self, prompt: str) -> str:
        s = self._space
        mid_len = 0.5 * (s.length_low + s.length_high)
        origin = "[0.0, 0.0, 0.0]"
        joints = "[" + ", ".join(["P"] * s.n_joints) + "]"
        lengths = "[" + ", ".join(f"{mid_len:.3f}" for _ in range(s.n_joints)) + "]"
        return f"A balanced mid-range design: {origin} {joints} {lengths}"


@dataclass(frozen=True)
class BackendConfig:
    """A backend's settings, checked once here; make() builds a fresh instance per run."""

    kind: str  # mock-heuristic | mock-script | http
    script_path: str | None = None
    base_url: str | None = None
    model: str | None = None
    token_env: str = "ARMDESIGN_API_TOKEN"
    timeout: float = 60.0
    decoding: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("mock-heuristic", "mock-script", "http"):
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if self.kind == "mock-script" and not self.script_path:
            raise ValueError("mock-script backend needs script_path")
        if self.kind == "http" and not (self.base_url and self.model):
            raise ValueError("http backend needs base_url and model")
        if not 0.0 < self.timeout < math.inf:
            raise ValueError(f"backend timeout must be a finite number > 0, got {self.timeout!r}")
        clash = sorted({key for key, _ in self.decoding} & {"model", "messages"})
        if clash:
            raise ValueError(f"backend decoding cannot set {clash}: the request builds them")

    def make(self, space: SpaceConfig) -> LLMBackend:
        if self.kind == "mock-heuristic":
            return HeuristicBackend(space)
        if self.kind == "mock-script":
            return ScriptedBackend.from_file(self.script_path)
        token = os.environ.get(self.token_env, "")
        if not token:
            raise BackendError(f"the http backend needs an API token in ${self.token_env}")
        return HttpChatBackend(self, token)


@dataclass(frozen=True)
class TranscriptEntry:
    prompt: str
    response: str | None
    error: str | None = None  # why the slot fell back: transport text, or "parse: ..." on the reformat reply


@dataclass(frozen=True)
class SamplerOutcome:
    params: DesignParams | None  # None when the slot falls back; the transcript's error says why
    transcript: tuple[TranscriptEntry, ...]

    @property
    def ok(self) -> bool:
        return self.params is not None


class ParseError(ValueError):
    pass


def parse_design_response(text: str, space: SpaceConfig) -> DesignParams:
    """Extract the last three bracketed groups as origin / joints / lengths.

    Numeric values outside the bounds (inf included) are clamped in, not
    rejected; NaN has no place in the bounds and is rejected.
    """
    groups = re.findall(r"\[([^\[\]]*)\]", text)
    if len(groups) < 3:
        raise ParseError(f"expected 3 bracketed groups, found {len(groups)}")
    origin_raw, joints_raw, lengths_raw = groups[-3:]

    def _split(raw: str) -> list[str]:
        return [tok for tok in (t.strip() for t in raw.replace(";", ",").split(",")) if tok]

    try:
        origin = [float(tok) for tok in _split(origin_raw)]
        lengths = [float(tok) for tok in _split(lengths_raw)]
    except ValueError as exc:
        raise ParseError(f"non-numeric value: {exc}") from exc
    if np.isnan(origin + lengths).any():
        raise ParseError("NaN value")
    joints = [JointType.from_letter(tok) for tok in _split(joints_raw)]

    if len(origin) != 3:
        raise ParseError(f"origin needs 3 values, got {len(origin)}")
    if len(joints) != space.n_joints:
        raise ParseError(f"joints needs {space.n_joints} entries, got {len(joints)}")
    if len(lengths) != space.n_joints:
        raise ParseError(f"lengths needs {space.n_joints} entries, got {len(lengths)}")

    return make_params(
        np.clip(origin, space.origin_low, space.origin_high),
        joints,
        np.clip(lengths, space.length_low, space.length_high),
    )


def propose(backend: LLMBackend, ctx: PromptContext) -> SamplerOutcome:
    """Run the two-call design/reformat protocol against a backend."""
    transcript: list[TranscriptEntry] = []

    def send(prompt: str) -> str:
        try:
            response = backend.send(prompt)
        except BackendError as exc:
            transcript.append(TranscriptEntry(prompt, None, str(exc)))
            raise
        transcript.append(TranscriptEntry(prompt, response))
        return response

    try:
        answer = send(build_prompt(ctx))
        formatted = send(REFORMAT_TEMPLATE.format(d=ctx.space.n_joints, answer=answer))
    except BackendError:  # send recorded the error on the failing entry
        return SamplerOutcome(None, tuple(transcript))
    try:
        return SamplerOutcome(parse_design_response(formatted, ctx.space), tuple(transcript))
    except ValueError as exc:
        transcript[-1] = replace(transcript[-1], error=f"parse: {exc}")
    return SamplerOutcome(None, tuple(transcript))


def select_feedback(
    trials: list[TrialRecord],
    archive: list[TrialRecord],
    rng: np.random.Generator,
) -> tuple[tuple[TrialRecord, ...], tuple[TrialRecord, ...]]:
    """Uniform without-replacement picks: FEEDBACK_PARETO from the archive, FEEDBACK_RANDOM overall."""

    def _draw(pool: list[TrialRecord], k: int) -> tuple[TrialRecord, ...]:
        if not pool:
            return ()
        k = min(k, len(pool))
        idx = rng.choice(len(pool), size=k, replace=False)
        return tuple(pool[i] for i in sorted(idx))

    return _draw(archive, FEEDBACK_PARETO), _draw(trials, FEEDBACK_RANDOM)
