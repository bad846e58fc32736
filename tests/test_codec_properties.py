"""Round-trip properties of the two text codecs: ledger lines and LLM design replies."""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from armdesign.evaluation import TargetOutcome
from armdesign.ledger import parse_ledger_line, trial_to_json
from armdesign.llm import parse_design_response
from armdesign.pareto import ObjectiveValues
from armdesign.space import DesignParams, JointType, SpaceConfig, validate
from armdesign.tpe import SampleSource, TrialRecord

LO, HI = SpaceConfig.origin_low, SpaceConfig.origin_high
LLO, LHI = SpaceConfig.length_low, SpaceConfig.length_high


@st.composite
def designs(draw, origin=st.floats(LO, HI), length=st.floats(LLO, LHI)):
    d = draw(st.integers(1, 6))
    return DesignParams(
        origin=tuple(draw(st.lists(origin, min_size=3, max_size=3))),
        joints=tuple(draw(st.lists(st.sampled_from(JointType), min_size=d, max_size=d))),
        lengths=tuple(draw(st.lists(length, min_size=d, max_size=d))),
    )


finite = st.floats(allow_nan=False, allow_infinity=False)
points = st.tuples(finite, finite, finite)


@st.composite
def outcomes(draw, n_joints: int):
    return TargetOutcome(
        target=draw(points),
        reached=draw(points),
        torque=tuple(draw(st.lists(finite, min_size=n_joints, max_size=n_joints))),
        e_pos=draw(finite),
        e_torque=draw(finite),
        converged=draw(st.booleans()),
        iterations=draw(st.integers(0, 10**4)),
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(0, 10**6),
    st.sampled_from(SampleSource),
    designs(),
    st.builds(ObjectiveValues, finite, finite),
    st.booleans(),
    st.data(),
)
def test_ledger_line_round_trip(trial_id, source, params, objectives, fallback, data):
    per_target = tuple(data.draw(st.lists(outcomes(len(params.joints)), max_size=4)))
    trial = TrialRecord(trial_id, source, params, objectives, per_target, fallback)
    back = parse_ledger_line(trial_to_json(trial), 1)
    assert back.id == trial_id
    assert back.source is source
    assert back.params == params
    assert back.objectives == objectives
    assert back.fallback is fallback
    assert back.per_target == per_target


def clamp(v: float, lo: float, hi: float) -> float:
    return min(max(v, lo), hi)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    designs(
        origin=st.floats(LO, HI) | st.floats(allow_nan=False),
        length=st.floats(LLO, LHI) | st.floats(allow_nan=False),
    )
)
def test_design_reply_parses_back_clamped_into_bounds(params):
    text = "[{}] [{}] [{}]".format(
        ", ".join(map(repr, params.origin)),
        ", ".join(jt.letter for jt in params.joints),
        ", ".join(map(repr, params.lengths)),
    )
    space = SpaceConfig(n_joints=params.n_joints)
    parsed = parse_design_response(text, space)
    if not validate(params, space):
        assert parsed == params
    assert parsed == DesignParams(
        origin=tuple(clamp(v, LO, HI) for v in params.origin),
        joints=params.joints,
        lengths=tuple(clamp(v, LLO, LHI) for v in params.lengths),
    )
