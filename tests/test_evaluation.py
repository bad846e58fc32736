from __future__ import annotations

import math
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from armdesign import evaluation
from armdesign.evaluation import ALPHA, TargetSet, evaluate
from armdesign.experiment import load_targets
from armdesign.kinematics import forward_kinematics, solve_ik
from armdesign.space import SpaceConfig, make_params, random_sample

REPO = Path(__file__).resolve().parent.parent


def test_zero_pose_targets_are_a_fixed_point():
    p = make_params((0, 0, 0), "YPRP", [0.1, 0.1, 0.1, 0.1])
    ee = tuple(forward_kinematics(p, np.zeros(4)))
    report = evaluate(p, TargetSet("zero", (ee, ee, ee)))
    assert report.objectives.e_pos == 0.0
    assert report.objectives.e_torque == 0.0
    assert all(o.iterations == 0 for o in report.per_target)


@pytest.mark.parametrize(
    "design, message",
    [
        (((0, 0, 0), "YPRP", (0.1, 0.1, 0.1)), "lengths must hold 4 values, got 3"),
        (((0, 0), "YPRP", (0.1,) * 4), "origin must hold 3 values, got 2"),
        (((0, 0, 0), "", ()), "joints must hold at least one joint, got none"),
    ],
)
def test_evaluate_rejects_a_malformed_design_naming_its_field(design, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        evaluate(make_params(*design), TargetSet("t", ((0.3, 0.1, 0.4),)))


def test_target_points_are_held_as_float_tuples():
    targets = TargetSet("t", [np.array([0.3, 0.0, 0.5]), [0, 0, 1]])
    assert targets.points == ((0.3, 0.0, 0.5), (0.0, 0.0, 1.0))
    assert all(type(v) is float for p in targets.points for v in p)


def test_single_target_matches_direct_ik():
    rng = np.random.default_rng(1)
    p = random_sample(rng, SpaceConfig(n_joints=4))
    target = (0.25, -0.1, 0.35)
    report = evaluate(p, TargetSet("one", (target,)))
    sol = solve_ik(p, np.array(target))
    assert report.objectives.e_pos == sol.residual
    assert report.objectives.e_torque == pytest.approx(ALPHA * np.linalg.norm(sol.torque), rel=1e-12)
    outcome = report.per_target[0]
    np.testing.assert_allclose(outcome.reached, sol.reached)
    np.testing.assert_allclose(outcome.torque, sol.torque)


def test_totals_are_sums_of_per_target_terms():
    rng = np.random.default_rng(2)
    p = random_sample(rng, SpaceConfig(n_joints=4))
    targets = TargetSet("t", ((0.3, 0.1, 0.4), (-0.2, 0.2, 0.5), (0.0, -0.3, 0.3)))
    report = evaluate(p, targets)
    assert report.objectives.e_pos == pytest.approx(sum(o.e_pos for o in report.per_target), abs=0)
    assert report.objectives.e_torque == pytest.approx(
        sum(o.e_torque for o in report.per_target), abs=0
    )


def neumaier_sum(terms, start=0):
    """The compensated sum that builtin sum() of floats computes from Python 3.12 on."""
    total, carry = float(start), 0.0
    for x in terms:
        t = total + x
        carry += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + carry


def test_totals_are_folded_left_to_right_on_every_python(monkeypatch):
    # warmup trials 1-5 of the target3_mock seed-0 run: their per-target terms
    # give a left-to-right fold that differs from the exactly rounded sum
    rng = np.random.default_rng(0)
    designs = [random_sample(rng, SpaceConfig()) for _ in range(6)][1:]
    targets = load_targets(REPO / "targets" / "target3.json")
    monkeypatch.setattr(evaluation, "sum", neumaier_sum, raising=False)
    differs = {"e_pos": False, "e_torque": False}
    for p in designs:
        report = evaluate(p, targets)
        for name in differs:
            terms = [getattr(o, name) for o in report.per_target]
            fold = reduce(lambda a, b: a + b, terms, 0.0)
            assert getattr(report.objectives, name) == fold
            differs[name] |= fold != math.fsum(terms)
    assert differs == {"e_pos": True, "e_torque": True}


def test_evaluate_is_deterministic():
    rng = np.random.default_rng(3)
    p = random_sample(rng, SpaceConfig(n_joints=4))
    targets = TargetSet("t", ((0.3, 0.1, 0.4), (-0.2, 0.2, 0.5)))
    assert evaluate(p, targets) == evaluate(p, targets)


def test_target_permutation_leaves_totals_unchanged():
    rng = np.random.default_rng(4)
    p = random_sample(rng, SpaceConfig(n_joints=4))
    pts = ((0.3, 0.1, 0.4), (-0.2, 0.2, 0.5), (0.1, 0.0, 0.6))
    fwd = evaluate(p, TargetSet("t", pts))
    rev = evaluate(p, TargetSet("t", pts[::-1]))
    assert fwd.objectives.e_pos == pytest.approx(rev.objectives.e_pos, rel=1e-12)
    assert fwd.objectives.e_torque == pytest.approx(rev.objectives.e_torque, rel=1e-12)
    # per-target order follows input order
    assert [o.target for o in rev.per_target] == [o.target for o in fwd.per_target][::-1]


@st.composite
def designs_and_targets(draw):
    d = draw(st.integers(1, 8))
    coord = st.floats(-1.0, 1.0)
    p = make_params(
        draw(st.tuples(coord, coord, coord)),
        draw(st.text("RPY", min_size=d, max_size=d)),
        draw(st.lists(st.floats(0.03, 0.3), min_size=d, max_size=d)),
    )
    far = st.floats(-1.5, 1.5)
    return p, TargetSet("t", draw(st.lists(st.tuples(far, far, far), min_size=1, max_size=3)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(designs_and_targets())
def test_e_torque_is_alpha_times_numpys_norm_bit_for_bit(case):
    # E_TORQUE keeps np.linalg.norm's bits: its ddot, then a correctly rounded square root
    p, targets = case
    for outcome in evaluate(p, targets).per_target:
        assert repr(outcome.e_torque) == repr(ALPHA * float(np.linalg.norm(outcome.torque)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field, index", [("origin", k) for k in range(3)] + [("lengths", k) for k in range(4)])
def test_a_non_finite_origin_or_length_is_rejected(field, index, bad):
    design = {"origin": [0.1, -0.2, 0.05], "lengths": [0.2, 0.15, 0.1, 0.12]}
    design[field][index] = bad
    p = make_params(design["origin"], "PYRP", design["lengths"])
    with pytest.raises(ValueError, match=f"^{field} must be finite, got "):
        evaluate(p, load_targets(REPO / "targets" / "target1.json"))


def test_empty_or_bad_inputs_rejected():
    with pytest.raises(ValueError):
        TargetSet("bad", ())
    with pytest.raises(ValueError):
        TargetSet("bad", ((0.0, float("nan"), 0.0),))


# (E_POS, E_TORQUE) of fixed designs on the bundled targets. Any change that moves
# IK results moves these and must say so; the aimed first start (the posture that
# reaches the residual bound's nearest arc or cap point) moved all but "long YPPR"
# on target1. The designs are ones whose objectives move by under 5e-12 (relative)
# when every target coordinate moves by 1e-14 (relative) either way, so the pins
# hold against last-bit noise while still covering solves that run all three IK
# starts, because the residual bound does not certify them (every "sampled PPYY"
# solve); solves that the bound certifies at the aimed start, where the triangle
# floor |target - origin| - sum(L) is lower ("mid-range YPRP" on target3, points
# 0, 1, 3: link 1 is a column, link 2 ends on a cap); and solves certified at the
# aimed start by a cap at the top of a three-link yaw column (every "scripted
# YYYR" solve).
GOLDEN_DESIGNS = {
    "mid-range YPRP": make_params((0.0, 0.0, 0.0), "YPRP", [0.165] * 4),
    "scripted YYYR": make_params(
        (0.0420, 0.0135, -0.0105), "YYYR", [0.2322, 0.1389, 0.1577, 0.0300]
    ),
    "long YPPR": make_params((0.0, 0.0, 0.2), "YPPR", [0.3] * 4),
    "sampled PPYY": make_params(
        (0.0363, 0.0474, -0.1791), "PPYY", [0.1318, 0.2349, 0.0333, 0.1159]
    ),
}
GOLDEN_OBJECTIVES = {
    ("mid-range YPRP", "target1"): (0.013586312790407472, 150.66795787844953),
    ("mid-range YPRP", "target3"): (0.39846913089247943, 156.48974616901137),
    ("scripted YYYR", "target1"): (1.616399152377526, 0.7609222460133129),
    ("scripted YYYR", "target3"): (2.0531796841092502, 0.7777592944599688),
    ("sampled PPYY", "target1"): (1.467654098825692, 77.93056516707047),
    ("sampled PPYY", "target3"): (1.6964733452598586, 123.54210369678475),
    ("long YPPR", "target1"): (0.25075214634293774, 411.6060102431739),
    ("long YPPR", "target3"): (0.04029672413288785, 414.41246511472656),
}


@pytest.mark.parametrize("design, target", sorted(GOLDEN_OBJECTIVES))
def test_golden_objectives(design, target):
    report = evaluate(GOLDEN_DESIGNS[design], load_targets(REPO / "targets" / f"{target}.json"))
    e_pos, e_torque = GOLDEN_OBJECTIVES[design, target]
    assert report.objectives.e_pos == pytest.approx(e_pos, rel=1e-9)
    assert report.objectives.e_torque == pytest.approx(e_torque, rel=1e-9)


# solve_ik's (iterations, converged) per target point of each golden pair. The
# ledger writes both counters, and a solver loop that miscounts its iterations
# can leave every objective equal, so these are pinned exactly. Any change that
# moves them must say so; the aimed first start moved every pair.
GOLDEN_IK_COUNTERS = {
    ("mid-range YPRP", "target1"): [(17, True), (21, False), (5, True), (5, True), (5, True)],
    ("mid-range YPRP", "target3"): [(0, False), (0, False), (14, True), (0, False), (4, True)],
    ("scripted YYYR", "target1"): [(0, False), (0, False), (0, False), (0, False), (0, False)],
    ("scripted YYYR", "target3"): [(0, False), (0, False), (0, False), (0, False), (0, False)],
    ("sampled PPYY", "target1"): [(18, False), (19, False), (18, False), (18, False), (21, False)],
    ("sampled PPYY", "target3"): [(19, False), (22, False), (22, False), (30, False), (7, False)],
    ("long YPPR", "target1"): [(10, True), (6, True), (5, True), (4, True), (17, False)],
    ("long YPPR", "target3"): [(4, True), (4, True), (13, True), (4, True), (21, False)],
}


@pytest.mark.parametrize("design, target", sorted(GOLDEN_IK_COUNTERS))
def test_golden_ik_counters(design, target):
    report = evaluate(GOLDEN_DESIGNS[design], load_targets(REPO / "targets" / f"{target}.json"))
    counters = [(o.iterations, o.converged) for o in report.per_target]
    assert counters == GOLDEN_IK_COUNTERS[design, target]
