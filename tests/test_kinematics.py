from __future__ import annotations

import itertools
import linecache
import math
import os
import re
import subprocess
import sys
import threading
import traceback
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import armdesign
from armdesign import kinematics
from armdesign.kinematics import (
    IK_POOL_STARTS,
    IK_START_ITERS,
    IK_TOL,
    IKSolution,
    _kernels,
    _pool_reach,
    _residual_bound,
    _start_pool,
    forward_kinematics,
    gravity_torque,
    position_jacobian,
    solve_ik,
)
from armdesign.space import JOINT_ANGLE_LIMIT, DesignParams, JointType, SpaceConfig, from_vector, make_params, random_sample

import kinematics_oracle as oracle
from conftest import random_posture
from test_ik_panel import MARGIN, PANEL


def fd_jacobian(params, q, eps=1e-6):
    """Central finite differences of forward_kinematics - the Jacobian oracle."""
    q = np.asarray(q, dtype=float)
    cols = []
    for j in range(len(q)):
        step = np.zeros_like(q)
        step[j] = eps
        cols.append((forward_kinematics(params, q + step) - forward_kinematics(params, q - step)) / (2 * eps))
    return np.array(cols).T


def fd_gravity_torque(params, q, eps=1e-6):
    """Central finite differences of the potential energy - the torque oracle."""
    q = np.asarray(q, dtype=float)
    torque = np.empty(len(q))
    for j in range(len(q)):
        step = np.zeros_like(q)
        step[j] = eps
        torque[j] = (
            oracle.potential_energy(params, q + step)
            - oracle.potential_energy(params, q - step)
        ) / (2 * eps)
    return torque


def test_fk_zero_pose_is_vertical_stack():
    p = make_params((0, 0, 0), "YPRP", [0.1, 0.1, 0.1, 0.1])
    np.testing.assert_allclose(forward_kinematics(p, np.zeros(4)), [0.0, 0.0, 0.4], atol=1e-15)


def test_fk_single_pitch_maps_z_to_x():
    p = make_params((0, 0, 0), "P", [0.2])
    np.testing.assert_allclose(forward_kinematics(p, [np.pi / 2]), [0.2, 0.0, 0.0], atol=1e-15)


def test_fk_base_translation_equivariance():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p0 = random_sample(rng, SpaceConfig(n_joints=4))
        shifted = make_params((0.3, -0.1, 0.5), p0.joints, p0.lengths)
        total = sum(shifted.lengths)
        np.testing.assert_allclose(
            forward_kinematics(shifted, np.zeros(4)), [0.3, -0.1, 0.5 + total], atol=1e-15
        )


def test_fk_dimension_mismatch():
    p = make_params((0, 0, 0), "YP", [0.1, 0.1])
    with pytest.raises(ValueError):
        forward_kinematics(p, np.zeros(3))


def test_fk_reach_never_exceeds_total_length():
    rng = np.random.default_rng(11)
    cfg = SpaceConfig(n_joints=4)
    for _ in range(200):
        p = random_sample(rng, cfg)
        q = random_posture(rng, 4)
        reach = np.linalg.norm(forward_kinematics(p, q) - np.asarray(p.origin))
        assert reach <= sum(p.lengths) + 1e-12


def test_jacobian_single_pitch_column():
    p = make_params((0, 0, 0), "P", [0.2])
    np.testing.assert_allclose(position_jacobian(p, [0.0]).ravel(), [0.2, 0.0, 0.0], atol=1e-15)


def test_jacobian_single_yaw_at_straight_pose_is_zero():
    p = make_params((0, 0, 0), "Y", [0.2])
    np.testing.assert_allclose(position_jacobian(p, [0.0]).ravel(), [0.0, 0.0, 0.0], atol=1e-15)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(3)
    cfg = SpaceConfig(n_joints=4)
    for _ in range(100):
        p = random_sample(rng, cfg)
        q = random_posture(rng, 4)
        err = np.abs(position_jacobian(p, q) - fd_jacobian(p, q))
        assert err.max() < 1e-6


def test_gravity_torque_zero_at_vertical_pose():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = random_sample(rng, SpaceConfig(n_joints=4))
        np.testing.assert_allclose(gravity_torque(p, np.zeros(4)), np.zeros(4), atol=1e-12)


def test_gravity_torque_horizontal_rod_hand_check():
    p = make_params((0, 0, 0), "P", [0.2])
    tau = gravity_torque(p, [np.pi / 2])
    # 0.2 kg rod, COM lever 0.1 m
    assert abs(abs(tau[0]) - 0.2 * 9.81 * 0.1) < 1e-9


def test_gravity_torque_matches_energy_finite_differences():
    rng = np.random.default_rng(13)
    cfg = SpaceConfig(n_joints=4)
    for _ in range(100):
        p = random_sample(rng, cfg)
        q = random_posture(rng, 4)
        analytic = gravity_torque(p, q)
        numeric = fd_gravity_torque(p, q)
        scale = max(np.abs(numeric).max(), 1e-6)
        assert np.abs(analytic - numeric).max() / scale < 1e-5


@st.composite
def designs_and_postures(draw, sequences=None, max_joints=6):
    """A design within the space bounds and a posture, limits included.

    The joints are 1 to `max_joints` uniform draws, or one of `sequences` (letters) when given.
    """
    if sequences is None:
        d = draw(st.integers(1, max_joints))
        joints = draw(st.lists(st.sampled_from(list(JointType)), min_size=d, max_size=d))
    else:
        joints = draw(st.sampled_from(sequences))
        d = len(joints)
    coord = st.floats(-1.0, 1.0)
    origin = draw(st.tuples(coord, coord, coord))
    lengths = draw(st.lists(st.floats(0.03, 0.3), min_size=d, max_size=d))
    angle = st.one_of(
        st.sampled_from([-JOINT_ANGLE_LIMIT, 0.0, JOINT_ANGLE_LIMIT]),
        st.floats(-JOINT_ANGLE_LIMIT, JOINT_ANGLE_LIMIT),
    )
    q = draw(st.lists(angle, min_size=d, max_size=d))
    return make_params(origin, joints, lengths), np.array(q)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(designs_and_postures())
def test_kernel_matches_numpy_frame_oracle(case):
    p, q = case
    close = dict(atol=1e-12, rtol=0)
    np.testing.assert_allclose(forward_kinematics(p, q), oracle.forward_kinematics(p, q), **close)
    np.testing.assert_allclose(position_jacobian(p, q), oracle.position_jacobian(p, q), **close)
    np.testing.assert_allclose(gravity_torque(p, q), oracle.gravity_torque(p, q), **close)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(designs_and_postures())
def test_generated_fk_and_jacobian_match_the_reference_loops(case):
    # bit for bit, signed zeros and all: the generated FK pass is the one that scores every IK iterate
    p, q = case
    codes = tuple(jt.value for jt in p.joints)
    joints, ee, _ = _kernels(len(codes)).chain(p.origin, codes, p.lengths, q.tolist())
    expected = oracle.chain(p.origin, codes, p.lengths, q.tolist())
    assert repr((joints, ee)) == repr(expected)
    columns = _kernels(len(codes)).columns(joints, ee)
    assert repr(columns) == repr(oracle.jacobian_columns(*expected))
    assert repr(position_jacobian(p, q).T.tolist()) == repr(list(map(list, columns)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(designs_and_postures(max_joints=8))
def test_generated_torques_match_the_reference_loop(case):
    # bit for bit, signed zeros and all: the FK pass gives every solution's torque, so every E_TORQUE
    p, q = case
    codes = tuple(jt.value for jt in p.joints)
    joints, _ = oracle.chain(p.origin, codes, p.lengths, q.tolist())
    expected = oracle.torques(joints, p.lengths)
    assert repr(_kernels(len(codes)).chain(p.origin, codes, p.lengths, q.tolist())[2]) == repr(tuple(expected))
    assert repr(gravity_torque(p, q).tolist()) == repr(expected)


def test_ik_already_solved_target():
    p = make_params((0, 0, 0), "YPRP", [0.1, 0.1, 0.1, 0.1])
    sol = solve_ik(p, forward_kinematics(p, np.zeros(4)))
    assert sol.converged
    assert sol.residual == 0.0
    assert sol.iterations <= 1
    np.testing.assert_array_equal(sol.q, np.zeros(4))


def test_ik_unreachable_target_reports_best_effort():
    p = make_params((0, 0, 0), "YPRP", [0.1, 0.1, 0.1, 0.1])
    target = np.array([2.0, 0.0, 0.0])
    sol = solve_ik(p, target)
    assert not sol.converged
    assert sol.residual >= np.linalg.norm(target) - sum(p.lengths) - 1e-4


TARGET_FORMS = [tuple, list, np.array]


@pytest.mark.parametrize("form", TARGET_FORMS)
@pytest.mark.parametrize("point", [(0.1, 0.2), (0.1, 0.2, 0.3, 0.4)])
def test_ik_rejects_a_target_of_the_wrong_length(point, form):
    p = make_params((0, 0, 0), "YPRP", [0.1, 0.1, 0.1, 0.1])
    with pytest.raises(ValueError, match=f"^target must be a 3-vector, got length {len(point)}$"):
        solve_ik(p, form(point))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ik_rejects_non_finite_target(bad):
    p = make_params((0, 0, 0), "YPRP", [0.1, 0.1, 0.1, 0.1])
    for index in range(3):
        target = [0.1, -0.2, 0.2]
        target[index] = bad
        with pytest.raises(ValueError, match=r"^target must be finite, got \["):
            solve_ik(p, target)


@pytest.mark.parametrize(
    "target",
    [np.array([[0.1], [0.2], [0.3]]), np.array([[0.1, 0.2, 0.3]]), [[0.1], [0.2], [0.3]], np.float64(0.3), 0.3],
)
def test_ik_rejects_a_target_that_is_not_flat(target):
    p = make_params((0, 0, 0), "YPRP", [0.1, 0.1, 0.1, 0.1])
    with pytest.raises(ValueError, match="^target must be a flat 3-vector, got "):
        solve_ik(p, target)


def test_ik_gives_one_solution_for_every_form_of_a_target():
    p = make_params((0.05, 0, 0), "YPRP", [0.1, 0.12, 0.1, 0.08])
    point = (0.12, -0.05, 0.3)
    forms = [form(point) for form in TARGET_FORMS] + [tuple(map(np.float64, point))]
    assert len({repr(solve_ik(p, target)) for target in forms}) == 1


NON_FINITE_FIELDS = [("origin", k) for k in range(3)] + [("lengths", k) for k in range(4)]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field, index", NON_FINITE_FIELDS)
def test_ik_rejects_a_non_finite_origin_or_length(field, index, bad):
    design = {"origin": [0.1, -0.2, 0.05], "lengths": [0.2, 0.15, 0.1, 0.12]}
    design[field][index] = bad
    p = make_params(design["origin"], "PYRP", design["lengths"])
    with pytest.raises(ValueError, match=f"^{field} must be finite, got "):
        solve_ik(p, [0.3, 0.1, 0.4])


MALFORMED_DESIGNS = [
    (((0, 0, 0), "YPRP", (0.1, 0.1, 0.1)), "lengths must hold 4 values, got 3"),
    (((0, 0), "YPRP", (0.1,) * 4), "origin must hold 3 values, got 2"),
    (((0, 0, 0), "", ()), "joints must hold at least one joint, got none"),
]


@pytest.mark.parametrize("call", [solve_ik, forward_kinematics, position_jacobian, gravity_torque])
@pytest.mark.parametrize("design, message", MALFORMED_DESIGNS)
def test_ik_rejects_a_malformed_design_naming_its_field(call, design, message):
    # solve_ik takes a target; the others take a posture, one angle per joint
    second = [0.3, 0.1, 0.4] if call is solve_ik else [0.1] * len(design[1])
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(make_params(*design), second)


def test_ik_sets_up_each_design_once_and_matches_the_reference_in_any_order():
    # a yaw-first design (column and cap) and a pitch-first one (arc), each solved with iterations
    a = make_params((0.1, -0.2, 0.05), "YPRP", (0.2, 0.15, 0.1, 0.12))
    b = make_params((0.1, -0.2, 0.05), "PPRP", (0.2, 0.15, 0.1, 0.12))
    targets = [(0.9, 0.3, 0.4), (0.2, 0.1, 0.15), (0.1, -0.2, 0.6)]
    for p in (a, b, a):
        for target in targets:
            assert repr(solve_ik(p, target)) == repr(oracle.solve_ik_reference(p, target))
        assert kinematics._last[0] is p
    twin = make_params(a.origin, a.joints, a.lengths)  # equal, but another object
    assert twin == a and twin is not a
    assert [solve_ik(twin, t) for t in targets] == [solve_ik(a, t) for t in targets]
    assert sum(solve_ik(p, t).iterations > 0 for p in (a, b) for t in targets) >= 2


def test_a_design_that_fails_its_set_up_leaves_the_cache_as_it_was():
    p = make_params((0.1, -0.2, 0.05), "PYRP", (0.2, 0.15, 0.1, 0.12))
    solved = solve_ik(p, (0.3, 0.1, 0.4))
    entry = kinematics._last
    for design, message in MALFORMED_DESIGNS + [(((0, 0, math.nan), "PYRP", (0.1,) * 4), "origin must be finite")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            solve_ik(make_params(*design), (0.3, 0.1, 0.4))
        assert kinematics._last is entry
    assert solve_ik(p, (0.3, 0.1, 0.4)) == solved


def test_threads_solving_different_designs_get_the_serial_results():
    # one thread's set-up of design A is held midway while another thread solves design B,
    # so the cache entry is replaced under the first thread; every solve must still be serial
    a = make_params((0.1, -0.2, 0.05), "YPRP", (0.2, 0.15, 0.1, 0.12))
    b = make_params((-0.1, 0.2, 0.0), "PRYP", (0.25, 0.1, 0.2, 0.1))
    targets = [(0.3, 0.1, 0.4), (0.2, 0.1, 0.15), (-0.1, 0.2, 0.6)]
    serial = {p: [repr(solve_ik(p, t)) for t in targets] for p in (a, b)}
    paused, resume = threading.Event(), threading.Event()

    class HeldDesign(DesignParams):
        @property
        def n_joints(self):  # read by the set-up: the first read waits for the other thread
            if not paused.is_set():
                paused.set()
                assert resume.wait(10)
            return len(self.joints)

    held = HeldDesign(a.origin, a.joints, a.lengths)
    first = []
    thread = threading.Thread(target=lambda: first.append(repr(solve_ik(held, targets[0]))))
    thread.start()
    assert paused.wait(10)
    during = [repr(solve_ik(b, t)) for t in targets]
    resume.set()
    thread.join(10)
    assert not thread.is_alive()
    assert first == serial[a][:1] and during == serial[b]
    assert [repr(solve_ik(b, t)) for t in targets] == serial[b]
    assert [repr(solve_ik(held, t)) for t in targets] == serial[a]


def test_more_threads_than_cores_solving_their_own_designs_get_the_serial_results():
    rng = np.random.default_rng(37)
    designs = [random_sample(rng, SpaceConfig(n_joints=4)) for _ in range(4)]
    targets = [tuple(rng.uniform(-0.6, 0.6, 3)) for _ in range(20)]
    serial = [[repr(solve_ik(p, t)) for t in targets] for p in designs]
    results = [[] for _ in designs]
    start = threading.Barrier(len(designs))

    def solve_all(k):
        start.wait(10)
        for _ in range(3):
            results[k].append([repr(solve_ik(designs[k], t)) for t in targets])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=solve_all, args=(k,)) for k in range(len(designs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[solved] * 3 for solved in serial]


def test_ik_residual_never_worse_than_start():
    rng = np.random.default_rng(17)
    cfg = SpaceConfig(n_joints=4)
    for _ in range(50):
        p = random_sample(rng, cfg)
        target = rng.uniform(-1.0, 1.0, size=3)
        # the aimed start is the first one solve_ik runs
        aimed = _residual_bound(p.origin, tuple(jt.value for jt in p.joints), p.lengths, target.tolist())[1]
        start_residual = np.linalg.norm(forward_kinematics(p, aimed) - target)
        sol = solve_ik(p, target)
        assert sol.residual <= start_residual + 1e-12


def test_ik_respects_joint_bounds_exactly():
    rng = np.random.default_rng(19)
    cfg = SpaceConfig(n_joints=4)
    for _ in range(50):
        p = random_sample(rng, cfg)
        sol = solve_ik(p, rng.uniform(-0.8, 0.8, size=3))
        assert np.all(np.abs(sol.q) <= JOINT_ANGLE_LIMIT)


def test_ik_self_consistency_on_reachable_targets():
    rng = np.random.default_rng(23)
    cfg = SpaceConfig(n_joints=4)
    solved = 0
    n_cases = 50
    for _ in range(n_cases):
        p = random_sample(rng, cfg)
        target = forward_kinematics(p, random_posture(rng, 4))
        sol = solve_ik(p, target)
        if sol.residual < 1e-3:
            solved += 1
    assert solved >= 0.95 * n_cases


def test_ik_torque_field_matches_returned_posture():
    # reached and torque come from the FK pass that scored the returned posture, so they
    # equal a fresh evaluation at sol.q exactly, whether the aimed start was certified or not
    rng = np.random.default_rng(29)
    iterations = []
    for _ in range(50):
        p = random_sample(rng, SpaceConfig(n_joints=4))
        target = np.array(p.origin) + rng.uniform(-0.7, 0.7, size=3)
        sol = solve_ik(p, target)
        iterations.append(sol.iterations)
        assert sol.reached == tuple(forward_kinematics(p, sol.q).tolist())
        assert sol.torque == tuple(gravity_torque(p, sol.q).tolist())
    # both kinds of solve are covered: certified at the aimed start (no iteration) and iterated
    assert 0 in iterations and max(iterations) > 0


def test_ik_does_not_depend_on_call_history():
    # start postures and their reach are cached, so a solve must not depend on earlier solves;
    # no yaw at joints 1-2, so the bound is link 1's arc and this solve runs the pool starts
    design, target = ((0.1, -0.2, 0.05), "PPRP", (0.2, 0.15, 0.1, 0.12)), (0.9, 0.3, 0.4)
    history = [
        ((0, 0, 0), "PPY", (0.1, 0.2, 0.1)),
        ((0, 0, 0), "PYPRP", (0.1,) * 5),
        ((0, 0, 0), "YPPR", (0.1,) * 4),
    ]
    src = str(Path(armdesign.__file__).resolve().parent.parent)

    def solve_in_fresh_process(earlier) -> str:
        code = (
            "from armdesign.kinematics import solve_ik\n"
            "from armdesign.space import make_params\n"
            f"for other in {earlier!r}:\n"
            f"    solve_ik(make_params(*other), {target!r})\n"
            f"print(repr(solve_ik(make_params(*{design!r}), {target!r})))"
        )
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout.strip()

    fresh = solve_in_fresh_process([])
    assert solve_in_fresh_process(history) == fresh
    for other in history:
        solve_ik(make_params(*other), target)
    sol = solve_ik(make_params(*design), target)
    assert sol.iterations > IK_START_ITERS  # the pool starts ran
    assert repr(sol) == fresh


def triangle_floor(p, target) -> float:
    return max(0.0, math.dist(target, p.origin) - math.fsum(p.lengths))


def residual_bound(p, target) -> float:
    return _residual_bound(p.origin, tuple(jt.value for jt in p.joints), p.lengths, target)[0]


def arc_bound(p, target) -> float:
    """The bound with link 1 alone on its arc and links 2..D relaxed (a yaw link 1 is a point)."""
    dx, dy, dz = (t - o for t, o in zip(target, p.origin))
    first, code = p.lengths[0], p.joints[0].value
    if code == 2:
        nx, ny, nz = 0.0, 0.0, first
    else:
        u = dx if code == 1 else -dy
        q = min(JOINT_ANGLE_LIMIT, max(-JOINT_ANGLE_LIMIT, math.atan2(u, dz)))
        s, c = first * math.sin(q), first * math.cos(q)
        nx, ny, nz = (s, 0.0, c) if code == 1 else (0.0, -s, c)
    return max(0.0, math.dist((dx, dy, dz), (nx, ny, nz)) - math.fsum(p.lengths[1:]))


# runs of yaw joints, which merge links into one rod: a leading column, a cap, an arc
YAW_HEAVY = ["YYYY", "YYYR", "RYYY", "YPYY", "YYP", "PYYR", "Y", "YR"]


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(
    st.one_of(designs_and_postures(), designs_and_postures(YAW_HEAVY)),
    st.tuples(*[st.floats(-1.5, 1.5)] * 3),
    st.sampled_from(["anywhere", "stretch", "below"]),
    st.floats(1.0, 2.0),
)
def test_residual_bound_holds_for_every_posture(case, target, place, stretch):
    p, q = case
    reached = forward_kinematics(p, q)
    origin = np.asarray(p.origin)
    if place == "stretch":  # on the line from the origin through the reached point: tight when q[1:] = 0
        target = tuple(origin + stretch * (reached - origin))
    elif place == "below":  # within 0.74 rad of straight down from any column top: past the cap's rim
        target = tuple(origin + (0.05 * target[0], 0.05 * target[1], -0.1 - abs(target[2])))
    bound = residual_bound(p, target)
    assert math.dist(reached, target) >= bound - 1e-12
    assert bound >= triangle_floor(p, target) - 1e-12
    assert bound >= arc_bound(p, target) - 1e-12


NO_YAW_AT_1_2 = [
    "".join(s) for d in range(1, 7) for s in itertools.product("RPY", repeat=d) if "Y" not in s[:2]
]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(designs_and_postures(NO_YAW_AT_1_2), st.tuples(*[st.floats(-1.5, 1.5)] * 3))
def test_residual_bound_is_the_link_one_arc_without_a_yaw_at_joints_1_2(case, target):
    p, _ = case
    assert residual_bound(p, target) == arc_bound(p, target)  # the same float


def grid_nearest(p, q, joint, target) -> float:
    """The closest the end gets to target as `joint` sweeps a 2e-3 rad grid, limits included.

    The grid has a point within 1e-3 rad of any angle, so a rod of length R
    ends within R * 1e-3 of any point on its arc.
    """
    nearest = math.inf
    for a in np.linspace(-JOINT_ANGLE_LIMIT, JOINT_ANGLE_LIMIT, 2401):
        q[joint] = a
        nearest = min(nearest, math.dist(forward_kinematics(p, q), target))
    return nearest


@settings(max_examples=60, deadline=None, derandomize=True)
@given(designs_and_postures(), st.tuples(*[st.floats(-1.5, 1.5)] * 3))
def test_residual_bound_is_exact_for_one_joint(case, target):
    # with one joint the arc is all the arm reaches, so the bound is its distance
    p, _ = case
    p = make_params(p.origin, p.joints[:1], p.lengths[:1])
    nearest = grid_nearest(p, [0.0], 0, target)
    assert nearest - p.lengths[0] * 1e-3 <= residual_bound(p, target) <= nearest + 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    designs_and_postures(["P", "R", "PY", "RY", "PYY", "RYYY", "PYYYY"]),
    st.tuples(*[st.floats(-1.5, 1.5)] * 3),
)
def test_residual_bound_is_exact_for_a_rod_on_an_arc(case, target):
    # joint 1 and the yaws after it swing one rod of their summed length, and
    # the yaw angles move nothing, so the arc of that length is all the arm reaches
    p, q = case
    rod = math.fsum(p.lengths)
    nearest = grid_nearest(p, q.tolist(), 0, target)
    assert nearest - rod * 1e-3 <= residual_bound(p, target) <= nearest + 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    designs_and_postures(["YP", "YR", "YYP", "YRY", "YYYR", "YPYY", "YYRYY"]),
    st.tuples(*[st.floats(-1.5, 1.5)] * 3),
)
def test_residual_bound_is_exact_for_a_column_and_a_cap(case, target):
    # the yaw column turns the rod's plane to the target's azimuth, or to the
    # opposite one, where a negative angle points it back; the rod then sweeps
    # that plane, so the grid finds the cap's nearest point
    p, q = case
    x = [j is JointType.YAW for j in p.joints].index(False)
    column = (p.origin[0], p.origin[1], p.origin[2] + math.fsum(p.lengths[:x]))
    azimuth = math.atan2(target[1] - column[1], target[0] - column[0])
    if p.joints[x] is JointType.ROLL:  # roll tips the rod toward -y at yaw 0
        azimuth += math.pi / 2
    yaw = math.remainder(azimuth, 2 * math.pi)
    if abs(yaw) > JOINT_ANGLE_LIMIT:
        yaw -= math.copysign(math.pi, yaw)
    q = [yaw] + [0.0] * (x - 1) + q[x:].tolist()
    rod = math.fsum(p.lengths[x:])
    nearest = grid_nearest(p, q, x, target)
    assert nearest - rod * 1e-3 <= residual_bound(p, target) <= nearest + 1e-12


@settings(max_examples=100, deadline=None, derandomize=True)
@given(designs_and_postures(["Y", "YY", "YYY", "YYYY", "YYYYYY"]), st.tuples(*[st.floats(-1.5, 1.5)] * 3))
def test_residual_bound_is_exact_for_an_all_yaw_chain(case, target):
    p, q = case
    assert residual_bound(p, target) == pytest.approx(math.dist(forward_kinematics(p, q), target), abs=1e-12)


def test_ik_stops_on_the_arc_certificate():
    # yaw first: link 1 stays vertical, so no posture gets within 0.089 m of this
    # point, while the triangle floor is 0 and would let every start run
    p = make_params((0, 0, 0), "YPRP", [0.165] * 4)
    target = (0.5, 0.3, 0.2)
    bound = residual_bound(p, target)
    assert triangle_floor(p, target) == 0.0 and bound > 0.08
    sol = solve_ik(p, target)
    assert bound - MARGIN <= sol.residual <= bound + IK_TOL  # the aimed start attains it, up to rounding
    assert sol.iterations == 0  # certified at the aimed start


def test_ik_stops_on_the_cap_certificate():
    # links 1-3 form a 0.495 m column and link 4 ends on a cap of radius 0.165
    # about its top, so no posture gets within 0.246 m of this target1 point;
    # link 1's arc alone and the triangle floor both give 0
    p = make_params((0, 0, 0), "YYYR", [0.165] * 4)
    target = (0.4, 0.0, 0.4)
    bound = residual_bound(p, target)
    assert triangle_floor(p, target) == arc_bound(p, target) == 0.0 and bound > 0.24
    sol = solve_ik(p, target)
    assert bound - MARGIN <= sol.residual <= bound + IK_TOL  # the aimed start attains it, up to rounding
    assert sol.iterations == 0  # certified at the aimed start


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(
    st.one_of(designs_and_postures(), designs_and_postures(YAW_HEAVY)),
    st.tuples(*[st.floats(-1.5, 1.5)] * 3),
    st.sampled_from(["anywhere", "plumb", "on the rod's line"]),
    st.floats(-JOINT_ANGLE_LIMIT, JOINT_ANGLE_LIMIT),
    st.floats(-math.pi, math.pi),
    st.floats(1.0, 2.0),
)
# straight above and below the base, with signed zeros (atan2(-0.0, -0.0) is -pi)
@example((make_params((0.0, 0.0, 0.0), "YR", [0.1, 0.2]), None), (-0.0, -0.0, 0.5), "anywhere", 0.0, 0.0, 1.0)
@example((make_params((0.0, 0.0, 0.0), "YP", [0.1, 0.2]), None), (-0.0, -0.0, -0.5), "anywhere", 0.0, 0.0, 1.0)
@example((make_params((0.0, 0.0, 0.0), "YYRP", [0.1] * 4), None), (0.0, -0.0, -0.5), "anywhere", 0.0, 0.0, 1.0)
# azimuths past pi/2 take roll's quarter turn past +pi, and need the wrap; past pi - limit,
# pitch needs the half turn back
@example((make_params((0.0, 0.0, 0.0), "YR", [0.1, 0.2]), None), (-0.3, 0.05, 0.2), "anywhere", 0.0, 0.0, 1.0)
@example((make_params((0.0, 0.0, 0.0), "YR", [0.1, 0.2]), None), (-0.3, -0.05, 0.2), "anywhere", 0.0, 0.0, 1.0)
@example((make_params((0.0, 0.0, 0.0), "YYP", [0.1] * 3), None), (-0.3, 0.05, 0.2), "anywhere", 0.0, 0.0, 1.0)
def test_aimed_start_lies_within_the_limits_and_attains_the_bound_where_it_is_exact(
    case, target, place, polar, azimuth, stretch
):
    p, _ = case
    codes = tuple(jt.value for jt in p.joints)
    # the bound's rod is joints k..end-1: joint 1, or the first joint after the leading yaws
    k = 0 if codes[0] != 2 else next((j for j, c in enumerate(codes) if c != 2), len(codes))
    end = next((j for j in range(k + 1, len(codes)) if codes[j] != 2), len(codes))
    if place == "plumb":  # straight above or below the base
        target = (p.origin[0], p.origin[1], p.origin[2] + target[2])
    elif place == "on the rod's line" and end < len(codes):
        # from the rod's pivot at an unclamped angle, and past the rest of the chain:
        # in joint 1's swing plane (roll or pitch first), or anywhere above the cap's rim (yaw first)
        pivot = (p.origin[0], p.origin[1], p.origin[2] + math.fsum(p.lengths[:k]))
        s, c = math.sin(polar), math.cos(polar)
        if k > 0:
            direction = (abs(s) * math.cos(azimuth), abs(s) * math.sin(azimuth), c)
        else:
            direction = (s, 0.0, c) if codes[0] == 1 else (0.0, -s, c)
        reach = stretch * math.fsum(p.lengths[k:])
        target = tuple(o + reach * u for o, u in zip(pivot, direction))
    bound, aimed = _residual_bound(p.origin, codes, p.lengths, target)
    assert len(aimed) == len(codes) and max(map(abs, aimed)) <= JOINT_ANGLE_LIMIT
    residual = math.dist(_kernels(len(codes)).chain(p.origin, codes, p.lengths, aimed)[1], target)
    assert residual >= bound - MARGIN
    if end == len(codes) or place == "on the rod's line":  # the relaxation is exact
        assert residual == pytest.approx(bound, abs=MARGIN)
    if codes[0] == 2 and k < len(codes) and math.copysign(1.0, aimed[k]) < 0:
        # the rod tips the other way only where no yaw within the limits turns it toward the target
        turn = math.atan2(target[1] - p.origin[1], target[0] - p.origin[0])
        turn += math.pi / 2 if codes[k] == 0 else 0.0  # roll tips the rod toward -y at yaw 0
        assert abs(math.remainder(turn, 2 * math.pi)) > JOINT_ANGLE_LIMIT


@settings(max_examples=300, deadline=None, derandomize=True)
@given(designs_and_postures())
def test_pool_reach_is_the_chain_reach(case):
    p, _ = case
    codes = tuple(jt.value for jt in p.joints)
    expected = tuple(oracle.chain(p.origin, codes, p.lengths, q)[1] for q in _start_pool(len(codes)))
    assert _pool_reach(p.origin, codes, p.lengths) == expected


@settings(max_examples=200, deadline=None, derandomize=True)
@given(designs_and_postures(), st.tuples(*[st.floats(-1.5, 1.5)] * 3))
def test_ik_solution_properties(case, target):
    p, _ = case
    sol = solve_ik(p, target)
    assert sol.residual >= triangle_floor(p, target) - 1e-12
    assert sol.residual >= residual_bound(p, target) - 1e-12
    assert max(map(abs, sol.q)) <= JOINT_ANGLE_LIMIT
    assert sol.reached == tuple(forward_kinematics(p, sol.q))
    assert sol.iterations <= (1 + IK_POOL_STARTS) * IK_START_ITERS


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    designs_and_postures(["".join(s) for s in itertools.product("RPY", repeat=4)]),
    st.floats(0.0, math.pi),
    st.floats(-math.pi, math.pi),
    st.floats(0.0, 1.2),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3),
)
def test_certified_residuals_are_unchanged_by_a_rigid_shift(case, polar, azimuth, distance, shift):
    # moving the base and the target by one vector moves no distance, so a residual certified
    # within IK_TOL of the bound on both sides is the same residual up to IK_TOL
    p, _ = case
    direction = (math.sin(polar) * math.cos(azimuth), math.sin(polar) * math.sin(azimuth), math.cos(polar))
    target = tuple(o + distance * u for o, u in zip(p.origin, direction))
    moved = make_params([o + s for o, s in zip(p.origin, shift)], p.joints, p.lengths)
    moved_target = tuple(t + s for t, s in zip(target, shift))
    sol, moved_sol = solve_ik(p, target), solve_ik(moved, moved_target)
    bound, moved_bound = residual_bound(p, target), residual_bound(moved, moved_target)
    if sol.residual <= bound + IK_TOL and moved_sol.residual <= moved_bound + IK_TOL:
        assert abs(sol.residual - moved_sol.residual) <= IK_TOL + 1e-12


def test_base_yaw_invariance():
    p = make_params((0.2, 0.1, 0.0), "YPRP", [0.1, 0.2, 0.1, 0.15])
    base = forward_kinematics(p, np.zeros(4))
    for angle in (-2.0, -0.5, 1.0, 2.3):
        q = np.zeros(4)
        q[0] = angle
        np.testing.assert_allclose(forward_kinematics(p, q), base, atol=1e-12)


def same_solution(p, target) -> IKSolution:
    """solve_ik's solution, after checking that every field equals the reference loop's, signed zeros and all."""
    got = solve_ik(p, target)
    assert repr(got) == repr(oracle.solve_ik_reference(p, target))
    return got


def place_target(p, q, offset, place):
    """A target for design p: reached at posture q, the point `offset`, far off, or below the base.

    Below the base, a roll or pitch joint 1 swings its rod past the limit toward
    the target, so the aimed start has joint 1 pinned at the limit.
    """
    origin = np.asarray(p.origin)
    offset = np.asarray(offset)
    if place == "reached":
        return tuple(forward_kinematics(p, q))
    if place == "far":
        return tuple(origin + offset * (2 * sum(p.lengths) / max(np.linalg.norm(offset), 1e-3)))
    if place == "below":
        return tuple(origin + (0.1 * offset[0], 0.1 * offset[1], -0.05 - abs(offset[2])))
    return tuple(offset)


def panel_case(design: int, target: int):
    return (from_vector(PANEL["designs"][design]["vector"]), None), tuple(PANEL["targets"][target]), "anywhere"


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    st.one_of(designs_and_postures(), designs_and_postures(YAW_HEAVY)),
    st.tuples(*[st.floats(-1.5, 1.5)] * 3),
    st.sampled_from(["reached", "anywhere", "far", "below"]),
)
# the limit-pinned local minima of the IK panel: design 5 on targets 11 and 3, design 20 on target 0
@example(*panel_case(5, 11))
@example(*panel_case(5, 3))
@example(*panel_case(20, 0))
def test_kernel_matches_the_reference_loop(case, offset, place):
    p, q = case
    same_solution(p, place_target(p, q, offset, place))


def test_kernel_matches_the_reference_loop_on_every_joint_sequence():
    # one design per sequence of D = 1-6 joints; the below-the-base targets pin the aimed
    # start of every roll- or pitch-first chain at a limit, which the masked re-solve serves
    rng = np.random.default_rng(31)
    pinned_and_iterated = 0
    for d in range(1, 7):
        for joints in itertools.product("RPY", repeat=d):
            p = make_params(rng.uniform(-1.0, 1.0, 3), joints, rng.uniform(0.03, 0.3, d))
            q = rng.uniform(-JOINT_ANGLE_LIMIT, JOINT_ANGLE_LIMIT, d)
            for place in ("reached", "far", "below"):
                target = place_target(p, q, rng.uniform(-1.5, 1.5, 3), place)
                sol = same_solution(p, target)
                aimed = _residual_bound(p.origin, tuple(jt.value for jt in p.joints), p.lengths, target)[1]
                pinned_and_iterated += abs(aimed[0]) == JOINT_ANGLE_LIMIT and sol.iterations > 0
    assert pinned_and_iterated > 100


@pytest.mark.parametrize("d", [1, 8])
def test_generated_kernel_compiles_and_solves(d):
    rng = np.random.default_rng(d)
    p = make_params(rng.uniform(-0.5, 0.5, 3), rng.choice(list("RPY"), d), rng.uniform(0.03, 0.3, d))
    below = np.asarray(p.origin) + (0.2, -0.1, -0.3)
    for target in (forward_kinematics(p, rng.uniform(-2.0, 2.0, d)), below, (3.0, 0.0, 0.0)):
        same_solution(p, target)
    kernels = _kernels(d)
    # the generated lines are registered, so a traceback through a kernel shows them
    for kernel in kernels:
        assert linecache.getline(kernel.__code__.co_filename, 1).startswith(f"def {kernel.__name__}(")
    assert [kernel.__name__ for kernel in kernels] == [f"_chain{d}", f"_columns{d}", f"_lm{d}"]
    for kernel, args in [
        (kernels.chain, ((0.0, 0.0, 0.0), (0,) * d, (0.1,) * d, ("x",) * d)),
        (kernels.lm, ((0,) * d, (0.0, 0.0, 0.0), (0.1,) * d, ("x",) * d, 0.0, 0.0, 1.0, 0.0, math.inf)),
    ]:
        with pytest.raises(TypeError) as raised:
            kernel(*args)
        frame = traceback.extract_tb(raised.value.__traceback__)[-1]
        assert frame.filename == kernel.__code__.co_filename and frame.line == "c, s = cos(q0), sin(q0)"


def test_kernels_are_compiled_on_the_first_solve_with_d_joints():
    # nothing at import, then one set of kernels per D: the first D = 4 solve (certified at the
    # aimed start, 0 iterations) compiles it, iterated solves of other D = 4 sequences reuse it
    code = (
        "from armdesign.kinematics import _kernels, solve_ik\n"
        "from armdesign.space import make_params\n"
        "out = [_kernels.cache_info().currsize]\n"
        "for joints, target in [('YPRP', (0.0, 0.0, 0.4)), ('YPRP', (0.2, 0.1, 0.15)), ('PRPY', (0.1, 0.2, 0.2)),\n"
        "                       ('PRP', (0.1, 0.2, 0.2))]:\n"
        "    sol = solve_ik(make_params((0, 0, 0), joints, [0.1] * len(joints)), target)\n"
        "    out += [sol.iterations > 0, _kernels.cache_info().currsize]\n"
        "print(out)"
    )
    src = str(Path(armdesign.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True
    ).stdout.strip()
    assert out == "[0, False, 1, True, 1, True, 1, True, 2]"
