from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import armdesign
from armdesign.kinematics import (
    IK_POOL_STARTS,
    IK_START_ITERS,
    GravityModel,
    forward_kinematics,
    gravity_torque,
    position_jacobian,
    solve_ik,
)
from armdesign.space import JOINT_ANGLE_LIMIT, JointType, SpaceConfig, make_params, random_sample

import kinematics_oracle as oracle
from conftest import random_posture


def fd_jacobian(params, q, eps=1e-6):
    """Central finite differences of forward_kinematics - the Jacobian oracle."""
    q = np.asarray(q, dtype=float)
    cols = []
    for j in range(len(q)):
        step = np.zeros_like(q)
        step[j] = eps
        cols.append((forward_kinematics(params, q + step) - forward_kinematics(params, q - step)) / (2 * eps))
    return np.array(cols).T


def fd_gravity_torque(params, q, gravity, eps=1e-6):
    """Central finite differences of the potential energy - the torque oracle."""
    q = np.asarray(q, dtype=float)
    torque = np.empty(len(q))
    for j in range(len(q)):
        step = np.zeros_like(q)
        step[j] = eps
        torque[j] = (
            oracle.potential_energy(params, q + step, gravity)
            - oracle.potential_energy(params, q - step, gravity)
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
    gravity = GravityModel(linear_density=1.0)
    tau = gravity_torque(p, [np.pi / 2], gravity)
    # 0.2 kg rod, COM lever 0.1 m
    assert abs(abs(tau[0]) - 0.2 * 9.81 * 0.1) < 1e-9


def test_gravity_torque_matches_energy_finite_differences():
    rng = np.random.default_rng(13)
    cfg = SpaceConfig(n_joints=4)
    gravity = GravityModel()
    for _ in range(100):
        p = random_sample(rng, cfg)
        q = random_posture(rng, 4)
        analytic = gravity_torque(p, q, gravity)
        numeric = fd_gravity_torque(p, q, gravity)
        scale = max(np.abs(numeric).max(), 1e-6)
        assert np.abs(analytic - numeric).max() / scale < 1e-5


@st.composite
def designs_and_postures(draw):
    """A design of 1-6 joints within the space bounds and a posture, limits included."""
    d = draw(st.integers(1, 6))
    coord = st.floats(-1.0, 1.0)
    origin = draw(st.tuples(coord, coord, coord))
    joints = draw(st.lists(st.sampled_from(list(JointType)), min_size=d, max_size=d))
    lengths = draw(st.lists(st.floats(0.03, 0.3), min_size=d, max_size=d))
    angle = st.one_of(
        st.sampled_from([-JOINT_ANGLE_LIMIT, 0.0, JOINT_ANGLE_LIMIT]),
        st.floats(-JOINT_ANGLE_LIMIT, JOINT_ANGLE_LIMIT),
    )
    q = draw(st.lists(angle, min_size=d, max_size=d))
    gravity = GravityModel(com_fraction=draw(st.floats(0.0, 1.0)))
    return make_params(origin, joints, lengths), np.array(q), gravity


@settings(max_examples=300, deadline=None, derandomize=True)
@given(designs_and_postures())
def test_kernel_matches_numpy_frame_oracle(case):
    p, q, gravity = case
    close = dict(atol=1e-12, rtol=0)
    np.testing.assert_allclose(forward_kinematics(p, q), oracle.forward_kinematics(p, q), **close)
    np.testing.assert_allclose(position_jacobian(p, q), oracle.position_jacobian(p, q), **close)
    np.testing.assert_allclose(
        gravity_torque(p, q, gravity), oracle.gravity_torque(p, q, gravity), **close
    )


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ik_rejects_non_finite_target(bad):
    p = make_params((0, 0, 0), "YPRP", [0.1, 0.1, 0.1, 0.1])
    with pytest.raises(ValueError, match="finite"):
        solve_ik(p, [0.1, bad, 0.2])


def test_ik_residual_never_worse_than_start():
    rng = np.random.default_rng(17)
    cfg = SpaceConfig(n_joints=4)
    for _ in range(50):
        p = random_sample(rng, cfg)
        target = rng.uniform(-1.0, 1.0, size=3)
        start_residual = np.linalg.norm(forward_kinematics(p, np.zeros(4)) - target)
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
    rng = np.random.default_rng(29)
    p = random_sample(rng, SpaceConfig(n_joints=4))
    sol = solve_ik(p, np.array([0.2, 0.1, 0.3]))
    np.testing.assert_allclose(sol.torque, gravity_torque(p, sol.q), atol=1e-12)
    np.testing.assert_allclose(sol.reached, forward_kinematics(p, sol.q), atol=1e-12)


def test_ik_does_not_depend_on_call_history():
    # start postures and their reach are cached, so a solve must not depend on earlier solves
    design, target = ((0.1, -0.2, 0.05), "PYRP", (0.2, 0.15, 0.1, 0.12)), (0.9, 0.3, 0.4)
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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(designs_and_postures(), st.tuples(*[st.floats(-1.5, 1.5)] * 3))
def test_ik_solution_properties(case, target):
    p, _, _ = case
    sol = solve_ik(p, target)
    floor = max(0.0, math.dist(target, p.origin) - math.fsum(p.lengths))
    assert sol.residual >= floor - 1e-12
    assert max(map(abs, sol.q)) <= JOINT_ANGLE_LIMIT
    assert sol.reached == tuple(forward_kinematics(p, sol.q))
    assert sol.iterations <= (1 + IK_POOL_STARTS) * IK_START_ITERS


def test_base_yaw_invariance():
    p = make_params((0.2, 0.1, 0.0), "YPRP", [0.1, 0.2, 0.1, 0.15])
    base = forward_kinematics(p, np.zeros(4))
    for angle in (-2.0, -0.5, 1.0, 2.3):
        q = np.zeros(4)
        q[0] = angle
        np.testing.assert_allclose(forward_kinematics(p, q), base, atol=1e-12)


def test_gravity_model_validation():
    with pytest.raises(ValueError):
        GravityModel(linear_density=0.0)
    with pytest.raises(ValueError):
        GravityModel(com_fraction=1.5)
