"""Reference kinematics for the tests: numpy frame propagation by 3x3 rotations.

An independent implementation of the conventions in `armdesign.kinematics`
(rotation matrices multiplied out in numpy instead of the package's scalar
column updates), so the finite-difference torque oracle and the property tests
do not share their forward kinematics with the code they check.
"""
from __future__ import annotations

import numpy as np

from armdesign.kinematics import COM_FRACTION, GRAVITY, LINEAR_DENSITY


def rotation(code: int, angle: float) -> np.ndarray:
    """Rotation about local x (roll, 0), y (pitch, 1) or z (yaw, 2)."""
    c, s = np.cos(angle), np.sin(angle)
    if code == 0:
        return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    if code == 1:
        return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def frames(params, q):
    """World joint positions, joint axes and link COMs (each (D, 3)) and the EE (3,)."""
    q = np.asarray(q, dtype=float)
    d = params.n_joints
    positions, axes, coms = np.empty((d, 3)), np.empty((d, 3)), np.empty((d, 3))
    rot = np.eye(3)
    pos = np.asarray(params.origin)
    for j, (jt, length) in enumerate(zip(params.joints, params.lengths)):
        positions[j] = pos
        axes[j] = rot[:, jt.value]  # local unit axis in the world frame
        rot = rot @ rotation(jt.value, q[j])
        step = length * rot[:, 2]
        coms[j] = pos + COM_FRACTION * step
        pos = pos + step
    return positions, axes, coms, pos


def forward_kinematics(params, q) -> np.ndarray:
    return frames(params, q)[3]


def position_jacobian(params, q) -> np.ndarray:
    """3xD; column j = axis_j x (p_ee - p_j)."""
    positions, axes, _, ee = frames(params, q)
    return np.cross(axes, ee - positions).T


def gravity_torque(params, q) -> np.ndarray:
    """tau_j = sum over links i >= j of m_i g (axis_j x (com_i - p_j))_z."""
    positions, axes, coms, _ = frames(params, q)
    weights = LINEAR_DENSITY * np.asarray(params.lengths) * GRAVITY
    return np.array(
        [
            np.sum(weights[j:] * np.cross(axes[j], coms[j:] - positions[j])[:, 2])
            for j in range(params.n_joints)
        ]
    )


def potential_energy(params, q) -> float:
    """Gravitational potential energy of the link masses at posture q (J)."""
    _, _, coms, _ = frames(params, q)
    masses = LINEAR_DENSITY * np.asarray(params.lengths)
    return float(np.sum(masses * GRAVITY * coms[:, 2]))
