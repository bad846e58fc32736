"""Reference kinematics for the tests: numpy frame propagation by 3x3 rotations, and the IK loop.

An independent implementation of the conventions in `armdesign.kinematics`
(rotation matrices multiplied out in numpy instead of the package's scalar
column updates), so the finite-difference torque oracle and the property tests
do not share their forward kinematics with the code they check.

`chain`, `jacobian_columns`, `torques` and `solve_ik_reference` are the FK
pass, the Jacobian, the gravity-torque pass and the Levenberg-Marquardt loop
that the package ran as plain loops before they moved into kernels generated
once per joint count; the kernels must reproduce them bit for bit.
"""
from __future__ import annotations

import math
from math import cos, sin

import numpy as np

from armdesign.kinematics import (
    COM_FRACTION,
    GRAVITY,
    IK_MIN_DROP,
    IK_MIN_STEP,
    IK_MU_FLOOR,
    IK_MU_INIT,
    IK_POOL_STARTS,
    IK_START_ITERS,
    IK_START_POOL,
    IK_TOL,
    LINEAR_DENSITY,
    IKSolution,
    _pool_reach,
    _residual_bound,
    _start_pool,
)
from armdesign.space import JOINT_ANGLE_LIMIT


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


def chain(origin, codes, lengths, q):
    """One FK pass on floats: ([(px, py, pz, ax, ay, az, sx, sy, sz) per joint], ee).

    Per joint: its position p, its world axis a and the vector s of the link
    after it; ee is (x, y, z). The frame's rotation is carried as its three
    world-frame columns u, v, w (images of local x, y, z); joint j
    post-multiplies it by its own rotation, which leaves its own axis fixed.
    """
    ux, uy, uz, vx, vy, vz, wx, wy, wz = 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0
    x, y, z = origin
    joints = []
    for code, length, angle in zip(codes, lengths, q):
        c, s = cos(angle), sin(angle)
        if code == 0:  # roll, about u: v and w turn
            vx, wx = vx * c + wx * s, wx * c - vx * s
            vy, wy = vy * c + wy * s, wy * c - vy * s
            vz, wz = vz * c + wz * s, wz * c - vz * s
            ax, ay, az = ux, uy, uz
        elif code == 1:  # pitch, about v: w and u turn
            ux, wx = ux * c - wx * s, ux * s + wx * c
            uy, wy = uy * c - wy * s, uy * s + wy * c
            uz, wz = uz * c - wz * s, uz * s + wz * c
            ax, ay, az = vx, vy, vz
        else:  # yaw, about w: u and v turn
            ux, vx = ux * c + vx * s, vx * c - ux * s
            uy, vy = uy * c + vy * s, vy * c - uy * s
            uz, vz = uz * c + vz * s, vz * c - uz * s
            ax, ay, az = wx, wy, wz
        sx, sy, sz = length * wx, length * wy, length * wz  # the link runs along local z
        joints.append((x, y, z, ax, ay, az, sx, sy, sz))
        x, y, z = x + sx, y + sy, z + sz
    return joints, (x, y, z)


def torques(joints, lengths) -> list[float]:
    """tau_j = sum over links i >= j of weight_i * (axis_j x (com_i - p_j))_z."""
    weights = [LINEAR_DENSITY * length * GRAVITY for length in lengths]
    f = COM_FRACTION
    coms = [(x + f * sx, y + f * sy) for x, y, _, _, _, _, sx, sy, _ in joints]  # z is not needed
    out = []
    for j, (px, py, _, ax, ay, _, _, _, _) in enumerate(joints):
        tau = 0.0
        for weight, (cx, cy) in zip(weights[j:], coms[j:]):
            tau += weight * (ax * (cy - py) - ay * (cx - px))
        out.append(tau)
    return out


def jacobian_columns(joints, ee) -> list[tuple[float, float, float]]:
    """Column j of the position Jacobian: axis_j x (ee - p_j)."""
    ex, ey, ez = ee
    return [
        (
            ay * (ez - pz) - az * (ey - py),
            az * (ex - px) - ax * (ez - pz),
            ax * (ey - py) - ay * (ex - px),
        )
        for px, py, pz, ax, ay, az, _, _, _ in joints
    ]


def _gram(cols) -> tuple[float, ...]:
    """The six distinct entries (00, 01, 02, 11, 12, 22) of J J^T, J given by its columns."""
    a00 = a01 = a02 = a11 = a12 = a22 = 0.0
    for jx, jy, jz in cols:
        a00 += jx * jx; a01 += jx * jy; a02 += jx * jz
        a11 += jy * jy; a12 += jy * jz; a22 += jz * jz
    return a00, a01, a02, a11, a12, a22


def _dls_step(gram, cols, ex: float, ey: float, ez: float, mu: float) -> list[float]:
    """dq = J^T (J J^T + mu I)^-1 err, from the Gram entries of J; 3x3 solve by cofactors."""
    a00, a01, a02, a11, a12, a22 = gram
    a00 += mu; a11 += mu; a22 += mu
    c00 = a11 * a22 - a12 * a12  # cofactors of the symmetric matrix
    c01 = a12 * a02 - a01 * a22
    c02 = a01 * a12 - a11 * a02
    c11 = a00 * a22 - a02 * a02
    c12 = a01 * a02 - a00 * a12
    c22 = a00 * a11 - a01 * a01
    det = a00 * c00 + a01 * c01 + a02 * c02
    x = (c00 * ex + c01 * ey + c02 * ez) / det
    y = (c01 * ex + c11 * ey + c12 * ez) / det
    z = (c02 * ex + c12 * ey + c22 * ez) / det
    return [jx * x + jy * y + jz * z for jx, jy, jz in cols]


def solve_ik_reference(params, target) -> IKSolution:
    """`kinematics.solve_ik` as a loop over lists of joint tuples, one helper call per step.

    The generated kernels of `solve_ik` must perform these float operations in
    this order, so every field of their solution equals this one's bit for bit.
    It runs on `chain`, `jacobian_columns` and `torques` above, and shares with
    the package only what the kernels do not replace: the bound and its aimed
    start, and the start pool. It does not validate its inputs.
    """
    target = np.asarray(target, dtype=float).ravel()
    tx, ty, tz = target.tolist()
    d = params.n_joints
    origin = params.origin
    codes = tuple(jt.value for jt in params.joints)
    lengths = params.lengths
    limit = JOINT_ANGLE_LIMIT
    min_step_sq = IK_MIN_STEP**2
    bound, aimed = _residual_bound(origin, codes, lengths, (tx, ty, tz))
    stop_at = bound + IK_TOL

    def starts():
        yield aimed
        dist = [math.dist(reach, (tx, ty, tz)) for reach in _pool_reach(origin, codes, lengths)]
        for k in sorted(range(IK_START_POOL), key=dist.__getitem__)[:IK_POOL_STARTS]:
            yield list(_start_pool(d)[k])

    best_q, best_residual, best_chain = None, math.inf, None
    iterations = 0
    for q in starts():
        joints, ee = chain(origin, codes, lengths, q)
        ex, ey, ez = tx - ee[0], ty - ee[1], tz - ee[2]
        err_sq = ex * ex + ey * ey + ez * ez
        residual = math.sqrt(err_sq)
        if residual < best_residual:
            best_q, best_residual, best_chain = q, residual, (joints, ee)
        if best_residual <= stop_at:
            break
        cols = jacobian_columns(joints, ee)
        gram = _gram(cols)
        mu = max(IK_MU_FLOOR, IK_MU_INIT * max(gram[0], gram[3], gram[5]))
        nu = 2.0
        for _ in range(IK_START_ITERS):
            iterations += 1
            dq = _dls_step(gram, cols, ex, ey, ez, mu)
            if limit in q or -limit in q:  # |q| <= limit, so only a joint at a limit can be pinned
                pinned = [(qj >= limit and s > 0.0) or (qj <= -limit and s < 0.0) for qj, s in zip(q, dq)]
                if True in pinned:
                    masked = [(0.0, 0.0, 0.0) if p else col for p, col in zip(pinned, cols)]
                    dq = _dls_step(_gram(masked), masked, ex, ey, ez, mu)
            # the projected step h, its squared length and the linear model's J h
            q_next = []
            step_sq = hx = hy = hz = 0.0
            for qj, s, (jx, jy, jz) in zip(q, dq, cols):
                a = qj + s
                a = limit if a > limit else -limit if a < -limit else a
                q_next.append(a)
                h = a - qj
                step_sq += h * h
                hx += jx * h; hy += jy * h; hz += jz * h
            if step_sq < min_step_sq:
                break
            joints, ee = chain(origin, codes, lengths, q_next)
            ex_next, ey_next, ez_next = tx - ee[0], ty - ee[1], tz - ee[2]
            err_sq_next = ex_next * ex_next + ey_next * ey_next + ez_next * ez_next
            gain = err_sq - err_sq_next
            if gain <= 0.0:  # rejected: damp harder
                mu *= nu
                nu *= 2.0
                continue
            # the linear model's gain |e|^2 - |e - J h|^2; a model that predicts no gain counts as rho = 0
            predicted = hx * (2.0 * ex - hx) + hy * (2.0 * ey - hy) + hz * (2.0 * ez - hz)
            rho = gain / predicted if predicted > 0.0 else 0.0
            mu = max(IK_MU_FLOOR, mu * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3))
            nu = 2.0
            q, ex, ey, ez, err_sq = q_next, ex_next, ey_next, ez_next, err_sq_next
            residual, previous = math.sqrt(err_sq), residual
            if residual < best_residual:
                best_q, best_residual, best_chain = q, residual, (joints, ee)
            if best_residual <= stop_at or previous - residual < IK_MIN_DROP:  # certified, or a local minimum
                break
            cols = jacobian_columns(joints, ee)
            gram = _gram(cols)
        if best_residual <= stop_at:
            break

    joints, reached = best_chain  # the FK pass that scored best_q
    return IKSolution(
        q=tuple(best_q),
        reached=reached,
        torque=tuple(torques(joints, lengths)),
        residual=best_residual,
        converged=best_residual <= IK_TOL,
        iterations=iterations,
    )
