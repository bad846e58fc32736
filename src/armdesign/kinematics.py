"""Serial-chain kinematics: FK, position Jacobian, gravity torque, Levenberg-Marquardt IK.

Conventions: joint j rotates about its local axis (roll = x, pitch = y, yaw = z)
and is followed by a link of length L_j along the rotated local +z. With all
angles zero the chain is a vertical line above the base origin.

Everything runs on one pure-Python kernel over floats (`_chain`, one FK pass
per posture, giving joint positions, axes and link vectors) and one Jacobian
routine; link COMs are formed only in the torque pass. One IK iteration is a
3x3 solve, one pass over the joints and one FK pass. At 3x3 sizes numpy's
per-call overhead would dominate, and scalar arithmetic keeps results
independent of the host's BLAS. numpy draws the fixed IK start postures, once
per D, sums the start pool's reach over all 64 postures at once (the same
floats as `_chain`), and wraps the public functions' inputs and outputs.

A solve stops once its residual is within IK_TOL of a closed-form lower bound
(`_residual_bound`). A yaw joint turns a link about its own axis, so the chain
splits into groups of collinear links: a joint and the yaw joints after it.
The bound is the distance from the target to where the first groups can end,
less the rest of the chain's length (a relaxation in the spirit of Kumar &
Waldron 1981, "The Workspace of a Mechanical Manipulator"): an arc swept by
the first group when joint 1 is roll or pitch, or, when it is yaw, a spherical
cap swept by the second group on top of a vertical column of leading yaw links.
The same routine gives the first start: the posture that puts the group's end
on the arc's or cap's nearest point, with the rest of the chain straight on.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import cos, sin

import numpy as np

from .space import JOINT_ANGLE_LIMIT, DesignParams


# uniform-rod link masses under gravity along -z
GRAVITY = 9.81  # m/s^2
LINEAR_DENSITY = 1.0  # kg/m
COM_FRACTION = 0.5  # COM position along each link

# IK budget and stopping rules
IK_TOL = 1e-4  # m, position tolerance
IK_START_POOL = 64  # fixed start postures per D, drawn once from default_rng(0x5EED)
IK_POOL_STARTS = 2  # pool postures, closest to the target first, tried after the aimed start
IK_START_ITERS = 20  # LM iterations per start, so at most (1 + IK_POOL_STARTS) * 20 = 60 per solve
IK_MIN_DROP = 1e-6  # m, a start ends on an accepted step that shortens the residual by less than this ...
IK_MIN_STEP = 1e-10  # rad, ... or on a step shorter than this
IK_MU_INIT = 1e-3  # initial damping, as a share of max diag(J J^T)
IK_MU_FLOOR = 1e-9  # keeps J J^T + mu I invertible when columns are masked or D < 3


@dataclass(frozen=True)
class IKSolution:
    q: tuple[float, ...]  # joint angles, rad
    reached: tuple[float, float, float]  # end-effector position at q, m
    torque: tuple[float, ...]  # gravity-compensation torque at q, N*m
    residual: float  # |reached - target|, m
    converged: bool
    iterations: int


def _check_q(params: DesignParams, q) -> list[float]:
    q = np.asarray(q, dtype=float).ravel()
    if q.size != params.n_joints:
        raise ValueError(f"joint vector length {q.size} does not match D = {params.n_joints}")
    return q.tolist()


def _chain(origin, codes, lengths, q):
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


def _jacobian_columns(joints, ee) -> list[tuple[float, float, float]]:
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


def _torques(joints, lengths) -> list[float]:
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


def _state(params: DesignParams, q):
    codes = [jt.value for jt in params.joints]
    return _chain(params.origin, codes, params.lengths, _check_q(params, q))


def forward_kinematics(params: DesignParams, q) -> np.ndarray:
    """End-effector position (m) at joint angles q."""
    return np.array(_state(params, q)[1])


def position_jacobian(params: DesignParams, q) -> np.ndarray:
    """3xD position Jacobian; column j = axis_j x (p_ee - p_j)."""
    return np.array(_jacobian_columns(*_state(params, q))).T


def gravity_torque(params: DesignParams, q) -> np.ndarray:
    """Static joint torques holding the arm against gravity: dU/dq (N*m).

    Joint j only moves the COMs of links j..D, each contributing its weight
    times the z-component of axis_j x (com_i - p_j).
    """
    joints, _ = _state(params, q)
    return np.array(_torques(joints, params.lengths))


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


@functools.lru_cache(maxsize=None)
def _start_pool(d: int) -> tuple[tuple[float, ...], ...]:
    """The IK_START_POOL start postures for D joints, the same on every call."""
    rng = np.random.default_rng(0x5EED)
    postures = rng.uniform(-JOINT_ANGLE_LIMIT, JOINT_ANGLE_LIMIT, size=(IK_START_POOL, d))
    return tuple(map(tuple, postures.tolist()))


# a run has 3^D joint sequences, all of which fit for D <= 6; each entry is 3 * D * 64 floats
@functools.lru_cache(maxsize=1024)
def _pool_directions(codes) -> np.ndarray:
    """(3, D, IK_START_POOL): the world direction of each link over the start pool.

    Taken from `_chain` at unit lengths, so length * direction is the same float
    as `_chain`'s link vector for any length.
    """
    ones = (1.0,) * len(codes)
    chains = [_chain((0.0, 0.0, 0.0), codes, ones, q)[0] for q in _start_pool(len(codes))]
    return np.array([[joint[6:] for joint in joints] for joints in chains]).transpose(2, 1, 0)


# one entry: `evaluate` solves all targets of a design before the next design comes
@functools.lru_cache(maxsize=1)
def _pool_reach(origin, codes, lengths) -> tuple[tuple[float, float, float], ...]:
    """End-effector positions of a design's start pool, kept while its targets are solved.

    Sums the links in `_chain`'s order, so each position is `_chain`'s, bit for bit.
    """
    ends = []
    for axis, start in zip(_pool_directions(codes), origin):
        x = np.full(IK_START_POOL, start)
        for length, direction in zip(lengths, axis):
            x = x + length * direction
        ends.append(x.tolist())
    return tuple(zip(*ends))


def _skip_yaws(codes, k: int) -> int:
    """The index of the first joint at or after k that is not yaw, or D."""
    while k < len(codes) and codes[k] == 2:
        k += 1
    return k


def _residual_bound(origin, codes, lengths, t) -> tuple[float, list[float]]:
    """A lower bound on |FK(q) - t| over all postures within the joint limits, and a start aimed at t.

    A yaw joint turns about its own link's axis, so the link after it keeps the
    direction of the link before it: a joint and the yaw joints after it move
    one rod of their summed length R. If joint 1 is pitch or roll, the first rod
    ends on an arc: o + R (sin q, 0, cos q) for pitch, o + R (0, -sin q, cos q)
    for roll, |q| <= JOINT_ANGLE_LIMIT. If joint 1 is yaw, the leading yaw links
    form a vertical column of height H, and the next rod (the first roll or
    pitch joint and the yaws after it) ends on the spherical cap of radius R
    about o + H z whose polar angle from +z is at most JOINT_ANGLE_LIMIT; every
    azimuth is reached, since the column turns the rod's plane and q and -q
    point it to opposite sides. An all-yaw chain ends at the one point
    o + sum(L) z. The links after the rod reach at most the sum of their
    lengths from its end, so no posture gets closer than the distance from t
    to the arc, cap or point, less that sum. This is never below
    |t - o| - sum(L), and it is exact when nothing follows the rod.

    The aimed start puts the rod's end on that nearest point and every other
    joint at 0, so the rest of the chain carries on along the rod. Joint 1
    takes the arc's angle; or the first yaw joint turns the rod's plane to the
    target's azimuth (a quarter turn more for roll, which tips the rod toward
    -y at yaw 0), or half a turn back from past a limit with the rod tipped the
    other way, and the first roll or pitch joint takes the cap's polar angle.
    An all-yaw chain starts at the zero posture.
    """
    aimed = [0.0] * len(codes)
    dx, dy, dz = t[0] - origin[0], t[1] - origin[1], t[2] - origin[2]
    if codes[0] == 2:  # yaw: a vertical column, then a cap
        k = _skip_yaws(codes, 1)  # the first roll or pitch joint
        dz -= math.fsum(lengths[:k])
        if k == len(codes):
            return math.hypot(dx, dy, dz), aimed
        end = _skip_yaws(codes, k + 1)
        radius = math.fsum(lengths[k:end])
        rho = math.hypot(dx, dy)  # the cap's nearest point shares the target's azimuth
        q = min(JOINT_ANGLE_LIMIT, math.atan2(rho, dz))
        gap = math.hypot(rho - radius * sin(q), dz - radius * cos(q))
        yaw = math.atan2(dy, dx) + (math.pi / 2 if codes[k] == 0 else 0.0)
        if yaw > math.pi:
            yaw -= 2 * math.pi
        if abs(yaw) > JOINT_ANGLE_LIMIT:
            yaw, q = yaw - math.copysign(math.pi, yaw), -q
        aimed[0], aimed[k] = yaw, q
    else:  # pitch swings the rod in the x-z plane, roll in the y-z plane
        end = _skip_yaws(codes, 1)
        radius = math.fsum(lengths[:end])
        u = dx if codes[0] == 1 else -dy
        q = min(JOINT_ANGLE_LIMIT, max(-JOINT_ANGLE_LIMIT, math.atan2(u, dz)))
        s, c = radius * sin(q), radius * cos(q)
        gap = math.dist((dx, dy, dz), (s, 0.0, c) if codes[0] == 1 else (0.0, -s, c))
        aimed[0] = q
    return max(0.0, gap - math.fsum(lengths[end:])), aimed


def solve_ik(params: DesignParams, target) -> IKSolution:
    """Levenberg-Marquardt IK from a fixed set of start postures, tracking the best iterate.

    Each start minimises |target - FK(q)|^2 with damped Gauss-Newton steps
    dq = J^T (J J^T + mu I)^-1 err, projected into the joint limits. The
    damping follows the gain ratio rho (actual over predicted gain of the
    projected step; Nielsen 1999): an accepted step scales mu by
    max(1/3, 1 - (2 rho - 1)^3), a rejected one by a doubling factor, so steps
    near a solution are Gauss-Newton and steps toward an unreachable target
    stay bounded (Sugihara 2011).
    One iteration solves the 3x3 system from the entries of J J^T (summed once
    per accepted step; a rejected step changes only mu), takes the projected
    step h, its squared length and J h in one pass over the joints, and runs
    one FK pass at the new posture. Joints pinned against a limit get their
    Jacobian column masked, and the system solved again, so the rest of the
    chain keeps moving. The start aimed by `_residual_bound` goes first (the
    first link group's end on the nearest point of its arc or cap, the other
    joints at 0), then the IK_POOL_STARTS postures of a fixed pool (the same
    for every call with this D, so the solver stays a pure function of its
    inputs) that land closest to the target. A start ends after
    IK_START_ITERS iterations, on an accepted step that shortens the residual
    by less than IK_MIN_DROP, or on a step shorter than IK_MIN_STEP; the
    solve ends once the residual is within IK_TOL of `_residual_bound` (the
    first link group's arc, or its cap on a yaw column, less the rest of the
    chain), which no posture within the joint limits can beat.
    Unreachable targets are not an error: the best posture found is returned
    with converged=False so the position-error objective stays defined. The
    torque is taken once, at the returned posture, for uniform rods of
    LINEAR_DENSITY under GRAVITY. A target that is not finite is an error.
    """
    target = np.asarray(target, dtype=float).ravel()
    if target.size != 3:
        raise ValueError(f"target must be a 3-vector, got length {target.size}")
    if not np.isfinite(target).all():
        raise ValueError(f"target must be finite, got {target.tolist()}")
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
        joints, ee = _chain(origin, codes, lengths, q)
        ex, ey, ez = tx - ee[0], ty - ee[1], tz - ee[2]
        err_sq = ex * ex + ey * ey + ez * ez
        residual = math.sqrt(err_sq)
        if residual < best_residual:
            best_q, best_residual, best_chain = q, residual, (joints, ee)
        if best_residual <= stop_at:
            break
        cols = _jacobian_columns(joints, ee)
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
            joints, ee = _chain(origin, codes, lengths, q_next)
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
            cols = _jacobian_columns(joints, ee)
            gram = _gram(cols)
        if best_residual <= stop_at:
            break

    joints, reached = best_chain  # the FK pass that scored best_q
    return IKSolution(
        q=tuple(best_q),
        reached=reached,
        torque=tuple(_torques(joints, lengths)),
        residual=best_residual,
        converged=best_residual <= IK_TOL,
        iterations=iterations,
    )
