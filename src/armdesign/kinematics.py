"""Serial-chain kinematics: FK, position Jacobian, gravity torque, Levenberg-Marquardt IK.

Conventions: joint j rotates about its local axis (roll = x, pitch = y, yaw = z)
and is followed by a link of length L_j along the rotated local +z. With all
angles zero the chain is a vertical line above the base origin.

Everything runs on one pure-Python kernel over floats (`_chain`, one FK pass
per posture, giving joint positions, axes and link vectors) and one Jacobian
routine; link COMs are formed only in the torque pass. One IK iteration is a
3x3 solve, one pass over the joints and one FK pass. At 3x3 sizes numpy's
per-call overhead would dominate, and scalar arithmetic keeps results
independent of the host's BLAS. numpy only draws the fixed IK start postures,
once per D, and wraps the public functions' inputs and outputs.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import cos, sin

import numpy as np

from .space import JOINT_ANGLE_LIMIT, DesignParams


@dataclass(frozen=True)
class GravityModel:
    """Uniform-rod link masses under gravity along -z."""

    g: float = 9.81
    linear_density: float = 1.0  # kg/m
    com_fraction: float = 0.5  # COM position along each link

    def __post_init__(self) -> None:
        if self.linear_density <= 0:
            raise ValueError("linear_density must be > 0")
        if not 0.0 <= self.com_fraction <= 1.0:
            raise ValueError("com_fraction must be in [0, 1]")


# IK budget and stopping rules
IK_TOL = 1e-4  # m, position tolerance
IK_START_POOL = 64  # fixed start postures per D, drawn once from default_rng(0x5EED)
IK_POOL_STARTS = 2  # pool postures, closest to the target first, tried after the zero posture
IK_START_ITERS = 20  # LM iterations per start, so at most (1 + IK_POOL_STARTS) * 20 = 60 per solve
IK_MIN_GAIN = 1e-8  # a start ends on an accepted gain below this share of |e|^2 ...
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


def _torques(joints, lengths, gravity: GravityModel) -> list[float]:
    """tau_j = sum over links i >= j of weight_i * (axis_j x (com_i - p_j))_z."""
    f = gravity.com_fraction
    weights = [gravity.linear_density * length * gravity.g for length in lengths]
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


def gravity_torque(params: DesignParams, q, gravity: GravityModel = GravityModel()) -> np.ndarray:
    """Static joint torques holding the arm against gravity: dU/dq (N*m).

    Joint j only moves the COMs of links j..D, each contributing its weight
    times the z-component of axis_j x (com_i - p_j).
    """
    joints, _ = _state(params, q)
    return np.array(_torques(joints, params.lengths, gravity))


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


# one entry: `evaluate` solves all targets of a design before the next design comes
@functools.lru_cache(maxsize=1)
def _pool_reach(origin, codes, lengths) -> tuple[tuple[float, float, float], ...]:
    """End-effector positions of a design's start pool, kept while its targets are solved."""
    return tuple(_chain(origin, codes, lengths, q)[1] for q in _start_pool(len(codes)))


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
    chain keeps moving. The zero posture starts first, then the IK_POOL_STARTS postures
    of a fixed pool (the same for every call with this D, so the solver stays
    a pure function of its inputs) that land closest to the target. A start
    ends after IK_START_ITERS iterations or at a local minimum (gain or step
    below IK_MIN_GAIN, IK_MIN_STEP); the solve ends once the residual is
    within IK_TOL of the reachability lower bound |target - origin| - sum(L).
    Unreachable targets are not an error: the best posture found is returned
    with converged=False so the position-error objective stays defined. The
    torque is taken under the default GravityModel, once, at the returned
    posture. A target that is not finite is an error.
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
    # no posture can get closer than this (triangle inequality on link lengths)
    ox, oy, oz = tx - origin[0], ty - origin[1], tz - origin[2]
    residual_floor = max(0.0, math.sqrt(ox * ox + oy * oy + oz * oz) - math.fsum(lengths))
    stop_at = residual_floor + IK_TOL

    def starts():
        yield [0.0] * d
        dist = [math.dist(reach, (tx, ty, tz)) for reach in _pool_reach(origin, codes, lengths)]
        for k in sorted(range(IK_START_POOL), key=dist.__getitem__)[:IK_POOL_STARTS]:
            yield list(_start_pool(d)[k])

    best_q, best_residual = None, math.inf
    iterations = 0
    for q in starts():
        joints, ee = _chain(origin, codes, lengths, q)
        ex, ey, ez = tx - ee[0], ty - ee[1], tz - ee[2]
        err_sq = ex * ex + ey * ey + ez * ez
        residual = math.sqrt(err_sq)
        if residual < best_residual:
            best_q, best_residual = q, residual
        cols = _jacobian_columns(joints, ee)
        gram = _gram(cols)
        mu = max(IK_MU_FLOOR, IK_MU_INIT * max(gram[0], gram[3], gram[5]))
        nu = 2.0
        for _ in range(IK_START_ITERS):
            if best_residual <= stop_at:
                break
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
            local_minimum = gain < IK_MIN_GAIN * err_sq
            q, ex, ey, ez, err_sq = q_next, ex_next, ey_next, ez_next, err_sq_next
            residual = math.sqrt(err_sq)
            if residual < best_residual:
                best_q, best_residual = q, residual
            if local_minimum:
                break
            cols = _jacobian_columns(joints, ee)
            gram = _gram(cols)
        if best_residual <= stop_at:
            break

    gravity = GravityModel()
    joints, reached = _chain(origin, codes, lengths, best_q)
    return IKSolution(
        q=tuple(best_q),
        reached=reached,
        torque=tuple(_torques(joints, lengths, gravity)),
        residual=best_residual,  # computed from this same FK pass when best_q was found
        converged=best_residual <= IK_TOL,
        iterations=iterations,
    )
