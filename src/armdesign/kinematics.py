"""Serial-chain kinematics: FK, position Jacobian, gravity torque, Levenberg-Marquardt IK.

Conventions: joint j rotates about its local axis (roll = x, pitch = y, yaw = z)
and is followed by a link of length L_j along the rotated local +z. With all
angles zero the chain is a vertical line above the base origin.

Everything runs on one pure-Python kernel over floats (`_chain`, one FK pass
per posture). At 3x3 sizes numpy's per-call overhead would dominate, and
scalar arithmetic keeps results independent of the host's BLAS. numpy only
draws the fixed IK start postures, once per D, and wraps the public functions'
inputs and outputs.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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
# cap on LM iterations per solve; the starts stay within (1 + IK_POOL_STARTS) * IK_START_ITERS = 60
IK_MAX_ITERS = 300
IK_TOL = 1e-4  # m, position tolerance
IK_START_POOL = 64  # fixed start postures per D, drawn once from default_rng(0x5EED)
IK_POOL_STARTS = 2  # pool postures, closest to the target first, tried after the zero posture
IK_START_ITERS = 20  # LM iterations per start
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


def _chain(origin, codes, lengths, q, com_fraction):
    """One FK pass on floats: ([(p_j, axis_j, com_j) per joint], ee), as (x, y, z) tuples.

    The frame's rotation is carried as its three world-frame columns u, v, w
    (images of local x, y, z); joint j post-multiplies it by its own rotation.
    """
    ux, uy, uz, vx, vy, vz, wx, wy, wz = 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0
    x, y, z = origin
    joints = []
    for code, length, angle in zip(codes, lengths, q):
        c, s = math.cos(angle), math.sin(angle)
        if code == 0:  # roll, about u: v and w turn
            axis = (ux, uy, uz)
            vx, vy, vz, wx, wy, wz = (
                vx * c + wx * s, vy * c + wy * s, vz * c + wz * s,
                wx * c - vx * s, wy * c - vy * s, wz * c - vz * s,
            )
        elif code == 1:  # pitch, about v: w and u turn
            axis = (vx, vy, vz)
            ux, uy, uz, wx, wy, wz = (
                ux * c - wx * s, uy * c - wy * s, uz * c - wz * s,
                ux * s + wx * c, uy * s + wy * c, uz * s + wz * c,
            )
        else:  # yaw, about w: u and v turn
            axis = (wx, wy, wz)
            ux, uy, uz, vx, vy, vz = (
                ux * c + vx * s, uy * c + vy * s, uz * c + vz * s,
                vx * c - ux * s, vy * c - uy * s, vz * c - uz * s,
            )
        sx, sy, sz = length * wx, length * wy, length * wz  # the link runs along local z
        com = (x + com_fraction * sx, y + com_fraction * sy, z + com_fraction * sz)
        joints.append(((x, y, z), axis, com))
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
        for (px, py, pz), (ax, ay, az), _ in joints
    ]


def _torques(joints, lengths, gravity: GravityModel) -> list[float]:
    """tau_j = sum over links i >= j of weight_i * (axis_j x (com_i - p_j))_z."""
    weights = [gravity.linear_density * length * gravity.g for length in lengths]
    out = []
    for j, ((px, py, _), (ax, ay, _), _) in enumerate(joints):
        tau = 0.0
        for weight, (_, _, (cx, cy, _)) in zip(weights[j:], joints[j:]):
            tau += weight * (ax * (cy - py) - ay * (cx - px))
        out.append(tau)
    return out


def _state(params: DesignParams, q, com_fraction: float = 0.5):
    codes = [jt.value for jt in params.joints]
    return _chain(params.origin, codes, params.lengths, _check_q(params, q), com_fraction)


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
    joints, _ = _state(params, q, gravity.com_fraction)
    return np.array(_torques(joints, params.lengths, gravity))


def _dls_step(cols, ex: float, ey: float, ez: float, lam_sq: float) -> list[float]:
    """dq = J^T (J J^T + lam^2 I)^-1 err, J given by its columns; 3x3 solve by cofactors."""
    a00 = a01 = a02 = a11 = a12 = a22 = 0.0
    for jx, jy, jz in cols:
        a00 += jx * jx; a01 += jx * jy; a02 += jx * jz
        a11 += jy * jy; a12 += jy * jz; a22 += jz * jz
    a00 += lam_sq; a11 += lam_sq; a22 += lam_sq
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
    return tuple(_chain(origin, codes, lengths, q, 0.0)[1] for q in _start_pool(len(codes)))


def solve_ik(params: DesignParams, target) -> IKSolution:
    """Levenberg-Marquardt IK from a fixed set of start postures, tracking the best iterate.

    Each start minimises |target - FK(q)|^2 with damped Gauss-Newton steps
    dq = J^T (J J^T + mu I)^-1 err, projected into the joint limits. The
    damping follows the gain ratio rho (actual over predicted gain of the
    projected step; Nielsen 1999): an accepted step scales mu by
    max(1/3, 1 - (2 rho - 1)^3), a rejected one by a doubling factor, so steps
    near a solution are Gauss-Newton and steps toward an unreachable target
    stay bounded (Sugihara 2011).
    Joints pinned against a limit get their Jacobian column masked so the rest
    of the chain keeps moving. The zero posture starts first, then the
    IK_POOL_STARTS postures of a fixed pool (the same for every call with this
    D, so the solver stays a pure function of its inputs) that land closest
    to the target. A start ends after IK_START_ITERS iterations or at a local
    minimum (gain or step below IK_MIN_GAIN, IK_MIN_STEP); the solve ends once
    the residual is within IK_TOL of the reachability lower bound
    |target - origin| - sum(L). Unreachable targets are not an error: the best
    posture found is returned with converged=False so the position-error
    objective stays defined. The torque is taken under the default
    GravityModel. A target that is not finite is an error.
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
    gravity = GravityModel()
    com_fraction = gravity.com_fraction
    limit = JOINT_ANGLE_LIMIT
    # no posture can get closer than this (triangle inequality on link lengths)
    ox, oy, oz = tx - origin[0], ty - origin[1], tz - origin[2]
    residual_floor = max(0.0, math.sqrt(ox * ox + oy * oy + oz * oz) - math.fsum(lengths))
    stop_at = residual_floor + IK_TOL

    def starts():
        yield [0.0] * d
        reach = _pool_reach(origin, codes, lengths)
        closest = sorted(range(IK_START_POOL), key=lambda k: math.dist(reach[k], (tx, ty, tz)))
        for k in closest[:IK_POOL_STARTS]:
            yield list(_start_pool(d)[k])

    best_q, best_residual = None, math.inf
    iterations = 0
    for q in starts():
        joints, (x, y, z) = _chain(origin, codes, lengths, q, com_fraction)
        ex, ey, ez = tx - x, ty - y, tz - z
        err_sq = ex * ex + ey * ey + ez * ez
        residual = math.sqrt(err_sq)
        if residual < best_residual:
            best_q, best_residual = q, residual
        cols = _jacobian_columns(joints, (x, y, z))
        mu = max(IK_MU_FLOOR, IK_MU_INIT * max(sum(col[i] * col[i] for col in cols) for i in range(3)))
        nu = 2.0
        for _ in range(IK_START_ITERS):
            if best_residual <= stop_at:
                break
            iterations += 1
            dq = _dls_step(cols, ex, ey, ez, mu)
            pinned = [(qj >= limit and s > 0.0) or (qj <= -limit and s < 0.0) for qj, s in zip(q, dq)]
            if any(pinned):
                masked = [(0.0, 0.0, 0.0) if p else col for p, col in zip(pinned, cols)]
                dq = _dls_step(masked, ex, ey, ez, mu)
            q_next = []
            for qj, s in zip(q, dq):
                qj += s
                q_next.append(limit if qj > limit else -limit if qj < -limit else qj)
            if sum((a - b) * (a - b) for a, b in zip(q_next, q)) < IK_MIN_STEP**2:
                break
            joints, (x, y, z) = _chain(origin, codes, lengths, q_next, com_fraction)
            ex_next, ey_next, ez_next = tx - x, ty - y, tz - z
            err_sq_next = ex_next * ex_next + ey_next * ey_next + ez_next * ez_next
            gain = err_sq - err_sq_next
            if gain <= 0.0:  # rejected: damp harder
                mu *= nu
                nu *= 2.0
                continue
            # the linear model's gain |e|^2 - |e - J h|^2 for the step h taken after the
            # projection; a model that predicts no gain counts as rho = 0
            hx = hy = hz = 0.0
            for a, b, (jx, jy, jz) in zip(q_next, q, cols):
                h = a - b
                hx += jx * h; hy += jy * h; hz += jz * h
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
            cols = _jacobian_columns(joints, (x, y, z))
        if best_residual <= stop_at:
            break

    joints, reached = _chain(origin, codes, lengths, best_q, com_fraction)
    return IKSolution(
        q=tuple(best_q),
        reached=reached,
        torque=tuple(_torques(joints, lengths, gravity)),
        residual=best_residual,  # computed from this same FK pass when best_q was found
        converged=best_residual <= IK_TOL,
        iterations=iterations,
    )
