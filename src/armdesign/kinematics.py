"""Serial-chain kinematics: FK, position Jacobian, gravity torque, Levenberg-Marquardt IK.

Conventions: joint j rotates about its local axis (roll = x, pitch = y, yaw = z)
and is followed by a link of length L_j along the rotated local +z. With all
angles zero the chain is a vertical line above the base origin.

FK, the gravity torques and the IK iterations run on plain floats, in code
generated once per joint count D (`_kernels`) with the joints unrolled, so each
angle, axis, link vector, COM, Jacobian column, Gram entry and step component
is a named local, and each joint's FK update branches on its type code. There
are two functions per D: `_chain{D}`, one FK pass giving joint positions, axes
and link vectors, the end effector and the gravity torques; and `_lm{D}`, one
Levenberg-Marquardt start. Both share one per-joint FK snippet, so the FK float
order is written down once. The kernels are compiled on the first call with D
joints, never at import. They perform the float operations of the plain loops
they replaced, kept as the test oracle in `tests/kinematics_oracle.py`, in the
same order, so every solution is the same to the bit. One iteration is a 3x3 solve, the
projected step and one FK pass. At 3x3 sizes numpy's per-call overhead would
dominate, and scalar arithmetic keeps results independent of the host's BLAS.
Link COMs and torques are formed in `_chain{D}` alone, never in an LM
iteration. numpy only draws the fixed IK start postures (once per D) and sums
their reach for a solve that iterates, one array pass per link, forms the
public position Jacobian as one cross product over a `_chain{D}` pass, and
wraps the public functions' inputs and outputs: a solve certified at its aimed
start makes no numpy call.

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
What a solve needs of its design alone is set up once per design (`_set_up`).
"""
from __future__ import annotations

import functools
import itertools
import linecache
import math
import textwrap
from math import cos, sin
from typing import Callable, NamedTuple

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


class IKSolution(NamedTuple):
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


def _state(params: DesignParams, q):
    origin, codes, lengths, kernels, *_ = _set_up(params)  # the design checked as `solve_ik` checks it
    return kernels.chain(origin, codes, lengths, _check_q(params, q))


def forward_kinematics(params: DesignParams, q) -> np.ndarray:
    """End-effector position (m) at joint angles q."""
    return np.array(_state(params, q)[1])


def position_jacobian(params: DesignParams, q) -> np.ndarray:
    """3xD position Jacobian; column j = axis_j x (p_ee - p_j)."""
    joints, end, _ = _state(params, q)
    joints = np.array(joints)  # np.cross forms each component as `_lm{D}` does: two products, one difference
    return np.cross(joints[:, 3:6], np.subtract(end, joints[:, :3])).T


def gravity_torque(params: DesignParams, q) -> np.ndarray:
    """Static joint torques holding the arm against gravity: dU/dq (N*m).

    Joint j only moves the COMs of links j..D, each contributing its weight
    times the z-component of axis_j x (com_i - p_j).
    """
    return np.array(_state(params, q)[2])


@functools.lru_cache(maxsize=None)
def _start_pool(d: int) -> tuple[tuple[float, ...], ...]:
    """The IK_START_POOL start postures for D joints, the same on every call."""
    rng = np.random.default_rng(0x5EED)
    postures = rng.uniform(-JOINT_ANGLE_LIMIT, JOINT_ANGLE_LIMIT, size=(IK_START_POOL, d))
    return tuple(map(tuple, postures.tolist()))


# a run has 3^D joint sequences, all of which fit for D <= 6; each entry is 3 * D * 64 floats
@functools.lru_cache(maxsize=1024)
def _pool_directions(codes) -> np.ndarray:
    """(D, 3, IK_START_POOL): the world direction of each link over the start pool.

    Taken from `_chain{D}` at unit lengths, so length * direction is the same
    float as its link vector for any length.
    """
    ones = (1.0,) * len(codes)
    chain = _kernels(len(codes)).chain
    chains = [chain((0.0, 0.0, 0.0), codes, ones, q)[0] for q in _start_pool(len(codes))]
    return np.array([[joint[6:] for joint in joints] for joints in chains]).transpose(1, 2, 0)


# one entry: `evaluate` solves all targets of a design before the next design comes
@functools.lru_cache(maxsize=1)
def _pool_reach(origin, codes, lengths) -> tuple[tuple[float, float, float], ...]:
    """End-effector positions of a design's start pool, kept while its targets are solved.

    Adds the links to the origin in `_chain{D}`'s order, so each position is its end effector, bit for bit.
    """
    reach = np.reshape(origin, (3, 1))
    for length, direction in zip(lengths, _pool_directions(codes)):
        reach = reach + length * direction
    return tuple(zip(*reach.tolist()))


def _skip_yaws(codes, k: int) -> int:
    """The index of the first joint at or after k that is not yaw, or max(k, D)."""
    while k < len(codes) and codes[k] == 2:
        k += 1
    return k


def _rods(codes, lengths) -> tuple[int, float, float, float]:
    """(k, H, R, rest): the rod's first joint (0 unless joint 1 is yaw), the column height, the rod and the rest."""
    k = _skip_yaws(codes, 1) if codes[0] == 2 else 0
    end = _skip_yaws(codes, k + 1)
    return k, math.fsum(lengths[:k]), math.fsum(lengths[k:end]), math.fsum(lengths[end:])


def _residual_bound(origin, codes, lengths, t, rods=None) -> tuple[float, list[float]]:
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
    An all-yaw chain starts at the zero posture. `rods` is the design's
    `_rods(codes, lengths)`, which `solve_ik` takes once per design.
    """
    k, height, radius, rest = rods or _rods(codes, lengths)
    aimed = [0.0] * len(codes)
    dx, dy, dz = t[0] - origin[0], t[1] - origin[1], t[2] - origin[2]
    if k:  # yaw: a vertical column, then a cap
        dz -= height
        if k == len(codes):
            return math.hypot(dx, dy, dz), aimed
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
        u = dx if codes[0] == 1 else -dy
        q = min(JOINT_ANGLE_LIMIT, max(-JOINT_ANGLE_LIMIT, math.atan2(u, dz)))
        s, c = radius * sin(q), radius * cos(q)
        gap = math.dist((dx, dy, dz), (s, 0.0, c) if codes[0] == 1 else (0.0, -s, c))
        aimed[0] = q
    return max(0.0, gap - rest), aimed


# The D-joint kernels: one FK pass with its gravity torques and one
# Levenberg-Marquardt start, unrolled over the joints so that every angle,
# axis, link vector, COM, torque, Jacobian column, Gram entry and step is a
# named local. Every FK pass is written from `_KERNEL_FK_JOINT` and every
# column from `_KERNEL_COLUMN`. Their float operations are those of the
# loops in `tests/kinematics_oracle.py`, in the same order: sums start from 0.0
# and run over the joints in turn, a pinned joint's column is zeroed, not
# dropped, and the IK constants are written in as their float reprs.
_CHAIN = '''\
def _chain{d}(origin, codes, lengths, q):
    """One FK pass at q: ([(px, py, pz, ax, ay, az, sx, sy, sz) per joint], end effector, gravity torques).

    tau_j = sum over links i >= j of weight_i * (axis_j x (com_i - p_j))_z, the weight at the link's COM.
    """
    {codes}, = codes
    ox, oy, oz = origin
    {lengths}, = lengths
    {q}, = q
    ux, uy, uz, vx, vy, vz, wx, wy, wz = 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0
{fk_q}
{weights}
{coms}
{torques}
    return [{joints}], (fx, fy, fz), ({tau},)
'''

_LM = '''\
def _lm{d}(codes, origin, lengths, q, tx, ty, tz, stop_at, best):
    """Score start q, then iterate from it: (iterations, best posture or None, best residual)."""
    {codes}, = codes
    ox, oy, oz = origin
    {lengths}, = lengths
    {q}, = q
    best_q = None
    ux, uy, uz, vx, vy, vz, wx, wy, wz = 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0
{fk_q}
    ex, ey, ez = tx - fx, ty - fy, tz - fz
    err_sq = ex * ex + ey * ey + ez * ez
    residual = sqrt(err_sq)
    if residual < best:
        best, best_q = residual, ({q},)
    if best <= stop_at:
        return 0, best_q, best
{jacobian}
{gram}
    mu = max({IK_MU_FLOOR!r}, {IK_MU_INIT!r} * max(g00, g11, g22))
    nu = 2.0
    iterations = 0
    while iterations < {IK_START_ITERS}:
        iterations += 1
{step}
        if {any_pinned}:
{masked}
{step_masked}
        # the projected step h, its squared length and the linear model's J h
{project}
        step_sq = {step_sq}
        if step_sq < {min_step_sq!r}:
            break
        hx = {hx}
        hy = {hy}
        hz = {hz}
        ux, uy, uz, vx, vy, vz, wx, wy, wz = 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0
{fk_n}
        ex1, ey1, ez1 = tx - fx, ty - fy, tz - fz
        err1 = ex1 * ex1 + ey1 * ey1 + ez1 * ez1
        gain = err_sq - err1
        if gain <= 0.0:  # rejected: damp harder
            mu *= nu
            nu *= 2.0
            continue
        predicted = hx * (2.0 * ex - hx) + hy * (2.0 * ey - hy) + hz * (2.0 * ez - hz)
        rho = gain / predicted if predicted > 0.0 else 0.0
        scale = 1.0 - (2.0 * rho - 1.0) ** 3
        mu *= scale if scale > {third!r} else {third!r}
        mu = mu if mu > {IK_MU_FLOOR!r} else {IK_MU_FLOOR!r}
        nu = 2.0
        {q} = {n}
        ex, ey, ez, err_sq = ex1, ey1, ez1, err1
        residual, previous = sqrt(err_sq), residual
        if residual < best:
            best, best_q = residual, ({q},)
        if best <= stop_at or previous - residual < {IK_MIN_DROP!r}:
            break
{jacobian2}
{gram2}
    return iterations, best_q, best
'''

# joint j's FK update at angle {angle}{j}: its axis a{j}, its link vector s{j} and the position {n} after it.
# The frame's rotation is carried as its three world-frame columns u, v, w (images of local x, y, z);
# joint j post-multiplies it by its own rotation, which leaves its own axis fixed.
_KERNEL_FK_JOINT = '''\
c, s = cos({angle}{j}), sin({angle}{j})
if code{j} == 0:  # roll, about u: v and w turn
    vx, wx = vx * c + wx * s, wx * c - vx * s
    vy, wy = vy * c + wy * s, wy * c - vy * s
    vz, wz = vz * c + wz * s, wz * c - vz * s
    a{j}x, a{j}y, a{j}z = ux, uy, uz
elif code{j} == 1:  # pitch, about v: w and u turn
    ux, wx = ux * c - wx * s, ux * s + wx * c
    uy, wy = uy * c - wy * s, uy * s + wy * c
    uz, wz = uz * c - wz * s, uz * s + wz * c
    a{j}x, a{j}y, a{j}z = vx, vy, vz
else:  # yaw, about w: u and v turn
    ux, vx = ux * c + vx * s, vx * c - ux * s
    uy, vy = uy * c + vy * s, vy * c - uy * s
    uz, vz = uz * c + vz * s, vz * c - uz * s
    a{j}x, a{j}y, a{j}z = wx, wy, wz
s{j}x, s{j}y, s{j}z = l{j} * wx, l{j} * wy, l{j} * wz  # the link runs along local z
{n}x, {n}y, {n}z = {p}x + s{j}x, {p}y + s{j}y, {p}z + s{j}z
'''

_KERNEL_COLUMN = '''\
j{j}x = a{j}y * (fz - {p}z) - a{j}z * (fy - {p}y)
j{j}y = a{j}z * (fx - {p}x) - a{j}x * (fz - {p}z)
j{j}z = a{j}x * (fy - {p}y) - a{j}y * (fx - {p}x)
'''

# dq = J^T (J J^T + mu I)^-1 e from the Gram entries {g}.. of the columns {c}..
_KERNEL_DLS = '''\
b00, b11, b22 = {g}00 + mu, {g}11 + mu, {g}22 + mu
c00 = b11 * b22 - {g}12 * {g}12
c01 = {g}12 * {g}02 - {g}01 * b22
c02 = {g}01 * {g}12 - b11 * {g}02
c11 = b00 * b22 - {g}02 * {g}02
c12 = {g}01 * {g}02 - b00 * {g}12
c22 = b00 * b11 - {g}01 * {g}01
det = b00 * c00 + {g}01 * c01 + {g}02 * c02
y0 = (c00 * ex + c01 * ey + c02 * ez) / det
y1 = (c01 * ex + c11 * ey + c12 * ez) / det
y2 = (c02 * ex + c12 * ey + c22 * ez) / det
'''

_KERNEL_PROJECT = '''\
n{j} = q{j} + d{j}
n{j} = {limit!r} if n{j} > {limit!r} else {low!r} if n{j} < {low!r} else n{j}
h{j} = n{j} - q{j}
'''


_TEMPLATES = (("_chain", _CHAIN), ("_lm", _LM))  # `_Kernels` order


def _kernel_sources(d: int) -> dict[str, str]:
    """{name: source} of `_chain{d}` and `_lm{d}`, the kernels for D = d joints."""
    joints = range(d)

    def point(j):  # the names of joint j's position: the origin, ..., the end effector at j = d
        return "o" if j == 0 else "f" if j == d else f"p{j}"

    def names(pattern, sep=", "):  # pattern for each joint {j}, at position {p}
        return sep.join(pattern.format(j=j, p=point(j)) for j in joints)

    def total(pattern):  # a running sum from 0.0, joint by joint
        return "0.0 + " + names(pattern, " + ")

    def per_joint(snippet, indent, **fields):
        text = "".join(snippet.format(j=j, p=point(j), n=point(j + 1), **fields) for j in joints)
        return textwrap.indent(text, " " * indent).rstrip("\n")

    def gram(g, c, indent):  # the six distinct entries 00, 01, 02, 11, 12, 22 of J J^T
        pairs = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
        lines = [f"{g}{u}{v} = " + total(f"{c}{{j}}{'xyz'[u]} * {c}{{j}}{'xyz'[v]}") for u, v in pairs]
        return textwrap.indent("\n".join(lines), " " * indent)

    def dls(g, c, indent):
        step = _KERNEL_DLS.format(g=g) + names(f"d{{j}} = {c}{{j}}x * y0 + {c}{{j}}y * y1 + {c}{{j}}z * y2", "\n")
        return textwrap.indent(step, " " * indent)

    def torque(j):  # joint j's share of the weights of links j..D, each about its COM c{i}
        arm = f"(a{j}x * (c{{i}}y - {point(j)}y) - a{j}y * (c{{i}}x - {point(j)}x))"
        return f"    t{j} = 0.0 + " + " + ".join(f"w{i} * {arm.format(i=i)}" for i in range(j, d))

    limit = JOINT_ANGLE_LIMIT
    # joint j at a limit with its step pushing past it: its column is zeroed for the second solve
    pinned = f"(q{{j}} >= {limit!r} and d{{j}} > 0.0) or (q{{j}} <= {-limit!r} and d{{j}} < 0.0)"
    masked = names(f"z{{j}}x, z{{j}}y, z{{j}}z = (0.0, 0.0, 0.0) if {pinned} else (j{{j}}x, j{{j}}y, j{{j}}z)", "\n")
    fields = dict(
        d=d,
        joints=names("({p}x, {p}y, {p}z, a{j}x, a{j}y, a{j}z, s{j}x, s{j}y, s{j}z)"),
        weights=names(f"    w{{j}} = {LINEAR_DENSITY!r} * l{{j}} * {GRAVITY!r}", "\n"),
        coms=names(f"    c{{j}}x, c{{j}}y = {{p}}x + {COM_FRACTION!r} * s{{j}}x, {{p}}y + {COM_FRACTION!r} * s{{j}}y", "\n"),
        torques="\n".join(map(torque, joints)),
        tau=names("t{j}"),
        codes=names("code{j}"),
        lengths=names("l{j}"),
        q=names("q{j}"),
        n=names("n{j}"),
        fk_q=per_joint(_KERNEL_FK_JOINT, 4, angle="q"),
        fk_n=per_joint(_KERNEL_FK_JOINT, 8, angle="n"),
        jacobian=per_joint(_KERNEL_COLUMN, 4),
        gram=gram("g", "j", 4),
        jacobian2=per_joint(_KERNEL_COLUMN, 8),
        gram2=gram("g", "j", 8),
        step=dls("g", "j", 8),
        any_pinned=" or ".join(f"({pinned.format(j=j)})" for j in joints),
        masked=textwrap.indent(masked, " " * 12) + "\n" + gram("m", "z", 12),
        step_masked=dls("m", "z", 12),
        project=per_joint(_KERNEL_PROJECT, 8, limit=limit, low=-limit),
        step_sq=total("h{j} * h{j}"),
        hx=total("j{j}x * h{j}"),
        hy=total("j{j}y * h{j}"),
        hz=total("j{j}z * h{j}"),
        IK_MU_FLOOR=IK_MU_FLOOR,
        IK_MU_INIT=IK_MU_INIT,
        IK_START_ITERS=IK_START_ITERS,
        IK_MIN_DROP=IK_MIN_DROP,
        min_step_sq=IK_MIN_STEP**2,
        third=1.0 / 3.0,
    )
    return {f"{name}{d}": template.format(**fields) for name, template in _TEMPLATES}


class _Kernels(NamedTuple):
    chain: Callable  # _chain{D}
    lm: Callable  # _lm{D}


@functools.lru_cache(maxsize=None)
def _kernels(d: int) -> _Kernels:
    """The kernels for D = d joints, compiled on the first call with d joints.

    Each is compiled on its own, which keeps the compiler's peak memory to
    that of the largest, `_lm{d}`, and its source is kept in `linecache` under
    its own file name, so tracebacks and profiles show the generated lines.
    """
    kernels = []
    for name, source in _kernel_sources(d).items():
        filename = f"<armdesign.kinematics.{name}>"
        linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
        namespace = {"cos": cos, "sin": sin, "sqrt": math.sqrt}
        exec(compile(source, filename, "exec"), namespace)
        kernels.append(namespace[name])
    return _Kernels(*kernels)


def _set_up(params: DesignParams) -> tuple:
    """(origin, codes, lengths, kernels, start pool, `_rods`): a design checked finite, and what its solves share, once."""
    d = params.n_joints
    for field, values in (("origin", params.origin), ("lengths", params.lengths)):
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{field} must be finite, got {list(values)}")
    codes = tuple(jt._value_ for jt in params.joints)
    return params.origin, codes, params.lengths, _kernels(d), _start_pool(d), _rods(codes, params.lengths)


_last: tuple = (None, None)  # (design, its `_set_up`): the one-entry set-up cache of `solve_ik`


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
    step h, its squared length and J h, and runs one FK pass at the new
    posture. Joints pinned against a limit get their Jacobian column masked,
    and the system solved again, so the rest of the chain keeps moving. The
    start aimed by `_residual_bound` goes first (the first link group's end on
    the nearest point of its arc or cap, the other joints at 0), then the
    IK_POOL_STARTS postures of a fixed pool (the same for every call with this
    D, so the solver stays a pure function of its inputs) that land closest to
    the target. A start ends after IK_START_ITERS iterations, on an accepted
    step that shortens the residual by less than IK_MIN_DROP, or on a step
    shorter than IK_MIN_STEP; the solve ends once the residual is within
    IK_TOL of `_residual_bound` (the first link group's arc, or its cap on a
    yaw column, less the rest of the chain), which no posture within the joint
    limits can beat. The aimed start is scored by one FK pass; a solve it
    does not certify runs each start as one call of the D-joint kernel `_lm{D}`.
    Unreachable targets are not an error: the best posture found is returned
    with converged=False so the position-error objective stays defined. The
    torque comes from the FK pass at the returned posture, for uniform rods of
    LINEAR_DENSITY under GRAVITY (`_chain{D}`).

    The target is any flat sequence of 3 numbers: a tuple, a list, a 1-D
    array, numpy scalars included. A target of another length, one that is
    not flat (a (3, 1) array, a nested list, a scalar), and a target, origin
    or link length that is not finite are each a ValueError; `DesignParams`
    checked the design's shape when it was made. The target is checked on
    every call. The design is checked and set up once (`_set_up`: codes,
    kernels, start pool, the bound's `_rods`) and kept in a one-entry cache
    keyed on its identity, as `evaluate` solves a design's targets in a row:
    one (design, set-up) tuple, read once and replaced whole, so threads
    never pair one design with another's set-up.
    """
    global _last
    if getattr(target, "ndim", 1) != 1:
        raise ValueError(f"target must be a flat 3-vector, got shape {target.shape}")
    try:
        target = [float(v) for v in target]
    except TypeError:
        raise ValueError(f"target must be a flat 3-vector, got {target!r}") from None
    if len(target) != 3:
        raise ValueError(f"target must be a 3-vector, got length {len(target)}")
    if not all(map(math.isfinite, target)):
        raise ValueError(f"target must be finite, got {target}")
    last, design = _last  # one read, so a design is never paired with another's set-up
    if last is not params:
        design = _set_up(params)
        _last = params, design
    origin, codes, lengths, kernels, pool, rods = design
    tx, ty, tz = target
    target = (tx, ty, tz)  # math.dist is fastest on tuples
    bound, aimed = _residual_bound(origin, codes, lengths, target, rods)
    stop_at = bound + IK_TOL

    # most solves are certified here, and this FK pass gives their torque
    best_chain = kernels.chain(origin, codes, lengths, aimed)
    fx, fy, fz = best_chain[1]
    ex, ey, ez = tx - fx, ty - fy, tz - fz
    best_q, best_residual = aimed, math.sqrt(ex * ex + ey * ey + ez * ez)
    iterations = 0
    if best_residual > stop_at:

        def starts():
            yield aimed
            dist = list(map(math.dist, _pool_reach(origin, codes, lengths), itertools.repeat(target)))
            for k in sorted(range(IK_START_POOL), key=dist.__getitem__)[:IK_POOL_STARTS]:
                yield pool[k]

        for q in starts():
            n, found, best_residual = kernels.lm(codes, origin, lengths, q, tx, ty, tz, stop_at, best_residual)
            iterations += n
            if found is not None:  # this start, or an iterate from it, beat the best so far
                best_q, best_chain = found, None
            if best_residual <= stop_at:
                break

    _, reached, torque = best_chain or kernels.chain(origin, codes, lengths, best_q)  # the FK pass that scored best_q
    return IKSolution(tuple(best_q), reached, torque, best_residual, best_residual <= IK_TOL, iterations)
