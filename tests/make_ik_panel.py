"""Write the IK oracle panel, tests/ik_panel.json.

Usage: PYTHONPATH=src python3 tests/make_ik_panel.py

The panel is 25 seeded random 4-joint designs, each paired with the 15 points
of targets/target{1,2,3}.json. For every (design, point) pair it records an
oracle residual: the closest any posture found here gets to the point. The
search scores a 24^4 grid of postures over the joint limits with a batched
numpy forward kinematics, then refines the best grid postures with a bounded
`scipy.optimize.least_squares` (the joint limits as bounds, a fixed evaluation
budget) and keeps the best posture seen. Grid postures that put the end
effector at the same place count once: a yaw joint that turns about its own
link moves nothing, and without this the best starts can all be one posture.
Every residual is rescored with the package's own forward kinematics, so the
panel and `solve_ik` measure distance the same way. tests/test_ik_panel.py
checks `solve_ik` against the panel.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares

from armdesign.kinematics import forward_kinematics, position_jacobian
from armdesign.space import JOINT_ANGLE_LIMIT, SpaceConfig, random_sample, to_vector

REPO = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "ik_panel.json"
SEED = 2025
N_DESIGNS = 25
TARGET_FILES = ("target1", "target2", "target3")
GRID_PER_JOINT = 24
REFINE_STARTS = 20
REFINE_MAX_NFEV = 2000


def _rotations(code: int, angles: np.ndarray) -> np.ndarray:
    """(n, 3, 3) rotations about local x (roll, 0), y (pitch, 1) or z (yaw, 2)."""
    c, s = np.cos(angles), np.sin(angles)
    rot = np.zeros((len(angles), 3, 3))
    i, j = [(1, 2), (2, 0), (0, 1)][code]  # the plane the rotation turns
    rot[:, code, code] = 1.0
    rot[:, i, i], rot[:, i, j], rot[:, j, i], rot[:, j, j] = c, -s, s, c
    return rot


def grid_end_effectors(params, postures: np.ndarray) -> np.ndarray:
    """(n, 3) end-effector positions of the (n, D) postures, by frame propagation."""
    rot = np.broadcast_to(np.eye(3), (len(postures), 3, 3))
    pos = np.broadcast_to(np.asarray(params.origin), (len(postures), 3))
    for k, (jt, length) in enumerate(zip(params.joints, params.lengths)):
        rot = rot @ _rotations(jt.value, postures[:, k])
        pos = pos + length * rot[:, :, 2]  # the link runs along local z
    return pos


def oracle(params, target, grid: np.ndarray, grid_ee: np.ndarray) -> tuple[float, list[float]]:
    """(residual, posture): the best of the grid and of its refined best postures."""
    target = np.asarray(target)
    starts = grid[np.argsort(((grid_ee - target) ** 2).sum(axis=1))[:REFINE_STARTS]]
    candidates = list(starts)
    for q0 in starts:
        fit = least_squares(
            lambda q: np.asarray(forward_kinematics(params, q)) - target,
            q0,
            jac=lambda q: position_jacobian(params, q),
            bounds=(-JOINT_ANGLE_LIMIT, JOINT_ANGLE_LIMIT),
            method="trf",
            ftol=1e-15,
            xtol=1e-15,
            gtol=1e-15,
            max_nfev=REFINE_MAX_NFEV,
        )
        candidates.append(np.clip(fit.x, -JOINT_ANGLE_LIMIT, JOINT_ANGLE_LIMIT))
    scored = [(math.dist(forward_kinematics(params, q), target), q.tolist()) for q in candidates]
    return min(scored, key=lambda pair: pair[0])


def main() -> None:
    targets = [
        p
        for name in TARGET_FILES
        for p in json.loads((REPO / "targets" / f"{name}.json").read_text(encoding="utf-8"))["points"]
    ]
    rng = np.random.default_rng(SEED)
    space = SpaceConfig()
    axis = np.linspace(-JOINT_ANGLE_LIMIT, JOINT_ANGLE_LIMIT, GRID_PER_JOINT)
    grid = np.stack(np.meshgrid(*[axis] * space.n_joints, indexing="ij"), axis=-1).reshape(-1, space.n_joints)
    designs = []
    for _ in range(N_DESIGNS):
        params = random_sample(rng, space)
        grid_ee = grid_end_effectors(params, grid)
        _, distinct = np.unique(np.round(grid_ee, 12), axis=0, return_index=True)
        solved = [oracle(params, t, grid[distinct], grid_ee[distinct]) for t in targets]
        designs.append(
            {
                "vector": to_vector(params),
                "oracle": [r for r, _ in solved],
                "oracle_q": [q for _, q in solved],
            }
        )
        print(f"design {len(designs)}/{N_DESIGNS}: oracle sum {sum(r for r, _ in solved):.6f} m")
    panel = {
        "seed": SEED,
        "grid_per_joint": GRID_PER_JOINT,
        "refine_starts": REFINE_STARTS,
        "refine_max_nfev": REFINE_MAX_NFEV,
        "target_files": list(TARGET_FILES),
        "targets": targets,
        "designs": designs,
    }
    OUT.write_text(json.dumps(panel, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT.name}: {N_DESIGNS} designs x {len(targets)} targets")


if __name__ == "__main__":
    main()
