"""Bi-objective design scoring against a target set, with per-target diagnostics.

The position objective sums end-effector errors over targets; the torque
objective sums gravity-compensation torque norms, scaled by the fixed weight
ALPHA to a comparable magnitude. Every target is solved independently from the
same fixed start postures, so each outcome is deterministic and independent of
the others. The totals are left folds in target order, so reordering the points
can move their last bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kinematics import solve_ik
from .pareto import ObjectiveValues
from .space import DesignParams

ALPHA = 40.0  # weight of the torque objective


@dataclass(frozen=True)
class TargetSet:
    """Named list of operation points (m) the arm should reach."""

    name: str
    points: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        # held as float tuples whatever the caller passed, so outcomes and ledgers carry floats
        object.__setattr__(self, "points", tuple(tuple(float(v) for v in p) for p in self.points))
        if len(self.points) < 1:
            raise ValueError("a target set needs at least one point")
        for p in self.points:
            if len(p) != 3 or not all(map(math.isfinite, p)):
                raise ValueError(f"a target point must be 3 finite numbers, got {list(p)}")


class TargetOutcome(NamedTuple):
    """IK result and per-target objective terms for a single operation point."""

    target: tuple[float, float, float]
    reached: tuple[float, float, float]
    torque: tuple[float, ...]
    e_pos: float
    e_torque: float
    converged: bool
    iterations: int


@dataclass(frozen=True)
class EvaluationReport:
    objectives: ObjectiveValues
    per_target: tuple[TargetOutcome, ...]


def evaluate(params: DesignParams, targets: TargetSet) -> EvaluationReport:
    """Score a design: e_pos = sum of IK residuals, e_torque = ALPHA * sum of torque norms."""
    outcomes = []
    # folded left to right: builtin sum() of floats rounds differently from Python 3.12 on
    e_pos = e_torque = 0.0
    for point in targets.points:
        _, reached, torque, residual, converged, iterations = solve_ik(params, point)
        t = np.array(torque)  # |t| as np.linalg.norm takes it: one ddot, then a correctly rounded sqrt
        outcome = TargetOutcome(point, reached, torque, residual, ALPHA * math.sqrt(t.dot(t)), converged, iterations)
        outcomes.append(outcome)
        e_pos += outcome.e_pos
        e_torque += outcome.e_torque
    return EvaluationReport(ObjectiveValues(e_pos, e_torque), tuple(outcomes))
