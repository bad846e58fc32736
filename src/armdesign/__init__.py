"""Multi-objective serial-arm design optimization.

Candidate arms (base origin, joint-type sequence, link lengths) are scored by
IK position error and gravity-compensation torque against a target point set,
and explored by a multi-objective TPE sampler interleaved with LLM-proposed
designs on a fixed schedule. Hypervolume against a fixed reference point tracks
progress; designs export to URDF.
"""

from .evaluation import EvaluationReport, TargetSet, evaluate
from .kinematics import (
    GravityModel,
    IKSolution,
    forward_kinematics,
    gravity_torque,
    position_jacobian,
    solve_ik,
)
from .orchestrator import RunConfig, RunMode, RunResult, aggregate_runs, run, source_for_iteration
from .pareto import (
    DEFAULT_REF_POINT,
    ObjectiveValues,
    dominates,
    hypervolume_2d,
    pareto_front,
)
from .space import (
    DesignParams,
    JointType,
    SpaceConfig,
    from_vector,
    make_params,
    random_sample,
    to_vector,
    validate,
)
from .tpe import SampleSource, TpeConfig, TrialRecord, split_observations, suggest
from .urdf import emit_urdf

__all__ = [
    "DEFAULT_REF_POINT",
    "DesignParams",
    "EvaluationReport",
    "GravityModel",
    "IKSolution",
    "JointType",
    "ObjectiveValues",
    "RunConfig",
    "RunMode",
    "RunResult",
    "SampleSource",
    "SpaceConfig",
    "TargetSet",
    "TpeConfig",
    "TrialRecord",
    "aggregate_runs",
    "dominates",
    "emit_urdf",
    "evaluate",
    "forward_kinematics",
    "from_vector",
    "gravity_torque",
    "hypervolume_2d",
    "make_params",
    "pareto_front",
    "position_jacobian",
    "random_sample",
    "run",
    "solve_ik",
    "source_for_iteration",
    "split_observations",
    "suggest",
    "to_vector",
    "validate",
]
