"""Design-parameter space for serial arms: bounds, validation, vector codec, sampling.

A design is (origin, joint types, link lengths). The flat-vector layout is
[origin x, y, z | joint-type codes | link lengths], length 2D+3 for D joints.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar

import numpy as np

# Symmetric joint angle limit, radians.
JOINT_ANGLE_LIMIT = 2.4


class JointType(Enum):
    """Revolute joint about a local axis: roll = x, pitch = y, yaw = z."""

    ROLL = 0
    PITCH = 1
    YAW = 2

    @property
    def letter(self) -> str:
        return "RPY"[self.value]

    @classmethod
    def from_letter(cls, letter: str) -> "JointType":
        key = letter.strip().strip("'\"").upper()
        for jt in cls:
            if key == jt.letter or key == jt.name:
                return jt
        raise ValueError(f"unknown joint type {letter!r} (expected one of R, P, Y)")

    @classmethod
    def from_code(cls, code: float) -> "JointType":
        if math.isfinite(code):
            value = int(round(code))
            if abs(code - value) <= 1e-9 and value in (0, 1, 2):
                return cls(value)
        raise ValueError(f"invalid joint-type code {code!r} (expected 0, 1 or 2)")


@dataclass(frozen=True)
class SpaceConfig:
    """Dimensionality of the design space; its bounds are fixed class constants."""

    n_joints: int = 4

    origin_low: ClassVar[float] = -1.0
    origin_high: ClassVar[float] = 1.0
    length_low: ClassVar[float] = 0.03
    length_high: ClassVar[float] = 0.3
    joint_alphabet: ClassVar[tuple[JointType, ...]] = (JointType.ROLL, JointType.PITCH, JointType.YAW)

    def __post_init__(self) -> None:
        if self.n_joints < 1:
            raise ValueError(f"n_joints must be >= 1, got {self.n_joints}")


@dataclass(frozen=True)
class DesignParams:
    """One candidate arm: base origin (m), joint-type sequence, link lengths (m).

    Its shape is checked where it is made: no joints, an origin not of 3 values or lengths not one per
    joint is a ValueError naming the field. Bounds and finiteness are `validate`'s, against a space."""

    origin: tuple[float, float, float]
    joints: tuple[JointType, ...]
    lengths: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.joints:
            raise ValueError("joints must hold at least one joint, got none")
        for field, values, size in (("origin", self.origin, 3), ("lengths", self.lengths, len(self.joints))):
            if len(values) != size:
                raise ValueError(f"{field} must hold {size} values, got {len(values)}")

    @property
    def n_joints(self) -> int:
        return len(self.joints)


def make_params(origin, joints, lengths) -> DesignParams:
    """The one constructor of designs: origin and lengths from any sequence, joints as JointTypes or letters."""
    joint_seq = tuple(
        jt if isinstance(jt, JointType) else JointType.from_letter(str(jt)) for jt in joints
    )
    return DesignParams(
        origin=tuple(float(v) for v in origin),
        joints=joint_seq,
        lengths=tuple(float(v) for v in lengths),
    )


def validate(params: DesignParams, cfg: SpaceConfig) -> list[str]:
    """Return all violations of cfg (joint count, bounds, NaN outside them, alphabet); empty if valid."""
    violations: list[str] = []
    for axis, value in zip("xyz", params.origin):
        if not cfg.origin_low <= value <= cfg.origin_high:
            violations.append(f"origin.{axis}: {value} outside [{cfg.origin_low}, {cfg.origin_high}]")
    if len(params.joints) != cfg.n_joints:
        violations.append(f"joints: expected {cfg.n_joints} entries, got {len(params.joints)}")
    for k, jt in enumerate(params.joints):
        if jt not in cfg.joint_alphabet:
            violations.append(f"joints[{k}]: {jt} not in alphabet")
    for k, length in enumerate(params.lengths):
        if not cfg.length_low <= length <= cfg.length_high:
            violations.append(
                f"lengths[{k}]: {length} outside [{cfg.length_low}, {cfg.length_high}]"
            )
    return violations


def to_vector(params: DesignParams) -> list[float]:
    """Flatten to [origin(3), joint codes(D), lengths(D)]."""
    return [*params.origin, *(float(jt.value) for jt in params.joints), *params.lengths]


def from_vector(vec) -> DesignParams:
    """Inverse of to_vector, with D read from the length.

    Raises ValueError on a length that is not 2D+3 for some D >= 1, or on an
    invalid type code.
    """
    values = [float(v) for v in vec]
    d, odd = divmod(len(values) - 3, 2)
    if d < 1 or odd:
        raise ValueError(f"vector length {len(values)} is not 2D+3 for any joint count D >= 1")
    return make_params(values[:3], [JointType.from_code(c) for c in values[3 : 3 + d]], values[3 + d :])


def random_sample(rng: np.random.Generator, cfg: SpaceConfig) -> DesignParams:
    """Uniform draw over the design space; the result always validates."""
    origin = rng.uniform(cfg.origin_low, cfg.origin_high, size=3)
    joints = tuple(cfg.joint_alphabet[i] for i in rng.integers(len(cfg.joint_alphabet), size=cfg.n_joints))
    lengths = rng.uniform(cfg.length_low, cfg.length_high, size=cfg.n_joints)
    return make_params(origin, joints, lengths)
