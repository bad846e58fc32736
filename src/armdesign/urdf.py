"""Deterministic URDF emission for a design.

The chain is modeled as: fixed world->base joint carrying the origin offset,
then one revolute joint per entry of the joint sequence (axis per the
roll/pitch/yaw convention), each followed by a link of the given length along
local +z. Visuals are thin cylinders; masses follow the uniform-rod model.
"""
from __future__ import annotations

import xml.etree.ElementTree as ET

from .kinematics import COM_FRACTION, LINEAR_DENSITY
from .space import JOINT_ANGLE_LIMIT, DesignParams, JointType, SpaceConfig, validate

VISUAL_RADIUS = 0.02  # m, cosmetic only

_AXIS_XYZ = {
    JointType.ROLL: "1 0 0",
    JointType.PITCH: "0 1 0",
    JointType.YAW: "0 0 1",
}


def _vec(*values: float) -> str:
    return " ".join(repr(float(v)) for v in values)


def emit_urdf(params: DesignParams) -> str:
    """Render the design as URDF XML text. Raises ValueError on invalid params."""
    violations = validate(params, SpaceConfig(n_joints=params.n_joints))
    if violations:
        raise ValueError("invalid design: " + "; ".join(violations))

    robot = ET.Element("robot", name="arm")
    ET.SubElement(robot, "link", name="world")

    base = ET.SubElement(robot, "joint", name="base_mount", type="fixed")
    ET.SubElement(base, "origin", xyz=_vec(*params.origin), rpy="0 0 0")
    ET.SubElement(base, "parent", link="world")
    ET.SubElement(base, "child", link="base")
    ET.SubElement(robot, "link", name="base")

    parent = "base"
    prev_length = 0.0
    for j, (jt, length) in enumerate(zip(params.joints, params.lengths), start=1):
        joint = ET.SubElement(robot, "joint", name=f"joint_{j}", type="revolute")
        ET.SubElement(joint, "origin", xyz=_vec(0.0, 0.0, prev_length), rpy="0 0 0")
        ET.SubElement(joint, "parent", link=parent)
        ET.SubElement(joint, "child", link=f"link_{j}")
        ET.SubElement(joint, "axis", xyz=_AXIS_XYZ[jt])
        ET.SubElement(
            joint,
            "limit",
            lower=repr(-JOINT_ANGLE_LIMIT),
            upper=repr(JOINT_ANGLE_LIMIT),
            effort="100",
            velocity="1",
        )

        link = ET.SubElement(robot, "link", name=f"link_{j}")
        visual = ET.SubElement(link, "visual")
        ET.SubElement(visual, "origin", xyz=_vec(0.0, 0.0, length / 2.0), rpy="0 0 0")
        geometry = ET.SubElement(visual, "geometry")
        ET.SubElement(geometry, "cylinder", radius=repr(VISUAL_RADIUS), length=repr(float(length)))

        mass = LINEAR_DENSITY * length
        inertial = ET.SubElement(link, "inertial")
        ET.SubElement(inertial, "origin", xyz=_vec(0.0, 0.0, COM_FRACTION * length), rpy="0 0 0")
        ET.SubElement(inertial, "mass", value=repr(mass))
        # thin uniform rod about its COM
        i_perp = mass * length**2 / 12.0
        i_axial = mass * VISUAL_RADIUS**2 / 2.0
        ET.SubElement(
            inertial,
            "inertia",
            ixx=repr(i_perp),
            ixy="0",
            ixz="0",
            iyy=repr(i_perp),
            iyz="0",
            izz=repr(i_axial),
        )

        parent = f"link_{j}"
        prev_length = float(length)

    ET.indent(robot, space="  ")
    return '<?xml version="1.0" ?>\n' + ET.tostring(robot, encoding="unicode") + "\n"
