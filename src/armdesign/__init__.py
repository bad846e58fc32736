"""Multi-objective serial-arm design optimization.

Candidate arms (base origin, joint-type sequence, link lengths) are scored by
IK position error and gravity-compensation torque against a target point set,
and explored by a multi-objective TPE sampler interleaved with LLM-proposed
designs on a fixed schedule. Hypervolume against a fixed reference point tracks
progress; designs export to URDF.

The package root exports nothing: import from the submodules.
"""
