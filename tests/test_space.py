from __future__ import annotations

import numpy as np
import pytest

from armdesign.space import (
    DesignParams,
    JointType,
    from_vector,
    make_params,
    random_sample,
    to_vector,
    validate,
)


def test_valid_ypr_sequence_design(space):
    p = make_params((0, 0, 0), "YPRP", [0.1, 0.1, 0.1, 0.1])
    assert validate(p, space) == []


def test_length_bound_violation(space):
    p = make_params((0, 0, 0), "YPRP", [0.1, 0.1, 0.31, 0.1])
    violations = validate(p, space)
    assert len(violations) == 1
    assert "lengths[2]" in violations[0]


def test_origin_bound_violation(space):
    p = make_params((1.5, 0, 0), "YPRP", [0.1, 0.1, 0.1, 0.1])
    violations = validate(p, space)
    assert len(violations) == 1
    assert "origin.x" in violations[0]


def test_shape_violations_reported(space):
    p = DesignParams(origin=(0.0, 0.0, 0.0), joints=(JointType.YAW,), lengths=(0.1, 0.1))
    violations = validate(p, space)
    assert any("joints" in v for v in violations)
    assert any("lengths" in v for v in violations)


def test_vector_length_is_2d_plus_3(space):
    p = make_params((0, 0, 0), "YPRP", [0.1, 0.1, 0.1, 0.1])
    assert len(to_vector(p)) == 11


def test_vector_round_trip_identity(space):
    rng = np.random.default_rng(0)
    for _ in range(1000):
        p = random_sample(rng, space)
        assert from_vector(to_vector(p)) == p


def test_from_vector_rejects_wrong_length():
    with pytest.raises(ValueError, match="2D\\+3"):
        from_vector(np.zeros(10))


@pytest.mark.parametrize("length", range(21))
def test_from_vector_accepts_exactly_2d_plus_3(length):
    if length in (5, 7, 9, 11, 13, 15, 17, 19):
        d = (length - 3) // 2
        vec = [0.1, -0.2, 0.3] + [2.0] * d + [0.2] * d
        assert from_vector(vec) == make_params((0.1, -0.2, 0.3), "Y" * d, [0.2] * d)
    else:
        with pytest.raises(ValueError, match="2D\\+3"):
            from_vector([0.0] * length)


def test_from_vector_rejects_bad_type_code():
    vec = to_vector(make_params((0, 0, 0), "YPRP", [0.1] * 4))
    vec[4] = 3.0
    with pytest.raises(ValueError, match="code"):
        from_vector(vec)
    vec[4] = 1.5
    with pytest.raises(ValueError, match="code"):
        from_vector(vec)


def test_random_sample_always_valid(space):
    rng = np.random.default_rng(1)
    for _ in range(10_000):
        assert validate(random_sample(rng, space), space) == []


def test_random_sample_joint_type_frequencies(space):
    rng = np.random.default_rng(2)
    n = 10_000
    counts = {jt: 0 for jt in JointType}
    for _ in range(n):
        counts[random_sample(rng, space).joints[0]] += 1
    # binomial 3-sigma band around 1/3
    sigma = np.sqrt(n * (1 / 3) * (2 / 3))
    for jt in JointType:
        assert abs(counts[jt] - n / 3) < 3 * sigma


def test_random_sample_deterministic(space):
    a = random_sample(np.random.default_rng(42), space)
    b = random_sample(np.random.default_rng(42), space)
    assert a == b


def test_joint_type_letters():
    assert JointType.from_letter("y") is JointType.YAW
    assert JointType.from_letter("Pitch") is JointType.PITCH
    assert [jt.letter for jt in JointType] == ["R", "P", "Y"]
    with pytest.raises(ValueError):
        JointType.from_letter("Q")
