from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from armdesign.pareto import ObjectiveValues, hypervolume_2d, pareto_front
from armdesign.space import SpaceConfig, make_params, random_sample, validate
from armdesign.tpe import (
    SampleSource,
    TpeConfig,
    TrialRecord,
    _category_probs,
    nondomination_ranks,
    split_observations,
    suggest,
)
from pareto_oracle import layered_ranks, leave_one_out_contributions
from tpe_oracle import suggest_one_draw_at_a_time

REF = (5.0, 5.0)


def make_trial(i, objectives, params):
    return TrialRecord(
        id=i, source=SampleSource.BBO, params=params, objectives=ObjectiveValues(*objectives)
    )


def random_trials(rng, space, objective_pairs):
    return [
        make_trial(i, pair, random_sample(rng, space)) for i, pair in enumerate(objective_pairs)
    ]


def test_split_size_is_ceiling_of_gamma_n(space):
    rng = np.random.default_rng(0)
    trials = random_trials(rng, space, rng.uniform(0, 4, size=(10, 2)))
    good, bad = split_observations(trials, gamma=0.3, ref_point=REF)
    assert len(good) == 3
    assert len(bad) == 7
    assert {t.id for t in good} | {t.id for t in bad} == {t.id for t in trials}
    assert {t.id for t in good} & {t.id for t in bad} == set()


def test_dominating_trial_always_good(space):
    rng = np.random.default_rng(1)
    pairs = rng.uniform(2, 4, size=(20, 2)).tolist()
    pairs[7] = (0.1, 0.1)  # dominates everything
    trials = random_trials(rng, space, pairs)
    good, _ = split_observations(trials, gamma=0.05, ref_point=REF)
    assert [t.id for t in good] == [7]


def test_boundary_rank_ties_broken_by_hv_contribution(space):
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(4, 9))
        # mutually nondominated set: ascending f1, descending f2
        f1 = np.sort(rng.uniform(0, 4, size=n))
        f2 = np.sort(rng.uniform(0, 4, size=n))[::-1]
        pairs = list(zip(f1, f2))
        trials = random_trials(rng, space, pairs)
        assert nondomination_ranks(np.array(pairs)).max() == 0

        k = int(rng.integers(1, n))
        good, _ = split_observations(trials, gamma=(k - 0.5) / n, ref_point=REF)
        assert len(good) == k

        # brute-force oracle: the k-subset keeping the largest leave-one-out drops
        total = hypervolume_2d(pairs, REF)
        contrib = [
            total - hypervolume_2d([p for j, p in enumerate(pairs) if j != i], REF)
            for i in range(n)
        ]
        expected = set(sorted(range(n), key=lambda i: (-contrib[i], i))[:k])
        assert {t.id for t in good} == expected


def oracle_split(values, gamma, ref):
    """(good, bad) indices: ceil(gamma * n) trials, clipped to [0, n], taken by
    rank, then leave-one-out contribution within the rank (largest first), then index."""
    n = len(values)
    n_good = min(max(int(np.ceil(gamma * n)), 0), n)
    ranks = layered_ranks(values)
    contrib = np.zeros(n)
    for rank in set(ranks):
        members = [i for i in range(n) if ranks[i] == rank]
        contrib[members] = leave_one_out_contributions([values[i] for i in members], ref)
    order = sorted(range(n), key=lambda i: (ranks[i], -contrib[i], i))
    good = sorted(order[:n_good])
    return good, [i for i in range(n) if i not in good]


@st.composite
def split_cases(draw):
    """Integer-grid histories (ties, equal pairs, points on or beyond ref) with
    gammas at 0, at 1, above 1, on each rank boundary and in between."""
    values = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=30))
    n = len(values)
    ranks = layered_ranks(values)
    # (k - 0.5) / n rounds up to exactly k trials: all of ranks < r for each r
    boundaries = [(sum(q < r for q in ranks) - 0.5) / n for r in range(1, max(ranks) + 2)]
    gamma = draw(st.one_of(st.sampled_from([0.0, 1.0, 1.5, *boundaries]), st.floats(0.0, 1.0)))
    ref = draw(st.sampled_from([(5.0, 4.0), (7.0, 7.0), (2.0, 3.0)]))
    return values, gamma, ref


@settings(max_examples=400, deadline=None, derandomize=True)
@given(split_cases())
def test_split_matches_oracle(case):
    values, gamma, ref = case
    params = make_params((0.0, 0.0, 0.0), "YPRP", (0.1,) * 4)
    trials = [make_trial(i, pair, params) for i, pair in enumerate(values)]
    good, bad = split_observations(trials, gamma, ref)
    assert ([t.id for t in good], [t.id for t in bad]) == oracle_split(values, gamma, ref)


def test_category_prior_formula():
    # five observations of one category out of three, prior weight 1
    probs = _category_probs(np.array([0.0, 0.0, 5.0]), prior_weight=1.0)
    assert probs[2] == (5 + 1 / 3) / 6
    assert abs(probs[2] - 0.8889) < 1e-4
    assert probs.sum() == 1.0


def test_suggest_empty_history_is_uniform_random(space):
    cfg = TpeConfig()
    for seed in range(50):
        p = suggest(np.random.default_rng(seed), [], cfg, space)
        assert validate(p, space) == []
    # identical to the plain random sampler under the same rng state
    assert suggest(np.random.default_rng(9), [], cfg, space) == random_sample(
        np.random.default_rng(9), space
    )


def test_suggest_deterministic_given_state(space):
    rng = np.random.default_rng(3)
    trials = random_trials(rng, space, rng.uniform(0, 4, size=(30, 2)))
    a = suggest(np.random.default_rng(77), trials, TpeConfig(), space)
    b = suggest(np.random.default_rng(77), trials, TpeConfig(), space)
    assert a == b


# Three successive suggestions (origin, joint letters, lengths) from
# default_rng(11) on a seeded history of n trials with uniform objectives, for
# n = 30 and 300. Any change that moves these moves every run's ledger and must
# say so.
GOLDEN_SUGGESTIONS = {
    30: [
        ((-0.8229337730466614, -0.5861153114645135, -0.30905840331988443), "YYYP",
         (0.2735537108217385, 0.10830696528778325, 0.23954937756471303, 0.04508687577006298)),
        ((-0.21912223699083355, 0.931701503973144, -0.3041995639032187), "YRYP",
         (0.28512496725318387, 0.2474294755130837, 0.06617167905053611, 0.19442284810208177)),
        ((-0.2956231405446854, -0.025796267740164722, 0.27963338226328927), "YRYP",
         (0.09847456606767516, 0.19704764273777167, 0.19117581688057755, 0.032233358978211946)),
    ],
    300: [
        ((-0.7581433375786882, -0.11580050726144117, -0.5522147277828886), "PPYY",
         (0.24519166722867503, 0.2477484441446656, 0.26790662575696744, 0.031053162870373296)),
        ((0.7738397154469195, -0.5899656244880045, 0.7200780857635646), "PRRY",
         (0.08023445003218248, 0.2696461087761955, 0.1497900843347716, 0.09221108425304878)),
        ((0.40623814406738407, 0.10027975521969912, -0.06456722912534252), "PRRP",
         (0.25988714552534015, 0.25446749247672046, 0.061528054762713856, 0.11442024164003489)),
    ],
}


@pytest.mark.parametrize("n", sorted(GOLDEN_SUGGESTIONS))
def test_golden_suggestions(space, n):
    rng = np.random.default_rng(n)
    trials = random_trials(rng, space, rng.uniform(0, 4, size=(n, 2)))
    sampler_rng = np.random.default_rng(11)
    for origin, joints, lengths in GOLDEN_SUGGESTIONS[n]:
        p = suggest(sampler_rng, trials, TpeConfig(), space)
        assert "".join(jt.letter for jt in p.joints) == joints
        assert p.origin == pytest.approx(origin, rel=1e-12)
        assert p.lengths == pytest.approx(lengths, rel=1e-12)


@st.composite
def suggest_cases(draw):
    """Seeded histories of 10-80 trials over 1-6 joints, with the reference points
    of the split test. In the duplicate-heavy ones every design is one of three
    and the objectives sit on an integer grid."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(10, 80))
    space = SpaceConfig(n_joints=draw(st.integers(1, 6)))
    ref = draw(st.sampled_from([(5.0, 4.0), (7.0, 7.0), (2.0, 3.0)]))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        pool = [random_sample(rng, space) for _ in range(3)]
        designs = [pool[k] for k in rng.integers(3, size=n)]
        pairs = rng.integers(0, 7, size=(n, 2))
    else:
        designs = [random_sample(rng, space) for _ in range(n)]
        pairs = rng.uniform(0, 6, size=(n, 2))
    return [make_trial(i, pair, p) for i, (pair, p) in enumerate(zip(pairs, designs))], space, ref, seed


@settings(max_examples=300, deadline=None, derandomize=True)
@given(suggest_cases())
def test_block_draw_matches_one_draw_at_a_time(case):
    trials, space, ref, seed = case
    rng, oracle_rng = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
    cfg = TpeConfig()
    expected = suggest_one_draw_at_a_time(oracle_rng, trials, cfg, space, ref)
    assert suggest(rng, trials, cfg, space, ref) == expected
    # the same number of doubles consumed
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize(
    "joint_counts, first_bad",
    [([3, 5] * 6, 0), ([3] * 12, 0), ([4] * 7 + [5] + [4] * 4, 7)],
    ids=["alternating-3-5", "all-3", "one-5"],
)
def test_suggest_rejects_designs_of_another_joint_count(space, joint_counts, first_bad):
    rng = np.random.default_rng(6)
    trials = [
        make_trial(i, rng.uniform(0, 4, size=2), random_sample(rng, SpaceConfig(n_joints=d)))
        for i, d in enumerate(joint_counts)
    ]
    with pytest.raises(ValueError, match=f"^trial {first_bad} has {joint_counts[first_bad]} joints"):
        suggest(rng, trials, TpeConfig(), space)


def test_suggestions_always_inside_bounds(space):
    rng = np.random.default_rng(4)
    trials = random_trials(rng, space, rng.uniform(0, 4, size=(40, 2)))
    cfg = TpeConfig()
    for _ in range(100):
        assert validate(suggest(rng, trials, cfg, space), space) == []


def test_suggest_concentrates_on_good_category(space):
    # all good trials share joints[0] = YAW; the suggestion should prefer it
    rng = np.random.default_rng(5)
    from armdesign.space import JointType

    trials = []
    for i in range(40):
        good = i < 10
        joints = "YPRP" if good else "RPYP"
        p = make_params(rng.uniform(-1, 1, 3), joints, rng.uniform(0.03, 0.3, 4))
        objectives = (0.5, 0.5) if good else (4.0, 4.0)
        trials.append(make_trial(i, objectives, p))
    hits = sum(
        suggest(rng, trials, TpeConfig(), space).joints[0] is JointType.YAW for _ in range(100)
    )
    assert hits > 60  # far above the 1/3 uniform rate


TOY_CENTER = np.array([0.5, 0.5, 0.5, 0.2, 0.2, 0.2, 0.2])


def toy_objectives(params) -> ObjectiveValues:
    v = np.array([*params.origin, *params.lengths])
    return ObjectiveValues(float(v @ v), float((v - TOY_CENTER) @ (v - TOY_CENTER)))


def run_toy_problem(seed: int, use_tpe: bool, rounds: int, space: SpaceConfig) -> float:
    rng = np.random.default_rng(seed)
    cfg = TpeConfig()
    trials: list[TrialRecord] = []
    for i in range(rounds):
        p = suggest(rng, trials, cfg, space) if use_tpe else random_sample(rng, space)
        trials.append(make_trial(i, toy_objectives(p), p))
    return hypervolume_2d([t.objectives for t in pareto_front(trials)], REF)


def test_toy_problem_beats_random_sampling(space):
    seeds = range(3)
    rounds = 150
    tpe_hv = [run_toy_problem(s, True, rounds, space) for s in seeds]
    rnd_hv = [run_toy_problem(s, False, rounds, space) for s in seeds]
    assert np.median(tpe_hv) > np.median(rnd_hv)
