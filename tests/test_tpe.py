from __future__ import annotations

import numpy as np
import pytest

from armdesign.pareto import ObjectiveValues, hypervolume_2d, pareto_front
from armdesign.space import SpaceConfig, random_sample, validate
from armdesign.tpe import (
    SampleSource,
    TpeConfig,
    TrialRecord,
    _category_probs,
    nondomination_ranks,
    split_observations,
    suggest,
)

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


def test_suggestions_always_inside_bounds(space):
    rng = np.random.default_rng(4)
    trials = random_trials(rng, space, rng.uniform(0, 4, size=(40, 2)))
    cfg = TpeConfig()
    for _ in range(100):
        assert validate(suggest(rng, trials, cfg, space), space) == []


def test_suggest_concentrates_on_good_category(space):
    # all good trials share joints[0] = YAW; the suggestion should prefer it
    rng = np.random.default_rng(5)
    from armdesign.space import JointType, make_params

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
