from __future__ import annotations

import pickle
from dataclasses import replace
from itertools import pairwise
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from armdesign.experiment import load_experiment
from armdesign.orchestrator import run
from armdesign.pareto import ObjectiveValues, first_front, hypervolume_2d, objective_array, pareto_front
from armdesign.space import JointType, SpaceConfig, make_params, random_sample, validate
from armdesign.tpe import (
    SampleSource,
    TpeConfig,
    TrialRecord,
    TrialTable,
    _category_probs,
    _KernelTable,
    _space_arrays,
    split_observations,
    suggest,
)
from pareto_oracle import layered_ranks, leave_one_out_contributions
from test_pareto import array_forms, signed_zero_sets, uniform_sets
from tpe_oracle import (
    Mixture,
    bounds,
    category_probs,
    joint_counts,
    log_pdf_slot,
    read_history,
    suggest_one_draw_at_a_time,
)

REF = (5.0, 5.0)
EXPERIMENTS = Path(__file__).resolve().parent.parent / "experiments"


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
    good = split_observations(objective_array(trials), gamma=0.3, ref_point=REF)
    assert good.dtype == bool
    assert good.shape == (10,)
    assert good.sum() == 3


def test_dominating_trial_always_good(space):
    rng = np.random.default_rng(1)
    pairs = rng.uniform(2, 4, size=(20, 2)).tolist()
    pairs[7] = (0.1, 0.1)  # dominates everything
    trials = random_trials(rng, space, pairs)
    good = split_observations(objective_array(trials), gamma=0.05, ref_point=REF)
    assert np.flatnonzero(good).tolist() == [7]


def test_boundary_rank_ties_broken_by_hv_contribution(space):
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(4, 9))
        # mutually nondominated set: ascending f1, descending f2
        f1 = np.sort(rng.uniform(0, 4, size=n))
        f2 = np.sort(rng.uniform(0, 4, size=n))[::-1]
        pairs = list(zip(f1, f2))
        trials = random_trials(rng, space, pairs)
        assert first_front(np.array(pairs)).all()

        k = int(rng.integers(1, n))
        good = split_observations(objective_array(trials), gamma=(k - 0.5) / n, ref_point=REF)
        assert good.sum() == k

        # brute-force oracle: the k-subset keeping the largest leave-one-out drops
        total = hypervolume_2d(pairs, REF)
        contrib = [
            total - hypervolume_2d([p for j, p in enumerate(pairs) if j != i], REF)
            for i in range(n)
        ]
        expected = set(sorted(range(n), key=lambda i: (-contrib[i], i))[:k])
        assert set(np.flatnonzero(good).tolist()) == expected


def history_case(seed: int, n: int, d: int, ref: tuple[float, float], duplicates: bool):
    """A seeded history of n trials over d joints. In a duplicate-heavy one every
    design is one of three and the objectives sit on an integer grid."""
    space = SpaceConfig(n_joints=d)
    rng = np.random.default_rng(seed)
    if duplicates:
        pool = [random_sample(rng, space) for _ in range(3)]
        designs = [pool[k] for k in rng.integers(3, size=n)]
        pairs = rng.integers(0, 7, size=(n, 2))
    else:
        designs = [random_sample(rng, space) for _ in range(n)]
        pairs = rng.uniform(0, 6, size=(n, 2))
    return [make_trial(i, pair, p) for i, (pair, p) in enumerate(zip(pairs, designs))], space, ref, seed


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
    """Integer-grid histories (ties, equal pairs, points on or beyond ref),
    seeded uniform floats and signed-zero sets, with gammas at 0, at 1, above 1,
    on each rank boundary and in between."""
    grid = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=30)
    values = draw(st.one_of(grid, uniform_sets, signed_zero_sets).filter(len))
    n = len(values)
    ranks = layered_ranks(values)
    # (k - 0.5) / n rounds up to exactly k trials: all of ranks < r for each r
    boundaries = [(sum(q < r for q in ranks) - 0.5) / n for r in range(1, max(ranks) + 2)]
    gamma = draw(st.one_of(st.sampled_from([0.0, 1.0, 1.5, *boundaries]), st.floats(0.0, 1.0)))
    ref = draw(st.sampled_from([(5.0, 4.0), (7.0, 7.0), (2.0, 3.0)]))
    return values, gamma, ref


@settings(max_examples=600, deadline=None, derandomize=True)
@given(split_cases())
# a float history with no ties and many thin fronts, so the split peels several
@example(([t.objectives for t in history_case(5, 120, 4, REF, duplicates=False)[0]], 0.25, REF))
def test_split_matches_oracle(case):
    values, gamma, ref = case
    expected = oracle_split(values, gamma, ref)
    for form in array_forms(values):  # float64 first, then the forms that must give its mask
        good = split_observations(form, gamma, ref)
        assert good.shape == (len(values),)
        assert (np.flatnonzero(good).tolist(), np.flatnonzero(~good).tolist()) == expected


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
    of the split test; half of them duplicate-heavy."""
    return history_case(
        seed=draw(st.integers(0, 2**32 - 1)),
        n=draw(st.integers(10, 80)),
        d=draw(st.integers(1, 6)),
        ref=draw(st.sampled_from([(5.0, 4.0), (7.0, 7.0), (2.0, 3.0)])),
        duplicates=draw(st.booleans()),
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(suggest_cases())
# the longest mixtures the strategy misses, where the density sums have the most terms
@example(history_case(seed=5, n=600, d=4, ref=(5.0, 5.0), duplicates=False))
@example(history_case(seed=5, n=600, d=4, ref=(5.0, 5.0), duplicates=True))
def test_block_draw_matches_one_draw_at_a_time(case):
    trials, space, ref, seed = case
    rng, oracle_rng = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
    cfg = TpeConfig()
    expected = suggest_one_draw_at_a_time(oracle_rng, trials, cfg, space, ref)
    assert suggest(rng, trials, cfg, space, ref) == expected
    # the same number of doubles consumed
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def bound_case(side: int, n: int, d: int):
    """A seeded history of n trials over d joints whose every design sits at one bound in every continuous
    slot: the low one for side 0, the high one for side 1."""
    space = SpaceConfig(n_joints=d)
    rng = np.random.default_rng(side)
    corner = bounds(space)[side]
    designs = [make_params(corner[:3], random_sample(rng, space).joints, corner[3:]) for _ in range(n)]
    pairs = rng.uniform(0, 6, size=(n, 2))
    return [make_trial(i, pair, p) for i, (pair, p) in enumerate(zip(pairs, designs))], space, REF, side


@settings(max_examples=200, deadline=None, derandomize=True)
@given(suggest_cases())
@example(history_case(seed=5, n=600, d=4, ref=(5.0, 5.0), duplicates=False))
# the narrowest kernels: the exponents' three terms are largest against the widths
@example(history_case(seed=5, n=2000, d=4, ref=(5.0, 5.0), duplicates=False))
# every kernel but the prior ones at one bound, so the exponents' terms cancel most at that bound and add
# to the largest exponent at the other
@example(bound_case(side=0, n=30, d=4))
@example(bound_case(side=1, n=30, d=4))
def test_broadcast_log_pdf_matches_per_slot_formula(case):
    trials, space, ref, seed = case
    cfg = TpeConfig()
    table = TrialTable(space.n_joints, trials)
    good = split_observations(table.values, cfg.gamma, ref)
    low, high = bounds(space)
    kernels = _KernelTable.fit(table.slots, good, _space_arrays(space), cfg)
    mixtures = [Mixture.fit(table.slots[half], low, high, cfg) for half in (good, ~good)]
    rng = np.random.default_rng(seed)
    sampled = kernels.sample(*rng.random((2, len(low), cfg.n_candidates)))
    at_bounds = np.repeat(np.stack((low, high))[:, :, None], cfg.n_candidates, axis=2)
    # a sum of k positive terms is off by at most (k - 1) eps relative, in either formula,
    # and the per-term roundings at most double that
    tolerance = 4 * (len(table) + 2) * np.finfo(float).eps
    for x in (sampled, *at_bounds):  # the drawn candidates, then every candidate at the low, then the high bound
        for mix, log_pdf in zip(mixtures, kernels.log_pdfs(x)):
            expected = np.array([log_pdf_slot(mix, i, row) for i, row in enumerate(x)])
            np.testing.assert_allclose(log_pdf, expected, rtol=0, atol=tolerance)


@pytest.mark.parametrize("d", [1, 4, 6])
def test_the_arrays_kept_per_space_are_read_only(d):
    """One entry serves every call on a space, so no call may write to it."""
    space = SpaceConfig(n_joints=d)
    arrays = _space_arrays(space)
    assert arrays is _space_arrays(SpaceConfig(n_joints=d))
    low, high = bounds(space)
    np.testing.assert_array_equal(arrays.bounds[:, :, 0], (low, high))
    np.testing.assert_array_equal(arrays.span[:, 0], high - low)
    np.testing.assert_array_equal(arrays.mid[:, 0], 0.5 * (low + high))
    np.testing.assert_array_equal(arrays.rows[:, 0], np.arange(3 + d))
    np.testing.assert_array_equal(arrays.joint_cells, len(space.joint_alphabet) * np.arange(d))
    for name, array in arrays._asdict().items():
        assert not array.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def feed_history(through, rng, trials, space):
    """Give trials to suggest as a list, or append them to a table one at a time."""
    if through == "suggest":
        suggest(rng, trials, TpeConfig(), space)
    else:
        table = TrialTable(space.n_joints)
        for t in trials:
            table.extend((t,))


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
    for through in ("suggest", "append"):
        with pytest.raises(ValueError, match=f"^trial {first_bad} has {joint_counts[first_bad]} joints"):
            feed_history(through, rng, trials, space)


@pytest.mark.parametrize("joints, lengths", [(3, 5), (5, 3)])
def test_a_design_whose_row_is_as_long_as_a_valid_one_is_rejected(space, joints, lengths):
    # 3 + 5 and 5 + 3 pack as many doubles as 4 + 4: only the counts at the end of the row tell them apart
    rng = np.random.default_rng(joints)
    trials = random_trials(rng, space, rng.uniform(0, 4, size=(12, 2)))
    trials[7] = make_trial(7, (1.0, 1.0), make_params((0.0, 0.0, 0.0), "P" * joints, [0.1] * lengths))
    assert len(trials[7].table_row) == len(trials[0].table_row)
    message = f"^trial 7 has {joints} joints and {lengths} lengths; the space has 4 joints$"
    table = TrialTable(space.n_joints, trials[:2])
    arrays = [a.tobytes() for a in (table.values, table.slots, table.codes)]
    with pytest.raises(ValueError, match=message):
        table.extend(trials[2:])
    assert table.records == trials[:2] and [a.tobytes() for a in (table.values, table.slots, table.codes)] == arrays
    with pytest.raises(ValueError, match=message):
        suggest(rng, trials, TpeConfig(), space)


@pytest.mark.parametrize("d", [3, 5])
def test_suggest_rejects_a_table_of_another_joint_count(space, d):
    rng = np.random.default_rng(d)
    trials = random_trials(rng, SpaceConfig(n_joints=d), rng.uniform(0, 4, size=(12, 2)))
    with pytest.raises(ValueError, match=f"^the table holds designs of {d} joints; the space has 4 joints$"):
        suggest(rng, TrialTable(d, trials), TpeConfig(), space)


@pytest.mark.parametrize("experiment", ["target1_llm_plus_mock", "target3_mock"])
def test_block_draw_matches_one_draw_at_a_time_at_run_sizes(space, experiment):
    # the seed-1 run's ledger, fed to a table one trial at a time as a run feeds it
    config = next(c for c in load_experiment(EXPERIMENTS / f"{experiment}.experiment").configs() if c.seed == 1)
    ledger = run(config).ledger
    table = TrialTable(space.n_joints)
    rng, oracle_rng = np.random.default_rng(1), np.random.default_rng(1)
    for n in (10, 50, 120, 209):
        for trial in ledger[len(table) : n]:
            table.extend((trial,))
        expected = suggest_one_draw_at_a_time(oracle_rng, ledger[:n], TpeConfig(), space, config.ref_point)
        assert suggest(rng, table, TpeConfig(), space, config.ref_point) == expected
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("through", ["suggest", "append"])
@pytest.mark.parametrize("column", [0, 1], ids=["f1", "f2"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_objective_is_rejected(space, bad, column, through):
    # a NaN would poison the split's running minimum and reshape the good set without an error
    rng = np.random.default_rng(20)
    pairs = rng.uniform(0, 4, size=(20, 2))
    pairs[3, column] = bad
    trials = random_trials(rng, space, pairs)
    with pytest.raises(ValueError, match="^trial 3 has a non-finite objective$"):
        feed_history(through, rng, trials, space)


def test_a_rejected_record_adds_nothing(space):
    rng = np.random.default_rng(21)
    trials = random_trials(rng, space, [(1.0, 2.0), (np.nan, 1.0), (2.0, 1.0)])
    table = TrialTable(space.n_joints, trials[:1])
    with pytest.raises(ValueError, match="^trial 1 has a non-finite objective$"):
        table.extend(trials[1:])
    assert table.records == trials[:1] and table.values.tolist() == [[1.0, 2.0]]


@st.composite
def mixed_histories(draw):
    """0-60 trials of D = 4 designs from every source, objectives uniform on [0, 6)."""
    seed, n = draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 60))
    rng, space = np.random.default_rng(seed), SpaceConfig(n_joints=4)
    sources = list(SampleSource)
    return [
        TrialRecord(
            i,
            sources[int(rng.integers(len(sources)))],
            random_sample(rng, space),
            ObjectiveValues(*rng.uniform(0, 6, size=2)),
            fallback=bool(rng.integers(2)),
        )
        for i in range(n)
    ], seed


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mixed_histories())
def test_the_table_is_the_history(case):
    trials, seed = case
    space = SpaceConfig(n_joints=4)
    empty = TrialTable(4)
    assert [a.shape for a in (empty.values, empty.slots, empty.codes)] == [(0, 2), (0, 7), (0, 4)]
    appended = TrialTable(4)
    for t in trials:
        appended.extend((t,))
    # chunks between sorted random cuts: the first is empty, and a repeated cut gives another
    chunked, cuts = TrialTable(4), np.random.default_rng(seed).integers(0, len(trials) + 1, size=8)
    for start, end in pairwise((0, 0, *sorted(cuts), len(trials))):
        chunked.extend(trials[start:end])
    slots, codes = read_history(trials, space.joint_alphabet)
    for table in (appended, chunked, TrialTable(4, trials)):
        assert table.records == trials and len(table) == len(trials)
        assert table.slots.shape == (len(trials), 7) and table.codes.shape == (len(trials), 4)
        assert table.values.tobytes() == objective_array(trials).tobytes()
        assert table.slots.tobytes() == slots.tobytes()
        assert table.codes.tobytes() == codes.tobytes()
    rng, list_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert suggest(rng, appended, TpeConfig(), space) == suggest(list_rng, trials, TpeConfig(), space)
    assert rng.bit_generator.state == list_rng.bit_generator.state



def test_cached_rows_read_the_benchmarks_history_size(space):
    # 600 trials, as the long-history benchmark holds: appended one at a time as a run appends them,
    # which packs each record's row, then read again from those cached rows and from uncached copies
    rng = np.random.default_rng(600)
    trials = random_trials(rng, space, rng.uniform(0, 4, size=(600, 2)))
    uncached = [replace(t) for t in trials]
    appended = TrialTable(space.n_joints)
    for t in trials:
        appended.extend((t,))
    assert all("table_row" in vars(t) for t in trials) and not any("table_row" in vars(t) for t in uncached)
    slots, codes = read_history(trials, space.joint_alphabet)
    for table in (appended, TrialTable(space.n_joints, trials), TrialTable(space.n_joints, uncached)):
        assert table.records == trials
        assert table.values.tobytes() == objective_array(trials).tobytes()
        assert table.slots.tobytes() == slots.tobytes()
        assert table.codes.tobytes() == codes.tobytes()
    rng, list_rng = np.random.default_rng(7), np.random.default_rng(7)
    assert suggest(rng, appended, TpeConfig(), space) == suggest(list_rng, trials, TpeConfig(), space)
    assert rng.bit_generator.state == list_rng.bit_generator.state
    for record in (trials[0], replace(trials[0])):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and vars(copy).keys() == vars(record).keys()
        assert copy.table_row == trials[0].table_row

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


class TieDraws:
    """A generator stub for `suggest`: every continuous draw is 0.5 and the
    type draws are the given ones, joint by joint."""

    def __init__(self, type_draws: np.ndarray):
        self.type_draws = type_draws

    def random(self, size):
        return np.concatenate((np.full(size - self.type_draws.size, 0.5), self.type_draws))


def test_a_type_draw_on_a_cdf_entry_takes_the_next_type(space):
    # Generator.choice is searchsorted(side="right") on the normalised CDF: a
    # draw equal to the first entry is past it, so it picks the second type
    rng = np.random.default_rng(6)
    trials = random_trials(rng, space, rng.uniform(0, 4, size=(40, 2)))
    cfg = TpeConfig()
    good = split_observations(objective_array(trials), cfg.gamma, REF)
    _, codes = read_history([t for t, g in zip(trials, good) if g], space.joint_alphabet)
    probs = category_probs(joint_counts(codes, space.n_joints, len(space.joint_alphabet)), cfg.prior_weight)
    cdf = probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    params = suggest(TieDraws(np.repeat(cdf[:, 0], cfg.n_candidates)), trials, cfg, space, REF)
    assert params.joints == (JointType.PITCH,) * space.n_joints


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
