from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from armdesign.pareto import ObjectiveValues, first_front, hypervolume_2d, pareto_front
from pareto_oracle import dominates, grid_cell_hypervolume, layered_ranks


def front_indices(values):
    """Input positions of the points pareto_front keeps."""
    return [p.i for p in pareto_front([SimpleNamespace(i=i, objectives=v) for i, v in enumerate(values)])]


def brute_force_front(values):
    """All-pairs dominance check - the oracle for the sweep implementation."""
    keep = []
    for i, a in enumerate(values):
        if not any(dominates(b, a) for j, b in enumerate(values) if j != i):
            keep.append(i)
    return keep


def monte_carlo_hypervolume(values, ref, n_samples, rng):
    """Rectangle-membership estimate of the dominated area."""
    vals = np.asarray(values, dtype=float)
    inside = vals[(vals[:, 0] < ref[0]) & (vals[:, 1] < ref[1])]
    if len(inside) == 0:
        return 0.0
    lo = inside.min(axis=0)
    box = (ref[0] - lo[0]) * (ref[1] - lo[1])
    pts = rng.uniform(lo, ref, size=(n_samples, 2))
    covered = np.zeros(n_samples, dtype=bool)
    for p in inside:
        covered |= (pts[:, 0] >= p[0]) & (pts[:, 1] >= p[1])
    return box * covered.mean()


def test_dominates_basic_cases():
    assert dominates((1, 1), (2, 2))
    assert not dominates((1, 2), (2, 1))
    assert not dominates((2, 1), (1, 2))
    assert not dominates((1, 1), (1, 1))
    assert dominates((1, 2), (1, 3))


def test_front_drops_dominated_point():
    values = [(1, 3), (2, 2), (3, 1), (2, 3)]
    assert front_indices(values) == [0, 1, 2]


def test_front_singleton():
    pts = [SimpleNamespace(objectives=ObjectiveValues(1.0, 2.0))]
    assert pareto_front(pts) == pts


def test_front_keeps_duplicate_nondominated_pairs():
    values = [(1, 1), (1, 1), (2, 0.5)]
    assert front_indices(values) == [0, 1, 2]


def test_front_matches_brute_force_on_random_sets():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = rng.integers(1, 201)
        values = rng.uniform(0, 6, size=(n, 2))
        # sprinkle exact duplicates to exercise the tie handling
        if n > 3:
            values[1] = values[0]
        assert front_indices(values) == brute_force_front(values)


def test_front_preserves_input_order():
    values = [(3, 1), (1, 3), (2, 2)]
    assert front_indices(values) == [0, 1, 2]


def test_hypervolume_single_point():
    assert hypervolume_2d([(2, 2)], (5, 5)) == 9.0


def test_hypervolume_three_point_sweep():
    assert hypervolume_2d([(1, 4), (3, 2), (4, 1)], (5, 5)) == 9.0


def test_hypervolume_clipping_and_empty():
    assert hypervolume_2d([(6, 1)], (5, 5)) == 0.0
    assert hypervolume_2d([(1, 6)], (5, 5)) == 0.0
    assert hypervolume_2d([], (5, 5)) == 0.0
    assert hypervolume_2d([(6, 1), (2, 2)], (5, 5)) == 9.0


def test_hypervolume_monotone_under_insertion():
    rng = np.random.default_rng(1)
    for _ in range(50):
        values = rng.uniform(0, 6, size=(20, 2)).tolist()
        hv = hypervolume_2d(values)
        extra = rng.uniform(0, 6, size=2).tolist()
        assert hypervolume_2d(values + [extra]) >= hv - 1e-12


def test_hypervolume_permutation_invariant():
    rng = np.random.default_rng(3)
    values = rng.uniform(0, 5, size=(30, 2))
    shuffled = values[rng.permutation(30)]
    assert hypervolume_2d(values) == hypervolume_2d(shuffled)
    assert sorted(map(tuple, values[front_indices(values)])) == sorted(
        map(tuple, shuffled[front_indices(shuffled)])
    )


def test_hypervolume_against_monte_carlo():
    rng = np.random.default_rng(4)
    for _ in range(5):
        values = rng.uniform(0, 5, size=(15, 2))
        exact = hypervolume_2d(values, (5, 5))
        estimate = monte_carlo_hypervolume(values, (5, 5), 200_000, rng)
        assert abs(exact - estimate) / exact < 0.01


REF = (5.0, 4.0)  # unequal axes, so a swapped coordinate shows

# integer-grid sets have ties, equal pairs and points on or beyond REF, and
# their areas are exact in floats
grid_sets = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=40)
uniform_sets = st.builds(
    lambda seed, n: np.random.default_rng(seed).uniform(0, 6, size=(n, 2)).tolist(),
    st.integers(0, 2**32 - 1),
    st.integers(0, 40),
)
# signed zeros compare equal, so (-0.0, 1.0) and (0.0, 1.0) are an equal pair
signed_zero_sets = st.lists(st.tuples(*[st.sampled_from([-0.0, 0.0, 1.0, 2.0])] * 2), max_size=12)
point_sets = st.one_of(grid_sets, uniform_sets, signed_zero_sets)


def array_forms(values):
    """An objective list as a float64 array and in the other forms that must read the same: Fortran-ordered,
    two strided columns of a wider array, and int64 when every value is whole (the grid sets)."""
    vals = np.array(values, dtype=float).reshape(-1, 2)
    wide = np.zeros((len(vals), 3))
    wide[:, ::2] = vals
    forms = [vals, np.asfortranarray(vals), wide[:, ::2]]
    if (vals == np.trunc(vals)).all():
        forms.append(vals.astype(np.int64))
    return forms


@settings(max_examples=300, deadline=None, derandomize=True)
@given(point_sets)
@example([])
@example([(2, 3)])
@example([(1, 2), (1, 2), (0, 3), (2, 1), (2, 2), (1, 3)])
@example([(0.0, 1.0), (-0.0, 1.0), (1.0, -0.0), (1.0, 0.0), (-0.0, 2.0)])
def test_ranks_match_layered_oracle(values):
    expected = [rank == 0 for rank in layered_ranks(values)]
    assert first_front(values).tolist() == expected
    for form in array_forms(values):
        assert first_front(form).tolist() == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(grid_sets)
# an f1 tie with the dominated point first, an equal pair, points on ref in
# each coordinate and one beyond it in f1 with the lowest f2
@example([(1, 3), (1, 2), (2, 2), (2, 2), (5, 1), (0, 4), (6, 0)])
def test_hypervolume_equals_front_hypervolume(values):
    front = np.asarray(values, dtype=float).reshape(-1, 2)[front_indices(values)]
    hv = hypervolume_2d(values, REF)
    assert hv == hypervolume_2d(front, REF)
    assert hv == grid_cell_hypervolume(values, REF)
    # scaled to tenths the sums round, so an extra term from a point the sweep
    # should skip (a dominated f1 tie) shows in the last bits
    tenth = (REF[0] / 10, REF[1] / 10)
    assert hypervolume_2d(np.divide(values, 10), tenth) == hypervolume_2d(front / 10, tenth)

