"""Reference dominance, ranking and hypervolume contributions for the tests.

Straight from the definitions, with no sorting tricks: layers are peeled off by
an all-pairs dominance check, a point's contribution is the hypervolume lost
when it alone is removed, and an integer-grid set's hypervolume is a count of
unit cells. `armdesign.pareto` computes both by 2-D sweeps,
so the property tests compare two independent implementations.
"""
from __future__ import annotations

import numpy as np

from armdesign.pareto import hypervolume_2d


def dominates(a, b) -> bool:
    """Weak Pareto dominance: a <= b componentwise with at least one strict <."""
    a0, a1 = a
    b0, b1 = b
    return a0 <= b0 and a1 <= b1 and (a0 < b0 or a1 < b1)


def layered_ranks(values) -> list[int]:
    """Rank 0 = nondominated; rank k = nondominated after removing ranks < k."""
    vals = [tuple(v) for v in np.asarray(values, dtype=float).reshape(-1, 2)]
    ranks = [-1] * len(vals)
    rank = 0
    while -1 in ranks:
        active = [i for i, r in enumerate(ranks) if r == -1]
        layer = [i for i in active if not any(dominates(vals[j], vals[i]) for j in active)]
        for i in layer:
            ranks[i] = rank
        rank += 1
    return ranks


def leave_one_out_contributions(values, ref) -> np.ndarray:
    """Per-point drop in hypervolume when that point is removed from the set."""
    vals = np.asarray(values, dtype=float).reshape(-1, 2)
    total = hypervolume_2d(vals, ref)
    return np.array([total - hypervolume_2d(np.delete(vals, i, axis=0), ref) for i in range(len(vals))])


def grid_cell_hypervolume(values, ref) -> float:
    """Hypervolume of integer points against an integer ref: the unit cells
    [i, i + 1] x [j, j + 1] inside ref whose lower corner some point weakly dominates."""
    rx, ry = (int(r) for r in ref)
    return float(
        sum(any(x <= i and y <= j for x, y in values) for i in range(rx) for j in range(ry))
    )
