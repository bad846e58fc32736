"""Dominance, Pareto-front extraction, and 2-D hypervolume (minimization).

Hypervolume is the area between the front and a fixed reference point; points
at or beyond the reference in either coordinate contribute zero (they are
clipped, not rejected, so early bad samples keep the curve defined).
"""
from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple, Sequence, TypeVar

import numpy as np


class ObjectiveValues(NamedTuple):
    """Bi-objective score of a design (both minimized)."""

    e_pos: float
    e_torque: float


DEFAULT_REF_POINT = (5.0, 5.0)


def dominates(a, b) -> bool:
    """Weak Pareto dominance: a <= b componentwise with at least one strict <."""
    a0, a1 = a
    b0, b1 = b
    return a0 <= b0 and a1 <= b1 and (a0 < b0 or a1 < b1)


def nondomination_ranks(values) -> np.ndarray:
    """Rank 0 = nondominated; rank k = nondominated after removing ranks < k.

    Rows of an (n, 2) array without NaN; equal pairs share a rank. Sort-and-sweep:
    in (f1, f2) order every dominator of a point comes before it, and the last
    member of each rank dominates the point iff that rank does, iff its (f2, f1)
    sorts strictly below the point's. Those tails stay sorted, so a point's rank
    is a bisection over them, and the point becomes its rank's new tail.
    """
    vals = np.asarray(values, dtype=float).reshape(-1, 2).tolist()
    ranks = np.zeros(len(vals), dtype=int)
    tails: list[list[float]] = []  # (f2, f1) of the last member of each rank
    for i in sorted(range(len(vals)), key=vals.__getitem__):
        key = vals[i][::-1]
        rank = bisect_left(tails, key)
        tails[rank : rank + 1] = [key]
        ranks[i] = rank
    return ranks


def nondominated_indices(values) -> list[int]:
    """Indices of nondominated rows of an (n, 2) array, in input order.

    Duplicates of a nondominated pair are all retained (weak dominance has no
    strict improvement between equals).
    """
    return np.flatnonzero(nondomination_ranks(values) == 0).tolist()


T = TypeVar("T")


def pareto_front(points: Sequence[T]) -> list[T]:
    """Nondominated subset of objects carrying an .objectives pair, input order kept."""
    values = [p.objectives for p in points]
    return [points[i] for i in nondominated_indices(values)]


def hypervolume_2d(values, ref=DEFAULT_REF_POINT) -> float:
    """Area of the union of rectangles [p, ref] over points strictly inside ref.

    In (f1, f2) order a point adds area iff its f2 drops below every f2 before
    it; the rest are dominated, equal or at or beyond ref in f2. The sweep
    stops at the first f1 at or beyond ref.
    """
    rx, ry = float(ref[0]), float(ref[1])
    area = 0.0
    prev_f2 = ry
    for f1, f2 in sorted(np.asarray(values, dtype=float).reshape(-1, 2).tolist()):
        if f1 >= rx:
            break
        if f2 < prev_f2:
            area += (rx - f1) * (prev_f2 - f2)
            prev_f2 = f2
    return area


def hypervolume_contributions(values, ref=DEFAULT_REF_POINT) -> np.ndarray:
    """Exclusive hypervolume of each front point of a set; 0 for the rest.

    Sorted by f1, a front point's exclusive area is the box spanned by its
    front neighbours (the reference point stands in for a missing one), so
    dominated points, equal pairs and points at or beyond ``ref`` get 0
    (Emmerich, Beume & Naujoks, EMO 2005). This equals the leave-one-out drop
    ``hv(all) - hv(all without i)`` only on a mutually nondominated set, which
    is how ``tpe.split_observations`` calls it (one rank at a time); with
    dominated points inside a box, leave-one-out is smaller.
    """
    vals = np.asarray(values, dtype=float).reshape(-1, 2)
    rx, ry = float(ref[0]), float(ref[1])
    front = np.flatnonzero((nondomination_ranks(vals) == 0) & (vals[:, 0] < rx) & (vals[:, 1] < ry))
    order = front[np.lexsort((vals[front, 1], vals[front, 0]))]
    f1, f2 = vals[order, 0], vals[order, 1]
    contrib = np.zeros(len(vals))
    contrib[order] = (np.append(f1[1:], rx) - f1) * (np.insert(f2[:-1], 0, ry) - f2)
    return contrib
