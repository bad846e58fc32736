"""Pareto-front extraction and 2-D hypervolume (minimization).

Every dominance decision is one running-minimum sweep over points sorted by
(f1, f2), `sorted_front`. The first front is one sort and that sweep; the TPE
split peels its later fronts with the same sweep over what is left, which
stays sorted. Hypervolume is the area between the front and a fixed
reference point; points at or beyond the reference in either coordinate
add no area (they are clipped, not rejected, so early bad samples keep the
curve defined).
"""
from __future__ import annotations

from itertools import chain, compress
from typing import NamedTuple, Sequence, TypeVar

import numpy as np


class ObjectiveValues(NamedTuple):
    """Bi-objective score of a design (both minimized)."""

    e_pos: float
    e_torque: float


DEFAULT_REF_POINT = (5.0, 5.0)


def objective_array(points) -> np.ndarray:
    """(n, 2) array of the .objectives pairs of a sequence of objects."""
    flat = chain.from_iterable(p.objectives for p in points)
    return np.fromiter(flat, dtype=float, count=2 * len(points)).reshape(-1, 2)


def sorted_front(f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Boolean mask of the nondominated points among points sorted by (f1, f2).

    In that order a point is dominated iff some earlier point's (f2, f1) sorts
    strictly below its own. So a point is on the front iff its f2 is the
    running minimum of f2 through it and its f1 is that of the first point at
    that minimum, the least f1 there. Equal pairs stay on the front.
    """
    least = np.minimum.accumulate(f2)
    starts = np.arange(len(f2))
    starts[1:] *= f2[1:] < least[:-1]  # nonzero where the running minimum first takes its value
    first = np.maximum.accumulate(starts)
    on_front = (f2 == least) & (f1[first] == f1)
    return on_front


def first_front(values) -> np.ndarray:
    """Boolean mask of the nondominated rows of an (n, 2) array without NaN."""
    vals = np.asarray(values, dtype=float).reshape(-1, 2)
    order = np.lexsort((vals[:, 1], vals[:, 0]))
    on_front = np.empty(len(vals), dtype=bool)
    on_front[order] = sorted_front(vals[order, 0], vals[order, 1])
    return on_front


T = TypeVar("T")


def pareto_front(points: Sequence[T]) -> list[T]:
    """Nondominated subset of objects carrying an .objectives pair, input order kept.

    Duplicates of a nondominated pair are all kept.
    """
    return list(compress(points, first_front(objective_array(points)).tolist()))


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
