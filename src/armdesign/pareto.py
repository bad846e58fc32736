"""Pareto-front extraction and 2-D hypervolume (minimization).

Every dominance decision is one running-minimum sweep, `sorted_front`, over
points sorted by (f1, f2) and keyed as complex numbers f2 + i f1, which numpy
orders by real, then imaginary part (`sorted_keys`). The first front is one
sort and that sweep; the TPE split peels its later fronts with the same sweep
over the keys that are left, which stay sorted. Hypervolume is the area
between the front and a fixed reference point; points at or beyond the
reference in either coordinate add no area (they are clipped, not rejected,
so early bad samples keep the curve defined).
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


def sorted_front(keys: np.ndarray) -> np.ndarray:
    """Boolean mask of the nondominated points among points sorted by (f1, f2), given as keys f2 + i f1.

    In that order a point is dominated iff some earlier point's (f2, f1) sorts
    strictly below its own, so it is on the front iff its key is the running
    minimum of the keys through it (Kung, Luccio & Preparata 1975). Equal
    pairs stay on the front.
    """
    return keys == np.minimum.accumulate(keys)


def sorted_keys(values) -> tuple[np.ndarray, np.ndarray]:
    """(order, keys) of an (n, 2) objective array without NaN: its (f1, f2) sort and the sorted keys f2 + i f1."""
    pairs = np.ascontiguousarray(values, dtype=float).reshape(-1, 2)  # an int or strided array is converted
    points = pairs.view(complex)[:, 0]  # f1 + i f2
    order = np.argsort(points)  # by (f1, f2); how equal pairs are ordered changes no front and no split
    keys = np.empty(len(order), dtype=complex)
    keys.real, keys.imag = points.imag[order], points.real[order]
    return order, keys


def first_front(values) -> np.ndarray:
    """Boolean mask of the nondominated rows of an (n, 2) array without NaN."""
    order, keys = sorted_keys(values)
    on_front = np.empty(len(keys), dtype=bool)
    on_front[order] = sorted_front(keys)
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
