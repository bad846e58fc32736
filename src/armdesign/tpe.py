"""Multi-objective tree-structured Parzen estimator over the mixed design space.

Past trials are split into good/bad sets by nondomination rank (exclusive
hypervolume breaks ties in the boundary rank). Each dimension gets a pair of
density estimators - truncated-Gaussian mixtures for continuous slots, weighted
counts for joint types - and the suggestion is the candidate drawn from the
good densities that maximizes the good/bad density ratio.

The trial history is a `TrialTable`: the records in trial order beside their
objectives, continuous slots (origin then lengths) and joint codes as arrays
with one row per trial. Rows are only appended, and each is written once, when
its record is added; a record whose design has another joint count or whose
objectives are not finite (the split's sweeps assume finite values) is
refused. A run keeps one table for all its suggestions; a list of records
given to `suggest` is read into a table of its own on each call. A call reads
the table's rows: the split peels the objectives' fronts into a good mask, the
mask picks each set's rows, and each mixture is fitted once, with its kernels'
CDFs at the bounds. The random draws are one block of
uniform doubles: per continuous slot a kernel choice then a uniform, then per
joint a type choice. A choice searches its doubles in the normalised CDF of
its weights, as ``Generator.choice`` does, so the block yields what per-slot
``choice`` and ``uniform`` calls would. The candidates' densities under each
mixture are one broadcast over all slots.

scipy.special (the truncated Gaussians' ``ndtr`` and ``ndtri``) is imported
at the first mixture fit, not with this module: it costs about 0.35 s and
25 MB, so processes that never sample (``evaluate``, ``report``, ``urdf``)
start in about 0.3 s. A run pays it once, at its first suggestion from
``n_startup`` or more trials.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import ClassVar, Sequence

import numpy as np

from .evaluation import TargetOutcome
from .pareto import DEFAULT_REF_POINT, ObjectiveValues, objective_array, sorted_front
from .space import DesignParams, SpaceConfig, make_params, random_sample


class SampleSource(Enum):
    RANDOM = "random"
    BBO = "bbo"
    LLM = "llm"


@dataclass(frozen=True)
class TrialRecord:
    """One sampled design with where it came from and how it scored."""

    id: int
    source: SampleSource
    params: DesignParams
    objectives: ObjectiveValues
    per_target: tuple[TargetOutcome, ...] = ()
    fallback: bool = False  # LLM slot that fell back to a BBO suggestion


class TrialTable:
    """An append-only trial history of designs with d joints, for at most capacity trials.

    `records` is the trial list. `values` (objectives), `slots` (origin then
    lengths) and `codes` (joint-type alphabet indices) are arrays with one row
    per record, in the same order: views of buffers preallocated for capacity
    rows, so a row is written once, when its record is added.
    """

    def __init__(self, d: int, capacity: int):
        self.d = d
        self.records: list[TrialRecord] = []
        self._buffers = (np.empty((capacity, 2)), np.empty((capacity, 3 + d)), np.empty((capacity, d), dtype=int))
        self.values, self.slots, self.codes = (buffer[:0] for buffer in self._buffers)

    @classmethod
    def of(cls, d: int, records: Sequence[TrialRecord]) -> "TrialTable":
        table = cls(d, len(records))
        table.extend(records)
        return table

    def __len__(self) -> int:
        return len(self.records)

    def append(self, record: TrialRecord) -> None:
        self.extend((record,))

    def extend(self, records: Sequence[TrialRecord]) -> None:
        """Add records as the next rows. A design of another joint count, an
        objective that is not finite or a full table is a ValueError, and adds nothing."""
        n, k, d = len(self.records), len(records), self.d
        if n + k > len(self._buffers[0]):
            raise ValueError(f"a table of {len(self._buffers[0])} trials cannot take {k} more after {n}")
        for t in records:
            if len(t.params.joints) != d or len(t.params.lengths) != d:
                raise ValueError(
                    f"trial {t.id} has {len(t.params.joints)} joints and {len(t.params.lengths)} lengths;"
                    f" the space has {d} joints"
                )
        values = objective_array(records)
        if not np.isfinite(values).all():
            first = int(np.argmin(np.isfinite(values).all(axis=1)))
            raise ValueError(f"trial {records[first].id} has a non-finite objective")
        params = [t.params for t in records]
        slots = np.fromiter(chain.from_iterable(p.origin + p.lengths for p in params), float, k * (3 + d))
        joints = chain.from_iterable(p.joints for p in params)
        codes = np.fromiter(map(SpaceConfig.joint_alphabet.index, joints), int, k * d)
        for buffer, rows in zip(self._buffers, (values, slots.reshape(k, 3 + d), codes.reshape(k, d))):
            buffer[n : n + k] = rows
        self.values, self.slots, self.codes = (buffer[: n + k] for buffer in self._buffers)
        self.records.extend(records)


@dataclass(frozen=True)
class TpeConfig:
    """The sampler's fixed settings, as class constants."""

    gamma: ClassVar[float] = 0.25  # fraction of trials in the good set
    n_candidates: ClassVar[int] = 24
    prior_weight: ClassVar[float] = 1.0
    n_startup: ClassVar[int] = 10  # below this, fall back to random sampling
    bandwidth_scale: ClassVar[float] = 1.06  # kernel width = range * max(scale * n^-1/5, floor)
    bandwidth_floor: ClassVar[float] = 1e-3


def split_observations(
    values: np.ndarray,
    gamma: float,
    ref_point: tuple[float, float] = DEFAULT_REF_POINT,
) -> np.ndarray:
    """Good-set mask, in row order, of ceil(gamma * n) of the n rows of an (n, 2)
    objective array, clipped to [0, n].

    Fronts are peeled in nondomination order, each by `sorted_front` over what
    the earlier peels left of one (f1, f2) sort, which stays sorted. Each front
    is good until one holds at least as many trials as the good set still
    needs. Within that boundary front, in its (f1, f2) order, a point strictly
    inside ref_point scores its exclusive hypervolume: (the next inside
    point's f1, or rx for the last) - f1, times (the previous one's f2, or ry
    for the first) - f2. Points at or beyond the reference score 0, and so do
    equal pairs. The largest scores win, earlier trials on ties.
    """
    n = len(values)
    if not n:
        raise ValueError("split_observations needs at least one trial")
    need = min(int(np.ceil(gamma * n)), n)
    good = np.zeros(n, dtype=bool)
    if need <= 0:
        return good
    order = np.lexsort((values[:, 1], values[:, 0]))
    f1, f2 = values[order, 0], values[order, 1]
    on_front = sorted_front(f1, f2)
    while (size := np.count_nonzero(on_front)) < need:
        good[order[on_front]] = True
        need -= size
        rest = ~on_front
        order, f1, f2 = order[rest], f1[rest], f2[rest]
        on_front = sorted_front(f1, f2)
    members, f1, f2 = order[on_front], f1[on_front], f2[on_front]
    rx, ry = ref_point
    inside = (f1 < rx) & (f2 < ry)
    f1, f2 = f1[inside], f2[inside]
    # on a sorted 2-D front a point's exclusive hypervolume is the box its
    # neighbours span (Emmerich, Beume & Naujoks, EMO 2005)
    contrib = np.zeros(len(members))
    contrib[inside] = (np.append(f1[1:], rx) - f1) * (np.insert(f2[:-1], 0, ry) - f2)
    good[members[np.lexsort((members, -contrib))[:need]]] = True
    return good


@dataclass(frozen=True)
class _Mixtures:
    """One weighted truncated-Gaussian mixture per continuous slot; row i lives on [low_i, high_i].

    Each slot has a kernel per observation plus one prior kernel spanning its
    bounds, so all rows share one weight vector. Each kernel's CDF at the
    bounds is taken once, at the fit.
    """

    low: np.ndarray  # (slots,)
    high: np.ndarray
    centers: np.ndarray  # (slots, n + 1)
    widths: np.ndarray
    weights: np.ndarray  # (n + 1,), normalized
    cdf_low: np.ndarray  # (slots, n + 1)
    cdf_high: np.ndarray

    @classmethod
    def fit(cls, observations: np.ndarray, low: np.ndarray, high: np.ndarray, cfg: TpeConfig) -> "_Mixtures":
        """observations: (n, slots), one row per trial."""
        span = high - low
        n = len(observations)
        width = span * max(cfg.bandwidth_scale * n ** (-0.2), cfg.bandwidth_floor) if n else span
        # one prior kernel spanning the bounds keeps densities positive everywhere
        centers = np.column_stack((observations.T, 0.5 * (low + high)))
        widths = np.column_stack((np.repeat(width[:, None], n, axis=1), span))
        weights = np.append(np.ones(n), cfg.prior_weight)
        from scipy.special import ndtr  # here, not at module import: see the module docstring

        cdf_low = ndtr((low[:, None] - centers) / widths)
        cdf_high = ndtr((high[:, None] - centers) / widths)
        return cls(low, high, centers, widths, weights / weights.sum(), cdf_low, cdf_high)

    def sample(self, kernel_draws: np.ndarray, uniform_draws: np.ndarray) -> np.ndarray:
        """(slots, m) samples from two (slots, m) blocks of uniform doubles.

        A kernel draw picks the kernel by its weight; a uniform draw places the
        sample at that quantile of the kernel truncated to the bounds.
        """
        from scipy.special import ndtri  # loaded by fit

        ks = _cdf(self.weights).searchsorted(kernel_draws, side="right")
        rows = np.arange(len(ks))[:, None]
        lo, hi = self.cdf_low[rows, ks], self.cdf_high[rows, ks]
        x = self.centers[rows, ks] + self.widths[rows, ks] * ndtri(lo + (hi - lo) * uniform_draws)
        return np.clip(x, self.low[:, None], self.high[:, None])  # guard round-off at the edges

    def log_pdf(self, x: np.ndarray) -> np.ndarray:
        """(slots, m) log densities of a (slots, m) block of points, row i under row i's mixture.

        One (slots, m, n + 1) buffer is updated in place, in the operation order
        of the per-slot formula: z = (x - center) / width, then
        exp(-0.5 * z**2) / (sqrt(2 pi) * width) * weight / (cdf_high - cdf_low),
        summed over the kernels. So every value is the one that formula gives.
        """
        t = x[:, :, None] - self.centers[:, None, :]
        t /= self.widths[:, None, :]
        t *= t
        t *= -0.5
        np.exp(t, out=t)
        t /= (np.sqrt(2.0 * np.pi) * self.widths)[:, None, :]
        t *= self.weights
        t /= (self.cdf_high - self.cdf_low)[:, None, :]
        return np.log(t.sum(axis=2))


def _cdf(p: np.ndarray) -> np.ndarray:
    """Cumulative probabilities, normalised as ``Generator.choice`` normalises them."""
    cdf = p.cumsum()
    return cdf / cdf[-1]


def _category_probs(counts: np.ndarray, prior_weight: float) -> np.ndarray:
    """Smoothed category frequencies, one distribution per row of counts."""
    k = counts.shape[-1]
    return (counts + prior_weight / k) / (counts.sum(axis=-1, keepdims=True) + prior_weight)


def suggest(
    rng: np.random.Generator,
    trials: TrialTable | Sequence[TrialRecord],
    cfg: TpeConfig,
    space: SpaceConfig,
    ref_point: tuple[float, float] = DEFAULT_REF_POINT,
) -> DesignParams:
    """Propose the next design from a trial table or a sequence of trial records;
    uniform random until the startup threshold.

    ref_point is the hypervolume reference that breaks ties in the good/bad split.
    """
    if len(trials) < cfg.n_startup:
        return random_sample(rng, space)

    d = space.n_joints
    table = trials if isinstance(trials, TrialTable) else TrialTable.of(d, trials)
    good = split_observations(table.values, cfg.gamma, ref_point)
    alphabet = space.joint_alphabet
    slots, codes = table.slots, table.codes
    low = np.array([space.origin_low] * 3 + [space.length_low] * d)
    high = np.array([space.origin_high] * 3 + [space.length_high] * d)
    mix_good = _Mixtures.fit(slots[good], low, high, cfg)
    mix_bad = _Mixtures.fit(slots[~good], low, high, cfg)
    p_good = _category_probs(_joint_counts(codes[good], len(alphabet)), cfg.prior_weight)
    p_bad = _category_probs(_joint_counts(codes[~good], len(alphabet)), cfg.prior_weight)

    n_cand, n_slots = cfg.n_candidates, len(low)
    draws = rng.random(n_cand * (2 * n_slots + d))
    per_slot = draws[: 2 * n_slots * n_cand].reshape(n_slots, 2, n_cand)
    cont_samples = mix_good.sample(per_slot[:, 0], per_slot[:, 1])
    score = np.zeros(n_cand)
    for row in mix_good.log_pdf(cont_samples) - mix_bad.log_pdf(cont_samples):
        score += row  # added in slot order, which fixes each score's rounding
    per_joint = draws[2 * n_slots * n_cand :].reshape(d, n_cand)
    cat_samples = np.array([_cdf(p).searchsorted(u, side="right") for p, u in zip(p_good, per_joint)])
    for j, c in enumerate(cat_samples):
        score += np.log(p_good[j, c]) - np.log(p_bad[j, c])

    best = int(np.argmax(score))
    vec = cont_samples[:, best]
    return make_params(vec[:3], [alphabet[c] for c in cat_samples[:, best]], vec[3:])


def _joint_counts(codes: np.ndarray, k: int) -> np.ndarray:
    """(D, k): how often each of the k joint types sits at each joint position."""
    d = codes.shape[1]
    return np.bincount((codes + k * np.arange(d)).ravel(), minlength=k * d).reshape(d, k)
