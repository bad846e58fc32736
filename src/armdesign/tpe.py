"""Multi-objective tree-structured Parzen estimator over the mixed design space.

Past trials are split into good/bad sets by nondomination rank (hypervolume
contribution breaks ties in the boundary rank). Each dimension gets a pair of
density estimators - truncated-Gaussian mixtures for continuous slots, weighted
counts for joint types - and the suggestion is the candidate drawn from the
good densities that maximizes the good/bad density ratio.

The sampler is stateless: the trial history is owned by the caller.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import ClassVar

import numpy as np
from scipy.special import ndtr, ndtri

from .evaluation import TargetOutcome
from .pareto import DEFAULT_REF_POINT, ObjectiveValues, hypervolume_contributions, nondomination_ranks
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
    trials: list[TrialRecord],
    gamma: float,
    ref_point: tuple[float, float] = DEFAULT_REF_POINT,
) -> tuple[list[TrialRecord], list[TrialRecord]]:
    """Partition trials into (good, bad) with |good| = ceil(gamma * n).

    Good trials are taken in ascending nondomination rank; within the boundary
    rank the largest hypervolume contributors win, earlier trials on ties.
    """
    if not trials:
        raise ValueError("split_observations needs at least one trial")
    n = len(trials)
    n_good = int(np.ceil(gamma * n))
    values = np.array([t.objectives for t in trials], dtype=float)
    ranks = nondomination_ranks(values)

    good_idx: list[int] = []
    for rank in range(ranks.max() + 1):
        remaining = n_good - len(good_idx)
        if remaining <= 0:
            break
        members = np.flatnonzero(ranks == rank).tolist()
        if len(members) <= remaining:
            good_idx.extend(members)
            continue
        contrib = hypervolume_contributions(values[members], ref_point)
        order = sorted(range(len(members)), key=lambda k: (-contrib[k], k))
        good_idx.extend(members[k] for k in order[:remaining])
    good_set = set(good_idx)
    good = [trials[i] for i in sorted(good_idx)]
    bad = [trials[i] for i in range(n) if i not in good_set]
    return good, bad


@dataclass(frozen=True)
class _TruncatedMixture:
    """Weighted truncated-Gaussian mixture on [low, high]."""

    low: float
    high: float
    centers: np.ndarray
    widths: np.ndarray
    weights: np.ndarray  # normalized

    @classmethod
    def fit(cls, observations: np.ndarray, low: float, high: float, cfg: TpeConfig) -> "_TruncatedMixture":
        span = high - low
        n = len(observations)
        width = span * max(cfg.bandwidth_scale * n ** (-0.2), cfg.bandwidth_floor) if n else span
        # one prior kernel spanning the bounds keeps densities positive everywhere
        centers = np.append(observations, 0.5 * (low + high))
        widths = np.append(np.full(n, width), span)
        weights = np.append(np.ones(n), cfg.prior_weight)
        return cls(low, high, centers, widths, weights / weights.sum())

    def _cdf_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo = ndtr((self.low - self.centers) / self.widths)
        hi = ndtr((self.high - self.centers) / self.widths)
        return lo, hi

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        ks = rng.choice(len(self.weights), size=size, p=self.weights)
        lo, hi = self._cdf_bounds()
        u = rng.uniform(lo[ks], hi[ks])
        x = self.centers[ks] + self.widths[ks] * ndtri(u)
        return np.clip(x, self.low, self.high)  # guard round-off at the edges

    def log_pdf(self, x: np.ndarray) -> np.ndarray:
        lo, hi = self._cdf_bounds()
        z = (x[:, None] - self.centers[None, :]) / self.widths[None, :]
        kernel = np.exp(-0.5 * z**2) / (np.sqrt(2.0 * np.pi) * self.widths[None, :])
        density = (self.weights[None, :] * kernel / (hi - lo)[None, :]).sum(axis=1)
        return np.log(density)


def _category_probs(counts: np.ndarray, prior_weight: float) -> np.ndarray:
    k = len(counts)
    return (counts + prior_weight / k) / (counts.sum() + prior_weight)


def suggest(
    rng: np.random.Generator,
    trials: list[TrialRecord],
    cfg: TpeConfig,
    space: SpaceConfig,
    ref_point: tuple[float, float] = DEFAULT_REF_POINT,
) -> DesignParams:
    """Propose the next design; uniform random until the startup threshold.

    ref_point is the hypervolume reference that breaks ties in the good/bad split.
    """
    if len(trials) < cfg.n_startup:
        return random_sample(rng, space)

    good, bad = split_observations(trials, cfg.gamma, ref_point)
    bounds = _continuous_bounds(space)
    good_vecs = _slot_matrix(good, len(bounds))
    bad_vecs = _slot_matrix(bad, len(bounds))
    n_cand = cfg.n_candidates
    score = np.zeros(n_cand)

    cont_samples = np.empty((n_cand, len(bounds)))
    for dim, (low, high) in enumerate(bounds):
        mix_good = _TruncatedMixture.fit(good_vecs[:, dim], low, high, cfg)
        mix_bad = _TruncatedMixture.fit(bad_vecs[:, dim], low, high, cfg)
        x = mix_good.sample(rng, n_cand)
        cont_samples[:, dim] = x
        score += mix_good.log_pdf(x) - mix_bad.log_pdf(x)

    alphabet = space.joint_alphabet
    cat_samples = np.empty((n_cand, space.n_joints), dtype=int)
    for j in range(space.n_joints):
        good_counts = _joint_counts(good, j, alphabet)
        bad_counts = _joint_counts(bad, j, alphabet)
        p_good = _category_probs(good_counts, cfg.prior_weight)
        p_bad = _category_probs(bad_counts, cfg.prior_weight)
        c = rng.choice(len(alphabet), size=n_cand, p=p_good)
        cat_samples[:, j] = c
        score += np.log(p_good[c]) - np.log(p_bad[c])

    best = int(np.argmax(score))
    vec = cont_samples[best]
    return make_params(vec[:3], [alphabet[c] for c in cat_samples[best]], vec[3:])


def _slot_matrix(trials: list[TrialRecord], n_dims: int) -> np.ndarray:
    """One row per trial: its continuous slots, origin then lengths."""
    return np.array([[*t.params.origin, *t.params.lengths] for t in trials]).reshape(-1, n_dims)


def _continuous_bounds(space: SpaceConfig) -> list[tuple[float, float]]:
    return [(space.origin_low, space.origin_high)] * 3 + [
        (space.length_low, space.length_high)
    ] * space.n_joints


def _joint_counts(trials: list[TrialRecord], j: int, alphabet) -> np.ndarray:
    counts = np.zeros(len(alphabet))
    index = {jt: i for i, jt in enumerate(alphabet)}
    for t in trials:
        counts[index[t.params.joints[j]]] += 1.0
    return counts
