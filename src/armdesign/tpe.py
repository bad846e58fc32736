"""Multi-objective tree-structured Parzen estimator over the mixed design space.

Past trials are split into good/bad sets by nondomination rank (hypervolume
contribution breaks ties in the boundary rank). Each dimension gets a pair of
density estimators - truncated-Gaussian mixtures for continuous slots, weighted
counts for joint types - and the suggestion is the candidate drawn from the
good densities that maximizes the good/bad density ratio.

The sampler is stateless: the trial history is owned by the caller. A call
reads it once: the split ranks the objectives, one pass over the good and bad
trials gives a matrix of continuous slots and one of joint codes, and each
mixture is fitted once, with its kernels' CDFs at the bounds. The random draws
come in a fixed order: per continuous slot a kernel choice then a uniform, then
per joint a type choice.
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
        cdf_low = ndtr((low[:, None] - centers) / widths)
        cdf_high = ndtr((high[:, None] - centers) / widths)
        return cls(low, high, centers, widths, weights / weights.sum(), cdf_low, cdf_high)

    def sample(self, rng: np.random.Generator, i: int, size: int) -> np.ndarray:
        ks = rng.choice(len(self.weights), size=size, p=self.weights)
        u = rng.uniform(self.cdf_low[i, ks], self.cdf_high[i, ks])
        x = self.centers[i, ks] + self.widths[i, ks] * ndtri(u)
        return np.clip(x, self.low[i], self.high[i])  # guard round-off at the edges

    def log_pdf(self, i: int, x: np.ndarray) -> np.ndarray:
        """Row i's log density at x, with one (len(x), n + 1) temporary per step."""
        widths = self.widths[i]
        z = (x[:, None] - self.centers[i]) / widths
        kernel = np.exp(-0.5 * z**2) / (np.sqrt(2.0 * np.pi) * widths)
        density = (self.weights * kernel / (self.cdf_high[i] - self.cdf_low[i])).sum(axis=1)
        return np.log(density)


def _category_probs(counts: np.ndarray, prior_weight: float) -> np.ndarray:
    """Smoothed category frequencies, one distribution per row of counts."""
    k = counts.shape[-1]
    return (counts + prior_weight / k) / (counts.sum(axis=-1, keepdims=True) + prior_weight)


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
    alphabet = space.joint_alphabet
    slots, codes = _read_history(good + bad, alphabet)
    n_good = len(good)
    low = np.array([space.origin_low] * 3 + [space.length_low] * space.n_joints)
    high = np.array([space.origin_high] * 3 + [space.length_high] * space.n_joints)
    mix_good = _Mixtures.fit(slots[:n_good], low, high, cfg)
    mix_bad = _Mixtures.fit(slots[n_good:], low, high, cfg)
    p_good = _category_probs(_joint_counts(codes[:n_good], len(alphabet)), cfg.prior_weight)
    p_bad = _category_probs(_joint_counts(codes[n_good:], len(alphabet)), cfg.prior_weight)

    n_cand = cfg.n_candidates
    score = np.zeros(n_cand)
    cont_samples = np.empty((n_cand, len(low)))
    for i in range(len(low)):
        x = mix_good.sample(rng, i, n_cand)
        cont_samples[:, i] = x
        score += mix_good.log_pdf(i, x) - mix_bad.log_pdf(i, x)
    cat_samples = np.empty((n_cand, space.n_joints), dtype=int)
    for j in range(space.n_joints):
        c = rng.choice(len(alphabet), size=n_cand, p=p_good[j])
        cat_samples[:, j] = c
        score += np.log(p_good[j, c]) - np.log(p_bad[j, c])

    best = int(np.argmax(score))
    vec = cont_samples[best]
    return make_params(vec[:3], [alphabet[c] for c in cat_samples[best]], vec[3:])


def _read_history(trials: list[TrialRecord], alphabet) -> tuple[np.ndarray, np.ndarray]:
    """One row per trial: its continuous slots (origin then lengths) and its joint codes (alphabet indices)."""
    slots, codes = [], []
    for t in trials:
        p = t.params
        slots.append((*p.origin, *p.lengths))
        codes.append(tuple(map(alphabet.index, p.joints)))
    return np.array(slots, dtype=float), np.array(codes, dtype=int)


def _joint_counts(codes: np.ndarray, k: int) -> np.ndarray:
    """(D, k): how often each of the k joint types sits at each joint position."""
    d = codes.shape[1]
    return np.bincount((codes + k * np.arange(d)).ravel(), minlength=k * d).reshape(d, k)
