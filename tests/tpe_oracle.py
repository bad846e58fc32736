"""Reference suggestion for the tests: one random draw at a time.

This is ``tpe.suggest`` as it was before its draws became one block and its
two mixtures one kernel table: per continuous slot a ``Generator.choice`` of a
kernel then a ``Generator.uniform`` inside it, then per joint a
``Generator.choice`` of a type, and the history read row by row. It has its
own fit of each mixture (``Mixture.fit``) and its own smoothed type counts
(``category_probs``), and shares only the split with ``armdesign.tpe``, so a
test that compares the two checks the fit, the draws and the history read.
Its density is ``log_pdf_slot``, one slot at a time with a temporary per step.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from armdesign.pareto import DEFAULT_REF_POINT, objective_array
from armdesign.space import DesignParams, SpaceConfig, make_params, random_sample
from armdesign.tpe import TpeConfig, TrialRecord, split_observations


@dataclass(frozen=True)
class Mixture:
    """One weighted truncated-Gaussian mixture per continuous slot; row i lives on [low_i, high_i].

    Each slot has a kernel per observation plus one prior kernel spanning its
    bounds, so all rows share one weight vector.
    """

    low: np.ndarray  # (slots,)
    high: np.ndarray
    centers: np.ndarray  # (slots, n + 1)
    widths: np.ndarray
    weights: np.ndarray  # (n + 1,), normalized
    cdf_low: np.ndarray  # (slots, n + 1)
    cdf_high: np.ndarray

    @classmethod
    def fit(cls, observations: np.ndarray, low: np.ndarray, high: np.ndarray, cfg: TpeConfig) -> "Mixture":
        """observations: (n, slots), one row per trial."""
        span = high - low
        n = len(observations)
        width = span * max(cfg.bandwidth_scale * n ** (-0.2), cfg.bandwidth_floor) if n else span
        centers = np.column_stack((observations.T, 0.5 * (low + high)))
        widths = np.column_stack((np.repeat(width[:, None], n, axis=1), span))
        weights = np.append(np.ones(n), cfg.prior_weight)
        cdf_low = ndtr((low[:, None] - centers) / widths)
        cdf_high = ndtr((high[:, None] - centers) / widths)
        return cls(low, high, centers, widths, weights / weights.sum(), cdf_low, cdf_high)


def category_probs(counts: np.ndarray, prior_weight: float) -> np.ndarray:
    """Smoothed category frequencies, one distribution per row of counts."""
    k = counts.shape[-1]
    return (counts + prior_weight / k) / (counts.sum(axis=-1, keepdims=True) + prior_weight)


def joint_counts(codes: np.ndarray, d: int, k: int) -> np.ndarray:
    """(d, k): how often each of the k joint types sits at each of the d joint positions."""
    counts = np.zeros((d, k), dtype=int)
    for row in codes:
        for j, c in enumerate(row):
            counts[j, c] += 1
    return counts


def bounds(space: SpaceConfig) -> tuple[np.ndarray, np.ndarray]:
    """Each continuous slot's low and high bound, origin then lengths."""
    low = np.array([space.origin_low] * 3 + [space.length_low] * space.n_joints)
    high = np.array([space.origin_high] * 3 + [space.length_high] * space.n_joints)
    return low, high


def sample_slot(mix: Mixture, rng: np.random.Generator, i: int, size: int) -> np.ndarray:
    ks = rng.choice(len(mix.weights), size=size, p=mix.weights)
    u = rng.uniform(mix.cdf_low[i, ks], mix.cdf_high[i, ks])
    x = mix.centers[i, ks] + mix.widths[i, ks] * ndtri(u)
    return np.clip(x, mix.low[i], mix.high[i])  # guard round-off at the edges


def log_pdf_slot(mix: Mixture, i: int, x: np.ndarray) -> np.ndarray:
    """Row i's log density at x, with one (len(x), n + 1) temporary per step."""
    widths = mix.widths[i]
    z = (x[:, None] - mix.centers[i]) / widths
    kernel = np.exp(-0.5 * z**2) / (np.sqrt(2.0 * np.pi) * widths)
    density = (mix.weights * kernel / (mix.cdf_high[i] - mix.cdf_low[i])).sum(axis=1)
    return np.log(density)


def read_history(trials: list[TrialRecord], alphabet) -> tuple[np.ndarray, np.ndarray]:
    """One row per trial: its continuous slots (origin then lengths) and its joint codes (alphabet indices)."""
    slots, codes = [], []
    for t in trials:
        p = t.params
        slots.append((*p.origin, *p.lengths))
        codes.append(tuple(map(alphabet.index, p.joints)))
    return np.array(slots, dtype=float), np.array(codes, dtype=int)


def suggest_one_draw_at_a_time(
    rng: np.random.Generator,
    trials: list[TrialRecord],
    cfg: TpeConfig,
    space: SpaceConfig,
    ref_point: tuple[float, float] = DEFAULT_REF_POINT,
) -> DesignParams:
    if len(trials) < cfg.n_startup:
        return random_sample(rng, space)

    is_good = split_observations(objective_array(trials), cfg.gamma, ref_point)
    good = [t for t, g in zip(trials, is_good) if g]
    bad = [t for t, g in zip(trials, is_good) if not g]
    alphabet = space.joint_alphabet
    slots, codes = read_history(good + bad, alphabet)
    n_good, d, k = len(good), space.n_joints, len(alphabet)
    low, high = bounds(space)
    mix_good = Mixture.fit(slots[:n_good], low, high, cfg)
    mix_bad = Mixture.fit(slots[n_good:], low, high, cfg)
    p_good = category_probs(joint_counts(codes[:n_good], d, k), cfg.prior_weight)
    p_bad = category_probs(joint_counts(codes[n_good:], d, k), cfg.prior_weight)

    n_cand = cfg.n_candidates
    score = np.zeros(n_cand)
    cont_samples = np.empty((n_cand, len(low)))
    for i in range(len(low)):
        x = sample_slot(mix_good, rng, i, n_cand)
        cont_samples[:, i] = x
        score += log_pdf_slot(mix_good, i, x) - log_pdf_slot(mix_bad, i, x)
    cat_samples = np.empty((n_cand, space.n_joints), dtype=int)
    for j in range(space.n_joints):
        c = rng.choice(len(alphabet), size=n_cand, p=p_good[j])
        cat_samples[:, j] = c
        score += np.log(p_good[j, c]) - np.log(p_bad[j, c])

    best = int(np.argmax(score))
    vec = cont_samples[best]
    return make_params(vec[:3], [alphabet[c] for c in cat_samples[best]], vec[3:])
