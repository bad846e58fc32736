"""Reference suggestion for the tests: one random draw at a time.

This is ``tpe.suggest`` as it was before its draws became one block: per
continuous slot a ``Generator.choice`` of a kernel then a ``Generator.uniform``
inside it, then per joint a ``Generator.choice`` of a type, and the history
read row by row. It shares the split, the mixture fit and the densities with
``armdesign.tpe``, so a test that compares the two checks the draws and the
history read.
"""
from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from armdesign.pareto import DEFAULT_REF_POINT
from armdesign.space import DesignParams, SpaceConfig, make_params, random_sample
from armdesign.tpe import (
    TpeConfig,
    TrialRecord,
    _category_probs,
    _joint_counts,
    _Mixtures,
    split_observations,
)


def sample_slot(mix: _Mixtures, rng: np.random.Generator, i: int, size: int) -> np.ndarray:
    ks = rng.choice(len(mix.weights), size=size, p=mix.weights)
    u = rng.uniform(mix.cdf_low[i, ks], mix.cdf_high[i, ks])
    x = mix.centers[i, ks] + mix.widths[i, ks] * ndtri(u)
    return np.clip(x, mix.low[i], mix.high[i])  # guard round-off at the edges


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

    good, bad = split_observations(trials, cfg.gamma, ref_point)
    alphabet = space.joint_alphabet
    slots, codes = read_history(good + bad, alphabet)
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
        x = sample_slot(mix_good, rng, i, n_cand)
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
