"""Multi-objective tree-structured Parzen estimator over the mixed design space.

Past trials are split into good/bad sets by nondomination rank (exclusive
hypervolume breaks ties in the boundary rank). Each dimension gets a pair of
density estimators - truncated-Gaussian mixtures for continuous slots, weighted
counts for joint types - and the suggestion is the candidate drawn from the
good densities that maximizes the good/bad density ratio.

The trial history is a `TrialTable`: the records in trial order beside their
objectives, continuous slots (origin then lengths) and joint codes as arrays
with one row per trial, grown by `extend` from the row each record packs once
(`TrialRecord.table_row`). A run keeps one table for all its suggestions; a
list of records given to `suggest` is read into a table of its own on each
call. A call peels the objectives' fronts into a good mask, one sweep of
complex keys per front (`pareto.sorted_front`), and fits one kernel table: per
slot a row of the good kernels, the good prior kernel, the bad kernels and the
bad prior kernel, as C-ordered (slots, n + 2) centers, widths and CDFs at the
bounds, beside one (n + 2) weight vector normalised per half; the type counts
are one (2, D, k) array. The random draws are one block of uniform doubles:
per slot a kernel choice then a uniform, then per joint a type choice, each
the count of its weights' normalised CDF entries at or below its double, as
``Generator.choice`` has it. Candidates come from the good half. Their
exponents under every kernel are one (slots, m, 3) @ (slots, 3, n + 2) product
per slot, of powers [x'^2, x', 1] of the candidates and quadratic coefficients
of the kernels, both taken about the slot's midpoint; exponentiated in place,
that buffer times a (slots, n + 2, 2) coefficient matrix, a column per half,
gives the densities. They match each half's own mixture within a few ulps (the
tests allow 4 (n + 2) eps in the log); the split, the fit, the samples and the
type draws stay exact. What depends on the space alone (bounds, spans,
midpoints, row indices) is built once per space, read-only (`_space_arrays`).

scipy.special (the truncated Gaussians' ``ndtr`` and ``ndtri``) is imported
at the first mixture fit, not with this module, and kept on the kernel table:
it costs about 0.35 s and 25 MB, so processes that never sample (``evaluate``,
``report``, ``urdf``) start in about 0.3 s. A run pays it once, at its first
suggestion from ``n_startup`` or more trials.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from typing import ClassVar, NamedTuple, Sequence

import numpy as np

from .evaluation import TargetOutcome
from .pareto import DEFAULT_REF_POINT, ObjectiveValues, sorted_front, sorted_keys
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

    @cached_property
    def table_row(self) -> bytes:
        """This record's `TrialTable` row as float64 bytes: objectives, origin, lengths, joint-alphabet codes
        (whole numbers, so a cast to int is exact), then the joint and length counts. Built at the first
        read and kept; the record is frozen, so its row never goes stale."""
        p = self.params
        codes = map(SpaceConfig.joint_alphabet.index, p.joints)
        row = (*self.objectives, *p.origin, *p.lengths, *codes, len(p.joints), len(p.lengths))
        return struct.pack(f"{len(row)}d", *row)


class TrialTable:
    """An append-only trial history of designs with d joints, starting from records.

    `records` is the trial list. `values` (objectives), `slots` (origin then
    lengths) and `codes` (joint-type alphabet indices) are arrays with one row
    per record, in the same order.
    """

    def __init__(self, d: int, records: Sequence[TrialRecord] = ()):
        self.d = d
        self.records: list[TrialRecord] = []
        self.values, self.slots, self.codes = np.empty((0, 2)), np.empty((0, 3 + d)), np.empty((0, d), dtype=int)
        self.extend(records)

    def __len__(self) -> int:
        return len(self.records)

    def extend(self, records: Sequence[TrialRecord]) -> None:
        """Add records as the next rows: one join of their `table_row`s, cut into columns. A design of
        another joint count or an objective that is not finite is a ValueError, and adds nothing."""
        k, d = len(records), self.d
        rows = [t.table_row for t in records]
        width = 7 + 2 * d  # doubles in a d-joint row
        block = np.frombuffer(b"".join(rows)).reshape(k, width) if set(map(len, rows)) <= {8 * width} else None
        if block is None or block[:, -2:].tobytes() != struct.pack("2d", d, d) * k:  # rows end in (d, d)
            for t, row in zip(records, rows):  # name the first trial of another joint count
                if len(row) != 8 * width or len(t.params.joints) != d or len(t.params.lengths) != d:
                    raise ValueError(
                        f"trial {t.id} has {len(t.params.joints)} joints and {len(t.params.lengths)} lengths;"
                        f" the space has {d} joints"
                    )
        values = block[:, :2]
        if not np.isfinite(values).all():
            first = int(np.argmin(np.isfinite(values).all(axis=1)))
            raise ValueError(f"trial {records[first].id} has a non-finite objective")
        self.values = np.concatenate((self.values, values))
        self.slots = np.concatenate((self.slots, block[:, 2 : 5 + d]))
        self.codes = np.concatenate((self.codes, block[:, 5 + d : -2]), dtype=int, casting="unsafe")
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

    Fronts are peeled in nondomination order, each by `sorted_front` over the
    keys f2 + i f1 that the earlier peels left of one `sorted_keys`, which stay
    sorted. Each front is good until one holds at least as many trials as the
    good set still needs. Within that boundary front, in (f1, f2) order, a
    point strictly inside ref_point scores its exclusive hypervolume: (the next
    inside point's f1, or rx for the last) - f1, times (the previous one's f2,
    or ry for the first) - f2. Points at or beyond the reference score 0, and
    so do equal pairs. The largest scores win, earlier trials on ties.
    """
    n = len(values)
    if not n:
        raise ValueError("split_observations needs at least one trial")
    need = min(int(np.ceil(gamma * n)), n)
    good = np.zeros(n, dtype=bool)
    if need <= 0:
        return good
    order, keys = sorted_keys(values)
    on_front = sorted_front(keys)
    while (size := np.count_nonzero(on_front)) < need:
        good[order[on_front]] = True
        need -= size
        rest = ~on_front
        order, keys = order[rest], keys[rest]
        on_front = sorted_front(keys)
    members, keys = order[on_front], keys[on_front]
    rx, ry = ref_point
    inside = (keys.imag < rx) & (keys.real < ry)
    f1, f2 = keys.imag[inside], keys.real[inside]
    # on a sorted 2-D front a point's exclusive hypervolume is the box its
    # neighbours span (Emmerich, Beume & Naujoks, EMO 2005)
    dx, dy = rx - f1, ry - f2
    np.subtract(f1[1:], f1[:-1], out=dx[:-1])
    np.subtract(f2[:-1], f2[1:], out=dy[1:])
    contrib = np.zeros(len(members))
    contrib[inside] = dx * dy
    good[members[np.lexsort((members, -contrib))[:need]]] = True
    return good


class _SpaceArrays(NamedTuple):
    """A space's constant arrays, read-only, since one entry (`_space_arrays`) serves every call."""

    bounds: np.ndarray  # (2, slots, 1): each continuous slot's low then high bound, origin then lengths
    span: np.ndarray  # (slots, 1)
    mid: np.ndarray  # (slots, 1)
    rows: np.ndarray  # (slots, 1): 0, 1, ..., the first D of them also the joints'
    joint_cells: np.ndarray  # (D,): k j, joint j's first cell in a row of D k type counts


@cache
def _space_arrays(space: SpaceConfig) -> _SpaceArrays:
    d, corners = space.n_joints, [[space.origin_low, space.length_low], [space.origin_high, space.length_high]]
    b, rows = np.repeat(corners, (3, d), axis=1)[:, :, None], np.arange(3 + d)[:, None]
    arrays = _SpaceArrays(b, b[1] - b[0], 0.5 * (b[0] + b[1]), rows, len(space.joint_alphabet) * rows[:d, 0])
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass(frozen=True)
class _KernelTable:
    """The good and the bad truncated-Gaussian mixture of each continuous slot; row i lives on [low_i, high_i].

    The layout is the module docstring's: the first n_good_columns columns are the good mixture, the rest the bad one."""

    space: _SpaceArrays
    n_good_columns: int  # the good trials' kernels and the good prior kernel
    centers: np.ndarray  # (slots, n + 2)
    widths: np.ndarray
    weights: np.ndarray  # (n + 2,)
    cdf: np.ndarray  # (2, slots, n + 2): at low, at high
    ndtr = ndtri = None  # scipy.special's, set at the first fit: see the module docstring

    @classmethod
    def fit(cls, slots: np.ndarray, good: np.ndarray, space: _SpaceArrays, cfg: TpeConfig) -> "_KernelTable":
        """slots: (n, slots), one row per trial; good: the good set as a mask of the rows."""
        if cls.ndtri is None:
            from scipy import special
            cls.ndtr, cls.ndtri = special.ndtr, special.ndtri
        n, g = len(slots), int(np.count_nonzero(good))
        # per half, TpeConfig's n^-1/5 widths and a prior kernel spanning the bounds, so densities stay positive
        scale = [max(cfg.bandwidth_scale * k ** (-0.2), cfg.bandwidth_floor) if k else 1.0 for k in (g, n - g)]
        halves = (g, 1, n - g, 1)
        widths = (space.span * [scale[0], 1.0, scale[1], 1.0]).repeat(halves, axis=1)
        centers = np.concatenate((slots[good], space.mid.T, slots[~good], space.mid.T)).T.copy()  # C-ordered
        p = cfg.prior_weight  # kernels weigh 1 and the prior kernel p, over a half's total of k + p
        weights = np.array([1.0 / (g + p), p / (g + p), 1.0 / (n - g + p), p / (n - g + p)]).repeat(halves)
        return cls(space, g + 1, centers, widths, weights, cls.ndtr((space.bounds - centers) / widths))

    def sample(self, kernel_draws: np.ndarray, uniform_draws: np.ndarray) -> np.ndarray:
        """(slots, m) samples of the good mixtures from two (slots, m) blocks of uniform doubles: a kernel
        draw picks a good kernel by its weight, a uniform draw the quantile within that truncated kernel."""
        ks = _cdf(self.weights[: self.n_good_columns]).searchsorted(kernel_draws, side="right")
        rows, (low, high) = self.space.rows, self.space.bounds
        lo, hi = self.cdf[:, rows, ks]
        x = self.centers[rows, ks] + self.widths[rows, ks] * self.ndtri(lo + (hi - lo) * uniform_draws)
        return np.minimum(np.maximum(x, low, out=x), high, out=x)  # guard round-off at the edges

    def log_pdfs(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The good and the bad log densities of a (slots, m) block of points, row i under row i's mixtures.

        A half's density is sum_j coef_j exp(a_j (x - c_j)**2), a = -0.5 / width**2 and coef = weight / (sqrt(2 pi)
        width (cdf_high - cdf_low)). About the slot's midpoint (x' = x - mid, c' = c - mid) the exponents are one
        (slots, m, 3) @ (slots, 3, n + 2) product of rows [x'**2, x', 1] and [a, -2 a c', a c'**2]. Exponentiated in
        place, they times a (slots, n + 2, 2) matrix of coef, the good columns' in column 0 and the bad ones' in
        column 1, give the densities: within a few ulps of the per-slot formula, and the densities only rank."""
        g, mid = self.n_good_columns, self.space.mid
        coef = self.weights / (np.sqrt(2.0 * np.pi) * self.widths * (self.cdf[1] - self.cdf[0]))
        halves = np.zeros((*coef.shape, 2))
        halves[:, :g, 0], halves[:, g:, 1] = coef[:, :g], coef[:, g:]
        a, c, u = -0.5 / self.widths**2, self.centers - mid, x - mid
        powers, quadratic = np.array((u * u, u, np.ones_like(u))), np.array((a, -2.0 * a * c, a * c * c))
        t = powers.transpose(1, 2, 0) @ quadratic.transpose(1, 0, 2)  # (slots, m, 3) @ (slots, 3, n + 2)
        np.exp(t, out=t)
        density = np.log(t @ halves)
        return density[:, :, 0], density[:, :, 1]


def _cdf(p: np.ndarray) -> np.ndarray:
    """Cumulative probabilities along the last axis, normalised as ``Generator.choice`` normalises them."""
    cdf = p.cumsum(axis=-1)
    return cdf / cdf[..., -1:]


def _category_probs(counts: np.ndarray, prior_weight: float) -> np.ndarray:
    """Smoothed category frequencies, one distribution per row of counts."""
    return (counts + prior_weight / counts.shape[-1]) / (counts.sum(axis=-1, keepdims=True) + prior_weight)


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
    A table of designs of another joint count than the space's is a ValueError.
    """
    d = space.n_joints
    if isinstance(trials, TrialTable) and trials.d != d:
        raise ValueError(f"the table holds designs of {trials.d} joints; the space has {d} joints")
    if len(trials) < cfg.n_startup:
        return random_sample(rng, space)

    table = trials if isinstance(trials, TrialTable) else TrialTable(d, trials)
    good = split_observations(table.values, cfg.gamma, ref_point)
    kernels = _KernelTable.fit(table.slots, good, _space_arrays(space), cfg)
    alphabet, k = space.joint_alphabet, len(space.joint_alphabet)
    # how often each type sits at each joint, good trials then bad: (2, D, k)
    cells = table.codes + kernels.space.joint_cells + d * k * ~good[:, None]
    probs = _category_probs(np.bincount(cells.ravel(), minlength=2 * d * k).reshape(2, d, k), cfg.prior_weight)

    n_cand, n_slots = cfg.n_candidates, 3 + d
    draws = rng.random(n_cand * (2 * n_slots + d))
    per_slot = draws[: 2 * n_slots * n_cand].reshape(n_slots, 2, n_cand)
    cont_samples = kernels.sample(per_slot[:, 0], per_slot[:, 1])
    per_joint = draws[2 * n_slots * n_cand :].reshape(d, n_cand)
    # the count of CDF entries at or below each draw: searchsorted(side="right") in each joint's row
    cat_samples = (per_joint[:, :, None] >= _cdf(probs[0])[:, None, :]).sum(axis=2)
    log_good, log_bad = kernels.log_pdfs(cont_samples)
    log_p = np.log(probs[:, kernels.space.rows[:d], cat_samples])
    # rows added one at a time, slots then joints, which fixes each score's rounding
    score = np.concatenate((log_good - log_bad, log_p[0] - log_p[1])).cumsum(axis=0)[-1]

    best = int(score.argmax())
    vec = cont_samples[:, best].tolist()
    return make_params(vec[:3], [alphabet[c] for c in cat_samples[:, best].tolist()], vec[3:])
