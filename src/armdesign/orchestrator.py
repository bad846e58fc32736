"""Hybrid sampling schedule: random warmup, then an LLM proposal at the head of
each block of n_step iterations with TPE suggestions filling the rest.

`run` is one loop over t = 1 - n_init .. n_total (t < 1 is warmup): each pass
draws from the slot's source, evaluates once and appends one record. Warmup
trials enter the archive and feedback pools, but the iteration axis (and the
hypervolume curve) starts after them. A failed LLM slot falls back to a TPE
suggestion, recorded as BBO with the fallback flag. Runs are deterministic
given the seed and an offline backend.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .evaluation import TargetSet, evaluate
from .llm import (
    BackendConfig,
    LLMBackend,
    PromptContext,
    TranscriptEntry,
    propose,
    select_feedback,
)
from .pareto import DEFAULT_REF_POINT, hypervolume_2d, pareto_front
from .space import SpaceConfig, random_sample
from .tpe import SampleSource, TpeConfig, TrialRecord, TrialTable, suggest

SPACE = SpaceConfig()  # every run samples D = 4 designs; evaluate and urdf read D from the design


class RunMode(Enum):
    BBO = "bbo"
    BBO_LLM_MINUS = "bbo-llm-minus"
    BBO_LLM_PLUS = "bbo-llm-plus"

    @property
    def uses_llm(self) -> bool:
        return self is not RunMode.BBO


@dataclass(frozen=True)
class RunConfig:
    targets: TargetSet
    mode: RunMode = RunMode.BBO
    n_init: int = 10
    n_step: int = 10
    n_total: int = 200
    ref_point: tuple[float, float] = DEFAULT_REF_POINT
    backend: BackendConfig | None = None  # required, and only built, in the LLM modes
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_init < 0:
            raise ValueError("n_init must be >= 0")
        if self.n_step < 1:
            raise ValueError("n_step must be >= 1")
        if self.n_total < 1:
            raise ValueError("n_total must be >= 1")
        if len(self.ref_point) != 2 or not all(map(math.isfinite, self.ref_point)):
            raise ValueError(f"ref_point must be two finite numbers, got {self.ref_point!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if self.mode.uses_llm and self.backend is None:
            raise ValueError(f"mode {self.mode.value} needs a backend object")


@dataclass
class RunResult:
    config: RunConfig
    ledger: list[TrialRecord]  # n_init warmup records, then n_total iteration records
    hv_curve: np.ndarray  # hypervolume after each post-warmup iteration; the final front is pareto_front(ledger)
    transcripts: dict[int, tuple[TranscriptEntry, ...]]  # iteration -> backend calls, a fallback's reason in error


def source_for_iteration(t: int, mode: RunMode, n_step: int) -> SampleSource:
    """Scheduled source for post-warmup iteration t (1-based)."""
    if t < 1:
        raise ValueError("iterations are 1-based")
    if mode.uses_llm and (t - 1) % n_step == 0:
        return SampleSource.LLM
    return SampleSource.BBO


def run(config: RunConfig) -> RunResult:
    """Execute one seeded optimization run."""
    rng = np.random.default_rng(config.seed)
    backend: LLMBackend | None = config.backend.make(SPACE) if config.mode.uses_llm else None

    table = TrialTable(SPACE.n_joints)
    transcripts: dict[int, tuple[TranscriptEntry, ...]] = {}
    for t in range(1 - config.n_init, config.n_total + 1):  # t < 1 is warmup
        source = SampleSource.RANDOM if t < 1 else source_for_iteration(t, config.mode, config.n_step)
        params, fallback = None, False
        if source is SampleSource.RANDOM:
            params = random_sample(rng, SPACE)
        elif source is SampleSource.LLM:
            pareto_fb, random_fb = select_feedback(table.records, pareto_front(table.records), rng)
            ctx = PromptContext(
                targets=config.targets,
                space=SPACE,
                pareto_feedback=pareto_fb,
                random_feedback=random_fb,
                analysis=config.mode is RunMode.BBO_LLM_PLUS,
            )
            outcome = propose(backend, ctx)
            transcripts[t] = outcome.transcript
            params, fallback = outcome.params, not outcome.ok
        if params is None:  # a BBO slot, or an LLM slot that fell back
            params, source = suggest(rng, table, TpeConfig(), SPACE, config.ref_point), SampleSource.BBO
        report = evaluate(params, config.targets)
        table.extend((TrialRecord(len(table), source, params, report.objectives, report.per_target, fallback),))

    return RunResult(
        config=config,
        ledger=table.records,
        hv_curve=hypervolume_curve(table.records, config.ref_point),
        transcripts=transcripts,
    )


def hypervolume_curve(trials: list[TrialRecord], ref_point) -> np.ndarray:
    """Hypervolume of the front after each post-warmup trial of a history.

    The one curve routine for a finished run and for a ledger read back. Warmup
    is the leading run of random-source trials. Each later trial is folded into
    the front of everything before it, warmup included.
    """
    n_init = next((i for i, t in enumerate(trials) if t.source is not SampleSource.RANDOM), len(trials))
    front = pareto_front(trials[:n_init])
    curve = np.empty(len(trials) - n_init)
    for k, trial in enumerate(trials[n_init:]):
        front = pareto_front([*front, trial])  # same set as the front of trials[: n_init + k + 1]
        curve[k] = hypervolume_2d([t.objectives for t in front], ref_point)
    return curve
