"""Time a TrialTable read, tpe.suggest and tpe.split_observations against history size.

Usage: python3 tools/time_suggest.py [--repeats R] [--calls C]

The histories are the first n = 10, 30, 100 and 210 trials of the seed-1 run
of experiments/target1_llm_plus_mock.experiment, and a toy history of 600
seeded random designs scored by a closed-form objective (no kinematics). Each
is held in a TrialTable, as a run holds its history. A row gives, for `read`
(`TrialTable(d, trials)` from the history's records, the read that `suggest`
does when given a list), for `suggest` (one generator, advanced by every call)
and for `split_observations` on the table's objectives, the median over R
repeats of the mean microseconds per call over C calls. One untimed call of
each comes first, so the records' rows are cached, as they are after their
first read, and scipy's import is not timed. The package is imported from the
src/ beside this file's directory, so a copy of this file in another checkout
times that checkout.
"""
from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from armdesign.experiment import load_experiment  # noqa: E402
from armdesign.orchestrator import SPACE, run  # noqa: E402
from armdesign.pareto import ObjectiveValues  # noqa: E402
from armdesign.space import random_sample  # noqa: E402
from armdesign.tpe import SampleSource, TpeConfig, TrialRecord, TrialTable, split_observations, suggest  # noqa: E402

EXPERIMENT = REPO / "experiments" / "target1_llm_plus_mock.experiment"
PREFIXES = (10, 30, 100, 210)
TOY_TRIALS = 600
TOY_CENTER = np.array([0.5] * 3 + [0.2] * SPACE.n_joints)


def run_ledger(seed: int = 1) -> list[TrialRecord]:
    """The trials of the experiment's run with this seed, in trial order."""
    config = next(c for c in load_experiment(EXPERIMENT).configs() if c.seed == seed)
    return run(config).ledger


def toy_history(n: int, seed: int = 0) -> list[TrialRecord]:
    """n seeded random designs scored by (|v|^2, |v - center|^2) of their continuous slots."""
    rng = np.random.default_rng(seed)
    trials = []
    for i in range(n):
        p = random_sample(rng, SPACE)
        v = np.array([*p.origin, *p.lengths])
        objectives = ObjectiveValues(float(v @ v), float((v - TOY_CENTER) @ (v - TOY_CENTER)))
        trials.append(TrialRecord(i, SampleSource.BBO, p, objectives))
    return trials


def per_call_us(call, repeats: int, calls: int) -> float:
    """Median over repeats of the mean microseconds per call over `calls` calls."""
    call()
    means = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            call()
        means.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(means)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15, help="timed repeats per row (default 15)")
    parser.add_argument("--calls", type=int, default=100, help="calls per repeat (default 100)")
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.calls < 1:
        parser.error("--repeats and --calls must be at least 1")

    ledger = run_ledger()
    histories = [(EXPERIMENT.stem, ledger[:n]) for n in PREFIXES] + [("toy", toy_history(TOY_TRIALS))]
    cfg = TpeConfig()
    print(f"us per call, median of {args.repeats} repeats x {args.calls} calls")
    print(f"{'history':<24} {'n':>5} {'read':>10} {'suggest':>10} {'split':>10}")
    for name, trials in histories:
        read_us = per_call_us(lambda: TrialTable(SPACE.n_joints, trials), args.repeats, args.calls)
        table = TrialTable(SPACE.n_joints, trials)
        rng = np.random.default_rng(0)
        suggest_us = per_call_us(lambda: suggest(rng, table, cfg, SPACE), args.repeats, args.calls)
        split_us = per_call_us(lambda: split_observations(table.values, cfg.gamma), args.repeats, args.calls)
        print(f"{name:<24} {len(trials):>5} {read_us:>10.1f} {suggest_us:>10.1f} {split_us:>10.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
