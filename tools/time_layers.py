"""Time solve_ik, evaluate and the TPE history path, alone or paired against another checkout.

Usage: python3 tools/time_layers.py [--against DIR]

The rows. `ik-panel` is the 25 designs of tests/ik_panel.json on its 15
targets. `target3-reachable` is 81 designs drawn from SEED, one per D = 4
joint sequence, with the origin within 0.1 m of the centroid of
targets/target3.json on each axis and links of 0.2-0.3 m, so the arm
outreaches every target3 point; they are solved on target3's 5 points. On
each set, `certified` times the `solve_ik` calls certified at the aimed start
(no iteration) and `iterated` the calls that iterate, in microseconds per
call, and `evaluate` times `evaluate` on the set's targets, in microseconds
per design. The histories are the first n = 10, 30, 100 and 210 trials of the
seed-1 run of experiments/target1_llm_plus_mock.experiment and a toy history
of 600 seeded random designs scored by a closed-form objective (no
kinematics), each held in a TrialTable as a run holds it. On each, `read`
times `TrialTable(d, trials)` from the records (the read `suggest` does when
given a list), `suggest` one suggestion from a generator that every call
advances, `split` `split_observations` on the table's objectives and `front`
`pareto_front` over the records (the call `report` makes per ledger and
`hypervolume_curve` per trial; `run` takes an LLM slot's pool from its table
with `TrialTable.front`), in microseconds per call over CALLS calls. A timing
repeats its row's calls until it spans at least MIN_SPAN_S, so a row of a few
fast calls is timed as finely as a long one.

The pairing. Each checkout is timed in a worker process that imports the
package from that checkout's src/ alone, and checks that it did. A worker
first runs every row once untimed, so the IK kernels are compiled, the start
pool drawn and the records' rows cached. The two workers then time the rows
one at a time, one worker after the other, in an order that alternates from
row to row and round to round, for ROUNDS rounds; both are then restarted, so
that a process's memory layout is one more source of noise, PAIRS times in
all. The table's header gives the host's load average before the first
round and after the last, since the intervals widen when other processes load
the host. A row prints each checkout's median time, the median of the per-round
ratios (this checkout over DIR) and a seeded bootstrap interval for that
median (pairs resampled, then rounds within them) whose LEVEL holds over all
rows at once (Bonferroni). The last line says whether every worker gave the
same outputs: a digest of the repr of every IKSolution, and of one suggestion
and the front's trial ids per history. Without --against, this checkout's
workers alone are timed. The inputs come from this file's checkout; DIR needs
only its src/.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
PANEL = REPO / "tests" / "ik_panel.json"
TARGET3 = REPO / "targets" / "target3.json"
EXPERIMENT = REPO / "experiments" / "target1_llm_plus_mock.experiment"
PREFIXES = (10, 30, 100, 210)
TOY_TRIALS = 600
SEED = 1  # of the target3-reachable designs, the run and the bootstrap
CALLS = 20  # calls per pass of a history row
MIN_SPAN_S = 5e-3  # s, a timing repeats whole passes over its row's calls until it spans this
PAIRS = 3  # worker pairs, each started afresh
ROUNDS = 5  # rounds per worker pair; a round times every row once in each worker
LEVEL = 0.95  # joint coverage of the intervals over all rows
BOOTSTRAP = 10_000  # bootstrap resamples per row
WORKER = "import runpy, sys; runpy.run_path(sys.argv[1])['worker'](sys.argv[2])"


def per_call_us(fn, calls) -> float:
    """Mean microseconds of fn(*args) over the argument tuples in `calls`, passed over until MIN_SPAN_S has elapsed."""
    passes, start = 0, time.perf_counter()
    while True:
        for args in calls:
            fn(*args)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= MIN_SPAN_S:
            return elapsed / (passes * len(calls)) * 1e6


def layer_rows():
    """([(set, layer, fn, calls)], digest), every row run once untimed."""
    from armdesign.evaluation import TargetSet, evaluate
    from armdesign.experiment import load_experiment, load_targets
    from armdesign.kinematics import solve_ik
    from armdesign.orchestrator import SPACE, run
    from armdesign.pareto import ObjectiveValues, pareto_front
    from armdesign.space import SpaceConfig, from_vector, make_params, random_sample
    from armdesign.tpe import SampleSource, TpeConfig, TrialRecord, TrialTable, split_observations, suggest

    panel = json.loads(PANEL.read_text(encoding="utf-8"))
    target3 = load_targets(TARGET3)
    centroid = np.mean(target3.points, axis=0)
    reachable = []
    for k, joints in enumerate(itertools.product(SpaceConfig.joint_alphabet, repeat=4)):
        rng = np.random.default_rng([SEED, k])
        reachable.append(
            make_params(centroid + rng.uniform(-0.1, 0.1, size=3), joints, rng.uniform(0.2, 0.3, size=4))
        )
    design_sets = [
        ("ik-panel", [from_vector(d["vector"]) for d in panel["designs"]], TargetSet("ik-panel", panel["targets"])),
        ("target3-reachable", reachable, target3),
    ]
    rows, digest = [], hashlib.sha256()
    for name, designs, targets in design_sets:
        solves = [(p, t) for p in designs for t in targets.points]
        solutions = [solve_ik(p, t) for p, t in solves]
        digest.update(repr(solutions).encode())
        rows += [
            (name, "certified", solve_ik, [s for s, sol in zip(solves, solutions) if sol.iterations == 0]),
            (name, "iterated", solve_ik, [s for s, sol in zip(solves, solutions) if sol.iterations > 0]),
            (name, "evaluate", evaluate, [(p, targets) for p in designs]),
        ]

    ledger = run(next(c for c in load_experiment(EXPERIMENT).configs() if c.seed == SEED)).ledger
    rng, center, toy = np.random.default_rng(0), np.array([0.5] * 3 + [0.2] * SPACE.n_joints), []
    for i in range(TOY_TRIALS):  # scored by (|v|^2, |v - center|^2) of the continuous slots
        p = random_sample(rng, SPACE)
        v = np.array([*p.origin, *p.lengths])
        objectives = ObjectiveValues(float(v @ v), float((v - center) @ (v - center)))
        toy.append(TrialRecord(i, SampleSource.BBO, p, objectives))
    cfg = TpeConfig()
    for name, trials in [(f"{EXPERIMENT.stem}:{n}", ledger[:n]) for n in PREFIXES] + [(f"toy:{TOY_TRIALS}", toy)]:
        table = TrialTable(SPACE.n_joints, trials)
        digest.update(repr(suggest(np.random.default_rng(0), table, cfg, SPACE)).encode())
        digest.update(repr([t.id for t in pareto_front(trials)]).encode())
        rng = np.random.default_rng(0)
        rows += [
            (name, "read", TrialTable, [(SPACE.n_joints, trials)] * CALLS),
            (name, "suggest", suggest, [(rng, table, cfg, SPACE)] * CALLS),
            (name, "split", split_observations, [(table.values, cfg.gamma)] * CALLS),
            (name, "front", pareto_front, [(trials,)] * CALLS),
        ]
    for *_, fn, calls in rows:
        per_call_us(fn, calls)
    return rows, digest.hexdigest()


def worker(src: str) -> None:
    """Time the package in `src`: print a header line, then one time per row index read from stdin."""
    sys.path.insert(0, src)
    import armdesign

    if not Path(armdesign.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"armdesign was imported from {armdesign.__file__}, not from {src}")
    rows, digest = layer_rows()
    print(json.dumps({"rows": [row[:2] for row in rows], "digest": digest}), flush=True)
    for line in sys.stdin:
        *_, fn, calls = rows[int(line)]
        print(per_call_us(fn, calls), flush=True)


def reply(proc) -> str:
    line = proc.stdout.readline()
    if not line:
        print(f"error: the worker timing {proc.args[-1]} stopped", file=sys.stderr)
        raise SystemExit(2)
    return line


def interval(ratios: np.ndarray, rows: int) -> np.ndarray:
    """The bootstrap interval of the median of a (pairs, rounds) array of ratios."""
    rng = np.random.default_rng(SEED)
    pairs = rng.integers(len(ratios), size=(BOOTSTRAP, len(ratios), 1))
    rounds = rng.integers(ratios.shape[1], size=(BOOTSTRAP, *ratios.shape))
    medians = np.median(ratios[pairs, rounds].reshape(BOOTSTRAP, -1), axis=1)
    tail = (1 - LEVEL) / rows / 2
    return np.quantile(medians, [tail, 1 - tail])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, metavar="DIR", help="another checkout, timed in paired workers")
    args = parser.parse_args(argv)
    srcs = [REPO / "src"]
    if args.against is not None:
        if not (args.against / "src" / "armdesign").is_dir():
            parser.error(f"--against {args.against}: no src/armdesign there")
        srcs.append(args.against.resolve() / "src")

    times, digests, load_before = None, set(), os.getloadavg()
    for pair in range(PAIRS):
        with contextlib.ExitStack() as stack:
            procs = [
                stack.enter_context(
                    subprocess.Popen(
                        [sys.executable, "-c", WORKER, str(Path(__file__).resolve()), str(src)],
                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=REPO,
                    )
                )
                for src in srcs
            ]
            headers = [json.loads(reply(proc)) for proc in procs]
            labels = headers[0]["rows"]
            digests |= {header["digest"] for header in headers}
            if times is None:  # times[c, k, pair, round]: checkout c's time of row k
                times = np.empty((len(srcs), len(labels), PAIRS, ROUNDS))
            for r, k in itertools.product(range(ROUNDS), range(len(labels))):
                for c in range(len(srcs)) if (pair * ROUNDS + r + k) % 2 == 0 else reversed(range(len(srcs))):
                    procs[c].stdin.write(f"{k}\n")
                    procs[c].stdin.flush()
                    times[c, k, pair, r] = float(reply(procs[c]))

    before, after = (" ".join(f"{v:.2f}" for v in load) for load in (load_before, os.getloadavg()))
    paired = len(srcs) == 2
    print(
        f"us per call, median over {PAIRS} worker starts x {ROUNDS} rounds"
        + (f"; ratio = this / against, the median of the per-round ratios, with a seeded bootstrap interval "
           f"of {LEVEL:.0%} over all {len(labels)} rows (Bonferroni)" if paired else "")
    )
    print(f"host load average over 1, 5, 15 min: {before} before the first round, {after} after the last")
    columns = f" {'against':>9} {'ratio':>7} {'low':>7} {'high':>7}" if paired else ""
    print(f"{'set':<26} {'layer':<10} {'this':>9}{columns}")
    for k, (name, layer) in enumerate(labels):
        line = f"{name:<26} {layer:<10} {np.median(times[0, k]):>9.1f}"
        if paired:
            ratios = times[0, k] / times[1, k]
            low, high = interval(ratios, len(labels))
            line += f" {np.median(times[1, k]):>9.1f} {np.median(ratios):>7.3f} {low:>7.3f} {high:>7.3f}"
        print(line)
    print("outputs: " + ("identical" if len(digests) == 1 else "differ"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
