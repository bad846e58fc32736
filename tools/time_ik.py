"""Time kinematics.solve_ik and evaluation.evaluate on the IK panel and on seeded reachable designs.

Usage: python3 tools/time_ik.py [--repeats R] [--against DIR]

Two sets of designs. `ik-panel` is the 25 designs of tests/ik_panel.json on
its 15 targets. `target3-reachable` is 81 designs drawn from SEED, one per
D = 4 joint sequence, with the origin within 0.1 m of the centroid of
targets/target3.json on each axis and links of 0.2-0.3 m, so the arm
outreaches every target3 point; they are solved on target3's 5 points. Each
set is solved design by design, its targets in order, as `evaluate` solves
them.

A row gives the solves, the microseconds per `solve_ik` call and the
Levenberg-Marquardt iterations per call: over all solves, over the solves
certified at the aimed start (no iteration) and over the solves that iterate;
then the microseconds per design of `evaluate` on the set's targets. A call's
time is the median of its R timed repeats, after one untimed pass, so the
IK kernels are compiled and the start pool drawn before timing.

With `--against DIR` the same rows are timed for the package in DIR/src too,
in ROUNDS rounds of one subprocess per checkout, alternating which runs
first, and each figure is printed as the median over the rounds for both
checkouts and their ratio (this checkout over DIR). It also says whether
both checkouts gave the same solutions, compared by the repr of every
`IKSolution`. The inputs come from this file's checkout in both runs; DIR
needs only its src/.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PANEL = REPO / "tests" / "ik_panel.json"
TARGET3 = REPO / "targets" / "target3.json"
METRICS = ("solve_us", "certified_us", "iterated_us", "evaluate_us")
SEED = 1  # of the target3-reachable designs
ROUNDS = 4  # subprocess rounds per checkout with --against, two in each order


def design_sets():
    """[(name, [(design, targets)])] for the panel and the seeded reachable designs."""
    import numpy as np

    from armdesign.evaluation import TargetSet
    from armdesign.experiment import load_targets
    from armdesign.space import SpaceConfig, from_vector, make_params

    panel = json.loads(PANEL.read_text(encoding="utf-8"))
    panel_targets = TargetSet("ik-panel", panel["targets"])
    target3 = load_targets(TARGET3)
    centroid = np.mean(target3.points, axis=0)
    reachable = []
    for k, joints in enumerate(itertools.product(SpaceConfig.joint_alphabet, repeat=4)):
        rng = np.random.default_rng([SEED, k])
        reachable.append(
            make_params(centroid + rng.uniform(-0.1, 0.1, size=3), joints, rng.uniform(0.2, 0.3, size=4))
        )
    return [
        ("ik-panel", [(from_vector(d["vector"]), panel_targets) for d in panel["designs"]]),
        ("target3-reachable", [(p, target3) for p in reachable]),
    ]


def seconds(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def measure(repeats: int) -> dict:
    """{"rows": one dict per set, "digest": sha256 of every solution's repr}."""
    from armdesign.evaluation import evaluate
    from armdesign.kinematics import solve_ik

    rows, digest = [], hashlib.sha256()
    for name, designs in design_sets():
        solves = [(p, t) for p, targets in designs for t in targets.points]
        solutions = [solve_ik(p, t) for p, t in solves]  # the untimed pass
        for p, targets in designs:
            evaluate(p, targets)
        digest.update(repr(solutions).encode())
        solve_s = [[] for _ in solves]
        evaluate_s = [[] for _ in designs]
        for _ in range(repeats):
            for times, (p, t) in zip(solve_s, solves):
                times.append(seconds(lambda: solve_ik(p, t)))
            for times, (p, targets) in zip(evaluate_s, designs):
                times.append(seconds(lambda: evaluate(p, targets)))
        us = [1e6 * statistics.median(times) for times in solve_s]
        iterations = [sol.iterations for sol in solutions]
        certified = [k for k, n in enumerate(iterations) if n == 0]
        iterated = [k for k, n in enumerate(iterations) if n > 0]

        def mean(values, ks):
            return statistics.fmean(values[k] for k in ks) if ks else float("nan")

        everything = range(len(solves))
        rows.append(
            {
                "set": name,
                "solves": len(solves),
                "solve_us": mean(us, everything),
                "iters": mean(iterations, everything),
                "certified": len(certified),
                "certified_us": mean(us, certified),
                "iterated": len(iterated),
                "iterated_us": mean(us, iterated),
                "iterated_iters": mean(iterations, iterated),
                "evaluate_us": statistics.fmean(1e6 * statistics.median(times) for times in evaluate_s),
            }
        )
    return {"rows": rows, "digest": digest.hexdigest()}


def print_rows(rows, repeats: int) -> None:
    print(f"us per call, median of {repeats} repeats; iters = LM iterations per call")
    print(
        f"{'set':<20} {'solves':>6} {'solve_us':>8} {'iters':>6} {'certified':>9} {'certified_us':>12} "
        f"{'iterated':>8} {'iterated_us':>11} {'iterated_iters':>14} {'evaluate_us':>11}"
    )
    for r in rows:
        print(
            f"{r['set']:<20} {r['solves']:>6} {r['solve_us']:>8.1f} {r['iters']:>6.2f} {r['certified']:>9} "
            f"{r['certified_us']:>12.1f} {r['iterated']:>8} {r['iterated_us']:>11.1f} "
            f"{r['iterated_iters']:>14.2f} {r['evaluate_us']:>11.1f}"
        )


def against(other: Path, repeats: int) -> int:
    """Time both checkouts in alternating subprocess rounds and print the medians and their ratio."""
    checkouts = {"this": REPO / "src", "against": other / "src"}
    results = {label: [] for label in checkouts}
    for k in range(ROUNDS):
        order = list(checkouts) if k % 2 == 0 else list(checkouts)[::-1]
        for label in order:
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--src", str(checkouts[label]),
                "--repeats", str(repeats), "--json",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"error: timing {checkouts[label]} failed:\n{proc.stderr}", file=sys.stderr)
                return 2
            results[label].append(json.loads(proc.stdout))
    print(f"us per call, median over {ROUNDS} rounds (alternating order) of {repeats} repeats; ratio = this / against")
    print(f"{'set':<20} {'metric':<14} {'this':>10} {'against':>10} {'ratio':>7}")
    for k, row in enumerate(results["this"][0]["rows"]):
        for metric in METRICS:
            this, base = (statistics.median(run["rows"][k][metric] for run in results[label]) for label in checkouts)
            print(f"{row['set']:<20} {metric:<14} {this:>10.1f} {base:>10.1f} {this / base:>7.3f}")
    digests = {run["digest"] for runs in results.values() for run in runs}
    print("solutions: " + ("identical" if len(digests) == 1 else "differ"))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7, help="timed repeats per call (default 7)")
    parser.add_argument("--against", type=Path, metavar="DIR", help="another checkout to time in alternating rounds")
    parser.add_argument("--src", type=Path, default=REPO / "src", help=argparse.SUPPRESS)
    parser.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.against is not None:
        if not (args.against / "src" / "armdesign").is_dir():
            parser.error(f"--against {args.against}: no src/armdesign there")
        return against(args.against, args.repeats)
    sys.path.insert(0, str(args.src))
    result = measure(args.repeats)
    if args.json:
        print(json.dumps(result))
    else:
        print_rows(result["rows"], args.repeats)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
