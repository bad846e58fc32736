#!/usr/bin/env python3
"""armdesign benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload hybrid-target1 --seed 1 --seconds 20 --trace 0

Run from the repository root. The package is imported from ``src/`` of the
checkout this file sits in; without it the benchmark exits 2 and prints no
result. Ops run one at a time in this process until the next one would end
after ``--seconds``; at least one op always runs. Set-up time is measured in
fresh interpreters, several times, and reported as the median.

``--trace 0`` prints the end-to-end metrics, measured without tracing. Their
timings are scaled to reference seconds by a calibration kernel timed between
trials (see calibrate.py); the timings as measured are printed on the ``raw``
line. ``--trace 1`` runs every op twice, traced and then untraced, prints the
per-layer metrics and the tracing overhead, checks that both runs of an op
give identical outputs, and writes the spans to ``.bench_out/``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``; an
op counts as failed when any of its output checks fails. Earlier lines carry
the machine facts and, for hybrid-target1, each run's ledger sha256.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# numpy is imported inside functions: a set-up probe times the package's import,
# numpy's included, from a fresh interpreter that has loaded nothing yet.
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("hybrid-target1", "evaluate-reachable", "tpe-long-history")
SETUP_PROBES = 5


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup_probe(args) -> None:
    """Import the package and set the workload up, then print the timings."""
    start = perf_counter()
    import workloads

    imported = perf_counter()
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, args.tiny)
    print(
        json.dumps(
            {
                "import_s": imported - start,
                "load_s": workload.load_s,
                "setup_s": perf_counter() - start,
            }
        )
    )


def _setup_probe_cmd(args) -> list[str]:
    return [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-probe",
    ] + (["--tiny"] if args.tiny else [])


def _probe_setup(cmd) -> dict:
    """Set up once in a fresh interpreter and return its timings."""
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _machine_facts() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def _run_op(workload, k, pause):
    """One op; an exception makes it a failed op, reported with its traceback."""
    try:
        return workload.op(k, pause)
    except Exception:  # the run goes on and counts the failure
        traceback.print_exc()
        return None


def _no_pause() -> None:
    pass


def _measure(workload, seconds, calibrator, tracer=None, call_sites=()):
    """Run ops until the next one would end after ``seconds``; at least one runs.

    Untraced, the calibration kernel runs between trials. With a tracer every
    op runs twice on the same inputs, with no calibration inside, and both
    runs must give the same outputs. The traced run goes first, so that the
    one-time costs of a process's first op fall on the per-layer figures, as
    they fall on the end-to-end ones.
    Returns (untraced ops, traced ops); None stands for an op that raised.
    """
    from tracing import patched

    ops, traced = [], []
    start = perf_counter()
    k = 0
    while True:
        if tracer is None:
            calibrator.maybe_sample()
            ops.append(_run_op(workload, k, calibrator.maybe_sample))
        else:
            tracer.op = k
            with patched(call_sites):
                traced.append(_run_op(workload, k, _no_pause))
            ops.append(_run_op(workload, k, _no_pause))
            if None not in (ops[-1], traced[-1]) and traced[-1].digest != ops[-1].digest:
                traced[-1].failures.append("traced op output differs from untraced")
        k += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / k > seconds:
            return ops, traced


def _pct(values, q) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def end_to_end_metrics(workload, ops, probes, calibrator) -> tuple[dict, dict]:
    """(metrics, raw): timings in reference seconds (see calibrate.py), and as measured."""
    calibrator.sample()
    trials = [trial for op in ops for trial in op.trials]
    raw = [end - begin for begin, end in trials]
    scaled = [(end - begin) * calibrator.scale(0.5 * (begin + end)) for begin, end in trials]
    setup = [p["setup_s"] * calibrator.scale(p["at"]) for p in probes]
    final_hv, e_pos_mean = workload.quality(ops)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "trials_per_s": (len(scaled) / sum(scaled), "1/s"),
        "trial_ms_p50": (1e3 * _pct(scaled, 50), "ms"),
        "trial_ms_p95": (1e3 * _pct(scaled, 95), "ms"),
        "final_hv": (final_hv, "area"),
        "e_pos_mean": (e_pos_mean, "m"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    as_measured = {
        "trials": len(raw),
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "trials_per_s": len(raw) / sum(raw),
        "trial_ms_p50": 1e3 * _pct(raw, 50),
        "trial_ms_p95": 1e3 * _pct(raw, 95),
        "calibration_runs": len(calibrator.samples),
        "calibration_s_median": statistics.median(d for _, d in calibrator.samples),
    }
    return metrics, as_measured


def per_layer_metrics(tracer, ops, traced, probes) -> dict:
    """Per-layer figures from the traced ops; ``ops`` are the untraced ones, for the overhead."""
    import numpy as np

    n_ops = len(traced)
    traced_s = sum(op.seconds for op in traced)

    def dur(name):
        return tracer.durations(name)

    def mean(values) -> float:
        return float(np.mean(values)) if len(values) else 0.0

    def deciles(name):
        first, last = [], []
        for durations in tracer.per_op(name):
            d = max(1, len(durations) // 10)
            first.append(durations[:d].mean())
            last.append(durations[-d:].mean())
        return 1e3 * mean(first), 1e3 * mean(last)

    ik = np.array(tracer.ik, dtype=float).reshape(-1, 3)
    unreachable = ik[ik[:, 2] == 1.0]
    prompt_bytes = [b for _, sizes in tracer.proposals for b in sizes]
    first_decile, last_decile = deciles("tpe.suggest")
    untraced_tps = sum(len(op.trials) for op in ops) / sum(op.seconds for op in ops)
    traced_tps = sum(len(op.trials) for op in traced) / traced_s
    return {
        "kinematics.solve_ik.calls": (len(dur("kinematics.solve_ik")) / n_ops, "1/op"),
        "kinematics.solve_ik.us_p50": (1e6 * _pct(dur("kinematics.solve_ik"), 50), "us"),
        "kinematics.solve_ik.us_p95": (1e6 * _pct(dur("kinematics.solve_ik"), 95), "us"),
        "kinematics.solve_ik.share": (dur("kinematics.solve_ik").sum() / traced_s, "frac"),
        "kinematics.ik_iters_per_solve": (mean(ik[:, 0]), "count"),
        "kinematics.ik_converged_frac": (mean(ik[:, 1]), "frac"),
        "kinematics.ik_unreachable_frac": (mean(ik[:, 2]), "frac"),
        "kinematics.ik_iters_unreachable_mean": (mean(unreachable[:, 0]), "count"),
        "evaluation.evaluate.ms_p50": (1e3 * _pct(dur("evaluation.evaluate"), 50), "ms"),
        "evaluation.evaluate.self_ms": (1e3 * mean(tracer.self_times("evaluation.evaluate")), "ms"),
        "tpe.suggest.calls": (len(dur("tpe.suggest")) / n_ops, "1/op"),
        "tpe.suggest.ms_p50": (1e3 * _pct(dur("tpe.suggest"), 50), "ms"),
        "tpe.suggest.ms_p95": (1e3 * _pct(dur("tpe.suggest"), 95), "ms"),
        "tpe.suggest.share": (dur("tpe.suggest").sum() / traced_s, "frac"),
        "tpe.suggest.ms_first_decile": (first_decile, "ms"),
        "tpe.suggest.ms_last_decile": (last_decile, "ms"),
        "tpe.split_observations.ms_p50": (1e3 * _pct(dur("tpe.split_observations"), 50), "ms"),
        "tpe.nondomination_ranks.ms_p50": (1e3 * _pct(dur("tpe.nondomination_ranks"), 50), "ms"),
        "pareto.pareto_front.ms_p50": (1e3 * _pct(dur("pareto.pareto_front"), 50), "ms"),
        "pareto.hypervolume_2d.us_p50": (1e6 * _pct(dur("pareto.hypervolume_2d"), 50), "us"),
        "pareto.hypervolume_contributions.ms_p50": (
            1e3 * _pct(dur("pareto.hypervolume_contributions"), 50),
            "ms",
        ),
        "pareto.nondominated_indices.calls": (
            tracer.counts["pareto.nondominated_indices"] / n_ops,
            "1/op",
        ),
        "llm.propose.calls": (len(tracer.proposals) / n_ops, "1/op"),
        "llm.propose.ms_p50": (1e3 * _pct(dur("llm.propose"), 50), "ms"),
        "llm.select_feedback.ms_p50": (1e3 * _pct(dur("llm.select_feedback"), 50), "ms"),
        "llm.fallback_frac": (mean([not ok for ok, _ in tracer.proposals]), "frac"),
        "llm.prompt_bytes_mean": (mean(prompt_bytes), "B"),
        "orchestrator.run.s": (mean(dur("orchestrator.run")), "s"),
        "orchestrator.run.self_s": (mean(tracer.self_times("orchestrator.run")), "s"),
        "ledger.write_run_artifacts.ms": (1e3 * mean(dur("ledger.write_run_artifacts")), "ms"),
        "ledger.bytes_written": (mean([op.bytes_written for op in traced]), "B/op"),
        "ledger.read_ledger.ms": (1e3 * mean(dur("ledger.read_ledger")), "ms"),
        "ledger.recompute_curve.ms": (1e3 * mean(dur("ledger.recompute_curve")), "ms"),
        "experiment.load_experiment.ms": (1e3 * statistics.median(p["load_s"] for p in probes), "ms"),
        "experiment.import_s": (statistics.median(p["import_s"] for p in probes), "s"),
        "tracing.trials_per_s_untraced": (untraced_tps, "1/s"),
        "tracing.trials_per_s_traced": (traced_tps, "1/s"),
        "tracing.slowdown": (untraced_tps / traced_tps, "x"),
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "armdesign" / "__init__.py").is_file():
        print(f"error: no armdesign package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        _setup_probe(args)
        return 0

    import workloads
    from calibrate import Calibrator
    from tracing import Tracer

    print("machine " + json.dumps(_machine_facts()), flush=True)
    calibrator = Calibrator(workloads.WORKLOADS[args.workload].calibration)
    probe_cmd = _setup_probe_cmd(args)
    probes = []
    for _ in range(1 if args.tiny else SETUP_PROBES):
        calibrator.sample()
        before = perf_counter()
        probes.append(_probe_setup(probe_cmd))
        probes[-1]["at"] = 0.5 * (before + perf_counter())
        calibrator.sample()  # a probe lasts about a window, so it gets a kernel run on each side

    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, args.tiny)
    tracer = Tracer() if args.trace else None
    call_sites = tracer.call_sites(workloads) if tracer else ()
    untraced, traced = _measure(workload, args.seconds, calibrator, tracer, call_sites)

    attempts = untraced + traced
    for op in untraced:
        if op is not None and op.label:
            print(op.label)
    for op in attempts:
        for failure in op.failures if op is not None else ():
            print(f"failed check: {failure}", file=sys.stderr)
    ops = [op for op in untraced if op is not None]
    traced_ops = [op for op in traced if op is not None]
    metrics = {}
    if tracer is not None:
        out = ROOT / workloads.OUT_DIR
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{args.workload}-{args.seed}.jsonl")
        if ops and traced_ops:
            metrics = per_layer_metrics(tracer, ops, traced_ops, probes)
    elif ops:
        metrics, as_measured = end_to_end_metrics(workload, ops, probes, calibrator)
        print("raw " + json.dumps(as_measured))
    failed = sum(op is None or bool(op.failures) for op in attempts)
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
