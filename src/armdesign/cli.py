"""Command-line entry points: evaluate, run, urdf, report.

Exit codes: 0 ok, 1 malformed input, 2 runtime failure. All commands are
deterministic given their inputs (and an offline backend where one is used).
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .evaluation import evaluate
from .experiment import ExperimentError, json_numbers, load_experiment, load_targets
from .ledger import (
    LedgerError,
    aggregate_csv,
    format_hv,
    read_curve_csv,
    read_ledger,
    read_ref_point,
    write_run_artifacts,
)
from .llm import BackendError
from .orchestrator import RunMode, hypervolume_curve, run
from .pareto import pareto_front
from .space import DesignParams, SpaceConfig, from_vector, make_params, validate
from .urdf import emit_urdf

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RUNTIME = 2


class InputError(ValueError):
    pass


def _load_params(args) -> DesignParams:
    """The design of --vector or --params, checked: its shape where it is made, then its bounds."""
    if args.vector is not None:
        tokens = args.vector.replace(",", " ").split()
        try:
            values = [float(t) for t in tokens]
        except ValueError as exc:
            raise InputError(f"vector: {exc}") from exc
        try:
            params = from_vector(values)  # D >= 1, from the vector's length
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    else:
        try:
            raw = json.loads(Path(args.params).read_text(encoding="utf-8"))
            joints = raw["joints"]
            if not isinstance(joints, list) or not all(isinstance(j, str) for j in joints):
                raise ValueError(f"expected an array of joint letters, got {joints!r}")
            params = make_params(json_numbers(raw["origin"]), joints, json_numbers(raw["lengths"]))
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"params file: {exc}") from exc
    violations = validate(params, SpaceConfig(n_joints=params.n_joints))
    if violations:
        raise InputError("; ".join(violations))
    return params


def cmd_evaluate(args) -> int:
    params = _load_params(args)
    targets = load_targets(args.targets)
    report = evaluate(params, targets)
    out = {
        "targets": targets.name,
        "e_pos": report.objectives.e_pos,
        "e_torque": report.objectives.e_torque,
        "per_target": [o._asdict() for o in report.per_target],
    }
    print(json.dumps(out, indent=2))
    return EXIT_OK


def cmd_urdf(args) -> int:
    text = emit_urdf(_load_params(args))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _apply_overrides(spec, args):
    base = replace(spec.base, mode=RunMode(args.mode)) if args.mode else spec.base
    seeds = tuple(args.seed) if args.seed is not None else spec.seeds
    out_dir = Path(args.out) if args.out else spec.out_dir
    return replace(spec, base=base, seeds=seeds, out_dir=out_dir)


def cmd_run(args) -> int:
    try:  # a bad override fails the config's own checks, like a bad file
        spec = _apply_overrides(load_experiment(args.experiment), args)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    # checked before any seed runs: the first existing path on the way to the directory must be one
    existing = next(p for p in (spec.out_dir, *spec.out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise InputError(f"output directory {spec.out_dir} cannot be made: {existing} is not a directory")
    # the summary describes the seed list alone, so a directory holding other seeds' runs would mix sweeps
    held = {p.name for p in spec.out_dir.glob("seed_*") if p.is_dir() and re.fullmatch(r"seed_[0-9]+", p.name)}
    foreign = sorted(held - {f"seed_{s}" for s in spec.seeds})
    if foreign:
        raise InputError(
            f"{spec.out_dir} holds {', '.join(foreign)}, outside the seed list {list(spec.seeds)};"
            " remove them or choose another --out"
        )

    curves = []
    for config in spec.configs():
        result = run(config)
        write_run_artifacts(spec.out_dir / f"seed_{config.seed}", result)
        curves.append(result.hv_curve)

    curves = np.stack(curves)  # (seeds, iterations)
    (spec.out_dir / "hv_aggregate.csv").write_text(aggregate_csv(curves), encoding="utf-8")
    finals = [float(c[-1]) for c in curves]
    summary = {
        "experiment": spec.name,
        "mode": spec.base.mode.value,
        "seeds": list(spec.seeds),
        "final_hv_per_seed": {str(s): v for s, v in zip(spec.seeds, finals)},
        "final_hv_mean": float(np.mean(finals)),
        "final_hv_std": float(np.std(finals)),
        "mean_hv_over_iterations": float(curves.mean(axis=0).mean()),
        "mean_std_over_iterations": float(curves.std(axis=0).mean()),  # population sigma
    }
    (spec.out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_report(args) -> int:
    curves = []
    fronts = []
    refs = []
    for path in map(Path, args.ledgers):
        try:
            trials = read_ledger(path)
        except OSError as exc:
            raise InputError(f"{path}: {exc}") from exc
        if not trials:
            raise InputError(f"{path}: the ledger holds no trials")
        ref = read_ref_point(path.parent)
        curve = hypervolume_curve(trials, ref)
        if not len(curve):  # every trial is warmup, so no iteration has a hypervolume
            raise InputError(f"{path}: the ledger holds only warmup trials")
        stored = path.parent / "hv_curve.csv"
        if stored.exists():
            stored_curve = read_curve_csv(stored)
            if len(stored_curve) != len(curve) or not (stored_curve == curve).all():
                print(f"error: recomputed curve disagrees with {stored}", file=sys.stderr)
                return EXIT_RUNTIME
        refs.append(ref)
        curves.append(curve)
        fronts.append((path, pareto_front(trials)))

    scales = {(len(c), ref) for c, ref in zip(curves, refs)}
    if len(scales) != 1:
        raise InputError(f"ledgers have mismatched (iterations, reference point): {sorted(scales)}")
    sys.stdout.write(aggregate_csv(np.stack(curves)))
    for path, front in fronts:
        print(f"# final front: {path}")
        print("id,source,e_pos,e_torque")
        for t in front:
            print(f"{t.id},{t.source.value},{format_hv(t.objectives.e_pos)},{format_hv(t.objectives.e_torque)}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage mistakes are input errors: exit 1, not argparse's default 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="armdesign", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params_args(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--params", help="JSON file with origin/joints/lengths")
        group.add_argument("--vector", help="flat 2D+3 design vector, comma separated")

    p_eval = sub.add_parser("evaluate", help="score a design against a target set")
    add_params_args(p_eval)
    p_eval.add_argument("--targets", required=True, help="targets JSON file")
    p_eval.set_defaults(func=cmd_evaluate)

    p_urdf = sub.add_parser("urdf", help="emit the URDF for a design")
    add_params_args(p_urdf)
    p_urdf.add_argument("--out", help="output path (stdout if omitted)")
    p_urdf.set_defaults(func=cmd_urdf)

    p_run = sub.add_parser("run", help="execute an experiment file")
    p_run.add_argument("--experiment", required=True)
    p_run.add_argument("--seed", type=int, nargs="+", help="override the seed list")
    p_run.add_argument("--mode", choices=[m.value for m in RunMode])
    p_run.add_argument("--out", help="override the output directory")
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("report", help="recompute hv curves and fronts from ledgers")
    p_rep.add_argument("ledgers", nargs="+")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ExperimentError, LedgerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (BackendError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
