"""The benchmark's workloads: seeded inputs, one op at a time, and output checks.

Every input comes from the benchmark seed. The package is driven only through
its public functions, imported here by name so that the tracer can replace
each one at this call site (see tracing.py).

- hybrid-target1: one op is one seeded 210-trial ``bbo-llm-plus`` run on
  target1 with the ``mock-script`` backend, its artifacts written and read
  back by ``armdesign report``.
- evaluate-reachable: one op is one ``evaluate`` of a design whose every
  target3 point is within reach, so no solve can stop on an unreachability
  certificate. Each block of 81 designs holds every joint-type sequence once.
- tpe-long-history: one op is one closed-loop MOTPE run over a cheap
  closed-form objective, calling ``suggest``, ``pareto_front`` and
  ``hypervolume_2d`` once per trial as ``orchestrator.run`` does.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from armdesign import orchestrator
from armdesign.cli import main as cli_main
from armdesign.evaluation import evaluate
from armdesign.experiment import load_experiment, load_targets
from armdesign.ledger import write_run_artifacts
from armdesign.orchestrator import run
from armdesign.pareto import DEFAULT_REF_POINT, ObjectiveValues, hypervolume_2d, pareto_front
from armdesign.space import DesignParams, JointType, SpaceConfig, validate
from armdesign.tpe import SampleSource, TpeConfig, TrialRecord, suggest

from calibrate import array_kernel, loop_kernel
from tracing import patched

OUT_DIR = ".bench_out"


@dataclass
class Op:
    """What one op did: its wall time, each trial's (start, end) and failed checks."""

    seconds: float
    trials: list[tuple[float, float]]
    objectives: list[ObjectiveValues]  # of the designs that e_pos_mean scores
    final_hv: float = 0.0
    digest: str = ""  # sha256 of the op's outputs; equal inputs must give equal digests
    bytes_written: int = 0
    failures: list[str] = field(default_factory=list)
    label: str = ""


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class HybridTarget1:
    """The paper's method on target1; about 95% of its time is IK."""

    name = "hybrid-target1"
    calibration = (loop_kernel,)

    def __init__(self, root: Path, seed: int, tiny: bool):
        start = perf_counter()
        spec = load_experiment(root / "experiments" / "target1_llm_plus_mock.experiment")
        self.load_s = perf_counter() - start
        self.base = replace(spec.base, n_init=2, n_step=3, n_total=6) if tiny else spec.base
        self.seed = seed
        self.out = root / OUT_DIR / self.name

    def op(self, k: int, pause) -> Op:
        """One seeded run; ``pause`` runs untimed after each trial, inside the run."""
        config = replace(self.base, seed=1000 * self.seed + k)
        run_dir = self.out / f"seed_{config.seed}"
        shutil.rmtree(run_dir, ignore_errors=True)
        trials: list[tuple[float, float]] = []
        start = perf_counter()
        resume = [start]

        def stamp(fn):
            # the orchestrator evaluates once per trial: a trial runs from the end
            # of the previous pause to the end of its evaluate call
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                trials.append((resume[0], perf_counter()))
                pause()
                resume[0] = perf_counter()
                return result

            return wrapper

        with patched([(orchestrator, "evaluate", stamp)]):
            result = run(config)
        write_run_artifacts(run_dir, result)
        ledger_path = run_dir / "ledger.jsonl"
        report_err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(report_err):
            report_code = cli_main(["report", str(ledger_path)])
        seconds = perf_counter() - start

        failures = []
        if report_code != 0:
            failures.append(f"report exited {report_code}: {report_err.getvalue().strip()}")
        lines = ledger_path.read_text(encoding="utf-8").splitlines()
        expected = config.n_init + config.n_total
        if len(lines) != expected:
            failures.append(f"ledger has {len(lines)} lines, expected {expected}")
        if not all(_finite(json.loads(line)["objectives"]) for line in lines):
            failures.append("ledger holds a non-finite objective")
        bytes_written = sum(p.stat().st_size for p in run_dir.rglob("*") if p.is_file())
        digest = hashlib.sha256(ledger_path.read_bytes()).hexdigest()
        shutil.rmtree(run_dir, ignore_errors=True)
        return Op(
            seconds=seconds,
            trials=trials,
            # the scripted LLM designs are the same for every seed, so their
            # E_POS moves with the evaluation's accuracy and not with the TPE path
            objectives=[t.objectives for t in result.ledger if t.source is SampleSource.LLM],
            final_hv=float(result.hv_curve[-1]),
            digest=digest,
            bytes_written=bytes_written,
            failures=failures,
            label=f"ledger_sha256 run_seed={config.seed} {digest}",
        )

    def quality(self, ops: list[Op]) -> tuple[float, float]:
        """(final hv, mean E_POS) of the first run, so both depend on the seed but not on speed."""
        first = ops[0]
        return first.final_hv, float(np.mean([o.e_pos for o in first.objectives]))


class EvaluateReachable:
    """Seeded designs near the target3 centroid with long links: every solve is reachable."""

    name = "evaluate-reachable"
    calibration = (loop_kernel,)
    # Every design here carries E_TORQUE far above 5, so the population's
    # hypervolume is taken against a reference point that admits them.
    ref_point = (5.0, 1000.0)
    origin_spread = 0.1  # m, per axis around the centroid
    length_range = (0.2, 0.3)  # m; 4 links always outreach the farthest point

    def __init__(self, root: Path, seed: int, tiny: bool):
        start = perf_counter()
        self.targets = load_targets(root / "targets" / "target3.json")
        self.load_s = perf_counter() - start
        self.space = SpaceConfig()
        self.centroid = np.mean(self.targets.points, axis=0)
        self.seed = seed
        # Chains that cannot leave the vertical have E_POS far above the rest; one
        # design per joint-type sequence in each block keeps their share fixed.
        self.sequences = list(
            itertools.product(self.space.joint_alphabet, repeat=self.space.n_joints)
        )

    def design(self, k: int) -> DesignParams:
        block, slot = divmod(k, len(self.sequences))
        order = np.random.default_rng([self.seed, block]).permutation(len(self.sequences))
        joints = self.sequences[order[slot]]
        rng = np.random.default_rng([self.seed, k])
        origin = self.centroid + rng.uniform(-self.origin_spread, self.origin_spread, size=3)
        lengths = rng.uniform(*self.length_range, size=self.space.n_joints)
        return DesignParams(
            origin=tuple(float(v) for v in origin),
            joints=joints,
            lengths=tuple(float(v) for v in lengths),
        )

    def op(self, k: int, pause) -> Op:
        """One design's evaluation: a single trial, so ``pause`` is not needed."""
        params = self.design(k)
        start = perf_counter()
        report = evaluate(params, self.targets)
        end = perf_counter()

        failures = []
        if not _finite(report.objectives):
            failures.append("non-finite objective")
        reach = sum(params.lengths)
        for outcome in report.per_target:
            floor = math.dist(outcome.target, params.origin) - reach
            if outcome.e_pos < floor:
                failures.append(f"E_POS {outcome.e_pos} below its floor {floor}")
        return Op(
            seconds=end - start,
            trials=[(start, end)],
            objectives=[report.objectives],
            digest=_sha256(repr([(o.e_pos, o.e_torque, o.reached) for o in report.per_target])),
            failures=failures,
        )

    def quality(self, ops: list[Op]) -> tuple[float, float]:
        """(hypervolume, mean E_POS) of the first block of designs, which every run evaluates."""
        objectives = [o for op in ops[: len(self.sequences)] for o in op.objectives]
        return (
            hypervolume_2d(objectives, self.ref_point),
            float(np.mean([o.e_pos for o in objectives])),
        )


def toy_objectives(params: DesignParams, space: SpaceConfig) -> ObjectiveValues:
    """Conflicting closed-form bi-objective on the design vector.

    The continuous slots are scaled to [0, 1]; one objective pulls them toward
    0.2 and pitch joints, the other toward 0.8 and away from pitch joints, so
    the Pareto set is a segment and neither objective can be had for free.
    """
    olo, ospan = space.origin_low, space.origin_high - space.origin_low
    llo, lspan = space.length_low, space.length_high - space.length_low
    x = [(v - olo) / ospan for v in params.origin] + [(v - llo) / lspan for v in params.lengths]
    pitch = sum(j is JointType.PITCH for j in params.joints) / len(params.joints)
    return ObjectiveValues(
        e_pos=sum((v - 0.2) ** 2 for v in x) + pitch,
        e_torque=sum((v - 0.8) ** 2 for v in x) + 1.0 - pitch,
    )


class TpeLongHistory:
    """Closed-loop MOTPE with a history long enough that ``suggest`` dominates."""

    name = "tpe-long-history"
    calibration = (array_kernel,)

    def __init__(self, root: Path, seed: int, tiny: bool):
        start = perf_counter()
        self.space = SpaceConfig()
        self.tpe = TpeConfig()
        self.load_s = perf_counter() - start
        # long enough that a run holds one op even on a fast host, so the
        # trials timed do not depend on how many ops fit in the time
        self.n_trials = 30 if tiny else 600
        self.seed = seed

    def op(self, k: int, pause) -> Op:
        """One seeded closed-loop run; ``pause`` runs untimed between trials."""
        rng = np.random.default_rng([self.seed, k])
        trials: list[TrialRecord] = []
        spans = []
        hv = 0.0
        start = perf_counter()
        for i in range(self.n_trials):
            begin = perf_counter()
            params = suggest(rng, trials, self.tpe, self.space)
            objectives = toy_objectives(params, self.space)
            trials.append(TrialRecord(i, SampleSource.BBO, params, objectives))
            archive = pareto_front(trials)
            hv = hypervolume_2d([t.objectives for t in archive], DEFAULT_REF_POINT)
            spans.append((begin, perf_counter()))
            pause()
        seconds = perf_counter() - start

        failures = [
            f"trial {t.id}: {'; '.join(problems)}"
            for t in trials
            if (problems := validate(t.params, self.space))
        ]
        objectives = [t.objectives for t in trials]
        if not all(_finite(o) for o in objectives):
            failures.append("non-finite objective")
        return Op(
            seconds=seconds,
            trials=spans,
            objectives=objectives,
            final_hv=hv,
            digest=_sha256(repr(objectives)),
            failures=failures,
        )

    def quality(self, ops: list[Op]) -> tuple[float, float]:
        """(final hv, mean objective) of the first run.

        The toy objectives have no E_POS, and the sampler drifts along the
        Pareto segment toward one objective or the other from seed to seed, so
        both objectives are averaged: how far from the Pareto set it samples.
        """
        first = ops[0]
        return first.final_hv, float(np.mean([sum(o) / 2 for o in first.objectives]))


WORKLOADS = {w.name: w for w in (HybridTarget1, EvaluateReachable, TpeLongHistory)}
