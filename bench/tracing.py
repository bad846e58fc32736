"""Spans and counters recorded from outside the armdesign package.

The package's modules import each other with ``from .x import f``, so a
function is traced by replacing its name in the module that calls it, not in
the module that defines it. ``patched`` does that for a list of call sites and
puts the originals back when it exits. Spans are kept in memory and written
out once, when the run ends.
"""
from __future__ import annotations

import contextlib
import json
import math
from collections import Counter
from time import perf_counter

import numpy as np


@contextlib.contextmanager
def patched(replacements):
    """Replace ``module.attr`` with ``make(original)`` for each (module, attr, make).

    A call site that no longer exists is skipped, so a later refactor of the
    package turns a per-layer metric into 0 instead of breaking the run.
    """
    saved = []
    try:
        for module, attr, make in replacements:
            if hasattr(module, attr):
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, make(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class Tracer:
    """Nested spans (name, op, start, end, parent index) plus per-layer counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.ik: list[tuple[int, bool, bool]] = []  # (iterations, converged, unreachable)
        self.proposals: list[tuple[bool, list[int]]] = []  # (ok, prompt bytes per call)
        self.op = 0
        self._stack: list[int] = []

    def timed(self, name, observe=None):
        """Wrapper factory recording one span per call; ``observe(args, result)`` runs after it closes."""

        def make(fn):
            spans, stack = self.spans, self._stack

            def wrapper(*args, **kwargs):
                span = [name, self.op, 0.0, 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(span)
                span[2] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[3] = perf_counter()
                    stack.pop()
                if observe is not None:
                    observe(args, result)
                return result

            return wrapper

        return make

    def counted(self, name):
        """Wrapper factory counting calls without a span, for calls too small to time."""

        def make(fn):
            counts = self.counts

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def observe_ik(self, args, solution) -> None:
        params, target = args[0], np.asarray(args[1], dtype=float)
        # no posture gets closer than this, so a positive floor proves the target unreachable
        floor = math.dist(target, params.origin) - sum(params.lengths)
        self.ik.append((solution.iterations, bool(solution.converged), floor > 0.0))

    def observe_proposal(self, args, outcome) -> None:
        self.proposals.append(
            (outcome.ok, [len(entry.prompt.encode("utf-8")) for entry in outcome.transcript])
        )

    def call_sites(self, workloads_module):
        """Every traced call site: the benchmark's own calls and the package's internal ones."""
        from armdesign import cli, evaluation, ledger, orchestrator, pareto, tpe

        t = self.timed
        return [
            (workloads_module, "run", t("orchestrator.run")),
            (workloads_module, "write_run_artifacts", t("ledger.write_run_artifacts")),
            (workloads_module, "evaluate", t("evaluation.evaluate")),
            (workloads_module, "suggest", t("tpe.suggest")),
            (workloads_module, "pareto_front", t("pareto.pareto_front")),
            (workloads_module, "hypervolume_2d", t("pareto.hypervolume_2d")),
            (orchestrator, "evaluate", t("evaluation.evaluate")),
            (orchestrator, "suggest", t("tpe.suggest")),
            (orchestrator, "propose", t("llm.propose", self.observe_proposal)),
            (orchestrator, "select_feedback", t("llm.select_feedback")),
            (orchestrator, "pareto_front", t("pareto.pareto_front")),
            (orchestrator, "hypervolume_2d", t("pareto.hypervolume_2d")),
            (evaluation, "solve_ik", t("kinematics.solve_ik", self.observe_ik)),
            (tpe, "split_observations", t("tpe.split_observations")),
            (tpe, "nondomination_ranks", t("tpe.nondomination_ranks")),
            (tpe, "hypervolume_contributions", t("pareto.hypervolume_contributions")),
            (cli, "read_ledger", t("ledger.read_ledger")),
            (cli, "recompute_curve", t("ledger.recompute_curve")),
            (pareto, "nondominated_indices", self.counted("pareto.nondominated_indices")),
            (ledger, "nondominated_indices", self.counted("pareto.nondominated_indices")),
        ]

    def durations(self, name: str) -> np.ndarray:
        return np.array([s[3] - s[2] for s in self.spans if s[0] == name])

    def self_times(self, name: str) -> np.ndarray:
        """Span durations minus the time covered by their direct child spans."""
        child = np.zeros(len(self.spans))
        for s in self.spans:
            if s[4] >= 0:
                child[s[4]] += s[3] - s[2]
        return np.array(
            [s[3] - s[2] - child[i] for i, s in enumerate(self.spans) if s[0] == name]
        )

    def per_op(self, name: str) -> list[np.ndarray]:
        """Durations of one span name, grouped by op in call order."""
        groups: dict[int, list[float]] = {}
        for s in self.spans:
            if s[0] == name:
                groups.setdefault(s[1], []).append(s[3] - s[2])
        return [np.array(v) for _, v in sorted(groups.items())]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, op, start, end, parent in self.spans:
                fh.write(
                    json.dumps({"name": name, "op": op, "start": start, "end": end, "parent": parent})
                    + "\n"
                )
