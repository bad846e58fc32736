"""Check that the tests kill every mutant of a committed list.

Usage: python3 tools/mutants.py

Each entry of MUTANTS is (file, old text, new text, tests that must kill it).
The mutants are handled one at a time. The checkout is copied to a temporary
directory, leaving out `.git`, caches, `runs/` and `.bench_out/`; `old` must
occur exactly once in the copy's file and is replaced by `new`; then
`python -m pytest -x -q -p no:cacheprovider <tests>` runs inside the copy with
PYTHONPATH set to the copy's `src`. A copy, not the checkout itself, because
pyproject's `pythonpath = ["src"]` is relative to the rootdir and an installed
`armdesign` would otherwise shadow the mutated sources. pytest exit 1 means
the mutant is killed and 0 that it survived. One line is printed per mutant.
Exit 0 if every mutant is killed, 1 if any survives, 2 if an `old` text does
not occur exactly once or pytest exits with any other code (no tests
collected, a usage error, an interrupt). Nothing is written inside the
repository.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LEFT_OUT = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", "runs", ".bench_out"
)

MUTANTS = [
    # the feedback picks in draw order, not pool order: the prompt's blocks move
    (
        "src/armdesign/llm.py",
        "tuple(pool[i] for i in sorted(idx))",
        "tuple(pool[i] for i in idx)",
        ["tests/test_ledger.py::test_first_llm_transcript_matches_the_golden_file"],
    ),
    # a wrong sign in the LM's Jacobian columns
    (
        "src/armdesign/kinematics.py",
        "- a{j}z * (fy - {p}y)",
        "+ a{j}z * (fy - {p}y)",
        ["tests/test_orchestrator.py::test_sweep_writes_the_ledgers_of_the_reference_loops"],
    ),
    # the public Jacobian's cross product reversed: every column negated
    (
        "src/armdesign/kinematics.py",
        "np.cross(joints[:, 3:6], np.subtract(end, joints[:, :3]))",
        "np.cross(np.subtract(end, joints[:, :3]), joints[:, 3:6])",
        ["tests/test_kinematics.py::test_generated_fk_and_jacobian_match_the_reference_loops"],
    ),
    # a design with no joints is made, and the CLI's check reaches SpaceConfig's ValueError
    (
        "src/armdesign/space.py",
        "if not self.joints:",
        "if False:",
        ["tests/test_cli.py::test_evaluate_and_urdf_reject_a_design_with_no_joints"],
    ),
    # a design with as many lengths as it likes
    (
        "src/armdesign/space.py",
        '("lengths", self.lengths, len(self.joints))',
        '("lengths", self.lengths, len(self.lengths))',
        ["tests/test_space.py::test_a_design_of_the_wrong_shape_cannot_be_made"],
    ),
    # a design with an origin of any size
    (
        "src/armdesign/space.py",
        '("origin", self.origin, 3)',
        '("origin", self.origin, len(self.origin))',
        ["tests/test_space.py::test_a_design_of_the_wrong_shape_cannot_be_made"],
    ),
    # an infinite joint code overflows int() and the CLI prints a traceback
    (
        "src/armdesign/space.py",
        "if math.isfinite(code):",
        "if True:",
        ["tests/test_cli.py::test_evaluate_and_urdf_reject_a_joint_code_that_is_not_finite"],
    ),
    # a ledger that cannot be read is a runtime failure (exit 2), not an input error
    (
        "src/armdesign/cli.py",
        "except OSError as exc:\n            raise InputError(f\"{path}: {exc}\")",
        "except LookupError as exc:\n            raise InputError(f\"{path}: {exc}\")",
        ["tests/test_cli.py::test_report_rejects_a_missing_ledger"],
    ),
    # a curve file's header goes unchecked
    (
        "src/armdesign/ledger.py",
        'if not lines or lines[0] != "iteration,hv":',
        "if not lines:",
        ["tests/test_cli.py::test_report_flags_corrupt_ledger_line"],
    ),
    # a negative warmup count is accepted
    (
        "src/armdesign/orchestrator.py",
        "if self.n_init < 0:",
        "if self.n_init < -1:",
        ["tests/test_cli.py::test_run_rejects_bad_settings"],
    ),
    # a reply with too few lengths parses
    (
        "src/armdesign/llm.py",
        "if len(lengths) != space.n_joints:",
        "if False:",
        ["tests/test_llm.py::test_parse_failures"],
    ),
    # an empty history splits into an empty mask
    (
        "src/armdesign/tpe.py",
        "    if not n:\n",
        "    if False:\n",
        ["tests/test_tpe.py::test_split_size_is_ceiling_of_gamma_n"],
    ),
    # a prompt with no designs to show still announces them
    (
        "src/armdesign/llm.py",
        "if ctx.pareto_feedback or ctx.random_feedback:",
        "if True:",
        ["tests/test_orchestrator.py::test_llm_run_without_warmup_prompts_with_no_feedback"],
    ),
    # a feedback block prints its bracketed numbers to 3 decimals, not 4
    (
        "src/armdesign/llm.py",
        '", ".join(["%.4f"] * n)',
        '", ".join(["%.3f"] * n)',
        ["tests/test_llm.py::test_feedback_block_matches_the_field_by_field_rendering"],
    ),
    # a feedback block separates its per-target torque vectors with a comma
    (
        "src/armdesign/llm.py",
        '"  TORQUES: " + "; ".join(',
        '"  TORQUES: " + ", ".join(',
        ["tests/test_llm.py::test_feedback_block_matches_the_field_by_field_rendering"],
    ),
    # a reply's origin clamped high then low: every value lands on the upper bound
    (
        "src/armdesign/llm.py",
        "[min(max(v, space.origin_low), space.origin_high) for v in origin]",
        "[max(min(v, space.origin_low), space.origin_high) for v in origin]",
        ["tests/test_llm.py::test_parse_clamps_infinite_values"],
    ),
    # a params file's joints given as one string are read letter by letter
    (
        "src/armdesign/cli.py",
        "if not isinstance(joints, list) or",
        "if not isinstance(joints, (list, str)) or",
        ["tests/test_cli.py::test_evaluate_and_urdf_reject_a_design_with_no_joints"],
    ),
]


def mutant_name(file: str, old: str, new: str) -> str:
    return f"{file}: {old.strip()!r} -> {new.strip()!r}"


def run_mutant(root: Path, file: str, old: str, new: str, tests: list[str]) -> str:
    """'killed' or 'survived'; exit 2 on a stale `old` text or an unexpected pytest exit."""
    name = mutant_name(file, old, new)
    with tempfile.TemporaryDirectory(prefix="mutants_") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(root, copy, ignore=LEFT_OUT)
        source = copy / file
        text = source.read_text(encoding="utf-8")
        if text.count(old) != 1:
            print(f"error: {name}: the old text occurs {text.count(old)} times, not once", file=sys.stderr)
            raise SystemExit(2)
        source.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stdout + proc.stderr)
        print(f"error: {name}: pytest exited {proc.returncode}", file=sys.stderr)
        raise SystemExit(2)
    return "killed" if proc.returncode == 1 else "survived"


def main(mutants=MUTANTS, root: Path = REPO) -> int:
    survivors = 0
    for file, old, new, tests in mutants:
        outcome = run_mutant(root, file, old, new, tests)
        print(f"{outcome:<8}  {mutant_name(file, old, new)}", flush=True)
        survivors += outcome == "survived"
    print(f"{len(mutants) - survivors} killed, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
