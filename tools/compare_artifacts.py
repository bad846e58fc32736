"""Check that a revision and the working tree write byte-identical artifacts.

Usage: python3 tools/compare_artifacts.py [REV]   (REV defaults to HEAD)

REV is extracted with `git archive` into a temporary directory. In that tree
and in the working tree, every `experiments/*.experiment` is run with
`armdesign run --out <tmp>`, then `armdesign report` is run over each sweep's
ledgers; one fixed design is scored with `armdesign evaluate` on each
`targets/*.json` and emitted with `armdesign urdf`. Every artifact and every
stdout are compared byte for byte. The differing paths are printed with the
count of identical files; when anything differs, each sweep's per-seed and
mean final hypervolume (from its `summary.json`) follows for REV and for the
working tree, since a change that moves results is judged on those; a sweep
that only one tree has shows nan for the other. Last comes the line count of
the Python sources under `src/` in REV and in the working tree. The two trees
run at the same time, so nothing is timed here: each tree's time would carry
the other's load. `tools/time_layers.py` times the layers in pairs, and
`bench/run.py` times whole runs.
Exit 0 only if everything matches, 1 if anything differs, 2 if a command
fails. Nothing is written inside the repository.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DESIGN = "0,0,0,2,1,0,1,0.25,0.2,0.2,0.15"  # origin 0, joints Y P R P, lengths


def armdesign(tree: Path, *argv: str, cwd: Path | None = None) -> bytes:
    """Run the CLI from `tree`'s sources and return its stdout; exit 2 on failure."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "armdesign.cli", *argv], env=env, cwd=cwd, capture_output=True
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        print(f"error: armdesign {' '.join(argv)} exited {proc.returncode} in {tree}", file=sys.stderr)
        raise SystemExit(2)
    return proc.stdout


def write_artifacts(tree: Path, out: Path) -> None:
    """Each experiment's sweep under out/<stem>; every stdout under out/stdout."""
    (out / "stdout").mkdir(parents=True)
    for targets in sorted((tree / "targets").glob("*.json")):
        stdout = armdesign(tree, "evaluate", "--vector", DESIGN, "--targets", str(targets))
        (out / "stdout" / f"{targets.stem}.evaluate.txt").write_bytes(stdout)
    (out / "stdout" / "design.urdf").write_bytes(armdesign(tree, "urdf", "--vector", DESIGN))
    for exp in sorted((tree / "experiments").glob("*.experiment")):
        sweep = out / exp.stem
        stdout = armdesign(tree, "run", "--experiment", str(exp), "--out", str(sweep))
        (out / "stdout" / f"{exp.stem}.run.txt").write_bytes(stdout)
        # relative paths, since report prints each ledger's path
        ledgers = sorted(sweep.glob("seed_*/ledger.jsonl"), key=lambda p: int(p.parent.name[5:]))
        stdout = armdesign(tree, "report", *(str(p.relative_to(sweep)) for p in ledgers), cwd=sweep)
        (out / "stdout" / f"{exp.stem}.report.txt").write_bytes(stdout)


def files(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def read_summary(path: Path) -> dict:
    """A sweep's summary.json; a sweep the tree does not have reads as nan."""
    if not path.is_file():
        return {"final_hv_per_seed": {}, "final_hv_mean": math.nan}
    return json.loads(path.read_text(encoding="utf-8"))


def hypervolume_table(out_rev: Path, out_work: Path, rev: str) -> list[str]:
    """Per sweep in either tree: final hypervolume per seed and the mean, REV then working tree.

    A sweep or a seed that only one tree has shows nan on the other side.
    """
    lines = []
    sweeps = {p.parent.name for out in (out_rev, out_work) for p in out.glob("*/summary.json")}
    for sweep in sorted(sweeps):
        before, after = (read_summary(out / sweep / "summary.json") for out in (out_rev, out_work))
        lines.append(f"final hypervolume of {sweep}: seed, {rev}, working tree")
        for seed in dict.fromkeys([*before["final_hv_per_seed"], *after["final_hv_per_seed"]]):
            values = (s["final_hv_per_seed"].get(seed, math.nan) for s in (before, after))
            lines.append(f"  {seed:>4}  " + "  ".join(f"{v:10.4f}" for v in values))
        lines.append(f"  mean  {before['final_hv_mean']:10.4f}  {after['final_hv_mean']:10.4f}")
    return lines


def src_lines(tree: Path) -> int:
    """Lines in the tree's src/**/*.py, as `wc -l` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src").rglob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", default="HEAD", help="git revision to compare against")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="compare_artifacts_") as tmp:
        tmp = Path(tmp)
        base = tmp / "rev"
        base.mkdir()
        archive = tmp / "rev.tar"
        git = ["git", "-C", str(REPO), "archive", "--format=tar", "-o", str(archive), args.rev]
        if subprocess.run(git).returncode != 0:
            raise SystemExit(2)
        with tarfile.open(archive) as tar:
            tar.extractall(base, filter="data")

        out_rev, out_work = tmp / "out_rev", tmp / "out_work"
        with ThreadPoolExecutor(max_workers=2) as pool:  # one CLI process per tree
            list(pool.map(write_artifacts, (base, REPO), (out_rev, out_work)))  # re-raises a failed tree's exit

        paths = files(out_rev) | files(out_work)
        differing = sorted(
            p
            for p in paths
            if not ((out_rev / p).is_file() and (out_work / p).is_file())
            or (out_rev / p).read_bytes() != (out_work / p).read_bytes()
        )
        hv_lines = hypervolume_table(out_rev, out_work, args.rev) if differing else []
        lines_rev, lines_work = src_lines(base), src_lines(REPO)
    for p in differing:
        print(f"differs: {p}")
    print(f"{len(paths) - len(differing)} identical, {len(differing)} differing ({args.rev} vs working tree)")
    for line in hv_lines:
        print(line)
    print(f"src/ lines: {lines_rev} in {args.rev}, {lines_work} in the working tree")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
