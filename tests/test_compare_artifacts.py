from __future__ import annotations

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_artifacts.py"
_spec = importlib.util.spec_from_file_location("compare_artifacts", TOOL)
compare_artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_artifacts)


def write_summary(out: Path, sweep: str, per_seed: dict[str, float]) -> None:
    (out / sweep).mkdir(parents=True)
    summary = {"final_hv_per_seed": per_seed, "final_hv_mean": sum(per_seed.values()) / len(per_seed)}
    (out / sweep / "summary.json").write_text(json.dumps(summary))


def test_hypervolume_table_shows_one_sided_sweeps_as_nan(tmp_path):
    rev, work = tmp_path / "rev", tmp_path / "work"
    write_summary(rev, "both", {"0": 1.0, "1": 3.0})
    write_summary(work, "both", {"0": 2.0, "2": 4.0})
    write_summary(rev, "gone", {"0": 5.0})
    write_summary(work, "new", {"0": 6.0, "1": 8.0})
    assert compare_artifacts.hypervolume_table(rev, work, "HEAD") == [
        "final hypervolume of both: seed, HEAD, working tree",
        "     0      1.0000      2.0000",
        "     1      3.0000         nan",
        "     2         nan      4.0000",
        "  mean      2.0000      3.0000",
        "final hypervolume of gone: seed, HEAD, working tree",
        "     0      5.0000         nan",
        "  mean      5.0000         nan",
        "final hypervolume of new: seed, HEAD, working tree",
        "     0         nan      6.0000",
        "     1         nan      8.0000",
        "  mean         nan      7.0000",
    ]

