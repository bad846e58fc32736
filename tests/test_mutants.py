from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

KILLED = ("src/tiny.py", "2 * x", "3 * x", ["tests/test_tiny.py"])
SURVIVOR = ("src/tiny.py", "return 0", "return 1", ["tests/test_tiny.py"])  # `unused` is never tested


@pytest.fixture
def checkout(tmp_path):
    """A tiny project: one module, one test of one of its two functions."""
    for folder in ("src", "tests"):
        (tmp_path / folder).mkdir()
    (tmp_path / "src" / "tiny.py").write_text("def double(x):\n    return 2 * x\n\n\ndef unused():\n    return 0\n")
    test = "from tiny import double\n\n\ndef test_double():\n    assert double(3) == 6\n"
    (tmp_path / "tests" / "test_tiny.py").write_text(test)
    return tmp_path


def test_a_killed_mutant_passes_and_a_survivor_fails(checkout, capsys):
    assert mutants.main([KILLED], checkout) == 0
    assert capsys.readouterr().out.splitlines() == [
        "killed    src/tiny.py: '2 * x' -> '3 * x'",
        "1 killed, 0 survived",
    ]
    assert mutants.main([KILLED, SURVIVOR], checkout) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "survived  src/tiny.py: 'return 0' -> 'return 1'",
        "1 killed, 1 survived",
    ]
    assert "3 * x" not in (checkout / "src" / "tiny.py").read_text()  # the checkout itself is never mutated


@pytest.mark.parametrize("old, count", [("4 * x", 0), ("return", 2)], ids=["stale", "ambiguous"])
def test_an_old_text_that_does_not_occur_once_is_an_error(checkout, capsys, old, count):
    with pytest.raises(SystemExit) as exited:
        mutants.main([("src/tiny.py", old, "pass", ["tests/test_tiny.py"])], checkout)
    assert exited.value.code == 2
    assert f"the old text occurs {count} times, not once" in capsys.readouterr().err
