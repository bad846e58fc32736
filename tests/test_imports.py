"""Heavy imports wait for the code that needs them: scipy.special for the first
TPE fit, the HTTP stack for the first chat request. Checked in a fresh
interpreter, since this test session has imported everything already."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
DEFERRED = ("scipy", "scipy.special", "urllib.request", "http.client")

SCRIPT = f"""
import importlib, json, pkgutil, sys
import numpy as np
import armdesign
for info in pkgutil.iter_modules(armdesign.__path__):
    importlib.import_module("armdesign." + info.name)
at_import = [m for m in {DEFERRED!r} if m in sys.modules]

from armdesign.pareto import ObjectiveValues
from armdesign.space import SpaceConfig, random_sample
from armdesign.tpe import SampleSource, TpeConfig, TrialRecord, suggest
rng, space = np.random.default_rng(0), SpaceConfig()
trials = [
    TrialRecord(i, SampleSource.RANDOM, random_sample(rng, space), ObjectiveValues(*rng.uniform(0, 4, 2)))
    for i in range(TpeConfig.n_startup)
]
suggest(rng, trials, TpeConfig(), space)
print(json.dumps({{"at_import": at_import, "after_suggest": "scipy.special" in sys.modules}}))
"""


def test_scipy_and_http_load_at_first_use():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    seen = json.loads(done.stdout)
    assert seen["at_import"] == []
    assert seen["after_suggest"] is True
