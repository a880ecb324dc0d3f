"""One module per pipeline stage: each `gowrank` module imports first in
a fresh interpreter, and `training` serves the names that the acceptance
criteria import from it as the stage modules' own objects."""

import subprocess
import sys
from pathlib import Path

import gowrank
from gowrank import gradcheck, scoring, training

PACKAGE = Path(gowrank.__file__).parent

# imports each module named in argv[2:] first, clearing gowrank* between them
IMPORT_EACH_FIRST = """
import importlib, sys
sys.path.insert(0, sys.argv[1])
for name in sys.argv[2:]:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "gowrank"]:
        del sys.modules[loaded]
    importlib.import_module(name)
"""


def test_every_module_imports_first_in_a_fresh_interpreter():
    modules = [f"gowrank.{path.stem}" for path in sorted(PACKAGE.glob("*.py"))
               if path.stem != "__init__"]
    assert "gowrank.gradcheck" in modules
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_EACH_FIRST, str(PACKAGE.parent), *modules],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_training_serves_the_moved_names_without_a_copy():
    assert training.ScoringContext is scoring.ScoringContext
    assert training.score_pool is scoring.score_pool
    assert training.grad_check is gradcheck.grad_check
    assert not hasattr(training, "forward")
