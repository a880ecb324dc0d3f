"""One module per pipeline stage: each `gowrank` module imports first in
a fresh interpreter, the modules' top-level imports of one another form
no cycle, the input-side modules load neither the model nor scipy's
special functions, and `training` serves the names that the acceptance
criteria import from it as the stage modules' own objects."""

import ast
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
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


def test_top_level_package_imports_form_no_cycle():
    """With no cycle among the modules' top-level `from .x import` edges,
    no import needs deferring into a function or a module `__getattr__`."""
    edges = {}
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        edges[path.stem] = {
            node.module for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        }
    assert edges["training"] >= {"gradcheck", "model", "scoring"}
    try:
        tuple(TopologicalSorter(edges).static_order())
    except CycleError as exc:
        raise AssertionError(f"import cycle: {exc.args[1]}") from None


# the benchmark's harness imports these four, and its peak-memory metric
# inherits the harness's own resident peak
def test_input_side_modules_load_no_model():
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]);"
         "import gowrank.config, gowrank.datagen, gowrank.corpus, gowrank.retrieval;"
         "print(sorted({'gowrank.model', 'scipy.special'} & sys.modules.keys()))",
         str(PACKAGE.parent)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
