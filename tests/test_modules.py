"""One module per pipeline stage: each `gowrank` module imports first in
a fresh interpreter, the modules' top-level imports of one another form
no cycle, the input-side modules load neither the model nor scipy's
special functions, the index stage's modules load no scipy at all,
`training` serves the names that the acceptance criteria import from it
as the stage modules' own objects, `graph` alone keeps the graph store,
the interaction features and the rerank stage live in `scoring`, and the
stages return what the commands of `cli` write and warn about."""

import ast
import inspect
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


def test_only_query_pools_retrieves_first_stage_pools():
    """One function decides which query ids get which pool, for `train`,
    `rerank` and `ablate` alike."""
    callers = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef))]:
            for node in ast.walk(scope):
                if isinstance(node, ast.Call) and "top_candidates" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)
                ):
                    callers.add((path.stem, getattr(scope, "name", None)))
    # the module scope holds every call of its functions as well
    assert callers == {("scoring", None), ("scoring", "query_pools")}


def _top_level_callers(names):
    """(module, top-level function or class, None for a statement) of each
    call in the package of a callable named in `names`."""
    callers = set()
    for path in PACKAGE.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and names & {
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)
                }:
                    callers.add((path.stem, getattr(top, "name", None)))
    return callers


def test_only_graph_stores_reads_and_writes_the_graph_store():
    """One module owns the store's files, version and segment rule, and
    every `artifacts.Cache` belongs to the stage whose data it keeps."""
    assert _top_level_callers({"store_arrays", "stored_graphs"}) == {("graph", "graph_stores")}
    assert {module for module, _ in _top_level_callers({"Cache"})} == {"graph", "embeddings"}


def test_graph_builds_scoring_forms_features_and_reranks():
    """`graph` imports no embeddings, the interaction features' unit rows
    are gathered only inside ScoringContext, and `cli` leaves which ids
    get which pool, and which are skipped, to `scoring.rerank`."""
    graph = ast.parse((PACKAGE / "graph.py").read_text(encoding="utf-8"))
    assert not any(isinstance(node, ast.ImportFrom) and node.level == 1
                   and node.module == "embeddings" for node in ast.walk(graph))
    assert _top_level_callers({"unit_rows"}) == {("scoring", "ScoringContext")}
    assert "cli" not in {module for module, _ in _top_level_callers({"query_pools",
                                                                     "rank_pools"})}


def test_stages_return_and_commands_write():
    """`train` takes no output path and imports no artifact writer, only
    `cli` saves a checkpoint, and ScoringContext keeps caches only: no
    method of it logs, or calls a function of `scoring` that logs."""
    assert not {"log_path", "checkpoint_path"} & set(inspect.signature(training.train).parameters)
    tree = ast.parse((PACKAGE / "training.py").read_text(encoding="utf-8"))
    assert not any(isinstance(node, ast.ImportFrom) and node.level == 1
                   and node.module == "artifacts" for node in ast.walk(tree))
    assert {module for module, _ in _top_level_callers({"save_checkpoint"})} == {"cli"}

    tree = ast.parse((PACKAGE / "scoring.py").read_text(encoding="utf-8"))
    loggers = {"log"} | {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
                         and any(getattr(sub, "id", None) == "log" for sub in ast.walk(node))}
    context = next(node for node in tree.body if getattr(node, "name", None) == "ScoringContext")
    named = {getattr(node, "id", None) or getattr(node, "attr", None) for node in ast.walk(context)}
    assert not named & loggers, named & loggers
    ctx = scoring.ScoringContext({}, {}, None, 5, "graph")
    assert not hasattr(ctx, "_truncated") and not hasattr(ctx, "warn_truncated")


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


# the modules of `index`'s own stages stay numpy-only
def test_index_modules_load_no_scipy():
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]);"
         "import gowrank.corpus, gowrank.indexfile;"
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
         str(PACKAGE.parent)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
