"""The package keeps no public code for its tests alone: every public
top-level function and class in `src/gowrank`, and every public method
and property of a top-level class, is referenced somewhere in the
package outside its own definition.  A method or property counts as
referenced only through an attribute (`x.name`), so a parameter or local
that shares its name does not hide a missing caller."""

import ast
from collections import Counter
from pathlib import Path

import gowrank

PACKAGE = Path(gowrank.__file__).parent
NO_CALLER_NEEDED = {
    # oracles of acceptance criterion 4: BM25 and query likelihood scored
    # one document at a time, kept so the postings are checked against them
    "bm25_score",
    "ql_score",
    # the synthetic collections' entry points, called from outside the
    # pipeline: the README's demo, the benchmark's input generator and
    # acceptance criteria 5-7
    "overfit_corpus",
    "bridged_corpus",
    # argparse calls it on bad usage; the override raises UsageError
    "_Parser.error",
    # acceptance criterion 3 compares build_graph(...).adjacency.toarray()
    "DocumentGraph.adjacency",
}


def _names(node: ast.AST, attributes_only: bool = False) -> Counter:
    """Identifiers that `node`'s code refers to, as an attribute or, unless
    `attributes_only`, as a bare name; docstrings are constants and
    comments are not in the tree, so neither counts."""
    kinds = ast.Attribute if attributes_only else (ast.Name, ast.Attribute)
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, kinds)
    )


def _definitions(tree: ast.Module):
    """(qualified name, node) of each top-level function and class, and of
    each method (properties included) of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{node.name}.{sub.name}", sub


def _public_definitions_without_caller() -> list[str]:
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    # everywhere[True] counts attributes only: a method is reached as `x.name`
    everywhere = {method: sum((_names(t, method) for t in trees.values()), Counter())
                  for method in (False, True)}
    orphans = []
    for module, tree in trees.items():
        for qualified, node in _definitions(tree):
            if node.name.startswith("_") or qualified in NO_CALLER_NEEDED:
                continue
            method = "." in qualified
            if everywhere[method][node.name] - _names(node, method)[node.name] == 0:
                orphans.append(f"{module}:{node.lineno} {qualified}")
    return orphans


def test_every_public_definition_has_a_caller_in_the_package():
    assert _public_definitions_without_caller() == []
