"""The package keeps no public code for its tests alone: every public
top-level function and class in `src/gowrank`, and every public method
and property of a top-level class, is referenced somewhere in the
package outside its own definition.  A method or property counts as
referenced only through an attribute (`x.name`), so a parameter or local
that shares its name does not hide a missing caller.  Nor does it store
a fact no code reads: every public attribute that a top-level class's
`__init__` assigns is read as `x.name` outside that `__init__`, and every
public field of a top-level dataclass is read as `x.name`."""

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
    # acceptance criterion 9 imports it; it is rank_pools' one-pool case,
    # and the pipeline ranks every pool of a pass in one rank_pools call
    "score_pool",
    # acceptance criteria 5-8 and the benchmark's expected_pools import
    # them; `index` counts and encodes with count_vocabulary and write_index
    "build_vocabulary",
    "encode_document",
}
NO_READER_NEEDED = {
    # acceptance criteria 3 and 4 build documents by keyword, this included
    "TokenizedDoc.raw_length",
    # acceptance criteria 6 and 7 score the test fold's queries
    "FoldSplit.test",
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


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _public_definitions_without_caller() -> list[str]:
    trees = _trees()
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


def _reads(node: ast.AST) -> Counter:
    """Attribute names that `node`'s code loads (`x.name`, not `x.name = ...`)."""
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


def _stored_attributes_without_reader() -> list[str]:
    trees = _trees()
    everywhere = sum((_reads(t) for t in trees.values()), Counter())
    orphans = []
    for module, tree in trees.items():
        for qualified, init in _definitions(tree):
            if not qualified.endswith(".__init__"):
                continue
            for sub in ast.walk(init):
                if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name) and sub.value.id == "self"
                        and not sub.attr.startswith("_")
                        and everywhere[sub.attr] - _reads(init)[sub.attr] == 0):
                    orphans.append(f"{module}:{sub.lineno} "
                                   f"{qualified.removesuffix('__init__')}{sub.attr}")
    return orphans


def _fields_without_reader() -> list[str]:
    trees = _trees()
    everywhere = sum((_reads(t) for t in trees.values()), Counter())
    orphans = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef)
                    and any("dataclass" in _names(d) for d in cls.decorator_list)):
                continue
            for sub in cls.body:
                if not (isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name)):
                    continue
                name = sub.target.id
                if not (name.startswith("_") or everywhere[name]
                        or f"{cls.name}.{name}" in NO_READER_NEEDED):
                    orphans.append(f"{module}:{sub.lineno} {cls.name}.{name}")
    return orphans


def test_every_public_definition_has_a_caller_in_the_package():
    assert _public_definitions_without_caller() == []


def test_every_attribute_init_stores_is_read_in_the_package():
    assert _stored_attributes_without_reader() == []


def test_every_dataclass_field_is_read_in_the_package():
    assert _fields_without_reader() == []
