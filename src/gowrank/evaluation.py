"""Ranking metrics, cross-validation folds, and TREC file parsing.

Metric computations depend only on ranks (given the deterministic
tie rule), not on raw score values.  A query with no judged-relevant
documents defines nDCG = 0 and is excluded from mean aggregates, both
behaviors chosen deliberately and kept separate from genuinely bad
rankings.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import atomic_write, open_text
from .errors import DataFormatError

# QRels: query_id -> {doc_id: grade}; unjudged pairs are absent, never 0.
QRels = dict[str, dict[str, int]]
# RunList: doc ids in rank order for one query.
RunList = list[str]


def parse_qrels(path: str | Path) -> QRels:
    """Strict `query_id 0 doc_id grade` parser (whitespace-separated)."""
    qrels: QRels = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 4:
                raise DataFormatError(
                    f"{path}:{lineno}: expected `query_id 0 doc_id grade`, "
                    f"got {len(parts)} fields"
                )
            qid, _, doc_id, grade_s = parts
            try:
                grade = int(grade_s)
            except ValueError as exc:
                raise DataFormatError(
                    f"{path}:{lineno}: grade must be an integer"
                ) from exc
            if grade < 0:
                raise DataFormatError(f"{path}:{lineno}: negative grade {grade}")
            per_query = qrels.setdefault(qid, {})
            if doc_id in per_query:
                raise DataFormatError(
                    f"{path}:{lineno}: duplicate judgment for ({qid}, {doc_id})"
                )
            per_query[doc_id] = grade
    if not qrels:
        raise DataFormatError(f"{path}: no judgments found")
    return qrels


def parse_run(path: str | Path) -> dict[str, list[tuple[str, int, float]]]:
    """Strict TREC run parser: `query_id Q0 doc_id rank score tag`.

    Returns per-query lists of (doc_id, rank, score) in file order.
    Validates field count, the Q0 column, integer ranks, float scores,
    and per-query doc uniqueness.
    """
    runs: dict[str, list[tuple[str, int, float]]] = {}
    seen: set[tuple[str, str]] = set()
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 6:
                raise DataFormatError(
                    f"{path}:{lineno}: expected 6 fields, got {len(parts)}"
                )
            qid, q0, doc_id, rank_s, score_s, _tag = parts
            if q0 != "Q0":
                raise DataFormatError(f"{path}:{lineno}: second field must be Q0")
            try:
                rank = int(rank_s)
                score = float(score_s)
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: bad rank/score") from exc
            if not math.isfinite(score):
                raise DataFormatError(f"{path}:{lineno}: non-finite score")
            if (qid, doc_id) in seen:
                raise DataFormatError(
                    f"{path}:{lineno}: duplicate document {doc_id} for query {qid}"
                )
            seen.add((qid, doc_id))
            runs.setdefault(qid, []).append((doc_id, rank, score))
    if not runs:
        raise DataFormatError(f"{path}: empty run file")
    return runs


def _ranked_docs(entries: list[tuple[str, int, float]]) -> RunList:
    """Order a parsed query block by (-score, doc_id), ignoring stated ranks."""
    return [doc for doc, _, _ in sorted(entries, key=lambda e: (-e[2], e[0]))]


def ndcg_at(ranked: RunList, judged: dict[str, int], cutoff: int = 20) -> float:
    """Graded nDCG with gain 2^grade - 1 and log2(rank+1) discount.

    The ideal DCG comes from the query's full judged set; a query with no
    positive grades yields 0 by convention.
    """
    dcg = 0.0
    for rank, doc_id in enumerate(ranked[:cutoff], start=1):
        grade = judged.get(doc_id, 0)
        if grade:
            dcg += (2.0**grade - 1.0) / math.log2(rank + 1)
    ideal = sorted(judged.values(), reverse=True)
    idcg = 0.0
    for rank, grade in enumerate(ideal[:cutoff], start=1):
        if grade:
            idcg += (2.0**grade - 1.0) / math.log2(rank + 1)
    if idcg == 0.0:
        return 0.0
    return dcg / idcg


def precision_at(ranked: RunList, judged: dict[str, int], cutoff: int = 20) -> float:
    """Fraction of the top `cutoff` ranks holding a positively judged doc.

    The denominator stays `cutoff` even when the run is shorter.
    """
    hits = sum(1 for doc_id in ranked[:cutoff] if judged.get(doc_id, 0) > 0)
    return hits / cutoff


@dataclass
class FoldSplit:
    """One rotation of k-fold cross-validation over query ids."""

    folds: list[list[str]]
    rotation: int
    train: list[str]
    validation: list[str]
    test: list[str]


def kfold_split(
    query_ids: list[str], folds: int = 5, seed: int = 0, rotation: int = 0
) -> FoldSplit:
    """Seeded shuffle, round-robin fold assignment, then role rotation.

    Fold `rotation` tests; of the remaining folds, one (seeded choice)
    validates checkpoint selection and the rest train.
    """
    if len(query_ids) < folds:
        raise DataFormatError(
            f"need at least {folds} queries for {folds}-fold splitting, "
            f"got {len(query_ids)}"
        )
    if not 0 <= rotation < folds:
        raise DataFormatError(f"rotation must be in [0, {folds}), got {rotation}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, folds]))
    shuffled = list(query_ids)
    order = rng.permutation(len(shuffled))
    shuffled = [shuffled[i] for i in order]
    fold_lists = [shuffled[i::folds] for i in range(folds)]

    test = fold_lists[rotation]
    remaining = [i for i in range(folds) if i != rotation]
    val_pick = remaining[int(rng.integers(0, len(remaining)))]
    validation = fold_lists[val_pick]
    train: list[str] = []
    for i in remaining:
        if i != val_pick:
            train.extend(fold_lists[i])
    return FoldSplit(
        folds=fold_lists,
        rotation=rotation,
        train=train,
        validation=validation,
        test=test,
    )


def evaluate_run(
    run_path: str | Path,
    qrels_path: str | Path,
    cutoff: int = 20,
) -> dict:
    """Score a run file against qrels; JSON-ready report.

    Queries present in the run but without judgments are listed under
    `unjudged` and excluded from the means.  Queries judged only with
    grade 0 (so their ideal DCG is 0) are excluded the same way rather
    than deflating the averages.  A run with no judged query has no mean,
    which is a data error.
    """
    runs = parse_run(run_path)
    qrels = parse_qrels(qrels_path)
    per_query: dict[str, dict[str, float]] = {}
    unjudged: list[str] = []
    for qid in sorted(runs):
        judged = qrels.get(qid)
        if not judged or max(judged.values()) == 0:
            unjudged.append(qid)
            continue
        ranked = _ranked_docs(runs[qid])
        per_query[qid] = {
            f"ndcg@{cutoff}": ndcg_at(ranked, judged, cutoff),
            f"p@{cutoff}": precision_at(ranked, judged, cutoff),
        }
    if not per_query:
        raise DataFormatError(f"{run_path}: no query of the run has a judgment "
                              f"above grade 0 in {qrels_path}")
    keys = [f"ndcg@{cutoff}", f"p@{cutoff}"]
    return {
        "per_query": per_query,
        "unjudged": unjudged,
        "num_queries": len(per_query),
        "mean": {
            key: sum(q[key] for q in per_query.values()) / len(per_query)
            for key in keys
        },
    }


def write_report(report: dict, path: str | Path) -> None:
    with atomic_write(path) as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
