"""Scoring: (query id, doc id) pairs through the model in one batched call,
each document's graph and each query text's features cached; validation
and reranking score every candidate pool of a pass in one call.
"""

from __future__ import annotations

import logging

import numpy as np

from .corpus import Query, TokenizedDoc
from .embeddings import EmbeddingTable
from .graph import DocumentGraph, build_graphs, interaction_matrix
from .model import ForwardTrace, ModelParams, forward_batch

log = logging.getLogger(__name__)


class ScoringContext:
    """Caches graphs and interaction features for repeated scoring.

    The documents of a `score` call that have no graph yet are built
    together, in one `build_graphs` call.  Also warns, once per query id,
    when a query has more terms than the model scores.
    """

    def __init__(
        self,
        docs: dict[str, TokenizedDoc],
        queries: dict[str, Query],
        emb: EmbeddingTable,
        window: int,
        adjacency_mode: str,
    ):
        self.docs = docs
        self.queries = queries
        self.emb = emb
        self.window = window
        self.adjacency_mode = adjacency_mode
        self._graphs: dict[str, DocumentGraph] = {}
        self._feats: dict[tuple[tuple[int, ...], str], np.ndarray] = {}
        self._truncated: set[str] = set()

    def _cache_graphs(self, doc_ids) -> None:
        """Build every graph of `doc_ids` not cached yet, in one pooled call."""
        missing = [d for d in dict.fromkeys(doc_ids) if d not in self._graphs]
        if missing:
            graphs = build_graphs(
                [self.docs[d] for d in missing], self.window, self.adjacency_mode
            )
            self._graphs.update(zip(missing, graphs))

    def graph(self, doc_id: str) -> DocumentGraph:
        self._cache_graphs([doc_id])
        return self._graphs[doc_id]

    def feats(self, qid: str, doc_id: str) -> np.ndarray:
        # keyed by query text: ids that repeat a text share the matrices
        query = self.queries[qid]
        key = (tuple(query.tokens), doc_id)
        if key not in self._feats:
            self._feats[key] = interaction_matrix(self.graph(doc_id), query, self.emb)
        return self._feats[key]

    def warn_truncated(self, qid: str, budget: int) -> None:
        """Warn, once per query id, when the query has more than `budget` terms."""
        length = len(self.queries[qid].tokens)
        if length > budget and qid not in self._truncated:
            self._truncated.add(qid)
            log.warning("query %s has %d terms; keeping the first %d", qid, length, budget)

    def score(
        self, pairs: list[tuple[str, str]], params: ModelParams, record: bool = False
    ) -> tuple[np.ndarray, list[ForwardTrace] | None]:
        """Score (query id, doc id) pairs in one `forward_batch` call."""
        for qid in dict.fromkeys(qid for qid, _ in pairs):
            self.warn_truncated(qid, params.hyper.max_query_len)
        self._cache_graphs(doc_id for _, doc_id in pairs)
        docs = [
            (self._graphs[doc_id], self.feats(qid, doc_id), self.queries[qid])
            for qid, doc_id in pairs
        ]
        return forward_batch(docs, params, record)


def rank_pools(
    ctx: ScoringContext, pools: dict[str, list[tuple[str, float]]], params: ModelParams
) -> dict[str, list[tuple[str, float]]]:
    """Re-score every (query id: candidate pool) in one batched call; each
    pool comes back in (-score, doc_id) order."""
    rel, _ = ctx.score(
        [(qid, doc_id) for qid, pool in pools.items() for doc_id, _ in pool], params
    )
    scores = iter(rel.tolist())
    ranked = {}
    for qid, pool in pools.items():
        rescored = [(doc_id, next(scores)) for doc_id, _ in pool]
        ranked[qid] = sorted(rescored, key=lambda pair: (-pair[1], pair[0]))
    return ranked


def score_pool(
    ctx: ScoringContext, qid: str, pool: list[tuple[str, float]], params: ModelParams
) -> list[tuple[str, float]]:
    """`rank_pools` of one pool."""
    return rank_pools(ctx, {qid: pool}, params)[qid]
