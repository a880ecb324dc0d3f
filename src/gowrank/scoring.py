"""Interaction features and scoring: each document's graph and each query
text's node-term / query-term cosines cached, (query id, doc id) pairs
through the model in one batched call, every pool of a validation pass or
of `rerank` in one call, `rerank`'s skip warnings and the truncation warning.
"""

from __future__ import annotations

import logging
from typing import Iterable, Iterator

import numpy as np

from .corpus import Query, TokenizedDoc
from .embeddings import EmbeddingTable
from .graph import DocumentGraph, build_graphs
from .model import Block, ForwardTrace, ModelParams, score_blocks, stack_blocks
from .retrieval import PostingsIndex, top_candidates

log = logging.getLogger(__name__)


class ScoringContext:
    """Caches graphs and interaction features for repeated scoring.

    `build` is the one way the graph cache fills: the documents it is given
    that have no graph yet are built together, in one `build_graphs` call,
    and added to `graphs` (by doc id) when it is given; `stack` and `score`
    build through it.  It keeps caches only: it logs nothing.
    """

    def __init__(
        self,
        docs: dict[str, TokenizedDoc],
        queries: dict[str, Query],
        emb: EmbeddingTable,
        window: int,
        adjacency_mode: str,
        graphs: dict[str, DocumentGraph] | None = None,
    ):
        self.docs = docs
        self.queries = queries
        self.emb = emb
        self.window = window
        self.adjacency_mode = adjacency_mode
        self._graphs = {} if graphs is None else graphs
        self._feats: dict[tuple[tuple[int, ...], str], np.ndarray] = {}
        self._query_rows: dict[tuple[int, ...], np.ndarray] = {}

    def feats(self, qid: str, doc_id: str) -> np.ndarray:
        # keyed by query text: ids that repeat a text share the matrices,
        # and every document of a text its query's unit rows
        query = self.queries[qid]
        text = tuple(query.tokens)
        if (text, doc_id) not in self._feats:
            if text not in self._query_rows:
                self._query_rows[text] = self.emb.unit_rows(query.tokens)
            rows = self.emb.unit_rows(self._graphs[doc_id].node_terms)
            self._feats[text, doc_id] = rows @ self._query_rows[text].T  # n x M cosines
        return self._feats[text, doc_id]

    def build(self, doc_ids: Iterable[str]) -> None:
        """Build the graphs of `doc_ids` not cached yet, in order of first
        appearance, in one `build_graphs` call."""
        missing = [d for d in dict.fromkeys(doc_ids) if d not in self._graphs]
        if missing:
            self._graphs.update(zip(missing, build_graphs(
                [self.docs[d] for d in missing], self.window, self.adjacency_mode)))

    def stack(self, pairs: list[tuple[str, str]], max_query_len: int,
              record: bool = False) -> Iterator[Block]:
        """`stack_blocks` of (query id, doc id) pairs, for `score_blocks`."""
        self.build(d for _, d in pairs)
        docs = [
            (self._graphs[doc_id], self.feats(qid, doc_id), self.queries[qid])
            for qid, doc_id in pairs
        ]
        return stack_blocks(docs, max_query_len, record)

    def score(self, pairs: list[tuple[str, str]], params: ModelParams,
              record: bool = False) -> tuple[np.ndarray, list[ForwardTrace] | None]:
        """Score (query id, doc id) pairs: `forward_batch` through `stack`."""
        return score_blocks(self.stack(pairs, params.hyper.max_query_len, record), params, record)


def warn_truncated(query: Query, budget: int) -> None:
    """Warn when `query` has more terms than the `budget` that the model scores."""
    if len(query.tokens) > budget:
        log.warning("query %s has %d terms; keeping the first %d",
                    query.query_id, len(query.tokens), budget)


def query_pools(queries: dict[str, Query], index: PostingsIndex, candidates: int,
                qids) -> tuple[dict[str, list[tuple[str, float]]], dict[str, str]]:
    """A pool depends only on the token ids, so each text is retrieved once."""
    pools, first, first_of = {}, {}, {}  # first_of: text -> its first id
    for qid in sorted(qids):
        if tokens := tuple(queries[qid].tokens):
            first[qid] = first_of.setdefault(tokens, qid)
            if first[qid] == qid:
                pools[qid] = top_candidates(queries[qid], index, candidates)
    return pools, first


def pool_pairs(pools: dict[str, list[tuple[str, float]]]) -> list[tuple[str, str]]:
    """The (query id, doc id) pairs of every pool, pool after pool."""
    return [(qid, doc_id) for qid, pool in pools.items() for doc_id, _ in pool]


def rank_pools(
    ctx: ScoringContext, pools: dict[str, list[tuple[str, float]]], params: ModelParams
) -> dict[str, list[tuple[str, float]]]:
    """Re-score every (query id: candidate pool) in one batched call, and
    rank each pool by `rank_scored`."""
    return rank_scored(pools, ctx.score(pool_pairs(pools), params)[0])


def rank_scored(pools: dict[str, list[tuple[str, float]]],
                rel: np.ndarray) -> dict[str, list[tuple[str, float]]]:
    """Each pool with the scores `rel` of its `pool_pairs`, by (-score, doc_id)."""
    scores = iter(rel.tolist())
    return {qid: sorted([(doc_id, next(scores)) for doc_id, _ in pool],
                        key=lambda pair: (-pair[1], pair[0])) for qid, pool in pools.items()}


def score_pool(
    ctx: ScoringContext, qid: str, pool: list[tuple[str, float]], params: ModelParams
) -> list[tuple[str, float]]:
    """`rank_pools` of one pool."""
    return rank_pools(ctx, {qid: pool}, params)[qid]


def rerank(ctx: ScoringContext, index: PostingsIndex, candidates: int,
           params: ModelParams) -> dict[str, list[tuple[str, float]]]:
    """Run dict: the first-stage pool of every query id of `ctx` re-scored,
    all pools in one call.  An id with no indexed term or no match is
    skipped; each skip and truncation is warned, in sorted id order."""
    pools, first = query_pools(ctx.queries, index, candidates, ctx.queries)
    keep = {}
    for qid in sorted(ctx.queries):
        if qid not in first:
            log.warning("query %s has no indexed terms; skipped", qid)
        elif not pools[first[qid]]:
            log.warning("query %s matched no documents; skipped", qid)
        else:
            warn_truncated(ctx.queries[qid], params.hyper.max_query_len)
            keep[qid] = first[qid]
    ranked = rank_pools(ctx, pools, params)
    return {qid: ranked[text_id] for qid, text_id in keep.items()}
