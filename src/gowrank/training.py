"""Pairwise training: Adam, triplet sampling and the epoch loop.

An epoch's sampled documents without a graph are built in one call before
its first step.  A minibatch is scored in one `forward_batch` call: its
positive and negative documents, interleaved, stacked into block-diagonal
graphs per query width.  `model.backward` replays the recorded block traces
to the gradients of the pairwise hinge, summed over every document of a
block in the same stacked products, and Adam steps on their batch mean.
The validation pools, each query text's once, are stacked once per run.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .config import RunConfig, seed_stream
from .corpus import Query, TokenizedDoc
from .embeddings import EmbeddingTable
from .errors import DataFormatError, NumericalError
from .evaluation import QRels, ndcg_at
from .graph import DocumentGraph
from .gradcheck import grad_check  # noqa: F401 (criterion 1)
from .model import ModelParams, backward, init_params, iter_tensors, pairwise_hinge, score_blocks
from .retrieval import PostingsIndex
from .scoring import ScoringContext, pool_pairs, query_pools, rank_scored, warn_truncated
from .scoring import score_pool  # noqa: F401 (criterion 9)

log = logging.getLogger(__name__)


class AdamState:
    """Adam's learning rate, step count, and moments laid out like `params.flat`."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: ModelParams, lr: float = 0.001):
        self.lr = lr
        self.step = 0
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)


def adam_step(params: ModelParams, tape: ModelParams, state: AdamState) -> None:
    """In-place Adam update with bias correction; a non-finite gradient
    raises, naming its tensor, before anything changes."""
    if not np.isfinite(tape.flat).all():
        name = next(n for n, grad in iter_tensors(tape) if not np.isfinite(grad).all())
        raise NumericalError(f"non-finite gradient for parameter {name!r}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    grad, m, v = tape.flat, state.m, state.v
    m *= state.beta1
    m += (1.0 - state.beta1) * grad
    v *= state.beta2
    v += (1.0 - state.beta2) * grad * grad
    params.flat -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


@dataclass
class Triplet:
    query_id: str
    pos_doc: str
    neg_doc: str


def usable_queries(
    qrels: QRels, pools: dict[str, list[tuple[str, float]]]
) -> dict[str, tuple[list[str], list[str]]]:
    """Per query: (positives, negatives) drawn from its candidate pool.

    Positives are judged-relevant pool members, falling back to all
    judged-relevant docs when none survived first-stage retrieval.
    Negatives are the pool members not judged relevant, unjudged ones
    included.  Queries lacking either side are dropped (and logged).
    """
    usable: dict[str, tuple[list[str], list[str]]] = {}
    for qid in sorted(pools):
        judged = qrels.get(qid, {})
        pool_docs = [doc for doc, _ in pools[qid]]
        pos = [d for d in pool_docs if judged.get(d, 0) > 0]
        if not pos:
            pos = sorted(d for d, grade in judged.items() if grade > 0)
        neg = [d for d in pool_docs if judged.get(d, 0) == 0]
        if pos and neg:
            usable[qid] = (pos, neg)
        else:
            log.info(
                "query %s excluded from sampling (%d positives, %d negatives)",
                qid,
                len(pos),
                len(neg),
            )
    return usable


def sample_triplets(
    usable: dict[str, tuple[list[str], list[str]]],
    rng: np.random.Generator,
    count: int,
) -> list[Triplet]:
    """Uniformly sample (query, positive, negative) triplets from the
    (positives, negatives) that `usable_queries` returns."""
    if not usable:
        raise DataFormatError(
            "no trainable queries: every query lacks positives or negatives"
        )
    qids = sorted(usable)
    out = []
    for _ in range(count):
        qid = qids[int(rng.integers(0, len(qids)))]
        pos, neg = usable[qid]
        out.append(
            Triplet(
                query_id=qid,
                pos_doc=pos[int(rng.integers(0, len(pos)))],
                neg_doc=neg[int(rng.integers(0, len(neg)))],
            )
        )
    return out


def _validation_ndcg(
    stack: list,
    params: ModelParams,
    pools: dict[str, list[tuple[str, float]]],
    qrels: QRels,
    first: dict[str, str],
    epoch: int,
) -> float:
    """Mean nDCG@20 over the validation ids of `first`, each with its own
    qrels on the ranking of its text's pool (`pools` by first id, scored in
    `stack`, their `ctx.stack`); a query with an empty pool counts 0."""
    rel, _ = score_blocks(stack, params)
    if not np.isfinite(rel).all():
        raise NumericalError(f"epoch {epoch}: non-finite validation score")
    ranks = rank_scored(pools, rel)
    values = [ndcg_at([d for d, _ in ranks[text]], qrels[q], 20) for q, text in first.items()]
    return sum(values) / len(values)


def train(
    docs: dict[str, TokenizedDoc],
    queries: dict[str, Query],
    qrels: QRels,
    index: PostingsIndex,
    emb: EmbeddingTable,
    cfg: RunConfig,
    train_qids: list[str],
    val_qids: list[str],
    graphs: dict[str, DocumentGraph] | None = None,
) -> tuple[ModelParams, list[dict]]:
    """Epoch loop: sample triplets, batch-mean gradients, Adam, validate.

    Keeps the parameters with the best validation nDCG@20 (ties keep the
    earlier epoch); with no validation query to measure, the last epoch wins.
    Documents are scored through the graphs of `graphs` (see ScoringContext).
    Returns (best params, one {epoch, mean_loss, pair_acc, val_ndcg20} record
    per epoch) and writes no file.
    """
    params = init_params(cfg.hyper(), seed_stream(cfg.seed, "init"))
    state = AdamState(params, lr=cfg.lr)
    sampler = seed_stream(cfg.seed, "triplets")
    ctx = ScoringContext(docs, queries, emb, cfg.window, cfg.adjacency_mode, graphs)

    pools, first = query_pools(queries, index, cfg.candidates, {*train_qids, *val_qids})
    pools = {qid: pools[text_id] for qid, text_id in first.items()}
    train_qids = [q for q in train_qids if q in pools]
    measurable = [q for q in val_qids if q in pools
                  and max(qrels.get(q, {}).values(), default=0) > 0]
    if val_qids and not measurable:
        log.warning("no validation query has terms and a relevant document; "
                    "the final parameters are kept")
    val_qids = measurable
    # each validation text's pool is scored under its first id, from one stack
    # made at the first pass: after epoch 1's graphs, as the store orders them
    val_first = {q: first[q] for q in val_qids}
    val_pools, val_stack = {text_id: pools[text_id] for text_id in val_first.values()}, None

    best_params = params.copy()
    best_val = float("-inf")
    records: list[dict] = []
    per_epoch = cfg.batch * cfg.steps_per_epoch
    # a fallback positive must be in the corpus, and qrels may judge any doc
    usable = usable_queries({q: {d: g for d, g in qrels.get(q, {}).items() if d in docs}
                             for q in train_qids}, {q: pools[q] for q in train_qids})
    # a width no training query has runs leading blocks never trained together
    trained = {min(len(queries[q].tokens), cfg.max_query_len) for q in usable}
    for qid in sorted({*usable, *val_qids}) if usable else ():  # none when nothing trains
        warn_truncated(queries[qid], cfg.max_query_len)
        width = min(len(queries[qid].tokens), cfg.max_query_len)
        if width not in trained:
            log.warning("validation query %s scores %d terms, a width that no "
                        "training query has", qid, width)

    for epoch in range(1, cfg.epochs + 1):
        triplets = sample_triplets(usable, sampler, per_epoch)
        ctx.build(doc for t in triplets for doc in (t.pos_doc, t.neg_doc))
        losses = []
        correct = 0
        for start in range(0, len(triplets), cfg.batch):
            batch = triplets[start : start + cfg.batch]
            rel, traces = ctx.score(
                [(t.query_id, doc) for t in batch for doc in (t.pos_doc, t.neg_doc)],
                params,
                record=True,
            )
            if not np.isfinite(rel).all():
                raise NumericalError(f"epoch {epoch}: non-finite training score")
            batch_losses, d_rel = pairwise_hinge(rel)
            losses.extend(batch_losses.tolist())
            correct += int(np.count_nonzero(rel[0::2] > rel[1::2]))
            tape = backward(traces, d_rel)
            tape.flat *= 1.0 / len(batch)
            adam_step(params, tape, state)

        if val_qids and val_stack is None:
            val_stack = list(ctx.stack(pool_pairs(val_pools), cfg.max_query_len))
        val = (
            _validation_ndcg(val_stack, params, val_pools, qrels, val_first, epoch)
            if val_qids
            else 0.0
        )
        if not val_qids or val > best_val:
            best_val = val
            best_params = params.copy()
        records.append(
            {
                "epoch": epoch,
                "mean_loss": float(sum(losses) / len(losses)),
                "pair_acc": float(correct / len(losses)),
                "val_ndcg20": float(val),
            }
        )

    return best_params, records

